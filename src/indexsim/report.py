"""Serialization of frequency reports (CSV and SVG)."""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Optional

from .montecarlo import FrequencyReport, FrequencyRow

CSV_HEADER = "k,over_threshold,under_threshold,over_freq,under_freq,over_ci,under_ci,trials,master_seed"

SVG_WIDTH = 960
SVG_HEIGHT = 540

# One color per (benchmark pair, direction) series, in emission order.
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _format(value: float, precision: Optional[int]) -> str:
    if precision is None:
        return repr(float(value))
    return f"{value:.{precision}f}"


def emit_csv(report: FrequencyReport, precision: Optional[int] = 6) -> bytes:
    """Serialize a report to CSV bytes; write_all writes them to a file.

    Rows keep the report's order, sorted by (k, over_threshold,
    under_threshold), and floats use fixed-point formatting with
    ``precision`` decimals; precision=None emits shortest round-trippable
    representations (lossless for parse_csv).
    """
    lines = [CSV_HEADER]
    for row in report.rows:
        floats = (row.over_threshold, row.under_threshold, row.over_freq, row.under_freq,
                  row.over_ci, row.under_ci)
        lines.append(",".join([str(row.size), *(_format(v, precision) for v in floats),
                               str(row.trials), str(report.master_seed)]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_destinations(outputs) -> None:
    """ValueError unless each (path, what[, data]) output names a file of its own, after resolving;
    FileNotFoundError when its directory is missing."""
    earlier = {}
    for path, what, *_ in outputs:
        if not path.name or path.is_dir():
            raise ValueError(f"cannot write {what} to {path}: it is a directory or has an empty name")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"failed to write {what} to {path}: there is no directory {path.parent}")
        if (target := path.resolve()) in earlier:
            raise ValueError(f"the {what} path {path} would overwrite the {earlier[target]}")
        earlier[target] = f"{what} path {path}"


def write_all(outputs) -> None:
    """Write every (path, what, data) or none of them; a path is a str or a Path.

    The whole set is checked with check_destinations first.  Each payload
    then goes to a temp file beside its destination; the temp files replace
    their targets only once every write has succeeded, and are removed if
    any write fails.
    """
    outputs = [(Path(path), what, data) for path, what, data in outputs]
    check_destinations(outputs)
    staged = []
    try:
        for n, (path, what, data) in enumerate(outputs):
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{n}.tmp")
            try:
                with open(tmp, "xb") as handle:
                    staged.append(tmp)
                    handle.write(data)
            except OSError as exc:
                raise OSError(f"failed to write {what} to {path}: {exc}") from exc
        for tmp, (path, _, _) in zip(staged, outputs):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _count(field: str, trials: int, decimals: Optional[int]) -> int:
    """The count behind a printed frequency; ValueError when the field cannot pin it."""
    count = round(float(field) * trials)
    pinned = float(field) == count / trials if decimals is None else trials <= 10 ** decimals
    if not pinned:
        raise ValueError(f"frequency {field} cannot pin a count out of {trials} trials; "
                         "emit the CSV with more decimals or at full precision")
    return count


def parse_csv(source) -> FrequencyReport:
    """Rebuild a FrequencyReport from emit_csv output (bytes or a path).

    Each row keeps the counts its frequencies pin, and ValueError is raised
    where they cannot: d fixed-point decimals pin a count only when
    trials <= 10**d, and a shortest repr (precision=None) pins it when it
    equals count / trials exactly.  The printed frequencies and half-widths
    are not kept; a row derives them from its counts.  ValueError is raised
    too for a CSV without rows, which cannot give its master seed, for a
    float field that is not finite, for rows with different master seeds,
    and for every row or report that FrequencyRow or FrequencyReport
    refuses.  A leading UTF-8 byte-order mark is skipped.
    """
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    text = data.decode("utf-8-sig")
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header: {lines[0] if lines else ''!r}")
    rows, seeds = [], set()
    for line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != 9:
                raise ValueError("malformed CSV row")
            trials = int(fields[7])
            if trials < 1:
                raise ValueError("trials must be >= 1")
            floats = fields[1:7]
            if not all(math.isfinite(float(f)) for f in floats):
                raise ValueError("thresholds, frequencies and half-widths must be finite")
            # fixed-point rows print every float field with the same decimals
            widths = {len(f.partition(".")[2]) for f in floats}
            plain = all(f.lstrip("-").replace(".", "", 1).isdigit() for f in floats)
            decimals = widths.pop() if plain and len(widths) == 1 else None
            rows.append(FrequencyRow(int(fields[0]), float(fields[1]), float(fields[2]),
                                     over_count=_count(fields[3], trials, decimals),
                                     under_count=_count(fields[4], trials, decimals),
                                     trials=trials))
            seeds.add(int(fields[8]))
        except ValueError as exc:
            raise ValueError(f"{exc}: {line!r}") from None
    if not rows:
        raise ValueError("CSV has no rows, so it does not give the master seed")
    if len(seeds) > 1:
        raise ValueError(f"inconsistent master_seed values in CSV: {sorted(seeds)}")
    return FrequencyReport(rows=tuple(rows), master_seed=seeds.pop())


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    """One line element; the caller formats each coordinate (ints print as they are)."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, body, size: int = 12, anchor: str = "", tail: str = "") -> str:
    """One sans-serif text element; ``tail`` holds further attributes, each after a space."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor} font-size="{size}" font-family="sans-serif"{tail}>{body}</text>'


def emit_svg_chart(report: FrequencyReport, description: str = "") -> str:
    """Render the report as a standalone SVG line chart.

    One polyline per (benchmark pair, direction) series; x is the portfolio
    size on a linear scale, y the frequency in [0, 1].  Identical reports
    yield byte-identical documents.
    """
    rows = report.rows
    pairs = sorted({(r.over_threshold, r.under_threshold) for r in rows})
    sizes = sorted({r.size for r in rows})
    # the edges of the plot area, in pixels
    left, top, right, bottom = 70, 40, SVG_WIDTH - 230, SVG_HEIGHT - 60
    x_min, x_span = sizes[0], sizes[-1] - sizes[0]

    def x_px(k: int) -> float:
        if x_span == 0:
            return (left + right) / 2
        return left + (k - x_min) / x_span * (right - left)

    def y_px(freq: float) -> float:
        return top + (1.0 - freq) * (bottom - top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f"<desc>{_escape(description) or 'frequency chart'}</desc>",
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_px(frac)
        out += [_line(left, f"{y:.2f}", right, f"{y:.2f}", "#dddddd", 1),
                _text(left - 8, f"{y + 4:.2f}", f"{frac:.2f}", anchor="end")]
    for k in sizes:
        x = f"{x_px(k):.2f}"
        out += [_line(x, bottom, x, bottom + 5, "#000000", 1), _text(x, bottom + 20, k, anchor="middle")]
    out += [_line(left, bottom, right, bottom, "#000000", 1.5), _line(left, top, left, bottom, "#000000", 1.5)]

    series = [(pair, field, label) for pair in pairs
              for field, label in (("over_freq", f"over &gt; {pair[0]:.0%}"),
                                   ("under_freq", f"under &lt; {pair[1]:.0%}"))]
    for i, (pair, field, label) in enumerate(series):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        points = [(f"{x_px(r.size):.2f}", f"{y_px(getattr(r, field)):.2f}")
                  for r in rows if (r.over_threshold, r.under_threshold) == pair]
        path = " ".join(f"{x},{y}" for x, y in points)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{path}"/>')
        out += [f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>' for x, y in points]
        legend_y = top + 10 + i * 22
        out += [_line(right + 20, legend_y, right + 44, legend_y, color, 2),
                _text(right + 50, legend_y + 4, label)]

    mid_y = f"{(top + bottom) / 2:.2f}"
    out += [_text(f"{(left + right) / 2:.2f}", SVG_HEIGHT - 15, "portfolio size", size=14, anchor="middle"),
            _text(20, mid_y, "frequency", size=14, anchor="middle", tail=f' transform="rotate(-90 20 {mid_y})"'),
            "</svg>"]
    return "\n".join(out) + "\n"
