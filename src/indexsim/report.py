"""Serialization of frequency reports (CSV and SVG)."""

from __future__ import annotations

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


def _sorted_rows(report: FrequencyReport) -> list[FrequencyRow]:
    """The rows in output order; ValueError for a report without rows."""
    if not report.rows:
        raise ValueError("report must contain at least one row")
    return sorted(report.rows, key=lambda r: (r.size, r.over_threshold, r.under_threshold))


def emit_csv(report: FrequencyReport, destination=None, precision: Optional[int] = 6) -> bytes:
    """Serialize a report to CSV bytes; optionally write them to a path.

    Rows are sorted by (k, over_threshold) and floats use fixed-point
    formatting with ``precision`` decimals; precision=None emits shortest
    round-trippable representations (lossless for parse_csv).  A report
    without rows raises ValueError.
    """
    lines = [CSV_HEADER]
    for row in _sorted_rows(report):
        floats = (row.over_threshold, row.under_threshold, row.over_freq, row.under_freq,
                  row.over_ci, row.under_ci)
        lines.append(",".join([str(row.size), *(_format(v, precision) for v in floats),
                               str(row.trials), str(report.master_seed)]))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if destination is not None:
        write_all([(Path(destination), "CSV", data)])
    return data


def check_destination(path: Path, what: str) -> None:
    """ValueError unless ``path`` can be replaced by a file: it has a name and is no directory."""
    if not path.name or path.is_dir():
        raise ValueError(f"cannot write {what} to {path}: it is a directory or has an empty name")


def write_all(outputs) -> None:
    """Write every (path, what, data) or none of them.

    Every destination is checked with check_destination first.  Each payload
    then goes to a temp file beside its destination; the temp files replace
    their targets only once every write has succeeded, and are removed if
    any write fails.
    """
    for path, what, _ in outputs:
        check_destination(path, what)
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
    are not kept; a row derives them from its counts.  A CSV without rows,
    which cannot give its master seed, raises ValueError too.
    """
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    text = data.decode("utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header: {lines[0] if lines else ''!r}")
    rows = []
    seeds = set()
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 9:
            raise ValueError(f"malformed CSV row: {line!r}")
        trials = int(fields[7])
        if trials < 1:
            raise ValueError(f"trials must be >= 1: {line!r}")
        # fixed-point rows print every float field with the same decimals
        floats = fields[1:7]
        widths = {len(f.partition(".")[2]) for f in floats}
        plain = all(f.lstrip("-").replace(".", "", 1).isdigit() for f in floats)
        decimals = widths.pop() if plain and len(widths) == 1 else None
        over = _count(fields[3], trials, decimals)
        under = _count(fields[4], trials, decimals)
        if not (over >= 0 and under >= 0 and over + under <= trials):
            raise ValueError(f"frequencies do not fit {trials} trials: {line!r}")
        rows.append(FrequencyRow(size=int(fields[0]), over_threshold=float(fields[1]),
                                 under_threshold=float(fields[2]), over_count=over,
                                 under_count=under, trials=trials))
        seeds.add(int(fields[8]))
    if not rows:
        raise ValueError("CSV has no rows, so it does not give the master seed")
    if len(seeds) > 1:
        raise ValueError(f"inconsistent master_seed values in CSV: {sorted(seeds)}")
    return FrequencyReport(rows=tuple(rows), master_seed=seeds.pop())


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg_chart(report: FrequencyReport, description: str = "") -> str:
    """Render the report as a standalone SVG line chart.

    One polyline per (benchmark pair, direction) series; x is the portfolio
    size on a linear scale, y the frequency in [0, 1].  Identical reports
    yield byte-identical documents.
    """
    rows = _sorted_rows(report)
    pairs = sorted({(r.over_threshold, r.under_threshold) for r in rows})
    sizes = sorted({r.size for r in rows})

    margin_left, margin_right, margin_top, margin_bottom = 70, 230, 40, 60
    plot_w = SVG_WIDTH - margin_left - margin_right
    plot_h = SVG_HEIGHT - margin_top - margin_bottom
    x_min, x_max = sizes[0], sizes[-1]
    x_span = x_max - x_min

    def x_px(k: int) -> float:
        if x_span == 0:
            return margin_left + plot_w / 2.0
        return margin_left + (k - x_min) / x_span * plot_w

    def y_px(freq: float) -> float:
        return margin_top + (1.0 - freq) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f"<desc>{_escape(description)}</desc>" if description else "<desc>frequency chart</desc>",
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]

    for i in range(5):
        frac = i / 4.0
        y = y_px(frac)
        out.append(
            f'<line x1="{margin_left}" y1="{y:.2f}" x2="{margin_left + plot_w}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{frac:.2f}</text>'
        )
    for k in sizes:
        x = x_px(k)
        out.append(
            f'<line x1="{x:.2f}" y1="{margin_top + plot_h}" x2="{x:.2f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{margin_top + plot_h + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{k}</text>'
        )
    out.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" x2="{margin_left + plot_w}" '
        f'y2="{margin_top + plot_h}" stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_h}" stroke="#000000" stroke-width="1.5"/>'
    )

    legend_x = margin_left + plot_w + 20
    legend_y = margin_top + 10
    series_idx = 0
    for over_t, under_t in pairs:
        pair_rows = [r for r in rows if (r.over_threshold, r.under_threshold) == (over_t, under_t)]
        for direction, label in (("over", f"over &gt; {over_t:.0%}"), ("under", f"under &lt; {under_t:.0%}")):
            color = _SERIES_COLORS[series_idx % len(_SERIES_COLORS)]
            freqs = [(r.size, r.over_freq if direction == "over" else r.under_freq) for r in pair_rows]
            points = " ".join(f"{x_px(k):.2f},{y_px(f):.2f}" for k, f in freqs)
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
            )
            for k, f in freqs:
                out.append(f'<circle cx="{x_px(k):.2f}" cy="{y_px(f):.2f}" r="3" fill="{color}"/>')
            ly = legend_y + series_idx * 22
            out.append(
                f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 24}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{legend_x + 30}" y="{ly + 4}" font-size="12" '
                f'font-family="sans-serif">{label}</text>'
            )
            series_idx += 1

    out.append(
        f'<text x="{margin_left + plot_w / 2:.2f}" y="{SVG_HEIGHT - 15}" text-anchor="middle" '
        'font-size="14" font-family="sans-serif">portfolio size</text>'
    )
    out.append(
        f'<text x="20" y="{margin_top + plot_h / 2:.2f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 20 {margin_top + plot_h / 2:.2f})">frequency</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
