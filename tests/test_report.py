import hashlib
import math
import numbers
import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexsim import (
    ExperimentConfig,
    FrequencyReport,
    FrequencyRow,
    ModelParams,
    emit_csv,
    emit_svg_chart,
    parse_csv,
    run_experiment,
)
from indexsim.report import CSV_HEADER, write_all


def make_row(size=1, over_t=0.5, under_t=0.5, over=3469, under=6531, trials=10_000, seed=42):
    return FrequencyRow(
        size=size,
        over_threshold=over_t,
        under_threshold=under_t,
        over_count=over,
        under_count=under,
        trials=trials,
    )


def make_report(rows, seed=42):
    return FrequencyReport(rows=tuple(rows), master_seed=seed)


GOLDEN = (
    "k,over_threshold,under_threshold,over_freq,under_freq,over_ci,under_ci,trials,master_seed\n"
    "1,0.500000,0.500000,0.346900,0.653100,0.009328,0.009328,10000,42\n"
)
# the report that GOLDEN prints
GOLDEN_REPORT = make_report([make_row()])


def written(path, data):
    """path, once data is written to it."""
    path.write_bytes(data)
    return path


class TestEmitCsv:
    ACCEPTED = {"golden-single-row": (lambda: emit_csv(GOLDEN_REPORT), GOLDEN.encode("utf-8"))}

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    def test_rows_sorted_by_size_then_threshold(self):
        rows = [
            make_row(size=5, over_t=0.7, under_t=0.3),
            make_row(size=1, over_t=0.7, under_t=0.3),
            make_row(size=5, over_t=0.5, under_t=0.5),
            make_row(size=1, over_t=0.5, under_t=0.5),
        ]
        lines = emit_csv(make_report(rows)).decode().splitlines()
        keys = [(int(l.split(",")[0]), float(l.split(",")[1])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_deterministic_bytes(self):
        report = make_report([make_row(), make_row(size=2)])
        assert emit_csv(report) == emit_csv(report)

    @pytest.mark.parametrize("spell", [Path, str])
    def test_write_all_writes_to_path(self, tmp_path, spell):
        out = tmp_path / "report.csv"
        data = emit_csv(make_report([make_row()]))
        write_all([(spell(out), "CSV", data)])
        assert out.read_bytes() == data
        assert list(tmp_path.iterdir()) == [out]

    # (outputs, files to create first, error, message) of each set that
    # write_all refuses; {tmp} is the directory it runs in, and a file name
    # ending in "/" is a directory
    WRITE_REFUSED = {
        "missing-directory": (
            [("{tmp}/no-such-dir/report.csv", "CSV", GOLDEN.encode())], {}, FileNotFoundError,
            "failed to write CSV to {tmp}/no-such-dir/report.csv: there is no directory {tmp}/no-such-dir"),
        # the CSV used to be replaced before the SVG's rename onto a directory failed
        "onto-a-directory": (
            [("{tmp}/report.csv", "CSV", b"new"), ("{tmp}/chart.svg", "SVG", b"<svg/>")],
            {"report.csv": "old", "chart.svg/": None}, ValueError,
            "cannot write SVG to {tmp}/chart.svg: it is a directory or has an empty name"),
        # the second payload used to replace the first
        "two-onto-one-file": (
            [("{tmp}/a.csv", "CSV", b"first"), ("./a.csv", "SVG", b"second")], {}, ValueError,
            "the SVG path a.csv would overwrite the CSV path {tmp}/a.csv"),
    }

    @pytest.mark.parametrize("outputs, files, error, message", WRITE_REFUSED.values(), ids=WRITE_REFUSED)
    def test_write_all_refuses(self, tmp_path, monkeypatch, outputs, files, error, message):
        # before writing anything: the directory keeps exactly the files the row made
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            if name.endswith("/"):
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)

        def listing():
            return {p.name: None if p.is_dir() else p.read_bytes() for p in tmp_path.iterdir()}

        before = listing()
        with pytest.raises(error, match=f"^{re.escape(message.replace('{tmp}', str(tmp_path)))}$"):
            write_all([(Path(path.replace("{tmp}", str(tmp_path))), what, data) for path, what, data in outputs])
        assert listing() == before

    def test_full_precision_round_trip(self):
        rows = [
            make_row(size=1, over=3469, under=6531),
            make_row(size=7, over_t=0.7, under_t=0.3, over=123, under=9871),
            make_row(size=9, over=1_234_567, under=1_000_000, trials=3_000_000),
            make_row(size=11, over=17, under=20, trials=50),
        ]
        report = make_report(rows, seed=99)
        parsed = parse_csv(emit_csv(report, precision=None))
        assert parsed.rows == report.rows
        assert parsed.master_seed == report.master_seed

    def test_fixed_precision_reserialization_is_idempotent(self):
        report = make_report([make_row(), make_row(size=3, over=10, under=20, trials=100)])
        data = emit_csv(report, precision=6)
        assert emit_csv(parse_csv(data), precision=6) == data

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(1, 10 ** 8).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, t))),
        precision=st.one_of(st.none(), st.integers(0, 9)),
    )
    # d fixed-point decimals pin a count only for trials <= 10**d; read by
    # rounding alone, 1,234,567 of 3,000,000 comes back as 1,234,566 and 17
    # of 50 as 15
    @example(counts=(3_000_000, 1_234_567), precision=6)
    @example(counts=(50, 17), precision=1)
    @example(counts=(1_000_000, 123_457), precision=6)
    @example(counts=(10, 7), precision=1)
    @example(counts=(3, 1), precision=6)
    def test_parse_is_exact_or_refuses(self, counts, precision):
        trials, over = counts
        # integer thresholds print exactly at any precision, so a row that
        # reads back pinned must equal the row that was written
        row = make_row(over_t=1.0, under_t=0.0, over=over, under=trials - over, trials=trials)
        report = make_report([row])
        data = emit_csv(report, precision=precision)
        if precision is not None and trials > 10 ** precision:
            line = data.decode().splitlines()[1]
            message = (f"frequency {line.split(',')[3]} cannot pin a count out of {trials} trials; "
                       f"emit the CSV with more decimals or at full precision: {line!r}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_csv(data)
        else:
            assert parse_csv(data).rows == report.rows

    # the lines of each CSV that parse_csv refuses, with its message
    PARSE_REFUSED = {
        # a header-only CSV used to parse back with master_seed 0
        "no-rows": ((CSV_HEADER,), "CSV has no rows, so it does not give the master seed"),
        "bad-header": (("k,nope", "1,2"), "unrecognized CSV header: 'k,nope'"),
        "counts-past-trials": ((CSV_HEADER, "1,0.5,0.5,0.75,0.5,0.0,0.0,4,42"),  # 3 over and 2 under out of 4
                               "counts (3, 2) do not fit 4 trials: '1,0.5,0.5,0.75,0.5,0.0,0.0,4,42'"),
        "negative-count": ((CSV_HEADER, "1,0.5,0.5,-0.25,0.5,0.0,0.0,4,42"),
                           "counts (-1, 2) do not fit 4 trials: '1,0.5,0.5,-0.25,0.5,0.0,0.0,4,42'"),
        "no-trials": ((CSV_HEADER, "1,0.5,0.5,0.0,0.0,0.0,0.0,0,42"),
                      "trials must be >= 1: '1,0.5,0.5,0.0,0.0,0.0,0.0,0,42'"),
        "no-master-seed": ((CSV_HEADER, "1,0.5,0.5,0.75,0.25,0.0,0.0,4"),
                           "malformed CSV row: '1,0.5,0.5,0.75,0.25,0.0,0.0,4'"),
        "ten-fields": ((CSV_HEADER, "1,0.5,0.5,0.75,0.25,0.0,0.0,4,42,42"),
                       "malformed CSV row: '1,0.5,0.5,0.75,0.25,0.0,0.0,4,42,42'"),
        # round used to raise OverflowError on these
        "inf-frequency": ((CSV_HEADER, "1,0.5,0.5,inf,0.25,0.0,0.0,4,42"),
                          "thresholds, frequencies and half-widths must be finite: '1,0.5,0.5,inf,0.25,0.0,0.0,4,42'"),
        "overflowing-frequency": (
            (CSV_HEADER, "1,0.5,0.5,0.75,1e400,0.0,0.0,4,42"),
            "thresholds, frequencies and half-widths must be finite: '1,0.5,0.5,0.75,1e400,0.0,0.0,4,42'"),
        # these used to parse, and emit_csv wrote them back
        "non-finite-thresholds": (
            (CSV_HEADER, "1,nan,-inf,0.75,0.25,0.0,0.0,4,42"),
            "thresholds, frequencies and half-widths must be finite: '1,nan,-inf,0.75,0.25,0.0,0.0,4,42'"),
        "negative-seed": ((CSV_HEADER, "1,0.5,0.5,0.75,0.25,0.0,0.0,4,-1"),
                          "master_seed must be a 64-bit unsigned integer, got -1"),
        "zero-k": ((CSV_HEADER, "0,0.5,0.5,0.75,0.25,0.0,0.0,4,42"),
                   "k must be >= 1, got 0: '0,0.5,0.5,0.75,0.25,0.0,0.0,4,42'"),
        "negative-k": ((CSV_HEADER, "-3,0.5,0.5,0.75,0.25,0.0,0.0,4,42"),
                       "k must be >= 1, got -3: '-3,0.5,0.5,0.75,0.25,0.0,0.0,4,42'"),
        "over-below-under": (
            (CSV_HEADER, "1,0.3,0.7,0.25,0.25,0.0,0.0,4,42"),
            "over_threshold must be >= under_threshold, got (0.3, 0.7): '1,0.3,0.7,0.25,0.25,0.0,0.0,4,42'"),
        "repeated-cell": ((CSV_HEADER, "1,0.5,0.5,0.75,0.25,0.0,0.0,4,42", "1,0.5,0.5,0.5,0.5,0.0,0.0,4,42"),
                          "repeated cell (k, over_threshold, under_threshold): (1, 0.5, 0.5)"),
        # this refusal used to leave out the line
        "non-integer-trials": (
            (CSV_HEADER, "1,0.5,0.5,0.75,0.25,0.0,0.0,4.0,42"),
            "invalid literal for int() with base 10: '4.0': '1,0.5,0.5,0.75,0.25,0.0,0.0,4.0,42'"),
        "mixed-master-seeds": ((CSV_HEADER, "1,0.5,0.5,0.75,0.25,0.0,0.0,4,42", "2,0.5,0.5,0.75,0.25,0.0,0.0,4,7"),
                               "inconsistent master_seed values in CSV: [7, 42]"),
    }

    @pytest.mark.parametrize("lines, message", PARSE_REFUSED.values(), ids=PARSE_REFUSED)
    def test_parse_refuses(self, lines, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_csv("".join(line + "\n" for line in lines).encode())

    # each spelling of GOLDEN's text that parse_csv reads
    PARSE_ACCEPTED = {
        "bytes": (lambda: parse_csv(GOLDEN.encode()), GOLDEN_REPORT),
        # the mark used to stick to the header, which then did not match
        "bytes-after-a-byte-order-mark": (lambda: parse_csv(b"\xef\xbb\xbf" + GOLDEN.encode()), GOLDEN_REPORT),
        "path": (lambda tmp_path: parse_csv(written(tmp_path / "r.csv", GOLDEN.encode())), GOLDEN_REPORT),
        "str-path": (lambda tmp_path: parse_csv(str(written(tmp_path / "r.csv", GOLDEN.encode()))), GOLDEN_REPORT),
    }

    @pytest.mark.parametrize("call, expected", PARSE_ACCEPTED.values(), ids=PARSE_ACCEPTED)
    def test_parse_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    def test_parse_reads_a_path_not_text(self):
        # text is taken for a file name; the type only, since the OSError and
        # its wording come from the operating system
        with pytest.raises(OSError):
            parse_csv(GOLDEN)


class TestEmitSvgChart:
    def make_dominance_report(self):
        rows = []
        for i, k in enumerate((1, 5, 20)):
            over = 2900 - 300 * i
            under = 5800 - 900 * i
            rows.append(make_row(size=k, over_t=0.7, under_t=0.3, over=over, under=under))
            rows.append(make_row(size=k, over_t=0.5, under_t=0.5, over=3500 - i, under=6500 + i))
        return make_report(rows)

    def test_well_formed_xml_single_row(self):
        svg = emit_svg_chart(make_report([make_row()]))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2  # over + under for the single benchmark pair

    def test_series_count_two_pairs(self):
        svg = emit_svg_chart(self.make_dominance_report())
        root = ET.fromstring(svg)
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 4

    def test_under_series_above_over_series(self):
        # larger frequency means smaller pixel y; check the (0.7, 0.3) pair
        svg = emit_svg_chart(self.make_dominance_report())
        root = ET.fromstring(svg)
        points = [
            [tuple(map(float, p.split(","))) for p in e.get("points").split()]
            for e in root.iter()
            if e.tag.endswith("polyline")
        ]
        over_pts, under_pts = points[2], points[3]  # pairs sorted: (0.5, 0.5) first
        assert len(over_pts) == len(under_pts) == 3
        for (xo, yo), (xu, yu) in zip(over_pts, under_pts):
            assert xo == xu
            assert yu < yo

    def test_deterministic(self):
        report = self.make_dominance_report()
        assert emit_svg_chart(report) == emit_svg_chart(report)

    def test_legend_and_axis_labels_present(self):
        svg = emit_svg_chart(self.make_dominance_report())
        assert "portfolio size" in svg
        assert "frequency" in svg
        assert "over &gt; 70%" in svg
        assert "under &lt; 30%" in svg

    def make_four_pair_report(self):
        # eight series, so the colours wrap past the six in the palette
        pairs = ((0.5, 0.5), (0.6, 0.4), (0.7, 0.3), (0.8, 0.2))
        return make_report([make_row(size=k, over_t=o, under_t=u, over=900 * i + 37 * k, under=5000 - 101 * k)
                            for i, (o, u) in enumerate(pairs) for k in (2, 4, 9)])

    # sha256 of documents that the 500-trial CLI pins, six sizes by two pairs
    # with a description, never produce
    @pytest.mark.parametrize("case, description, digest", [
        ("single size", "one size", "70d30853233405837f86c4ef70ad220207609d2018dff2039dbc065353e0b395"),
        ("four pairs", "four pairs", "db68cee2606137059ebf455f13923d6b6eaef424f2f1e2b9f16c7f7f23f00996"),
        ("two pairs", "", "b41a3069ce3a7f510927c4e7250032e5689fc8d3a52a49eb586cfe04686c18e5"),
        ("two pairs", "a & b <c>\nd > e\n\n", "5bc339def18eb5911b06a49a1f9c55c70bd9cc47d419f9c227e8259b0e79cb40"),
    ])
    def test_golden_bytes(self, case, description, digest):
        report = {"single size": make_report([make_row(size=7)]),
                  "four pairs": self.make_four_pair_report(),
                  "two pairs": self.make_dominance_report()}[case]
        svg = emit_svg_chart(report, description=description)
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest


def threshold(value):
    """value as a float if it is a real number with a finite float value, else None."""
    try:
        value = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        value = math.nan
    return value if math.isfinite(value) else None


def is_valid_report(rows, seed) -> bool:
    """The rules of a report, stated apart from FrequencyRow and FrequencyReport."""
    cells = [(size, threshold(over_t), threshold(under_t)) for size, over_t, under_t, *_ in rows]
    return 0 < len(rows) == len(set(cells)) and 0 <= seed < 2 ** 64 and all(
        type(size) is int and size >= 1
        and over_t is not None and under_t is not None and over_t >= under_t
        and trials >= 1 and over >= 0 and under >= 0 and over + under <= trials
        for (size, over_t, under_t), (*_, over, under, trials) in zip(cells, rows)
    )


# a few named thresholds, so that repeated cells are drawn often, or any finite
# float, or a fraction, which is a real number that becomes a float
finite = st.one_of(st.sampled_from([0.3, 0.5, 0.7, -0.0]), st.floats(allow_nan=False, allow_infinity=False),
                   st.fractions())
# values that are no threshold: no real number, or none with a float value
not_real = st.sampled_from(["0.5", None, Decimal("0.5"), 10 ** 400, -(10 ** 400)])


@st.composite
def report_row(draw):
    """FrequencyRow fields: valid, or about one time in four wide enough to break any rule."""
    wide = draw(st.integers(0, 3)) == 0
    thresholds = st.one_of(finite, st.floats(), not_real) if wide else finite
    over_t, under_t = draw(st.tuples(thresholds, thresholds))
    if not wide:
        over_t, under_t = sorted((over_t, under_t), reverse=True)
    # few trials, so that a wide count is often negative or too large
    trials = draw(st.integers(-1, 10) if wide else st.integers(1, 10 ** 6))
    over = draw(st.integers(-2 if wide else 0, max(trials, 0) + wide))
    under = draw(st.integers(-2 if wide else 0, max(trials - over, 0) + wide))
    return draw(st.integers(-2 if wide else 1, 6)), over_t, under_t, over, under, trials


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(report_row(), max_size=4), seed=st.integers(-2, 2 ** 64 + 1))
# each of these used to be built without error, and emit_csv then wrote a
# CSV that parse_csv refused, raised ZeroDivisionError, or read back as
# another report
@example(rows=[(1, 0.5, 0.5, 8, 5, 10)], seed=42)  # a between count of -3
@example(rows=[(1, 0.5, 0.5, 3, 4, 10)], seed=-5)
@example(rows=[(1, math.inf, 0.5, 3, 4, 10)], seed=42)
@example(rows=[(1.5, 0.5, 0.5, 3, 4, 10)], seed=42)
@example(rows=[(1, 0.5, 0.5, 0, 0, 0)], seed=42)
@example(rows=[(0, 0.3, 0.7, 1, 2, 4)], seed=42)
@example(rows=[(1, 0.5, 0.5, 3, 4, 10)] * 2, seed=42)
@example(rows=[], seed=7)  # its header-only CSV would give no master seed
# a list of rows used to leave the report unhashable, and rows out of CSV
# order used to read back in another order
@example(rows=[(5, 0.5, 0.5, 3, 4, 10), (1, 0.5, 0.5, 2, 6, 10)], seed=42)
# a string threshold used to raise TypeError, and a Fraction one to make
# emit_csv raise TypeError
@example(rows=[(1, "0.5", "0.5", 3, 4, 10)], seed=42)
@example(rows=[(1, Fraction(1, 2), Fraction(1, 4), 3, 4, 10)], seed=42)
@example(rows=[(1, 0.5, 0.5, 3, 4, 10), (1, Fraction(1, 2), 0.5, 2, 6, 10)], seed=42)
def test_reports_are_valid_by_construction_and_round_trip(rows, seed):
    try:
        report = FrequencyReport(rows=[FrequencyRow(*fields) for fields in rows], master_seed=seed)
    except ValueError:
        assert not is_valid_report(rows, seed)
        return
    assert is_valid_report(rows, seed)
    parsed = parse_csv(emit_csv(report, precision=None))
    assert parsed == report
    assert hash(parsed) == hash(report)


def test_run_round_trips_in_csv_order():
    params = ModelParams(n_stocks=20, horizon=5.0, sigma=0.2, mu_hat=0.04, sigma_hat=0.13)
    report = run_experiment(ExperimentConfig(params, sizes=(5, 1), trials_per_size=50))
    assert [row.size for row in report.rows] == [1, 1, 5, 5]
    assert parse_csv(emit_csv(report, precision=None)) == report
