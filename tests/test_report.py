import hashlib
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexsim import (
    FrequencyReport,
    FrequencyRow,
    emit_csv,
    emit_svg_chart,
    parse_csv,
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


class TestEmitCsv:
    GOLDEN = (
        "k,over_threshold,under_threshold,over_freq,under_freq,over_ci,under_ci,trials,master_seed\n"
        "1,0.500000,0.500000,0.346900,0.653100,0.009328,0.009328,10000,42\n"
    )

    def test_golden_single_row(self):
        data = emit_csv(make_report([make_row()]))
        assert data == self.GOLDEN.encode("utf-8")

    def test_rejects_empty_report(self):
        # its header-only CSV would parse back with another master seed
        with pytest.raises(ValueError, match="at least one row"):
            emit_csv(make_report([], seed=7))

    def test_parse_rejects_csv_without_rows(self):
        # a header-only CSV used to parse back with master_seed 0
        with pytest.raises(ValueError, match="no rows"):
            parse_csv((CSV_HEADER + "\n").encode("utf-8"))

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

    def test_write_all_failure_names_path(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "report.csv"
        with pytest.raises(OSError, match="failed to write CSV to .*no-such-dir"):
            write_all([(missing, "CSV", emit_csv(make_report([make_row()])))])

    def test_write_all_checks_every_destination_before_writing(self, tmp_path):
        # the CSV used to be replaced before the SVG's rename onto a directory failed
        first = tmp_path / "report.csv"
        first.write_bytes(b"old")
        (tmp_path / "chart.svg").mkdir()
        with pytest.raises(ValueError, match="cannot write SVG to .*chart.svg: it is a directory"):
            write_all([(first, "CSV", b"new"), (tmp_path / "chart.svg", "SVG", b"<svg/>")])
        assert first.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chart.svg", "report.csv"]

    def test_write_all_rejects_two_outputs_onto_one_file(self, tmp_path, monkeypatch):
        # the second payload used to replace the first
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="SVG path a.csv would overwrite the CSV path .*a.csv"):
            write_all([(tmp_path / "a.csv", "CSV", b"first"), (Path("./a.csv"), "SVG", b"second")])
        assert list(tmp_path.iterdir()) == []

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
            with pytest.raises(ValueError, match="cannot pin"):
                parse_csv(data)
        else:
            assert parse_csv(data).rows == report.rows

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_csv(b"k,nope\n1,2\n")

    @pytest.mark.parametrize("row", [
        "1,0.5,0.5,0.75,0.5,0.0,0.0,4,42",  # 3 over and 2 under out of 4
        "1,0.5,0.5,-0.25,0.5,0.0,0.0,4,42",
        "1,0.5,0.5,0.0,0.0,0.0,0.0,0,42",
    ])
    def test_parse_rejects_counts_that_do_not_fit(self, row):
        with pytest.raises(ValueError, match="trials"):
            parse_csv(f"{CSV_HEADER}\n{row}\n".encode())

    @pytest.mark.parametrize("row", [
        "1,0.5,0.5,0.75,0.25,0.0,0.0,4",  # no master_seed
        "1,0.5,0.5,0.75,0.25,0.0,0.0,4,42,42",
    ])
    def test_parse_rejects_rows_without_nine_fields(self, row):
        with pytest.raises(ValueError, match="malformed CSV row"):
            parse_csv(f"{CSV_HEADER}\n{row}\n".encode())

    @pytest.mark.parametrize("row, message", [
        # round used to raise OverflowError on these
        ("1,0.5,0.5,inf,0.25,0.0,0.0,4,42", "must be finite"),
        ("1,0.5,0.5,0.75,1e400,0.0,0.0,4,42", "must be finite"),
        # these used to parse, and emit_csv wrote them back
        ("1,nan,-inf,0.75,0.25,0.0,0.0,4,42", "must be finite"),
        ("1,0.5,0.5,0.75,0.25,0.0,0.0,4,-1", "64-bit unsigned"),
    ], ids=["inf-frequency", "overflowing-frequency", "non-finite-thresholds", "negative-seed"])
    def test_parse_rejects_values_no_experiment_writes(self, row, message):
        with pytest.raises(ValueError, match=message):
            parse_csv(f"{CSV_HEADER}\n{row}\n".encode())

    def test_parse_rejects_mixed_master_seeds(self):
        rows = ["1,0.5,0.5,0.75,0.25,0.0,0.0,4,42", "2,0.5,0.5,0.75,0.25,0.0,0.0,4,7"]
        with pytest.raises(ValueError, match=r"inconsistent master_seed values in CSV: \[7, 42\]"):
            parse_csv("\n".join([CSV_HEADER, *rows, ""]).encode())

    def test_parse_skips_a_byte_order_mark(self):
        # the mark used to stick to the header, which then did not match
        data = emit_csv(make_report([make_row()]))
        assert parse_csv(b"\xef\xbb\xbf" + data) == parse_csv(data)

    def test_parse_reads_a_path_not_text(self, tmp_path):
        data = emit_csv(make_report([make_row()]))
        (tmp_path / "r.csv").write_bytes(data)
        assert parse_csv(tmp_path / "r.csv") == parse_csv(str(tmp_path / "r.csv")) == parse_csv(data)
        with pytest.raises(OSError):
            parse_csv(data.decode())


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

    def test_rejects_empty_report(self):
        with pytest.raises(ValueError):
            emit_svg_chart(make_report([]))
