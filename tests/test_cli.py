import hashlib
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import indexsim.cli as cli
import indexsim.enumeration as enumeration
import indexsim.montecarlo as montecarlo
from indexsim.cli import build_parser, main
from indexsim.report import parse_csv


def run_cli(*argv):
    return main(list(argv))


def error_line(capsys):
    """The one ``error:`` line a failed command printed; it must have printed nothing else."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


# Exact stdout of `enumerate` over the universe of test_golden_oracle_universe.
ORACLE_UNIVERSE_STDOUT = (
    "return    count\n"
    "0.100000  131071\n"
    "0.122222  3\n"
    "0.123529  51\n"
    "0.125000  408\n"
    "0.126667  2040\n"
    "0.128571  7140\n"
    "0.130769  18564\n"
    "0.133333  37128\n"
    "0.136364  58344\n"
    "0.140000  72930\n"
    "0.142105  3\n"
    "0.144444  72981\n"
    "0.147059  408\n"
    "0.150000  60384\n"
    "0.153333  7140\n"
    "0.157143  55692\n"
    "0.160000  1\n"
    "0.161538  37128\n"
    "0.163158  17\n"
    "0.166667  77044\n"
    "0.170588  680\n"
    "0.172727  72930\n"
    "0.175000  2380\n"
    "0.180000  86258\n"
    "0.185714  12376\n"
    "0.188889  58344\n"
    "0.192308  19448\n"
    "0.200000  24310\n"
    "0.200000  39168\n"
    "0.209091  24310\n"
    "0.214286  18564\n"
    "0.220000  19448\n"
    "0.233333  19924\n"
    "0.250000  6188\n"
    "0.260000  2040\n"
    "0.271429  2380\n"
    "0.300000  1139\n"
    "0.340000  136\n"
    "0.366667  51\n"
    "0.400000  17\n"
    "0.500000  7\n"
    "benchmark=0.160000 below=524287 equal=1 above=524287\n"
    "portfolios=1048575 mean=0.160000 median=0.160000 under_fraction=0.500000\n"
)


class TestCalibrateCommand:
    def test_reference_calibration(self, capsys):
        code = run_cli("calibrate", "--median", "0.10", "--expected", "0.50",
                       "--sigma", "0.20", "--horizon", "5")
        out = capsys.readouterr().out
        assert code == 0
        assert "0.039062" in out
        assert "0.129663" in out or "0.1296626" in out
        assert "4%" in out
        assert "13%" in out

    def test_infeasible_target_exits_2(self, capsys):
        code = run_cli("calibrate", "--median", "0.10", "--expected", "0.05",
                       "--sigma", "0.2", "--horizon", "5")
        err = capsys.readouterr().err
        assert code == 2
        assert "log(1 + expected_return)" in err

    def test_missing_flag_exits_2(self, capsys):
        assert run_cli("calibrate", "--median", "0.10") == 2
        assert error_line(capsys).startswith("error: model is underspecified")

    def test_unparsable_value_exits_2(self, capsys):
        assert run_cli("calibrate", "--median", "abc") == 2
        assert error_line(capsys).startswith("error: invalid median from --median")

    def test_paper_defaults_match_explicit_flags_and_simulate(self, tmp_path, capsys):
        # calibrate reads the model settings and defaults that analytic and simulate read
        assert run_cli("calibrate", "--paper-defaults") == 0
        out = capsys.readouterr().out
        assert run_cli("calibrate", "--median", "0.10", "--expected", "0.50",
                       "--sigma", "0.20", "--horizon", "5") == 0
        assert capsys.readouterr().out == out
        assert run_cli("simulate", "--paper-defaults", "--trials", "1", "--sizes", "1",
                       "--n", "10", "--out", str(tmp_path / "r.csv")) == 0
        sidecar = dict(line.split(" = ") for line in
                       (tmp_path / "r.csv.config").read_text().splitlines()[1:])
        printed = [line.split()[2] for line in out.splitlines()]
        assert printed == [f"{float(sidecar[key]):.10f}" for key in ("mu_hat", "sigma_hat")]


class TestAnalyticCommand:
    def test_reference_defaults(self, capsys):
        code = run_cli("analytic", "--paper-defaults")
        out = capsys.readouterr().out
        assert code == 0
        assert "expected_index_value = 1.500000" in out
        assert "median_stock_value = 1.100000" in out
        assert "underperformance_factor = 1.363636" in out

    def test_degenerate_params(self, capsys):
        code = run_cli("analytic", "--mu-hat", "0", "--sigma-hat", "0", "--sigma", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "expected_index_value = 1.000000" in out
        assert "median_stock_value = 1.000000" in out
        assert "underperformance_factor = 1.000000" in out

    def test_json_toggle(self, capsys):
        code = run_cli("analytic", "--paper-defaults", "--json")
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["expected_index_value"] == pytest.approx(1.5, rel=1e-12)
        assert payload["median_stock_value"] == pytest.approx(1.1, rel=1e-12)

    def test_golden_text_output(self, capsys):
        assert run_cli("analytic", "--paper-defaults") == 0
        assert capsys.readouterr().out == (
            "expected_index_value = 1.500000\n"
            "median_stock_value = 1.100000\n"
            "underperformance_factor = 1.363636\n"
            "log_mean = 0.095310\n"
            "log_variance = 0.620310\n"
        )

    def test_golden_json_output(self, capsys):
        assert run_cli("analytic", "--paper-defaults", "--json") == 0
        assert capsys.readouterr().out == (
            '{"expected_index_value": 1.5, "log_mean": 0.0953101798043249, '
            '"log_variance": 0.620309856607679, "median_stock_value": 1.1, '
            '"underperformance_factor": 1.3636363636363635}\n'
        )

    def test_overflowing_closed_form_exits_2(self, capsys):
        # exp(0.5 * 7.6**2 * 5**2) = exp(722) is past the floats, though every
        # drawn value, at most exp(315), is not
        code = run_cli("analytic", "--mu-hat", "0", "--sigma-hat", "7.6", "--sigma", "0.2",
                       "--horizon", "5")
        assert code == 2
        assert error_line(capsys) == "error: the expected index value exp(722) overflows a float\n"

    def test_underspecified_model_exits_2(self, capsys):
        code = run_cli("analytic")
        assert code == 2
        assert "underspecified" in capsys.readouterr().err

    @pytest.mark.parametrize("given", ["mu_hat", "sigma_hat"])
    def test_half_drift_pair_exits_2(self, capsys, given):
        # --paper-defaults used to fill the targets, which then replaced the drift given
        assert run_cli("analytic", f"--{given.replace('_', '-')}", "0.9", "--paper-defaults") == 2
        assert error_line(capsys) == ("error: mu_hat and sigma_hat are given together or not at all; "
                                      f"only {given} is given\n")

    def test_drift_pair_with_paper_defaults_is_the_drift_model(self, capsys):
        # --paper-defaults fills the targets only when no drift is given
        assert run_cli("analytic", "--mu-hat", "0.04", "--sigma-hat", "0.13") == 0
        alone = capsys.readouterr().out
        assert run_cli("analytic", "--mu-hat", "0.04", "--sigma-hat", "0.13", "--paper-defaults") == 0
        assert capsys.readouterr().out == alone


class TestDemoCommand:
    def test_exact_worked_example(self, capsys):
        code = run_cli("demo")
        out = capsys.readouterr().out
        assert code == 0
        assert "portfolios=15 mean=0.180000 median=0.100000 under_fraction=0.666667" in out

    def test_byte_identical_repeat(self, capsys):
        run_cli("demo")
        first = capsys.readouterr().out
        run_cli("demo")
        second = capsys.readouterr().out
        assert first == second

    def test_golden_output(self, capsys):
        run_cli("demo")
        assert capsys.readouterr().out == (
            "gross values: 1.10 1.10 1.10 1.10 1.50\n"
            "subset sizes: 1 2\n"
            "return    count\n"
            "0.100000  10\n"
            "0.300000  4\n"
            "0.500000  1\n"
            "benchmark=0.180000 below=10 equal=0 above=5\n"
            "portfolios=15 mean=0.180000 median=0.100000 under_fraction=0.666667\n"
        )

    def test_benchmark_at_lattice_point(self, capsys):
        code = run_cli("demo", "--benchmark", "0.10")
        out = capsys.readouterr().out
        assert code == 0
        assert "under_fraction=0.000000" in out

    def test_nan_benchmark_exits_2(self, capsys):
        # a NaN used to count every subset as below it
        assert run_cli("demo", "--benchmark", "nan") == 2
        assert "finite" in error_line(capsys)

    @pytest.mark.parametrize("flags", [[], ["--benchmark", "0.10"]], ids=["mean", "0.10"])
    def test_is_enumerate_on_the_five_stock_universe(self, capsys, flags):
        assert run_cli("demo", *flags) == 0
        demo = capsys.readouterr().out
        assert run_cli("enumerate", "--values", "1.1,1.1,1.1,1.1,1.5", "--sizes", "1,2", *flags) == 0
        # demo adds its two preamble lines
        assert demo.split("\n", 2)[2] == capsys.readouterr().out


class TestEnumerateCommand:
    def test_explicit_values(self, capsys):
        code = run_cli("enumerate", "--values", "1.1,1.1,1.1,1.1,1.5",
                       "--sizes", "1,2", "--benchmark", "0.18")
        out = capsys.readouterr().out
        assert code == 0
        assert "portfolios=15" in out
        assert "under_fraction=0.666667" in out

    def test_golden_oracle_universe(self, capsys):
        # a 20-stock universe with three 50% winners, every size 1..20:
        # 2**20 - 1 subsets, and two distinct returns that both print 0.200000
        values = ["1.1"] * 20
        for winner in (0, 3, 8):
            values[winner] = "1.5"
        code = run_cli("enumerate", "--values", ",".join(values),
                       "--sizes", ",".join(str(k) for k in range(1, 21)))
        assert code == 0
        assert capsys.readouterr().out == ORACLE_UNIVERSE_STDOUT

    # 12 lognormal values whose 4,095 subsets all give distinct returns
    DISTINCT = np.random.default_rng(12).lognormal(0.0, 0.5, size=12).tolist()
    DISTINCT_ARGS = ("enumerate", "--values", ",".join(map(repr, DISTINCT)),
                     "--sizes", ",".join(str(k) for k in range(1, 13)))

    def test_golden_all_distinct_universe(self, capsys):
        # the other pins have many equal returns; here every line is its own
        assert run_cli(*self.DISTINCT_ARGS) == 0
        out = capsys.readouterr().out
        assert out.count("  1\n") == 4095
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b331ca74afea330944f3c597c04c07e19810e55390e16ea4c189c0b554c85b27")

    @pytest.mark.parametrize("level,split", [
        ("-0.5", "below=0 equal=0 above=4095"),  # below every return
        ("1.5", "below=4095 equal=0 above=0"),  # above every return
        (repr(min(DISTINCT) - 1.0), "below=0 equal=1 above=4094"),  # the lowest return
        (repr(math.fsum(DISTINCT) / 12 - 1.0), "below=2047 equal=1 above=2047"),  # the index mean
    ])
    def test_all_distinct_benchmark_split(self, capsys, level, split):
        assert run_cli(*self.DISTINCT_ARGS, "--benchmark", level) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4098
        assert lines[-2] == f"benchmark={float(level):.6f} {split}"
        assert lines[-1].startswith("portfolios=4095 ")

    def test_overflow_exits_2(self, capsys):
        # the 2-subset sum exceeds a float
        assert run_cli("enumerate", "--values", "1e308,1e308", "--sizes", "2", "--benchmark", "0") == 2
        assert error_line(capsys) == "error: a subset sum overflows a float\n"

    def test_overflowing_index_sum_has_a_finite_mean(self, capsys):
        # the sum of all values exceeds a float, but the default benchmark,
        # the index mean return, and every 1-subset return are 1e308 - 1
        assert run_cli("enumerate", "--values", "1e308,1e308", "--sizes", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].endswith(" below=0 equal=2 above=0")

    def test_nan_benchmark_exits_2(self, capsys):
        code = run_cli("enumerate", "--values", "1.1,1.5", "--sizes", "1", "--benchmark", "nan")
        assert code == 2
        assert "finite" in error_line(capsys)

    def test_cap_exceeded_exits_2(self, capsys, monkeypatch):
        # 12 distinct values at sizes up to 6 make 2,509 histogram entries
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 100)
        assert run_cli(*self.DISTINCT_ARGS) == 2
        assert "more than 100 histogram entries" in error_line(capsys)

    @pytest.mark.parametrize("values,sizes,count", [
        # the README's 500-stock example, 1.2e149 subsets
        (",".join(["1.1"] * 497 + ["1.5"] * 3), "1,20,250",
         500 + math.comb(500, 20) + math.comb(500, 250)),
        # the README's 30 cent values, 155,117,520 subsets
        (",".join("%.2f" % (1 + i / 100) for i in range(30)), "15", math.comb(30, 15)),
    ], ids=["paper_sized", "cents"])
    def test_readme_examples_need_no_option(self, capsys, values, sizes, count):
        assert run_cli("enumerate", "--values", values, "--sizes", sizes) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith(f"portfolios={count} ")

    @pytest.mark.parametrize("flag", [("--cap", "1e150"), ("--cap=100",)])
    def test_removed_cap_flag_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("enumerate", "--values", "1.1,1.5", "--sizes", "1", *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("demo", "--benchmark", "abc"), "invalid benchmark from --benchmark: "),
    (("enumerate", "--values", "1.1,1.5", "--sizes", "1", "--benchmark", "abc"),
     "invalid benchmark from --benchmark: "),
    (("enumerate", "--sizes", "1"), "enumerate needs --values and --sizes"),
], ids=["demo-benchmark", "enumerate-benchmark", "enumerate-without-values"])
def test_demo_and_enumerate_option_errors_are_one_line(capsys, argv, message):
    # argparse used to print its usage block for these and exit from inside main
    assert run_cli(*argv) == 2
    assert message in error_line(capsys)


class TestSimulateCommand:
    def test_single_trial_full_index(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code = run_cli("simulate", "--paper-defaults", "--trials", "1",
                       "--sizes", "500", "--out", str(out_csv))
        assert code == 0
        report = parse_csv(out_csv)
        for row in report.rows:
            assert row.over_count + row.under_count + row.between_count == 1

    def test_writes_csv_sidecar_and_svg(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        code = run_cli("simulate", "--paper-defaults", "--trials", "50", "--sizes", "1,2",
                       "--n", "30", "--out", str(out_csv), "--svg", str(svg))
        assert code == 0
        assert out_csv.exists()
        assert (tmp_path / "r.csv.config").exists()
        assert svg.read_text().startswith("<svg")

    def test_wrote_lines_spell_every_path_alike(self, tmp_path, capsys, monkeypatch):
        # the SVG path used to be printed as given, "./y.svg", the others through Path
        monkeypatch.chdir(tmp_path)
        code = run_cli("simulate", "--paper-defaults", "--trials", "5", "--sizes", "1",
                       "--n", "10", "--out", "./x.csv", "--svg", "./y.svg")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == ["wrote x.csv", "wrote x.csv.config", "wrote y.svg"]

    def test_trailing_comma_in_benchmarks_is_ignored(self, tmp_path, capsys):
        csvs = []
        for benchmarks in ("0.5:0.5", "0.5:0.5,"):
            out_csv = tmp_path / f"{len(csvs)}.csv"
            code = run_cli("simulate", "--paper-defaults", "--trials", "20", "--sizes", "1,2",
                           "--n", "20", "--benchmarks", benchmarks, "--out", str(out_csv))
            assert code == 0
            csvs.append(out_csv.read_bytes())
        assert csvs[0] == csvs[1]

    def test_help_names_both_modes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside a mode name
        with pytest.raises(SystemExit):
            run_cli("simulate", "--help")
        out = capsys.readouterr().out
        assert all(mode in out for mode in montecarlo.MODES)

    def test_sidecar_reload_reproduces_csv(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        run_cli("simulate", "--paper-defaults", "--trials", "40", "--sizes", "1,3",
                "--n", "25", "--out", str(first))
        second = tmp_path / "b.csv"
        code = run_cli("simulate", "--config", str(first) + ".config", "--out", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.fixture
    def sidecar(self, tmp_path, capsys):
        """The config sidecar of a small paper run; its drifts are the calibrated ones."""
        assert run_cli("simulate", "--paper-defaults", "--trials", "20", "--sizes", "1,2",
                       "--n", "20", "--out", str(tmp_path / "a.csv")) == 0
        capsys.readouterr()
        return tmp_path / "a.csv.config"

    @pytest.mark.parametrize("targets", [["--median", "0.3", "--expected", "0.9"], ["--median", "0.3"],
                                         ["--paper-defaults", "--expected", "0.9"]])
    def test_targets_beside_sidecar_drifts_exit_2_before_running(self, tmp_path, capsys, sidecar,
                                                                 monkeypatch, targets):
        # the targets used to be dropped, and the sidecar's drifts run unchanged
        monkeypatch.setattr("indexsim.cli.run_experiment",
                            lambda *a, **k: pytest.fail("trials ran before the configuration was checked"))
        code = run_cli("simulate", "--config", str(sidecar), *targets, "--out", str(tmp_path / "b.csv"))
        assert code == 2
        assert error_line(capsys) == ("error: median and expected calibrate mu_hat and sigma_hat, "
                                      "so neither is given beside them\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.csv.config"]

    def test_sidecar_with_paper_defaults_reproduces_csv(self, tmp_path, capsys, sidecar):
        # --paper-defaults fills the targets only when no drift is given
        code = run_cli("simulate", "--config", str(sidecar), "--paper-defaults",
                       "--out", str(tmp_path / "b.csv"))
        assert code == 0
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.config"
        config.write_text(
            "# comment line\n"
            "n_stocks = 25\n"
            "mu_hat = 0.04\n"
            "sigma_hat = 0.1\n"
            "sizes = 1\n"
            "trials = 30\n"
            "seed = 9\n"
        )
        out_csv = tmp_path / "r.csv"
        code = run_cli("simulate", "--config", str(config), "--trials", "20", "--out", str(out_csv))
        assert code == 0
        report = parse_csv(out_csv)
        assert report.rows[0].trials == 20  # flag wins
        assert report.master_seed == 9  # file beats default

    def test_environment_does_not_set_the_seed(self, tmp_path, capsys, monkeypatch):
        # no environment variable sets a setting, so the paper run keeps seed 42
        monkeypatch.setenv("INDEXSIM_SEED", "7")
        out_csv = tmp_path / "env.csv"
        code = run_cli("simulate", "--paper-defaults", "--trials", "10", "--sizes", "1",
                       "--n", "10", "--out", str(out_csv))
        assert code == 0
        assert parse_csv(out_csv).master_seed == 42
        assert "seed = 42\n" in (tmp_path / "env.csv.config").read_text()

    def test_failed_svg_write_leaves_no_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code = run_cli("simulate", "--paper-defaults", "--trials", "5", "--sizes", "1",
                       "--n", "10", "--out", str(out_csv),
                       "--svg", str(tmp_path / "missing-dir" / "r.svg"))
        assert code == 3
        assert "failed to write SVG" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_failed_staging_write_leaves_no_outputs(self, tmp_path, capsys):
        # every destination passes its checks, and the SVG's temp file then cannot be created
        out_csv, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        blocker = tmp_path / f".r.svg.{os.getpid()}.2.tmp"
        blocker.write_bytes(b"not ours")
        code = run_cli("simulate", "--paper-defaults", "--trials", "5", "--sizes", "1",
                       "--n", "10", "--out", str(out_csv), "--svg", str(svg))
        assert code == 3
        assert error_line(capsys).startswith(f"error: failed to write SVG to {svg}: ")
        assert [p.name for p in tmp_path.iterdir()] == [blocker.name]
        assert blocker.read_bytes() == b"not ours"

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--paper-defaults", "--trials", "0",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        # the mark used to stick to the first key: "unknown config file keys: \ufeffn_stocks"
        config = tmp_path / "run.config"
        config.write_bytes(b"\xef\xbb\xbfn_stocks = 10\nseed = 9\n")
        out_csv = tmp_path / "r.csv"
        code = run_cli("simulate", "--config", str(config), "--paper-defaults", "--trials", "5",
                       "--sizes", "1", "--out", str(out_csv))
        assert code == 0
        assert parse_csv(out_csv).master_seed == 9
        assert "n_stocks = 10\n" in (tmp_path / "r.csv.config").read_text()

    def test_config_value_keeps_its_hash(self, tmp_path, capsys):
        # a '#' inside a value used to cut it: this file wrote "run" and "run.config"
        out_csv = tmp_path / "run#1.csv"
        config = tmp_path / "run.config"
        config.write_text(f"# a comment line\nout = {out_csv}\ntrials = 5  # five\n")
        code = run_cli("simulate", "--config", str(config), "--paper-defaults", "--sizes", "1",
                       "--n", "10")
        assert code == 0
        assert parse_csv(out_csv).rows[0].trials == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run#1.csv.config", "run.config"]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.config"
        config.write_text("mu_hat = 0.04\nsigma_hat = 0.1\ntrails = 100\n")
        code = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "trails" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--frobnicate")
        assert exc.value.code == 2

    def test_missing_model_spec_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "underspecified" in capsys.readouterr().err

    def test_fresh_processes_produce_identical_csv(self, tmp_path):
        outputs = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "indexsim.cli", "simulate", "--paper-defaults",
                 "--trials", "60", "--sizes", "1,4", "--n", "40", "--out", str(out)],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dead_worker_exits_4(self, tmp_path, capsys, monkeypatch):
        class DeadPool(Executor):
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", DeadPool)
        code = run_cli("simulate", "--paper-defaults", "--trials", "5", "--sizes", "1,2",
                       "--n", "10", "--workers", "2", "--out", str(tmp_path / "r.csv"),
                       "--svg", str(tmp_path / "r.svg"))
        assert code == 4
        assert capsys.readouterr().err == "error: a worker process died before its trials finished\n"
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_exits_130(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("indexsim.cli.run_experiment", interrupted)
        code = run_cli("simulate", "--paper-defaults", "--out", str(tmp_path / "r.csv"))
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers,sizes", [("1", "1"), ("2", "1"), ("2", "1,2")])
    def test_overflowing_universe_exits_2(self, tmp_path, workers, sizes):
        # exp(300 * 5) overflows to inf: ModelParams rejects the model in the
        # parent process, before any worker starts or any trial runs
        result = subprocess.run(
            [sys.executable, "-m", "indexsim.cli", "simulate", "--mu-hat", "300",
             "--sigma-hat", "0", "--sizes", sizes, "--trials", "3", "--benchmarks", "0.5:0.5",
             "--workers", workers, "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == "error: terminal values must be positive and finite\n"
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def run_with_setting(tmp_path, where, key, value):
        """simulate --paper-defaults with one setting given as a flag or in a config file."""
        argv = ["simulate", "--paper-defaults", "--out", str(tmp_path / "x.csv")]
        if where == "flag":
            argv += ["--" + key, value]
        else:
            config = tmp_path / "run.config"
            config.write_text(f"{key} = {value}\n")
            argv += ["--config", str(config)]
        return run_cli(*argv)

    @pytest.fixture
    def no_trials(self, monkeypatch):
        """Fail the test if simulate starts its trials."""
        monkeypatch.setattr("indexsim.cli.run_experiment",
                            lambda *a, **k: pytest.fail("trials ran before the configuration was checked"))

    @pytest.mark.parametrize("where", ["flag", "file"])
    # past 1074 places every float's expansion is only zeros
    @pytest.mark.parametrize("value", ["-1", "six", "1075"])
    def test_invalid_precision_exits_2_before_running(self, tmp_path, capsys, no_trials,
                                                      where, value):
        code = self.run_with_setting(tmp_path, where, "precision", value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid precision")
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.csv.config").exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_other_sampling_exits_2_before_running(self, tmp_path, capsys, no_trials, where):
        # fresh-universe is the only sampling scheme; the key stays so that
        # stored sidecars reload
        code = self.run_with_setting(tmp_path, where, "sampling", "direct-iid")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid sampling")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("svg", ["x.csv", "./x.csv", "x.csv.config"])
    def test_svg_onto_csv_or_sidecar_exits_2_before_running(self, tmp_path, capsys, monkeypatch,
                                                            no_trials, where, svg):
        # the SVG used to replace the CSV or the sidecar it was written after
        monkeypatch.chdir(tmp_path)
        assert self.run_with_setting(tmp_path, where, "svg", svg) == 2
        assert "would overwrite" in error_line(capsys)
        assert [p.name for p in tmp_path.iterdir()] == (["run.config"] if where == "file" else [])

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    @pytest.mark.parametrize("path", ["taken", ""], ids=["directory", "empty"])
    def test_output_path_that_is_no_file_exits_2_before_running(self, tmp_path, capsys, monkeypatch,
                                                                 no_trials, flag, path):
        # a directory used to fail its rename after the other outputs were
        # written, and an empty name only after every trial had run
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        assert run_cli("simulate", "--paper-defaults", "--out", "x.csv", f"{flag}={path}") == 2
        assert "is a directory or has an empty name" in error_line(capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    @pytest.mark.parametrize("directory", ["missing", "plain"], ids=["missing", "file"])
    def test_output_directory_that_is_no_directory_exits_3_before_running(
            self, tmp_path, capsys, monkeypatch, no_trials, flag, directory):
        # every trial used to run first, and the error then named a .tmp staging file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plain").write_bytes(b"")
        assert run_cli("simulate", "--paper-defaults", "--out", "x.csv", flag, f"{directory}/r.out") == 3
        assert error_line(capsys).endswith(f": there is no directory {directory}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["plain"]
        assert (tmp_path / "plain").read_bytes() == b""

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, no_trials, kind):
        # exit 3 is for output I/O; a config file that cannot be read is a
        # configuration error
        config = tmp_path / "missing.config" if kind == "missing" else tmp_path
        code = run_cli("simulate", "--paper-defaults", "--config", str(config),
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert error_line(capsys).startswith(f"error: cannot read config file {config}: ")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_config_key_exits_2(self, tmp_path, capsys, no_trials):
        # the last value used to win silently
        config = tmp_path / "run.config"
        config.write_text("seed = 5\nn_stocks = 10\nseed = 6\n")
        code = run_cli("simulate", "--paper-defaults", "--config", str(config),
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert error_line(capsys) == f"error: {config}:3: repeated key 'seed'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.config"]

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys, no_trials):
        config = tmp_path / "run.config"
        config.write_text("# sizes\nsizes 1,2\n")
        code = run_cli("simulate", "--paper-defaults", "--config", str(config),
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert error_line(capsys) == f"error: {config}:2: expected 'key = value', got 'sizes 1,2'\n"

    def test_config_line_with_empty_key_exits_2(self, tmp_path, capsys, no_trials):
        # it used to pass as the key '', reported as "unknown config file keys: "
        config = tmp_path / "run.config"
        config.write_text("seed = 5\n= 5\n")
        code = run_cli("simulate", "--paper-defaults", "--config", str(config),
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert error_line(capsys) == f"error: {config}:2: empty key\n"

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("key,value,message", [
        ("sizes", "1,x", "invalid sizes list: '1,x'"),
        ("benchmarks", "0.5", "benchmark pair must look like over:under, got '0.5'"),
    ])
    def test_unparsable_list_exits_2_before_running(self, tmp_path, capsys, no_trials,
                                                    where, key, value, message):
        assert self.run_with_setting(tmp_path, where, key, value) == 2
        err = error_line(capsys)
        assert err.startswith(f"error: invalid {key} from ")
        assert err.endswith(f": {message}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_unknown_mode_exits_2_before_running(self, tmp_path, capsys, no_trials, where):
        # one check, ExperimentConfig's, for a flag and a config-file value alike
        assert self.run_with_setting(tmp_path, where, "mode", "bogus") == 2
        assert error_line(capsys) == (
            "error: mode must be one of ('fixed-benchmark', 'realized-index'), got 'bogus'\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_overflowing_expected_index_exits_2_before_running(self, tmp_path, capsys, no_trials):
        # realized-index thresholds are offsets from the expected index value
        code = run_cli("simulate", "--mu-hat", "0", "--sigma-hat", "7.6", "--sigma", "0.2",
                       "--horizon", "5", "--mode", "realized-index", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert error_line(capsys) == "error: the expected index value exp(722) overflows a float\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_workers_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--paper-defaults", "--workers", "0",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert error_line(capsys) == "error: workers must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_paper_defaults_is_no_config_file_key(self, tmp_path, capsys, no_trials):
        # --paper-defaults is a flag only, so a file that holds it is refused
        assert self.run_with_setting(tmp_path, "file", "paper_defaults", "true") == 2
        assert error_line(capsys) == "error: unknown config file keys: paper_defaults\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.config"]


# (exit code, sha256 of the text) of each help page (stdout) and usage error
# (stderr) at COLUMNS=80, as main renders them
HELP_PAGES = {
    ("--help",): (0, "9f375ee46c55ce10a3256f178ace6a36bafc6f84bad15cdd90653887d1152b3b"),
    ("calibrate", "--help"): (0, "20f6bf948acecf715bce1e12927fd46db67bc51352808060cf1ef34e81919067"),
    ("analytic", "--help"): (0, "68c2cb69d9f947786577cccdea643b97f8650dda4dfc0fc8a36ee9758aa40ca4"),
    ("demo", "--help"): (0, "207aa7ea1bfe6ee3751f0e115821480425385d86ac5c7ada92b71faf1604714f"),
    ("enumerate", "--help"): (0, "644b7df0e355a1e8d70be3d89d4e08d1b1bde14ecd46aa33a020c8551ebff7f3"),
    ("simulate", "--help"): (0, "e5598fbfa7702915b6c3baf12ad5e2e93a160573d9e13f6950d32462102bafef"),
    ("bogus",): (2, "a55963d379f19b50e1664a9557a6b2823657b36055aa199e6e5fc955e79be519"),
    ("simulate", "--bogus"): (2, "9285f79d39bad58d058d9ef76c6c9387a21273d40a4a442a44b4496dde35578c"),
}


@pytest.mark.parametrize("argv", HELP_PAGES, ids=" ".join)
def test_help_page_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    captured = capsys.readouterr()
    page, other = (captured.out, captured.err) if exit_info.value.code == 0 else (captured.err, captured.out)
    assert other == ""
    assert (exit_info.value.code, hashlib.sha256(page.encode()).hexdigest()) == HELP_PAGES[argv]


# each command's options that are no Setting row, with a sample value (True: a switch)
EXTRA_OPTIONS = {"analytic": {"--paper-defaults": True, "--json": True},
                 "calibrate": {"--paper-defaults": True},
                 "simulate": {"--paper-defaults": True, "--config": "run.config"}}


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_command_parser_sets_every_setting(name):
    # each option's value lands on its setting's name, and each switch is set
    rows = cli._COMMANDS[name][1]
    extra = EXTRA_OPTIONS.get(name, {})
    argv = [name]
    for flag, value in [*((s.flag, f"{s.name} value") for s in rows), *extra.items()]:
        argv += [flag] if value is True else [flag, value]
    expected = {"command": name, **{s.name: f"{s.name} value" for s in rows},
                **{flag[2:].replace("-", "_"): value for flag, value in extra.items()}}
    assert vars(build_parser(name).parse_args(argv)) == expected


def test_main_builds_only_the_running_command(monkeypatch, capsys):
    built = []

    def recording(only=None):
        built.append(only)
        return build_parser(only)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert run_cli("demo") == 0
    with pytest.raises(SystemExit):
        run_cli("bogus")
    assert built == ["demo", "bogus"]
    # the demo-only parser knows no flag of another command
    with pytest.raises(SystemExit):
        build_parser("demo").parse_args(["simulate", "--n", "3"])
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err


def command_argv(name, tmp_path):
    """A short successful run of the named command; simulate writes into tmp_path."""
    return {
        "calibrate": ["calibrate", "--paper-defaults"],
        "analytic": ["analytic", "--paper-defaults"],
        "demo": ["demo"],
        "enumerate": ["enumerate", "--values", "1.1,1.2,1.5", "--sizes", "1,2"],
        "simulate": ["simulate", "--paper-defaults", "--trials", "1", "--out", str(tmp_path / "r.csv")],
    }[name]


class CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_each_command_writes_stdout_in_one_call(tmp_path, monkeypatch, name):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(command_argv(name, tmp_path)) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().endswith("\n")


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_closed_stdout_pipe_exits_141_without_error(tmp_path, name):
    # the reader has gone before the command writes: its choice, not an output failure
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "indexsim.cli", *command_argv(name, tmp_path)],
                                stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")
    if name == "simulate":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.config"]
