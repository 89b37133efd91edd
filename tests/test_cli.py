import hashlib
import io
import math
import os
import resource
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
    def test_degenerate_params(self, capsys):
        code = run_cli("analytic", "--mu-hat", "0", "--sigma-hat", "0", "--sigma", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "expected_index_value = 1.000000" in out
        assert "median_stock_value = 1.000000" in out
        assert "underperformance_factor = 1.000000" in out

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

    def test_drift_pair_with_paper_defaults_is_the_drift_model(self, capsys):
        # --paper-defaults fills the targets only when no drift is given
        assert run_cli("analytic", "--mu-hat", "0.04", "--sigma-hat", "0.13") == 0
        alone = capsys.readouterr().out
        assert run_cli("analytic", "--mu-hat", "0.04", "--sigma-hat", "0.13", "--paper-defaults") == 0
        assert capsys.readouterr().out == alone


class TestDemoCommand:
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

    @pytest.mark.parametrize("flags", [[], ["--benchmark", "0.10"]], ids=["mean", "0.10"])
    def test_is_enumerate_on_the_five_stock_universe(self, capsys, flags):
        assert run_cli("demo", *flags) == 0
        demo = capsys.readouterr().out
        assert run_cli("enumerate", "--values", "1.1,1.1,1.1,1.1,1.5", "--sizes", "1,2", *flags) == 0
        # demo adds its two preamble lines
        assert demo.split("\n", 2)[2] == capsys.readouterr().out


# 12 lognormal values whose 4,095 subsets all give distinct returns
DISTINCT = np.random.default_rng(12).lognormal(0.0, 0.5, size=12).tolist()
DISTINCT_ARGS = ("enumerate", "--values", ",".join(map(repr, DISTINCT)),
                 "--sizes", ",".join(str(k) for k in range(1, 13)))


class TestEnumerateCommand:
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

    def test_golden_all_distinct_universe(self, capsys):
        # the other pins have many equal returns; here every line is its own
        assert run_cli(*DISTINCT_ARGS) == 0
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
        assert run_cli(*DISTINCT_ARGS, "--benchmark", level) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4098
        assert lines[-2] == f"benchmark={float(level):.6f} {split}"
        assert lines[-1].startswith("portfolios=4095 ")

    def test_overflowing_index_sum_has_a_finite_mean(self, capsys):
        # the sum of all values exceeds a float, but the default benchmark,
        # the index mean return, and every 1-subset return are 1e308 - 1
        assert run_cli("enumerate", "--values", "1e308,1e308", "--sizes", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].endswith(" below=0 equal=2 above=0")

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

    @pytest.mark.parametrize("precision", ["6", "full"])
    def test_sidecar_reload_reproduces_csv(self, tmp_path, capsys, precision):
        first = tmp_path / "a.csv"
        run_cli("simulate", "--paper-defaults", "--trials", "40", "--sizes", "1,3",
                "--n", "25", "--out", str(first), "--precision", precision)
        assert f"\nprecision = {precision}\n" in (tmp_path / "a.csv.config").read_text()
        second = tmp_path / "b.csv"
        code = run_cli("simulate", "--config", str(first) + ".config", "--out", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sidecar_with_paper_defaults_reproduces_csv(self, tmp_path, capsys):
        # --paper-defaults fills the targets only when no drift is given
        assert run_cli("simulate", "--paper-defaults", "--trials", "20", "--sizes", "1,2",
                       "--n", "20", "--out", str(tmp_path / "a.csv")) == 0
        sidecar = tmp_path / "a.csv.config"
        # the sidecar that the table's sidecar rows refuse beside targets
        assert sidecar.read_text() == SMALL_RUN_SIDECAR
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
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: failed to write SVG to {svg}: ")
        assert [p.name for p in tmp_path.iterdir()] == [blocker.name]
        assert blocker.read_bytes() == b"not ours"

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

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--frobnicate")
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("flags", [["--sizes", "1"], ["--sizes", "1,2", "--workers", "2"]],
                             ids=["serial", "2-workers"])
    def test_out_of_memory_exits_4(self, tmp_path, flags):
        # 4e9 stocks ask numpy for 29.8 GiB at once.  Capping the child's
        # address space at 8 GiB, above what its imports map, makes that
        # request fail whatever the host's memory and overcommit setting,
        # and no page of it is ever touched.  On 2 workers each worker's
        # MemoryError is raised again in the parent.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (8 * 2 ** 30, 8 * 2 ** 30))

        result = subprocess.run(
            [sys.executable, "-m", "indexsim.cli", "simulate", "--paper-defaults", "--n", "4000000000",
             "--trials", "1", "--benchmarks", "0.5:0.5", "--out", str(tmp_path / "r.csv"), *flags],
            capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == ("error: out of memory: Unable to allocate 29.8 GiB for an array with "
                                 "shape (4000000000,) and data type uint64\n")
        assert list(tmp_path.iterdir()) == []


# The <out>.config sidecar of `simulate --paper-defaults --trials 20 --sizes 1,2
# --n 20`: its drifts are the calibrated ones.
SMALL_RUN_SIDECAR = (
    "# effective configuration\nn_stocks = 20\nhorizon = 5.0\nsigma = 0.2\n"
    "mu_hat = 0.03906203596086498\nsigma_hat = 0.12966261706562596\nsizes = 1,2\ntrials = 20\n"
    "benchmarks = 0.5:0.5,0.7:0.3\nmode = fixed-benchmark\nsampling = fresh-universe\nseed = 42\n"
    "precision = 6\n"
)

# Each input that a command refuses before any trial runs, as (argv, files to
# create first, exit code, the one stderr line).  {tmp} is the directory the
# command runs in; a file name ending in "/" is a directory.
SIMULATE = "simulate --paper-defaults --out {tmp}/x.csv"
WITH_FILE = SIMULATE + " --config {tmp}/run.config"
REFUSED = {
    "calibrate-infeasible-target": (
        "calibrate --median 0.10 --expected 0.05 --sigma 0.2 --horizon 5", {}, 2,
        "error: infeasible target: requires log(1 + expected_return) >= log(1 + median_return)"
        " + sigma**2 * horizon / 2 (0.0487902 < 0.19531)"),
    "calibrate-without-expected": (
        "calibrate --median 0.10", {}, 2,
        "error: model is underspecified: give --median and --expected (or --paper-defaults)"),
    "calibrate-unparsable-median": (
        "calibrate --median abc", {}, 2,
        "error: invalid median from --median: could not convert string to float: 'abc'"),
    # exp(0.5 * 7.6**2 * 5**2) = exp(722) is past the floats, though every
    # drawn value, at most exp(315), is not
    "analytic-overflowing-closed-form": (
        "analytic --mu-hat 0 --sigma-hat 7.6 --sigma 0.2 --horizon 5", {}, 2,
        "error: the expected index value exp(722) overflows a float"),
    "analytic-underspecified": (
        "analytic", {}, 2,
        "error: model is underspecified: give --mu-hat and --sigma-hat, or --median and --expected"
        " (or --paper-defaults)"),
    # --paper-defaults used to fill the targets, which then replaced the drift given
    "analytic-only-mu-hat": (
        "analytic --mu-hat 0.9 --paper-defaults", {}, 2,
        "error: mu_hat and sigma_hat are given together or not at all; only mu_hat is given"),
    "analytic-only-sigma-hat": (
        "analytic --sigma-hat 0.9 --paper-defaults", {}, 2,
        "error: mu_hat and sigma_hat are given together or not at all; only sigma_hat is given"),
    # a NaN used to count every subset as below it
    "demo-nan-benchmark": ("demo --benchmark nan", {}, 2, "error: benchmark must be finite, got nan"),
    # argparse used to print its usage block for these and exit from inside main
    "demo-unparsable-benchmark": (
        "demo --benchmark abc", {}, 2,
        "error: invalid benchmark from --benchmark: could not convert string to float: 'abc'"),
    "enumerate-unparsable-benchmark": (
        "enumerate --values 1.1,1.5 --sizes 1 --benchmark abc", {}, 2,
        "error: invalid benchmark from --benchmark: could not convert string to float: 'abc'"),
    "enumerate-without-values": ("enumerate --sizes 1", {}, 2, "error: enumerate needs --values and --sizes"),
    "enumerate-nan-benchmark": (
        "enumerate --values 1.1,1.5 --sizes 1 --benchmark nan", {}, 2, "error: benchmark must be finite, got nan"),
    # the 2-subset sum exceeds a float
    "enumerate-overflowing-sum": (
        "enumerate --values 1e308,1e308 --sizes 2 --benchmark 0", {}, 2, "error: a subset sum overflows a float"),
    # at sizes up to 6 these values make 2,509 histogram entries, past the limit of 100 that the test sets
    "enumerate-past-entry-limit": (
        " ".join(DISTINCT_ARGS), {}, 2,
        "error: enumeration would make more than 100 histogram entries (distinct subset sums)"),
    "simulate-underspecified": (
        "simulate --out {tmp}/x.csv", {}, 2,
        "error: model is underspecified: give --mu-hat and --sigma-hat, or --median and --expected"
        " (or --paper-defaults)"),
    # the targets used to be dropped, and the sidecar's drifts run unchanged
    "sidecar-drifts-and-both-targets": (
        "simulate --config {tmp}/a.csv.config --median 0.3 --expected 0.9 --out {tmp}/b.csv",
        {"a.csv.config": SMALL_RUN_SIDECAR}, 2,
        "error: median and expected calibrate mu_hat and sigma_hat, so neither is given beside them"),
    "sidecar-drifts-and-median": (
        "simulate --config {tmp}/a.csv.config --median 0.3 --out {tmp}/b.csv",
        {"a.csv.config": SMALL_RUN_SIDECAR}, 2,
        "error: median and expected calibrate mu_hat and sigma_hat, so neither is given beside them"),
    "sidecar-drifts-and-paper-defaults-and-expected": (
        "simulate --config {tmp}/a.csv.config --paper-defaults --expected 0.9 --out {tmp}/b.csv",
        {"a.csv.config": SMALL_RUN_SIDECAR}, 2,
        "error: median and expected calibrate mu_hat and sigma_hat, so neither is given beside them"),
    "zero-trials": (
        SIMULATE + " --trials 0", {}, 2, "error: trials_per_size must be >= 1, got 0"),
    "zero-workers": (SIMULATE + " --workers 0", {}, 2, "error: workers must be >= 1, got 0"),
    # realized-index thresholds are offsets from the expected index value
    "realized-overflowing-expected-index": (
        "simulate --mu-hat 0 --sigma-hat 7.6 --sigma 0.2 --horizon 5 --mode realized-index --out {tmp}/x.csv",
        {}, 2, "error: the expected index value exp(722) overflows a float"),
    # one check, ExperimentConfig's, for a flag and a config-file value alike
    "mode-flag": (
        SIMULATE + " --mode bogus", {}, 2,
        "error: mode must be one of ('fixed-benchmark', 'realized-index'), got 'bogus'"),
    "mode-file": (
        WITH_FILE, {"run.config": "mode = bogus\n"}, 2,
        "error: mode must be one of ('fixed-benchmark', 'realized-index'), got 'bogus'"),
    "precision-flag-negative": (
        SIMULATE + " --precision -1", {}, 2,
        "error: invalid precision from --precision: expected 'full' or an integer from 0 to 1074, got '-1'"),
    "precision-file-negative": (
        WITH_FILE, {"run.config": "precision = -1\n"}, 2,
        "error: invalid precision from the config file: expected 'full' or an integer from 0 to 1074, got '-1'"),
    "precision-flag-word": (
        SIMULATE + " --precision six", {}, 2,
        "error: invalid precision from --precision: invalid literal for int() with base 10: 'six'"),
    "precision-file-word": (
        WITH_FILE, {"run.config": "precision = six\n"}, 2,
        "error: invalid precision from the config file: invalid literal for int() with base 10: 'six'"),
    # past 1074 places every float's expansion is only zeros
    "precision-flag-1075": (
        SIMULATE + " --precision 1075", {}, 2,
        "error: invalid precision from --precision: expected 'full' or an integer from 0 to 1074, got '1075'"),
    "precision-file-1075": (
        WITH_FILE, {"run.config": "precision = 1075\n"}, 2,
        "error: invalid precision from the config file: expected 'full' or an integer from 0 to 1074, "
        "got '1075'"),
    # fresh-universe is the only sampling scheme; the key stays so that stored sidecars reload
    "sampling-flag": (
        SIMULATE + " --sampling direct-iid", {}, 2,
        "error: invalid sampling from --sampling: the only sampling scheme is fresh-universe, got 'direct-iid'"),
    "sampling-file": (
        WITH_FILE, {"run.config": "sampling = direct-iid\n"}, 2,
        "error: invalid sampling from the config file: the only sampling scheme is fresh-universe, "
        "got 'direct-iid'"),
    "sizes-flag": (
        SIMULATE + " --sizes 1,x", {}, 2, "error: invalid sizes from --sizes: invalid sizes list: '1,x'"),
    "sizes-file": (
        WITH_FILE, {"run.config": "sizes = 1,x\n"}, 2,
        "error: invalid sizes from the config file: invalid sizes list: '1,x'"),
    "benchmarks-flag": (
        SIMULATE + " --benchmarks 0.5", {}, 2,
        "error: invalid benchmarks from --benchmarks: benchmark pair must look like over:under, got '0.5'"),
    "benchmarks-file": (
        WITH_FILE, {"run.config": "benchmarks = 0.5\n"}, 2,
        "error: invalid benchmarks from the config file: benchmark pair must look like over:under, got '0.5'"),
    # the SVG used to replace the CSV or the sidecar it was written after
    "svg-flag-csv": (
        SIMULATE + " --svg x.csv", {}, 2, "error: the SVG path x.csv would overwrite the CSV path {tmp}/x.csv"),
    "svg-flag-dot-csv": (
        SIMULATE + " --svg ./x.csv", {}, 2, "error: the SVG path x.csv would overwrite the CSV path {tmp}/x.csv"),
    "svg-flag-sidecar": (
        SIMULATE + " --svg x.csv.config", {}, 2,
        "error: the SVG path x.csv.config would overwrite the config echo path {tmp}/x.csv.config"),
    "svg-file-csv": (
        WITH_FILE, {"run.config": "svg = x.csv\n"}, 2,
        "error: the SVG path x.csv would overwrite the CSV path {tmp}/x.csv"),
    "svg-file-dot-csv": (
        WITH_FILE, {"run.config": "svg = ./x.csv\n"}, 2,
        "error: the SVG path x.csv would overwrite the CSV path {tmp}/x.csv"),
    "svg-file-sidecar": (
        WITH_FILE, {"run.config": "svg = x.csv.config\n"}, 2,
        "error: the SVG path x.csv.config would overwrite the config echo path {tmp}/x.csv.config"),
    # a directory used to fail its rename after the other outputs were
    # written, and an empty name only after every trial had run
    "out-directory": (
        "simulate --paper-defaults --out x.csv --out=taken", {"taken/": None}, 2,
        "error: cannot write CSV to taken: it is a directory or has an empty name"),
    "out-empty": (
        "simulate --paper-defaults --out x.csv --out=", {"taken/": None}, 2,
        "error: cannot write CSV to .: it is a directory or has an empty name"),
    "svg-directory": (
        "simulate --paper-defaults --out x.csv --svg=taken", {"taken/": None}, 2,
        "error: cannot write SVG to taken: it is a directory or has an empty name"),
    "svg-empty": (
        "simulate --paper-defaults --out x.csv --svg=", {"taken/": None}, 2,
        "error: cannot write SVG to .: it is a directory or has an empty name"),
    # every trial used to run first, and the error then named a .tmp staging file
    "out-in-missing-directory": (
        "simulate --paper-defaults --out x.csv --out missing/r.out", {"plain": ""}, 3,
        "error: failed to write CSV to missing/r.out: there is no directory missing"),
    "out-in-file": (
        "simulate --paper-defaults --out x.csv --out plain/r.out", {"plain": ""}, 3,
        "error: failed to write CSV to plain/r.out: there is no directory plain"),
    "svg-in-missing-directory": (
        "simulate --paper-defaults --out x.csv --svg missing/r.out", {"plain": ""}, 3,
        "error: failed to write SVG to missing/r.out: there is no directory missing"),
    "svg-in-file": (
        "simulate --paper-defaults --out x.csv --svg plain/r.out", {"plain": ""}, 3,
        "error: failed to write SVG to plain/r.out: there is no directory plain"),
    # exit 3 is for output I/O; a config file that cannot be read is a configuration error
    "config-missing": (
        "simulate --paper-defaults --config {tmp}/missing.config --out {tmp}/x.csv", {}, 2,
        "error: cannot read config file {tmp}/missing.config: [Errno 2] No such file or directory:"
        " '{tmp}/missing.config'"),
    "config-directory": (
        "simulate --paper-defaults --config {tmp} --out {tmp}/x.csv", {}, 2,
        "error: cannot read config file {tmp}: [Errno 21] Is a directory: '{tmp}'"),
    # the last value used to win silently
    "config-repeated-key": (
        WITH_FILE, {"run.config": "seed = 5\nn_stocks = 10\nseed = 6\n"}, 2,
        "error: {tmp}/run.config:3: repeated key 'seed'"),
    "config-line-without-equals": (
        WITH_FILE, {"run.config": "# sizes\nsizes 1,2\n"}, 2,
        "error: {tmp}/run.config:2: expected 'key = value', got 'sizes 1,2'"),
    # it used to pass as the key '', reported as "unknown config file keys: "
    "config-empty-key": (WITH_FILE, {"run.config": "seed = 5\n= 5\n"}, 2, "error: {tmp}/run.config:2: empty key"),
    "config-unknown-key": (
        "simulate --config {tmp}/run.config --out {tmp}/x.csv",
        {"run.config": "mu_hat = 0.04\nsigma_hat = 0.1\ntrails = 100\n"}, 2, "error: unknown config file keys: trails"),
    # --paper-defaults is a flag only, so a file that holds it is refused
    "config-paper-defaults": (
        WITH_FILE, {"run.config": "paper_defaults = true\n"}, 2, "error: unknown config file keys: paper_defaults"),
}


@pytest.mark.parametrize("argv, files, code, line", REFUSED.values(), ids=REFUSED)
def test_refused_before_any_trial(tmp_path, capsys, monkeypatch, argv, files, code, line):
    # one error line, nothing on stdout, no trial run and nothing written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(montecarlo, "_tally_block", lambda *args: pytest.fail("a trial ran"))
    # the enumerate-past-entry-limit row's limit; every other row's enumeration makes far fewer entries
    monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 100)
    for name, text in files.items():
        if name.endswith("/"):
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text)

    def listing():
        return {p.name: None if p.is_dir() else p.read_bytes() for p in tmp_path.iterdir()}

    before = listing()
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv.split()]) == code
    assert capsys.readouterr() == ("", line.replace("{tmp}", str(tmp_path)) + "\n")
    assert listing() == before


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
