import hashlib
import json
import subprocess
import sys

import pytest

from indexsim.cli import main
from indexsim.report import parse_csv


def run_cli(*argv):
    return main(list(argv))


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

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--median", "0.10")
        assert exc.value.code == 2


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

    def test_underspecified_model_exits_2(self, capsys):
        code = run_cli("analytic")
        assert code == 2
        assert "underspecified" in capsys.readouterr().err


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


class TestEnumerateCommand:
    def test_explicit_values(self, capsys):
        code = run_cli("enumerate", "--values", "1.1,1.1,1.1,1.1,1.5",
                       "--sizes", "1,2", "--benchmark", "0.18")
        out = capsys.readouterr().out
        assert code == 0
        assert "portfolios=15" in out
        assert "under_fraction=0.666667" in out

    def test_cap_exceeded_exits_2(self, capsys):
        values = ",".join(["1.01"] * 30)
        code = run_cli("enumerate", "--values", values, "--sizes", "15", "--cap", "100")
        assert code == 2
        assert "cap" in capsys.readouterr().err


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

    def test_sidecar_reload_reproduces_csv(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        run_cli("simulate", "--paper-defaults", "--trials", "40", "--sizes", "1,3",
                "--n", "25", "--out", str(first))
        second = tmp_path / "b.csv"
        code = run_cli("simulate", "--config", str(first) + ".config", "--out", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

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

    def test_env_seed_is_lowest_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("INDEXSIM_SEED", "7")
        out_csv = tmp_path / "env.csv"
        run_cli("simulate", "--paper-defaults", "--trials", "10", "--sizes", "1",
                "--n", "10", "--out", str(out_csv))
        assert parse_csv(out_csv).master_seed == 7
        out2 = tmp_path / "flag.csv"
        run_cli("simulate", "--paper-defaults", "--trials", "10", "--sizes", "1",
                "--n", "10", "--seed", "3", "--out", str(out2))
        assert parse_csv(out2).master_seed == 3

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "r.csv"
        code = run_cli("simulate", "--paper-defaults", "--trials", "5", "--sizes", "1",
                       "--n", "10", "--out", str(target))
        assert code == 3

    def test_failed_svg_write_leaves_no_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code = run_cli("simulate", "--paper-defaults", "--trials", "5", "--sizes", "1",
                       "--n", "10", "--out", str(out_csv),
                       "--svg", str(tmp_path / "missing-dir" / "r.svg"))
        assert code == 3
        assert "failed to write SVG" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--paper-defaults", "--trials", "0",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

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

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("value", ["-1", "six"])
    def test_invalid_precision_exits_2_before_running(self, tmp_path, capsys, monkeypatch,
                                                      where, value):
        monkeypatch.setattr("indexsim.cli.run_experiment",
                            lambda *a, **k: pytest.fail("trials ran before precision was checked"))
        out_csv = tmp_path / "x.csv"
        argv = ["simulate", "--paper-defaults", "--out", str(out_csv)]
        if where == "flag":
            argv += ["--precision", value]
        else:
            config = tmp_path / "run.config"
            config.write_text(f"precision = {value}\n")
            argv += ["--config", str(config)]
        code = run_cli(*argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid precision")
        assert not out_csv.exists()
        assert not (tmp_path / "x.csv.config").exists()

    @pytest.mark.parametrize("value,expected_code", [("yes", 2), ("TRUE", 0), ("0", 2)])
    def test_paper_defaults_config_value_is_strict(self, tmp_path, capsys, value, expected_code):
        # "yes" is rejected rather than read as false; "0" turns the preset
        # off, so median/expected stay unset and the model is underspecified.
        config = tmp_path / "run.config"
        config.write_text(f"paper_defaults = {value}\nn_stocks = 10\nsizes = 1\ntrials = 5\n")
        code = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == expected_code
        err = capsys.readouterr().err
        if value == "yes":
            assert "paper_defaults" in err
        elif value == "0":
            assert "underspecified" in err


GOLDEN_500_TRIALS = {
    "r.csv": "fb16d3812d9a0be9b8e608537a669d0a4feeb02d49c79445245b2ca5a7f47e3c",
    "r.csv.config": "c5e3c5a28b705a65b0330eac420ef455bad085f4316fbae4fa07bb2adb8747ef",
    "r.svg": "d2d15edd3297c9e7a75f0b6d68613610537cf547ed83c06578033fa031d11d83",
}


@pytest.mark.parametrize(
    "model_flags", [["--paper-defaults"], ["--median", "0.10", "--expected", "0.50"]]
)
def test_paper_default_golden_bytes(tmp_path, capsys, model_flags):
    # --paper-defaults only sets the two calibration targets, so both spellings
    # must give the pinned CSV, sidecar and SVG bytes.
    code = run_cli("simulate", *model_flags, "--trials", "500", "--seed", "42",
                   "--out", str(tmp_path / "r.csv"), "--svg", str(tmp_path / "r.svg"))
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_500_TRIALS}
    assert digests == GOLDEN_500_TRIALS
