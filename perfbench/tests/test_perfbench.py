"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import indexsim
import indexsim.cli as cli
import run
import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _simulate(tmp_path, *extra):
    argv = [
        "simulate", "--n", "30", "--mu-hat", "0.04", "--sigma-hat", "0.13", "--sigma", "0.2",
        "--horizon", "5", "--sizes", "1,3", "--trials", "4", "--benchmarks", "0.5:0.5",
        "--seed", "9", "--out", str(tmp_path / "r.csv"), *extra,
    ]
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer.layer_metrics()


def test_counts_are_exact_for_fresh_universe_trials(tmp_path):
    m = _simulate(tmp_path, "--svg", str(tmp_path / "r.svg"))
    trials = 2 * 4  # two sizes, one benchmark pair, four trials per cell
    assert m["montecarlo.run_trial.calls"] == trials
    assert m["model.generator.calls"] == 3 * trials
    assert m["model.draw_universe.calls"] == trials
    assert m["model.standard_normals.calls"] == 2 * trials
    assert m["model.standard_normals.variates"] == 2 * trials * 30
    assert m["model.index_value.calls"] == trials
    assert m["montecarlo.pick_subset.calls"] == trials
    assert m["model.variate_use_ratio"] == (2 * 1 * 4 + 2 * 3 * 4) / (2 * trials * 30)
    assert m["analytic.calibrate.calls"] == 0
    assert m["report.csv_bytes"] == (tmp_path / "r.csv").stat().st_size
    assert m["report.svg_bytes"] == (tmp_path / "r.svg").stat().st_size
    assert m["montecarlo.loop_self_s"] > 0


def test_realized_index_trials_use_every_variate(tmp_path):
    m = _simulate(tmp_path, "--mode", "realized-index")
    assert m["model.variate_use_ratio"] == 1.0
    assert m["report.svg_bytes"] == 0


def test_counts_are_exact_for_oracle_calls():
    values = [1.1, 1.5, 1.1, 1.1, 1.5, 1.1]
    with Tracer() as tracer:
        stats = indexsim.enumerate_portfolios(indexsim.DeterministicIndex(values), range(1, 7))
        indexsim.subset_frequencies(values, 2, 7, 0.2, 3)
    m = tracer.layer_metrics()
    assert m["enumeration.enumerate_portfolios.subsets"] == stats.portfolio_count == 63
    assert m["montecarlo.subset_frequencies.trials"] == 7
    assert m["model.generator.calls"] == m["montecarlo.pick_subset.calls"] == 7
    assert m["model.draw_universe.calls"] == 0


def _bindings():
    found = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "indexsim" or name.startswith("indexsim.")
        for attr, value in vars(module).items()
    }
    found["SeedSpec.generator"] = indexsim.SeedSpec.__dict__["generator"]
    return found


def test_tracer_restores_every_patched_name():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = _bindings()
            raise RuntimeError("leave the block early")
    changed = {key for key in before if during[key] is not before[key]}
    # every wrapped function, including its copies imported into other modules
    assert ("indexsim.cli", "run_experiment") in changed
    assert ("indexsim.montecarlo", "draw_universe") in changed
    assert ("indexsim", "subset_frequencies") in changed
    assert "SeedSpec.generator" in changed
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
    traced = set(_simulate(tmp_path)) | {"cli.import_s", "montecarlo.pool.idle_s", "trace.overhead_s"}
    assert traced == set(run.LAYER_UNITS)


def test_oracle_split_is_the_exact_subset_law():
    import math

    for k in range(1, wl.ORACLE_STOCKS + 1):
        assert sum(wl.oracle_split(k)) == math.comb(wl.ORACLE_STOCKS, k)
    assert wl.oracle_split(wl.ORACLE_STOCKS) == (0, 1, 0)
    assert wl.stock_tail(1.5, "above") == pytest.approx(0.3469, abs=1e-4)


def _context(tmp_path, name="paper-serial", seed=7):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    return run.Context(ROOT, tmp_path / "work", wl.WORKLOADS[name], seed, env)


def test_clean_run_has_no_failures(tmp_path):
    metrics, _, checker = run.measure(_context(tmp_path), seconds=0)
    assert (checker.attempted, checker.failed) == (2 + run.SETUP_PROBES, 0)
    assert all(metrics[name] > 0 for name in run.E2E_UNITS)


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    spawn = run.Context.spawn

    def spawn_then_corrupt(self, argv, log):
        sample = spawn(self, argv, log)
        csv = self.work / "iteration" / "report.csv"
        if "--trace" not in argv and csv.is_file() and argv[0].endswith("child.py"):
            data = bytearray(csv.read_bytes())
            data[-5] = ord("9") if data[-5] != ord("9") else ord("8")  # the trials column of the last row
            csv.write_bytes(bytes(data))
        return sample

    monkeypatch.setattr(run.Context, "spawn", spawn_then_corrupt)
    _, _, checker = run.measure(_context(tmp_path), seconds=0)
    assert (checker.attempted, checker.failed) == (2 + run.SETUP_PROBES, 1)


def test_reference_mismatch_counts_as_failed(tmp_path):
    checker = run.Checker(_context(tmp_path, "oracle-exact", 42))
    assert checker.reference is not None
    problems = checker.outputs("iteration", {"enumerate": [0, 0, 0, 0], "picks": {}})
    assert any("reference" in p for p in problems)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "paper-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
