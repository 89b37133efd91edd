"""indexsim benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

    python3 perfbench/run.py --workload paper-serial --seed 42 --seconds 36 --trace 0

Run it from the repository root; the package is imported from ./src.  To
print the metrics of every workload:

    for w in paper-serial realized-w2 oracle-exact; do
        python3 perfbench/run.py --workload $w --trace 0
    done

A run alternates the set-up probe, ``simulate --paper-defaults --trials 1``
(interpreter start, import, config resolution, calibration), with workload
iterations, each in a fresh interpreter (child.py), until --seconds have
passed, and checks every output (workloads.py).  One untimed probe first
fills the bytecode cache.  End-to-end metrics (--trace 0), each a median
over the run's iterations:

    wall_s         wall time of an iteration's process
    setup_s        wall time of the set-up probe
    trials_per_s   seeded random trials per second inside the call that runs
                   them: Monte Carlo trials in ``simulate``, or
                   ``subset_frequencies`` picks on oracle-exact
    subsets_per_s  k-subset portfolios evaluated per second: enumerated
                   subsets on oracle-exact, one picked subset per trial in
                   ``simulate`` (there it equals trials_per_s)
    cpu_s          user + system CPU time of an iteration's process tree
    cpu_util       cpu_s / (wall_s * workers); above 1 in one process
                   because numpy's BLAS threads spin at import
    peak_rss_mb    highest max RSS of any process of the run (a maximum)

Times and rates are scaled to a fixed machine speed (see measure()); the
first JSON line holds the unscaled medians and the environment.  Failed
operations are the ``failed`` count against ``attempted`` in the result
line: a probe or iteration fails on a non-zero exit or on an output that
does not pass its check.  With --trace 1 one probe and one iteration run
traced in-process (tracer.py) and the per-layer metrics are printed
instead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from reference_load import CALL_REFERENCE_S

PROCESS_TIMEOUT_S = 120
SETUP_PROBES = 2  # set-up probes before each iteration


E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "subsets_per_s": "1/s",
    "cpu_s": "s",
    "cpu_util": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "cli.import_s": "s",
    "analytic.calibrate.s": "s",
    "analytic.calibrate.calls": "count",
    "model.generator.calls": "count",
    "model.generator.self_s": "s",
    "model.generator.us_per_call": "us",
    "model.standard_normals.calls": "count",
    "model.standard_normals.variates": "count",
    "model.standard_normals.self_s": "s",
    "model.draw_universe.calls": "count",
    "model.draw_universe.self_s": "s",
    "model.variate_use_ratio": "ratio",
    "model.index_value.calls": "count",
    "model.index_value.self_s": "s",
    "montecarlo.run_trial.calls": "count",
    "montecarlo.run_trial.self_s": "s",
    "montecarlo.run_trial.p50_us": "us",
    "montecarlo.run_trial.p99_us": "us",
    "montecarlo.pick_subset.calls": "count",
    "montecarlo.pick_subset.self_s": "s",
    "montecarlo.loop_self_s": "s",
    "montecarlo.subset_frequencies.s": "s",
    "montecarlo.subset_frequencies.trials": "count",
    "montecarlo.pool.idle_s": "s",
    "enumeration.enumerate_portfolios.s": "s",
    "enumeration.enumerate_portfolios.subsets": "count",
    "report.emit_csv.s": "s",
    "report.emit_svg_chart.s": "s",
    "report.csv_bytes": "count",
    "report.svg_bytes": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    """Wall time and rusage of one child process and the children it reaped."""

    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


@dataclass
class Context:
    root: Path
    work: Path
    workload: wl.Workload
    seed: int
    env: dict

    def spawn(self, argv: list[str], log: Path) -> Sample:
        """Run one child to completion; kill its process group on timeout."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            )
            timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
        )


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


class Checker:
    """Counts operations and failures; outputs must repeat within a run and
    match the recorded reference when the seed has one."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0
        self.first = {}
        self.reference = wl.load_reference(ctx.workload.name, ctx.seed)

    def record(self, label: str, sample: Sample, log: Path, problems: list[str]) -> None:
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, sample.maxrss_mb)
        if sample.exit_code != 0:
            problems = [f"exit code {sample.exit_code}: {_log_tail(log)}", *problems]
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)

    def outputs(self, kind: str, outputs: dict) -> list[str]:
        problems = []
        if outputs != self.first.setdefault(kind, outputs):
            problems.append(f"{kind} outputs differ from this run's first: {outputs}")
        if kind == "iteration" and self.reference is not None and outputs != self.reference:
            problems.append(f"outputs {outputs} differ from reference {self.reference}")
        return problems

    def probe(self, out: Path) -> list[str]:
        digests, problems = wl.check_simulation("paper-serial", self.ctx.seed, 1, out)
        return problems + self.outputs("probe", digests)

    def iteration(self, out: Path) -> tuple[dict | None, list[str]]:
        """Check an iteration's outputs; returns its child.json (or None)."""
        try:
            result = json.loads((out / "child.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return None, [f"no child result: {exc}"]
        name = self.ctx.workload.name
        if name == "oracle-exact":
            outputs, problems = wl.check_oracle(result)
        else:
            outputs, problems = wl.check_simulation(name, self.ctx.seed, wl.TRIALS_PER_CELL, out)
            if result["exit_code"] != 0:
                problems.append(f"simulate returned {result['exit_code']}")
        if result.get("probe_exit_code", 0) != 0:
            problems.append(f"traced set-up probe returned {result['probe_exit_code']}")
        return result, problems + self.outputs("iteration", outputs)


def _child_argv(ctx: Context, out: Path, trace: bool) -> list[str]:
    argv = [str(Path(__file__).with_name("child.py")), "--workload", ctx.workload.name,
            "--seed", str(ctx.seed), "--out", str(out)]
    return argv + (["--trace"] if trace else [])


def probe(ctx: Context, checker: Checker) -> Sample:
    out = _fresh(ctx.work / "probe")
    log = ctx.work / "probe.log"
    sample = ctx.spawn(["-m", "indexsim.cli", *wl.simulate_argv("paper-serial", ctx.seed, 1, out, 1)], log)
    checker.record("set-up probe", sample, log, checker.probe(out))
    return sample


def measure(ctx: Context, seconds: float) -> tuple[dict, dict, Checker]:
    """Alternate set-up probes and iterations until the time is up; returns
    (metrics at reference speed, raw medians, checker).

    The machine's speed drifts by tens of percent within a minute.  Each
    timed call in an iteration is bracketed by the fixed reference load
    (reference_load.py), and each time is scaled by CALL_REFERENCE_S over
    the load's measured time: the call's own bracket for the rates, the
    mean of the iteration's loads for its wall and CPU time and for the
    probes just before it.  Time spent in the loads is subtracted first.
    """
    checker = Checker(ctx)
    probe(ctx, checker)  # fills the bytecode cache; not timed
    workers = ctx.workload.workers
    scaled, raw = defaultdict(list), defaultdict(list)
    iterations = 0
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        setups = [probe(ctx, checker).wall_s for _ in range(SETUP_PROBES)]
        out = _fresh(ctx.work / "iteration")
        log = ctx.work / "iteration.log"
        sample = ctx.spawn(_child_argv(ctx, out, trace=False), log)
        result, problems = checker.iteration(out)
        checker.record(f"iteration {iterations}", sample, log, problems)
        iterations += 1
        if result is None:
            continue
        load_wall = sum(wall for wall, _ in result["loads"])
        load_cpu = sum(cpu for _, cpu in result["loads"])
        wall, cpu = sample.wall_s - load_wall, sample.cpu_s - load_cpu
        scale = CALL_REFERENCE_S * len(result["loads"]) / load_wall
        for name, value, exponent in (
            ("wall_s", wall, 1),
            *(("setup_s", setup, 1) for setup in setups),
            ("cpu_s", cpu, 1),
            ("cpu_util", cpu / (wall * workers), 0),
        ):
            raw[name].append(value)
            scaled[name].append(value * scale ** exponent)
        for kind in ("trials", "subsets"):
            rate = result[kind] / result[f"{kind}_s"]
            raw[f"{kind}_per_s"].append(rate)
            scaled[f"{kind}_per_s"].append(rate * result[f"{kind}_ref_s"] / CALL_REFERENCE_S)
    median = statistics.median
    metrics = {name: median(scaled[name]) if scaled[name] else 0.0 for name in E2E_UNITS}
    metrics["peak_rss_mb"] = checker.peak_rss_mb
    return metrics, {name: median(values) for name, values in raw.items()}, checker


def measure_layers(ctx: Context) -> tuple[dict, Checker]:
    """One traced child (see child.py); its outputs are checked as usual."""
    checker = Checker(ctx)
    probe(ctx, checker)  # fills the bytecode cache, so cli.import_s excludes compiling
    out = _fresh(ctx.work / "iteration")
    log = ctx.work / "iteration.log"
    sample = ctx.spawn(_child_argv(ctx, out, trace=True), log)
    result, problems = checker.iteration(out)
    checker.record("traced run", sample, log, checker.probe(out / "probe") + problems)
    layers = result["layers"] if result is not None else {}
    return {name: layers.get(name, 0.0) for name in LAYER_UNITS}, checker


def environment() -> dict:
    record = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            record[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            record[package] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        record["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        pass
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42, the paper's)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "indexsim" / "__init__.py").is_file():
        print(f"error: no indexsim sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
    ctx = Context(root, work, wl.WORKLOADS[args.workload], args.seed, env)
    before = environment()
    _fresh(work)
    try:
        raw = None
        if args.trace:
            metrics, checker = measure_layers(ctx)
            units = LAYER_UNITS
        else:
            metrics, raw, checker = measure(ctx, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "environment": before,
              "loadavg_after": environment().get("loadavg"), "raw": raw}
    print(json.dumps(record))
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.10g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
