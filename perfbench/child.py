"""One workload pass inside a fresh interpreter; run by run.py, not by hand.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]

The Monte Carlo workloads call the console-script entry point
``indexsim.cli.main`` with their CLI arguments; oracle-exact calls it for
``enumerate`` and then ``subset_frequencies`` from the library.  Timings of
those calls and the outputs the parent checks go to ``DIR/child.json``.

With ``--trace`` one untraced pass at the workload's worker count gives the
pool's idle time; then OVERHEAD_PAIRS times the set-up probe and a one-worker
pass run untraced and then traced (tracer.py), and the per-layer metrics of
the last traced pair are written too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

_start = time.perf_counter()
import indexsim.cli as cli  # noqa: E402  (timed: this is the cli layer's import)

IMPORT_S = time.perf_counter() - _start
import indexsim  # noqa: E402
from reference_load import CALL_REFERENCE_S, CALL_ROUNDS, load  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Span:
    """Wall and CPU seconds (this process and its reaped children) of a block."""

    def __enter__(self):
        self.cpu, self.start = _cpu_s(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        self.cpu = _cpu_s() - self.cpu
        return False


class Call(Span):
    """A Span bracketed by two runs of the reference load.

    ``loads`` collects (wall, CPU) seconds of every load run; ``ref`` is the
    mean wall time of this call's two.
    """

    def __init__(self, loads: list):
        self.loads = loads

    def _load(self) -> float:
        cpu = time.process_time()
        wall = load(CALL_ROUNDS)
        self.loads.append((wall, time.process_time() - cpu))
        return wall

    def __enter__(self):
        self.ref = self._load()
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.ref = (self.ref + self._load()) / 2.0
        return False


def _cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def run_pass(name: str, seed: int, out: Path, workers: int) -> dict:
    """One workload iteration; returns its outputs, work counts and timings."""
    out.mkdir(parents=True, exist_ok=True)
    loads = []
    if name != "oracle-exact":
        argv = wl.simulate_argv(name, seed, wl.TRIALS_PER_CELL, out, workers)
        with Call(loads) as call:
            code, _ = _cli(argv)
        return {
            "exit_code": code,
            "trials": wl.paper_trials(wl.TRIALS_PER_CELL),
            "trials_s": call.wall,
            "trials_ref_s": call.ref,
            "subsets": wl.paper_trials(wl.TRIALS_PER_CELL),
            "subsets_s": call.wall,
            "subsets_ref_s": call.ref,
            "idle_s": workers * call.wall - call.cpu,
            "loads": loads,
        }
    values = wl.oracle_values(seed)
    with Call(loads) as enum_call:
        code, stdout = _cli(wl.enumerate_argv(values))
    floats = [float(v) for v in values]
    benchmark = math.fsum(floats) / len(floats) - 1.0
    with Call(loads) as picks_call:
        picks = {
            str(k): list(indexsim.subset_frequencies(floats, k, wl.ORACLE_PICKS, benchmark, seed))
            for k in wl.ORACLE_PICK_SIZES
        }
    return {
        "exit_code": code,
        "enumerate_stdout": stdout,
        "picks": picks,
        "trials": wl.ORACLE_PICKS * len(wl.ORACLE_PICK_SIZES),
        "trials_s": picks_call.wall,
        "trials_ref_s": picks_call.ref,
        "subsets": 2 ** wl.ORACLE_STOCKS - 1,
        "subsets_s": enum_call.wall,
        "subsets_ref_s": enum_call.ref,
        "idle_s": picks_call.wall - picks_call.cpu,
        "loads": loads,
    }


# Untraced/traced pass pairs whose median wall difference is trace.overhead_s;
# the layer metrics come from the last traced pass.
OVERHEAD_PAIRS = 3


def traced_pass(name: str, seed: int, out: Path) -> dict:
    """Per-layer metrics of the set-up probe plus one iteration, traced."""
    from tracer import Tracer

    probe_argv = wl.simulate_argv("paper-serial", seed, 1, out / "probe", 1)

    def probe_and_pass():
        (out / "probe").mkdir(parents=True, exist_ok=True)
        probe_code, _ = _cli(probe_argv)
        # One worker: spans recorded in forked workers would be lost.
        result = run_pass(name, seed, out, 1)
        result["probe_exit_code"] = probe_code
        return result

    def scaled_wall(span: Span, result: dict) -> float:
        # wall time less the reference loads, at the reference speed (see run.py)
        load_wall = sum(wall for wall, _ in result["loads"])
        return (span.wall - load_wall) * CALL_REFERENCE_S * len(result["loads"]) / load_wall

    # Pool numbers come from an untraced pass at the workload's own workers.
    pool = run_pass(name, seed, out, wl.WORKLOADS[name].workers)
    overheads = []
    for _ in range(OVERHEAD_PAIRS):
        with Span() as plain:
            plain_result = probe_and_pass()
        with Tracer() as tracer, Span() as traced:
            result = probe_and_pass()
        overheads.append(scaled_wall(traced, result) - scaled_wall(plain, plain_result))
    metrics = {"cli.import_s": IMPORT_S, **tracer.layer_metrics()}
    metrics["montecarlo.pool.idle_s"] = pool["idle_s"]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    result["layers"] = metrics
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.trace:
        result = traced_pass(args.workload, args.seed, args.out)
    else:
        result = run_pass(args.workload, args.seed, args.out, wl.WORKLOADS[args.workload].workers)
    (args.out / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
