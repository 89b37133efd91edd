"""Workload definitions, independent oracles and output checks.

Every workload derives its inputs from the master seed alone.  The checks
never call into indexsim: the lognormal tail, the calibration, the Wilson
half-width and the exact subset counts are recomputed here from their
closed forms, so a defect in the package cannot hide behind itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Monte Carlo trials per (size, benchmark) cell.  The paper uses 10,000; a
# run repeats a shorter experiment many times so that medians are steady.
TRIALS_PER_CELL = 500

# The paper-default experiment grid, restated so the checks do not trust it.
PAPER_SIZES = (1, 2, 5, 10, 15, 20)
PAPER_BENCHMARKS = ((0.5, 0.5), (0.7, 0.3))
PAPER_STOCKS = 500
PAPER_HORIZON = 5.0
PAPER_SIGMA = 0.2
PAPER_MEDIAN = 0.10
PAPER_EXPECTED = 0.50

# oracle-exact: a 20-stock version of the paper's worked example, ten-percent
# stocks with a few fifty-percent winners, enumerated over every size.
ORACLE_STOCKS = 20
ORACLE_WINNERS = 3
ORACLE_LOSER, ORACLE_WINNER = "1.1", "1.5"
ORACLE_PICK_SIZES = (1, 2, 5, 10)
ORACLE_PICKS = 5000  # subset_frequencies trials per pick size

# A sampled frequency passes when it lies within this many 95% Wilson
# half-widths of the exact probability.
WILSON_WIDTHS = 4.0
_Z95 = 1.959963984540054

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # worker processes the measured run keeps busy
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-serial", 1,
            "paper-default fixed-benchmark run in one process: each trial draws all 500 "
            "stocks but uses k, so per-trial model and montecarlo work dominates",
        ),
        Workload(
            "realized-w2", 2,
            "realized-index mode on 2 workers: each trial needs all 500 values, so an O(k) "
            "draw cannot help, while pool fan-out and pickling do real work",
        ),
        Workload(
            "oracle-exact", 1,
            "exhaustive enumeration of a 20-stock universe plus seeded subset_frequencies "
            "picks on it: no universe is drawn, so enumeration and pick_subset dominate",
        ),
    )
}


def simulate_argv(name: str, seed: int, trials: int, out: Path, workers: int) -> list[str]:
    """CLI arguments of a Monte Carlo workload (or of the set-up probe)."""
    argv = [
        "simulate", "--paper-defaults", "--trials", str(trials), "--seed", str(seed),
        "--workers", str(workers), "--out", str(out / "report.csv"),
    ]
    if name == "realized-w2":
        return argv + ["--mode", "realized-index"]
    return argv + ["--svg", str(out / "report.svg")]


def oracle_values(seed: int) -> list[str]:
    """Gross values of the oracle universe; the seed places the winners."""
    winners = set(random.Random(seed).sample(range(ORACLE_STOCKS), ORACLE_WINNERS))
    return [ORACLE_WINNER if i in winners else ORACLE_LOSER for i in range(ORACLE_STOCKS)]


def enumerate_argv(values: list[str]) -> list[str]:
    # No --benchmark: the CLI compares against the index mean return.
    sizes = ",".join(str(k) for k in range(1, ORACLE_STOCKS + 1))
    return ["enumerate", "--values", ",".join(values), "--sizes", sizes]


def paper_trials(trials_per_cell: int) -> int:
    return len(PAPER_SIZES) * len(PAPER_BENCHMARKS) * trials_per_cell


# ---------------------------------------------------------------- oracles


def wilson_half_width(successes: int, trials: int) -> float:
    phat = successes / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    return (_Z95 / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + _Z95 * _Z95 / (4.0 * trials * trials)
    )


def paper_calibration() -> tuple[float, float]:
    """(mu_hat, sigma_hat) hitting the paper's 10% median and 50% mean."""
    t = PAPER_HORIZON
    mu_hat = (math.log1p(PAPER_MEDIAN) + 0.5 * PAPER_SIGMA ** 2 * t) / t
    sigma_hat = math.sqrt(2.0 * math.log1p(PAPER_EXPECTED) - 2.0 * mu_hat * t) / t
    return mu_hat, sigma_hat


def stock_tail(gross: float, direction: str) -> float:
    """P(S_T > gross) or P(S_T < gross) for one random paper-default stock.

    S_T is lognormal with log-mean log(1 + median) and log-variance
    2 * log((1 + expected) / (1 + median)), whatever sigma and the horizon.
    """
    m = math.log1p(PAPER_MEDIAN)
    v = 2.0 * (math.log1p(PAPER_EXPECTED) - math.log1p(PAPER_MEDIAN))
    x = (math.log(gross) - m) / math.sqrt(2.0 * v)
    return 0.5 * math.erfc(x) if direction == "above" else 0.5 * math.erfc(-x)


def _oracle_law(k: int) -> list[tuple[Fraction, int]]:
    """(winner share j/k, number of k-subsets with j winners) for one size."""
    losers = ORACLE_STOCKS - ORACLE_WINNERS
    return [
        (Fraction(j, k), math.comb(ORACLE_WINNERS, j) * math.comb(losers, k - j))
        for j in range(max(0, k - losers), min(ORACLE_WINNERS, k) + 1)
    ]


def oracle_split(k: int) -> tuple[int, int, int]:
    """Exact (below, equal, above) k-subset counts against the index mean.

    A subset's net return is 0.1 + 0.4 * (winner share), so comparing
    returns is comparing winner shares, which Fraction does exactly.
    """
    mean = Fraction(ORACLE_WINNERS, ORACLE_STOCKS)
    split = [0, 0, 0]
    for share, count in _oracle_law(k):
        split[(share > mean) - (share < mean) + 1] += count
    return split[0], split[1], split[2]


def oracle_median() -> float:
    law = sorted(pair for k in range(1, ORACLE_STOCKS + 1) for pair in _oracle_law(k))
    total = sum(count for _, count in law)
    middle = []
    for rank in sorted({(total - 1) // 2, total // 2}):
        seen = 0
        for share, count in law:
            seen += count
            if seen > rank:
                middle.append(share)
                break
    share = sum(middle) / len(middle)
    return 0.1 + 0.4 * float(share)


# ----------------------------------------------------------------- checks


def load_reference(name: str, seed: int):
    """Recorded outputs for (workload, seed) at TRIALS_PER_CELL, or None."""
    refs = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if refs["trials_per_cell"] != TRIALS_PER_CELL:
        return None
    return refs["workloads"].get(name, {}).get(str(seed))


def _read_sidecar(text: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def check_simulation(name: str, seed: int, trials: int, out: Path) -> tuple[dict, list[str]]:
    """Check one simulate run's files; returns (sha256 per file, problems)."""
    files = {"csv": out / "report.csv", "config": out / "report.csv.config"}
    if name != "realized-w2":
        files["svg"] = out / "report.svg"
    missing = [str(path) for path in files.values() if not path.is_file()]
    if missing:
        return {}, [f"missing output {path}" for path in missing]
    data = {key: path.read_bytes() for key, path in files.items()}
    digests = {key: hashlib.sha256(blob).hexdigest() for key, blob in data.items()}
    problems = _check_csv(name, seed, trials, data["csv"].decode("utf-8", "replace"))
    config_text = data["config"].decode("utf-8", "replace")
    problems += _check_sidecar(name, seed, trials, config_text)
    if "svg" in data:
        problems += _check_svg(data["svg"].decode("utf-8", "replace"), config_text)
    return digests, problems


def _check_csv(name: str, seed: int, trials: int, text: str) -> list[str]:
    lines = text.split("\n")
    header = "k,over_threshold,under_threshold,over_freq,under_freq,over_ci,under_ci,trials,master_seed"
    grid = [(k, o, u) for k in PAPER_SIZES for o, u in sorted(PAPER_BENCHMARKS)]
    if lines[0] != header or lines[-1] != "" or len(lines) != len(grid) + 2:
        return ["CSV header or row count is wrong"]
    problems = []
    for line, (k, over_t, under_t) in zip(lines[1:-1], grid):
        try:
            f = line.split(",")
            row_k, row_over_t, row_under_t = int(f[0]), float(f[1]), float(f[2])
            over_freq, under_freq, over_ci, under_ci = map(float, f[3:7])
            row_trials, row_seed = int(f[7]), int(f[8])
        except (ValueError, IndexError):
            problems.append(f"malformed CSV row {line!r}")
            continue
        if (row_k, row_over_t, row_under_t, row_trials, row_seed) != (k, over_t, under_t, trials, seed):
            problems.append(f"CSV row {line!r} is not cell {(k, over_t, under_t)} of {trials} trials, seed {seed}")
            continue
        over, under = round(over_freq * trials), round(under_freq * trials)
        if (
            abs(over_freq * trials - over) > 1e-6 * trials
            or abs(under_freq * trials - under) > 1e-6 * trials
            or over + under > trials
            or abs(over_ci - wilson_half_width(over, trials)) > 2e-6
            or abs(under_ci - wilson_half_width(under, trials)) > 2e-6
        ):
            problems.append(f"CSV row {line!r} is not a consistent tally")
            continue
        if k == 1:
            # Exact for fixed thresholds; in realized-index mode the thresholds
            # move with the index (sd ~0.06), which shifts k=1 tails by ~1e-3.
            for freq, count, gross, direction in (
                (over_freq, over, 1.0 + over_t, "above"),
                (under_freq, under, 1.0 + under_t, "below"),
            ):
                expected = stock_tail(gross, direction)
                if abs(freq - expected) > WILSON_WIDTHS * wilson_half_width(count, trials):
                    problems.append(
                        f"k=1 {direction} {gross}: frequency {freq} vs lognormal tail {expected:.4f}"
                    )
    return problems


def _check_sidecar(name: str, seed: int, trials: int, text: str) -> list[str]:
    entries = _read_sidecar(text)
    mu_hat, sigma_hat = paper_calibration()
    want = {
        "n_stocks": str(PAPER_STOCKS),
        "horizon": repr(PAPER_HORIZON),
        "sigma": repr(PAPER_SIGMA),
        "sizes": ",".join(str(k) for k in PAPER_SIZES),
        "trials": str(trials),
        "benchmarks": ",".join(f"{o!r}:{u!r}" for o, u in PAPER_BENCHMARKS),
        "mode": "realized-index" if name == "realized-w2" else "fixed-benchmark",
        "sampling": "fresh-universe",
        "seed": str(seed),
        "precision": "6",
    }
    problems = [
        f"sidecar {key} = {entries.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if entries.get(key) != value
    ]
    for key, value in (("mu_hat", mu_hat), ("sigma_hat", sigma_hat)):
        try:
            ok = abs(float(entries[key]) - value) <= 1e-12
        except (KeyError, ValueError):
            ok = False
        if not ok:
            problems.append(f"sidecar {key} = {entries.get(key)!r}, expected {value!r}")
    return problems


def _check_svg(svg: str, config_text: str) -> list[str]:
    escaped = config_text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    series = 2 * len(PAPER_BENCHMARKS)
    if (
        not svg.startswith("<svg ")
        or not svg.endswith("</svg>\n")
        or f"<desc>{escaped}</desc>" not in svg
        or svg.count("<polyline ") != series
        or svg.count("<circle ") != series * len(PAPER_SIZES)
    ):
        return ["SVG is not a chart of the run with its configuration"]
    return []


_ENUM_SPLIT = re.compile(r"^benchmark=(\S+) below=(\d+) equal=(\d+) above=(\d+)$", re.M)
_ENUM_TOTALS = re.compile(r"^portfolios=(\d+) mean=(\S+) median=(\S+) under_fraction=(\S+)$", re.M)


def check_oracle(result: dict) -> tuple[dict, list[str]]:
    """Check an oracle-exact run against the exact subset law.

    Returns the outputs to compare with the reference (enumeration split and
    subset_frequencies counts) and the problems found.
    """
    stdout = result["enumerate_stdout"]
    split, totals = _ENUM_SPLIT.search(stdout), _ENUM_TOTALS.search(stdout)
    if result["exit_code"] != 0 or not split or not totals:
        return {}, [f"enumerate failed (exit {result['exit_code']}): {stdout[-300:]!r}"]
    below, equal, above = (int(x) for x in split.group(2, 3, 4))
    portfolios = int(totals.group(1))
    outputs = {"enumerate": [below, equal, above, portfolios], "picks": result["picks"]}

    exact = [sum(part) for part in zip(*(oracle_split(k) for k in range(1, ORACLE_STOCKS + 1)))]
    mean = 0.1 + 0.4 * ORACLE_WINNERS / ORACLE_STOCKS
    problems = []
    if [below, equal, above] != exact or portfolios != 2 ** ORACLE_STOCKS - 1:
        problems.append(f"enumeration split {outputs['enumerate']} != exact {exact}")
    if (split.group(1), totals.group(2), totals.group(3)) != (
        f"{mean:.6f}", f"{mean:.6f}", f"{oracle_median():.6f}"
    ):
        problems.append(f"enumeration benchmark/mean/median wrong: {totals.group(0)!r}")
    if set(result["picks"]) != {str(k) for k in ORACLE_PICK_SIZES}:
        return outputs, problems + ["subset_frequencies sizes are wrong"]
    for k in ORACLE_PICK_SIZES:
        counts = result["picks"][str(k)]
        law = oracle_split(k)
        if sum(counts) != ORACLE_PICKS:
            problems.append(f"subset_frequencies k={k} counts {counts} do not sum to {ORACLE_PICKS}")
            continue
        for count, ways in zip(counts, law):
            p = ways / sum(law)
            if abs(count / ORACLE_PICKS - p) > WILSON_WIDTHS * wilson_half_width(count, ORACLE_PICKS):
                problems.append(f"subset_frequencies k={k} counts {counts} vs exact law {law}")
                break
    return outputs, problems
