"""Frequency experiments: how often do random k-stock portfolios beat a benchmark.

For every (size, benchmark) cell the engine runs ``trials_per_size``
independent trials.  A trial draws a universe (or, in direct-iid sampling,
just k stocks), picks k distinct stocks uniformly at random, and compares
the equal-weighted net return against the cell's thresholds.  Every count,
``subset_frequencies`` included, follows one rule (``_classify``): strictly
above the upper threshold is over, strictly below the lower one is under,
anything else (exact ties included) is between.

Reproducibility scheme: trials are numbered globally,

    cell    = size_position * len(benchmarks) + benchmark_position
    trial   = cell * trials_per_size + t
    streams = trial * STREAM_STRIDE + {DRIFT_STREAM, SHOCK_STREAM, PICK_STREAM}

so every trial owns its substreams and tallies are bit-identical for any
worker count and any partition of the trial range.  ``subset_frequencies``
uses cell 0's pick streams: its trial t picks from ``t * STREAM_STRIDE +
PICK_STREAM``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .analytic import expected_index_value
from .model import (
    PICK_STREAM,
    STREAM_STRIDE,
    ModelParams,
    SeedSpec,
    draw_universe,
    index_value,
)

DEFAULT_SIZE_GRID = (1, 2, 5, 10, 15, 20)
DEFAULT_BENCHMARKS = ((0.50, 0.50), (0.70, 0.30))
DEFAULT_TRIALS = 10_000

MODES = ("fixed-benchmark", "realized-index")
SAMPLINGS = ("fresh-universe", "direct-iid")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one frequency experiment."""

    params: ModelParams
    sizes: tuple[int, ...] = DEFAULT_SIZE_GRID
    trials_per_size: int = DEFAULT_TRIALS
    benchmarks: tuple[tuple[float, float], ...] = DEFAULT_BENCHMARKS
    mode: str = "fixed-benchmark"
    sampling: str = "fresh-universe"
    master_seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(k) for k in self.sizes))
        object.__setattr__(
            self, "benchmarks", tuple((float(o), float(u)) for o, u in self.benchmarks)
        )
        if not self.sizes:
            raise ValueError("sizes must be non-empty")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sizes must be distinct, got {self.sizes!r}")
        if len(set(self.benchmarks)) != len(self.benchmarks):
            raise ValueError(f"benchmark pairs must be distinct, got {self.benchmarks!r}")
        for k in self.sizes:
            if not 1 <= k <= self.params.n_stocks:
                raise ValueError(f"subset size {k} outside [1, {self.params.n_stocks}]")
        if self.trials_per_size < 1:
            raise ValueError(f"trials_per_size must be >= 1, got {self.trials_per_size!r}")
        if not self.benchmarks:
            raise ValueError("benchmarks must be non-empty")
        for over, under in self.benchmarks:
            if not (math.isfinite(over) and math.isfinite(under)):
                raise ValueError(f"benchmark thresholds must be finite, got {(over, under)!r}")
            if over < under:
                raise ValueError(
                    f"over_threshold must be >= under_threshold, got {(over, under)!r}"
                )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sampling not in SAMPLINGS:
            raise ValueError(f"sampling must be one of {SAMPLINGS}, got {self.sampling!r}")
        if self.sampling == "direct-iid" and self.mode == "realized-index":
            raise ValueError("direct-iid sampling has no realized index to compare against")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")


@dataclass(frozen=True)
class FrequencyRow:
    """Tally for one (size, benchmark) cell.

    over_freq / under_freq are the raw frequencies over_count/trials and
    under_count/trials; over_ci / under_ci are 95% Wilson half-widths.
    """

    size: int
    over_threshold: float
    under_threshold: float
    over_count: int
    under_count: int
    between_count: int
    trials: int
    over_freq: float
    under_freq: float
    over_ci: float
    under_ci: float


@dataclass(frozen=True)
class FrequencyReport:
    rows: tuple[FrequencyRow, ...]
    master_seed: int
    config: Optional[ExperimentConfig] = None

    def row_for(self, size: int, over_threshold: float, under_threshold: float) -> FrequencyRow:
        for row in self.rows:
            if (
                row.size == size
                and row.over_threshold == over_threshold
                and row.under_threshold == under_threshold
            ):
                return row
        raise KeyError(f"no row for size={size}, thresholds=({over_threshold}, {under_threshold})")


def pick_subset(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Choose k distinct indices from range(n), uniform over all C(n, k) subsets.

    Partial Fisher-Yates: position i swaps with a uniform j in [i, n), and
    the first k positions are the sample.  The k random integers are drawn
    in one vectorized call from the given substream.  Only swapped slots
    are stored (``moved``); every other slot still holds its own index.
    """
    if not 1 <= k <= n:
        raise ValueError(f"subset size must lie in [1, {n}], got {k}")
    if k == n:
        return np.arange(n)
    moved = {}
    picked = []
    for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked)


def run_trial(
    params: ModelParams,
    k: int,
    seed: SeedSpec,
    mode: str = "fixed-benchmark",
    sampling: str = "fresh-universe",
) -> tuple[float, Optional[float]]:
    """One trial: equal-weighted net return of k random stocks.

    ``seed.stream_index`` is the trial's base stream; the drift, shock and
    subset-pick substreams sit at the documented offsets from it.  Returns
    (portfolio_return, realized_index_return); the realized index return is
    only available with fresh-universe sampling, otherwise None.
    """
    if not 1 <= k <= params.n_stocks:
        raise ValueError(f"subset size must lie in [1, {params.n_stocks}], got {k}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if sampling == "fresh-universe":
        universe = draw_universe(params, seed)
        realized = index_value(universe) - 1.0
        return _pick_return(seed.substream(PICK_STREAM), universe.terminal_values, k), realized
    if sampling == "direct-iid":
        if mode == "realized-index":
            raise ValueError("direct-iid sampling has no realized index to compare against")
        small = draw_universe(replace(params, n_stocks=k), seed)
        return index_value(small) - 1.0, None
    raise ValueError(f"sampling must be one of {SAMPLINGS}, got {sampling!r}")


def _pick_return(pick: SeedSpec, values: np.ndarray, k: int) -> float:
    """Net return of an equal-weighted pick of k values, drawn from ``pick``'s stream."""
    return float(values[pick_subset(pick.generator(), values.size, k)].sum() / k) - 1.0


def _classify(returns: np.ndarray, hi, lo) -> tuple[int, int, int]:
    """(over, under, between) counts of returns > hi, < lo and the rest; hi >= lo."""
    over = int(np.count_nonzero(returns > hi))
    under = int(np.count_nonzero(returns < lo))
    return over, under, returns.size - over - under


def _tally_block(
    config: ExperimentConfig, size_idx: int, bench_idx: int, start: int, stop: int
) -> tuple[int, int, int, int, int]:
    """Tally trials [start, stop) of one cell; returns cell ids plus counts."""
    k = config.sizes[size_idx]
    hi, lo = config.benchmarks[bench_idx]
    first = (size_idx * len(config.benchmarks) + bench_idx) * config.trials_per_size
    portfolio, realized = zip(*(
        run_trial(config.params, k, SeedSpec(config.master_seed, (first + t) * STREAM_STRIDE),
                  config.mode, config.sampling)
        for t in range(start, stop)
    ))
    if config.mode == "realized-index":
        # Thresholds keep their meaning as offsets from the expected index
        # return, applied to each trial's realized index return instead.
        expected = expected_index_value(config.params) - 1.0
        realized = np.array(realized)
        hi, lo = realized + (hi - expected), realized + (lo - expected)
    return (size_idx, bench_idx, *_classify(np.array(portfolio), hi, lo))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> FrequencyReport:
    """Run the full grid of (size, benchmark) cells.

    The trial blocks form one task list for any ``workers``; it runs in this
    process when one worker is enough and otherwise on ``min(workers, tasks)``
    processes.  Tallies are integer sums per cell, so the report is
    bit-identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    trials = config.trials_per_size
    block = max(500, -(-trials // (workers * 4)))
    tasks = [
        (config, i, j, start, min(start + block, trials))
        for i in range(len(config.sizes))
        for j in range(len(config.benchmarks))
        for start in range(0, trials, block)
    ]
    processes = min(workers, len(tasks))
    if processes == 1:
        results = [_tally_block(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_tally_block, *zip(*tasks)))

    counts = {}
    for i, j, over, under, between in results:
        o, u, b = counts.get((i, j), (0, 0, 0))
        counts[(i, j)] = (o + over, u + under, b + between)

    rows = []
    for i, k in enumerate(config.sizes):
        for j, (over_t, under_t) in enumerate(config.benchmarks):
            over, under, between = counts[(i, j)]
            _, over_hw = frequency_ci(over, trials)
            _, under_hw = frequency_ci(under, trials)
            rows.append(
                FrequencyRow(
                    size=k,
                    over_threshold=over_t,
                    under_threshold=under_t,
                    over_count=over,
                    under_count=under,
                    between_count=between,
                    trials=trials,
                    over_freq=over / trials,
                    under_freq=under / trials,
                    over_ci=over_hw,
                    under_ci=under_hw,
                )
            )
    return FrequencyReport(rows=tuple(rows), master_seed=config.master_seed, config=config)


def frequency_ci(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion: (center, half_width)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    z = float(ndtri(0.5 + confidence / 2.0))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half_width = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    )
    return center, half_width


def subset_frequencies(
    values: Sequence[float], k: int, trials: int, benchmark: float, master_seed: int
) -> tuple[int, int, int]:
    """Sample k-subsets of a fixed universe; count returns vs a benchmark.

    Returns (below, equal, above) counts over ``trials`` independent draws
    from cell 0's pick streams.  This is the fixed-universe mode checked
    against exhaustive enumeration.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-d collection")
    if not 1 <= k <= arr.size:
        raise ValueError(f"subset size must lie in [1, {arr.size}], got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not (np.isfinite(arr).all() and math.isfinite(benchmark)):
        raise ValueError("values and benchmark must be finite")
    picks = (SeedSpec(master_seed, t * STREAM_STRIDE + PICK_STREAM) for t in range(trials))
    returns = np.array([_pick_return(pick, arr, k) for pick in picks])
    above, below, equal = _classify(returns, benchmark, benchmark)
    return below, equal, above
