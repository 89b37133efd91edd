"""Frequency experiments: how often do random k-stock portfolios beat a benchmark.

For every (size, benchmark) cell the engine runs ``trials_per_size``
independent trials.  A trial draws a universe, picks k distinct stocks
uniformly at random, and compares the equal-weighted net return against
the cell's thresholds.  Every count, ``subset_frequencies`` included,
follows one rule (``_classify``): strictly above the upper threshold is
over, strictly below the lower one is under, anything else (exact ties
included) is between.

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
import numbers
from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import Sequence

import numpy as np

from .analytic import expected_index_value
from .enumeration import DeterministicIndex
from .model import (
    PICK_STREAM,
    STREAM_STRIDE,
    _MASK32,
    ModelParams,
    SeedSpec,
    _plan_draws,
    as_integer,
    draw_universe,
    index_value,
)

MODES = ("fixed-benchmark", "realized-index")


def _check_thresholds(over, under) -> tuple[float, float]:
    """A benchmark pair as floats; ValueError unless both are finite real numbers and over >= under."""
    try:
        floats = [float(t) for t in (over, under) if isinstance(t, numbers.Real)]
    except OverflowError:
        floats = []
    if len(floats) != 2 or not all(map(math.isfinite, floats)):
        raise ValueError(f"benchmark thresholds must be finite real numbers, got {(over, under)!r}")
    over, under = floats
    if over < under:
        raise ValueError(f"over_threshold must be >= under_threshold, got {(over, under)!r}")
    return over, under


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one frequency experiment."""

    params: ModelParams
    sizes: tuple[int, ...] = (1, 2, 5, 10, 15, 20)
    trials_per_size: int = 10_000
    benchmarks: tuple[tuple[float, float], ...] = ((0.50, 0.50), (0.70, 0.30))
    mode: str = "fixed-benchmark"
    master_seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(as_integer("sizes", k) for k in self.sizes))
        object.__setattr__(self, "trials_per_size", as_integer("trials_per_size", self.trials_per_size))
        # SeedSpec coerces the seed and checks that it is a 64-bit unsigned integer
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)
        object.__setattr__(self, "benchmarks", tuple(_check_thresholds(o, u) for o, u in self.benchmarks))
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
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "realized-index":
            # the thresholds are offsets from it, so it must be a float
            expected_index_value(self.params)


@dataclass(frozen=True)
class FrequencyRow:
    """Tally for one (size, benchmark) cell: over and under counts out of ``trials``.

    Everything else is derived on read: the between count, the raw
    frequencies count / trials, and their 95% Wilson half-widths
    (``frequency_ci``).  Values that no run counts raise ValueError.
    """

    size: int
    over_threshold: float
    under_threshold: float
    over_count: int
    under_count: int
    trials: int

    def __post_init__(self):
        for name in ("size", "over_count", "under_count", "trials"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.size < 1:
            raise ValueError(f"k must be >= 1, got {self.size!r}")
        over, under = _check_thresholds(self.over_threshold, self.under_threshold)
        object.__setattr__(self, "over_threshold", over)
        object.__setattr__(self, "under_threshold", under)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if min(self.over_count, self.under_count) < 0 or self.over_count + self.under_count > self.trials:
            raise ValueError(f"counts {(self.over_count, self.under_count)} do not fit {self.trials} trials")

    @property
    def between_count(self) -> int:
        return self.trials - self.over_count - self.under_count

    @property
    def over_freq(self) -> float:
        return self.over_count / self.trials

    @property
    def under_freq(self) -> float:
        return self.under_count / self.trials

    @property
    def over_ci(self) -> float:
        return frequency_ci(self.over_count, self.trials)[1]

    @property
    def under_ci(self) -> float:
        return frequency_ci(self.under_count, self.trials)[1]


@dataclass(frozen=True)
class FrequencyReport:
    """One run's rows, each cell once, held sorted by (size, over_threshold, under_threshold)."""

    rows: tuple[FrequencyRow, ...]
    master_seed: int

    def __post_init__(self):
        key = attrgetter("size", "over_threshold", "under_threshold")
        rows = tuple(sorted(self.rows, key=key))
        if not rows:
            raise ValueError("report must contain at least one row")
        for earlier, row in zip(rows, rows[1:]):
            if key(earlier) == key(row):
                raise ValueError(f"repeated cell (k, over_threshold, under_threshold): {key(row)!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)

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

    Partial Fisher-Yates in one pass: position i swaps with a uniform j in
    [i, n), and the first k positions are the sample.  Only swapped slots
    are stored (``moved``); every other slot still holds its own index.

    On a fresh stream the j_i are exactly numpy's ``rng.integers(np.arange(k),
    n)``: for n <= 2**32, as ModelParams requires, numpy draws each j_i by
    32-bit Lemire on the stream's 32-bit halves, low half of each 64-bit word
    first, rejecting when the low product word falls below 2**32 mod (n - i);
    the same arithmetic on Python ints over ceil(k/2) raw words costs a
    fraction of numpy's per-element call.  A single word (k <= 2, and each
    rejection's extra word) is read as a Python int and split here, which
    costs less than numpy's one-element array; k >= 3 reads its words in one
    array.  The stream is read in whole words, so a generator reused
    afterwards may differ from one that numpy advanced.
    """
    # numpy integers would overflow the int64 products below
    if type(n) is not int or type(k) is not int:
        n, k = as_integer("n", n), as_integer("k", k)
    if not 1 <= k <= n <= 2 ** 32:
        raise ValueError(f"need 1 <= k <= n <= 2**32, got k={k}, n={n}")
    if k == n:
        return np.arange(n)
    moved = {}
    picked = []
    raw = rng.bit_generator.random_raw
    if k <= 2:
        word = raw()
        halves = [word & _MASK32, word >> 32]
    else:
        halves = raw(-(-k // 2)).astype("<u8", copy=False).view("<u4").tolist()
    pos = 0
    for i in range(k):
        span = n - i
        product = halves[pos] * span
        pos += 1
        if product & _MASK32 < span:
            threshold = (1 << 32) % span
            while product & _MASK32 < threshold:
                # one more word per rejection keeps a half for every later i
                word = raw()
                halves += (word & _MASK32, word >> 32)
                product = halves[pos] * span
                pos += 1
        j = i + (product >> 32)
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked)


def run_trial(
    params: ModelParams, k: int, seed: SeedSpec, mode: str = "fixed-benchmark"
) -> tuple[float, float]:
    """One trial: equal-weighted net return of k random stocks of a fresh universe.

    ``seed.stream_index`` is the trial's base stream; the drift, shock and
    subset-pick substreams sit at the documented offsets from it.  Returns
    (portfolio_return, realized_index_return); ``mode`` is checked but does
    not change the draw.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values = draw_universe(params, seed)
    realized = index_value(values) - 1.0
    picked = values[pick_subset(seed.generator(PICK_STREAM), values.size, k)]
    return float(picked.sum() / k - 1.0), realized


def _classify(returns: np.ndarray, hi, lo) -> tuple[int, int, int]:
    """(under, between, over) counts of returns < lo, the rest and > hi; hi >= lo."""
    under = int(np.count_nonzero(returns < lo))
    over = int(np.count_nonzero(returns > hi))
    return under, returns.size - under - over, over


def _tally_block(config: ExperimentConfig, cell: int, start: int, stop: int) -> tuple[int, int]:
    """Tally trials [start, stop) of one cell: (over, under)."""
    # the whole run's draws decide in every process, a spawned worker's too
    _plan_draws(config.params, config.trials_per_size * len(config.sizes) * len(config.benchmarks))
    size_idx, bench_idx = divmod(cell, len(config.benchmarks))
    k, (hi, lo) = config.sizes[size_idx], config.benchmarks[bench_idx]
    first = cell * config.trials_per_size
    portfolio, realized = zip(*(
        run_trial(config.params, k, SeedSpec(config.master_seed, (first + t) * STREAM_STRIDE),
                  config.mode)
        for t in range(start, stop)
    ))
    if config.mode == "realized-index":
        # Thresholds keep their meaning as offsets from the expected index
        # return, applied to each trial's realized index return instead.
        expected = expected_index_value(config.params) - 1.0
        realized = np.array(realized)
        hi, lo = realized + (hi - expected), realized + (lo - expected)
    under, _, over = _classify(np.array(portfolio), hi, lo)
    return over, under


def run_experiment(config: ExperimentConfig, workers: int = 1) -> FrequencyReport:
    """Run the full grid of (size, benchmark) cells.

    Each cell's trials are cut into blocks of 500, the last possibly
    shorter, so the task list is the same for any ``workers``; it runs in
    this process when one worker is enough and otherwise on
    ``min(workers, tasks)`` processes.  Tallies are integer sums per cell,
    so the report is bit-identical for any worker count.
    """
    workers = as_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    trials = config.trials_per_size
    block = 500
    cells = len(config.sizes) * len(config.benchmarks)
    tasks = [
        (config, cell, start, min(start + block, trials))
        for cell in range(cells)
        for start in range(0, trials, block)
    ]
    processes = min(workers, len(tasks))
    if processes == 1:
        results = [_tally_block(*task) for task in tasks]
    else:
        # imported here, so that a run without a pool loads no multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.get_start_method() == "fork":
            _plan_draws(config.params, trials * cells)  # forked workers then share one import
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_tally_block, *zip(*tasks)))

    # results come back in task order, so each one adds to its task's cell
    counts = np.zeros((cells, 2), dtype=np.int64)
    np.add.at(counts, [cell for _, cell, _, _ in tasks], results)

    rows = tuple(
        FrequencyRow(size=k, over_threshold=over_t, under_threshold=under_t,
                     over_count=over, under_count=under, trials=trials)
        for (k, (over_t, under_t)), (over, under) in zip(product(config.sizes, config.benchmarks), counts.tolist())
    )
    return FrequencyReport(rows=rows, master_seed=config.master_seed)


# ndtri(0.975), the 97.5th standard normal percentile: frequency_ci's intervals are 95%.
_WILSON_Z = 1.959963984540054


def frequency_ci(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion: (center, half_width)."""
    successes, trials = as_integer("successes", successes), as_integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes!r}")
    z = _WILSON_Z
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
    from cell 0's pick streams on ``DeterministicIndex(values)``, the fixed
    universe that exhaustive enumeration checks.  Each pick builds its own
    generator and calls ``pick_subset`` once.  The picks fill one (trials, k)
    matrix, and the index's ``subset_returns`` gives each row enumeration's
    return, ``math.fsum(subset) / k - 1.0`` in any pick order, or
    OverflowError past the float range.
    """
    k, trials = as_integer("k", k), as_integer("trials", trials)
    index = DeterministicIndex(values)
    n = len(index)
    if not 1 <= k <= n:
        raise ValueError(f"subset size must lie in [1, {n}], got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not math.isfinite(benchmark):
        raise ValueError("benchmark must be finite")
    # bound here, not as defaults, so that wrappers installed before the call see every pick
    generator, pick = SeedSpec(master_seed).generator, pick_subset
    picks = np.empty((trials, k), dtype=np.intp)
    for t in range(trials):
        picks[t] = pick(generator(t * STREAM_STRIDE + PICK_STREAM), n, k)
    return _classify(index.subset_returns(picks), benchmark, benchmark)
