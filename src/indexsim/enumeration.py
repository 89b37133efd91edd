"""Exhaustive statistics over every equal-weighted k-subset of a fixed universe.

Small instances double as a brute-force oracle for the Monte Carlo engine:
the mean over all C(N, k) subset returns equals the index mean return
exactly, because each stock appears in exactly C(N-1, k-1) subsets.

A subset's return is defined as ``math.fsum(subset) / k - 1.0``.  It is
computed without visiting subsets one at a time: every gross value is an
integer multiple of one power of two (the smallest ulp among them), so the
sums of all k-subsets are exact integers, built level by level with numpy
and reduced to a histogram before any rounding.  Rounding each distinct sum
once to a float gives exactly what ``math.fsum`` gives, and every statistic
is taken from the histogram, so results do not depend on the input order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

DEFAULT_ENUMERATION_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """Raised when the requested subset count exceeds the enumeration cap."""


@dataclass(frozen=True)
class DeterministicIndex:
    """A fixed list of gross terminal values, one per stock."""

    gross_values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.gross_values)
        object.__setattr__(self, "gross_values", values)
        if not values:
            raise ValueError("gross_values must be non-empty")
        if any(not math.isfinite(v) or v <= 0 for v in values):
            raise ValueError("gross values must be positive and finite")

    def __len__(self) -> int:
        return len(self.gross_values)

    def mean_return(self) -> float:
        return math.fsum(self.gross_values) / len(self.gross_values) - 1.0


@dataclass(frozen=True)
class SubsetStats:
    """Exact statistics of the enumerated equal-weighted portfolios.

    returns_histogram maps each distinct net return to its multiplicity;
    benchmark_comparisons maps each benchmark net return to counts of
    portfolios strictly below / exactly equal / strictly above it.
    """

    portfolio_count: int
    mean_return: float
    median_return: float
    returns_histogram: tuple[tuple[float, int], ...]
    benchmark_comparisons: Mapping[float, tuple[int, int, int]]


def _validate_sizes(n: int, k_set: Iterable[int]) -> tuple[int, ...]:
    sizes = tuple(sorted(set(int(k) for k in k_set)))
    if not sizes:
        raise ValueError("k_set must contain at least one subset size")
    if sizes[0] < 1 or sizes[-1] > n:
        raise ValueError(f"subset sizes must lie in [1, {n}], got {sizes}")
    return sizes


def _units(values: tuple[float, ...]) -> tuple[list[int], int]:
    """Integers m_i and a shift such that values[i] == m_i / 2**shift exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    # every denominator is a power of two; scale all to the largest
    shift = max(q.bit_length() - 1 for _, q in ratios)
    return [p << (shift - q.bit_length() + 1) for p, q in ratios], shift


def _subset_sums(units: list[int], sizes: tuple[int, ...], dtype):
    """Yield (k, sums of all k-subsets of units) for each k in sizes.

    Level j holds the j-subset sums in lexicographic order.  The
    (j-1)-subsets of units[a+1:] are the last C(n-a-1, j-1) entries of
    level j-1, so level j is their concatenation plus units[a] over a.
    A k above n/2 is read off level n - k as the total minus each sum.
    """
    n = len(units)
    column = np.array(units, dtype=dtype)
    total = column.sum()
    level = np.zeros(1, dtype=dtype)
    for j in range(max(min(k, n - k) for k in sizes) + 1):
        if j:
            level = np.concatenate([
                level[level.size - math.comb(n - a - 1, j - 1):] + column[a]
                for a in range(n - j + 1)
            ])
        for k in sizes:
            if min(k, n - k) == j:
                yield k, level if k == j else total - level


def _exact_sum(values: np.ndarray, counts: np.ndarray) -> float:
    """Correctly rounded sum of counts[i] * values[i], for counts below 2**52.

    A product with a count above one is split into exact float terms for
    math.fsum: the value into Veltkamp halves of at most 26 significant bits
    and the count into its bits above and below 2**26.  Magnitudes that
    could overflow a term fall back to math.fsum over the expanded list,
    which raises OverflowError exactly when the sum itself overflows.
    """
    if float(np.abs(values).max()) * max(int(counts.sum()), 2 ** 27) >= 2.0 ** 1000:
        return math.fsum(np.repeat(values, counts).tolist())
    repeated = counts > 1
    scaled = values[repeated] * (2.0 ** 27 + 1.0)
    high = scaled - (scaled - values[repeated])
    low = values[repeated] - high
    terms = [values[~repeated]]
    for part in (counts[repeated] >> 26 << 26, counts[repeated] & (2 ** 26 - 1)):
        terms += [part * high, part * low]
    return math.fsum(np.concatenate(terms).tolist())


def enumerate_portfolios(
    index: DeterministicIndex,
    k_set: Iterable[int],
    benchmarks: Iterable[float] = (),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SubsetStats:
    """Statistics of every subset of every size in k_set, each counted once.

    Equal to visiting each subset and taking ``math.fsum(subset) / k - 1.0``
    (see the module docstring), including an OverflowError when a sum or the
    mean overflows, at about 10 ns per subset plus up to 0.5 µs per
    distinct return.
    """
    n = len(index)
    sizes = _validate_sizes(n, k_set)
    benchmarks = tuple(float(b) for b in benchmarks)
    if not all(math.isfinite(b) for b in benchmarks):
        raise ValueError(f"benchmarks must be finite, got {benchmarks}")
    total = sum(math.comb(n, k) for k in sizes)
    if total > cap:
        raise EnumerationCapError(
            f"enumeration would visit {total} subsets, above the cap of {cap}"
        )

    units, shift = _units(index.gross_values)
    # int64 sums convert with one cast and an exact scaling while the result
    # stays a normal float; otherwise Python ints, divided exactly.
    fits_int64 = sum(units) < 2 ** 63 and min(index.gross_values) >= sys.float_info.min
    parts = []
    for k, sums in _subset_sums(units, sizes, np.int64 if fits_int64 else object):
        distinct, counts = np.unique(sums, return_counts=True)
        if fits_int64:
            gross = np.ldexp(distinct.astype(float), -shift)
        else:
            scale = 1 << shift
            gross = np.array([s / scale for s in distinct.tolist()], dtype=float)
        parts.append((gross / k - 1.0, counts))

    returns = np.concatenate([r for r, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    order = np.argsort(returns, kind="stable")
    returns, counts = returns[order], counts[order]
    starts = np.flatnonzero(np.r_[True, returns[1:] != returns[:-1]])
    values, counts = returns[starts], np.add.reduceat(counts, starts)
    histogram = tuple(zip(values.tolist(), counts.tolist()))

    mean = _exact_sum(values, counts) / total
    cumulative = np.cumsum(counts)

    def ordered(position: int) -> np.float64:
        return values[np.searchsorted(cumulative, position, side="right")]

    mid = total // 2
    if total % 2:
        median = float(ordered(mid))
    else:
        median = float((ordered(mid - 1) + ordered(mid)) / 2.0)

    comparisons = {}
    for b in benchmarks:
        i = int(np.searchsorted(values, b, side="left"))
        below = int(cumulative[i - 1]) if i else 0
        equal = int(counts[i]) if i < values.size and values[i] == b else 0
        comparisons[b] = (below, equal, total - below - equal)

    return SubsetStats(
        portfolio_count=total,
        mean_return=mean,
        median_return=median,
        returns_histogram=histogram,
        benchmark_comparisons=comparisons,
    )
