"""Exhaustive statistics over every equal-weighted k-subset of a fixed universe.

Small instances double as a brute-force oracle for the Monte Carlo engine:
the mean over all C(N, k) subset returns equals the index mean return
exactly, because each stock appears in exactly C(N-1, k-1) subsets.

A subset's return is defined as ``math.fsum(subset) / k - 1.0``.  It is
computed without visiting subsets one at a time: every gross value is an
integer multiple of one power of two (the smallest ulp among them), so
subset sums are exact integers.  The sums are built with numpy, one group
of equal values at a time, as histograms: each distinct sum is held once,
with the number of subsets that give it, so the cost follows the number of
distinct sums, not of subsets.  Rounding each distinct sum once to a float
gives exactly what ``math.fsum`` gives, and every statistic is taken from
the histogram, so results do not depend on the input order.  SubsetStats
keeps the histogram of returns, and a benchmark split is a query on it.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .model import as_integer

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


@dataclass(frozen=True, eq=False)
class SubsetStats:
    """Exact statistics of the enumerated equal-weighted portfolios.

    returns holds the distinct net returns in increasing order and counts
    the number of portfolios that give each, both as read-only arrays;
    counts is int64, or object dtype once portfolio_count reaches 2**63.
    """

    portfolio_count: int
    mean_return: float
    median_return: float
    returns: np.ndarray
    counts: np.ndarray

    def compare(self, benchmark: float) -> tuple[int, int, int]:
        """Counts of portfolios strictly below, exactly equal to and strictly above benchmark."""
        benchmark = float(benchmark)
        # a NaN compares false with every return, so it would count every
        # portfolio as below it
        if not math.isfinite(benchmark):
            raise ValueError(f"benchmark must be finite, got {benchmark}")
        low = np.searchsorted(self.returns, benchmark, side="left")
        high = np.searchsorted(self.returns, benchmark, side="right")
        below = int(self.counts[:low].sum())
        equal = int(self.counts[low:high].sum())
        return below, equal, self.portfolio_count - below - equal


def _validate_sizes(n: int, k_set: Iterable[int]) -> tuple[int, ...]:
    sizes = tuple(sorted(set(as_integer("each size in k_set", k) for k in k_set)))
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


def _join(pieces) -> tuple[np.ndarray, np.ndarray]:
    """One histogram of sorted (keys, counts) pieces: the distinct keys in increasing
    order, each with the sum of its counts (a stable sort merges the sorted runs)."""
    keys, counts = (np.concatenate(column) for column in zip(*pieces))
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    new = np.r_[True, keys[1:] != keys[:-1]]
    if new.all():
        return keys, counts
    starts = np.flatnonzero(new)
    return keys[starts], np.add.reduceat(counts, starts)


def _subset_sums(units: list[int], sizes: tuple[int, ...], dtype, count_dtype):
    """Yield (k, sums, counts) for each k in sizes: the distinct exact sums
    of k units in increasing order, each with the number of k-subsets that
    give it.

    A group is a distinct unit u with its multiplicity m.  levels[j] holds
    the sums of j picks from the groups seen so far, as (sums, counts)
    pieces, each with distinct sums in increasing order.  Each group extends
    level j by level j - c plus c * u, counts times comb(m, c), for
    c = 1..min(m, j); j runs downwards, so no level it reads holds the group
    yet.  A level gains up to m pieces per group and is merged into one
    histogram only when read, so it is copied at most once per group.  A k
    above n/2 is read off level n - k as the total minus each sum.
    """
    n = len(units)
    top = max(min(k, n - k) for k in sizes)
    total = sum(units)
    levels = [[(np.zeros(1, dtype=dtype), np.ones(1, dtype=count_dtype))]] + [[] for _ in range(top)]
    for u, m in Counter(units).items():
        for j in range(top, 0, -1):
            for c in range(1, min(m, j) + 1):
                pieces = levels[j - c]
                if len(pieces) > 1:
                    pieces[:] = [_join(pieces)]
                if pieces:  # most are empty while one large group fills the levels
                    sums, counts = pieces[0]
                    levels[j].append((sums + c * u, counts * math.comb(m, c)))
    for k in sizes:
        sums, counts = _join(levels[min(k, n - k)])
        yield (k, sums, counts) if k <= n - k else (k, total - sums[::-1], counts[::-1])


def _exact_sum(values: np.ndarray, counts: np.ndarray) -> float:
    """Correctly rounded sum of counts[i] * values[i], for any counts.

    Each value is an integer mantissa of at most 53 bits times a power of
    two.  The products of one exponent are summed exactly in Python ints,
    shifted into place and the total divided once: about 0.2 s for a
    million distinct values.  Raises OverflowError when the correctly
    rounded sum overflows a float.
    """
    mantissas, exponents = np.frexp(values)
    # values[i] == integers[i] * 2**(exponents[i] - 53)
    integers = np.ldexp(mantissas, 53).astype(np.int64)
    lowest = int(exponents.min())
    exact = 0
    for e in np.unique(exponents).tolist():
        group = exponents == e
        exact += sum(map(operator.mul, integers[group].tolist(), counts[group].tolist())) << (e - lowest)
    lowest -= 53  # the sum is exact * 2**lowest
    return exact / (1 << -lowest) if lowest < 0 else float(exact << lowest)


def enumerate_portfolios(
    index: DeterministicIndex,
    k_set: Iterable[int],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SubsetStats:
    """Statistics of every subset of every size in k_set, each counted once.

    Equal to visiting each subset and taking ``math.fsum(subset) / k - 1.0``
    (see the module docstring), including an OverflowError when a sum or the
    mean overflows.  Time and memory grow with the number of distinct sums
    at each level, not with the number of subsets: 24 distinct integers at
    size 12 take about 6 ms, 20 distinct lognormal values at every size
    (about a million distinct returns) about 0.35 s.  cap still bounds the
    number of subsets counted.
    """
    n = len(index)
    sizes = _validate_sizes(n, k_set)
    total = sum(math.comb(n, k) for k in sizes)
    if total > cap:
        raise EnumerationCapError(
            f"enumeration would count {total} subsets, above the cap of {cap}"
        )

    units, shift = _units(index.gross_values)
    # int64 sums convert with one cast and an exact scaling while the result
    # stays a normal float; otherwise Python ints, divided exactly.  Counts
    # are int64 while every total fits.
    fits_int64 = sum(units) < 2 ** 63 and min(index.gross_values) >= sys.float_info.min
    count_dtype = np.int64 if total < 2 ** 63 else object
    parts = []
    for k, distinct, counts in _subset_sums(units, sizes, np.int64 if fits_int64 else object, count_dtype):
        if fits_int64:
            gross = np.ldexp(distinct.astype(float), -shift)
        else:
            scale = 1 << shift
            gross = np.array([s / scale for s in distinct.tolist()], dtype=float)
        parts.append((gross / k - 1.0, counts))

    values, counts = _join(parts)

    mean = _exact_sum(values, counts)
    # float / int rounds the int to a float first, which fails past the
    # float range although the mean does not
    mean = mean / total if total <= sys.float_info.max else float(Fraction(mean) / total)
    cumulative = np.cumsum(counts)

    def ordered(position: int) -> np.float64:
        return values[np.searchsorted(cumulative, position, side="right")]

    mid = total // 2
    if total % 2:
        median = float(ordered(mid))
    else:
        median = float((ordered(mid - 1) + ordered(mid)) / 2.0)

    values.setflags(write=False)
    counts.setflags(write=False)
    return SubsetStats(
        portfolio_count=total,
        mean_return=mean,
        median_return=median,
        returns=values,
        counts=counts,
    )
