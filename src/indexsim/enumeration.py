"""Exhaustive statistics over every equal-weighted k-subset of a fixed universe.

Small instances double as a brute-force oracle for the Monte Carlo engine:
the mean over all C(N, k) subset returns equals the index mean return
exactly, because each stock appears in exactly C(N-1, k-1) subsets.

A subset's return is defined as ``math.fsum(subset) / k - 1.0``, a rule
that DeterministicIndex owns.  It is computed without visiting subsets one
at a time: every gross value is an integer multiple of one power of two
(the smallest ulp among them), so subset sums are exact integers.  The
sums are built with numpy, one group of equal values at a time, as
histograms: each distinct sum is held once, with the number of subsets
that give it, so the cost follows the number of distinct sums, not of
subsets.  Rounding each distinct sum once to a float gives exactly what
``math.fsum`` gives, and every statistic is taken from the histogram, so
results do not depend on the input order.  SubsetStats keeps the
histogram of returns, and a benchmark split is a query on it.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import as_integer

# Histogram entries, in words, that one enumeration may make; 26 distinct
# values at size 12 make 28,354,131.
_ENTRY_LIMIT = 2 ** 25


class EnumerationCapError(ValueError):
    """Raised when an enumeration would make more histogram entries than its limit."""


@dataclass(frozen=True)
class DeterministicIndex:
    """A fixed list of gross terminal values, one per stock.

    It owns the one rule for returns on this universe: a subset's net
    return is ``math.fsum(subset) / k - 1.0``, computed from the values'
    exact integer units and rounded once (``subset_returns``).  The index
    mean return is the whole universe's subset return, or, where its sum
    overflows a float, the exact mean rounded once, so it is always finite.
    """

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

    @functools.cached_property
    def _units(self) -> tuple[list[int], int, type]:
        """Integers m_i and a shift such that gross_values[i] == m_i / 2**shift
        exactly, and the dtype of their sums: int64 while every sum fits and
        stays a normal float, otherwise object (Python ints)."""
        ratios = [v.as_integer_ratio() for v in self.gross_values]
        # every denominator is a power of two; scale all to the largest
        shift = max(q.bit_length() - 1 for _, q in ratios)
        units = [p << (shift - q.bit_length() + 1) for p, q in ratios]
        fits_int64 = sum(units) < 2 ** 63 and min(self.gross_values) >= sys.float_info.min
        return units, shift, np.int64 if fits_int64 else object

    def subset_returns(self, picks) -> np.ndarray:
        """Net returns of the subsets whose value indices are the rows of
        picks, an integer matrix with distinct indices in each row: each
        row's ``math.fsum(subset) / k - 1.0`` whatever its order, from the
        exact sum of its units rounded once, or OverflowError past the
        float range."""
        picks = np.asarray(picks)
        n = len(self)
        if picks.ndim != 2 or picks.shape[1] == 0 or picks.dtype.kind not in "iu":
            raise ValueError("picks must be an integer matrix with at least one column, "
                             f"got shape {picks.shape} of {picks.dtype}")
        ordered = np.sort(picks, axis=1)
        if picks.size and (ordered[:, 0].min() < 0 or ordered[:, -1].max() >= n
                           or (ordered[:, 1:] == ordered[:, :-1]).any()):
            raise ValueError(f"each row of picks must hold distinct indices in [0, {n})")
        units, shift, dtype = self._units
        return _returns(np.array(units, dtype=dtype)[picks].sum(axis=1), picks.shape[1], shift)

    def mean_return(self) -> float:
        """The whole universe's subset return; where its sum overflows a
        float, the exact units total over n << shift, rounded once, - 1.0."""
        try:
            return float(self.subset_returns(np.arange(len(self))[np.newaxis])[0])
        except OverflowError:
            units, shift, _ = self._units
            return sum(units) / (len(units) << shift) - 1.0


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


def _returns(sums: np.ndarray, k: int, shift: int) -> np.ndarray:
    """Net returns of exact sums of k units: each sum / 2**shift rounded once, as
    math.fsum rounds it (OverflowError past the float range), then / k - 1.0."""
    if sums.dtype == object:
        gross = np.array([s / (1 << shift) for s in sums.tolist()], dtype=float)
    else:  # one cast, then an exact scaling of a normal float
        gross = np.ldexp(sums.astype(float), -shift)
    return gross / k - 1.0


def _join(pieces) -> tuple[np.ndarray, np.ndarray]:
    """One histogram of sorted (keys, counts) pieces: the distinct keys in increasing
    order, each with the sum of its counts (a stable sort merges the sorted runs)."""
    keys, counts = (np.concatenate(column) for column in zip(*pieces))
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return keys[starts], np.add.reduceat(counts, starts)


def _read(pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """The histogram of a non-empty level; its pieces are merged in place,
    so a level is merged once however often it is read."""
    if len(pieces) > 1:
        pieces[:] = [_join(pieces)]
    return pieces[0]


def _subset_sums(units: list[int], sizes: tuple[int, ...], dtype, count_dtype):
    """Yield (k, sums, counts) for each k in sizes: the distinct exact sums
    of k units in increasing order, each with the number of k-subsets that
    give it.

    A group is a distinct unit u with its multiplicity m.  levels[j] holds
    the sums of j picks from the groups seen so far, as (sums, counts)
    pieces, each with distinct sums in increasing order.  Each group extends
    level j by level j - c plus c * u, counts times comb(m, c); j runs
    downwards, so no level it reads holds the group yet, and both j and c
    stay where level j - c holds sums: j - c <= seen, the units seen so far.
    A level gains up to m pieces per group and is merged into one histogram
    only when read, so it is copied at most once per group.  A k above n/2
    is read off level n - k as the total minus each sum.

    Each piece made costs the entries of the level it reads, each weighed
    by the words that the largest count, comb(n, top), can take, and, when
    the sums are Python ints, by the words of the largest sum, the units'
    total, plus its array slot; before a piece would take the entries made
    past _ENTRY_LIMIT, EnumerationCapError is raised.  n distinct values make sum(comb(n, j) for j <= top) entries,
    and no multiset of n values makes more.
    """
    n = len(units)
    top = max(min(k, n - k) for k in sizes)
    total = sum(units)
    weight = 1 + math.comb(n, top).bit_length() // 64
    if dtype is object:  # each Python-int sum takes its object and an array slot
        weight += -(-sys.getsizeof(total) // 8) + 1
    made = 0
    levels = [[(np.zeros(1, dtype=dtype), np.ones(1, dtype=count_dtype))]] + [[] for _ in range(top)]
    seen = 0
    for u, m in Counter(units).items():
        ways = [1]  # comb(m, c) for c up to min(m, top)
        for c in range(1, min(m, top) + 1):
            ways.append(ways[-1] * (m - c + 1) // c)
        for j in range(min(top, seen + m), 0, -1):
            for c in range(max(1, j - seen), min(m, j) + 1):
                sums, counts = _read(levels[j - c])
                made += weight * len(sums)
                if made > _ENTRY_LIMIT:
                    raise EnumerationCapError(f"enumeration would make more than {_ENTRY_LIMIT} "
                                              "histogram entries (distinct subset sums)")
                levels[j].append((sums + c * u, counts * ways[c]))
        seen += m
    for k in sizes:
        sums, counts = _read(levels[min(k, n - k)])
        yield (k, sums, counts) if k <= n - k else (k, total - sums[::-1], counts[::-1])


def _exact_sum(values: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """The sum of counts[i] * values[i] exactly, for any counts, as an
    integer and a binary exponent: the sum is integer * 2**exponent.

    Each value is an integer mantissa of at most 53 bits times a power of
    two.  The products of one exponent are summed in Python ints and
    shifted into place: about 0.2 s for a million distinct values.
    """
    mantissas, exponents = np.frexp(values)
    # values[i] == integers[i] * 2**(exponents[i] - 53)
    integers = np.ldexp(mantissas, 53).astype(np.int64)
    lowest = int(exponents.min())
    exact = 0
    for e in np.unique(exponents).tolist():
        group = exponents == e
        exact += sum(map(operator.mul, integers[group].tolist(), counts[group].tolist())) << (e - lowest)
    return exact, lowest - 53


def enumerate_portfolios(index: DeterministicIndex, k_set: Iterable[int]) -> SubsetStats:
    """Statistics of every subset of every size in k_set, each counted once.

    Equal to visiting each subset and taking ``math.fsum(subset) / k - 1.0``
    (see the module docstring), including an OverflowError when a subset
    sum overflows; the mean and median of finite returns are finite.  Time
    and memory grow with the histogram entries made, the distinct sums at
    each level, not with the number of subsets: 24 distinct integers at
    size 12 take about 4.5 ms, 20 distinct lognormal values at every size
    (about a million distinct returns) about 0.3 s, 26 distinct values at
    size 12 about 4.5 s and 0.9 GB.  Past 2**25 entries, such as 30
    distinct irregular values at size 15, it raises EnumerationCapError
    after about 2 s and 0.7 GB.
    """
    n = len(index)
    sizes = _validate_sizes(n, k_set)
    total = sum(math.comb(n, k) for k in sizes)

    units, shift, dtype = index._units
    # counts are int64 while every total fits
    count_dtype = np.int64 if total < 2 ** 63 else object
    values, counts = _join(
        (_returns(sums, k, shift), counts)
        for k, sums, counts in _subset_sums(units, sizes, dtype, count_dtype)
    )

    # one correctly rounded division, so a finite mean never overflows
    exact, exponent = _exact_sum(values, counts)
    mean = exact / (total << -exponent) if exponent < 0 else (exact << exponent) / total
    cumulative = np.cumsum(counts)

    def ordered(position: int) -> np.float64:
        return values[np.searchsorted(cumulative, position, side="right")]

    mid = total // 2
    if total % 2:
        median = float(ordered(mid))
    else:
        # a return is 0 or at least 2**-53 in size, so each half is exact
        # and the sum rounds once, as (a + b) / 2 does where it is finite
        median = float(ordered(mid - 1) / 2.0 + ordered(mid) / 2.0)

    values.setflags(write=False)
    counts.setflags(write=False)
    return SubsetStats(
        portfolio_count=total,
        mean_return=mean,
        median_return=median,
        returns=values,
        counts=counts,
    )
