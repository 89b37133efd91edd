import itertools
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexsim import (
    DeterministicIndex,
    EnumerationCapError,
    enumerate_portfolios,
    subset_frequencies,
)
import indexsim.enumeration as enumeration
from indexsim.enumeration import _exact_sum, _subset_sums

ONE_WINNER = DeterministicIndex((1.1, 1.1, 1.1, 1.1, 1.5))


@dataclass(frozen=True)
class Enumerated:
    """What an enumeration must give, compared field by field: the count,
    the bits of the mean and median, the (return, count) histogram and the
    (below, equal, above) split at each benchmark, in order."""

    portfolio_count: int
    mean_bits: str
    median_bits: str
    histogram: tuple[tuple[float, int], ...]
    splits: tuple[tuple[int, int, int], ...]


def observed(stats, benchmarks):
    """The Enumerated record of a SubsetStats."""
    return Enumerated(
        portfolio_count=stats.portfolio_count,
        mean_bits=stats.mean_return.hex(),
        median_bits=stats.median_return.hex(),
        histogram=tuple(zip(stats.returns.tolist(), stats.counts.tolist())),
        splits=tuple(stats.compare(b) for b in benchmarks),
    )


class TestDeterministicIndex:
    REFUSED = {
        "empty": (lambda: DeterministicIndex(()), "gross_values must be non-empty"),
        "zero-value": (lambda: DeterministicIndex((1.1, 0.0)), "gross values must be positive and finite"),
        "negative-value": (lambda: DeterministicIndex((1.0, -0.5)), "gross values must be positive and finite"),
        "inf-value": (lambda: DeterministicIndex((1.0, math.inf)), "gross values must be positive and finite"),
        "nan-value": (lambda: DeterministicIndex((1.1, math.nan)), "gross values must be positive and finite"),
        "picks-not-a-matrix": (lambda: ONE_WINNER.subset_returns([0, 1]),
                               "picks must be an integer matrix with at least one column, got shape (2,) of int64"),
        "picks-without-a-column": (lambda: ONE_WINNER.subset_returns(np.empty((1, 0), dtype=int)),
                                   "picks must be an integer matrix with at least one column, got shape (1, 0) of int64"),
        "picks-not-integers": (lambda: ONE_WINNER.subset_returns([[0.0, 1.0]]),
                               "picks must be an integer matrix with at least one column, got shape (1, 2) of float64"),
        "picks-repeated": (lambda: ONE_WINNER.subset_returns([[0, 0]]),
                           "each row of picks must hold distinct indices in [0, 5)"),
        # negative indices would wrap round
        "picks-negative": (lambda: ONE_WINNER.subset_returns([[-1, 0]]),
                           "each row of picks must hold distinct indices in [0, 5)"),
        "picks-past-the-universe": (lambda: ONE_WINNER.subset_returns([[1, 5]]),
                                    "each row of picks must hold distinct indices in [0, 5)"),
    }

    @pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
    def test_refuses(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_mean_return(self):
        assert ONE_WINNER.mean_return() == pytest.approx(0.18, abs=1e-12)

    def test_mean_of_overflowing_sum_is_finite(self):
        # the sum 2e308 overflows a float, the mean 1e308 does not
        assert DeterministicIndex((1e308, 1e308)).mean_return() == 1e308 - 1.0

    def test_subset_returns(self):
        assert ONE_WINNER.subset_returns([[0, 4], [4, 1], [2, 3]]).tolist() == [
            math.fsum((1.1, 1.5)) / 2 - 1.0] * 2 + [math.fsum((1.1, 1.1)) / 2 - 1.0]
        assert ONE_WINNER.subset_returns(np.empty((0, 3), dtype=int)).size == 0
        with pytest.raises(OverflowError):
            DeterministicIndex((1e308, 1e308)).subset_returns([[0, 1]])


class TestEnumeratePortfolios:
    def test_one_winner_example(self):
        stats = enumerate_portfolios(ONE_WINNER, {1, 2})
        assert stats.portfolio_count == 15
        assert stats.mean_return == pytest.approx(0.18, abs=1e-12)
        assert stats.median_return == pytest.approx(0.10, abs=1e-12)
        histogram = {round(v, 9): c for v, c in zip(stats.returns.tolist(), stats.counts.tolist())}
        assert histogram == {0.10: 10, 0.30: 4, 0.50: 1}
        assert stats.compare(0.18) == (10, 0, 5)

    def test_histogram_is_read_only_arrays(self):
        stats = enumerate_portfolios(ONE_WINNER, {1, 2})
        assert stats.returns.dtype == np.float64 and stats.counts.dtype == np.int64
        assert not stats.returns.flags.writeable and not stats.counts.flags.writeable
        # 2.1e19 subsets, more than int64 can count, all share one return
        huge = enumerate_portfolios(DeterministicIndex((1.25,) * 66), {32, 33, 34})
        assert huge.counts.dtype == object and not huge.counts.flags.writeable
        assert huge.counts.tolist() == [sum(math.comb(66, k) for k in (32, 33, 34))]

    @pytest.mark.parametrize("level,split", [
        (0.05, (0, 0, 15)),  # below every return
        (0.6, (15, 0, 0)),  # above every return
        (math.fsum([1.1, 1.5]) / 2 - 1.0, (10, 4, 1)),  # an occurring return
    ])
    def test_compare(self, level, split):
        assert enumerate_portfolios(ONE_WINNER, {1, 2}).compare(level) == split

    def test_cap_error_names_count(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 1000)
        index = DeterministicIndex(tuple(np.linspace(1.0, 2.0, 30)))
        with pytest.raises(EnumerationCapError, match="more than 1000 histogram entries"):
            enumerate_portfolios(index, {15})

    def test_entry_limit_boundary(self, monkeypatch):
        # 10 values whose subset sums are all distinct make comb(10, j)
        # entries at each level j: 10 + 45 + 120 + 210 + 252 = 637 to size 5
        index = DeterministicIndex(tuple(np.random.default_rng(5).lognormal(0.0, 0.5, size=10)))
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 637)
        assert enumerate_portfolios(index, {5}).returns.size == math.comb(10, 5)
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 636)
        with pytest.raises(EnumerationCapError):
            enumerate_portfolios(index, {5})

    def test_entry_weight_counts_words(self, monkeypatch):
        # one distinct value makes one entry per level, weighed by the words
        # of comb(n, top): 1 for comb(66, 33) < 2**63, 2 for comb(70, 35)
        for n, words in ((66, 1), (70, 2)):
            index = DeterministicIndex((1.25,) * n)
            monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", words * n // 2)
            assert enumerate_portfolios(index, {n // 2}).portfolio_count == math.comb(n, n // 2)
            monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", words * n // 2 - 1)
            with pytest.raises(EnumerationCapError):
                enumerate_portfolios(index, {n // 2})

    def test_entry_weight_counts_python_int_sums(self, monkeypatch):
        # scaling one of test_entry_limit_boundary's values by 2**80 keeps
        # the 637 entries but makes the sums Python ints, each weighed by
        # the words of the units' total and its array slot as well
        values = np.random.default_rng(5).lognormal(0.0, 0.5, size=10)
        values[0] *= 2.0 ** 80
        index = DeterministicIndex(tuple(values))
        units, _, dtype = index._units
        assert dtype is object
        weight = 1 + -(-sys.getsizeof(sum(units)) // 8) + 1
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 637)
        with pytest.raises(EnumerationCapError):
            enumerate_portfolios(index, {5})
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 637 * weight)
        assert enumerate_portfolios(index, {5}).portfolio_count == math.comb(10, 5)
        monkeypatch.setattr(enumeration, "_ENTRY_LIMIT", 637 * weight - 1)
        with pytest.raises(EnumerationCapError):
            enumerate_portfolios(index, {5})

    @pytest.mark.parametrize("values,counts", [
        ([0.1, 0.2, 0.3], [1, 2, 3]),
        ([1e-300, 1.0, 1e300], [7, 1, 5]),  # exponents far apart
        ([-0.5, 2.0 ** -1074, 1.5e308], [3, 10 ** 30, 2 ** 70]),  # object counts
    ])
    def test_exact_sum_is_exact(self, values, counts):
        exact, exponent = _exact_sum(np.array(values), np.array(counts, dtype=object))
        assert Fraction(exact) * Fraction(2) ** exponent == sum(
            Fraction(v) * c for v, c in zip(values, counts))

    def test_many_subsets_few_sums_run(self):
        # 155,117,520 subsets, which a bound on the subset count refused,
        # but only 287 distinct returns
        stats = enumerate_portfolios(DeterministicIndex(tuple(np.linspace(1.0, 2.0, 30))), {15})
        assert stats.portfolio_count == math.comb(30, 15)
        assert stats.returns.size == 287

    def test_huge_count_has_a_finite_mean(self):
        # comb(8000, 4000) subsets, each of return 0.1: the float sum of the
        # returns overflows, their mean and median do not
        stats = enumerate_portfolios(DeterministicIndex((1.1,) * 8000), {4000})
        count = math.comb(8000, 4000)
        assert stats.portfolio_count == count
        assert stats.mean_return == stats.median_return == 1.1 - 1.0
        assert stats.compare(1.1 - 1.0) == (0, count, 0)

    REFUSED = {
        "no-size": (ONE_WINNER, set(), "k_set must contain at least one subset size"),
        "size-0": (ONE_WINNER, {0}, "subset sizes must lie in [1, 5], got (0,)"),
        "size-past-n": (ONE_WINNER, {6}, "subset sizes must lie in [1, 5], got (6,)"),
        # a float size used to be truncated: {1.5} counted the size-1 subsets
        "float-size": (DeterministicIndex((1.1, 1.5, 2.0)), {1.5}, "each size in k_set must be an integer, got 1.5"),
    }

    @pytest.mark.parametrize("index, sizes, message", REFUSED.values(), ids=REFUSED)
    def test_refuses(self, index, sizes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_portfolios(index, sizes)

    def test_accepts_numpy_sizes(self):
        expected = observed(enumerate_portfolios(ONE_WINNER, {2}), (0.18,))
        assert observed(enumerate_portfolios(ONE_WINNER, {np.int64(2)}), (0.18,)) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_benchmark(self, bad):
        # a NaN compares false with every return, so it used to count
        # every subset as below it
        stats = enumerate_portfolios(ONE_WINNER, {1, 2})
        with pytest.raises(ValueError, match=f"^benchmark must be finite, got {bad}$"):
            stats.compare(bad)


def brute_force(values, sizes, benchmarks):
    """The definition: one math.fsum per subset, every statistic from the full list.

    The mean is the exact sum of the returns over their count, rounded
    once, and the even-count median the exact midpoint, rounded once.
    """
    returns = [
        math.fsum(combo) / k - 1.0
        for k in sorted(sizes)
        for combo in itertools.combinations(values, k)
    ]
    total = len(returns)
    ordered = sorted(returns)
    mid = total // 2
    median = ordered[mid] if total % 2 else float((Fraction(ordered[mid - 1]) + Fraction(ordered[mid])) / 2)
    splits = []
    for b in benchmarks:
        below = sum(r < b for r in returns)
        equal = sum(r == b for r in returns)
        splits.append((below, equal, total - below - equal))
    return Enumerated(
        portfolio_count=total,
        mean_bits=float(sum(map(Fraction, returns)) / total).hex(),
        median_bits=median.hex(),
        histogram=tuple(sorted(Counter(returns).items())),
        splits=tuple(splits),
    )


GROSS = st.one_of(
    st.floats(0.5, 2.0),  # typical gross values, 17 significant digits
    st.sampled_from([1.1, 1.5, 1.25, 0.75]),  # lattice points with exact ties
    st.floats(1e-30, 1e30),  # wide exponent spread: sums need Python ints
    st.floats(5e-324, 1e-300),  # subnormal and tiny values
    st.floats(1e306, 1.7976931348623157e308),  # sums that overflow
)


@st.composite
def universes(draw):
    """(values, sizes, benchmarks); values repeat and benchmarks hit occurring returns."""
    pool = draw(st.lists(GROSS, min_size=1, max_size=5))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    sizes = draw(st.sets(st.integers(1, len(values)), min_size=1, max_size=4))
    k = draw(st.sampled_from(sorted(sizes)))
    subset = draw(st.permutations(values))[:k]
    try:
        occurring = math.fsum(subset) / k - 1.0
    except OverflowError:
        occurring = 0.0
    return values, sizes, (occurring, draw(st.floats(-1.0, 2.0)))


def outcome(compute):
    """The result, or OverflowError when the computation raises it."""
    try:
        return compute()
    except OverflowError:
        return OverflowError


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(universes())
    @example(([1.1] * 4 + [1.5], {1, 2}, (0.18, 0.1)))
    @example(([1e-30, 1e30, 1.0, 1.0], {1, 2, 3}, (0.0, 1e30)))
    @example(([1e308, 1e308], {2}, (0.0,)))  # a subset sum overflows
    @example(([1e308, 1.5e308], {1}, (0.0,)))  # the sum of the returns overflows, the mean does not
    @example(([5e-324, 1.0, 2.2250738585072014e-308], {1, 2}, (0.0,)))
    @example(([1.1] * 6, {1, 2, 3}, (1.1 - 1.0,)))  # one return, equal to the benchmark
    @example(([1.0, 2.0, 3.0, 4.0], {1}, (0.0,)))  # an even count: the median is a midpoint
    @example(([0.5] * 6 + [sys.float_info.max], {6}, (-0.5, 0.0)))  # the sum rounds to the largest float
    # 11 distinct values, more than the strategy draws, up to the full index
    @example((np.random.default_rng(12).lognormal(0.0, 0.4, size=11).tolist(), {1, 4, 7, 11}, (0.0,)))
    def test_equals_fsum_definition(self, universe):
        values, sizes, benchmarks = universe
        expected = outcome(lambda: brute_force(values, sizes, benchmarks))
        got = outcome(lambda: observed(
            enumerate_portfolios(DeterministicIndex(tuple(values)), sizes), benchmarks))
        assert got == expected

    def test_distinct_lognormal_values(self):
        rng = np.random.default_rng(4)
        values = rng.lognormal(0.0, 0.5, size=14).tolist()
        sizes = {1, 2, 7, 13, 14}
        benchmarks = (0.0, math.fsum(values[:7]) / 7 - 1.0)
        got = enumerate_portfolios(DeterministicIndex(tuple(values)), sizes)
        assert observed(got, benchmarks) == brute_force(values, sizes, benchmarks)

    @settings(max_examples=100, deadline=None)
    @given(universes(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, universe, random):
        values, sizes, benchmarks = universe
        shuffled = list(values)
        random.shuffle(shuffled)
        base = outcome(lambda: observed(
            enumerate_portfolios(DeterministicIndex(tuple(values)), sizes), benchmarks))
        other = outcome(lambda: observed(
            enumerate_portfolios(DeterministicIndex(tuple(shuffled)), sizes), benchmarks))
        assert other == base


def multiset_oracle(groups, sizes, benchmarks):
    """The definition over a multiset of (value, multiplicity) groups.

    Each split vector (c_1, ..., c_g), c_i of the m_i copies of value i,
    stands for prod comb(m_i, c_i) subsets with the same math.fsum.
    """
    histogram = Counter()
    for split in itertools.product(*(range(m + 1) for _, m in groups)):
        k = sum(split)
        if k in sizes:
            subset = [v for (v, _), c in zip(groups, split) for _ in range(c)]
            ways = math.prod(math.comb(m, c) for (_, m), c in zip(groups, split))
            histogram[math.fsum(subset) / k - 1.0] += ways
    return stats_of(histogram, benchmarks)


def stats_of(histogram, benchmarks):
    """The Enumerated record of a {return: count} histogram; the mean and
    the even-count median are taken exactly over Fractions and rounded once."""
    total = sum(histogram.values())
    values = sorted(histogram)
    cumulative = list(itertools.accumulate(histogram[v] for v in values))

    def ordered(position):
        return values[next(i for i, c in enumerate(cumulative) if c > position)]

    mid = total // 2
    median = ordered(mid) if total % 2 else float((Fraction(ordered(mid - 1)) + Fraction(ordered(mid))) / 2)
    splits = []
    for b in benchmarks:
        below = sum(c for v, c in histogram.items() if v < b)
        equal = histogram.get(b, 0)
        splits.append((below, equal, total - below - equal))
    return Enumerated(
        portfolio_count=total,
        mean_bits=float(sum(Fraction(v) * c for v, c in histogram.items()) / total).hex(),
        median_bits=median.hex(),
        histogram=tuple((v, histogram[v]) for v in values),
        splits=tuple(splits),
    )


@st.composite
def multisets(draw):
    """(groups, sizes, benchmarks): up to 6 distinct values, each up to 40 times.

    Multiplicities are bounded so that the oracle's prod(m + 1) splits stay
    at most 41**3: up to 40 copies for 3 values or fewer, 5 for 6 values.
    """
    values = draw(st.lists(GROSS, min_size=1, max_size=6, unique=True))
    most = min(40, int(41 ** (3 / len(values))) - 1)
    groups = [(v, draw(st.integers(1, most))) for v in values]
    n = sum(m for _, m in groups)
    sizes = draw(st.sets(st.integers(1, n), min_size=1, max_size=4))
    return groups, sizes, (0.1, draw(st.floats(-1.0, 2.0)))


class TestAgainstMultisetOracle:
    """Universes of few distinct values at sizes no subset-by-subset check reaches."""

    @settings(max_examples=150, deadline=None)
    @given(multisets())
    @example(([(1.1, 40), (1.5, 26)], {33}, (0.1,)))  # comb(66, 33) < 2**63: int64 counts
    @example(([(1.1, 40), (1.5, 27)], {33, 34}, (0.1,)))  # comb(67, 33) > 2**63: Python ints
    @example(([(1.25, 66)], {32, 33, 34}, (0.25,)))  # one return counted over 2**63 times
    @example(([(1.1, 70), (1.5, 2)], {35}, (0.1,)))  # counts above 2**52
    @example(([(1.1, 30), (1.25, 30), (1.5, 6)], {1, 33, 65}, (0.25,)))
    @example(([(1e-30, 30), (1e30, 5), (1.0, 10)], {2, 22, 40}, (0.0,)))
    @example(([(1e300, 70), (1.5e300, 2)], {35}, (0.0,)))  # the sum of the returns overflows, the mean does not
    @example(([(1e308, 3), (1.5e308, 1)], {2}, (0.0,)))  # a subset sum overflows
    # a Veltkamp split of this value overflows, although the sum does not
    @example(([(math.nextafter(2.0 ** 997, 0), 2)], {1}, (0.0,)))
    # about 2**1045 subsets of return 2**-52: the count and its float chunks
    # pass the float range, the sum and the mean do not
    @example(([(1.0000000000000002, 1050)], {525}, (0.0,)))
    # all values distinct, and many subsets share a sum
    @example(([(float(v), 1) for v in range(1, 13)], {1, 6, 11, 12}, (0.1, 5.5)))
    # many groups with several copies each, at sizes on both sides of n/2
    @example(([(1.1, 2), (1.5, 3), (0.75, 4), (1.25, 5), (2.0, 3), (0.5, 2)], {3, 9, 10, 16}, (0.1, 0.25)))
    def test_equals_split_definition(self, multiset):
        groups, sizes, benchmarks = multiset
        values = tuple(v for v, m in groups for _ in range(m))
        expected = outcome(lambda: multiset_oracle(groups, sizes, benchmarks))
        got = outcome(lambda: observed(
            enumerate_portfolios(DeterministicIndex(values), sizes), benchmarks))
        assert got == expected

    def test_paper_sized_universe_in_closed_form(self):
        # 497 ordinary stocks and 3 winners: each size-k subset with j
        # winners returns the same, and there are comb(3, j) * comb(497, k - j)
        sizes = (1, 20, 250)
        histogram = Counter()
        for k in sizes:
            for j in range(min(3, k) + 1):
                gross = math.fsum([1.5] * j + [1.1] * (k - j))
                histogram[gross / k - 1.0] += math.comb(3, j) * math.comb(497, k - j)
        # 1.1 - 1.0 is above 0.1, so 0.1 has every subset above it; the
        # index mean and an occurring return split them
        benchmarks = (0.1, 0.1024, (19 * 1.1 + 1.5) / 20 - 1.0)
        stats = enumerate_portfolios(DeterministicIndex((1.1,) * 497 + (1.5,) * 3), sizes)
        total = sum(math.comb(500, k) for k in sizes)
        assert stats.portfolio_count == total == sum(histogram.values())
        assert tuple(zip(stats.returns.tolist(), stats.counts.tolist())) == tuple(sorted(histogram.items()))
        for b in benchmarks:
            below = sum(c for r, c in histogram.items() if r < b)
            equal = histogram.get(b, 0)
            assert stats.compare(b) == (below, equal, total - below - equal)
        assert stats.compare(0.1) == (0, 0, total)
        assert 0 not in stats.compare(benchmarks[2])
        assert stats.mean_return == float(sum(Fraction(r) * c for r, c in histogram.items()) / total)


MAGNITUDES = st.one_of(
    st.floats(0.5, 2.0),  # typical gross values: int64 sums
    st.floats(1e-30, 1e30),  # wide exponent spread: sums need Python ints
    st.floats(5e-324, 1e-300),  # subnormal and tiny values
    st.floats(1e299, 1e301),  # large values whose sums of 12 stay finite
)


@st.composite
def picked_universes(draw):
    """(values, picks): 1 to 12 values and up to 5 random k-subsets of their indices."""
    values = draw(st.lists(MAGNITUDES, min_size=1, max_size=12))
    k = draw(st.integers(1, len(values)))
    picks = draw(st.lists(st.permutations(range(len(values))), min_size=1, max_size=5))
    return values, [row[:k] for row in picks]


class TestOneRule:
    """The index mean, enumeration and sampled picks give one subset's return
    the same bits: math.fsum(subset) / k - 1.0."""

    @settings(max_examples=200, deadline=None)
    @given(picked_universes(), st.integers(0, 2 ** 64 - 1))
    @example(([1.1, 1.5, 1.25], [[2, 0]]), 42)  # int64 sums
    @example(([5e-324, 1.0, 2.2250738585072014e-308], [[0, 2], [1, 0]]), 7)  # subnormals
    @example(([1e300] * 12, [list(range(12))]), 1)  # a sum past 2**63 units
    def test_every_return_is_the_fsum_rule(self, universe, seed):
        values, picks = universe
        index = DeterministicIndex(tuple(values))
        n = len(values)
        mean = index.mean_return()
        assert mean.hex() == (math.fsum(values) / n - 1.0).hex()
        assert mean.hex() == float(enumerate_portfolios(index, {n}).returns[0]).hex()
        assert subset_frequencies(values, n, 3, mean, seed) == (0, 3, 0)
        k = len(picks[0])
        expected = [math.fsum(values[i] for i in row) / k - 1.0 for row in picks]
        assert [r.hex() for r in index.subset_returns(picks).tolist()] == [e.hex() for e in expected]


class TestMergedLevels:
    """Splits that share a sum are held as one entry, so integer-valued
    universes cost per distinct sum, not per subset."""

    def test_each_sum_yielded_once(self):
        units, shift, dtype = DeterministicIndex(tuple(float(v) for v in range(1, 25)))._units
        assert (units, shift, dtype) == (list(range(1, 25)), 0, np.int64)
        # the 12-subsets of 1..24 sum to each of 78..222; one entry per
        # split, here per subset, would be comb(24, 12) = 2,704,156 entries.
        # Size 20 is read off level 4 as 300 minus each sum.
        for (k, sums, counts), low, high in zip(
                _subset_sums(units, (12, 20), dtype, np.int64), (78, 210), (222, 290)):
            assert sums.tolist() == list(range(low, high + 1))
            assert int(counts.sum()) == math.comb(24, k)

    def test_integers_in_closed_form(self):
        # a build with one entry per split would try to hold 1.4e11 sums
        # below, so fail first, on a small case, if sizes are not merged
        [(_, sums, _)] = _subset_sums(list(range(1, 17)), (8,), np.int64, np.int64)
        assert sums.size == 65
        # comb(40, 20) > 10**11 subsets, 401 distinct sums: the j-subset sums
        # of 1..40 by the textbook recurrence over one value at a time
        levels = [Counter({0: 1})] + [Counter() for _ in range(20)]
        for v in range(1, 41):
            for j in range(20, 0, -1):
                for s, c in levels[j - 1].items():
                    levels[j][s + v] += c
        histogram = Counter({s / 20 - 1.0: c for s, c in levels[20].items()})
        benchmarks = (19.5, 0.0)
        expected = stats_of(histogram, benchmarks)
        got = enumerate_portfolios(DeterministicIndex(tuple(float(v) for v in range(1, 41))), {20})
        assert observed(got, benchmarks) == expected
        assert got.returns.size == 401
        assert got.compare(19.5) == (68187965739, 1470597342, 68187965739)
