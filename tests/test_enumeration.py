import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexsim import (
    DeterministicIndex,
    EnumerationCapError,
    SubsetStats,
    enumerate_portfolios,
)

ONE_WINNER = DeterministicIndex((1.1, 1.1, 1.1, 1.1, 1.5))


class TestDeterministicIndex:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DeterministicIndex(())
        with pytest.raises(ValueError):
            DeterministicIndex((1.0, -0.5))
        with pytest.raises(ValueError):
            DeterministicIndex((1.0, float("inf")))

    def test_mean_return(self):
        assert ONE_WINNER.mean_return() == pytest.approx(0.18, abs=1e-12)


class TestEnumeratePortfolios:
    def test_one_winner_example(self):
        stats = enumerate_portfolios(ONE_WINNER, {1, 2}, benchmarks=(0.18,))
        assert stats.portfolio_count == 15
        assert stats.mean_return == pytest.approx(0.18, abs=1e-12)
        assert stats.median_return == pytest.approx(0.10, abs=1e-12)
        histogram = {round(v, 9): c for v, c in stats.returns_histogram}
        assert histogram == {0.10: 10, 0.30: 4, 0.50: 1}
        below, equal, above = stats.benchmark_comparisons[0.18]
        assert (below, equal, above) == (10, 0, 5)

    def test_full_index_subset(self):
        rng = np.random.default_rng(3)
        values = tuple(rng.lognormal(0.1, 0.5, size=8))
        index = DeterministicIndex(values)
        stats = enumerate_portfolios(index, {8})
        assert stats.portfolio_count == 1
        assert stats.mean_return == pytest.approx(index.mean_return(), rel=1e-12)

    def test_subset_mean_identity(self):
        rng = np.random.default_rng(9)
        values = tuple(rng.lognormal(0.0, 0.6, size=10))
        index = DeterministicIndex(values)
        stats = enumerate_portfolios(index, {3})
        assert stats.portfolio_count == math.comb(10, 3)
        assert stats.mean_return == pytest.approx(index.mean_return(), rel=1e-12)

    def test_count_identity(self):
        rng = np.random.default_rng(12)
        values = tuple(rng.lognormal(0.0, 0.4, size=11))
        sizes = {1, 4, 7, 11}
        stats = enumerate_portfolios(DeterministicIndex(values), sizes)
        assert stats.portfolio_count == sum(math.comb(11, k) for k in sizes)
        assert sum(c for _, c in stats.returns_histogram) == stats.portfolio_count

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        values = list(rng.lognormal(0.0, 0.7, size=9))
        base = enumerate_portfolios(DeterministicIndex(tuple(values)), {2, 3}, benchmarks=(0.1,))
        for _ in range(5):
            rng.shuffle(values)
            other = enumerate_portfolios(
                DeterministicIndex(tuple(values)), {2, 3}, benchmarks=(0.1,)
            )
            assert other == base

    def test_constant_index_equality_counts(self):
        index = DeterministicIndex((1.1,) * 6)
        benchmark = 1.1 - 1.0
        stats = enumerate_portfolios(index, {1, 2, 3}, benchmarks=(benchmark,))
        below, equal, above = stats.benchmark_comparisons[benchmark]
        assert below == 0
        assert above == 0
        assert equal == stats.portfolio_count

    def test_cap_error_names_count(self):
        index = DeterministicIndex(tuple(np.linspace(1.0, 2.0, 30)))
        total = math.comb(30, 15)
        with pytest.raises(EnumerationCapError, match=str(total)):
            enumerate_portfolios(index, {15}, cap=1000)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            enumerate_portfolios(ONE_WINNER, set())
        with pytest.raises(ValueError):
            enumerate_portfolios(ONE_WINNER, {0})
        with pytest.raises(ValueError):
            enumerate_portfolios(ONE_WINNER, {6})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_benchmark(self, bad):
        # a NaN compares false with every return, so it used to count
        # every subset as below it
        with pytest.raises(ValueError, match="finite"):
            enumerate_portfolios(ONE_WINNER, {1, 2}, benchmarks=(0.18, bad))

    def test_even_count_median_is_midpoint(self):
        index = DeterministicIndex((1.0, 2.0, 3.0, 4.0))
        stats = enumerate_portfolios(index, {1})
        assert stats.median_return == pytest.approx(1.5, abs=1e-15)


class TestUnderperformanceFraction:
    """The share of portfolios strictly below a benchmark, from the comparisons."""

    @staticmethod
    def fraction(index, sizes, benchmark):
        stats = enumerate_portfolios(index, sizes, benchmarks=(benchmark,))
        below, _, _ = stats.benchmark_comparisons[benchmark]
        return below / stats.portfolio_count

    def test_one_winner_fraction(self):
        assert self.fraction(ONE_WINNER, {1, 2}, 0.18) == pytest.approx(10.0 / 15.0, abs=1e-12)

    def test_benchmark_below_minimum(self):
        assert self.fraction(ONE_WINNER, {1, 2}, 0.05) == 0.0

    def test_constant_index_strictly_below_is_empty(self):
        index = DeterministicIndex((1.1,) * 5)
        assert self.fraction(index, {1, 2, 3}, 1.1 - 1.0) == 0.0


def brute_force(values, sizes, benchmarks):
    """The definition: one math.fsum per subset, every statistic from the full list."""
    returns = [
        math.fsum(combo) / k - 1.0
        for k in sorted(sizes)
        for combo in itertools.combinations(values, k)
    ]
    total = len(returns)
    ordered = sorted(returns)
    mid = total // 2
    median = ordered[mid] if total % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    comparisons = {}
    for b in benchmarks:
        below = sum(r < b for r in returns)
        equal = sum(r == b for r in returns)
        comparisons[b] = (below, equal, total - below - equal)
    return SubsetStats(
        portfolio_count=total,
        mean_return=math.fsum(returns) / total,
        median_return=median,
        returns_histogram=tuple(sorted(Counter(returns).items())),
        benchmark_comparisons=comparisons,
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
    @example(([1e308, 1.5e308], {1}, (0.0,)))  # only the mean overflows
    @example(([5e-324, 1.0, 2.2250738585072014e-308], {1, 2}, (0.0,)))
    def test_equals_fsum_definition(self, universe):
        values, sizes, benchmarks = universe
        expected = outcome(lambda: brute_force(values, sizes, benchmarks))
        got = outcome(lambda: enumerate_portfolios(
            DeterministicIndex(tuple(values)), sizes, benchmarks=benchmarks))
        assert got == expected

    def test_distinct_lognormal_values(self):
        rng = np.random.default_rng(4)
        values = rng.lognormal(0.0, 0.5, size=14).tolist()
        sizes = {1, 2, 7, 13, 14}
        benchmarks = (0.0, math.fsum(values[:7]) / 7 - 1.0)
        got = enumerate_portfolios(DeterministicIndex(tuple(values)), sizes, benchmarks)
        assert got == brute_force(values, sizes, benchmarks)

    @settings(max_examples=100, deadline=None)
    @given(universes(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, universe, random):
        values, sizes, benchmarks = universe
        shuffled = list(values)
        random.shuffle(shuffled)
        base = outcome(lambda: enumerate_portfolios(
            DeterministicIndex(tuple(values)), sizes, benchmarks=benchmarks))
        other = outcome(lambda: enumerate_portfolios(
            DeterministicIndex(tuple(shuffled)), sizes, benchmarks=benchmarks))
        assert other == base
