import math
from collections import Counter
from concurrent.futures import Executor, Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from indexsim import (
    DeterministicIndex,
    ExperimentConfig,
    FrequencyReport,
    FrequencyRow,
    ModelParams,
    SeedSpec,
    enumerate_portfolios,
    expected_index_value,
    frequency_ci,
    run_experiment,
    run_trial,
    subset_frequencies,
    tail_probability,
)
import indexsim.montecarlo as montecarlo
from indexsim.model import PICK_STREAM, STREAM_STRIDE, _seed_window
from indexsim.montecarlo import pick_subset

WILSON_Z95 = 1.959963985  # 97.5th standard normal percentile


def small_params(**overrides):
    base = dict(n_stocks=20, horizon=5.0, sigma=0.2, mu_hat=0.04, sigma_hat=0.13)
    base.update(overrides)
    return ModelParams(**base)


def small_config(**overrides):
    base = dict(
        params=small_params(),
        sizes=(1, 5),
        trials_per_size=200,
        benchmarks=((0.5, 0.5),),
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_accepts_valid(self):
        small_config()
        assert small_config(sizes=(np.int64(1), 5), master_seed=np.uint64(42)) == small_config()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sizes=()),
            dict(sizes=(0,)),
            dict(sizes=(21,)),
            dict(trials_per_size=0),
            dict(benchmarks=()),
            dict(benchmarks=((0.3, 0.7),)),
            dict(mode="other"),
            dict(benchmarks=((math.inf, 0.5),)),
            dict(master_seed=2 ** 64),
            dict(master_seed=-1),
            dict(sizes=(1, 1)),
            dict(benchmarks=((0.5, 0.5), (0.7, 0.3), (0.5, 0.5))),
            # floats used to be truncated or to fail later in range()
            dict(master_seed=1.5),
            dict(sizes=(1.5, 2.9)),
            dict(trials_per_size=2.5),
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)


class TestPickSubset:
    def test_range_and_distinctness(self):
        rng = SeedSpec(1, 0).generator()
        for k in (1, 3, 7, 10):
            subset = pick_subset(rng, 10, k)
            assert len(subset) == k
            assert len(set(subset.tolist())) == k
            assert all(0 <= i < 10 for i in subset)

    def test_uniform_over_subsets(self):
        # all C(5,2)=10 subsets should appear with frequency ~1/10
        rng = SeedSpec(77, 0).generator()
        trials = 20_000
        counts = Counter(frozenset(pick_subset(rng, 5, 2).tolist()) for _ in range(trials))
        assert len(counts) == 10
        se = math.sqrt(0.1 * 0.9 / trials)
        for count in counts.values():
            assert abs(count / trials - 0.1) < 5.0 * se

    def test_full_set(self):
        rng = SeedSpec(1, 0).generator()
        assert pick_subset(rng, 6, 6).tolist() == [0, 1, 2, 3, 4, 5]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 600), r=st.integers(0, 2 ** 20), stream_index=st.integers(0, 2 ** 64 - 1))
    @example(n=500, r=19, stream_index=2)
    @example(n=20, r=19, stream_index=6)
    @example(n=1, r=0, stream_index=0)
    def test_matches_dense_swap_loop(self, n, r, stream_index):
        # the dense partial Fisher-Yates over np.arange(n) is the oracle
        k = 1 + r % n
        seed = SeedSpec(7, stream_index)
        idx = np.arange(n)
        if k < n:
            js = seed.generator().integers(np.arange(k), n)
            for i in range(k):
                j = js[i]
                idx[i], idx[j] = idx[j], idx[i]
        picked = pick_subset(seed.generator(), n, k)
        assert picked.dtype == idx.dtype
        assert picked.tolist() == idx[:k].tolist()


    @pytest.mark.parametrize("k", range(1, 21))
    def test_fresh_streams_match_dense_swap_loop(self, k):
        n = 500
        for stream_index in range(0, 200, 4):
            seed = SeedSpec(11, stream_index + PICK_STREAM)
            idx = np.arange(n)
            for i, j in enumerate(seed.generator().integers(np.arange(k), n)):
                idx[i], idx[j] = idx[j], idx[i]
            assert pick_subset(seed.generator(), n, k).tolist() == idx[:k].tolist()

    @pytest.mark.parametrize("n", [2 ** 31 + 1, 2 ** 31 + 20, 2 ** 32, 2 ** 40])
    def test_swap_targets_match_numpy_with_rejections(self, n):
        # a draw on a span just above 2**31 is rejected about half the time:
        # the first draw at n = 2**31 + 1, every draw at n = 2**31 + 20;
        # n = 2**32 takes whole halves, the most that ModelParams allows
        if n > 2 ** 32:
            with pytest.raises(ValueError, match=r"n <= 2\*\*32, got k=1, n=1099511627776"):
                pick_subset(SeedSpec(5, 0).generator(), n, 1)
            return
        rejected = 0
        for stream_index in range(60):
            k = 1 + stream_index % 20
            seed = SeedSpec(5, stream_index)
            # sparse oracle: the swap loop over numpy's own targets
            moved, expected = {}, []
            for i, j in enumerate(seed.generator().integers(np.arange(k), n).tolist()):
                expected.append(moved.get(j, j))
                moved[j] = moved.get(i, i)
            rng = seed.generator()
            assert pick_subset(rng, n, k).tolist() == expected
            plain = seed.generator().bit_generator
            plain.random_raw(-(-k // 2))
            rejected += rng.bit_generator.state != plain.state
        if n < 2 ** 32:
            assert rejected > 20

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("n", [3_000_000_000, 2 ** 32])
    def test_numpy_integers_pick_as_python_ints(self, n, dtype):
        # a numpy n used to overflow the 64-bit products of the Lemire draw
        for stream_index in range(10):
            seed = SeedSpec(5, stream_index)
            expected = pick_subset(seed.generator(), n, 3).tolist()
            assert pick_subset(seed.generator(), dtype(n), dtype(3)).tolist() == expected

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (6, 3), (6, 4), (7, 5), (7, 6), (8, 3)])
    def test_chi_square_uniform_on_fresh_pick_streams(self, n, k):
        # each pick on its own fresh pick substream, the way callers draw them
        cells = math.comb(n, k)
        trials = 60 * cells
        counts = Counter(
            tuple(sorted(pick_subset(
                SeedSpec(2024, t * STREAM_STRIDE + PICK_STREAM).generator(), n, k).tolist()))
            for t in range(trials)
        )
        assert len(counts) == cells
        assert chisquare(list(counts.values())).pvalue > 1e-4


def _numpy_trial(params, k, master_seed, base):
    """One fresh-universe trial from numpy's own seeding, draws and means."""
    from scipy.special import ndtri

    def stream(offset):
        seq = np.random.SeedSequence([master_seed, base + offset])
        return np.random.Generator(np.random.PCG64(seq))

    def normals(rng):
        return ndtri((rng.integers(0, 2 ** 52, size=params.n_stocks) + 0.5) * 2.0 ** -52)

    drifts = params.mu_hat + params.sigma_hat * normals(stream(0))
    shocks = params.sigma * math.sqrt(params.horizon) * normals(stream(1))
    values = np.exp((drifts - 0.5 * params.sigma ** 2) * params.horizon + shocks)
    idx = np.arange(params.n_stocks)
    if k < params.n_stocks:
        js = stream(2).integers(np.arange(k), params.n_stocks)
        for i in range(k):
            j = js[i]
            idx[i], idx[j] = idx[j], idx[i]
    return float(np.mean(values[idx[:k]])) - 1.0, float(np.mean(values)) - 1.0


class TestRunTrial:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 20), master_seed=st.integers(0, 2 ** 64 - 1),
           trial=st.integers(0, 2 ** 62 - 1))
    @example(k=5, master_seed=42, trial=511)
    @example(k=20, master_seed=42, trial=512)
    def test_matches_numpy_seeded_trial(self, k, master_seed, trial):
        params = small_params()
        seed = SeedSpec(master_seed, trial * STREAM_STRIDE)
        assert run_trial(params, k, seed) == _numpy_trial(params, k, master_seed, trial * STREAM_STRIDE)

    def test_deterministic(self):
        params = small_params()
        seed = SeedSpec(9, 8 * STREAM_STRIDE)
        assert run_trial(params, 5, seed) == run_trial(params, 5, seed)

    def test_full_index_subset_matches_realized_index(self):
        params = small_params()
        portfolio, realized = run_trial(params, params.n_stocks, SeedSpec(4, 0))
        assert portfolio == realized

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            run_trial(small_params(), 0, SeedSpec(4, 0))
        with pytest.raises(ValueError):
            run_trial(small_params(), 21, SeedSpec(4, 0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            run_trial(small_params(), 5, SeedSpec(4, 0), "other")


class TestFrequencyReport:
    def test_row_for_missing_cell_raises_key_error(self):
        row = FrequencyRow(size=1, over_threshold=0.5, under_threshold=0.5,
                           over_count=3, under_count=4, trials=10)
        report = FrequencyReport(rows=(row,), master_seed=42)
        assert report.row_for(1, 0.5, 0.5) is row
        for cell in [(2, 0.5, 0.5), (1, 0.7, 0.5), (1, 0.5, 0.3)]:
            with pytest.raises(KeyError, match="no row for size="):
                report.row_for(*cell)


class TestRunExperiment:
    def test_deterministic_repeat(self):
        r1 = run_experiment(small_config())
        r2 = run_experiment(small_config())
        assert r1.rows == r2.rows

    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(mode="realized-index")],
        ids=["fixed-benchmark", "realized-index"],
    )
    def test_worker_count_invariance(self, overrides):
        config = small_config(sizes=(1, 3, 5), trials_per_size=600, **overrides)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=3)
        assert serial.rows == parallel.rows

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 30),
        trials=st.integers(1, 60),
        mode=st.sampled_from(["fixed-benchmark", "realized-index"]),
        thresholds=st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2),
        master_seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_block_partition_invariance(self, data, n, trials, mode, thresholds, master_seed):
        # Below 2,000 trials per worker every worker count makes the same
        # 500-trial blocks, so split the trial range itself: the summed
        # counts of any partition equal those of one block.
        k = data.draw(st.integers(1, n), label="k")
        bounds = sorted({0, trials} | data.draw(st.sets(st.integers(1, trials)), label="cuts"))
        config = small_config(params=small_params(n_stocks=n), sizes=(k,), trials_per_size=trials,
                              benchmarks=(tuple(sorted(thresholds, reverse=True)),), mode=mode,
                              master_seed=master_seed)
        whole = montecarlo._tally_block(config, 0, 0, 0, trials)
        parts = [montecarlo._tally_block(config, 0, 0, a, b) for a, b in zip(bounds, bounds[1:])]
        assert [sum(p[c] for p in parts) for c in (2, 3)] == list(whole[2:])

    # a float count used to fail with TypeError inside the process pool
    @pytest.mark.parametrize("workers", [0, -1, 2.0, "2"])
    def test_rejects_invalid_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be"):
            run_experiment(small_config(sizes=(1, 2)), workers=workers)

    @pytest.mark.parametrize(
        "sizes,trials,workers,expected",
        [
            ((1,), 10, 4, None),  # one task: runs in this process
            ((1,), 10, 10_000, None),
            ((1, 2, 3), 10, 10_000, 3),  # one process per task, no more
            ((1, 2, 3), 1_200, 2, 2),
        ],
    )
    def test_pool_is_sized_to_the_tasks(self, monkeypatch, sizes, trials, workers, expected):
        pools = []

        class InProcessPool(Executor):
            def __init__(self, max_workers):
                pools.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        config = small_config(sizes=sizes, trials_per_size=trials)
        report = run_experiment(config, workers=workers)
        assert pools == ([] if expected is None else [expected])
        assert report.rows == run_experiment(config).rows

    def test_counts_sum_to_trials(self):
        report = run_experiment(small_config(benchmarks=((0.7, 0.3),)))
        for row in report.rows:
            assert row.over_count + row.under_count + row.between_count == row.trials
            assert 0.0 <= row.over_freq <= 1.0
            assert 0.0 <= row.under_freq <= 1.0

    @pytest.mark.parametrize("mode", ["fixed-benchmark", "realized-index"])
    def test_trial_numbering_contract(self, mode):
        # recompute one cell by hand with the documented stream layout and
        # a scalar over/under rule in Python floats
        config = small_config(
            sizes=(2, 4), benchmarks=((0.6, 0.4), (0.5, 0.5)), trials_per_size=50, mode=mode
        )
        report = run_experiment(config)
        size_idx, bench_idx = 1, 0  # k=4, thresholds (0.6, 0.4)
        cell = size_idx * len(config.benchmarks) + bench_idx
        expected = expected_index_value(config.params) - 1.0
        over = under = 0
        for t in range(config.trials_per_size):
            base = (cell * config.trials_per_size + t) * STREAM_STRIDE
            portfolio, realized = run_trial(config.params, 4, SeedSpec(config.master_seed, base), mode)
            hi, lo = 0.6, 0.4
            if mode == "realized-index":
                hi, lo = realized + (0.6 - expected), realized + (0.4 - expected)
            if portfolio > hi:
                over += 1
            elif portfolio < lo:
                under += 1
        row = report.row_for(4, 0.6, 0.4)
        assert (row.over_count, row.under_count, row.between_count) == (
            over, under, config.trials_per_size - over - under
        )
        assert 0 < over and 0 < under

    def test_degenerate_universe_all_between(self):
        params = small_params(sigma=0.0, sigma_hat=0.0, mu_hat=0.04)
        value = math.exp(0.2) - 1.0
        config = small_config(
            params=params, sizes=(3,), benchmarks=((value + 0.1, value - 0.1),), trials_per_size=50
        )
        report = run_experiment(config)
        row = report.rows[0]
        assert row.over_count == 0
        assert row.under_count == 0
        assert row.between_count == row.trials

    def test_k1_matches_analytic_tails(self, reference_params):
        config = ExperimentConfig(
            params=reference_params,
            sizes=(1,),
            trials_per_size=10_000,
            benchmarks=((0.5, 0.5), (0.7, 0.3)),
            master_seed=42,
        )
        report = run_experiment(config)
        cases = [
            (report.row_for(1, 0.5, 0.5).over_freq, tail_probability(reference_params, 1.5, "above")),
            (report.row_for(1, 0.7, 0.3).over_freq, tail_probability(reference_params, 1.7, "above")),
            (report.row_for(1, 0.7, 0.3).under_freq, tail_probability(reference_params, 1.3, "below")),
        ]
        for freq, p in cases:
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 10_000)

    def test_sampling_equivalence(self, reference_params):
        # k stocks picked from a fresh 500-stock universe are k i.i.d. stocks:
        # compare with an independent numpy sampler of k i.i.d. GBM stocks
        trials, k, p = 10_000, 5, reference_params
        fresh = run_experiment(
            ExperimentConfig(
                params=p, sizes=(k,), trials_per_size=trials,
                benchmarks=((0.7, 0.3),), master_seed=11,
            )
        ).rows[0]
        rng = np.random.default_rng(12)
        drifts = rng.normal(p.mu_hat, p.sigma_hat, size=(trials, k))
        shocks = rng.normal(0.0, p.sigma * math.sqrt(p.horizon), size=(trials, k))
        values = np.exp((drifts - 0.5 * p.sigma ** 2) * p.horizon + shocks)
        iid = values.mean(axis=1) - 1.0
        pairs = ((fresh.over_freq, np.mean(iid > 0.7)), (fresh.under_freq, np.mean(iid < 0.3)))
        for a, b in pairs:
            se = math.sqrt(a * (1 - a) / trials + b * (1 - b) / trials)
            assert abs(a - b) <= 5.0 * se

    def test_realized_index_mode_full_subset_is_between(self):
        # with k = N the portfolio IS the realized index; thresholds equal
        # to the expected return carry zero offset, so nothing classifies
        params = small_params()
        expected = expected_index_value(params) - 1.0
        config = small_config(
            params=params,
            sizes=(20,),
            benchmarks=((expected, expected),),
            mode="realized-index",
            trials_per_size=100,
        )
        report = run_experiment(config)
        row = report.rows[0]
        assert row.between_count == row.trials


class TestFrequencyCI:
    def test_symmetric_center(self):
        center, half_width = frequency_ci(5000, 10_000)
        assert center == 0.5
        phat = 0.5
        n = 10_000
        z = WILSON_Z95
        denom = 1 + z * z / n
        expected_hw = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
        assert half_width == pytest.approx(expected_hw, rel=1e-7)
        assert half_width == pytest.approx(0.0098, abs=2e-5)

    @pytest.mark.parametrize("successes,trials", [(0, 50), (50, 50), (1, 3), (999, 1000)])
    def test_bounds_contained(self, successes, trials):
        center, half_width = frequency_ci(successes, trials)
        assert center - half_width >= -1e-12
        assert center + half_width <= 1.0 + 1e-12

    def test_zero_successes_lower_bound(self):
        center, half_width = frequency_ci(0, 25)
        assert center - half_width == pytest.approx(0.0, abs=1e-12)

    def test_all_successes_upper_bound(self):
        center, half_width = frequency_ci(25, 25)
        assert center + half_width == pytest.approx(1.0, abs=1e-12)

    # a fractional count used to give an interval: (0.5, 0.3747) for (1.5, 3)
    @pytest.mark.parametrize("args", [(-1, 10), (11, 10), (5, 0), (1.5, 3), (1, 3.0)])
    def test_rejects_invalid(self, args):
        with pytest.raises(ValueError):
            frequency_ci(*args)


class TestSubsetFrequencies:
    VALUES = (1.1, 1.1, 1.1, 1.1, 1.5)

    def test_matches_enumeration_oracle(self):
        trials = 10_000
        stats = enumerate_portfolios(DeterministicIndex(self.VALUES), {2})
        exact_below, _, _ = stats.compare(0.18)
        p = exact_below / stats.portfolio_count
        below, equal, above = subset_frequencies(self.VALUES, 2, trials, 0.18, master_seed=42)
        assert below + equal + above == trials
        assert equal == 0
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(below / trials - p) <= 5.0 * se

    def test_two_stock_returns_land_on_lattice(self):
        # every 2-subset return of the one-winner universe is 10% or 30%
        trials = 500
        below, equal, above = subset_frequencies(self.VALUES, 2, trials, 0.2, master_seed=7)
        assert equal == 0
        assert below + above == trials
        below2, _, above2 = subset_frequencies(self.VALUES, 2, trials, 0.35, master_seed=7)
        assert above2 == 0

    def test_ties_count_as_equal(self):
        # two of the six pairs, (1.25, 1.75) and (1.5, 1.5), average to
        # exactly 0.5; recompute each pick on its own substream
        values, k, trials, seed = (1.25, 1.5, 1.5, 1.75), 2, 600, 3
        below = equal = above = 0
        for t in range(trials):
            rng = SeedSpec(seed, t * STREAM_STRIDE + PICK_STREAM).generator()
            ret = float(np.mean(np.array(values)[pick_subset(rng, len(values), k)])) - 1.0
            if ret < 0.5:
                below += 1
            elif ret == 0.5:
                equal += 1
            else:
                above += 1
        assert subset_frequencies(values, k, trials, 0.5, master_seed=seed) == (below, equal, above)
        assert equal > 0 and below > 0 and above > 0

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.25, 1.1, 1.1, 1.5, 1.75, 3.0, 1e-3, 123.456]),
                        min_size=1, max_size=40),
        r=st.integers(0, 2 ** 20),
        trials=st.integers(1, 60),
        seed=st.integers(0, 2 ** 64 - 1),
        at=st.integers(0, 2 ** 20),
    )
    @example(values=[1.1] * 17 + [1.5] * 3, r=9, trials=60, seed=42, at=0)
    @example(values=[0.25, 1.75] * 20, r=39, trials=40, seed=3, at=5)
    def test_block_equals_pick_by_pick(self, values, r, trials, seed, at):
        # repeated values make ties; the benchmark is a return that occurs
        n = len(values)
        k = 1 + r % n
        arr = np.array(values)
        returns = [
            float(arr[pick_subset(SeedSpec(seed, t * STREAM_STRIDE + PICK_STREAM).generator(),
                                  n, k)].sum() / k) - 1.0
            for t in range(trials)
        ]
        benchmark = returns[at % trials]
        expected = (
            sum(ret < benchmark for ret in returns),
            sum(ret == benchmark for ret in returns),
            sum(ret > benchmark for ret in returns),
        )
        assert subset_frequencies(values, k, trials, benchmark, seed) == expected

    def test_row_sums_equal_pairwise_sums(self):
        # the block's sum(axis=1) must round like each pick's own .sum(),
        # past k = 8 too, where numpy's pairwise sum runs 8 accumulators;
        # magnitudes spread over 2**±40 make the summation order matter
        rng = np.random.default_rng(40)
        for k in range(1, 41):
            m = rng.standard_normal((64, k)) * np.exp2(rng.integers(-40, 41, size=(64, k)))
            assert m.sum(axis=1).tolist() == [row.sum() for row in m], k

    def test_repeat_call_reuses_seed_windows(self):
        # 5,000 picks use pick streams up to 19,998: ten seed windows
        subset_frequencies(self.VALUES, 2, 5000, 0.18, master_seed=8)
        misses = _seed_window.cache_info().misses
        subset_frequencies(self.VALUES, 2, 5000, 0.18, master_seed=8)
        assert _seed_window.cache_info().misses == misses

    def test_deterministic(self):
        a = subset_frequencies(self.VALUES, 2, 300, 0.18, master_seed=5)
        b = subset_frequencies(self.VALUES, 2, 300, 0.18, master_seed=5)
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            subset_frequencies((), 1, 10, 0.0, 1)
        with pytest.raises(ValueError):
            subset_frequencies(self.VALUES, 6, 10, 0.0, 1)
        with pytest.raises(ValueError):
            subset_frequencies(self.VALUES, 1, 0, 0.0, 1)
        with pytest.raises(ValueError):
            subset_frequencies((1.1, float("nan")), 1, 10, 0.0, 1)
        with pytest.raises(ValueError):
            subset_frequencies(self.VALUES, 1, 10, float("nan"), 1)
        with pytest.raises(ValueError, match="k must be an integer"):
            subset_frequencies(self.VALUES, 1.0, 10, 0.0, 1)
        with pytest.raises(ValueError, match="trials must be an integer"):
            subset_frequencies(self.VALUES, 1, 2.5, 0.0, 1)
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            subset_frequencies(self.VALUES, 1, 10, 0.0, 1.5)
