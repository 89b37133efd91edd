import math
import multiprocessing
import pickle
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import astuple, fields, replace
from unittest import mock

import numpy as np
import pytest
from pytest import approx
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import skew

from indexsim import (
    ExperimentConfig,
    ModelParams,
    SeedSpec,
    draw_universe,
    index_value,
)
import indexsim.model as model
import indexsim.montecarlo as montecarlo
from indexsim.model import (
    CALL_VARIATES,
    DRIFT_STREAM,
    PICK_STREAM,
    SCIPY_VARIATES,
    SEED_WINDOW,
    SHOCK_STREAM,
    STREAM_STRIDE,
    _EXPM2,
    _Z_LIMIT,
    _cephes_ndtri,
    _gross_values,
    _midpoint_uniforms,
    _seed_window,
    _SeedWords,
    standard_normals,
)

U64 = st.integers(0, 2 ** 64 - 1)
# 0 and 2**64 - 1 are the words that give z = -_Z_LIMIT and +_Z_LIMIT
WORD = st.sampled_from([0, 2 ** 64 - 1]) | U64
# exp overflows above LOG_MAX and underflows to 0 below about LOG_MIN
LOG_MAX = math.log(sys.float_info.max)
LOG_MIN = math.log(math.ulp(0.0))
# The fewest trials per cell at which a run of 4 cells at n = 10 reaches
# SCIPY_VARIATES: a universe is two calls, each counted as CALL_VARIATES + 10.
AT_CONSTANT = -(-SCIPY_VARIATES // (4 * 2 * (CALL_VARIATES + 10)))


def cephes(values):
    """_cephes_ndtri of float64 values, in a new array."""
    u = np.array(values, dtype=np.float64, ndmin=1)
    return _cephes_ndtri(u, out=np.empty_like(u))


def assert_port_matches_scipy(j):
    """The port and scipy give the same bits at the midpoint uniforms of the 52-bit integers j."""
    u = (np.asarray(j, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0 ** -52
    assert cephes(u).tobytes() == ndtri(u).tobytes()


def in_fresh_process(script):
    """The stdout of a Python process that runs the dedented script; it must exit 0."""
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def make_params(**overrides):
    base = dict(n_stocks=10, horizon=5.0, sigma=0.2, mu_hat=0.04, sigma_hat=0.13)
    base.update(overrides)
    return ModelParams(**base)


def reference_values(mu_i, sigma, horizon, z):
    """GBM terminal values exp((mu_i - sigma*sigma/2)*horizon + sigma*sqrt(horizon)*z), step by step."""
    return np.exp((mu_i - 0.5 * sigma * sigma) * horizon + sigma * math.sqrt(horizon) * z)


def kernel_value(mu_i, sigma, horizon, z):
    """_gross_values of one stock with drift mu_i and shock z, as a float."""
    params = make_params(n_stocks=1, horizon=horizon, sigma=sigma, mu_hat=mu_i, sigma_hat=0.0)
    return _gross_values(params, np.zeros(1), np.array([z], dtype=float)).item()


class RawWords:
    """A stand-in generator whose bit generator returns the given 64-bit words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, count):
        # a fresh array, as numpy's: standard_normals overwrites it in place
        return self.words[:count].copy()


@st.composite
def near_limit_params(draw):
    """ModelParams that construct, most with their highest or lowest value near a float limit."""
    n = draw(st.integers(1, 8))
    horizon = draw(st.floats(0.01, 40.0))
    sigma = draw(st.floats(0.0, 3.0))
    sigma_hat = draw(st.floats(0.0, 10.0))
    slack = draw(st.floats(-2.0, 2.0))
    shock = sigma * math.sqrt(horizon) * _Z_LIMIT
    # the log of the highest value is (mu_hat + sigma_hat*Z - sigma**2/2)*T + shock
    mu_hat = draw(st.one_of(
        st.just((LOG_MAX - math.log(n) + slack - shock) / horizon + 0.5 * sigma ** 2
                - sigma_hat * _Z_LIMIT),
        st.just((LOG_MIN + slack + shock) / horizon + 0.5 * sigma ** 2 + sigma_hat * _Z_LIMIT),
        st.floats(-100.0, 100.0),
    ))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ModelParams(n, horizon, sigma, mu_hat, sigma_hat)
    except ValueError:
        reject()


def typed(record):
    """Each field of a dataclass record, with its type."""
    return [(value, type(value)) for value in astuple(record)]


class TestModelParams:
    REFUSED = {
        "no-stocks": (dict(n_stocks=0), "n_stocks must lie in [1, 2**32], got 0"),
        "negative-stocks": (dict(n_stocks=-3), "n_stocks must lie in [1, 2**32], got -3"),
        "past-2**32-stocks": (dict(n_stocks=2 ** 32 + 1), "n_stocks must lie in [1, 2**32], got 4294967297"),
        "float-stocks": (dict(n_stocks=10.0), "n_stocks must be an integer, got 10.0"),
        "zero-horizon": (dict(horizon=0.0), "horizon must be > 0, got 0.0"),
        "negative-horizon": (dict(horizon=-1.0), "horizon must be > 0, got -1.0"),
        "infinite-horizon": (dict(horizon=float("inf")), "horizon must be finite, got inf"),
        "negative-sigma": (dict(sigma=-0.1), "sigma must be >= 0, got -0.1"),
        "negative-sigma-hat": (dict(sigma_hat=-0.01), "sigma_hat must be >= 0, got -0.01"),
        "nan-mu-hat": (dict(mu_hat=float("nan")), "mu_hat must be finite, got nan"),
        # exp(1500) is inf and exp(-1500) is 0: rejected before any universe is drawn
        "values-overflow": (dict(mu_hat=300.0, sigma=0.0, sigma_hat=0.0), "terminal values must be positive and finite"),
        "values-underflow": (dict(mu_hat=-300.0, sigma=0.0, sigma_hat=0.0), "terminal values must be positive and finite"),
        # exp(709) fits a float, but a sum of ten of them does not
        "index-sum-overflows": (dict(horizon=1.0, sigma=0.0, mu_hat=709.0, sigma_hat=0.0),
                                "terminal values must be positive and finite"),
        # both variates at +_Z_LIMIT, each one word in 2**52, give exp(721.9):
        # no fixed seed would show it, so the model is rejected when it is built
        "extreme-draw-overflows": (dict(n_stocks=500, mu_hat=0.0, sigma_hat=17.5),
                                   "terminal values must be positive and finite"),
        # exp(1500) overflows the bound
        "bound-overflows": (dict(n_stocks=500, mu_hat=300.0, sigma_hat=0.0), "terminal values must be positive and finite"),
        # inf - inf makes the bound NaN
        "bound-is-nan": (dict(n_stocks=500, sigma=1e200, sigma_hat=1e308), "terminal values must be positive and finite"),
    }

    @pytest.mark.parametrize("overrides, message", REFUSED.values(), ids=REFUSED)
    def test_refuses(self, overrides, message):
        # the CLI prints the ValueError as its one error: line; a numpy
        # warning would print first, or raise instead under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make_params(**overrides)

    ACCEPTED = {
        "defaults": (lambda: astuple(make_params()), (10, 5.0, 0.2, 0.04, 0.13)),
        # exp(709) fits a float, and so does the index sum of one of them
        "one-stock-at-exp(709)": (lambda: astuple(make_params(n_stocks=1, horizon=1.0, sigma=0.0, mu_hat=709.0,
                                                              sigma_hat=0.0)), (1, 1.0, 0.0, 709.0, 0.0)),
        "2**32-stocks": (lambda: make_params(n_stocks=2 ** 32).n_stocks, 2 ** 32),
        "numpy-n-stocks": (lambda: typed(make_params(n_stocks=np.int64(10))),
                           [(10, int), (5.0, float), (0.2, float), (0.04, float), (0.13, float)]),
    }

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    def test_kernel_operands_are_not_fields(self):
        # the 0-d operands built for _gross_values leave equality, hashing and
        # repr to the five fields, and a pool task's pickled copy draws the same bytes
        params = make_params()
        assert [f.name for f in fields(params)] == ["n_stocks", "horizon", "sigma", "mu_hat", "sigma_hat"]
        assert params == make_params() and params != make_params(sigma=0.3)
        assert hash(params) == hash((10, 5.0, 0.2, 0.04, 0.13))
        assert repr(params) == "ModelParams(n_stocks=10, horizon=5.0, sigma=0.2, mu_hat=0.04, sigma_hat=0.13)"
        config = ExperimentConfig(params, sizes=(1,), trials_per_size=1, benchmarks=((0.5, 0.5),))
        sent, _, _, _ = pickle.loads(pickle.dumps((config, 0, 0, 1)))
        assert sent.params == params and hash(sent.params) == hash(params)
        seed = SeedSpec(42, 8)
        assert draw_universe(sent.params, seed).tobytes() == draw_universe(params, seed).tobytes()


def draws(seed):
    """The first four uniforms of seed's generator."""
    return seed.generator().random(4).tolist()


class TestSeedSpec:
    REFUSED = {
        "negative-seed": (lambda: SeedSpec(-1, 0), "master_seed must be a 64-bit unsigned integer, got -1"),
        "seed-past-64-bits": (lambda: SeedSpec(2 ** 64, 0),
                              "master_seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        "negative-index": (lambda: SeedSpec(1, -1), "stream_index must be a 64-bit unsigned integer, got -1"),
        "index-past-64-bits": (lambda: SeedSpec(1, 2 ** 64),
                               "stream_index must be a 64-bit unsigned integer, got 18446744073709551616"),
        # a float seed or index used to be truncated or to fail in generator()
        "float-seed": (lambda: SeedSpec(1.5), "master_seed must be an integer, got 1.5"),
        "float-index": (lambda: SeedSpec(1, 1.5), "stream_index must be an integer, got 1.5"),
        "string-seed": (lambda: SeedSpec("1"), "master_seed must be an integer, got '1'"),
        "offset-past-64-bits": (lambda: SeedSpec(1, 2 ** 64 - 1).generator(1),
                                "stream_index + offset must be a 64-bit unsigned integer, got 18446744073709551616"),
        "float-offset": (lambda: SeedSpec(1, 0).generator(1.0), "offset must be an integer, got 1.0"),
    }

    @pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
    def test_refuses(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    ACCEPTED = {
        "numpy-int64": (lambda: typed(SeedSpec(np.int64(42), np.int64(7))), [(42, int), (7, int)]),
        "numpy-uint64": (lambda: typed(SeedSpec(np.uint64(42), np.uint64(7))), [(42, int), (7, int)]),
        "numpy-int64-draws": (lambda: draws(SeedSpec(np.int64(42), np.int64(7))) == draws(SeedSpec(42, 7)), True),
        "numpy-uint64-draws": (lambda: draws(SeedSpec(np.uint64(42), np.uint64(7))) == draws(SeedSpec(42, 7)), True),
    }

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    @pytest.mark.parametrize("master_seed", [42, 2 ** 40])
    def test_generator_offset_is_the_substream(self, master_seed):
        # a trial's purpose offsets, from a base index whose offsets cross a SEED_WINDOW edge
        assert PICK_STREAM < STREAM_STRIDE
        index = SEED_WINDOW - 2
        for offset in range(STREAM_STRIDE):
            ours = SeedSpec(master_seed, index).generator(offset).bit_generator.random_raw(8)
            numpy_seed = np.random.SeedSequence([master_seed, index + offset])
            theirs = np.random.PCG64(numpy_seed).random_raw(8)
            assert ours.tolist() == theirs.tolist()

    def test_distinct_streams_differ(self):
        a = SeedSpec(42, 0).generator().random(8)
        b = SeedSpec(42, 1).generator().random(8)
        c = SeedSpec(43, 0).generator().random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _numpy_generator(master_seed, stream_index):
    seq = np.random.SeedSequence([master_seed, stream_index])
    return np.random.Generator(np.random.PCG64(seq))


class TestWindowedSeeding:
    """numpy's SeedSequence + PCG64 is the oracle for every substream."""

    @settings(max_examples=60, deadline=None)
    @given(master_seed=U64, stream_index=U64)
    @example(master_seed=0, stream_index=0)
    @example(master_seed=42, stream_index=SEED_WINDOW - 1)
    @example(master_seed=42, stream_index=SEED_WINDOW)
    @example(master_seed=2 ** 32 - 1, stream_index=2 ** 32 - 1)
    @example(master_seed=2 ** 32, stream_index=2 ** 32)
    @example(master_seed=2 ** 64 - 1, stream_index=2 ** 32 + SEED_WINDOW - 1)
    @example(master_seed=0, stream_index=2 ** 64 - 1)
    @example(master_seed=2 ** 64 - 1, stream_index=2 ** 64 - 1)
    def test_seed_words_match_numpy(self, master_seed, stream_index):
        window, row = divmod(stream_index, SEED_WINDOW)
        words = _seed_window(master_seed, window)[row]
        expected = np.random.SeedSequence([master_seed, stream_index]).generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        assert words.tolist() == expected.tolist()

    @pytest.mark.parametrize("master_seed", [0, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    def test_whole_window_matches_numpy(self, master_seed):
        start = 2 ** 32 - SEED_WINDOW  # the last window with one-word indices
        words = _seed_window(master_seed, start // SEED_WINDOW)
        for row in (0, 1, 777, SEED_WINDOW - 1):
            expected = np.random.SeedSequence([master_seed, start + row]).generate_state(4, np.uint64)
            assert words[row].tolist() == expected.tolist()

    @settings(max_examples=40, deadline=None)
    @given(master_seed=U64, stream_index=U64)
    @example(master_seed=42, stream_index=SEED_WINDOW - 1)
    @example(master_seed=42, stream_index=SEED_WINDOW)
    @example(master_seed=2 ** 32, stream_index=2 ** 32)
    @example(master_seed=2 ** 64 - 1, stream_index=2 ** 64 - 1)
    def test_generator_matches_numpy(self, master_seed, stream_index):
        ours = SeedSpec(master_seed, stream_index).generator()
        theirs = _numpy_generator(master_seed, stream_index)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random(5).tolist() == theirs.random(5).tolist()
        assert ours.integers(0, 2 ** 52, size=5).tolist() == theirs.integers(0, 2 ** 52, size=5).tolist()


    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64)])
    def test_seed_words_offer_only_pcg64_state(self, n_words, dtype):
        seed_words = _SeedWords(_seed_window(42, 0)[0])
        assert seed_words.generate_state(4, np.uint64) is seed_words.words
        with pytest.raises(ValueError, match=r"^only PCG64's generate_state\(4, np\.uint64\) is precomputed$"):
            seed_words.generate_state(n_words, dtype)


class TestStandardNormals:
    @settings(max_examples=40, deadline=None)
    @given(master_seed=U64, stream_index=U64, count=st.integers(1, 600))
    @example(master_seed=42, stream_index=1, count=500)
    def test_matches_bounded_integer_draws(self, master_seed, stream_index, count):
        # one 64-bit word per variate, read as numpy's integers(0, 2**52)
        z = standard_normals(SeedSpec(master_seed, stream_index).generator(), count)
        j = _numpy_generator(master_seed, stream_index).integers(0, 2 ** 52, size=count)
        assert np.array_equal(z, ndtri((j + 0.5) * 2.0 ** -52))

    @settings(max_examples=200, deadline=None)
    @given(word=WORD)
    @example(word=0)
    @example(word=2 ** 64 - 1)
    def test_midpoint_uniform_is_exact(self, word):
        u = _midpoint_uniforms(np.array([word], dtype=np.uint64))
        assert u.dtype == np.float64
        assert u.tobytes() == np.float64(((word >> 12) + 0.5) * 2.0 ** -52).tobytes()

    def test_inverse_cdf_accuracy_bound(self):
        # the transform behind every normal draw must invert the CDF to
        # within 1e-9 absolute; mpmath's erfinv is the independent oracle
        import mpmath

        mpmath.mp.dps = 40
        probs = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1e-6, 1 - 1e-12]
        # mpf(p) keeps the exact binary double; repr(p) would not
        exact = np.array([float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)) for p in probs])
        for transform in (ndtri, cephes):
            assert np.all(np.abs(transform(np.array(probs)) - exact) <= 1e-9), transform

    def test_extreme_words_give_the_z_limit(self):
        for transform in (ndtri, _cephes_ndtri):
            with mock.patch.object(model, "_ndtri", return_value=transform):
                z = standard_normals(RawWords([0, 2 ** 64 - 1]), 2)
            assert z.tolist() == [-_Z_LIMIT, _Z_LIMIT], transform
        assert _Z_LIMIT == 8.209536151601387

    def test_normal_quantile_literals_are_ndtri_bit_for_bit(self):
        # model and montecarlo write these two ndtri values as literals, so
        # that standard_normals is the one caller of the transform
        for transform in (ndtri, cephes):
            z_limit, wilson_z = transform(np.array([1 - 2 ** -53, 0.975])).tolist()
            assert _Z_LIMIT.hex() == z_limit.hex()
            assert montecarlo._WILSON_Z.hex() == wilson_z.hex()

    def test_port_matches_scipy_at_every_region_edge(self):
        # each branch switch of ndtri, where an operation in another order
        # would show first: the centre's two ends, the tails' switch at
        # sqrt(-2 log y) = 8, the middle, and the two extreme words
        edges = [_EXPM2, 1 - _EXPM2, math.exp(-32), 1 - math.exp(-32), 0.5]
        j = [int(u * 2 ** 52) + d for u in edges for d in range(-50, 51)]
        assert_port_matches_scipy(j + [0, 2 ** 52 - 1])

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(WORD, min_size=1, max_size=50))
    def test_port_matches_scipy_on_any_word(self, words):
        assert_port_matches_scipy([w >> 12 for w in words])

    def test_port_matches_scipy_in_bulk(self):
        assert_port_matches_scipy(np.random.default_rng(36).integers(0, 2 ** 52, 10 ** 6, dtype=np.uint64))

    def test_scipy_is_imported_once_the_port_work_reaches_the_constant(self):
        # a fresh process, since this one imported scipy long ago: commands
        # that draw no variate, a draw_universe call and a run whose work
        # stops just short of SCIPY_VARIATES start without scipy's import,
        # the next draw imports it, and commands that start no pool start
        # without the process pool's import
        stdout = in_fresh_process("""
            import contextlib, io, sys
            from indexsim import ExperimentConfig, ModelParams, SeedSpec, draw_universe, model, run_experiment
            from indexsim.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [main(["demo"]), main(["analytic", "--paper-defaults"])]
            print(codes, "scipy.special" in sys.modules, "multiprocessing" in sys.modules)
            draw_universe(ModelParams(3, 5.0, 0.2, 0.04, 0.13), SeedSpec(42))
            print(model._port_work, "scipy.special" in sys.modules)
            # one trial draws two calls of n_stocks values
            n_stocks = (model.SCIPY_VARIATES - model._port_work - 1) // 2 - model.CALL_VARIATES
            params = ModelParams(n_stocks, 5.0, 0.2, 0.04, 0.13)
            run_experiment(ExperimentConfig(params, sizes=(1,), trials_per_size=1, benchmarks=((0.5, 0.5),)))
            print(model.SCIPY_VARIATES - model._port_work, "scipy.special" in sys.modules)
            draw_universe(ModelParams(3, 5.0, 0.2, 0.04, 0.13), SeedSpec(42))
            print("scipy.special" in sys.modules)
        """)
        assert stdout == f"[0, 0] False False\n{2 * (CALL_VARIATES + 3)} False\n2 False\nTrue\n"

    @pytest.mark.parametrize(
        "n_stocks, sizes, trials, imported",
        [(SCIPY_VARIATES // 2 - CALL_VARIATES, (1,), 1, True), (10, (1, 2, 3, 4), AT_CONSTANT - 1, False),
         (10, (1, 2, 3, 4), AT_CONSTANT, True)],
        ids=["one-big-trial", "small-n-one-universe-short", "small-n-at-the-constant"],
    )
    def test_a_run_imports_scipy_before_its_first_draw_at_the_constant(self, n_stocks, sizes, trials, imported):
        # the run's work counts a call as CALL_VARIATES values: 4 cells of
        # AT_CONSTANT trials at n = 10 make universes of 2 * (CALL_VARIATES + 10)
        # each, just past SCIPY_VARIATES.  A run that imports never runs the port.
        stdout = in_fresh_process(f"""
            import sys
            from indexsim import ExperimentConfig, ModelParams, model, run_experiment
            params = ModelParams({n_stocks}, 5.0, 0.2, 0.04, 0.13)
            config = ExperimentConfig(params, sizes={sizes}, trials_per_size={trials}, benchmarks=((0.5, 0.5),))
            run_experiment(config)
            print("scipy.special" in sys.modules, model._port_work == 0)
        """)
        assert stdout == f"{imported} {imported}\n"

    def test_a_spawned_worker_imports_scipy_for_a_run_past_the_constant(self):
        # a worker that does not inherit the parent's modules, as under spawn
        # or forkserver, makes the choice itself from the whole run's work
        stdout = in_fresh_process(f"""
            import sys
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            from indexsim import ExperimentConfig, ModelParams
            from indexsim.montecarlo import _tally_block
            params = ModelParams(10, 5.0, 0.2, 0.04, 0.13)
            config = ExperimentConfig(params, sizes=(1, 2, 3, 4), trials_per_size={AT_CONSTANT}, benchmarks=((0.5, 0.5),))
            with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
                pool.submit(_tally_block, config, 0, 0, 10).result()
                print(pool.submit(eval, "__import__('indexsim').model._port_work, 'scipy.special' in __import__('sys').modules").result())
            print("scipy.special" in sys.modules)
        """)
        assert stdout == "(0, True)\nFalse\n"

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_only_a_forking_pool_imports_scipy_in_the_parent(self, method):
        # forked workers share the parent's import; spawned and forkserver
        # workers import scipy themselves, so the parent's would be wasted
        stdout = in_fresh_process(f"""
            import multiprocessing, sys
            from indexsim import ExperimentConfig, ModelParams, run_experiment
            multiprocessing.set_start_method({method!r})
            params = ModelParams(10, 5.0, 0.2, 0.04, 0.13)
            config = ExperimentConfig(params, sizes=(1, 2, 3, 4), trials_per_size={AT_CONSTANT}, benchmarks=((0.5, 0.5),))
            run_experiment(config, workers=2)
            print("scipy.special" in sys.modules)
        """)
        assert stdout == f"{method == 'fork'}\n"

    def test_draws_are_strictly_finite_and_centered(self):
        z = standard_normals(SeedSpec(3, 0).generator(), 200_000)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 4.0 / math.sqrt(200_000)
        assert abs(z.var(ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / 199_999)


def _drifts(params, seed):
    """The drifts draw_universe draws for ``params`` at ``seed``.

    With no volatility over one year a stock's value is exp(its drift), so the
    log of the universe reads the drifts back to within a rounding.
    """
    no_shocks = ModelParams(params.n_stocks, 1.0, 0.0, params.mu_hat, params.sigma_hat)
    return np.log(draw_universe(no_shocks, seed))


class TestDrawDrifts:
    def test_zero_dispersion_is_exact(self):
        # every drift is mu_hat itself, so only the shock stream moves the values
        params = make_params(n_stocks=3, mu_hat=0.0778, sigma_hat=0.0)
        seed = SeedSpec(1, 0)
        shocks = standard_normals(seed.generator(SHOCK_STREAM), 3)
        expected = reference_values(0.0778, params.sigma, params.horizon, shocks)
        assert draw_universe(params, seed).tolist() == expected.tolist()

    def test_deterministic(self):
        params = make_params()
        a = _drifts(params, SeedSpec(99, 5))
        b = _drifts(params, SeedSpec(99, 5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _drifts(params, SeedSpec(99, 5 + STREAM_STRIDE)))

    def test_sample_mean_clt_bound(self):
        mu_hat, sigma_hat = 0.0390620, 0.1296627
        params = make_params(n_stocks=1_000_000, mu_hat=mu_hat, sigma_hat=sigma_hat)
        drifts = _drifts(params, SeedSpec(2024, 0))
        bound = 4.0 * sigma_hat / 1000.0
        assert abs(drifts.mean() - mu_hat) < bound
        # independent sampler lands inside the same bound
        other = mu_hat + sigma_hat * np.random.default_rng(7).standard_normal(1_000_000)
        assert abs(other.mean() - mu_hat) < bound
        assert abs(drifts.std(ddof=1) - sigma_hat) < 5.0 * sigma_hat * math.sqrt(2 / 999_999)


def python_float_kernel(params, drifts, shocks):
    """_gross_values as written with Python-float operands, the bits its 0-d operands must give."""
    drifts *= params.sigma_hat
    drifts += params.mu_hat
    drifts -= 0.5 * params.sigma * params.sigma
    drifts *= params.horizon
    shocks *= params.sigma * math.sqrt(params.horizon)
    drifts += shocks
    return np.exp(drifts, out=drifts)


class TestTerminalValue:
    ACCEPTED = {
        "drift-cancels-volatility-correction": (lambda: kernel_value(0.02, 0.2, 7.0, 0.0), 1.0),
        "deterministic-drift-only": (lambda: kernel_value(0.04, 0.0, 5.0, 0.0), approx(math.exp(0.2), rel=1e-12)),
        "shock-arithmetic": (lambda: kernel_value(0.0, 0.2, 5.0, 1.0),
                             approx(math.exp(-0.1 + 0.2 * math.sqrt(5.0)), rel=1e-12)),
        # positive and finite for extreme shocks
        "shock--38": (lambda: 0 < kernel_value(0.04, 0.2, 5.0, -38.0) < math.inf, True),
        "shock--8": (lambda: 0 < kernel_value(0.04, 0.2, 5.0, -8.0) < math.inf, True),
        "shock-8": (lambda: 0 < kernel_value(0.04, 0.2, 5.0, 8.0) < math.inf, True),
        "shock-38": (lambda: 0 < kernel_value(0.04, 0.2, 5.0, 38.0) < math.inf, True),
    }

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    @settings(max_examples=200, deadline=None)
    @given(params=near_limit_params(), data=st.data())
    def test_operands_give_the_python_float_bits(self, params, data):
        normals = st.lists(st.floats(-_Z_LIMIT, _Z_LIMIT), min_size=params.n_stocks, max_size=params.n_stocks)
        drifts, shocks = np.array(data.draw(normals)), np.array(data.draw(normals))
        expected = python_float_kernel(params, drifts.copy(), shocks.copy())
        assert _gross_values(params, drifts, shocks).tobytes() == expected.tobytes()


class TestDrawUniverse:
    ACCEPTED = {"degenerate-universe": (lambda: draw_universe(make_params(n_stocks=5, sigma=0.0, sigma_hat=0.0),
                                                              SeedSpec(3, 0)).tolist(), [math.exp(0.2)] * 5)}

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        params=st.builds(ModelParams, n_stocks=st.integers(1, 40), horizon=st.floats(0.1, 30.0),
                         sigma=st.floats(0.0, 1.0), mu_hat=st.floats(-1.0, 1.0),
                         sigma_hat=st.floats(0.0, 1.0)),
        seed=st.builds(SeedSpec, U64, st.integers(0, 2 ** 64 - 1 - SHOCK_STREAM)),
    )
    @example(params=make_params(), seed=SeedSpec(42, 0))
    @example(params=make_params(sigma_hat=0.0), seed=SeedSpec(7, 2 ** 40))
    @example(params=make_params(n_stocks=500), seed=SeedSpec(2 ** 64 - 1, 2 ** 64 - 8))
    def test_drifts_and_shocks_come_from_their_streams(self, params, seed):
        # drifts mu_hat + sigma_hat * z from the drift stream, shocks from the shock stream
        zd = standard_normals(seed.generator(DRIFT_STREAM), params.n_stocks)
        zs = standard_normals(seed.generator(SHOCK_STREAM), params.n_stocks)
        expected = reference_values(params.mu_hat + params.sigma_hat * zd, params.sigma, params.horizon, zs)
        assert np.array_equal(draw_universe(params, seed), expected)

    def test_marginal_log_law(self, reference_params):
        n = 100_000
        params = replace(reference_params, n_stocks=n)
        logs = np.log(draw_universe(params, SeedSpec(5, 0)))
        m = params.mu_hat * 5.0 - 0.5 * params.sigma ** 2 * 5.0
        v = params.sigma ** 2 * 5.0 + params.sigma_hat ** 2 * 25.0
        assert m == approx(math.log(1.1), rel=1e-12)
        assert abs(logs.mean() - m) < 4.0 * math.sqrt(v) / math.sqrt(n)
        assert abs(logs.var(ddof=1) - v) < 5.0 * v * math.sqrt(2.0 / (n - 1))

    def test_terminal_draws_match_lognormal_moments(self, reference_params):
        n = 100_000
        params = replace(reference_params, n_stocks=n)
        values = draw_universe(params, SeedSpec(6, 0))
        m, v = math.log(1.1), 0.2 + reference_params.sigma_hat ** 2 * 25.0
        true_var = (math.exp(v) - 1.0) * math.exp(2 * m + v)
        assert abs(np.mean(values) - 1.5) < 5.0 * math.sqrt(true_var / n)
        assert abs(np.median(values) - 1.1) < 0.02
        assert skew(values) > 0

    def test_skewness_positive_for_any_variance_source(self):
        # either the shared volatility or the drift dispersion alone is
        # enough to skew terminal values to the right
        for sigma, sigma_hat in ((0.2, 0.0), (0.0, 0.13), (0.2, 0.13)):
            params = ModelParams(
                n_stocks=100_000, horizon=5.0, sigma=sigma, mu_hat=0.04, sigma_hat=sigma_hat
            )
            assert skew(draw_universe(params, SeedSpec(2, 0))) > 0

    def test_values_immutable(self):
        values = draw_universe(make_params(), SeedSpec(1, 0))
        assert values.dtype == np.float64
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            values[0] = 2.0

    def test_concurrent_draws_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        params = make_params(n_stocks=200)
        seeds = [SeedSpec(13, t * STREAM_STRIDE) for t in range(32)]
        serial = [draw_universe(params, s) for s in seeds]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda s: draw_universe(params, s), seeds))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(params=near_limit_params(), data=st.data())
    def test_constructed_params_keep_every_draw_in_the_floats(self, params, data):
        # every stock's drift and shock words, often the extreme ones
        words = st.lists(WORD, min_size=params.n_stocks, max_size=params.n_stocks)
        streams = {DRIFT_STREAM: data.draw(words), SHOCK_STREAM: data.draw(words)}
        with mock.patch.object(SeedSpec, "generator",
                               lambda seed, offset=0: RawWords(streams[seed.stream_index + offset])):
            values = draw_universe(params, SeedSpec(1, 0))
        assert np.all(values > 0) and np.all(np.isfinite(values))
        assert math.isfinite(index_value(values))


# Lognormal gross values, an odd count so that a stride-2 view is not a half.
GROSS = np.random.default_rng(11).lognormal(0.1, 0.5, 101)


def read_only(values):
    values = values.copy()
    values.setflags(write=False)
    return values


class GrossArray(np.ndarray):
    """An ndarray subclass: index_value reads it through np.asarray."""


def pairwise_mean(values):
    """numpy's pairwise sum of values as float64 over their count, the bits of index_value."""
    values = np.asarray(values, float)
    return float(np.add.reduce(values) / values.size)


class TestIndexValue:
    ACCEPTED = {
        "one-winner-example": (lambda: index_value([1.1, 1.1, 1.1, 1.1, 1.5]), approx(1.18, abs=1e-12)),
        "constant-values": (lambda: index_value([1.3, 1.3, 1.3]), 1.3),
        "symmetric-mean": (lambda: index_value([1.0, 2.0, 3.0]), 2.0),
        # a float64 ndarray is read as it is, anything else converted: the same bits either way
        "read-only-array": (lambda: index_value(read_only(GROSS)).hex(), pairwise_mean(GROSS).hex()),
        "strided-view": (lambda: index_value(GROSS[::2]).hex(), pairwise_mean(GROSS[::2]).hex()),
        "ndarray-subclass": (lambda: index_value(GROSS.view(GrossArray)).hex(), pairwise_mean(GROSS).hex()),
        "float32-array": (lambda: index_value(GROSS.astype(np.float32)).hex(),
                          pairwise_mean(GROSS.astype(np.float32)).hex()),
        "int-list": (lambda: index_value([1, 2, 4, 7, 9]).hex(), pairwise_mean([1, 2, 4, 7, 9]).hex()),
    }

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0], [3.0, 4.0]], np.empty(0), np.ones((2, 2))],
                             ids=["empty", "2-d", "empty-array", "2-d-array"])
    def test_rejects_empty_and_2d(self, values):
        with pytest.raises(ValueError, match="^expected a non-empty 1-d collection of gross values$"):
            index_value(values)
