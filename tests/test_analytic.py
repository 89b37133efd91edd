import math
import re

import numpy as np
import pytest
from pytest import approx
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from indexsim import (
    CalibrationError,
    CalibrationTarget,
    ModelParams,
    calibrate,
    expected_index_value,
    median_stock_value,
    stock_log_law,
    summarize,
    tail_probability,
    underperformance_factor,
)


def make_params(**overrides):
    base = dict(n_stocks=500, horizon=5.0, sigma=0.2, mu_hat=0.04, sigma_hat=0.13)
    base.update(overrides)
    return ModelParams(**base)


def random_params(rng):
    return make_params(
        horizon=float(rng.uniform(0.25, 20.0)),
        sigma=float(rng.uniform(0.0, 0.6)),
        mu_hat=float(rng.uniform(-0.1, 0.15)),
        sigma_hat=float(rng.uniform(0.0, 0.3)),
    )


# every drawn value lies in [exp(-528), exp(128)], but the factor is exp(800)
FACTOR_OVERFLOWS = make_params(horizon=1.0, sigma=0.0, mu_hat=-200.0, sigma_hat=40.0)


class TestClosedForms:
    ACCEPTED = {
        "zero-drift-identity": (lambda: expected_index_value(make_params(mu_hat=0.0, sigma_hat=0.0)), 1.0),
        "expected-value-deterministic-case": (lambda: expected_index_value(make_params(sigma_hat=0.0)),
                                              approx(math.exp(0.2), rel=1e-12)),
        "expected-value-past-the-factor": (lambda: expected_index_value(FACTOR_OVERFLOWS),
                                           approx(math.exp(600.0), rel=1e-12)),
        "median-no-drift-no-volatility": (lambda: median_stock_value(make_params(sigma=0.0, mu_hat=0.0)), 1.0),
        "median-drift-cancels-volatility": (lambda: median_stock_value(make_params(mu_hat=0.02)),
                                            approx(1.0, rel=1e-12)),
        "factor-no-volatility": (lambda: underperformance_factor(make_params(sigma=0.0, sigma_hat=0.0)), 1.0),
        "factor-no-dispersion": (lambda: underperformance_factor(make_params(sigma_hat=0.0)),
                                 approx(math.exp(0.1), rel=1e-12)),
        "log-law-degenerate": (lambda: stock_log_law(make_params(sigma=0.0, sigma_hat=0.0, mu_hat=0.0)), (0.0, 0.0)),
    }

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected

    def test_overflow_names_the_quantity(self):
        with pytest.raises(ValueError, match="^the underperformance factor exp.800. overflows a float$"):
            underperformance_factor(FACTOR_OVERFLOWS)

    def test_identity_expected_equals_median_times_factor(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = random_params(rng)
            left = expected_index_value(params)
            right = median_stock_value(params) * underperformance_factor(params)
            assert left == approx(right, rel=1e-12)

    def test_summary_consistency(self, reference_params):
        summary = summarize(reference_params)
        m, v = stock_log_law(reference_params)
        assert summary.log_mean == m
        assert summary.log_variance == v
        assert summary.expected_index_value == expected_index_value(reference_params)


class TestStockLogLaw:
    def test_horizon_scaling_without_volatility(self):
        p1 = make_params(sigma=0.0, horizon=3.0)
        p2 = make_params(sigma=0.0, horizon=6.0)
        m1, v1 = stock_log_law(p1)
        m2, v2 = stock_log_law(p2)
        assert m2 == 2.0 * m1
        assert v2 == 4.0 * v1


def at_the_boundary(target):
    """The expected return that target's mu_hat gives with no dispersion, and
    calibrate's mu_hat there minus target's, and its sigma_hat there."""
    mu_hat, _ = calibrate(target)
    boundary = math.expm1(mu_hat * 5.0)
    mu2, sigma_hat = calibrate(CalibrationTarget(0.10, boundary, 0.20, 5.0))
    return boundary, mu2 - mu_hat, sigma_hat


class TestCalibrate:
    def test_round_trip_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sigma = float(rng.uniform(0.05, 0.5))
            horizon = float(rng.uniform(0.5, 15.0))
            median = float(rng.uniform(-0.3, 0.8))
            floor = math.expm1(math.log1p(median) + 0.5 * sigma ** 2 * horizon)
            expected = floor + float(rng.uniform(0.01, 2.0))
            target = CalibrationTarget(median, expected, sigma, horizon)
            mu_hat, sigma_hat = calibrate(target)
            params = make_params(
                horizon=horizon, sigma=sigma, mu_hat=mu_hat, sigma_hat=sigma_hat
            )
            assert median_stock_value(params) == approx(1.0 + median, rel=1e-12)
            assert expected_index_value(params) == approx(1.0 + expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        median=st.floats(-0.9, 2.0),
        sigma=st.floats(0.01, 0.6),
        horizon=st.floats(0.1, 20.0),
        gap=st.floats(0.0, 1.0),
    )
    @example(median=0.10, sigma=0.20, horizon=5.0, gap=0.0)  # exactly sigma_hat = 0
    @example(median=0.10, sigma=0.20, horizon=5.0, gap=1e-8)  # sigma_hat > 0 just above it
    def test_summarize_returns_feasible_targets(self, median, sigma, horizon, gap):
        # gap is how far log(1 + expected) lies above its feasibility floor,
        # log(1 + median) + sigma**2 * horizon / 2, which sigma_hat = 0 reaches
        expected = math.expm1(math.log1p(median) + 0.5 * sigma ** 2 * horizon + gap)
        mu_hat, sigma_hat = calibrate(CalibrationTarget(median, expected, sigma, horizon))
        summary = summarize(make_params(horizon=horizon, sigma=sigma, mu_hat=mu_hat,
                                        sigma_hat=sigma_hat))
        assert summary.median_stock_value - 1.0 == approx(median, abs=1e-9)
        assert summary.expected_index_value - 1.0 == approx(expected, abs=1e-9)
        if gap == 0.0:
            assert sigma_hat == 0.0

    def test_infeasible_target_raises(self):
        message = ("infeasible target: requires log(1 + expected_return) >= log(1 + median_return) "
                   "+ sigma**2 * horizon / 2 (0.0487902 < 0.19531)")
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            calibrate(CalibrationTarget(0.10, 0.05, 0.20, 5.0))

    REFUSED = {
        "median-return-of-minus-1": (dict(median_return=-1.0), "median_return must be > -1, got -1.0"),
        "expected-return-below-minus-1": (dict(expected_return=-1.5), "expected_return must be > -1, got -1.5"),
        "zero-sigma": (dict(sigma=0.0), "sigma must be > 0, got 0.0"),
        "zero-horizon": (dict(horizon=0.0), "horizon must be > 0, got 0.0"),
        "nan-sigma": (dict(sigma=float("nan")), "sigma must be finite, got nan"),
    }

    @pytest.mark.parametrize("kwargs, message", REFUSED.values(), ids=REFUSED)
    def test_rejects_invalid_targets(self, kwargs, message):
        base = dict(median_return=0.1, expected_return=0.5, sigma=0.2, horizon=5.0)
        base.update(kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CalibrationTarget(**base)

    # exp(log(1.1) + 0.1) - 1, the expected return carrying no dispersion, keeps mu_hat with sigma_hat 0
    ACCEPTED = {"boundary-yields-zero-dispersion": (lambda reference_target: at_the_boundary(reference_target),
                                                    (approx(0.2156880, abs=1e-6), 0.0, 0.0))}

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected


def off_scipy(params, threshold, direction):
    """tail_probability minus the same tail of stock_log_law's lognormal law, by scipy's normal law."""
    m, v = stock_log_law(params)
    tail = norm.sf if direction == "above" else norm.cdf
    return tail_probability(params, threshold, direction) - float(tail((math.log(threshold) - m) / math.sqrt(v)))


# a degenerate law: all its mass at exp(0.2)
POINT_MASS = make_params(sigma=0.0, sigma_hat=0.0, mu_hat=0.04, horizon=5.0)


class TestTailProbability:
    def test_complementarity(self, reference_params):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = float(rng.uniform(0.05, 6.0))
            above = tail_probability(reference_params, x, "above")
            below = tail_probability(reference_params, x, "below")
            assert above + below == approx(1.0, abs=1e-12)

    def test_strictly_decreasing_in_threshold(self, reference_params):
        xs = np.linspace(0.2, 4.0, 60)
        probs = [tail_probability(reference_params, float(x), "above") for x in xs]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    REFUSED = {
        "zero-threshold": (0.0, "above", "threshold must be positive and finite, got 0.0"),
        "negative-threshold": (-1.0, "below", "threshold must be positive and finite, got -1.0"),
        "unknown-direction": (1.0, "sideways", "direction must be 'above' or 'below', got 'sideways'"),
    }

    @pytest.mark.parametrize("threshold, direction, message", REFUSED.values(), ids=REFUSED)
    def test_refuses(self, reference_params, threshold, direction, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tail_probability(reference_params, threshold, direction)

    ACCEPTED = {
        "full-support": (lambda reference_params: tail_probability(reference_params, 1e-300, "above"),
                         approx(1.0, abs=1e-12)),
        "scipy-above-1.5": (lambda reference_params: off_scipy(reference_params, 1.5, "above"), approx(0.0, abs=1e-12)),
        "scipy-above-1.7": (lambda reference_params: off_scipy(reference_params, 1.7, "above"), approx(0.0, abs=1e-12)),
        "scipy-below-1.3": (lambda reference_params: off_scipy(reference_params, 1.3, "below"), approx(0.0, abs=1e-12)),
        "above-1.5": (lambda reference_params: tail_probability(reference_params, 1.5, "above"), approx(0.3469, abs=5e-5)),
        "above-1.7": (lambda reference_params: tail_probability(reference_params, 1.7, "above"), approx(0.2902, abs=5e-5)),
        "below-1.3": (lambda reference_params: tail_probability(reference_params, 1.3, "below"), approx(0.5840, abs=5e-5)),
        "below-the-median": (lambda reference_params: tail_probability(
            reference_params, median_stock_value(reference_params), "below"), approx(0.5, abs=1e-9)),
        "point-mass-above-0.9-of-it": (lambda: tail_probability(POINT_MASS, math.exp(0.2) * 0.9, "above"), 1.0),
        "point-mass-above-1.1-of-it": (lambda: tail_probability(POINT_MASS, math.exp(0.2) * 1.1, "above"), 0.0),
        "point-mass-below-0.9-of-it": (lambda: tail_probability(POINT_MASS, math.exp(0.2) * 0.9, "below"), 0.0),
        "point-mass-below-1.1-of-it": (lambda: tail_probability(POINT_MASS, math.exp(0.2) * 1.1, "below"), 1.0),
    }

    @pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepts(self, call_row, call, expected):
        assert call_row(call) == expected
