import math

import numpy as np
import pytest
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


class TestClosedForms:
    def test_zero_drift_identity(self):
        assert expected_index_value(make_params(mu_hat=0.0, sigma_hat=0.0)) == 1.0

    def test_expected_value_deterministic_case(self):
        params = make_params(mu_hat=0.04, sigma_hat=0.0, horizon=5.0)
        assert expected_index_value(params) == pytest.approx(math.exp(0.2), rel=1e-12)

    def test_reference_calibration_hits_targets(self, reference_params):
        assert expected_index_value(reference_params) == pytest.approx(1.5, rel=1e-12)
        assert median_stock_value(reference_params) == pytest.approx(1.1, rel=1e-12)
        assert underperformance_factor(reference_params) == pytest.approx(1.5 / 1.1, rel=1e-12)

    def test_median_trivial_cases(self):
        assert median_stock_value(make_params(sigma=0.0, mu_hat=0.0)) == 1.0
        params = make_params(sigma=0.2, mu_hat=0.02, horizon=5.0)
        assert median_stock_value(params) == pytest.approx(1.0, rel=1e-12)

    def test_factor_trivial_cases(self):
        assert underperformance_factor(make_params(sigma=0.0, sigma_hat=0.0)) == 1.0
        params = make_params(sigma=0.2, sigma_hat=0.0, horizon=5.0)
        assert underperformance_factor(params) == pytest.approx(math.exp(0.1), rel=1e-12)

    def test_overflow_names_the_quantity(self):
        # every drawn value lies in [exp(-528), exp(128)], but the factor is exp(800)
        params = make_params(horizon=1.0, sigma=0.0, mu_hat=-200.0, sigma_hat=40.0)
        assert expected_index_value(params) == pytest.approx(math.exp(600.0), rel=1e-12)
        with pytest.raises(ValueError, match="^the underperformance factor exp.800. overflows a float$"):
            underperformance_factor(params)

    def test_identity_expected_equals_median_times_factor(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = random_params(rng)
            left = expected_index_value(params)
            right = median_stock_value(params) * underperformance_factor(params)
            assert left == pytest.approx(right, rel=1e-12)

    def test_summary_consistency(self, reference_params):
        summary = summarize(reference_params)
        m, v = stock_log_law(reference_params)
        assert summary.log_mean == m
        assert summary.log_variance == v
        assert summary.expected_index_value == expected_index_value(reference_params)


class TestStockLogLaw:
    def test_degenerate(self):
        assert stock_log_law(make_params(sigma=0.0, sigma_hat=0.0, mu_hat=0.0)) == (0.0, 0.0)

    def test_reference_values(self, reference_params):
        m, v = stock_log_law(reference_params)
        assert m == pytest.approx(math.log(1.1), rel=1e-12)
        assert v == pytest.approx(0.620310, abs=5e-7)

    def test_horizon_scaling_without_volatility(self):
        p1 = make_params(sigma=0.0, horizon=3.0)
        p2 = make_params(sigma=0.0, horizon=6.0)
        m1, v1 = stock_log_law(p1)
        m2, v2 = stock_log_law(p2)
        assert m2 == 2.0 * m1
        assert v2 == 4.0 * v1


class TestCalibrate:
    def test_reference_values(self, reference_target):
        mu_hat, sigma_hat = calibrate(reference_target)
        assert mu_hat == pytest.approx(0.0390620, abs=1e-6)
        assert sigma_hat == pytest.approx(0.1296627, abs=1e-6)
        assert round(mu_hat * 100) == 4
        assert round(sigma_hat * 100) == 13

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
            assert median_stock_value(params) == pytest.approx(1.0 + median, rel=1e-12)
            assert expected_index_value(params) == pytest.approx(1.0 + expected, rel=1e-12)

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
        assert summary.median_stock_value - 1.0 == pytest.approx(median, abs=1e-9)
        assert summary.expected_index_value - 1.0 == pytest.approx(expected, abs=1e-9)
        if gap == 0.0:
            assert sigma_hat == 0.0

    def test_boundary_yields_zero_dispersion(self, reference_target):
        mu_hat, _ = calibrate(reference_target)
        boundary_expected = math.expm1(mu_hat * 5.0)
        # exp(log(1.1) + 0.1) - 1, the expected return carrying no dispersion
        assert boundary_expected == pytest.approx(0.2156880, abs=1e-6)
        target = CalibrationTarget(0.10, boundary_expected, 0.20, 5.0)
        mu2, sigma_hat = calibrate(target)
        assert mu2 == mu_hat
        assert sigma_hat == 0.0

    def test_infeasible_target_raises(self):
        with pytest.raises(CalibrationError, match=r"log\(1 \+ expected_return\)"):
            calibrate(CalibrationTarget(0.10, 0.05, 0.20, 5.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(median_return=-1.0),
            dict(expected_return=-1.5),
            dict(sigma=0.0),
            dict(horizon=0.0),
            dict(sigma=float("nan")),
        ],
    )
    def test_rejects_invalid_targets(self, kwargs):
        base = dict(median_return=0.1, expected_return=0.5, sigma=0.2, horizon=5.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CalibrationTarget(**base)


class TestTailProbability:
    def test_full_support(self, reference_params):
        assert tail_probability(reference_params, 1e-300, "above") == pytest.approx(1.0, abs=1e-12)

    def test_reference_tails_match_independent_cdf(self, reference_params):
        m, v = stock_log_law(reference_params)
        sd = math.sqrt(v)
        cases = [
            (1.5, "above", float(norm.sf((math.log(1.5) - m) / sd))),
            (1.7, "above", float(norm.sf((math.log(1.7) - m) / sd))),
            (1.3, "below", float(norm.cdf((math.log(1.3) - m) / sd))),
        ]
        for threshold, direction, oracle in cases:
            assert tail_probability(reference_params, threshold, direction) == pytest.approx(
                oracle, abs=1e-12
            )
        assert tail_probability(reference_params, 1.5, "above") == pytest.approx(0.3469, abs=5e-5)
        assert tail_probability(reference_params, 1.7, "above") == pytest.approx(0.2902, abs=5e-5)
        assert tail_probability(reference_params, 1.3, "below") == pytest.approx(0.5840, abs=5e-5)

    def test_complementarity(self, reference_params):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = float(rng.uniform(0.05, 6.0))
            above = tail_probability(reference_params, x, "above")
            below = tail_probability(reference_params, x, "below")
            assert above + below == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing_in_threshold(self, reference_params):
        xs = np.linspace(0.2, 4.0, 60)
        probs = [tail_probability(reference_params, float(x), "above") for x in xs]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_median_property(self, reference_params):
        median = median_stock_value(reference_params)
        assert tail_probability(reference_params, median, "below") == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_law_is_step_function(self):
        params = make_params(sigma=0.0, sigma_hat=0.0, mu_hat=0.04, horizon=5.0)
        point = math.exp(0.2)
        assert tail_probability(params, point * 0.9, "above") == 1.0
        assert tail_probability(params, point * 1.1, "above") == 0.0
        assert tail_probability(params, point * 0.9, "below") == 0.0
        assert tail_probability(params, point * 1.1, "below") == 1.0

    def test_rejects_bad_inputs(self, reference_params):
        with pytest.raises(ValueError):
            tail_probability(reference_params, 0.0, "above")
        with pytest.raises(ValueError):
            tail_probability(reference_params, -1.0, "below")
        with pytest.raises(ValueError):
            tail_probability(reference_params, 1.0, "sideways")
