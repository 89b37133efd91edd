"""Closed-form quantities of the drift-mixture GBM model.

With log-mean ``m = mu_hat*T - sigma**2*T/2`` and log-variance
``v = sigma**2*T + sigma_hat**2*T**2`` for a randomly picked stock:

    expected index value   E = exp(mu_hat*T + sigma_hat**2*T**2 / 2)
    median stock value     M = exp(m)
    underperformance factor = E / M = exp(v / 2)

``calibrate`` inverts the first two identities to recover (mu_hat,
sigma_hat) from target median and expected net returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams


class CalibrationError(ValueError):
    """Raised when no real sigma_hat can reach the requested expected return."""


@dataclass(frozen=True)
class CalibrationTarget:
    """Target returns the drift distribution should reproduce.

    median_return / expected_return are net returns over the horizon;
    sigma is the annual stock volatility, strictly positive here.
    """

    median_return: float
    expected_return: float
    sigma: float
    horizon: float

    def __post_init__(self):
        for name in ("median_return", "expected_return", "sigma", "horizon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.median_return <= -1:
            raise ValueError(f"median_return must be > -1, got {self.median_return!r}")
        if self.expected_return <= -1:
            raise ValueError(f"expected_return must be > -1, got {self.expected_return!r}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")


@dataclass(frozen=True)
class AnalyticSummary:
    expected_index_value: float
    median_stock_value: float
    underperformance_factor: float
    log_mean: float
    log_variance: float


def _norm_sf(x: float) -> float:
    # 1 - Phi(x) via the complementary error function; accurate in both tails.
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _exp(quantity: str, x: float) -> float:
    """math.exp(x); a result past the floats is a ValueError naming the quantity."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ValueError(f"the {quantity} exp({x:.6g}) overflows a float") from None


def expected_index_value(params: ModelParams) -> float:
    """Large-N limit of the index: the mean of one stock's terminal value."""
    t = params.horizon
    return _exp("expected index value", params.mu_hat * t + 0.5 * params.sigma_hat ** 2 * t * t)


def median_stock_value(params: ModelParams) -> float:
    """Median gross terminal value of a randomly picked stock."""
    return math.exp(stock_log_law(params)[0])


def underperformance_factor(params: ModelParams) -> float:
    """Ratio by which the expected index value exceeds the median stock: exp(v / 2)."""
    return _exp("underperformance factor", 0.5 * stock_log_law(params)[1])


def stock_log_law(params: ModelParams) -> tuple[float, float]:
    """(log-mean, log-variance) of the terminal value of a random stock."""
    t = params.horizon
    m = params.mu_hat * t - 0.5 * params.sigma ** 2 * t
    v = params.sigma ** 2 * t + params.sigma_hat ** 2 * t * t
    return m, v


def summarize(params: ModelParams) -> AnalyticSummary:
    m, v = stock_log_law(params)
    return AnalyticSummary(
        expected_index_value=expected_index_value(params),
        median_stock_value=median_stock_value(params),
        underperformance_factor=underperformance_factor(params),
        log_mean=m,
        log_variance=v,
    )


# Discriminants this close to zero (in log-return units) are treated as the
# exact sigma_hat = 0 boundary rather than rejected; see calibrate().
_BOUNDARY_TOL = 1e-12


def calibrate(target: CalibrationTarget) -> tuple[float, float]:
    """Solve for (mu_hat, sigma_hat) hitting the target median and mean.

        mu_hat    = (log(1 + median_return) + sigma**2 * T / 2) / T
        sigma_hat = sqrt(2*log(1 + expected_return) - 2*mu_hat*T) / T

    The exact value of mu_hat is chained into sigma_hat; chaining a
    percent-rounded mu_hat instead shifts sigma_hat visibly in the third
    decimal (12.82% vs the exact 12.97% for the 10%/50%/20%/5y target),
    though both round to 13%.

    The boundary where the expected return carries no drift dispersion
    (sigma_hat = 0) is accepted; anything below it raises CalibrationError.
    Targets within ~1e-12 of the boundary in log-return units collapse to
    sigma_hat = 0 rather than tracking floating-point noise.
    """
    t = target.horizon
    mu_hat = (math.log1p(target.median_return) + 0.5 * target.sigma ** 2 * t) / t
    disc = 2.0 * math.log1p(target.expected_return) - 2.0 * mu_hat * t
    if disc < -_BOUNDARY_TOL:
        raise CalibrationError(
            "infeasible target: requires log(1 + expected_return) >= "
            "log(1 + median_return) + sigma**2 * horizon / 2 "
            f"({math.log1p(target.expected_return):.6g} < "
            f"{math.log1p(target.median_return) + 0.5 * target.sigma ** 2 * t:.6g})"
        )
    sigma_hat = 0.0 if disc <= _BOUNDARY_TOL else math.sqrt(disc) / t
    return mu_hat, sigma_hat


def tail_probability(params: ModelParams, threshold: float, direction: str) -> float:
    """P(S_T > threshold) or P(S_T < threshold) for a randomly picked stock.

    The degenerate zero-variance law is a point mass at exp(log_mean);
    strict comparisons then give probabilities of exactly 0 or 1.
    """
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    m, v = stock_log_law(params)
    gap = math.log(threshold) - m
    if v == 0.0:
        if direction == "above":
            return 1.0 if gap < 0 else 0.0
        return 1.0 if gap > 0 else 0.0
    x = gap / math.sqrt(v)
    return _norm_sf(x if direction == "above" else -x)
