import inspect

import pytest

from indexsim import CalibrationTarget, ModelParams, calibrate


# Reference calibration used across the suite: 10% median and 50% expected
# net return over 5 years at 20% annual volatility, 500-stock index.  Tests
# take it as a fixture: importing this module by name would clash with the
# benchmark's own conftest when one pytest run collects both suites.
@pytest.fixture(scope="session")
def reference_target() -> CalibrationTarget:
    return CalibrationTarget(median_return=0.10, expected_return=0.50, sigma=0.20, horizon=5.0)


@pytest.fixture(scope="session")
def reference_params(reference_target) -> ModelParams:
    mu_hat, sigma_hat = calibrate(reference_target)
    return ModelParams(n_stocks=500, horizon=5.0, sigma=0.20, mu_hat=mu_hat, sigma_hat=sigma_hat)


@pytest.fixture
def call_row(request):
    """Call an ACCEPTED row's lambda with the fixture that each of its parameters names."""
    return lambda call: call(*map(request.getfixturevalue, inspect.signature(call).parameters))
