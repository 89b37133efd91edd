"""Equal-weighted stock picking against a drift-mixture GBM index.

The package simulates an index of independent GBM stocks whose drifts are
drawn from a normal cross-section, computes the model's closed forms
(expected index value, median stock, underperformance factor), enumerates
small portfolio spaces exactly, and measures over/under-performance
frequencies of random equal-weighted sub-portfolios by Monte Carlo.
"""

from .analytic import (
    AnalyticSummary,
    CalibrationError,
    CalibrationTarget,
    calibrate,
    expected_index_value,
    median_stock_value,
    stock_log_law,
    summarize,
    tail_probability,
    underperformance_factor,
)
from .enumeration import (
    DeterministicIndex,
    EnumerationCapError,
    SubsetStats,
    enumerate_portfolios,
)
from .model import (
    ModelParams,
    SeedSpec,
    draw_universe,
    index_value,
)
from .montecarlo import (
    ExperimentConfig,
    FrequencyReport,
    FrequencyRow,
    frequency_ci,
    run_experiment,
    run_trial,
    subset_frequencies,
)
from .report import emit_csv, emit_svg_chart, parse_csv

__version__ = "0.1.0"

__all__ = [
    "AnalyticSummary",
    "CalibrationError",
    "CalibrationTarget",
    "DeterministicIndex",
    "EnumerationCapError",
    "ExperimentConfig",
    "FrequencyReport",
    "FrequencyRow",
    "ModelParams",
    "SeedSpec",
    "SubsetStats",
    "calibrate",
    "draw_universe",
    "emit_csv",
    "emit_svg_chart",
    "enumerate_portfolios",
    "expected_index_value",
    "frequency_ci",
    "index_value",
    "median_stock_value",
    "parse_csv",
    "run_experiment",
    "run_trial",
    "stock_log_law",
    "subset_frequencies",
    "summarize",
    "tail_probability",
    "underperformance_factor",
]
