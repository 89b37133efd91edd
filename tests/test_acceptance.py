"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the heavyweight reference simulation is shared across criteria.
"""

import hashlib
import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import skew

from indexsim import (
    CalibrationTarget,
    DeterministicIndex,
    ExperimentConfig,
    ModelParams,
    SeedSpec,
    calibrate,
    draw_universe,
    enumerate_portfolios,
    expected_index_value,
    index_value,
    median_stock_value,
    run_experiment,
    stock_log_law,
    subset_frequencies,
    summarize,
    tail_probability,
    underperformance_factor,
)
import indexsim.model as model
from indexsim.cli import main
from indexsim.model import STREAM_STRIDE, _cephes_ndtri
from indexsim.report import emit_csv, parse_csv


def check(criterion: int, description: str, ok: bool) -> None:
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def gap_standard_error(row) -> float:
    # SE of (under_freq - over_freq) for one multinomial sample
    po, pu, n = row.over_freq, row.under_freq, row.trials
    return math.sqrt((pu * (1 - pu) + po * (1 - po) + 2.0 * pu * po) / n)


@pytest.fixture(scope="module")
def paper_csv_runs(tmp_path_factory):
    """Three reference CLI runs: twice serial, once with 8 workers."""
    tmp = tmp_path_factory.mktemp("acceptance")
    paths = [tmp / "a.csv", tmp / "b.csv", tmp / "c.csv"]
    for path, workers in zip(paths, ("1", "1", "8")):
        code = main(
            ["simulate", "--paper-defaults", "--seed", "42", "--workers", workers,
             "--out", str(path)]
        )
        assert code == 0
    return [p.read_bytes() for p in paths]


def test_criterion_1_exact_worked_example(capsys):
    stats = enumerate_portfolios(DeterministicIndex((1.1, 1.1, 1.1, 1.1, 1.5)), {1, 2})
    below, _, _ = stats.compare(0.18)
    with capsys.disabled():
        check(
            1,
            "demo universe: 15 portfolios, mean 0.18, median 0.10, under-fraction 10/15",
            stats.portfolio_count == 15
            and abs(stats.mean_return - 0.18) <= 1e-12
            and abs(stats.median_return - 0.10) <= 1e-12
            and abs(below / stats.portfolio_count - 10.0 / 15.0) <= 1e-12,
        )
    code = main(["demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "portfolios=15 mean=0.180000 median=0.100000 under_fraction=0.666667" in out


def test_criterion_2_calibration(reference_target, capsys):
    mu_hat, sigma_hat = calibrate(reference_target)
    with capsys.disabled():
        check(
            2,
            "calibration: mu_hat 0.0390620 +/- 1e-6, sigma_hat 0.1296627 +/- 1e-6, rounds to 4%/13%",
            abs(mu_hat - 0.0390620) <= 1e-6
            and abs(sigma_hat - 0.1296627) <= 1e-6
            and round(mu_hat * 100) == 4
            and round(sigma_hat * 100) == 13,
        )


def test_criterion_3_closed_form_round_trip(reference_params, capsys):
    summary = summarize(reference_params)
    expected = expected_index_value(reference_params)
    median = median_stock_value(reference_params)
    factor = underperformance_factor(reference_params)
    with capsys.disabled():
        check(
            3,
            "closed forms: expected 1.5 and median 1.1 (rel 1e-12), factor = 1.5/1.1 identity",
            abs(expected - 1.5) <= 1.5e-12
            and abs(median - 1.1) <= 1.1e-12
            and abs(factor - expected / median) <= factor * 1e-12
            and abs(factor - 1.5 / 1.1) <= factor * 1e-12
            and summary.expected_index_value == expected,
        )


def test_criterion_4_clt_index_mean(reference_params, capsys):
    universes = 2000
    total = 0.0
    for t in range(universes):
        seed = SeedSpec(4242, t * STREAM_STRIDE)
        total += index_value(draw_universe(reference_params, seed))
    mean = total / universes
    with capsys.disabled():
        check(
            4,
            f"index mean over {universes} fresh universes within 1% of 1.5 (got {mean:.4f})",
            abs(mean - 1.5) <= 0.015,
        )


def test_criterion_5_monte_carlo_vs_analytic_oracle(paper_csv_runs, capsys):
    report = parse_csv(paper_csv_runs[0])
    over50 = report.row_for(1, 0.5, 0.5).over_freq
    over70 = report.row_for(1, 0.7, 0.3).over_freq
    under30 = report.row_for(1, 0.7, 0.3).under_freq
    with capsys.disabled():
        check(
            5,
            "k=1 frequencies within 0.015 of analytic tails: "
            f"over50 {over50:.4f} (0.3469), over70 {over70:.4f} (0.2902), under30 {under30:.4f} (0.5840)",
            abs(over50 - 0.3469) <= 0.015
            and abs(over70 - 0.2902) <= 0.015
            and abs(under30 - 0.5840) <= 0.015,
        )


def test_criterion_6_dominance_structure(paper_csv_runs, reference_params, capsys):
    report = parse_csv(paper_csv_runs[0])
    dominated = True
    for k in ExperimentConfig.sizes:
        row = report.row_for(k, 0.70, 0.30)
        gap = row.under_freq - row.over_freq
        if gap <= 5.0 * gap_standard_error(row):
            dominated = False
    wide = run_experiment(
        ExperimentConfig(
            params=reference_params,
            sizes=(1, 100),
            benchmarks=((0.70, 0.30),),
            trials_per_size=10_000,
            master_seed=42,
        )
    )
    gap_1 = wide.row_for(1, 0.70, 0.30).under_freq - wide.row_for(1, 0.70, 0.30).over_freq
    gap_100 = wide.row_for(100, 0.70, 0.30).under_freq - wide.row_for(100, 0.70, 0.30).over_freq
    with capsys.disabled():
        check(
            6,
            "(0.70, 0.30): under > over by 5 SE at every default-grid size, and "
            f"gap(k=1)={gap_1:.4f} exceeds gap(k=100)={gap_100:.4f}",
            dominated and gap_1 > gap_100,
        )


def test_criterion_7_subset_mean_identity(capsys):
    rng = np.random.default_rng(1789)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        index = DeterministicIndex(tuple(rng.lognormal(0.05, 0.6, size=n)))
        target = index.mean_return()
        for k in range(1, n + 1):
            stats = enumerate_portfolios(index, {k})
            worst = max(worst, abs(stats.mean_return - target) / max(abs(target), 1e-30))
    with capsys.disabled():
        check(
            7,
            f"subset-mean identity over 100 random universes, all k (worst rel err {worst:.2e})",
            worst <= 1e-12,
        )


def test_criterion_8_oracle_equivalence(capsys):
    rng = np.random.default_rng(55)
    values = tuple(rng.lognormal(0.1, 0.6, size=10))
    index = DeterministicIndex(values)
    benchmark = index.mean_return()
    trials = 10_000
    ok = True
    details = []
    for k in (1, 2, 3):
        stats = enumerate_portfolios(index, {k})
        below_exact, _, _ = stats.compare(benchmark)
        p = below_exact / stats.portfolio_count
        below, _, _ = subset_frequencies(values, k, trials, benchmark, master_seed=42)
        se = math.sqrt(p * (1.0 - p) / trials)
        ok = ok and abs(below / trials - p) <= 5.0 * se
        details.append(f"k={k}: {below / trials:.4f} vs exact {p:.4f}")
    with capsys.disabled():
        check(8, "fixed-universe sampling matches enumeration within 5 SE (" + "; ".join(details) + ")", ok)


def test_criterion_9_byte_identical_reproduction(paper_csv_runs, capsys):
    a, b, c = paper_csv_runs
    with capsys.disabled():
        check(
            9,
            "reference simulation byte-identical across repeat runs and 1 vs 8 workers",
            a == b == c and len(a) > 0,
        )



def test_paper_default_csv_bytes_pinned(paper_csv_runs):
    # Any change to the streams, the trial engine or the CSV format shows here.
    digest = hashlib.sha256(paper_csv_runs[0]).hexdigest()
    assert digest == "e8f0bf9860e794bb381d4ef096a343c87bc6990da1ce14a75558e262723ad839"
    assert emit_csv(parse_csv(paper_csv_runs[0])) == paper_csv_runs[0]


# One paper-default stock's gross value is lognormal with log-mean ln 1.1
# (the 10% median) and log-variance 2 * (ln 1.5 - ln 1.1) (the 50% mean).
STOCK_LOG_MEAN = math.log(1.1)
STOCK_LOG_SD = math.sqrt(2.0 * (math.log(1.5) - STOCK_LOG_MEAN))
# the fixed gate's one-stock grid: cells of 1e-3 up to exp(m + 5.5 sqrt(v))
FINE_STEP = 1e-3
FINE_CELLS = math.ceil(math.exp(STOCK_LOG_MEAN + 5.5 * STOCK_LOG_SD) / FINE_STEP)


def cell_sum_law(count: int, h: float, cells: int, length: int) -> np.ndarray:
    """Law of J, the sum of ``count`` stocks' cell indices, by an FFT of ``length``.

    One stock's law is cut into cells [i*h, (i+1)*h) for i < ``cells``; the
    mass past the last cell is left out.  Sums of ``length`` cells or more
    wrap around, so ``length`` must exceed every sum of non-negligible mass.
    """
    edges = np.arange(1, cells + 1) * h
    cdf = np.concatenate(([0.0], ndtr((np.log(edges) - STOCK_LOG_MEAN) / STOCK_LOG_SD)))
    return np.clip(np.fft.irfft(np.fft.rfft(np.diff(cdf), length) ** count, length), 0.0, None)


@lru_cache(maxsize=None)
def fine_survival(k: int) -> np.ndarray:
    """survival[j] = P(J >= j, every stock on the grid) for k stocks on the fine grid, 0 past the top."""
    law = cell_sum_law(k, FINE_STEP, FINE_CELLS, 1 << (k * FINE_CELLS).bit_length())
    return np.append(np.cumsum(law[::-1])[::-1], 0.0)


def exact_over_brackets(k: int, thresholds) -> dict:
    """Rigorous [low, high] brackets of P(sum of k paper-default stocks > k * threshold).

    The k-fold law of the fine grid's cell indices J is ``fine_survival``'s.
    The sum lies in [h*J, h*J + k*h), which gives the two ends; the mass
    past the grid top counts as uncertain, and both ends are widened by 1e-9
    for FFT rounding.  Each threshold times 1/h must be an integer.
    """
    h = FINE_STEP
    tail = ndtr((STOCK_LOG_MEAN - math.log(FINE_CELLS * h)) / STOCK_LOG_SD)
    survival = fine_survival(k)
    brackets = {}
    for threshold in thresholds:
        # S > top * h is certain once h * J > top * h, and possible once h * J + k * h > top * h
        top = k * round(threshold / h)
        low = survival[top + 1]
        high = survival[top - k + 1] + 1.0 - (1.0 - tail) ** k
        brackets[threshold] = (low - 1e-9, high + 1e-9)
    return brackets


# the coarse grid of the n - k stocks that realized mode does not pick:
# 2**18 cells of 1e-2 cover sums up to 2,621, and one stock passes 1,750
# with probability below 1e-20
COARSE_STEP = 1e-2
COARSE_CELLS = 1 << 18


@lru_cache(maxsize=None)
def coarse_law(count: int) -> np.ndarray:
    """Law of the cell indices of the sum of ``count`` stocks on the coarse grid."""
    return cell_sum_law(count, COARSE_STEP, COARSE_CELLS, COARSE_CELLS)


def realized_over_estimate(k: int, n: int, b: float) -> float:
    """Midpoint estimate, not a bracket, of P(P > R + b) for P and R independent.

    P is the mean of k picked stocks and R the mean of the other n - k.
    Each cell sits at its midpoint, so a sum with cell index J is
    (J + count/2) * h: R's masses are summed against the survival of the
    picked sum at k * (R + b).
    """
    picked, rest = fine_survival(k), coarse_law(n - k)
    r = (np.arange(rest.size) + (n - k) / 2) * COARSE_STEP / (n - k)
    # the first picked cell index whose midpoint sum exceeds k * (r + b)
    first = np.floor(k * (r + b) / FINE_STEP - k / 2).astype(np.int64) + 1
    return float(rest @ picked[np.clip(first, 0, picked.size - 1)])


def exact_frequency_bounds(report, params, mode: str) -> dict:
    """{row: ((over_low, over_high), (under_low, under_high))} under the exact law.

    Fixed mode gives ``exact_over_brackets``; realized mode gives the
    midpoint estimate at both ends.  A trial of realized mode is over
    threshold t iff P > R + c * n / (n - k) with c = t - (E - 1), and under
    is one minus over at the under threshold, since ties have probability 0.
    """
    n, excess = params.n_stocks, expected_index_value(params) - 1.0
    bounds = {}
    for row in report.rows:
        k, thresholds = row.size, (row.over_threshold, row.under_threshold)
        if mode == "fixed-benchmark":
            brackets = exact_over_brackets(k, {1.0 + t for t in thresholds})
            over, over_under = (brackets[1.0 + t] for t in thresholds)
        else:
            over, over_under = ((estimate, estimate) for estimate in (
                realized_over_estimate(k, n, (t - excess) * n / (n - k)) for t in thresholds))
        bounds[row] = (over, (1.0 - over_under[1], 1.0 - over_under[0]))
    return bounds


def assert_within_four_half_widths(report, params, mode: str) -> None:
    """Every over and under frequency lies within four Wilson half-widths of the exact law."""
    for row, (over, under) in exact_frequency_bounds(report, params, mode).items():
        for freq, ci, (low, high) in ((row.over_freq, row.over_ci, over),
                                      (row.under_freq, row.under_ci, under)):
            assert low - 4 * ci <= freq <= high + 4 * ci, (row, low, high)


def test_paper_csv_matches_the_exact_law(paper_csv_runs, reference_params):
    # A check that needs no stream layout: each frequency lies within four of
    # its Wilson half-widths of the FFT bracket, and at k=1 the brackets hold
    # the closed-form tails.
    report = parse_csv(paper_csv_runs[0])
    assert len(report.rows) == 12
    assert_within_four_half_widths(report, reference_params, "fixed-benchmark")
    for threshold, (low, high) in exact_over_brackets(1, (1.5, 1.7)).items():
        assert low <= tail_probability(reference_params, threshold, "above") <= high


# P(one stock beats the expected index return) by (median, expected) target: the README's k = 1 table
K1_TABLE = {
    (0.05, 0.30): 0.3719, (0.05, 0.50): 0.3364, (0.05, 0.70): 0.3118,
    (0.10, 0.30): 0.3863, (0.10, 0.50): 0.3469, (0.10, 0.70): 0.3204,
    (0.15, 0.30): 0.4022, (0.15, 0.50): 0.3577, (0.15, 0.70): 0.3292,
}


def test_the_table_depends_on_the_targets_alone(reference_params):
    # A stock's log law is (ln(1 + M), 2 ln((1 + E) / (1 + M))) whatever the
    # volatility and the horizon, so they drop out of every frequency.
    def calibrated(median, expected, sigma):
        mu_hat, sigma_hat = calibrate(CalibrationTarget(median, expected, sigma, 5.0))
        return ModelParams(500, 5.0, sigma, mu_hat, sigma_hat)

    m, v = stock_log_law(reference_params)
    for sigma in (0.1, 0.3):
        other_m, other_v = stock_log_law(calibrated(0.10, 0.50, sigma))
        assert abs(other_m - m) <= 1e-12 and abs(other_v - v) <= 1e-12
    params = calibrated(0.10, 0.50, 0.3)
    for mode in ("fixed-benchmark", "realized-index"):
        report = run_experiment(ExperimentConfig(params, trials_per_size=2_000, mode=mode), workers=2)
        assert_within_four_half_widths(report, params, mode)
    for (median, expected), rounded in K1_TABLE.items():
        beats = tail_probability(calibrated(median, expected, 0.2), 1.0 + expected, "above")
        assert abs(beats - ndtr(-math.sqrt(2.0 * math.log((1.0 + expected) / (1.0 + median))) / 2.0)) <= 1e-12
        assert round(beats, 4) == rounded


@pytest.fixture(scope="module")
def realized_csv(tmp_path_factory):
    """The paper-default realized-index run at seed 42, on 2 workers."""
    path = tmp_path_factory.mktemp("realized") / "r.csv"
    code = main(["simulate", "--paper-defaults", "--mode", "realized-index", "--seed", "42",
                 "--workers", "2", "--out", str(path)])
    assert code == 0
    return path.read_bytes()


def test_realized_csv_bytes_pinned(realized_csv):
    # a serial run gives these same bytes
    digest = hashlib.sha256(realized_csv).hexdigest()
    assert digest == "8398e534e972b3aab3eaec0cc0eb52f55651894acadc1f561b62d1a22ad43684"
    assert emit_csv(parse_csv(realized_csv)) == realized_csv


def test_realized_csv_matches_the_exact_law(realized_csv, reference_params):
    # The layout-free check of realized mode: each of the 24 frequencies lies
    # within four of its Wilson half-widths of the midpoint estimate.
    report = parse_csv(realized_csv)
    assert len(report.rows) == 12
    assert_within_four_half_widths(report, reference_params, "realized-index")


def test_realized_estimate_is_symmetric():
    # with b = 0, "k picked beat the other n - k" and its swap split the whole law
    for k in (1, 5, 10):
        total = realized_over_estimate(k, 40, 0.0) + realized_over_estimate(40 - k, 40, 0.0)
        assert abs(total - 1.0) <= 1e-3, (k, total)


GOLDEN_500_TRIALS = {
    "r.csv": "fb16d3812d9a0be9b8e608537a669d0a4feeb02d49c79445245b2ca5a7f47e3c",
    "r.csv.config": "c5e3c5a28b705a65b0330eac420ef455bad085f4316fbae4fa07bb2adb8747ef",
    "r.svg": "d2d15edd3297c9e7a75f0b6d68613610537cf547ed83c06578033fa031d11d83",
}

GOLDEN_500_TRIALS_REALIZED = {
    "r.csv": "4f09d1400f37b438228dad3a191f8b75fce8ff5a80ed162261b03a8eab3d0288",
    "r.csv.config": "a00edd41163eec389d28d2f9b9167661c08652bf9ecfd730687f0e1b553fc677",
    "r.svg": "900c316bd3ba0b3f0772b8843d590dd6b38f0458de0a7c7e64b49b9c1434b464",
}


@pytest.mark.parametrize(
    "model_flags, transform",
    [
        pytest.param(["--paper-defaults"], "scipy", id="model_flags0"),
        pytest.param(["--median", "0.10", "--expected", "0.50"], "scipy", id="model_flags1"),
        pytest.param(["--paper-defaults", "--mode", "realized-index"], "scipy", id="model_flags2"),
        pytest.param(["--paper-defaults"], "port", id="port-fixed-benchmark"),
        pytest.param(["--paper-defaults", "--mode", "realized-index"], "port", id="port-realized-index"),
    ],
)
def test_paper_default_golden_bytes(tmp_path, capsys, monkeypatch, reference_params, model_flags, transform):
    # --paper-defaults only sets the two calibration targets, so both spellings
    # must give the pinned CSV, sidecar and SVG bytes; realized-index mode has
    # its own pins.  Each run's CSV also lies within the exact law.  The
    # in-module ndtri, which runs below SCIPY_VARIATES, must give the same pins.
    if transform == "port":
        monkeypatch.setattr(model, "_ndtri", lambda count: _cephes_ndtri)
    mode = "realized-index" if "realized-index" in model_flags else "fixed-benchmark"
    golden = GOLDEN_500_TRIALS_REALIZED if mode == "realized-index" else GOLDEN_500_TRIALS
    code = main(["simulate", *model_flags, "--trials", "500", "--seed", "42",
                 "--out", str(tmp_path / "r.csv"), "--svg", str(tmp_path / "r.svg")])
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in golden}
    assert digests == golden
    data = (tmp_path / "r.csv").read_bytes()
    assert emit_csv(parse_csv(data)) == data
    assert_within_four_half_widths(parse_csv(data), reference_params, mode)


def test_criterion_10_skewness(reference_params, capsys):
    reference_skew = skew(draw_universe(replace(reference_params, n_stocks=100_000), SeedSpec(10, 0)))
    degenerate = ModelParams(n_stocks=1000, horizon=5.0, sigma=0.0, mu_hat=0.04, sigma_hat=0.0)
    with warnings.catch_warnings():
        # scipy warns of precision loss on a constant sample, then returns nan
        warnings.simplefilter("ignore", RuntimeWarning)
        degenerate_skew = skew(draw_universe(degenerate, SeedSpec(10, 0)))
    with capsys.disabled():
        check(
            10,
            f"terminal-value skewness positive at reference calibration ({reference_skew:.2f}), "
            "undefined for the degenerate universe",
            reference_skew > 0 and math.isnan(degenerate_skew),
        )
