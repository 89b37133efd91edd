"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the heavyweight reference simulation is shared across criteria.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.stats import skew

from indexsim import (
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
    subset_frequencies,
    summarize,
    underperformance_factor,
)
from indexsim.cli import main
from indexsim.model import STREAM_STRIDE
from indexsim.report import parse_csv


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

def test_criterion_10_skewness(reference_params, capsys):
    params = ModelParams(
        n_stocks=100_000,
        horizon=reference_params.horizon,
        sigma=reference_params.sigma,
        mu_hat=reference_params.mu_hat,
        sigma_hat=reference_params.sigma_hat,
    )
    reference_skew = skew(draw_universe(params, SeedSpec(10, 0)))
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
