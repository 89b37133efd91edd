"""Command-line front end.

Subcommands:
    calibrate   solve for the drift distribution hitting target returns
    analytic    print the closed-form index/median/factor quantities
    demo        exact five-stock worked example (one big winner)
    enumerate   exhaustive subset statistics for a given value list
    simulate    Monte Carlo frequency experiment, CSV (and SVG) output

Each ``analytic``/``simulate`` setting is one row of the tables below.  A
setting takes its value from, highest precedence first: a flag, a
``key = value`` config file (simulate --config), --paper-defaults, an
environment variable (seed only: INDEXSIM_SEED), the default.  Every
simulate run writes a ``<out>.config`` sidecar echoing the effective
configuration; ``--config <sidecar>`` reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from .analytic import (
    CalibrationError,
    CalibrationTarget,
    calibrate,
    summarize,
)
from .enumeration import (
    DEFAULT_ENUMERATION_CAP,
    DeterministicIndex,
    EnumerationCapError,
    enumerate_portfolios,
)
from .model import ModelParams
from .montecarlo import (
    DEFAULT_BENCHMARKS,
    DEFAULT_SIZE_GRID,
    DEFAULT_TRIALS,
    MODES,
    SAMPLINGS,
    ExperimentConfig,
    run_experiment,
)
from .report import emit_csv, emit_svg_chart

# One 50% winner hiding among four 10% stocks; picks of one or two stocks.
FIVE_STOCK_VALUES = (1.1, 1.1, 1.1, 1.1, 1.5)
FIVE_STOCK_SIZES = (1, 2)

# What --paper-defaults changes; every other value of the paper's setup is
# the built-in default.
PAPER_TARGETS = {"median": "0.10", "expected": "0.50"}


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ValueError(f"invalid sizes list: {text!r}") from None


def _parse_benchmarks(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        over, sep, under = part.partition(":")
        if not sep:
            raise ValueError(f"benchmark pair must look like over:under, got {part!r}")
        pairs.append((float(over), float(under)))
    return tuple(pairs)


def _parse_precision(text: str) -> Optional[int]:
    """``full`` (None: lossless) or a number of CSV decimal places."""
    digits = None if text == "full" else int(text)
    if digits is not None and digits < 0:
        raise ValueError(f"expected 'full' or an integer >= 0, got {text!r}")
    return digits


def _parse_switch(text: str) -> bool:
    value = text.lower()
    if value not in ("true", "false", "1", "0"):
        raise ValueError(f"expected true, false, 1 or 0, got {text!r}")
    return value in ("true", "1")


@dataclass(frozen=True)
class Setting:
    """One setting; ``name`` is its config-file key, ``echo`` its sidecar format (None: not echoed)."""

    name: str
    flag: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    echo: Optional[Callable[[Any], str]] = None
    choices: Optional[tuple[str, ...]] = None
    env: Optional[str] = None


_MODEL_SETTINGS = (
    # First, because whether the median and expected rows fall back to
    # PAPER_TARGETS depends on it.
    Setting("paper_defaults", "--paper-defaults", _parse_switch, False,
            "calibrate to the published 10%% median and 50%% expected return; "
            "the other published values are the defaults"),
    Setting("n_stocks", "--n", int, 500, "number of stocks in the index", str),
    Setting("horizon", "--horizon", float, 5.0, "horizon in years", str),
    Setting("sigma", "--sigma", float, 0.2, "annual stock volatility", str),
    Setting("mu_hat", "--mu-hat", float, None, "mean of the drift distribution", str),
    Setting("sigma_hat", "--sigma-hat", float, None, "std dev of the drift distribution", str),
    Setting("median", "--median", float, None, "target median net return (calibrates the drifts)"),
    Setting("expected", "--expected", float, None,
            "target expected net return (calibrates the drifts)"),
)

_RUN_SETTINGS = (
    Setting("sizes", "--sizes", _parse_sizes, DEFAULT_SIZE_GRID, "comma-separated subset sizes",
            lambda sizes: ",".join(str(k) for k in sizes)),
    Setting("trials", "--trials", int, DEFAULT_TRIALS, "trials per (size, benchmark) cell", str),
    Setting("benchmarks", "--benchmarks", _parse_benchmarks, DEFAULT_BENCHMARKS,
            "comma-separated over:under pairs, e.g. 0.5:0.5,0.7:0.3",
            lambda pairs: ",".join(f"{over!r}:{under!r}" for over, under in pairs)),
    Setting("mode", "--mode", str, "fixed-benchmark", "comparison mode", str, choices=MODES),
    Setting("sampling", "--sampling", str, "fresh-universe", "sampling scheme", str,
            choices=SAMPLINGS),
    Setting("seed", "--seed", int, 42, "master seed", str, env="INDEXSIM_SEED"),
    Setting("workers", "--workers", int, 1, "worker processes"),
    Setting("out", "--out", str, "frequency_report.csv", "CSV output path"),
    Setting("svg", "--svg", str, None, "also write an SVG chart to this path"),
    Setting("precision", "--precision", _parse_precision, 6, "CSV decimal places, or 'full'",
            lambda digits: "full" if digits is None else str(digits)),
)

_SIMULATE_SETTINGS = _MODEL_SETTINGS + _RUN_SETTINGS


def load_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    entries = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        entries[key.strip()] = value.strip()
    return entries


def _resolve(settings, args: argparse.Namespace, file_values: dict[str, str]) -> dict[str, Any]:
    """The value of each setting from the first source that gives one."""
    values: dict[str, Any] = {}
    for s in settings:
        sources = (
            (s.flag, getattr(args, s.name)),
            ("the config file", file_values.get(s.name)),
            ("--paper-defaults", PAPER_TARGETS.get(s.name) if values.get("paper_defaults") else None),
            (s.env, os.environ.get(s.env) if s.env else None),
        )
        source, raw = next(((src, raw) for src, raw in sources if raw is not None), ("", None))
        try:
            values[s.name] = s.default if raw is None else s.parse(raw)
        except ValueError as exc:
            raise ValueError(f"invalid {s.name} from {source}: {exc}") from None
    return values


def _model_params(values: dict[str, Any]) -> ModelParams:
    mu_hat, sigma_hat = values["mu_hat"], values["sigma_hat"]
    if mu_hat is None or sigma_hat is None:
        if values["median"] is None or values["expected"] is None:
            raise ValueError(
                "model is underspecified: give --mu-hat and --sigma-hat, or "
                "--median and --expected (or --paper-defaults)"
            )
        target = CalibrationTarget(
            median_return=values["median"], expected_return=values["expected"],
            sigma=values["sigma"], horizon=values["horizon"],
        )
        mu_hat, sigma_hat = calibrate(target)
    return ModelParams(
        n_stocks=values["n_stocks"], horizon=values["horizon"], sigma=values["sigma"],
        mu_hat=float(mu_hat), sigma_hat=float(sigma_hat),
    )


def _cmd_calibrate(args: argparse.Namespace) -> int:
    target = CalibrationTarget(
        median_return=args.median, expected_return=args.expected,
        sigma=args.sigma, horizon=args.horizon,
    )
    mu_hat, sigma_hat = calibrate(target)
    print(f"mu_hat    = {mu_hat:.10f}  (~ {round(mu_hat * 100):d}%)")
    print(f"sigma_hat = {sigma_hat:.10f}  (~ {round(sigma_hat * 100):d}%)")
    return 0


def _cmd_analytic(args: argparse.Namespace) -> int:
    summary = asdict(summarize(_model_params(_resolve(_MODEL_SETTINGS, args, {}))))
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for name, value in summary.items():
            print(f"{name} = {value:.6f}")
    return 0


def _print_subset_stats(stats, benchmark: float) -> None:
    print("return    count")
    for value, count in stats.returns_histogram:
        print(f"{value:.6f}  {count}")
    below, equal, above = stats.benchmark_comparisons[benchmark]
    print(
        f"benchmark={benchmark:.6f} below={below} equal={equal} above={above}"
    )
    print(
        f"portfolios={stats.portfolio_count} "
        f"mean={stats.mean_return:.6f} "
        f"median={stats.median_return:.6f} "
        f"under_fraction={below / stats.portfolio_count:.6f}"
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    index = DeterministicIndex(FIVE_STOCK_VALUES)
    benchmark = float(args.benchmark)
    stats = enumerate_portfolios(index, FIVE_STOCK_SIZES, benchmarks=(benchmark,))
    print("gross values: " + " ".join(f"{v:.2f}" for v in index.gross_values))
    print("subset sizes: " + " ".join(str(k) for k in FIVE_STOCK_SIZES))
    _print_subset_stats(stats, benchmark)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    values = tuple(float(v) for v in args.values.split(",") if v.strip())
    index = DeterministicIndex(values)
    sizes = _parse_sizes(args.sizes)
    benchmark = float(args.benchmark) if args.benchmark is not None else index.mean_return()
    stats = enumerate_portfolios(index, sizes, benchmarks=(benchmark,), cap=args.cap)
    _print_subset_stats(stats, benchmark)
    return 0


def _write_all(outputs) -> None:
    """Write every (path, what, data) or none of them.

    Each payload goes to a temp file beside its destination; the temp files
    replace their targets only once every write has succeeded, and are
    removed if any write fails.
    """
    staged = []
    try:
        for n, (path, what, data) in enumerate(outputs):
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{n}.tmp")
            try:
                with open(tmp, "xb") as handle:
                    staged.append(tmp)
                    handle.write(data)
            except OSError as exc:
                raise OSError(f"failed to write {what} to {path}: {exc}") from exc
        for tmp, (path, _, _) in zip(staged, outputs):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _cmd_simulate(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - {s.name for s in _SIMULATE_SETTINGS})
    if unknown:
        raise ValueError(f"unknown config file keys: {', '.join(unknown)}")
    values = _resolve(_SIMULATE_SETTINGS, args, file_values)
    params = _model_params(values)
    # The sidecar records the calibrated drifts, so reloading it skips calibration.
    values.update(mu_hat=params.mu_hat, sigma_hat=params.sigma_hat)
    config = ExperimentConfig(
        params=params, sizes=values["sizes"], trials_per_size=values["trials"],
        benchmarks=values["benchmarks"], mode=values["mode"], sampling=values["sampling"],
        master_seed=values["seed"],
    )
    effective = "\n".join(
        ["# effective configuration"]
        + [f"{s.name} = {s.echo(values[s.name])}" for s in _SIMULATE_SETTINGS if s.echo]
    ) + "\n"
    out_path = Path(values["out"])
    svg_path = values["svg"]

    report = run_experiment(config, workers=values["workers"])
    sidecar = Path(str(out_path) + ".config")
    outputs = [
        (out_path, "CSV", emit_csv(report, precision=values["precision"])),
        (sidecar, "config echo", effective.encode("utf-8")),
    ]
    if svg_path is not None:
        svg = emit_svg_chart(report, description=effective)
        outputs.append((Path(svg_path), "SVG", svg.encode("utf-8")))
    _write_all(outputs)

    for row in report.rows:
        print(
            f"k={row.size} over>{row.over_threshold:.2f}: {row.over_freq:.4f} "
            f"(+/- {row.over_ci:.4f})  under<{row.under_threshold:.2f}: "
            f"{row.under_freq:.4f} (+/- {row.under_ci:.4f})"
        )
    print(f"wrote {out_path}")
    print(f"wrote {sidecar}")
    if svg_path is not None:
        print(f"wrote {svg_path}")
    return 0


def _add_setting_flags(parser: argparse.ArgumentParser, settings) -> None:
    """Flags leave their setting unset (None) unless given."""
    for s in settings:
        if s.parse is _parse_switch:
            parser.add_argument(s.flag, dest=s.name, action="store_const", const="true", help=s.help)
            continue
        shown = s.echo(s.default) if s.echo else s.default
        help_text = s.help if s.default is None else f"{s.help} (default {shown})"
        if s.env:
            help_text += f"; env {s.env} replaces the default"
        parser.add_argument(s.flag, dest=s.name, choices=s.choices, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexsim",
        description="Drift-mixture GBM index simulation and subset-picking experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="solve for mu_hat and sigma_hat from target returns")
    cal.add_argument("--median", type=float, required=True, help="target median net return")
    cal.add_argument("--expected", type=float, required=True, help="target expected net return")
    cal.add_argument("--sigma", type=float, required=True, help="annual stock volatility")
    cal.add_argument("--horizon", type=float, required=True, help="horizon in years")
    cal.set_defaults(handler=_cmd_calibrate)

    ana = sub.add_parser("analytic", help="closed-form index, median and skew quantities")
    _add_setting_flags(ana, _MODEL_SETTINGS)
    ana.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    ana.set_defaults(handler=_cmd_analytic)

    demo = sub.add_parser("demo", help="exact five-stock worked example")
    demo.add_argument("--benchmark", type=float, default=0.18, help="net return benchmark (default 0.18)")
    demo.set_defaults(handler=_cmd_demo)

    enu = sub.add_parser("enumerate", help="exhaustive subset statistics for a value list")
    enu.add_argument("--values", required=True, help="comma-separated gross terminal values")
    enu.add_argument("--sizes", required=True, help="comma-separated subset sizes")
    enu.add_argument("--benchmark", type=float, help="net return benchmark (default: index mean return)")
    enu.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="max subsets to enumerate")
    enu.set_defaults(handler=_cmd_enumerate)

    sim = sub.add_parser("simulate", help="Monte Carlo over/under frequency experiment")
    _add_setting_flags(sim, _MODEL_SETTINGS)
    sim.add_argument("--config", help="flat key = value config file; flags override it")
    _add_setting_flags(sim, _RUN_SETTINGS)
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CalibrationError, EnumerationCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
