"""Command-line front end.

Subcommands:
    calibrate   solve for the drift distribution hitting target returns
    analytic    print the closed-form index/median/factor quantities
    demo        exact five-stock worked example (one big winner)
    enumerate   exhaustive subset statistics for a given value list
    simulate    Monte Carlo frequency experiment, CSV (and SVG) output

Each value option of each subcommand is one row of the setting tables
below; ``calibrate`` reads four of the model rows, with the same flags and
defaults as ``analytic``.  ``main`` resolves the chosen command's rows once,
hands the values to its handler and writes the lines it returns.  A setting
takes its value from, highest precedence first: a flag, a ``key = value``
config file (simulate --config), the default.  The model is given by both
drift rows or both targets, never by a mix; when no drift is given,
--paper-defaults fills each target left unset with its published value.
Every simulate run writes a ``<out>.config`` sidecar echoing the effective
configuration; ``--config <sidecar>`` reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional

from .analytic import CalibrationTarget, calibrate, summarize
from .enumeration import DeterministicIndex, enumerate_portfolios
from .model import ModelParams
from .montecarlo import MODES, ExperimentConfig, run_experiment
from .report import check_destinations, emit_csv, emit_svg_chart, write_all

# One 50% winner hiding among four 10% stocks; picks of one or two stocks.
FIVE_STOCK_VALUES = (1.1, 1.1, 1.1, 1.1, 1.5)
FIVE_STOCK_SIZES = (1, 2)


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
    """``full`` (None: lossless) or 0 to 1074 CSV decimal places, where every float's expansion ends."""
    digits = None if text == "full" else int(text)
    if digits is not None and not 0 <= digits <= 1074:
        raise ValueError(f"expected 'full' or an integer from 0 to 1074, got {text!r}")
    return digits


def _parse_sampling(text: str) -> str:
    # One scheme exists; the key stays so that stored sidecars still reload.
    if text != "fresh-universe":
        raise ValueError(f"the only sampling scheme is fresh-universe, got {text!r}")
    return text


@dataclass(frozen=True)
class Setting:
    """One setting; ``name`` is its config-file key, ``echo`` its sidecar format (None: not echoed)."""

    name: str
    flag: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    echo: Optional[Callable[[Any], str]] = None


_MODEL_SETTINGS = (
    Setting("n_stocks", "--n", int, 500, "number of stocks in the index", str),
    Setting("horizon", "--horizon", float, 5.0, "horizon in years", str),
    Setting("sigma", "--sigma", float, 0.2, "annual stock volatility", str),
    Setting("mu_hat", "--mu-hat", float, None, "mean of the drift distribution", str),
    Setting("sigma_hat", "--sigma-hat", float, None, "std dev of the drift distribution", str),
    Setting("median", "--median", float, None, "target median net return (calibrates the drifts)"),
    Setting("expected", "--expected", float, None, "target expected net return (calibrates the drifts)"),
)

# what --paper-defaults fills; the rest of the paper's setup is the default
_PAPER_TARGETS = {"median": 0.10, "expected": 0.50}

_CALIBRATE_SETTINGS = tuple(
    s for s in _MODEL_SETTINGS if s.name in ("horizon", "sigma", "median", "expected")
)

# ExperimentConfig is where the defaults of the run settings are written.
_RUN_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

_RUN_SETTINGS = (
    Setting("sizes", "--sizes", _parse_sizes, _RUN_DEFAULTS["sizes"], "comma-separated subset sizes",
            lambda sizes: ",".join(str(k) for k in sizes)),
    Setting("trials", "--trials", int, _RUN_DEFAULTS["trials_per_size"],
            "trials per (size, benchmark) cell", str),
    Setting("benchmarks", "--benchmarks", _parse_benchmarks, _RUN_DEFAULTS["benchmarks"],
            "comma-separated over:under pairs, e.g. 0.5:0.5,0.7:0.3",
            lambda pairs: ",".join(f"{over!r}:{under!r}" for over, under in pairs)),
    Setting("mode", "--mode", str, _RUN_DEFAULTS["mode"], f"comparison mode: {' or '.join(MODES)}",
            str),
    Setting("sampling", "--sampling", _parse_sampling, "fresh-universe", "sampling scheme", str),
    Setting("seed", "--seed", int, _RUN_DEFAULTS["master_seed"], "master seed", str),
    Setting("workers", "--workers", int, 1, "worker processes"),
    Setting("out", "--out", str, "frequency_report.csv", "CSV output path"),
    Setting("svg", "--svg", str, None, "also write an SVG chart to this path"),
    Setting("precision", "--precision", _parse_precision, 6, "CSV decimal places, or 'full'",
            lambda digits: "full" if digits is None else str(digits)),
)

_SIMULATE_SETTINGS = _MODEL_SETTINGS + _RUN_SETTINGS

# --values and --sizes have no default, since _cmd_enumerate requires both; demo takes the rest
_ENUMERATE_SETTINGS = (
    Setting("values", "--values", lambda text: tuple(float(v) for v in text.split(",") if v.strip()),
            None, "comma-separated gross terminal values"),
    Setting("sizes", "--sizes", _parse_sizes, None, "comma-separated subset sizes"),
    Setting("benchmark", "--benchmark", float, None, "net return benchmark (default: index mean return)"),
)


def load_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file of unique keys; a '#' that opens a word starts a comment.

    An unreadable file is a configuration error, so it raises ValueError.
    """
    entries = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


def _resolve(settings, args: argparse.Namespace) -> dict[str, Any]:
    """The parsed options, with each setting's value taken from the first source that gives one."""
    values = dict(vars(args))
    file_values = load_config_file(values["config"]) if values.get("config") else {}
    unknown = sorted(set(file_values) - {s.name for s in settings})
    if unknown:
        raise ValueError(f"unknown config file keys: {', '.join(unknown)}")
    for s in settings:
        sources = ((s.flag, values[s.name]), ("the config file", file_values.get(s.name)))
        source, raw = next(((src, raw) for src, raw in sources if raw is not None), ("", None))
        try:
            values[s.name] = s.default if raw is None else s.parse(raw)
        except ValueError as exc:
            raise ValueError(f"invalid {s.name} from {source}: {exc}") from None
    return values


def _calibration_target(values: dict[str, Any]) -> CalibrationTarget:
    """The target of the median, expected, sigma and horizon settings; ValueError if one is unset."""
    if values["paper_defaults"]:  # the published value of each target still unset
        values = {**values, **{name: v for name, v in _PAPER_TARGETS.items() if values[name] is None}}
    if values["median"] is None or values["expected"] is None:
        drifts = "--mu-hat and --sigma-hat, or " if "mu_hat" in values else ""
        raise ValueError(
            f"model is underspecified: give {drifts}--median and --expected (or --paper-defaults)"
        )
    return CalibrationTarget(
        median_return=values["median"], expected_return=values["expected"],
        sigma=values["sigma"], horizon=values["horizon"],
    )


def _model_params(values: dict[str, Any]) -> ModelParams:
    """The model of both drift rows, or of both targets; ValueError for any other mix of the four."""
    mu_hat, sigma_hat = values["mu_hat"], values["sigma_hat"]
    if (mu_hat is None) != (sigma_hat is None):
        given = "mu_hat" if sigma_hat is None else "sigma_hat"
        raise ValueError(f"mu_hat and sigma_hat are given together or not at all; only {given} is given")
    if mu_hat is None:
        mu_hat, sigma_hat = calibrate(_calibration_target(values))
    elif values["median"] is not None or values["expected"] is not None:
        raise ValueError("median and expected calibrate mu_hat and sigma_hat, "
                         "so neither is given beside them")
    return ModelParams(
        n_stocks=values["n_stocks"], horizon=values["horizon"], sigma=values["sigma"],
        mu_hat=float(mu_hat), sigma_hat=float(sigma_hat),
    )


def _cmd_calibrate(values: dict[str, Any]) -> list[str]:
    mu_hat, sigma_hat = calibrate(_calibration_target(values))
    return [f"mu_hat    = {mu_hat:.10f}  (~ {round(mu_hat * 100):d}%)",
            f"sigma_hat = {sigma_hat:.10f}  (~ {round(sigma_hat * 100):d}%)"]


def _cmd_analytic(values: dict[str, Any]) -> list[str]:
    summary = asdict(summarize(_model_params(values)))
    if values["json"]:
        return [json.dumps(summary, sort_keys=True)]
    return [f"{name} = {value:.6f}" for name, value in summary.items()]


def _subset_stats(index: DeterministicIndex, sizes, benchmark: Optional[float], *preamble) -> list[str]:
    """The return histogram of the index's subsets of the given sizes and their split
    around the benchmark, which defaults to the index mean return."""
    if benchmark is None:
        benchmark = index.mean_return()
    try:
        stats = enumerate_portfolios(index, sizes)
    except OverflowError as exc:
        raise ValueError("a subset sum overflows a float") from exc
    # the split comes first, so a benchmark that compare rejects prints nothing
    below, equal, above = stats.compare(benchmark)
    lines = [*preamble, "return    count"]
    lines += [f"{value:.6f}  {count}" for value, count in zip(stats.returns.tolist(), stats.counts.tolist())]
    lines += [f"benchmark={benchmark:.6f} below={below} equal={equal} above={above}",
              f"portfolios={stats.portfolio_count} mean={stats.mean_return:.6f} "
              f"median={stats.median_return:.6f} under_fraction={below / stats.portfolio_count:.6f}"]
    return lines


def _cmd_demo(values: dict[str, Any]) -> list[str]:
    index = DeterministicIndex(FIVE_STOCK_VALUES)
    return _subset_stats(
        index, FIVE_STOCK_SIZES, values["benchmark"],
        "gross values: " + " ".join(f"{v:.2f}" for v in index.gross_values),
        "subset sizes: " + " ".join(str(k) for k in FIVE_STOCK_SIZES),
    )


def _cmd_enumerate(values: dict[str, Any]) -> list[str]:
    if values["values"] is None or values["sizes"] is None:
        raise ValueError("enumerate needs --values and --sizes")
    return _subset_stats(DeterministicIndex(values["values"]), values["sizes"], values["benchmark"])


def _cmd_simulate(values: dict[str, Any]) -> list[str]:
    params = _model_params(values)
    # The sidecar records the calibrated drifts, so reloading it skips calibration.
    values.update(mu_hat=params.mu_hat, sigma_hat=params.sigma_hat)
    config = ExperimentConfig(
        params=params, sizes=values["sizes"], trials_per_size=values["trials"],
        benchmarks=values["benchmarks"], mode=values["mode"], master_seed=values["seed"],
    )
    effective = "\n".join(
        ["# effective configuration"]
        + [f"{s.name} = {s.echo(values[s.name])}" for s in _SIMULATE_SETTINGS if s.echo]
    ) + "\n"
    out_path = Path(values["out"])
    destinations = [(out_path, "CSV"), (Path(f"{out_path}.config"), "config echo")]
    if values["svg"] is not None:
        destinations.append((Path(values["svg"]), "SVG"))
    check_destinations(destinations)

    report = run_experiment(config, workers=values["workers"])
    payloads = [emit_csv(report, precision=values["precision"]), effective.encode("utf-8")]
    if values["svg"] is not None:
        payloads.append(emit_svg_chart(report, description=effective).encode("utf-8"))
    write_all([(path, what, data) for (path, what), data in zip(destinations, payloads)])

    return [
        f"k={row.size} over>{row.over_threshold:.2f}: {row.over_freq:.4f} "
        f"(+/- {row.over_ci:.4f})  under<{row.under_threshold:.2f}: "
        f"{row.under_freq:.4f} (+/- {row.under_ci:.4f})"
        for row in report.rows
    ] + [f"wrote {path}" for path, _ in destinations]


# name: (help, settings, handler) of each subcommand
_COMMANDS = {
    "calibrate": ("solve for mu_hat and sigma_hat from target returns", _CALIBRATE_SETTINGS, _cmd_calibrate),
    "analytic": ("closed-form index, median and skew quantities", _MODEL_SETTINGS, _cmd_analytic),
    "demo": ("exact five-stock worked example", _ENUMERATE_SETTINGS[2:], _cmd_demo),
    "enumerate": ("exhaustive subset statistics for a value list", _ENUMERATE_SETTINGS, _cmd_enumerate),
    "simulate": ("Monte Carlo over/under frequency experiment", _SIMULATE_SETTINGS, _cmd_simulate),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """Flags leave their setting unset (None) unless given.

    Every subcommand is registered, so the usage line and its errors name
    them all, but only the command named ``only`` gets its arguments: a run
    parses one command, and adding every command's arguments costs more
    than the parse.
    """
    parser = argparse.ArgumentParser(
        prog="indexsim",
        description="Drift-mixture GBM index simulation and subset-picking experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, settings, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        if name != only:
            continue
        if any(s.name in _PAPER_TARGETS for s in settings):
            # a flag only, so a config file or sidecar never holds it
            command.add_argument("--paper-defaults", action="store_true",
                                 help="calibrate to the published 10%% median and 50%% expected "
                                      "return; the other published values are the defaults")
        for s in settings:
            shown = s.echo(s.default) if s.echo else s.default
            command.add_argument(s.flag, dest=s.name,
                                 help=s.help if s.default is None else f"{s.help} (default {shown})")
        if name == "analytic":
            command.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
        if name == "simulate":
            command.add_argument("--config", help="flat key = value config file; flags override it")
    return parser


def main(argv=None) -> int:
    """Run one subcommand, write its stdout, and return its exit code.

    0 success, 2 usage or configuration error, 3 output I/O failure, 4 the
    run ran out of memory or a worker process died, 130 interrupted, each
    with one ``error:`` line; 141 (128 + SIGPIPE) and no error line when the
    reader closes stdout first.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, settings, handler = _COMMANDS[args.command]
    try:
        # a million histogram lines go out in one write, not one print call each
        text = "\n".join(handler(_resolve(settings, args))) + "\n"
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # as in the Python docs' note on SIGPIPE, so that the final flush stays silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except BrokenExecutor:
        print("error: a worker process died before its trials finished", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
