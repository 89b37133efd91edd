"""Per-layer spans recorded from outside the indexsim package.

``Tracer`` replaces the public functions of each layer with wrappers that
record a ``time.perf_counter`` span (name, start, end, parent) and the work
counts seen at that boundary.  A wrapper is installed under every module
name that refers to the function, because ``montecarlo`` and ``cli`` import
these names with ``from .model import ...``; ``SeedSpec.generator`` is
patched on the class.  Leaving the ``with`` block restores every original.
Spans stay in memory and are reduced to metrics at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of each wrapped callable, named by its layer.
TARGETS = {
    "analytic.calibrate": ("indexsim.analytic", "calibrate"),
    "model.generator": ("indexsim.model", "SeedSpec.generator"),
    "model.standard_normals": ("indexsim.model", "standard_normals"),
    "model.draw_universe": ("indexsim.model", "draw_universe"),
    "model.index_value": ("indexsim.model", "index_value"),
    "montecarlo.run_experiment": ("indexsim.montecarlo", "run_experiment"),
    "montecarlo.run_trial": ("indexsim.montecarlo", "run_trial"),
    "montecarlo.pick_subset": ("indexsim.montecarlo", "pick_subset"),
    "montecarlo.subset_frequencies": ("indexsim.montecarlo", "subset_frequencies"),
    "enumeration.enumerate_portfolios": ("indexsim.enumeration", "enumerate_portfolios"),
    "report.emit_csv": ("indexsim.report", "emit_csv"),
    "report.emit_svg_chart": ("indexsim.report", "emit_svg_chart"),
}


def _arg(args, kwargs, position, name, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _count_normals(counts, args, kwargs, result):
    counts["model.variates"] += _arg(args, kwargs, 1, "count")


def _count_trial(counts, args, kwargs, result):
    # Variates that reach an output: the realized index needs the drift and
    # shock of all n stocks, a fixed-benchmark portfolio those of its k.
    params, k = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "k")
    realized = _arg(args, kwargs, 3, "mode", "fixed-benchmark") == "realized-index"
    counts["model.variates_used"] += 2 * (params.n_stocks if realized else k)


def _count_frequencies(counts, args, kwargs, result):
    counts["montecarlo.subset_frequencies.trials"] += _arg(args, kwargs, 2, "trials")


def _count_subsets(counts, args, kwargs, result):
    counts["enumeration.enumerate_portfolios.subsets"] += result.portfolio_count


def _count_csv(counts, args, kwargs, result):
    counts["report.csv_bytes"] += len(result)


def _count_svg(counts, args, kwargs, result):
    counts["report.svg_bytes"] += len(result.encode("utf-8"))


_COUNTERS = {
    "model.standard_normals": _count_normals,
    "montecarlo.run_trial": _count_trial,
    "montecarlo.subset_frequencies": _count_frequencies,
    "enumeration.enumerate_portfolios": _count_subsets,
    "report.emit_csv": _count_csv,
    "report.emit_svg_chart": _count_svg,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "indexsim" or name.startswith("indexsim.")]


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.counts = Counter()
        self._stack = []
        self._restore = []  # (namespace, attribute, original)

    def __enter__(self):
        try:
            for layer, (module_name, attr) in TARGETS.items():
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._install(cls, method, self._wrap(layer, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                for namespace in _package_modules():
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            self._install(namespace, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, namespace, name, wrapper):
        self._restore.append((namespace, name, vars(namespace)[name]))
        setattr(namespace, name, wrapper)

    def restore(self):
        while self._restore:
            namespace, name, original = self._restore.pop()
            setattr(namespace, name, original)

    def _wrap(self, layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTERS.get(layer)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (layer, start, perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total and self seconds per layer, plus the derived metrics."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        trial_us = []
        for (layer, start, end, _), child in zip(self.spans, covered):
            calls[layer] += 1
            total[layer] += end - start
            own[layer] += end - start - child
            if layer == "montecarlo.run_trial":
                trial_us.append((end - start) * 1e6)
        percentiles = statistics.quantiles(trial_us, n=100) if len(trial_us) > 1 else [0.0] * 99
        c = self.counts
        return {
            "analytic.calibrate.s": total["analytic.calibrate"],
            "analytic.calibrate.calls": calls["analytic.calibrate"],
            "model.generator.calls": calls["model.generator"],
            "model.generator.self_s": own["model.generator"],
            "model.generator.us_per_call": own["model.generator"] * 1e6 / max(calls["model.generator"], 1),
            "model.standard_normals.calls": calls["model.standard_normals"],
            "model.standard_normals.variates": c["model.variates"],
            "model.standard_normals.self_s": own["model.standard_normals"],
            "model.draw_universe.calls": calls["model.draw_universe"],
            "model.draw_universe.self_s": own["model.draw_universe"],
            "model.variate_use_ratio": c["model.variates_used"] / max(c["model.variates"], 1),
            "model.index_value.calls": calls["model.index_value"],
            "model.index_value.self_s": own["model.index_value"],
            "montecarlo.run_trial.calls": calls["montecarlo.run_trial"],
            "montecarlo.run_trial.self_s": own["montecarlo.run_trial"],
            "montecarlo.run_trial.p50_us": percentiles[49],
            "montecarlo.run_trial.p99_us": percentiles[98],
            "montecarlo.pick_subset.calls": calls["montecarlo.pick_subset"],
            "montecarlo.pick_subset.self_s": own["montecarlo.pick_subset"],
            "montecarlo.loop_self_s": own["montecarlo.run_experiment"],
            "montecarlo.subset_frequencies.s": total["montecarlo.subset_frequencies"],
            "montecarlo.subset_frequencies.trials": c["montecarlo.subset_frequencies.trials"],
            "enumeration.enumerate_portfolios.s": total["enumeration.enumerate_portfolios"],
            "enumeration.enumerate_portfolios.subsets": c["enumeration.enumerate_portfolios.subsets"],
            "report.emit_csv.s": total["report.emit_csv"],
            "report.emit_svg_chart.s": total["report.emit_svg_chart"],
            "report.csv_bytes": c["report.csv_bytes"],
            "report.svg_bytes": c["report.svg_bytes"],
        }
