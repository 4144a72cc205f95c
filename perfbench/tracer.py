"""Spans and counts around the public functions of each ``artindex`` layer.

The tracer sits outside the program: ``install`` replaces every public
function of each layer module (and every public method of its public
classes) with a timing wrapper, in the defining module and in every
``artindex`` module that imported the function by name (``fit`` is
called from ``indexes``, ``cli`` and ``replication``); ``uninstall``
puts the originals back. A span is (name, start, end, parent); a
layer's self time is the duration of its spans minus the part their
child spans cover. Spans stay in memory until ``take`` hands them over.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = (
    "cli",
    "csvio",
    "domain",
    "regression",
    "kernels",
    "indexes",
    "monotonicity",
    "replication",
    "report",
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a span no traced call encloses
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


PACKAGE = "artindex"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._layer_depth: Counter = Counter()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name) for every public callable of each layer."""
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:  # a layer the command line no longer imports has no spans
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield module, attr, value, f"{layer}.{attr}"
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in vars(value).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield value, meth, fn, f"{layer}.{attr}.{meth}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for owner, attr, original, name in list(self._targets()):
            wrapper = self._wrap(original, name)
            self._patch(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for module in modules:
                for other, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, other, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- recording ----------------------------------------------------

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        stack = self._stack
        depth = self._layer_depth
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outermost_in_layer = depth[layer] == 0
            span = Span(next(ids), name, layer, time.perf_counter_ns(), 0, parent.id if parent else -1)
            stack.append(span)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                depth[layer] -= 1
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end_ns - span.start_ns
                self.spans.append(span)
            self._count(name, layer, outermost_in_layer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _count(self, name: str, layer: str, outermost_in_layer: bool, result) -> None:
        counts = self.counts
        counts[f"{name}.calls"] += 1
        if layer == "indexes" and outermost_in_layer and type(result).__name__ == "IndexSeries":
            counts["indexes.index_evaluations"] += 1
            if self._layer_depth["monotonicity"]:
                counts["monotonicity.index_evaluations"] += 1
        elif name == "regression.fit" and self._layer_depth["replication"]:
            counts["replication.fit_calls"] += 1
        elif name == "csvio.load_csv":
            counts["csvio.rows_read"] += len(result)
        elif name == "report.Report.to_json":
            counts["report.output_bytes"] += len(result.encode("utf-8"))
        elif name in ("monotonicity.search_violations", "monotonicity.random_perturbation_audit"):
            counts["monotonicity.trials"] += result.trials
            counts["monotonicity.violations"] += len(result.violations)
        elif name == "monotonicity.check_monotonicity":
            counts["monotonicity.trials"] += 1
            counts["monotonicity.violations"] += sum(not c.compliant for c in result)
        if layer == "replication" and outermost_in_layer:
            counts["replication.runs"] += 1


# -- aggregation ---------------------------------------------------------

# per-layer metric -> unit
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "csvio.load_csv_s": "s",
    "csvio.rows_read": "count",
    "domain.validate_dataset_s": "s",
    "domain.with_price_increments_s": "s",
    "domain.with_price_increments_calls": "count",
    "domain.partition_by_period_s": "s",
    "regression.build_design_s": "s",
    "regression.regression_statistics_s": "s",
    "regression.fit_calls": "count",
    "kernels.householder_factor_s": "s",
    "kernels.householder_factor_calls": "count",
    "kernels.factorizations_per_fit": "ratio",
    "kernels.triangular_s": "s",
    "kernels.incomplete_beta_s": "s",
    "kernels.incomplete_beta_calls": "count",
    "indexes.self_s": "s",
    "indexes.index_evaluations": "count",
    "monotonicity.self_s": "s",
    "monotonicity.trials": "count",
    "monotonicity.violations": "count",
    "monotonicity.index_evals_per_trial": "ratio",
    "replication.self_s": "s",
    "replication.fits_per_reproduce": "ratio",
    "report.to_json_s": "s",
    "report.output_bytes": "B",
}


def span_totals(spans: list[Span]) -> Counter:
    """Inclusive nanoseconds per span name and self nanoseconds per layer."""
    totals: Counter = Counter()
    for span in spans:
        totals[span.name] += span.end_ns - span.start_ns
        totals[f"{span.layer}.self"] += span.self_ns
    return totals


def write_spans(path, spans: list[Span]) -> None:
    """One JSON line per span; times in nanoseconds from the first span's start."""
    origin = min((s.start_ns for s in spans), default=0)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(
                f'{{"id": {s.id}, "name": "{s.name}", "start_ns": {s.start_ns - origin}, '
                f'"end_ns": {s.end_ns - origin}, "parent": {s.parent}}}\n'
            )


def layer_metrics(rounds: list[Counter], counts: Counter, n_rounds: int) -> dict:
    """Per-layer metrics per round: times are medians over rounds, counts are means."""

    def seconds(*keys: str) -> float:
        return statistics.median(sum(r[k] for k in keys) for r in rounds) / 1e9

    def per_round(key: str) -> float:
        return counts[key] / n_rounds

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    values = {
        "cli.self_s": seconds("cli.self"),
        "csvio.load_csv_s": seconds("csvio.load_csv"),
        "csvio.rows_read": per_round("csvio.rows_read"),
        "domain.validate_dataset_s": seconds("domain.validate_dataset"),
        "domain.with_price_increments_s": seconds("domain.with_price_increments"),
        "domain.with_price_increments_calls": per_round("domain.with_price_increments.calls"),
        "domain.partition_by_period_s": seconds("domain.partition_by_period"),
        "regression.build_design_s": seconds("regression.build_design"),
        "regression.regression_statistics_s": seconds("regression.regression_statistics"),
        "regression.fit_calls": per_round("regression.fit.calls"),
        "kernels.householder_factor_s": seconds("kernels.householder_factor"),
        "kernels.householder_factor_calls": per_round("kernels.householder_factor.calls"),
        "kernels.factorizations_per_fit": ratio("kernels.householder_factor.calls", "regression.fit.calls"),
        "kernels.triangular_s": seconds("kernels.solve_upper_triangular", "kernels.invert_upper_triangular"),
        "kernels.incomplete_beta_s": seconds("kernels.regularized_incomplete_beta"),
        "kernels.incomplete_beta_calls": per_round("kernels.regularized_incomplete_beta.calls"),
        "indexes.self_s": seconds("indexes.self"),
        "indexes.index_evaluations": per_round("indexes.index_evaluations"),
        "monotonicity.self_s": seconds("monotonicity.self"),
        "monotonicity.trials": per_round("monotonicity.trials"),
        "monotonicity.violations": per_round("monotonicity.violations"),
        "monotonicity.index_evals_per_trial": ratio("monotonicity.index_evaluations", "monotonicity.trials"),
        "replication.self_s": seconds("replication.self"),
        "replication.fits_per_reproduce": ratio("replication.fit_calls", "replication.runs"),
        "report.to_json_s": seconds("report.Report.to_json"),
        "report.output_bytes": per_round("report.output_bytes"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
