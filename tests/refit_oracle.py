"""Refit definitions of the three monotonicity audits: the oracle for the exact ones.

Each perturbation rebuilds the dataset with the raised prices and
recomputes the whole index from scratch, which is the axiom's literal
definition, and the random audit draws its coins and magnitudes one
trial at a time. Tests compare the library's audits with these.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from artindex import (
    Dataset,
    IndexSeries,
    LevelComparison,
    MonotonicityReport,
    Perturbation,
    Violation,
    with_price_increments,
)
from artindex.monotonicity import RELATIVE_SLACK

IndexFunction = Callable[[Dataset], IndexSeries]


def _compare(before: IndexSeries, after: IndexSeries, perturbed: set[str]) -> list[LevelComparison]:
    comparisons = []
    for period, level_before in before.levels.items():
        if period == before.base_period:
            continue
        level_after = after.levels[period]
        dropped = (level_before - level_after) > RELATIVE_SLACK * level_before
        comparisons.append(
            LevelComparison(period, level_before, level_after, period not in perturbed or not dropped)
        )
    return comparisons


def eager_violations(description: str, comparisons, pert: Perturbation) -> list[Violation]:
    """One :class:`Violation` per non-compliant comparison, each built at once."""
    return [
        Violation(description, c.period, c.level_before, c.level_after, pert)
        for c in comparisons
        if not c.compliant
    ]


def refit_check(ds: Dataset, index_fn: IndexFunction, pert: Perturbation) -> list[LevelComparison]:
    period_of = {o.id: o.period for o in ds.observations}
    perturbed = {period_of[i] for i, inc in pert.increments.items() if inc > 0}
    after = index_fn(with_price_increments(ds, pert.increments))
    return _compare(index_fn(ds), after, perturbed)


def refit_search(
    ds: Dataset, index_fn: IndexFunction, multiplier_grid: Sequence[float]
) -> MonotonicityReport:
    before = index_fn(ds)
    violations = []
    trials = 0
    for obs in ds.observations:
        if obs.period == before.base_period:
            continue
        for m in multiplier_grid:
            trials += 1
            pert = Perturbation({obs.id: obs.price * (m - 1.0)})
            after = index_fn(with_price_increments(ds, pert.increments))
            violations += eager_violations(
                f"obs {obs.id} price x{m:g}", _compare(before, after, {obs.period}), pert
            )
    return MonotonicityReport(before.method, trials, tuple(violations))


def refit_random(ds: Dataset, index_fn: IndexFunction, trials: int, seed: int) -> MonotonicityReport:
    rng = np.random.default_rng(seed)
    before = index_fn(ds)
    targets = [o for o in ds.observations if o.period != before.base_period]
    prices = np.array([o.price for o in targets])
    violations = []
    for trial in range(trials):
        coins = rng.random(len(targets))
        magnitudes = rng.random(len(targets))
        increments = np.where(coins < 0.5, 0.0, magnitudes * prices)
        pert = Perturbation({o.id: float(inc) for o, inc in zip(targets, increments)})
        perturbed = {o.period for o, inc in zip(targets, increments) if inc > 0}
        if not perturbed:
            continue
        after = index_fn(with_price_increments(ds, pert.increments))
        violations += eager_violations(f"trial {trial}", _compare(before, after, perturbed), pert)
    return MonotonicityReport(before.method, trials, tuple(violations))
