"""Monotonicity-axiom audits for the npgm and hpm index methods.

The axiom: raising any prices while holding characteristics fixed must
not lower the index. The auditors test it constructively against an
:class:`~artindex.indexes.IndexMethod`, as built by
:func:`~artindex.indexes.npgm_method` or :func:`~artindex.indexes.hpm_method`:

* :func:`check_monotonicity` replays one explicit perturbation;
* :func:`search_violations` sweeps single-observation price multipliers
  over every non-base observation;
* :func:`random_perturbation_audit` draws seeded random non-negative
  increment vectors over the non-base observations.

Both indexes are log-linear in prices with characteristics held fixed,
and their weights W = d log I / d log p do not depend on prices. Each
audit therefore computes the index and W once (one QR for hpm), and a
perturbed level exactly as ``level_before[q] * exp(W[q] @ x)`` with
x = log(p + inc) - log p, with no refit. The grid and random audits
screen their perturbations in bulk and judge exactly only those flagged:
one whose every raised period has W[q] @ x clearly above zero lowers no level.

Perturbations target observations outside the base period: levels are
anchored ratios to the base, so only non-base perturbations make the
axiom's comparison meaningful level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import Dataset, check_increments, partition_by_period
from .errors import ModelError, ValidationError
from .indexes import IndexMethod
from .regression import characteristic_column, student_t_two_sided_p

# relative slack distinguishing a genuine level drop from float noise
RELATIVE_SLACK = 1e-12

# single-observation multiplier sweep used when no grid is supplied:
# 1.1, 1.2, ..., 3.0
DEFAULT_MULTIPLIER_GRID = tuple(round(1.0 + 0.1 * i, 10) for i in range(1, 21))

# trials drawn per generator call in the random audit, which bounds the
# draws held in memory at 2 * _DRAW_BLOCK * (non-base observations)
_DRAW_BLOCK = 64


@dataclass(frozen=True)
class Perturbation:
    """Non-negative dollar increments keyed by observation id."""

    increments: Mapping[str, float]


@dataclass(frozen=True)
class LevelComparison:
    """One non-base period's level before and after a perturbation."""

    period: str
    level_before: float
    level_after: float
    compliant: bool


@dataclass(frozen=True)
class Violation:
    """A perturbed period whose level dropped beyond the noise slack."""

    description: str
    period: str
    level_before: float
    level_after: float
    perturbation: Perturbation


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a violation search or random audit."""

    method: str
    trials: int
    violations: tuple[Violation, ...]
    melser_statistic: float | None = None

    @property
    def compliant(self) -> bool:
        return not self.violations


class _Levels:
    """Index levels of one dataset, before and after price increments."""

    def __init__(self, ds: Dataset, method: IndexMethod):
        self.before, self._weights = method.evaluate(ds)
        self._periods = ds.periods
        self._prices = ds.price
        self._log_prices = np.log(self._prices)
        self._level_before = np.array([self.before.levels[p] for p in ds.periods])
        self._rounding = 4 * len(ds) * np.finfo(np.float64).eps

    def flagged(
        self, rows: np.ndarray, increments: np.ndarray, weights: np.ndarray, perturbed: np.ndarray | bool
    ) -> np.ndarray:
        """Flat positions, in batch order, of the perturbations :meth:`compare` must judge.

        Each perturbation of the batch raises each sale ``rows[j]`` by
        ``increments[..., j]`` and leaves the other sales unraised;
        ``perturbed[..., c]`` says whether it raised a sale of the period q
        whose weight W[q, rows[j]] is ``weights[..., j, c]``.
        """
        # s = W[q] @ x with x = a - b, a = log(p + inc), b = log p. compare
        # sums s over all n sales in one matvec (unraised sales add exactly 0:
        # both logs read one value); this batch sums in another order, and its
        # logs may differ from compare's by an ulp, eps * (|a| + |b|) a sale.
        # Each side rounds x by eps/2 * |x|, and a dot product of n terms in
        # any order by n * eps/2 * sum |W| |x| (Higham, Accuracy and Stability
        # of Numerical Algorithms, 2002, section 3.1): the two values of s
        # differ by at most (n + 2) * eps * sum |W| (|a| + |b|) <= margin.
        # Where s > margin, compare's s is positive, exp(s) >= 1 and no level
        # falls; a non-finite s or margin fails that test and is flagged.
        log_before, log_after = self._log_prices[rows], np.log(self._prices[rows] + increments)
        s = (log_after - log_before) @ weights
        margin = self._rounding * ((np.abs(log_after) + np.abs(log_before)) @ np.abs(weights))
        return np.flatnonzero((perturbed & ~(s > margin)).any(axis=-1))

    def compare(self, increments: np.ndarray, perturbed: set[str]) -> tuple[LevelComparison, ...]:
        """Every non-base level after adding ``increments`` (dataset order) to the prices.

        A period is compliant unless it is in ``perturbed`` and its level
        fell by more than the relative slack.
        """
        log_change = np.log(self._prices + increments) - self._log_prices
        after = self._level_before * np.exp(self._weights @ log_change)
        comparisons = []
        for period, level_after in zip(self._periods, after.tolist()):
            if period == self.before.base_period:
                continue
            level_before = self.before.levels[period]
            dropped = (level_before - level_after) > RELATIVE_SLACK * level_before
            comparisons.append(
                LevelComparison(
                    period=period,
                    level_before=level_before,
                    level_after=level_after,
                    compliant=period not in perturbed or not dropped,
                )
            )
        return tuple(comparisons)


def violations_from(
    description: str, comparisons: Sequence[LevelComparison], pert: Perturbation
) -> tuple[Violation, ...]:
    """One :class:`Violation` per non-compliant comparison of one perturbation."""
    return tuple(
        Violation(
            description=description,
            period=c.period,
            level_before=c.level_before,
            level_after=c.level_after,
            perturbation=pert,
        )
        for c in comparisons
        if not c.compliant
    )


def _check_raised(ds: Dataset, rows: np.ndarray, increments: np.ndarray, describe) -> None:
    """Refuse the first price a batch raises past the float range, as :func:`check_increments` does.

    Perturbation ``describe(*i)`` adds ``increments[i]`` to sale ``rows[i]`` (broadcast).
    """
    with np.errstate(over="ignore"):
        overflow = np.argwhere(~np.isfinite(ds.price[rows] + increments))
    if len(overflow):
        i = tuple(overflow[0])
        obs_id = ds.ids[np.broadcast_to(rows, increments.shape)[i]]
        try:
            check_increments(ds, {obs_id: float(increments[i])})
        except ValidationError as exc:
            raise ValidationError(f"{describe(*i)}: {exc}") from None


def check_monotonicity(
    ds: Dataset, method: IndexMethod, pert: Perturbation
) -> tuple[LevelComparison, ...]:
    """Compare every non-base level before and after one perturbation.

    Returns one comparison per non-base period; a period is compliant
    unless it received a positive increment and its level fell by more
    than the relative slack.
    """
    if not pert.increments:
        raise ValidationError("perturbation has no increments")
    check_increments(ds, pert.increments)
    levels = _Levels(ds, method)
    rows = [ds.row(obs_id) for obs_id in pert.increments]
    increments = np.zeros(len(ds))
    increments[rows] = [float(inc) for inc in pert.increments.values()]
    raised = [row for row, inc in zip(rows, pert.increments.values()) if inc > 0]
    perturbed = {ds.periods[q] for q in set(ds.period_codes[raised].tolist())}
    return levels.compare(increments, perturbed)


def search_violations(
    ds: Dataset,
    method: IndexMethod,
    multiplier_grid: Sequence[float] = DEFAULT_MULTIPLIER_GRID,
) -> MonotonicityReport:
    """Sweep single-observation price multipliers over non-base observations.

    Every (observation, multiplier) pair is tried in deterministic order:
    dataset observation order first, then grid order.
    """
    grid = list(multiplier_grid)
    if not grid:
        raise ModelError("multiplier grid must not be empty")
    for m in grid:
        if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 1):
            raise ModelError(f"multipliers must be finite and > 1, got {m!r}")

    levels = _Levels(ds, method)
    targets = np.flatnonzero(ds.period_codes != ds.periods.index(levels.before.base_period))
    with np.errstate(over="ignore"):
        increments = ds.price[targets, None] * (np.array(grid, dtype=np.float64) - 1.0)

    def describe(t, g):
        return f"obs {ds.ids[targets[t]]} price x{grid[g]:g}"

    _check_raised(ds, targets[:, None], increments, describe)
    # a single-sale perturbation can lower only its own period, by W[own, i] * x
    own = levels._weights[ds.period_codes[targets], targets][:, None, None]
    violations = []
    flagged = levels.flagged(targets[:, None, None], increments[..., None], own, True)
    for t, g in zip(*np.divmod(flagged, len(grid))):
        i, inc = int(targets[t]), float(increments[t, g])
        raised = np.zeros(len(ds))
        raised[i] = inc
        comparisons = levels.compare(raised, {ds.periods[ds.period_codes[i]]})
        pert = Perturbation({ds.ids[i]: inc})
        violations.extend(violations_from(describe(t, g), comparisons, pert))
    return MonotonicityReport(
        method=levels.before.method, trials=increments.size, violations=tuple(violations)
    )


def random_perturbation_audit(
    ds: Dataset, method: IndexMethod, trials: int, seed: int
) -> MonotonicityReport:
    """Audit with seeded random non-negative increments on non-base observations.

    Each trial draws, for every non-base observation, an increment that is
    zero with probability one half and otherwise uniform below that
    observation's price: first one coin per observation, then one
    magnitude per observation. Identical seeds give identical reports, and
    each recorded violation carries its perturbation so it can be replayed
    through :func:`check_monotonicity`.
    """
    if trials < 1:
        raise ModelError(f"trials must be at least 1, got {trials}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ModelError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    levels = _Levels(ds, method)
    targets = np.flatnonzero(ds.period_codes != ds.periods.index(levels.before.base_period))
    target_ids = [ds.ids[i] for i in targets.tolist()]
    prices = ds.price[targets]
    weights = levels._weights[:, targets].T
    in_period = np.equal.outer(ds.period_codes[targets], np.arange(len(ds.periods)))

    increments = np.zeros(len(ds))
    violations = []
    for start in range(0, trials, _DRAW_BLOCK):
        # one draw per block yields the same stream as a coins draw and a
        # magnitudes draw per trial
        draws = rng.random((min(_DRAW_BLOCK, trials - start), 2, len(targets)))
        block = np.where(draws[:, 0] < 0.5, 0.0, draws[:, 1] * prices)
        _check_raised(ds, targets, block, lambda k, _: f"trial {start + k}")
        perturbed = (block > 0) @ in_period
        for offset in levels.flagged(targets, block, weights, perturbed).tolist():
            increments[targets] = block[offset]
            periods = {ds.periods[q] for q in np.flatnonzero(perturbed[offset])}
            comparisons = levels.compare(increments, periods)
            pert = Perturbation(dict(zip(target_ids, block[offset].tolist())))
            violations.extend(violations_from(f"trial {start + offset}", comparisons, pert))
    return MonotonicityReport(
        method=levels.before.method, trials=trials, violations=tuple(violations)
    )


def melser_diagnostic(
    ds: Dataset, characteristic: str, period0: str, period1: str
) -> float:
    """Point-biserial correlation between period membership and a characteristic.

    Membership is 0 for ``period0`` and 1 for ``period1``. A magnitude
    near zero signals low risk of time-dummy monotonicity violations; a
    strong association is the known precondition for them.
    """
    parts = partition_by_period(ds)
    for label in (period0, period1):
        if label not in parts:
            raise ModelError(f"period {label!r} not present in dataset")
    column = characteristic_column(ds, characteristic)
    values = np.concatenate([column[parts[period0]], column[parts[period1]]])
    membership = np.repeat([0.0, 1.0], [len(parts[period0]), len(parts[period1])])

    x_centered = values - values.mean()
    d_centered = membership - membership.mean()
    x_ss = float(x_centered @ x_centered)
    d_ss = float(d_centered @ d_centered)
    if x_ss == 0.0:
        raise ModelError(
            f"characteristic {characteristic!r} has zero variance across "
            f"periods {period0!r} and {period1!r}"
        )
    return float((x_centered @ d_centered) / math.sqrt(x_ss * d_ss))


def melser_significance(
    ds: Dataset, characteristic: str, period0: str, period1: str
) -> tuple[float, float, float]:
    """Diagnostic correlation with its two-sample t test.

    Returns (correlation, t statistic, two-sided p-value). The t test of
    the point-biserial correlation is the pooled two-sample t test for a
    mean difference between the two periods.
    """
    r = melser_diagnostic(ds, characteristic, period0, period1)
    parts = partition_by_period(ds)
    n = len(parts[period0]) + len(parts[period1])
    if n <= 2:
        raise ModelError("significance test needs more than two observations")
    if abs(r) >= 1.0:
        raise ModelError("correlation magnitude 1 leaves no residual variance")
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, t, student_t_two_sided_p(t, n - 2)
