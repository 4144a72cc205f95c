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
x = log(p + inc) - log p, with no refit. A grid perturbation raises one
sale, so W[q] @ x is one product, and the grid computes all of them in one
array pass. The random audit scores each block of trials with one product
against W, under a rounding margin fixed once per audit from its price box
(every increment below its sale's price), and judges exactly only the
trials whose score is not clear of that margin: all of a block's flagged
trials in one array pass, with one ``W @ x`` matvec per trial, which is
the sum :func:`check_monotonicity` computes for a block of one. Each
violation an audit reports replays through :func:`check_monotonicity`
bit for bit.
An audit keeps its violations as columns, one list per :class:`Violation`
field from its array pass, which the report writes; the :class:`Violation`
objects are built on first use.
The random audit draws its trials in blocks of at most ``_DRAW_BUDGET``
draws, so the memory it holds for draws is bounded by that budget
whatever the trial count; every block size yields the same draws.

Perturbations target observations outside the base period: levels are
anchored ratios to the base, so only non-base perturbations make the
axiom's comparison meaningful level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Mapping

import numpy as np

from .domain import Dataset, check_increments, is_finite_real
from .errors import ModelError, ValidationError
from .indexes import IndexMethod, two_period_rows
from .regression import characteristic_column, student_t_two_sided_p
from .report import _Records

# relative slack distinguishing a genuine level drop from float noise
RELATIVE_SLACK = 1e-12

# single-observation multiplier sweep used when no grid is supplied:
# 1.1, 1.2, ..., 3.0
DEFAULT_MULTIPLIER_GRID = tuple(round(1.0 + 0.1 * i, 10) for i in range(1, 21))

# draws per generator call in the random audit (8 MiB of float64): a block
# holds as many trials as fit, two draws per non-base observation each
_DRAW_BUDGET = 1 << 20


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


class _Violations(_Records, Sequence):
    """An audit's violations as columns, one per :class:`Violation` field, under ``keys``.

    A perturbation is its increments dict. The report writes the columns as
    they are; the :class:`Violation` objects are built on first use, then cached.
    """

    keys = ("description", "period", "level_before", "level_after", "perturbation")

    def __init__(self, *columns: list):
        self.columns, self._built = columns or ([], [], [], [], []), None

    def _violations(self) -> tuple[Violation, ...]:
        if self._built is None:
            self._built = tuple(Violation(*v[:4], Perturbation(v[4])) for v in zip(*self.columns))
        return self._built

    def __getitem__(self, i):
        return self._violations()[i]

    def __eq__(self, other):  # equal to a tuple of the same violations, on either side
        if isinstance(other, _Violations):
            other = other._violations()
        return self._violations() == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._violations())


def _violation_columns(violations: Sequence[Violation]) -> _Violations:
    """``violations`` as columns: as they are, or copied with levels and increments as floats."""
    if isinstance(violations, _Violations):
        return violations
    return _Violations(*zip(*(
        (v.description, v.period, float(v.level_before), float(v.level_after),
         {k: float(x) for k, x in v.perturbation.increments.items()})
        for v in violations
    )))


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a violation search or random audit."""

    method: str
    trials: int
    violations: Sequence[Violation]
    melser_statistic: float | None = None

    @property
    def compliant(self) -> bool:
        return not self.violations


class _Levels:
    """Index levels of one dataset, before and after price increments, and its audited sales."""

    def __init__(self, ds: Dataset, method: IndexMethod):
        self.before, self._weights = method.evaluate(ds)
        self._ds = ds
        self._log_prices = np.log(ds.price)
        self._level_before = np.array([self.before.levels[p] for p in ds.periods])
        self.targets = np.flatnonzero(ds.period_codes != ds.periods.index(self.before.base_period))

    def after(self, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Every period's level after each trial of ``block``.

        Trial ``k`` adds ``block[k, j]`` to the price of sale ``rows[j]``.
        """
        ds = self._ds
        log_change = np.log(ds.price[rows] + block) - self._log_prices[rows]
        x, s = np.zeros(len(ds)), np.empty((len(block), len(ds.periods)))
        for k, change in enumerate(log_change):
            x[rows] = change
            # one matvec per trial: a k x n product may sum W[q] @ x in another order
            s[k] = self._weights @ x
        return self._level_before * np.exp(s)

    def fell(self, after: np.ndarray) -> np.ndarray:
        """Where a level after fell below its level before by more than the relative slack."""
        return (self._level_before - after) > RELATIVE_SLACK * self._level_before


def violations_from(
    description: str, comparisons: Sequence[LevelComparison], pert: Perturbation
) -> Sequence[Violation]:
    """One :class:`Violation` per non-compliant comparison of one perturbation, sharing its increments."""
    bad = [c for c in comparisons if not c.compliant]
    increments = {k: float(x) for k, x in pert.increments.items()}
    periods = [c.period for c in bad]
    before, after = [float(c.level_before) for c in bad], [float(c.level_after) for c in bad]
    return _Violations([description] * len(bad), periods, before, after, [increments] * len(bad))


def _check_raised(
    ds: Dataset, rows: np.ndarray, increments: np.ndarray, raised: np.ndarray, describe
) -> None:
    """Refuse the first price a batch raises past the float range, as :func:`check_increments` does.

    Perturbation ``describe(*i)`` adds ``increments[i]`` to sale ``rows[i]``
    (broadcast), whose price becomes ``raised[i]``.
    """
    if np.isfinite(raised).all():
        return
    i = tuple(np.argwhere(~np.isfinite(raised))[0])
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
    than the relative slack. A perturbation that pushes a level past the
    float range is refused.
    """
    if not pert.increments:
        raise ValidationError("perturbation has no increments")
    check_increments(ds, pert.increments)
    levels = _Levels(ds, method)
    rows = [ds.row(obs_id) for obs_id in pert.increments]
    increments = [float(inc) for inc in pert.increments.values()]
    with np.errstate(over="ignore"):
        after = levels.after(np.array(rows), np.array([increments]))[0]
    raised = {q for q, inc in zip(ds.period_codes[rows].tolist(), increments) if inc > 0}
    base, fell = levels.before.base_period, levels.fell(after).tolist()
    comparisons = tuple(
        LevelComparison(period, levels.before.levels[period], level, q not in raised or not f)
        for q, (period, level, f) in enumerate(zip(ds.periods, after.tolist(), fell))
        if period != base
    )
    for c in comparisons:
        if not (math.isfinite(c.level_after) and c.level_after > 0):
            raise ValidationError(f"perturbation pushes level {c.period!r} past the float range")
    return comparisons


def search_violations(
    ds: Dataset,
    method: IndexMethod,
    multiplier_grid: Sequence[float] = DEFAULT_MULTIPLIER_GRID,
) -> MonotonicityReport:
    """Sweep single-observation price multipliers over non-base observations.

    Every (observation, multiplier) pair is tried in deterministic order:
    dataset observation order first, then grid order. Each perturbed level
    is the one :func:`check_monotonicity` computes, bit for bit.
    """
    grid = list(multiplier_grid)
    if not grid:
        raise ModelError("multiplier grid must not be empty")
    for m in grid:
        if not (is_finite_real(m) and m > 1):
            raise ModelError(f"multipliers must be finite and > 1, got {m!r}")

    levels = _Levels(ds, method)
    targets = levels.targets
    own = ds.period_codes[targets]
    before = levels._level_before[own, None]

    texts = [f"{m:g}" for m in grid]  # each multiplier spelled once

    def describe(row, g):
        return f"obs {ds.ids[row]} price x{texts[g]}"

    with np.errstate(over="ignore"):
        increments = ds.price[targets, None] * (np.array(grid, dtype=np.float64) - 1.0)
        raised = ds.price[targets, None] + increments
        _check_raised(ds, targets[:, None], increments, raised, lambda t, g: describe(targets[t], g))
        # x is exactly zero at every other sale, so the W @ x of _Levels.after is W[own, i] * x_i
        x = np.log(raised) - levels._log_prices[targets, None]
        after = before * np.exp(levels._weights[own, targets][:, None] * x)
    dropped = (before - after) > RELATIVE_SLACK * before
    t, g = np.nonzero(dropped)
    rows = targets[t].tolist()
    violations = _Violations(
        list(map(describe, rows, g.tolist())),
        [ds.periods[q] for q in own[t].tolist()],
        before[t, 0].tolist(),
        after[dropped].tolist(),
        [{ds.ids[row]: inc} for row, inc in zip(rows, increments[dropped].tolist())],
    )
    return MonotonicityReport(method=levels.before.method, trials=increments.size, violations=violations)


def _rounding_margin(n: int, log_prices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per period, how far the random audit's score of a trial can sit from :meth:`_Levels.after`'s sum."""
    # n sales in all; log_prices and the rows of weights (weights[j, q] = W[q, j])
    # are the audited ones.
    # s = W[q] @ x with x = a - b, a = log(p + inc), b = log p. The exact judge
    # sums s over all n sales in one matvec (unraised sales add exactly 0:
    # both logs read one value); the score sums it in another order, and its
    # logs may differ from the judge's by an ulp, eps * (|a| + |b|) a sale. Each side
    # rounds x by eps/2 * |x|, and a dot product of n terms in any order by
    # n * eps/2 * sum |W| |x| (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, section 3.1): the two values of s differ by at most
    # (n + 2) * eps * sum |W| (|a| + |b|). Every increment is a draw in [0, 1)
    # times its sale's price, so a - b lies in [0, log 2] up to rounding and
    # |a| + |b| < 2 |b| + 1: the bound below holds for every trial of the
    # audit, with room for its own rounding.
    return 4 * n * np.finfo(np.float64).eps * ((2 * np.abs(log_prices) + 1) @ np.abs(weights))


def _random_violations(
    levels: _Levels, trials: np.ndarray, block: np.ndarray, perturbed: np.ndarray
) -> tuple[list, ...]:
    """The violation columns of random trials ``trials[k]``, raising the audited sales by ``block[k]``.

    ``perturbed[k, q]`` says whether trial ``k`` raises a sale of period
    ``q``. One violation per level that falls in such a period, in trial
    order and then period order; the violations of one trial share its
    increments dict.
    """
    ds, targets = levels._ds, levels.targets
    after = levels.after(targets, block)
    k, q = np.nonzero(perturbed & levels.fell(after))
    ids = [ds.ids[i] for i in targets.tolist()]
    rows = k.tolist()
    increments = {j: dict(zip(ids, block[j].tolist())) for j in set(rows)}
    periods = [ds.periods[p] for p in q.tolist()]
    descriptions = [f"trial {trial}" for trial in trials[k].tolist()]
    before = [levels.before.levels[period] for period in periods]
    return descriptions, periods, before, after[k, q].tolist(), [increments[j] for j in rows]


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
    if isinstance(trials, bool) or not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ModelError(f"trials must be a positive integer, got {trials!r}")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ModelError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    levels = _Levels(ds, method)
    targets = levels.targets
    prices, log_prices = ds.price[targets], levels._log_prices[targets]
    weights = levels._weights[:, targets].T
    margin = _rounding_margin(len(ds), log_prices, weights)
    # float, not bool: a float matmul runs on BLAS and counts raised sales exactly
    in_period = np.equal.outer(ds.period_codes[targets], np.arange(len(ds.periods))).astype(np.float64)
    step = max(1, _DRAW_BUDGET // (2 * len(targets)))

    violations = _Violations()
    for start in range(0, trials, step):
        # one draw per block yields the same stream as a coins draw and a
        # magnitudes draw per trial, whatever the block size
        draws = rng.random((min(step, trials - start), 2, len(targets)))
        # every increment is >= 0, so a zero coin's factor gives exactly +0.0
        block = draws[:, 1] * prices
        block *= draws[:, 0] >= 0.5
        with np.errstate(over="ignore"):
            raised = prices + block
        _check_raised(ds, targets, block, raised, lambda k, _: f"trial {start + k}")
        perturbed = ((block > 0) @ in_period) > 0
        # where s > margin, the exact judge's s is positive, exp(s) >= 1 and no
        # level falls; a non-finite s or margin fails that test and its trial is judged
        s = (np.log(raised) - log_prices) @ weights
        flagged = np.flatnonzero((perturbed & ~(s > margin)).any(axis=-1))
        if flagged.size:
            found = _random_violations(levels, start + flagged, block[flagged], perturbed[flagged])
            for column, new in zip(violations.columns, found):
                column += new
    return MonotonicityReport(method=levels.before.method, trials=int(trials), violations=violations)


def melser_diagnostic(
    ds: Dataset, characteristic: str, period0: str, period1: str
) -> float:
    """Point-biserial correlation between period membership and a characteristic.

    Membership is 0 for ``period0`` and 1 for ``period1``. A magnitude
    near zero signals low risk of time-dummy monotonicity violations; a
    strong association is the known precondition for them.
    """
    return _point_biserial(ds, characteristic, period0, period1)[0]


def _point_biserial(ds: Dataset, characteristic: str, period0: str, period1: str) -> tuple[float, int]:
    """:func:`melser_diagnostic`'s correlation and the number of sales behind it."""
    rows0, rows1 = two_period_rows(ds, period0, period1)
    column = characteristic_column(ds, characteristic)
    values = np.concatenate([column[rows0], column[rows1]])
    membership = np.repeat([0.0, 1.0], [len(rows0), len(rows1)])

    x_centered = values - values.mean()
    d_centered = membership - membership.mean()
    x_ss = float(x_centered @ x_centered)
    d_ss = float(d_centered @ d_centered)
    if x_ss == 0.0:
        raise ModelError(
            f"characteristic {characteristic!r} has zero variance across "
            f"periods {period0!r} and {period1!r}"
        )
    return float((x_centered @ d_centered) / math.sqrt(x_ss * d_ss)), len(values)


def melser_significance(
    ds: Dataset, characteristic: str, period0: str, period1: str
) -> tuple[float, float, float]:
    """Diagnostic correlation with its two-sample t test.

    Returns (correlation, t statistic, two-sided p-value). The t test of
    the point-biserial correlation is the pooled two-sample t test for a
    mean difference between the two periods.
    """
    r, n = _point_biserial(ds, characteristic, period0, period1)
    if n <= 2:
        raise ModelError("significance test needs more than two observations")
    if abs(r) >= 1.0:
        raise ModelError("correlation magnitude 1 leaves no residual variance")
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, t, student_t_two_sided_p(t, n - 2)
