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

Both indexes are log-linear in prices with characteristics held fixed, and
their weights W = d log I / d log p do not depend on prices. Each audit
therefore computes the index and W once (one QR for hpm), into the one
:class:`_Audit` it reads them through, and a perturbed level exactly as
``level_before[q] * exp(W[q] @ x)`` with no refit, where
x = log(p + inc) - log p comes from :meth:`_Audit.log_change` alone
(infinite for a price raised past the float max, which is refused). A grid
perturbation raises one sale, so W[q] @ x is one product, and the grid
computes all of them in one array pass. The random audit scores each block
of trials with one product against W, under a rounding margin fixed once
per audit from its price box (every increment below its sale's price), and
judges exactly only the trials whose score is not clear of that margin,
all at once in :meth:`_Audit.after`: a stack of ``W @ x`` matvecs, one
BLAS gemv per trial, the sum :func:`check_monotonicity` computes for a
block of one. So each violation an audit reports replays through
:func:`check_monotonicity` bit for bit. An audit keeps its violations as
columns, one list per :class:`Violation` field from its array pass, which
the report writes; the :class:`Violation` objects are built once, on first
use.
Before drawing, the random audit bounds how far any trial in its box can
lower each level. Only negative weights can lower one, by at most
1 - 2^(sum of its negative weights); the bound adds a rounding allowance
that scales with those weights and the logs' rounding, not with
n * eps * sum |W| |x| (see :meth:`_Audit.fall_bound`). When no level can fall by
more than ``RELATIVE_SLACK`` and no audited price is above ``_PRICE_CAP``,
the audit returns its report with no draws: compliant, with the same trial
count. npgm, whose non-base weights are all >= 0, always does; an hpm model
with real negative weights draws and scores every trial.
The random audit draws its trials in blocks of at most ``_DRAW_BUDGET``
draws, so the memory it holds for draws is bounded by that budget
whatever the trial count; every block size yields the same draws.

Perturbations target observations outside the base period: levels are
anchored ratios to the base, so only non-base perturbations make the
axiom's comparison meaningful level by level.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from typing import Mapping

import numpy as np

from ._record import record
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

# the largest price the random audit can raise (by less than itself) with no
# overflow; a constant, since prices + prices would warn past it
_PRICE_CAP = np.finfo(np.float64).max / 2


@record
class Perturbation:
    """Non-negative dollar increments keyed by observation id."""

    increments: Mapping[str, float]


@record
class LevelComparison:
    """One non-base period's level before and after a perturbation."""

    period: str
    level_before: float
    level_after: float
    compliant: bool


@record
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
    they are; the :class:`Violation` objects are built once, on first use.
    """

    keys = ("description", "period", "level_before", "level_after", "perturbation")

    def __init__(self, *columns: list):
        super().__init__(self.keys, columns or ([], [], [], [], []))

    @cached_property
    def _built(self) -> tuple[Violation, ...]:
        return tuple(Violation(*v[:4], Perturbation(v[4])) for v in zip(*self.columns))

    def __getitem__(self, i):
        return self._built[i]

    def __eq__(self, other):  # equal to a tuple of the same violations, on either side
        if isinstance(other, _Violations):
            other = other._built
        return self._built == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._built)


def _violation_columns(violations: Sequence[Violation]) -> _Violations:
    """``violations`` as columns: as they are, or copied with levels and increments as floats."""
    if isinstance(violations, _Violations):
        return violations
    return _Violations(*zip(*(
        (v.description, v.period, float(v.level_before), float(v.level_after),
         {k: float(x) for k, x in v.perturbation.increments.items()})
        for v in violations
    )))


@record
class MonotonicityReport:
    """Outcome of a violation search or random audit."""

    method: str
    trials: int
    violations: Sequence[Violation]
    melser_statistic: float | None = None

    @property
    def compliant(self) -> bool:
        return not self.violations


class _Audit:
    """The series ``before`` and W (``weights``) of one ``method.evaluate(ds)``, and the audited sales.

    ``level_before`` and W's rows follow ``ds.periods``. The audited sales are the non-base rows
    ``targets`` of ``ds``, in periods ``own``, with ``target_weights[j, q] = W[q, targets[j]]``.
    """

    def __init__(self, ds: Dataset, method: IndexMethod):
        self.before, self.weights = method.evaluate(ds)
        self.ds, self.log_prices = ds, np.log(ds.price)
        self.level_before = np.array([self.before.levels[p] for p in ds.periods])
        self.targets = np.flatnonzero(ds.period_codes != ds.periods.index(self.before.base_period))
        self.own, self.target_log_prices = ds.period_codes[self.targets], self.log_prices[self.targets]
        self.target_weights = self.weights[:, self.targets].T

    def log_change(self, rows: np.ndarray, increments: np.ndarray) -> np.ndarray:
        """x = log(p + inc) - log p of sales ``rows`` raised by ``increments``, broadcast together.

        A price raised past the float max gives an infinite x, with no warning.
        """
        with np.errstate(over="ignore"):
            return np.log(self.ds.price[rows] + increments) - self.log_prices[rows]

    def after(self, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Every period's level after each trial of ``block``.

        Trial ``k`` adds ``block[k, j]`` to the price of sale ``rows[j]``.
        """
        full = np.zeros((len(block), len(self.ds)))
        full[:, rows] = self.log_change(rows, block)
        # a stack of matvecs, one BLAS gemv per trial: a k x n product may sum W[q] @ x in another order
        return self.level_before * np.exp((self.weights @ full[:, :, None])[:, :, 0])

    def rounding_margin(self) -> np.ndarray:
        """Per period, how far the random audit's score of a trial can sit from :meth:`after`'s sum."""
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
        n, eps = len(self.ds), np.finfo(np.float64).eps
        return 4 * n * eps * ((2 * np.abs(self.target_log_prices) + 1) @ np.abs(self.target_weights))

    def fall_bound(self) -> np.ndarray:
        """Per period, how far any random trial can take :meth:`after`'s sum below zero."""
        # The judge sums s = W[q] @ x over all n sales in one matvec, with
        # x = a - b, a = log(p + inc), b = log p; unraised sales add exactly 0.
        # Every increment is below its sale's price, so p + inc rounds to at most
        # 2p and a - b lies in [0, log 2]. Each log is within an ulp, eps |a| or
        # eps |b|, and |a| + |b| <= 2 |b| + log 2; with the subtraction's own
        # rounding, the computed x_j lies in [-d_j, log 2 + d_j] with
        # d_j = eps * (2 |b_j| + 2).
        # A dot product of n terms in any order is sum W_j x_j (1 + t_j) with
        # |t_j| <= gamma_n = n u / (1 - n u), u = eps / 2 (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2002, section 3.1). A term is below
        # zero only where W_j >= 0 and x_j < 0, by at most W_j d_j, or where
        # W_j < 0, by at most |W_j| (log 2 + d_j). So the computed s is at least
        # -(1 + gamma_n) N with N = log 2 * sum_{W_j < 0} |W_j| + sum |W_j| d_j:
        # the n-fold rounding error scales N, which is eps-sized when no weight
        # is negative, not sum |W| |x| as in rounding_margin. The factor
        # 1 + 4 n eps covers gamma_n and the rounding of N's own sums below.
        n, eps, weights = len(self.ds), np.finfo(np.float64).eps, self.target_weights
        negative = -np.minimum(weights, 0.0).sum(axis=0)
        rounding = eps * ((2 * np.abs(self.target_log_prices) + 2) @ np.abs(weights))
        return (1 + 4 * n * eps) * (math.log(2) * negative + rounding)


def _fell(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Where a level after fell below its level before by more than the relative slack."""
    return (before - after) > RELATIVE_SLACK * before


def violations_from(
    description: str, comparisons: Sequence[LevelComparison], pert: Perturbation
) -> Sequence[Violation]:
    """One :class:`Violation` per non-compliant comparison of one perturbation, sharing its increments."""
    bad = [c for c in comparisons if not c.compliant]
    increments = {k: float(x) for k, x in pert.increments.items()}
    periods = [c.period for c in bad]
    before, after = [float(c.level_before) for c in bad], [float(c.level_after) for c in bad]
    return _Violations([description] * len(bad), periods, before, after, [increments] * len(bad))


def _check_raised(ds: Dataset, rows: np.ndarray, increments: np.ndarray, x: np.ndarray, describe) -> None:
    """Refuse the first price a batch raises past the float range, as :func:`check_increments` does.

    Perturbation ``describe(*i)`` adds ``increments[i]`` to sale ``rows[i]``
    (broadcast), whose log change ``x[i]`` is infinite past the float max.
    """
    if np.isfinite(x).all():
        return
    i = tuple(np.argwhere(~np.isfinite(x))[0])
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
    audit = _Audit(ds, method)
    rows = [ds.row(obs_id) for obs_id in pert.increments]
    increments = [float(inc) for inc in pert.increments.values()]
    with np.errstate(over="ignore"):
        after = audit.after(np.array(rows), np.array([increments]))[0]
    raised = {q for q, inc in zip(ds.period_codes[rows].tolist(), increments) if inc > 0}
    base, fell = audit.before.base_period, _fell(audit.level_before, after).tolist()
    comparisons = tuple(
        LevelComparison(period, audit.before.levels[period], level, q not in raised or not f)
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

    audit = _Audit(ds, method)
    targets, own = audit.targets, audit.own
    before = audit.level_before[own, None]

    texts = [f"{m:g}" for m in grid]  # each multiplier spelled once

    def describe(row, g):
        return f"obs {ds.ids[row]} price x{texts[g]}"

    with np.errstate(over="ignore"):
        increments = ds.price[targets, None] * (np.array(grid, dtype=np.float64) - 1.0)
        x = audit.log_change(targets[:, None], increments)
        _check_raised(ds, targets[:, None], increments, x, lambda t, g: describe(targets[t], g))
        # x is exactly zero at every other sale, so the W @ x of _Audit.after is W[own, i] * x_i
        after = before * np.exp(audit.weights[own, targets][:, None] * x)
    dropped = _fell(before, after)
    t, g = np.nonzero(dropped)
    rows = targets[t].tolist()
    violations = _Violations(
        list(map(describe, rows, g.tolist())),
        [ds.periods[q] for q in own[t].tolist()],
        before[t, 0].tolist(),
        after[dropped].tolist(),
        [{ds.ids[row]: inc} for row, inc in zip(rows, increments[dropped].tolist())],
    )
    return MonotonicityReport(method=audit.before.method, trials=increments.size, violations=violations)


def _random_violations(
    audit: _Audit, trials: np.ndarray, block: np.ndarray, perturbed: np.ndarray
) -> tuple[list, ...]:
    """The violation columns of random trials ``trials[k]``, raising the audited sales by ``block[k]``.

    ``perturbed[k, q]`` says whether trial ``k`` raises a sale of period
    ``q``. One violation per level that falls in such a period, in trial
    order and then period order; the violations of one trial share its
    increments dict.
    """
    ds, targets = audit.ds, audit.targets
    after = audit.after(targets, block)
    k, q = np.nonzero(perturbed & _fell(audit.level_before, after))
    ids = [ds.ids[i] for i in targets.tolist()]
    rows = k.tolist()
    increments = {j: dict(zip(ids, block[j].tolist())) for j in set(rows)}
    periods = [ds.periods[p] for p in q.tolist()]
    descriptions = [f"trial {trial}" for trial in trials[k].tolist()]
    before = [audit.before.levels[period] for period in periods]
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
    audit = _Audit(ds, method)
    targets, prices, weights = audit.targets, ds.price[audit.targets], audit.target_weights
    # a level after is level_before * exp(s), which falls by at most
    # 1 - exp(-bound) <= bound: a bound of half the slack leaves the other half
    # for the rounding of exp, the product and the comparison. No price at
    # most _PRICE_CAP can overflow when raised, so no trial would be refused.
    # One weight below -RELATIVE_SLACK fails the bound alone: that cheap test
    # comes first, so that an audit with real negative weights pays little.
    if (
        prices.max() <= _PRICE_CAP
        and weights.min() >= -RELATIVE_SLACK
        and (audit.fall_bound() <= RELATIVE_SLACK / 2).all()
    ):
        return MonotonicityReport(method=audit.before.method, trials=int(trials), violations=_Violations())
    rng = np.random.default_rng(seed)
    margin = audit.rounding_margin()
    # float, not bool: a float matmul runs on BLAS and counts raised sales exactly
    in_period = np.equal.outer(audit.own, np.arange(len(ds.periods))).astype(np.float64)
    step = max(1, _DRAW_BUDGET // (2 * len(targets)))

    violations = _Violations()
    for start in range(0, trials, step):
        # one draw per block yields the same stream as a coins draw and a
        # magnitudes draw per trial, whatever the block size
        draws = rng.random((min(step, trials - start), 2, len(targets)))
        # every increment is >= 0, so a zero coin's factor gives exactly +0.0
        block = draws[:, 1] * prices
        block *= draws[:, 0] >= 0.5
        x = audit.log_change(targets, block)
        _check_raised(ds, targets, block, x, lambda k, _: f"trial {start + k}")
        perturbed = ((block > 0) @ in_period) > 0
        # where s > margin, the exact judge's s is positive, exp(s) >= 1 and no
        # level falls; a non-finite s or margin fails that test and its trial is judged
        s = x @ weights
        flagged = np.flatnonzero((perturbed & ~(s > margin)).any(axis=-1))
        if flagged.size:
            found = _random_violations(audit, start + flagged, block[flagged], perturbed[flagged])
            for column, new in zip(violations.columns, found):
                column += new
    return MonotonicityReport(method=audit.before.method, trials=int(trials), violations=violations)


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
