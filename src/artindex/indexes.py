"""Price index construction and the decomposition linking the two methods.

Two index methods are provided:

* ``npgm`` — each period's level is the geometric mean of the unitary
  prices (price / area), expressed relative to a base period.
* ``hpm`` — the conventional hedonic time-dummy index: fit a log-price
  regression with period dummies and exponentiate the dummy coefficients.

Every hedonic fit has an intercept and time dummies, so the two are tied
by an exact identity: the time-dummy level equals the ratio of raw-price
geometric means multiplied by a characteristics-adjustment factor theta.
:func:`decompose_index` reads both sides off the one fit whose dummy it
explains, the fit of the whole dataset that the hpm index itself comes
from. Pinning the log-area coefficient at one (and using no free
regressors) collapses the hedonic index onto the npgm index exactly.

Both methods are log-linear in prices while characteristics stay fixed:
log I_q = log I_base + sum_i W[q, i] log p_i. For npgm, W[q, i] is
1/n_q for the sales of period q and -1/n_base for the base-period sales;
for hpm it is the period's time-dummy row of the design's pseudo-inverse,
and the design holds no prices. :func:`npgm_method` and
:func:`hpm_method` package each index with its W as an
:class:`IndexMethod`, which is what the monotonicity auditors evaluate.
The hpm series alone needs only the coefficients, so
:func:`hpm_timedummy_index` forms no pseudo-inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .domain import Dataset, partition_by_period
from .errors import ModelError

if TYPE_CHECKING:
    from .regression import ModelSpec, RegressionResult

# The hedonic functions import ``regression`` where they run, so that the
# npgm index loads no regression code.

NPGM = "npgm"
HPM = "hpm"

DEFAULT_BASE_VALUE = 100.0


@dataclass(frozen=True)
class IndexSeries:
    """Per-period index levels anchored at ``levels[base_period] == base_value``."""

    method: str
    base_period: str
    base_value: float
    levels: Mapping[str, float]

    def __post_init__(self):
        for period, level in self.levels.items():
            if not (math.isfinite(level) and level > 0):
                raise ModelError(
                    f"level {period!r} is past the float range at base value {self.base_value!r}"
                )

    def level(self, period: str) -> float:
        try:
            return self.levels[period]
        except KeyError:
            raise ModelError(f"period {period!r} not in index series") from None


@dataclass(frozen=True)
class IndexMethod:
    """An index method with its price weights.

    ``method.evaluate(ds)`` computes the :class:`IndexSeries` and
    W = d log I / d log p together (for hpm from one factorization);
    ``method(ds)`` and ``method.weights(ds)`` return one of the two. W is
    a (periods x observations) array: rows in ``ds.periods`` order, one
    column per observation in dataset order (base-period sales included),
    and an all-zero base row. W does not depend on prices, so raising
    prices by increments moves each level exactly to
    ``level[q] * exp(W[q] @ (log(p + increments) - log p))``.
    """

    evaluate: Callable[[Dataset], tuple[IndexSeries, np.ndarray]]

    def __call__(self, ds: Dataset) -> IndexSeries:
        return self.evaluate(ds)[0]

    def weights(self, ds: Dataset) -> np.ndarray:
        return self.evaluate(ds)[1]


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the time-dummy decomposition identity.

    ``geomean_ratio`` is the ratio of raw-price geometric means (period 1
    over period 0), ``theta`` the characteristics adjustment, and the
    identity says ``geomean_ratio * theta == exp_delta`` for OLS fits.
    """

    geomean_ratio: float
    theta: float
    product: float
    exp_delta: float
    identity_gap: float


def _geometric_mean(values: np.ndarray) -> float:
    # exp of the mean log, never an n-fold product: prices span many
    # orders of magnitude and the product would overflow
    if not len(values):
        raise ModelError("cannot take the geometric mean of an empty period")
    return float(np.exp(np.log(values).mean()))


def two_period_rows(ds: Dataset, period0: str, period1: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``period0`` and of ``period1``, refusing equal periods or one the dataset lacks."""
    if period0 == period1:
        raise ModelError(f"the two periods must differ, got {period0!r} twice")
    parts = partition_by_period(ds)
    for label in (period0, period1):
        if label not in parts:
            raise ModelError(f"period {label!r} not present in dataset")
    return parts[period0], parts[period1]


def _require_base(ds: Dataset, base_period: str, base_value: float) -> None:
    if len(ds.periods) < 2:
        raise ModelError(
            f"index computation needs at least two periods, dataset has "
            f"{len(ds.periods)}"
        )
    if base_period not in ds.periods:
        raise ModelError(
            f"base period {base_period!r} not in dataset periods {list(ds.periods)}"
        )
    if not (math.isfinite(base_value) and base_value > 0):
        raise ModelError(f"base value must be positive and finite, got {base_value!r}")


def npgm_index(
    ds: Dataset, base_period: str, base_value: float = DEFAULT_BASE_VALUE
) -> IndexSeries:
    """Normalized-price geometric-mean index across all periods of ``ds``."""
    _require_base(ds, base_period, base_value)
    unit_price = ds.price / ds.area
    level = {p: _geometric_mean(unit_price[rows]) for p, rows in partition_by_period(ds).items()}
    levels = dict.fromkeys(ds.periods, base_value)
    for p in ds.periods:
        if p != base_period:
            scaled = base_value * level[p]
            # the product can pass float max where the level itself fits:
            # only then divide first, so that every other level keeps its bits
            levels[p] = (
                scaled / level[base_period]
                if math.isfinite(scaled)
                else base_value * (level[p] / level[base_period])
            )
    return IndexSeries(method=NPGM, base_period=base_period, base_value=base_value, levels=levels)


def _hpm_series(
    column_names: Sequence[str], coef: np.ndarray, ds: Dataset, reference: str, base_value: float
) -> IndexSeries:
    from .regression import dummy_column_name

    coefficient = dict(zip(column_names, coef.tolist()))
    levels = dict.fromkeys(ds.periods, base_value)
    for p in ds.periods:
        if p != reference:
            delta = coefficient[dummy_column_name(p)]
            try:
                levels[p] = base_value * math.exp(delta)
            except OverflowError:
                # a dummy past log(float max) may still give a finite level at a
                # base value below 1; past that, IndexSeries refuses the infinite level
                try:
                    levels[p] = math.exp(delta + math.log(base_value))
                except OverflowError:
                    levels[p] = math.inf
    return IndexSeries(method=HPM, base_period=reference, base_value=base_value, levels=levels)


def hpm_index_from_result(
    result: RegressionResult,
    ds: Dataset,
    spec: ModelSpec,
    base_value: float = DEFAULT_BASE_VALUE,
) -> IndexSeries:
    """Time-dummy index read off an already-fitted hedonic model."""
    _require_base(ds, spec.reference_period, base_value)
    return _hpm_series(result.column_names, result.coefficients, ds, spec.reference_period, base_value)


def hpm_timedummy_index(
    ds: Dataset, spec: ModelSpec, base_value: float = DEFAULT_BASE_VALUE
) -> IndexSeries:
    """Conventional hedonic time-dummy index: solve OLS, exponentiate the dummies.

    The coefficients come from :func:`solve_least_squares`, the R-only
    factorization that :func:`fit` runs, so the levels are :func:`fit`'s
    bit for bit; no Q, weights or statistics are computed.
    """
    from .regression import build_design, solve_least_squares

    _require_base(ds, spec.reference_period, base_value)
    sys = build_design(ds, spec)
    return _hpm_series(sys.column_names, solve_least_squares(sys), ds, spec.reference_period, base_value)


def _hpm_evaluate(
    ds: Dataset, spec: ModelSpec, base_value: float
) -> tuple[IndexSeries, np.ndarray]:
    from .regression import build_design, solve_with_pseudo_inverse

    _require_base(ds, spec.reference_period, base_value)
    sys = build_design(ds, spec)
    coef, pinv = solve_with_pseudo_inverse(sys)
    series = _hpm_series(sys.column_names, coef, ds, spec.reference_period, base_value)
    w = np.zeros((len(ds.periods), len(ds)))
    # the dummy rows of X+ come last, in period order without the reference
    w[np.arange(len(w)) != ds.periods.index(spec.reference_period)] = pinv[len(pinv) - len(w) + 1 :]
    return series, w


def _npgm_evaluate(
    ds: Dataset, base_period: str, base_value: float
) -> tuple[IndexSeries, np.ndarray]:
    series = npgm_index(ds, base_period, base_value)
    codes = ds.period_codes
    counts = np.bincount(codes, minlength=len(ds.periods))
    base = ds.periods.index(base_period)
    w = np.zeros((len(ds.periods), len(codes)))
    w[codes, np.arange(len(codes))] = 1.0 / counts[codes]
    w[:, codes == base] = -1.0 / counts[base]
    w[base] = 0.0
    return series, w


def pinned_log_area_spec(reference_period: str) -> ModelSpec:
    """The constrained hedonic model whose time-dummy index equals npgm.

    Log area enters with its coefficient pinned at one and no free
    characteristics remain, so the regression is run on log unitary
    prices.
    """
    from .regression import ModelSpec

    return ModelSpec(reference_period=reference_period, pinned=(("log_area", 1.0),))


def npgm_method(base_period: str, base_value: float = DEFAULT_BASE_VALUE) -> IndexMethod:
    """The npgm index anchored at ``base_period``, for the monotonicity auditors."""
    return IndexMethod(lambda ds: _npgm_evaluate(ds, base_period, base_value))


def hpm_method(spec: ModelSpec, base_value: float = DEFAULT_BASE_VALUE) -> IndexMethod:
    """The time-dummy index of ``spec``, for the monotonicity auditors."""
    return IndexMethod(lambda ds: _hpm_evaluate(ds, spec, base_value))


def _decomposition(
    result: RegressionResult, ds: Dataset, spec: ModelSpec, period1: str
) -> DecompositionReport:
    """Both sides of the identity for ``period1`` against the reference, read off ``result``.

    ``result`` is the fit of ``spec`` on ``ds``, and the reference is
    ``spec.reference_period``. theta =
    exp(sum_k beta_k * (mean_k(reference) - mean_k(period1))), where the sum
    runs over every characteristic in the model: free regressors use their
    fitted coefficients and pinned characteristics their pinned ones, which
    is what makes the identity exact for constrained fits too.
    """
    from .regression import characteristic_column, dummy_column_name

    rows0, rows1 = two_period_rows(ds, spec.reference_period, period1)
    geomean_ratio = _geometric_mean(ds.price[rows1]) / _geometric_mean(ds.price[rows0])
    exponent = 0.0
    weighted = [(name, result.coefficient(name)) for name in spec.regressors]
    weighted.extend(spec.pinned)
    for name, beta in weighted:
        column = characteristic_column(ds, name)
        exponent += beta * (float(np.mean(column[rows0])) - float(np.mean(column[rows1])))
    theta = math.exp(exponent)
    exp_delta = math.exp(result.coefficient(dummy_column_name(period1)))
    product = geomean_ratio * theta
    return DecompositionReport(
        geomean_ratio=geomean_ratio,
        theta=theta,
        product=product,
        exp_delta=exp_delta,
        identity_gap=abs(product - exp_delta) / exp_delta,
    )


def decompose_index(
    ds: Dataset, spec: ModelSpec, period0: str, period1: str
) -> DecompositionReport:
    """Verify the time-dummy decomposition of ``period1`` against ``period0``.

    ``spec`` is fitted once on the whole dataset with ``period0`` as the
    reference, so exp delta is the level ``period1`` has in that model's
    index (over 100). Both sides of the identity are then evaluated
    independently: the raw-price geometric-mean ratio times theta against
    the exponentiated time dummy.
    """
    from .regression import fit

    # equal or missing periods are a model error, found before the fit
    two_period_rows(ds, period0, period1)
    spec = replace(spec, reference_period=period0)
    return _decomposition(fit(ds, spec), ds, spec, period1)
