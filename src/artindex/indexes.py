"""Price index construction and the decomposition linking the two methods.

Two index methods are provided:

* ``npgm`` — each period's level is the geometric mean of the unitary
  prices (price / area), expressed relative to a base period.
* ``hpm`` — the conventional hedonic time-dummy index: fit a log-price
  regression with period dummies and exponentiate the dummy coefficients.

Every hedonic fit has an intercept and time dummies, so the two are tied
by an exact identity: the time-dummy level equals the ratio of raw-price
geometric means multiplied by a characteristics-adjustment factor theta.
Pinning the log-area coefficient at one (and using no free regressors)
collapses the hedonic index onto the npgm index exactly.

Both methods are log-linear in prices while characteristics stay fixed:
log I_q = log I_base + sum_i W[q, i] log p_i. For npgm, W[q, i] is
1/n_q for the sales of period q and -1/n_base for the base-period sales;
for hpm it is the period's time-dummy row of the design's pseudo-inverse,
and the design holds no prices. :func:`npgm_method` and
:func:`hpm_method` package each index with its W as an
:class:`IndexMethod`, which is what the monotonicity auditors evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .domain import Dataset, SaleObservation, partition_by_period, restrict_to_periods
from .errors import ModelError
from .regression import (
    ModelSpec,
    RegressionResult,
    build_design,
    characteristic_value,
    dummy_column_name,
    fit,
    pseudo_inverse,
    solve_least_squares,
)

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

    def level(self, period: str) -> float:
        try:
            return self.levels[period]
        except KeyError:
            raise ModelError(f"period {period!r} not in index series") from None


@dataclass(frozen=True)
class IndexMethod:
    """An index method with its price weights.

    Calling ``method(ds)`` computes the :class:`IndexSeries`.
    ``method.weights(ds)`` returns W = d log I / d log p as a
    (periods x observations) array: rows in ``ds.periods`` order, one
    column per observation in dataset order (base-period sales included),
    and an all-zero base row. W does not depend on prices, so raising
    prices by increments moves each level exactly to
    ``level[q] * exp(W[q] @ (log(p + increments) - log p))``.
    """

    series: Callable[[Dataset], IndexSeries]
    weights: Callable[[Dataset], np.ndarray]

    def __call__(self, ds: Dataset) -> IndexSeries:
        return self.series(ds)


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


def _geometric_mean(values: Iterable[float]) -> float:
    # exp of the mean log, never an n-fold product: prices span many
    # orders of magnitude and the product would overflow
    logs = np.log(np.asarray(list(values), dtype=np.float64))
    return float(np.exp(logs.mean()))


def price_geometric_mean(observations: Sequence[SaleObservation]) -> float:
    """Geometric mean of raw sale prices."""
    if not observations:
        raise ModelError("cannot take the geometric mean of an empty period")
    return _geometric_mean(o.price for o in observations)


def npgm_level(observations: Sequence[SaleObservation]) -> float:
    """Geometric mean of unitary prices for one period's observations."""
    if not observations:
        raise ModelError("cannot take the geometric mean of an empty period")
    return _geometric_mean(o.price / o.area for o in observations)


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
    parts = partition_by_period(ds)
    base_level = npgm_level(parts[base_period])
    levels = {
        p: base_value if p == base_period else base_value * npgm_level(parts[p]) / base_level
        for p in ds.periods
    }
    return IndexSeries(method=NPGM, base_period=base_period, base_value=base_value, levels=levels)


def _hpm_series(
    coefficient: Callable[[str], float], ds: Dataset, reference: str, base_value: float
) -> IndexSeries:
    levels = {
        p: base_value
        if p == reference
        else base_value * math.exp(coefficient(dummy_column_name(p)))
        for p in ds.periods
    }
    return IndexSeries(method=HPM, base_period=reference, base_value=base_value, levels=levels)


def hpm_index_from_result(
    result: RegressionResult,
    ds: Dataset,
    spec: ModelSpec,
    base_value: float = DEFAULT_BASE_VALUE,
) -> IndexSeries:
    """Time-dummy index read off an already-fitted hedonic model."""
    _require_base(ds, spec.reference_period, base_value)
    return _hpm_series(result.coefficient, ds, spec.reference_period, base_value)


def hpm_timedummy_index(
    ds: Dataset, spec: ModelSpec, base_value: float = DEFAULT_BASE_VALUE
) -> IndexSeries:
    """Conventional hedonic time-dummy index: solve OLS, exponentiate the dummies.

    Only the coefficients are computed, and they are the ones :func:`fit`
    reports, bit for bit.
    """
    _require_base(ds, spec.reference_period, base_value)
    sys = build_design(ds, spec)
    coef = solve_least_squares(sys)
    return _hpm_series(
        lambda name: float(coef[sys.column_names.index(name)]),
        ds,
        spec.reference_period,
        base_value,
    )


def _hpm_weights(ds: Dataset, spec: ModelSpec, base_value: float) -> np.ndarray:
    _require_base(ds, spec.reference_period, base_value)
    sys = build_design(ds, spec)
    pinv = pseudo_inverse(sys)
    w = np.zeros((len(ds.periods), len(ds.observations)))
    for q, period in enumerate(ds.periods):
        if period != spec.reference_period:
            w[q] = pinv[sys.column_names.index(dummy_column_name(period))]
    return w


def _npgm_weights(ds: Dataset, base_period: str, base_value: float) -> np.ndarray:
    _require_base(ds, base_period, base_value)
    position = {p: q for q, p in enumerate(ds.periods)}
    codes = np.array([position[o.period] for o in ds.observations])
    counts = np.bincount(codes, minlength=len(ds.periods))
    base = position[base_period]
    w = np.zeros((len(ds.periods), len(codes)))
    w[codes, np.arange(len(codes))] = 1.0 / counts[codes]
    w[:, codes == base] = -1.0 / counts[base]
    w[base] = 0.0
    return w


def pinned_log_area_spec(reference_period: str) -> ModelSpec:
    """The constrained hedonic model whose time-dummy index equals npgm.

    Log area enters with its coefficient pinned at one and no free
    characteristics remain, so the regression is run on log unitary
    prices.
    """
    return ModelSpec(reference_period=reference_period, pinned=(("log_area", 1.0),))


def npgm_method(base_period: str, base_value: float = DEFAULT_BASE_VALUE) -> IndexMethod:
    """The npgm index anchored at ``base_period``, for the monotonicity auditors."""
    return IndexMethod(
        series=lambda ds: npgm_index(ds, base_period, base_value),
        weights=lambda ds: _npgm_weights(ds, base_period, base_value),
    )


def hpm_method(spec: ModelSpec, base_value: float = DEFAULT_BASE_VALUE) -> IndexMethod:
    """The time-dummy index of ``spec``, for the monotonicity auditors."""
    return IndexMethod(
        series=lambda ds: hpm_timedummy_index(ds, spec, base_value),
        weights=lambda ds: _hpm_weights(ds, spec, base_value),
    )


def theta_factor(
    result: RegressionResult,
    ds: Dataset,
    period0: str,
    period1: str,
    spec: ModelSpec,
) -> float:
    """Characteristics-adjustment factor for the decomposition identity.

    theta = exp(sum_k beta_k * (mean_k(period0) - mean_k(period1))) where
    the sum runs over every characteristic in the model: free regressors
    use their fitted coefficients and pinned characteristics their pinned
    ones, which is what makes the identity exact for constrained fits too.
    """
    parts = partition_by_period(ds)
    for label in (period0, period1):
        if label not in parts:
            raise ModelError(f"period {label!r} not present in dataset")

    def mean_characteristic(name: str, period: str) -> float:
        values = [characteristic_value(o, name) for o in parts[period]]
        return float(np.mean(values))

    exponent = 0.0
    weighted = [(name, result.coefficient(name)) for name in spec.regressors]
    weighted.extend(spec.pinned)
    for name, beta in weighted:
        exponent += beta * (
            mean_characteristic(name, period0) - mean_characteristic(name, period1)
        )
    return math.exp(exponent)


def decompose_index(
    ds: Dataset, spec: ModelSpec, period0: str, period1: str
) -> DecompositionReport:
    """Verify the time-dummy decomposition on the two named periods.

    The dataset is restricted to the two periods, refitted with
    ``period0`` as the reference, and both sides of the identity are
    evaluated independently: the raw-price geometric-mean ratio times
    theta against the exponentiated time dummy.
    """
    sub = restrict_to_periods(ds, [period0, period1])
    two_spec = replace(spec, reference_period=period0)
    result = fit(sub, two_spec)

    parts = partition_by_period(sub)
    geomean_ratio = price_geometric_mean(parts[period1]) / price_geometric_mean(
        parts[period0]
    )
    theta = theta_factor(result, sub, period0, period1, two_spec)
    exp_delta = math.exp(result.coefficient(dummy_column_name(period1)))
    product = geomean_ratio * theta
    return DecompositionReport(
        geomean_ratio=geomean_ratio,
        theta=theta,
        product=product,
        exp_delta=exp_delta,
        identity_gap=abs(product - exp_delta) / exp_delta,
    )
