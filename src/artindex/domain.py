"""Sale-record data model: a columnar dataset, its validation, price perturbations.

A :class:`Dataset` holds its sales as columns (ids, period codes, and
float64 price, area, aspect ratio and extra characteristics), which
indexes, fits and audits read directly. :class:`SaleObservation` is the
one-record view, built only on request. Every type here is immutable
after construction (the arrays are read-only) and every function is
pure, so all of them are safe to use concurrently without locking.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SaleObservation:
    """One auction record.

    ``price`` is the realized sale price in nominal currency units (the
    bundled data uses 2010 US dollars), ``area`` the painting surface in
    cm^2, ``aspect_ratio`` height over width. ``extra_characteristics``
    carries any additional named hedonic regressors. Construction does not
    validate; invariants are enforced by :func:`validate_dataset`.
    """

    id: str
    period: str
    price: float
    area: float
    aspect_ratio: float
    extra_characteristics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated, period-partitioned sale records, stored as columns.

    Construct through :func:`validate_dataset` or
    :func:`artindex.load_csv`. Row ``i`` is one sale: ``ids[i]``, period
    ``periods[period_codes[i]]``, ``price[i]``, ``area[i]``,
    ``aspect_ratio[i]`` and ``extras[name][i]`` for every extra
    characteristic. ``periods`` lists the distinct labels in
    first-appearance order unless an explicit order was supplied, and
    every listed period has at least one sale. The arrays are read-only.

    ``observations`` holds the same rows as :class:`SaleObservation`
    records, built on first access and cached. Two datasets are equal
    when their observations and periods are.
    """

    ids: tuple[str, ...]
    periods: tuple[str, ...]
    period_codes: np.ndarray
    price: np.ndarray
    area: np.ndarray
    aspect_ratio: np.ndarray
    extras: Mapping[str, np.ndarray]

    def __post_init__(self):
        for column in (self.period_codes, self.price, self.area, self.aspect_ratio):
            column.setflags(write=False)
        for column in self.extras.values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.periods == other.periods and self.observations == other.observations

    @cached_property
    def observations(self) -> tuple[SaleObservation, ...]:
        return tuple(map(self._record, range(len(self))))

    @cached_property
    def _rows(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def _record(self, i: int) -> SaleObservation:
        numbers = (float(self.price[i]), float(self.area[i]), float(self.aspect_ratio[i]))
        extras = {name: float(column[i]) for name, column in self.extras.items()}
        return SaleObservation(self.ids[i], self.periods[self.period_codes[i]], *numbers, extras)

    def row(self, obs_id: str) -> int:
        """Position of the sale with id ``obs_id``."""
        try:
            return self._rows[obs_id]
        except KeyError:
            raise ValidationError(f"unknown observation id {obs_id!r}") from None

    def by_id(self, obs_id: str) -> SaleObservation:
        return self._record(self.row(obs_id))


_BUILTIN_COLUMNS = ("price", "area", "aspect_ratio")


def _floats(column: Sequence[object]) -> np.ndarray:
    if isinstance(column, np.ndarray):
        return column
    return np.array([float(v) if is_finite_real(v) else math.nan for v in column])


def _from_columns(
    ids: Sequence[str],
    labels: Sequence[str],
    numbers: Mapping[str, Sequence[object]],
    extras: Mapping[str, Sequence[object]],
    period_order: Sequence[str] | None = None,
) -> Dataset:
    """Check columns of sale records and assemble a :class:`Dataset`.

    ``numbers`` maps price, area and aspect_ratio to their columns, which
    must be positive and finite; ``extras`` maps each extra
    characteristic to its column, which must be finite. A column is a
    float64 array, or a sequence of raw values, where a value that is not
    a real number a float can hold (numpy scalars included) is a problem
    too and messages quote values as given. Ids must be distinct, and a
    supplied period order must list each observed label once. Every
    problem is raised in one :class:`ValidationError`, row by row.
    """
    ids = tuple(ids)
    n = len(ids)
    if not n:
        raise ValidationError("empty dataset")
    checks = [
        (f"{name} must be a positive finite number", numbers[name]) for name in _BUILTIN_COLUMNS
    ]
    checks += [
        (f"characteristic {name!r} must be a finite number", column)
        for name, column in extras.items()
    ]
    floats = [_floats(column) for _, column in checks]
    bad = [~(np.isfinite(f) & (f > 0)) for f in floats[:3]] + [~np.isfinite(f) for f in floats[3:]]
    flagged = np.logical_or.reduce(bad)
    duplicates: set[int] = set()
    if len(set(ids)) < n:
        seen: set[str] = set()
        duplicates = {i for i, obs_id in enumerate(ids) if obs_id in seen or seen.add(obs_id)}
        flagged[list(duplicates)] = True

    errors: list[str] = []
    for i in np.flatnonzero(flagged).tolist():
        if i in duplicates:
            errors.append(f"duplicate id {ids[i]!r}")
        for (rule, column), mask in zip(checks, bad):
            if mask[i]:
                value = float(column[i]) if isinstance(column, np.ndarray) else column[i]
                errors.append(f"observation {ids[i]!r}: {rule}, got {value!r}")

    observed = tuple(dict.fromkeys(labels))
    periods = observed if period_order is None else tuple(period_order)
    if period_order is not None:
        if len(set(periods)) != len(periods):
            errors.append("period order contains duplicate labels")
        errors += [
            f"period {p!r} missing from supplied period order" for p in observed if p not in periods
        ]
        errors += [
            f"supplied period {p!r} has no observations" for p in periods if p not in observed
        ]
    if errors:
        raise ValidationError(errors)
    code = {label: q for q, label in enumerate(periods)}
    return Dataset(
        ids=ids,
        periods=periods,
        period_codes=np.fromiter(map(code.__getitem__, labels), dtype=np.intp, count=n),
        price=floats[0],
        area=floats[1],
        aspect_ratio=floats[2],
        extras=dict(zip(extras, floats[3:])),
    )


def validate_dataset(
    records: Iterable[SaleObservation],
    period_order: Sequence[str] | None = None,
) -> Dataset:
    """Check every record and assemble a :class:`Dataset`.

    The records become columns and pass the checks of a loaded file:
    all problems are raised together in one :class:`ValidationError`,
    and nothing is dropped silently. A record that lacks an extra
    characteristic another record carries has it as ``None``, which the
    checks refuse. Validation is idempotent: feeding a valid dataset's
    observations back (with the same period order) reproduces an equal
    dataset.
    """
    records = tuple(records)
    names = dict.fromkeys(name for o in records for name in o.extra_characteristics)
    return _from_columns(
        [o.id for o in records],
        [o.period for o in records],
        {name: [getattr(o, name) for o in records] for name in _BUILTIN_COLUMNS},
        {name: [o.extra_characteristics.get(name) for o in records] for name in names},
        period_order,
    )


def partition_by_period(ds: Dataset) -> dict[str, np.ndarray]:
    """Rows of each period, in dataset order; every row lands in exactly one bin."""
    return {p: np.flatnonzero(ds.period_codes == q) for q, p in enumerate(ds.periods)}


def is_finite_real(value: object) -> bool:
    """Whether ``value`` is a finite real number, numpy scalars included, that a float can hold."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_increments(ds: Dataset, increments: Mapping[str, float]) -> None:
    """Raise unless every increment is non-negative, for a known id, and leaves its price finite."""
    errors = []
    for obs_id, inc in increments.items():
        if obs_id not in ds._rows:
            errors.append(f"perturbation references unknown observation id {obs_id!r}")
        elif not (is_finite_real(inc) and inc >= 0):
            errors.append(
                f"perturbation for observation {obs_id!r} must be a "
                f"non-negative finite number, got {inc!r}"
            )
        elif not math.isfinite(float(ds.price[ds._rows[obs_id]]) + float(inc)):
            errors.append(f"perturbation for observation {obs_id!r} overflows its price, got {inc!r}")
    if errors:
        raise ValidationError(errors)


def with_price_increments(ds: Dataset, increments: Mapping[str, float]) -> Dataset:
    """Return a copy of ``ds`` with ``increments[id]`` added to each price.

    Increments must be non-negative, finite, and refer to existing ids;
    characteristics are never touched.
    """
    check_increments(ds, increments)
    price = ds.price.copy()
    rows = [ds.row(obs_id) for obs_id in increments]
    price[rows] += np.array([float(inc) for inc in increments.values()])
    return replace(ds, price=price)


def with_price_scaled(ds: Dataset, obs_id: str, factor: float) -> Dataset:
    """Return a copy of ``ds`` with one observation's price multiplied by ``factor`` >= 1."""
    if not (is_finite_real(factor) and factor >= 1):
        raise ValidationError(f"price multiplier must be finite and at least 1, got {factor!r}")
    price = float(ds.price[ds.row(obs_id)])
    return with_price_increments(ds, {obs_id: price * (float(factor) - 1.0)})


def with_period_relabeled(ds: Dataset, old: str, new: str) -> Dataset:
    """Return a copy of ``ds`` with every ``old`` period label renamed to ``new``."""
    if old not in ds.periods:
        raise ValidationError(f"period {old!r} not present in dataset")
    if new in ds.periods and new != old:
        raise ValidationError(f"period {new!r} already present in dataset")
    return replace(ds, periods=tuple(new if p == old else p for p in ds.periods))
