"""Sale-record data model: validation, unitary prices, period partitioning.

Every type here is immutable after construction and every function is
pure, so all of them are safe to use concurrently without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class UnitaryPrice:
    """Normalized price: currency per unit of area (USD / cm^2)."""

    value: float


@dataclass(frozen=True)
class Dataset:
    """Validated, period-partitioned collection of sale observations.

    Construct through :func:`validate_dataset`. ``periods`` lists the
    distinct period labels in first-appearance order unless an explicit
    order was supplied, and every listed period has at least one
    observation.
    """

    observations: tuple[SaleObservation, ...]
    periods: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.observations)

    def by_id(self, obs_id: str) -> SaleObservation:
        for obs in self.observations:
            if obs.id == obs_id:
                return obs
        raise ValidationError(f"unknown observation id {obs_id!r}")


def _positive_finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def normalize_price(obs: SaleObservation) -> UnitaryPrice:
    """Return the observation's unitary price, price divided by area."""
    problems = _record_problems(obs)
    if problems:
        raise ValidationError(problems)
    return UnitaryPrice(obs.price / obs.area)


def _record_problems(obs: SaleObservation) -> list[str]:
    problems = []
    for name, value in (
        ("price", obs.price),
        ("area", obs.area),
        ("aspect_ratio", obs.aspect_ratio),
    ):
        if not _positive_finite(value):
            problems.append(
                f"observation {obs.id!r}: {name} must be a positive finite "
                f"number, got {value!r}"
            )
    for name, value in obs.extra_characteristics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(
                f"observation {obs.id!r}: characteristic {name!r} must be a "
                f"finite number, got {value!r}"
            )
    return problems


def validate_dataset(
    records: Iterable[SaleObservation],
    period_order: Sequence[str] | None = None,
) -> Dataset:
    """Check every record and assemble a :class:`Dataset`.

    All problems are collected and raised together as a single
    :class:`ValidationError`; nothing is dropped silently. Validation is
    idempotent: feeding a valid dataset's observations back (with the
    same period order) reproduces an equal dataset.
    """
    observations = tuple(records)
    errors: list[str] = []
    if not observations:
        raise ValidationError("empty dataset")

    seen_ids: set[str] = set()
    periods_in_order: list[str] = []
    for obs in observations:
        if obs.id in seen_ids:
            errors.append(f"duplicate id {obs.id!r}")
        seen_ids.add(obs.id)
        errors.extend(_record_problems(obs))
        if obs.period not in periods_in_order:
            periods_in_order.append(obs.period)

    if period_order is not None:
        supplied = list(period_order)
        if len(set(supplied)) != len(supplied):
            errors.append("period order contains duplicate labels")
        for label in periods_in_order:
            if label not in supplied:
                errors.append(f"period {label!r} missing from supplied period order")
        for label in supplied:
            if label not in periods_in_order:
                errors.append(f"supplied period {label!r} has no observations")
        periods = tuple(supplied)
    else:
        periods = tuple(periods_in_order)

    if errors:
        raise ValidationError(errors)
    return Dataset(observations=observations, periods=periods)


def partition_by_period(ds: Dataset) -> dict[str, tuple[SaleObservation, ...]]:
    """Split observations by period; every observation lands in exactly one bin."""
    parts: dict[str, list[SaleObservation]] = {p: [] for p in ds.periods}
    for obs in ds.observations:
        parts[obs.period].append(obs)
    return {p: tuple(group) for p, group in parts.items()}


def restrict_to_periods(ds: Dataset, periods: Sequence[str]) -> Dataset:
    """Keep only observations whose period is in ``periods`` (order kept)."""
    wanted = list(periods)
    for label in wanted:
        if label not in ds.periods:
            raise ValidationError(f"period {label!r} not present in dataset")
    kept = tuple(o for o in ds.observations if o.period in wanted)
    return Dataset(observations=kept, periods=tuple(wanted))


def check_increments(ds: Dataset, increments: Mapping[str, float]) -> None:
    """Raise unless every increment is a non-negative finite number for a known id."""
    errors = []
    known = {o.id for o in ds.observations}
    for obs_id, inc in increments.items():
        if obs_id not in known:
            errors.append(f"perturbation references unknown observation id {obs_id!r}")
        elif not (isinstance(inc, (int, float)) and math.isfinite(inc) and inc >= 0):
            errors.append(
                f"perturbation for observation {obs_id!r} must be a "
                f"non-negative finite number, got {inc!r}"
            )
    if errors:
        raise ValidationError(errors)


def with_price_increments(ds: Dataset, increments: Mapping[str, float]) -> Dataset:
    """Return a copy of ``ds`` with ``increments[id]`` added to each price.

    Increments must be non-negative, finite, and refer to existing ids;
    characteristics are never touched.
    """
    check_increments(ds, increments)
    new_obs = tuple(
        replace(o, price=o.price + increments[o.id]) if o.id in increments else o
        for o in ds.observations
    )
    return Dataset(observations=new_obs, periods=ds.periods)


def with_price_scaled(ds: Dataset, obs_id: str, factor: float) -> Dataset:
    """Return a copy of ``ds`` with one observation's price multiplied."""
    if not (_positive_finite(factor)):
        raise ValidationError(f"price multiplier must be positive and finite, got {factor!r}")
    target = ds.by_id(obs_id)
    return with_price_increments(ds, {obs_id: target.price * (factor - 1.0)})


def with_period_relabeled(ds: Dataset, old: str, new: str) -> Dataset:
    """Return a copy of ``ds`` with every ``old`` period label renamed to ``new``."""
    if old not in ds.periods:
        raise ValidationError(f"period {old!r} not present in dataset")
    if new in ds.periods and new != old:
        raise ValidationError(f"period {new!r} already present in dataset")
    new_obs = tuple(
        replace(o, period=new) if o.period == old else o for o in ds.observations
    )
    new_periods = tuple(new if p == old else p for p in ds.periods)
    return Dataset(observations=new_obs, periods=new_periods)
