"""Row-by-row definitions of CSV loading and record validation: the oracle for the columnar ones.

Every data row is read cell by cell into a :class:`SaleObservation`, and
every record is then checked on its own, in file order. Both return the
records and the period order instead of a ``Dataset``, or raise the
``ValidationError`` the library must raise too. Tests compare the
library's ``load_csv`` and ``validate_dataset`` with these.
"""

from __future__ import annotations

import csv
import math
import numbers
from pathlib import Path
from typing import Iterable, Sequence

from artindex import InputSchema, SaleObservation, ValidationError

Records = tuple[tuple[SaleObservation, ...], tuple[str, ...]]


def _finite(value: object) -> bool:
    """A real number, numpy scalars included, finite as a float (an int past its range is not)."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


def _positive_finite(value: object) -> bool:
    return _finite(value) and value > 0


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
        if not _finite(value):
            problems.append(
                f"observation {obs.id!r}: characteristic {name!r} must be a "
                f"finite number, got {value!r}"
            )
    return problems


def validate_records(
    records: Iterable[SaleObservation], period_order: Sequence[str] | None = None
) -> Records:
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
    return observations, periods


class _RowReader:
    """Resolves schema column references against one CSV file."""

    def __init__(self, header: Sequence[str] | None, width: int, schema: InputSchema):
        self._schema = schema
        self._positions: dict[str, int] = {}
        missing = []
        for ref in self._references():
            if header is not None:
                try:
                    self._positions[ref] = header.index(ref)
                except ValueError:
                    missing.append(ref)
            else:
                try:
                    pos = int(ref)
                except ValueError:
                    missing.append(ref)
                    continue
                if not 0 <= pos < width:
                    missing.append(ref)
                else:
                    self._positions[ref] = pos
        if missing:
            raise ValidationError(
                [f"column {ref!r} not found in input file" for ref in missing]
            )

    def _references(self) -> list[str]:
        s = self._schema
        refs = [s.id_column, s.period_column, s.price_column]
        for ref in (s.area_column, s.height_column, s.width_column, s.aspect_ratio_column):
            if ref is not None:
                refs.append(ref)
        refs.extend(s.extra_columns)
        return refs

    def text(self, row: Sequence[str], ref: str, row_number: int) -> str:
        pos = self._positions[ref]
        if pos >= len(row):
            raise ValidationError(f"row {row_number}: missing column {ref!r}")
        return row[pos].strip()

    def number(
        self, row: Sequence[str], ref: str, row_number: int, errors: list[str]
    ) -> float | None:
        raw = self.text(row, ref, row_number)
        normalized = raw.replace(self._schema.decimal_separator, ".")
        try:
            return float(normalized)
        except ValueError:
            errors.append(
                f"row {row_number}, column {ref!r}: could not parse {raw!r} as a number"
            )
            return None


def load_records(
    path: str | Path,
    schema: InputSchema | None = None,
    period_order: Sequence[str] | None = None,
) -> Records:
    schema = schema or InputSchema()
    schema.check()
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc

    header: list[str] | None = None
    if schema.has_header:
        if not rows:
            raise ValidationError("empty dataset")
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise ValidationError("empty dataset")

    reader = _RowReader(header, max(len(r) for r in rows), schema)
    errors: list[str] = []
    records: list[SaleObservation] = []
    for row_number, row in enumerate(rows, start=1):
        obs_id = reader.text(row, schema.id_column, row_number)
        period = reader.text(row, schema.period_column, row_number)
        price = reader.number(row, schema.price_column, row_number, errors)
        if schema.area_column is not None:
            area = reader.number(row, schema.area_column, row_number, errors)
            height = width = None
        else:
            height = reader.number(row, schema.height_column, row_number, errors)
            width = reader.number(row, schema.width_column, row_number, errors)
            if width is not None and not width > 0:
                errors.append(
                    f"row {row_number}, column {schema.width_column!r}: width must "
                    f"be positive, got {width!r}"
                )
                width = None
            area = height * width if height is not None and width is not None else None
        if schema.aspect_ratio_column is not None:
            ratio = reader.number(row, schema.aspect_ratio_column, row_number, errors)
        elif height is not None and width is not None:
            ratio = height / width
        else:
            ratio = None
        extras = {}
        for ref in schema.extra_columns:
            value = reader.number(row, ref, row_number, errors)
            if value is not None:
                extras[ref] = value
        if price is None or area is None or ratio is None:
            continue
        records.append(
            SaleObservation(
                id=obs_id,
                period=period,
                price=price,
                area=area,
                aspect_ratio=ratio,
                extra_characteristics=extras,
            )
        )

    if errors:
        raise ValidationError(errors)
    return validate_records(records, period_order=period_order)
