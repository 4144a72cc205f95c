"""CSV ingestion and the bundled Renoir 1989-1990 auction dataset."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .domain import Dataset, SaleObservation, validate_dataset
from .errors import ValidationError

BUNDLED_DATA_NAME = "renoir_1989_1990.csv"


@dataclass(frozen=True)
class InputSchema:
    """Column mapping and parsing configuration for sale-record CSV files.

    Exactly one area source must be mapped: either ``area_column`` or
    both ``height_column`` and ``width_column`` (area is then height
    times width, and the aspect ratio height over width unless a ratio
    column is mapped too). Without height/width, ``aspect_ratio_column``
    is required since every record carries an aspect ratio. When
    ``has_header`` is false, column references are 0-based indexes
    written as strings.
    """

    id_column: str = "id"
    period_column: str = "dataset"
    price_column: str = "price_usd"
    area_column: str | None = "area_cm2"
    height_column: str | None = None
    width_column: str | None = None
    aspect_ratio_column: str | None = "hw_ratio"
    extra_columns: tuple[str, ...] = ()
    decimal_separator: str = "."
    has_header: bool = True

    def check(self) -> None:
        has_area = self.area_column is not None
        has_hw = self.height_column is not None and self.width_column is not None
        if (self.height_column is None) != (self.width_column is None):
            raise ValidationError(
                "height and width columns must be mapped together"
            )
        if has_area == has_hw:
            raise ValidationError(
                "exactly one of an area column or a height/width column pair "
                "must be mapped"
            )
        if not has_hw and self.aspect_ratio_column is None:
            raise ValidationError(
                "an aspect ratio column is required unless height and width "
                "columns are mapped"
            )
        if len(self.decimal_separator) != 1:
            raise ValidationError(
                f"decimal separator must be a single character, got "
                f"{self.decimal_separator!r}"
            )


def bundled_data_path() -> Path:
    """Filesystem path of the packaged Renoir 1989-1990 dataset."""
    return Path(str(resources.files("artindex").joinpath("data", BUNDLED_DATA_NAME)))


def load_bundled_dataset() -> Dataset:
    """The packaged Renoir 1989-1990 dataset (periods A and B)."""
    return load_csv(bundled_data_path())


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


def load_csv(
    path: str | Path,
    schema: InputSchema | None = None,
    period_order: Sequence[str] | None = None,
) -> Dataset:
    """Read sale records from a CSV file and validate them into a Dataset.

    Parsing problems are reported with 1-based data row numbers and the
    offending column; record-level validation then runs through
    :func:`artindex.domain.validate_dataset`.
    """
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
            # a parse or width error is already recorded
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
    return validate_dataset(records, period_order=period_order)
