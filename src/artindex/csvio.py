"""CSV ingestion and the bundled Renoir 1989-1990 auction dataset."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import Dataset, _from_columns
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
            raise ValidationError("height and width columns must be mapped together")
        if has_area == has_hw:
            raise ValidationError(
                "exactly one of an area column or a height/width column pair must be mapped"
            )
        if not has_hw and self.aspect_ratio_column is None:
            raise ValidationError(
                "an aspect ratio column is required unless height and width columns are mapped"
            )
        if len(self.decimal_separator) != 1:
            raise ValidationError(
                f"decimal separator must be a single character, got {self.decimal_separator!r}"
            )


def bundled_data_path() -> Path:
    """Filesystem path of the packaged Renoir 1989-1990 dataset."""
    return Path(str(resources.files("artindex").joinpath("data", BUNDLED_DATA_NAME)))


def load_bundled_dataset() -> Dataset:
    """The packaged Renoir 1989-1990 dataset (periods A and B)."""
    return load_csv(bundled_data_path())


def _positions(header: Sequence[str] | None, width: int, schema: InputSchema) -> dict[str, int]:
    """Cell position of every mapped column, in the order a row's cells are read."""
    s = schema
    refs = [s.id_column, s.period_column, s.price_column, s.area_column, s.height_column]
    refs += [s.width_column, s.aspect_ratio_column, *s.extra_columns]
    positions: dict[str, int] = {}
    missing = []
    for ref in (ref for ref in refs if ref is not None):
        try:
            pos = header.index(ref) if header is not None else int(ref)
        except ValueError:
            pos = -1
        if pos >= 0 and (header is not None or pos < width):
            positions[ref] = pos
        else:
            missing.append(ref)
    if missing:
        raise ValidationError([f"column {ref!r} not found in input file" for ref in missing])
    return positions


def load_csv(
    path: str | Path,
    schema: InputSchema | None = None,
    period_order: Sequence[str] | None = None,
) -> Dataset:
    """Read sale records from a CSV file and validate them into a Dataset.

    The file is read column by column: each numeric column is parsed with
    Python's ``float`` and checked as a whole. Parsing problems are
    reported with 1-based data row numbers and the offending column, row
    by row; only a file that parses is then checked record by record, as
    :func:`artindex.domain.validate_dataset` checks records.
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
    # a row is blank when all of its cells are whitespace
    rows = list(compress(rows, map(str.strip, map("".join, rows))))
    if not rows:
        raise ValidationError("empty dataset")

    positions = _positions(header, max(map(len, rows)), schema)
    last = max(positions.values())
    if min(map(len, rows)) <= last:
        row_number, row = next((i, r) for i, r in enumerate(rows, start=1) if len(r) <= last)
        ref = next(ref for ref, pos in positions.items() if pos >= len(row))
        raise ValidationError(f"row {row_number}: missing column {ref!r}")

    def cells(ref: str) -> list[str]:
        return list(map(itemgetter(positions[ref]), rows))

    # messages per 0-based row, each row's in column order
    problems: dict[int, list[str]] = {}

    def numbers(ref: str, positive: bool = False) -> np.ndarray:
        raw = cells(ref)
        text = raw
        if schema.decimal_separator != ".":
            text = [cell.strip().replace(schema.decimal_separator, ".") for cell in raw]
        failed: set[int] = set()
        try:
            # float() ignores surrounding whitespace, as the stripped cell would
            values = np.fromiter(map(float, text), dtype=np.float64, count=len(text))
        except ValueError:
            # again cell by cell, stripped: str.strip() also removes the
            # separator controls U+001C..U+001F, which float() refuses
            values = np.full(len(text), np.nan)
            for i, cell in enumerate(text):
                try:
                    values[i] = float(cell.strip())
                except ValueError:
                    failed.add(i)
                    problems.setdefault(i, []).append(
                        f"row {i + 1}, column {ref!r}: could not parse "
                        f"{raw[i].strip()!r} as a number"
                    )
        for i in np.flatnonzero(~(values > 0)).tolist() if positive else ():
            if i not in failed:
                problems.setdefault(i, []).append(
                    f"row {i + 1}, column {ref!r}: width must be positive, got {float(values[i])!r}"
                )
        return values

    price = numbers(schema.price_column)
    if schema.area_column is not None:
        area = numbers(schema.area_column)
    else:
        height = numbers(schema.height_column)
        width = numbers(schema.width_column, positive=True)
        with np.errstate(all="ignore"):
            area, ratio = height * width, height / width
    if schema.aspect_ratio_column is not None:
        ratio = numbers(schema.aspect_ratio_column)
    extras = {ref: numbers(ref) for ref in schema.extra_columns}

    if problems:
        raise ValidationError([m for i in sorted(problems) for m in problems[i]])
    return _from_columns(
        list(map(str.strip, cells(schema.id_column))),
        list(map(str.strip, cells(schema.period_column))),
        {"price": price, "area": area, "aspect_ratio": ratio},
        extras,
        period_order,
    )
