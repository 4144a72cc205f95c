"""CSV ingestion and the bundled Renoir 1989-1990 auction dataset."""

from __future__ import annotations

import csv
import io
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._record import record
from .domain import Dataset, _from_columns
from .errors import ValidationError

BUNDLED_DATA_NAME = "renoir_1989_1990.csv"
# built once: a command on the bundled data would otherwise pay for a new Path each run
_BUNDLED_DATA_PATH = Path(__file__).with_name("data") / BUNDLED_DATA_NAME

# every character str.strip() removes (those str.isspace() accepts), and the comma
_BLANK = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000,"
)

# The data rows of a CSV text: its header row (None when it has none), each
# row length with the 1-based number of the first data row of that length,
# and a function listing the cells at one position, one per data row.
_Table = tuple[list[str] | None, dict[int, int], Callable[[int], list[str]]]


@record
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
    return _BUNDLED_DATA_PATH


def load_bundled_dataset() -> Dataset:
    """The packaged Renoir 1989-1990 dataset (periods A and B)."""
    return load_csv(bundled_data_path())


def _positions(header: Sequence[str] | None, width: int, schema: InputSchema) -> dict[str, int]:
    """Cell position of every mapped column, in the order a row's cells are read.

    A mapped column the header lacks, or names more than once, is refused.
    """
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
    repeated = [ref for ref in positions if header is not None and header.count(ref) > 1]
    if missing or repeated:
        raise ValidationError(
            [f"column {ref!r} not found in input file" for ref in missing]
            + [f"column {ref!r} appears more than once in the header" for ref in repeated]
        )
    return positions


def _split_unquoted(text: str, has_header: bool) -> _Table | None:
    """The table of CSV text without quotes, read with two ``str.split`` calls.

    Returns None when the text needs ``csv.reader``: it holds a quote or
    a NUL (which ``csv.reader`` refuses before Python 3.11), a line longer
    than the csv module's field size limit, or data rows with unequal
    numbers of cells. Otherwise the table matches ``csv.reader``'s row
    for row, and no per-row list is built.
    """
    if '"' in text or "\0" in text:
        return None
    # csv.reader's lines: each ends at \r\n, \r or \n, never at the other
    # characters str.splitlines() breaks at (with no \r, the text as it is)
    unix = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    lines = unix.split("\n")
    if not lines[-1]:
        lines.pop()  # after the last line end, or the empty text
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    header = None
    if has_header and lines:
        line = lines.pop(0)
        header = line.split(",") if line else []  # csv.reader reads "" as no cell
    # a line is blank when it holds only whitespace and commas
    lines = list(compress(lines, map(str.strip, lines, repeat(_BLANK))))
    if not lines:
        return header, {}, lambda pos: []
    n, width = len(lines), lines[0].count(",") + 1
    # the cells row by row, with a "\n" cell (which no line holds) between
    # rows: every row has `width` cells exactly when there are
    # n * (width + 1) - 1 cells and every (width + 1)-th one is a "\n"
    cells = ",\n,".join(lines).split(",")
    stride = width + 1
    if len(cells) != n * stride - 1 or cells[width::stride].count("\n") != n - 1:
        return None
    return header, {width: 1}, lambda pos: cells[pos::stride]


def _read_rows(text: str, path: Path, has_header: bool) -> _Table:
    """The table of any CSV text, read row by row with ``csv.reader``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValidationError(f"cannot read {path}: line {reader.line_num}: {exc}") from exc
    header = rows.pop(0) if has_header and rows else None
    # a row is blank when all of its cells are whitespace
    rows = list(compress(rows, map(str.strip, map("".join, rows))))
    widths: dict[int, int] = {}
    for number, row in enumerate(rows, start=1):
        widths.setdefault(len(row), number)
    return header, widths, lambda pos: list(map(itemgetter(pos), rows))


def load_csv(
    path: str | Path,
    schema: InputSchema | None = None,
    period_order: Sequence[str] | None = None,
) -> Dataset:
    """Read sale records from a CSV file and validate them into a Dataset.

    The file is UTF-8, with or without a byte-order mark, in the csv
    module's default (Excel) dialect. Text without a quote whose data
    rows all have the same number of cells is split into cells with two
    ``str.split`` calls; any other text is read by ``csv.reader``. Both
    give the same table, so the path changes no result and no message.
    Blank rows (every cell whitespace) are skipped.

    The table is read column by column: each numeric column is parsed with
    Python's ``float`` and checked as a whole. Parsing problems are
    reported with 1-based data row numbers and the offending column, row
    by row; only a file that parses is then checked record by record, as
    :func:`artindex.domain.validate_dataset` checks records.
    """
    schema = schema or InputSchema()
    schema.check()
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc

    table = _split_unquoted(text, schema.has_header)
    if table is None:
        table = _read_rows(text, path, schema.has_header)
    header, widths, column = table
    if not widths:
        raise ValidationError("empty dataset")
    if header is not None:
        header = [cell.strip() for cell in header]

    positions = _positions(header, max(widths), schema)
    last = max(positions.values())
    short = [(row_number, width) for width, row_number in widths.items() if width <= last]
    if short:
        row_number, width = min(short)
        ref = next(ref for ref, pos in positions.items() if pos >= width)
        raise ValidationError(f"row {row_number}: missing column {ref!r}")

    def cells(ref: str) -> list[str]:
        return column(positions[ref])

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
