"""Columnar ingest against the row-by-row oracle: same floats bit for bit, same messages."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artindex import (
    InputSchema,
    SaleObservation,
    ValidationError,
    bundled_data_path,
    load_csv,
    validate_dataset,
)

from rowwise_oracle import load_records, validate_records

PERIODS = ("A", "B", "C")
PADDING = ("", "", " ", "\t", "  ")
# cells that parse but the validator refuses, or that only stripping saves
PARSED_CELLS = (
    "nan", "-nan", "inf", "-inf", "Infinity", "0", "-0", "-3.5", "1e400", "1_000",
    "\x1c7\x1c", "\u0663",
)
UNPARSED_CELLS = ("abc", "", "1..2", "1 2")
# cells that strip to empty: a row of them is blank, and both read paths skip it
BLANK_CELLS = ("", " ", "\t", "\u3000", "\x1c", " \x1c\u3000")
LINE_ENDS = ("\n", "\r\n", "\r")


def _bits(values) -> bytes:
    return np.array(list(values), dtype=np.float64).tobytes()


def _from_dataset(ds):
    return (
        ds.ids,
        ds.periods,
        tuple(ds.periods[q] for q in ds.period_codes.tolist()),
        ds.price.tobytes(),
        ds.area.tobytes(),
        ds.aspect_ratio.tobytes(),
        {name: column.tobytes() for name, column in ds.extras.items()},
    )


def _from_records(result):
    records, periods = result
    names = records[0].extra_characteristics if records else {}
    return (
        tuple(o.id for o in records),
        periods,
        tuple(o.period for o in records),
        _bits(o.price for o in records),
        _bits(o.area for o in records),
        _bits(o.aspect_ratio for o in records),
        {name: _bits(o.extra_characteristics[name] for o in records) for name in names},
    )


def _outcome(load, convert, *args):
    try:
        return convert(load(*args))
    except ValidationError as exc:
        return exc.errors


@st.composite
def numeric_cells(draw, mode: str, positive: bool, separator: str) -> str:
    if mode == "clean" or draw(st.integers(0, 5)):
        low = 1e-3 if positive else -1e6
        value = draw(st.floats(low, 1e9, allow_nan=False, allow_infinity=False))
        style = draw(st.sampled_from(["{!r}", "{:.2f}", "{:.3e}", "{:.0f}"]))
        text = style.format(value)
        if positive and not float(text) > 0:
            text = "1.25"
    else:
        text = draw(st.sampled_from(PARSED_CELLS + (UNPARSED_CELLS if mode == "any" else ())))
    if separator != ".":
        text = text.replace(".", separator)
    return draw(st.sampled_from(PADDING)) + text + draw(st.sampled_from(PADDING))


@st.composite
def csv_tables(draw, commas: bool = True):
    """Rows of a CSV file (its header first), its schema and a period order.

    Height/width or area columns, 0-2 extras (possibly named twice),
    shuffled columns with an unused one, header or positional columns,
    decimal comma, whitespace padding, blank and short rows, repeated
    ids, and a supplied period order that may not fit. Without
    ``commas`` no cell holds a comma, so the rows can be written
    without quotes.
    """
    # "values" files parse, so their faults reach the record checks
    mode = draw(st.sampled_from(["clean", "values", "any"]), label="mode")
    height_width = draw(st.booleans(), label="height_width")
    ratio_column = not height_width or draw(st.booleans())
    n_extra = draw(st.integers(0, 2))
    separator = draw(st.sampled_from([".", ","] if commas else ["."]))
    has_header = draw(st.booleans())

    numeric = ["price"] + (["h", "w"] if height_width else ["area"])
    numeric += ["ratio"] if ratio_column else []
    extras = [f"x{j}" for j in range(n_extra)]
    names = draw(st.permutations(["id", "period", *numeric, *extras, "unused"]))
    position = {name: str(i) for i, name in enumerate(names)}
    ref = (lambda name: name) if has_header else position.__getitem__
    extra_refs = tuple(ref(x) for x in extras)
    if extra_refs and draw(st.booleans()):
        extra_refs += extra_refs[:1]
    schema = InputSchema(
        id_column=ref("id"),
        period_column=ref("period"),
        price_column=ref("price"),
        area_column=None if height_width else ref("area"),
        height_column=ref("h") if height_width else None,
        width_column=ref("w") if height_width else None,
        aspect_ratio_column=ref("ratio") if ratio_column else None,
        extra_columns=extra_refs,
        decimal_separator=separator,
        has_header=has_header,
    )

    rows = []
    n_rows = draw(st.integers(1, 10))
    for i in range(n_rows):
        cells = {
            "id": str(i) if mode == "clean" or draw(st.integers(0, 5)) else str(draw(st.integers(0, i))),
            "period": draw(st.sampled_from(PADDING)) + draw(st.sampled_from(PERIODS)),
            "unused": draw(st.sampled_from(["", "note", "1,5"] if commas else ["", "note"])),
        }
        for name in numeric:
            cells[name] = draw(numeric_cells(mode, True, separator))
        for name in extras:
            cells[name] = draw(numeric_cells(mode, False, separator))
        row = [cells[name] for name in names]
        if mode == "any" and not draw(st.integers(0, 8)):
            row = row[: draw(st.integers(0, len(row) - 1))]
        rows.append(row)
        if not draw(st.integers(0, 6)):
            width = draw(st.sampled_from([0, 1, 2, len(names)]))
            rows.append([draw(st.sampled_from(BLANK_CELLS)) for _ in range(width)])
    if has_header:
        rows.insert(0, [draw(st.sampled_from(PADDING)) + name for name in names])

    order = draw(
        st.one_of(
            st.none(),
            st.permutations(PERIODS).map(list),
            st.lists(st.sampled_from(PERIODS + ("Z",)), min_size=1, max_size=4),
        ),
        label="period_order",
    )
    return rows, schema, order


@st.composite
def csv_files(draw):
    """CSV text, its schema and a period order, covering every ingest path.

    The rows of :func:`csv_tables`, written by ``csv.writer`` (which
    quotes a cell holding a comma), with \\n, \\r\\n or lone \\r line
    ends, maybe no line end after the last line, and maybe a BOM.
    """
    rows, schema, order = draw(csv_tables(commas=draw(st.booleans(), label="commas")))
    line_end = draw(st.sampled_from(LINE_ENDS), label="line_end")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=line_end).writerows(rows)
    text = buffer.getvalue()
    if draw(st.booleans(), label="no_last_line_end"):
        text = text[: -len(line_end)]
    text = ("\ufeff" if draw(st.booleans(), label="bom") else "") + text
    return text, schema, order


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_files())
def test_load_csv_matches_rowwise_oracle(tmp_path, case):
    text, schema, order = case
    path = tmp_path / "sales.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _outcome(load_records, _from_records, path, schema, order)
    got = _outcome(load_csv, _from_dataset, path, schema, order)
    assert got == want


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_tables(commas=False), line_end=st.sampled_from(LINE_ENDS))
def test_quoting_changes_nothing(tmp_path, case, line_end):
    """One table written without quotes and with every cell quoted loads alike."""
    rows, schema, order = case
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=line_end, quoting=csv.QUOTE_ALL).writerows(rows)
    plain = "".join(",".join(row) + line_end for row in rows)
    texts = {"plain": plain, "quoted": buffer.getvalue()}
    outcomes = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        outcomes.append(_outcome(load_csv, _from_dataset, path, schema, order))
    assert outcomes[0] == outcomes[1]


def test_empty_header_line_has_no_cells(tmp_path):
    # csv.reader reads an empty line as a row with no cell, so even a
    # column named "" is not in an empty header
    path = tmp_path / "sales.csv"
    path.write_text("\n1,A,100,10,1.0\n", encoding="utf-8")
    schema = InputSchema(id_column="")
    want = _outcome(load_records, _from_records, path, schema)
    assert want == [
        f"column {ref!r} not found in input file"
        for ref in ("", "dataset", "price_usd", "area_cm2", "hw_ratio")
    ]
    assert _outcome(load_csv, _from_dataset, path, schema) == want


@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_cr_and_lf_end_a_row(tmp_path, separator):
    # str.splitlines() would also break these lines, into two rows of six cells
    path = tmp_path / "sales.csv"
    line = f"1,A,100,10,1.0,a{separator}2,B,200,20,1.1,b\n"
    path.write_text("id,dataset,price_usd,area_cm2,hw_ratio\n" + line, encoding="utf-8")
    want = _outcome(load_records, _from_records, path)
    assert want[0] == ("1",)
    assert _outcome(load_csv, _from_dataset, path) == want


def test_bundled_file_matches_rowwise_oracle():
    path = bundled_data_path()
    assert _from_dataset(load_csv(path)) == _from_records(load_records(path))


VALUES = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from(
        [True, None, "7", np.float32(2.0), np.float64(-1.5), np.int64(4), np.float32("inf"), 10**400]
    ),
)


@st.composite
def record_lists(draw):
    n = draw(st.integers(0, 6))
    extras = draw(st.lists(st.sampled_from(["x", "y", "condition"]), max_size=2, unique=True))
    return [
        SaleObservation(
            id=str(draw(st.integers(0, n))),
            period=draw(st.sampled_from(PERIODS)),
            price=draw(VALUES),
            area=draw(VALUES),
            aspect_ratio=draw(VALUES),
            extra_characteristics={name: draw(VALUES) for name in extras},
        )
        for _ in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(
    records=record_lists(),
    order=st.one_of(st.none(), st.lists(st.sampled_from(PERIODS), max_size=4)),
)
def test_validate_dataset_matches_rowwise_oracle(records, order):
    want = _outcome(validate_records, _from_records, records, order)
    got = _outcome(validate_dataset, _from_dataset, records, order)
    assert got == want
