"""CSV ingestion: schemas, parse errors, derived columns."""

from __future__ import annotations

import codecs
import csv
import sys

import pytest

from artindex import InputSchema, ValidationError, load_csv
from artindex import csvio
from artindex.csvio import bundled_data_path

from conftest import generated_csv

HEADER = "id,dataset,price_usd,area_cm2,hw_ratio\n"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestBundledFixture:
    def test_loads_29_observations(self, renoir):
        assert len(renoir) == 29
        assert renoir.periods == ("A", "B")

    def test_spot_values(self, renoir):
        first = renoir.by_id("1")
        assert (first.price, first.area, first.aspect_ratio) == (105771.0, 74.90, 1.129)
        last = renoir.by_id("29")
        assert (last.price, last.area, last.aspect_ratio) == (146841502.0, 8892.00, 0.684)

    def test_fixture_path_exists(self):
        assert bundled_data_path().exists()


class TestParsing:
    def test_bad_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(
            tmp_path,
            "id,dataset,price_usd,area_cm2,hw_ratio\n"
            "1,A,100,10,1.0\n"
            "2,A,200,20,1.1\n"
            "3,B,abc,30,1.2\n",
        )
        with pytest.raises(ValidationError, match="row 3, column 'price_usd'.*'abc'"):
            load_csv(path)

    def test_all_parse_errors_collected(self, tmp_path):
        path = write(
            tmp_path,
            "id,dataset,price_usd,area_cm2,hw_ratio\n"
            "1,A,oops,10,1.0\n"
            "2,B,200,bad,1.1\n",
        )
        with pytest.raises(ValidationError) as excinfo:
            load_csv(path)
        assert len(excinfo.value.errors) == 2

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "id,dataset,price_usd,hw_ratio\n1,A,100,1.0\n")
        with pytest.raises(ValidationError, match="column 'area_cm2' not found"):
            load_csv(path)

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv.reader"])
    def test_repeated_mapped_column_is_refused(self, tmp_path, quoted):
        # on either read path: the second price_usd column must not be ignored
        price = '"price_usd"' if quoted else "price_usd"
        header = f"id,dataset,{price},price_usd,area_cm2,hw_ratio\n"
        path = write(tmp_path, header + "1,A,100,999,10,1.0\n")
        with pytest.raises(ValidationError) as excinfo:
            load_csv(path)
        assert excinfo.value.errors == ["column 'price_usd' appears more than once in the header"]

    def test_repeated_unmapped_column_is_read(self, tmp_path):
        header = "id,dataset,note,price_usd,note,area_cm2,hw_ratio\n"
        path = write(tmp_path, header + "1,A,x,100,y,10,1.0\n")
        assert load_csv(path).by_id("1").price == 100.0

    def test_missing_and_repeated_columns_are_reported_together(self, tmp_path):
        path = write(tmp_path, "id,id,dataset,price_usd,hw_ratio\n1,1,A,100,1.0\n")
        with pytest.raises(ValidationError) as excinfo:
            load_csv(path)
        assert excinfo.value.errors == [
            "column 'area_cm2' not found in input file",
            "column 'id' appears more than once in the header",
        ]

    def test_utf8_bom_is_ignored(self, tmp_path):
        text = bundled_data_path().read_text(encoding="utf-8")
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert load_csv(path) == load_csv(bundled_data_path())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("quoted", [False, True])
    def test_csv_error_names_the_line(self, tmp_path, quoted):
        # a cell past the csv module's field size limit (131,072 characters)
        cell = "x" * 200_000
        row = (f'"{cell}"' if quoted else cell) + ",A,1,1,1\n"
        path = write(tmp_path, HEADER + "1,A,100,10,1.0\n" + row)
        with pytest.raises(ValidationError) as excinfo:
            load_csv(path)
        limit = csv.field_size_limit()
        assert excinfo.value.errors == [
            f"cannot read {path}: line 3: field larger than field limit ({limit})"
        ]

    def test_nul_is_read_as_csv_reader_reads_it(self, tmp_path):
        path = write(tmp_path, HEADER + "1,A,100,10,1.0\n2\0,B,200,20,1.1\n")
        if sys.version_info < (3, 11):
            with pytest.raises(ValidationError, match="line 3: line contains NUL"):
                load_csv(path)
        else:
            assert load_csv(path).ids == ("1", "2\0")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValidationError, match="empty dataset"):
            load_csv(write(tmp_path, "id,dataset,price_usd,area_cm2,hw_ratio\n"))

    def test_decimal_separator(self, tmp_path):
        path = write(
            tmp_path,
            'id,dataset,price,area,ratio\n1,A,"1000,5","10,25","1,5"\n2,B,2000,20,"0,8"\n',
        )
        schema = InputSchema(
            price_column="price",
            area_column="area",
            aspect_ratio_column="ratio",
            decimal_separator=",",
        )
        ds = load_csv(path, schema)
        assert ds.by_id("1").price == 1000.5
        assert ds.by_id("1").area == 10.25

    def test_no_header_positional_schema(self, tmp_path):
        path = write(tmp_path, "1,A,100,10,1.0\n2,B,200,20,1.1\n")
        schema = InputSchema(
            id_column="0",
            period_column="1",
            price_column="2",
            area_column="3",
            aspect_ratio_column="4",
            has_header=False,
        )
        ds = load_csv(path, schema)
        assert len(ds) == 2
        assert ds.by_id("2").period == "B"


class TestReadPaths:
    """Unquoted files with equal rows are split without csv.reader; other files reach it."""

    @pytest.fixture
    def no_reader(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", refuse)

    def test_unquoted_files_skip_csv_reader(self, tmp_path, no_reader):
        assert len(load_csv(bundled_data_path())) == 29
        path = generated_csv(tmp_path / "gen.csv", n_sales=300, n_periods=3)
        assert len(load_csv(path, InputSchema(extra_columns=("age_years",)))) == 300

    @pytest.mark.parametrize(
        "rows",
        [
            '1,A,100,10,1.0\n"2",B,200,20,1.1\n',
            "1,A,100,10,1.0\n2,B,200,20,1.1,note\n",
            "1,A,100,10,1.0\n2,B,200,20\n",
            "1,A,100,10,1.0\n2,B,200,20,1.1,note\n3,B,300,30\n",
            "1,A,100,10,1.0\n2\0,B,200,20,1.1\n",
            "1,A,100,10,1.0\n2,B,200,20,1.1" + " " * 200_000 + "\n",
        ],
        ids=["quote", "long row", "short row", "long and short rows", "NUL", "line past the limit"],
    )
    def test_other_files_reach_csv_reader(self, tmp_path, no_reader, rows):
        with pytest.raises(AssertionError, match="csv.reader called"):
            load_csv(write(tmp_path, HEADER + rows))

    def test_blank_characters_are_the_whitespace_and_the_comma(self):
        whitespace = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
        assert sorted(csvio._BLANK) == sorted(whitespace | {","})


class TestHeightWidth:
    def test_area_and_ratio_computed(self, tmp_path):
        path = write(
            tmp_path,
            "id,dataset,price_usd,height,width\n"
            "1,A,100,4,2\n"
            "2,B,300,3,5\n",
        )
        schema = InputSchema(
            area_column=None,
            height_column="height",
            width_column="width",
            aspect_ratio_column=None,
        )
        ds = load_csv(path, schema)
        assert ds.by_id("1").area == 8.0
        assert ds.by_id("1").aspect_ratio == 2.0
        assert ds.by_id("2").area == 15.0
        assert ds.by_id("2").aspect_ratio == pytest.approx(0.6)

    # a negative height and width would multiply to a positive area and ratio
    @pytest.mark.parametrize("height,width", [("3", "0"), ("-3", "-2")])
    def test_non_positive_width_is_a_width_error(self, tmp_path, height, width):
        path = write(
            tmp_path,
            f"id,dataset,price_usd,h,w\n1,A,100,4,2\n2,A,120,{height},{width}\n3,B,300,3,5\n",
        )
        schema = InputSchema(
            area_column=None, height_column="h", width_column="w", aspect_ratio_column=None
        )
        with pytest.raises(ValidationError) as exc:
            load_csv(path, schema)
        assert exc.value.errors == [
            f"row 2, column 'w': width must be positive, got {float(width)!r}"
        ]

    def test_explicit_ratio_overrides_derived(self, tmp_path):
        path = write(
            tmp_path,
            "id,dataset,price_usd,height,width,r\n1,A,100,4,2,9.0\n2,B,300,3,5,1.0\n",
        )
        schema = InputSchema(
            area_column=None,
            height_column="height",
            width_column="width",
            aspect_ratio_column="r",
        )
        ds = load_csv(path, schema)
        assert ds.by_id("1").aspect_ratio == 9.0


class TestSchemaInvariants:
    def test_both_area_sources_rejected(self):
        schema = InputSchema(height_column="h", width_column="w")
        with pytest.raises(ValidationError, match="exactly one"):
            schema.check()

    def test_no_area_source_rejected(self):
        schema = InputSchema(area_column=None)
        with pytest.raises(ValidationError, match="exactly one"):
            schema.check()

    def test_ratio_required_without_height_width(self):
        schema = InputSchema(aspect_ratio_column=None)
        with pytest.raises(ValidationError, match="aspect ratio column is required"):
            schema.check()

    def test_height_without_width_rejected(self):
        schema = InputSchema(area_column=None, height_column="h", aspect_ratio_column=None)
        with pytest.raises(ValidationError, match="together"):
            schema.check()

    def test_extra_columns_become_characteristics(self, tmp_path):
        path = write(
            tmp_path,
            "id,dataset,price_usd,area_cm2,hw_ratio,signed\n"
            "1,A,100,10,1.0,1\n"
            "2,B,200,20,1.1,0\n",
        )
        schema = InputSchema(extra_columns=("signed",))
        ds = load_csv(path, schema)
        assert ds.by_id("1").extra_characteristics == {"signed": 1.0}
