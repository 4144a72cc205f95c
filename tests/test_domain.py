"""Data model: validation, unitary prices, partitioning."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from artindex import (
    SaleObservation,
    ValidationError,
    partition_by_period,
    validate_dataset,
)
from artindex.domain import check_increments
from artindex.replication import perturbed_dataset

from conftest import TABLE1


def obs(id="1", period="A", price=100.0, area=10.0, ratio=1.0, extras=None):
    return SaleObservation(
        id=id,
        period=period,
        price=price,
        area=area,
        aspect_ratio=ratio,
        extra_characteristics=extras or {},
    )


positive_floats = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)


def unit_price(**fields) -> float:
    """price / area of one record, after it passes validation."""
    (record,) = validate_dataset([obs(**fields)]).observations
    return record.price / record.area


class TestNormalizePrice:
    """Normalized (unitary) prices: price / area of validated records."""

    def test_printed_example_obs1(self):
        assert unit_price(price=105771.0, area=74.90) == pytest.approx(1412.16, abs=0.005)

    def test_unit_ratio(self):
        assert unit_price(price=100.0, area=100.0) == 1.0

    def test_printed_example_obs14(self):
        assert unit_price(price=2295088.0, area=942.50) == pytest.approx(2435.11, abs=0.005)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(price=0.0),
            dict(price=-5.0),
            dict(price=float("nan")),
            dict(price=float("inf")),
            dict(area=0.0),
            dict(area=-1.0),
            dict(area=float("nan")),
        ],
    )
    def test_rejects_corrupt_records(self, bad):
        with pytest.raises(ValidationError):
            validate_dataset([obs(**bad)])

    @given(price=positive_floats, area=positive_floats)
    def test_product_recovers_price_to_rounding(self, price, area):
        value = unit_price(price=price, area=area)
        # one rounding in the divide, one in the multiply
        assert abs(value * area - price) <= 2 * math.ulp(price)

    def test_bundled_rows_recover_price_within_one_ulp(self):
        for id_, period, price, area, ratio, _ in TABLE1:
            value = unit_price(price=price, area=area)
            assert abs(value * area - price) <= math.ulp(price)


class TestValidateDataset:
    def test_bundled_shape(self, renoir):
        assert len(renoir) == 29
        assert renoir.periods == ("A", "B")
        parts = partition_by_period(renoir)
        assert len(parts["A"]) == 14
        assert len(parts["B"]) == 15

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="empty dataset"):
            validate_dataset([])

    def test_duplicate_id_named(self):
        with pytest.raises(ValidationError, match="duplicate id '1'"):
            validate_dataset([obs(id="1"), obs(id="1", period="B")])

    def test_all_problems_reported_together(self):
        records = [
            obs(id="1", price=-3.0),
            obs(id="2", area=0.0),
            obs(id="2", ratio=float("nan")),
        ]
        with pytest.raises(ValidationError) as excinfo:
            validate_dataset(records)
        messages = excinfo.value.errors
        assert len(messages) == 4
        assert any("duplicate id '2'" in m for m in messages)
        assert any("price" in m for m in messages)
        assert any("area" in m for m in messages)
        assert any("aspect_ratio" in m for m in messages)

    @pytest.mark.parametrize("price", [np.float32(100.0), np.int64(100), np.float64(100.0)])
    def test_numpy_scalars_are_numbers(self, price):
        ds = validate_dataset([obs(id="1", price=price, extras={"condition": np.int8(3)})])
        assert ds.price.tolist() == [100.0]
        assert ds.extras["condition"].tolist() == [3.0]

    def test_int_past_the_float_range_is_refused(self):
        with pytest.raises(ValidationError) as excinfo:
            validate_dataset(
                [
                    obs(id="1", price=10**400, extras={"condition": 1}),
                    obs(id="2", extras={"condition": -(10**400)}),
                ]
            )
        assert excinfo.value.errors == [
            f"observation '1': price must be a positive finite number, got {10**400!r}",
            f"observation '2': characteristic 'condition' must be a finite number, got {-(10**400)!r}",
        ]

    def test_bad_extra_characteristic(self):
        with pytest.raises(ValidationError, match="characteristic 'condition'"):
            validate_dataset([obs(extras={"condition": float("nan")})])

    @pytest.mark.parametrize("name", ["area", "aspect_ratio", "log_area"])
    def test_extra_must_not_shadow_a_built_in_characteristic(self, name):
        with pytest.raises(ValidationError) as excinfo:
            validate_dataset([obs(id="1", extras={name: 2.0}), obs(id="2", extras={name: math.nan})])
        assert excinfo.value.errors == [
            f"extra characteristic {name!r} has the name of a built-in characteristic; rename that column",
            f"observation '2': characteristic {name!r} must be a finite number, got nan",
        ]

    def test_idempotent(self, renoir):
        again = validate_dataset(renoir.observations)
        assert again == renoir

    def test_equality_with_another_type_is_left_to_it(self, renoir):
        assert renoir.__eq__(object()) is NotImplemented
        assert (renoir == object()) is False
        assert (renoir != 1) is True

    def test_periods_in_first_appearance_order(self):
        ds = validate_dataset([obs(id="1", period="Z"), obs(id="2", period="A")])
        assert ds.periods == ("Z", "A")

    def test_explicit_period_order(self):
        ds = validate_dataset(
            [obs(id="1", period="Z"), obs(id="2", period="A")], period_order=["A", "Z"]
        )
        assert ds.periods == ("A", "Z")

    def test_period_order_must_cover_observed(self):
        with pytest.raises(ValidationError, match="missing from supplied period order"):
            validate_dataset(
                [obs(id="1", period="A"), obs(id="2", period="B")], period_order=["A"]
            )

    def test_period_order_must_not_add_empty_periods(self):
        with pytest.raises(ValidationError, match="has no observations"):
            validate_dataset([obs(id="1", period="A")], period_order=["A", "B"])


class TestPartition:
    def test_single_period(self):
        ds = validate_dataset([obs(id="1"), obs(id="2")])
        parts = partition_by_period(ds)
        assert set(parts) == {"A"}
        assert len(parts["A"]) == 2

    def test_every_observation_in_exactly_one_bin(self, renoir):
        parts = partition_by_period(renoir)
        rows = [i for group in parts.values() for i in group.tolist()]
        assert sorted(rows) == list(range(len(renoir)))
        assert all((renoir.period_codes[group] == q).all() for q, group in enumerate(parts.values()))

    def test_dataset_c_partition(self, renoir_ac):
        parts = partition_by_period(renoir_ac)
        assert len(parts["A"]) == 14
        assert len(parts["C"]) == 15

    @given(data=st.data())
    def test_sizes_invariant_under_reordering(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        periods = data.draw(
            st.lists(st.sampled_from(["A", "B", "C"]), min_size=n, max_size=n)
        )
        records = [obs(id=str(i), period=p) for i, p in enumerate(periods)]
        permutation = data.draw(st.permutations(records))
        base = partition_by_period(validate_dataset(records))
        shuffled = partition_by_period(validate_dataset(permutation))
        assert {p: len(g) for p, g in base.items()} == {
            p: len(g) for p, g in shuffled.items()
        }


class TestTransforms:
    def test_price_scaling(self, renoir):
        scaled = perturbed_dataset(renoir)
        assert scaled.by_id("29").price == pytest.approx(146841502.0 * 1.5)
        assert scaled.by_id("28").price == renoir.by_id("28").price
        assert scaled.by_id("29").area == renoir.by_id("29").area

    def test_increment_unknown_id(self, renoir):
        with pytest.raises(ValidationError, match="unknown observation id 'nope'"):
            check_increments(renoir, {"nope": 1.0})

    def test_negative_increment_rejected(self, renoir):
        with pytest.raises(ValidationError, match="non-negative"):
            check_increments(renoir, {"1": -0.5})

    def test_by_id_reads_the_row_of_that_id(self, renoir):
        for i, record in enumerate(renoir.observations):
            assert renoir.row(record.id) == i
            assert renoir.by_id(record.id) == record
        with pytest.raises(ValidationError, match="unknown observation id 'nope'"):
            renoir.by_id("nope")

    def test_relabel(self, renoir):
        relabeled = perturbed_dataset(renoir)
        assert relabeled.periods == ("A", "C")
        assert relabeled.by_id("29").period == "C"
