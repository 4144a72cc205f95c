"""Index construction, the decomposition identity, and the constrained model."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artindex import (
    InputSchema,
    ModelError,
    ModelSpec,
    SaleObservation,
    decompose_index,
    hpm_index_from_result,
    hpm_timedummy_index,
    load_csv,
    npgm_index,
    pinned_log_area_spec,
    validate_dataset,
    with_price_increments,
)
from artindex import kernels, regression
from artindex.indexes import _decomposition, _geometric_mean
from artindex.regression import fit

from conftest import EXAMPLE_SPEC, TABLE1, generated_csv

# frozen from the high-precision exp-mean-log oracle over the printed
# unit-price column (40-digit arithmetic; C scales obs 29 by 1.5)
NPGM_LEVEL_A_ORACLE = 912.39540076361105
I_BA_ORACLE = 174.92367097905138
I_CA_ORACLE = 179.7165199260511


def obs(id, period, price, area=10.0, ratio=1.0):
    return SaleObservation(id=id, period=period, price=price, area=area, aspect_ratio=ratio)


def unit_price_level(ds, period: str) -> float:
    """Geometric mean of the unitary prices of ``period``'s sales."""
    return _geometric_mean((ds.price / ds.area)[ds.period_codes == ds.periods.index(period)])


def two_period_dataset(seed: int, n_max: int = 20):
    """Random small two-period dataset with both characteristics varying."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, n_max + 1))
    n0 = int(rng.integers(5, n - 4))
    records = []
    for i in range(n):
        period = "P0" if i < n0 else "P1"
        records.append(
            SaleObservation(
                id=str(i),
                period=period,
                price=float(rng.lognormal(mean=12.0, sigma=1.0)),
                area=float(rng.lognormal(mean=6.0, sigma=0.8)),
                aspect_ratio=float(rng.lognormal(mean=0.0, sigma=0.3)),
            )
        )
    return validate_dataset(records)


class TestNpgmLevel:
    """A period's npgm level: the geometric mean of its unitary prices."""

    def test_singleton_identity(self):
        ds = validate_dataset([obs("1", "A", 14121.6, 10.0), obs("2", "B", 50.0)])
        assert unit_price_level(ds, "A") == pytest.approx(1412.16)

    def test_two_point_geometric_mean(self):
        ds = validate_dataset(
            [obs("1", "A", 20.0, 10.0), obs("2", "A", 80.0, 10.0), obs("3", "B", 10.0)]
        )
        assert unit_price_level(ds, "A") == pytest.approx(4.0, rel=1e-12)

    def test_bundled_period_a(self, renoir):
        level = unit_price_level(renoir, "A")
        assert level == pytest.approx(NPGM_LEVEL_A_ORACLE, abs=0.05)
        assert level == pytest.approx(912, abs=1)

    def test_empty_period(self):
        with pytest.raises(ModelError, match="empty period"):
            _geometric_mean(np.array([]))

    def test_log_space_survives_huge_prices(self):
        ds = validate_dataset(
            [obs(str(i), "A", 1e300, 1.0) for i in range(8)] + [obs("8", "B", 1e300, 1.0)]
        )
        assert unit_price_level(ds, "A") == pytest.approx(1e300, rel=1e-12)
        assert npgm_index(ds, "A").level("B") == pytest.approx(100.0, rel=1e-12)


class TestNpgmIndex:
    def test_bundled_levels(self, renoir):
        series = npgm_index(renoir, "A")
        assert series.level("A") == 100.0
        assert series.level("B") == pytest.approx(I_BA_ORACLE, abs=0.05)
        assert series.level("B") == pytest.approx(175, abs=1)

    def test_dataset_c_above_b(self, renoir, renoir_ac):
        i_ba = npgm_index(renoir, "A").level("B")
        i_ca = npgm_index(renoir_ac, "A").level("C")
        assert i_ca == pytest.approx(I_CA_ORACLE, abs=0.05)
        assert i_ca == pytest.approx(180, abs=1)
        assert i_ca > i_ba

    def test_base_value_homogeneity(self, renoir):
        hundred = npgm_index(renoir, "A", base_value=100.0)
        unit = npgm_index(renoir, "A", base_value=1.0)
        for period in renoir.periods:
            assert unit.level(period) == pytest.approx(
                hundred.level(period) / 100.0, rel=1e-12
            )

    def test_level_in_range_scales_before_dividing(self, renoir):
        # only a product past the float range divides first; in about a third
        # of these base values the two orders round differently
        a, b = (unit_price_level(renoir, p) for p in "AB")
        for base_value in np.random.default_rng(0).uniform(1.0, 1000.0, 200).tolist():
            assert npgm_index(renoir, "A", base_value).level("B") == base_value * b / a

    def test_missing_base_period(self, renoir):
        with pytest.raises(ModelError, match="base period 'Q'"):
            npgm_index(renoir, "Q")

    def test_needs_two_periods(self):
        ds = validate_dataset([obs("1", "A", 10.0), obs("2", "A", 20.0)])
        with pytest.raises(ModelError, match="two periods"):
            npgm_index(ds, "A")

    @pytest.mark.parametrize("bad", [0.0, -100.0, float("nan")])
    def test_base_value_must_be_positive(self, renoir, bad):
        with pytest.raises(ModelError, match="base value"):
            npgm_index(renoir, "A", base_value=bad)


class TestHpmIndex:
    def test_bundled_level(self, renoir):
        series = hpm_timedummy_index(renoir, EXAMPLE_SPEC)
        assert series.level("A") == 100.0
        assert series.level("B") == pytest.approx(100 * math.exp(1.068575), abs=0.5)

    def test_unknown_period_level(self, renoir):
        with pytest.raises(ModelError, match="period 'Q' not in index series"):
            hpm_timedummy_index(renoir, EXAMPLE_SPEC).level("Q")

    def test_dataset_c_below_b(self, renoir, renoir_ac):
        i_ba = hpm_timedummy_index(renoir, EXAMPLE_SPEC).level("B")
        i_ca = hpm_timedummy_index(renoir_ac, EXAMPLE_SPEC).level("C")
        assert i_ca == pytest.approx(100 * math.exp(1.038821), abs=0.5)
        assert i_ca < i_ba

    def test_reads_only_coefficients(self, renoir, renoir_ac, monkeypatch):
        expected = [
            hpm_index_from_result(fit(ds, EXAMPLE_SPEC), ds, EXAMPLE_SPEC)
            for ds in (renoir, renoir_ac)
        ]

        def no_p_values(*args):
            raise AssertionError("the index must not compute p-values")

        monkeypatch.setattr(kernels, "regularized_incomplete_beta", no_p_values)
        got = [hpm_timedummy_index(ds, EXAMPLE_SPEC) for ds in (renoir, renoir_ac)]
        assert got == expected

    def test_equals_the_fit_and_forms_no_q(self, tmp_path, monkeypatch):
        path = generated_csv(tmp_path / "sales.csv", n_sales=600, n_periods=6)
        ds = load_csv(path, InputSchema(extra_columns=("age_years",)))
        spec = ModelSpec(reference_period="B", regressors=("area", "aspect_ratio", "age_years"))
        expected = hpm_index_from_result(fit(ds, spec), ds, spec)
        qr = np.linalg.qr

        def r_only(a, mode="reduced"):
            assert mode == "r", f"the index asked for a QR in mode {mode!r}"
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", r_only)
        assert hpm_timedummy_index(ds, spec) == expected

    def test_constrained_model_equals_npgm_on_bundled(self, renoir, renoir_ac):
        for ds, base in ((renoir, "A"), (renoir_ac, "A")):
            reference = npgm_index(ds, base)
            constrained = hpm_timedummy_index(ds, pinned_log_area_spec(base))
            for period in ds.periods:
                assert constrained.level(period) == pytest.approx(
                    reference.level(period), rel=1e-8
                )

    @pytest.mark.parametrize("seed", range(12))
    def test_constrained_model_equals_npgm_on_random_data(self, seed):
        ds = two_period_dataset(seed)
        reference = npgm_index(ds, "P0")
        constrained = hpm_timedummy_index(ds, pinned_log_area_spec("P0"))
        for period in ds.periods:
            assert constrained.level(period) == pytest.approx(
                reference.level(period), rel=1e-8
            )


class TestMultiPeriod:
    @pytest.fixture()
    def three_periods(self):
        rng = np.random.default_rng(99)
        records = []
        for i in range(18):
            period = ("P0", "P1", "P2")[i // 6]
            records.append(
                SaleObservation(
                    id=str(i),
                    period=period,
                    price=float(rng.lognormal(12.0, 0.8)),
                    area=float(rng.lognormal(6.0, 0.6)),
                    aspect_ratio=float(rng.lognormal(0.0, 0.2)),
                )
            )
        return validate_dataset(records)

    def test_npgm_covers_every_period(self, three_periods):
        series = npgm_index(three_periods, "P0")
        assert set(series.levels) == {"P0", "P1", "P2"}
        assert series.level("P0") == 100.0
        assert all(v > 0 for v in series.levels.values())

    def test_hpm_one_dummy_per_non_reference_period(self, three_periods):
        spec = ModelSpec(regressors=("area", "aspect_ratio"), reference_period="P1")
        from artindex import build_design

        sys = build_design(three_periods, spec)
        assert sys.column_names == (
            "intercept", "area", "aspect_ratio", "dummy_P0", "dummy_P2",
        )
        dummies = sys.design_matrix[:, 3:]
        assert dummies.sum(axis=1).max() == 1.0  # at most one dummy per row
        series = hpm_timedummy_index(three_periods, spec)
        assert set(series.levels) == {"P0", "P1", "P2"}
        assert series.level("P1") == 100.0

    def test_pairwise_decomposition_on_restriction(self, three_periods):
        report = decompose_index(three_periods, EXAMPLE_SPEC, "P0", "P2")
        assert report.identity_gap <= 1e-8

    def test_decomposition_explains_the_full_models_dummy(self, three_periods):
        report = decompose_index(three_periods, EXAMPLE_SPEC, "P0", "P2")
        spec = replace(EXAMPLE_SPEC, reference_period="P0")
        delta = fit(three_periods, spec).coefficient("dummy_P2")
        assert report.exp_delta == math.exp(delta)
        assert 100 * report.exp_delta == hpm_timedummy_index(three_periods, spec).level("P2")

    def test_constrained_equivalence_three_periods(self, three_periods):
        reference = npgm_index(three_periods, "P0")
        constrained = hpm_timedummy_index(three_periods, pinned_log_area_spec("P0"))
        for period in three_periods.periods:
            assert constrained.level(period) == pytest.approx(
                reference.level(period), rel=1e-8
            )


class TestThetaAndDecomposition:
    def test_equal_characteristic_means_give_unit_theta(self):
        records = [
            obs("1", "A", 100.0, area=10.0, ratio=1.2),
            obs("2", "A", 150.0, area=30.0, ratio=0.9),
            obs("3", "A", 120.0, area=20.0, ratio=1.0),
            obs("4", "B", 260.0, area=10.0, ratio=1.2),
            obs("5", "B", 210.0, area=30.0, ratio=0.9),
            obs("6", "B", 330.0, area=20.0, ratio=1.0),
        ]
        ds = validate_dataset(records)
        spec = ModelSpec(regressors=("area", "aspect_ratio"), reference_period="A")
        assert decompose_index(ds, spec, "A", "B").theta == pytest.approx(1.0, rel=1e-12)

    def test_dummy_only_model_theta_is_one(self, renoir):
        spec = ModelSpec(regressors=(), reference_period="A")
        assert decompose_index(renoir, spec, "A", "B").theta == 1.0

    def test_theta_matches_direct_evaluation_from_printed_cells(self, renoir):
        theta = decompose_index(renoir, EXAMPLE_SPEC, "A", "B").theta
        mean = lambda rows, col: math.fsum(r[col] for r in rows) / len(rows)
        rows_a = [r for r in TABLE1 if r[1] == "A"]
        rows_b = [r for r in TABLE1 if r[1] == "B"]
        oracle = math.exp(
            0.000411 * (mean(rows_a, 3) - mean(rows_b, 3))
            + 1.051534 * (mean(rows_a, 4) - mean(rows_b, 4))
        )
        assert theta == pytest.approx(oracle, rel=5e-3)

    def test_theta_unknown_period(self, renoir):
        with pytest.raises(ModelError, match="'Q' not present"):
            decompose_index(renoir, EXAMPLE_SPEC, "A", "Q").theta

    def test_equal_periods_are_refused_before_the_refit(self, renoir, monkeypatch):
        def refuse(*args):
            raise AssertionError("decompose_index fitted")

        monkeypatch.setattr(regression, "fit", refuse)
        with pytest.raises(ModelError, match="periods must differ"):
            decompose_index(renoir, EXAMPLE_SPEC, "A", "A")

    @pytest.mark.parametrize("period0, period1", [("A", "B"), ("B", "A")])
    def test_reads_off_the_fit_with_period0_as_reference(self, renoir, period0, period1):
        spec = replace(EXAMPLE_SPEC, reference_period=period0)
        result = fit(renoir, spec)
        report = decompose_index(renoir, EXAMPLE_SPEC, period0, period1)
        assert report == _decomposition(result, renoir, spec, period1)
        assert report.exp_delta == math.exp(result.coefficient(f"dummy_{period1}"))

    def test_identity_on_bundled_fits(self, renoir, renoir_ac):
        for ds, p1 in ((renoir, "B"), (renoir_ac, "C")):
            report = decompose_index(ds, EXAMPLE_SPEC, "A", p1)
            assert report.identity_gap <= 1e-8
            assert report.product == pytest.approx(report.exp_delta, rel=1e-8)

    def test_identity_with_dummy_only_model(self, renoir):
        spec = ModelSpec(regressors=(), reference_period="A")
        report = decompose_index(renoir, spec, "A", "B")
        assert report.theta == 1.0
        assert report.geomean_ratio == pytest.approx(report.exp_delta, rel=1e-10)

    def test_identity_with_pinned_model(self, renoir):
        report = decompose_index(renoir, pinned_log_area_spec("A"), "A", "B")
        assert report.identity_gap <= 1e-8

    @pytest.mark.parametrize("seed", range(12))
    def test_identity_on_random_datasets(self, seed):
        ds = two_period_dataset(seed)
        report = decompose_index(ds, EXAMPLE_SPEC, "P0", "P1")
        assert report.identity_gap <= 1e-8


class TestNpgmProperties:
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_nonnegative_increments(self, seed, data):
        ds = two_period_dataset(seed, n_max=14)
        before = npgm_index(ds, "P0")
        nonbase = [o for o in ds.observations if o.period != "P0"]
        increments = {
            o.id: data.draw(
                st.floats(0, o.price, allow_nan=False, allow_infinity=False),
                label=f"increment_{o.id}",
            )
            for o in nonbase
        }
        after = npgm_index(with_price_increments(ds, increments), "P0")
        assert after.level("P1") >= before.level("P1") * (1 - 1e-12)
        # strictness is only float-observable for materially positive bumps
        if any(increments[o.id] > 1e-6 * o.price for o in nonbase):
            assert after.level("P1") > before.level("P1")

    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed, perm_seed):
        ds = two_period_dataset(seed, n_max=14)
        order = np.random.default_rng(perm_seed).permutation(len(ds.observations))
        shuffled = validate_dataset(
            [ds.observations[i] for i in order], period_order=ds.periods
        )
        base = npgm_index(ds, "P0")
        again = npgm_index(shuffled, "P0")
        for period in ds.periods:
            assert again.level(period) == pytest.approx(base.level(period), rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_doubling_period_prices_doubles_its_level(self, seed):
        ds = two_period_dataset(seed, n_max=14)
        before = npgm_index(ds, "P0")
        increments = {o.id: o.price for o in ds.observations if o.period == "P1"}
        after = npgm_index(with_price_increments(ds, increments), "P0")
        assert after.level("P1") == pytest.approx(2 * before.level("P1"), rel=1e-12)
        assert after.level("P0") == before.level("P0")
