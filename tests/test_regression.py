"""OLS engine: design construction, solving, statistics, Student-t p-values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from artindex import (
    ModelError,
    ModelSpec,
    RankDeficientError,
    SaleObservation,
    build_design,
    fit,
    solve_least_squares,
    student_t_two_sided_p,
    validate_dataset,
)
from artindex.regression import DesignSystem

from conftest import EXAMPLE_SPEC


def small_dataset():
    records = [
        SaleObservation(str(i), "A" if i < 4 else "B", float(100 + 37 * i), 10.0 + i, 1.0 + 0.1 * i)
        for i in range(8)
    ]
    return validate_dataset(records)


def random_system(seed, n=None, k=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(8, 20))
    k = k or int(rng.integers(2, 5))
    x = np.column_stack([np.ones(n), rng.uniform(-10, 10, size=(n, k - 1))])
    y = rng.uniform(-10, 10, size=n)
    names = tuple(["intercept"] + [f"z{j}" for j in range(1, k)])
    return DesignSystem(design_matrix=x, response_vector=y, column_names=names)


class TestBuildDesign:
    def test_bundled_shape_and_columns(self, renoir):
        sys = build_design(renoir, EXAMPLE_SPEC)
        assert sys.design_matrix.shape == (29, 4)
        assert sys.column_names == ("intercept", "area", "aspect_ratio", "dummy_B")

    def test_response_is_log_price(self, renoir):
        sys = build_design(renoir, EXAMPLE_SPEC)
        assert sys.response_vector[0] == pytest.approx(11.569, abs=1e-3)

    def test_dummy_columns_are_indicator(self, renoir):
        sys = build_design(renoir, EXAMPLE_SPEC)
        dummy = sys.design_matrix[:, 3]
        assert set(np.unique(dummy)) == {0.0, 1.0}
        assert dummy.sum() == 15  # one per B observation

    def test_single_period_has_no_dummies(self):
        ds = validate_dataset(
            [SaleObservation(str(i), "A", 100.0 + i, 10.0, 1.0) for i in range(4)]
        )
        sys = build_design(ds, ModelSpec(regressors=("area",), reference_period="A"))
        assert sys.column_names == ("intercept", "area")

    def test_unknown_regressor_lists_available(self, renoir):
        spec = ModelSpec(regressors=("frame_width",), reference_period="A")
        with pytest.raises(ModelError, match="frame_width.*area"):
            build_design(renoir, spec)

    def test_extra_characteristic_column(self):
        records = [
            SaleObservation(
                str(i), "A" if i < 3 else "B", 100.0 + i, 10.0, 1.0, {"signed": float(i % 2)}
            )
            for i in range(6)
        ]
        ds = validate_dataset(records)
        sys = build_design(ds, ModelSpec(regressors=("signed",), reference_period="A"))
        assert sys.column_names == ("intercept", "signed", "dummy_B")
        assert list(sys.design_matrix[:, 1]) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_pinned_term_moves_to_response(self, renoir):
        free = build_design(renoir, ModelSpec(regressors=(), reference_period="A"))
        pinned = build_design(
            renoir,
            ModelSpec(regressors=(), reference_period="A", pinned=(("log_area", 1.0),)),
        )
        areas = np.array([o.area for o in renoir.observations])
        assert np.allclose(
            pinned.response_vector, free.response_vector - np.log(areas), atol=1e-12
        )
        assert pinned.column_names == free.column_names

    def test_missing_reference_period(self, renoir):
        with pytest.raises(ModelError, match="reference period 'Z'"):
            build_design(renoir, ModelSpec(regressors=("area",), reference_period="Z"))

    def test_duplicate_regressor_names(self, renoir):
        spec = ModelSpec(regressors=("area", "area"), reference_period="A")
        with pytest.raises(ModelError, match="distinct"):
            build_design(renoir, spec)

    def test_reference_period_is_required(self):
        with pytest.raises(TypeError, match="reference_period"):
            ModelSpec(regressors=("area",))


class TestSolve:
    def test_bundled_coefficients_near_reference(self, renoir):
        coef = solve_least_squares(build_design(renoir, EXAMPLE_SPEC))
        assert coef[0] == pytest.approx(11.619049, abs=0.002)
        assert coef[1] == pytest.approx(0.000411, abs=5e-6)
        assert coef[2] == pytest.approx(1.051534, abs=0.002)
        assert coef[3] == pytest.approx(1.068575, abs=0.002)

    def test_ac_dummy_coefficient(self, renoir_ac):
        coef = solve_least_squares(build_design(renoir_ac, EXAMPLE_SPEC))
        assert coef[3] == pytest.approx(1.038821, abs=0.002)

    def test_exact_span_zero_residual(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((9, 3))
        beta = np.array([1.5, -2.0, 0.25])
        sys = DesignSystem(x, x @ beta, ("a", "b", "c"))
        coef = solve_least_squares(sys)
        assert np.allclose(sys.design_matrix @ coef, sys.response_vector, atol=1e-10)

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((10, 2))
        x = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + base[:, 1]])
        sys = DesignSystem(x, rng.standard_normal(10), ("u", "v", "u_plus_v"))
        with pytest.raises(RankDeficientError) as excinfo:
            solve_least_squares(sys)
        assert excinfo.value.column == "u_plus_v"

    def test_underdetermined(self):
        x = np.ones((2, 3))
        sys = DesignSystem(x, np.ones(2), ("a", "b", "c"))
        with pytest.raises(ModelError, match="underdetermined"):
            solve_least_squares(sys)


def generated_dataset(seed):
    """15 sales over periods P0-P2: random prices, areas and extra characteristics z1, z2."""
    rng = np.random.default_rng(seed)
    records = [
        SaleObservation(
            id=str(i),
            period=f"P{i // 5}",
            price=float(np.exp(rng.uniform(2, 12))),
            area=float(rng.uniform(10, 1000)),
            aspect_ratio=float(rng.uniform(0.5, 2.0)),
            extra_characteristics=dict(zip(("z1", "z2"), rng.uniform(-10, 10, 2).tolist())),
        )
        for i in range(15)
    ]
    return validate_dataset(records)


class TestStatistics:
    def test_matches_textbook_formulas(self):
        ds = generated_dataset(21)
        spec = ModelSpec(reference_period="P0", regressors=("area", "z1", "z2"))
        result = fit(ds, spec)
        sys = build_design(ds, spec)
        x, y = sys.design_matrix, sys.response_vector
        n, k = x.shape
        coef = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.allclose(result.coefficients, coef, rtol=1e-9, atol=1e-12)
        resid = y - x @ coef
        s2 = resid @ resid / (n - k)
        cov = s2 * np.linalg.inv(x.T @ x)
        se = np.sqrt(np.diag(cov))
        assert result.sigma2 == pytest.approx(s2, rel=1e-10)
        assert np.allclose(result.standard_errors, se, rtol=1e-9)
        assert np.allclose(result.covariance, cov, rtol=1e-8, atol=1e-12)
        assert np.allclose(
            result.p_values, 2 * stats.t.sf(np.abs(result.t_statistics), n - k), atol=1e-12
        )
        tss = np.sum((y - y.mean()) ** 2)
        assert result.r_squared == pytest.approx(1 - (resid @ resid) / tss, rel=1e-10)
        assert result.adjusted_r_squared == pytest.approx(
            1 - (1 - result.r_squared) * (n - 1) / (n - k), rel=1e-10
        )

    def test_invariants(self, renoir):
        result = fit(renoir, EXAMPLE_SPEC)
        assert np.allclose(
            result.t_statistics, result.coefficients / result.standard_errors
        )
        assert np.allclose(
            np.diag(result.covariance), result.standard_errors**2, rtol=1e-12
        )
        assert result.covariance == pytest.approx(result.covariance.T, abs=0.0)
        n = result.n_observations
        scale = np.abs(np.log([o.price for o in renoir.observations])).mean()
        assert abs(result.residuals.sum()) <= 1e-8 * n * scale
        assert result.degrees_of_freedom == 25

    def test_bundled_inference_cells(self, renoir):
        result = fit(renoir, EXAMPLE_SPEC)
        j = result.column_names.index("dummy_B")
        assert result.standard_errors[j] == pytest.approx(0.4522, rel=0.01)
        assert result.t_statistics[j] == pytest.approx(2.36, abs=0.02)
        assert result.p_values[j] == pytest.approx(0.02622, abs=0.0005)
        assert result.r_squared > 0.70

    def test_unknown_coefficient_lists_the_columns(self, renoir):
        with pytest.raises(ModelError) as excinfo:
            fit(renoir, EXAMPLE_SPEC).coefficient("dummy_Q")
        assert str(excinfo.value) == (
            "no column 'dummy_Q' in fitted model; columns: intercept, area, aspect_ratio, dummy_B"
        )

    def test_zero_residual_dof(self):
        # intercept, area and dummy_B: as many columns as sales
        ds = validate_dataset(
            [
                SaleObservation("1", "A", 100.0, 10.0, 1.0),
                SaleObservation("2", "A", 180.0, 20.0, 1.0),
                SaleObservation("3", "B", 300.0, 15.0, 1.0),
            ]
        )
        with pytest.raises(ModelError, match="degrees of freedom"):
            fit(ds, ModelSpec(reference_period="A", regressors=("area",)))


class TestSolverProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_residual_orthogonal_to_columns(self, seed):
        sys = random_system(seed)
        coef = solve_least_squares(sys)
        resid = sys.response_vector - sys.design_matrix @ coef
        n = sys.n_observations
        scale = max(np.abs(sys.response_vector).max(), 1.0) * max(
            np.abs(sys.design_matrix).max(), 1.0
        )
        assert np.abs(sys.design_matrix.T @ resid).max() <= 1e-8 * n * scale

    @given(seed=st.integers(0, 10_000), log2_c=st.integers(-6, 10))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, seed, log2_c):
        sys = random_system(seed)
        c = float(2.0**log2_c)
        coef = solve_least_squares(sys)
        scaled_x = sys.design_matrix.copy()
        scaled_x[:, -1] *= c
        scaled = DesignSystem(scaled_x, sys.response_vector, sys.column_names)
        coef_scaled = solve_least_squares(scaled)
        assert coef_scaled[-1] == pytest.approx(coef[-1] / c, rel=1e-10, abs=1e-14)
        assert np.allclose(
            scaled.design_matrix @ coef_scaled,
            sys.design_matrix @ coef,
            rtol=1e-10,
            atol=1e-10,
        )

    @given(seed=st.integers(0, 10_000), shift=st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_response_shift_moves_only_intercept(self, seed, shift):
        sys = random_system(seed)
        coef = solve_least_squares(sys)
        shifted = DesignSystem(
            sys.design_matrix, sys.response_vector + shift, sys.column_names
        )
        coef_shifted = solve_least_squares(shifted)
        assert coef_shifted[0] == pytest.approx(coef[0] + shift, rel=1e-10, abs=1e-9)
        assert np.allclose(coef_shifted[1:], coef[1:], rtol=1e-10, atol=1e-9)


class TestStudentT:
    def test_t_zero_is_one(self):
        for df in (1, 2, 25, 400):
            assert student_t_two_sided_p(0.0, df) == 1.0

    def test_cauchy_point(self):
        assert abs(student_t_two_sided_p(1.0, 1) - 0.5) <= 1e-10

    def test_printed_table_point(self):
        assert student_t_two_sided_p(2.3631, 25) == pytest.approx(0.0262, abs=0.0002)

    def test_against_scipy(self):
        for df in (1, 2, 5, 25, 120, 5000):
            for t in np.linspace(0.0, 40.0, 401):
                got = student_t_two_sided_p(float(t), df)
                assert got == pytest.approx(2 * stats.t.sf(t, df), abs=1e-10)

    def test_strictly_decreasing_in_abs_t(self):
        for df in (1, 5, 25, 100):
            grid = np.linspace(0.0, 10.0, 1000)
            values = [student_t_two_sided_p(float(t), df) for t in grid]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_symmetric_in_t(self):
        assert student_t_two_sided_p(-2.5, 12) == student_t_two_sided_p(2.5, 12)

    @pytest.mark.parametrize("df", [0, -3])
    def test_bad_df(self, df):
        with pytest.raises(ModelError, match="degrees of freedom"):
            student_t_two_sided_p(1.0, df)

    def test_bad_t(self):
        with pytest.raises(ModelError, match="finite"):
            student_t_two_sided_p(float("nan"), 5)

    def test_numpy_integer_df_accepted(self):
        df = np.int64(25)
        assert student_t_two_sided_p(2.0, df) == student_t_two_sided_p(2.0, 25)
