"""The least-squares solver and the incomplete beta against independent oracles
(scipy, numpy, exact rationals)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from artindex import (
    ModelSpec,
    RankDeficientError,
    SaleObservation,
    build_design,
    fit,
    kernels,
    solve_least_squares,
    validate_dataset,
)
from artindex.regression import RANK_RTOL, DesignSystem

from conftest import EXAMPLE_SPEC


def exact_normal_equations_solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact least squares: rational Gaussian elimination on X'X b = X'y.

    Float entries convert to Fractions losslessly, so this is the exact
    solution for the given binary64 inputs.
    """
    n, k = x.shape
    xf = [[Fraction(v) for v in row] for row in x]
    yf = [Fraction(v) for v in y]
    a = [[sum(xf[i][r] * xf[i][c] for i in range(n)) for c in range(k)] for r in range(k)]
    b = [sum(xf[i][r] * yf[i] for i in range(n)) for r in range(k)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise ZeroDivisionError("singular normal equations")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for c in range(col, k):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    return np.array([float(b[r] / a[r][r]) for r in range(k)])


def solve(x, y):
    names = tuple(f"c{j}" for j in range(x.shape[1]))
    return solve_least_squares(DesignSystem(x, y, names))


class TestHouseholder:
    """``solve_least_squares``: Householder QR (LAPACK) and a triangular solve."""

    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            k = int(rng.integers(1, min(n, 6) + 1))
            x = rng.standard_normal((n, k))
            y = rng.standard_normal(n)
            expected, *_ = np.linalg.lstsq(x, y, rcond=None)
            got = solve(x, y)
            assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 5))
            x = rng.standard_normal((n, k))
            y = rng.standard_normal(n)
            exact = exact_normal_equations_solve(x, y)
            got = solve(x, y)
            scale = np.abs(exact).max()
            assert np.abs(got - exact).max() <= 1e-8 * max(scale, 1e-30)

    def test_exact_span_gives_zero_residual(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 3))
        beta = np.array([2.0, -1.0, 0.5])
        y = x @ beta
        got = solve(x, y)
        assert np.allclose(got, beta, rtol=1e-12, atol=1e-12)
        assert np.allclose(x @ got, y, rtol=1e-12, atol=1e-12)

    def test_zero_column_is_rank_deficient(self):
        x = np.zeros((5, 2))
        x[:, 0] = 1.0
        with pytest.raises(RankDeficientError) as excinfo:
            solve_least_squares(DesignSystem(x, np.ones(5), ("intercept", "zero")))
        assert excinfo.value.column == "zero"

    def test_near_collinear_column_is_rank_deficient(self, renoir):
        # z differs from 2 * area by ~1e-9 on areas given to two decimals,
        # so its R diagonal is ~3e-13 of the largest: below RANK_RTOL
        noise = np.random.default_rng(0).standard_normal(len(renoir))
        records = [
            obs.replace(extra_characteristics={"z": 2.0 * obs.area + 1e-9 * e})
            for obs, e in zip(renoir.observations, noise)
        ]
        spec = ModelSpec(regressors=("area", "z"), reference_period="A")
        with pytest.raises(RankDeficientError) as excinfo:
            fit(validate_dataset(records), spec)
        assert excinfo.value.column == "z"

    def test_fit_factors_once(self, renoir, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counting_qr(a, mode="reduced"):
            calls.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        fit(renoir, EXAMPLE_SPEC)
        # R alone: no Q is formed for a fit
        assert calls == ["r"]


def explicit_q_fit(sys: DesignSystem):
    """Coefficients, standard errors and residuals by solve(R, Q^T y) with Q formed.

    The rank check reads the diagonal of the R of X alone, with the
    library's threshold.
    """
    x, y = sys.design_matrix, sys.response_vector
    n, k = x.shape
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    j = int(diag.argmin())
    if diag[j] < RANK_RTOL * diag.max():
        raise RankDeficientError(sys.column_names[j], float(diag[j] / diag.max()))
    coef = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ coef
    r_inv = np.linalg.inv(r)
    se = np.sqrt(residuals @ residuals / (n - k) * np.sum(r_inv * r_inv, axis=1))
    return coef, se, residuals


def agreement_tolerances(sys: DesignSystem, coef, residuals):
    """How far two backward-stable solves may differ: coefficients, residuals, SE rtol.

    Each tolerance is rtol=1e-10, atol=1e-12 plus the first-order rounding
    of a least-squares solve, u * ||row j of R^-1|| * (||y|| + ||X|| ||b||)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 20),
    taken 16 times. On the near-collinear designs that term dominates:
    both solves miss a 60-digit solution by far more than 1e-10 of it.
    Residuals y - X b may move as far as X times the coefficient
    tolerance lets them, and each SE as far as the residual sum of
    squares then moves: |d SE| / SE = |d RSS| / (2 RSS).
    """
    x, y = sys.design_matrix, sys.response_vector
    r_inv = np.linalg.inv(np.linalg.qr(x, mode="r"))
    rounding = np.finfo(np.float64).eps * np.linalg.norm(r_inv, axis=1) * (
        np.linalg.norm(y) + np.linalg.norm(x, 2) * np.linalg.norm(coef)
    )
    coef_tol = 1e-12 + 1e-10 * np.abs(coef) + 16.0 * rounding
    residual_tol = 1e-12 + 1e-10 * np.abs(residuals) + np.abs(x) @ coef_tol
    se_rtol = 1e-10 + (np.abs(residuals) @ residual_tol) / (residuals @ residuals)
    return coef_tol, residual_tol, se_rtol


@st.composite
def hedonic_designs(draw):
    """A dataset and spec: 2-20 periods, 0-3 extra characteristics, optionally
    a column near a linear function of area, optionally n = k + 1 sales."""
    n_periods = draw(st.integers(2, 20), label="periods")
    n_extra = draw(st.integers(0, 3), label="extras")
    # log10 of the noise that keeps z off 2 * area + 1; None leaves z out,
    # and -inf makes it an exact linear function of area
    z_noise = draw(st.one_of(st.none(), st.just(-math.inf), st.floats(-5.0, -1.0)), label="z_noise")
    tight = draw(st.booleans(), label="n = k + 1")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")

    rng = np.random.default_rng(seed)
    k = 3 + n_extra + (z_noise is not None) + n_periods - 1
    # every period has a sale, and there are k + 1 sales or more
    spare = k + 1 - n_periods + (0 if tight else int(rng.integers(0, 10 * n_periods)))
    sizes = 1 + rng.multinomial(spare, np.full(n_periods, 1.0 / n_periods))
    periods = [f"P{q}" for q in range(n_periods)]
    records = []
    for q, size in enumerate(sizes.tolist()):
        for _ in range(size):
            area = float(np.exp(rng.normal(5.0 + 0.3 * q, 0.8)))
            extras = {f"x{j}": float(rng.normal()) for j in range(n_extra)}
            if z_noise is not None:
                extras["z"] = 2.0 * area + 1.0 + 10.0**z_noise * area * float(rng.normal())
            records.append(
                SaleObservation(
                    id=f"s{len(records)}",
                    period=periods[q],
                    price=float(np.exp(rng.normal(11.0 + 0.0004 * area, 0.6))),
                    area=area,
                    aspect_ratio=float(rng.uniform(0.4, 1.6)),
                    extra_characteristics=extras,
                )
            )
    ds = validate_dataset(records, period_order=periods)
    regressors = ("area", "aspect_ratio", *(f"x{j}" for j in range(n_extra)))
    if z_noise is not None:
        regressors += ("z",)
    base = draw(st.integers(0, n_periods - 1), label="base")
    return ds, ModelSpec(regressors=regressors, reference_period=periods[base])


class TestAugmentedFactor:
    """``fit`` reads R and Q^T y off one R-only QR of [X | y]; the explicit-Q
    solve is the oracle."""

    @given(design=hedonic_designs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_explicit_q_solve(self, design):
        ds, spec = design
        sys = build_design(ds, spec)
        try:
            coef, se, residuals = explicit_q_fit(sys)
        except RankDeficientError as expected:
            with pytest.raises(RankDeficientError) as got:
                fit(ds, spec)
            assert got.value.column == expected.column
            return
        result = fit(ds, spec)
        coef_tol, residual_tol, se_rtol = agreement_tolerances(sys, coef, residuals)
        assert np.all(np.abs(result.coefficients - coef) <= coef_tol)
        assert np.all(np.abs(result.residuals - residuals) <= residual_tol)
        assert np.all(np.abs(result.standard_errors - se) <= 1e-12 + se_rtol * se)
        if "z" not in spec.regressors:
            # away from collinearity the rounding term is negligible
            for got, want in ((result.coefficients, coef), (result.residuals, residuals),
                              (result.standard_errors, se)):
                assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert kernels.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert kernels.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_scipy_grid(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.5, 12.5, 50.0, 500.0, 5000.0):
            for b in (0.5, 1.0, 3.0, 12.0):
                for x in np.linspace(1e-9, 1 - 1e-9, 201):
                    got = kernels.regularized_incomplete_beta(a, b, float(x))
                    worst = max(worst, abs(got - special.betainc(a, b, x)))
        assert worst <= 1e-10

    def test_symmetry_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = float(rng.uniform(0.3, 40))
            b = float(rng.uniform(0.3, 40))
            x = float(rng.uniform(0, 1))
            left = kernels.regularized_incomplete_beta(a, b, x)
            right = 1.0 - kernels.regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=5e-13)

    def test_uniform_case_is_identity(self):
        for x in np.linspace(0.05, 0.95, 19):
            got = kernels.regularized_incomplete_beta(1.0, 1.0, float(x))
            assert got == pytest.approx(x, abs=1e-13)
