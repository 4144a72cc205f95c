"""The least-squares solver and the incomplete beta against independent oracles
(scipy, numpy, exact rationals)."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from artindex import (
    ModelSpec,
    RankDeficientError,
    fit,
    kernels,
    solve_least_squares,
    validate_dataset,
)
from artindex.regression import DesignSystem

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
            replace(obs, extra_characteristics={"z": 2.0 * obs.area + 1e-9 * e})
            for obs, e in zip(renoir.observations, noise)
        ]
        spec = ModelSpec(regressors=("area", "z"), reference_period="A")
        with pytest.raises(RankDeficientError) as excinfo:
            fit(validate_dataset(records), spec)
        assert excinfo.value.column == "z"

    def test_fit_factors_once(self, renoir, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        fit(renoir, EXAMPLE_SPEC)
        assert len(calls) == 1


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
