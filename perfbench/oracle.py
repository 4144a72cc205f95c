"""Reference computations made apart from the program under test.

Nothing here imports ``artindex``: the sale records are read from the
same CSV files with the ``csv`` module, and every expected figure comes
from numpy (``lstsq``, ``pinv``) and ``scipy.stats``.

Both indexes are log-linear in prices with characteristics held fixed,

    log I_q = log I_base + sum_i W[q, i] * log p_i,

so the effect of any price change on any level is exact given W: for
npgm, W[q, i] is 1/n_q for sales in q and -1/n_base for base-period
sales; for hpm, the time-dummy rows of pinv(X). This predicts the
single, grid and random monotonicity audits without refitting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

# the program's noise slack: a level "drops" when it falls by more than
# this share of its value
RELATIVE_SLACK = 1e-12
LOG_DROP = math.log1p(-RELATIVE_SLACK)
# a predicted log change this close to LOG_DROP could land on either
# side after the program's roundoff; such cases are not judged
AMBIGUOUS_BAND = 1e-9


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


@dataclass(frozen=True)
class Sales:
    ids: tuple[str, ...]
    periods: tuple[str, ...]  # distinct labels, first-appearance order
    period_of: np.ndarray  # period index per sale
    price: np.ndarray
    area: np.ndarray
    ratio: np.ndarray
    extras: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        if name == "area":
            return self.area
        if name == "aspect_ratio":
            return self.ratio
        if name == "log_area":
            return np.log(self.area)
        return self.extras[name]

    def index_of(self, obs_id: str) -> int:
        return self.ids.index(obs_id)

    def with_price_scaled(self, obs_id: str, factor: float) -> "Sales":
        price = self.price.copy()
        i = self.index_of(obs_id)
        price[i] = price[i] + price[i] * (factor - 1.0)
        return Sales(self.ids, self.periods, self.period_of, price, self.area, self.ratio, self.extras)

    def with_period_relabeled(self, old: str, new: str) -> "Sales":
        periods = tuple(new if p == old else p for p in self.periods)
        return Sales(self.ids, periods, self.period_of, self.price, self.area, self.ratio, self.extras)


def read_sales(path: Path, extra_columns: tuple[str, ...] = ()) -> Sales:
    """Sale records in the bundled layout; a byte-order mark is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [r for r in csv.reader(handle) if any(c.strip() for c in r)]
    header = [c.strip() for c in rows[0]]
    col = {name: header.index(name) for name in header}
    body = rows[1:]
    labels: list[str] = []
    period_of = []
    for r in body:
        label = r[col["dataset"]].strip()
        if label not in labels:
            labels.append(label)
        period_of.append(labels.index(label))

    def numbers(name: str) -> np.ndarray:
        return np.array([float(r[col[name]]) for r in body])

    return Sales(
        ids=tuple(r[col["id"]].strip() for r in body),
        periods=tuple(labels),
        period_of=np.array(period_of),
        price=numbers("price_usd"),
        area=numbers("area_cm2"),
        ratio=numbers("hw_ratio"),
        extras={name: numbers(name) for name in extra_columns},
    )


def npgm_levels(sales: Sales, base_value: float = 100.0) -> dict[str, float]:
    """Per-period geometric mean of price/area over the base period's."""
    log_unit = np.log(sales.price / sales.area)
    means = [log_unit[sales.period_of == q].mean() for q in range(len(sales.periods))]
    return {p: base_value * math.exp(means[q] - means[0]) for q, p in enumerate(sales.periods)}


def design(sales: Sales, regressors: tuple[str, ...], pinned_log_area: bool = False):
    """Design matrix (intercept, regressors, dummies for periods after the first) and response."""
    n = len(sales.ids)
    columns = [np.ones(n)] + [sales.column(r) for r in regressors]
    names = ["intercept", *regressors]
    for q, label in enumerate(sales.periods[1:], start=1):
        columns.append((sales.period_of == q).astype(float))
        names.append(f"dummy_{label}")
    y = np.log(sales.price)
    if pinned_log_area:
        y = y - np.log(sales.area)
    return np.column_stack(columns), y, names


@dataclass(frozen=True)
class Fit:
    names: list[str]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    r_squared: float
    degrees_of_freedom: int
    pinv: np.ndarray

    def levels(self, periods: tuple[str, ...], base_value: float = 100.0) -> dict[str, float]:
        out = {periods[0]: base_value}
        for label in periods[1:]:
            out[label] = base_value * math.exp(self.coefficients[self.names.index(f"dummy_{label}")])
        return out


def hpm_fit(sales: Sales, regressors: tuple[str, ...], pinned_log_area: bool = False) -> Fit:
    x, y, names = design(sales, regressors, pinned_log_area)
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    n, k = x.shape
    df = n - k
    residuals = y - x @ coef
    sigma2 = float(residuals @ residuals) / df
    pinv = np.linalg.pinv(x)
    # pinv(X) pinv(X)^T = (X^T X)^-1 for a full-rank design
    se = np.sqrt(sigma2 * np.einsum("ij,ij->i", pinv, pinv))
    t = coef / se
    p = 2.0 * stats.t.sf(np.abs(t), df)
    tss = float(np.sum((y - y.mean()) ** 2))
    return Fit(names, coef, se, t, p, residuals, 1.0 - float(residuals @ residuals) / tss, df, pinv)


def weights(sales: Sales, method: str, fit: Fit | None = None) -> np.ndarray:
    """W[q, i] = d log I_q / d log p_i; the base row is zero."""
    n_periods, n = len(sales.periods), len(sales.ids)
    w = np.zeros((n_periods, n))
    if method == "npgm":
        counts = np.bincount(sales.period_of, minlength=n_periods)
        for q in range(1, n_periods):
            w[q, sales.period_of == q] = 1.0 / counts[q]
            w[q, sales.period_of == 0] = -1.0 / counts[0]
        return w
    for q, label in enumerate(sales.periods[1:], start=1):
        w[q] = fit.pinv[fit.names.index(f"dummy_{label}")]
    return w


def judge(log_change: float) -> bool | None:
    """True for a level drop beyond the slack, False for none, None when too close to call."""
    if abs(log_change - LOG_DROP) <= AMBIGUOUS_BAND:
        return None
    return bool(log_change < LOG_DROP)


@dataclass(frozen=True)
class ExpectedViolation:
    description: str
    period: str
    ratio: float  # level_after / level_before
    certain: bool


def grid_violations(sales: Sales, w: np.ndarray, multipliers: list[float]) -> list[ExpectedViolation]:
    """Violations of the grid sweep in the program's order: sale order, then grid order."""
    out = []
    for i, obs_id in enumerate(sales.ids):
        q = sales.period_of[i]
        if q == 0:
            continue
        for m in multipliers:
            change = w[q, i] * math.log(m)
            verdict = judge(change)
            if verdict is not False:
                out.append(
                    ExpectedViolation(
                        f"obs {obs_id} price x{m:g}", sales.periods[q], math.exp(change), bool(verdict)
                    )
                )
    return out


def random_violations(sales: Sales, w: np.ndarray, trials: int, seed: int) -> list[ExpectedViolation]:
    """Violations of the seeded random audit, from the same draw order.

    Per trial the program draws n coins and then n magnitudes over the
    non-base sales; one (trials, 2, n) draw reproduces that stream.
    """
    targets = np.flatnonzero(sales.period_of != 0)
    draws = np.random.default_rng(seed).random((trials, 2, len(targets)))
    prices = sales.price[targets]
    increments = np.where(draws[:, 0] < 0.5, 0.0, draws[:, 1] * prices)
    log_factors = np.log(prices + increments) - np.log(prices)
    changes = log_factors @ w[:, targets].T  # (trials, periods)
    target_periods = sales.period_of[targets]
    out = []
    for trial in range(trials):
        perturbed = set(target_periods[increments[trial] > 0].tolist())
        for q in range(1, len(sales.periods)):
            if q not in perturbed:
                continue
            verdict = judge(changes[trial, q])
            if verdict is not False:
                out.append(
                    ExpectedViolation(
                        f"trial {trial}", sales.periods[q], math.exp(changes[trial, q]), bool(verdict)
                    )
                )
    return out


def decomposition_gaps(sales: Sales, regressors: tuple[str, ...], coefficients: dict[str, float]) -> list[float]:
    """Relative gaps of exp(delta_q) against the geomean ratio times theta, per non-base period.

    With an intercept and time dummies, OLS residuals sum to zero within
    every period, which makes the identity exact for the full-sample fit.
    """
    log_price = np.log(sales.price)
    base = sales.period_of == 0
    gaps = []
    for q, label in enumerate(sales.periods[1:], start=1):
        in_q = sales.period_of == q
        log_ratio = log_price[in_q].mean() - log_price[base].mean()
        log_theta = sum(
            coefficients[r] * (sales.column(r)[base].mean() - sales.column(r)[in_q].mean())
            for r in regressors
        )
        exp_delta = math.exp(coefficients[f"dummy_{label}"])
        gaps.append(abs(math.exp(log_ratio + log_theta) - exp_delta) / exp_delta)
    return gaps


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def require_close(label: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise Mismatch(
            f"{label}: {int(bad.sum())} of {bad.size} differ, first at {j}: "
            f"{float(got.flat[j])!r} vs {float(want.flat[j])!r}"
        )
