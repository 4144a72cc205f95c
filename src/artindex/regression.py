"""Ordinary least squares for the hedonic time-dummy model.

There is one model shape: the log price (less any pinned terms) on an
intercept, the chosen characteristics and one 0/1 dummy per period other
than the reference period,

    ln(price) = intercept + sum_k beta_k * z_k + sum_q delta_q * dummy_q + e

:func:`fit` solves it by one Householder QR of the design matrix with
the response as a last column, [X | y] (LAPACK ``dgeqrf`` through
``numpy.linalg.qr``; the normal-equations matrix is never formed). The
leading k x k block of that triangular factor is R of X and its last
column is Q^T y, so a fit asks LAPACK for R alone and forms no Q
(Golub & Van Loan, *Matrix Computations*, sec. 5.3). The fit reports
standard errors, t statistics, two-sided Student-t p-values, R^2, and
the coefficient covariance; R serves both the coefficients and the
covariance, so a fit factors once. :func:`solve_with_pseudo_inverse`
runs the same factorization and also forms Q, to return the
coefficients (bitwise those of :func:`fit`) and X+, their sensitivity to
the response; the hpm monotonicity weights come from it.
:func:`solve_least_squares` runs the R-only factorization of
:func:`fit` and returns the coefficients alone; the hpm series
(``indexes.hpm_timedummy_index``) comes from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .domain import Dataset
from .errors import ModelError, RankDeficientError

# columns whose smallest |R| diagonal falls below RANK_RTOL times the
# largest are treated as linearly dependent
RANK_RTOL = 1e-10

_BUILTIN_CHARACTERISTICS = ("area", "aspect_ratio", "log_area")


def _log(values: np.ndarray) -> np.ndarray:
    # the C library's log, value by value: numpy's vectorized log can
    # differ from it in the last bit, which would move every fitted figure
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))


def characteristic_column(ds: Dataset, name: str) -> np.ndarray:
    """A named characteristic of every sale, in dataset order.

    Known names are the built-ins (area, aspect_ratio, log_area) plus the
    dataset's extra characteristics.
    """
    if name == "area":
        return ds.area
    if name == "aspect_ratio":
        return ds.aspect_ratio
    if name == "log_area":
        return _log(ds.area)
    try:
        return ds.extras[name]
    except KeyError:
        raise ModelError(
            f"unknown characteristic {name!r}; available: "
            + ", ".join((*_BUILTIN_CHARACTERISTICS, *sorted(ds.extras)))
        ) from None


@dataclass(frozen=True)
class ModelSpec:
    """Hedonic time-dummy model specification.

    Every model has an intercept and one time dummy per period except
    ``reference_period``, the omitted category. The response is the
    natural log of price, less any pinned terms. ``regressors`` are free
    characteristics fitted by OLS; ``pinned`` fixes chosen
    characteristics at given coefficients by moving them onto the
    response (algebraically exact).
    """

    reference_period: str
    regressors: tuple[str, ...] = ()
    pinned: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Numeric least-squares problem: X, y, and column labels."""

    design_matrix: np.ndarray
    response_vector: np.ndarray
    column_names: tuple[str, ...]

    @property
    def n_observations(self) -> int:
        return self.design_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class RegressionResult:
    """Coefficients with full inferential statistics."""

    column_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    sigma2: float
    covariance: np.ndarray
    r_squared: float
    adjusted_r_squared: float
    degrees_of_freedom: int

    def coefficient(self, name: str) -> float:
        """Coefficient looked up by column name."""
        try:
            return float(self.coefficients[self.column_names.index(name)])
        except ValueError:
            raise ModelError(
                f"no column {name!r} in fitted model; columns: "
                + ", ".join(self.column_names)
            ) from None

    @property
    def n_observations(self) -> int:
        return len(self.residuals)


def dummy_column_name(period: str) -> str:
    return f"dummy_{period}"


def build_design(ds: Dataset, spec: ModelSpec) -> DesignSystem:
    """Assemble the design matrix and log-price response for a model spec.

    Column order is intercept, then the free regressors in spec order,
    then one 0/1 dummy per non-reference period in dataset period order.
    """
    names = [*spec.regressors, *(name for name, _ in spec.pinned)]
    if len(set(names)) != len(names):
        raise ModelError(f"regressor names must be distinct, got {names}")
    if spec.reference_period not in ds.periods:
        raise ModelError(
            f"reference period {spec.reference_period!r} not in dataset "
            f"periods {list(ds.periods)}"
        )
    dummy_codes = [q for q, p in enumerate(ds.periods) if p != spec.reference_period]
    dummies = [dummy_column_name(ds.periods[q]) for q in dummy_codes]
    for name in spec.regressors:
        if name == "intercept" or name in dummies:
            raise ModelError(
                f"regressor {name!r} has the name of a generated design column; "
                "rename that characteristic"
            )
    column_names = ["intercept", *spec.regressors, *dummies]

    y = _log(ds.price)
    for name, coef in spec.pinned:
        if not math.isfinite(coef):
            raise ModelError(f"pinned coefficient of {name!r} must be finite, got {coef!r}")
        with np.errstate(over="ignore"):
            y = y - coef * characteristic_column(ds, name)
        if not np.isfinite(y).all():
            raise ModelError(
                f"pinned coefficient {coef!r} of {name!r} takes the response past the float range"
            )
    x = np.column_stack(
        [
            np.ones(len(ds)),
            *(characteristic_column(ds, name) for name in spec.regressors),
            ds.period_codes[:, None] == np.array(dummy_codes, dtype=np.intp),
        ]
    )
    x.setflags(write=False)
    y.setflags(write=False)
    return DesignSystem(design_matrix=x, response_vector=y, column_names=tuple(column_names))


def _factor(sys: DesignSystem, with_q: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """R, Q^T y and Q of one Householder QR of [X | y], after checking |diag R| for rank.

    R is the leading k x k block of the factor of [X | y] and Q^T y its
    last column. Q (its first k columns) is formed only ``with_q``;
    otherwise LAPACK computes R alone and Q is None.
    """
    x = sys.design_matrix
    n, k = x.shape
    if k == 0:
        raise ModelError("design matrix has no columns")
    if n < k:
        raise ModelError(f"underdetermined system: {n} observations for {k} columns")
    augmented = np.column_stack([x, sys.response_vector])
    if with_q:
        q, r_aug = np.linalg.qr(augmented, mode="reduced")
        q = q[:, :k]
    else:
        q, r_aug = None, np.linalg.qr(augmented, mode="r")
    # column j of R depends on columns 0..j alone, so in exact arithmetic
    # the y column leaves R, and the rank check on its diagonal, as for X
    r = r_aug[:k, :k]
    diag = np.abs(np.diag(r))
    largest = diag.max()
    smallest_idx = int(diag.argmin())
    if largest == 0.0 or diag[smallest_idx] < RANK_RTOL * largest:
        ratio = diag[smallest_idx] / largest if largest > 0 else 0.0
        raise RankDeficientError(sys.column_names[smallest_idx], float(ratio))
    return r, r_aug[:k, k], q


def _solve(r: np.ndarray, qty: np.ndarray) -> np.ndarray:
    # R is upper triangular with a nonzero diagonal, so LU factors it
    # without row swaps and the solve is a plain back-substitution
    coef = np.linalg.solve(r, qty)
    coef.setflags(write=False)
    return coef


def solve_least_squares(sys: DesignSystem) -> np.ndarray:
    """Least-squares coefficients via Householder QR."""
    r, qty, _ = _factor(sys)
    return _solve(r, qty)


def solve_with_pseudo_inverse(sys: DesignSystem) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients and X+ = R^-1 Q^T (columns x observations), from one factorization.

    The coefficients are bitwise those of :func:`fit`: LAPACK computes the
    same R and Q^T y whether or not it goes on to form Q. Row j of X+
    holds d coef_j / d y_i, so for a time-dummy column it is the
    sensitivity of that log index level to every log price.
    """
    r, qty, q = _factor(sys, with_q=True)
    return _solve(r, qty), np.linalg.solve(r, q.T)


def _statistics(sys: DesignSystem, coef: np.ndarray, r: np.ndarray) -> RegressionResult:
    # sigma^2 is RSS / (N - K); the covariance comes from the triangular
    # factor (sigma^2 * R^-1 R^-T); p-values are two-sided Student-t with
    # N - K degrees of freedom; R^2 is measured against the mean-only model
    x = sys.design_matrix
    y = sys.response_vector
    n, k = x.shape
    df = n - k
    if df <= 0:
        raise ModelError(
            f"no residual degrees of freedom: {n} observations, {k} columns"
        )
    residuals = y - x @ coef
    rss = float(residuals @ residuals)
    sigma2 = rss / df

    r_inv = np.linalg.inv(r)
    covariance = sigma2 * (r_inv @ r_inv.T)
    standard_errors = np.sqrt(np.diag(covariance))
    t_statistics = np.asarray(coef) / standard_errors
    p_values = np.array(
        [student_t_two_sided_p(float(t), df) for t in t_statistics]
    )

    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / df

    for arr in (residuals, covariance, standard_errors, t_statistics, p_values):
        arr.setflags(write=False)
    return RegressionResult(
        column_names=sys.column_names,
        coefficients=np.asarray(coef),
        standard_errors=standard_errors,
        t_statistics=t_statistics,
        p_values=p_values,
        residuals=residuals,
        sigma2=sigma2,
        covariance=covariance,
        r_squared=r_squared,
        adjusted_r_squared=adjusted,
        degrees_of_freedom=df,
    )


def fit(ds: Dataset, spec: ModelSpec) -> RegressionResult:
    """Build the design for ``spec``, solve it, and compute statistics."""
    sys = build_design(ds, spec)
    r, qty, _ = _factor(sys)
    return _statistics(sys, _solve(r, qty), r)


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student-t with ``df`` degrees of freedom.

    Computed as the regularized incomplete beta I_x(df/2, 1/2) with
    x = df / (df + t^2); accurate to well under 1e-10 absolute.
    """
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise ModelError(f"degrees of freedom must be a positive integer, got {df!r}")
    if not math.isfinite(t):
        raise ModelError(f"t statistic must be finite, got {t!r}")
    x = df / (df + t * t)
    return float(kernels.regularized_incomplete_beta(df / 2.0, 0.5, x))
