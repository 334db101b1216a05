"""Special functions used by the closed forms.

The exponential integral E1 is evaluated by a power series for x <= 1 and
by a modified-Lentz continued fraction for x > 1.  The scaled product
e^x * E1(x) is computed directly (the e^x factor folded in analytically),
since the closed-form rate expressions only ever consume the product,
which stays O(1/x) while each factor over/underflows.
"""

from __future__ import annotations

import math

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286060651209008240243

_SERIES_CUTOFF = 1.0
_MAX_CF_ITER = 200
_MAX_SERIES_TERMS = 60


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{n>=1} (-1)^{n+1} x^n / (n * n!)
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for n in range(1, _MAX_SERIES_TERMS):
        term *= -x / n
        delta = -term / n
        total += delta
        if abs(delta) < 1e-17 * abs(total):
            break
    return total


def _e1_cf_scaled(x: float) -> float:
    # Modified Lentz on  e^x E1(x) = 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_CF_ITER):
        a = -n * n
        b += 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt, x > 0."""
    if not x > 0:
        raise DomainError(f"e1 requires x > 0, got {x}")
    if x <= _SERIES_CUTOFF:
        return _e1_series(x)
    if x > 700.0:
        # e^-x underflows; the true value is below ~1e-307
        return math.exp(-x) * _e1_cf_scaled(x) if x < 745 else 0.0
    return math.exp(-x) * _e1_cf_scaled(x)


def exp_e1_scaled(x: float) -> float:
    """e^x * E1(x), overflow-free for x up to 1e8 and beyond."""
    if not x > 0:
        raise DomainError(f"exp_e1_scaled requires x > 0, got {x}")
    if x <= _SERIES_CUTOFF:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))

