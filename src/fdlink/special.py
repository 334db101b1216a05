"""Special functions used by the closed forms, as plain floats: e1 and
exp_e1_scaled round once the 30-digit value of mpmath's E1, the E1 the
closed forms in fdlink.analytic sum.  mpmath forms the product e^x * E1(x),
which stays O(1/x) where either factor would over/underflow in floats."""

import math

import mpmath

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286060651209008240243


def e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt, x > 0."""
    if not x > 0:
        raise DomainError(f"e1 requires x > 0, got {x}")
    with mpmath.workdps(30):
        return float(mpmath.e1(x))


def exp_e1_scaled(x: float) -> float:
    """e^x * E1(x), overflow-free for x up to 1e8 and beyond."""
    if not x > 0:
        raise DomainError(f"exp_e1_scaled requires x > 0, got {x}")
    with mpmath.workdps(30):
        return float(mpmath.exp(x) * mpmath.e1(x))


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
