"""Special functions: e1 and exp_e1_scaled round once the 30-digit value
of mpmath's E1, as plain floats; exp_e1_scaled_array, which the closed
forms in fdlink.analytic use, is the same product in double precision over
an array.  The product e^x * E1(x) stays O(1/x) where either factor would
over/underflow in floats."""

import math

import mpmath
import numpy as np

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


def exp_e1_scaled_array(x) -> np.ndarray:
    """e^x * E1(x) elementwise for x in (0, inf], within 8 ulp: E1's power
    series up to x = 1 (A&S 5.1.11), past it 90 levels of the even part of
    its continued fraction (A&S 5.1.22), evaluated from the bottom up."""
    x = np.asarray(x, dtype=float)
    low, high = np.minimum(x, 1.0), np.maximum(x, 1.0)
    term, series = np.ones_like(low), np.zeros_like(low)
    for k in range(1, 26):
        term *= -low / k
        series -= term / k
    fraction = np.zeros_like(high)
    for k in range(90, 0, -1):
        fraction = k * k / (high + (2 * k + 1) - fraction)
    return np.where(x <= 1.0, np.exp(low) * (series - EULER_GAMMA - np.log(low)),
                    1.0 / (high + 1.0 - fraction))


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
