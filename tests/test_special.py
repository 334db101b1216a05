import math

import mpmath
import numpy as np
import pytest

from fdlink import e1, exp_e1_scaled, q_function
from fdlink.errors import DomainError
from fdlink.special import EULER_GAMMA


def e1_series_oracle(x, terms=60):
    """Independent oracle: truncated power series at high precision."""
    with mpmath.workdps(50):
        total = -mpmath.euler - mpmath.log(x)
        for n in range(1, terms + 1):
            total += (-1) ** (n + 1) * mpmath.mpf(x) ** n / (n * mpmath.factorial(n))
        return float(total)


def test_e1_at_one_against_series_oracle():
    assert e1(1.0) == pytest.approx(0.21938393439552, abs=1e-12)
    assert e1(1.0) == pytest.approx(e1_series_oracle(1.0), abs=1e-15)


def test_e1_at_ten():
    with mpmath.workdps(40):
        expected = float(mpmath.e1(10))
    assert expected == pytest.approx(4.1570e-6, rel=1e-4)
    assert e1(10.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("x", [1e-12, 1e-8, 1e-3, 0.3, 0.999, 1.001, 2.0, 17.0, 150.0, 700.0])
def test_e1_against_mpmath(x):
    with mpmath.workdps(40):
        expected = float(mpmath.e1(x))
    assert e1(x) == pytest.approx(expected, rel=1e-14)


def test_e1_small_x_log_divergence():
    for x in (1e-6, 1e-9, 1e-12):
        assert e1(x) == pytest.approx(-EULER_GAMMA - math.log(x), rel=1e-5)


def test_e1_domain():
    for fn in (e1, exp_e1_scaled):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                fn(x)


def test_e1_and_exp_e1_scaled_are_correctly_rounded():
    # float(...) of a 60-digit mpmath value rounds it once to the nearest double
    grid = np.concatenate([np.geomspace(1e-12, 1e8, 400), np.linspace(700.0, 745.0, 46)])
    with mpmath.workdps(60):
        expected = [(float(mpmath.e1(x)), float(mpmath.exp(x) * mpmath.e1(x))) for x in grid]
    assert [(e1(x), exp_e1_scaled(x)) for x in grid.tolist()] == expected


def test_exp_e1_scaled_values():
    assert exp_e1_scaled(1.0) == pytest.approx(math.e * e1(1.0), rel=1e-14)
    assert exp_e1_scaled(1.0) == pytest.approx(0.596347, rel=1e-6)
    # leading asymptotic term 1/x
    assert exp_e1_scaled(1000.0) == pytest.approx(9.990e-4, rel=1e-3)


def test_exp_e1_scaled_matches_product():
    for x in np.geomspace(1e-6, 500.0, 40):
        assert exp_e1_scaled(x) == pytest.approx(math.exp(x) * e1(x), rel=1e-12)


def test_exp_e1_scaled_finite_and_monotone_to_1e8():
    xs = np.geomspace(1e-6, 1e8, 200)
    vals = [exp_e1_scaled(x) for x in xs]
    assert all(np.isfinite(vals))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_e1_derivative_recurrence():
    # d/dx E1(x) = -e^-x / x, central difference
    for x in (0.5, 1.0, 3.0, 10.0):
        h = 1e-6 * x
        fd = (e1(x + h) - e1(x - h)) / (2 * h)
        assert fd == pytest.approx(-math.exp(-x) / x, rel=1e-6)


def test_q_function_basics():
    assert q_function(0.0) == 0.5
    assert q_function(3.0) == pytest.approx(1.3499e-3, abs=1e-7)
    rng = np.random.default_rng(1)
    for x in rng.normal(0, 2, 20):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-15)

