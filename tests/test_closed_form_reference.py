"""Serial-Max closed forms against a 60-digit reference over the whole
supported domain: sizes up to n_a*n_b = 36, eta on and next to the
singular values 1/c, and lambda_s from 1 to 1e8.

The reference does not use the package's coefficient table: it sums the
(k, l, m) terms of the source derivation one by one, each with its exact
math.comb numerator, in mpmath at 60 digits.  Where 1 - c*eta vanishes
exactly for some c, it evaluates at eta * (1 + 1e-30) instead, whose
effect is far below the tolerance.
"""

import functools
import math
import warnings

import mpmath
import pytest

from fdlink import (
    SystemConfig,
    avg_rate_ab,
    avg_rate_ba,
    avg_ser_ab,
    avg_ser_ba,
    avg_weighted_sum_rate,
    mc_weighted_sum_rate,
    rate_ceiling,
    ser_floor,
    validate_config,
)

REF_DPS = 60
REL_TOL = 1e-10
W = 0.7
SIZES = [(n_a, n_b) for n_a in range(2, 7) for n_b in range(2, 7)] + [(4, 9)]
ETAS = (0.02, 0.05, 0.1, 0.2, 0.5, 0.1001)
LAMBDAS = (1.0, 10.0, 1e3, 1e8)
SIZE_IDS = [f"{n_a}x{n_b}" for n_a, n_b in SIZES]


def make_cfg(n_a, n_b, lambda_s, eta):
    return validate_config(SystemConfig(n_a=n_a, n_b=n_b, lambda_s=lambda_s, eta=eta, w=W))


@functools.lru_cache(maxsize=None)
def derivation_terms(n_a, n_b, link):
    """Shared denominator and (exact signed numerator, c) of every term of
    the link's CDF sum_c coef * e^(-c x/lam) / (1 + c eta x)."""
    nn = n_a * n_b
    if link == "ab":
        return 1, [((-1) ** k * math.comb(nn, k), k) for k in range(nn + 1)]
    terms = []
    for k in range(1, n_a + n_b):
        rank = math.comb(nn - k - 1, n_a + n_b - k - 1)
        for l in range(nn - k, nn + 1):
            for m in range(l + 1):
                coef = (-1) ** m * rank * math.comb(nn, l) * math.comb(l, m)
                terms.append((coef, nn - l + m))
    return math.comb(nn - 1, n_a + n_b - 2), terms


def reference_eta(cfg):
    eta = mpmath.mpf(cfg.eta)
    if any(1 - c * eta == 0 for c in range(1, cfg.nn + 1)):
        eta *= 1 + mpmath.mpf("1e-30")
    return eta


def term_sum(cfg, link, kernel):
    """sum over the derivation's terms of coef * kernel[c] / denominator;
    kernel[0] is what the constant term of the CDF contributes."""
    denom, terms = derivation_terms(cfg.n_a, cfg.n_b, link)
    return mpmath.fsum(coef * kernel[c] for coef, c in terms) / denom


def weighted(a, b):
    return max(W, 1 - W) * a + min(W, 1 - W) * b


def rate_reference(cfg):
    """(rate_ab, rate_ba): (1/ln 2) int (1 - F(x)) / (1 + x) dx term by term."""
    with mpmath.workdps(REF_DPS):
        eta, lam = reference_eta(cfg), mpmath.mpf(cfg.lambda_s)

        def s(x):
            return mpmath.exp(x) * mpmath.e1(x)

        s_u = s(1 / (eta * lam))
        kernel = [0] + [
            (s_u - s(c / lam)) / (1 - c * eta) / mpmath.ln2 for c in range(1, cfg.nn + 1)
        ]
        return tuple(term_sum(cfg, link, kernel) for link in ("ab", "ba"))


def ceiling_reference(cfg):
    with mpmath.workdps(REF_DPS):
        eta = reference_eta(cfg)
        kernel = [0] + [
            mpmath.log(c * eta) / (1 - c * eta) / mpmath.ln2 for c in range(1, cfg.nn + 1)
        ]
        return weighted(*(term_sum(cfg, link, kernel) for link in ("ab", "ba")))


def ser_reference(cfg, a_zero=False):
    """(ser_ab, ser_ba) for BPSK: alpha sqrt(beta) / (2 sqrt(2 pi)) *
    int F(x) e^(-beta x/2) / sqrt(x) dx term by term; a_zero gives the
    lambda_s -> inf floor."""
    alpha, beta = cfg.modulation.alpha_mod, cfg.modulation.beta_mod
    with mpmath.workdps(REF_DPS):
        eta = reference_eta(cfg)
        a = 0 if a_zero else 1 / (eta * mpmath.mpf(cfg.lambda_s))
        pre = alpha * mpmath.sqrt(beta) / (2 * mpmath.sqrt(2 * mpmath.pi))

        def integral(c):
            # int e^(-(c/lam + beta/2) x) / ((1 + c eta x) sqrt(x)) dx
            s = a + beta / (2 * c * eta)
            return mpmath.pi / mpmath.sqrt(c * eta) * mpmath.exp(s) * mpmath.erfc(mpmath.sqrt(s))

        kernel = [pre * mpmath.sqrt(2 * mpmath.pi / beta)] + [
            pre * integral(c) for c in range(1, cfg.nn + 1)
        ]
        return tuple(term_sum(cfg, link, kernel) for link in ("ab", "ba"))


def rel_err(value, exact):
    return float(abs((value - exact) / exact))


def closed_forms_silently(*fns):
    """Evaluate each closed form, failing on any warning or flag."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [fn() for fn in fns]
    for r in results:
        assert not getattr(r, "cancellation_flag", False), r
    return [getattr(r, "value", r) for r in results]


@pytest.mark.parametrize("n_a,n_b", SIZES, ids=SIZE_IDS)
def test_rates_and_ceiling_match_60_digit_reference(n_a, n_b):
    worst = []
    for eta in ETAS:
        cfg = make_cfg(n_a, n_b, 1.0, eta)
        (ceiling,) = closed_forms_silently(lambda: rate_ceiling(cfg))
        worst.append((rel_err(ceiling, ceiling_reference(cfg)), "ceiling", eta, None))
        for lam in LAMBDAS:
            cfg = make_cfg(n_a, n_b, lam, eta)
            ab, ba = closed_forms_silently(lambda: avg_rate_ab(cfg), lambda: avg_rate_ba(cfg))
            ref_ab, ref_ba = rate_reference(cfg)
            worst.append((rel_err(ab, ref_ab), "rate_ab", eta, lam))
            worst.append((rel_err(ba, ref_ba), "rate_ba", eta, lam))
    assert max(worst)[0] <= REL_TOL, max(worst)


@pytest.mark.parametrize("n_a,n_b", SIZES, ids=SIZE_IDS)
def test_sers_and_floor_match_60_digit_reference(n_a, n_b):
    worst = []
    for eta in ETAS:
        cfg = make_cfg(n_a, n_b, 1.0, eta)
        (floor,) = closed_forms_silently(lambda: ser_floor(cfg))
        worst.append((rel_err(floor, weighted(*ser_reference(cfg, a_zero=True))),
                      "floor", eta, None))
        for lam in LAMBDAS:
            cfg = make_cfg(n_a, n_b, lam, eta)
            ab, ba = closed_forms_silently(lambda: avg_ser_ab(cfg), lambda: avg_ser_ba(cfg))
            ref_ab, ref_ba = ser_reference(cfg)
            worst.append((rel_err(ab, ref_ab), "ser_ab", eta, lam))
            worst.append((rel_err(ba, ref_ba), "ser_ba", eta, lam))
    assert max(worst)[0] <= REL_TOL, max(worst)


def test_singular_point_agrees_with_monte_carlo():
    # 1 - 10*eta is zero up to the rounding of eta = 0.1
    cfg = make_cfg(6, 6, 1e3, 0.1)
    (wsr,) = closed_forms_silently(lambda: avg_weighted_sum_rate(cfg))
    est = mc_weighted_sum_rate(cfg, "serial_max", 200_000, 2015)
    assert abs(est.value - wsr) <= 3.0 * est.std_error, (wsr, est)


@pytest.mark.parametrize("n", [4, 6])
def test_rate_ceiling_strictly_decreases_in_eta(n):
    # a regular grid plus every singular eta = 1/c and its neighbours
    singular = [1.0 / c for c in range(2, n * n + 1)]
    etas = sorted(
        {k / 100 for k in range(1, 100)}
        | set(singular)
        | {e * (1 + d) for e in singular for d in (-1e-9, 1e-9)}
    )
    ceilings = closed_forms_silently(
        *(lambda eta=eta: rate_ceiling(make_cfg(n, n, 10.0, eta)) for eta in etas)
    )
    assert all(a > b for a, b in zip(ceilings, ceilings[1:]))
