"""Serial-Max closed forms against a reference of at least 60 digits over
the whole supported domain: sizes up to n_a*n_b = 144, eta from 0 (perfect
cancellation) through 1e-6 and on and next to the singular values 1/c,
and lambda_s from 1 to 1e8; CDFs from 1e-3 lambda_s to 20 lambda_s.

The reference does not use the package's coefficient table: it collects
the (k, l, m) terms of the source derivation, each with its exact
math.comb numerator, by c in Python ints, and sums them in mpmath.  It
runs at twice the digits its sums need (17 plus the digits they cancel),
and at 60 digits at least.  Where 1 - c*eta vanishes exactly for some c,
it evaluates at eta * (1 + 1e-30) instead, whose effect is far below the
tolerance.  At eta = 0 it uses the eta -> 0 limits of the kernels.
"""

import functools
import math
import sys
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
    avg_weighted_sum_ser,
    cdf_gamma_ab,
    cdf_gamma_ba,
    mc_weighted_sum_rate,
    rate_ceiling,
    ser_floor,
)
from fdlink import analytic
from fdlink.errors import DomainError

REF_DPS = 60
REL_TOL = 1e-10
W = 0.7
SIZES = [(n_a, n_b) for n_a in range(2, 7) for n_b in range(2, 7)] + [(4, 9)]
ETAS = (0.0, 1e-6, 1e-4, 1e-3, 0.02, 0.05, 0.1, 0.2, 0.5, 0.1001)
LAMBDAS = (1.0, 10.0, 1e3, 1e8)
# past 6x6 a reduced grid: perfect cancellation, a small and a regular
# eta, and the singular eta = 1/16
BIG_SIZES = [(7, 7), (8, 8), (10, 10), (12, 12)]
BIG_ETAS = (0.0, 1e-3, 0.05, 0.0625)
BIG_LAMBDAS = (10.0, 1e8)
CDF_SIZES = SIZES + BIG_SIZES + [(2, 72)]
CDF_ETAS = (0.0, 1e-4, 0.02, 0.1, 0.0625)
CDF_POINTS = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0)  # x / lambda_s


def size_ids(sizes):
    return [f"{n_a}x{n_b}" for n_a, n_b in sizes]


def grid(n_a, n_b):
    """(etas, lambdas) of the rate and SER tests at one size."""
    return (ETAS, LAMBDAS) if (n_a, n_b) in SIZES else (BIG_ETAS, BIG_LAMBDAS)


def make_cfg(n_a, n_b, lambda_s, eta):
    return SystemConfig(n_a=n_a, n_b=n_b, lambda_s=lambda_s, eta=eta, w=W)


@functools.lru_cache(maxsize=None)
def derivation_terms(n_a, n_b, link):
    """Shared denominator and (exact signed numerator, c) of the link's CDF
    sum_c coef * e^(-c x/lam) / (1 + c eta x), the derivation's terms
    collected by c."""
    nn = n_a * n_b
    if link == "ab":
        return 1, [((-1) ** k * math.comb(nn, k), k) for k in range(nn + 1)]
    coefs = [0] * (nn + 1)
    for k in range(1, n_a + n_b):
        rank = math.comb(nn - k - 1, n_a + n_b - k - 1)
        for l in range(nn - k, nn + 1):
            for m in range(l + 1):
                coefs[nn - l + m] += (-1) ** m * rank * math.comb(nn, l) * math.comb(l, m)
    return math.comb(nn - 1, n_a + n_b - 2), [(coef, c) for c, coef in enumerate(coefs)]


def reference_eta(cfg):
    eta = mpmath.mpf(cfg.eta)
    if any(1 - c * eta == 0 for c in range(1, cfg.nn + 1)):
        eta *= 1 + mpmath.mpf("1e-30")
    return eta


def term_sum(cfg, link, kernel):
    """(value, largest term) of the sum over the derivation's terms of
    coef * kernel[c] / denominator; kernel[0] is what the constant term of
    the CDF contributes."""
    denom, terms = derivation_terms(cfg.n_a, cfg.n_b, link)
    products = [coef * kernel[c] for coef, c in terms]
    return mpmath.fsum(products) / denom, max(abs(p) for p in products) / denom


def at_twice_the_digits(build_kernel, cfg):
    """Each link's term_sum over build_kernel(), which builds the kernel at
    the working precision.  The sums are re-evaluated until the precision
    is at least twice the 17 + cancelled digits of every one; a zero sum
    doubles it."""
    dps = REF_DPS
    while True:
        with mpmath.workdps(dps):
            kernel = build_kernel()
            sums = [term_sum(cfg, link, kernel) for link in ("ab", "ba")]
            need = max(17 + (mpmath.log10(m / abs(v)) if v else dps) for v, m in sums)
        if dps >= 2 * need:
            return tuple(v for v, _ in sums)
        dps = int(2 * need) + 1


def weighted(a, b):
    return max(W, 1 - W) * a + min(W, 1 - W) * b


def scaled_e1(x):
    return mpmath.exp(x) * mpmath.e1(x)


def rate_reference(cfg):
    """(rate_ab, rate_ba): (1/ln 2) int (1 - F(x)) / (1 + x) dx term by term."""

    def kernel():
        eta, lam = reference_eta(cfg), mpmath.mpf(cfg.lambda_s)
        # S(1/(eta lambda_s)) -> 0 as eta -> 0
        s_u = scaled_e1(1 / (eta * lam)) if eta else 0
        return [0] + [
            (s_u - scaled_e1(c / lam)) / (1 - c * eta) / mpmath.ln2 for c in range(1, cfg.nn + 1)
        ]

    return at_twice_the_digits(kernel, cfg)


def ceiling_reference(cfg):
    def kernel():
        eta = reference_eta(cfg)
        return [0] + [
            mpmath.log(c * eta) / (1 - c * eta) / mpmath.ln2 for c in range(1, cfg.nn + 1)
        ]

    return weighted(*at_twice_the_digits(kernel, cfg))


def ser_reference(cfg, a_zero=False):
    """(ser_ab, ser_ba) for BPSK: alpha sqrt(beta) / (2 sqrt(2 pi)) *
    int F(x) e^(-beta x/2) / sqrt(x) dx term by term; a_zero gives the
    lambda_s -> inf floor."""
    alpha, beta = cfg.modulation.alpha_mod, cfg.modulation.beta_mod

    def kernel():
        eta, lam = reference_eta(cfg), mpmath.mpf(cfg.lambda_s)
        pre = alpha * mpmath.sqrt(beta) / (2 * mpmath.sqrt(2 * mpmath.pi))

        def integral(c):
            # int e^(-(c/lam + beta/2) x) / ((1 + c eta x) sqrt(x)) dx
            if not eta:
                return mpmath.sqrt(mpmath.pi / (c / lam + beta / 2))
            # e^s erfc(sqrt(s)) with sqrt(s) squared exactly: e^s of a
            # rounded s would be off by a factor e^(s * 10^-dps)
            z = mpmath.sqrt((0 if a_zero else 1 / (eta * lam)) + beta / (2 * c * eta))
            erfcx_z = mpmath.exp(mpmath.fmul(z, z, exact=True)) * mpmath.erfc(z)
            return mpmath.pi / mpmath.sqrt(c * eta) * erfcx_z

        return [pre * mpmath.sqrt(2 * mpmath.pi / beta)] + [
            pre * integral(c) for c in range(1, cfg.nn + 1)
        ]

    return at_twice_the_digits(kernel, cfg)


def cdf_reference(cfg, x):
    """(F_ab(x), F_ba(x)) term by term; the c = 0 kernel value is 1."""

    def kernel():
        eta, lam, x_mp = mpmath.mpf(cfg.eta), mpmath.mpf(cfg.lambda_s), mpmath.mpf(x)
        return [mpmath.exp(-c * x_mp / lam) / (1 + c * eta * x_mp) for c in range(cfg.nn + 1)]

    return at_twice_the_digits(kernel, cfg)


def rel_err(value, exact):
    """|value - exact| / |exact|; below the normal float range, where a
    double keeps no relative accuracy, the error over 1e-300 / REL_TOL, so
    an absolute error within 1e-300 passes."""
    scale = abs(exact) if abs(exact) >= sys.float_info.min else mpmath.mpf(1e-300) / REL_TOL
    return float(abs(value - exact) / scale)


def closed_forms_silently(*fns):
    """Evaluate each closed form, failing on any warning or flag."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [fn() for fn in fns]
    for r in results:
        assert not getattr(r, "cancellation_flag", False), r
    return [getattr(r, "value", r) for r in results]


@pytest.mark.parametrize("n_a,n_b", SIZES + BIG_SIZES, ids=size_ids(SIZES + BIG_SIZES))
def test_rates_and_ceiling_match_60_digit_reference(n_a, n_b):
    worst = []
    etas, lambdas = grid(n_a, n_b)
    for eta in etas:
        cfg = make_cfg(n_a, n_b, 1.0, eta)
        if eta:
            (ceiling,) = closed_forms_silently(lambda: rate_ceiling(cfg))
            worst.append((rel_err(ceiling, ceiling_reference(cfg)), "ceiling", eta, None))
        for lam in lambdas:
            cfg = make_cfg(n_a, n_b, lam, eta)
            ab, ba = closed_forms_silently(lambda: avg_rate_ab(cfg), lambda: avg_rate_ba(cfg))
            ref_ab, ref_ba = rate_reference(cfg)
            worst.append((rel_err(ab, ref_ab), "rate_ab", eta, lam))
            worst.append((rel_err(ba, ref_ba), "rate_ba", eta, lam))
    assert max(worst)[0] <= REL_TOL, max(worst)


@pytest.mark.parametrize("n_a,n_b", SIZES + BIG_SIZES, ids=size_ids(SIZES + BIG_SIZES))
def test_sers_and_floor_match_60_digit_reference(n_a, n_b):
    worst = []
    etas, lambdas = grid(n_a, n_b)
    for eta in etas:
        cfg = make_cfg(n_a, n_b, 1.0, eta)
        if eta:
            (floor,) = closed_forms_silently(lambda: ser_floor(cfg))
            worst.append((rel_err(floor, weighted(*ser_reference(cfg, a_zero=True))),
                          "floor", eta, None))
        for lam in lambdas:
            cfg = make_cfg(n_a, n_b, lam, eta)
            ab, ba = closed_forms_silently(lambda: avg_ser_ab(cfg), lambda: avg_ser_ba(cfg))
            ref_ab, ref_ba = ser_reference(cfg)
            worst.append((rel_err(ab, ref_ab), "ser_ab", eta, lam))
            worst.append((rel_err(ba, ref_ba), "ser_ba", eta, lam))
    assert max(worst)[0] <= REL_TOL, max(worst)


@pytest.mark.parametrize("n_a,n_b", CDF_SIZES, ids=size_ids(CDF_SIZES))
def test_cdfs_match_reference_down_to_the_float_range(n_a, n_b):
    # within REL_TOL, or 1e-300 absolute below the float range (rel_err);
    # never a negative value or -0.0
    worst = []
    for eta in CDF_ETAS:
        cfg = make_cfg(n_a, n_b, 10.0, eta)
        for t in CDF_POINTS:
            x = t * cfg.lambda_s
            values = closed_forms_silently(lambda: cdf_gamma_ab(x, cfg),
                                           lambda: cdf_gamma_ba(x, cfg))
            for link, value, exact in zip(("ab", "ba"), values, cdf_reference(cfg, x)):
                assert math.copysign(1.0, value) == 1.0, (link, eta, t, value)
                worst.append((rel_err(value, exact), link, eta, t))
    assert max(worst)[0] <= REL_TOL, max(worst)


@pytest.mark.parametrize("n_a,n_b", CDF_SIZES, ids=size_ids(CDF_SIZES))
def test_tables_are_the_derivations_terms(n_a, n_b):
    # the package builds its tables from the two-term law of one maximum,
    # the derivation from the rank mixture's (k, l, m) terms: the same
    # integers over the same denominator
    for link in ("ab", "ba"):
        denom, terms = derivation_terms(n_a, n_b, link)
        assert analytic._coefficients(n_a, n_b, link) == (denom, tuple(coef for coef, _ in terms))


@pytest.mark.parametrize("n,t", [(2, 0.0), (6, 0.0), (12, 0.0), (12, 1e-7)])
def test_cdf_below_the_float_range_is_positive_zero(n, t):
    # each CDF is 0 (x = 0) or below the float range; a sum that still
    # cancels too much at the last escalation returns +0.0 as well
    for eta in (0.0, 0.05):
        cfg = make_cfg(n, n, 10.0, eta)
        for cdf in (cdf_gamma_ab, cdf_gamma_ba):
            value = cdf(t * cfg.lambda_s, cfg)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, (eta, cdf, value)


FLAGGED_SIZES = [(8, 8), (10, 10), (12, 12), (2, 72), (3, 48), (9, 16)]


@pytest.mark.parametrize("n_a,n_b", FLAGGED_SIZES, ids=size_ids(FLAGGED_SIZES))
def test_flagged_sers_are_positive_zero(n_a, n_b):
    # eta = 0 SERs at 100-300 dB lie far below the float range, and most of
    # their sums still cancel too much at the last escalation; the sign of
    # such a sum is noise, so a flagged sum returns +0.0 with its flag set
    for snr_db in (100, 200, 300):
        cfg = make_cfg(n_a, n_b, 10.0 ** (snr_db / 10), 0.0)
        for result in (avg_ser_ab(cfg), avg_ser_ba(cfg), avg_weighted_sum_ser(cfg)):
            assert math.copysign(1.0, result.value) == 1.0, (snr_db, result)
            assert result.value == 0.0, (snr_db, result)


# floors whose sums cancel more digits than the first 50 can spare: at 6x6
# the first-link floor's largest term is 3e42 x its value at eta = 1e-3 and
# 6e50 x at 1e-4
DEEP_FLOORS = [(6, 6, 2e-3), (6, 6, 1e-3), (6, 6, 1e-4), (5, 5, 1e-3), (4, 4, 1e-4),
               (3, 3, 1e-5)]


def test_floor_refuses_a_sum_it_cannot_vouch_for(monkeypatch):
    for n_a, n_b, eta in DEEP_FLOORS + [(6, 6, 0.01), (6, 6, 0.02), (6, 6, 0.05)]:
        cfg = make_cfg(n_a, n_b, 100.0, eta)
        (floor,) = closed_forms_silently(lambda: ser_floor(cfg))
        assert rel_err(floor, weighted(*ser_reference(cfg, a_zero=True))) <= REL_TOL
    # with no escalation left, the same sums are refused
    monkeypatch.setattr(analytic, "_MAX_DPS", analytic._DPS)
    for eta in (1e-3, 1e-4):
        with pytest.raises(DomainError, match="SER floor sum cancels more than 33 digits"):
            ser_floor(make_cfg(6, 6, 100.0, eta))


@pytest.mark.parametrize("eta", [1e-30, 1e-100, 1e-300])
def test_tiny_eta_ser_matches_reference_and_the_eta_zero_value(eta):
    # z^2 ~ 1/eta: the kernel sums erfcx's asymptotic series, mpmath's erfc
    # serves the reference; at 6x6, lambda_s = 1 the eta = 0 SER is
    # 0.005701363267606306, and a floor near 0 cancels every digit
    cfg = make_cfg(6, 6, 1.0, eta)
    ab, ba, wser = closed_forms_silently(lambda: avg_ser_ab(cfg), lambda: avg_ser_ba(cfg),
                                         lambda: avg_weighted_sum_ser(cfg))
    ref_ab, ref_ba = ser_reference(cfg)
    assert max(rel_err(ab, ref_ab), rel_err(ba, ref_ba)) <= REL_TOL
    assert rel_err(wser, 0.005701363267606306) <= REL_TOL
    with pytest.raises(DomainError, match="SER floor sum cancels"):
        ser_floor(cfg)


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
