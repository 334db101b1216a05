import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import counting_mpmath
from fdlink import (
    BPSK,
    SystemConfig,
    avg_rate_ab,
    avg_rate_ba,
    avg_ser_ab,
    avg_ser_ba,
    avg_weighted_sum_rate,
    avg_weighted_sum_ser,
    asymptotic_ser_generic,
    asymptotic_ser_perfect_cancellation,
    cdf_gamma_ab,
    cdf_gamma_ba,
    cdf_gammas,
    exp_e1_scaled,
    mixture_weights,
    rate_ceiling,
    ser_floor,
)
import fdlink
from fdlink import analytic
from fdlink.analytic import AnalyticValue
from fdlink.errors import DomainError, RequiresPerfectCancellation
from oracles import mu_coefficient, order_statistic_cdf, quadrature_avg_rate, quadrature_avg_ser


def make_cfg(**kw):
    base = dict(n_a=3, n_b=3, lambda_s=10.0, eta=0.1, w=0.7)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# combinatorial layer


def test_mixture_weights_two_by_two_exact_thirds():
    p = mixture_weights(2, 2)
    assert p.shape == (3,)
    assert np.all(p == 1.0 / 3.0)


@pytest.mark.parametrize(
    "n_a,n_b", [(2, 2), (2, 3), (3, 3), (4, 5), (6, 6), (2, 18), (4, 9)]
)
def test_mixture_weights_sum_to_one(n_a, n_b):
    p = mixture_weights(n_a, n_b)
    assert p.size == n_a + n_b - 1
    assert np.all(p > 0)
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)


def test_mixture_weights_against_rank_census():
    # the analytic rank probabilities must match a direct census of where
    # the second selected link sits among the sorted matrix entries
    n_a = n_b = 3
    nn = n_a * n_b
    rng = np.random.default_rng(5150)
    trials = 200_000
    g = rng.exponential(1.0, (trials, n_a, n_b))
    flat = g.reshape(trials, -1)
    idx1 = np.argmax(flat, axis=1)
    i1, j1 = np.divmod(idx1, n_b)
    rows = np.arange(n_a)[None, :, None]
    cols = np.arange(n_b)[None, None, :]
    masked = np.where((rows == i1[:, None, None]) | (cols == j1[:, None, None]), -np.inf, g)
    second = masked.reshape(trials, -1).max(axis=1)
    # rank k means the second link is the (nn-k)-th smallest, i.e. exactly
    # k-1 entries of the matrix exceed it besides the maximum itself
    exceed = (flat > second[:, None]).sum(axis=1)
    p = mixture_weights(n_a, n_b)
    for k in range(1, n_a + n_b):
        freq = np.mean(exceed == k)
        sigma = math.sqrt(p[k - 1] * (1 - p[k - 1]) / trials)
        assert abs(freq - p[k - 1]) < 4 * sigma


def test_mu_coefficient_marginal():
    # summing the alternating m-sum at x = 0 recovers nothing; instead check
    # the l, m = 0 term against the rank probability scaled by C(nn, l)
    p = mixture_weights(3, 3)
    for k in range(1, 6):
        assert mu_coefficient(k, 9, 0, 3, 3) == pytest.approx(p[k - 1], rel=1e-14)


def test_no_coefficient_passes_the_bound_behind_a_flagged_zero():
    # a sum flagged at _MAX_DPS cancels all but 10^-(_MAX_DPS - 17) of its
    # largest term, so it lies below 10^-940, and is returned as +0.0, only
    # while no |A_c|/D passes 10^43; the largest is 12x12's second link's
    cap = analytic.MAX_NN_CLOSED_FORM
    sizes = [(n_a, n_b) for n_a in range(2, cap // 2 + 1) for n_b in range(2, cap // n_a + 1)]
    ratios = {(n_a, n_b, link): Fraction(max(abs(a) for a in table), denom)
              for n_a, n_b in sizes for link in ("ab", "ba")
              for denom, table in [analytic._coefficients.__wrapped__(n_a, n_b, link)]}
    assert len(ratios) == 918
    largest = max(ratios, key=ratios.get)
    assert largest == (12, 12, "ba")
    assert 7.78e42 < ratios[largest] < 10**43


def test_order_statistic_cdf_max_and_min():
    lam = 3.0
    for x in (0.5, 2.0, 10.0):
        f = -math.expm1(-x / lam)
        assert order_statistic_cdf(4, 4, x, lam) == pytest.approx(f**4, rel=1e-13)
        assert order_statistic_cdf(1, 4, x, lam) == pytest.approx(
            1 - (1 - f) ** 4, rel=1e-13
        )


def test_order_statistic_cdf_sampling_oracle():
    lam, r, n = 2.0, 2, 4
    rng = np.random.default_rng(77)
    draws = np.sort(rng.exponential(lam, (400_000, n)), axis=1)
    r_smallest = draws[:, r - 1]
    for x in (0.5, 1.5, 4.0):
        emp = np.mean(r_smallest <= x)
        model = order_statistic_cdf(r, n, x, lam)
        assert abs(emp - model) < 4 * math.sqrt(model * (1 - model) / draws.shape[0])


def test_order_statistic_cdf_domain():
    with pytest.raises(DomainError):
        order_statistic_cdf(0, 4, 1.0, 1.0)
    with pytest.raises(DomainError):
        order_statistic_cdf(5, 4, 1.0, 1.0)
    with pytest.raises(DomainError):
        order_statistic_cdf(1, 4, -1.0, 1.0)


# ---------------------------------------------------------------------------
# SINR distribution functions


@pytest.mark.parametrize("eta", [0.0, 0.05, 0.1])
def test_cdf_endpoints_and_monotonicity(eta):
    cfg = make_cfg(eta=eta)
    for cdf in (cdf_gamma_ab, cdf_gamma_ba):
        assert cdf(0.0, cfg) == pytest.approx(0.0, abs=1e-12)
        grid = np.geomspace(1e-3, 1e4, 120)
        vals = np.array([cdf(x, cfg) for x in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0) & (vals <= 1))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


def test_cdf_gamma_ab_against_conditioning_integral():
    # independent oracle: condition on the residual interference g and
    # integrate the max-of-nn CDF over its exponential density
    cfg = make_cfg(n_a=2, n_b=2, lambda_s=10.0, eta=0.1)
    lam_i = cfg.eta * cfg.lambda_s
    x = 5.0

    def integrand(g):
        return (-math.expm1(-x * (g + 1) / cfg.lambda_s)) ** cfg.nn * math.exp(
            -g / lam_i
        ) / lam_i

    expected, _ = quad(integrand, 0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert cdf_gamma_ab(x, cfg) == pytest.approx(expected, abs=1e-10)


def test_cdf_gamma_ba_against_conditioning_integral():
    cfg = make_cfg(n_a=2, n_b=2, lambda_s=10.0, eta=0.1)
    lam_i = cfg.eta * cfg.lambda_s
    x = 3.0
    p = mixture_weights(cfg.n_a, cfg.n_b)

    def integrand(g):
        cond = math.fsum(
            p[k - 1]
            * order_statistic_cdf(cfg.nn - k, cfg.nn, x * (g + 1), cfg.lambda_s)
            for k in range(1, cfg.n_a + cfg.n_b)
        )
        return cond * math.exp(-g / lam_i) / lam_i

    expected, _ = quad(integrand, 0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert cdf_gamma_ba(x, cfg) == pytest.approx(expected, abs=1e-10)


def test_cdf_gamma_ba_perfect_cancellation_is_rank_mixture():
    # the table against the order-statistic mixture it is built from
    for n in (3, 8, 12):
        cfg = make_cfg(n_a=n, n_b=n, eta=0.0)
        p = mixture_weights(cfg.n_a, cfg.n_b)
        for x in (0.1, 1.0, 5.0, 30.0, 100.0):
            mix = math.fsum(
                p[k - 1] * order_statistic_cdf(cfg.nn - k, cfg.nn, x, cfg.lambda_s)
                for k in range(1, cfg.n_a + cfg.n_b)
            )
            assert cdf_gamma_ba(x, cfg) == pytest.approx(mix, rel=1e-12, abs=0.0)


def test_cdf_domain_and_size_guards():
    cfg = make_cfg()
    for cdf in (cdf_gamma_ab, cdf_gamma_ba):
        with pytest.raises(DomainError):
            cdf(-0.1, cfg)
    # 13 x 12 = 156 > MAX_NN_CLOSED_FORM = 144: every closed form refuses
    big = make_cfg(n_a=13, n_b=12)
    for closed_form in (lambda c: cdf_gamma_ab(1.0, c), lambda c: cdf_gamma_ba(1.0, c),
                        avg_weighted_sum_rate, avg_weighted_sum_ser, rate_ceiling, ser_floor):
        with pytest.raises(DomainError):
            closed_form(big)
    with pytest.raises(DomainError):
        asymptotic_ser_perfect_cancellation(make_cfg(n_a=13, n_b=12, eta=0.0), 1e4)


# ---------------------------------------------------------------------------
# quadrature evaluators against textbook cases


def test_quadrature_rate_single_rayleigh():
    lam = 1.0
    val = quadrature_avg_rate(lambda x: -math.expm1(-x / lam))
    assert val == pytest.approx(exp_e1_scaled(1.0 / lam) / math.log(2.0), rel=1e-9)


def test_quadrature_rate_step_cdf():
    for c in (0.5, 3.0, 15.0):
        val = quadrature_avg_rate(lambda x, c=c: 1.0 if x >= c else 0.0)
        assert val == pytest.approx(math.log2(1.0 + c), rel=1e-8)


def test_quadrature_ser_degenerate_at_zero():
    assert quadrature_avg_ser(lambda x: 1.0, BPSK) == pytest.approx(0.5, rel=1e-9)


def test_quadrature_ser_single_rayleigh_bpsk():
    for lam in (0.5, 1.0, 10.0):
        val = quadrature_avg_ser(lambda x, lam=lam: -math.expm1(-x / lam), BPSK)
        expected = 0.5 * (1.0 - math.sqrt(lam / (1.0 + lam)))
        assert val == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# closed-form averages against the quadrature oracles


GRID = [
    (2, 1.0, 0.05),
    (2, 10.0, 0.1),
    (3, 1.0, 0.1),
    (3, 100.0, 0.02),
    (3, 1000.0, 0.05),
]


@pytest.mark.parametrize("n,lam,eta", GRID)
def test_avg_rate_closed_forms_match_quadrature(n, lam, eta):
    cfg = make_cfg(n_a=n, n_b=n, lambda_s=lam, eta=eta)
    ab = avg_rate_ab(cfg)
    assert not ab.cancellation_flag
    assert ab.value == pytest.approx(
        quadrature_avg_rate(lambda x: cdf_gamma_ab(x, cfg)), rel=1e-8
    )
    ba = avg_rate_ba(cfg)
    assert ba.value == pytest.approx(
        quadrature_avg_rate(lambda x: cdf_gamma_ba(x, cfg)), rel=1e-8
    )
    assert ab.value > ba.value


@pytest.mark.parametrize("n,lam,eta", GRID)
def test_avg_ser_closed_forms_match_quadrature(n, lam, eta):
    cfg = make_cfg(n_a=n, n_b=n, lambda_s=lam, eta=eta)
    # the alternating sums lose a few digits at the best-conditioned spots
    # and ~8 at the worst in this grid, so 1e-7 relative is the honest bar
    ab = avg_ser_ab(cfg)
    assert ab.value == pytest.approx(
        quadrature_avg_ser(lambda x: cdf_gamma_ab(x, cfg), BPSK), rel=1e-7
    )
    ba = avg_ser_ba(cfg)
    assert ba.value == pytest.approx(
        quadrature_avg_ser(lambda x: cdf_gamma_ba(x, cfg), BPSK), rel=1e-7
    )
    assert ab.value < ba.value


def test_perfect_cancellation_continuity():
    cfg0 = make_cfg(eta=0.0)
    cfg_eps = make_cfg(eta=1e-8)
    assert avg_rate_ab(cfg0).value == pytest.approx(avg_rate_ab(cfg_eps).value, rel=1e-4)
    assert avg_ser_ba(cfg0).value == pytest.approx(avg_ser_ba(cfg_eps).value, rel=1e-4)


def test_weight_symmetry():
    a = avg_weighted_sum_rate(make_cfg(w=0.7)).value
    b = avg_weighted_sum_rate(make_cfg(w=0.3)).value
    assert a == pytest.approx(b, rel=1e-14)
    a = avg_weighted_sum_ser(make_cfg(w=0.8)).value
    b = avg_weighted_sum_ser(make_cfg(w=0.2)).value
    assert a == pytest.approx(b, rel=1e-14)


def test_weighted_sum_combines_components():
    cfg = make_cfg(w=0.7)
    r = avg_weighted_sum_rate(cfg)
    assert r.value == pytest.approx(
        0.7 * avg_rate_ab(cfg).value + 0.3 * avg_rate_ba(cfg).value, rel=1e-14
    )
    s = avg_weighted_sum_ser(cfg)
    assert s.value == pytest.approx(
        0.7 * avg_ser_ab(cfg).value + 0.3 * avg_ser_ba(cfg).value, rel=1e-14
    )


def test_singular_denominator_is_perturbed_not_fatal():
    # eta = 0.5 makes the k = 2 rate denominator 1 - k*eta vanish exactly
    cfg = make_cfg(n_a=2, n_b=2, lambda_s=10.0, eta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = avg_rate_ab(cfg).value
    quad_val = quadrature_avg_rate(lambda x: cdf_gamma_ab(x, cfg))
    assert val == pytest.approx(quad_val, rel=1e-4)


# ---------------------------------------------------------------------------
# high-SNR limits


def test_rate_ceiling_is_approached():
    cfg = make_cfg()
    ceiling = rate_ceiling(cfg)
    high = avg_weighted_sum_rate(replace(cfg, lambda_s=1e8)).value
    assert abs(high - ceiling) / ceiling < 0.005
    # and the ceiling is an upper bound along the way up
    for lam in (10.0, 100.0, 1e4):
        assert avg_weighted_sum_rate(replace(cfg, lambda_s=lam)).value < ceiling


def test_rate_ceiling_orderings():
    base = rate_ceiling(make_cfg(eta=0.1))
    assert rate_ceiling(make_cfg(eta=0.02)) > base  # less interference, higher ceiling
    # 4x4 at eta = 0.1 hits the k = 10 singular denominator on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bigger = rate_ceiling(make_cfg(n_a=4, n_b=4, eta=0.1))
    assert bigger > base  # more antennas


def test_ser_floor_is_approached():
    cfg = make_cfg()
    floor = ser_floor(cfg)
    high = avg_weighted_sum_ser(replace(cfg, lambda_s=1e8)).value
    assert abs(high - floor) / floor < 0.005
    for lam in (10.0, 100.0, 1e4):
        assert avg_weighted_sum_ser(replace(cfg, lambda_s=lam)).value > floor


def test_ser_floor_orderings():
    base = ser_floor(make_cfg(eta=0.1))
    assert ser_floor(make_cfg(eta=0.02)) < base
    assert ser_floor(make_cfg(n_a=4, n_b=4, eta=0.1)) < base


def test_limits_require_residual_interference():
    with pytest.raises(DomainError):
        rate_ceiling(make_cfg(eta=0.0))
    with pytest.raises(DomainError):
        ser_floor(make_cfg(eta=0.0))


def test_precision_escalates_until_the_sum_keeps_its_digits(monkeypatch):
    # the 4x4 first-link SER at eta = 0 cancels ~86 digits; at 100 digits
    # its noise understates that, so a single step from 50 is not enough
    cfg = make_cfg(n_a=4, n_b=4, lambda_s=7.6e5, eta=0.0)
    with mpmath.workdps(400):
        lam, beta = mpmath.mpf(cfg.lambda_s), mpmath.mpf(BPSK.beta_mod)
        # F = (1 - e^(-x/lam))^16 expanded binomially, integrated term by term
        terms = [(-1) ** k * math.comb(16, k) * mpmath.sqrt(mpmath.pi / (k / lam + beta / 2))
                 for k in range(17)]
        exact = mpmath.fsum(terms) * mpmath.sqrt(beta) / (2 * mpmath.sqrt(2 * mpmath.pi))
    counts = counting_mpmath(monkeypatch, ("workdps",))
    ser = avg_ser_ab(cfg)
    assert not ser.cancellation_flag
    assert ser.value == pytest.approx(float(exact), rel=1e-14)
    assert counts["workdps"] >= 3


def test_scipy_integrate_stays_off_the_import_path():
    code = (
        "import sys\n"
        "import fdlink, fdlink.cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "assert callable(fdlink.analytic.quad)\n"
    )
    src = str(pathlib.Path(fdlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rate = quadrature_avg_rate(lambda x: -math.expm1(-x))
    assert rate == pytest.approx(exp_e1_scaled(1.0) / math.log(2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# one kernel vector for both links, against one kernel call per c per link


def per_link_sum(cfg, link, kernel, constant=0):
    """constant + sum_{c>=1} A_c K(c) / D of one link, calling kernel(c) for
    that link alone, term by term as the closed forms sum."""
    denom, table = analytic._coefficients(cfg.n_a, cfg.n_b, link)
    terms = [mpmath.mpf(constant)]
    terms += [a * kernel(c) / denom for c, a in enumerate(table) if c and a]
    value = mpmath.fsum(terms)
    max_term = max(abs(t) for t in terms)
    spare = analytic._DPS - analytic._DOUBLE_DIGITS
    return AnalyticValue(float(value), float(max_term), max_term > abs(value) * 10**spare)


def per_link_rate(cfg, link):
    with mpmath.workdps(analytic._DPS):
        eta, lam = mpmath.mpf(cfg.eta), mpmath.mpf(cfg.lambda_s)
        s = lambda x: mpmath.exp(x) * mpmath.e1(x)  # noqa: E731
        s_u = s(1 / (eta * lam))

        def kernel(c):
            x0, d = c / lam, 1 - c * eta
            return ((s_u - s(x0)) / d if d else x0 * s(x0) - 1) / mpmath.ln2

        return per_link_sum(cfg, link, kernel)


def per_link_ceiling(cfg, link):
    with mpmath.workdps(analytic._DPS):
        eta = mpmath.mpf(cfg.eta)

        def kernel(c):
            d = 1 - c * eta
            return (mpmath.log(c * eta) / d if d else -1) / mpmath.ln2

        return per_link_sum(cfg, link, kernel)


def per_link_ser(cfg, link, floor=False):
    mod = cfg.modulation
    with mpmath.workdps(analytic._DPS):
        alpha, beta = mpmath.mpf(mod.alpha_mod), mpmath.mpf(mod.beta_mod)
        eta = mpmath.mpf(cfg.eta)
        a = 0 if floor else 1 / (eta * mpmath.mpf(cfg.lambda_s))
        pre = alpha * mpmath.sqrt(beta * mpmath.pi / 2) / 2

        def kernel(c):
            z = mpmath.sqrt(a + beta / (2 * c * eta))
            erfcx_z = mpmath.exp(mpmath.fmul(z, z, exact=True)) * mpmath.erfc(z)
            return pre * erfcx_z / mpmath.sqrt(c * eta)

        return per_link_sum(cfg, link, kernel, constant=alpha / 2)


def bits(result):
    return result.value.hex(), result.max_term_magnitude.hex(), result.cancellation_flag


def vouched_result(limit, cfg, monkeypatch):
    """The AnalyticValue a ceiling or floor vouches for, and its return value."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(analytic, "_vouched", lambda result, what: seen.append(result) or result.value)
        value = limit(cfg)
    assert value == seen[0].value
    return seen[0]


KERNEL_SIZES = [(n_a, n_b) for n_a in range(2, 7) for n_b in range(2, 7)] + [(4, 9)]


@pytest.mark.parametrize("n_a,n_b", KERNEL_SIZES, ids=[f"{a}x{b}" for a, b in KERNEL_SIZES])
def test_shared_kernel_vector_matches_per_link_kernels_bitwise(n_a, n_b, monkeypatch):
    # 0.25 = 1/4 exactly, so 1 - 4*eta vanishes and the rate takes its limit
    links = ("ab", "ba")
    for eta in (0.02, 0.05, 0.1, 0.11, 0.2, 0.25):
        cfg = make_cfg(n_a=n_a, n_b=n_b, eta=eta)
        limits = ((rate_ceiling, [per_link_ceiling(cfg, link) for link in links]),
                  (ser_floor, [per_link_ser(cfg, link, floor=True) for link in links]))
        for w in (0.3, 0.7):
            cfg_w = make_cfg(n_a=n_a, n_b=n_b, eta=eta, w=w)
            for limit, per_link in limits:
                expected = analytic._combine(cfg_w, *per_link)
                assert bits(vouched_result(limit, cfg_w, monkeypatch)) == bits(expected)
        for lam in (10.0, 1e3, 1e8):
            cfg = make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta)
            rates = [per_link_rate(cfg, link) for link in links]
            sers = [per_link_ser(cfg, link) for link in links]
            assert [bits(avg_rate_ab(cfg)), bits(avg_rate_ba(cfg))] == [bits(r) for r in rates]
            assert [bits(avg_ser_ab(cfg)), bits(avg_ser_ba(cfg))] == [bits(r) for r in sers]
            for w in (0.3, 0.7):
                cfg_w = make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta, w=w)
                assert bits(avg_weighted_sum_rate(cfg_w)) == bits(analytic._combine(cfg_w, *rates))
                assert bits(avg_weighted_sum_ser(cfg_w)) == bits(analytic._combine(cfg_w, *sers))


@pytest.mark.parametrize("n_a,n_b", [(3, 3), (6, 6), (4, 9), (8, 8)])
def test_both_cdfs_from_one_kernel_vector_match_per_link_calls_bitwise(n_a, n_b):
    for eta in (0.0, 0.02, 0.05, 0.1):
        for lam in (1.0, 10.0, 1e3):
            cfg = make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta)
            for t in (0.0, 1e-3, 0.1, 1.0, 5.0):
                x = t * lam
                pair = cdf_gammas(x, cfg)
                assert [v.hex() for v in pair] == [cdf_gamma_ab(x, cfg).hex(),
                                                   cdf_gamma_ba(x, cfg).hex()], (eta, lam, t)


@pytest.mark.parametrize("closed_form,kernel_fn,most", [
    (avg_weighted_sum_ser, "erfc", 36),
    (ser_floor, "erfc", 36),
    (avg_weighted_sum_rate, "e1", 37),  # S(u) and one S(c/lambda_s) per c
    (rate_ceiling, "log", 36),
])
def test_each_kernel_is_evaluated_once_for_both_links(closed_form, kernel_fn, most, monkeypatch):
    counts = counting_mpmath(monkeypatch, (kernel_fn, "workdps"))
    closed_form(make_cfg(n_a=6, n_b=6, lambda_s=1e3, eta=0.1))
    assert 0 < counts[kernel_fn] <= most
    assert counts["workdps"] == 1


# ---------------------------------------------------------------------------
# perfect-cancellation asymptotics


def test_asymptotic_matches_exact_ser_at_high_snr():
    cfg = make_cfg(n_a=2, n_b=2, eta=0.0)
    lam = 1e3
    ser_ab, ser_ba, weighted = asymptotic_ser_perfect_cancellation(cfg, lam)
    exact_ab = avg_ser_ab(replace(cfg, lambda_s=lam)).value
    exact_ba = avg_ser_ba(replace(cfg, lambda_s=lam)).value
    assert ser_ab / exact_ab == pytest.approx(1.0, abs=0.1)
    assert ser_ba / exact_ba == pytest.approx(1.0, abs=0.1)
    assert weighted == pytest.approx(0.3 * ser_ba, rel=1e-14)


def test_asymptotic_diversity_orders():
    cfg = make_cfg(n_a=3, n_b=3, eta=0.0)
    a1 = asymptotic_ser_perfect_cancellation(cfg, 1e3)
    a2 = asymptotic_ser_perfect_cancellation(cfg, 1e4)
    assert math.log10(a1[0] / a2[0]) == pytest.approx(cfg.nn, abs=1e-9)
    assert math.log10(a1[1] / a2[1]) == pytest.approx((cfg.n_a - 1) * (cfg.n_b - 1), abs=1e-9)


def test_asymptotic_generic_consistency():
    # the first-link asymptote equals the generic formula for a density
    # opening as nn * x^(nn-1) / lam^nn
    cfg = make_cfg(n_a=2, n_b=2, eta=0.0)
    lam = 500.0
    ser_ab, _, _ = asymptotic_ser_perfect_cancellation(cfg, lam)
    generic = asymptotic_ser_generic(cfg.nn - 1, float(cfg.nn), lam, BPSK)
    assert ser_ab == pytest.approx(generic * (BPSK.beta_mod / 2.0) ** 0, rel=1e-12)


def test_asymptotic_guards():
    with pytest.raises(RequiresPerfectCancellation):
        asymptotic_ser_perfect_cancellation(make_cfg(eta=0.1), 100.0)
    with pytest.raises(DomainError):
        asymptotic_ser_generic(-1, 1.0, 10.0, BPSK)
    with pytest.raises(DomainError):
        asymptotic_ser_generic(2, 1.0, 0.0, BPSK)


def reference_asymptote(prefactor, lam, power):
    with mpmath.workdps(40):
        return float(mpmath.mpf(prefactor) / mpmath.mpf(lam) ** power)


@pytest.mark.parametrize("n,lam", [(6, 1e10), (6, 1e9), (3, 1e35), (3, 1e36), (2, 1e79)])
def test_asymptote_where_the_snr_power_overflows(n, lam):
    # lam**nn overflows a float (6x6 from ~4e8, 3x3 from 1e35), the SER does not
    cfg = make_cfg(n_a=n, n_b=n, eta=0.0)
    nn, m_div = n * n, (n - 1) ** 2
    u1, u2, _ = asymptotic_ser_perfect_cancellation(cfg, 1.0)
    ser_ab, ser_ba, weighted = asymptotic_ser_perfect_cancellation(cfg, lam)
    assert 0.0 < ser_ab < ser_ba
    assert ser_ab == pytest.approx(reference_asymptote(u1, lam, nn), rel=1e-13, abs=1e-322)
    assert ser_ba == pytest.approx(reference_asymptote(u2, lam, m_div), rel=1e-13, abs=1e-322)
    assert weighted == pytest.approx(0.3 * ser_ba, rel=1e-13, abs=1e-322)


def asymptote_reference(n_order, zeta, lam):
    """2^N alpha zeta Gamma(N + 3/2) / (sqrt(pi) (N + 1) (beta lam)^(N + 1))
    at 60 digits through mpmath.gamma, rounded once to a double."""
    with mpmath.workdps(60):
        n = mpmath.mpf(n_order)
        return float(2**n * mpmath.mpf(BPSK.alpha_mod) * zeta * mpmath.gamma(n + 1.5)
                     / (mpmath.sqrt(mpmath.pi) * (n + 1)
                        * (mpmath.mpf(BPSK.beta_mod) * lam) ** (n + 1)))


def perfect_cancellation_reference(cfg, lam):
    """(ser_ab, ser_ba, weighted) from asymptote_reference: the first pick's
    density opens as nn x^(nn-1)/lam^nn, the second's as zeta_ba x^(m-1)/lam^m."""
    nn, m = cfg.nn, (cfg.n_a - 1) * (cfg.n_b - 1)
    with mpmath.workdps(60):
        zeta_ba = mpmath.mpf(m * math.comb(nn, m)) / math.comb(nn - 1, cfg.n_a + cfg.n_b - 2)
        return (asymptote_reference(nn - 1, nn, lam), asymptote_reference(m - 1, zeta_ba, lam),
                asymptote_reference(m - 1, zeta_ba * min(cfg.w, 1.0 - cfg.w), lam))


def assert_rounded_once(values, expected):
    # a subnormal reference may differ by its rounding to fewer bits
    for value, exact in zip(values, expected, strict=True):
        if abs(exact) < sys.float_info.min:
            assert value == pytest.approx(exact, rel=0.0, abs=1e-322), (values, expected)
        else:
            assert value == exact, (values, expected)


ASYMPTOTE_SIZES = [(2, 2), (3, 3), (6, 6), (4, 9), (12, 12), (2, 72)]


@pytest.mark.parametrize("n_a,n_b", ASYMPTOTE_SIZES, ids=[f"{a}x{b}" for a, b in ASYMPTOTE_SIZES])
def test_asymptotes_are_the_60_digit_reference_rounded_once(n_a, n_b):
    # from inf (12x12 at -100 dB) through subnormals to 0.0 (12x12 at 790 dB)
    cfg = make_cfg(n_a=n_a, n_b=n_b, eta=0.0)
    ends = set()
    for lam in (1e-10, 1.0, 10**3.5, 1e8, 1e10, 1e35, 1e79):
        values = [*asymptotic_ser_perfect_cancellation(cfg, lam),
                  asymptotic_ser_generic(cfg.nn - 1, cfg.nn, lam, BPSK),
                  asymptotic_ser_generic(2, 2.0, lam, BPSK)]
        expected = [*perfect_cancellation_reference(cfg, lam),
                    asymptote_reference(cfg.nn - 1, cfg.nn, lam), asymptote_reference(2, 2.0, lam)]
        assert_rounded_once(values, expected)
        ends.update(v for v in values if v in (0.0, math.inf))
    if (n_a, n_b) == (12, 12):
        assert ends == {0.0, math.inf}


def test_asymptote_keeps_its_value_where_the_power_fits():
    cfg = make_cfg(n_a=6, n_b=6, eta=0.0)
    assert_rounded_once(asymptotic_ser_perfect_cancellation(cfg, 1e8),
                        perfect_cancellation_reference(cfg, 1e8))


def test_asymptotes_match_the_rank_mixture_zeta_at_every_supported_size():
    # the package takes zeta_ba = nn m / (nn - m) from the two-term law of one
    # maximum; the reference takes m C(nn, m) / C(nn - 1, n_a + n_b - 2) from
    # the rank mixture
    cap = analytic.MAX_NN_CLOSED_FORM
    sizes = [(n_a, n_b) for n_a in range(2, cap // 2 + 1) for n_b in range(2, cap // n_a + 1)]
    assert len(sizes) == 459
    for n_a, n_b in sizes:
        cfg = make_cfg(n_a=n_a, n_b=n_b, eta=0.0)
        assert_rounded_once(asymptotic_ser_perfect_cancellation(cfg, 10.0),
                            perfect_cancellation_reference(cfg, 10.0))


MOMENT_SIZES = [(a, b) for a in range(2, 7) for b in range(2, 7)] + [(4, 9), (12, 12), (2, 72)]


def test_asymptote_coefficients_are_the_tables_leading_moments():
    # at eta = 0, F(x) = sum_c A_c e^(-c x/lam) / D = sum_k (-x/lam)^k M_k / (k! D)
    # with M_k = sum_c A_c c^k, so F opens as kappa (x/lam)^d where M_k = 0 for
    # k < d and kappa = (-1)^d M_d / (D d!); its density opens as d kappa
    # x^(d-1)/lam^d, which is the asymptote's zeta
    for n_a, n_b in MOMENT_SIZES:
        nn, m = n_a * n_b, (n_a - 1) * (n_b - 1)
        kappas = {"ab": (nn, 1),
                  "ba": (m, Fraction(math.comb(nn, m), math.comb(nn - 1, n_a + n_b - 2)))}
        for link, (d, kappa) in kappas.items():
            denom, table = analytic._coefficients(n_a, n_b, link)
            moments = [sum(a * c**k for c, a in enumerate(table)) for k in range(d + 1)]
            lead = Fraction((-1) ** d * moments[d], denom * math.factorial(d))
            assert (moments[:d], lead) == ([0] * d, kappa), (n_a, n_b, link)


def test_asymptote_where_the_snr_power_underflows():
    # at -100 dB the 6x6 first-link asymptote exceeds every float
    cfg = make_cfg(n_a=6, n_b=6, eta=0.0)
    ser_ab, ser_ba, weighted = asymptotic_ser_perfect_cancellation(cfg, 1e-10)
    assert ser_ab == math.inf
    assert math.isfinite(ser_ba) and weighted == pytest.approx(0.3 * ser_ba, rel=1e-13)


@pytest.mark.parametrize("n_order,lam", [(35, 1e10), (8, 1e35), (3, 1e100)])
def test_asymptotic_generic_where_the_snr_power_overflows(n_order, lam):
    value = asymptotic_ser_generic(n_order, 2.0, lam, BPSK)
    # 2^N alpha zeta Gamma(N + 3/2) / (sqrt(pi) (N + 1) (beta lam)^(N + 1))
    with mpmath.workdps(40):
        n = mpmath.mpf(n_order)
        expected = (2**n * 2 * mpmath.gamma(n + 1.5)
                    / (mpmath.sqrt(mpmath.pi) * (n + 1) * (2 * mpmath.mpf(lam)) ** (n + 1)))
    assert value == pytest.approx(float(expected), rel=1e-13)
