import functools
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
from fdlink.errors import DomainError, RequiresPerfectCancellation
from oracles import (derivation_terms, mu_coefficient, order_statistic_cdf, quadrature_avg_rate,
                     quadrature_avg_ser)


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
    for cdf in (cdf_gamma_ab, cdf_gamma_ba, cdf_gammas):
        for x in (-0.1, -math.inf, math.nan):
            with pytest.raises(DomainError):
                cdf(x, cfg)
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
    ab = avg_ser_ab(cfg)
    assert ab.value == pytest.approx(
        quadrature_avg_ser(lambda x: cdf_gamma_ab(x, cfg), BPSK), rel=1e-8
    )
    ba = avg_ser_ba(cfg)
    assert ba.value == pytest.approx(
        quadrature_avg_ser(lambda x: cdf_gamma_ba(x, cfg), BPSK), rel=1e-8
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
    # eta = 0.5 made the c = 2 denominator 1 - c*eta of earlier versions'
    # alternating rate sums vanish exactly; the quadrature has no such point
    cfg = make_cfg(n_a=2, n_b=2, lambda_s=10.0, eta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = avg_rate_ab(cfg).value
    quad_val = quadrature_avg_rate(lambda x: cdf_gamma_ab(x, cfg))
    assert val == pytest.approx(quad_val, rel=1e-8)


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
    # 4x4 at eta = 0.1 = 1/10, where earlier versions' sums were singular
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


# the first SER estimate, on a pool of two workers, printed as bits
SER_ESTIMATE = """
montecarlo._workers = lambda: 2
est = montecarlo.mc_weighted_sum_ser(fdlink.SystemConfig(3, 3, 100.0, 0.05, 0.7), "min_wser", 40_000, 3)
print(est.value.hex(), est.std_error.hex())
"""
IMPORTS_AS_NEEDED = """
import sys
from dataclasses import replace
import fdlink, fdlink.cli
from fdlink import analytic, montecarlo
loaded = lambda: [m for m in ("scipy", "scipy.special", "scipy.integrate", "numpy.random")
                  if m in sys.modules]
assert not loaded(), loaded()
cfg = fdlink.SystemConfig(3, 3, 100.0, 0.05, 0.7)
for closed_form in (analytic.avg_weighted_sum_rate, analytic.avg_weighted_sum_ser,
                    analytic.rate_ceiling, analytic.ser_floor, lambda c: analytic.cdf_gammas(1.0, c)):
    closed_form(cfg)
analytic.asymptotic_ser_perfect_cancellation(replace(cfg, eta=0.0), 1e4)
montecarlo.mc_weighted_sum_rate(cfg, "max_wsr", 20_000, 1)
montecarlo.mc_p_not(cfg, 20_000, 1)
assert fdlink.cli.main(["--preset", "table1", "--out", sys.argv[1]]) == 0
assert "scipy.special" not in sys.modules, loaded()
""" + SER_ESTIMATE + """
assert "scipy.special" in sys.modules
import scipy.special
assert analytic.erfcx is scipy.special.erfcx and callable(analytic.quad)
"""
IMPORTS_FIRST = "import scipy.special\nimport fdlink\nfrom fdlink import montecarlo\n" + SER_ESTIMATE


def test_heavy_modules_load_where_first_needed(tmp_path):
    # import fdlink loads no scipy and no numpy.random, and closed forms,
    # rate and P_not estimates and the table1 preset load no scipy.special;
    # the first SER estimate loads it from the pool's worker threads, and
    # gets the bits of a process that imported it first
    src = str(pathlib.Path(fdlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for code in (IMPORTS_AS_NEEDED, IMPORTS_FIRST):
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines()[-1])
    assert outputs[0] == outputs[1]
    rate = quadrature_avg_rate(lambda x: -math.expm1(-x))
    assert rate == pytest.approx(exp_e1_scaled(1.0) / math.log(2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# one kernel vector for both links, in double precision


def test_exp_e1_scaled_array_is_within_8_ulp():
    # e^x E1(x) from the series and the continued fraction, against mpmath's
    # E1 at 40 digits, over the whole positive float range and through the
    # switch at x = 1
    x = np.concatenate([np.geomspace(5e-324, 1e-3, 60), np.linspace(1e-3, 8.0, 1500),
                        np.geomspace(8.0, 1.7e308, 200)])
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.exp(v) * mpmath.e1(v)) for v in map(mpmath.mpf, x)])
    got = fdlink.special.exp_e1_scaled_array(x)
    assert np.max(np.abs(got - exact) / np.spacing(exact)) <= 8
    assert fdlink.special.exp_e1_scaled_array(np.inf) == 0.0
    assert got.shape == x.shape


def test_closed_forms_make_no_mpmath_call(monkeypatch):
    # only the eta = 0 asymptotes use mpmath
    monkeypatch.setattr(analytic, "mpmath", None)
    for eta in (0.0, 1e-300, 0.05, 0.25):
        cfg = make_cfg(n_a=4, n_b=5, lambda_s=1e3, eta=eta)
        for closed_form in (avg_weighted_sum_rate, avg_weighted_sum_ser,
                            lambda c: cdf_gammas(30.0, c)):
            closed_form(cfg)
        if eta:
            rate_ceiling(cfg)
            ser_floor(cfg)


def kernel_pair(kernel, cfg):
    """(first, second) pick's value from kernel Q(n) evaluated alone at
    n = nn and at n = k."""
    nn, k = cfg.nn, (cfg.n_a - 1) * (cfg.n_b - 1)
    q_nn, q_k = (float(kernel(cfg, (n,))[0]) for n in (nn, k))
    return q_nn, (nn * q_k - k * q_nn) / (nn - k)


def weighted_hex(cfg, pair):
    ab, ba = pair if cfg.w >= 0.5 else pair[::-1]
    return (cfg.w * ab + (1.0 - cfg.w) * ba).hex()


KERNEL_SIZES = [(n_a, n_b) for n_a in range(2, 7) for n_b in range(2, 7)] + [(4, 9)]


@pytest.mark.parametrize("n_a,n_b", KERNEL_SIZES, ids=[f"{a}x{b}" for a, b in KERNEL_SIZES])
def test_shared_kernel_vector_matches_per_link_kernels_bitwise(n_a, n_b):
    # every closed form evaluates the kernel vector (Q(nn), Q(k)) once; the
    # first pick is Q(nn), the second (nn Q(k) - k Q(nn)) / (nn - k), bit
    # for bit what each Q evaluated alone gives.  eta = 0.25 = 1/4 exactly,
    # where earlier versions' alternating sums took a limit
    for eta in (0.02, 0.05, 0.1, 0.11, 0.2, 0.25):
        floor = functools.partial(analytic._q_ser, floor=True)
        for w in (0.3, 0.7):
            cfg_w = make_cfg(n_a=n_a, n_b=n_b, eta=eta, w=w)
            assert rate_ceiling(cfg_w).hex() == weighted_hex(
                cfg_w, kernel_pair(analytic._q_ceiling, cfg_w))
            assert ser_floor(cfg_w).hex() == weighted_hex(cfg_w, kernel_pair(floor, cfg_w))
        for lam in (10.0, 1e3, 1e8):
            cfg = make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta)
            rates = kernel_pair(analytic._q_rate, cfg)
            sers = kernel_pair(analytic._q_ser, cfg)
            assert [avg_rate_ab(cfg).value.hex(), avg_rate_ba(cfg).value.hex()] == [r.hex() for r in rates]
            assert [avg_ser_ab(cfg).value.hex(), avg_ser_ba(cfg).value.hex()] == [r.hex() for r in sers]
            for w in (0.3, 0.7):
                cfg_w = make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta, w=w)
                assert avg_weighted_sum_rate(cfg_w).value.hex() == weighted_hex(cfg_w, rates)
                assert avg_weighted_sum_ser(cfg_w).value.hex() == weighted_hex(cfg_w, sers)


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
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            asymptotic_ser_generic(2, 1.0, lam, BPSK)
        with pytest.raises(DomainError):
            asymptotic_ser_perfect_cancellation(make_cfg(eta=0.0), lam)


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
    # at eta = 0 the derivation's CDF is F(x) = sum_c A_c e^(-c x/lam) / D =
    # sum_k (-x/lam)^k M_k / (k! D)
    # with M_k = sum_c A_c c^k, so F opens as kappa (x/lam)^d where M_k = 0 for
    # k < d and kappa = (-1)^d M_d / (D d!); its density opens as d kappa
    # x^(d-1)/lam^d, which is the asymptote's zeta
    for n_a, n_b in MOMENT_SIZES:
        nn, m = n_a * n_b, (n_a - 1) * (n_b - 1)
        kappas = {"ab": (nn, 1),
                  "ba": (m, Fraction(math.comb(nn, m), math.comb(nn - 1, n_a + n_b - 2)))}
        for link, (d, kappa) in kappas.items():
            denom, terms = derivation_terms(n_a, n_b, link)
            moments = [sum(a * c**k for a, c in terms) for k in range(d + 1)]
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
