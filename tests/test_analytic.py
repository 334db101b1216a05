import math
import warnings

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
    exp_e1_scaled,
    mixture_weights,
    mu_coefficient,
    order_statistic_cdf,
    quadrature_avg_rate,
    quadrature_avg_ser,
    rate_ceiling,
    ser_floor,
    validate_config,
    with_lambda_s,
)
from fdlink.errors import DomainError, RequiresPerfectCancellation


def make_cfg(**kw):
    base = dict(n_a=3, n_b=3, lambda_s=10.0, eta=0.1, w=0.7)
    base.update(kw)
    return validate_config(SystemConfig(**base))


# ---------------------------------------------------------------------------
# combinatorial layer


def test_mixture_weights_two_by_two_exact_thirds():
    p = mixture_weights(2, 2).p
    assert p.shape == (3,)
    assert np.all(p == 1.0 / 3.0)


@pytest.mark.parametrize(
    "n_a,n_b", [(2, 2), (2, 3), (3, 3), (4, 5), (6, 6), (2, 18), (4, 9)]
)
def test_mixture_weights_sum_to_one(n_a, n_b):
    p = mixture_weights(n_a, n_b).p
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
    p = mixture_weights(n_a, n_b).p
    for k in range(1, n_a + n_b):
        freq = np.mean(exceed == k)
        sigma = math.sqrt(p[k - 1] * (1 - p[k - 1]) / trials)
        assert abs(freq - p[k - 1]) < 4 * sigma


def test_mu_coefficient_marginal():
    # summing the alternating m-sum at x = 0 recovers nothing; instead check
    # the l, m = 0 term against the rank probability scaled by C(nn, l)
    p = mixture_weights(3, 3).p
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
    p = mixture_weights(cfg.n_a, cfg.n_b).p

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
    cfg = make_cfg(eta=0.0)
    p = mixture_weights(cfg.n_a, cfg.n_b).p
    for x in (0.1, 1.0, 5.0, 30.0):
        mix = math.fsum(
            p[k - 1] * order_statistic_cdf(cfg.nn - k, cfg.nn, x, cfg.lambda_s)
            for k in range(1, cfg.n_a + cfg.n_b)
        )
        assert cdf_gamma_ba(x, cfg) == pytest.approx(mix, abs=1e-10)


def test_cdf_domain_and_size_guards():
    cfg = make_cfg()
    for cdf in (cdf_gamma_ab, cdf_gamma_ba):
        with pytest.raises(DomainError):
            cdf(-0.1, cfg)
    big = make_cfg(n_a=7, n_b=6)
    with pytest.raises(DomainError):
        cdf_gamma_ab(1.0, big)
    with pytest.raises(DomainError):
        avg_weighted_sum_rate(big)


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
    high = avg_weighted_sum_rate(with_lambda_s(cfg, 1e8)).value
    assert abs(high - ceiling) / ceiling < 0.005
    # and the ceiling is an upper bound along the way up
    for lam in (10.0, 100.0, 1e4):
        assert avg_weighted_sum_rate(with_lambda_s(cfg, lam)).value < ceiling


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
    high = avg_weighted_sum_ser(with_lambda_s(cfg, 1e8)).value
    assert abs(high - floor) / floor < 0.005
    for lam in (10.0, 100.0, 1e4):
        assert avg_weighted_sum_ser(with_lambda_s(cfg, lam)).value > floor


def test_ser_floor_orderings():
    base = ser_floor(make_cfg(eta=0.1))
    assert ser_floor(make_cfg(eta=0.02)) < base
    assert ser_floor(make_cfg(n_a=4, n_b=4, eta=0.1)) < base


def test_limits_require_residual_interference():
    with pytest.raises(DomainError):
        rate_ceiling(make_cfg(eta=0.0))
    with pytest.raises(DomainError):
        ser_floor(make_cfg(eta=0.0))


# ---------------------------------------------------------------------------
# perfect-cancellation asymptotics


def test_asymptotic_matches_exact_ser_at_high_snr():
    cfg = make_cfg(n_a=2, n_b=2, eta=0.0)
    lam = 1e3
    ser_ab, ser_ba, weighted = asymptotic_ser_perfect_cancellation(cfg, lam)
    exact_ab = avg_ser_ab(with_lambda_s(cfg, lam)).value
    exact_ba = avg_ser_ba(with_lambda_s(cfg, lam)).value
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
