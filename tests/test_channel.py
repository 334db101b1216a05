import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats

from fdlink import (
    SystemConfig,
    instantaneous_sinr,
    mc_weighted_sum_rate,
    mc_weighted_sum_ser,
)
from fdlink.channel import draw_trial_batch
from fdlink.selection import POLICIES, candidates, select, weighted_sum
from oracles import draw_matrix_batch, order_statistic_cdf


@pytest.fixture
def cfg():
    return SystemConfig(n_a=3, n_b=3, lambda_s=10.0, eta=0.1, w=0.7)


def one_trial(seed, k, cfg, lam_i):
    """Independent oracle for trial k: its own Philox stream advanced to the
    trial's block of 8 words (4 per counter step), each word's top 52 bits j
    taken as the uniform (2j + 1) * 2**-53; then, with p = u0**(1/nn) and
    q = 1 - p, M = -log q, and each of S, R and C -log(q + p * (1 -
    u**(1/k))), the inverse of (F(x)/F(M))**k; the INRs -log u; each log
    times minus its mean."""
    bitgen = Philox(key=seed)
    bitgen.advance(2 * k)
    u = np.array([(int(word) >> 12) * 2 + 1 for word in bitgen.random_raw(8)[:6]]) * 2.0**-53
    log_u = np.log(u)
    q = -np.expm1(log_u[0] / cfg.nn)
    p = np.exp(log_u[0] / cfg.nn)
    logs = [np.log(q)]
    for log_v, size in zip(log_u[1:4], ((cfg.n_a - 1) * (cfg.n_b - 1), cfg.n_b - 1, cfg.n_a - 1)):
        logs.append(np.log(q + p * -np.expm1(log_v / size)))
    return np.array(logs) * -cfg.lambda_s, log_u[4] * -lam_i, log_u[5] * -lam_i


def test_same_stream_is_bitwise_identical(cfg):
    a, _, _ = draw_trial_batch(42, 17, 1, cfg, 0.0)
    b, _, _ = draw_trial_batch(42, 17, 1, cfg, 0.0)
    assert np.array_equal(a, b)


def test_distinct_trials_differ(cfg):
    a, _, _ = draw_trial_batch(42, 0, 1, cfg, 0.0)
    b, _, _ = draw_trial_batch(42, 1, 1, cfg, 0.0)
    assert not np.array_equal(a, b)


def test_batch_matches_per_trial_draws(cfg):
    # a batch starting at trial k holds columns k.. of a batch starting at
    # 0, and each column equals that trial drawn on its own, at every size
    lam_i = cfg.eta * cfg.lambda_s
    for n_a, n_b in ((3, 3), (2, 5), (12, 12), (10**6, 10**6)):
        cfg = replace(cfg, n_a=n_a, n_b=n_b)
        cands0, inr_a0, inr_b0 = draw_trial_batch(7, 0, 25, cfg, lam_i)
        assert cands0.shape == (4, 25) and inr_a0.shape == inr_b0.shape == (25,)
        cands, inr_a, inr_b = draw_trial_batch(7, 5, 20, cfg, lam_i)
        assert np.array_equal(cands, cands0[:, 5:])
        assert np.array_equal(inr_a, inr_a0[5:])
        assert np.array_equal(inr_b, inr_b0[5:])
        for k in (0, 5, 8, 24):
            for d_cands, d_inr_a, d_inr_b in (draw_trial_batch(7, k, 1, cfg, lam_i),
                                              one_trial(7, k, cfg, lam_i)):
                assert np.array_equal(cands0[:, k], np.ravel(d_cands))
                assert inr_a0[k] == np.ravel(d_inr_a)[0]
                assert inr_b0[k] == np.ravel(d_inr_b)[0]


@pytest.mark.parametrize("n_a,n_b", [(2, 2), (3, 3), (2, 7), (12, 12), (10**6, 10**6)])
def test_serial_max_draw_is_the_full_draw_without_r_and_c(n_a, n_b):
    # Serial-Max reads (M, S) and the INRs; its lean draw gives those rows
    # of the full draw bit for bit
    cfg = SystemConfig(n_a, n_b, lambda_s=3.7, eta=0.1, w=0.7)
    for start, count in ((0, 1), (5, 999), (12_345, 8192)):
        full = draw_trial_batch(9, start, count, cfg, 0.37)
        lean = draw_trial_batch(9, start, count, cfg, 0.37, candidates=2)
        assert lean[0].shape == (2, count)
        for a, b in zip([*full[0][:2], *full[1:]], [*lean[0], *lean[1:]]):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
    with pytest.raises(ValueError, match="candidates must be 2 or 4"):
        draw_trial_batch(9, 0, 1, cfg, 0.37, candidates=3)


def test_candidates_are_ordered_and_finite_at_every_size():
    # M is the largest, and S, R and C lie in [0, M], up to 10**6 x 10**6
    for n_a, n_b in ((2, 2), (2, 5), (12, 12), (1000, 3), (10**6, 10**6)):
        cfg = SystemConfig(n_a, n_b, 1.0, 0.0, 0.7)
        cands, _, _ = draw_trial_batch(3, 0, 20_000, cfg, 0.0)
        assert np.all(np.isfinite(cands)) and np.all(cands >= 0.0)
        assert np.all(cands[1:] <= cands[0])


def test_snr_sample_mean(cfg):
    # M is the largest of nn unit exponentials: mean H_nn, variance
    # sum 1/i**2; 3 sigma at 10**6 draws
    n = 10**6
    cands, _, _ = draw_trial_batch(3, 0, n, cfg, 0.0)
    mean = cfg.lambda_s * math.fsum(1.0 / i for i in range(1, cfg.nn + 1))
    sigma = cfg.lambda_s * math.sqrt(math.fsum(1.0 / i**2 for i in range(1, cfg.nn + 1)) / n)
    assert abs(cands[0].mean() - mean) < 3 * sigma


def test_snr_empirical_cdf_ks(cfg):
    # M's CDF is (1 - exp(-x / lambda_s))**nn; the KS bound is the 5 % one
    for n_a, n_b, n in ((3, 3, 2000), (12, 12, 10**6)):
        cfg = replace(cfg, n_a=n_a, n_b=n_b)
        cands, _, _ = draw_trial_batch(11, 0, n, cfg, 0.0)
        samples = np.sort(cands[0])
        model = (-np.expm1(-samples / cfg.lambda_s)) ** cfg.nn
        emp = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(emp - model)), np.max(np.abs(emp - 1.0 / n - model)))
        assert ks < 1.36 / math.sqrt(n), (n_a, n_b, ks)


def test_residual_inr_zero_mean_is_exact_zero(cfg):
    _, inr_a, inr_b = draw_trial_batch(1, 0, 1, cfg, 0.0)
    assert inr_a[0] == 0.0
    assert inr_b[0] == 0.0


def test_residual_inr_sample_mean(cfg):
    _, inr_a, _ = draw_trial_batch(5, 0, 10**6, cfg, 1.0)
    assert abs(inr_a.mean() - 1.0) < 0.003


def test_residual_inr_median(cfg):
    lam_i = 2.0
    _, _, inr_b = draw_trial_batch(9, 0, 10**5, cfg, lam_i)
    frac = np.mean(inr_b > lam_i * math.log(2))
    assert frac == pytest.approx(0.5, abs=0.01)


def test_obtainable_sinr_scaling(cfg):
    snr = draw_matrix_batch(0, 0, 1, cfg, 0.0)[0][0]
    g = snr * cfg.scale
    assert np.allclose(g, snr / (cfg.lambda_i + 1.0))
    assert np.argmax(g) == np.argmax(snr)

    eta0 = SystemConfig(3, 3, 10.0, 0.0, 0.7)
    assert np.array_equal(snr * eta0.scale, snr)


def test_obtainable_sinr_example():
    cfg = SystemConfig(2, 2, 100.0, 0.05, 0.7)
    assert cfg.lambda_i == 5.0
    assert 12.0 * cfg.scale == pytest.approx(2.0)


@pytest.mark.parametrize("gamma_s,gamma_ri,expected", [(6.0, 2.0, 2.0), (3.5, 0.0, 3.5), (0.0, 4.0, 0.0)])
def test_instantaneous_sinr(gamma_s, gamma_ri, expected):
    assert instantaneous_sinr(gamma_s, gamma_ri) == expected


# The full-matrix oracle's own law, which the law tests below rest on.


def test_oracle_entry_sample_mean(cfg):
    # 1e6 entries at mean 10: LLN bound 3*sigma/sqrt(n) = 0.03
    n_trials = 10**6 // cfg.nn + 1
    snr, _, _ = draw_matrix_batch(3, 0, n_trials, cfg, 0.0)
    assert abs(snr.mean() - cfg.lambda_s) < 0.03


def test_oracle_entry_empirical_cdf_ks(cfg):
    snr, _, _ = draw_matrix_batch(11, 0, 2000, cfg, 0.0)
    samples = np.sort(snr.ravel())
    n = samples.size
    emp = np.arange(1, n + 1) / n
    model = 1.0 - np.exp(-samples / cfg.lambda_s)
    ks = np.max(np.abs(emp - model))
    assert ks < 1.36 / math.sqrt(n)


def test_rank_position_symmetry(cfg):
    # each matrix position of the oracle's draw is the maximum with
    # frequency ~ 1/(n_a*n_b)
    snr, _, _ = draw_matrix_batch(13, 0, 45000, cfg, 0.0)
    argmaxes = np.argmax(snr.reshape(snr.shape[0], -1), axis=1)
    counts = np.bincount(argmaxes, minlength=cfg.nn)
    expected = snr.shape[0] / cfg.nn
    # 5 sigma of binomial(T, 1/nn)
    sigma = math.sqrt(snr.shape[0] * (1 / cfg.nn) * (1 - 1 / cfg.nn))
    assert np.all(np.abs(counts - expected) < 5 * sigma)


# Law tests: the sampler's (M, S, R, C) against candidates() on the oracle's
# full matrices, drawn from independent streams with fixed seeds.  Each
# size makes 9 comparisons, each at false-alarm level ALPHA: a KS p-value
# above it, or |z| below its two-sided quantile.  Over the 5 sizes that is
# 45 comparisons, so the family's false-alarm level is below 45 * ALPHA =
# 0.45 % (Bonferroni).
ALPHA = 1e-4
Z_ALPHA = stats.norm.isf(ALPHA / 2)  # 3.89
LAW_TRIALS = 100_000


def oracle_law(cfg, trials, seed):
    """From the oracle's full matrices at cfg, drawn a block at a time: the
    (4, trials) unit values of M, S, R and C that candidates() finds, and
    per policy the per-trial weighted sum of the links select() picks, of
    SERs for min_wser and of rates otherwise."""
    cands = np.empty((4, trials))
    values = {policy: np.empty(trials) for policy in POLICIES}
    for start in range(0, trials, 10_000):
        count = min(10_000, trials - start)
        snr, inr_a, inr_b = draw_matrix_batch(seed, start, count, cfg, cfg.lambda_i)
        flat, rows, cols = snr.reshape(count, -1), np.arange(count), slice(start, start + count)
        cands[:, cols] = flat[rows, candidates(snr, "max_wsr")] / cfg.lambda_s
        g = snr * cfg.scale
        for policy in POLICIES:
            ab, ba = select(g, cfg.w, policy, cfg.modulation)
            values[policy][cols] = weighted_sum(
                (instantaneous_sinr(flat[rows, ab], inr_b), instantaneous_sinr(flat[rows, ba], inr_a)),
                cfg.w, cfg.modulation if policy == "min_wser" else None)
    return cands, values


@pytest.mark.parametrize("n_a,n_b", [(2, 2), (2, 5), (3, 3), (6, 6), (12, 12)])
def test_sampler_law_matches_the_full_matrix_oracle(n_a, n_b):
    cfg = SystemConfig(n_a, n_b, lambda_s=10.0, eta=0.05, w=0.7)
    seed = 1000 + 100 * n_a + n_b
    drawn, _, _ = draw_trial_batch(seed, 0, LAW_TRIALS, replace(cfg, lambda_s=1.0), 0.0)
    oracle, values = oracle_law(cfg, LAW_TRIALS, seed + 1)

    # M's margin against its exact CDF, F**nn, then every margin against the oracle's
    model = [order_statistic_cdf(cfg.nn, cfg.nn, x, 1.0) for x in np.sort(drawn[0])]
    emp = np.arange(1, LAW_TRIALS + 1) / LAW_TRIALS
    ks = max(np.max(np.abs(emp - model)), np.max(np.abs(emp - 1.0 / LAW_TRIALS - model)))
    assert stats.kstwo.sf(ks, LAW_TRIALS) > ALPHA, ("M", ks)
    for name, a, b in zip("MSRC", drawn, oracle):
        assert stats.ks_2samp(a, b).pvalue > ALPHA, name

    # the contested fraction: trials where R and C both exceed S
    p = [np.mean((x[2] > x[1]) & (x[3] > x[1])) for x in (drawn, oracle)]
    pooled = (p[0] + p[1]) / 2
    assert abs(p[0] - p[1]) < Z_ALPHA * math.sqrt(2 * pooled * (1 - pooled) / LAW_TRIALS), p

    # Serial-Max and exhaustive weighted sums: the estimators' against the oracle's
    for policy, fn in (("serial_max", mc_weighted_sum_rate), ("max_wsr", mc_weighted_sum_rate),
                       ("min_wser", mc_weighted_sum_ser)):
        est = fn(cfg, policy, LAW_TRIALS, seed)
        x = values[policy]
        z = (est.value - x.mean()) / math.hypot(est.std_error, x.std(ddof=1) / math.sqrt(x.size))
        assert abs(z) < Z_ALPHA, (policy, z)
