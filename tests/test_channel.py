import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from fdlink import (
    SystemConfig,
    derived_params,
    instantaneous_sinr,
    to_obtainable_sinr,
    validate_config,
)
from fdlink.channel import draw_trial_batch


@pytest.fixture
def cfg():
    return validate_config(SystemConfig(n_a=3, n_b=3, lambda_s=10.0, eta=0.1, w=0.7))


def one_trial(seed, k, cfg, lam_i):
    """Independent oracle for trial k: its own Philox stream advanced to the
    trial's block of ceil((n_a*n_b + 2)/4)*4 doubles (4 doubles per counter
    step), mapped to exponentials by inverse CDF."""
    stride = -(-(cfg.nn + 2) // 4) * 4
    bitgen = Philox(key=seed)
    bitgen.advance(k * stride // 4)
    u = Generator(bitgen).random(stride)
    snr = -cfg.lambda_s * np.log1p(-u[: cfg.nn])
    inr_a, inr_b = -lam_i * np.log1p(-u[cfg.nn : cfg.nn + 2])
    return snr.reshape(cfg.n_a, cfg.n_b), inr_a, inr_b


def test_same_stream_is_bitwise_identical(cfg):
    a, _, _ = draw_trial_batch(42, 17, 1, cfg, 0.0)
    b, _, _ = draw_trial_batch(42, 17, 1, cfg, 0.0)
    assert np.array_equal(a, b)


def test_distinct_trials_differ(cfg):
    a, _, _ = draw_trial_batch(42, 0, 1, cfg, 0.0)
    b, _, _ = draw_trial_batch(42, 1, 1, cfg, 0.0)
    assert not np.array_equal(a, b)


def test_batch_matches_per_trial_draws(cfg):
    # a batch starting at trial k holds rows k.. of a batch starting at 0,
    # and each row equals that trial drawn on its own
    lam_i = cfg.eta * cfg.lambda_s
    snr0, inr_a0, inr_b0 = draw_trial_batch(7, 0, 25, cfg, lam_i)
    snr, inr_a, inr_b = draw_trial_batch(7, 5, 20, cfg, lam_i)
    assert np.array_equal(snr, snr0[5:])
    assert np.array_equal(inr_a, inr_a0[5:])
    assert np.array_equal(inr_b, inr_b0[5:])
    for k in (0, 5, 8, 24):
        for d_snr, d_inr_a, d_inr_b in (draw_trial_batch(7, k, 1, cfg, lam_i),
                                        one_trial(7, k, cfg, lam_i)):
            assert np.array_equal(snr0[k], np.reshape(d_snr, (3, 3)))
            assert inr_a0[k] == np.ravel(d_inr_a)[0]
            assert inr_b0[k] == np.ravel(d_inr_b)[0]


def test_snr_sample_mean(cfg):
    # 1e6 entries at mean 10: LLN bound 3*sigma/sqrt(n) = 0.03
    n_trials = 10**6 // cfg.nn + 1
    snr, _, _ = draw_trial_batch(3, 0, n_trials, cfg, 0.0)
    assert abs(snr.mean() - cfg.lambda_s) < 0.03


def test_snr_empirical_cdf_ks(cfg):
    snr, _, _ = draw_trial_batch(11, 0, 2000, cfg, 0.0)
    samples = np.sort(snr.ravel())
    n = samples.size
    emp = np.arange(1, n + 1) / n
    model = 1.0 - np.exp(-samples / cfg.lambda_s)
    ks = np.max(np.abs(emp - model))
    assert ks < 1.36 / math.sqrt(n)


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
    d = derived_params(cfg)
    snr = draw_trial_batch(0, 0, 1, cfg, 0.0)[0][0]
    g = to_obtainable_sinr(snr, d)
    assert np.allclose(g, snr * d.scale)
    assert np.argmax(g) == np.argmax(snr)

    eta0 = validate_config(SystemConfig(3, 3, 10.0, 0.0, 0.7))
    assert np.array_equal(to_obtainable_sinr(snr, derived_params(eta0)), snr)


def test_obtainable_sinr_example():
    d = derived_params(validate_config(SystemConfig(2, 2, 100.0, 0.05, 0.7)))
    assert d.lambda_i == 5.0
    assert to_obtainable_sinr(np.array([[12.0]]), d)[0, 0] == pytest.approx(2.0)


@pytest.mark.parametrize("gamma_s,gamma_ri,expected", [(6.0, 2.0, 2.0), (3.5, 0.0, 3.5), (0.0, 4.0, 0.0)])
def test_instantaneous_sinr(gamma_s, gamma_ri, expected):
    assert instantaneous_sinr(gamma_s, gamma_ri) == expected


def test_rank_position_symmetry(cfg):
    # each matrix position is the maximum with frequency ~ 1/(n_a*n_b)
    snr, _, _ = draw_trial_batch(13, 0, 45000, cfg, 0.0)
    argmaxes = np.argmax(snr.reshape(snr.shape[0], -1), axis=1)
    counts = np.bincount(argmaxes, minlength=cfg.nn)
    expected = snr.shape[0] / cfg.nn
    # 5 sigma of binomial(T, 1/nn)
    sigma = math.sqrt(snr.shape[0] * (1 / cfg.nn) * (1 - 1 / cfg.nn))
    assert np.all(np.abs(counts - expected) < 5 * sigma)

