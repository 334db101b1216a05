import math

import numpy as np
import pytest
from scipy.special import erfc

from fdlink import (
    BPSK,
    SystemConfig,
    mc_empirical_cdf,
    mc_p_not,
    mc_weighted_sum_rate,
    mc_weighted_sum_ser,
    p_not_upper_bound,
    quadrature_avg_rate,
    quadrature_avg_ser,
    validate_config,
)
from fdlink import montecarlo
from fdlink.analytic import cdf_gamma_ab
from fdlink.selection import rate_map, ser_map


def make_cfg(**kw):
    base = dict(n_a=3, n_b=3, lambda_s=10.0, eta=0.1, w=0.7)
    base.update(kw)
    return validate_config(SystemConfig(**base))


def test_rate_of_values():
    assert rate_map(0.0) == 0.0
    assert rate_map(1.0) == 1.0
    assert rate_map(3.0) == 2.0


def test_ser_of_values():
    assert ser_map(0.0, BPSK) == 0.5
    # BPSK at gamma: Q(sqrt(2*gamma))
    assert ser_map(4.5, BPSK) == pytest.approx(0.5 * math.erfc(math.sqrt(4.5)), rel=1e-14)


def test_single_trial_is_deterministic():
    cfg = make_cfg()
    a = mc_weighted_sum_rate(cfg, "serial_max", 1, 99)
    b = mc_weighted_sum_rate(cfg, "serial_max", 1, 99)
    assert a == b
    assert a.std_error == 0.0
    assert a.trials == 1


def test_reruns_are_bitwise_identical():
    cfg = make_cfg()
    for fn in (mc_weighted_sum_rate, mc_weighted_sum_ser):
        for policy in montecarlo.POLICIES:
            a = fn(cfg, policy, 500, 7)
            b = fn(cfg, policy, 500, 7)
            assert a.value == b.value
            assert a.std_error == b.std_error


def test_chunking_does_not_change_result(monkeypatch):
    cfg = make_cfg()
    ref = mc_weighted_sum_rate(cfg, "serial_max", 1000, 3)
    monkeypatch.setattr(montecarlo, "_CHUNK", 137)
    chunked = mc_weighted_sum_rate(cfg, "serial_max", 1000, 3)
    assert chunked.value == ref.value
    assert chunked.std_error == ref.std_error


def test_rate_matches_quadrature_within_three_sigma():
    # perfect cancellation, w at the boundary of the swap: the first-selected
    # link is the global maximum of nn iid exponentials, whose average rate
    # has a clean quadrature value via its order-statistic CDF
    cfg = make_cfg(n_a=2, n_b=2, eta=0.0, lambda_s=10.0, w=0.7)
    est = mc_weighted_sum_rate(cfg, "serial_max", 200_000, 11)
    exact = 0.7 * quadrature_avg_rate(lambda x: cdf_gamma_ab(x, cfg)) + 0.3 * np.mean(
        np.log2(1.0 + _second_link_samples(cfg))
    )
    assert abs(est.value - exact) < 3 * est.std_error + 1e-3


_SAMPLE_CACHE = {}


def _second_link_samples(cfg):
    # Second-link SINR samples from an independent generator (numpy's default
    # PCG64, not the package's Philox streams), cached per config.
    key = (cfg.n_a, cfg.n_b, cfg.lambda_s)
    if key not in _SAMPLE_CACHE:
        rng = np.random.default_rng(123456)
        g = rng.exponential(cfg.lambda_s, (2_000_000, cfg.n_a, cfg.n_b))
        t = g.shape[0]
        flat = g.reshape(t, -1)
        idx1 = np.argmax(flat, axis=1)
        i1, j1 = np.divmod(idx1, cfg.n_b)
        rows = np.arange(cfg.n_a)[None, :, None]
        cols = np.arange(cfg.n_b)[None, None, :]
        masked = np.where(
            (rows == i1[:, None, None]) | (cols == j1[:, None, None]), -np.inf, g
        )
        _SAMPLE_CACHE[key] = masked.reshape(t, -1).max(axis=1)
    return _SAMPLE_CACHE[key]


def test_ser_matches_quadrature_within_three_sigma():
    cfg = make_cfg(n_a=2, n_b=2, eta=0.0, lambda_s=10.0, w=0.7)
    est = mc_weighted_sum_ser(cfg, "serial_max", 200_000, 13)
    second = _second_link_samples(cfg)
    exact = 0.7 * quadrature_avg_ser(lambda x: cdf_gamma_ab(x, cfg), BPSK) + 0.3 * np.mean(
        0.5 * erfc(np.sqrt(second))
    )
    assert abs(est.value - exact) < 3 * est.std_error + 5e-5


def test_vanishing_snr_limits():
    cfg = make_cfg(lambda_s=1e-12)
    rate = mc_weighted_sum_rate(cfg, "serial_max", 2000, 5)
    ser = mc_weighted_sum_ser(cfg, "serial_max", 2000, 5)
    assert rate.value == pytest.approx(0.0, abs=1e-10)
    assert ser.value == pytest.approx(0.5, abs=1e-6)


def test_policy_objective_ordering():
    cfg = make_cfg()
    seed, trials = 17, 50_000
    r_wsr = mc_weighted_sum_rate(cfg, "max_wsr", trials, seed).value
    r_serial = mc_weighted_sum_rate(cfg, "serial_max", trials, seed).value
    assert r_wsr >= r_serial - 1e-12

    s_wser = mc_weighted_sum_ser(cfg, "min_wser", trials, seed).value
    s_serial = mc_weighted_sum_ser(cfg, "serial_max", trials, seed).value
    assert s_wser <= s_serial + 1e-15


def test_unknown_policy():
    with pytest.raises(ValueError):
        mc_weighted_sum_rate(make_cfg(), "genie", 10, 0)
    with pytest.raises(ValueError):
        mc_weighted_sum_rate(make_cfg(), "serial_max", 0, 0)


def test_empirical_cdf_endpoints_and_monotonicity():
    cfg = make_cfg()
    grid = np.concatenate(([0.0], np.geomspace(0.01, 2000.0, 60)))
    cdf = mc_empirical_cdf(cfg, "gamma_ab", 20_000, 21, grid)
    p = cdf.probabilities
    assert p[0] == 0.0
    assert p[-1] == 1.0
    assert np.all(np.diff(p) >= 0)


def test_empirical_cdf_matches_model():
    cfg = make_cfg()
    n = 100_000
    grid = np.geomspace(0.05, 500.0, 80)
    cdf = mc_empirical_cdf(cfg, "gamma_ab", n, 31, grid)
    model = np.array([cdf_gamma_ab(x, cfg) for x in grid])
    assert np.max(np.abs(cdf.probabilities - model)) < 1.36 / math.sqrt(n)


def test_empirical_cdf_validation():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        mc_empirical_cdf(cfg, "gamma_ab", 10, 0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        mc_empirical_cdf(cfg, "gamma_xx", 10, 0, np.array([1.0, 2.0]))


def test_empirical_cdf_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        mc_empirical_cdf(make_cfg(), "gamma_ab", 0, 0, np.array([1.0, 2.0]))


@pytest.mark.parametrize("n", [2, 3])
def test_p_not_within_bound(n):
    cfg = make_cfg(n_a=n, n_b=n)
    est = mc_p_not(cfg, 20_000, 41)
    assert 0.0 <= est.value <= p_not_upper_bound(n, n)


def test_p_not_decreases_with_array_size():
    vals = []
    for n in (2, 3, 4):
        est = mc_p_not(make_cfg(n_a=n, n_b=n), 20_000, 43)
        vals.append(est.value)
    assert vals[0] > vals[1] > vals[2]

