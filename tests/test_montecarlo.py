import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erfc

from fdlink import (
    BPSK,
    SystemConfig,
    mc_empirical_cdfs,
    mc_p_not,
    mc_weighted_sum_rate,
    mc_weighted_sum_ser,
    p_not_upper_bound,
)
from fdlink import instantaneous_sinr, montecarlo
from fdlink.analytic import cdf_gamma_ab
from fdlink.selection import best_pairs, by_weight, rate_map, ser_map
from oracles import quadrature_avg_rate, quadrature_avg_ser


def make_cfg(**kw):
    base = dict(n_a=3, n_b=3, lambda_s=10.0, eta=0.1, w=0.7)
    base.update(kw)
    return SystemConfig(**base)


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


def test_unknown_policy(monkeypatch):
    draws = []
    monkeypatch.setattr(montecarlo, "draw_trial_batch", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="unknown policy 'genie'"):
        mc_weighted_sum_rate(make_cfg(), "genie", 10, 0)
    assert draws == []  # refused before any draw
    monkeypatch.undo()
    with pytest.raises(ValueError):
        mc_weighted_sum_rate(make_cfg(), "serial_max", 0, 0)


def test_empirical_cdf_endpoints_and_monotonicity():
    cfg = make_cfg()
    grid = np.concatenate(([0.0], np.geomspace(0.01, 2000.0, 60)))
    for cdf in mc_empirical_cdfs(cfg, 20_000, 21, grid):
        p = cdf.probabilities
        assert p[0] == 0.0
        assert p[-1] == 1.0
        assert np.all(np.diff(p) >= 0)


def test_empirical_cdf_matches_model():
    cfg = make_cfg()
    n = 100_000
    grid = np.geomspace(0.05, 500.0, 80)
    cdf = mc_empirical_cdfs(cfg, n, 31, grid)[0]
    model = np.array([cdf_gamma_ab(x, cfg) for x in grid])
    assert np.max(np.abs(cdf.probabilities - model)) < 1.36 / math.sqrt(n)


def test_empirical_cdf_validation():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        mc_empirical_cdfs(cfg, 10, 0, np.array([2.0, 1.0]))


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0, 50.0], [1.0, math.nan, 0.5], [math.nan]])
def test_empirical_cdf_rejects_nan_grids(grid):
    # np.diff(grid) < 0 is False at a NaN, so a NaN grid needs its own check
    with pytest.raises(ValueError, match="grid must be one-dimensional and ascending"):
        mc_empirical_cdfs(make_cfg(), 10, 0, np.array(grid))


def test_empirical_cdf_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        mc_empirical_cdfs(make_cfg(), 0, 0, np.array([1.0, 2.0]))


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


def per_point_sinrs(cfg, trials, seed, policy="serial_max"):
    """Per chunk, the (gamma_ab, gamma_ba) of one point drawn on its own:
    candidate SNRs and INRs drawn at its own means through
    montecarlo.draw_trial_batch; Serial-Max picks (M, S), and exhaustive
    picks the best of the candidates scored on the point's obtainable SINRs."""
    chunk = montecarlo._CHUNK
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        cands, inr_a, inr_b = montecarlo.draw_trial_batch(
            seed, start, count, cfg, cfg.lambda_i)
        first, second = cands[:2]
        if policy != "serial_max":
            g = cands * cfg.scale
            first, second = best_pairs(cands, g, cfg.w, policy, cfg.modulation)
        ab, ba = by_weight(first, second, cfg.w)
        yield instantaneous_sinr(ab, inr_b), instantaneous_sinr(ba, inr_a)


def per_point_values(cfg, trials, seed, metric, policy="serial_max"):
    """One point's values on its own, trial by trial."""
    parts = []
    for gammas in per_point_sinrs(cfg, trials, seed, policy):
        f_ab, f_ba = (rate_map(x) if metric == "rate" else ser_map(x, cfg.modulation)
                      for x in gammas)
        parts.append(cfg.w * f_ab + (1.0 - cfg.w) * f_ba)
    return np.concatenate(parts)


def per_point_estimate(cfg, trials, seed, metric, policy="serial_max"):
    """(mean, stderr) of one point on its own: fsum of the values over
    trials, and the standard error from the moments of each unit of
    montecarlo._UNIT trials, one unit at a time: its count c, its mean,
    the f that puts its largest value (or the smallest normal) in
    [1/2, 1) times 2**f, and t = sum(((x - mean) * 2**f)**2); merged in
    unit order by Chan, Golub and LeVeque's update at the scale e of the
    larger values, then sqrt(s / (n - 1)) / sqrt(n) / 2**e."""
    values = per_point_values(cfg, trials, seed, metric, policy)
    mean = math.fsum(values) / trials
    if trials == 1:
        return mean, 0.0
    n, running, e, s = 0, 0.0, 1023, 0.0
    for lo in range(0, trials, montecarlo._UNIT):
        unit = values[lo:lo + montecarlo._UNIT]
        c, unit_mean = unit.size, unit.sum() / unit.size
        f = -math.frexp(max(unit.max(), 2.0**-1022))[1]
        t = np.square(np.ldexp(unit - unit_mean, f)).sum()
        g, delta = min(e, f), unit_mean - running
        s = (math.ldexp(s, 2 * (g - e)) + math.ldexp(t, 2 * (g - f))
             + math.ldexp(delta, g) ** 2 * (n * c / (n + c)))
        n, running, e = n + c, running + delta * (c / (n + c)), g
    return mean, math.ldexp(math.sqrt(s / (n - 1)) / math.sqrt(n), -e)


def two_pass_stderr(values):
    """sqrt(fsum of the squared deviations from the fsum mean / (n - 1)) /
    sqrt(n): the second pass the standard error once took, on the values
    times the 2**f that puts the largest in [1/2, 1), so no square
    underflows, then scaled back."""
    f = -math.frexp(values.max())[1] if values.max() > 0 else 0
    x = np.ldexp(values, f)
    squares = math.fsum((x - math.fsum(x) / x.size) ** 2)
    return math.ldexp(math.sqrt(squares / (x.size - 1)) / math.sqrt(x.size), -f)


def bits(x):
    return float(x).hex()


def assert_shared_matches_oracle(cfgs, trials, seed, metric):
    """Every point's shared estimate equals its per-point oracle bit for bit;
    for metric "cdf", both links' empirical CDFs on a grid down to 1e-320."""
    if metric == "cdf":
        grids = [np.geomspace(1e-320, 5.0 * cfg.lambda_s, 40) for cfg in cfgs]
        shared = montecarlo.mc_empirical_cdfs(cfgs, trials, seed, grids)
        for cfg, grid, cdfs in zip(cfgs, grids, shared):
            for k, cdf in enumerate(cdfs):
                samples = np.sort(np.concatenate(
                    [gammas[k] for gammas in per_point_sinrs(cfg, trials, seed)]))
                counts = np.searchsorted(samples, grid, side="right")
                assert np.array_equal(cdf.probabilities, counts / trials), cfg
        return
    fn = mc_weighted_sum_rate if metric == "rate" else mc_weighted_sum_ser
    shared = fn(cfgs, "serial_max", trials, seed)
    assert len(shared) == len(cfgs)
    for cfg, est in zip(cfgs, shared):
        mean, std_error = per_point_estimate(cfg, trials, seed, metric)
        assert (bits(est.value), bits(est.std_error)) == (bits(mean), bits(std_error)), cfg


points = st.tuples(
    st.one_of(st.sampled_from([1e-300, 1e300, 1e-310]),
              st.floats(-3.0, 8.0).map(lambda x: 10.0 ** x)),
    st.sampled_from([0.0, 0.02, 0.1, 1.0 / 3.0, 0.5]),
    st.sampled_from([0.3, 0.5, 0.7]),
)


@settings(max_examples=150, deadline=None)
@given(n_a=st.integers(2, 6), n_b=st.integers(2, 6), grid=st.lists(points, min_size=1, max_size=4),
       trials=st.integers(1, 300), seed=st.integers(0, 2**64 - 1),
       metric=st.sampled_from(["rate", "ser", "cdf"]))
def test_shared_serial_max_matches_per_point_oracle(n_a, n_b, grid, trials, seed, metric):
    cfgs = [make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta, w=w) for lam, eta, w in grid]
    with mock.patch.object(montecarlo, "_CHUNK", 97):
        assert_shared_matches_oracle(cfgs, trials, seed, metric)


@settings(max_examples=100, deadline=None)
@given(n_a=st.integers(2, 6), n_b=st.integers(2, 6), grid=st.lists(points, min_size=1, max_size=4),
       trials=st.integers(1, 300), seed=st.integers(0, 2**64 - 1),
       policy=st.sampled_from(["max_wsr", "min_wser"]), metric=st.sampled_from(["rate", "ser"]))
def test_shared_exhaustive_matches_per_point_oracle(n_a, n_b, grid, trials, seed, policy, metric):
    # the points share each chunk's draw and its candidates, taken on the
    # unit draw, and each scores the candidates on its own g
    cfgs = [make_cfg(n_a=n_a, n_b=n_b, lambda_s=lam, eta=eta, w=w) for lam, eta, w in grid]
    fn = mc_weighted_sum_rate if metric == "rate" else mc_weighted_sum_ser
    with mock.patch.object(montecarlo, "_CHUNK", 97):
        shared = fn(cfgs, policy, trials, seed)
        assert len(shared) == len(cfgs)
        for cfg, est in zip(cfgs, shared):
            mean, std_error = per_point_estimate(cfg, trials, seed, metric, policy)
            assert (bits(est.value), bits(est.std_error)) == (bits(mean), bits(std_error)), cfg


@settings(max_examples=100, deadline=None)
@given(n_a=st.integers(2, 6), n_b=st.integers(2, 6), point=points, trials=st.integers(2, 300),
       seed=st.integers(0, 2**64 - 1), policy=st.sampled_from(montecarlo.POLICIES),
       metric=st.sampled_from(["rate", "ser"]))
def test_unit_moment_stderr_agrees_with_the_two_pass_formula(n_a, n_b, point, trials, seed,
                                                             policy, metric):
    # the one-pass standard error, from unit moments of squares scaled by a
    # power of two, is the two-pass one within 1e-12 relative, also where
    # unscaled squares would fall below the normal range
    lambda_s, eta, w = point
    cfg = make_cfg(n_a=n_a, n_b=n_b, lambda_s=lambda_s, eta=eta, w=w)
    fn = mc_weighted_sum_rate if metric == "rate" else mc_weighted_sum_ser
    est = fn(cfg, policy, trials, seed)
    values = per_point_values(cfg, trials, seed, metric, policy)
    assert est.std_error == pytest.approx(two_pass_stderr(values), rel=1e-12)


# lambda_s = 1.1 rounds some neighbouring SNRs to one value, at lambda_s =
# 1 and eta = 0.4 some neighbouring obtainable SINRs tie, and 1e-318 times
# an SNR is subnormal: points whose selection on their own draw could part
# from that on the unit draw, were the draw not the unit draw scaled
SCALED_POINTS = {"step1": (1.1, 0.0), "step2": (1.0, 0.4), "subnormal": (1e-318, 0.0)}


@pytest.mark.parametrize("metric", ["rate", "ser", "cdf"])
@pytest.mark.parametrize("point", sorted(SCALED_POINTS))
def test_shared_serial_max_picks_scale_the_unit_candidates(point, metric):
    # a point's draw is lambda_s times the unit candidates and lambda_i
    # times the unit INRs, bit for bit, so the shared picks, taken from the
    # unit draw, are the point's own, and its estimate equals its
    # per-point oracle's, alone or beside another point
    lambda_s, eta = SCALED_POINTS[point]
    cfg = make_cfg(lambda_s=lambda_s, eta=eta)
    *unit, unit_a, unit_b = montecarlo._chunk_picks(cfg, "max_wsr", 5, 3, 200)
    cands, inr_a, inr_b = montecarlo.draw_trial_batch(5, 3, 200, cfg, eta * lambda_s)
    for drawn, scaled in zip([*cands, inr_a, inr_b],
                             [lambda_s * x for x in unit] + [eta * lambda_s * x for x in (unit_a, unit_b)]):
        assert np.array_equal(drawn.view(np.int64), scaled.view(np.int64))
    serial = montecarlo._chunk_picks(cfg, "serial_max", 5, 3, 200)
    assert np.array_equal(serial, [*unit[:2], unit_a, unit_b])
    other = make_cfg(lambda_s=1.0, eta=0.0)
    for cfgs in ([other, cfg], [cfg, other], [cfg]):
        assert_shared_matches_oracle(cfgs, 200, 5, metric)


def estimator_outputs(cfgs, trials, seed):
    """The bits of every estimator's output: each policy and metric at
    cfgs[0] and over the list, P_not likewise, and both links' CDFs."""
    out = []
    for fn in (mc_weighted_sum_rate, mc_weighted_sum_ser):
        for policy in montecarlo.POLICIES:
            out += [fn(cfgs[0], policy, trials, seed), *fn(cfgs, policy, trials, seed)]
    out += [mc_p_not(cfgs[0], trials, seed), *mc_p_not(cfgs, trials, seed)]
    out = [(bits(est.value), bits(est.std_error)) for est in out]
    grids = [np.geomspace(1e-3, 5.0 * cfg.lambda_s, 40) for cfg in cfgs]
    for cdfs in montecarlo.mc_empirical_cdfs(cfgs, trials, seed, grids):
        out += [[bits(p) for p in cdf.probabilities] for cdf in cdfs]
    return out


@pytest.mark.parametrize("trials", [1, 96, 97, 98, 199])
def test_output_does_not_depend_on_the_worker_count(monkeypatch, trials):
    monkeypatch.setattr(montecarlo, "_CHUNK", 97)
    cfgs = [make_cfg(lambda_s=lam, eta=eta) for lam, eta in ((10.0, 0.1), (1.0, 0.0), (1e4, 0.02))]
    outputs = []
    for workers in (1, 8):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        outputs.append(estimator_outputs(cfgs, trials, 11))
    assert outputs[0] == outputs[1]


def one_point_outputs(cfg, trials, seed):
    """The bits of each policy and metric, P_not and both links' CDFs at one point."""
    out = [fn(cfg, policy, trials, seed) for fn in (mc_weighted_sum_rate, mc_weighted_sum_ser)
           for policy in montecarlo.POLICIES] + [mc_p_not(cfg, trials, seed)]
    out = [(bits(est.value), bits(est.std_error)) for est in out]
    grid = np.geomspace(1e-3, 5.0 * cfg.lambda_s, 40)
    cdfs = montecarlo.mc_empirical_cdfs(cfg, trials, seed, grid)
    return out + [[bits(p) for p in cdf.probabilities] for cdf in cdfs]


def record_blocks(monkeypatch):
    """The (start, count) of every block _chunk_picks draws."""
    blocks = []
    chunk_picks = montecarlo._chunk_picks

    def recording(cfg, policy, seed, start, count):
        blocks.append((start, count))
        return chunk_picks(cfg, policy, seed, start, count)

    monkeypatch.setattr(montecarlo, "_chunk_picks", recording)
    return blocks


@pytest.mark.parametrize("trials", [1, 2, 3, 5, 3 * montecarlo._CHUNK + 5])
def test_one_point_calls_split_their_passes_over_every_worker(monkeypatch, trials):
    # blocks are whole units, a worker's share of them at most and their
    # picks at most _BLOCK_BYTES, so a lone point spreads over every worker;
    # the blocks merge exactly, so the bits do not depend on the worker count
    cfg = make_cfg(n_a=4, n_b=4, lambda_s=100.0, eta=0.05)
    outputs = []
    for workers in (1, 2, 8):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        outputs.append(one_point_outputs(cfg, trials, 5))
    assert outputs[0] == outputs[1] == outputs[2]
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    blocks = record_blocks(monkeypatch)
    unit, units = montecarlo._UNIT, -(-trials // montecarlo._UNIT)
    for policy, rows in (("serial_max", 4), ("max_wsr", 6)):
        blocks.clear()
        mc_weighted_sum_rate(cfg, policy, trials, 5)
        step = unit * max(1, min(montecarlo._BLOCK_BYTES // (8 * rows * unit), units // 2))
        assert sorted(blocks) == [(start, min(step, trials - start))
                                  for start in range(0, trials, step)]


@pytest.mark.parametrize("block_bytes,trials", [(1, 250), (13_968, 400), (10**9, 10_300)])
def test_output_does_not_depend_on_the_task_blocks(monkeypatch, block_bytes, trials):
    # tasks draw blocks of whole units, one unit where _BLOCK_BYTES holds
    # less than a unit's picks, or a worker's share, 97 trials a draw, and
    # reduce each block in one piece; blocks of any length give the
    # unpatched run's bits at any worker count
    cfgs = [make_cfg(lambda_s=lam, eta=eta) for lam, eta in ((10.0, 0.1), (1.0, 0.0), (1e4, 0.02))]
    expected = estimator_outputs(cfgs, trials, 11)
    monkeypatch.setattr(montecarlo, "_CHUNK", 97)
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_bytes)
    for workers in (1, 2, 8):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        assert estimator_outputs(cfgs, trials, 11) == expected


@pytest.mark.parametrize("chunk", [3000, 97])
def test_chunks_that_straddle_units_do_not_change_the_output(monkeypatch, chunk):
    # _CHUNK sets only how many trials a draw call takes: chunks of 3,000
    # or 97 trials straddle the 8,192-trial units of the standard error,
    # and every output keeps its bits, at any worker count
    cfgs = [make_cfg(lambda_s=lam, eta=eta) for lam, eta in ((10.0, 0.1), (1e4, 0.0))]
    trials = 3 * montecarlo._UNIT + 5
    expected = estimator_outputs(cfgs, trials, 11)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        assert estimator_outputs(cfgs, trials, 11) == expected
    for metric in ("rate", "ser"):
        assert_shared_matches_oracle(cfgs, trials, 11, metric)


def test_a_positive_mean_has_a_positive_standard_error():
    # at 40 dB and eta = 0 the 3x3 SERs that are not 0 lie far below 1e-162,
    # where their squared deviations underflow to 0 unscaled; scaled by a
    # power of two of each unit's largest value they do not
    cfg = make_cfg(lambda_s=1e4, eta=0.0, w=0.7)
    estimates = [mc_weighted_sum_ser(cfg, "serial_max", 139_264, seed) for seed in range(1, 9)]
    assert any(est.value > 0 for est in estimates)
    for seed, est in enumerate(estimates, 1):
        assert est.std_error > 0 or est.value == 0, (seed, est)
    assert (bits(estimates[0].value), bits(estimates[0].std_error)) == tuple(
        map(bits, per_point_estimate(cfg, 139_264, 1, "ser")))


def test_trial_counts_past_the_cap_are_refused():
    cap = montecarlo.MAX_TRIALS
    for trials in (cap + 1, 10**20):
        with pytest.raises(ValueError, match=f"at most MAX_TRIALS = {cap:,}, got"):
            mc_weighted_sum_rate(make_cfg(), "serial_max", trials, 0)


def test_a_warning_inside_a_task_fails_the_call(monkeypatch):
    draw = montecarlo.draw_trial_batch

    def warning_draw(*args, **kwargs):
        np.log(np.zeros(1))  # a divide-by-zero RuntimeWarning, an error under pytest
        return draw(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "draw_trial_batch", warning_draw)
    cfgs = [make_cfg(), make_cfg(lambda_s=100.0)]
    calls = [
        lambda: mc_weighted_sum_rate(cfgs[0], "max_wsr", 300, 0),
        lambda: mc_weighted_sum_ser(cfgs, "serial_max", 300, 0),
        lambda: mc_p_not(cfgs[0], 300, 0),
        lambda: montecarlo.mc_empirical_cdfs(cfgs, 300, 0, [np.ones(2)] * 2),
    ]
    for call in calls:
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            call()
        with np.errstate(divide="ignore"):  # the caller's error state holds in each task
            call()


def test_point_lists_return_one_estimate_per_point():
    cfgs = [make_cfg(lambda_s=lam) for lam in (1.0, 100.0)]
    for policy in montecarlo.POLICIES:
        many = mc_weighted_sum_rate(cfgs, policy, 200, 4)
        assert many == [mc_weighted_sum_rate(cfg, policy, 200, 4) for cfg in cfgs]
        with pytest.raises(ValueError, match="one array size"):
            mc_weighted_sum_rate([make_cfg(), make_cfg(n_a=2, n_b=4)], policy, 10, 0)
    assert mc_p_not(cfgs, 200, 4) == [mc_p_not(cfg, 200, 4) for cfg in cfgs]
    with pytest.raises(ValueError, match="one array size"):
        mc_p_not([make_cfg(), make_cfg(n_a=2, n_b=4)], 10, 0)
    with pytest.raises(ValueError, match="one grid per config"):
        montecarlo.mc_empirical_cdfs(cfgs, 10, 0, [np.ones(3)])


def test_an_empty_point_list_is_refused():
    calls = [
        lambda: mc_weighted_sum_rate([], "serial_max", 10, 1),
        lambda: mc_weighted_sum_ser([], "max_wsr", 10, 1),
        lambda: mc_p_not([], 10, 1),
        lambda: montecarlo.mc_empirical_cdfs([], 10, 1, []),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="give at least one config"):
            call()


@pytest.mark.parametrize("snr_db", [27.0, 30.0, 40.0])
def test_high_snr_ser_point_matches_fsum_oracle(snr_db):
    # at eta = 0 the per-trial SERs underflow: at 27 dB about 47 % are 0
    # and 0.8 % subnormal; at 40 dB all 20,000 are 0
    cfg = make_cfg(lambda_s=10.0 ** (snr_db / 10.0), eta=0.0)
    assert_shared_matches_oracle([cfg], 20_000, 5, "ser")


def sum_outcome(fsum, x):
    """The sum's bits, or the type of error it raises."""
    try:
        return bits(fsum(x))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def bucket_fill_case():
    """2**20 + 5 copies of big, a 26-bit value, their negated sum and two
    values with a bit at 2**-16: the total is tiny_a + tiny_b, so a
    partial sum that rounds away a low bit moves the result."""
    big = (2.0**26 - 1.0) * 2.0**-9
    tiny_a = (1.0 + 2.0**-25) * 2.0**9
    tiny_b = (1.0 + 2.0**-25) * 2.0
    copies = 2**20 + 5
    return np.concatenate([[tiny_b], np.full(copies, big), [-copies * big, tiny_a]])


def bucket_zero_mix():
    """Full-mantissa normals near 2**-1016 and their negations, shuffled
    with odd multiples of 2**-1074, which are subnormal."""
    rng = np.random.default_rng(0)
    normals = (2**52 + rng.integers(0, 2**51, 1000) * 2 + 1) * 2.0**-1068
    odd = (2 * rng.integers(0, 2**40, 1000) + 1) * 2.0**-1074
    x = np.concatenate([normals, -normals, odd * rng.choice([-1.0, 1.0], 1000)])
    rng.shuffle(x)
    return x


def odd_mantissas(rng, k):
    """k odd 53-bit integers, as floats."""
    return (2**52 + rng.integers(0, 2**51, k) * 2 + 1).astype(float)


def lo_only_in_bucket_0():
    """Values a, subnormal multiples of 2**-1066, and b, normal multiples
    of 2**-1041 of either sign, shuffled with each value rounded to its
    top 26 bits and negated: the total is that of the low bits, a's
    subnormal, b's larger, so summing them in one float would round a's
    bits away."""
    rng = np.random.default_rng(1)
    a = odd_mantissas(rng, 1000) * 2.0**-1066
    b = odd_mantissas(rng, 1000) * 2.0**-1041 * rng.choice([-1.0, 1.0], 1000)
    ab = np.concatenate([a, b])
    hi = ab * (2.0**27 + 1.0)
    hi -= hi - ab
    x = np.concatenate([ab, -hi])
    rng.shuffle(x)
    return x


def nothing_in_bucket_0():
    """Values in [1, 2) and most of their negations: no value is zero or
    subnormal, and seven survive the cancellation."""
    rng = np.random.default_rng(2)
    x = odd_mantissas(rng, 1000) * 2.0**-52
    x = np.concatenate([x, -x[:-7]])
    rng.shuffle(x)
    return x


def subnormal_mixed():
    """5000 odd multiples of 2**-1074 of either sign mixed with normals of
    every scale, some of which cancel."""
    rng = np.random.default_rng(3)
    odd = (2 * rng.integers(0, 2**51, 5000) + 1) * 2.0**-1074 * rng.choice([-1.0, 1.0], 5000)
    normals = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    mixed = np.concatenate([odd, normals, -normals[:100], odd[:50]])
    rng.shuffle(mixed)
    return mixed


def tiny_mixed():
    """3000 odd multiples of 2**-1074 and 3000 values of every scale below
    2**-1030, of either sign, some of which cancel: each block is split
    scaled up, and its low part rounds as it is scaled back."""
    rng = np.random.default_rng(4)
    odd = (2 * rng.integers(0, 2**51, 3000) + 1) * 2.0**-1074 * rng.choice([-1.0, 1.0], 3000)
    small = rng.uniform(-1.0, 1.0, 3000) * 2.0 ** rng.integers(-1073, -1030, 3000)
    mixed = np.concatenate([odd, small, -small[:100]])
    rng.shuffle(mixed)
    return mixed


HUGE_BELOW, HUGE_ABOVE = (math.nextafter(2.0**996, t) for t in (0.0, math.inf))
EXACT_SUM_CASES = {
    "bucket-fill": bucket_fill_case,
    "bucket-0-mix": bucket_zero_mix,
    "lo-only-in-bucket-0": lo_only_in_bucket_0,
    "nothing-in-bucket-0": nothing_in_bucket_0,
    # a point whose mean is near 1e-160 has subnormal squared deviations
    "subnormal-equal": lambda: np.full(2**16, (2**52 - 1) * 2.0**-1074),
    "subnormal-mixed": subnormal_mixed,
    "tiny-mixed": tiny_mixed,
    "huge-1ulp-below": lambda: np.array([HUGE_BELOW, 1.0, -HUGE_BELOW, 2.0**-1074]),
    "huge": lambda: np.array([2.0**996, 1.0, -(2.0**996), 2.0**-1074]),
    "huge-1ulp-above": lambda: np.array([-HUGE_ABOVE, 1.0, HUGE_ABOVE, -(2.0**-1074)]),
    "empty": lambda: np.array([]),
    "negative-zero": lambda: np.array([-0.0]),
    "inf": lambda: np.array([math.inf]),
    "nan": lambda: np.array([math.nan]),
    "opposite-infinities": lambda: np.array([math.inf, -math.inf]),
}


def certified_sum(pieces):
    """The estimators' total of consecutive pieces, each summed as a block."""
    return montecarlo._total([montecarlo._certified_parts(p) for p in pieces], lambda: pieces)


@contextmanager
def fsum_fallbacks():
    """A list that counts the calls of math.fsum on anything but a list:
    _total sums lists of parts, and falls back to an iterator over the
    values."""
    fallbacks = []
    with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
        yield fallbacks
    fallbacks.extend(c for c in fsum.call_args_list if not isinstance(c.args[0], list))


@pytest.mark.parametrize("case", sorted(EXACT_SUM_CASES))
def test_exact_sum_matches_fsum_on_edge_cases(case):
    x = EXACT_SUM_CASES[case]()
    # as one block, and cut into three
    for pieces in ([x], np.array_split(x, 3)):
        assert sum_outcome(lambda _: certified_sum(pieces), x) == sum_outcome(math.fsum, x)


@st.composite
def certified_arrays(draw):
    """Values up to 10**k, k in [-300, 300]: of either sign, or positive in
    a narrow band below 10**k, mixed with zeros and subnormals; at will a
    few values dominant over the rest, a NaN or an infinity, and a mirror
    image that cancels all but three values.  No running sum of fsum leaves
    the float range."""
    k = draw(st.integers(-300, 300))
    top = 10.0**k
    floor = top * draw(st.sampled_from([0.0, 1e-3, 1e-12]))
    elements = st.one_of(st.floats(floor, top) if floor else st.floats(-top, top),
                         st.sampled_from([0.0, -0.0]), st.floats(-(2.0**-1022), 2.0**-1022))
    x = draw(hnp.arrays(np.float64, st.integers(0, 2000), elements=elements)).tolist()
    dominant = st.builds(lambda e, sign: sign * 10.0**e, st.integers(k, 300),
                         st.sampled_from([-1.0, 1.0]))
    for value in draw(st.lists(st.one_of(dominant, st.sampled_from([math.nan, math.inf, -math.inf])),
                               max_size=2)):
        x.insert(draw(st.integers(0, len(x))), value)
    if draw(st.booleans()):
        x += [-v for v in x[::-1][: max(len(x) - 3, 0)]]
    return np.array(x, dtype=float)


@settings(max_examples=300, deadline=None)
@given(x=certified_arrays(), cuts=st.lists(st.integers(0, 4500), max_size=5))
def test_certified_sum_matches_fsum(x, cuts):
    # blocks cut anywhere merge to math.fsum of all the values, bit for bit,
    # whether each total is certified or falls back to math.fsum
    pieces = np.split(x, sorted(cuts))
    assert sum_outcome(lambda _: certified_sum(pieces), x) == sum_outcome(math.fsum, x)


@pytest.mark.parametrize("pieces", [[[1.0, 2.0**-53]], [[1.0], [2.0**-53]],
                                    [[3.0, -(2.0**-52)], [2.0**-51]]])
def test_certified_sum_falls_back_at_a_rounding_midpoint(pieces):
    # each exact total lies halfway between two floats, so no error bound
    # certifies the parts' rounded sum: the exact sums decide, as fsum does
    pieces = [np.array(p) for p in pieces]
    x = np.concatenate(pieces)
    assert math.fsum(x) != sum(Fraction(v) for v in x.tolist())
    expected = bits(math.fsum(x))
    with fsum_fallbacks() as fallbacks:
        assert bits(certified_sum(pieces)) == expected
    assert len(fallbacks) == 1


def test_certified_sums_need_no_fallback_on_a_serial_max_sweep():
    # every total of a fixed 3x3 Serial-Max rate sweep is certified: were
    # certification off, the output would not change but every total
    # would fall back to math.fsum of the values
    cfgs = [make_cfg(lambda_s=10.0 ** (snr_db / 10.0), eta=eta)
            for eta in (0.0, 0.02, 0.1) for snr_db in (0.0, 20.0, 40.0)]
    with fsum_fallbacks() as fallbacks, \
            mock.patch.object(montecarlo, "_certified_parts",
                              wraps=montecarlo._certified_parts) as certified:
        estimates = mc_weighted_sum_rate(cfgs, "serial_max", 20_000, 3)
    assert not fallbacks
    assert certified.call_count >= len(cfgs)
    for cfg, est in zip(cfgs, estimates):
        assert (bits(est.value), bits(est.std_error)) == tuple(
            map(bits, per_point_estimate(cfg, 20_000, 3, "rate"))), cfg


def test_a_block_of_tiny_values_is_certified_without_a_redraw(monkeypatch):
    # at 40 dB and eta = 0 one 32,768-trial block of this 3x3 SER point
    # peaks near 2.6e-299, below _EXTRACT_MIN: split as its values times a
    # power of two, it is certified, and the point is not drawn again
    certify, peaks = montecarlo._certified_parts, []
    monkeypatch.setattr(montecarlo, "_certified_parts",
                        lambda x: peaks.append(np.abs(x).max()) or certify(x))
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    cfg, trials = make_cfg(lambda_s=1e4, eta=0.0), (1 << 17) + (1 << 13)
    with fsum_fallbacks() as fallbacks:
        est = mc_weighted_sum_ser(cfg, "serial_max", trials, 7)
    assert any(0 < m <= montecarlo._EXTRACT_MIN for m in peaks)
    assert not fallbacks
    assert (bits(est.value), bits(est.std_error)) == tuple(
        map(bits, per_point_estimate(cfg, trials, 7, "ser")))


def test_certificate_failures_redraw_the_point_in_trial_order(monkeypatch):
    # with no block certified, each point's mean is math.fsum of its values
    # drawn again in trial order, once per point, and the bits are those of
    # the oracle; the standard error needs no sum certified
    cfgs = [make_cfg(lambda_s=lam, eta=eta) for lam, eta in ((10.0, 0.1), (1e4, 0.0))]
    monkeypatch.setattr(montecarlo, "_CHUNK", 97)
    monkeypatch.setattr(montecarlo, "_certified_parts", lambda x: None)
    for policy in ("serial_max", "min_wser"):
        with fsum_fallbacks() as fallbacks:
            estimates = mc_weighted_sum_ser(cfgs, policy, 1000, 9)
        assert len(fallbacks) == len(cfgs)
        for cfg, est in zip(cfgs, estimates):
            assert (bits(est.value), bits(est.std_error)) == tuple(
                map(bits, per_point_estimate(cfg, 1000, 9, "ser", policy))), cfg


def test_the_pool_is_made_on_first_use_and_again_for_a_new_worker_count(monkeypatch):
    monkeypatch.setattr(montecarlo, "_POOL", {})
    cfg = make_cfg()
    expected = mc_weighted_sum_rate(cfg, "max_wsr", 3000, 2)
    pools = []
    for workers in (1, 3, 3):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        assert mc_weighted_sum_rate(cfg, "max_wsr", 3000, 2) == expected
        ((count, pool),) = montecarlo._POOL.items()
        assert count == workers
        pools.append(pool)
    assert pools[0] is not pools[1] and pools[1] is pools[2]


def test_callers_on_several_threads_share_the_pool(monkeypatch):
    # more workers than cores and a short switch interval: calls from
    # several threads at once interleave their tasks on the one pool, and
    # each gets the bits it gets alone
    monkeypatch.setattr(montecarlo, "_CHUNK", 97)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 8)
    cfgs = [make_cfg(lambda_s=lam, eta=eta) for lam, eta in ((10.0, 0.1), (1e4, 0.0))]
    calls = [lambda seed=seed: estimator_outputs(cfgs, 500, seed) for seed in range(4)]
    expected = [call() for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(call) for call in calls]
            outputs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert outputs == expected


def test_a_forked_child_runs_an_estimator(monkeypatch):
    # the child has none of the parent's pool threads: it makes a pool of
    # its own and gets the parent's bits
    cfg = make_cfg()
    expected = mc_weighted_sum_ser(cfg, "min_wser", 20_000, 4)
    assert montecarlo._POOL
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = not montecarlo._POOL and mc_weighted_sum_ser(cfg, "min_wser", 20_000, 4) == expected
        finally:
            os._exit(0 if ok else 1)  # never back into the parent's test run
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


PEAK_RSS = """
import resource, sys
from fdlink import SystemConfig, mc_weighted_sum_rate, montecarlo
assert not montecarlo._POOL  # no pool, and no thread, at import
cfg = SystemConfig(n_a=3, n_b=3, lambda_s=10.0, eta=0.05, w=0.7)
mc_weighted_sum_rate(cfg, "serial_max", int(sys.argv[1]), 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_peak_memory_does_not_grow_with_the_trial_count():
    # each task keeps only its own block: no array holds every trial
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    peaks = [int(subprocess.run([sys.executable, "-c", PEAK_RSS, str(trials)], env=env, check=True,
                                capture_output=True, text=True).stdout) / 1024
             for trials in (10**5, 2 * 10**6)]
    assert abs(peaks[1] - peaks[0]) < 15.0, peaks
