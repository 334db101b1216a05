"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (visible even under pytest capture) with the measured
quantities and the pinned tolerance.

Oracles here are deliberately independent of the library internals under
test: plain numpy sampling with its default generator, scipy adaptive
quadrature over the defining integrals, and mpmath high-precision sums
where double-precision CDF evaluation would dominate the error budget.
"""

import itertools
import math
import time

import conftest
import mpmath
import numpy as np
import pytest

from fdlink import (
    BPSK,
    SystemConfig,
    asymptotic_ser_perfect_cancellation,
    avg_rate_ab,
    avg_rate_ba,
    avg_ser_ab,
    avg_ser_ba,
    avg_weighted_sum_rate,
    avg_weighted_sum_ser,
    comparison_count,
    e1,
    exp_e1_scaled,
    mc_p_not,
    mc_weighted_sum_rate,
    mc_weighted_sum_ser,
    mixture_weights,
    mu_coefficient,
    p_not_upper_bound,
    q_function,
    quadrature_avg_rate,
    quadrature_avg_ser,
    rate_ceiling,
    ser_floor,
    serial_max,
    validate_config,
    with_lambda_s,
)
from fdlink import montecarlo
from fdlink.analytic import cdf_gamma_ab, cdf_gamma_ba
from fdlink.cli import preset, run_sweep
from fdlink.montecarlo import _chunk_picks, _point_sinrs
from fdlink.selection import candidates, select


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {title}: {verdict} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {detail}"


def make_cfg(n_a, n_b, lambda_s, eta, w=0.7):
    return validate_config(SystemConfig(n_a=n_a, n_b=n_b, lambda_s=lambda_s, eta=eta, w=w))


# -- high-precision CDF oracles (needed where the average SER is so small
#    that double-precision CDF noise exceeds 1e-8 relative of the result)


def hp_cdf_ab(cfg):
    nn = cfg.nn

    def f(x):
        with mpmath.workdps(40):
            lam, eta, xm = mpmath.mpf(cfg.lambda_s), mpmath.mpf(cfg.eta), mpmath.mpf(x)
            return float(mpmath.fsum(
                (-1) ** k * math.comb(nn, k) * mpmath.exp(-k * xm / lam) / (k * eta * xm + 1)
                for k in range(nn + 1)
            ))

    return f


def hp_cdf_ba(cfg):
    nn, n_a, n_b = cfg.nn, cfg.n_a, cfg.n_b
    triples = [
        ((-1) ** m * mu_coefficient(k, l, m, n_a, n_b), nn - l + m)
        for k in range(1, n_a + n_b)
        for l in range(nn - k, nn + 1)
        for m in range(l + 1)
    ]

    def f(x):
        with mpmath.workdps(40):
            lam, eta, xm = mpmath.mpf(cfg.lambda_s), mpmath.mpf(cfg.eta), mpmath.mpf(x)
            return float(mpmath.fsum(
                coef * mpmath.exp(-c * xm / lam) / (c * eta * xm + 1)
                for coef, c in triples
            ))

    return f


def vec_cdf_ab(cfg, x):
    """Vectorized double-precision first-link CDF over an array x."""
    nn = cfg.nn
    total = np.zeros_like(x)
    for k in range(nn + 1):
        total += (
            (-1.0) ** k
            * math.comb(nn, k)
            * np.exp(-k * x / cfg.lambda_s)
            / (k * cfg.eta * x + 1.0)
        )
    return np.clip(total, 0.0, 1.0)


def vec_cdf_ba(cfg, x):
    nn, n_a, n_b = cfg.nn, cfg.n_a, cfg.n_b
    total = np.zeros_like(x)
    for k in range(1, n_a + n_b):
        for l in range(nn - k, nn + 1):
            for m in range(l + 1):
                c = nn - l + m
                total += (
                    (-1.0) ** m
                    * mu_coefficient(k, l, m, n_a, n_b)
                    * np.exp(-c * x / cfg.lambda_s)
                    / (c * cfg.eta * x + 1.0)
                )
    return np.clip(total, 0.0, 1.0)


def test_criterion_01_two_step_selection_equivalence():
    start = time.perf_counter()
    trials, w = 100_000, 0.7
    rng = np.random.default_rng(20260823)
    g = rng.exponential(1.0, (trials, 3, 3))
    flat = g.reshape(trials, -1)
    rows = np.arange(trials)

    idx1, idx2 = candidates(g, "serial_max")
    g1, g2 = flat[rows, idx1], flat[rows, idx2]
    rank = 1 + (flat > g2[:, None]).sum(axis=1)
    sel = (rank >= 2) & (rank <= 3)

    rate = np.log2(1.0 + flat)
    ser = 0.5 * np.array([math.erfc(v) for v in np.sqrt(flat).ravel()]).reshape(flat.shape)
    serial_rate = w * np.log2(1 + g1) + (1 - w) * np.log2(1 + g2)
    serial_ser = w * 0.5 * np.vectorize(math.erfc)(np.sqrt(g1)) + (1 - w) * 0.5 * np.vectorize(
        math.erfc
    )(np.sqrt(g2))

    ab, ba = select(g, w, "max_wsr", None)
    exh_rate = w * rate[rows, ab] + (1 - w) * rate[rows, ba]
    ab, ba = select(g, w, "min_wser", BPSK)
    exh_ser = w * ser[rows, ab] + (1 - w) * ser[rows, ba]

    rate_gap = np.max(np.abs(serial_rate[sel] - exh_rate[sel]) / exh_rate[sel])
    ser_gap = np.max(np.abs(serial_ser[sel] - exh_ser[sel]) / exh_ser[sel])
    elapsed = time.perf_counter() - start
    ok = rate_gap <= 1e-12 and ser_gap <= 1e-12 and elapsed < 30
    _report(
        1,
        "two-step selection optimal when second link ranks 2-3",
        ok,
        f"{sel.sum()} of {trials} eligible trials, max rel gap rate={rate_gap:.2e} "
        f"ser={ser_gap:.2e} (tol 1e-12), {elapsed:.1f}s < 30s",
    )


def test_criterion_02_suboptimality_probability_bound():
    start = time.perf_counter()
    trials = 100_000
    values, bounds = [], []
    for n in (2, 3, 4, 5):
        cfg = make_cfg(n, n, 10.0, 0.05)
        est = mc_p_not(cfg, trials, 2026)
        bound = p_not_upper_bound(n, n)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        values.append(est.value)
        bounds.append(bound + 3 * sigma)
    elapsed = time.perf_counter() - start
    within = all(v <= b for v, b in zip(values, bounds))
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    ok = within and decreasing and elapsed < 120
    _report(
        2,
        "suboptimality frequency bounded and decreasing",
        ok,
        f"p_not={['%.4f' % v for v in values]} vs bounds+3sigma="
        f"{['%.4f' % b for b in bounds]}, {elapsed:.1f}s < 120s",
    )


def test_criterion_03_sinr_cdfs_match_sampling():
    trials = 100_000
    worst = 0.0
    for cfg in (make_cfg(3, 3, 10.0, 0.1), make_cfg(2, 2, 100.0, 0.02)):
        gamma_ab, gamma_ba = _point_sinrs(_chunk_picks(cfg, "serial_max", 314, 0, trials), cfg)
        for samples, vec_cdf in ((gamma_ab, vec_cdf_ab), (gamma_ba, vec_cdf_ba)):
            s = np.sort(samples)
            model = vec_cdf(cfg, s)
            emp_hi = np.arange(1, trials + 1) / trials
            emp_lo = np.arange(0, trials) / trials
            ks = max(np.max(np.abs(emp_hi - model)), np.max(np.abs(emp_lo - model)))
            worst = max(worst, ks)
    ok = worst <= 0.006
    _report(3, "selected-link SINR CDFs match sampling", ok,
            f"worst KS distance {worst:.4f} <= 0.006 at 1e5 samples")


def test_criterion_04_second_link_rank_mixture():
    p22 = mixture_weights(2, 2).p
    exact = np.all(p22 == 1.0 / 3.0)

    trials = 1_000_000
    rng = np.random.default_rng(404)
    g = rng.exponential(1.0, (trials, 3, 3))
    flat = g.reshape(trials, -1)
    idx1, idx2 = candidates(g, "serial_max")
    second = flat[np.arange(trials), idx2]
    exceed = (flat > second[:, None]).sum(axis=1)
    p33 = mixture_weights(3, 3).p
    census_ok = True
    worst_z = 0.0
    for k in range(1, 6):
        freq = np.mean(exceed == k)
        sigma = math.sqrt(p33[k - 1] * (1 - p33[k - 1]) / trials)
        z = abs(freq - p33[k - 1]) / sigma
        worst_z = max(worst_z, z)
        census_ok &= z <= 3.0

    sums_ok = True
    for n_a in range(2, 19):
        for n_b in range(n_a, 36 // n_a + 1):
            total = math.fsum(mixture_weights(n_a, n_b).p)
            sums_ok &= abs(total - 1.0) <= 1e-12

    ok = exact and census_ok and sums_ok
    _report(4, "second-link rank mixture weights", ok,
            f"(2,2) exactly thirds: {exact}; (3,3) census worst z={worst_z:.2f} <= 3; "
            f"all mixtures sum to 1 within 1e-12: {sums_ok}")


RATE_SER_GRID = list(itertools.product((1.0, 10.0, 100.0, 1000.0), (0.02, 0.05, 0.1), (2, 3)))


def test_criterion_05_average_rate_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for lam, eta, n in RATE_SER_GRID:
        cfg = make_cfg(n, n, lam, eta)
        for closed, cdf in ((avg_rate_ab, cdf_gamma_ab), (avg_rate_ba, cdf_gamma_ba)):
            c = closed(cfg).value
            q = quadrature_avg_rate(lambda x: cdf(x, cfg))
            worst = max(worst, abs(c - q) / abs(q))
    grid_ok = worst <= 1e-8

    cfg = make_cfg(3, 3, 100.0, 0.05)
    est = mc_weighted_sum_rate(cfg, "serial_max", 1_000_000, 515)
    analytic = avg_weighted_sum_rate(cfg).value
    z = abs(est.value - analytic) / est.std_error
    elapsed = time.perf_counter() - start
    ok = grid_ok and z <= 3.0 and elapsed < 180
    _report(5, "closed-form average rates", ok,
            f"worst rel dev vs quadrature {worst:.2e} <= 1e-8 over 24-point grid; "
            f"MC agreement z={z:.2f} <= 3 at 1e6 trials; {elapsed:.0f}s < 180s")


def test_criterion_06_rate_ceiling():
    approached = []
    for eta in (0.02, 0.05, 0.1):
        cfg = make_cfg(3, 3, 1e8, eta)
        ceiling = rate_ceiling(cfg)
        rel = abs(avg_weighted_sum_rate(cfg).value - ceiling) / ceiling
        approached.append(rel)
    eta_ceilings = [rate_ceiling(make_cfg(3, 3, 10.0, eta)) for eta in (0.02, 0.05, 0.1)]
    n_ceilings = [rate_ceiling(make_cfg(n, n, 10.0, 0.02)) for n in (3, 4, 5)]
    ok = (
        max(approached) < 0.005
        and all(a > b for a, b in zip(eta_ceilings, eta_ceilings[1:]))
        and all(a < b for a, b in zip(n_ceilings, n_ceilings[1:]))
    )
    _report(6, "interference-limited rate ceiling", ok,
            f"rate at 1e8 within {max(approached):.2e} of ceiling (tol 0.005); "
            f"ceilings decrease in eta and increase in N")


def test_criterion_07_average_ser_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for lam, eta, n in RATE_SER_GRID:
        cfg = make_cfg(n, n, lam, eta)
        for closed, hp_cdf in ((avg_ser_ab, hp_cdf_ab), (avg_ser_ba, hp_cdf_ba)):
            c = closed(cfg).value
            q = quadrature_avg_ser(hp_cdf(cfg), BPSK)
            worst = max(worst, abs(c - q) / abs(q))
    grid_ok = worst <= 1e-8

    cfg = make_cfg(3, 3, 10.0, 0.1)
    est = mc_weighted_sum_ser(cfg, "serial_max", 1_000_000, 717)
    analytic = avg_weighted_sum_ser(cfg).value
    z = abs(est.value - analytic) / est.std_error
    elapsed = time.perf_counter() - start
    ok = grid_ok and z <= 3.0
    _report(7, "closed-form average SERs", ok,
            f"worst rel dev vs quadrature {worst:.2e} <= 1e-8 over 24-point grid; "
            f"MC agreement z={z:.2f} <= 3 at 1e6 trials; {elapsed:.0f}s")


def test_criterion_08_error_floor():
    approached = []
    for eta in (0.05, 0.1, 0.5):
        cfg = make_cfg(3, 3, 1e8, eta)
        floor = ser_floor(cfg)
        rel = abs(avg_weighted_sum_ser(cfg).value - floor) / floor
        approached.append(rel)
    eta_floors = [ser_floor(make_cfg(3, 3, 10.0, eta)) for eta in (0.05, 0.1, 0.5)]
    n_floors = [ser_floor(make_cfg(n, n, 10.0, 0.1)) for n in (3, 4, 5)]
    ok = (
        max(approached) < 0.005
        and all(a < b for a, b in zip(eta_floors, eta_floors[1:]))
        and all(a > b for a, b in zip(n_floors, n_floors[1:]))
    )
    _report(8, "interference-limited error floor", ok,
            f"SER at 1e8 within {max(approached):.2e} of floor (tol 0.005); "
            f"floors increase in eta and decrease in N")


def test_criterion_09_diversity_orders():
    lam_lo, lam_hi = 10**2.5, 10**3
    cfg = make_cfg(3, 3, lam_lo, 0.0)

    def weighted(c):
        return 0.7 * avg_ser_ab(c).value + 0.3 * avg_ser_ba(c).value

    slope_w = (
        math.log10(weighted(with_lambda_s(cfg, lam_hi)) / weighted(cfg))
        / (math.log10(lam_hi) - math.log10(lam_lo))
    )
    slope_ab = (
        math.log10(
            avg_ser_ab(with_lambda_s(cfg, lam_hi)).value / avg_ser_ab(cfg).value
        )
        / (math.log10(lam_hi) - math.log10(lam_lo))
    )
    high = with_lambda_s(cfg, lam_hi)
    asym_ab, asym_ba, _ = asymptotic_ser_perfect_cancellation(high, lam_hi)
    ratio_ab = avg_ser_ab(high).value / asym_ab
    ratio_ba = avg_ser_ba(high).value / asym_ba
    ok = (
        abs(slope_w + 4.0) <= 0.15
        and abs(slope_ab + 9.0) <= 0.3
        and 0.9 <= ratio_ab <= 1.1
        and 0.9 <= ratio_ba <= 1.1
    )
    _report(9, "high-SNR diversity orders and asymptotes", ok,
            f"weighted slope {slope_w:.3f} (target -4+-0.15), first-link slope "
            f"{slope_ab:.3f} (target -9+-0.3), asymptote ratios {ratio_ab:.3f}/{ratio_ba:.3f} "
            f"in [0.9, 1.1]")


def test_criterion_10_comparison_counts():
    formulas_ok = True
    for n_a in range(2, 9):
        for n_b in range(2, 9):
            formulas_ok &= (
                comparison_count("exhaustive", n_a, n_b)
                == n_a * n_b * (n_a - 1) * (n_b - 1) // 2
            )
            formulas_ok &= (
                comparison_count("serial_max", n_a, n_b)
                == 2 * n_a * n_b - n_a - n_b + 1
            )
    rng = np.random.default_rng(10)
    tally_ok = True
    for _ in range(50):
        n_a, n_b = rng.integers(2, 9, size=2)
        g = rng.exponential(1.0, (n_a, n_b))
        tally_ok &= serial_max(g, 0.7).comparisons_used == comparison_count(
            "serial_max", n_a, n_b
        )
    ok = formulas_ok and tally_ok
    _report(10, "comparison-count formulas and instrumented tally", ok,
            f"formulas exact for all 2<=n_a,n_b<=8: {formulas_ok}; "
            f"instrumented tallies match on random matrices: {tally_ok}")


def test_criterion_11_special_functions():
    with mpmath.workdps(50):
        series = -mpmath.euler - mpmath.log(1) + mpmath.fsum(
            (-1) ** (n + 1) / (n * mpmath.factorial(n)) for n in range(1, 61)
        )
    e1_err = abs(e1(1.0) - float(series))
    e1_ok = abs(e1(1.0) - 0.219383934) <= 1e-9 and e1_err <= 1e-12

    xs = np.geomspace(1e-6, 1e8, 400)
    vals = [exp_e1_scaled(x) for x in xs]
    scaled_ok = all(np.isfinite(vals)) and all(a > b for a, b in zip(vals, vals[1:]))

    q_err = abs(q_function(3.0) - 1.3499e-3)
    q_ok = q_err <= 1e-7
    ok = e1_ok and scaled_ok and q_ok
    _report(11, "special-function accuracy", ok,
            f"e1(1) vs 60-term series err {e1_err:.1e} <= 1e-12 and within 1e-9 of "
            f"0.219383934; scaled E1 finite+monotone on [1e-6, 1e8]: {scaled_ok}; "
            f"Q(3) err {q_err:.1e} <= 1e-7")


def test_criterion_12_determinism(tmp_path, monkeypatch):
    spec_a = preset("fig2", trials=300, seed=99)
    spec_a.out = str(tmp_path / "a.csv")
    run_sweep(spec_a)
    spec_b = preset("fig2", trials=300, seed=99)
    spec_b.out = str(tmp_path / "b.csv")
    run_sweep(spec_b)
    rerun_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # serial vs worker-partitioned accumulation: shrinking the chunk size
    # reorders the per-trial evaluation exactly like a parallel split would
    cfg = make_cfg(3, 3, 10.0, 0.1)
    serial = mc_weighted_sum_rate(cfg, "serial_max", 10_000, 7)
    monkeypatch.setattr(montecarlo, "_CHUNK", 997)
    split = mc_weighted_sum_rate(cfg, "serial_max", 10_000, 7)
    partition_ok = serial.value == split.value and serial.std_error == split.std_error

    ok = rerun_ok and partition_ok
    _report(12, "bitwise reproducibility", ok,
            f"preset rerun byte-identical: {rerun_ok}; chunked vs serial accumulation "
            f"bitwise equal: {partition_ok}")
