"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Each chunk of trials is one draw_trial_batch call, addressed by its
first trial index, so a run is reproducible bitwise for a fixed (seed,
trials) and independent of chunking.  Antenna pairs are chosen by the
batched kernels of fdlink.selection, which also supplies the per-link
rate and SER maps.  Per-trial metric values are reduced with math.fsum,
which returns the correctly rounded true sum, so any evaluation order
gives the identical result.

The SER estimator averages the conditional SER alpha*Q(sqrt(beta*gamma))
over channel and interference draws; no symbol-level noise is simulated.
The residual-INR draws enter only the metric, never the selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import draw_trial_batch, instantaneous_sinr, to_obtainable_sinr
from .config import SystemConfig, derived_params
from .selection import _exhaustive_positions, _serial_max_positions, rate_map, ser_map

_CHUNK = 1 << 17

POLICIES = ("max_wsr", "min_wser", "serial_max")


@dataclass(frozen=True)
class MetricEstimate:
    value: float
    std_error: float
    trials: int
    master_seed: int


@dataclass(frozen=True)
class EmpiricalCdf:
    grid: np.ndarray
    probabilities: np.ndarray


def _trial_sinrs(
    snr: np.ndarray,
    inr_a: np.ndarray,
    inr_b: np.ndarray,
    cfg: SystemConfig,
    policy: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous SINRs (gamma_ab, gamma_ba) of the selected links.

    Selection sees only the obtainable-SINR matrix; the residual-INR
    draws are applied afterwards, to the SNR of the chosen entries.
    """
    g = to_obtainable_sinr(snr, derived_params(cfg))
    flat_snr = snr.reshape(snr.shape[0], -1)
    if policy == "serial_max":
        idx1, idx2, _ = _serial_max_positions(g)
        ab, ba = (idx1, idx2) if cfg.w >= 0.5 else (idx2, idx1)
    elif policy == "max_wsr":
        ab, ba = _exhaustive_positions(g, cfg.w, "rate", None)
    elif policy == "min_wser":
        ab, ba = _exhaustive_positions(g, cfg.w, "ser", cfg.modulation)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    rows = np.arange(snr.shape[0])
    return (instantaneous_sinr(flat_snr[rows, ab], inr_b),
            instantaneous_sinr(flat_snr[rows, ba], inr_a))


def _iter_chunks(trials: int):
    start = 0
    while start < trials:
        yield start, min(_CHUNK, trials - start)
        start += _CHUNK


def _estimate_from_values(values: np.ndarray, trials: int, seed: int) -> MetricEstimate:
    total = math.fsum(values)
    mean = total / trials
    if trials > 1:
        sq = math.fsum((values - mean) ** 2)
        std_error = math.sqrt(sq / (trials - 1)) / math.sqrt(trials)
    else:
        std_error = 0.0
    return MetricEstimate(value=mean, std_error=std_error, trials=trials, master_seed=seed)


def _mc_weighted_sum(
    cfg: SystemConfig, policy: str, trials: int, seed: int, metric: str
) -> MetricEstimate:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lambda_i = cfg.eta * cfg.lambda_s
    link = rate_map if metric == "rate" else (lambda g: ser_map(g, cfg.modulation))
    parts = []
    for start, count in _iter_chunks(trials):
        snr, inr_a, inr_b = draw_trial_batch(seed, start, count, cfg, lambda_i)
        gamma_ab, gamma_ba = _trial_sinrs(snr, inr_a, inr_b, cfg, policy)
        parts.append(cfg.w * link(gamma_ab) + (1.0 - cfg.w) * link(gamma_ba))
    return _estimate_from_values(np.concatenate(parts), trials, seed)


def mc_weighted_sum_rate(
    cfg: SystemConfig, policy: str, trials: int, seed: int
) -> MetricEstimate:
    """Monte Carlo average of w*R(gamma_AB) + (1-w)*R(gamma_BA)."""
    return _mc_weighted_sum(cfg, policy, trials, seed, "rate")


def mc_weighted_sum_ser(
    cfg: SystemConfig, policy: str, trials: int, seed: int
) -> MetricEstimate:
    """Monte Carlo average of w*SER(gamma_AB) + (1-w)*SER(gamma_BA)."""
    return _mc_weighted_sum(cfg, policy, trials, seed, "ser")


def mc_empirical_cdfs(
    cfg: SystemConfig, which: tuple[str, ...], trials: int, seed: int, grid: np.ndarray
) -> list[EmpiricalCdf]:
    """Empirical CDFs of the Serial-Max instantaneous SINRs named in which
    ("gamma_ab", "gamma_ba"), all from one draw and selection per chunk."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be one-dimensional and ascending")
    for name in which:
        if name not in ("gamma_ab", "gamma_ba"):
            raise ValueError(f"which must be 'gamma_ab' or 'gamma_ba', got {name!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lambda_i = cfg.eta * cfg.lambda_s
    counts = np.zeros((len(which), grid.size), dtype=np.int64)
    for start, count in _iter_chunks(trials):
        snr, inr_a, inr_b = draw_trial_batch(seed, start, count, cfg, lambda_i)
        gamma_ab, gamma_ba = _trial_sinrs(snr, inr_a, inr_b, cfg, "serial_max")
        for row, name in zip(counts, which):
            samples = np.sort(gamma_ab if name == "gamma_ab" else gamma_ba)
            row += np.searchsorted(samples, grid, side="right")
    return [EmpiricalCdf(grid=grid, probabilities=row / trials) for row in counts]


def mc_empirical_cdf(
    cfg: SystemConfig, which: str, trials: int, seed: int, grid: np.ndarray
) -> EmpiricalCdf:
    """Empirical CDF of the Serial-Max instantaneous SINR gamma_AB or gamma_BA."""
    return mc_empirical_cdfs(cfg, (which,), trials, seed, grid)[0]


def mc_p_not(cfg: SystemConfig, trials: int, seed: int) -> MetricEstimate:
    """Frequency of trials where exhaustive Max-WSR strictly beats Serial-Max.

    'Strictly' means the exhaustive weighted-rate objective exceeds the
    Serial-Max one by more than 1e-12 relative.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    derived = derived_params(cfg)
    misses = 0
    wmax, wmin = max(cfg.w, 1.0 - cfg.w), min(cfg.w, 1.0 - cfg.w)
    for start, count in _iter_chunks(trials):
        snr, _, _ = draw_trial_batch(seed, start, count, cfg, derived.lambda_i)
        g = to_obtainable_sinr(snr, derived)
        t = g.shape[0]
        ab, ba = _exhaustive_positions(g, cfg.w, "rate", None)
        flat_r = rate_map(g).reshape(t, -1)
        rows = np.arange(t)
        exh = cfg.w * flat_r[rows, ab] + (1.0 - cfg.w) * flat_r[rows, ba]
        idx1, idx2, _ = _serial_max_positions(g)
        ser_obj = wmax * flat_r[rows, idx1] + wmin * flat_r[rows, idx2]
        misses += int(np.count_nonzero(exh - ser_obj > 1e-12 * np.abs(exh)))
    p = misses / trials
    std_error = math.sqrt(p * (1.0 - p) / trials)
    return MetricEstimate(value=p, std_error=std_error, trials=trials, master_seed=seed)
