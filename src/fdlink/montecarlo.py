"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Trials are drawn in vectorized chunks from counter-based substreams, so a
run is reproducible bitwise for a fixed (seed, trials) and independent of
chunking.  Per-trial metric values are reduced with math.fsum, which
returns the correctly rounded true sum, so any evaluation order gives the
identical result.

The SER estimator averages the conditional SER alpha*Q(sqrt(beta*gamma))
over channel and interference draws; no symbol-level noise is simulated.
The residual-INR draws enter only the metric, never the selection.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import erfc

from .channel import draw_trial_batch
from .config import ModulationParams, SystemConfig, derived_params
from .selection import (
    _feasible_pairs,
    rate_map,
    ser_map,
)

_CHUNK = 1 << 17

POLICIES = ("max_wsr", "min_wser", "serial_max")


@dataclass(frozen=True)
class MetricEstimate:
    value: float
    std_error: float
    trials: int
    master_seed: int

    def to_record(self, metric: str, policy: str, cfg: SystemConfig) -> dict:
        return {
            "metric": metric,
            "policy": policy,
            "cfg": asdict(cfg),
            "value": self.value,
            "std_error": self.std_error,
            "trials": self.trials,
            "seed": self.master_seed,
        }

    def to_json(self, metric: str, policy: str, cfg: SystemConfig) -> str:
        return json.dumps(self.to_record(metric, policy, cfg))


@dataclass(frozen=True)
class EmpiricalCdf:
    grid: np.ndarray
    probabilities: np.ndarray


def rate_of(gamma: float) -> float:
    """Instantaneous rate log2(1 + gamma)."""
    return rate_map(gamma)


def ser_of(gamma: float, mod: ModulationParams) -> float:
    """Conditional SER alpha * Q(sqrt(beta * gamma))."""
    return ser_map(gamma, mod)


def _rate_arr(gamma: np.ndarray) -> np.ndarray:
    return np.log2(1.0 + gamma)


def _ser_arr(gamma: np.ndarray, mod: ModulationParams) -> np.ndarray:
    return mod.alpha_mod * 0.5 * erfc(np.sqrt(mod.beta_mod * gamma / 2.0))


def _serial_max_positions(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (first, second) flat argmax positions of (T, n_a, n_b) matrices."""
    t, n_a, n_b = g.shape
    flat = g.reshape(t, n_a * n_b)
    idx1 = np.argmax(flat, axis=1)
    i1, j1 = np.divmod(idx1, n_b)
    rows = np.arange(n_a)[None, :, None]
    cols = np.arange(n_b)[None, None, :]
    masked = np.where(
        (rows == i1[:, None, None]) | (cols == j1[:, None, None]), -np.inf, g
    )
    idx2 = np.argmax(masked.reshape(t, n_a * n_b), axis=1)
    return idx1, idx2


def _combo_arrays(n_a: int, n_b: int):
    combos = np.array(list(_feasible_pairs(n_a, n_b)))
    return combos[:, 0], combos[:, 1], combos[:, 2], combos[:, 3]


def _exhaustive_positions(
    g: np.ndarray, w: float, metric: str, mod: ModulationParams | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (ab, ba) flat positions of the best feasible pair."""
    t, n_a, n_b = g.shape
    i_t, j_r, i_r, j_t = _combo_arrays(n_a, n_b)
    if metric == "rate":
        per_link = _rate_arr(g)
        sign = 1.0
    else:
        per_link = _ser_arr(g, mod)
        sign = -1.0  # argmax of the negated objective = argmin
    obj = w * per_link[:, i_t, j_r] + (1.0 - w) * per_link[:, i_r, j_t]
    best = np.argmax(sign * obj, axis=1)
    ab = i_t[best] * n_b + j_r[best]
    ba = i_r[best] * n_b + j_t[best]
    return ab, ba


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
    scale = derived_params(cfg).scale
    g = snr * scale
    t = snr.shape[0]
    flat_snr = snr.reshape(t, -1)
    if policy == "serial_max":
        idx1, idx2 = _serial_max_positions(g)
        ab, ba = (idx1, idx2) if cfg.w >= 0.5 else (idx2, idx1)
    elif policy == "max_wsr":
        ab, ba = _exhaustive_positions(g, cfg.w, "rate", None)
    elif policy == "min_wser":
        ab, ba = _exhaustive_positions(g, cfg.w, "ser", cfg.modulation)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    rows = np.arange(t)
    gamma_ab = flat_snr[rows, ab] / (inr_b + 1.0)
    gamma_ba = flat_snr[rows, ba] / (inr_a + 1.0)
    return gamma_ab, gamma_ba


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
    parts = []
    for start, count in _iter_chunks(trials):
        snr, inr_a, inr_b = draw_trial_batch(seed, start, count, cfg, lambda_i)
        gamma_ab, gamma_ba = _trial_sinrs(snr, inr_a, inr_b, cfg, policy)
        if metric == "rate":
            vals = cfg.w * _rate_arr(gamma_ab) + (1.0 - cfg.w) * _rate_arr(gamma_ba)
        else:
            vals = cfg.w * _ser_arr(gamma_ab, cfg.modulation) + (1.0 - cfg.w) * _ser_arr(
                gamma_ba, cfg.modulation
            )
        parts.append(vals)
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


def mc_empirical_cdf(
    cfg: SystemConfig, which: str, trials: int, seed: int, grid: np.ndarray
) -> EmpiricalCdf:
    """Empirical CDF of the Serial-Max instantaneous SINR gamma_AB or gamma_BA."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be one-dimensional and ascending")
    if which not in ("gamma_ab", "gamma_ba"):
        raise ValueError(f"which must be 'gamma_ab' or 'gamma_ba', got {which!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lambda_i = cfg.eta * cfg.lambda_s
    counts = np.zeros(grid.size, dtype=np.int64)
    for start, count in _iter_chunks(trials):
        snr, inr_a, inr_b = draw_trial_batch(seed, start, count, cfg, lambda_i)
        gamma_ab, gamma_ba = _trial_sinrs(snr, inr_a, inr_b, cfg, "serial_max")
        samples = np.sort(gamma_ab if which == "gamma_ab" else gamma_ba)
        counts += np.searchsorted(samples, grid, side="right")
    return EmpiricalCdf(grid=grid, probabilities=counts / trials)


def mc_p_not(cfg: SystemConfig, trials: int, seed: int) -> MetricEstimate:
    """Frequency of trials where exhaustive Max-WSR strictly beats Serial-Max.

    'Strictly' means the exhaustive weighted-rate objective exceeds the
    Serial-Max one by more than 1e-12 relative.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lambda_i = cfg.eta * cfg.lambda_s
    scale = derived_params(cfg).scale
    misses = 0
    wmax, wmin = max(cfg.w, 1.0 - cfg.w), min(cfg.w, 1.0 - cfg.w)
    for start, count in _iter_chunks(trials):
        snr, _, _ = draw_trial_batch(seed, start, count, cfg, lambda_i)
        g = snr * scale
        t = g.shape[0]
        ab, ba = _exhaustive_positions(g, cfg.w, "rate", None)
        flat_r = _rate_arr(g).reshape(t, -1)
        rows = np.arange(t)
        exh = cfg.w * flat_r[rows, ab] + (1.0 - cfg.w) * flat_r[rows, ba]
        idx1, idx2 = _serial_max_positions(g)
        ser_obj = wmax * flat_r[rows, idx1] + wmin * flat_r[rows, idx2]
        misses += int(np.count_nonzero(exh - ser_obj > 1e-12 * np.abs(exh)))
    p = misses / trials
    std_error = math.sqrt(p * (1.0 - p) / trials)
    return MetricEstimate(value=p, std_error=std_error, trials=trials, master_seed=seed)
