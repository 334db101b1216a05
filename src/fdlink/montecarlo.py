"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Each chunk of trials is one draw_trial_batch call, addressed by its
first trial index, so a run is reproducible bitwise for a fixed (seed,
trials) and independent of chunking.  fdlink.selection.select picks
each trial's A->B and B->A links for every policy, and the same module
supplies the per-link rate and SER maps.  Per-trial metric values are
reduced with math.fsum, which returns the correctly rounded true sum, so
any evaluation order gives the identical result.

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
from .selection import POLICIES, rate_map, select, ser_map

_CHUNK = 1 << 17


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
    ab, ba = select(g, cfg.w, policy, cfg.modulation)
    rows = np.arange(snr.shape[0])
    return (instantaneous_sinr(flat_snr[rows, ab], inr_b),
            instantaneous_sinr(flat_snr[rows, ba], inr_a))


def _chunks(cfg: SystemConfig, trials: int, seed: int):
    """(snr, inr_a, inr_b) of trials 0..trials-1, one draw_trial_batch
    call per chunk of at most _CHUNK trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lambda_i = cfg.eta * cfg.lambda_s
    for start in range(0, trials, _CHUNK):
        yield draw_trial_batch(seed, start, min(_CHUNK, trials - start), cfg, lambda_i)


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
    link = rate_map if metric == "rate" else (lambda g: ser_map(g, cfg.modulation))
    parts = []
    for snr, inr_a, inr_b in _chunks(cfg, trials, seed):
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
    """Empirical CDFs of the Serial-Max instantaneous SINRs named in which,
    all from one draw and selection per chunk: "gamma_ab" is the A->B
    link and "gamma_ba" the B->A link, whichever pick serves each."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be one-dimensional and ascending")
    for name in which:
        if name not in ("gamma_ab", "gamma_ba"):
            raise ValueError(f"which must be 'gamma_ab' or 'gamma_ba', got {name!r}")
    counts = np.zeros((len(which), grid.size), dtype=np.int64)
    for snr, inr_a, inr_b in _chunks(cfg, trials, seed):
        gamma_ab, gamma_ba = _trial_sinrs(snr, inr_a, inr_b, cfg, "serial_max")
        for row, name in zip(counts, which):
            samples = np.sort(gamma_ab if name == "gamma_ab" else gamma_ba)
            row += np.searchsorted(samples, grid, side="right")
    return [EmpiricalCdf(grid=grid, probabilities=row / trials) for row in counts]


def mc_empirical_cdf(
    cfg: SystemConfig, which: str, trials: int, seed: int, grid: np.ndarray
) -> EmpiricalCdf:
    """Empirical CDF of one link's Serial-Max SINR; see mc_empirical_cdfs."""
    return mc_empirical_cdfs(cfg, (which,), trials, seed, grid)[0]


def mc_p_not(cfg: SystemConfig, trials: int, seed: int) -> MetricEstimate:
    """Frequency of trials where exhaustive Max-WSR strictly beats Serial-Max.

    'Strictly' means the exhaustive weighted-rate objective exceeds the
    Serial-Max one by more than 1e-12 relative.
    """
    misses = 0
    for snr, _, _ in _chunks(cfg, trials, seed):
        g = to_obtainable_sinr(snr, derived_params(cfg))
        flat_r = rate_map(g).reshape(g.shape[0], -1)
        rows = np.arange(g.shape[0])
        exh, ser_obj = (
            cfg.w * flat_r[rows, ab] + (1.0 - cfg.w) * flat_r[rows, ba]
            for ab, ba in (select(g, cfg.w, p, None) for p in ("max_wsr", "serial_max"))
        )
        misses += int(np.count_nonzero(exh - ser_obj > 1e-12 * np.abs(exh)))
    p = misses / trials
    std_error = math.sqrt(p * (1.0 - p) / trials)
    return MetricEstimate(value=p, std_error=std_error, trials=trials, master_seed=seed)
