"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Each chunk of trials is one draw_trial_batch call, addressed by its
first trial index, so a run is reproducible bitwise for a fixed (seed,
trials) and independent of chunking.  fdlink.selection.select picks
each trial's A->B and B->A links for every policy, and the same module
supplies the per-link rate and SER maps.  Per-trial metric values are
reduced by _exact_sum, which returns the correctly rounded true sum, so
any evaluation order gives the identical result.  It equals math.fsum
bit for bit, since both round the same exact sum, but adds in numpy:
each value splits exactly into two 26-bit pieces, pieces of one 8-wide
exponent band sum exactly in floats, and math.fsum adds only the band
sums and the rare subnormal pieces.

The estimators take one SystemConfig or a sequence of them of one array
size.  Draws at lambda_s and lambda_i = eta * lambda_s equal the draws
at unit means times lambda_s and lambda_i, bit for bit, since
-lambda * log1p(-u) == lambda * (-log1p(-u)).  Serial-Max picks depend
only on the order of the obtainable-SINR matrix g = (lambda_s * E) *
scale of the unit draws E, so all points share one unit draw and one
selection per chunk, made on E itself.  A float certificate, computed
once per chunk, proves the picks are each point's own: each pick must
exceed its runner-up in E by a factor of more than 1 + 2**-50, which the
two roundings from E to g cannot close, and the point's g must stay
normal and finite on the compared entries.  A point reselects the trials
that fail it on its own g.  A lone point selects on its own g and needs
no certificate, which would cost about as much as the selection.
Exhaustive picks depend on lambda_s, so those policies draw and select
each point on its own.

The SER estimator averages the conditional SER alpha*Q(sqrt(beta*gamma))
over channel and interference draws; no symbol-level noise is simulated.
The residual-INR draws enter only the metric, never the selection.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .channel import draw_trial_batch, instantaneous_sinr, to_obtainable_sinr
from .config import SystemConfig, derived_params
from .selection import POLICIES, _serial_max_positions, by_weight, rate_map, select, ser_map

_CHUNK = 1 << 17
# g is E after at most two roundings, each within a factor 1 +- 2**-53
_MARGIN = 1.0 + 2.0**-50
_TINY = np.finfo(float).tiny
# _exact_sum: Veltkamp's splitter, the largest |x| it cannot overflow on,
# and the most pieces one bucket may sum exactly (33 + 20 bits <= 53)
_SPLIT = 2.0**27 + 1.0
_HUGE = 2.0**996
_BLOCK = 1 << 20


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


def _scaled(x, cfg: SystemConfig):
    """g = (lambda_s * x) * scale, rounded as to_obtainable_sinr rounds it;
    scaled in place, so a matrix costs one new array, not two."""
    g = cfg.lambda_s * x
    g *= derived_params(cfg).scale
    return g


def _shared_serial_max(cfgs: list[SystemConfig], trials: int, seed: int) -> list:
    """One draw and one Serial-Max selection per chunk for every point.

    A lone point selects on its own g.  Several points share one selection
    on the unit matrix E, which the certificate vouches for point by point.
    Per chunk: (first, second, inr_a, inr_b, redo), the unit SNRs of the
    first and second pick, the unit INRs, and redo[k] = (mask, first,
    second) for the trials that point k reselects on its own g.
    """
    if len({(c.n_a, c.n_b) for c in cfgs}) != 1:
        raise ValueError("Serial-Max points must share one array size")
    alone = len(cfgs) == 1
    chunks = []
    # unit means: lambda_s = 1 and lambda_i = eta * lambda_s = 1
    for e, inr_a, inr_b in _chunks(replace(cfgs[0], lambda_s=1.0, eta=1.0), trials, seed):
        idx1, idx2, pruned = _serial_max_positions(_scaled(e, cfgs[0]) if alone else e)
        t = e.shape[0]
        rows = np.arange(t)
        flat = e.reshape(t, -1)
        first, second = flat[rows, idx1], flat[rows, idx2]
        redo = {}
        if not alone:
            # each pick's runner-up, found in place and then restored
            flat[rows, idx1] = -np.inf
            up1 = flat.max(axis=1)
            flat[rows, idx1] = first
            flat[rows, idx2] = -np.inf
            up2 = np.max(flat, axis=1, where=~pruned.reshape(t, -1), initial=-np.inf)
            flat[rows, idx2] = second
            certified = (first > _MARGIN * up1) & (second > _MARGIN * up2)
            # the smallest compared entry; step 2 compares none at 2x2
            low = np.where(up2 > -np.inf, up2, up1)
            low_min = np.min(low, where=certified, initial=np.inf)
            for k, cfg in enumerate(cfgs):
                # g is monotone in E, so the extremes decide for the whole chunk
                bad = ~certified
                if not (_scaled(low_min, cfg) >= _TINY and _scaled(first.max(), cfg) < np.inf):
                    bad |= ~((_scaled(low, cfg) >= _TINY) & (_scaled(first, cfg) < np.inf))
                if bad.any():
                    own1, own2, _ = _serial_max_positions(_scaled(e[bad], cfg))
                    sub = flat[bad]
                    picks = np.arange(len(sub))
                    redo[k] = (bad, sub[picks, own1], sub[picks, own2])
        chunks.append((first, second, inr_a, inr_b, redo))
        del e, flat, pruned, rows, idx1, idx2  # not held through the next draw
    return chunks


def _serial_max_sinrs(cfgs: list[SystemConfig], trials: int, seed: int) -> list:
    """Per point, an iterable over chunks of its Serial-Max (gamma_ab, gamma_ba)."""
    chunks = _shared_serial_max(cfgs, trials, seed)

    def point(k: int, cfg: SystemConfig):
        lambda_i = cfg.eta * cfg.lambda_s
        for first, second, inr_a, inr_b, redo in chunks:
            if k in redo:
                bad, own1, own2 = redo[k]
                first, second = first.copy(), second.copy()
                first[bad], second[bad] = own1, own2
            ab, ba = by_weight(first, second, cfg.w)
            yield (instantaneous_sinr(cfg.lambda_s * ab, lambda_i * inr_b),
                   instantaneous_sinr(cfg.lambda_s * ba, lambda_i * inr_a))

    return [point(k, cfg) for k, cfg in enumerate(cfgs)]


def _own_sinrs(cfg: SystemConfig, policy: str, trials: int, seed: int):
    """(gamma_ab, gamma_ba) per chunk, drawn and selected for cfg alone."""
    for snr, inr_a, inr_b in _chunks(cfg, trials, seed):
        yield _trial_sinrs(snr, inr_a, inr_b, cfg, policy)


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x), bit for bit, for a 1-D float64 array.

    Each value splits exactly into two pieces of at most 26 significant
    bits (Veltkamp).  A normal piece with biased exponent in [8b, 8b+7] is
    a multiple of 2**(8b-1048) below 2**(8b-1015), so bincount sums up to
    _BLOCK such pieces per bucket b exactly; math.fsum of the bucket sums
    and the subnormal pieces, which break that bound, is the correctly
    rounded sum.  Huge or non-finite input goes to math.fsum itself.
    """
    if x.size == 0 or not (-_HUGE < x.min() and x.max() < _HUGE):
        return math.fsum(x)
    parts = []
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        hi = block * _SPLIT
        lo = hi - block
        hi -= lo
        np.subtract(block, hi, out=lo)
        bucket = np.empty(block.size, dtype=np.int64)
        for piece in hi, lo:
            np.right_shift(piece.view(np.int64), 55, out=bucket)
            bucket &= 0xFF
            low = np.flatnonzero(bucket == 0)
            sub = piece[low]
            subnormal = (sub != 0) & (np.abs(sub) < _TINY)
            parts.extend(sub[subnormal].tolist())
            piece[low[subnormal]] = 0.0
            sums = np.bincount(bucket, weights=piece, minlength=256)
            parts.extend(sums[sums != 0].tolist())
    return math.fsum(parts)


def _estimate_from_values(values: np.ndarray, trials: int, seed: int) -> MetricEstimate:
    total = _exact_sum(values)
    mean = total / trials
    if trials > 1:
        dev = values - mean
        dev *= dev
        sq = _exact_sum(dev)
        std_error = math.sqrt(sq / (trials - 1)) / math.sqrt(trials)
    else:
        std_error = 0.0
    return MetricEstimate(value=mean, std_error=std_error, trials=trials, master_seed=seed)


def _mc_weighted_sum(cfg, policy: str, trials: int, seed: int, metric: str):
    single = isinstance(cfg, SystemConfig)
    cfgs = [cfg] if single else list(cfg)
    if policy == "serial_max":
        sinrs = _serial_max_sinrs(cfgs, trials, seed)
    else:
        sinrs = [_own_sinrs(c, policy, trials, seed) for c in cfgs]
    estimates = []
    for c, point in zip(cfgs, sinrs):
        link = rate_map if metric == "rate" else functools.partial(ser_map, mod=c.modulation)
        values = [c.w * link(ab) + (1.0 - c.w) * link(ba) for ab, ba in point]
        estimates.append(_estimate_from_values(np.concatenate(values), trials, seed))
    return estimates[0] if single else estimates


def mc_weighted_sum_rate(
    cfg: SystemConfig | Sequence[SystemConfig], policy: str, trials: int, seed: int
) -> MetricEstimate | list[MetricEstimate]:
    """Monte Carlo average of w*R(gamma_AB) + (1-w)*R(gamma_BA).

    One MetricEstimate for one SystemConfig; a list, one per point, for a
    sequence of configs of one array size."""
    return _mc_weighted_sum(cfg, policy, trials, seed, "rate")


def mc_weighted_sum_ser(
    cfg: SystemConfig | Sequence[SystemConfig], policy: str, trials: int, seed: int
) -> MetricEstimate | list[MetricEstimate]:
    """Monte Carlo average of w*SER(gamma_AB) + (1-w)*SER(gamma_BA); one
    estimate per config, as in mc_weighted_sum_rate."""
    return _mc_weighted_sum(cfg, policy, trials, seed, "ser")


def mc_empirical_cdfs(
    cfg: SystemConfig | Sequence[SystemConfig],
    which: tuple[str, ...],
    trials: int,
    seed: int,
    grid,
) -> list:
    """Empirical CDFs of the Serial-Max instantaneous SINRs named in which,
    all from one draw and selection per chunk: "gamma_ab" is the A->B
    link and "gamma_ba" the B->A link, whichever pick serves each.

    One SystemConfig and one grid give a list of EmpiricalCdf, one per
    name; a sequence of configs and one grid per config give one such
    list per config."""
    single = isinstance(cfg, SystemConfig)
    cfgs, grids = ([cfg], [grid]) if single else (list(cfg), list(grid))
    grids = [np.asarray(x, dtype=float) for x in grids]
    if len(grids) != len(cfgs):
        raise ValueError("give one grid per config")
    for x in grids:
        if x.ndim != 1 or np.any(np.diff(x) < 0):
            raise ValueError("grid must be one-dimensional and ascending")
    for name in which:
        if name not in ("gamma_ab", "gamma_ba"):
            raise ValueError(f"which must be 'gamma_ab' or 'gamma_ba', got {name!r}")
    out = []
    for x, point in zip(grids, _serial_max_sinrs(cfgs, trials, seed)):
        counts = np.zeros((len(which), x.size), dtype=np.int64)
        for gamma_ab, gamma_ba in point:
            for row, name in zip(counts, which):
                samples = np.sort(gamma_ab if name == "gamma_ab" else gamma_ba)
                row += np.searchsorted(samples, x, side="right")
        out.append([EmpiricalCdf(grid=x, probabilities=row / trials) for row in counts])
    return out[0] if single else out


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
