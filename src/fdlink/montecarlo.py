"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Every estimator makes one pass (_per_block) over blocks of whole units of
_UNIT trials, one task each, on one process-wide thread pool with a
worker per CPU the process may use (_workers).  A task draws its block
once, _CHUNK trials a call, and reduces it for every point, so memory
stays flat in the trial count.  A block is at most a worker's share of
the units and its picks at most _BLOCK_BYTES.

A point's mean is math.fsum of its values over the trial count, bit for
bit: the blocks' certified parts (_certified_parts, _total) where their
error bound allows, else math.fsum of its values drawn again in trial
order.  Its standard error merges the moments of each unit in unit order
(_moments, _merge), squares scaled so that they cannot underflow: it
depends on _UNIT, not on _CHUNK, _BLOCK_BYTES or the worker count.
Counts (empirical CDFs, P_not) merge exactly.

Every policy draws at unit means the candidate SNRs it reads
(fdlink.channel), (M, S) for Serial-Max and (M, S, R, C) for exhaustive
search, and the INRs; a point scales them by lambda_s and lambda_i, bit
for bit as a draw at its means.  Exhaustive policies score the four
candidate pairs on each point's obtainable SINRs where R and C both
exceed S, and take (M, S) elsewhere (fdlink.selection).  The INRs enter
only the metric, never the selection.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import itertools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .channel import draw_trial_batch, instantaneous_sinr
from .config import SystemConfig
from .selection import POLICIES, best_pairs, by_weight, weighted_sum

# trials per draw_trial_batch call
_CHUNK = 1 << 13
# trials per unit of the standard error's moments, in trial order; task
# blocks are whole units
_UNIT = 1 << 13
# the most bytes of picks per task, in whole units: 4 units under
# Serial-Max (4 rows), 2 under exhaustive search (6 rows).  Longer blocks
# mean fewer numpy calls, and interpreter-lock hand-offs, per trial; this
# bound keeps a task's working set, picks and temporaries, a few MB
_BLOCK_BYTES = 1 << 20
# rows of candidate SNRs each policy draws: (M, S) or (M, S, R, C)
_CANDIDATES = {policy: 2 if policy == "serial_max" else 4 for policy in POLICIES}
# the most trials per point: the largest run the ROADMAP plans for
MAX_TRIALS = 10**8
# _certified_parts: the block maxima it splits unscaled, far from overflow
# and from subnormal pieces, and the smallest subnormal, which rounds its bound up
_EXTRACT_MIN = 2.0**-900
_EXTRACT_MAX = 2.0**900
_EPS = np.finfo(float).eps
_SUBNORMAL = 2.0**-1074


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


def _workers() -> int:
    """Worker threads of the shared pool: one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# the shared pool, by its worker count: made on first use, not at import
_POOL: dict[int, ThreadPoolExecutor] = {}


def _executor() -> tuple[ThreadPoolExecutor, int]:
    """The shared pool and its worker count, made anew when _workers()
    changes.  Callers racing here may each make one and run on it; a pool
    no caller holds is collected, and its threads exit."""
    workers = _workers()
    pool = _POOL.get(workers)
    if pool is None:
        _POOL.clear()
        pool = _POOL[workers] = ThreadPoolExecutor(workers)
    return pool, workers


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_POOL.clear)


def _points(cfg, policy: str, trials: int) -> list[SystemConfig]:
    """The call's configs, checked with its policy and trial count."""
    cfgs = [cfg] if isinstance(cfg, SystemConfig) else list(cfg)
    if not cfgs:
        raise ValueError("give at least one config")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if len({(c.n_a, c.n_b) for c in cfgs}) != 1:
        raise ValueError("the points of one call must share one array size")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be >= 1 and at most MAX_TRIALS = {MAX_TRIALS:,}, got {trials:,}")
    return cfgs


def _scaled(x, cfg: SystemConfig):
    """Obtainable SINRs g = (lambda_s * x) * cfg.scale of unit SNRs x;
    scaled in place, so it costs one new array, not two."""
    g = cfg.lambda_s * x
    g *= cfg.scale
    return g


def _chunk_picks(cfg: SystemConfig, policy: str, seed: int, start: int, count: int) -> np.ndarray:
    """Trials [start, start + count) drawn at unit means and cfg's size, a
    chunk at a time, as draw_trial_batch gives them, in one (k + 2, count)
    array: the k candidates policy reads, (M, S) or (M, S, R, C), then
    inr_a and inr_b."""
    unit, k = replace(cfg, lambda_s=1.0), _CANDIDATES[policy]
    picks = np.empty((k + 2, count))
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        picks[:k, lo:lo + n], picks[k, lo:lo + n], picks[k + 1, lo:lo + n] = draw_trial_batch(
            seed, start + lo, n, unit, 1.0, candidates=k)
    return picks


def _point_sinrs(picks: np.ndarray, cfg: SystemConfig, policy: str = "serial_max") -> np.ndarray:
    """cfg's (gamma_ab, gamma_ba) from _chunk_picks, as one (2, n) array:
    the unit SNRs of policy's (first, second) pick, the best of the four
    candidate pairs on cfg's own g for exhaustive policies, in by_weight's
    order, over the unit INRs at B and at A, scaled to cfg's means."""
    k = _CANDIDATES[policy]
    pair = picks[:2] if policy == "serial_max" else best_pairs(
        picks[:k], _scaled(picks[:k], cfg), cfg.w, policy, cfg.modulation)
    ab_ba = by_weight(pair, pair[::-1], cfg.w)[0]  # the pair, or its rows swapped
    inr = cfg.lambda_i * picks[k:][::-1]  # at B, then at A
    return instantaneous_sinr(cfg.lambda_s * ab_ba, inr, out=inr)


def _per_block(cfgs: list[SystemConfig], policy: str, trials: int, seed: int, point_fn,
               args: list[tuple]):
    """For each block of trials, in trial order, [point_fn(picks, c, *a)
    for each config c and its arguments a] from the block's one draw.  The
    blocks run on the shared pool at most two per worker ahead of the
    caller; on an error, or when the caller stops early, the call's tasks
    not yet started are cancelled and its running ones finish."""
    pool, workers = _executor()
    rows = _CANDIDATES[policy] + 2  # and inr_a, inr_b
    step = _UNIT * max(1, min(_BLOCK_BYTES // (8 * rows * _UNIT), -(-trials // _UNIT) // workers))

    def task(start):
        picks = _chunk_picks(cfgs[0], policy, seed, start, min(step, trials - start))
        return [point_fn(picks, c, *a) for c, a in zip(cfgs, args)]

    pending = collections.deque()
    try:
        for start in range(0, trials, step):
            # a task runs in a copy of the caller's context, so np.errstate
            # and warning filters that hold for the caller hold in the task
            pending.append(pool.submit(contextvars.copy_context().run, task, start))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _certified_parts(x: np.ndarray) -> tuple[list[float], float] | None:
    """(parts, err): floats whose exact sum is within err of that of the
    1-D array x, or None where x is not finite or its largest |x| is not
    below _EXTRACT_MAX; zeros are one zero part, negative if all are, with
    err 0.  With |x| < 2**e and n + 1 < 2**k, sigma = 2**(e + k) splits
    each x exactly into q = (x + sigma) - sigma, a multiple of 2**-53
    sigma, and r = x - q (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31(1), 2008): sum(q) is exact in any order, and err, n * eps * sum|r|
    plus the smallest subnormal, bounds the error of sum(r) with room for
    its own rounding and underflow.  Where the largest |x| is at most
    _EXTRACT_MIN, the split is of x * 2**shift, exact, with |x| * 2**shift
    in [1/2, 1); scaling the parts and err back rounds each by at most half
    the smallest subnormal, which err then covers."""
    n = x.size
    if n == 0:
        return [], 0.0
    m = max(x.max(), -x.min())  # NaN if any value is NaN
    if not 0 < m < _EXTRACT_MAX:
        return ([-0.0 if np.signbit(x).all() else 0.0], 0.0) if m == 0 else None
    shift = -math.frexp(m)[1] if m <= _EXTRACT_MIN else 0
    x = np.ldexp(x, shift) if shift else x
    sigma = math.ldexp(1.0, math.frexp(m)[1] + shift + (n + 1).bit_length())
    q = x + sigma
    q -= sigma
    high = float(q.sum())
    r = np.subtract(x, q, out=q)
    low = float(r.sum())
    err = float(np.abs(r, out=r).sum()) * (n * _EPS) + _SUBNORMAL
    if shift:  # nextafter rounds up the sum of err and the scale-back roundings
        high, low = math.ldexp(high, -shift), math.ldexp(low, -shift)
        err = math.nextafter(math.ldexp(err, -shift) + 2 * _SUBNORMAL, math.inf)
    return [high, low], err


def _total(certified: list, values) -> float:
    """math.fsum of every block's values, bit for bit, from their
    _certified_parts: the parts' rounded sum s where the exact total is
    certainly nearer s than any other float (the parts' distance from s,
    its rounding and the errors add to less than half the gap to s's
    nearer neighbour), or where every block is zeros, whose parts keep all
    that fsum of zeros depends on; else math.fsum of values(), the
    blocks' values in trial order."""
    if None not in certified:
        parts = list(itertools.chain.from_iterable(p for p, _ in certified))
        s = math.fsum(parts)
        if not any(err for _, err in certified):
            return s
        if s != 0 and math.isfinite(s):
            d = math.fsum(parts + [-s])
            bound = math.fsum([abs(d), math.ulp(d), *(err for _, err in certified)])
            if bound < 0.5 * min(s - math.nextafter(s, -math.inf), math.nextafter(s, math.inf) - s):
                return s
    return math.fsum(itertools.chain.from_iterable(values()))


def _moments(x: np.ndarray) -> list[tuple[int, float, int, float]]:
    """(count, mean, e, sum(((x - mean) * 2**e)**2)) of each _UNIT trials
    of the block x in turn, the last maybe short, with 2**e * its largest
    value (or the smallest normal) in [1/2, 1); values are not negative,
    so no scaled square underflows.  x is overwritten."""
    full = x.size - x.size % _UNIT
    out = []
    for units in (x[:full].reshape(-1, _UNIT), x[full:].reshape(1, -1)):
        if units.size:
            means = units.sum(axis=1) / units.shape[1]
            e = -np.frexp(np.maximum(units.max(axis=1), np.finfo(float).tiny))[1]
            units -= means[:, None]
            units *= np.ldexp(1.0, e)[:, None]
            s = np.square(units, out=units).sum(axis=1)
            out += zip(itertools.repeat(units.shape[1]), means.tolist(), e.tolist(), s.tolist())
    return out


def _merge(moments, unit):
    """(count, mean, e, s) of moments and then unit, s the sum of squared
    deviations times 4**e at e = min(e_a, e_b), by Chan, Golub and
    LeVeque's update (Am. Stat. 37(3), 1983); (0, 0.0, 1023, 0.0), at a
    scale above every unit's, is no trials."""
    n, mean, e, s = moments
    c, unit_mean, f, t = unit
    g, delta, total = min(e, f), unit_mean - mean, n + c
    s = math.ldexp(s, 2 * (g - e)) + math.ldexp(t, 2 * (g - f)) + math.ldexp(delta, g)**2 * (n * c / total)
    return total, mean + delta * (c / total), g, s


def _estimates(cfg, policy: str, metric: str, trials: int, seed: int):
    """Each config's mean, _total of its values' certified parts over trials,
    and standard error from its unit moments, merged as the blocks arrive."""
    cfgs = _points(cfg, policy, trials)
    values = lambda picks, c: weighted_sum(  # of rates or SERs, in the SINRs' own array
        g := _point_sinrs(picks, c, policy), c.w, c.modulation if metric == "ser" else None, g)
    # _moments overwrites the values, after _certified_parts has read them
    reduce = lambda picks, c: (_certified_parts(x := values(picks, c)), _moments(x))
    certified, moments = [[] for _ in cfgs], [(0, 0.0, 1023, 0.0)] * len(cfgs)
    for block in _per_block(cfgs, policy, trials, seed, reduce, [()] * len(cfgs)):
        for i, (parts, units) in enumerate(block):
            certified[i].append(parts)
            moments[i] = functools.reduce(_merge, units, moments[i])
    out = []
    for c, parts, (n, _, e, s) in zip(cfgs, certified, moments):
        redraw = lambda c=c: (x for (x,) in _per_block([c], policy, trials, seed, values, [()]))
        std_error = math.ldexp(math.sqrt(s / (n - 1)) / math.sqrt(n), -e) if n > 1 else 0.0
        out.append(MetricEstimate(_total(parts, redraw) / trials, std_error, trials, seed))
    return out[0] if isinstance(cfg, SystemConfig) else out


def mc_weighted_sum_rate(
    cfg: SystemConfig | Sequence[SystemConfig], policy: str, trials: int, seed: int
) -> MetricEstimate | list[MetricEstimate]:
    """Monte Carlo average of w*R(gamma_AB) + (1-w)*R(gamma_BA).

    One MetricEstimate for one SystemConfig; a list, one per point, for a
    sequence of configs of one array size."""
    return _estimates(cfg, policy, "rate", trials, seed)


def mc_weighted_sum_ser(
    cfg: SystemConfig | Sequence[SystemConfig], policy: str, trials: int, seed: int
) -> MetricEstimate | list[MetricEstimate]:
    """Monte Carlo average of w*SER(gamma_AB) + (1-w)*SER(gamma_BA); one
    estimate per config, as in mc_weighted_sum_rate."""
    return _estimates(cfg, policy, "ser", trials, seed)


def _cdf_counts(picks, cfg: SystemConfig, grid: np.ndarray) -> np.ndarray:
    """cfg's counts of (gamma_ab, gamma_ba) samples <= each grid value."""
    return np.array([np.searchsorted(np.sort(gamma), grid, side="right")
                     for gamma in _point_sinrs(picks, cfg)])


def mc_empirical_cdfs(
    cfg: SystemConfig | Sequence[SystemConfig], trials: int, seed: int, grid
) -> tuple[EmpiricalCdf, EmpiricalCdf] | list[tuple[EmpiricalCdf, EmpiricalCdf]]:
    """Empirical CDFs (gamma_ab, gamma_ba) of the Serial-Max instantaneous
    SINRs of the A->B and B->A links, whichever pick serves each, both
    from one draw and selection per block.

    One SystemConfig and one grid give one such pair of EmpiricalCdf; a
    sequence of configs and one grid per config give a list of pairs."""
    single = isinstance(cfg, SystemConfig)
    grids = [np.asarray(x, dtype=float) for x in ([grid] if single else grid)]
    if len(grids) != (1 if single else len(cfg)):
        raise ValueError("give one grid per config")
    for x in grids:
        if x.ndim != 1 or np.isnan(x).any() or np.any(np.diff(x) < 0):
            raise ValueError("grid must be one-dimensional and ascending")
    counts = zip(*_per_block(_points(cfg, "serial_max", trials), "serial_max", trials, seed,
                             _cdf_counts, [(x,) for x in grids]))
    cdfs = [tuple(EmpiricalCdf(x, n / trials) for n in sum(c)) for x, c in zip(grids, counts)]
    return cdfs[0] if single else cdfs


def _misses(picks, cfg: SystemConfig) -> int:
    """cfg's count of strict exhaustive wins over the four candidates'
    picks, rated only where exhaustive search left (M, S), elsewhere equal
    bit for bit."""
    g = _scaled(picks[:4], cfg)
    best = best_pairs(g, g, cfg.w, "max_wsr", None)
    moved = np.flatnonzero((best != g[:2]).any(axis=0))
    exh, ser = (weighted_sum(by_weight(*pair[:, moved], cfg.w), cfg.w) for pair in (best, g[:2]))
    return int(np.count_nonzero(exh - ser > 1e-12 * np.abs(exh)))


def mc_p_not(cfg: SystemConfig | Sequence[SystemConfig], trials: int,
             seed: int) -> MetricEstimate | list[MetricEstimate]:
    """Frequency of trials where exhaustive Max-WSR strictly beats Serial-Max,
    one estimate per config as in mc_weighted_sum_rate: where the best of the
    four candidate pairs' weighted rates exceeds that of Serial-Max's own
    pair (M, S) by more than 1e-12 relative."""
    cfgs = _points(cfg, "max_wsr", trials)
    out = []
    for misses in zip(*_per_block(cfgs, "max_wsr", trials, seed, _misses, [()] * len(cfgs))):
        p = sum(misses) / trials
        out.append(MetricEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials, seed))
    return out[0] if isinstance(cfg, SystemConfig) else out
