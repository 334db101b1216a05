"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Every estimator makes one pass (_per_block) over blocks of whole chunks of
_CHUNK trials, one task each, on one process-wide thread pool with a
worker per CPU the process may use (_workers).  A task draws its block
once for every point, one draw_trial_batch call per chunk, and reduces it
for every point, so memory stays flat in the trial count.  A block is at
most a worker's share of the trials and its picks at most _BLOCK_BYTES.

A point's mean and standard error come from the sums of its values x, of
x - c and of (x - c)**2, with c its value at trial 0.  Each sum equals
math.fsum of its terms bit for bit, whatever the blocks or the worker
count: the blocks' certified parts (_certified_parts, _total) where their
error bound allows, else math.fsum of the point's terms drawn again in
trial order.  Counts (empirical CDFs, P_not) merge exactly.

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
# the most bytes of picks per task, in whole chunks: 4 chunks under
# Serial-Max (4 rows), 2 under exhaustive search (6 rows).  Longer blocks
# mean fewer numpy calls, and interpreter-lock hand-offs, per trial; this
# bound keeps a task's working set, picks and temporaries, a few MB
_BLOCK_BYTES = 1 << 20
# rows of candidate SNRs each policy draws: (M, S) or (M, S, R, C)
_CANDIDATES = {policy: 2 if policy == "serial_max" else 4 for policy in POLICIES}
# the most trials per point: the largest run the ROADMAP plans for
MAX_TRIALS = 10**8
# _certified_parts: the block maxima it splits, far from overflow and from
# subnormal pieces, and the smallest subnormal, which rounds its bound up
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


def _chunk_picks(cfg: SystemConfig, policy: str, seed: int, start: int,
                 count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials [start, start + count) drawn at unit means and cfg's size, a
    chunk at a time, as draw_trial_batch gives them: the candidates policy
    reads, (M, S) or (M, S, R, C), then inr_a and inr_b."""
    unit, k = replace(cfg, lambda_s=1.0), _CANDIDATES[policy]
    if count <= _CHUNK:
        return draw_trial_batch(seed, start, count, unit, 1.0, candidates=k)
    picks = np.empty((k, count)), np.empty(count), np.empty(count)
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        for out, rows in zip(picks, draw_trial_batch(seed, start + lo, n, unit, 1.0, candidates=k)):
            out[..., lo:lo + n] = rows
    return picks


def _point_sinrs(picks, cfg: SystemConfig,
                 policy: str = "serial_max") -> tuple[np.ndarray, np.ndarray]:
    """cfg's (gamma_ab, gamma_ba) from _chunk_picks: the unit SNRs of
    policy's (first, second) pick, the best of the four candidate pairs on
    cfg's own g for exhaustive policies, over the unit INRs, scaled to
    cfg's means."""
    cands, inr_a, inr_b = picks
    first, second = cands[0], cands[1]
    if policy != "serial_max":
        first, second = best_pairs(cands, _scaled(cands, cfg), cfg.w, policy, cfg.modulation)
    ab, ba = by_weight(first, second, cfg.w)
    return (instantaneous_sinr(cfg.lambda_s * ab, cfg.lambda_i * inr_b),
            instantaneous_sinr(cfg.lambda_s * ba, cfg.lambda_i * inr_a))


def _per_block(cfgs: list[SystemConfig], policy: str, trials: int, seed: int, point_fn,
               args: list[tuple]):
    """For each block of trials, in trial order, [point_fn(picks, c, *a)
    for each config c and its arguments a] from the block's one draw.  The
    blocks run on the shared pool at most two per worker ahead of the
    caller; on an error, or when the caller stops early, the call's tasks
    not yet started are cancelled and its running ones finish."""
    pool, workers = _executor()
    rows = _CANDIDATES[policy] + 2  # and inr_a, inr_b
    step = _CHUNK * max(1, min(_BLOCK_BYTES // (8 * rows * _CHUNK), -(-trials // _CHUNK) // workers))

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
    1-D array x, or None where x is not finite or its largest |x| is
    outside (_EXTRACT_MIN, _EXTRACT_MAX); zeros are one zero part,
    negative if all are, with err 0.  With |x| < 2**e and n + 1 < 2**k,
    sigma = 2**(e + k) splits each x exactly into q = (x + sigma) - sigma,
    a multiple of 2**-53 sigma, and r = x - q (Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 31(1), 2008): sum(q) is exact in any order, and err,
    n * eps * sum|r| plus the smallest subnormal, bounds the error of
    sum(r) with room for its own rounding and underflow."""
    n = x.size
    if n == 0:
        return [], 0.0
    m = max(x.max(), -x.min())  # NaN if any value is NaN
    if not _EXTRACT_MIN < m < _EXTRACT_MAX:
        return ([-0.0 if np.signbit(x).all() else 0.0], 0.0) if m == 0 else None
    sigma = math.ldexp(1.0, math.frexp(m)[1] + (n + 1).bit_length())
    q = x + sigma
    q -= sigma
    high = float(q.sum())
    r = np.subtract(x, q, out=q)
    low = float(r.sum())
    err = float(np.abs(r, out=r).sum()) * (n * _EPS) + _SUBNORMAL
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


def _terms(picks, cfg: SystemConfig, shift: float, policy: str, metric: str):
    """The terms of cfg's three sums over picks, in turn, in one array: its
    values x, selection.weighted_sum of rates or SERs, x - shift and
    (x - shift)**2."""
    x = weighted_sum(*_point_sinrs(picks, cfg, policy), cfg.w,
                     cfg.modulation if metric == "ser" else None)
    yield x
    yield np.subtract(x, shift, out=x)
    yield np.square(x, out=x)


def _estimates(cfg, policy: str, metric: str, trials: int, seed: int):
    """Each config's mean S0 / n and standard error sqrt(max(S2 - S1**2 /
    n, 0) / (n - 1)) / sqrt(n) from the sums of its _terms, shifted by its
    value at trial 0; each sum is _total of the blocks' certified parts,
    or math.fsum of the point's terms drawn again in trial order."""
    cfgs = _points(cfg, policy, trials)
    first = _chunk_picks(cfgs[0], policy, seed, 0, 1)
    args = [(float(next(_terms(first, c, 0.0, policy, metric))[0]), policy, metric) for c in cfgs]
    sums = _per_block(cfgs, policy, trials, seed, lambda picks, c, *a: [
        _certified_parts(t) for t in _terms(picks, c, *a)], args)
    out = []
    for c, a, blocks in zip(cfgs, args, zip(*sums)):
        def terms(k, c=c, a=a):
            kth = lambda picks, *b: next(itertools.islice(_terms(picks, *b), k, None))
            return (t for (t,) in _per_block([c], policy, trials, seed, kth, [a]))

        ks = (0, 0, 2) if a[0] == 0 else (0, 1, 2)  # x - 0 is x: S1 is S0, summed once
        totals = {k: _total([b[k] for b in blocks], functools.partial(terms, k)) for k in set(ks)}
        s0, s1, s2 = (totals[k] for k in ks)
        var = max(s2 - s1 * s1 / trials, 0.0) / (trials - 1) if trials > 1 else 0.0
        out.append(MetricEstimate(s0 / trials, math.sqrt(var) / math.sqrt(trials), trials, seed))
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
    g = _scaled(picks[0], cfg)
    best = best_pairs(g, g, cfg.w, "max_wsr", None)
    moved = np.flatnonzero((best != g[:2]).any(axis=0))
    exh, ser = (weighted_sum(*by_weight(*pair[:, moved], cfg.w), cfg.w) for pair in (best, g[:2]))
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
