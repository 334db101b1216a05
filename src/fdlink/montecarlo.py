"""Monte Carlo estimators of average weighted sum rate, sum SER, empirical
CDFs, and the Serial-Max optimality-gap frequency.

Work has two grains.  Draws come in chunks of at most _CHUNK trials, one
draw_trial_batch call each, addressed by the first trial, so draw memory
stays flat.  Each estimator call runs tasks on a thread pool with one
worker per CPU the process may use (_workers); numpy and scipy release the
interpreter lock in the heavy steps.  Every policy runs one flow: one
task per chunk draws the candidates its policy reads (_chunk_picks) and
writes them into its columns of one shared array of every trial's picks;
then each point forms and reduces its metric over spans of that array
(_point_estimate), one task per point, or per span where the points are
fewer than the workers (_estimates).

Reductions round each point's exact total once, so a mean equals
math.fsum of its values bit for bit, whatever the chunks, spans, worker
count or order tasks finish in.  Each span splits its values exactly
against a power of two above them (_certified_parts, after Rump, Ogita
and Oishi 2008): the high pieces sum exactly in any order, the low ones
with a bounded error.  math.fsum of the spans' parts is the answer when
the summed bound leaves it inside its rounding interval (_total);
otherwise it is math.fsum of the pass's values in trial order, on the
calling thread, as for 1 of mc_grid's 108 totals at seed 7 (0 at seed 1)
and 1 of fig4's 72 at 10**6 trials.  The standard error is a second pass,
over (x - mean)**2.  Counts (empirical CDFs, P_not) are integers and
merge exactly.

The estimators take one SystemConfig or a sequence of them of one array
size; mc_empirical_cdfs gives both links' CDFs per config.  Every policy
draws at unit means the candidate SNRs M, S, R and C (fdlink.channel) and
the INRs, which a point scales by lambda_s and lambda_i = eta *
lambda_s, bit for bit as a draw at its means.  Serial-Max
picks (M, S); exhaustive policies score the four candidate pairs on each
point's obtainable SINRs where R and C both exceed S, and take (M, S)
elsewhere (fdlink.selection).  Each point averages selection.weighted_sum
of rates or SERs; the INRs enter only the metric, never the selection.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .channel import draw_trial_batch, instantaneous_sinr
from .config import SystemConfig
from .selection import POLICIES, best_pairs, by_weight, weighted_sum

# trials per task: two chunks in flight keep peak memory flat
_CHUNK = 1 << 13
# the most trials per step of a point's reduction: fewer, longer numpy calls
_SPAN = 1 << 16
# the most trials per point: the largest run the ROADMAP plans for
MAX_TRIALS = 10**8
# _certified_parts: the span maxima it splits, far from overflow and from
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
    """Worker threads per estimator call: one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@contextmanager
def _pool(workers: int):
    """A thread pool for one estimator call; on an error, tasks not yet
    started are cancelled and running ones finish before it propagates."""
    pool = ThreadPoolExecutor(workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _submit(pool, fn, *args):
    # each task runs in a copy of the caller's context, so np.errstate and
    # warning filters that hold for the caller hold in the task
    return pool.submit(contextvars.copy_context().run, fn, *args)


def _map(pool, fn, items) -> list:
    """[fn(item) for item in items], one task per item on pool if it is not None."""
    if pool is None:
        return [fn(item) for item in items]
    tasks = [_submit(pool, fn, item) for item in items]
    return [task.result() for task in tasks]


def _spans(trials: int) -> list[tuple[int, int]]:
    """(first trial, count) of each chunk of trials 0..trials-1."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be >= 1 and at most MAX_TRIALS = {MAX_TRIALS:,}, got {trials:,}")
    return [(start, min(_CHUNK, trials - start)) for start in range(0, trials, _CHUNK)]


def _scaled(x, cfg: SystemConfig):
    """Obtainable SINRs g = (lambda_s * x) * cfg.scale of unit SNRs x;
    scaled in place, so it costs one new array, not two."""
    g = cfg.lambda_s * x
    g *= cfg.scale
    return g


def _chunk_picks(cfg: SystemConfig, policy: str, seed: int, start: int,
                 count: int) -> list[np.ndarray]:
    """One chunk's draw at unit means and cfg's size, as rows: the
    candidates policy reads, (M, S) or (M, S, R, C), then inr_a and inr_b."""
    cands, inr_a, inr_b = draw_trial_batch(seed, start, count, replace(cfg, lambda_s=1.0), 1.0)
    return [*cands[:2 if policy == "serial_max" else 4], inr_a, inr_b]


def _picks(pool, cfgs: list[SystemConfig], policy: str, trials: int, seed: int) -> np.ndarray:
    """Every trial's picks under policy, rows as _chunk_picks gives them,
    one task per chunk, each writing its own columns."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if len({(c.n_a, c.n_b) for c in cfgs}) != 1:
        raise ValueError("the points of one call must share one array size")
    picks = np.empty((4 if policy == "serial_max" else 6, trials))

    def fill(span):
        start, count = span
        for row, values in zip(picks[:, start:start + count], _chunk_picks(cfgs[0], policy, seed, *span)):
            row[...] = values

    _map(pool, fill, _spans(trials))
    return picks


def _point_sinrs(picks, cfg: SystemConfig,
                 policy: str = "serial_max") -> tuple[np.ndarray, np.ndarray]:
    """cfg's (gamma_ab, gamma_ba) from a chunk or span of picks: the unit
    SNRs of policy's (first, second) pick, the best of the four candidate
    pairs on cfg's own g for exhaustive policies, over the unit INRs
    (inr_a, inr_b are the last two rows), each scaled to cfg's means."""
    first, second = picks[0], picks[1]
    if policy != "serial_max":
        unit = picks[:4]
        first, second = best_pairs(unit, _scaled(unit, cfg), cfg.w, policy, cfg.modulation)
    ab, ba = by_weight(first, second, cfg.w)
    return (instantaneous_sinr(cfg.lambda_s * ab, cfg.lambda_i * picks[-1]),
            instantaneous_sinr(cfg.lambda_s * ba, cfg.lambda_i * picks[-2]))


def _certified_parts(x: np.ndarray) -> tuple[list[float], float] | None:
    """(parts, err): floats whose exact sum is within err of the exact sum
    of the 1-D float64 array x, or None where x is not finite or its
    largest |x| is outside (_EXTRACT_MIN, _EXTRACT_MAX).  Zeros are one
    zero part, negative if all are, with err 0.

    With |x| < 2**e and n + 1 < 2**k, sigma = 2**(e + k) splits each value
    exactly into q = (x + sigma) - sigma, a multiple of 2**-53 sigma, and
    r = x - q (the error-free extraction of Rump, Ogita and Oishi, SIAM J.
    Sci. Comput. 31(1), 2008).  Every partial sum of the q is such a
    multiple below sigma, so sum(q) is exact in any order.  Summing the r
    in any order errs by at most gamma_(n-1) * sum|r|; err, n * eps times
    the computed sum|r| plus the smallest subnormal, bounds that with room
    for its own rounding and underflow.
    """
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


def _total(spans: list[np.ndarray], certified: list) -> float:
    """math.fsum of the values of every span, bit for bit, from each
    span's _certified_parts.  The parts' rounded sum s stands when the
    exact total is certainly nearer s than any other float: the parts'
    distance from s, its rounding and the spans' errors add to less than
    half the gap to s's nearer neighbour.  Spans of zeros alone stand too:
    their zero parts keep whether every value is -0.0, all that fsum of
    zeros can depend on.  Otherwise, and where s is not finite or a 0 from
    nonzero values, the total is math.fsum of the values in trial order."""
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
    return math.fsum(itertools.chain.from_iterable(spans))


def _point_estimate(picks: np.ndarray, cfg: SystemConfig, spans: list[slice], run,
                    policy: str, metric: str, trials: int, seed: int) -> MetricEstimate:
    """cfg's estimate from policy's picks: the mean by one pass over the
    spans, the standard error by a second over the squared deviations,
    formed in place, each summed by _total."""
    def first(span):
        mod = cfg.modulation if metric == "ser" else None
        values = weighted_sum(*_point_sinrs(picks[:, span], cfg, policy), cfg.w, mod)
        return values, _certified_parts(values)

    def second(values):
        values -= mean
        values *= values
        return _certified_parts(values)

    values, certified = zip(*run(first, spans))
    mean = _total(values, certified) / trials
    if trials > 1:
        sq = _total(values, run(second, values))
        std_error = math.sqrt(sq / (trials - 1)) / math.sqrt(trials)
    else:
        std_error = 0.0
    return MetricEstimate(value=mean, std_error=std_error, trials=trials, master_seed=seed)


def _estimates(cfg, policy: str, trials: int, seed: int, point_task, *args, each=None):
    """point_task(picks, c, spans, run, *args[, e]) for each config c (and
    its entry e of each), from one draw and selection under policy: one
    result for one SystemConfig, a list for a sequence.  run maps over
    near-equal spans of at most _SPAN trials: within one task per point,
    or, with fewer points than workers, one task per span, the points in
    turn and the spans a multiple of the workers in number."""
    single = isinstance(cfg, SystemConfig)
    cfgs = [cfg] if single else list(cfg)
    each = [()] * len(cfgs) if each is None else [(e,) for e in each]
    workers = _workers()
    with _pool(workers) as pool:
        picks = _picks(pool, cfgs, policy, trials, seed)
        tasks = workers if len(cfgs) < workers else 1  # spans come in multiples of this
        step = -(-trials // (tasks * -(-trials // (tasks * _SPAN))))
        spans = [slice(start, start + step) for start in range(0, trials, step)]
        run = functools.partial(_map, pool if tasks > 1 else None)
        estimates = _map(None if tasks > 1 else pool, lambda c_e: point_task(
            picks, c_e[0], spans, run, *args, *c_e[1]), zip(cfgs, each))
    return estimates[0] if single else estimates


def mc_weighted_sum_rate(
    cfg: SystemConfig | Sequence[SystemConfig], policy: str, trials: int, seed: int
) -> MetricEstimate | list[MetricEstimate]:
    """Monte Carlo average of w*R(gamma_AB) + (1-w)*R(gamma_BA).

    One MetricEstimate for one SystemConfig; a list, one per point, for a
    sequence of configs of one array size."""
    return _estimates(cfg, policy, trials, seed, _point_estimate, policy, "rate", trials, seed)


def mc_weighted_sum_ser(
    cfg: SystemConfig | Sequence[SystemConfig], policy: str, trials: int, seed: int
) -> MetricEstimate | list[MetricEstimate]:
    """Monte Carlo average of w*SER(gamma_AB) + (1-w)*SER(gamma_BA); one
    estimate per config, as in mc_weighted_sum_rate."""
    return _estimates(cfg, policy, trials, seed, _point_estimate, policy, "ser", trials, seed)


def _point_cdfs(picks: np.ndarray, cfg: SystemConfig, spans: list[slice], run,
                trials: int, grid: np.ndarray) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """cfg's empirical CDFs of (gamma_ab, gamma_ba) on grid, from each
    span's count of samples <= each grid value."""
    def counts(span):
        return np.array([np.searchsorted(np.sort(gamma), grid, side="right")
                         for gamma in _point_sinrs(picks[:, span], cfg)])

    return tuple(EmpiricalCdf(grid=grid, probabilities=n / trials) for n in sum(run(counts, spans)))


def mc_empirical_cdfs(
    cfg: SystemConfig | Sequence[SystemConfig], trials: int, seed: int, grid
) -> tuple[EmpiricalCdf, EmpiricalCdf] | list[tuple[EmpiricalCdf, EmpiricalCdf]]:
    """Empirical CDFs (gamma_ab, gamma_ba) of the Serial-Max instantaneous
    SINRs of the A->B and B->A links, whichever pick serves each, both
    from one draw and selection per chunk.

    One SystemConfig and one grid give one such pair of EmpiricalCdf; a
    sequence of configs and one grid per config give a list of pairs."""
    single = isinstance(cfg, SystemConfig)
    grids = [np.asarray(x, dtype=float) for x in ([grid] if single else grid)]
    if len(grids) != (1 if single else len(cfg)):
        raise ValueError("give one grid per config")
    for x in grids:
        if x.ndim != 1 or np.isnan(x).any() or np.any(np.diff(x) < 0):
            raise ValueError("grid must be one-dimensional and ascending")
    return _estimates(cfg, "serial_max", trials, seed, _point_cdfs, trials, each=grids)


def _p_not_estimate(picks: np.ndarray, cfg: SystemConfig, spans: list[slice], run,
                    trials: int, seed: int) -> MetricEstimate:
    """cfg's frequency of strict exhaustive wins over the four candidates' picks,
    rated only where exhaustive search left (M, S), elsewhere equal bit for bit."""
    def misses(span):
        g = _scaled(picks[:4, span], cfg)
        best = best_pairs(g, g, cfg.w, "max_wsr", None)
        moved = np.flatnonzero((best != g[:2]).any(axis=0))
        exh, ser = (weighted_sum(*by_weight(*pair[:, moved], cfg.w), cfg.w) for pair in (best, g[:2]))
        return int(np.count_nonzero(exh - ser > 1e-12 * np.abs(exh)))

    p = sum(run(misses, spans)) / trials
    std_error = math.sqrt(p * (1.0 - p) / trials)
    return MetricEstimate(value=p, std_error=std_error, trials=trials, master_seed=seed)


def mc_p_not(cfg: SystemConfig | Sequence[SystemConfig], trials: int,
             seed: int) -> MetricEstimate | list[MetricEstimate]:
    """Frequency of trials where exhaustive Max-WSR strictly beats Serial-Max,
    one estimate per config as in mc_weighted_sum_rate: where the best of the
    four candidate pairs' weighted rates exceeds that of Serial-Max's own
    pair (M, S) by more than 1e-12 relative."""
    return _estimates(cfg, "max_wsr", trials, seed, _p_not_estimate, trials, seed)
