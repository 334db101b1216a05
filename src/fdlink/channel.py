"""Per-slot channel randomness: candidate SNRs and residual-interference draws.

Rayleigh fading is simulated in the |h|^2 domain: per-link SNRs are
exponential, F(x) = 1 - exp(-x) at unit mean.  Selection reads only the
values M, S, R and C of an n_a x n_b SNR matrix (see fdlink.selection);
draw_trial_batch draws those, not the matrix.  Given the largest entry
M = m, the others are i.i.d. with law F(x)/F(m) on [0, m] (David &
Nagaraja, Order Statistics, 3rd ed., 2.4), so S, R and C are independent
maxima of k = (n_a-1)(n_b-1), n_b-1 and n_a-1 of them.  With uniforms u
in (0, 1), p = u0**(1/(n_a n_b)) = F(m) and q = 1 - p, m = -log(q) and
X = -log(q + p * (1 - u**(1/k))); u**(1/k) is exp(log(u)/k) and
1 - u**(1/k) is -expm1(log(u)/k), so nothing cancels, even at 10**6 x
10**6.  Each log is multiplied by -lambda last, so a draw at mean lambda
is lambda times the unit draw bit for bit.  The Philox stream is
counter-addressed: trial k owns the 8 words at 8k (4 candidate uniforms,
2 INR uniforms, 2 spare) at every size, so a batch for trials [k, k + n)
equals columns k.. of any batch that covers them.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SystemConfig

# words per trial: two Philox counter steps of 4 words each
_PER_TRIAL = 8


def _candidates(x: np.ndarray, n_a: int, n_b: int, mean: float) -> np.ndarray:
    """The first len(x) of (M, S, R, C) at mean from the logs x of their uniforms, in place."""
    x /= np.array([[n_a * n_b], [(n_a - 1) * (n_b - 1)], [n_b - 1], [n_a - 1]], dtype=float)[:len(x)]
    p = np.exp(x[0])
    np.expm1(x, out=x)
    np.negative(x, out=x)  # row 0 is now q, rows 1.. are 1 - u**(1/k)
    x[1:] *= p
    x[1:] += x[0]
    np.log(x, out=x)
    x *= -mean
    return x


@functools.cache
def largest_unit_draw(n_a: int, n_b: int) -> float:
    """The largest unit draw at this size: M's at the largest uniform,
    1 - 2**-53, about 53 ln 2 + ln(n_a n_b), above every INR's 53 ln 2."""
    return float(_candidates(np.full((4, 1), np.log(1.0 - 2.0**-53)), n_a, n_b, 1.0).max())


def draw_trial_batch(
    master_seed: int, start_trial: int, count: int, cfg: SystemConfig, lambda_i: float,
    candidates: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws for trials [start_trial, start_trial + count) at cfg's size: the
    (candidates, count) candidate SNRs at mean cfg.lambda_s, (M, S) or
    (M, S, R, C), and the (count,) INRs at mean lambda_i consumed at node A
    and at node B.  The rows do not depend on candidates."""
    if candidates not in (2, 4):
        raise ValueError(f"candidates must be 2 or 4, got {candidates!r}")
    from numpy.random import Philox  # here, not at import: about 15 ms that only draws need
    bitgen = Philox(key=master_seed)
    bitgen.advance(start_trial * _PER_TRIAL // 4)
    # the top 52 bits j of a word give the uniform (2j + 1) * 2**-53; j
    # fits an int64, which converts to float faster than a uint64
    words = bitgen.random_raw(count * _PER_TRIAL)
    words >>= np.uint64(11)
    words |= np.uint64(1)
    words = words.view(np.int64).reshape(count, _PER_TRIAL)[:, slice(6) if candidates == 4 else [0, 1, 4, 5]]
    log_u = words.T.astype(float, order="C")
    log_u *= 2.0**-53
    np.log(log_u, out=log_u)
    inr = log_u[candidates:]
    inr *= -lambda_i
    return _candidates(log_u[:candidates], cfg.n_a, cfg.n_b, cfg.lambda_s), inr[0], inr[1]


def instantaneous_sinr(gamma_s, gamma_ri, out=None):
    """gamma_s / (gamma_ri + 1) with the actual residual-interference draw,
    elementwise, in out or one new array (x[()] is a scalar for scalar input)."""
    x = np.empty(np.broadcast_shapes(np.shape(gamma_s), np.shape(gamma_ri))) if out is None else out
    np.add(gamma_ri, 1.0, out=x)
    np.divide(gamma_s, x, out=x)
    return x[()]
