"""Per-slot channel randomness: SNR matrices and residual-interference draws.

Rayleigh fading is simulated directly in the |h|^2 domain: each per-link
instantaneous SNR is exponential with mean lambda_s, sampled by inverse
CDF as -lambda * ln(u) with u in (0, 1].

There is one draw path, draw_trial_batch.  Its Philox stream is
counter-addressed: each trial owns a block of uniform doubles at a fixed
stride, so the batch for trials [k, k + count) is bitwise identical to
rows k.. of any batch that covers them, and a single trial is simply a
batch of one.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .config import DerivedParams, SystemConfig


# A Philox counter increment yields 4 uint64 outputs = 4 doubles, so the
# per-trial stride must be a multiple of 4 for advance() to land on a
# block boundary.
_PHILOX_BLOCK = 4


def _doubles_per_trial(n_a: int, n_b: int) -> int:
    need = n_a * n_b + 2  # matrix entries + inr_a + inr_b
    return -(-need // _PHILOX_BLOCK) * _PHILOX_BLOCK


def _exponential_from_uniform(u: np.ndarray, mean: float):
    # u is in [0, 1); flip to (0, 1] so the log never sees zero.  The same
    # steps as -mean * log1p(-u), in one new array
    x = np.negative(u)
    np.log1p(x, out=x)
    x *= -mean
    return x


def draw_trial_batch(
    master_seed: int, start_trial: int, count: int, cfg: SystemConfig, lambda_i: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draws for trials [start_trial, start_trial + count).

    Returns (snr, inr_a, inr_b) with shapes (count, n_a, n_b), (count,),
    (count,); inr_a is the draw consumed at node A, inr_b the one at B.
    """
    stride = _doubles_per_trial(cfg.n_a, cfg.n_b)
    bitgen = Philox(key=master_seed)
    bitgen.advance(start_trial * stride // _PHILOX_BLOCK)
    u = Generator(bitgen).random((count, stride))
    snr = _exponential_from_uniform(u[:, : cfg.nn], cfg.lambda_s).reshape(count, cfg.n_a, cfg.n_b)
    inr_a = _exponential_from_uniform(u[:, cfg.nn], lambda_i)
    inr_b = _exponential_from_uniform(u[:, cfg.nn + 1], lambda_i)
    return snr, inr_a, inr_b


def to_obtainable_sinr(snr: np.ndarray, derived: DerivedParams) -> np.ndarray:
    """Entrywise gamma = gamma_s * scale; strictly monotone, order-preserving."""
    return snr * derived.scale


def instantaneous_sinr(gamma_s, gamma_ri):
    """gamma_s / (gamma_ri + 1) with the actual residual-interference draw,
    elementwise, in one new array (x[()] is a scalar for scalar input)."""
    x = np.empty(np.broadcast_shapes(np.shape(gamma_s), np.shape(gamma_ri)))
    np.add(gamma_ri, 1.0, out=x)
    np.divide(gamma_s, x, out=x)
    return x[()]
