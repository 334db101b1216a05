"""The full-matrix channel draw, the law oracle of fdlink.channel's
candidate sampler.

draw_matrix_batch draws every entry of each trial's n_a x n_b SNR matrix,
exponential with mean lambda_s by inverse CDF as -lambda * ln(u) with u
in (0, 1], and the two INRs.  Its Philox stream is counter-addressed:
each trial owns a block of ceil((n_a n_b + 2) / 4) * 4 uniform doubles,
so the batch for trials [k, k + count) is bitwise identical to rows k..
of any batch that covers them.  Selection on these matrices
(fdlink.selection.candidates) gives the M, S, R and C whose law the
sampler draws directly.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

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


def draw_matrix_batch(master_seed: int, start_trial: int, count: int, cfg,
                      lambda_i: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
