"""Fixed reference kernels that measure how fast the host runs right now.

On a host shared with other tenants the same code runs 20-40 % slower
for minutes at a time.  Each workload therefore times, right before its
first call and right after every call, a small fixed kernel of the same
kind of work as its own (mpmath and quadrature for the closed forms,
Philox draws, argmax and fsum for the Monte Carlo workloads, and a
gathered exhaustive objective array for the exhaustive one).  A call's
time is rescaled by the kernel's nominal time over its measured time
around that call, which gives the call's time at the nominal host speed.

The kernels use only numpy, scipy and mpmath, never fdlink, so no change
to fdlink moves them.  NOMINAL_S is each kernel's median time on the
2-vCPU host the benchmark was defined on (Intel Xeon, Python 3.11.7,
numpy 2.4.6); it only sets the scale of the rescaled times.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np
from numpy.random import Generator, Philox
from scipy.integrate import quad


def _mp() -> None:
    with mpmath.workdps(50):
        x = mpmath.mpf(1)
        for i in range(1, 300):
            x = x * mpmath.mpf(i) / (i + 1) + mpmath.exp(mpmath.mpf(-i) / 7)
    quad(lambda t: math.exp(-t) / (1.0 + t), 0.0, math.inf)


def _mc_small() -> None:
    rows = 1 << 14
    for key in range(8):
        g = -np.log(Generator(Philox(key=key)).random((rows, 9)))
        best = np.argmax(g, axis=1)
        math.fsum(np.log2(1.0 + g[np.arange(rows), best]))


def _mc_exhaustive() -> None:
    rows = 1 << 16
    g = -np.log(Generator(Philox(key=1)).random((rows, 9)))
    pairs = Generator(Philox(key=2)).integers(0, 9, (rows, 8))
    np.argmax(g[np.arange(rows)[:, None], pairs], axis=1)
    # every (i_t, j_r, i_r, j_t) with i_t != i_r and j_r != j_t at 6x6
    rows = 1 << 10
    per_link = np.log2(1.0 - np.log(Generator(Philox(key=3)).random((rows, 6, 6))))
    obj = 0.7 * per_link[:, _I_T, _J_R] + 0.3 * per_link[:, _I_R, _J_T]
    np.argmax(obj, axis=1)


_I_T, _J_R, _I_R, _J_T = np.array([
    (i_t, j_r, i_r, j_t) for i_t in range(6) for j_r in range(6)
    for i_r in range(6) for j_t in range(6) if i_t != i_r and j_r != j_t]).T
KERNELS = {"mp": _mp, "mc_small": _mc_small, "mc_exhaustive": _mc_exhaustive}
NOMINAL_S = {"mp": 0.008, "mc_small": 0.036, "mc_exhaustive": 0.045}


class Reference:
    """One kernel, timed on demand."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.kernel = KERNELS[name]
        self.nominal_s = NOMINAL_S[name]
        self.kernel()  # warm-up: first-call imports and caches

    def __call__(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start
