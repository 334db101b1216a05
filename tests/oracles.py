"""Reference oracles that fdlink's own code never calls.

The quadrature oracles integrate a CDF's defining rate and SER integrals
numerically, independently of fdlink.analytic's closed forms;
derivation_terms, mu_coefficient and order_statistic_cdf write the
second-link CDF's terms as the source derivation does; second_link_rank
ranks a pick within its full matrix.  A quadrature that does not converge raises RuntimeError.

The full-matrix channel draw is the law oracle of fdlink.channel's
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

import functools
import math

import numpy as np
from numpy.random import Generator, Philox

from fdlink.config import ModulationParams
from fdlink.errors import DomainError
from fdlink.selection import SelectionOutcome

_LN2 = math.log(2.0)

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


@functools.lru_cache(maxsize=None)
def derivation_terms(n_a: int, n_b: int, link: str) -> tuple[int, list[tuple[int, int]]]:
    """Shared denominator and (exact signed numerator, c) of the link's CDF
    sum_c coef * e^(-c x/lam) / (1 + c eta x), the derivation's terms
    collected by c: the rank mixture's (k, l, m) terms for the second link,
    each with its exact math.comb numerator."""
    nn = n_a * n_b
    if link == "ab":
        return 1, [((-1) ** k * math.comb(nn, k), k) for k in range(nn + 1)]
    coefs = [0] * (nn + 1)
    for k in range(1, n_a + n_b):
        rank = math.comb(nn - k - 1, n_a + n_b - k - 1)
        for l in range(nn - k, nn + 1):
            for m in range(l + 1):
                coefs[nn - l + m] += (-1) ** m * rank * math.comb(nn, l) * math.comb(l, m)
    return math.comb(nn - 1, n_a + n_b - 2), [(coef, c) for c, coef in enumerate(coefs)]


def mu_coefficient(k: int, l: int, m: int, n_a: int, n_b: int) -> float:
    """Coefficient of the (k, l, m) term of the second-link CDF triple sum,
    as the source derivation writes it; collected by c = n_a*n_b - l + m,
    with sign (-1)^m, they give derivation_terms."""
    nn = n_a * n_b
    num = math.comb(nn - k - 1, n_a + n_b - k - 1) * math.comb(nn, l) * math.comb(l, m)
    return num / math.comb(nn - 1, n_a + n_b - 2)


def order_statistic_cdf(r: int, n: int, x: float, lam: float) -> float:
    """CDF at x of the order statistic reached by at least r of n i.i.d.
    exponential(mean lam) draws: sum_{i=r}^{n} C(n,i) F^i (1-F)^{n-i}."""
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= n, got r={r}, n={n}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    f = -math.expm1(-x / lam)
    return math.fsum(math.comb(n, i) * f**i * (1.0 - f) ** (n - i) for i in range(r, n + 1))


def second_link_rank(sinr: np.ndarray, outcome: SelectionOutcome) -> int:
    """Rank (1 = largest) of the second selected link within the full matrix."""
    return 1 + int(np.count_nonzero(sinr > outcome.gamma_second))


def quadrature_avg_rate(cdf_evaluator, tolerance: float = 1e-10) -> float:
    """(1/ln 2) * int_0^inf (1 - F(x)) / (1 + x) dx, via the compactifying
    substitution t = x/(1+x)."""
    from scipy.integrate import quad

    def integrand(t: float) -> float:
        if t >= 1.0 - 1e-15:
            return 0.0
        x = t / (1.0 - t)
        return (1.0 - cdf_evaluator(x)) / (1.0 - t)

    value, abserr, info, *rest = quad(
        integrand, 0.0, 1.0, epsabs=1e-14, epsrel=tolerance, limit=500, full_output=True
    )
    if rest:
        raise RuntimeError(f"rate quadrature failed: {rest[0]}")
    return value / _LN2


def quadrature_avg_ser(
    cdf_evaluator, mod: ModulationParams, tolerance: float = 1e-10
) -> float:
    """alpha*sqrt(beta)/(2*sqrt(2*pi)) * int_0^inf F(x) e^{-beta x/2}/sqrt(x) dx,
    with the endpoint singularity removed by x = t^2."""
    from scipy.integrate import quad
    beta = mod.beta_mod

    def integrand(t: float) -> float:
        return 2.0 * cdf_evaluator(t * t) * math.exp(-beta * t * t / 2.0)

    # a finite upper limit where the Gaussian factor has underflowed keeps
    # quad from overlooking the narrow bulk of the integrand, which the
    # infinite-interval transformation can sample too sparsely
    upper = math.sqrt(1500.0 / beta)
    value, abserr, info, *rest = quad(
        integrand, 0.0, upper, epsabs=1e-14, epsrel=tolerance, limit=500, full_output=True
    )
    if rest:
        raise RuntimeError(f"SER quadrature failed: {rest[0]}")
    return mod.alpha_mod * math.sqrt(beta) / (2.0 * math.sqrt(2.0 * math.pi)) * value
