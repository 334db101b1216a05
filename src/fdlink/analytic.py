"""Closed-form distributions, averages, ceilings, floors, and asymptotics
for the Serial-Max policy, plus quadrature oracles that evaluate the
defining integrals independently, for tests; no closed form calls them.

Numerical strategy: the CDF of either selected link is a sum
F(x) = sum_c A_c e^(-c x/lambda_s) / (1 + c eta x) / D over c = 0..nn = n_a*n_b,
with exact integer coefficients A_c over a shared denominator D, built
once per array size with Python ints (_coefficients).  Every average,
ceiling and floor integrates that sum term by term, so it is
sum_c A_c K(c) / D with a kernel K that alone differs between them.  K
depends on c and the config, never on the link, so each call evaluates
K(1..nn) once and sums both links' tables from that one kernel vector:

- rate:    [S(u) - S(x0)] / (1 - c eta) / ln 2, with S(x) = e^x E1(x),
           u = 1/(eta lambda_s) and x0 = c/lambda_s; where 1 - c eta is
           exactly 0 the exact limit x0 S(x0) - 1 is used, because
           S' = S - 1/x (A&S 5.1.26); at eta = 0, S(u) = 0;
- ceiling: ln(c eta) / (1 - c eta) / ln 2, the lambda_s -> inf limit,
           with limit -1 at c eta = 1;
- SER and floor: Q(sqrt(2a+b)) e^(a+b/2) = erfcx(sqrt(a+b/2)) / 2 with
           a = 1/(eta lambda_s) (0 for the floor), b = beta/(c eta); at
           eta = 0 its limit alpha sqrt(beta/8) / sqrt(c/lambda_s + beta/2).

The alternating sum cancels up to ~10 digits for rates at 6x6, ~20 for
SERs at eta >= 0.02, and ~300 for SERs at 6x6, eta = 0, 80 dB; a rate
kernel next to a singular c = 1/eta loses up to ~18 more.  So sums are
evaluated in mpmath at 50 digits, then at more while they cancel more than
those spare (_link_sums), so the double result is accurate to its last
digit.  Each result carries its largest term and is flagged only if its
sum still cancels too much at _MAX_DPS; a flagged ceiling or floor raises.

The perfect-cancellation CDF (eta = 0) is kept in its non-alternating
form sum_l B_l f^l (1-f)^(nn-l) / D, f = 1 - e^(-x/lambda_s), with the
per-l integers B_l from the same table, since the alternating form
loses every digit at small x in floating point.

Closed forms are supported for n_a*n_b <= 36; larger systems are
simulation-only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np

# exp_e1_scaled and erfcx are not called here; they stay bound because
# perfbench/spans.py counts calls made through these module attributes
from scipy.special import erfcx, gamma as gamma_fn  # noqa: F401

from .config import ModulationParams, SystemConfig
from .errors import ConvergenceFailure, DomainError, RequiresPerfectCancellation
from .selection import by_weight
from .special import binom, exp_e1_scaled  # noqa: F401

_LN2 = math.log(2.0)
MAX_NN_CLOSED_FORM = 36
_CDF_CLAMP = 1e-9
# mpmath digits of a closed-form sum: _DPS first, at most _MAX_DPS; a double
# needs _DOUBLE_DIGITS past the cancellation, an escalation adds _GUARD_DIGITS
_DPS = 50
_MAX_DPS = 1000
_DOUBLE_DIGITS = 17
_GUARD_DIGITS = 8


@dataclass(frozen=True)
class MixtureWeights:
    """p[k-1] = probability that the second selected link's SNR is the
    (n_a*n_b - k)-th order statistic of the full matrix, k = 1..n_a+n_b-1."""

    p: np.ndarray


@dataclass(frozen=True)
class AnalyticValue:
    """A closed-form value, the largest term of its sum, and whether the sum
    cancelled more digits than its working precision can spare."""

    value: float
    max_term_magnitude: float
    cancellation_flag: bool


def _check_closed_form_size(cfg: SystemConfig) -> None:
    if cfg.nn > MAX_NN_CLOSED_FORM:
        raise DomainError(
            f"closed forms support n_a*n_b <= {MAX_NN_CLOSED_FORM}, got {cfg.nn}; "
            "use the Monte Carlo estimators instead"
        )


def mu_coefficient(k: int, l: int, m: int, n_a: int, n_b: int) -> float:
    """Coefficient of the (k, l, m) term of the second-link CDF triple sum,
    as the source derivation writes it; _coefficients collects these by
    c = n_a*n_b - l + m."""
    nn = n_a * n_b
    num = binom(nn - k - 1, n_a + n_b - k - 1) * binom(nn, l) * binom(l, m)
    return num / binom(nn - 1, n_a + n_b - 2)


def mixture_weights(n_a: int, n_b: int) -> MixtureWeights:
    """Rank-mixture probabilities of the second selected link."""
    nn = n_a * n_b
    denom = binom(nn - 1, n_a + n_b - 2)
    p = np.array(
        [binom(nn - k - 1, n_a + n_b - k - 1) / denom for k in range(1, n_a + n_b)]
    )
    return MixtureWeights(p=p)


@functools.lru_cache(maxsize=None)
def _coefficients(
    n_a: int, n_b: int, link: str
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Exact integers (D, B, A) of a selected link's SINR CDF:

        F(x) = sum_l B_l f^l (1-f)^(nn-l) / D                   at eta = 0,
        F(x) = sum_c A_c e^(-c x/lam) / (1 + c eta x) / D       at any eta,

    with f = 1 - e^(-x/lam), l, c = 0..nn.  The first link is the largest
    of nn entries, F = f^nn; the second is the rank mixture, where the
    (nn-k)-th order statistic has probability C(nn-k-1, n_a+n_b-k-1) / D.
    A follows from B by expanding f^l binomially, and conditioning on the
    residual interference turns each e^(-c x/lam) into the eta form."""
    nn = n_a * n_b
    if link == "ab":
        denom, powers = 1, [0] * nn + [1]
    else:
        denom = binom(nn - 1, n_a + n_b - 2)
        ranks = [binom(nn - k - 1, n_a + n_b - k - 1) for k in range(1, n_a + n_b)]
        # the (nn-k)-th order statistic is below x when at least nn-k entries are
        powers = [binom(nn, l) * sum(ranks[max(nn - l, 1) - 1:]) for l in range(nn + 1)]
    table = [0] * (nn + 1)
    for l, b in enumerate(powers):
        for m in range(l + 1):
            table[nn - l + m] += (-1) ** m * binom(l, m) * b
    return denom, tuple(powers), tuple(table)


def order_statistic_cdf(r: int, n: int, x: float, lam: float) -> float:
    """CDF at x of the order statistic reached by at least r of n i.i.d.
    exponential(mean lam) draws: sum_{i=r}^{n} C(n,i) F^i (1-F)^{n-i}."""
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= n, got r={r}, n={n}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    f = -math.expm1(-x / lam)
    return math.fsum(
        binom(n, i) * f**i * (1.0 - f) ** (n - i) for i in range(r, n + 1)
    )


def _clamp_cdf(value: float) -> float:
    if -_CDF_CLAMP <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + _CDF_CLAMP:
        return 1.0
    return value


def _cdf(x: float, cfg: SystemConfig, link: str) -> float:
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    _check_closed_form_size(cfg)
    denom, powers, table = _coefficients(cfg.n_a, cfg.n_b, link)
    nn, lam = cfg.nn, cfg.lambda_s
    if cfg.eta == 0.0:
        # every term is positive here, so small x keeps its digits
        f = -math.expm1(-x / lam)
        terms = [b * f**l * math.exp(-(nn - l) * x / lam) for l, b in enumerate(powers) if b]
    else:
        terms = [
            a * math.exp(-c * x / lam) / (c * cfg.eta * x + 1.0)
            for c, a in enumerate(table)
            if a
        ]
    return _clamp_cdf(math.fsum(terms) / denom)


def cdf_gamma_ab(x: float, cfg: SystemConfig) -> float:
    """CDF of the first pick's SINR (first pick = the larger-weight direction)."""
    return _cdf(x, cfg, "ab")


def cdf_gamma_ba(x: float, cfg: SystemConfig) -> float:
    """CDF of the second pick's SINR (second pick = the smaller-weight direction)."""
    return _cdf(x, cfg, "ba")


# ---------------------------------------------------------------------------
# quadrature oracles over the defining integrals


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
        raise ConvergenceFailure(f"rate quadrature failed: {rest[0]}")
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
        raise ConvergenceFailure(f"SER quadrature failed: {rest[0]}")
    return mod.alpha_mod * math.sqrt(beta) / (2.0 * math.sqrt(2.0 * math.pi)) * value


# ---------------------------------------------------------------------------
# closed-form averages


def _link_sums(cfg: SystemConfig, kind: str, links=("ab", "ba")) -> list[AnalyticValue]:
    """The rate, ceiling, SER or floor (kind) of each link: constant + sum_{c>=1}
    A_c K(c) / D over the link's table, with K, constant = _KERNELS[kind](cfg).
    K(c) depends on c and cfg alone, so K(1..nn) is evaluated once for every
    link.  While a sum cancels more digits than its precision spares (a zero
    sum too), K is evaluated again at twice the digits or more; this loops,
    since a short sum returns noise that understates its cancellation.  A
    sum still short at _MAX_DPS is flagged."""
    _check_closed_form_size(cfg)
    dps = _DPS
    while True:
        sums = []
        with mpmath.workdps(dps):
            kernel, constant = _KERNELS[kind](cfg)
            vector = [kernel(c) for c in range(1, cfg.nn + 1)]
            for link in links:
                denom, _, table = _coefficients(cfg.n_a, cfg.n_b, link)
                terms = [mpmath.mpf(constant)] + [a * k / denom for a, k in zip(table[1:], vector) if a]
                value = mpmath.fsum(terms)
                max_term = max(abs(t) for t in terms)
                flag = max_term > abs(value) * 10 ** (dps - _DOUBLE_DIGITS)
                sums.append((value, max_term, flag))
        if dps == _MAX_DPS or not any(flag for _, _, flag in sums):
            return [AnalyticValue(float(v), float(m), flag) for v, m, flag in sums]
        lost = max(mpmath.log10(m / abs(v)) if v else mpmath.inf for v, m, _ in sums)
        dps = int(min(_MAX_DPS, max(2 * dps, mpmath.ceil(_DOUBLE_DIGITS + lost) + _GUARD_DIGITS)))


def _combine(cfg: SystemConfig, first: AnalyticValue, second: AnalyticValue) -> AnalyticValue:
    """w*(A->B) + (1-w)*(B->A) of the first and second pick's values."""
    ab, ba = by_weight(first, second, cfg.w)
    return AnalyticValue(
        value=cfg.w * ab.value + (1.0 - cfg.w) * ba.value,
        max_term_magnitude=max(ab.max_term_magnitude, ba.max_term_magnitude),
        cancellation_flag=ab.cancellation_flag or ba.cancellation_flag,
    )


def _vouched(result: AnalyticValue, what: str) -> float:
    """The value of a limit that has no AnalyticValue to carry its flag;
    raises where the sum cancelled more digits than it can spare."""
    if result.cancellation_flag:
        raise DomainError(
            f"{what} sum cancels more than {_MAX_DPS - _DOUBLE_DIGITS} digits "
            f"(largest term {result.max_term_magnitude:.3g}, value {result.value:.3g})"
        )
    return result.value


def _rate_kernel(cfg: SystemConfig):
    eta, lam = mpmath.mpf(cfg.eta), mpmath.mpf(cfg.lambda_s)
    s = lambda x: mpmath.exp(x) * mpmath.e1(x)  # noqa: E731  S(x) = e^x E1(x)
    if not eta:
        return (lambda c: -s(c / lam) / mpmath.ln2), 0
    s_u = s(1 / (eta * lam))

    def kernel(c):
        # at c*eta = 1 exactly, u = x0 and the quotient's limit is
        # x0 S'(x0) = x0 S(x0) - 1
        x0, d = c / lam, 1 - c * eta
        s_x0 = s(x0)
        return ((s_u - s_x0) / d if d else x0 * s_x0 - 1) / mpmath.ln2

    return kernel, 0


def _ceiling_kernel(cfg: SystemConfig):
    eta = mpmath.mpf(cfg.eta)

    def kernel(c):
        d = 1 - c * eta
        return (mpmath.log(c * eta) / d if d else -1) / mpmath.ln2

    return kernel, 0


def _ser_kernel(cfg: SystemConfig, floor: bool = False):
    mod = cfg.modulation
    alpha, beta = mpmath.mpf(mod.alpha_mod), mpmath.mpf(mod.beta_mod)
    eta, lam = mpmath.mpf(cfg.eta), mpmath.mpf(cfg.lambda_s)
    pre = alpha * mpmath.sqrt(beta * mpmath.pi / 2) / 2
    if not eta:
        # erfcx(z) ~ 1/(z sqrt(pi)) as z^2 = (c/lambda_s + beta/2) / (c eta) grows
        return (lambda c: pre / mpmath.sqrt(mpmath.pi * (c / lam + beta / 2))), alpha / 2
    a = 0 if floor else 1 / (eta * lam)

    def kernel(c):
        # erfcx(z) = e^(z^2) erfc(z) with z^2 squared exactly, since a
        # rounded square would cost log10(z^2) digits of the product
        z = mpmath.sqrt(a + beta / (2 * c * eta))
        erfcx_z = mpmath.exp(mpmath.fmul(z, z, exact=True)) * mpmath.erfc(z)
        return pre * erfcx_z / mpmath.sqrt(c * eta)

    # the c = 0 constant of the CDF integrates to alpha/2
    return kernel, alpha / 2


_KERNELS = {"rate": _rate_kernel, "ceiling": _ceiling_kernel, "ser": _ser_kernel,
            "floor": functools.partial(_ser_kernel, floor=True)}


def avg_rate_ab(cfg: SystemConfig) -> AnalyticValue:
    """Average rate of the first pick (the larger-weight direction)."""
    return _link_sums(cfg, "rate", ("ab",))[0]


def avg_rate_ba(cfg: SystemConfig) -> AnalyticValue:
    """Average rate of the second pick (the smaller-weight direction)."""
    return _link_sums(cfg, "rate", ("ba",))[0]


def avg_weighted_sum_rate(cfg: SystemConfig) -> AnalyticValue:
    """Average weighted sum rate of Serial-Max."""
    return _combine(cfg, *_link_sums(cfg, "rate"))


def rate_ceiling(cfg: SystemConfig) -> float:
    """Limit of the average weighted sum rate as lambda_s -> inf.

    Obtained from the closed forms via E1(eps) ~ -euler_gamma - ln eps:
    each bracket tends to ln(c*eta)."""
    if cfg.eta == 0.0:
        raise DomainError("rate ceiling requires eta > 0 (no ceiling under perfect cancellation)")
    return _vouched(_combine(cfg, *_link_sums(cfg, "ceiling")), "rate ceiling")


def avg_ser_ab(cfg: SystemConfig) -> AnalyticValue:
    """Average SER of the first pick (the larger-weight direction)."""
    return _link_sums(cfg, "ser", ("ab",))[0]


def avg_ser_ba(cfg: SystemConfig) -> AnalyticValue:
    """Average SER of the second pick (the smaller-weight direction)."""
    return _link_sums(cfg, "ser", ("ba",))[0]


def avg_weighted_sum_ser(cfg: SystemConfig) -> AnalyticValue:
    """Average weighted sum SER of Serial-Max."""
    return _combine(cfg, *_link_sums(cfg, "ser"))


def ser_floor(cfg: SystemConfig) -> float:
    """Limit of the average weighted sum SER as lambda_s -> inf (a = 0)."""
    if cfg.eta == 0.0:
        raise DomainError("SER floor requires eta > 0 (no floor under perfect cancellation)")
    return _vouched(_combine(cfg, *_link_sums(cfg, "floor")), "SER floor")


# ---------------------------------------------------------------------------
# perfect-cancellation asymptotics


def _over_power(x, scale: float, base: float, n: int):
    """x / (scale * base**n) as a Python float.  Where that denominator leaves
    the normal float range the quotient may still fit, so it is scaled by
    base's binary exponent instead: base = m * 2**e, x / (scale * m**n) *
    2**(-e*n)."""
    try:
        if sys.float_info.min <= (denom := scale * base**n) < math.inf:
            return float(x / denom)
    except OverflowError:
        pass
    m, e = math.frexp(base)
    try:
        return math.ldexp(x / (scale * m**n), -e * n)
    except OverflowError:
        return math.inf


def __getattr__(name: str):
    # only the oracles use slow-to-import scipy.integrate, but
    # perfbench/spans.py reads analytic.quad when tracing
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    return quad


def asymptotic_ser_generic(n_order: int, zeta: float, lam: float, mod: ModulationParams) -> float:
    """High-SNR SER of a link whose SINR density opens as zeta*x^N/lam^(N+1)."""
    if n_order < 0 or lam <= 0:
        raise DomainError("need n_order >= 0 and lam > 0")
    n = n_order
    return _over_power(
        2.0**n * mod.alpha_mod * zeta * gamma_fn(n + 1.5),
        math.sqrt(math.pi) * (n + 1),
        mod.beta_mod * lam,
        n + 1,
    )


def asymptotic_ser_perfect_cancellation(
    cfg: SystemConfig, lambda_s: float
) -> tuple[float, float, float]:
    """High-SNR SER asymptotes (ser_ab, ser_ba, weighted) for eta = 0.

    ser_ab decays with diversity order n_a*n_b, ser_ba and the weighted
    sum with (n_a-1)*(n_b-1)."""
    if cfg.eta != 0.0:
        raise RequiresPerfectCancellation(f"eta must be 0, got {cfg.eta}")
    nn, n_a, n_b = cfg.nn, cfg.n_a, cfg.n_b
    mod = cfg.modulation
    sqrt_pi = math.sqrt(math.pi)
    u1 = 2.0 ** (nn - 1) * mod.alpha_mod * gamma_fn(nn + 0.5) / (mod.beta_mod**nn * sqrt_pi)
    m_div = (n_a - 1) * (n_b - 1)
    u2 = (2.0 ** (nn - n_a - n_b) * mod.alpha_mod * gamma_fn(m_div + 0.5) * binom(nn, m_div)
          / (mod.beta_mod**m_div * sqrt_pi * binom(nn - 1, n_a + n_b - 2)))
    ser_ab = _over_power(u1, 1.0, lambda_s, nn)
    ser_ba = _over_power(u2, 1.0, lambda_s, m_div)
    small_w = by_weight(cfg.w, 1.0 - cfg.w, cfg.w)[1]
    weighted = _over_power(small_w * u2, 1.0, lambda_s, m_div)
    return ser_ab, ser_ba, weighted
