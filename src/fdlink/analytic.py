"""Closed-form distributions, averages, ceilings, floors, and asymptotics
for the Serial-Max policy.  The quadrature oracles that check them against
the defining integrals live with the tests (tests/oracles.py).

Numerical strategy: the CDF of either selected link is a sum
F(x) = sum_c A_c e^(-c x/lambda_s) / (1 + c eta x) / D over c = 0..nn = n_a*n_b,
with exact integer coefficients A_c over a shared denominator D, built
once per array size with Python ints (_coefficients) from the law of one
maximum: at eta = 0 the first link's CDF is f^nn, f = 1 - e^(-x/lambda_s),
and the second's (nn f^k - k f^nn) / (nn - k), k = (n_a-1)(n_b-1).  The
CDF and every average, ceiling and floor (which integrate it term by
term) are each sum_c A_c K(c) / D with a kernel K that alone differs
between them.  K depends on c and the config, never on the link, so each
call evaluates K(1..nn) once and sums both links' tables from that one
kernel vector (_link_sums); a per-link function such as avg_rate_ba is
one entry of that pair.  The kernels:

- CDF:     e^(-c x/lambda_s) / (1 + c eta x);
- rate:    [S(u) - S(x0)] / (1 - c eta) / ln 2, with S(x) = e^x E1(x),
           u = 1/(eta lambda_s) and x0 = c/lambda_s; where 1 - c eta is
           exactly 0 the exact limit x0 S(x0) - 1 is used, because
           S' = S - 1/x (A&S 5.1.26); at eta = 0, S(u) = 0;
- ceiling: ln(c eta) / (1 - c eta) / ln 2, the lambda_s -> inf limit,
           with limit -1 at c eta = 1;
- SER and floor: Q(sqrt(2a+b)) e^(a+b/2) = erfcx(sqrt(a+b/2)) / 2 with
           a = 1/(eta lambda_s) (0 for the floor), b = beta/(c eta); at
           eta = 0 its limit alpha sqrt(beta/8) / sqrt(c/lambda_s + beta/2).

The alternating sum cancels up to ~10 digits for rates at 6x6 (~41 at
12x12), ~20 for SERs at eta >= 0.02, ~300 for SERs at 6x6, eta = 0,
80 dB, and nearly all of its largest term for a CDF at x << lambda_s; a
rate kernel next to a singular c = 1/eta loses up to ~18 more.  So sums
are evaluated in mpmath at 50 digits, then at more while they cancel more
than those spare (_link_sums), so the double result is accurate to its
last digit.  Each result carries its largest term and is flagged only if
its sum still cancels too much at _MAX_DPS; a flagged sum lies below the
float range and is +0.0, and a flagged ceiling or floor raises.  The eta = 0
asymptotes are one mpmath formula each, rounded once (inf or 0.0 past the
float range).  Closed forms support n_a*n_b <= MAX_NN_CLOSED_FORM = 144
(12x12), the largest size the reference tests check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .config import ModulationParams, SystemConfig
from .errors import DomainError, RequiresPerfectCancellation
from .selection import by_weight
# exp_e1_scaled is not called here; it stays bound, as erfcx does through
# __getattr__, because perfbench/spans.py counts calls made through both
from .special import exp_e1_scaled  # noqa: F401

# the reference tests check every closed form up to 12x12 and the CDFs up
# to 2x72; nothing past n_a*n_b = 144 is checked
MAX_NN_CLOSED_FORM = 144
# mpmath digits of a closed-form sum: _DPS first, at most _MAX_DPS; a double
# needs _DOUBLE_DIGITS past the cancellation, an escalation adds _GUARD_DIGITS
_DPS = 50
_MAX_DPS = 1000
_DOUBLE_DIGITS = 17
_GUARD_DIGITS = 8
# z^2 past which the SER kernel sums erfcx's asymptotic series (least term e^-(z^2) < 10^-_MAX_DPS)
_ERFCX_SERIES = mpmath.mpf(10**4)


def __getattr__(name: str):
    # nothing here integrates numerically or calls erfcx, so scipy.integrate
    # and scipy.special, about 0.2 s of import, load only on a read of
    # analytic.quad or analytic.erfcx, which perfbench/spans.py makes
    if name == "quad":
        from scipy.integrate import quad
        return quad
    if name == "erfcx":
        from scipy.special import erfcx
        return erfcx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AnalyticValue:
    """A closed-form value, the largest term of its sum, and whether the sum
    cancelled more digits than its working precision can spare."""

    value: float
    max_term_magnitude: float
    cancellation_flag: bool


def _check_closed_form_size(cfg: SystemConfig) -> None:
    if cfg.nn > MAX_NN_CLOSED_FORM:
        raise DomainError(f"closed forms support n_a*n_b <= {MAX_NN_CLOSED_FORM}, got {cfg.nn}; "
                          "use the Monte Carlo estimators instead")


def mixture_weights(n_a: int, n_b: int) -> np.ndarray:
    """p[k-1] = probability that the second selected link's SNR is the
    (n_a*n_b - k)-th order statistic of the full matrix, k = 1..n_a+n_b-1:
    C(nn-k-1, n_a+n_b-k-1) / C(nn-1, n_a+n_b-2)."""
    nn, m = n_a * n_b, n_a + n_b
    return np.array([math.comb(nn - k - 1, m - k - 1) / math.comb(nn - 1, m - 2) for k in range(1, m)])


@functools.lru_cache(maxsize=None)
def _coefficients(n_a: int, n_b: int, link: str) -> tuple[int, tuple[int, ...]]:
    """Exact integers (D, A) of a selected link's SINR CDF

        F(x) = sum_c A_c e^(-c x/lam) / (1 + c eta x) / D,   c = 0..nn.

    At eta = 0 the first link is the largest of nn entries, F = f^nn with
    f = 1 - e^(-x/lam).  Given it, the others are i.i.d. below it (David &
    Nagaraja, Order Statistics, 3rd ed., sec. 2.4); the second link is the
    largest of the k = (n_a-1)(n_b-1) off its row and column, F = (nn f^k -
    k f^nn) / (nn - k).  With f^n = sum_c row(n)_c e^(-c x/lam), row(n)_c =
    (-1)^c C(n, c), the first link's A is row(nn) over D = 1, the second's
    (nn row(k) - k row(nn)) D / (nn - k), exact, over D = C(nn-1, k).
    Conditioning on the residual interference gives the eta form."""
    nn, k = n_a * n_b, (n_a - 1) * (n_b - 1)
    if link == "ab":
        return 1, tuple((-1) ** c * math.comb(nn, c) for c in range(nn + 1))
    denom = math.comb(nn - 1, k)
    return denom, tuple((-1) ** c * (nn * math.comb(k, c) - k * math.comb(nn, c)) * denom // (nn - k)
                        for c in range(nn + 1))


def cdf_gammas(x: float, cfg: SystemConfig) -> tuple[float, float]:
    """(first, second) pick's SINR CDFs at x, from one kernel vector."""
    if not x >= 0:
        raise DomainError(f"x must be >= 0, got {x}")
    return tuple(r.value for r in _link_sums(cfg, functools.partial(_cdf_kernel, x=x)))


def cdf_gamma_ab(x: float, cfg: SystemConfig) -> float:
    """CDF of the first pick's SINR (first pick = the larger-weight direction)."""
    return cdf_gammas(x, cfg)[0]


def cdf_gamma_ba(x: float, cfg: SystemConfig) -> float:
    """CDF of the second pick's SINR (second pick = the smaller-weight direction)."""
    return cdf_gammas(x, cfg)[1]


# ---------------------------------------------------------------------------
# closed-form averages


def _link_sums(cfg: SystemConfig, kernels) -> list[AnalyticValue]:
    """[first, second] pick's CDF, rate, ceiling, SER or floor: constant +
    sum_{c>=1} A_c K(c) / D over each link's table, with K, constant =
    kernels(cfg).  K(c) depends on c and cfg alone, so K(1..nn) is
    evaluated once for both links.  While a sum cancels more digits than
    its precision spares (a zero sum too), K is evaluated again at twice
    the digits or more; this loops, since a short sum returns noise that
    understates its cancellation.  A sum still short at _MAX_DPS is
    flagged and +0.0: it is below 10^-940 (no coefficient |A_c|/D passes
    10^43 up to MAX_NN_CLOSED_FORM), or exactly 0."""
    _check_closed_form_size(cfg)
    dps = _DPS
    while True:
        sums = []
        with mpmath.workdps(dps):
            kernel, constant = kernels(cfg)
            vector = [kernel(c) for c in range(1, cfg.nn + 1)]
            for link in ("ab", "ba"):
                denom, table = _coefficients(cfg.n_a, cfg.n_b, link)
                terms = [mpmath.mpf(constant)] + [a * k / denom for a, k in zip(table[1:], vector) if a]
                value = mpmath.fsum(terms)
                max_term = max(abs(t) for t in terms)
                flag = max_term > abs(value) * 10 ** (dps - _DOUBLE_DIGITS)
                sums.append((value, max_term, flag))
        if dps == _MAX_DPS or not any(flag for _, _, flag in sums):
            return [AnalyticValue(0.0 if flag else float(v), float(m), flag) for v, m, flag in sums]
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


def _cdf_kernel(cfg: SystemConfig, x: float):
    x = mpmath.mpf(x)
    t, eta_x = -x / cfg.lambda_s, x * cfg.eta
    # the c = 0 term of the table is A_0/D = 1
    return (lambda c: mpmath.exp(c * t) / (1 + c * eta_x)), 1


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


def _erfcx_asymptotic(z, z2):
    """erfcx(z) = (z sqrt(pi))^-1 sum_k (-1)^k (2k-1)!! / (2 z^2)^k, to the
    first term below the working precision, which bounds the rest."""
    total = term = mpmath.mpf(1)
    k = 0
    while abs(term) >= mpmath.eps:
        k += 1
        term *= (1 - 2 * k) / (2 * z2)
        total += term
    return total / (z * mpmath.sqrt(mpmath.pi))


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
        z2 = mpmath.fmul(z, z, exact=True)
        erfcx_z = (_erfcx_asymptotic(z, z2) if z2 > _ERFCX_SERIES
                   else mpmath.exp(z2) * mpmath.erfc(z))
        return pre * erfcx_z / mpmath.sqrt(c * eta)

    # the c = 0 constant of the CDF integrates to alpha/2
    return kernel, alpha / 2


def avg_rate_ab(cfg: SystemConfig) -> AnalyticValue:
    """Average rate of the first pick (the larger-weight direction)."""
    return _link_sums(cfg, _rate_kernel)[0]


def avg_rate_ba(cfg: SystemConfig) -> AnalyticValue:
    """Average rate of the second pick (the smaller-weight direction)."""
    return _link_sums(cfg, _rate_kernel)[1]


def avg_weighted_sum_rate(cfg: SystemConfig) -> AnalyticValue:
    """Average weighted sum rate of Serial-Max."""
    return _combine(cfg, *_link_sums(cfg, _rate_kernel))


def rate_ceiling(cfg: SystemConfig) -> float:
    """Limit of the average weighted sum rate as lambda_s -> inf.

    Obtained from the closed forms via E1(eps) ~ -euler_gamma - ln eps:
    each bracket tends to ln(c*eta)."""
    if cfg.eta == 0.0:
        raise DomainError("rate ceiling requires eta > 0 (no ceiling under perfect cancellation)")
    return _vouched(_combine(cfg, *_link_sums(cfg, _ceiling_kernel)), "rate ceiling")


def avg_ser_ab(cfg: SystemConfig) -> AnalyticValue:
    """Average SER of the first pick (the larger-weight direction)."""
    return _link_sums(cfg, _ser_kernel)[0]


def avg_ser_ba(cfg: SystemConfig) -> AnalyticValue:
    """Average SER of the second pick (the smaller-weight direction)."""
    return _link_sums(cfg, _ser_kernel)[1]


def avg_weighted_sum_ser(cfg: SystemConfig) -> AnalyticValue:
    """Average weighted sum SER of Serial-Max."""
    return _combine(cfg, *_link_sums(cfg, _ser_kernel))


def ser_floor(cfg: SystemConfig) -> float:
    """Limit of the average weighted sum SER as lambda_s -> inf (a = 0)."""
    if cfg.eta == 0.0:
        raise DomainError("SER floor requires eta > 0 (no floor under perfect cancellation)")
    floor = _link_sums(cfg, functools.partial(_ser_kernel, floor=True))
    return _vouched(_combine(cfg, *floor), "SER floor")


# ---------------------------------------------------------------------------
# perfect-cancellation asymptotics


def asymptotic_ser_generic(n_order: int, zeta, lam: float, mod: ModulationParams) -> float:
    """High-SNR SER of a link whose SINR density opens as zeta*x^N/lam^(N+1):
    alpha zeta (2N+1)!! / (2 (N+1) (beta lam)^(N+1)), since Gamma(N + 3/2) =
    sqrt(pi) (2N+1)!! / 2^(N+1).  Evaluated in mpmath and rounded once, so
    it is inf or 0.0 past the float range; zeta may be an mpf."""
    if n_order < 0 or not lam > 0:
        raise DomainError("need n_order >= 0 and lam > 0")
    with mpmath.workdps(_DPS):
        power = (mpmath.mpf(mod.beta_mod) * lam) ** (n_order + 1)
        odd = math.prod(range(1, 2 * n_order + 2, 2))  # (2N+1)!!
        return float(mpmath.mpf(mod.alpha_mod) * zeta * odd / (2 * (n_order + 1) * power))


def asymptotic_ser_perfect_cancellation(
    cfg: SystemConfig, lambda_s: float
) -> tuple[float, float, float]:
    """High-SNR SER asymptotes (ser_ab, ser_ba, weighted) for eta = 0: the first
    pick's density opens as nn x^(nn-1)/lam^nn (diversity order nn), the
    second's as zeta_ba x^(m-1)/lam^m, with m = (n_a-1)*(n_b-1)."""
    if cfg.eta != 0.0:
        raise RequiresPerfectCancellation(f"eta must be 0, got {cfg.eta}")
    _check_closed_form_size(cfg)
    nn, m = cfg.nn, (cfg.n_a - 1) * (cfg.n_b - 1)
    small_w = by_weight(cfg.w, 1.0 - cfg.w, cfg.w)[1]
    with mpmath.workdps(_DPS):
        # the density of (nn f^m - m f^nn) / (nn - m) opens as nn m / (nn - m) x^(m-1)/lam^m
        zeta_ba = mpmath.mpf(nn * m) / (nn - m)
        return tuple(asymptotic_ser_generic(n, zeta, lambda_s, cfg.modulation)
                     for n, zeta in ((nn - 1, nn), (m - 1, zeta_ba), (m - 1, zeta_ba * small_w)))
