"""Closed-form distributions, averages, ceilings, floors, and asymptotics
for the Serial-Max policy, in double precision.  The quadrature oracles
that check them against the defining integrals live with the tests
(tests/oracles.py).

Both picks come from the law of one maximum.  The first pick's SNR is
the largest of nn = n_a*n_b i.i.d. exponentials; given it, the others are
i.i.d. below it (David & Nagaraja, Order Statistics, 3rd ed., sec. 2.4),
so the second's CDF is (nn f^k - k f^nn) / (nn - k) with f^n the CDF of
the largest of n and k = (n_a-1)(n_b-1).  Every CDF, rate, SER, ceiling
and floor is linear in the CDF, so each is Q(n), the same quantity for
the largest of n, taken at n = nn for the first pick and as
(nn Q(k) - k Q(nn)) / (nn - k) for the second (_links): one kernel
vector (Q(nn), Q(k)) serves both picks.  Q is positive and the difference
cancels less than a digit: its larger term is at most nn/(nn - k) < 6.3
times a CDF, SER or floor (F_nn <= F_k), and was at most 7.5 times a rate
over the sizes, SNRs and eta tried.  Q(n) of each:

- CDF:     with b = x/lambda_s and a = eta x, the SINR is at most x when
           the unit SNR is at most b + a t, t = I/lambda_i a unit
           exponential, so F = E_t (1 - e^-(b + a t))^n =
           sum_j C(n, j) w^(n-j) (1 - w)^j P_j, w = 1 - e^-b and
           P_j = E_t (1 - e^-at)^j = prod_{i<=j} i a / (1 + i a): n + 1
           positive terms, added in logs (_log_cdf).  P_n alone is the
           lambda_s -> inf limit;
- rate:    E_X r(lambda_s X) over the largest X of n unit exponentials,
           r(y) = E_I ln(1 + y/(1 + I)) / ln 2 = [ln(1 + y) +
           S((1 + y)/lambda_i) - S(1/lambda_i)] / ln 2, S(x) = e^x E1(x);
- ceiling: E_X [ln c + S(c) + euler_gamma] / ln 2, c = X/eta, the
           lambda_s -> inf limit E ln(1 + c/I) of the same mean;
- SER and floor: alpha/(2 sqrt(pi)) int F(2y/beta) y^(-1/2) e^-y dy over
           the CDF or its limit.

The rate and ceiling means over X are a tanh-sinh rule of 129 nodes in
v = F(X) (Takahasi & Mori, Publ. RIMS 9(3), 1974), with ln v formed
directly so that no node rounds to v = 1.  The SER integrals are the
trapezoid rule in ln y.  F(x)/x^n does not increase and F(2y/beta) <=
(1 + n!) (sigma y)^n (_q_ser), so the integrand's tails, below ln y =
-(46 + 2 sqrt(n) + lgamma(n+2))/(n+1/2) (less ln sigma past sigma = 1)
and above y = 2n + 60, hold less than 1e-18 of it; a step of
0.7/sqrt(n + 12) resolves its peak, about 1/sqrt(n) wide in ln y.  Each
value is accurate to about 1e-13 relative, below the float range too,
where it underflows to +0.0.  No result is flagged.  The eta = 0
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
from .special import EULER_GAMMA, exp_e1_scaled, exp_e1_scaled_array  # noqa: F401

# the reference tests check every closed form up to 12x12 and the CDFs up
# to 2x72; nothing past n_a*n_b = 144 is checked
MAX_NN_CLOSED_FORM = 144
_LN2 = math.log(2.0)
# the tanh-sinh rule on (0, 1): nodes t = i/16, |t| <= 4, at
# v = 1/(1 + e^(-2u)), u = (pi/2) sinh t, with weights dv/dt / 16
_T = np.arange(-64, 65) / 16
_U = np.pi / 2 * np.sinh(_T)
_LOG_V = -np.log1p(np.exp(-2 * _U))
_WEIGHTS = np.pi / 16 * np.cosh(_T) / (2 * np.cosh(_U)) ** 2


def __getattr__(name: str):
    # nothing here integrates with scipy or calls erfcx, so scipy.integrate
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
    """A closed-form value and the larger term of the two-term difference
    it is (the value itself for the first pick).  cancellation_flag is
    always False: the difference cancels less than one digit."""

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


def _links(cfg: SystemConfig, q) -> list[AnalyticValue]:
    """[first, second] pick's value from q(cfg, (nn, k)) = (Q(nn), Q(k)):
    Q(nn) and (nn Q(k) - k Q(nn)) / (nn - k)."""
    _check_closed_form_size(cfg)
    nn, k = cfg.nn, (cfg.n_a - 1) * (cfg.n_b - 1)
    q_nn, q_k = (float(v) for v in q(cfg, (nn, k)))
    terms = (nn * q_k / (nn - k), k * q_nn / (nn - k))
    return [AnalyticValue(q_nn, abs(q_nn), False),
            AnalyticValue((nn * q_k - k * q_nn) / (nn - k), max(map(abs, terms)), False)]


def _combine(cfg: SystemConfig, first: AnalyticValue, second: AnalyticValue) -> AnalyticValue:
    """w*(A->B) + (1-w)*(B->A) of the first and second pick's values."""
    ab, ba = by_weight(first, second, cfg.w)
    return AnalyticValue(
        value=cfg.w * ab.value + (1.0 - cfg.w) * ba.value,
        max_term_magnitude=max(ab.max_term_magnitude, ba.max_term_magnitude),
        cancellation_flag=False,
    )


def _log_cdf(x: np.ndarray, n: int, eta: float, lambda_s: float) -> np.ndarray:
    """ln P(SINR <= x) of the largest of n at each x > 0; lambda_s = inf
    gives the limit ln P_n."""
    j = np.arange(n + 1)
    if eta:
        with np.errstate(divide="ignore", over="ignore"):  # 1/(i a) = inf where a underflows
            log_p = np.cumsum(-np.log1p(1.0 / np.multiply.outer(eta * x, j[1:])), axis=1)
        if lambda_s == math.inf:
            return log_p[:, -1]
    with np.errstate(over="ignore"):  # F = 1 past 1e300 and F < 1e-300 (or w^n is) below it
        b = np.clip(x / lambda_s, 1e-300, 1e300)
    log_w = np.log(-np.expm1(-b))
    if not eta:
        return n * log_w
    log_binomial = np.concatenate([[0.0], np.cumsum(np.log((n + 1 - j[1:]) / j[1:]))])
    terms = log_binomial + np.multiply.outer(log_w, n - j) - np.multiply.outer(b, j)
    terms[:, 1:] += log_p
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


def _q_cdf(cfg: SystemConfig, ns, x: float) -> np.ndarray:
    if x == 0.0 or x == math.inf:
        return np.full(len(ns), float(x > 0))
    return np.exp([_log_cdf(np.array([x]), n, cfg.eta, cfg.lambda_s)[0] for n in ns])


def cdf_gammas(x: float, cfg: SystemConfig) -> tuple[float, float]:
    """(first, second) pick's SINR CDFs at x, from one evaluation; a value
    that rounds past 1 is 1."""
    if not x >= 0:
        raise DomainError(f"x must be >= 0, got {x}")
    return tuple(min(r.value, 1.0) for r in _links(cfg, functools.partial(_q_cdf, x=x)))


def cdf_gamma_ab(x: float, cfg: SystemConfig) -> float:
    """CDF of the first pick's SINR (first pick = the larger-weight direction)."""
    return cdf_gammas(x, cfg)[0]


def cdf_gamma_ba(x: float, cfg: SystemConfig) -> float:
    """CDF of the second pick's SINR (second pick = the smaller-weight direction)."""
    return cdf_gammas(x, cfg)[1]


# ---------------------------------------------------------------------------
# closed-form averages


def _largest(ns) -> np.ndarray:
    """The largest of n unit exponentials at each node v of the tanh-sinh
    rule, -ln(1 - v^(1/n)), one row per n."""
    a = _LOG_V / np.array(ns)[:, None]
    return -np.where(a < -_LN2, np.log1p(-np.exp(np.minimum(a, -_LN2))),
                     np.log(-np.expm1(np.maximum(a, -_LN2))))


def _q_rate(cfg: SystemConfig, ns) -> np.ndarray:
    y = cfg.lambda_s * _largest(ns)
    nats = np.log1p(y)
    if cfg.lambda_i:
        with np.errstate(over="ignore"):  # S(inf) = 0 where 1/lambda_i overflows
            s = exp_e1_scaled_array(np.append((1.0 + y) / cfg.lambda_i, 1.0 / cfg.lambda_i))
        nats += s[:-1].reshape(y.shape) - s[-1]
    return (nats * _WEIGHTS).sum(axis=-1) / _LN2


def _q_ceiling(cfg: SystemConfig, ns) -> np.ndarray:
    x = _largest(ns)
    with np.errstate(over="ignore"):  # S(inf) = 0 at the smallest eta
        s = exp_e1_scaled_array(x / cfg.eta)
    return ((np.log(x) - math.log(cfg.eta) + s + EULER_GAMMA) * _WEIGHTS).sum(axis=-1) / _LN2


def _q_ser(cfg: SystemConfig, ns, floor: bool = False) -> np.ndarray:
    alpha, beta = cfg.modulation.alpha_mod, cfg.modulation.beta_mod
    lambda_s = math.inf if floor else cfg.lambda_s
    # F(2y/beta) <= (1 + n!) (sigma y)^n, sigma = 2 (1/lambda_s + eta)/beta:
    # past sigma = 1 the left tail reaches ln sigma further down
    log_sigma = max(0.0, math.log(2.0 / beta) + (math.log(cfg.eta) if floor else
                                                 math.log1p(cfg.lambda_i) - math.log(cfg.lambda_s)))
    sers = []
    for n in ns:
        step = 0.7 / math.sqrt(n + 12)
        lowest = -(46.0 + 2.0 * math.sqrt(n) + math.lgamma(n + 2)) / (n + 0.5) - log_sigma
        # whole multiples of the step: each node carries one rounding, not
        # the left end's, which reaches 1e-13 at an SNR far below 0 dB
        z = step * np.arange(math.floor(lowest / step), math.ceil(math.log(2 * n + 60) / step) + 1)
        y = np.exp(z)
        log_f = z / 2 - y + _log_cdf(2.0 * y / beta, n, cfg.eta, lambda_s)
        sers.append(alpha / (2.0 * math.sqrt(math.pi)) * step * np.exp(log_f).sum())
    return np.array(sers)


def avg_rate_ab(cfg: SystemConfig) -> AnalyticValue:
    """Average rate of the first pick (the larger-weight direction)."""
    return _links(cfg, _q_rate)[0]


def avg_rate_ba(cfg: SystemConfig) -> AnalyticValue:
    """Average rate of the second pick (the smaller-weight direction)."""
    return _links(cfg, _q_rate)[1]


def avg_weighted_sum_rate(cfg: SystemConfig) -> AnalyticValue:
    """Average weighted sum rate of Serial-Max."""
    return _combine(cfg, *_links(cfg, _q_rate))


def rate_ceiling(cfg: SystemConfig) -> float:
    """Limit of the average weighted sum rate as lambda_s -> inf, where the
    SINR tends to X/(eta I) with I a unit exponential."""
    if cfg.eta == 0.0:
        raise DomainError("rate ceiling requires eta > 0 (no ceiling under perfect cancellation)")
    return _combine(cfg, *_links(cfg, _q_ceiling)).value


def avg_ser_ab(cfg: SystemConfig) -> AnalyticValue:
    """Average SER of the first pick (the larger-weight direction)."""
    return _links(cfg, _q_ser)[0]


def avg_ser_ba(cfg: SystemConfig) -> AnalyticValue:
    """Average SER of the second pick (the smaller-weight direction)."""
    return _links(cfg, _q_ser)[1]


def avg_weighted_sum_ser(cfg: SystemConfig) -> AnalyticValue:
    """Average weighted sum SER of Serial-Max."""
    return _combine(cfg, *_links(cfg, _q_ser))


def ser_floor(cfg: SystemConfig) -> float:
    """Limit of the average weighted sum SER as lambda_s -> inf, from the
    CDF's limit P_n."""
    if cfg.eta == 0.0:
        raise DomainError("SER floor requires eta > 0 (no floor under perfect cancellation)")
    return _combine(cfg, *_links(cfg, functools.partial(_q_ser, floor=True))).value


# ---------------------------------------------------------------------------
# perfect-cancellation asymptotics


def asymptotic_ser_generic(n_order: int, zeta, lam: float, mod: ModulationParams) -> float:
    """High-SNR SER of a link whose SINR density opens as zeta*x^N/lam^(N+1):
    alpha zeta (2N+1)!! / (2 (N+1) (beta lam)^(N+1)), since Gamma(N + 3/2) =
    sqrt(pi) (2N+1)!! / 2^(N+1).  Evaluated in mpmath and rounded once, so
    it is inf or 0.0 past the float range; zeta may be an mpf."""
    if n_order < 0 or not lam > 0:
        raise DomainError("need n_order >= 0 and lam > 0")
    with mpmath.workdps(50):
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
    with mpmath.workdps(50):
        # the density of (nn f^m - m f^nn) / (nn - m) opens as nn m / (nn - m) x^(m-1)/lam^m
        zeta_ba = mpmath.mpf(nn * m) / (nn - m)
        return tuple(asymptotic_ser_generic(n, zeta, lambda_s, cfg.modulation)
                     for n, zeta in ((nn - 1, nn), (m - 1, zeta_ba), (m - 1, zeta_ba * small_w)))
