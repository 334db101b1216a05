"""The three bidirectional link-selection policies.

select() is the one switch on a policy's name: per trial of a (T, n_a,
n_b) stack of obtainable-SINR matrices it returns the A->B and B->A
positions.  w weights A->B, and the first pick serves the larger-weight
direction, a rule written only in by_weight().  The scalar selections are
T = 1 wrappers that build a SelectionOutcome; weighted_sum, the weighted
sum of per-link rates or SERs, serves Monte Carlo and weighted_combine_*.

Serial-Max picks (M, S): M is the largest entry, S the largest outside
M's row and column.  Exhaustive search picks, as (first, second) pick,
one of (M, S), (S, M), (R, C) and (C, R), with R and C the largest
entries in M's row and in M's column.  Where a pair's score is monotone
in both links, as for w in [0, 1], the optimum is among them: a pair
with M is no better than M with S; a pair with a link outside M's row
and column is no better than that link with M; any other pair is no
better than R with C.  Unless R and C both exceed S (a contested trial),
the smaller is at most S and the larger at most M, so the pick is
(M, S), the larger weight on the larger link: the exact optimum, though
rounding can score (S, M) higher at a w within rounding of 1/2 or
between nearly tied links.  A contested trial takes the first best of
the four as scored, Serial-Max's pair on a tie; rounding keeps rate
scores monotone, so there max_wsr's pick scores the all-pairs optimum
bit for bit.  min_wser scores the log of the weighted sum SER, from
per-link log SERs log alpha + log_ndtr(-sqrt(beta * gamma)), which do
not underflow where the SERs do and are monotone up to rounding.
comparison_count("exhaustive", ...) is the paper's count for exhaustive
search, not this kernel's work.

candidates() finds the four in matrices, for select() and the scalar
selections; the Monte Carlo estimators score their values, which
fdlink.channel draws directly, with best_pairs.  Maxima are the first in
row-major order, so ties break lexicographically on antenna indices.

Index convention: matrix rows are antennas at node A, columns antennas
at node B, all 0-based.  A LinkSelection stores the A->B link as
(tx antenna at A, rx antenna at B) and the B->A link as (tx antenna at
B, rx antenna at A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModulationParams
from .errors import DegenerateSize, MatrixTooSmall


@dataclass(frozen=True)
class LinkSelection:
    ab_link: tuple[int, int]  # (tx at A, rx at B)
    ba_link: tuple[int, int]  # (tx at B, rx at A)

    def __post_init__(self):
        (tx_a, rx_b), (tx_b, rx_a) = self.ab_link, self.ba_link
        if tx_a == rx_a:
            raise ValueError(f"antenna {tx_a} at A used for both tx and rx")
        if tx_b == rx_b:
            raise ValueError(f"antenna {tx_b} at B used for both tx and rx")


@dataclass(frozen=True)
class SelectionOutcome:
    """Links and SINRs; first/second pick = larger/smaller-weight direction."""
    selection: LinkSelection
    gamma_first: float
    gamma_second: float
    comparisons_used: int


# rate_map and ser_map take the steps of their formulas in that order, in
# out or one new array; x[()] is a scalar for scalar input and x otherwise


def rate_map(gamma, out=None):
    """Per-link rate log2(1 + gamma), elementwise."""
    x = np.add(1.0, gamma, out=np.empty(np.shape(gamma)) if out is None else out)
    np.log2(x, out=x)
    return x[()]


def ser_map(gamma, mod: ModulationParams, out=None):
    """Per-link conditional SER alpha * Q(sqrt(beta * gamma)), elementwise."""
    from scipy.special import erfc  # here, not at import: about 0.2 s that only SERs need
    x = np.multiply(mod.beta_mod, gamma, out=np.empty(np.shape(gamma)) if out is None else out)
    x /= 2.0
    np.sqrt(x, out=x)
    erfc(x, out=x)
    x *= mod.alpha_mod * 0.5
    return x[()]


def weighted_sum(gammas, w: float, mod: ModulationParams | None = None, out=None):
    """w*f(ab) + (1-w)*f(ba) of A->B and B->A SINRs gammas = (ab, ba), f = rate_map
    or, under a modulation mod, ser_map; in row 0 of f(gammas) in out or a new array."""
    x = rate_map(gammas, out) if mod is None else ser_map(gammas, mod, out)
    x[0] *= w
    x[1] *= 1.0 - w
    x[0] += x[1]
    return x[0]


# trials per step of scoring the candidates, and a quarter of the values
# per step of finding them (one matrix at least): temporaries stay in cache
_BLOCK = 4096


POLICIES = ("max_wsr", "min_wser", "serial_max")


def by_weight(ab, ba, w: float):
    """(larger-weight, smaller-weight) of an A->B value (weight w) and a B->A
    one.  Its own inverse: it maps (first pick, second pick) to (A->B, B->A)."""
    return (ab, ba) if w >= 0.5 else (ba, ab)


# pair k is (candidate k, candidate _PARTNER[k]) as (first, second) pick
# of the candidates (M, S, R, C), and ties go to the first k: Serial-Max's
# own pair (M, S) first
_PARTNER = np.array([1, 0, 3, 2])


def best_pairs(x: np.ndarray, g: np.ndarray, w: float, policy: str,
               mod: ModulationParams | None) -> np.ndarray:
    """(first, second) rows of the (4, T) stack x of values at M, S, R and
    C, each trial's best pair on the obtainable SINRs g there: (M, S), the
    exact optimum, unscored, but where R and C both exceed S on g (a
    contested trial) the first best of the four, scored _BLOCK at a time
    by weighted sum rate (max_wsr) or minus log weighted sum SER (min_wser)."""
    w_first, w_second = by_weight(w, 1.0 - w, w)
    out = x[:2].copy()
    contested = np.flatnonzero((g[2] > g[1]) & (g[3] > g[1]))
    for lo in range(0, contested.size, _BLOCK):
        trials = contested[lo:lo + _BLOCK]
        if policy == "max_wsr":
            h = rate_map(g[:, trials])
            # at w = 0 or 1 the zero-weight link is left out: 0 * inf is NaN
            score = w_first * h + w_second * h[_PARTNER] if w_second else h
        else:
            from scipy.special import log_ndtr  # about 0.2 s of import, as in ser_map
            h = np.log(mod.alpha_mod) + log_ndtr(-np.sqrt(mod.beta_mod * g[:, trials]))
            with np.errstate(divide="ignore"):  # log 0 = -inf where w is 0 or 1
                score = -np.logaddexp(np.log(w_first) + h, np.log(w_second) + h[_PARTNER])
        k = score.argmax(axis=0)
        out[:, trials] = x[k, trials], x[_PARTNER[k], trials]
    return out


def candidates(g: np.ndarray, policy: str) -> np.ndarray:
    """(k, T) flat positions of the links policy reads in a (T, n_a, n_b)
    stack: M, then S for serial_max, or S, R and C for exhaustive search;
    each the first maximum of its links (S outside M's row and column),
    found in a float copy of 4 * _BLOCK values, or one matrix, at a time."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    g = np.asarray(g)
    t, n_a, n_b = g.shape
    out = np.empty((2 if policy == "serial_max" else 4, t), np.intp)
    step = max(1, 4 * _BLOCK // (n_a * n_b))
    for lo in range(0, t, step):
        x = g[lo:lo + step].astype(float, order="C")  # masked with -inf in place
        flat, k = x.reshape(len(x), -1), np.arange(len(x))
        m = out[0, lo:lo + step] = flat.argmax(axis=1)
        r, c = np.divmod(m, n_b)
        flat[k, m] = -np.inf
        if len(out) == 4:
            # R and C are the first maxima of M's row and of M's column, M left out
            out[2, lo:lo + step] = r * n_b + x[k, r].argmax(axis=1)
            out[3, lo:lo + step] = x[k, :, c].argmax(axis=1) * n_b + c
        x[k, r] = x[k, :, c] = -np.inf
        out[1, lo:lo + step] = flat.argmax(axis=1)
    return out


def select(
    g: np.ndarray, w: float, policy: str, mod: ModulationParams | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (A->B, B->A) flat positions that policy picks in a
    (T, n_a, n_b) stack; w in [0, 1] weights A->B.  Any other shape, or n_a
    or n_b below 2, raises MatrixTooSmall; a w outside [0, 1], a NaN entry
    or min_wser without its modulation mod raises ValueError.  g may be any
    array-like, a nested list too."""
    g = np.asarray(g)
    if g.ndim != 3 or g.shape[1] < 2 or g.shape[2] < 2:
        raise MatrixTooSmall(f"need a (T, n_a, n_b) stack with n_a, n_b >= 2, got shape {g.shape}")
    if policy == "min_wser" and mod is None:
        raise ValueError("min_wser needs a modulation")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must lie in [0, 1], got {w}")
    if np.isnan(g).any():
        raise ValueError("the SINR matrices hold a NaN entry")
    picks = candidates(g, policy)
    if policy != "serial_max":
        picks = best_pairs(picks, g.reshape(len(g), -1)[np.arange(len(g)), picks], w, policy, mod)
    first, second = picks
    return by_weight(first, second, w)


def _outcome(
    sinr: np.ndarray, w: float, policy: str, mod: ModulationParams | None = None
) -> SelectionOutcome:
    g = np.asarray(sinr, dtype=float)
    if g.ndim != 2 or g.shape[0] < 2 or g.shape[1] < 2:
        raise MatrixTooSmall(f"need an n_a x n_b matrix with n >= 2, got shape {g.shape}")
    n_a, n_b = g.shape
    ab, ba = (int(p[0]) for p in select(g[None], w, policy, mod))
    (i_t, j_r), (i_r, j_t) = divmod(ab, n_b), divmod(ba, n_b)
    first, second = by_weight(g[i_t, j_r], g[i_r, j_t], w)
    return SelectionOutcome(
        selection=LinkSelection(ab_link=(i_t, j_r), ba_link=(j_t, i_r)),
        gamma_first=float(first),
        gamma_second=float(second),
        comparisons_used=comparison_count(policy, n_a, n_b),
    )


def exhaustive_max_wsr(sinr: np.ndarray, w: float) -> SelectionOutcome:
    """Maximizer of w*R(gamma_ab) + (1-w)*R(gamma_ba) over every pair."""
    return _outcome(sinr, w, "max_wsr")


def exhaustive_min_wser(sinr: np.ndarray, w: float, mod: ModulationParams) -> SelectionOutcome:
    """Minimizer of w*SER(gamma_ab) + (1-w)*SER(gamma_ba) over every pair."""
    return _outcome(sinr, w, "min_wser", mod)


def serial_max(sinr: np.ndarray, w: float = 1.0) -> SelectionOutcome:
    """Two-step greedy selection.

    Step 1 picks the global matrix maximum; its row and column are
    pruned and step 2 picks the maximum of the remaining submatrix.
    The best link serves the direction with the larger weight.  The
    comparison tally counts one comparison per element examined,
    n_a*n_b + (n_a-1)*(n_b-1), matching the published accounting.
    """
    return _outcome(sinr, w, "serial_max")


def weighted_combine_rate(gamma_first: float, gamma_second: float, w: float) -> float:
    """w*R(gamma_ab) + (1-w)*R(gamma_ba) of the first and second pick's SINRs."""
    return weighted_sum(by_weight(gamma_first, gamma_second, w), w)


def weighted_combine_ser(
    gamma_first: float, gamma_second: float, w: float, mod: ModulationParams
) -> float:
    """w*SER(gamma_ab) + (1-w)*SER(gamma_ba) of the first and second pick's SINRs."""
    return weighted_sum(by_weight(gamma_first, gamma_second, w), w, mod)


def p_not_upper_bound(n_a: int, n_b: int) -> float:
    """Upper bound on the probability that Serial-Max misses the optimum."""
    nn = n_a * n_b
    if nn <= 2:
        raise DegenerateSize(f"bound needs n_a*n_b >= 3, got {nn}")
    return (n_a + n_b - 2) * (n_a + n_b - 3) / ((nn - 1) * (nn - 2))


def comparison_count(method: str, n_a: int, n_b: int) -> int:
    """Comparisons needed by a selection method on an n_a x n_b matrix:
    "serial_max", or "exhaustive" search, which max_wsr and min_wser run."""
    if n_a < 2 or n_b < 2:
        raise MatrixTooSmall(f"need n_a, n_b >= 2, got ({n_a}, {n_b})")
    if method in ("exhaustive", "max_wsr", "min_wser"):
        return n_a * n_b * (n_a - 1) * (n_b - 1) // 2
    if method == "serial_max":
        return 2 * n_a * n_b - n_a - n_b + 1
    raise ValueError(f"unknown method {method!r}")
