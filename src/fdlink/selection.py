"""The three bidirectional link-selection policies.

Each policy has one batched kernel over a (T, n_a, n_b) stack of
obtainable-SINR matrices, behind one switch on the policy's name,
select().  w weights A->B, and the first pick serves the larger-weight
direction, a rule written only in by_weight().  The scalar functions are
T = 1 wrappers that build a SelectionOutcome.

Exhaustive search finds each link's best partner.  Let h be the per-link
value signed so that larger is better, and k = (1-w)*h each link's key.
The pair (p, q) scores fl(w*h_p + k_q), and rounding is monotone, so p
scores best with the largest key B(p) outside p's row and column: p's
best score is fl(w*h_p + B(p)), for every w.  B is two passes of "the
max without this entry", along each row and then down each column.  ab is
the first link whose best score is the top one, and ba the first link
outside ab's row and column that reaches it with ab, so the positions are
those of scoring every feasible pair in lexicographic order.  np.max and
np.argmax carry NaN as an argmax over every pair's score would.  The one
case left out is a pair scored inf - inf, which needs w*h and a key that
are infinities of opposite signs; finite values with w in [0, 1] never
give it.  comparison_count("exhaustive", ...) is the paper's count for
exhaustive search, not this kernel's work.

Serial-Max looks only at the order of the entries; the Monte Carlo
estimators run it on the unit-mean SNR matrices E, whose order the
obtainable-SINR matrix, a positive multiple of E, keeps up to rounding.
Both kernels take trials _BLOCK at a time, so their temporaries do not
grow with the trial count.  Ties are broken lexicographically on antenna
indices so tests are deterministic (ties are measure-zero under
continuous fading).

Index convention: matrix rows are antennas at node A, columns antennas
at node B, all 0-based.  A LinkSelection stores the A->B link as
(tx antenna at A, rx antenna at B) and the B->A link as (tx antenna at
B, rx antenna at A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

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
# one new array; x[()] is a scalar for scalar input and x itself otherwise


def rate_map(gamma):
    """Per-link rate log2(1 + gamma), elementwise."""
    x = np.add(1.0, gamma, out=np.empty(np.shape(gamma)))
    np.log2(x, out=x)
    return x[()]


def ser_map(gamma, mod: ModulationParams):
    """Per-link conditional SER alpha * Q(sqrt(beta * gamma)), elementwise."""
    x = np.multiply(mod.beta_mod, gamma, out=np.empty(np.shape(gamma)))
    x /= 2.0
    np.sqrt(x, out=x)
    erfc(x, out=x)
    x *= mod.alpha_mod * 0.5
    return x[()]


# trials per kernel call: its temporaries stay in cache, and memory does
# not grow with the trial count
_BLOCK = 4096


def _serial_max_positions(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (first, second) flat argmax positions of (T, n_a, n_b)
    matrices; step 2 masks the first pick's row and column, _BLOCK trials
    at a time."""
    t, n_a, n_b = g.shape
    idx1 = np.argmax(g.reshape(t, n_a * n_b), axis=1)
    i1, j1 = np.divmod(idx1, n_b)
    idx2 = np.empty(t, np.intp)
    rows = np.arange(n_a)[None, :, None]
    cols = np.arange(n_b)[None, None, :]
    for lo in range(0, t, _BLOCK):
        hi = lo + _BLOCK
        pruned = (rows == i1[lo:hi, None, None]) | (cols == j1[lo:hi, None, None])
        kept = np.where(pruned, -np.inf, g[lo:hi])
        idx2[lo:hi] = np.argmax(kept.reshape(-1, n_a * n_b), axis=1)
    return idx1, idx2


def _max_but_one(x: np.ndarray) -> np.ndarray:
    """Entry i is the max over axis 0 of x without x[i], NaN-propagating
    as np.max is; len(x) >= 2."""
    out = np.empty_like(x)
    out[1] = x[0]
    for i in range(2, len(x)):  # prefix maxima
        np.maximum(out[i - 1], x[i - 1], out=out[i])
    suffix = out[0]  # gathers the suffix maxima, ending as max(x[1:])
    suffix[...] = x[-1]
    for i in range(len(x) - 2, 0, -1):
        np.maximum(out[i], suffix, out=out[i])
        np.maximum(suffix, x[i], out=suffix)
    return out


def _best_partner_positions(
    per_link: np.ndarray, w: float, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """First maximum of sign * (w*a + (1-w)*b) over every feasible pair of
    (T, n_a, n_b) per-link values: flat positions (ab, ba) in different rows
    and columns, the tie-break on (i_t, j_r, i_r, j_t); see the module docstring."""
    t, n_a, n_b = per_link.shape
    n, trials = n_a * n_b, np.arange(t)
    # trials last, so every step is elementwise over the trials; negation
    # is exact, so a_p + k_q is sign times the score of the pair (p, q)
    a = per_link.transpose(1, 2, 0).copy()
    k = (sign * (1.0 - w)) * a
    a *= sign * w
    # the largest key outside each link's row and column
    best_key = _max_but_one(_max_but_one(k.swapaxes(0, 1)).swapaxes(0, 1))
    score = np.add(a, best_key, out=best_key).reshape(n, t)
    ab = score.argmax(axis=0)
    top = score[ab, trials]
    with np.errstate(invalid="ignore"):  # an infeasible q may meet inf - inf
        s = np.add(k, a.reshape(n, t)[ab, trials], out=k)
    # ba: the first feasible partner that reaches the top score with ab, or
    # a NaN score where the top score is NaN, as argmax takes the first NaN
    i, j = np.divmod(ab, n_b)
    feasible = (np.arange(n_a)[:, None, None] != i) & (np.arange(n_b)[:, None] != j)
    ba = (((s >= top) | (s != s)) & feasible).reshape(n, t).argmax(axis=0)
    return ab, ba


def _exhaustive_positions(
    g: np.ndarray, w: float, metric: str, mod: ModulationParams | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (ab, ba) flat positions of the best feasible pair of
    (T, n_a, n_b) matrices: the largest weighted sum rate for metric
    "rate", the smallest weighted sum SER for "ser"."""
    ab, ba = np.empty(len(g), np.intp), np.empty(len(g), np.intp)
    for lo in range(0, len(g), _BLOCK):
        block = g[lo:lo + _BLOCK]
        # for SER, the argmax of the negated objective is the argmin
        per_link, sign = (rate_map(block), 1.0) if metric == "rate" else (ser_map(block, mod), -1.0)
        ab[lo:lo + _BLOCK], ba[lo:lo + _BLOCK] = _best_partner_positions(per_link, w, sign)
    return ab, ba


POLICIES = ("max_wsr", "min_wser", "serial_max")


def by_weight(ab, ba, w: float):
    """(larger-weight, smaller-weight) of an A->B value (weight w) and a B->A
    one.  Its own inverse: it maps (first pick, second pick) to (A->B, B->A)."""
    return (ab, ba) if w >= 0.5 else (ba, ab)


def select(
    g: np.ndarray, w: float, policy: str, mod: ModulationParams | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (A->B, B->A) flat positions that policy picks in a
    (T, n_a, n_b) stack; w weights A->B, and mod is used by min_wser only."""
    if policy == "serial_max":
        return by_weight(*_serial_max_positions(g), w)
    if policy == "max_wsr":
        return _exhaustive_positions(g, w, "rate", None)
    if policy == "min_wser":
        return _exhaustive_positions(g, w, "ser", mod)
    raise ValueError(f"unknown policy {policy!r}")


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
    """Brute-force maximizer of w*R(gamma_ab) + (1-w)*R(gamma_ba)."""
    return _outcome(sinr, w, "max_wsr")


def exhaustive_min_wser(sinr: np.ndarray, w: float, mod: ModulationParams) -> SelectionOutcome:
    """Brute-force minimizer of w*SER(gamma_ab) + (1-w)*SER(gamma_ba)."""
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
    """w*R(gamma_ab) + (1-w)*R(gamma_ba), with first/second pick = the
    larger/smaller-weight direction."""
    ab, ba = by_weight(rate_map(gamma_first), rate_map(gamma_second), w)
    return w * ab + (1.0 - w) * ba


def weighted_combine_ser(
    gamma_first: float, gamma_second: float, w: float, mod: ModulationParams
) -> float:
    """w*SER(gamma_ab) + (1-w)*SER(gamma_ba), with first/second pick = the
    larger/smaller-weight direction."""
    ab, ba = by_weight(ser_map(gamma_first, mod), ser_map(gamma_second, mod), w)
    return w * ab + (1.0 - w) * ba


def second_link_rank(sinr: np.ndarray, outcome: SelectionOutcome) -> int:
    """Rank (1 = largest) of the second selected link within the full matrix."""
    return 1 + int(np.count_nonzero(sinr > outcome.gamma_second))


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
