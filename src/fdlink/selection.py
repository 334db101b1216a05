"""The three bidirectional link-selection policies.

Each policy has one batched kernel over a (T, n_a, n_b) stack of
obtainable-SINR matrices, behind one switch on the policy's name,
select().  w weights A->B, and the first pick serves the larger-weight
direction, a rule written only in by_weight().  The scalar functions are
T = 1 wrappers that build a SelectionOutcome.

Exhaustive search scores four candidates per trial.  Let h be the
per-link value signed so that larger is better, M its first maximum, S
the best entry outside M's row and column (Serial-Max's second pick on
h), and R, C the best in M's row and in its column.  A feasible pair with
a link x outside that cross scores no more with M as its other link, and
no more again with S as x; a pair inside the cross takes one link from
M's row and one from its column.  w*a + (1-w)*b rounds monotonically for
0 <= w <= 1, so in floats too the optimum is (M, S), (S, M), (R, C) or
(C, R): Serial-Max misses it only when both optimal links lie in the
cross.  A certificate bounds every other pair strictly below the best
candidate, in three classes: M with another outside entry, via S2, the
runner-up outside the cross; no M but an outside entry, via h_S and
m2 = max(h_S, h_R, h_C); the other row/column pairs, via R2 and C2, the
runners-up in M's row and column.  A certified trial takes the
lexicographically first candidate that reaches the best.  Other trials,
trials with a non-finite value, any w outside (0, 1), and sizes where
(n_a + n_b)**2 is no fewer than the feasible pairs are scored over all
feasible pairs, so the positions equal full enumeration bit for bit.
comparison_count("exhaustive", ...) is the paper's count for exhaustive
search, not this kernel's work.

Because the obtainable-SINR matrix is a positive scaling of the SNR
matrix, the selected antenna pairs are identical either way.  Ties are
broken lexicographically on antenna indices so tests are deterministic
(ties are measure-zero under continuous fading).

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


def rate_map(gamma):
    """Per-link rate log2(1 + gamma), elementwise."""
    return np.log2(1.0 + gamma)


def ser_map(gamma, mod: ModulationParams):
    """Per-link conditional SER alpha * Q(sqrt(beta * gamma)), elementwise."""
    return mod.alpha_mod * 0.5 * erfc(np.sqrt(mod.beta_mod * gamma / 2.0))


def _serial_max_positions(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (first, second) flat argmax positions of (T, n_a, n_b)
    matrices, and the (T, n_a, n_b) mask of entries pruned before step 2."""
    t, n_a, n_b = g.shape
    idx1 = np.argmax(g.reshape(t, n_a * n_b), axis=1)
    i1, j1 = np.divmod(idx1, n_b)
    rows = np.arange(n_a)[None, :, None]
    cols = np.arange(n_b)[None, None, :]
    pruned = (rows == i1[:, None, None]) | (cols == j1[:, None, None])
    idx2 = np.argmax(np.where(pruned, -np.inf, g).reshape(t, n_a * n_b), axis=1)
    return idx1, idx2, pruned


def _all_pairs_positions(
    per_link: np.ndarray, w: float, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """First maximum of sign * (w*a + (1-w)*b) over every feasible pair of
    (T, n_a, n_b) per-link values: flat positions (ab, ba) in different rows
    and columns, in lexicographic order, the tie-break on (i_t, j_r, i_r, j_t)."""
    t, n_a, n_b = per_link.shape
    n = n_a * n_b
    ab, ba = np.divmod(np.arange(n * n), n)
    feasible = (ab // n_b != ba // n_b) & (ab % n_b != ba % n_b)
    ab, ba = ab[feasible], ba[feasible]
    flat = per_link.reshape(t, n)
    best = np.argmax(sign * (w * flat[:, ab] + (1.0 - w) * flat[:, ba]), axis=1)
    return ab[best], ba[best]


def _cross_positions(
    per_link: np.ndarray, w: float, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """_all_pairs_positions bit for bit, from the candidates (M, S), (S, M),
    (R, C) and (C, R) wherever the certificate holds; see the module docstring."""
    t, n_a, n_b = per_link.shape
    if not 0.0 < w < 1.0:
        return _all_pairs_positions(per_link, w, sign)
    n, rows, w1 = n_a * n_b, np.arange(t), 1.0 - w
    # negation is exact, so w*h_p + w1*h_q is sign times the all-pairs score
    h = sign * np.ascontiguousarray(per_link)
    flat = h.reshape(t, n)  # a view of h
    finite = np.isfinite(flat).all(axis=1)
    flat[~finite] = 0.0  # scored by the all-pairs pass below
    m = np.argmax(flat, axis=1)
    hm, (im, jm) = flat[rows, m], np.divmod(m, n_b)
    row, col = h[rows, im], h[rows, :, jm]
    # h keeps the entries outside M's cross; row and col all but M
    h[rows, im] = h[rows, :, jm] = row[rows, jm] = col[rows, im] = -np.inf
    jr, ic, s = row.argmax(axis=1), col.argmax(axis=1), flat.argmax(axis=1)
    (hr2, hr), (hc2, hc), (hs2, hs) = (np.partition(x, -2)[:, -2:].T for x in (row, col, flat))
    r, c = im * n_b + jr, ic * n_b + jm
    ab, ba = np.stack([m, s, r, c], axis=1), np.stack([s, m, c, r], axis=1)
    obj = w * np.stack([hm, hs, hr, hc], axis=1) + w1 * np.stack([hs, hm, hc, hr], axis=1)
    top = obj.max(axis=1)
    pick = np.argmin(np.where(obj == top[:, None], ab * n + ba, n * n), axis=1)
    ab, ba = ab[rows, pick], ba[rows, pick]
    # each (u, v) bounds one class of the other pairs, in either order
    u = np.stack([hm, np.maximum(hs, np.maximum(hr, hc)), hr2, hr], axis=1)
    v = np.stack([hs2, hs, hc, hc2], axis=1)
    bound = np.maximum(w * u + w1 * v, w * v + w1 * u).max(axis=1)
    exact = finite & (bound < top)
    if not exact.all():
        ab[~exact], ba[~exact] = _all_pairs_positions(per_link[~exact], w, sign)
    return ab, ba


def _exhaustive_positions(
    g: np.ndarray, w: float, metric: str, mod: ModulationParams | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (ab, ba) flat positions of the best feasible pair of
    (T, n_a, n_b) matrices: the largest weighted sum rate for metric
    "rate", the smallest weighted sum SER for "ser"."""
    n_a, n_b = g.shape[1:]
    # for SER, the argmax of the negated objective is the argmin
    per_link, sign = (rate_map(g), 1.0) if metric == "rate" else (ser_map(g, mod), -1.0)
    small = (n_a + n_b) ** 2 >= n_a * n_b * (n_a - 1) * (n_b - 1)
    return (_all_pairs_positions if small else _cross_positions)(per_link, w, sign)


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
        idx1, idx2, _ = _serial_max_positions(g)
        return by_weight(idx1, idx2, w)
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
    method = "serial_max" if policy == "serial_max" else "exhaustive"
    return SelectionOutcome(
        selection=LinkSelection(ab_link=(i_t, j_r), ba_link=(j_t, i_r)),
        gamma_first=float(first),
        gamma_second=float(second),
        comparisons_used=comparison_count(method, n_a, n_b),
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
    """Comparisons needed by a selection method on an n_a x n_b matrix."""
    if n_a < 2 or n_b < 2:
        raise MatrixTooSmall(f"need n_a, n_b >= 2, got ({n_a}, {n_b})")
    if method == "exhaustive":
        return n_a * n_b * (n_a - 1) * (n_b - 1) // 2
    if method == "serial_max":
        return 2 * n_a * n_b - n_a - n_b + 1
    raise ValueError(f"unknown method {method!r}")
