"""The three bidirectional link-selection policies.

Each policy has one batched kernel over a (T, n_a, n_b) stack of
obtainable-SINR matrices; the scalar functions are T = 1 wrappers that
build a SelectionOutcome.

Exhaustive search scores only the pairs of the K = n_a + n_b best
entries by per-link value.  One link of a pair shares a row or column
with at most K - 2 other entries, so if the other link lies outside the
K best, one of the K best fits in its place and scores no less; an
optimal pair therefore lies among the K best.  Each trial checks a
certificate, a float bound on every pair that uses an entry outside the
K.  A trial that fails it, and every size where K**2 is no fewer than
the feasible pairs, is scored over all feasible pairs, so the positions
equal full enumeration bit for bit.  comparison_count("exhaustive", ...)
is the paper's count for exhaustive search, not this kernel's work.

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
        tx_a, _ = self.ab_link
        _, rx_a = self.ba_link
        tx_b, _ = self.ba_link
        _, rx_b = self.ab_link
        if tx_a == rx_a:
            raise ValueError(f"antenna {tx_a} at A used for both tx and rx")
        if tx_b == rx_b:
            raise ValueError(f"antenna {tx_b} at B used for both tx and rx")


@dataclass(frozen=True)
class SelectionOutcome:
    selection: LinkSelection
    gamma_first: float   # SINR of the link carrying the larger weight
    gamma_second: float
    comparisons_used: int


def _require_2x2(sinr: np.ndarray) -> np.ndarray:
    g = np.asarray(sinr, dtype=float)
    if g.ndim != 2 or g.shape[0] < 2 or g.shape[1] < 2:
        raise MatrixTooSmall(f"need an n_a x n_b matrix with n >= 2, got shape {g.shape}")
    return g


def rate_map(gamma):
    """Per-link rate log2(1 + gamma), elementwise."""
    return np.log2(1.0 + gamma)


def ser_map(gamma, mod: ModulationParams):
    """Per-link conditional SER alpha * Q(sqrt(beta * gamma)), elementwise."""
    return mod.alpha_mod * 0.5 * erfc(np.sqrt(mod.beta_mod * gamma / 2.0))


def _feasible_pairs(n_a: int, n_b: int):
    # lexicographic on (i_t, j_r, i_r, j_t): the iteration order IS the tie-break
    for i_t in range(n_a):
        for j_r in range(n_b):
            for i_r in range(n_a):
                if i_r == i_t:
                    continue
                for j_t in range(n_b):
                    if j_t == j_r:
                        continue
                    yield i_t, j_r, i_r, j_t


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
    (T, n_a, n_b) per-link values, in _feasible_pairs order."""
    n_a, n_b = per_link.shape[1:]
    i_t, j_r, i_r, j_t = np.array(list(_feasible_pairs(n_a, n_b))).T
    obj = w * per_link[:, i_t, j_r] + (1.0 - w) * per_link[:, i_r, j_t]
    best = np.argmax(sign * obj, axis=1)
    return i_t[best] * n_b + j_r[best], i_r[best] * n_b + j_t[best]


def _exhaustive_positions(
    g: np.ndarray, w: float, metric: str, mod: ModulationParams | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (ab, ba) flat positions of the best feasible pair of
    (T, n_a, n_b) matrices: the largest weighted sum rate for metric
    "rate", the smallest weighted sum SER for "ser".

    Only the K = n_a + n_b best entries by per-link value are paired.
    A trial whose answer is not certified exact falls back to scoring
    every feasible pair, as do sizes where K**2 is no fewer pairs.
    """
    t, n_a, n_b = g.shape
    if metric == "rate":
        per_link, sign = rate_map(g), 1.0
    else:
        per_link, sign = ser_map(g, mod), -1.0  # argmax of the negated objective = argmin
    k = n_a + n_b
    if k * k >= n_a * n_b * (n_a - 1) * (n_b - 1):
        return _all_pairs_positions(per_link, w, sign)
    flat = per_link.reshape(t, n_a * n_b)
    # positions 0..k-1: the k best entries; position k: the best of the rest
    order = np.argpartition(-sign * flat, k, axis=1)
    # ascending flat index makes the row-major argmax the lexicographic one
    cand = np.sort(order[:, :k], axis=1)
    v = np.take_along_axis(flat, cand, axis=1)
    obj = sign * (w * v[:, :, None] + (1.0 - w) * v[:, None, :])
    i, j = np.divmod(cand, n_b)
    obj[(i[:, :, None] == i[:, None, :]) | (j[:, :, None] == j[:, None, :])] = -np.inf
    obj = obj.reshape(t, k * k)
    best = np.argmax(obj, axis=1)
    rows = np.arange(t)
    top = obj[rows, best]
    ab, ba = cand[rows, best // k], cand[rows, best % k]
    # Certificate: x is the best value outside the k, m the best overall.
    # Rounding is monotone, so for 0 <= w <= 1 no pair with an outside
    # entry scores above sign*(w*x + (1-w)*m) or its mirror; if both lie
    # strictly below top, no such pair reaches or ties it.  For w outside
    # [0, 1] one bound is never below top.  Non-finite values go to the
    # all-pairs pass too: argmax picks a NaN wherever it lies.
    x = flat[rows, order[:, k]]
    m = v.max(axis=1) if sign > 0 else v.min(axis=1)
    exact = (
        (sign * (w * x + (1.0 - w) * m) < top)
        & (sign * (w * m + (1.0 - w) * x) < top)
        & np.isfinite(flat).all(axis=1)
    )
    if not exact.all():
        ab[~exact], ba[~exact] = _all_pairs_positions(per_link[~exact], w, sign)
    return ab, ba


def _exhaustive(
    sinr: np.ndarray, w: float, metric: str, mod: ModulationParams | None
) -> SelectionOutcome:
    g = _require_2x2(sinr)
    n_a, n_b = g.shape
    ab, ba = _exhaustive_positions(g[None], w, metric, mod)
    (i_t, j_r), (i_r, j_t) = divmod(int(ab[0]), n_b), divmod(int(ba[0]), n_b)
    return SelectionOutcome(
        selection=LinkSelection(ab_link=(i_t, j_r), ba_link=(j_t, i_r)),
        gamma_first=float(g[i_t, j_r]),
        gamma_second=float(g[i_r, j_t]),
        comparisons_used=comparison_count("exhaustive", n_a, n_b),
    )


def exhaustive_max_wsr(sinr: np.ndarray, w: float) -> SelectionOutcome:
    """Brute-force maximizer of w*R(gamma_ab) + (1-w)*R(gamma_ba)."""
    return _exhaustive(sinr, w, "rate", None)


def exhaustive_min_wser(sinr: np.ndarray, w: float, mod: ModulationParams) -> SelectionOutcome:
    """Brute-force minimizer of w*SER(gamma_ab) + (1-w)*SER(gamma_ba).

    w weights the A->B link, the same convention as the rate criterion.
    """
    return _exhaustive(sinr, w, "ser", mod)


def serial_max(sinr: np.ndarray, w: float = 1.0) -> SelectionOutcome:
    """Two-step greedy selection.

    Step 1 picks the global matrix maximum; its row and column are
    pruned and step 2 picks the maximum of the remaining submatrix.
    The best link serves the direction with the larger weight (A->B
    when w >= 0.5).  The comparison tally counts one comparison per
    element examined, matching the published complexity accounting.
    """
    g = _require_2x2(sinr)
    n_a, n_b = g.shape
    idx1, idx2, pruned = _serial_max_positions(g[None])
    pos1, pos2 = divmod(int(idx1[0]), n_b), divmod(int(idx2[0]), n_b)
    first_pos, second_pos = (pos1, pos2) if w >= 0.5 else (pos2, pos1)
    return SelectionOutcome(
        selection=LinkSelection(ab_link=first_pos, ba_link=second_pos[::-1]),
        gamma_first=float(g[pos1]),
        gamma_second=float(g[pos2]),
        # step 1 examines every entry, step 2 every entry left unpruned
        comparisons_used=n_a * n_b + int(np.count_nonzero(~pruned)),
    )


def weighted_combine_rate(gamma_first: float, gamma_second: float, w: float) -> float:
    """max(w,1-w)*R(gamma_first) + min(w,1-w)*R(gamma_second)."""
    return max(w, 1.0 - w) * rate_map(gamma_first) + min(w, 1.0 - w) * rate_map(gamma_second)


def weighted_combine_ser(
    gamma_first: float, gamma_second: float, w: float, mod: ModulationParams
) -> float:
    """max(w,1-w)*SER(gamma_first) + min(w,1-w)*SER(gamma_second)."""
    return max(w, 1.0 - w) * ser_map(gamma_first, mod) + min(w, 1.0 - w) * ser_map(
        gamma_second, mod
    )


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
