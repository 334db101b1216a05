import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdlink import (
    BPSK,
    comparison_count,
    exhaustive_max_wsr,
    exhaustive_min_wser,
    p_not_upper_bound,
    second_link_rank,
    serial_max,
    weighted_combine_rate,
    weighted_combine_ser,
)
from fdlink.errors import DegenerateSize, MatrixTooSmall
from fdlink.selection import (
    POLICIES,
    _all_pairs_positions,
    _exhaustive_positions,
    _serial_max_positions,
    by_weight,
    rate_map,
    select,
    ser_map,
)


def brute_force_best(g, w, metric, maximize):
    """Independent oracle: plain itertools enumeration of feasible pairs."""
    n_a, n_b = g.shape
    best, best_pair = None, None
    for i_t, j_r, i_r, j_t in itertools.product(
        range(n_a), range(n_b), range(n_a), range(n_b)
    ):
        if i_t == i_r or j_t == j_r:
            continue
        obj = w * metric(g[i_t, j_r]) + (1 - w) * metric(g[i_r, j_t])
        if best is None or (obj > best if maximize else obj < best):
            best, best_pair = obj, (i_t, j_r, i_r, j_t)
    return best, best_pair


def brute_force_max_wsr(g, w):
    return brute_force_best(g, w, lambda x: math.log2(1 + x), True)


def brute_force_min_wser(g, w, mod=BPSK):
    return brute_force_best(
        g, w, lambda x: mod.alpha_mod * 0.5 * math.erfc(math.sqrt(mod.beta_mod * x / 2)), False
    )


MATRIX = np.array([[5.0, 3.0], [4.0, 1.0]])


def test_max_wsr_hand_example():
    out = exhaustive_max_wsr(MATRIX, 0.7)
    assert out.selection.ab_link == (1, 0)  # A-tx antenna 2 -> B-rx antenna 1
    assert out.selection.ba_link == (1, 0)  # B-tx antenna 2 -> A-rx antenna 1
    obj = 0.7 * math.log2(1 + out.gamma_first) + 0.3 * math.log2(1 + out.gamma_second)
    assert obj == pytest.approx(0.7 * math.log2(5) + 0.3 * math.log2(4), rel=1e-12)
    assert obj == pytest.approx(2.2253, abs=2e-4)


def test_min_wser_hand_example():
    out = exhaustive_min_wser(MATRIX, 0.7, BPSK)
    assert out.selection == exhaustive_max_wsr(MATRIX, 0.7).selection


def test_exhaustive_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n_a, n_b = rng.integers(2, 5, size=2)
        g = rng.exponential(1.0, (n_a, n_b))
        w = rng.uniform(0.05, 0.95)
        out = exhaustive_max_wsr(g, w)
        obj = weighted_combine_rate(out.gamma_first, out.gamma_second, w)
        best, _ = brute_force_max_wsr(g, w)
        assert obj == pytest.approx(best, rel=1e-12)

        out = exhaustive_min_wser(g, w, BPSK)
        obj = weighted_combine_ser(out.gamma_first, out.gamma_second, w, BPSK)
        best, _ = brute_force_min_wser(g, w)
        assert obj == pytest.approx(best, rel=1e-12)


def test_tie_break_all_equal_matrix():
    g = np.ones((2, 2))
    for out in (exhaustive_max_wsr(g, 0.3), exhaustive_min_wser(g, 0.3, BPSK)):
        assert out.selection.ab_link == (0, 0)
        assert out.selection.ba_link == (1, 1)


def test_serial_max_hand_example():
    out = serial_max(MATRIX, 0.7)
    assert out.gamma_first == 5.0
    assert out.gamma_second == 1.0
    assert out.selection.ab_link == (0, 0)
    assert out.selection.ba_link == (1, 1)
    assert out.comparisons_used == comparison_count("serial_max", 2, 2)


def test_serial_max_diagonal():
    out = serial_max(np.array([[9.0, 0.0], [0.0, 4.0]]), 0.7)
    assert (out.gamma_first, out.gamma_second) == (9.0, 4.0)


def test_serial_max_disjoint_top_two():
    g = np.array([[1.0, 8.0, 2.0], [9.0, 3.0, 0.5], [0.1, 0.2, 0.3]])
    out = serial_max(g, 0.7)
    assert out.gamma_first == 9.0
    assert out.gamma_second == 8.0
    assert second_link_rank(g, out) == 2


def test_serial_max_low_weight_swaps_direction():
    out = serial_max(MATRIX, 0.3)
    # best link serves B->A: physical link (0,0) used as B-tx 0 -> A-rx 0
    assert out.selection.ba_link == (0, 0)
    assert out.selection.ab_link == (1, 1)
    assert out.gamma_first == 5.0


@pytest.mark.parametrize(
    "args,expected",
    [
        ((1.0, 1.0, 0.7), 1.0),
        ((3.0, 1.0, 0.7), 1.7),
        ((3.0, 1.0, 0.3), 1.7),
    ],
)
def test_weighted_combine_rate(args, expected):
    assert weighted_combine_rate(*args) == pytest.approx(expected, rel=1e-12)


def test_weighted_combine_ser():
    assert weighted_combine_ser(0.0, 0.0, 0.7, BPSK) == pytest.approx(0.5)
    assert weighted_combine_ser(1e9, 0.0, 0.7, BPSK) == pytest.approx(0.15, abs=1e-12)
    assert weighted_combine_ser(2.0, 2.0, 0.9, BPSK) == pytest.approx(
        weighted_combine_ser(2.0, 2.0, 0.2, BPSK)
    )


def test_second_link_rank_examples():
    out = serial_max(MATRIX, 0.7)
    assert second_link_rank(MATRIX, out) == 4

    # 5 > 4 > 3, with 4 sharing the row of 5 and 3 disjoint from 5
    g = np.array([[5.0, 4.0], [2.0, 3.0]])
    out = serial_max(g, 0.7)
    assert out.gamma_second == 3.0
    assert second_link_rank(g, out) == 3


@pytest.mark.parametrize(
    "n_a,n_b,expected",
    [(2, 2, 1 / 3), (3, 3, 3 / 14), (5, 5, 56 / 552)],
)
def test_p_not_upper_bound(n_a, n_b, expected):
    assert p_not_upper_bound(n_a, n_b) == pytest.approx(expected, rel=1e-15)


def test_p_not_bound_degenerate():
    with pytest.raises(DegenerateSize):
        p_not_upper_bound(1, 2)


@pytest.mark.parametrize(
    "method,n_a,n_b,expected",
    [
        ("exhaustive", 3, 3, 18),
        ("serial_max", 3, 3, 13),
        ("serial_max", 2, 2, 5),
        ("exhaustive", 4, 5, 120),
    ],
)
def test_comparison_count(method, n_a, n_b, expected):
    assert comparison_count(method, n_a, n_b) == expected


def test_matrix_too_small():
    g = np.array([[1.0, 2.0]])
    for fn in (lambda: serial_max(g), lambda: exhaustive_max_wsr(g, 0.5),
               lambda: exhaustive_min_wser(g, 0.5, BPSK)):
        with pytest.raises(MatrixTooSmall):
            fn()


random_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 4), st.integers(2, 4)),
    elements=st.floats(0.0, 1e6, allow_nan=False, width=64),
)


@settings(max_examples=100, deadline=None)
@given(g=random_matrices, w=st.floats(0.05, 0.95))
def test_antenna_disjointness(g, w):
    for out in (serial_max(g, w), exhaustive_max_wsr(g, w), exhaustive_min_wser(g, w, BPSK)):
        assert out.selection.ab_link[0] != out.selection.ba_link[1]
        assert out.selection.ba_link[0] != out.selection.ab_link[1]


def pairwise_order(g):
    """sign(g_i - g_j) over all entry pairs: -1, 0 or +1 for <, =, >."""
    return np.sign(np.subtract.outer(g.ravel(), g.ravel()))


@settings(max_examples=60, deadline=None)
@given(g=random_matrices, c=st.floats(1e-3, 1e3))
def test_serial_max_scaling_invariance(g, c):
    # the invariance holds for a scaling that keeps every pairwise order; in
    # floating point c*g can round two entries into a tie or underflow one
    assume(np.array_equal(pairwise_order(c * g), pairwise_order(g)))
    a = serial_max(g, 0.7)
    b = serial_max(c * g, 0.7)
    assert a.selection == b.selection


@pytest.mark.parametrize("w", [0.7, 0.3])
def test_serial_max_never_beats_exhaustive(w):
    rng = np.random.default_rng(6)
    for _ in range(300):
        g = rng.exponential(1.0, (3, 3))
        sm = serial_max(g, w)
        sm_rate = weighted_combine_rate(sm.gamma_first, sm.gamma_second, w)
        ex = exhaustive_max_wsr(g, w)
        ex_rate = weighted_combine_rate(ex.gamma_first, ex.gamma_second, w)
        assert sm_rate <= ex_rate + 1e-12

        sm_ser = weighted_combine_ser(sm.gamma_first, sm.gamma_second, w, BPSK)
        exs = exhaustive_min_wser(g, w, BPSK)
        exs_ser = weighted_combine_ser(exs.gamma_first, exs.gamma_second, w, BPSK)
        assert sm_ser >= exs_ser - 1e-15


def test_by_weight_is_its_own_inverse():
    assert by_weight("ab", "ba", 0.7) == ("ab", "ba")
    assert by_weight("ab", "ba", 0.5) == ("ab", "ba")
    assert by_weight("ab", "ba", 0.3) == ("ba", "ab")
    for w in (0.7, 0.5, 0.3):
        assert by_weight(*by_weight("ab", "ba", w), w) == ("ab", "ba")


def test_select_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown policy"):
        select(np.ones((1, 3, 3)), 0.7, "exhaustive", BPSK)


@pytest.mark.parametrize("w", [0.7, 0.3])
def test_first_pick_serves_the_larger_weight_direction(w):
    # every policy: gamma_first is the link of the larger-weight direction,
    # and select's (A->B, B->A) positions are the outcome's links
    rng = np.random.default_rng(11)
    outcomes = {
        "max_wsr": lambda g: exhaustive_max_wsr(g, w),
        "min_wser": lambda g: exhaustive_min_wser(g, w, BPSK),
        "serial_max": lambda g: serial_max(g, w),
    }
    assert set(outcomes) == set(POLICIES)
    for _ in range(50):
        g = rng.exponential(1.0, (3, 4))
        for policy, fn in outcomes.items():
            out = fn(g)
            (i_t, j_r), (j_t, i_r) = out.selection.ab_link, out.selection.ba_link
            first, second = by_weight(g[i_t, j_r], g[i_r, j_t], w)
            assert (out.gamma_first, out.gamma_second) == (first, second)
            ab, ba = select(g[None], w, policy, BPSK)
            assert (ab[0], ba[0]) == (i_t * 4 + j_r, i_r * 4 + j_t)
        best_rate, _ = brute_force_max_wsr(g, w)
        out = outcomes["max_wsr"](g)
        assert weighted_combine_rate(out.gamma_first, out.gamma_second, w) == pytest.approx(
            best_rate, rel=1e-12)
        best_ser, _ = brute_force_min_wser(g, w)
        out = outcomes["min_wser"](g)
        assert weighted_combine_ser(out.gamma_first, out.gamma_second, w, BPSK) == pytest.approx(
            best_ser, rel=1e-12)


def test_rank_two_or_three_implies_optimal():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(500):
        g = rng.exponential(1.0, (3, 3))
        w = 0.7
        sm = serial_max(g, w)
        if second_link_rank(g, sm) not in (2, 3):
            continue
        hits += 1
        sm_rate = weighted_combine_rate(sm.gamma_first, sm.gamma_second, w)
        best_rate, _ = brute_force_max_wsr(g, w)
        assert sm_rate == pytest.approx(best_rate, rel=1e-12)
        sm_ser = weighted_combine_ser(sm.gamma_first, sm.gamma_second, w, BPSK)
        best_ser, _ = brute_force_min_wser(g, w)
        assert sm_ser == pytest.approx(best_ser, rel=1e-12)
    assert hits > 300  # most draws satisfy the rank condition


def test_comparison_tally_matches_formula():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_a, n_b = rng.integers(2, 7, size=2)
        g = rng.exponential(1.0, (n_a, n_b))
        out = serial_max(g, 0.7)
        assert out.comparisons_used == comparison_count("serial_max", n_a, n_b)


def brute_force_serial_max(g):
    """Independent oracle: plain loops, first maximum in row-major order,
    and the entries step 2 examines."""
    n_a, n_b = g.shape
    pos1 = max(itertools.product(range(n_a), range(n_b)), key=lambda p: (g[p], -p[0], -p[1]))
    kept = [(i, j) for i in range(n_a) for j in range(n_b) if i != pos1[0] and j != pos1[1]]
    pos2 = max(kept, key=lambda p: (g[p], -p[0], -p[1]))
    return pos1, pos2, len(kept)


def integer_stacks(hi):
    return arrays(
        np.float64,
        st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
        elements=st.integers(0, hi).map(float),
    )


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(integer_stacks(3), integer_stacks(10**6)), w=st.floats(0.05, 0.95))
def test_batched_kernels_match_oracles(g, w):
    # random and tie-heavy small-integer stacks; each trial's positions must
    # be exactly the oracle's, lexicographic tie-break included.  Sizes up
    # to 6x6 take both the pruned top-K path and the all-pairs path
    t, n_a, n_b = g.shape

    def flat(i, j):
        return i * n_b + j

    idx1, idx2, pruned = _serial_max_positions(g)
    for k in range(t):
        pos1, pos2, kept = brute_force_serial_max(g[k])
        assert (idx1[k], idx2[k]) == (flat(*pos1), flat(*pos2))
        assert np.count_nonzero(~pruned[k]) == kept

    # the oracle scores the kernel's own per-link values, so both sides
    # compute the same objective bit for bit and only the search differs
    for metric, per_link, maximize in (
        ("rate", rate_map(g), True),
        ("ser", ser_map(g, BPSK), False),
    ):
        ab, ba = _exhaustive_positions(g, w, metric, BPSK)
        for k in range(t):
            _, (i_t, j_r, i_r, j_t) = brute_force_best(per_link[k], w, lambda v: v, maximize)
            assert (ab[k], ba[k]) == (flat(i_t, j_r), flat(i_r, j_t))


def test_exhaustive_falls_back_when_every_ser_underflows():
    # every SER is 0, so every feasible pair ties and no top-K answer can
    # be certified: the kernel must return the first feasible pair
    n_a, n_b = 4, 5
    rng = np.random.default_rng(3)
    g = 1e4 + np.stack([rng.permutation(n_a * n_b) for _ in range(4)]).reshape(4, n_a, n_b)
    assert not ser_map(g, BPSK).any()
    ab, ba = _exhaustive_positions(g, 0.7, "ser", BPSK)
    assert ab.tolist() == [0] * 4
    assert ba.tolist() == [n_b + 1] * 4


def test_exhaustive_tie_at_the_top_k_boundary():
    # 4x4, K = 8: the top entry's row and column hold ranks 2..7, so its
    # best compatible partners are the two entries tied at ranks 8 and 9,
    # and argpartition keeps only one of them.  The lexicographic first
    # optimum pairs the top entry with the tied entry of smaller flat index.
    n = 4
    block = [(i, j) for i in range(1, n) for j in range(1, n)]
    stack, tied = [], []
    for a, b in itertools.combinations(block, 2):
        g = np.zeros((n, n))
        g[0, 0] = 1e6
        g[0, 1:], g[1:, 0] = (100.0, 99.0, 98.0), (97.0, 96.0, 95.0)
        rest = [p for p in block if p not in (a, b)]
        for value, p in enumerate(rest, start=1):
            g[p] = value
        g[a] = g[b] = 50.0
        stack.append(g)
        tied.append(a[0] * n + a[1])
    g = np.array(stack)
    for w in (0.7, 0.3):
        ab, ba = _exhaustive_positions(g, w, "rate", None)
        top, partner = (ab, ba) if w >= 0.5 else (ba, ab)
        assert top.tolist() == [0] * len(stack)
        assert partner.tolist() == tied
        per_link = rate_map(g)
        for k in range(len(stack)):
            _, (i_t, j_r, i_r, j_t) = brute_force_best(per_link[k], w, lambda v: v, True)
            assert (ab[k], ba[k]) == (i_t * n + j_r, i_r * n + j_t)


@pytest.mark.parametrize("w", [0.7, 1.3, -0.2])
def test_exhaustive_matches_all_pairs_off_the_physical_domain(w):
    # a weight outside [0, 1] or a NaN entry voids the top-K argument; the
    # kernel must still return what scoring every feasible pair returns
    g = np.random.default_rng(1).exponential(1.0, (200, 5, 5))
    g[::2, 4, 4] = np.nan
    for metric, per_link, sign in (("rate", rate_map(g), 1.0), ("ser", ser_map(g, BPSK), -1.0)):
        ab, ba = _exhaustive_positions(g, w, metric, BPSK)
        ref_ab, ref_ba = _all_pairs_positions(per_link, w, sign)
        assert np.array_equal(ab, ref_ab) and np.array_equal(ba, ref_ba)
