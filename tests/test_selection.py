import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import log_ndtr

from conftest import masked_candidates
from oracles import draw_matrix_batch, second_link_rank
from fdlink import (
    BPSK,
    comparison_count,
    exhaustive_max_wsr,
    exhaustive_min_wser,
    p_not_upper_bound,
    selection,
    serial_max,
    weighted_combine_rate,
    weighted_combine_ser,
)
from fdlink.config import SystemConfig
from fdlink.errors import DegenerateSize, MatrixTooSmall
from fdlink.selection import (
    POLICIES,
    best_pairs,
    by_weight,
    candidates,
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
    # every pair ties, and ties go to Serial-Max's own pair: M = (0, 0) and
    # S = (1, 1), the first pick serving B->A at w = 0.3
    g = np.ones((2, 2))
    for out in (exhaustive_max_wsr(g, 0.3), exhaustive_min_wser(g, 0.3, BPSK)):
        assert out.selection == serial_max(g, 0.3).selection
        assert out.selection.ab_link == (1, 1)
        assert out.selection.ba_link == (0, 0)


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
        ("max_wsr", 4, 5, 120),
        ("min_wser", 3, 3, 18),
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


def test_select_refuses_min_wser_without_a_modulation():
    # refused before any work: only a contested trial scores SERs, so a
    # stack without one would otherwise return positions
    for g, contested in (([[5, 4, 0.1], [3, 0.2, 0.3], [0.4, 0.5, 0.6]], True),
                         ([[5, 0.1, 0.2], [0.3, 4, 0.5], [0.6, 0.7, 0.8]], False)):
        g = np.array([g])
        x = g.reshape(-1)[masked_candidates(g)[:, 0]]
        assert (x[2] > x[1] and x[3] > x[1]) == contested
        with pytest.raises(ValueError, match="min_wser needs a modulation"):
            select(g, 0.7, "min_wser", None)


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
    """Independent oracle: plain loops, first maximum in row-major order."""
    n_a, n_b = g.shape
    pos1 = max(itertools.product(range(n_a), range(n_b)), key=lambda p: (g[p], -p[0], -p[1]))
    kept = [(i, j) for i in range(n_a) for j in range(n_b) if i != pos1[0] and j != pos1[1]]
    pos2 = max(kept, key=lambda p: (g[p], -p[0], -p[1]))
    return pos1, pos2


def integer_stacks(hi, trials=(2, 6)):
    return arrays(
        np.float64,
        st.tuples(st.integers(*trials), st.integers(2, 6), st.integers(2, 6)),
        elements=st.integers(0, hi).map(float),
    )


def pair_score(g, ab, ba, w, policy):
    """Per trial, the score, larger better, of the pair at flat positions
    (ab, ba) of (T, n_a, n_b) matrices: w*R_ab + (1-w)*R_ba for max_wsr,
    minus the log of w*SER_ab + (1-w)*SER_ba for min_wser."""
    flat = g.reshape(len(g), -1)
    rows = np.arange(len(g))[:, None] if np.ndim(ab) == 2 else np.arange(len(g))
    x_ab, x_ba = flat[rows, ab], flat[rows, ba]
    if policy == "max_wsr":
        return w * rate_map(x_ab) + (1.0 - w) * rate_map(x_ba)
    log_ab, log_ba = (np.log(BPSK.alpha_mod) + log_ndtr(-np.sqrt(BPSK.beta_mod * x))
                      for x in (x_ab, x_ba))
    with np.errstate(divide="ignore"):
        return -np.logaddexp(np.log(w) + log_ab, np.log(1.0 - w) + log_ba)


def feasible_pairs(n_a, n_b):
    """Flat positions (ab, ba) of every feasible pair, in lexicographic order."""
    n = n_a * n_b
    ab, ba = np.divmod(np.arange(n * n), n)
    keep = (ab // n_b != ba // n_b) & (ab % n_b != ba % n_b)
    return ab[keep], ba[keep]


def assert_exhaustive_contract(g, w):
    """select's exhaustive picks on a (T, n_a, n_b) stack, as (first,
    second) pick: (M, S) where R or C is at most S, and on contested trials,
    where both exceed S, the first of (M, S), (S, M), (R, C), (C, R) that
    scores best.  Every pick scores within a few roundings of the best over
    every feasible pair, and a contested max_wsr pick scores it bit for
    bit."""
    t, n_a, n_b = g.shape
    cand = masked_candidates(g)
    x = g.reshape(t, -1)[np.arange(t), cand]
    contested = (x[2] > x[1]) & (x[3] > x[1])
    picks = [by_weight(cand[p], cand[q], w) for p, q in ((0, 1), (1, 0), (2, 3), (3, 2))]
    all_ab, all_ba = feasible_pairs(n_a, n_b)
    for policy in ("max_wsr", "min_wser"):
        scores = np.stack([pair_score(g, ab, ba, w, policy) for ab, ba in picks])
        first = np.where(contested, scores.argmax(axis=0), 0)
        want_ab = np.choose(first, [ab for ab, _ in picks])
        want_ba = np.choose(first, [ba for _, ba in picks])
        ab, ba = select(g, w, policy, BPSK)
        assert np.array_equal(ab, want_ab) and np.array_equal(ba, want_ba), policy
        got = pair_score(g, ab, ba, w, policy)
        best = pair_score(g, np.broadcast_to(all_ab, (t, all_ab.size)),
                          np.broadcast_to(all_ba, (t, all_ba.size)), w, policy).max(axis=1)
        # log_ndtr is monotone only up to rounding, and rounding can rank
        # (S, M) above (M, S), the exact optimum, on an uncontested trial
        slack = 4 * np.spacing(np.maximum(np.abs(best), 1.0))
        assert np.all((got == best) | (got >= best - slack)), (got - best).min()
        if policy == "max_wsr":
            assert np.array_equal(got[contested], best[contested])


def assert_kernels_match_oracles(g, w):
    """Each trial's Serial-Max positions are exactly the brute-force
    oracle's, lexicographic tie-break included; the exhaustive candidates
    are the masking oracle's, and the exhaustive picks meet their
    contract."""
    t, n_a, n_b = g.shape
    idx1, idx2 = candidates(g, "serial_max")
    for k in range(t):
        (i1, j1), (i2, j2) = brute_force_serial_max(g[k])
        assert (idx1[k], idx2[k]) == (i1 * n_b + j1, i2 * n_b + j2)
    assert np.array_equal(candidates(g, "max_wsr"), masked_candidates(g))
    assert_exhaustive_contract(g, w)
    # an integer stack picks as its float copy does
    ints = g.astype(np.int64)
    for policy in POLICIES:
        assert np.array_equal(candidates(ints, policy), candidates(g, policy))
        assert np.array_equal(select(ints, w, policy, BPSK), select(g, w, policy, BPSK))


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(integer_stacks(3), integer_stacks(10**6)), w=st.floats(0.0, 1.0))
def test_batched_kernels_match_oracles(g, w):
    # random and tie-heavy small-integer stacks, at every size up to 6x6 and
    # every weight in [0, 1], the end points included
    assert_kernels_match_oracles(g, w)


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(integer_stacks(3, trials=(7, 24)), integer_stacks(10**6, trials=(7, 24))),
       w=st.floats(0.0, 1.0), block=st.integers(1, 5))
def test_blocked_kernels_match_oracles_across_block_edges(g, w, block):
    # the candidates are found 4 * _BLOCK values (one matrix at least) and
    # scored _BLOCK trials at a time; a small _BLOCK puts several step
    # edges, and a partial last step, inside every stack
    with mock.patch.object(selection, "_BLOCK", block):
        assert_kernels_match_oracles(g, w)


@pytest.mark.parametrize("shape", [(1, 130, 130), (5000, 3, 3)],
                         ids=["one-matrix-past-the-step", "short-last-step"])
def test_candidates_match_the_oracle_across_steps_of_the_real_block(shape):
    # a step of finding the candidates takes 4 * _BLOCK = 16,384 values, one
    # matrix at least: a 130x130 matrix exceeds it alone, and 5,000 3x3
    # matrices split into steps of 1,820 and a short last one
    rng = np.random.default_rng(5)
    for g in (rng.exponential(1.0, shape), rng.integers(0, 3, shape).astype(float)):
        want = masked_candidates(g)
        for policy in POLICIES:
            got = candidates(g, policy)
            assert np.array_equal(got, want[:len(got)]), policy


def test_candidates_memory_is_one_masked_copy():
    # one 100x100 matrix: a table of which of its 10^4 links share a row or
    # a column would take 10^8 bools; the masked copy of the matrix is 80 kB
    g = np.random.default_rng(6).exponential(1.0, (1, 100, 100))
    tracemalloc.start()
    try:
        for policy in POLICIES:
            candidates(g, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_candidates_leave_their_input_unchanged():
    # the masking writes to a C-ordered float copy: a float stack, an
    # integer one and a transposed view are read, never written
    rng = np.random.default_rng(7)
    g = rng.exponential(1.0, (50, 4, 5))
    for stack in (g, rng.integers(0, 3, (50, 4, 5)), g.transpose(0, 2, 1)):
        before = stack.copy()
        want = masked_candidates(stack)
        for policy in POLICIES:
            got = candidates(stack, policy)
            assert np.array_equal(got, want[:len(got)]), policy
        assert np.array_equal(stack, before)


def mp_ser(x, mod=BPSK):
    """alpha * Q(sqrt(beta * x)) at the working precision."""
    return mod.alpha_mod * mpmath.erfc(mpmath.sqrt(mod.beta_mod * mpmath.mpf(x) / 2)) / 2


def mp_weighted_ser(g, pair, w):
    """w*SER_ab + (1-w)*SER_ba of the pair ((i_t, j_r), (i_r, j_t)) of the
    matrix g, at 50 digits."""
    with mpmath.workdps(50):
        return w * mp_ser(g[pair[0]]) + (1 - w) * mp_ser(g[pair[1]])


def mp_optimum(g, w):
    """The smallest 50-digit weighted SER over every feasible pair of g:
    each link's A->B term plus the smallest B->A term among its feasible
    partners, which mp addition, rounding monotonically, keeps exact."""
    n_a, n_b = g.shape
    with mpmath.workdps(50):
        ser = {(i, j): mp_ser(g[i, j]) for i in range(n_a) for j in range(n_b)}
        ba = {q: (1 - w) * x for q, x in ser.items()}
        return min(w * x + min(ba[q] for q in ba if q[0] != p[0] and q[1] != p[1])
                   for p, x in ser.items())


def positions(flat_ab, flat_ba, n_b):
    return divmod(int(flat_ab), n_b), divmod(int(flat_ba), n_b)


def test_min_wser_picks_the_optimum_where_sers_underflow():
    # at eta = 0 and 25-40 dB the per-link SERs of the best links underflow
    # to 0, so a search scored on the SERs themselves ties and may return a
    # dominated pair; scored in the log domain, every pick is the optimum
    w = 0.7
    for snr_db in (25.0, 30.0, 40.0):
        cfg = SystemConfig(n_a=6, n_b=6, lambda_s=10 ** (snr_db / 10), eta=0.0, w=w)
        snr, _, _ = draw_matrix_batch(1, 0, 100, cfg, 0.0)
        g = snr * cfg.scale
        picks = select(g, w, "min_wser", BPSK)
        serial = select(g, w, "serial_max", BPSK)
        underflows = 0
        for k in range(len(g)):
            got = mp_weighted_ser(g[k], positions(picks[0][k], picks[1][k], 6), w)
            assert got == mp_optimum(g[k], w), (snr_db, k)
            assert got <= mp_weighted_ser(g[k], positions(serial[0][k], serial[1][k], 6), w)
            underflows += not ser_map(g[k], BPSK).min()
        assert underflows > 0, snr_db


def test_exhaustive_tie_at_the_top_k_boundary():
    # 4x4: the top entry's row and column hold ranks 2..7, so its best
    # compatible partners are the two entries tied at ranks 8 and 9, both
    # outside its cross.  S is the tied entry of smaller flat index, and
    # (M, S) scores the all-pairs optimum
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
        top, partner = by_weight(*select(g, w, "max_wsr", None), w)
        assert top.tolist() == [0] * len(stack)
        assert partner.tolist() == tied
        assert_exhaustive_contract(g, w)


@pytest.mark.parametrize("w,nan_entry", [(math.nan, False), (0.7, True)],
                         ids=["w=nan", "nan-entry"])
def test_select_refuses_input_off_the_physical_domain(w, nan_entry):
    # the four candidates hold the optimum only where a pair's score is
    # monotone in both links: w in [0, 1] and no NaN
    g = np.random.default_rng(1).exponential(1.0, (20, 5, 5))
    if nan_entry:
        g[::2, 4, 4] = np.nan
    match = "NaN entry" if nan_entry else "w must lie in"
    for policy in POLICIES:
        with pytest.raises(ValueError, match=match):
            select(g, w, policy, BPSK)


@pytest.mark.parametrize("w", [1.3, -0.2])
def test_exhaustive_matches_all_pairs_off_the_physical_domain(w):
    # outside [0, 1] one link's weight is negative, a pair's score is no
    # longer monotone in both links and the four candidates may miss the
    # all-pairs optimum; select refuses the weight rather than return a
    # pick the all-pairs pass would not make
    g = np.random.default_rng(1).exponential(1.0, (200, 5, 5))
    rates = rate_map(g)
    missed = [h for h in rates
              if brute_force_best(h, w, lambda v: v, True)[0]
              > max(w * h[p] + (1 - w) * h[q] for p, q in cross_candidates(h))]
    assert missed
    for policy in POLICIES:
        with pytest.raises(ValueError, match="w must lie in"):
            select(g, w, policy, BPSK)


@pytest.mark.parametrize("w", [1.3, -0.2, 0.0, 1.0])
def test_exhaustive_with_one_infinite_rate_off_the_physical_domain(w):
    # one infinite rate per trial: outside [0, 1], w*h and (1-w)*h are
    # infinities of opposite signs; the weight is refused before any pair
    # is scored, so no inf - inf is formed and no RuntimeWarning is raised.
    # At w = 0 and 1 the zero-weight link is left out of the score, so no
    # 0 * inf is formed either, and the infinite link is the first pick
    if 0.0 <= w <= 1.0:
        g = np.array([[[np.inf, 1, .5], [1, 2, .3], [.2, .1, 3]]])
        for policy in POLICIES:
            ab, ba = select(g, w, policy, None if policy == "max_wsr" else BPSK)
            assert by_weight(ab.tolist(), ba.tolist(), w) == ([0], [8])
        return
    rng = np.random.default_rng(2)
    g = rng.exponential(1.0, (300, 4, 5))
    g.reshape(300, 20)[np.arange(300), rng.integers(0, 20, 300)] = np.inf
    for policy in POLICIES:
        with pytest.raises(ValueError, match="w must lie in"):
            select(g, w, policy, None if policy == "max_wsr" else BPSK)


def cross_candidates(h):
    """(M, S), (S, M), (R, C), (C, R) of a matrix h, larger better, by plain
    loops: M the first maximum, S the best entry outside M's row and
    column, R and C the best in M's row and in its column."""
    n_a, n_b = h.shape
    cells = [(i, j) for i in range(n_a) for j in range(n_b)]

    def first_max(pool):
        return max(pool, key=lambda p: (h[p], -p[0], -p[1]))

    m = first_max(cells)
    s = first_max([p for p in cells if p[0] != m[0] and p[1] != m[1]])
    r = first_max([p for p in cells if p[0] == m[0] and p != m])
    c = first_max([p for p in cells if p[1] == m[1] and p != m])
    return [(m, s), (s, m), (r, c), (c, r)]


def matrices(elements):
    return arrays(np.float64, st.tuples(st.integers(2, 7), st.integers(2, 7)), elements=elements)


@settings(max_examples=200, deadline=None)
@given(g=st.one_of(matrices(st.floats(0.0, 1e6, width=64)),
                   matrices(st.integers(0, 3).map(float))),
       w=st.floats(0.0, 1.0))
def test_exhaustive_optimum_is_serial_max_or_cross_pair(g, w):
    # the lemma alone, apart from any kernel: over every feasible pair, the
    # best objective value is the best of the four candidates' values
    for per_link, maximize in ((rate_map(g), True), (ser_map(g, BPSK), False)):
        best, _ = brute_force_best(per_link, w, lambda v: v, maximize)
        h = per_link if maximize else -per_link
        values = [w * per_link[p] + (1 - w) * per_link[q] for p, q in cross_candidates(h)]
        assert best == (max(values) if maximize else min(values))


def unit_stacks(elements):
    return arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 7), st.integers(2, 7)),
                  elements=elements)


@settings(max_examples=100, deadline=None)
@given(e=st.one_of(unit_stacks(st.floats(0.0, 30.0, width=64)),
                   unit_stacks(st.integers(0, 3).map(float))),
       log_lambda=st.one_of(st.sampled_from([-300.0, 15.0]), st.floats(-3.0, 8.0)),
       eta=st.sampled_from([0.0, 0.02, 0.1, 0.5]), w=st.floats(0.0, 1.0))
def test_candidates_on_the_unit_draw_hold_the_optimum_on_g(e, log_lambda, eta, w):
    # the lemma as the Monte Carlo estimators use it: candidates taken on a
    # unit stack E, scored on g = (lambda_s * E) * scale, whose rounding can
    # tie entries E keeps apart; the best of the four is the optimum on g,
    # exactly for rate and at 50 digits for SER
    lambda_s = 10.0**log_lambda
    g = lambda_s * e * SystemConfig(n_a=e.shape[1], n_b=e.shape[2], lambda_s=lambda_s,
                                    eta=eta, w=0.5).scale
    cand = candidates(e, "max_wsr")
    assert np.array_equal(cand, masked_candidates(e))
    t, n_a, n_b = e.shape
    all_ab, all_ba = feasible_pairs(n_a, n_b)
    for k in range(t):
        pairs = [by_weight(cand[p, k], cand[q, k], w) for p, q in ((0, 1), (1, 0), (2, 3), (3, 2))]
        rate = [pair_score(g[k:k + 1], ab, ba, w, "max_wsr")[0] for ab, ba in pairs]
        assert max(rate) == pair_score(g[k:k + 1], all_ab[None], all_ba[None], w,
                                       "max_wsr").max()
        ser = [mp_weighted_ser(g[k], positions(ab, ba, n_b), w) for ab, ba in pairs]
        assert min(ser) == mp_optimum(g[k], w)


@pytest.mark.parametrize("n_a,n_b", [(2, n) for n in range(2, 8)] + [(n, 2) for n in range(3, 8)])
def test_cross_kernel_on_two_row_and_two_column_shapes(n_a, n_b):
    # 2 x n and n x 2: M's row or column holds one other entry, and on 2 x 2
    # a link has one feasible partner.  Trials with an infinite entry must
    # meet the contract too, with no RuntimeWarning (they stay off w = 0 and
    # 1, where 0 * inf meets an infinite rate)
    rng = np.random.default_rng(n_a * 10 + n_b)
    g = np.concatenate([rng.exponential(10.0, (400, n_a, n_b)),
                        rng.integers(0, 3, (400, n_a, n_b)).astype(float)])
    non_finite = g.copy()
    non_finite[::37, 0, 0] = np.inf
    inside = (0.3, 0.5, 0.7, 1e-300, 1.0 - 2.0**-53)
    for stack, weights in ((g, inside + (0.0, 1.0)), (non_finite, inside)):
        for w in weights:
            assert_exhaustive_contract(stack, w)


@pytest.mark.parametrize("w", [0.7, 0.3])
def test_cross_kernel_rounding_tie_with_an_earlier_pair(w):
    # M = (0, 0); S = (1, 2) and S' = (1, 1) lie outside M's cross, with
    # h_S' one rounding below h_S.  (M, S') scores what (M, S) scores once
    # rounded and comes first in lexicographic order, yet the pick is
    # Serial-Max's own pair (M, S), which scores the same optimum
    g = np.full((3, 4), 0.01)
    g[0, 0] = 1023.0
    g[0, 1:], g[1:, 0] = (0.1, 0.2, 0.3), (0.4, 0.5)
    g[1, 1], g[1, 2] = 1.0 - 2.0**-52, 1.0
    h = rate_map(g)
    assert h[1, 1] < h[1, 2]
    m, s_early, s = (0, 0), (1, 1), (1, 2)
    pairs = [(m, s_early), (m, s)] if w >= 0.5 else [(s_early, m), (s, m)]
    early, late = (w * h[p] + (1 - w) * h[q] for p, q in pairs)
    assert early == late
    want = ([0], [6]) if w >= 0.5 else ([6], [0])
    ab, ba = select(g[None], w, "max_wsr", None)
    assert (ab.tolist(), ba.tolist()) == want
    assert_exhaustive_contract(g[None], w)


@pytest.mark.parametrize("w", [0.7, 0.3, 0.5, 0.0, 1.0])
def test_cross_kernel_matches_all_pairs_on_drawn_stacks(w):
    # full matrices drawn by the oracle; in the eta = 0 SER stacks the
    # per-link SERs of the best links underflow to 0 at 30 and 40 dB,
    # where the log score still tells the pairs apart
    for n_a, n_b, snr_db, eta in ((4, 4, 20.0, 0.05), (5, 5, 18.0, 0.02), (6, 6, 25.0, 0.0),
                                  (6, 6, 30.0, 0.0), (6, 6, 40.0, 0.0), (4, 6, 10.0, 0.1)):
        cfg = SystemConfig(n_a=n_a, n_b=n_b, lambda_s=10 ** (snr_db / 10), eta=eta, w=0.7)
        snr, _, _ = draw_matrix_batch(1, 0, 2000, cfg, cfg.lambda_i)
        assert_exhaustive_contract(snr * cfg.scale, w)


def exact_rate_optimum(h, w):
    """The largest exact w*h_ab + (1-w)*h_ba over every feasible pair of
    the per-link rates h: each link's A->B term plus (1-w) times the best
    B->A rate among its feasible partners."""
    n_a, n_b = h.shape
    w = Fraction(w)
    return max(w * Fraction(h[p]) + (1 - w) * Fraction(max(
        h[q] for q in itertools.product(range(n_a), range(n_b)) if q[0] != p[0] and q[1] != p[1]))
        for p in itertools.product(range(n_a), range(n_b)))


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(unit_stacks(st.integers(0, 3).map(float)),
                   unit_stacks(st.integers(0, 10**6).map(float))),
       w=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
def test_contested_rule_keeps_the_first_best_pair_and_the_optimum(g, w):
    # best_pairs scores the four pairs only where R and C both exceed S;
    # elsewhere it takes (M, S), the exact optimum over every feasible
    # pair.  At these weights no rounding ranks (S, M) above (M, S) on
    # integer stacks, so (M, S) is also the first best of the four as scored
    t, n_a, n_b = g.shape
    cand = masked_candidates(g)
    x = g.reshape(t, -1)[np.arange(t), cand]
    order = np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2])
    uncontested = ~((x[2] > x[1]) & (x[3] > x[1]))
    for policy in ("max_wsr", "min_wser"):
        scores = np.stack([pair_score(g, *by_weight(cand[p], cand[q], w), w, policy)
                           for p, q in zip(*order)])
        k = scores.argmax(axis=0)
        want = [cand[pick[k], np.arange(t)] for pick in order]
        assert np.array_equal(best_pairs(cand, x, w, policy, BPSK), want), policy
    for trial in np.flatnonzero(uncontested):
        ab, ba = by_weight(cand[0, trial], cand[1, trial], w)
        h = rate_map(g[trial])
        pair = positions(ab, ba, n_b)
        exact = Fraction(w) * Fraction(h[pair[0]]) + (1 - Fraction(w)) * Fraction(h[pair[1]])
        assert exact == exact_rate_optimum(h, w)
        assert mp_weighted_ser(g[trial], pair, w) == mp_optimum(g[trial], w)


@pytest.mark.parametrize("w", [np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 0.7, 0.3])
def test_serial_max_pair_stands_where_rounding_prefers_the_swap(w):
    # S one to three roundings below M, so every trial is uncontested; the
    # rounded score of (S, M) tops that of (M, S) on some trials: for SER at
    # each of these weights, for rate at 0.7 and 0.3.  The pick is still
    # (M, S), the exact optimum: by Fraction for rate and at 50 digits for
    # SER
    rng = np.random.default_rng(3)
    g = rng.exponential(1.0, (3000, 3, 3))
    t = len(g)
    cand = masked_candidates(g)
    flat = g.reshape(t, -1)
    trials = np.arange(t)
    flat[trials, cand[1]] = flat[trials, cand[0]] * (1.0 - rng.integers(1, 4, t) * 2.0**-52)
    assert np.array_equal(masked_candidates(g), cand)
    x = flat[trials, cand]
    assert not np.any((x[2] > x[1]) & (x[3] > x[1]))
    ms, sm = by_weight(cand[0], cand[1], w), by_weight(cand[1], cand[0], w)
    for policy in ("max_wsr", "min_wser"):
        assert np.array_equal(select(g, w, policy, BPSK), ms), policy
        swapped = np.flatnonzero(pair_score(g, *sm, w, policy) > pair_score(g, *ms, w, policy))
        if policy == "min_wser" or abs(w - 0.5) > 0.1:
            assert swapped.size > 0, policy
        for k in swapped[:25]:
            pair = positions(ms[0][k], ms[1][k], 3)
            if policy == "max_wsr":
                h = rate_map(g[k])
                exact = Fraction(w) * Fraction(h[pair[0]]) + (1 - Fraction(w)) * Fraction(h[pair[1]])
                assert exact == exact_rate_optimum(h, w)
            else:
                assert mp_weighted_ser(g[k], pair, w) == mp_optimum(g[k], w)
