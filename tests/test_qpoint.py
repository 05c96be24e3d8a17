"""Metric axioms and matching operations for unordered Q-tuples."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qhalf.qpoint import (
    QPoint,
    batch_match_cost2,
    batch_match_rows,
    batch_match_values,
    g_distance,
    g_distance_bruteforce,
)

UNIFORM = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
# small integers make ties between sheets the common case
TIES = st.integers(-2, 2).map(float)


def sorted_sheets(p):
    """Sheets of a Q-point in lexicographic order: its multiset, canonically."""
    return p.sheets[np.lexsort(p.sheets.T[::-1])]


def same_multiset(a, b):
    return np.array_equal(sorted_sheets(a), sorted_sheets(b))


def random_qpoint(rng, q, n):
    return QPoint(rng.uniform(-2.0, 2.0, size=(q, n)))


@st.composite
def stack_pairs(draw, elements):
    """Two (M, Q, n) stacks, Q <= 6 and n <= 4, so both kernel paths run."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
             draw(st.integers(1, 4)))
    return (draw(arrays(float, shape, elements=elements)),
            draw(arrays(float, shape, elements=elements)))


def matched_segment(a, b, t):
    """Point at parameter t on the matched segment from a to b."""
    matched = batch_match_values(a.sheets[None], b.sheets[None])[0]
    return QPoint((1.0 - t) * a.sheets + t * matched)


def assert_kernel_is_optimal(U, V):
    c2 = batch_match_cost2(U, V)
    W = batch_match_values(U, V)
    for m in range(U.shape[0]):
        d = g_distance_bruteforce(U[m], V[m])
        assert abs(np.sqrt(c2[m]) - d) <= 1e-12
        # each matched row is a permutation of V's row realizing the cost
        assert same_multiset(QPoint(W[m]), QPoint(V[m]))
        assert abs(np.sqrt(((U[m] - W[m]) ** 2).sum()) - d) <= 1e-12


def test_distance_known_values():
    # two scalar sheets: identity matching costs 0.01 + 0.01
    a = QPoint([[0.0], [1.0]])
    b = QPoint([[0.1], [0.9]])
    assert g_distance(a, b) == pytest.approx(np.sqrt(0.02), abs=1e-14)
    # single sheet in the plane: plain Euclidean distance
    p = QPoint([[3.0, 4.0]])
    origin = QPoint([[0.0, 0.0]])
    assert g_distance(p, origin) == pytest.approx(5.0, abs=1e-14)


def test_distance_matches_bruteforce():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        a, b = random_qpoint(rng, q, n), random_qpoint(rng, q, n)
        worst = max(worst, abs(g_distance(a, b) - g_distance_bruteforce(a, b)))
    assert worst <= 1e-12


def test_bruteforce_size_limit():
    a = QPoint(np.zeros((9, 1)))
    b = QPoint(np.ones((9, 1)))
    with pytest.raises(ValueError):
        g_distance_bruteforce(a, b)


def loop_bruteforce(a, b):
    """The per-permutation loop that the vectorised oracle replaced."""
    d = a[:, None, :] - b[None, :, :]
    cost = np.einsum("ijk,ijk->ij", d, d)
    q = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(q)):
        total = cost[range(q), perm].sum()
        if total < best:
            best = total
    return float(np.sqrt(best))


def test_bruteforce_equals_permutation_loop():
    rng = np.random.default_rng(5)
    for q in range(1, 7):
        for n in range(1, 5):
            for _ in range(4):
                # small integers are tie-heavy, uniform floats are not
                for a, b in (rng.integers(-2, 3, size=(2, q, n)).astype(float),
                             rng.uniform(-2.0, 2.0, size=(2, q, n))):
                    assert g_distance_bruteforce(a, b) == loop_bruteforce(a, b)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        a, b, c = (random_qpoint(rng, q, n) for _ in range(3))
        dab, dba = g_distance(a, b), g_distance(b, a)
        assert abs(dab - dba) <= 1e-12
        assert dab >= 0.0
        # triangle inequality
        assert dab <= g_distance(a, c) + g_distance(c, b) + 1e-10
    # identity of indiscernibles, both directions
    a = QPoint([[0.5, -1.0], [2.0, 0.25]])
    same = QPoint([[2.0, 0.25], [0.5, -1.0]])
    assert g_distance(a, same) == 0.0
    assert same_multiset(a, same)
    other = QPoint([[0.5, -1.0], [2.0, 0.2500001]])
    assert g_distance(a, other) > 0.0


def test_permutation_invariance_of_operations():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        a, b = random_qpoint(rng, q, n), random_qpoint(rng, q, n)
        pa = QPoint(a.sheets[rng.permutation(q)])
        pb = QPoint(b.sheets[rng.permutation(q)])
        assert g_distance(pa, pb) == pytest.approx(g_distance(a, b), abs=1e-12)
        assert np.allclose(pa.sheets.mean(axis=0), a.sheets.mean(axis=0),
                           atol=1e-14)
        t = float(rng.uniform(0, 1))
        assert np.array_equal(matched_segment(pa, pb, t).sheets,
                              matched_segment(pa, pb, t).sheets)
        # matched-segment multisets agree regardless of storage order
        lhs = sorted_sheets(matched_segment(a, b, t))
        rhs = sorted_sheets(matched_segment(pa, pb, t))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_optimal_matching_deterministic_tiebreak():
    # table path: all four pairings cost the same; the identity wins
    # lexicographically
    a = np.array([[[0.0], [0.0]]])
    b = np.array([[[1.0], [1.0]]])
    assert np.array_equal(batch_match_values(a, b), b)
    # symmetric square: sheets at distance 1 either way
    c = np.array([[[0.0, 0.0], [1.0, 1.0]]])
    d = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(batch_match_values(c, d), d)
    # sort path: tied sheets of U take V's sheets in stable argsort order
    u = np.array([[[0.0], [0.0], [0.0]], [[1.0], [0.0], [1.0]]])
    v = np.array([[[3.0], [1.0], [2.0]], [[5.0], [4.0], [6.0]]])
    want = np.array([[[1.0], [2.0], [3.0]], [[5.0], [4.0], [6.0]]])
    assert np.array_equal(batch_match_values(u, v), want)
    assert np.array_equal(batch_match_values(u, v), batch_match_values(u, v))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stack_pairs(UNIFORM))
def test_optimal_matching_realizes_distance(pair):
    assert_kernel_is_optimal(*pair)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stack_pairs(TIES))
def test_optimal_matching_realizes_distance_under_ties(pair):
    assert_kernel_is_optimal(*pair)


def test_matched_segment_endpoints_and_midpoint():
    a = QPoint([[0.0], [0.0]])
    b = QPoint([[2.0], [4.0]])
    assert same_multiset(matched_segment(a, b, 0.5), QPoint([[1.0], [2.0]]))
    assert same_multiset(matched_segment(a, b, 0.0), a)
    assert same_multiset(matched_segment(a, b, 1.0), b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stack_pairs(UNIFORM), st.floats(0.0, 1.0))
def test_matched_segment_distance_linear(pair, t):
    a, b = QPoint(pair[0][0]), QPoint(pair[1][0])
    d = g_distance_bruteforce(a, b)
    p = matched_segment(a, b, t)
    assert g_distance_bruteforce(a, p) == pytest.approx(t * d, abs=1e-10)
    assert g_distance_bruteforce(p, b) == pytest.approx((1 - t) * d, abs=1e-10)


def test_mean_contraction():
    # sqrt(Q) * |mean difference| never exceeds the matching distance
    rng = np.random.default_rng(17)
    for _ in range(500):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        a, b = random_qpoint(rng, q, n), random_qpoint(rng, q, n)
        lhs = np.sqrt(q) * np.linalg.norm(a.sheets.mean(axis=0)
                                          - b.sheets.mean(axis=0))
        assert lhs <= g_distance(a, b) + 1e-12


def test_batch_helpers_match_scalar_path():
    rng = np.random.default_rng(23)
    M = 64
    for q, n in ((3, 2), (3, 1)):
        U = rng.normal(size=(M, q, n))
        V = rng.normal(size=(M, q, n))
        c2 = batch_match_cost2(U, V)
        W = batch_match_values(U, V)
        for m in range(M):
            d = g_distance_bruteforce(U[m], V[m])
            assert np.sqrt(c2[m]) == pytest.approx(d, abs=1e-12)
            # matched values realize the same cost
            realized = ((U[m] - W[m]) ** 2).sum()
            assert realized == pytest.approx(d * d, abs=1e-12)
            assert np.allclose(np.sort(W[m], axis=0), np.sort(V[m], axis=0))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.integers(1, 5), n=st.integers(1, 2),
       elements=st.sampled_from([UNIFORM, TIES]))
def test_batch_match_rows_equals_the_kernel_row_for_row(data, q, n, elements):
    # Each neighbour column reuses one rank order and one sorted copy of
    # V; the result must be the kernel's, ties included.
    m = data.draw(st.integers(1, 12))
    V = data.draw(arrays(float, (m, q, n), elements=elements))
    cols = [data.draw(arrays(np.intp, m, elements=st.integers(0, m - 1)))
            for _ in range(data.draw(st.integers(1, 4)))]
    for j, W in zip(cols, batch_match_rows(V, cols)):
        assert np.array_equal(W, batch_match_values(V, V[j]))


def test_batch_match_rows_on_shuffled_solved_rows():
    from qhalf import data_maps
    from qhalf.domain import build_halfdisk
    from qhalf.solver import minimize

    dom = build_halfdisk(1.0, 1.0 / 16)
    u, _ = minimize(dom, data_maps.odd_cubic(Q=4, amplitude=0.3))
    rng = np.random.default_rng(7)
    V = rng.permuted(u.plus, axis=1)
    side = dom.plus
    cols = np.where(side.nb >= 0, side.nb, np.arange(side.n_nodes)[:, None]).T
    for j, W in zip(cols, batch_match_rows(V, cols)):
        assert np.array_equal(W, batch_match_values(V, V[j]))
