"""Unordered Q-tuples of vectors and the optimal-matching metric.

A Q-point is a multiset of Q values in R^n. The distance between two
Q-points is the smallest root-sum-square pairing cost over all ways of
matching the sheets of one onto the sheets of the other.

One matching kernel, batch_match_values / batch_match_cost2, serves every
caller: a rank sort for scalar sheets (1-D optimal transport is the
monotone rearrangement), a permutation table otherwise. The Q!
enumeration in g_distance_bruteforce is the oracle it is tested against.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

MAX_BRUTEFORCE_Q = 8
MAX_TABLE_Q = 6


class QPoint:
    """A point of the space of unordered Q-tuples in R^n.

    Stores sheets as a (Q, n) float array. Sheet order is an artifact of
    storage and carries no meaning; all operations treat the sheets as a
    multiset.
    """

    __slots__ = ("sheets",)

    def __init__(self, sheets):
        arr = np.asarray(sheets, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("sheets must be a (Q, n) array with Q >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sheets must be finite")
        self.sheets = arr

    @property
    def Q(self) -> int:
        return self.sheets.shape[0]

    @property
    def n(self) -> int:
        return self.sheets.shape[1]

    def sorted_sheets(self) -> np.ndarray:
        """Sheets in lexicographic order, for canonical comparison."""
        order = np.lexsort(self.sheets.T[::-1])
        return self.sheets[order]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoint):
            return NotImplemented
        if self.Q != other.Q or self.n != other.n:
            return False
        return bool(np.array_equal(self.sorted_sheets(), other.sorted_sheets()))

    def __repr__(self) -> str:
        return f"QPoint(Q={self.Q}, n={self.n}, sheets={self.sheets.tolist()})"



def _as_sheets(p) -> np.ndarray:
    if isinstance(p, QPoint):
        return p.sheets
    return QPoint(p).sheets


def g_distance(a, b) -> float:
    """Optimal-matching distance between two Q-points, via the batch kernel."""
    sa, sb = _as_sheets(a), _as_sheets(b)
    if sa.shape != sb.shape:
        raise ValueError(f"shape mismatch: {sa.shape} vs {sb.shape}")
    return float(np.sqrt(batch_match_cost2(sa[None], sb[None])[0]))


def g_distance_bruteforce(a, b) -> float:
    """Reference metric: the least of all Q! matching costs. Q <= 8 only."""
    sa, sb = _as_sheets(a), _as_sheets(b)
    if sa.shape != sb.shape:
        raise ValueError(f"shape mismatch: {sa.shape} vs {sb.shape}")
    q = sa.shape[0]
    if q > MAX_BRUTEFORCE_Q:
        raise ValueError(f"bruteforce limited to Q <= {MAX_BRUTEFORCE_Q}, got Q={q}")
    d = sa[:, None, :] - sb[None, :, :]
    cost = np.einsum("ijk,ijk->ij", d, d)
    totals = cost[np.arange(q), _oracle_permutations(q)].sum(axis=1)
    return float(np.sqrt(totals.min()))


@lru_cache(maxsize=None)
def _oracle_permutations(q: int) -> np.ndarray:
    # the oracle's own enumeration, not perm_table, so it shares no code
    # with the kernel it checks; q = 8 is 8! x 8 intp, 2.6 MB
    return np.array(list(itertools.permutations(range(q))), dtype=np.intp)


@lru_cache(maxsize=None)
def perm_table(q: int) -> np.ndarray:
    """All permutations of range(q) in lexicographic order, shape (q!, q)."""
    if q > MAX_TABLE_Q:
        raise ValueError(f"permutation table limited to Q <= {MAX_TABLE_Q}")
    return np.array(list(itertools.permutations(range(q))), dtype=np.intp)


def _rank_sorted(U: np.ndarray) -> bool:
    # Measured on 13k rows: the table is faster up to Q = 2, the sort from
    # Q = 3 on. The sort has no Q cap, so scalar configs of any Q run.
    return U.shape[2] == 1 and U.shape[1] >= 3


def _table_costs(U: np.ndarray, V: np.ndarray):
    P = perm_table(U.shape[1])
    d = U[:, None, :, :] - V[:, P, :]
    return P, np.einsum("mkqn,mkqn->mk", d, d)


def batch_match_cost2(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared matching distance for each row of two (M, Q, n) stacks."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape[1] == 1:
        d = U - V
    elif _rank_sorted(U):
        d = np.sort(U, axis=1) - np.sort(V, axis=1)
    else:
        return _table_costs(U, V)[1].min(axis=1)
    return np.einsum("mqn,mqn->m", d, d)


def batch_match_values(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rearrange each row of V by its optimal matching against U.

    U, V: (M, Q, n). Returns W with W[m, i] the sheet of V[m] matched to
    sheet i of U[m]. Scalar sheets with Q >= 3 are matched by rank: the
    k-th smallest sheet of V goes to the sheet of U with rank k, and ties
    in U resolve by stable argsort order. Otherwise every permutation is
    tried and ties resolve to the lexicographically first one, so at
    Q = 2 a tie in U keeps V's storage order. Either way the matched
    multiset and the cost are the same, and the result is deterministic.
    Collapsed scalar solves skip this kernel: they store every row in rank
    order and so break ties by rank at every Q (see the solver module).
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape[1] == 1:
        return V
    if _rank_sorted(U):
        W = np.empty_like(V)
        np.put_along_axis(W, np.argsort(U, axis=1, kind="stable"),
                          np.sort(V, axis=1), axis=1)
        return W
    P, costs = _table_costs(U, V)
    k = costs.argmin(axis=1)
    m_idx = np.arange(U.shape[0])[:, None]
    return V[m_idx, P[k]]
