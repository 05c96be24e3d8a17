"""Unordered Q-tuples of vectors and the optimal-matching metric.

A Q-point is a multiset of Q values in R^n. The distance between two
Q-points is the smallest root-sum-square pairing cost over all ways of
matching the sheets of one onto the sheets of the other.

One matching rule serves every caller, in batch_match_rows (values) and
batch_match_cost2 (costs). Scalar sheets (n = 1) match by rank at every
Q, since 1-D optimal transport is the monotone rearrangement: the k-th
smallest sheet of V goes to the sheet of U with rank k, and tied sheets
of U take their ranks in storage order, so rank-sorted rows break a tie
by rank, as the solver's sweeps do. Vector sheets try every permutation
of perm_table, so Q <= MAX_TABLE_Q, and a tie goes to the
lexicographically first. Either way the matched multiset and the cost
are the same, and the result is deterministic. The Q! enumeration in
g_distance_bruteforce is the oracle the kernel is tested against.
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


def _table_costs(U: np.ndarray, VP: np.ndarray) -> np.ndarray:
    # VP = V[:, perm_table(Q)]: row m, permutation k of V's sheets
    d = U[:, None, :, :] - VP
    return np.einsum("mkqn,mkqn->mk", d, d)


def batch_match_cost2(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared matching distance for each row of two (M, Q, n) stacks."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape[2] > 1:
        return _table_costs(U, V[:, perm_table(U.shape[1])]).min(axis=1)
    d = np.sort(U, axis=1) - np.sort(V, axis=1)
    return np.einsum("mqn,mqn->m", d, d)


def batch_match_values(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Each row of V rearranged by its optimal matching against U's row."""
    return batch_match_rows(U, V, [np.arange(len(V))])[0]


def batch_match_rows(U: np.ndarray, V: np.ndarray, cols) -> list:
    """For each index array j in cols, V[j] rearranged by its optimal
    matching against U: W[m, i] is the sheet of V[j[m]] matched to sheet
    i of U[m]. The rank of every sheet of U, or every permutation of V's
    sheets, is computed once for all columns."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    M, q, n = U.shape
    if n > 1:
        VP = V[:, perm_table(q)]
        out = []
        for j in cols:
            VPj = VP[j]
            out.append(VPj[np.arange(M), _table_costs(U, VPj).argmin(axis=1)])
        return out
    rank = np.empty((M, q), dtype=np.intp)
    np.put_along_axis(rank, np.argsort(U[:, :, 0], axis=1, kind="stable"),
                      np.arange(q), axis=1)
    ranked = np.sort(V, axis=1)
    return [ranked[j[:, None], rank] for j in cols]
