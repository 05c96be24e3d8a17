"""Dirichlet-energy minimization for multivalued maps on the split half-disk.

A map assigns Q unordered scalar sheets to every node of the upper side
and Q-1 to every node of the lower side. The interface row carries a
single-valued trace phi, and every sheet of both sides is pinned to phi
there: the collapsed boundary picture, the only one minimize solves.

The energy is the sum over grid edges of the squared matching distance
between endpoint values. Minimization runs matched-mean Gauss-Seidel
sweeps in checkerboard order: each free node is set to the average of its
four neighbor values after optimally matching each neighbor's sheets to
the node's current sheets. Every sweep weakly decreases the energy, which
is asserted.

The harmonic start is exactly the minimizer. For scalar sheets the
matching distance is the distance between sorted tuples, so no map has
less energy than the sum of its rank functions' energies. The harmonic
start extends each rank of the rank-sorted boundary data on its own; the
discrete maximum principle keeps those extensions ordered, so the
sorted-to-sorted matching is optimal on every edge and the start attains
that bound. The sweeps then run as usual and certify it, stopping after
one.

A side's pinned rows are ~side.free: its boundary and shared rows,
which hold the data. The start costs one sparse factorization per grid.
Each side's free nodes carry the 5-point Laplacian, which is symmetric
positive definite, so it is factored as such (symmetric fill-reducing
order, diagonal pivots, a narrow SuperLU panel) and all ranks of a side
are columns of one solve, written in place into one channel matrix.
When the reflection j -> -j carries the minus side's system onto the
plus side's (the straight interface), the minus ranks are further
columns of the plus solve; otherwise (a curved interface) the minus
side is factored on its own.

Every start, from any init, hands back the map with each row of sheet
values in rank order, and the sweeps keep it so. Sorted goes to sorted
under the optimal matching, so the matching step is the identity and a
sweep takes the plain mean of the four neighbor rows. Both sides live
in one flat buffer ordered by color: the free rows of color 0 of both
sides, those of color 1, then the pinned rows. A color half-sweep reads
its rows as one slice, forms their neighbor means with one precomputed
sparse product, writes the slice back and re-sorts the few rows that
over-relaxation pushed out of order; the energy is one sparse incidence
product over both sides. A tie between sheets of a node is thus broken
by rank at every Q, which makes the sweeps independent of storage
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import HalfDomain, SideGraph
from .data_maps import DataSpec
from .qpoint import batch_match_cost2, batch_match_values

# A solve has converged once no node moves by UPDATE_STOP or more in a
# sweep; it stops unconverged after MAX_SWEEPS sweeps.
UPDATE_STOP = 1e-12
MAX_SWEEPS = 50000


# First positive zero of the Bessel function J_1.
J11 = 3.8317059702075125


def suggested_omega(dom: HalfDomain) -> float:
    """Young's optimal red-black SOR factor for the half-disk grid.

    The checkerboard step with omega in (0, 2) moves each node toward its
    matched neighbor mean past the midpoint; since same-color nodes share
    no edge, each step still strictly decreases the energy with the
    current matchings, and re-matching only lowers it further.

    Each side of every solve is a half-disk of radius R with Dirichlet data
    on the arc and on the pinned interface. Its lowest Laplace eigenvalue
    is lambda_1 = j11^2 / R^2, with mode J_1(j11 r / R) sin(theta), where
    j11 is the first zero of J_1. The 5-point Jacobi iteration on spacing
    h then has spectral radius rho_J ~ 1 - lambda_1 h^2 / 4, and Young's
    optimum omega = 2 / (1 + sqrt(1 - rho_J^2)) is, to first order in h,
    2 / (1 + (j11 / sqrt 2) h / R).
    """
    s = J11 / 2.0**0.5 * dom.h / dom.R
    return 2.0 / (1.0 + s)


@dataclass
class SolveInfo:
    converged: bool
    sweeps: int
    energy: float
    max_update: float
    stop_reason: str
    energy_trace: list = field(default_factory=list)


@dataclass
class GridField:
    """Values attached to one side graph; sheets axis may have length 0."""

    domain: HalfDomain
    side: SideGraph
    values: np.ndarray  # (Ns, q, n)

    def fields(self):
        return [self]


@dataclass
class QHalfMap:
    domain: HalfDomain
    Q: int
    n: int
    plus: np.ndarray    # (N_plus, Q, n)
    minus: np.ndarray   # (N_minus, Q-1, n)
    phi: np.ndarray     # (N_interface, n), ordered like domain.interface_ids

    def fields(self):
        out = [GridField(self.domain, self.domain.plus, self.plus)]
        if self.Q > 1:
            out.append(GridField(self.domain, self.domain.minus, self.minus))
        return out

    def copy(self) -> "QHalfMap":
        return QHalfMap(self.domain, self.Q, self.n, self.plus.copy(),
                        self.minus.copy(), self.phi.copy())


def edge_energy(values: np.ndarray, edges: np.ndarray) -> float:
    """Sum over edges of the squared matching distance between endpoints."""
    if values.shape[1] == 0 or edges.shape[0] == 0:
        return 0.0
    c2 = batch_match_cost2(values[edges[:, 0]], values[edges[:, 1]])
    return float(c2.sum())


# The SuperLU options of every harmonic solve (see _solve_harmonic).
SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    panel_size=2, relax=2, options={"SymmetricMode": True})


def _solve_harmonic(side: SideGraph, pinned: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Solve the 5-point Laplace system channel-wise with Dirichlet data.

    values: (Ns, C) with pinned rows already filled. Its free rows are
    overwritten with the discrete harmonic extension, and values is
    returned. The matrix is symmetric positive definite, so it is
    factored once as such (symmetric ordering, diagonal pivots) and every
    channel is one column of a single solve. The right-hand side is built
    after factoring and the matrix freed before the solve, so neither
    sits under the factorization's memory peak.

    The SuperLU panel is narrow (scipy's default is panel_size 20, relax
    10): its dense work arrays grow with the panel width times the matrix
    order, and the fill does not depend on it. On the plus-side matrices
    of the h = 1/32, 1/64, 1/128 ladder (n = 25,227 and fill 1,096,044 at
    1/128) the factorizations' RSS growth in a fresh process fell from
    15.0 to 8.0 MB, and the 1/128 factor CPU from 79 to 61 ms (median of
    12 alternating runs; 2 shared Xeon vCPUs, scipy 1.17.1). The
    solutions moved by at most 2.1e-13, with residuals at most 1.1e-13.
    """
    free_idx = np.nonzero(~pinned)[0]
    m = free_idx.size
    if m == 0:
        return values
    nb = side.nb[free_idx]                # (m, 4)
    if (nb < 0).any():
        raise RuntimeError("free node with missing neighbor")

    # Row i holds 4 at column i and -1 at each free neighbor's; a pinned
    # neighbor's column becomes m, which sorts last and is dropped. The
    # matrix is symmetric, so its sorted CSR rows are its CSC columns.
    own = np.arange(m, dtype=np.int32)
    pos = np.full(side.n_nodes, m, dtype=np.int32)
    pos[free_idx] = own
    cols = np.column_stack((own, pos[nb]))
    del pos
    cols.sort(axis=1)
    keep = cols < m
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    A = sp.csc_matrix((np.where(cols == own[:, None], 4.0, -1.0)[keep],
                       cols[keep], indptr), shape=(m, m))
    del own, cols, keep
    lu = spla.splu(A, **SPLU_OPTIONS)
    del A

    rhs = np.zeros((m, values.shape[1]))
    for k in range(4):
        rhs += np.where(pinned[nb[:, k], None], values[nb[:, k]], 0.0)
    values[free_idx] = lu.solve(rhs)
    return values


def harmonic_reference(dom: HalfDomain, side_name: str,
                       boundary_fn, interface_fn) -> np.ndarray:
    """Direct sparse 5-point solve on one side with Dirichlet data.

    boundary_fn and interface_fn map (M, 2) points to (M, n) values.
    Returns (Ns, n) nodal values including the pinned rows.
    """
    side = getattr(dom, side_name)
    probe = np.atleast_2d(boundary_fn(side.xy[:1]))
    n = probe.shape[1]
    vals = np.zeros((side.n_nodes, n))
    for rows, fn in ((side.boundary, boundary_fn), (side.shared, interface_fn)):
        if rows.any():
            vals[rows] = np.atleast_2d(fn(side.xy[rows]))
    return _solve_harmonic(side, ~side.free, vals)


def sample_map(dom: HalfDomain, data: DataSpec) -> QHalfMap:
    """Evaluate a closed-form DataSpec at every node of both sides, with
    every sheet of the interface rows pinned to phi."""
    Q, n = data.Q, data.n
    plus = np.asarray(data.plus(dom.plus.xy), dtype=float)
    minus = (np.asarray(data.minus(dom.minus.xy), dtype=float)
             if Q > 1 else np.zeros((dom.minus.n_nodes, 0, n)))
    if_ids = dom.interface_ids
    phi = np.asarray(data.phi(dom.xy[if_ids]), dtype=float)
    plus[dom.plus.loc[if_ids]] = phi[:, None, :]
    if Q > 1:
        minus[dom.minus.loc[if_ids]] = phi[:, None, :]
    return QHalfMap(dom, Q, n, plus, minus, phi)


def _color_rows(side: SideGraph, c: int) -> np.ndarray:
    """Interior free nodes of one color, full stencils only."""
    idx = np.nonzero(side.free & (side.color == c))[0]
    if idx.size and (side.nb[idx] < 0).any():
        raise RuntimeError("interior node missing a neighbor")
    return idx


class _RankedState:
    """Both sides of a solve in one color-blocked buffer.

    Every row is kept in rank order, so the matched neighbor mean is the
    plain mean (module docstring). buf holds one float per sheet value:
    the color-0 free rows of plus then minus, the color-1 free rows of
    plus then minus, then the pinned rows of each side (~side.free).
    Color c's rows are the slice bounds[c]; nb_sum[c] carries
    1.0 at their four neighbor entries in stencil order (never
    canonicalised, so each sum adds neighbors in the order of the
    matched mean, one neighbor at a time).
    The energy is incidence @ buf, one +1/-1 row per edge and sheet, plus
    edges first; each side's squares are summed on their own and the two
    sums added plus then minus.
    """

    def __init__(self, sides, values, omega: float):
        self.values = values              # per side (Ns, q, 1), rank sorted
        self.omega = omega
        widths = [V.shape[1] for V in values]
        used = [s for s in range(len(sides)) if widths[s]]
        parts = {s: [_color_rows(sides[s], c) for c in (0, 1)]
                 + [np.nonzero(~sides[s].free)[0]] for s in used}
        self.blocks = [(s, parts[s][part]) for part in range(3) for s in used]
        ends = np.cumsum([widths[s] * rows.size for s, rows in self.blocks])
        self.starts = np.concatenate(([0], ends))
        # Positions in the index type of the sparse products, so no copy.
        index = np.int32 if ends[-1] < 2**31 else np.int64
        pos = [np.empty(side.n_nodes, dtype=index) for side in sides]
        self.buf = np.empty(self.starts[-1])
        for (s, rows), lo, hi in zip(self.blocks, self.starts, ends):
            pos[s][rows] = lo + widths[s] * np.arange(rows.size)
            self.buf[lo:hi] = values[s][rows].ravel()

        def entries(s, nodes):
            # Rows (node, sheet) of buffer entries, one column per nodes
            # column: node rows tiled per sheet, plus the sheet offsets.
            base = pos[s][nodes]
            k = base.shape[1]
            out = np.tile(base, (1, widths[s]))
            out += np.repeat(np.arange(widths[s], dtype=index), k)
            return out.reshape(-1, k)

        n = len(used)
        self.bounds, self.nb_sum, self.sort_blocks = [], [], []
        for c in (0, 1):
            part = self.blocks[c * n:(c + 1) * n]
            at = self.starts[c * n:(c + 1) * n + 1]
            self.bounds.append((at[0], at[-1]))
            cols = [entries(s, sides[s].nb[rows]) for s, rows in part]
            self.nb_sum.append(_row_matrix(np.concatenate(cols), np.ones(4),
                                           self.buf.size))
            # Rows a sweep can swap: each side block with two or more sheets.
            self.sort_blocks.append(
                [(lo - at[0], hi - at[0], widths[s])
                 for (s, _), lo, hi in zip(part, at, at[1:]) if widths[s] >= 2])
        cols = [entries(s, sides[s].edges) for s in used]
        at = np.cumsum([0] + [c.shape[0] for c in cols])
        self.edge_split = [(lo, hi, widths[s])
                           for s, lo, hi in zip(used, at, at[1:])]
        self.incidence = _row_matrix(np.concatenate(cols),
                                     np.array([1.0, -1.0]), self.buf.size)

    def sweep_color(self, c: int) -> float:
        lo, hi = self.bounds[c]
        if hi == lo:
            return 0.0
        U = self.buf[lo:hi]
        target = (self.nb_sum[c] @ self.buf) / 4.0
        new = U + self.omega * (target - U)
        delta = float(np.max(np.abs(new - U)))
        # omega > 1 can swap neighboring ranks; re-sort those rows only.
        for a, b, q in self.sort_blocks[c]:
            block = new[a:b].reshape(-1, q)
            swapped = (block[:, 1:] < block[:, :-1]).any(axis=1)
            if swapped.any():
                block[swapped] = np.sort(block[swapped], axis=1)
        self.buf[lo:hi] = new
        return delta

    def energy(self) -> float:
        d = self.incidence @ self.buf
        total = 0.0
        for lo, hi, q in self.edge_split:
            e = d[lo:hi].reshape(-1, q)
            total += float(np.einsum("mq,mq->m", e, e).sum())
        return total

    def unpack(self):
        """Write the buffer back into the per-side value arrays."""
        for (s, rows), lo, hi in zip(self.blocks, self.starts, self.starts[1:]):
            V = self.values[s]
            V[rows] = self.buf[lo:hi].reshape(rows.size, V.shape[1], 1)
        return self.values


def _row_matrix(cols: np.ndarray, weights: np.ndarray, n_cols: int):
    """CSR matrix whose row i carries weights at cols[i], in that order."""
    rows, k = cols.shape
    return sp.csr_matrix((np.tile(weights, rows), cols.ravel(),
                          np.arange(0, rows * k + 1, k, dtype=cols.dtype)),
                         shape=(rows, n_cols))


def _mirror_onto_plus(dom: HalfDomain) -> Optional[np.ndarray]:
    """Plus-side index of each minus node's mirror (i, -j), or None.

    Read off the grid: the reflection j -> -j must carry the minus side
    one to one onto the plus side, keep every node's pinned status, and
    send each neighbor table onto the mirror's once north and south
    swap. Then the minus 5-point system is the plus one with its rows
    renumbered, and one factorization serves both sides. A curved
    interface whose snapped rows are not all j = 0 fails the test.
    """
    plus, minus = dom.plus, dom.minus
    if minus.n_nodes != plus.n_nodes:
        return None
    ij = dom.ij[minus.ids]
    image = dom.node_at(ij[:, 0], -ij[:, 1])
    if (image < 0).any() or (plus.loc[image] < 0).any():
        return None
    mirror = plus.loc[image]
    if not np.array_equal(minus.free, plus.free[mirror]):
        return None
    nb = minus.nb[:, [0, 1, 3, 2]]          # E, W, S, N
    if not np.array_equal(np.where(nb >= 0, mirror[nb], -1), plus.nb[mirror]):
        return None
    return mirror


def _initial_values(dom: HalfDomain, data: DataSpec, init: str) -> QHalfMap:
    """The start of a solve, every row of sheet values in rank order."""
    Q, n = data.Q, data.n
    if_ids = dom.interface_ids
    phi = np.atleast_2d(np.asarray(data.phi(dom.xy[if_ids]), dtype=float))

    def seed_side(side: SideGraph, q, gen, vals=None):
        if vals is None:
            vals = np.zeros((side.n_nodes, q, n))
        if q > 0:
            bmask = side.boundary
            vals[bmask] = np.asarray(gen(side.xy[bmask]), dtype=float)
            vals[side.loc[if_ids]] = phi[:, None, :]
        return vals

    if init == "harmonic":
        # Harmonic extension per rank: the exact minimizer (module doc).
        # One channel matrix holds the plus ranks and, when the sides
        # mirror, the minus ranks as further columns, each row placed at
        # its mirror node; the solve overwrites its free rows in place.
        mirror = _mirror_onto_plus(dom) if Q > 1 else None
        k = Q * n
        chans = np.zeros((dom.plus.n_nodes,
                          k if mirror is None else (2 * Q - 1) * n))
        Vp = seed_side(dom.plus, Q, data.plus,
                       chans[:, :k].reshape(dom.plus.n_nodes, Q, n))
        Vm = seed_side(dom.minus, Q - 1, data.minus)
        Vp.sort(axis=1)
        Vm.sort(axis=1)
        if mirror is not None:
            chans[mirror, k:] = Vm.reshape(dom.minus.n_nodes, -1)
        _solve_harmonic(dom.plus, ~dom.plus.free, chans)
        if mirror is not None:
            Vm = chans[mirror, k:].reshape(Vm.shape)
        elif Q > 1:
            _solve_harmonic(dom.minus, ~dom.minus.free,
                            Vm.reshape(dom.minus.n_nodes, -1))
    elif init == "mean":
        Vp = seed_side(dom.plus, Q, data.plus)
        Vm = seed_side(dom.minus, Q - 1, data.minus)
        for V, side in ((Vp, dom.plus), (Vm, dom.minus)):
            if V.shape[1]:
                V[side.free] = V[~side.free].mean(axis=(0, 1))
    else:
        raise ValueError(f"unknown init {init!r}")
    # Every row in rank order makes every optimal matching in the sweeps
    # the identity (module docstring).
    Vp.sort(axis=1)
    Vm.sort(axis=1)
    return QHalfMap(dom, Q, n, Vp, Vm, phi)


def minimize(dom: HalfDomain, data: DataSpec, *, init: str = "harmonic"):
    """Run matched-mean sweeps on scalar sheets to the energy minimum.

    Returns (QHalfMap, SolveInfo). Every solve is collapsed (all sheets
    pinned to phi on the interface) and scalar; data with n != 1 raises
    ValueError before any work. init is "harmonic" or "mean"; the sweeps
    over-relax by suggested_omega(dom) and stop once no node moves by
    UPDATE_STOP or more, or after MAX_SWEEPS. Energy decrease is asserted
    after every sweep; a violation raises RuntimeError since the update
    rule guarantees weak descent. With init "harmonic" the start is the
    rank-wise harmonic extension, already the global minimizer (see the
    module docstring); the first sweep moves no node beyond rounding and
    certifies it against the stop rule. Both sides sweep in one
    color-blocked _RankedState, and every returned row of sheet values is
    in rank order, whatever the storage order of the boundary data.
    """
    if data.n != 1:
        raise ValueError(f"minimize solves scalar sheets (n = 1), "
                         f"not n = {data.n}")
    u = _initial_values(dom, data, init)
    state = _RankedState((dom.plus, dom.minus), (u.plus, u.minus),
                         suggested_omega(dom))

    e_prev = state.energy()
    trace = [e_prev]
    converged = False
    sweeps = 0
    max_update = np.inf

    for sweep in range(1, MAX_SWEEPS + 1):
        max_update = max(state.sweep_color(0), state.sweep_color(1))
        e_new = state.energy()
        if e_new > e_prev * (1 + 1e-10) + 1e-12:
            raise RuntimeError(
                f"energy increased on sweep {sweep}: {e_prev} -> {e_new}")
        e_prev = e_new
        sweeps = sweep
        trace.append(e_new)
        if max_update < UPDATE_STOP:
            converged = True
            break

    state.unpack()
    info = SolveInfo(converged=converged, sweeps=sweeps, energy=e_prev,
                     max_update=max_update,
                     stop_reason="update_stop" if converged else "max_sweeps",
                     energy_trace=trace)
    return u, info


@dataclass
class CollapseReport:
    sheet_spread: float
    harmonic_defect: float
    odd_defect: Optional[float]


def collapse_decompose(u: QHalfMap, info: SolveInfo) -> CollapseReport:
    """Decompose a converged collapsed solve into mean field and spread.

    The glued mean field takes the sheet mean of the upper value on upper
    carriers, of the lower value on lower carriers, and phi on the
    interface. sheet_spread is the largest matching distance between a
    nodal value and all sheets sitting at its mean. harmonic_defect is
    the largest 5-point residual |sum(neighbors) - 4 v| of the glued
    mean over nodes with full stencils, including interface nodes whose
    stencil spans both sides; unit edge weights, the same convention as
    edge_energy, so a derivative kink across the interface shows
    up at scale h rather than 1/h. odd_defect (straight interface only)
    is the largest |m(x, y) + m(x, -y)| over mirror node pairs.
    """
    if not info.converged:
        raise ValueError("refusing to decompose a non-converged solve")
    dom = u.domain
    mean = np.zeros((dom.xy.shape[0], u.n))
    spread = 0.0
    for side, V in ((dom.plus, u.plus), (dom.minus, u.minus)):
        if V.shape[1] == 0:
            continue
        m = V.mean(axis=1)
        mean[side.ids] = m
        d = V - m[:, None, :]
        spread = max(spread, float(np.sqrt(np.einsum("mqn,mqn->m", d, d).max())))
    mean[dom.interface_ids] = u.phi

    full = (dom.nb >= 0).all(axis=1)
    idx = np.nonzero(full)[0]
    res = 0.0
    if idx.size:
        nb_vals = mean[dom.nb[idx]]          # (M, 4, n)
        r = nb_vals.sum(axis=1) - 4.0 * mean[idx]
        res = float(np.abs(r).max())

    odd = None
    if dom.interface.kind == "straight":
        upper = np.nonzero(dom.ij[:, 1] > 0)[0]
        mirror = dom.node_at(dom.ij[upper, 0], -dom.ij[upper, 1])
        ok = mirror >= 0
        pair_sum = mean[upper[ok]] + mean[mirror[ok]]
        odd = float(np.abs(pair_sum).max()) if pair_sum.size else 0.0

    return CollapseReport(sheet_spread=spread, harmonic_defect=res,
                          odd_defect=odd)


@dataclass
class InterpolationReport:
    band_energy: float
    collar_energy_f: float
    collar_energy_g: float
    collar_distance_sq: float
    fitted_constant: float


def check_band(lam: float, h: float):
    """Raise ValueError unless a blend band of width lam spans at least
    two node layers of spacing h."""
    if lam < 2 * h:
        raise ValueError(f"band width {lam} needs at least two node layers "
                         f"(h={h})")


def interpolate_annulus(f: QHalfMap, g: QHalfMap, lam: float):
    """Blend g into f across the outer band of width lam.

    The result equals f on the outermost node ring and g on and inside
    the inner edge of the band; in between it follows the constant-speed
    matching path between g and f. Both maps must share domain, sheet
    count, and interface trace, with every sheet pinned to it as every
    producer pins them; interface rows keep g's, so they stay at phi
    bit for bit. Returns (blended QHalfMap,
    InterpolationReport); the report compares the band energy of the
    blend against the collar energies of f and g plus the collar squared
    distance divided by lam^2, with collar width 2 * lam.
    """
    dom = f.domain
    if g.domain is not dom:
        raise ValueError("maps live on different domains")
    if f.Q != g.Q or f.n != g.n:
        raise ValueError("sheet count or target dimension mismatch")
    if not np.allclose(f.phi, g.phi, rtol=0.0, atol=1e-12):
        raise ValueError("interface traces differ; cannot blend")
    check_band(lam, dom.h)
    band_rmin, collar_rmin = dom.R - lam, dom.R - 2 * lam
    h2 = dom.h**2
    out = g.copy()
    band_e = ef = eg = dist2 = 0.0
    counted = np.zeros(dom.xy.shape[0], dtype=bool)
    # One pass per side: each sum adds its plus term, then its minus term.
    for side, Vf, Vg, Vo in ((dom.plus, f.plus, g.plus, out.plus),
                             (dom.minus, f.minus, g.minus, out.minus)):
        if Vf.shape[1] == 0:
            continue
        r = np.hypot(side.xy[:, 0], side.xy[:, 1])
        s = np.clip((r - band_rmin) / lam, 0.0, 1.0)
        sel = np.nonzero((s > 0) & ~side.shared)[0]
        if sel.size:
            matched = batch_match_values(Vg[sel], Vf[sel])
            t = s[sel][:, None, None]
            Vo[sel] = (1.0 - t) * Vg[sel] + t * matched
        e = side.edges
        band = r >= band_rmin - 1e-12
        band_e += edge_energy(Vo, e[band[e[:, 0]] & band[e[:, 1]]])
        collar = r >= collar_rmin - 1e-12
        in_collar = e[collar[e[:, 0]] & collar[e[:, 1]]]
        ef += edge_energy(Vf, in_collar)
        eg += edge_energy(Vg, in_collar)
        sel = np.nonzero(collar & ~counted[side.ids])[0]
        if sel.size:
            dist2 += float(batch_match_cost2(Vf[sel], Vg[sel]).sum()) * h2
            counted[side.ids[sel]] = True

    rhs = lam * (ef + eg) + dist2 / lam
    fitted = band_e / rhs if rhs > 0 else 0.0
    report = InterpolationReport(band_energy=band_e, collar_energy_f=ef,
                                 collar_energy_g=eg, collar_distance_sq=dist2,
                                 fitted_constant=fitted)
    return out, report
