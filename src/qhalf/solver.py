"""Dirichlet-energy minimization for multivalued maps on the split half-disk.

A map assigns Q unordered sheets to every node of the upper side and Q-1
sheets to every node of the lower side. The interface row carries a
single-valued trace phi; the upper trace is required to contain phi as a
sheet. In collapsed mode all upper sheets on the interface are pinned to
phi (and all lower sheets too); in free mode the remaining Q-1 interface
sheets are unknowns shared by both sides.

The energy is the sum over grid edges of the squared matching distance
between endpoint values. Minimization runs matched-mean Gauss-Seidel
sweeps in checkerboard order: each free node is set to the average of its
four neighbor values after optimally matching each neighbor's sheets to
the node's current sheets. Every sweep weakly decreases the energy, which
is asserted.

Collapsed scalar solves (n = 1, interface pinned to phi) start exactly at
the minimizer. For scalar sheets the matching distance is the distance
between sorted tuples, so no map has less energy than the sum of its rank
functions' energies. The harmonic start extends each rank of the
rank-sorted boundary data on its own; the discrete maximum principle
keeps those extensions ordered, so the sorted-to-sorted matching is
optimal on every edge and the start attains that bound. The sweeps then
run as usual and certify it, stopping after one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import (
    BOUNDARY_MINUS,
    BOUNDARY_PLUS,
    HalfDomain,
    INTERFACE,
    SideGraph,
)
from .data_maps import DataSpec
from .qpoint import batch_match_cost2, batch_match_values


@dataclass
class SolverConfig:
    max_sweeps: int = 50000
    eps_stop: float = 1e-12        # stop when energy decrease < eps_stop * E0
    update_stop: float = 0.0       # if > 0, stop on max nodal update instead
    collapsed: bool = True
    init: str = "harmonic"         # harmonic | mean | collapsed
    omega: float = 1.0             # over-relaxation, descent holds on (0, 2)


def suggested_omega(dom: HalfDomain) -> float:
    """Near-optimal over-relaxation factor for the half-disk grid.

    The checkerboard step with omega in (0, 2) moves each node toward its
    matched neighbor mean past the midpoint; since same-color nodes share
    no edge, each step still strictly decreases the energy with the
    current matchings, and re-matching only lowers it further. The value
    below tunes omega to the slowest Laplace mode of the half-disk.
    """
    s = 3.9 * dom.h / dom.R
    return 2.0 / (1.0 + s)


@dataclass
class SolveInfo:
    converged: bool
    sweeps: int
    energy: float
    initial_energy: float
    last_decrease: float
    max_update: float
    stop_reason: str
    init: str
    collapsed: bool
    energy_trace: list = field(default_factory=list)


@dataclass
class GridField:
    """Values attached to one side graph; sheets axis may have length 0."""

    domain: HalfDomain
    side: SideGraph
    values: np.ndarray  # (Ns, q, n)

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[2]


@dataclass
class QHalfMap:
    domain: HalfDomain
    Q: int
    n: int
    plus: np.ndarray    # (N_plus, Q, n), interface rows end with the phi slot
    minus: np.ndarray   # (N_minus, Q-1, n)
    phi: np.ndarray     # (N_interface, n), ordered like domain interface ids
    collapsed: bool

    def fields(self):
        out = [GridField(self.domain, self.domain.plus, self.plus)]
        if self.Q > 1:
            out.append(GridField(self.domain, self.domain.minus, self.minus))
        return out

    def interface_ids(self):
        return np.nonzero(self.domain.tag == INTERFACE)[0]

    def copy(self) -> "QHalfMap":
        return QHalfMap(self.domain, self.Q, self.n, self.plus.copy(),
                        self.minus.copy(), self.phi.copy(), self.collapsed)


def edge_energy(values: np.ndarray, edges: np.ndarray) -> float:
    """Sum over edges of the squared matching distance between endpoints."""
    if values.shape[1] == 0 or edges.shape[0] == 0:
        return 0.0
    c2 = batch_match_cost2(values[edges[:, 0]], values[edges[:, 1]])
    return float(c2.sum())


def dirichlet_energy(u) -> float:
    """Total grid Dirichlet energy of a QHalfMap or a single GridField.

    With unit edge weights this approximates the integral of |Du|^2 in
    two dimensions (the h^2 area factor cancels against 1/h^2 from the
    difference quotients).
    """
    if isinstance(u, GridField):
        return edge_energy(u.values, u.side.edges)
    total = edge_energy(u.plus, u.domain.plus.edges)
    if u.Q > 1:
        total += edge_energy(u.minus, u.domain.minus.edges)
    return total


def _pinned_mask(side: SideGraph, collapsed: bool) -> np.ndarray:
    pinned = (side.tag == BOUNDARY_PLUS) | (side.tag == BOUNDARY_MINUS)
    if collapsed:
        pinned |= side.tag == INTERFACE
    return pinned


def _solve_harmonic(side: SideGraph, pinned: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Solve the 5-point Laplace system channel-wise with Dirichlet data.

    values: (Ns, C) with pinned rows already filled. Returns (Ns, C) with
    free rows replaced by the discrete harmonic extension.
    """
    free_idx = np.nonzero(~pinned)[0]
    m = free_idx.size
    if m == 0:
        return values
    nb = side.nb[free_idx]                # (m, 4)
    if (nb < 0).any():
        raise RuntimeError("free node with missing neighbor")
    pos = -np.ones(side.n_nodes, dtype=np.int64)
    pos[free_idx] = np.arange(m)
    nb_pinned = pinned[nb]

    rhs = np.zeros((m, values.shape[1]))
    for k in range(4):
        rhs += np.where(nb_pinned[:, k, None], values[nb[:, k]], 0.0)
    # Per free row: the diagonal, then its free neighbors in stencil order.
    cols = np.column_stack((np.arange(m), pos[nb]))
    rows = np.broadcast_to(cols[:, :1], (m, 5))
    vals = np.full((m, 5), -1.0)
    vals[:, 0] = 4.0
    keep = np.column_stack((np.ones(m, dtype=bool), ~nb_pinned))
    A = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(m, m))
    solve = spla.factorized(A.tocsc())
    out = values.copy()
    sol = np.column_stack([solve(rhs[:, c]) for c in range(rhs.shape[1])])
    out[free_idx] = sol
    return out


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
    pinned = _pinned_mask(side, collapsed=True)
    bmask = (side.tag == BOUNDARY_PLUS) | (side.tag == BOUNDARY_MINUS)
    imask = side.tag == INTERFACE
    if bmask.any():
        vals[bmask] = np.atleast_2d(boundary_fn(side.xy[bmask]))
    if imask.any():
        vals[imask] = np.atleast_2d(interface_fn(side.xy[imask]))
    return _solve_harmonic(side, pinned, vals)


def sample_map(dom: HalfDomain, data: DataSpec, collapsed: bool = True) -> QHalfMap:
    """Evaluate a closed-form DataSpec at every node of both sides."""
    Q, n = data.Q, data.n
    plus = np.asarray(data.plus(dom.plus.xy), dtype=float)
    minus = (np.asarray(data.minus(dom.minus.xy), dtype=float)
             if Q > 1 else np.zeros((dom.minus.n_nodes, 0, n)))
    if_ids = np.nonzero(dom.tag == INTERFACE)[0]
    phi = np.asarray(data.phi(dom.xy[if_ids]), dtype=float)
    u = QHalfMap(dom, Q, n, plus, minus, phi, collapsed)
    if collapsed:
        _pin_interface_collapsed(u)
    return u


def _pin_interface_collapsed(u: QHalfMap):
    dom = u.domain
    if_ids = u.interface_ids()
    lp = dom.plus.loc[if_ids]
    u.plus[lp] = u.phi[:, None, :]
    if u.Q > 1:
        lm = dom.minus.loc[if_ids]
        u.minus[lm] = u.phi[:, None, :]


class _SideState:
    """Per-side sweep bookkeeping: free interior nodes split by color."""

    def __init__(self, side: SideGraph, values: np.ndarray, omega: float):
        self.side = side
        self.values = values
        self.omega = omega
        interior = side.free & ~(side.tag == INTERFACE)
        self.color_idx = []
        for c in (0, 1):
            idx = np.nonzero(interior & (side.color == c))[0]
            self.color_idx.append(idx)
            if idx.size and (side.nb[idx] < 0).any():
                raise RuntimeError("interior node missing a neighbor")

    def sweep_color(self, c: int) -> float:
        idx = self.color_idx[c]
        V = self.values
        if idx.size == 0 or V.shape[1] == 0:
            return 0.0
        U = V[idx]
        W = V[self.side.nb[idx]]          # (M, 4, q, n)
        if V.shape[1] == 1:
            target = W.mean(axis=1)
        else:
            acc = np.zeros_like(U)
            for k in range(4):
                acc += batch_match_values(U, W[:, k])
            target = acc / 4.0
        new = U + self.omega * (target - U)
        delta = float(np.max(np.abs(new - U)))
        V[idx] = new
        return delta


class _InterfaceState:
    """Free-interface updates: the shared z-sheets on interface nodes.

    On the plus side the interface value is [z_1..z_{Q-1}, phi] with phi
    held fixed; on the minus side it is exactly z. Each update sets z to
    the mean of the matched sheets contributed by all non-interface
    neighbors on both sides (interface-interface edges carry no energy).
    """

    def __init__(self, dom: HalfDomain, Vp: np.ndarray, Vm: np.ndarray,
                 phi: np.ndarray, Q: int, omega: float):
        self.Q = Q
        self.omega = omega
        self.Vp, self.Vm, self.phi = Vp, Vm, phi
        if_ids = np.nonzero(dom.tag == INTERFACE)[0]
        self.lp = dom.plus.loc[if_ids]
        self.lm = dom.minus.loc[if_ids] if Q > 1 else None
        # Interface nodes at the rim lack a full stencil; they stay pinned.
        full = (dom.nb[if_ids] >= 0).all(axis=1)
        self.groups = []  # per color: (sel, plus_nb, plus_ok, minus_nb, minus_ok)
        for c in (0, 1):
            sel = np.nonzero((dom.plus.color[self.lp] == c) & full)[0]
            self.groups.append(self._neighbors(dom, sel))

    def _neighbors(self, dom, sel):
        def nb_of(side, loc):
            nb = side.nb[loc[sel]]                     # (M, 4) local ids
            ok = nb >= 0
            if ok.any():
                tags = np.where(ok, side.tag[np.maximum(nb, 0)], INTERFACE)
                ok &= tags != INTERFACE
            return nb, ok

        pnb, pok = nb_of(dom.plus, self.lp)
        if self.Q > 1:
            mnb, mok = nb_of(dom.minus, self.lm)
        else:
            mnb = mok = None
        return (sel, pnb, pok, mnb, mok)

    def sweep_color(self, c: int) -> float:
        if self.Q == 1:
            return 0.0  # no free sheets: interface is pinned to phi
        sel, pnb, pok, mnb, mok = self.groups[c]
        if sel.size == 0:
            return 0.0
        Q, n = self.Q, self.Vp.shape[2]
        lp_sel = self.lp[sel]
        lm_sel = self.lm[sel]
        Up = self.Vp[lp_sel]              # (M, Q, n), phi in the last slot
        Um = self.Vm[lm_sel]              # (M, Q-1, n)
        acc = np.zeros((sel.size, Q - 1, n))
        count = np.zeros(sel.size)
        for k in range(4):
            ok = pok[:, k]
            if ok.any():
                Wk = self.Vp[pnb[ok, k]]
                matched = batch_match_values(Up[ok], Wk)
                acc[ok] += matched[:, : Q - 1]
                count[ok] += 1.0
            ok = mok[:, k]
            if ok.any():
                Wk = self.Vm[mnb[ok, k]]
                acc[ok] += batch_match_values(Um[ok], Wk)
                count[ok] += 1.0
        if (count == 0).any():
            raise RuntimeError("interface node with no energy-carrying neighbor")
        target = acc / count[:, None, None]
        newz = Um + self.omega * (target - Um)
        delta = float(np.max(np.abs(newz - Um)))
        self.Vm[lm_sel] = newz
        self.Vp[lp_sel, : Q - 1] = newz
        return delta


def _initial_values(dom: HalfDomain, data: DataSpec, config: SolverConfig):
    Q, n = data.Q, data.n
    if_ids = np.nonzero(dom.tag == INTERFACE)[0]
    phi = np.atleast_2d(np.asarray(data.phi(dom.xy[if_ids]), dtype=float))

    def seed_side(side: SideGraph, q, gen):
        vals = np.zeros((side.n_nodes, q, n))
        bmask = (side.tag == BOUNDARY_PLUS) | (side.tag == BOUNDARY_MINUS)
        if bmask.any() and q > 0:
            vals[bmask] = np.asarray(gen(side.xy[bmask]), dtype=float)
        imask = side.tag == INTERFACE
        if imask.any() and q > 0:
            order = dom.plus.loc[if_ids] if side is dom.plus else dom.minus.loc[if_ids]
            per_node = np.zeros((side.n_nodes, n))
            per_node[order] = phi
            vals[imask] = per_node[imask][:, None, :]
        return vals, bmask, imask

    Vp, bp, ip = seed_side(dom.plus, Q, data.plus)
    Vm, bm, im = seed_side(dom.minus, Q - 1, data.minus)

    if config.init == "harmonic":
        if config.collapsed and n == 1:
            # Harmonic extension per rank: the exact minimizer (module doc).
            Vp, Vm = np.sort(Vp, axis=1), np.sort(Vm, axis=1)
        pinned_p = _pinned_mask(dom.plus, collapsed=True)
        Vp = _solve_harmonic(dom.plus, pinned_p,
                             Vp.reshape(dom.plus.n_nodes, -1)).reshape(Vp.shape)
        if Q > 1:
            pinned_m = _pinned_mask(dom.minus, collapsed=True)
            Vm = _solve_harmonic(dom.minus, pinned_m,
                                 Vm.reshape(dom.minus.n_nodes, -1)).reshape(Vm.shape)
    elif config.init == "mean":
        for V, b, i, side in ((Vp, bp, ip, dom.plus), (Vm, bm, im, dom.minus)):
            if V.shape[1] == 0:
                continue
            pinned = b | i
            const = V[pinned].mean(axis=(0, 1))
            V[~pinned] = const
    elif config.init == "collapsed":
        const = phi.mean(axis=0)
        for V, b, i in ((Vp, bp, ip), (Vm, bm, im)):
            if V.shape[1] == 0:
                continue
            V[~(b | i)] = const
    else:
        raise ValueError(f"unknown init {config.init!r}")
    return Vp, Vm, phi


def minimize(dom: HalfDomain, data: DataSpec,
             config: Optional[SolverConfig] = None):
    """Run matched-mean sweeps to a local energy minimum.

    Returns (QHalfMap, SolveInfo). Energy decrease is asserted after
    every sweep; a violation raises RuntimeError since the update rule
    guarantees weak descent. With init "harmonic", collapsed mode and
    scalar sheets the start is the rank-wise harmonic extension, already
    the global minimizer (see the module docstring); the first sweep
    moves no node beyond rounding and certifies it against the stop rule.
    """
    config = config or SolverConfig()
    if not 0.0 < config.omega < 2.0:
        raise ValueError("omega outside (0, 2) loses the descent guarantee")
    Q, n = data.Q, data.n
    Vp, Vm, phi = _initial_values(dom, data, config)

    state_p = _SideState(dom.plus, Vp, config.omega)
    state_m = _SideState(dom.minus, Vm, config.omega)
    iface = None
    if not config.collapsed:
        iface = _InterfaceState(dom, Vp, Vm, phi, Q, config.omega)

    def total_energy():
        return (edge_energy(Vp, dom.plus.edges)
                + edge_energy(Vm, dom.minus.edges))

    e0 = total_energy()
    e_prev = e0
    trace = [e0]
    converged = False
    reason = "max_sweeps"
    sweeps = 0
    decrease = 0.0
    max_update = np.inf

    for sweep in range(1, config.max_sweeps + 1):
        max_update = 0.0
        for c in (0, 1):
            max_update = max(max_update,
                             state_p.sweep_color(c), state_m.sweep_color(c))
            if iface is not None:
                max_update = max(max_update, iface.sweep_color(c))
        e_new = total_energy()
        if e_new > e_prev * (1 + 1e-10) + 1e-12:
            raise RuntimeError(
                f"energy increased on sweep {sweep}: {e_prev} -> {e_new}")
        decrease = e_prev - e_new
        e_prev = e_new
        sweeps = sweep
        trace.append(e_new)
        if config.update_stop > 0:
            if max_update < config.update_stop:
                converged, reason = True, "update_stop"
                break
        elif decrease < config.eps_stop * max(e0, 1e-300):
            converged, reason = True, "eps_stop"
            break

    u = QHalfMap(dom, Q, n, Vp, Vm, phi, config.collapsed)
    info = SolveInfo(converged=converged, sweeps=sweeps, energy=e_prev,
                     initial_energy=e0, last_decrease=decrease,
                     max_update=max_update, stop_reason=reason,
                     init=config.init, collapsed=config.collapsed,
                     energy_trace=trace)
    return u, info


def multistart_minimize(dom: HalfDomain, data: DataSpec,
                        config: Optional[SolverConfig] = None,
                        inits=("harmonic", "mean", "collapsed")):
    """Run minimize from several starts; report energy and value spread.

    Returns (best_map, best_info, report). The report's value_spread is
    the largest matching distance between any two resulting maps at any
    node, a uniqueness diagnostic for the reached minimum.
    """
    from dataclasses import replace

    config = config or SolverConfig()
    results = []
    for name in inits:
        u, info = minimize(dom, data, replace(config, init=name))
        results.append((name, u, info))
    energies = {name: info.energy for name, _, info in results}
    spread = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            a, b = results[i][1], results[j][1]
            c2 = batch_match_cost2(a.plus, b.plus)
            if a.Q > 1:
                c2m = batch_match_cost2(a.minus, b.minus)
                m = max(float(c2.max()), float(c2m.max()))
            else:
                m = float(c2.max())
            spread = max(spread, np.sqrt(m))
    best = min(results, key=lambda r: r[2].energy)
    report = {
        "energies": energies,
        "value_spread": spread,
        "all_converged": all(info.converged for _, _, info in results),
        "best_init": best[0],
    }
    return best[1], best[2], report


def check_collapsed(u: QHalfMap, tol: float = 1e-9):
    """Largest matching distance from the interface trace to Q copies of phi."""
    if_ids = u.interface_ids()
    lp = u.domain.plus.loc[if_ids]
    diff = u.plus[lp] - u.phi[:, None, :]
    per_node = np.sqrt(np.einsum("mqn,mqn->m", diff, diff))
    worst = float(per_node.max()) if per_node.size else 0.0
    return worst <= tol, worst


@dataclass
class CollapseReport:
    mean_field: np.ndarray      # (N_global, n) glued sheet means
    sheet_spread: float
    harmonic_defect: float
    odd_defect: Optional[float]
    spread_plus: float
    spread_minus: float


def collapse_decompose(u: QHalfMap, info: SolveInfo) -> CollapseReport:
    """Decompose a converged collapsed solve into mean field and spread.

    The glued mean field takes the sheet mean of the upper value on upper
    carriers, of the lower value on lower carriers, and phi on the
    interface. sheet_spread is the largest matching distance between a
    nodal value and all sheets sitting at its mean. harmonic_defect is
    the largest 5-point residual |sum(neighbors) - 4 v| of the glued
    mean over nodes with full stencils, including interface nodes whose
    stencil spans both sides; unit edge weights, the same convention as
    dirichlet_energy, so a derivative kink across the interface shows
    up at scale h rather than 1/h. odd_defect (straight interface only)
    is the largest |m(x, y) + m(x, -y)| over mirror node pairs.
    """
    if not u.collapsed:
        raise ValueError("collapse_decompose needs a collapsed-mode solve")
    if not info.converged:
        raise ValueError("refusing to decompose a non-converged solve")
    dom = u.domain
    n = u.n
    N = dom.xy.shape[0]
    mean = np.zeros((N, n))
    pm = u.plus.mean(axis=1) if u.Q > 0 else None
    mean[dom.plus.ids] = pm
    if u.Q > 1:
        mm = u.minus.mean(axis=1)
        mean[dom.minus.ids] = mm
    if_ids = u.interface_ids()
    mean[if_ids] = u.phi

    def spread_of(V, m_local):
        if V.shape[1] == 0:
            return 0.0
        d = V - m_local[:, None, :]
        return float(np.sqrt(np.einsum("mqn,mqn->m", d, d).max()))

    sp_p = spread_of(u.plus, u.plus.mean(axis=1))
    sp_m = spread_of(u.minus, u.minus.mean(axis=1)) if u.Q > 1 else 0.0

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

    return CollapseReport(mean_field=mean, sheet_spread=max(sp_p, sp_m),
                          harmonic_defect=res, odd_defect=odd,
                          spread_plus=sp_p, spread_minus=sp_m)


@dataclass
class InterpolationReport:
    band_energy: float
    collar_energy_f: float
    collar_energy_g: float
    collar_distance_sq: float
    lam: float
    fitted_constant: float
    band_nodes: int


def interpolate_annulus(f: QHalfMap, g: QHalfMap, lam: float):
    """Blend g into f across the outer band of width lam.

    The result equals f on the outermost node ring and g on and inside
    the inner edge of the band; in between it follows the constant-speed
    matching path between g and f. Both maps must share domain, sheet
    count, and interface trace. Returns (blended QHalfMap,
    InterpolationReport); the report compares the band energy of the
    blend against the collar energies of f and g plus the collar squared
    distance divided by lam^2, with collar width 2 * lam.
    """
    dom = f.domain
    if g.domain is not dom:
        raise ValueError("maps live on different domains")
    if f.Q != g.Q or f.n != g.n:
        raise ValueError("sheet count or target dimension mismatch")
    if not np.allclose(f.phi, g.phi, atol=1e-12):
        raise ValueError("interface traces differ; cannot blend")
    if lam < 2 * dom.h:
        raise ValueError(f"band width {lam} needs at least two node layers "
                         f"(h={dom.h})")
    R = dom.R

    def band_param(xy):
        r = np.hypot(xy[:, 0], xy[:, 1])
        return np.clip((r - (R - lam)) / lam, 0.0, 1.0)

    out = g.copy()

    for side, Vf, Vg, Vo in ((dom.plus, f.plus, g.plus, out.plus),
                             (dom.minus, f.minus, g.minus, out.minus)):
        q = Vf.shape[1]
        if q == 0:
            continue
        s = band_param(side.xy)
        sel = np.nonzero(s > 0)[0]
        if sel.size == 0:
            continue
        # On the plus side the last interface slot is phi and stays put;
        # blending the remaining sheets there reproduces the minus-side
        # blend of the shared z, so the constraint survives.
        strip = (side is dom.plus) & (side.tag[sel] == INTERFACE)
        reg = sel[~strip]
        if reg.size:
            matched = batch_match_values(Vg[reg], Vf[reg])
            t = s[reg][:, None, None]
            Vo[reg] = (1.0 - t) * Vg[reg] + t * matched
        ifs = sel[strip]
        if ifs.size and q > 1:
            zg, zf = Vg[ifs][:, : q - 1], Vf[ifs][:, : q - 1]
            matched = batch_match_values(zg, zf)
            t = s[ifs][:, None, None]
            rows = Vo[ifs]
            rows[:, : q - 1] = (1.0 - t) * zg + t * matched
            Vo[ifs] = rows

    def region_energy(u, rmin):
        total = 0.0
        for side, V in ((dom.plus, u.plus), (dom.minus, u.minus)):
            if V.shape[1] == 0 or side.edges.shape[0] == 0:
                continue
            r = np.hypot(side.xy[:, 0], side.xy[:, 1])
            inside = r >= rmin - 1e-12
            e = side.edges
            keep = inside[e[:, 0]] & inside[e[:, 1]]
            if keep.any():
                total += edge_energy(V, e[keep])
        return total

    band_e = region_energy(out, R - lam)
    collar_rmin = R - 2 * lam
    ef = region_energy(f, collar_rmin)
    eg = region_energy(g, collar_rmin)

    dist2 = 0.0
    h2 = dom.h**2
    counted = np.zeros(dom.xy.shape[0], dtype=bool)
    for side, Vf, Vg in ((dom.plus, f.plus, g.plus),
                         (dom.minus, f.minus, g.minus)):
        if Vf.shape[1] == 0:
            continue
        r = np.hypot(side.xy[:, 0], side.xy[:, 1])
        sel = np.nonzero((r >= collar_rmin - 1e-12) & ~counted[side.ids])[0]
        if sel.size:
            c2 = batch_match_cost2(Vf[sel], Vg[sel])
            dist2 += float(c2.sum()) * h2
            counted[side.ids[sel]] = True

    rhs = lam * (ef + eg) + dist2 / lam
    fitted = band_e / rhs if rhs > 0 else 0.0
    n_band = int((band_param(dom.xy) > 0).sum())
    report = InterpolationReport(band_energy=band_e, collar_energy_f=ef,
                                 collar_energy_g=eg, collar_distance_sq=dist2,
                                 lam=lam, fitted_constant=fitted,
                                 band_nodes=n_band)
    return out, report


def minimality_spot_check(u: QHalfMap, rng, trials: int = 50,
                          scale: float = 1e-3) -> float:
    """Perturb random free nodes and report the largest energy drop found.

    A correct local minimum never yields a noticeably negative value; the
    returned number is min(0, largest decrease) over the trials, in
    energy units.
    """
    dom = u.domain
    worst = 0.0
    base = dirichlet_energy(u)
    for _ in range(trials):
        side_name = "plus" if (u.Q == 1 or rng.random() < 0.5) else "minus"
        side = getattr(dom, side_name)
        V = u.plus if side_name == "plus" else u.minus
        free_idx = np.nonzero(side.free & (side.tag != INTERFACE))[0]
        if free_idx.size == 0 or V.shape[1] == 0:
            continue
        v = int(rng.choice(free_idx))
        old = V[v].copy()
        V[v] = old + scale * rng.standard_normal(old.shape)
        e = dirichlet_energy(u)
        V[v] = old
        worst = min(worst, e - base)
    return worst
