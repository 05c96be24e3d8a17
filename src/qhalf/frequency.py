"""Weighted frequency function on grid fields.

All quantities use the fixed Lipschitz cutoff that equals 1 on [0, 1/2],
falls linearly to 0 on [1/2, 1], and vanishes beyond: with a distance
field d and a radius r,

    D(r)  =  integral of cutoff(d/r) |Df|^2,
    H(r)  = -integral of cutoff'(d/r) |grad d|^2 |f|^2 / d,
    E(r)  = -(1/r) integral of cutoff'(d/r) sum_i f_i . (Df_i . grad d),
    Gq(r) = -(1/r) integral of cutoff'(d/r) (d/r) |grad d|^{-2}
                                     sum_i |Df_i . grad d|^2,
    I(r)  = r D(r) / H(r).

Quadrature is a nodal sum with cell area h^2 (halved on interface rows,
which both sides share). Each node's cutoff weight is averaged over the
d-range the cell spans, so H and D are differentiable in r and the
finite-difference identity checks are meaningful. The Cauchy-Schwarz
inequality E^2 <= H * Gq holds exactly at the quadrature level because
all three sums share the same nodal weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import DistanceField, HalfDomain, INTERFACE, build_distance_field
from .qpoint import batch_match_cost2, batch_match_values
from .solver import GridField, QHalfMap


class ResolutionError(ValueError):
    """Raised when an annulus is too thin for the grid."""


@dataclass
class FrequencyConfig:
    rho: float = 0.95            # geometric radii ratio
    r_max: Optional[float] = None
    r_min: Optional[float] = None
    min_radial_cells: int = 8    # annulus width >= this many cells


@dataclass
class FrequencyScan:
    r: np.ndarray
    D: np.ndarray
    H: np.ndarray
    E: np.ndarray
    Gq: np.ndarray
    I: np.ndarray
    csq_residual: np.ndarray     # positive part of (E^2 - H Gq) / (H Gq)
    outer_residual: np.ndarray   # |D - E| / D
    reliable: np.ndarray
    h: float
    c_mono: float
    i0: float

    def reliable_radii(self) -> np.ndarray:
        return self.r[self.reliable]


def cutoff(t):
    t = np.asarray(t, dtype=float)
    return np.clip(2.0 * (1.0 - t), 0.0, 1.0)


def cutoff_antiderivative(s, r):
    """Integral of cutoff(u/r) du from 0 to s, piecewise closed form."""
    s = np.asarray(s, dtype=float)
    half, full = r / 2.0, r
    mid = half + 2.0 * (s - half) - (s * s - half * half) / r
    out = np.where(s <= half, s, np.where(s >= full, 0.75 * r, mid))
    return out


class _Quad:
    """Per-field arrays reused across radii: values, Jacobians, weights."""

    def __init__(self, fld: GridField, dist: DistanceField):
        side = fld.side
        V = fld.values
        ns, q, n = V.shape
        h = fld.domain.h
        self.h = h
        self.d = dist.d[side.ids]
        grad = dist.grad[side.ids]
        self.gd2 = np.einsum("mk,mk->m", grad, grad)

        J = np.full((ns, q, n, 2), np.nan)
        valid = np.ones(ns, dtype=bool)
        if q > 0:
            for axis, (kp, km) in enumerate(((0, 1), (2, 3))):
                has_p = side.nb[:, kp] >= 0
                has_m = side.nb[:, km] >= 0
                dp = np.zeros_like(V)
                dm = np.zeros_like(V)
                if has_p.any():
                    ip = np.nonzero(has_p)[0]
                    dp[ip] = batch_match_values(V[ip], V[side.nb[ip, kp]]) - V[ip]
                if has_m.any():
                    im = np.nonzero(has_m)[0]
                    dm[im] = batch_match_values(V[im], V[side.nb[im, km]]) - V[im]
                der = np.full((ns, q, n), np.nan)
                both = has_p & has_m
                der[both] = (dp[both] - dm[both]) / (2 * h)
                only_p = has_p & ~has_m
                der[only_p] = dp[only_p] / h
                only_m = has_m & ~has_p
                der[only_m] = -dm[only_m] / h
                valid &= has_p | has_m
                J[:, :, :, axis] = der
        self.valid = valid

        self.f2 = np.einsum("mqn,mqn->m", V, V)
        Jc = np.where(np.isfinite(J), J, 0.0)
        self.df2 = np.einsum("mqnk,mqnk->m", Jc, Jc)
        gradc = np.where(np.isfinite(grad), grad, 0.0)
        Jd = np.einsum("mqnk,mk->mqn", Jc, gradc)     # Df_i . grad d
        self.e_term = np.einsum("mqn,mqn->m", V, Jd)
        self.g_term = np.einsum("mqn,mqn->m", Jd, Jd)

        cell = np.full(ns, h * h)
        if side.name in ("plus", "minus"):
            cell[side.tag == INTERFACE] *= 0.5
        self.cell = cell
        # Half-width of the d-range spanned by a cell along grad d. Where
        # the d-gradient stencil is cut (origin, rim) fall back to the
        # nominal |grad d| = 1; those nodes never carry annulus weight.
        gd2_safe = np.where(np.isfinite(self.gd2), self.gd2, 1.0)
        self.delta = 0.5 * h * np.sqrt(np.maximum(gd2_safe, 0.0))

    def weights(self, r: float):
        a = np.maximum(self.d - self.delta, 0.0)
        b = self.d + self.delta
        span = np.maximum(b - a, 1e-300)
        w_prime = 2.0 * np.clip(np.minimum(b, r) - np.maximum(a, r / 2.0),
                                0.0, None) / span
        w_phi = (cutoff_antiderivative(b, r)
                 - cutoff_antiderivative(a, r)) / span
        return w_phi, w_prime

    def at(self, r: float):
        if r <= 0:
            raise ValueError("radius must be positive")
        w_phi, w_prime = self.weights(r)
        selD = (w_phi > 0) & self.valid
        D = float(np.sum(self.cell[selD] * w_phi[selD] * self.df2[selD]))
        sel = ((w_prime > 0) & self.valid & (self.d > 0)
               & np.isfinite(self.gd2))
        w = self.cell[sel] * w_prime[sel]
        H = float(np.sum(w * self.gd2[sel] * self.f2[sel] / self.d[sel]))
        E = float(np.sum(w * self.e_term[sel])) / r
        Gq = float(np.sum(w * self.d[sel] / self.gd2[sel]
                          * self.g_term[sel])) / r**2
        n_annulus = int(sel.sum())
        return D, H, E, Gq, n_annulus


def _as_quads(u, dist: DistanceField):
    if isinstance(u, QHalfMap):
        fields = u.fields()
    elif isinstance(u, GridField):
        fields = [u]
    else:
        fields = list(u)
    return [_Quad(f, dist) for f in fields]


def _eval(quads, r):
    D = H = E = Gq = 0.0
    count = 0
    for q in quads:
        d, hh, e, g, c = q.at(r)
        D += d
        H += hh
        E += e
        Gq += g
        count += c
    return D, H, E, Gq, count


def compute_D(u, dist: DistanceField, r: float) -> float:
    if r <= 0:
        raise ValueError("radius must be positive")
    return _eval(_as_quads(u, dist), r)[0]


def _annulus_value(u, dist, r, pick):
    if r <= 0:
        raise ValueError("radius must be positive")
    out = _eval(_as_quads(u, dist), r)
    if out[4] == 0:
        raise ResolutionError(
            f"annulus [{r / 2}, {r}] contains no grid nodes")
    return out[pick]


def compute_H(u, dist: DistanceField, r: float) -> float:
    return _annulus_value(u, dist, r, 1)


def compute_E(u, dist: DistanceField, r: float) -> float:
    return _annulus_value(u, dist, r, 2)


def compute_Gq(u, dist: DistanceField, r: float) -> float:
    return _annulus_value(u, dist, r, 3)


def frequency_scan(u, dist: DistanceField,
                   cfg: Optional[FrequencyConfig] = None) -> FrequencyScan:
    """Evaluate all frequency quantities on a geometric radii ladder.

    Radii whose annulus is empty or where H vanishes are dropped. A
    radius is reliable when its annulus spans at least min_radial_cells
    grid cells radially. i0 is the mean of I over the smallest reliable
    half-decade of radii.
    """
    cfg = cfg or FrequencyConfig()
    quads = _as_quads(u, dist)
    h = quads[0].h
    dom_R = None
    if isinstance(u, QHalfMap):
        dom_R = u.domain.R
    elif isinstance(u, GridField):
        dom_R = u.domain.R
    else:
        dom_R = u[0].domain.R
    r_max = cfg.r_max if cfg.r_max is not None else dom_R - 4 * h
    r_min = cfg.r_min if cfg.r_min is not None else 2 * cfg.min_radial_cells * h
    if r_max <= r_min:
        raise ResolutionError("no radii between r_min and r_max; refine h")

    radii = []
    r = r_max
    while r >= r_min * (1 - 1e-12):
        radii.append(r)
        r *= cfg.rho
    radii = np.array(sorted(radii))

    rows = []
    for r in radii:
        D, H, E, Gq, count = _eval(quads, r)
        if count == 0 or H <= 0:
            continue
        rows.append((r, D, H, E, Gq))
    if not rows:
        raise ResolutionError("no radius produced a usable annulus")
    arr = np.array(rows)
    r, D, H, E, Gq = arr.T
    I = r * D / H
    hg = H * Gq
    csq = np.where(hg > 0, np.maximum(E**2 - hg, 0.0) / np.where(hg > 0, hg, 1.0), 0.0)
    outer = np.abs(D - E) / np.maximum(D, 1e-300)
    reliable = r >= 2 * cfg.min_radial_cells * h * (1 - 1e-12)

    i0 = float("nan")
    rel_r = r[reliable]
    if rel_r.size:
        lo = rel_r[0]
        sel = reliable & (r <= lo * np.sqrt(10.0))
        i0 = float(I[sel].mean())

    c_mono = dist.monotonicity_constant
    return FrequencyScan(r=r, D=D, H=H, E=E, Gq=Gq, I=I, csq_residual=csq,
                         outer_residual=outer, reliable=reliable, h=h,
                         c_mono=c_mono, i0=i0)


def check_outer_identity(scan: FrequencyScan, tol: float = 0.05):
    """Max relative |D - E| / D over reliable radii; passes if <= tol."""
    res = scan.outer_residual[scan.reliable]
    worst = float(res.max()) if res.size else 0.0
    return worst <= tol, worst


def check_H_derivative(scan: FrequencyScan, tol: float = 0.05, m: int = 2):
    """Finite-difference H' against ((m-1)/r) H + 2 E.

    H' at each interior reliable radius is the least-squares slope of
    ln H over a five-point window times H, which differentiates local
    power laws without ladder bias and averages down nodal quadrature
    jitter. Returns (pass, worst relative residual, profile); the bound
    allows the measured distance-defect constant c_mono plus tol.
    """
    idx = np.nonzero(scan.reliable)[0]
    prof = []
    for w in range(2, idx.size - 2):
        win = idx[w - 2: w + 3]
        b = idx[w]
        x = scan.r[win]
        y = np.log(scan.H[win])
        slope = np.polyfit(x, y, 1)[0]
        hp = scan.H[b] * slope
        pred = (m - 1) / scan.r[b] * scan.H[b] + 2 * scan.E[b]
        prof.append((scan.r[b], abs(hp - pred) / scan.H[b]))
    worst = max((p[1] for p in prof), default=0.0)
    return worst <= scan.c_mono + tol, worst, prof


def c_quad(h: float, r_min: float, kappa: float) -> float:
    """Quadrature contribution to the monotonicity constant."""
    return kappa * h / r_min


def effective_constant(scan: FrequencyScan, kappa: float) -> float:
    rel = scan.reliable_radii()
    r_min = float(rel[0]) if rel.size else float(scan.r[0])
    return scan.c_mono + c_quad(scan.h, r_min, kappa)


def check_monotonicity(scan: FrequencyScan, c_eff: Optional[float] = None,
                       tol: float = 0.02, kappa: float = 0.0):
    """Verify e^{c r} I(r) is nondecreasing over reliable radii.

    Consecutive reliable radii r_k < r_{k+1} must satisfy
    e^{c r_k} I(r_k) <= e^{c r_{k+1}} I(r_{k+1}) (1 + tol). Returns
    (pass, worst violation, c_eff).
    """
    if c_eff is None:
        c_eff = effective_constant(scan, kappa)
    idx = np.nonzero(scan.reliable)[0]
    worst = 0.0
    for a, b in zip(idx[:-1], idx[1:]):
        lhs = np.exp(c_eff * scan.r[a]) * scan.I[a]
        rhs = np.exp(c_eff * scan.r[b]) * scan.I[b]
        if rhs <= 0:
            return False, np.inf, c_eff
        worst = max(worst, lhs / rhs - 1.0)
    return worst <= tol, worst, c_eff


def smallest_reliable_decade(scan: FrequencyScan) -> np.ndarray:
    """Indices of reliable radii within 10x of the smallest reliable one."""
    idx = np.nonzero(scan.reliable)[0]
    if idx.size == 0:
        return idx
    lo = scan.r[idx[0]]
    return idx[scan.r[idx] <= 10.0 * lo * (1 + 1e-12)]


@dataclass
class DoublingReport:
    passed: bool
    h_pass: bool
    d_pass: bool
    range_pass: bool
    pairs: int
    worst_h_margin: float
    worst_d_margin: float
    lam: float
    i0: float
    c_eff: float


def check_doubling_bounds(scan: FrequencyScan, lam: float = 1.2,
                          i0: Optional[float] = None,
                          c_eff: Optional[float] = None,
                          kappa: float = 0.0, m: int = 2) -> DoublingReport:
    """Two-sided growth bounds for H and D on the smallest reliable decade.

    For every reliable pair s < t in the decade,
        e^{-C(t-s)} (t/s)^{m-1+2 i0/lam} <= H(t)/H(s)
                                         <= e^{C(t-s)} (t/s)^{m-1+2 lam i0}
    and the D version carries extra lam^{-2} / lam^2 prefactors with
    exponents m-2+2 i0/lam and m-2+2 lam i0. Also verifies I stays inside
    [i0/lam, lam*i0] on the decade. Margins are reported as the largest
    relative overshoot outside the admissible interval (0 when inside).
    """
    if i0 is None:
        i0 = scan.i0
    if c_eff is None:
        c_eff = effective_constant(scan, kappa)
    idx = smallest_reliable_decade(scan)
    lo_exp_h = m - 1 + 2 * i0 / lam
    hi_exp_h = m - 1 + 2 * lam * i0
    lo_exp_d = m - 2 + 2 * i0 / lam
    hi_exp_d = m - 2 + 2 * lam * i0

    worst_h = worst_d = 0.0
    pairs = 0
    for ai in range(idx.size):
        for bi in range(ai + 1, idx.size):
            a, b = idx[ai], idx[bi]
            s, t = scan.r[a], scan.r[b]
            pairs += 1
            ratio = t / s
            gap = np.exp(c_eff * (t - s))
            rh = scan.H[b] / scan.H[a]
            lo = ratio**lo_exp_h / gap
            hi = ratio**hi_exp_h * gap
            worst_h = max(worst_h, lo / rh - 1.0, rh / hi - 1.0)
            rd = scan.D[b] / scan.D[a]
            lo = ratio**lo_exp_d / (gap * lam**2)
            hi = ratio**hi_exp_d * gap * lam**2
            worst_d = max(worst_d, lo / rd - 1.0, rd / hi - 1.0)
    Ivals = scan.I[idx]
    range_ok = bool(np.all((Ivals >= i0 / lam) & (Ivals <= lam * i0)))
    h_ok = worst_h <= 0.0
    d_ok = worst_d <= 0.0
    return DoublingReport(passed=h_ok and d_ok and range_ok, h_pass=h_ok,
                          d_pass=d_ok, range_pass=range_ok, pairs=pairs,
                          worst_h_margin=worst_h, worst_d_margin=worst_d,
                          lam=lam, i0=i0, c_eff=c_eff)


def calibrate_kappa(dom: HalfDomain, tol_zero: float = 1e-12):
    """Fit the quadrature constant on the single-sheet harmonic case.

    Solves the Q=1 problem with data x^2 - y^2, scans it, and finds the
    smallest c >= 0 making e^{c r} I nondecreasing on reliable radii.
    Returns kappa with c = kappa * h / r_min.
    """
    from . import data_maps
    from .solver import SolverConfig, minimize, suggested_omega

    data = data_maps.quadratic_harmonic(Q=1)
    cfg = SolverConfig(init="mean", update_stop=1e-11,
                       omega=suggested_omega(dom), max_sweeps=200000)
    u, info = minimize(dom, data, cfg)
    if not info.converged:
        raise RuntimeError("calibration solve did not converge")
    dist = build_distance_field(dom)
    scan = frequency_scan(u, dist)
    idx = np.nonzero(scan.reliable)[0]
    c_needed = 0.0
    for a, b in zip(idx[:-1], idx[1:]):
        if scan.I[b] < scan.I[a]:
            c = np.log(scan.I[a] / scan.I[b]) / (scan.r[b] - scan.r[a])
            c_needed = max(c_needed, c)
    r_min = float(scan.r[idx[0]])
    kappa = c_needed * r_min / scan.h if c_needed > tol_zero else 0.0
    return kappa, scan


class DegenerateBlowupError(ValueError):
    pass


def blow_up_rescale(u: QHalfMap, p, r: float, target_h: Optional[float] = None):
    """Rescale u about the interface point p at radius r to the unit grid.

    Coordinates shrink by r, values divide by the normalizing factor
    whose square is the Dirichlet energy inside the euclidean r-ball
    around p. The result lives on a straight-interface unit half-disk
    and is resampled by bilinear interpolation with locally matched
    sheets, so its total energy is 1 up to resampling error.
    """
    from .domain import build_halfdisk

    dom = u.domain
    p = np.asarray(p, dtype=float)
    if np.hypot(*p) + r > dom.R + 1e-12:
        raise ValueError("ball leaves the domain")

    def ball_energy(V, side):
        if V.shape[1] == 0 or side.edges.shape[0] == 0:
            return 0.0
        rr = np.hypot(side.xy[:, 0] - p[0], side.xy[:, 1] - p[1])
        inside = rr <= r + 1e-12
        e = side.edges
        keep = inside[e[:, 0]] & inside[e[:, 1]]
        if not keep.any():
            return 0.0
        c2 = batch_match_cost2(V[e[keep, 0]], V[e[keep, 1]])
        return float(c2.sum())

    delta2 = (ball_energy(u.plus, dom.plus) + ball_energy(u.minus, dom.minus))
    if delta2 <= 0:
        raise DegenerateBlowupError("map carries no energy on the ball")
    delta = np.sqrt(delta2)

    if target_h is None:
        target_h = max(dom.h / r, 1.0 / 128)
    new_dom = build_halfdisk(R=1.0, h=target_h)

    def resample(side_new, side_old, V_old, q):
        out = np.zeros((side_new.n_nodes, q, u.n))
        if q == 0:
            return out
        pts = p[None, :] + r * side_new.xy
        gx = pts[:, 0] / dom.h
        gy = pts[:, 1] / dom.h
        i0 = np.floor(gx).astype(int)
        j0 = np.floor(gy).astype(int)
        fx = (gx - i0)[:, None, None]
        fy = (gy - j0)[:, None, None]
        corners = np.empty((side_new.n_nodes, 4), dtype=np.intp)
        for c, (di, dj) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            g = dom.node_at(i0 + di, j0 + dj)
            corners[:, c] = np.where(g >= 0, side_old.loc[g], -1)
        wts = np.stack(((1 - fx[:, 0, 0]) * (1 - fy[:, 0, 0]),
                        fx[:, 0, 0] * (1 - fy[:, 0, 0]),
                        (1 - fx[:, 0, 0]) * fy[:, 0, 0],
                        fx[:, 0, 0] * fy[:, 0, 0]), axis=1)
        wts = np.where(corners >= 0, wts, 0.0)
        norm = wts.sum(axis=1)
        if (norm <= 0).any():
            raise ValueError("resampling point far from the old grid")
        wts /= norm[:, None]
        ref_idx = corners[np.arange(corners.shape[0]), np.argmax(wts, axis=1)]
        ref = V_old[ref_idx]
        acc = np.zeros_like(ref)
        for c in range(4):
            ok = corners[:, c] >= 0
            if not ok.any():
                continue
            vals = np.zeros_like(ref)
            vals[ok] = batch_match_values(ref[ok], V_old[corners[ok, c]])
            acc += wts[:, c][:, None, None] * vals
        out[:] = acc / delta
        return out

    new_plus = resample(new_dom.plus, dom.plus, u.plus, u.Q)
    new_minus = resample(new_dom.minus, dom.minus, u.minus, max(u.Q - 1, 0))
    if_new = np.nonzero(new_dom.tag == INTERFACE)[0]
    if_old = np.nonzero(dom.tag == INTERFACE)[0]
    x_old = dom.xy[if_old, 0]
    order = np.argsort(x_old)
    phi_new = np.empty((if_new.size, u.n))
    for comp in range(u.n):
        phi_new[:, comp] = np.interp(p[0] + r * new_dom.xy[if_new, 0],
                                     x_old[order], u.phi[order, comp]) / delta
    return QHalfMap(new_dom, u.Q, u.n, new_plus, new_minus, phi_new,
                    u.collapsed), delta


def homogeneity_defect(u, i0: float, s: float = 0.5,
                       min_cells: int = 4) -> float:
    """Deviation of u from i0-homogeneity between nested grid rings.

    Compares u at x and at s*x over grid-exact pairs (even index nodes),
    as the relative matching distance between u(s x) and s^{i0} u(x).
    Exactly homogeneous fields give 0.
    """
    if isinstance(u, QHalfMap):
        fields = u.fields()
    elif isinstance(u, GridField):
        fields = [u]
    else:
        fields = list(u)
    if s != 0.5:
        raise ValueError("only s = 1/2 keeps pairs on grid nodes")
    worst = 0.0
    for fld in fields:
        dom = fld.domain
        side = fld.side
        V = fld.values
        if V.shape[1] == 0:
            continue
        scale_floor = 1e-12 * max(float(np.abs(V).max()), 1e-300)
        ij = dom.ij[side.ids]
        even = (ij[:, 0] % 2 == 0) & (ij[:, 1] % 2 == 0)
        rr = np.hypot(side.xy[:, 0], side.xy[:, 1])
        cand = np.nonzero(even & (rr >= 2 * min_cells * dom.h))[0]
        if cand.size == 0:
            continue
        g = dom.node_at(ij[cand, 0] // 2, ij[cand, 1] // 2)
        half_loc = np.where(g >= 0, side.loc[g], -1)
        ok = half_loc >= 0
        cand, half_loc = cand[ok], half_loc[ok]
        if cand.size == 0:
            continue
        scaled = (s**i0) * V[cand]
        c2 = batch_match_cost2(V[half_loc], scaled)
        num = np.sqrt(c2)
        mag = np.sqrt(np.maximum(
            np.einsum("mqn,mqn->m", scaled, scaled),
            np.einsum("mqn,mqn->m", V[half_loc], V[half_loc])))
        rel = num / np.maximum(mag, scale_floor)
        worst = max(worst, float(rel.max()))
    return worst


def poincare_ratio(scan: FrequencyScan) -> float:
    """Largest H(r) / (r D(r)) over reliable radii (collapsed maps)."""
    sel = scan.reliable & (scan.D > 0)
    if not sel.any():
        return float("nan")
    return float((scan.H[sel] / (scan.r[sel] * scan.D[sel])).max())
