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
all three sums share the same nodal weights. frequency_scan evaluates the
four sums on a radii ladder.

It keeps per field what does not depend on r: the matched Jacobian
terms, the cell areas and each cell's d-range a = max(d - delta, 0),
b = d + delta. A radius costs one comparison per node plus the cutoff
weights of its ring a < r < 2b: a cell with b <= r/2 has a fixed D term
and one with a >= r weighs nothing. The sums add the same floats in node
order as a whole-field evaluation.

A blow-up limit at a point of frequency I0 is homogeneous of degree I0.
homogeneity_defect measures how far a field is from that, comparing it
at x and x/2; the frequency runner reports it beside the i-value check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import DistanceField, HalfDomain
from .qpoint import batch_match_cost2, batch_match_rows
from .solver import GridField

DIM = 2                  # dimension m of the domain in the growth exponents
KAPPA_ZERO = 1e-12       # calibrated drift below this counts as none
HOMOGENEITY_MIN_CELLS = 4
RHO = 0.95               # ratio of consecutive radii in a scan
MIN_RADIAL_CELLS = 8     # a scanned annulus spans at least this many cells

# Columns of DoublingReport.rows: one row per radii pair s < t.
DOUBLING_COLUMNS = ("s", "t", "H_ratio", "H_lower", "H_upper",
                    "D_ratio", "D_lower", "D_upper")


class ResolutionError(ValueError):
    """Raised when a scan finds no radius it can evaluate."""


@dataclass
class FrequencyScan:
    r: np.ndarray
    D: np.ndarray
    H: np.ndarray
    E: np.ndarray
    Gq: np.ndarray
    I: np.ndarray
    outer_residual: np.ndarray   # |D - E| / D
    h: float
    c_mono: float
    i0: float


def cutoff_antiderivative(s, r):
    """Integral of cutoff(u/r) du from 0 to s, piecewise closed form; on
    (r/2, r), r/2 + 2 (s - r/2) - (s^2 - r^2/4) / r computed in place."""
    s = np.asarray(s, dtype=float)
    half = r / 2.0
    out = np.subtract(s, half, out=np.empty_like(s))
    out *= 2.0
    out += half
    out -= (s * s - half * half) / r
    np.copyto(out, 0.75 * r, where=s >= r)
    np.copyto(out, s, where=s <= half)
    return out


class _Quad:
    """One field's nodes that can carry weight (a neighbour on each axis,
    b > a), in node order; at(r) sums one radius. H, E and Gq also skip
    d = 0 and a non-finite |grad d|."""

    def __init__(self, fld: GridField, dist: DistanceField):
        side = fld.side
        V = fld.values
        ns, q, n = V.shape
        h = fld.domain.h
        self.h = h
        d = dist.d[side.ids]
        grad = dist.grad[side.ids]
        gd2 = np.einsum("mk,mk->m", grad, grad)

        # Matched differences, central or one-sided; a missing neighbour
        # is the node itself (a zero step), and neither makes it invalid.
        J = np.zeros((ns, q, n, 2))
        valid = np.ones(ns, dtype=bool)
        if q > 0:
            has = side.nb >= 0
            nb = np.where(has, side.nb, np.arange(ns)[:, None])
            steps = batch_match_rows(V, V, nb.T)
            for axis, (kp, km) in enumerate(((0, 1), (2, 3))):
                dp = steps[kp] - V
                dm = steps[km] - V
                both = has[:, kp] & has[:, km]
                scale = np.where(both, 2 * h, h)[:, None, None]
                J[..., axis] = (dp - dm) / scale
                # -dm / h, not (0 - dm) / h: a zero step keeps its sign
                only_m = np.flatnonzero(has[:, km] & ~has[:, kp])
                J[only_m, :, :, axis] = -dm[only_m] / h
                valid &= has[:, kp] | has[:, km]

        f2 = np.einsum("mqn,mqn->m", V, V)
        df2 = np.einsum("mqnk,mqnk->m", J, J)
        gradc = np.where(np.isfinite(grad), grad, 0.0)
        Jd = np.einsum("mqnk,mk->mqn", J, gradc)     # Df_i . grad d
        e_term = np.einsum("mqn,mqn->m", V, Jd)
        g_term = np.einsum("mqn,mqn->m", Jd, Jd)

        cell = np.full(ns, h * h)
        cell[side.shared] *= 0.5
        # Half-width of the d-range spanned by a cell along grad d. Where
        # the d-gradient stencil is cut (origin, rim) fall back to the
        # nominal |grad d| = 1; those nodes never carry annulus weight.
        gd2_safe = np.where(np.isfinite(gd2), gd2, 1.0)
        delta = 0.5 * h * np.sqrt(np.maximum(gd2_safe, 0.0))
        a = np.maximum(d - delta, 0.0)
        b = d + delta
        span = np.maximum(b - a, 1e-300)

        # A cell with b <= r/2 has cutoff weight (b - a) / span at every
        # r, so its D term is fixed; only the ring a < r < 2b needs r.
        k = np.flatnonzero(valid & (b > a))
        self.a, self.b, self.span = a[k], b[k], span[k]
        self.inner = cell[k] * ((b[k] - a[k]) / span[k]) * df2[k]
        self.cell, self.df2, self.gd2, self.f2 = cell[k], df2[k], gd2[k], f2[k]
        self.d, self.e_term, self.g_term = d[k], e_term[k], g_term[k]
        self.has_h = (d[k] > 0) & np.isfinite(gd2[k])

    def at(self, r: float):
        if r <= 0:
            raise ValueError("radius must be positive")
        k = np.flatnonzero(self.a < r)
        in_ring = self.b[k] > r / 2.0
        j = k[in_ring]
        a, b, span = self.a[j], self.b[j], self.span[j]
        w_phi = (cutoff_antiderivative(b, r)
                 - cutoff_antiderivative(a, r)) / span
        w_prime = 2.0 * np.clip(np.minimum(b, r) - np.maximum(a, r / 2.0),
                                0.0, None) / span

        terms = self.inner[k]
        terms[in_ring] = self.cell[j] * w_phi * self.df2[j]
        drop = w_phi <= 0          # rounding at the rim of the ring
        if drop.any():
            terms = np.delete(terms, np.flatnonzero(in_ring)[drop])
        D = float(np.sum(terms))

        keep = self.has_h[j] & (w_prime > 0)
        j = j[keep]
        w = self.cell[j] * w_prime[keep]
        gd2, d = self.gd2[j], self.d[j]
        H = float(np.sum(w * gd2 * self.f2[j] / d))
        E = float(np.sum(w * self.e_term[j])) / r
        Gq = float(np.sum(w * d / gd2 * self.g_term[j])) / r**2
        return D, H, E, Gq, int(j.size)


def _eval(quads, r):
    """(D, H, E, Gq, annulus nodes) summed over the fields, in field order."""
    return tuple(sum(col) for col in zip(*(q.at(r) for q in quads)))


def scan_bounds(R: float, h: float, r_min: Optional[float] = None,
                r_max: Optional[float] = None):
    """(r_min, r_max) of a scan: r_max defaults to R - 4h, and r_min is
    raised to 2 MIN_RADIAL_CELLS h, the smallest radius whose annulus
    [r/2, r] spans MIN_RADIAL_CELLS cells."""
    r_max = r_max if r_max is not None else R - 4 * h
    return max(r_min or 0.0, 2 * MIN_RADIAL_CELLS * h), r_max


def frequency_scan(u, dist: DistanceField, *, r_min: Optional[float] = None,
                   r_max: Optional[float] = None) -> FrequencyScan:
    """Evaluate all frequency quantities on a geometric radii ladder.

    The ladder runs down from r_max by the ratio RHO to r_min, both as
    scan_bounds resolves them. Radii whose annulus is empty or where H
    vanishes are dropped. i0 is the mean of I over the smallest
    half-decade of radii.
    """
    quads = [_Quad(f, dist) for f in u.fields()]
    h = quads[0].h
    r_min, r_max = scan_bounds(u.domain.R, h, r_min, r_max)
    if r_max <= r_min:
        raise ResolutionError("no radii between r_min and r_max; refine h")

    radii = []
    r = r_max
    while r >= r_min * (1 - 1e-12):
        radii.append(r)
        r *= RHO
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
    outer = np.abs(D - E) / np.maximum(D, 1e-300)
    i0 = float(I[r <= r[0] * np.sqrt(10.0)].mean())
    return FrequencyScan(r=r, D=D, H=H, E=E, Gq=Gq, I=I, outer_residual=outer,
                         h=h, c_mono=dist.monotonicity_constant, i0=i0)


def check_outer_identity(scan: FrequencyScan, tol: float):
    """Max relative |D - E| / D over the scan; passes if <= tol."""
    worst = float(scan.outer_residual.max())
    return worst <= tol, worst


def effective_constant(scan: FrequencyScan, kappa: float) -> float:
    """c_mono plus the quadrature term kappa h / r_min, with r_min the
    smallest scanned radius."""
    return scan.c_mono + kappa * scan.h / float(scan.r[0])


def check_monotonicity(scan: FrequencyScan, tol: float, kappa: float):
    """Verify e^{c r} I(r) is nondecreasing over the scanned radii.

    Consecutive radii r_k < r_{k+1} must satisfy
    e^{c r_k} I(r_k) <= e^{c r_{k+1}} I(r_{k+1}) (1 + tol). Returns
    (pass, worst violation, c_eff).
    """
    c_eff = effective_constant(scan, kappa)
    worst = 0.0
    for a, b in zip(range(scan.r.size - 1), range(1, scan.r.size)):
        lhs = np.exp(c_eff * scan.r[a]) * scan.I[a]
        rhs = np.exp(c_eff * scan.r[b]) * scan.I[b]
        if rhs <= 0:
            return False, np.inf, c_eff
        worst = max(worst, lhs / rhs - 1.0)
    return worst <= tol, worst, c_eff


def smallest_decade(scan: FrequencyScan) -> np.ndarray:
    """Indices of the radii within 10x of the smallest one."""
    return np.flatnonzero(scan.r <= 10.0 * scan.r[0] * (1 + 1e-12))


@dataclass
class DoublingReport:
    passed: bool
    h_pass: bool
    d_pass: bool
    range_pass: bool
    pairs: int
    worst_h_margin: float
    worst_d_margin: float
    c_eff: float
    rows: list        # per pair, laid out as DOUBLING_COLUMNS


def check_doubling_bounds(scan: FrequencyScan, lam: float,
                          kappa: float) -> DoublingReport:
    """Two-sided growth bounds for H and D on the smallest decade of radii.

    For every pair s < t in the decade, with i0 = scan.i0 and
    m = DIM,
        e^{-C(t-s)} (t/s)^{m-1+2 i0/lam} <= H(t)/H(s)
                                         <= e^{C(t-s)} (t/s)^{m-1+2 lam i0}
    and the D version carries extra lam^{-2} / lam^2 prefactors with
    exponents m-2+2 i0/lam and m-2+2 lam i0. Also verifies I stays inside
    [i0/lam, lam*i0] on the decade. Margins are reported as the largest
    relative overshoot outside the admissible interval (0 when inside).
    """
    i0 = scan.i0
    c_eff = effective_constant(scan, kappa)
    idx = smallest_decade(scan)
    lo_exp_h = DIM - 1 + 2 * i0 / lam
    hi_exp_h = DIM - 1 + 2 * lam * i0
    lo_exp_d = DIM - 2 + 2 * i0 / lam
    hi_exp_d = DIM - 2 + 2 * lam * i0

    rows = []
    for ai in range(idx.size):
        for bi in range(ai + 1, idx.size):
            a, b = idx[ai], idx[bi]
            s, t = scan.r[a], scan.r[b]
            ratio = t / s
            gap = np.exp(c_eff * (t - s))
            rows.append((s, t,
                         scan.H[b] / scan.H[a],
                         ratio**lo_exp_h / gap, ratio**hi_exp_h * gap,
                         scan.D[b] / scan.D[a],
                         ratio**lo_exp_d / (gap * lam**2),
                         ratio**hi_exp_d * gap * lam**2))
    worst_h = worst_d = 0.0
    for _, _, rh, lo_h, hi_h, rd, lo_d, hi_d in rows:
        worst_h = max(worst_h, lo_h / rh - 1.0, rh / hi_h - 1.0)
        worst_d = max(worst_d, lo_d / rd - 1.0, rd / hi_d - 1.0)
    Ivals = scan.I[idx]
    range_ok = bool(np.all((Ivals >= i0 / lam) & (Ivals <= lam * i0)))
    h_ok = worst_h <= 0.0
    d_ok = worst_d <= 0.0
    return DoublingReport(passed=h_ok and d_ok and range_ok, h_pass=h_ok,
                          d_pass=d_ok, range_pass=range_ok, pairs=len(rows),
                          worst_h_margin=worst_h, worst_d_margin=worst_d,
                          c_eff=c_eff, rows=rows)


def calibrate_kappa(dom: HalfDomain, dist: DistanceField):
    """Fit the quadrature constant on the single-sheet harmonic case.

    Solves the Q=1 problem with data x^2 - y^2 from the harmonic start,
    the exact minimizer, so one sweep certifies it and kappa depends on
    neither omega nor the stop rule. Scans it with dist, the domain's
    distance field, and finds the smallest c >= 0 making e^{c r} I
    nondecreasing on the scanned radii.
    Returns (kappa, info) with c = kappa * h / r_min and info the
    SolveInfo of the calibration solve.
    """
    from . import data_maps
    from .solver import minimize

    data = data_maps.quadratic_harmonic(Q=1)
    u, info = minimize(dom, data, init="harmonic")
    if not info.converged:
        raise RuntimeError("calibration solve did not converge")
    scan = frequency_scan(u, dist)
    c_needed = 0.0
    for a, b in zip(range(scan.r.size - 1), range(1, scan.r.size)):
        if scan.I[b] < scan.I[a]:
            c = np.log(scan.I[a] / scan.I[b]) / (scan.r[b] - scan.r[a])
            c_needed = max(c_needed, c)
    r_min = float(scan.r[0])
    kappa = c_needed * r_min / scan.h if c_needed > KAPPA_ZERO else 0.0
    return kappa, info


def homogeneity_defect(u, i0: float) -> float:
    """Deviation of u from i0-homogeneity between nested grid rings.

    Compares u at x and at x/2 over grid-exact pairs: even index nodes
    at least 2 HOMOGENEITY_MIN_CELLS cells from the origin, so that their
    halves lie at least HOMOGENEITY_MIN_CELLS cells out. The defect is the
    relative matching distance between u(x/2) and (1/2)^{i0} u(x).
    Exactly homogeneous fields give 0.
    """
    worst = 0.0
    for fld in u.fields():
        dom = fld.domain
        side = fld.side
        V = fld.values
        if V.shape[1] == 0:
            continue
        scale_floor = 1e-12 * max(float(np.abs(V).max()), 1e-300)
        ij = dom.ij[side.ids]
        even = (ij[:, 0] % 2 == 0) & (ij[:, 1] % 2 == 0)
        rr = np.hypot(side.xy[:, 0], side.xy[:, 1])
        cand = np.nonzero(even & (rr >= 2 * HOMOGENEITY_MIN_CELLS * dom.h))[0]
        if cand.size == 0:
            continue
        # the pairing x -> x/2 keeps even index nodes on grid nodes
        g = dom.node_at(ij[cand, 0] // 2, ij[cand, 1] // 2)
        half_loc = np.where(g >= 0, side.loc[g], -1)
        ok = half_loc >= 0
        cand, half_loc = cand[ok], half_loc[ok]
        if cand.size == 0:
            continue
        scaled = (0.5**i0) * V[cand]
        c2 = batch_match_cost2(V[half_loc], scaled)
        num = np.sqrt(c2)
        mag = np.sqrt(np.maximum(
            np.einsum("mqn,mqn->m", scaled, scaled),
            np.einsum("mqn,mqn->m", V[half_loc], V[half_loc])))
        rel = num / np.maximum(mag, scale_floor)
        worst = max(worst, float(rel.max()))
    return worst
