"""Grid half-domains: a disk split by an interface curve through the origin.

The mesh is the square grid of spacing h clipped to a disk of radius R.
The interface is either the straight line {y = 0} or the graph of a
gentle C^3 function y = psi(x) with psi(0) = psi'(0) = 0. One grid node
per column is snapped to the interface; nodes above it form the plus
side, nodes below the minus side.

The module also builds a modified distance field: a function d that
behaves like |x| near the origin but whose gradient is tangent to the
interface along the whole curve. For the straight interface d is |x|
exactly; for a graph interface it is built from tube coordinates
(arclength along the curve, signed offset along the normal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

INTERIOR_PLUS = 0
INTERIOR_MINUS = 1
INTERFACE = 2
BOUNDARY_PLUS = 3
BOUNDARY_MINUS = 4

# Smallest angle (degrees) at which a graph interface may cross the
# outer circle: build_halfdisk's transversality threshold.
MIN_ANGLE_DEG = 30.0

TAG_NAMES = {
    INTERIOR_PLUS: "interior+",
    INTERIOR_MINUS: "interior-",
    INTERFACE: "interface",
    BOUNDARY_PLUS: "boundary+",
    BOUNDARY_MINUS: "boundary-",
}

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


class ConstructionError(ValueError):
    """Raised when a mesh or distance field cannot be built as requested."""


@dataclass(frozen=True)
class InterfaceSpec:
    """Interface curve through the origin.

    kind "straight" is the line y = 0. kind "graph" is y = psi(x) with
    psi(0) = 0 and psi'(0) = 0; callables for psi and its first two
    derivatives are required.
    """

    kind: str
    psi: Optional[Callable] = None
    dpsi: Optional[Callable] = None
    d2psi: Optional[Callable] = None

    @staticmethod
    def straight() -> "InterfaceSpec":
        return InterfaceSpec(kind="straight")

    @staticmethod
    def graph(psi, dpsi, d2psi) -> "InterfaceSpec":
        return InterfaceSpec(kind="graph", psi=psi, dpsi=dpsi, d2psi=d2psi)

    @staticmethod
    def sine_wave(amplitude: float, wavenumber: float) -> "InterfaceSpec":
        a, k = float(amplitude), float(wavenumber)
        return InterfaceSpec.graph(
            psi=lambda x: a * np.sin(k * x),
            dpsi=lambda x: a * k * np.cos(k * x),
            d2psi=lambda x: -a * k * k * np.sin(k * x),
        )

    def values(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "straight":
            z = np.zeros_like(x)
            return z, z, z
        return (
            np.asarray(self.psi(x), dtype=float),
            np.asarray(self.dpsi(x), dtype=float),
            np.asarray(self.d2psi(x), dtype=float),
        )


@dataclass
class SideGraph:
    """The value-carrying nodes of one side, with local indexing.

    Interface nodes belong to both sides. nb holds local neighbor
    indices (east, west, north, south), -1 where the neighbor is not a
    carrier of this side. edges lists each energy-carrying edge once;
    edges between two interface nodes are excluded, since the interface
    itself has no area.
    """

    name: str
    ids: np.ndarray          # global node ids, shape (Ns,)
    loc: np.ndarray          # global -> local, -1 elsewhere
    nb: np.ndarray           # (Ns, 4) local neighbor ids or -1
    tag: np.ndarray          # (Ns,)
    xy: np.ndarray           # (Ns, 2)
    color: np.ndarray        # (Ns,) checkerboard parity 0/1
    edges: np.ndarray        # (Es, 2) local index pairs
    free: np.ndarray = field(default=None)  # interior rows; ~free: pinned

    @property
    def n_nodes(self) -> int:
        return self.ids.size


@dataclass
class HalfDomain:
    """The clipped grid, nodes in (i, j) order, and its side graphs: plus
    and minus each carry the interface row; full, every node as one side
    (only glued fields use it), is built on first access and then kept."""

    R: float
    h: float
    interface: InterfaceSpec
    xy: np.ndarray           # (N, 2)
    ij: np.ndarray           # (N, 2) integer grid coordinates
    tag: np.ndarray          # (N,)
    nb: np.ndarray           # (N, 4) global neighbors (E, W, N, S) or -1
    plus: SideGraph = None
    minus: SideGraph = None
    id_grid: np.ndarray = field(default=None, repr=False)  # (i, j) + imax -> id or -1

    @property
    def n_nodes(self) -> int:
        return self.xy.shape[0]

    @cached_property
    def full(self) -> SideGraph:
        return _build_side(self, "full", set(TAG_NAMES), None)

    def node_at(self, i, j):
        """Global id of grid node (i, j), -1 off the disk; scalars or arrays."""
        g = self.id_grid
        imax = (g.shape[0] - 1) // 2
        a, b = np.asarray(i) + imax, np.asarray(j) + imax
        ok = (a >= 0) & (a < g.shape[0]) & (b >= 0) & (b < g.shape[1])
        out = np.where(ok, g[np.where(ok, a, 0), np.where(ok, b, 0)], -1)
        return int(out) if out.ndim == 0 else out


def _interface_angles(spec: InterfaceSpec, R: float) -> np.ndarray:
    """Crossing angles (degrees) between the interface and the outer circle.

    Each crossing is bisected between t = +-1e-9, inside the circle on a
    graph through the origin, and t = +-1.5 R, where t^2 + psi^2 - R^2
    >= 1.25 R^2 > 0, so both brackets change sign. Sixty halvings take
    the bracket below the rounding of t.
    """
    inner, outer = np.array([1e-9, -1e-9]), np.array([1.5 * R, -1.5 * R])
    for _ in range(60):
        t = 0.5 * (inner + outer)
        p, _, _ = spec.values(t)
        out = t * t + p * p > R * R
        outer = np.where(out, t, outer)
        inner = np.where(out, inner, t)
    t = 0.5 * (inner + outer)
    p, dp, _ = spec.values(t)
    # |tangent . circle tangent| of (1, psi') / w and (-psi, t) / |(t, psi)|
    cosang = np.abs(dp * t - p) / (np.hypot(1.0, dp) * np.hypot(t, p))
    return np.degrees(np.arccos(np.minimum(cosang, 1.0)))


def grid_half_width(R: float, h: float) -> float:
    """floor(R/h): nodes per half axis of the bounding grid (inf allowed)."""
    return float(np.floor(R / h + 1e-9))


def check_spacing(R: float, h: float) -> None:
    """Raise ConstructionError unless h is below R/8, the coarsest grid."""
    if not h < R / 8.0:
        raise ConstructionError(f"grid spacing h={h} must be below R/8={R / 8.0}")


def _snapped_rows(spec: InterfaceSpec, imax: int, h: float) -> np.ndarray:
    """Grid row of the interface node in each column -imax..imax."""
    psi_cols, _, _ = spec.values(np.arange(-imax, imax + 1) * h)
    return np.rint(psi_cols / h).astype(int)


def check_interface(spec: InterfaceSpec, R: float, h: float) -> None:
    """Raise ConstructionError unless a graph interface passes through the
    origin, meets the outer circle at MIN_ANGLE_DEG or more on both sides,
    and snaps to rows that step by at most one between adjacent columns
    of the grid of spacing h. The straight interface always passes."""
    if spec.kind != "graph":
        return
    p0, _, _ = spec.values(0.0)
    if abs(float(p0)) > 1e-12:
        raise ConstructionError(
            f"interface graph must pass through the origin, psi(0)={float(p0):.3g}"
        )
    angle = float(_interface_angles(spec, R).min())
    if angle < MIN_ANGLE_DEG:
        raise ConstructionError(
            f"interface meets the outer circle at {angle:.1f} deg, "
            f"below the {MIN_ANGLE_DEG:.1f} deg transversality threshold"
        )
    jstar = _snapped_rows(spec, int(grid_half_width(R, h)), h)
    if np.any(np.abs(np.diff(jstar)) > 1):
        raise ConstructionError(
            "interface too steep for the grid: snapped rows jump by more "
            "than one between adjacent columns; refine h"
        )


def build_halfdisk(
    R: float,
    h: float,
    interface: InterfaceSpec = None,
) -> HalfDomain:
    """Clipped grid on the disk of radius R split by the interface."""
    if interface is None:
        interface = InterfaceSpec.straight()
    check_spacing(R, h)
    check_interface(interface, R, h)

    imax = int(grid_half_width(R, h))
    rng_i = np.arange(-imax, imax + 1)
    II, JJ = np.meshgrid(rng_i, rng_i, indexing="ij")
    XX, YY = II * h, JJ * h
    inside = XX * XX + YY * YY <= R * R * (1.0 + 1e-12)

    jstar = _snapped_rows(interface, imax, h)

    # Row-major masking of the indexing="ij" mesh: already (i, j) sorted.
    ii, jj = II[inside], JJ[inside]
    n = ii.size
    xy = np.column_stack((ii * h, jj * h))
    ij = np.column_stack((ii, jj))

    id_grid = -np.ones((2 * imax + 1, 2 * imax + 1), dtype=np.intp)
    id_grid[ii + imax, jj + imax] = np.arange(n)

    jstar_of = jstar[ii + imax]
    side = np.sign(jj - jstar_of)  # 0 on interface row

    def nb_of(di, dj_):
        i2, j2 = ii + di + imax, jj + dj_ + imax
        ok = (i2 >= 0) & (i2 < id_grid.shape[0]) & (j2 >= 0) & (j2 < id_grid.shape[1])
        out = -np.ones(n, dtype=np.intp)
        out[ok] = id_grid[i2[ok], j2[ok]]
        return out

    nb = np.column_stack([nb_of(1, 0), nb_of(-1, 0), nb_of(0, 1), nb_of(0, -1)])

    has_all = np.all(nb >= 0, axis=1)
    tag = np.empty(n, dtype=np.uint8)
    tag[side == 0] = INTERFACE
    tag[(side > 0) & has_all] = INTERIOR_PLUS
    tag[(side > 0) & ~has_all] = BOUNDARY_PLUS
    tag[(side < 0) & has_all] = INTERIOR_MINUS
    tag[(side < 0) & ~has_all] = BOUNDARY_MINUS

    # Sanity: snapping must keep opposite sides out of contact.
    for k in range(4):
        valid = nb[:, k] >= 0
        a, b = side[valid], side[nb[valid, k]]
        if np.any(a * b < 0):
            raise ConstructionError("opposite sides are grid-adjacent; refine h")

    dom = HalfDomain(R=R, h=h, interface=interface, xy=xy, ij=ij, tag=tag, nb=nb,
                     id_grid=id_grid)
    dom.plus = _build_side(dom, "plus", {INTERIOR_PLUS, BOUNDARY_PLUS, INTERFACE}, INTERIOR_PLUS)
    dom.minus = _build_side(dom, "minus", {INTERIOR_MINUS, BOUNDARY_MINUS, INTERFACE}, INTERIOR_MINUS)
    return dom


def _build_side(dom: HalfDomain, name: str, carrier_tags: set, interior_tag) -> SideGraph:
    mask = np.isin(dom.tag, list(carrier_tags))
    ids = np.nonzero(mask)[0]
    loc = -np.ones(dom.n_nodes, dtype=np.intp)
    loc[ids] = np.arange(ids.size)

    nb = -np.ones((ids.size, 4), dtype=np.intp)
    for k in range(4):
        g = dom.nb[ids, k]
        ok = g >= 0
        nb[ok, k] = loc[g[ok]]

    tag = dom.tag[ids]
    if name == "full":
        free = (tag == INTERIOR_PLUS) | (tag == INTERIOR_MINUS) | (tag == INTERFACE)
    else:
        free = tag == interior_tag

    color = ((dom.ij[ids, 0] + dom.ij[ids, 1]) % 2).astype(np.int8)

    # Each east/north edge once; skip interface-interface pairs.
    pairs = []
    for k in (0, 2):
        a = np.arange(ids.size)
        b = nb[:, k]
        ok = b >= 0
        aa, bb = a[ok], b[ok]
        both_iface = (tag[aa] == INTERFACE) & (tag[bb] == INTERFACE)
        keep = ~both_iface
        pairs.append(np.column_stack((aa[keep], bb[keep])))
    edges = np.vstack(pairs) if pairs else np.empty((0, 2), dtype=np.intp)

    return SideGraph(
        name=name,
        ids=ids,
        loc=loc,
        nb=nb,
        tag=tag,
        xy=dom.xy[ids],
        color=color,
        edges=edges,
        free=free,
    )


@dataclass
class DistanceField:
    """The modified distance, its gradient, and the two mismatches from
    the radial model that the frequency drift terms read (0 for d = |x|)."""

    d: np.ndarray        # (N,)
    grad: np.ndarray     # (N, 2)
    laplace_mismatch: float   # sup |lap d - |grad d|^2 / d|
    flow_mismatch: float      # sup |D(d grad d / |grad d|^2) - Id| / d

    @property
    def monotonicity_constant(self) -> float:
        """Measured effective constant for the frequency drift terms.

        Combines the mismatch of the distance Laplacian against its
        radial model with the distortion of the rescaled gradient flow;
        the factor 3 covers the contraction constants appearing with the
        flow term in dimension two. Zero when d is exactly |x|.
        """
        return self.laplace_mismatch + 3.0 * self.flow_mismatch


def _tube_coordinates(spec: InterfaceSpec, pts: np.ndarray):
    """Newton solve for (t, s): foot parameter and signed normal offset."""
    x1, x2 = pts[:, 0], pts[:, 1]
    t = x1.copy()
    for _ in range(60):
        p, dp, d2p = spec.values(t)
        F = (x1 - t) + (x2 - p) * dp
        dF = -1.0 + (x2 - p) * d2p - dp * dp
        step = F / dF
        t = t - step
        if np.max(np.abs(F)) < 1e-14 * (1.0 + np.max(np.abs(x1))):
            break
    p, dp, d2p = spec.values(t)
    w = np.hypot(1.0, dp)
    s = (-(x1 - t) * dp + (x2 - p)) / w
    mu = 1.0 - s * d2p / w**3
    if np.any(mu < 0.1):
        raise ConstructionError(
            "domain leaves the tubular neighborhood of the interface; "
            "the distance construction needs milder curvature or smaller R"
        )
    return t, s, w, dp, d2p, mu


def _arclength(spec: InterfaceSpec, t: np.ndarray) -> np.ndarray:
    # Gauss-Legendre on [0, t], exact to machine precision for smooth psi.
    half = 0.5 * t
    tau = half[:, None] * (_GL_NODES[None, :] + 1.0)
    # only psi' enters (a straight interface never gets here), evaluated
    # alone and turned into the speed in place
    dp = np.asarray(spec.dpsi(tau), dtype=float)
    np.hypot(1.0, dp, out=dp)
    return half * (dp @ _GL_WEIGHTS)


def _graph_distance(spec: InterfaceSpec, pts: np.ndarray):
    t, s, w, dp, d2p, mu = _tube_coordinates(spec, pts)
    sigma = _arclength(spec, t)
    d = np.hypot(sigma, s)
    T = np.column_stack((np.ones_like(dp), dp)) / w[:, None]
    Nrm = np.column_stack((-dp, np.ones_like(dp))) / w[:, None]
    safe = d > 0
    coef_t = np.where(safe, sigma / np.where(safe, d, 1.0), 0.0) / mu
    coef_s = np.where(safe, s / np.where(safe, d, 1.0), 0.0)
    grad = coef_t[:, None] * T + coef_s[:, None] * Nrm
    return d, grad


def _fd_jacobian(dom: HalfDomain, fld: np.ndarray):
    """Central-difference Jacobian of a nodal vector field, NaN where cut."""
    n = dom.n_nodes
    out = np.full((n, 2, fld.shape[1]), np.nan)
    e, w, nn, ss = (dom.nb[:, k] for k in range(4))
    ok_x = (e >= 0) & (w >= 0)
    ok_y = (nn >= 0) & (ss >= 0)
    out[ok_x, 0] = (fld[e[ok_x]] - fld[w[ok_x]]) / (2.0 * dom.h)
    out[ok_y, 1] = (fld[nn[ok_y]] - fld[ss[ok_y]]) / (2.0 * dom.h)
    return out


def _mismatches(dom: HalfDomain, d: np.ndarray, grad: np.ndarray):
    """DistanceField's two mismatches, from central differences at least
    8 h from the origin, where the stencil is trustworthy."""
    r = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
    far = r >= 8.0 * dom.h
    jac = _fd_jacobian(dom, grad)  # (N, 2, 2), d_col of grad rows
    sel = far & ~np.isnan(jac).any(axis=(1, 2))
    hess = np.transpose(jac[sel], (0, 2, 1))  # D2 d, rows grad comps
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    g2 = np.einsum("ij,ij->i", grad[sel], grad[sel])
    lap_mis = float(np.max(np.abs(lap - g2 / d[sel])))

    Y = d[:, None] * grad / np.clip(np.einsum("ij,ij->i", grad, grad), 1e-300, None)[:, None]
    Y[r == 0] = dom.xy[r == 0]
    jacY = _fd_jacobian(dom, Y)
    selY = far & ~np.isnan(jacY).any(axis=(1, 2))
    DY = np.transpose(jacY[selY], (0, 2, 1))
    flow_mis = float(np.max(np.linalg.norm(DY - np.eye(2)[None], axis=(1, 2)) / d[selY]))
    return lap_mis, flow_mis


def build_distance_field(dom: HalfDomain) -> DistanceField:
    """Modified distance adapted to the interface, with measured mismatches."""
    if dom.interface.kind == "straight":
        d = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
        grad = np.zeros_like(dom.xy)
        pos = d > 0
        grad[pos] = dom.xy[pos] / d[pos, None]
        return DistanceField(d=d, grad=grad, laplace_mismatch=0.0,
                             flow_mismatch=0.0)

    d, grad = _graph_distance(dom.interface, dom.xy)
    return DistanceField(d, grad, *_mismatches(dom, d, grad))
