"""Branched surface from the flat product, with mass density probes.

The map z -> (z^3, g(z)) takes a rounded half-stadium region in the
right half-plane to a surface in R^4. Both components are holomorphic,
so the area element is 9|z|^4 + |g'(z)|^2 and the image is minimal.
The straight part of the boundary is a segment of the imaginary axis
chosen long enough to contain product zeros z1 = -i e^{n pi}; each
pairs with the interior zero z2 = e^{2 pi i/3} z1 at the same cube, so
the surface touches its own boundary there and the density jumps to
3/2 (a boundary half-sheet plus an interior sheet).

Density at a point of the image is measured the way it is defined:
mass of the part of the surface inside a small ball, over pi r^2. The
preimage of the ball is integrated by an adaptive quadtree per
component, components being seeded at the cube roots of the first
coordinate.

The image and the area element come from one fused evaluation of
(g, g') per point, and the quadtree evaluates each cell centre once for
its membership, its distance from the ball centre and its Lipschitz
reach. The quadtree keeps only cells whose closed square meets the
region's bounding box: at a boundary point about half of every box lies
outside the region, and there the continued product gives no Lipschitz
reason to drop a cell. The cells still undecided at the last depth go
to a second-order leaf rule. The region is convex (the segment, two
fillet arcs, two horizontals and the cap arc bound it, and its upper
edge is a concave function of x), so a cell whose four corners lie
inside lies wholly inside. Such a cell is integrated from one
evaluation of (g, g') at its centre: the gap |F - p| is linearized
there, and the cell's mass is the area element at the centre times the
exact share of the square on the near side of that line, the closed
distribution function of a sum of two uniform variables. Cells the
region boundary crosses keep a membership-weighted 4x4 subsample.

The two-circles configuration (two stacked flat disks spanning
concentric circles) is computed in closed form as a reference: exact
circle-circle overlap areas give the ratio sequence, converging to
3/2 on the inner circle, 2 inside it, 1 between the circles.
"""

import numpy as np
from dataclasses import dataclass

from .holomorphic import branch_product, branch_product_and_prime

# Subdivision levels of the density quadtree before the leaf rule.
QUADTREE_DEPTH = 8


def _image_and_area(z, alpha):
    """Image rows and area element from one fused evaluation of (g, g')."""
    g, gp = branch_product_and_prime(z, alpha)
    cube = z ** 3
    pts = np.stack([cube.real, cube.imag, g.real, g.imag], axis=-1)
    return pts, 9.0 * np.abs(z) ** 4 + np.abs(gp) ** 2


def surface_image(z, alpha: float = 0.5):
    """Rows (Re z^3, Im z^3, Re g, Im g); shape (4,) for scalar input."""
    return _image_and_area(np.asarray(z, dtype=complex), alpha)[0]


def area_density(z, alpha: float = 0.5):
    """Area element 9|z|^4 + |g'|^2 of the map, extended by 0 at 0."""
    return _image_and_area(np.asarray(z, dtype=complex), alpha)[1]


def _top_profile(x, tau, fillet, straight_x):
    """Upper edge of the region over x; each arc is evaluated only where
    it applies (the fillet for x <= fillet, the cap past straight_x)."""
    x = np.asarray(x, dtype=float)
    cap_r = tau + fillet
    out = np.full(x.shape, cap_r)
    lo = x <= fillet
    hi = x > straight_x
    out[lo] = tau + np.sqrt(np.maximum(fillet ** 2 - (x[lo] - fillet) ** 2,
                                       0.0))
    out[hi] = np.sqrt(np.maximum(cap_r ** 2 - (x[hi] - straight_x) ** 2, 0.0))
    return out


@dataclass
class BranchedSurface:
    """Parametrized surface over a rounded half-stadium region.

    The region boundary runs up the imaginary segment [-tau i, tau i],
    around a fillet of the given radius onto horizontals at
    +-(tau + fillet), and closes with a semicircular cap of radius
    tau + fillet centered at straight_x on the real axis.
    """

    alpha: float
    tau: float
    fillet: float
    straight_x: float

    @property
    def cap_radius(self) -> float:
        return self.tau + self.fillet

    @property
    def x_max(self) -> float:
        return self.straight_x + self.cap_radius

    def contains(self, z):
        x, y = np.real(z), np.imag(z)
        top = _top_profile(x, self.tau, self.fillet, self.straight_x)
        return (x > 0.0) & (x < self.x_max) & (np.abs(y) < top)


def build_surface(alpha: float = 0.5, tau: float = 1.2, fillet: float = 0.2,
                  straight_x: float = 1.6) -> BranchedSurface:
    """Construct the surface after checking its shape parameters.

    tau must cover the segment zeros meant to act as boundary touching
    points (the default covers moduli 1 and e^{-pi}).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 < fillet < tau:
        raise ValueError("need 0 < fillet < tau")
    if straight_x <= fillet:
        raise ValueError("straight_x must exceed the fillet radius")
    return BranchedSurface(alpha=alpha, tau=tau, fillet=fillet,
                           straight_x=straight_x)


# ---------------------------------------------------------------------------
# density


@dataclass
class DensityReport:
    radii: np.ndarray
    ratios: np.ndarray
    extrapolated: float
    seeds: np.ndarray


def _in_closed_region(surface, z, tol):
    x, y = z.real, z.imag
    if x < -tol or x > surface.x_max + tol:
        return False
    xc = min(max(x, 0.0), surface.x_max)
    top = float(_top_profile(xc, surface.tau, surface.fillet,
                             surface.straight_x))
    return abs(y) <= top + tol


def _preimage_seeds(surface, p1, p2, r_max):
    if p1 == 0:
        roots = [0j]
    else:
        base = abs(p1) ** (1.0 / 3.0)
        th = np.angle(p1) / 3.0
        roots = [base * np.exp(1j * (th + 2.0 * np.pi * k / 3.0))
                 for k in range(3)]
    seeds, reject_gaps = [], []
    for z in roots:
        if not _in_closed_region(surface, z, 1e-9):
            continue
        gap = abs(complex(branch_product(z, surface.alpha)) - p2)
        # relative to the ball: near the branch point every sheet's p2
        # is tiny, and an absolute test would take a nearby sheet for
        # this one
        if gap <= 1e-7 * r_max:
            seeds.append(complex(z))
        else:
            reject_gaps.append(gap)
    if any(g < 2.0 * r_max for g in reject_gaps):
        raise ValueError("radius too large: a different sheet of the "
                         "surface passes within reach of the ball")
    return seeds


def _gap_and_area(surface, z, p, ok):
    """Distance of the image from p and the area element on the mask ok,
    from one fused evaluation; an infinite gap and 0 elsewhere."""
    gap = np.full(z.shape, np.inf)
    dens = np.zeros(z.shape)
    if np.any(ok):
        pts, dens[ok] = _image_and_area(z[ok], surface.alpha)
        gap[ok] = np.linalg.norm(pts - p, axis=1)
    return gap, dens


def _member(surface, z, p, r):
    """Inside the region and the image within r of p."""
    return _gap_and_area(surface, z, p, surface.contains(z))[0] < r


# membership probes around a cell centre, in half-widths, the four
# corners first; the centre is decided from its own evaluation, which
# also gives the Lipschitz data
_PROBES = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 1 + 0j, -1 + 0j,
                    1j, -1j])
_MIDS = 0.5 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


def _meets_box(surface, cz, hw):
    """Keep the cells whose closed square meets the region's open
    bounding box 0 < x < x_max, |y| < cap_radius; the others hold no
    region point, so they add no mass at any depth."""
    keep = ((cz.real + hw > 0.0) & (cz.real - hw < surface.x_max)
            & (np.abs(cz.imag) - hw < surface.cap_radius))
    return cz[keep], hw[keep]


def _quadtree_mass(surface, center, w, p, r):
    # Start from cells no larger than the preimage blob (radius about
    # r over the root of the area element), so a component strictly
    # inside the box cannot slip between the probes of a single cell.
    j0 = area_density(center, surface.alpha)
    side = max(2, int(np.ceil(w * np.sqrt(max(j0, 1e-12)) / r)))
    g = (np.arange(side) + 0.5) * 2.0 / side - 1.0
    cz = (center + w * (g[:, None] + 1j * g[None, :])).ravel()
    hw = np.full(cz.size, w / side)
    cz, hw = _meets_box(surface, cz, hw)
    mass = 0.0
    for _ in range(QUADTREE_DEPTH):
        # the slit, where the product is undefined, gets an infinite gap
        gap, dens = _gap_and_area(surface, cz, p,
                                  (cz.real > 0.0) | (cz.imag != 0.0))
        probes = cz[:, None] + hw[:, None] * _PROBES[None, :]
        m = _member(surface, probes, p, r)
        n_in = m.sum(axis=1) + (surface.contains(cz) & (gap < r))
        full = n_in == len(_PROBES) + 1
        if np.any(full):
            zs = cz[full, None] + hw[full, None] * _MIDS[None, :]
            J = area_density(zs.ravel(), surface.alpha).reshape(zs.shape)
            mass += float((J.mean(axis=1) * (2.0 * hw[full]) ** 2).sum())
        # drop a cell only when a Lipschitz bound proves its image
        # stays clear of the ball; probes alone are not a proof
        reach = 1.5 * np.sqrt(np.maximum(dens, 1e-12) * 2.0) * hw
        empty = (n_in == 0) & (gap > r + reach)
        mixed = ~full & ~empty
        if not np.any(mixed):
            return mass
        cz = (cz[mixed, None] + hw[mixed, None] * _MIDS[None, :]).ravel()
        hw = np.repeat(0.5 * hw[mixed], 4)
        cz, hw = _meets_box(surface, cz, hw)
    return mass + _leaf_mass(surface, cz, hw, p, r)


def _cut_fraction(gap, gx, gy, hw, r):
    """Exact share of the square |dx|, |dy| <= hw where the linearized
    gap + gx dx + gy dy stays below r.

    gx dx + gy dy, shifted by (a + b)/2, is the sum of two uniform
    variables on [0, a] and [0, b], a >= b being the two edge reaches.
    Its distribution function is symmetric about (a + b)/2: it rises
    quadratically over [0, b] and linearly from there to the middle.
    The lower half is written without a division by b, and the upper
    half as its complement, so the share is exactly 0 or 1 once
    |r - gap| passes the reach (a + b)/2, and stays exact as b or a
    goes to 0.
    """
    sx, sy = 2.0 * hw * np.abs(gx), 2.0 * hw * np.abs(gy)
    a, b = np.maximum(sx, sy), np.minimum(sx, sy)
    d = r - gap
    u = np.maximum(0.5 * (a + b) - np.abs(d), 0.0)
    m = np.minimum(u, b)
    low = (0.5 * m * np.divide(m, b, out=np.zeros_like(m), where=b > 0.0)
           + np.maximum(u - b, 0.0))
    low = np.divide(low, a, out=np.zeros_like(low), where=a > 0.0)
    return np.where(d > 0.0, 1.0 - low, low)


def _leaf_mass(surface, cz, hw, p, r):
    """Mass of the cells left over at the last depth.

    A cell whose four corners lie inside the convex region lies wholly
    inside it. Its gap |F - p| is linearized at the centre from one
    evaluation of (g, g'): with c = conj(z^3 - p1) 3 z^2 + conj(g - p2) g',
    the gradient is (Re c, -Im c) / gap. The cell's mass is the area
    element at the centre times the exact area of the square on the side
    gap < r of that line. Cells the region boundary crosses keep a
    membership-weighted 4x4 subsample.
    """
    corners = cz[:, None] + hw[:, None] * _PROBES[None, :4]
    inner = surface.contains(corners).all(axis=1)
    z, h = cz[inner], hw[inner]
    g, gp = branch_product_and_prime(z, surface.alpha)
    f1 = z ** 3 - complex(p[0], p[1])
    f2 = g - complex(p[2], p[3])
    gap = np.hypot(np.abs(f1), np.abs(f2))
    c = np.conj(f1) * 3.0 * z * z + np.conj(f2) * gp
    # at gap = 0 the centre maps onto p and the linear part vanishes
    c = np.divide(c, gap, out=np.zeros_like(c), where=gap > 0.0)
    J = 9.0 * np.abs(z) ** 4 + np.abs(gp) ** 2
    frac = _cut_fraction(gap, c.real, -c.imag, h, r)
    mass = float((J * frac * (2.0 * h) ** 2).sum())
    cross = ~inner
    t = (np.arange(4) + 0.5) / 2.0 - 1.0
    offs = (t[:, None] + 1j * t[None, :]).ravel()
    zs = cz[cross, None] + hw[cross, None] * offs[None, :]
    gap, dens = _gap_and_area(surface, zs, p, surface.contains(zs))
    J = np.where(gap < r, dens, 0.0)
    return mass + float((J.mean(axis=1) * (2.0 * hw[cross]) ** 2).sum())


def _component_mass(surface, seed, p, r):
    j0 = area_density(seed, surface.alpha)
    w = 4.0 * r / np.sqrt(j0) if j0 > 1e-12 else 2.0 * r ** (1.0 / 3.0)
    s = np.linspace(-1.0, 1.0, 17)
    rim_unit = np.concatenate([s + 1j, s - 1j, 1 + 1j * s, -1 + 1j * s])
    for _ in range(8):
        if not np.any(_member(surface, seed + w * rim_unit, p, r)):
            break
        w *= 1.6
    else:
        raise ValueError("ball preimage keeps escaping its bounding box")
    return _quadtree_mass(surface, seed, w, p, r)


def density_at(surface, point, radii) -> DensityReport:
    """Mass ratio mass(B_r)/(pi r^2) per radius with an r -> 0 limit.

    The limit estimate is the intercept of a linear fit in r, since
    the leading finite-radius correction at both regular and boundary
    points is first order. Radii must stay below the separation of
    other sheets over the same cube coordinate; that is enforced.
    """
    p = np.asarray(point, dtype=float).ravel()
    if p.size != 4:
        raise ValueError("point must have 4 coordinates")
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    p1, p2 = complex(p[0], p[1]), complex(p[2], p[3])
    seeds = _preimage_seeds(surface, p1, p2, float(radii.max()))
    if not seeds:
        raise ValueError("point is not on the surface within tolerance")
    # near the branch point the image triple-wraps; unless that is the
    # point being measured, the ball must not reach it
    if not any(abs(s) < 1e-12 for s in seeds):
        if 2.0 * float(radii.max()) > float(np.linalg.norm(p)):
            raise ValueError("radius too large: the ball reaches the "
                             "image of the branch point")
    ratios = np.empty(radii.shape)
    for k, r in enumerate(radii):
        mass = sum(_component_mass(surface, s, p, float(r)) for s in seeds)
        ratios[k] = mass / (np.pi * r * r)
    if radii.size >= 2:
        extrap = float(np.polyfit(radii, ratios, 1)[1])
    else:
        extrap = float(ratios[0])
    return DensityReport(radii=radii, ratios=ratios,
                         extrapolated=extrap, seeds=np.array(seeds))


# ---------------------------------------------------------------------------
# the two-circles reference configuration


@dataclass
class TwoCirclesReport:
    exact: float
    radii: np.ndarray
    ratios: np.ndarray
    location: str


def _disk_overlap(big_r, d, r):
    """Area of disk(0, big_r) meeting disk(center at distance d, r)."""
    if d >= big_r + r:
        return 0.0
    if d <= abs(big_r - r):
        return np.pi * min(big_r, r) ** 2
    a = np.clip((d * d + big_r * big_r - r * r) / (2.0 * d * big_r), -1, 1)
    b = np.clip((d * d + r * r - big_r * big_r) / (2.0 * d * r), -1, 1)
    k = ((-d + r + big_r) * (d + r - big_r)
         * (d - r + big_r) * (d + r + big_r))
    return (big_r * big_r * np.arccos(a) + r * r * np.arccos(b)
            - 0.5 * np.sqrt(max(k, 0.0)))


def two_circles_density(r_inner: float, r_outer: float, point=None,
                        radii=None) -> TwoCirclesReport:
    """Density of two stacked disks spanning concentric circles.

    The minimizer for the doubled boundary is the two flat disks on
    top of each other, so the mass in a ball is an exact sum of two
    circle-circle overlaps. At a point of the inner circle the inner
    disk contributes a half plane and the outer disk a full one: the
    ratio tends to 3/2 (from below: both disks are convex).
    """
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    rho = abs(complex(point)) if point is not None else r_inner
    if radii is None:
        radii = r_inner * np.geomspace(0.1, 0.005, 10)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    mass = np.array([_disk_overlap(r_inner, rho, r)
                     + _disk_overlap(r_outer, rho, r) for r in radii])
    ratios = mass / (np.pi * radii ** 2)
    tol = 1e-9 * r_inner
    if rho < r_inner - tol:
        exact, loc = 2.0, "inside inner disk"
    elif abs(rho - r_inner) <= tol:
        exact, loc = 1.5, "on inner circle"
    elif rho < r_outer - tol:
        exact, loc = 1.0, "between circles"
    elif abs(rho - r_outer) <= tol:
        exact, loc = 0.5, "on outer circle"
    else:
        exact, loc = 0.0, "outside"
    return TwoCirclesReport(exact=exact, radii=radii, ratios=ratios,
                            location=loc)
