"""Branched surface from the flat product, and its mass density ratios.

The map z -> (z^3, g(z)) at alpha = 1/2 takes one fixed rounded
half-stadium region in the right half-plane to a surface in R^4. Both
components are holomorphic, so the area element is 9|z|^4 + |g'(z)|^2
and the image is minimal.
The region's shape is the constants TAU, FILLET, STRAIGHT_X and
CAP_RADIUS. The straight part of its boundary is the segment
[-TAU i, TAU i] of the imaginary axis, long enough to contain the
product zeros z1 = -i e^{n pi} of moduli 1 and e^{-pi}; each
pairs with the interior zero z2 = e^{2 pi i/3} z1 at the same cube, so
the surface touches its own boundary there and the density jumps to
3/2 (a boundary half-sheet plus an interior sheet).

Density at a point of the image is measured the way it is defined:
mass of the part of the surface inside a small ball, over pi r^2. The
preimage of the ball is integrated by an adaptive quadtree per
component, components being seeded at the cube roots of the first
coordinate.

The image and the area element come from one fused evaluation of
(g, g') per point. The region is convex (the segment, two fillet arcs,
two horizontals and the cap arc bound it, and its upper edge is a
concave function of x), so a cell whose four corners lie inside lies
wholly inside. The quadtree decides each cell from the gap |F - p| at
its centre and the Lipschitz reach of its image: past r + reach it is
dropped, short of r - reach with its corners inside it counts full,
and otherwise it is split. Cells whose closed square misses the
region's bounding box are dropped as well; the continued product there
gives no Lipschitz reason to. Cells undecided at the last depth go to a
second-order leaf rule: a cell with its corners inside takes the area
element at its centre times the exact share of the square on the near
side of the linearized gap, the closed distribution function of a sum
of two uniform variables; cells the region boundary crosses keep a
membership-weighted 4x4 subsample.

The two-circles configuration (two stacked flat disks spanning
concentric circles) is computed in closed form as a reference: exact
circle-circle overlap areas give the ratio sequence at a point of the
inner circle, converging to 3/2.
"""

import numpy as np
from dataclasses import dataclass

from .holomorphic import branch_product_and_prime

# Subdivision levels of the density quadtree before the leaf rule.
QUADTREE_DEPTH = 8
# Half-length of the boundary segment on the imaginary axis, and the
# radius of the fillet arcs that join it to the horizontal edges.
TAU = 1.2
FILLET = 0.2
# x where the horizontal edges of the region end and its cap begins.
STRAIGHT_X = 1.6
# The cap's radius, the horizontals' height, and the region's right end.
CAP_RADIUS = TAU + FILLET
X_MAX = STRAIGHT_X + CAP_RADIUS


def _image_and_area(z):
    """Image rows and area element from one fused evaluation of (g, g')."""
    g, gp = branch_product_and_prime(z)
    cube = z ** 3
    pts = np.stack([cube.real, cube.imag, g.real, g.imag], axis=-1)
    return pts, 9.0 * np.abs(z) ** 4 + np.abs(gp) ** 2


def surface_image(z):
    """Rows (Re z^3, Im z^3, Re g, Im g); shape (4,) for scalar input."""
    return _image_and_area(np.asarray(z, dtype=complex))[0]


def area_density(z):
    """Area element 9|z|^4 + |g'|^2 of the map, extended by 0 at 0."""
    return _image_and_area(np.asarray(z, dtype=complex))[1]


def _top_profile(x):
    """Upper edge of the region over x; each arc is evaluated only where
    it applies (the fillet for x <= FILLET, the cap past STRAIGHT_X)."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, CAP_RADIUS)
    lo = x <= FILLET
    hi = x > STRAIGHT_X
    out[lo] = TAU + np.sqrt(np.maximum(FILLET ** 2 - (x[lo] - FILLET) ** 2,
                                       0.0))
    out[hi] = np.sqrt(np.maximum(CAP_RADIUS ** 2 - (x[hi] - STRAIGHT_X) ** 2,
                                 0.0))
    return out


class BranchedSurface:
    """Parametrized surface over the rounded half-stadium region.

    The region boundary runs up the imaginary segment [-TAU i, TAU i],
    around fillets of radius FILLET onto horizontals at +-CAP_RADIUS,
    and closes with a semicircular cap of radius CAP_RADIUS centered at
    STRAIGHT_X on the real axis.
    """

    def contains(self, z):
        x, y = np.real(z), np.imag(z)
        return (x > 0.0) & (x < X_MAX) & (np.abs(y) < _top_profile(x))


def build_surface() -> BranchedSurface:
    """The branched surface over the fixed region."""
    return BranchedSurface()


# ---------------------------------------------------------------------------
# density


@dataclass
class DensityReport:
    radii: np.ndarray
    ratios: np.ndarray
    extrapolated: float
    seeds: np.ndarray


def _in_closed_region(z, tol):
    x, y = z.real, z.imag
    if x < -tol or x > X_MAX + tol:
        return False
    return abs(y) <= float(_top_profile(min(max(x, 0.0), X_MAX))) + tol


def _preimage_seeds(p1, p2, r_max):
    if p1 == 0:
        roots = [0j]
    else:
        base = abs(p1) ** (1.0 / 3.0)
        th = np.angle(p1) / 3.0
        roots = [base * np.exp(1j * (th + 2.0 * np.pi * k / 3.0))
                 for k in range(3)]
    seeds, reject_gaps = [], []
    for z in roots:
        if not _in_closed_region(z, 1e-9):
            continue
        gap = abs(branch_product_and_prime(z)[0] - p2)
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


def _gap_and_area(z, p, ok):
    """Distance of the image from p and the area element on the mask ok,
    from one fused evaluation; an infinite gap and 0 elsewhere."""
    gap = np.full(z.shape, np.inf)
    dens = np.zeros(z.shape)
    if np.any(ok):
        pts, dens[ok] = _image_and_area(z[ok])
        gap[ok] = np.linalg.norm(pts - p, axis=1)
    return gap, dens


def _member(surface, z, p, r):
    """Inside the region and the image within r of p."""
    return _gap_and_area(z, p, surface.contains(z))[0] < r


# a cell's corners in half-widths, and the midpoints of its four quarters
_CORNERS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
_MIDS = 0.5 * _CORNERS


def _meets_box(cz, hw):
    """Keep the cells whose closed square meets the region's open
    bounding box 0 < x < X_MAX, |y| < CAP_RADIUS; the others hold no
    region point, so they add no mass at any depth."""
    keep = ((cz.real + hw > 0.0) & (cz.real - hw < X_MAX)
            & (np.abs(cz.imag) - hw < CAP_RADIUS))
    return cz[keep], hw[keep]


def _classify(surface, cz, hw, p, r):
    """Masks of the cells proved full and of those left to split. A cell's
    image stays within reach of its centre's image, and a cell whose four
    corners are inside the convex region lies wholly inside it."""
    # the slit, where the product is undefined, gets an infinite gap
    gap, dens = _gap_and_area(cz, p, (cz.real > 0.0) | (cz.imag != 0.0))
    reach = 1.5 * np.sqrt(np.maximum(dens, 1e-12) * 2.0) * hw
    corners = cz[:, None] + hw[:, None] * _CORNERS[None, :]
    full = (gap + reach < r) & surface.contains(corners).all(axis=1)
    return full, ~full & (gap <= r + reach)


def _quadtree_mass(surface, center, w, p, r):
    # Start from cells no larger than the preimage blob (radius about
    # r over the root of the area element): a start cell's reach is then
    # about 2r, so a level or two of splitting already decides cells.
    j0 = area_density(center)
    side = max(2, int(np.ceil(w * np.sqrt(max(j0, 1e-12)) / r)))
    g = (np.arange(side) + 0.5) * 2.0 / side - 1.0
    cz = (center + w * (g[:, None] + 1j * g[None, :])).ravel()
    hw = np.full(cz.size, w / side)
    cz, hw = _meets_box(cz, hw)
    mass = 0.0
    for _ in range(QUADTREE_DEPTH):
        full, mixed = _classify(surface, cz, hw, p, r)
        if np.any(full):
            zs = cz[full, None] + hw[full, None] * _MIDS[None, :]
            J = area_density(zs.ravel()).reshape(zs.shape)
            mass += float((J.mean(axis=1) * (2.0 * hw[full]) ** 2).sum())
        if not np.any(mixed):
            return mass
        cz = (cz[mixed, None] + hw[mixed, None] * _MIDS[None, :]).ravel()
        hw = np.repeat(0.5 * hw[mixed], 4)
        cz, hw = _meets_box(cz, hw)
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
    corners = cz[:, None] + hw[:, None] * _CORNERS[None, :]
    inner = surface.contains(corners).all(axis=1)
    z, h = cz[inner], hw[inner]
    g, gp = branch_product_and_prime(z)
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
    gap, dens = _gap_and_area(zs, p, surface.contains(zs))
    J = np.where(gap < r, dens, 0.0)
    return mass + float((J.mean(axis=1) * (2.0 * hw[cross]) ** 2).sum())


def _component_mass(surface, seed, p, r):
    j0 = area_density(seed)
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


def check_density_point(point, r_max):
    """Preimage seeds of a point that density_at can measure with balls
    of radius up to r_max; raise ValueError unless the point lies on the
    surface and the ball stays clear of other sheets and of the branch
    point's image (unless it is the point being measured)."""
    p = np.asarray(point, dtype=float).ravel()
    if p.size != 4:
        raise ValueError("point must have 4 coordinates")
    p1, p2 = complex(p[0], p[1]), complex(p[2], p[3])
    seeds = _preimage_seeds(p1, p2, r_max)
    if not seeds:
        raise ValueError("point is not on the surface within tolerance")
    # near the branch point the image triple-wraps
    if not any(abs(s) < 1e-12 for s in seeds):
        if 2.0 * r_max > float(np.linalg.norm(p)):
            raise ValueError("radius too large: the ball reaches the "
                             "image of the branch point")
    return seeds


def density_at(surface, point, radii) -> DensityReport:
    """Mass ratio mass(B_r)/(pi r^2) per radius with an r -> 0 limit.

    The limit estimate is the intercept of a linear fit in r, since
    the leading finite-radius correction at both regular and boundary
    points is first order. Radii must stay below the separation of
    other sheets over the same cube coordinate; check_density_point
    enforces that.
    """
    p = np.asarray(point, dtype=float).ravel()
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    seeds = check_density_point(p, float(radii.max()))
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


def check_two_circles(r_inner: float, r_outer: float):
    """Raise ValueError unless the circles nest: 0 < r_inner < r_outer."""
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")


def two_circles_density(r_inner: float, r_outer: float) -> TwoCirclesReport:
    """Density of two stacked disks spanning concentric circles, at a
    point of the inner circle.

    The minimizer for the doubled boundary is the two flat disks on
    top of each other, so the mass in a ball is an exact sum of two
    circle-circle overlaps. The inner disk contributes a half plane and
    the outer disk a full one: the ratio tends to 3/2 (from below: both
    disks are convex). The ratio does not depend on scale, so the
    overlaps are taken in units of r_inner, where no squared radius
    under- or overflows; the radii are reported times r_inner.
    """
    check_two_circles(r_inner, r_outer)
    radii = np.geomspace(0.1, 0.005, 10)
    mass = np.array([_disk_overlap(1.0, 1.0, r)
                     + _disk_overlap(r_outer / r_inner, 1.0, r)
                     for r in radii])
    ratios = mass / (np.pi * radii ** 2)
    return TwoCirclesReport(exact=1.5, radii=r_inner * radii, ratios=ratios,
                            location="on inner circle")
