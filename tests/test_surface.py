"""Branched surface, boundary embedding certificate, and density probes."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from qhalf import surface as surface_mod
from qhalf.cli import list_presets
from qhalf.holomorphic import find_zeros_numeric
from qhalf.surface import (_CORNERS, CAP_RADIUS, FILLET, STRAIGHT_X, TAU,
                           X_MAX, BranchedSurface, _cut_fraction,
                           _gap_and_area, _meets_box, _member, _top_profile,
                           area_density, build_surface, density_at,
                           surface_image, two_circles_density)

# value of the product at 0.7 + 0.2i, frozen from high-precision
# evaluation (same point as in the holomorphic tests)
G_AT_P = 0.019133197544892224165 + 0.0026486411817210529721j


# ---------------------------------------------------------------------------
# boundary embedding certificate
#
# The image of the boundary curve is embedded. Uniform samples in
# arclength are paired by position, and nearby nonadjacent pairs are
# polished by local minimization. The segment portion is covered by the
# strict monotonicity of Im z^3 = -y^3 along it: the image curve
# flattens at the origin, so a sampling scan alone could never resolve
# that pinch. No preset runs this scan: a self-touching boundary would
# show in the density ratios themselves, far from 1/2.


def _piece_lengths():
    f, tau, x = FILLET, TAU, STRAIGHT_X
    return np.array([2.0 * tau, 0.5 * np.pi * f, x - f,
                     np.pi * CAP_RADIUS, x - f, 0.5 * np.pi * f])


def boundary_length():
    return float(_piece_lengths().sum())


def boundary_point(t):
    """Arclength parametrization, clockwise from -TAU i (up the segment)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t) % boundary_length()
    cum = np.concatenate([[0.0], np.cumsum(_piece_lengths())])
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, 5)
    s = t - cum[idx]
    f, tau, x = FILLET, TAU, STRAIGHT_X
    cap = CAP_RADIUS
    z = np.empty(t.shape, dtype=complex)
    m = idx == 0
    z[m] = 1j * (s[m] - tau)
    m = idx == 1
    th = np.pi - s[m] / f
    z[m] = f + f * np.cos(th) + 1j * (tau + f * np.sin(th))
    m = idx == 2
    z[m] = f + s[m] + 1j * cap
    m = idx == 3
    th = 0.5 * np.pi - s[m] / cap
    z[m] = x + cap * np.cos(th) + 1j * cap * np.sin(th)
    m = idx == 4
    z[m] = x - s[m] - 1j * cap
    m = idx == 5
    th = -0.5 * np.pi - s[m] / f
    z[m] = f + f * np.cos(th) + 1j * (-tau + f * np.sin(th))
    return complex(z[0]) if scalar else z


@dataclass
class DoublePointRecord:
    n: int
    image: np.ndarray
    z_boundary: complex
    z_interior: complex
    rotation_error: float
    image_error: float


@dataclass
class BoundaryScan:
    t: np.ndarray
    points: np.ndarray
    near_pairs: list
    collisions: list
    segment_monotone: bool
    double_points: list


def _double_point_records(n):
    """The two touching points of ring n: both preimages located
    numerically, and the rotation relation between them measured."""
    ring = np.exp(n * np.pi)
    zeros, _ = find_zeros_numeric(0.6 * ring, 1.7 * ring)
    z_bot, z_m30, z_p30, z_top = zeros
    rot = np.exp(2j * np.pi / 3)
    recs = []
    for z1, z2, w in ((z_bot, z_p30, rot), (z_top, z_m30, np.conj(rot))):
        img = surface_image(z1)
        recs.append(DoublePointRecord(
            n=n, image=img, z_boundary=complex(z1), z_interior=complex(z2),
            rotation_error=float(abs(z2 - w * z1)),
            image_error=float(np.linalg.norm(
                img - surface_image(z2)))))
    return recs


def _refine_pair(t0, s0):
    length = boundary_length()

    def gap(v):
        a, b = surface_image(boundary_point(v))
        return float(np.linalg.norm(a - b))

    res = minimize(gap, [t0, s0], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 500})
    ta, tb = float(res.x[0]) % length, float(res.x[1]) % length
    dt = abs(ta - tb)
    return float(res.fun), ta, tb, min(dt, length - dt)


def boundary_curve(samples=12000, collision_tol=1e-8):
    """Sample the image of the boundary and certify it is embedded.

    Nonadjacent sample pairs closer than ten local spacings are refined
    by minimizing the true image distance; a refined pair closer than
    collision_tol is a collision. Pairs within 0.15 of arclength are
    skipped: off the segment the image speed is bounded below, so short
    arcs cannot return, and segment-segment pairs are certified at any
    distance by the strict monotonicity of the first coordinate. The
    zeros of rings 0 and -1 on the segment are certified as touching
    points of the surface.
    """
    length = boundary_length()
    t = (np.arange(samples) + 0.5) * (length / samples)
    z = boundary_point(t)
    pts = surface_image(z)

    on_seg = z.real == 0.0
    segment_monotone = bool(np.all(np.diff(pts[on_seg, 1]) < 0.0))

    spacing = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
    pairs = cKDTree(pts).query_pairs(10.0 * float(spacing.max()),
                                     output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dt = np.abs(t[i] - t[j])
    dt = np.minimum(dt, length - dt)
    pairs = pairs[(dt > 0.15) & ~(on_seg[i] & on_seg[j])]

    # one representative pair per parameter-window cluster
    best = {}
    dist = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    for (a, b), d in zip(pairs, dist):
        key = (round(t[a] / 0.1), round(t[b] / 0.1))
        if key not in best or d < best[key][0]:
            best[key] = (d, t[a], t[b])

    near_pairs, collisions = [], []
    for _, ta, tb in best.values():
        d, ra, rb, sep = _refine_pair(ta, tb)
        if sep <= 0.15:
            continue  # slid together along the curve: not a distinct pair
        near_pairs.append((ra, rb, d))
        if d < collision_tol:
            collisions.append((ra, rb, d))
    doubles = _double_point_records(0) + _double_point_records(-1)
    return BoundaryScan(t=t, points=pts, near_pairs=near_pairs,
                        collisions=collisions,
                        segment_monotone=segment_monotone,
                        double_points=doubles)


@pytest.fixture(scope="module")
def surf():
    return build_surface()


@pytest.fixture(scope="module")
def scan():
    return boundary_curve()


def test_grid_inside_positive_density(surf):
    # cell-centred lattice over the bounding box: no node on the axis or
    # at the origin, where the area element vanishes
    h = 0.02
    xs = np.arange(0.5 * h, X_MAX, h)
    ys = np.arange(-CAP_RADIUS + 0.5 * h, CAP_RADIUS, h)
    gx, gy = np.meshgrid(xs, ys)
    nodes = (gx + 1j * gy).ravel()
    nodes = nodes[surf.contains(nodes)]
    assert nodes.size > 10000
    assert np.all(area_density(nodes) > 0.0)


def test_boundary_point_geometry(surf):
    length = boundary_length()
    f, tau, x = FILLET, TAU, STRAIGHT_X
    expected_length = 2 * tau + np.pi * f + 2 * (x - f) + np.pi * (tau + f)
    assert np.isclose(length, expected_length, rtol=1e-14)
    assert np.isclose(boundary_point(0.0), -1j * tau)
    # the origin lies on the segment at arclength tau
    assert abs(boundary_point(tau)) < 1e-14
    # apex of the cap
    t_apex = 2 * tau + 0.5 * np.pi * f + (x - f) + 0.5 * np.pi * (tau + f)
    assert np.isclose(boundary_point(t_apex), X_MAX, atol=1e-12)
    # closed curve, unit speed everywhere
    assert np.isclose(boundary_point(length), boundary_point(0.0))
    t = np.linspace(0.1, length - 0.1, 400)
    dt = 1e-6
    speed = np.abs(boundary_point(t + dt)
                   - boundary_point(t - dt)) / (2 * dt)
    assert np.allclose(speed, 1.0, atol=1e-5)
    # the curve runs clockwise along the region's edge: a step to its
    # right lands inside, a step to its left outside
    z = boundary_point(t)
    right = -1j * (boundary_point(t + dt) - z) / dt
    assert np.all(surf.contains(z + 1e-7 * right))
    assert not np.any(surf.contains(z - 1e-7 * right))


def where_top_profile(x, tau, fillet):
    """Both arcs over every x, then selected by np.where."""
    x = np.asarray(x, dtype=float)
    cap_r = tau + fillet
    with np.errstate(invalid="ignore"):
        fillet_y = tau + np.sqrt(np.maximum(fillet ** 2 - (x - fillet) ** 2,
                                            0.0))
        cap_y = np.sqrt(np.maximum(cap_r ** 2 - (x - STRAIGHT_X) ** 2, 0.0))
    return np.where(x <= fillet, fillet_y,
                    np.where(x <= STRAIGHT_X, cap_r, cap_y))


def test_top_profile_matches_where_form():
    x = np.concatenate([
        [-0.3, -1e-12, 0.0, 0.5 * FILLET, FILLET,
         np.nextafter(FILLET, 1.0), 1.0, STRAIGHT_X,
         np.nextafter(STRAIGHT_X, 9.0), STRAIGHT_X + 0.7,
         X_MAX, X_MAX + 0.2, 5.0],
        np.linspace(-0.5, X_MAX + 0.5, 997)])
    for arr in (x, x.reshape(10, 101)):
        assert np.array_equal(_top_profile(arr),
                              where_top_profile(arr, TAU, FILLET))
    for x0 in x[:13]:
        got = _top_profile(x0)
        assert got.ndim == 0
        assert got == where_top_profile(x0, TAU, FILLET)


def test_contains_samples(surf):
    inside = [0.5 + 1.39j, 0.05 + 1.3j, 2.9 + 0.0j, 1.6 - 1.39j, 0.01 + 0.0j]
    outside = [0.5 + 1.41j, 0.05 + 1.35j, 3.01 + 0.0j, -0.1 + 0.5j,
               0.0 + 1.0j, 1.6 + 1.5j]
    assert np.all(surf.contains(np.array(inside)))
    assert not np.any(surf.contains(np.array(outside)))


def test_image_and_area_element():
    z0 = 0.7 + 0.2j
    img = surface_image(z0)
    assert img.shape == (4,)
    assert np.allclose(img[:2], [0.259, 0.286], rtol=1e-12)
    assert np.allclose(img[2:], [G_AT_P.real, G_AT_P.imag], rtol=1e-12)
    assert area_density(0.0) == 0.0
    # the area element is the squared speed of the map in any direction
    h = 1e-6
    for z in (z0, 2.0 + 0.5j, 0.3 - 0.9j):
        fd = (surface_image(z + h) - surface_image(z - h)) / (2 * h)
        assert np.isclose(np.sum(fd ** 2), area_density(z), rtol=1e-4)


def test_boundary_scan_clean(scan):
    assert scan.points.shape == (len(scan.t), 4)
    assert len(scan.t) >= 10000
    assert scan.segment_monotone
    assert scan.collisions == []
    # any refined nonadjacent pair must stay far above collision scale
    for _, _, d in scan.near_pairs:
        assert d > 1e-4


def test_double_points_certified(surf, scan):
    recs = scan.double_points
    assert sorted({r.n for r in recs}) == [-1, 0]
    assert len(recs) == 4
    for rec in recs:
        assert rec.rotation_error < 1e-12
        assert rec.image_error < 1e-10
        assert abs(rec.z_boundary.real) < 1e-10
        # one preimage interior, the mate on the closed segment
        assert surf.contains(rec.z_interior)
        assert abs(rec.z_boundary.imag) < TAU
    bottom = [r for r in recs if r.n == 0 and r.z_boundary.imag < 0][0]
    assert np.allclose(bottom.image, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_density_interior_is_one(surf):
    p = surface_image(0.9 + 0.3j)
    rep = density_at(surf, p, np.array([0.10, 0.07, 0.05, 0.035]))
    assert len(rep.seeds) == 1
    assert abs(rep.extrapolated - 1.0) < 0.01


def test_density_boundary_is_half(surf):
    p = surface_image(0.75j)
    rep = density_at(surf, p, np.array([0.10, 0.07, 0.05, 0.035]))
    assert abs(rep.extrapolated - 0.5) < 0.01
    # finite-radius ratios approach the limit from below here
    order = np.argsort(rep.radii)
    assert np.all(np.diff(rep.ratios[order]) <= 0.01 * rep.extrapolated)


def test_density_double_point_is_three_halves(surf):
    p = np.array([0.0, 1.0, 0.0, 0.0])
    rep = density_at(surf, p, np.array([0.10, 0.07, 0.05, 0.035]))
    assert len(rep.seeds) == 2
    assert abs(rep.extrapolated - 1.5) < 0.02
    order = np.argsort(rep.radii)
    assert np.all(np.diff(rep.ratios[order]) <= 0.01 * rep.extrapolated)


def test_density_double_point_second_ring(surf):
    # the touching point from the e^{-pi} zero ring; radii must stay
    # below its tiny distance to the branch point image
    s3 = np.exp(-3.0 * np.pi)
    p = np.array([0.0, -s3, 0.0, 0.0])
    rep = density_at(surf, p, np.array([2.0e-5, 1.4e-5, 1.0e-5, 7.0e-6]))
    assert len(rep.seeds) == 2
    assert abs(rep.extrapolated - 1.5) < 0.05


def test_density_floor_on_boundary(surf):
    # sampled boundary points: cap apex, horizontal, segment
    radii = np.array([0.08, 0.05])
    for z in (3.0 + 0.0j, 1.0 + 1.4j, 0.55j):
        rep = density_at(surf, surface_image(z), radii)
        assert rep.extrapolated > 0.49


def test_density_validation(surf):
    with pytest.raises(ValueError):
        density_at(surf, np.zeros(3), np.array([0.05]))
    with pytest.raises(ValueError):
        density_at(surf, np.zeros(4), np.array([-0.05]))
    with pytest.raises(ValueError):
        density_at(surf, np.array([5.0, 5.0, 5.0, 5.0]), np.array([0.05]))
    # ball reaching the branch point image is refused
    s3 = np.exp(-3.0 * np.pi)
    with pytest.raises(ValueError):
        density_at(surf, np.array([0.0, -s3, 0.0, 0.0]), np.array([1e-3]))


def test_preimage_test_scales_with_the_ball(surf):
    # Near the branch point every sheet's second coordinate is tiny. At
    # z = 0.02i another sheet passes 9.6e-8 from p2, within reach of a
    # ball of radius 8e-7 but not through p: the radius must be refused,
    # not the sheet counted as a second preimage (which read density
    # 1.435 at this regular point).
    def radii(p):
        return 0.1 * np.linalg.norm(p) * np.array([1.0, 0.7])

    p = surface_image(0.02j)
    with pytest.raises(ValueError, match="different sheet"):
        density_at(surf, p, radii(p))
    p = surface_image(0.06j)
    rep = density_at(surf, p, radii(p))
    assert len(rep.seeds) == 1
    assert abs(rep.extrapolated - 0.5) < 0.01


def test_branch_point_density_between_wraps(surf):
    # at the branch point itself the three sheets merge over the half
    # plane; at moderate radii the flat factor still adds area, so the
    # ratio sits between the limit 3/2 and the full triple wrap 3
    rep = density_at(surf, np.zeros(4), np.array([0.02, 0.012]))
    assert len(rep.seeds) == 1 and rep.seeds[0] == 0.0
    assert np.all(rep.ratios > 1.4)
    assert np.all(rep.ratios < 3.1)


# double point, segment boundary point, interior point, and the
# theta-floor points on the cap apex and the top horizontal
PRUNE_CASES = [(np.array([0.0, 1.0, 0.0, 0.0]), 0.07),
               (0.75j, 0.05), (0.9 + 0.3j, 0.05), (3.0 + 0.0j, 0.08),
               (1.0 + 1.4j, 0.05)]


@pytest.mark.parametrize("point, r", PRUNE_CASES,
                         ids=["double", "segment", "interior", "cap", "top"])
def test_box_prune_keeps_ratios_bit_equal(surf, monkeypatch, point, r):
    # Reference: the quadtree with a box test that keeps every cell.
    # Cells outside the region's box hold no region point, so dropping
    # them must leave the ratio unchanged to the last bit.
    p = point if np.ndim(point) else surface_image(point)
    radii = np.array([r])
    pruned = density_at(surf, p, radii).ratios
    monkeypatch.setattr(surface_mod, "_meets_box", lambda cz, hw: (cz, hw))
    assert np.all(density_at(surf, p, radii).ratios == pruned)


def test_box_prune_skips_cells_outside_the_region(surf, monkeypatch):
    # At a segment point half of every box lies at x < 0, where the
    # continued product gives no Lipschitz drop; the unpruned tree hands
    # 554,692 points to contains, the pruned one 20,332.
    calls = []
    contains = BranchedSurface.contains

    def counting(self, z):
        calls.append(np.size(z))
        return contains(self, z)

    monkeypatch.setattr(BranchedSurface, "contains", counting)
    rep = density_at(surf, surface_image(0.75j), np.array([0.05]))
    assert sum(calls) < 100_000
    assert rep.ratios[0] == pytest.approx(0.4909272556217036, rel=1e-12)


_SURF = build_surface()
_ANCHORS = {"segment": 0.5j, "origin": 0j,
            "cap end": complex(X_MAX, 0.0),
            "top edge": complex(1.0, CAP_RADIUS),
            "fillet": complex(0.0, CAP_RADIUS)}
# centre offsets in half-widths; dyadic ones put a cell edge exactly on
# a box edge (x = 0, x = X_MAX, y = +-CAP_RADIUS)
_UNITS = st.one_of(st.integers(-24, 24).map(lambda k: k / 16.0),
                   st.floats(-1.5, 1.5, allow_nan=False))
_HALF_WIDTH = st.one_of(st.integers(-12, 0).map(lambda k: 2.0 ** k),
                        st.floats(1e-6, 0.5, allow_nan=False))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_ANCHORS)), _UNITS, _UNITS, _HALF_WIDTH,
       st.booleans())
def test_dropped_cells_hold_no_region_point(anchor, u, v, hw, flip):
    # A cell the box test drops must hold no point of the open region:
    # a 9x9 grid over its closed square, corners included, finds none.
    c = _ANCHORS[anchor] + hw * complex(u, v)
    if flip:
        c = c.conjugate()
    kept, _ = _meets_box(np.array([c]), np.array([hw]))
    if kept.size:
        return
    t = np.linspace(-1.0, 1.0, 9)
    grid = c + hw * (t[:, None] + 1j * t[None, :])
    assert not np.any(_SURF.contains(grid))


def _subsample_leaf_mass(surface, cz, hw, p, r):
    """The zeroth-order leaf rule: every leftover cell's mass from a
    membership-weighted 4x4 subsample of its square."""
    g = (np.arange(4) + 0.5) / 2.0 - 1.0
    offs = (g[:, None] + 1j * g[None, :]).ravel()
    zs = cz[:, None] + hw[:, None] * offs[None, :]
    gap, dens = _gap_and_area(zs, p, surface.contains(zs))
    J = np.where(gap < r, dens, 0.0)
    return float((J.mean(axis=1) * (2.0 * hw) ** 2).sum())


def _density_suite_cases():
    cfg = dict(list_presets())["density-suite"]
    cases = [(surface_image(complex(*pt["z"])), pt["radii"])
             for pt in cfg["points"]]
    return cases + [(p if np.ndim(p) else surface_image(p), [r])
                    for p, r in PRUNE_CASES]


def test_leaf_rule_agrees_with_the_subsample(surf, monkeypatch):
    # Every density-suite and PRUNE_CASES ratio under the linearized
    # leaf rule against the 4x4 subsample it replaced: the two rules
    # differ by far less than the 0.03-0.05 tolerances of the checks.
    cases = _density_suite_cases()
    assert len(cases) == 11
    new = [density_at(surf, p, np.array(radii)).ratios for p, radii in cases]
    monkeypatch.setattr(surface_mod, "_leaf_mass", _subsample_leaf_mass)
    for (p, radii), ratios in zip(cases, new):
        ref = density_at(surf, p, np.array(radii)).ratios
        assert np.max(np.abs(ratios - ref)) < 5e-5


def test_decided_cells_agree_with_the_subsample(surf, monkeypatch):
    # Every cell the depth loop decides for a density-suite or PRUNE_CASES
    # ratio: a 9x9 membership grid over its closed square lies wholly in
    # the ball's preimage when the cell counts full, and misses it wholly
    # when the cell is dropped.
    classify, decided = surface_mod._classify, []

    def recording(surface, cz, hw, p, r):
        full, mixed = classify(surface, cz, hw, p, r)
        decided.append((cz, hw, p, r, full, ~full & ~mixed))
        return full, mixed

    monkeypatch.setattr(surface_mod, "_classify", recording)
    for p, radii in _density_suite_cases():
        density_at(surf, p, np.array(radii))
    t = np.linspace(-1.0, 1.0, 9)
    grid = (t[:, None] + 1j * t[None, :]).ravel()
    counts = np.zeros(2, dtype=int)
    for cz, hw, p, r, full, empty in decided:
        for k, (cells, want) in enumerate(((full, True), (empty, False))):
            zs = cz[cells, None] + hw[cells, None] * grid[None, :]
            assert np.all(_member(surf, zs, p, r) == want)
            counts[k] += cells.sum()
    assert np.all(counts > 1000)


def _polygon_cut_area(gap, gx, gy, hw, r):
    """Area of the square |dx|, |dy| <= hw on the side gap + gx dx + gy dy
    < r: the square clipped by the half-plane, then the shoelace area."""
    square = [(hw, hw), (-hw, hw), (-hw, -hw), (hw, -hw)]

    def level(v):
        return r - gap - gx * v[0] - gy * v[1]

    poly = []
    for k, v in enumerate(square):
        w = square[(k + 1) % 4]
        lv, lw = level(v), level(w)
        if lv > 0.0:
            poly.append(v)
        if (lv > 0.0) != (lw > 0.0):
            t = lv / (lv - lw)
            poly.append((v[0] + t * (w[0] - v[0]), v[1] + t * (w[1] - v[1])))
    area = 0.0
    for k, v in enumerate(poly):
        w = poly[(k + 1) % len(poly)]
        area += v[0] * w[1] - w[0] * v[1]
    return 0.5 * abs(area)


_SLOPES = st.one_of(st.just(0.0), st.floats(-50.0, 50.0, allow_nan=False))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), _SLOPES, _SLOPES,
       st.floats(1e-4, 0.5), st.floats(1e-3, 2.0))
@example(0.3, 0.0, 3.0, 0.1, 0.4)     # d/dx = 0
@example(0.3, -2.0, 0.0, 0.1, 0.35)   # d/dy = 0
@example(0.3, 0.0, 0.0, 0.1, 0.4)     # both 0, inside: 1
@example(0.3, 0.0, 0.0, 0.1, 0.2)     # both 0, outside: 0
@example(0.0, 1.0, -2.0, 0.1, 0.05)   # gap 0
@example(1.5, 1.0, 1.0, 0.1, 0.2)     # beyond the reach: 0
@example(0.2, 1.0, 1.0, 0.1, 1.5)     # beyond the reach: 1
def test_cut_fraction_is_the_exact_clipped_area(gap, gx, gy, hw, r):
    got = float(_cut_fraction(gap, gx, gy, hw, r))
    want = _polygon_cut_area(gap, gx, gy, hw, r) / (2.0 * hw) ** 2
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # past the cell's reach the share is exactly 0 or 1, with or
    # without slopes
    reach = hw * (abs(gx) + abs(gy)) * (1.0 + 1e-12)
    if r - gap > reach:
        assert got == 1.0
    if r - gap < -reach:
        assert got == 0.0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_ANCHORS)), _UNITS, _UNITS, _HALF_WIDTH,
       st.booleans())
def test_cells_with_inside_corners_lie_inside(anchor, u, v, hw, flip):
    # The region is convex, so a square whose four corners lie inside
    # it lies wholly inside: the leaf rule integrates such a cell
    # without membership tests.
    c = _ANCHORS[anchor] + hw * complex(u, v)
    if flip:
        c = c.conjugate()
    if not np.all(_SURF.contains(c + hw * _CORNERS)):
        return
    t = np.linspace(-1.0, 1.0, 9)
    assert np.all(_SURF.contains(c + hw * (t[:, None] + 1j * t[None, :])))


def test_two_circles_on_inner_circle():
    rep = two_circles_density(1.0, 2.5)
    assert rep.exact == 1.5
    assert rep.location == "on inner circle"
    # closed form: overlap of a half plane plus a full disk
    model = 1.5 - rep.radii / (3.0 * np.pi * 1.0)
    assert np.allclose(rep.ratios, model, atol=1e-4)
    assert abs(rep.ratios[0] - 1.5) < 0.015
    order = np.argsort(rep.radii)
    assert np.all(np.diff(rep.ratios[order]) <= 1e-12)


def test_two_circles_validation():
    with pytest.raises(ValueError):
        two_circles_density(2.0, 1.0)
