"""Branched surface, boundary embedding scan, and density probes."""

import numpy as np
import pytest

from qhalf.surface import (BranchedSurface, _top_profile, area_density,
                           boundary_curve, build_surface, density_at,
                           surface_image, two_circles_density)

# value of the product at 0.7 + 0.2i, frozen from high-precision
# evaluation (same point as in the holomorphic tests)
G_AT_P = 0.019133197544892224165 + 0.0026486411817210529721j


@pytest.fixture(scope="module")
def surf():
    return build_surface()


@pytest.fixture(scope="module")
def scan(surf):
    return boundary_curve(surf)


def test_build_validation():
    with pytest.raises(ValueError):
        build_surface(alpha=0.0)
    with pytest.raises(ValueError):
        build_surface(fillet=1.3, tau=1.2)
    with pytest.raises(ValueError):
        build_surface(straight_x=0.1, fillet=0.2)


def test_grid_inside_positive_density(surf):
    # cell-centred lattice over the bounding box: no node on the axis or
    # at the origin, where the area element vanishes
    h = 0.02
    xs = np.arange(0.5 * h, surf.x_max, h)
    ys = np.arange(-surf.cap_radius + 0.5 * h, surf.cap_radius, h)
    gx, gy = np.meshgrid(xs, ys)
    nodes = (gx + 1j * gy).ravel()
    nodes = nodes[surf.contains(nodes)]
    assert nodes.size > 10000
    assert np.all(area_density(nodes, surf.alpha) > 0.0)


def test_boundary_point_geometry(surf):
    length = surf.boundary_length
    f, tau, x = surf.fillet, surf.tau, surf.straight_x
    expected_length = 2 * tau + np.pi * f + 2 * (x - f) + np.pi * (tau + f)
    assert np.isclose(length, expected_length, rtol=1e-14)
    assert np.isclose(surf.boundary_point(0.0), -1j * tau)
    # the origin lies on the segment at arclength tau
    assert abs(surf.boundary_point(tau)) < 1e-14
    # apex of the cap
    t_apex = 2 * tau + 0.5 * np.pi * f + (x - f) + 0.5 * np.pi * (tau + f)
    assert np.isclose(surf.boundary_point(t_apex), surf.x_max, atol=1e-12)
    # closed curve, unit speed everywhere
    assert np.isclose(surf.boundary_point(length), surf.boundary_point(0.0))
    t = np.linspace(0.1, length - 0.1, 400)
    dt = 1e-6
    speed = np.abs(surf.boundary_point(t + dt)
                   - surf.boundary_point(t - dt)) / (2 * dt)
    assert np.allclose(speed, 1.0, atol=1e-5)


def where_top_profile(x, tau, fillet, straight_x):
    """Both arcs over every x, then selected by np.where."""
    x = np.asarray(x, dtype=float)
    cap_r = tau + fillet
    with np.errstate(invalid="ignore"):
        fillet_y = tau + np.sqrt(np.maximum(fillet ** 2 - (x - fillet) ** 2,
                                            0.0))
        cap_y = np.sqrt(np.maximum(cap_r ** 2 - (x - straight_x) ** 2, 0.0))
    return np.where(x <= fillet, fillet_y,
                    np.where(x <= straight_x, cap_r, cap_y))


def test_top_profile_matches_where_form(surf):
    shape = (surf.tau, surf.fillet, surf.straight_x)
    x = np.concatenate([
        [-0.3, -1e-12, 0.0, 0.5 * surf.fillet, surf.fillet,
         np.nextafter(surf.fillet, 1.0), 1.0, surf.straight_x,
         np.nextafter(surf.straight_x, 9.0), surf.straight_x + 0.7,
         surf.x_max, surf.x_max + 0.2, 5.0],
        np.linspace(-0.5, surf.x_max + 0.5, 997)])
    for arr in (x, x.reshape(10, 101)):
        assert np.array_equal(_top_profile(arr, *shape),
                              where_top_profile(arr, *shape))
    for x0 in x[:13]:
        got = _top_profile(x0, *shape)
        assert got.ndim == 0
        assert got == where_top_profile(x0, *shape)


def test_contains_samples(surf):
    inside = [0.5 + 1.39j, 0.05 + 1.3j, 2.9 + 0.0j, 1.6 - 1.39j, 0.01 + 0.0j]
    outside = [0.5 + 1.41j, 0.05 + 1.35j, 3.01 + 0.0j, -0.1 + 0.5j,
               0.0 + 1.0j, 1.6 + 1.5j]
    assert np.all(surf.contains(np.array(inside)))
    assert not np.any(surf.contains(np.array(outside)))


def test_image_and_area_element(surf):
    z0 = 0.7 + 0.2j
    img = surf.image(z0)
    assert img.shape == (4,)
    assert np.allclose(img[:2], [0.259, 0.286], rtol=1e-12)
    assert np.allclose(img[2:], [G_AT_P.real, G_AT_P.imag], rtol=1e-12)
    assert area_density(0.0) == 0.0
    # the area element is the squared speed of the map in any direction
    h = 1e-6
    for z in (z0, 2.0 + 0.5j, 0.3 - 0.9j):
        fd = (surface_image(z + h) - surface_image(z - h)) / (2 * h)
        assert np.isclose(np.sum(fd ** 2), area_density(z, surf.alpha),
                          rtol=1e-4)


def test_boundary_scan_clean(scan):
    assert scan.points.shape == (len(scan.t), 4)
    assert len(scan.t) >= 10000
    assert scan.segment_monotone
    assert scan.collisions == []
    assert scan.injectivity_ok
    # any refined nonadjacent pair must stay far above collision scale
    for _, _, d in scan.near_pairs:
        assert d > 1e-4


def test_boundary_scan_needs_enough_samples(surf):
    with pytest.raises(ValueError):
        boundary_curve(surf, samples=5000)


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
        assert abs(rec.z_boundary.imag) < surf.tau
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


def test_branch_point_density_between_wraps(surf):
    # at the branch point itself the three sheets merge over the half
    # plane; at moderate radii the flat factor still adds area, so the
    # ratio sits between the limit 3/2 and the full triple wrap 3
    rep = density_at(surf, np.zeros(4), np.array([0.02, 0.012]))
    assert len(rep.seeds) == 1 and rep.seeds[0] == 0.0
    assert np.all(rep.ratios > 1.4)
    assert np.all(rep.ratios < 3.1)


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


def test_two_circles_positions():
    cases = [(0.4 + 0.0j, 2.0, "inside inner disk"),
             (1.7 + 0.0j, 1.0, "between circles"),
             (2.5 + 0.0j, 0.5, "on outer circle"),
             (3.2 + 0.0j, 0.0, "outside")]
    for pos, exact, loc in cases:
        rep = two_circles_density(1.0, 2.5, point=pos)
        assert rep.exact == exact
        assert rep.location == loc
        assert abs(rep.ratios[-1] - exact) < 5e-3


def test_two_circles_validation():
    with pytest.raises(ValueError):
        two_circles_density(2.0, 1.0)
    with pytest.raises(ValueError):
        two_circles_density(1.0, 2.0, radii=np.array([0.0]))
