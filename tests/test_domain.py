"""Mesh construction, tagging, and the modified distance field."""

import numpy as np
import pytest

from qhalf.domain import (
    BOUNDARY_MINUS,
    BOUNDARY_PLUS,
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    ConstructionError,
    DistanceField,
    InterfaceSpec,
    build_distance_field,
    build_halfdisk,
    validate_distance_field,
)


@pytest.fixture(scope="module")
def straight_64():
    return build_halfdisk(1.0, 1.0 / 64.0)


@pytest.fixture(scope="module")
def parabola_64():
    return build_halfdisk(1.0, 1.0 / 64.0, InterfaceSpec.parabola(0.1))


def test_spacing_guard():
    with pytest.raises(ConstructionError):
        build_halfdisk(1.0, 0.2)


def test_steep_interface_guard():
    # slope 2 makes the snapped interface rows jump between columns
    with pytest.raises(ConstructionError):
        build_halfdisk(1.0, 1.0 / 32.0, InterfaceSpec.line(2.0))
    with pytest.raises(ConstructionError):
        build_halfdisk(1.0, 1.0 / 32.0, InterfaceSpec.graph(
            psi=lambda x: 0.3 * np.ones_like(np.asarray(x, dtype=float)),
            dpsi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d2psi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ))


def test_tags_partition_and_side_balance(straight_64):
    dom = straight_64
    counts = dom.counts()
    assert sum(counts.values()) == dom.n_nodes
    # straight interface: the two sides are mirror images
    plus = counts["interior+"] + counts["boundary+"]
    minus = counts["interior-"] + counts["boundary-"]
    assert plus == minus
    assert counts["interface"] > 0


def test_node_at_matches_coordinate_lookup(parabola_64):
    # Reference: a dict from grid coordinates to node ids, built per node.
    dom = parabola_64
    ref = {(int(i), int(j)): k for k, (i, j) in enumerate(dom.ij)}
    rng = np.random.default_rng(3)
    ii = rng.integers(-80, 81, size=2000)
    jj = rng.integers(-80, 81, size=2000)
    expected = np.array([ref.get((int(i), int(j)), -1) for i, j in zip(ii, jj)])
    assert np.array_equal(dom.node_at(ii, jj), expected)
    assert (expected >= 0).any() and (expected < 0).any()
    for i, j in ((0, 0), (64, 0), (65, 0), (-64, 3), (1000, -1000)):
        assert dom.node_at(i, j) == ref.get((i, j), -1)
    assert np.array_equal(dom.node_at(dom.ij[:, 0], dom.ij[:, 1]),
                          np.arange(dom.n_nodes))


def test_interior_nodes_have_full_stencils(straight_64):
    dom = straight_64
    interior = (dom.tag == INTERIOR_PLUS) | (dom.tag == INTERIOR_MINUS)
    assert np.all(dom.nb[interior] >= 0)
    boundary = (dom.tag == BOUNDARY_PLUS) | (dom.tag == BOUNDARY_MINUS)
    assert np.all((dom.nb[boundary] < 0).any(axis=1))


def test_no_cross_side_adjacency(parabola_64):
    dom = parabola_64
    side = np.zeros(dom.n_nodes)
    side[(dom.tag == INTERIOR_PLUS) | (dom.tag == BOUNDARY_PLUS)] = 1
    side[(dom.tag == INTERIOR_MINUS) | (dom.tag == BOUNDARY_MINUS)] = -1
    for k in range(4):
        ok = dom.nb[:, k] >= 0
        assert np.all(side[ok] * side[dom.nb[ok, k]] >= 0)


def test_interface_nodes_track_the_curve(parabola_64):
    dom = parabola_64
    iface = dom.tag == INTERFACE
    x, y = dom.xy[iface, 0], dom.xy[iface, 1]
    assert np.max(np.abs(y - 0.1 * x * x)) <= dom.h / 2 + 1e-12
    # one interface node per column, so spacing along the curve is <= h
    cols = np.unique(dom.ij[iface, 0])
    assert cols.size == np.sum(iface)
    assert np.all(np.diff(np.sort(cols)) == 1)


def test_straight_distance_is_exactly_radial(straight_64):
    dom = straight_64
    fld = build_distance_field(dom)
    expected = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
    assert np.array_equal(fld.d, expected)
    assert fld.defects.quadratic == 0.0
    assert fld.defects.tangency == 0.0
    assert fld.monotonicity_constant == 0.0


def test_graph_distance_near_radial_and_tangent(parabola_64):
    dom = parabola_64
    fld = build_distance_field(dom)
    # behaves like |x| to second order at the origin
    assert fld.defects.quadratic < 2.0
    assert fld.defects.gradient < 2.0
    # gradient runs along the interface on the interface
    assert fld.defects.tangency <= 1e-6
    report = validate_distance_field(dom, fld)
    assert report["ok"]


def test_validate_rejects_squared_distance(straight_64):
    dom = straight_64
    fld = build_distance_field(dom)
    broken = DistanceField(
        d=fld.d**2,
        grad=2.0 * fld.d[:, None] * fld.grad,
        defects=fld.defects,
    )
    # re-measure the first defect by hand: |d^2 - |x|| / |x|^2 blows up
    r = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
    pos = r > 0
    quad = float(np.max(np.abs(broken.d[pos] - r[pos]) / r[pos] ** 2))
    from qhalf.domain import DistanceDefects

    broken.defects = DistanceDefects(quad, 0, 0, 0, 0, 0)
    report = validate_distance_field(dom, broken)
    assert not report["quadratic"][2]
    assert not report["ok"]


def test_wavy_interface_builds():
    dom = build_halfdisk(1.0, 1.0 / 32.0, InterfaceSpec.sine_wave(0.05, 3.0))
    fld = build_distance_field(dom)
    assert fld.defects.tangency <= 1e-6
    assert np.all(fld.d >= 0)
    assert fld.monotonicity_constant < 10.0


def test_side_graphs_are_consistent(parabola_64):
    dom = parabola_64
    for name in ("plus", "minus"):
        sg = getattr(dom, name)
        # free nodes are exactly the interior nodes of that side
        want = INTERIOR_PLUS if name == "plus" else INTERIOR_MINUS
        assert np.all(sg.tag[sg.free] == want)
        # neighbor structure round-trips through global ids
        for k in range(4):
            ok = sg.nb[:, k] >= 0
            glob_a = sg.ids[ok]
            glob_b = sg.ids[sg.nb[ok, k]]
            assert np.all(dom.nb[glob_a, k] == glob_b)
        # every edge touches at most one interface node
        both = (sg.tag[sg.edges[:, 0]] == INTERFACE) & (sg.tag[sg.edges[:, 1]] == INTERFACE)
        assert not np.any(both)
