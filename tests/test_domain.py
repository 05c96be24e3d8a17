"""Mesh construction, tagging, and the modified distance field."""

import itertools

import numpy as np
import pytest

from qhalf.domain import (
    BOUNDARY_MINUS,
    BOUNDARY_PLUS,
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    TAG_NAMES,
    ConstructionError,
    DistanceField,
    InterfaceSpec,
    _fd_jacobian,
    _graph_distance,
    _interface_angles,
    build_distance_field,
    build_halfdisk,
)

# Caps on the measured defect constants: how far a distance field may
# stray from the radial model. d^2, which degenerates at small radii,
# fails the quadratic defect by a wide margin.
DEFECT_CAPS = {
    "quadratic": 10.0,
    "gradient": 10.0,
    "hessian": 50.0,
    "tangency": 1e-6,
    "laplace_mismatch": 20.0,
    "flow_mismatch": 20.0,
}


def measured_defects(dom, fld: DistanceField) -> dict:
    """The distance field's defects from the radial model: quadratic,
    sup |d - |x|| / |x|^2; gradient, sup |grad d - x/|x|| / |x|; hessian,
    sup |D2 d - (Id - rr^T)/|x|| at least 8 h from the origin; tangency,
    sup |grad d . normal| over interface samples at grid spacing; and the
    two mismatches the field carries itself."""
    d, grad = fld.d, fld.grad
    r = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
    pos = r > 0
    radial = dom.xy[pos] / r[pos, None]
    jac = _fd_jacobian(dom, grad)
    sel = (r >= 8.0 * dom.h) & ~np.isnan(jac).any(axis=(1, 2))
    hess = np.transpose(jac[sel], (0, 2, 1))
    hess = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    rr = dom.xy[sel] / r[sel, None]
    model = (np.eye(2)[None] - rr[:, :, None] * rr[:, None, :]) / r[sel, None, None]

    spec = dom.interface
    tangency = 0.0
    if spec.kind == "graph":
        ts = np.arange(dom.h, dom.R, dom.h)
        ts = np.concatenate((-ts[::-1], ts))
        p, dp, _ = spec.values(ts)
        keep = ts * ts + p * p <= (dom.R * 0.999) ** 2
        _, gcurve = _graph_distance(spec, np.column_stack((ts[keep], p[keep])))
        normal = np.column_stack((-dp[keep], np.ones(keep.sum())))
        normal /= np.hypot(1.0, dp[keep])[:, None]
        tangency = float(np.max(np.abs(np.einsum("ij,ij->i", gcurve, normal))))
    return {
        "quadratic": float(np.max(np.abs(d[pos] - r[pos]) / r[pos] ** 2)),
        "gradient": float(np.max(np.linalg.norm(grad[pos] - radial, axis=1)
                                 / r[pos])),
        "hessian": float(np.max(np.linalg.norm(hess - model, axis=(1, 2)))),
        "tangency": tangency,
        "laplace_mismatch": fld.laplace_mismatch,
        "flow_mismatch": fld.flow_mismatch,
    }


def validate_distance_field(dom, fld: DistanceField) -> dict:
    """{defect: (value, cap, ok)} plus "ok" for the whole field."""
    defects = measured_defects(dom, fld)
    report = {name: (defects[name], cap, bool(defects[name] <= cap))
              for name, cap in DEFECT_CAPS.items()}
    report["ok"] = all(ok for _, _, ok in report.values())
    return report


def parabola(c):
    """y = c x^2."""
    return InterfaceSpec.graph(
        psi=lambda x: c * x * x,
        dpsi=lambda x: 2.0 * c * x,
        d2psi=lambda x: 2.0 * c * np.ones_like(np.asarray(x, dtype=float)),
    )


def line(slope):
    """y = slope x, a graph interface only the grid-step guard rejects."""
    return InterfaceSpec.graph(
        psi=lambda x: slope * np.asarray(x, dtype=float),
        dpsi=lambda x: slope * np.ones_like(np.asarray(x, dtype=float)),
        d2psi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


@pytest.fixture(scope="module")
def straight_64():
    return build_halfdisk(1.0, 1.0 / 64.0)


@pytest.fixture(scope="module")
def parabola_64():
    return build_halfdisk(1.0, 1.0 / 64.0, parabola(0.1))


def test_spacing_guard():
    with pytest.raises(ConstructionError):
        build_halfdisk(1.0, 0.2)


def test_steep_interface_guard():
    # slope 2 makes the snapped interface rows jump between columns
    with pytest.raises(ConstructionError):
        build_halfdisk(1.0, 1.0 / 32.0, line(2.0))
    with pytest.raises(ConstructionError):
        build_halfdisk(1.0, 1.0 / 32.0, InterfaceSpec.graph(
            psi=lambda x: 0.3 * np.ones_like(np.asarray(x, dtype=float)),
            dpsi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            d2psi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ))


def test_transversality_guard():
    # sin(30x) at amplitude 0.3 meets the outer circle at 23.6 deg
    with pytest.raises(ConstructionError, match="23.6 deg"):
        build_halfdisk(1.0, 1.0 / 32.0, InterfaceSpec.sine_wave(0.3, 30))


def _brentq_angles(spec, R):
    """Crossing angles from scipy's brentq on the same brackets."""
    from scipy.optimize import brentq

    def radius_gap(t):
        p, _, _ = spec.values(t)
        return t * t + float(p) ** 2 - R * R

    angles = []
    for lo, hi in ((1e-9, 1.5 * R), (-1.5 * R, -1e-9)):
        t = brentq(radius_gap, lo, hi, xtol=1e-13)
        p, dp, _ = spec.values(t)
        tangent = np.array([1.0, float(dp)]) / np.hypot(1.0, float(dp))
        circle = np.array([-float(p), t]) / np.hypot(t, float(p))
        angles.append(np.degrees(np.arccos(min(abs(tangent @ circle), 1.0))))
    return angles


@pytest.mark.parametrize("spec", [
    InterfaceSpec.sine_wave(0.05, 3), InterfaceSpec.sine_wave(0.3, 30),
    parabola(0.1), parabola(2.0)],
    ids=["sine(0.05,3.0)", "sine(0.3,30.0)", "parabola(0.1)", "parabola(2.0)"])
def test_bisected_angles_match_brentq(spec):
    for R in (1.0, 0.7):
        np.testing.assert_allclose(_interface_angles(spec, R),
                                   _brentq_angles(spec, R), rtol=0, atol=1e-9)


def test_tags_partition_and_side_balance(straight_64):
    dom = straight_64
    counts = {TAG_NAMES[t]: int(np.sum(dom.tag == t)) for t in TAG_NAMES}
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
    # the row order of phi, against the reference formula
    want = np.nonzero(iface)[0]
    assert dom.interface_ids.dtype == np.int32
    assert np.array_equal(dom.interface_ids, want)
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
    defects = measured_defects(dom, fld)
    assert defects["quadratic"] == 0.0
    assert defects["tangency"] == 0.0
    assert fld.monotonicity_constant == 0.0


def test_graph_distance_near_radial_and_tangent(parabola_64):
    dom = parabola_64
    fld = build_distance_field(dom)
    defects = measured_defects(dom, fld)
    # behaves like |x| to second order at the origin
    assert defects["quadratic"] < 2.0
    assert defects["gradient"] < 2.0
    # gradient runs along the interface on the interface
    assert defects["tangency"] <= 1e-6
    report = validate_distance_field(dom, fld)
    assert report["ok"]


def test_validate_rejects_squared_distance(straight_64):
    dom = straight_64
    fld = build_distance_field(dom)
    broken = DistanceField(
        d=fld.d**2,
        grad=2.0 * fld.d[:, None] * fld.grad,
        laplace_mismatch=0.0,
        flow_mismatch=0.0,
    )
    # |d^2 - |x|| / |x|^2 blows up at the origin
    report = validate_distance_field(dom, broken)
    assert not report["quadratic"][2]
    assert not report["ok"]


def test_wavy_interface_builds():
    dom = build_halfdisk(1.0, 1.0 / 32.0, InterfaceSpec.sine_wave(0.05, 3.0))
    fld = build_distance_field(dom)
    assert measured_defects(dom, fld)["tangency"] <= 1e-6
    assert np.all(fld.d >= 0)
    assert fld.monotonicity_constant < 10.0


def test_side_graphs_are_consistent(parabola_64, straight_64):
    for dom, name in itertools.product((parabola_64, straight_64),
                                       ("plus", "minus", "full")):
        sg = getattr(dom, name)
        tag = dom.tag[sg.ids]
        boundary = (tag == BOUNDARY_PLUS) | (tag == BOUNDARY_MINUS)
        if name == "full":
            # one side carrying every node: nothing is shared, and free
            # is the interior and interface rows
            assert not sg.shared.any()
            free = ((tag == INTERIOR_PLUS) | (tag == INTERIOR_MINUS)
                    | (tag == INTERFACE))
        else:
            # free nodes are exactly the interior nodes of that side, and
            # the interface row is the one shared with the other side
            assert np.array_equal(sg.shared, tag == INTERFACE)
            free = tag == (INTERIOR_PLUS if name == "plus" else INTERIOR_MINUS)
        assert np.array_equal(sg.free, free)
        assert np.array_equal(sg.boundary, boundary)
        # the pinned rows, ~free, are the boundary and shared rows
        assert np.array_equal(~sg.free, boundary | sg.shared)
        assert not (boundary & sg.shared).any()
        # neighbor structure round-trips through global ids
        for k in range(4):
            ok = sg.nb[:, k] >= 0
            glob_a = sg.ids[ok]
            glob_b = sg.ids[sg.nb[ok, k]]
            assert np.all(dom.nb[glob_a, k] == glob_b)
        # every edge touches at most one interface node
        both = (tag[sg.edges[:, 0]] == INTERFACE) & (tag[sg.edges[:, 1]] == INTERFACE)
        assert not np.any(both)


def test_node_indices_are_int32(parabola_64, straight_64):
    # Half the bytes of intp: the grid cap keeps every index below 2^31.
    for dom in (parabola_64, straight_64):
        for name in ("ij", "nb", "id_grid", "interface_ids"):
            assert getattr(dom, name).dtype == np.int32, name
        for side, name in itertools.product(("plus", "minus", "full"),
                                            ("ids", "loc", "nb", "edges")):
            assert getattr(getattr(dom, side), name).dtype == np.int32, (side, name)


def test_grid_beyond_int32_indices_is_refused():
    # 2 * 23170 + 1 = 46341 nodes a side is the first square grid past
    # 2^31 nodes; it is refused before anything of that size is allocated
    with pytest.raises(ConstructionError, match="int32"):
        build_halfdisk(1.0e5, 1.0e5 / 23170.5)


def test_full_graph_is_built_once_on_first_access(monkeypatch):
    from dataclasses import fields

    from qhalf import domain

    built = []
    build_side = domain._build_side

    def counting(*args):
        built.append(args)
        return build_side(*args)

    monkeypatch.setattr(domain, "_build_side", counting)
    dom = build_halfdisk(1.0, 1.0 / 32.0, parabola(0.1))
    assert len(built) == 2  # plus and minus
    full = dom.full
    assert dom.full is full
    assert len(built) == 3
    eager = build_side(dom, set(TAG_NAMES), set())
    for f in fields(eager):
        got, want = getattr(full, f.name), getattr(eager, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name
