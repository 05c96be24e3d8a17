"""Solver checks against direct sparse solves and closed-form energies."""

import numpy as np
import pytest

from qhalf import data_maps
from qhalf.domain import build_halfdisk, INTERFACE, InterfaceSpec
from qhalf.qpoint import batch_match_values
from qhalf.solver import (
    J11,
    QHalfMap,
    _RankedState,
    _color_rows,
    _initial_values,
    _mirror_onto_plus,
    _solve_harmonic,
    collapse_decompose,
    edge_energy,
    harmonic_reference,
    interpolate_annulus,
    minimize,
    sample_map,
    suggested_omega,
)


def unpinned_map(dom, data):
    """The closed-form data at every node, interface rows left unpinned."""
    n = data.n
    minus = (data.minus(dom.minus.xy) if data.Q > 1
             else np.zeros((dom.minus.n_nodes, 0, n)))
    phi = data.phi(dom.xy[dom.tag == INTERFACE])
    return QHalfMap(dom, data.Q, n, np.asarray(data.plus(dom.plus.xy), float),
                    np.asarray(minus, float), np.asarray(phi, float))


class _MatchedSide:
    """Reference sweeps on one side, sheets in any storage order.

    Each neighbor row is matched to the node's current sheets by
    batch_match_values and the node moves toward the mean of the matched
    rows; the energy is edge_energy. The ranked state must reproduce this
    on the same rows sorted.
    """

    def __init__(self, side, values, omega):
        self.side = side
        self.values = values
        self.omega = omega
        self.color_idx = [_color_rows(side, c) for c in (0, 1)]

    def sweep_color(self, c):
        idx = self.color_idx[c]
        V = self.values
        if idx.size == 0 or V.shape[1] == 0:
            return 0.0
        U = V[idx]
        W = V[self.side.nb[idx]]          # (M, 4, q, n)
        acc = np.zeros_like(U)
        for k in range(4):
            acc += batch_match_values(U, W[:, k])
        target = acc / 4.0
        new = U + self.omega * (target - U)
        delta = float(np.max(np.abs(new - U)))
        V[idx] = new
        return delta

    def energy(self):
        return edge_energy(self.values, self.side.edges)


@pytest.fixture(scope="module")
def dom16():
    return build_halfdisk(R=1.0, h=1.0 / 16)


@pytest.fixture(scope="module")
def dom32():
    return build_halfdisk(R=1.0, h=1.0 / 32)


@pytest.fixture(scope="module")
def sine32():
    # No mirror symmetry between the sides: each side factors on its own.
    return build_halfdisk(R=1.0, h=1.0 / 32,
                          interface=InterfaceSpec.sine_wave(0.05, 3.0))


def test_single_sheet_matches_direct_solve(dom32):
    # Q=1 sweep dynamics must land on the 5-point solution of the same
    # Dirichlet problem, computed here by a direct sparse factorization.
    data = data_maps.quadratic_harmonic(Q=1)
    u, info = minimize(dom32, data, init="mean", update_stop=1e-12,
                       max_sweeps=40000)
    assert info.converged

    def bfn(xy):
        return xy[:, 0:1] ** 2 - xy[:, 1:2] ** 2

    ref = harmonic_reference(dom32, "plus", bfn, bfn)
    err = np.abs(u.plus[:, 0, :] - ref).max()
    assert err < 1e-8


def test_harmonic_solve_matches_per_node_assembly(dom32):
    # Reference: the 5-point system assembled node by node, right-hand side
    # accumulated in stencil order, factored the same way.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    side = dom32.minus
    pinned = ~side.free
    values = np.random.default_rng(5).standard_normal((side.n_nodes, 3))
    free_idx = np.nonzero(~pinned)[0]
    pos = -np.ones(side.n_nodes, dtype=np.int64)
    pos[free_idx] = np.arange(free_idx.size)
    rows, cols, vals = [], [], []
    rhs = np.zeros((free_idx.size, 3))
    for r, v in enumerate(free_idx):
        rows.append(r)
        cols.append(r)
        vals.append(4.0)
        for w in side.nb[v]:
            if pinned[w]:
                rhs[r] += values[w]
            else:
                rows.append(r)
                cols.append(pos[w])
                vals.append(-1.0)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(free_idx.size,) * 2)
    lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    expected = values.copy()
    expected[free_idx] = lu.solve(rhs)
    assert np.array_equal(_solve_harmonic(side, pinned, values), expected)


def test_harmonic_solve_rejects_free_node_on_the_rim(dom16):
    side = dom16.plus
    pinned = np.zeros(side.n_nodes, dtype=bool)
    with pytest.raises(RuntimeError, match="missing neighbor"):
        _solve_harmonic(side, pinned, np.zeros((side.n_nodes, 1)))


def test_energy_scales_with_sheet_copies(dom16):
    # Q identical sheets carry exactly Q times the single-sheet energy.
    d1 = data_maps.linear(Q=1)
    d3 = data_maps.linear(Q=3)
    u1 = sample_map(dom16, d1)
    u3 = sample_map(dom16, d3)
    e1p = edge_energy(u1.plus, dom16.plus.edges)
    e3p = edge_energy(u3.plus, dom16.plus.edges)
    assert e3p == pytest.approx(3.0 * e1p, rel=1e-12)


def test_linear_field_energy_refines_to_halfdisk_area():
    # f = y has |grad|^2 = 1, so the grid energy of the plus side should
    # approach the half-disk area pi/2 under refinement.
    target = np.pi / 2
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        dom = build_halfdisk(R=1.0, h=h)
        u = sample_map(dom, data_maps.linear(Q=1))
        errs.append(abs(edge_energy(u.plus, dom.plus.edges) - target))
    assert errs[2] < errs[0]
    assert errs[2] < 0.02 * target


def test_monotone_energy_trace(dom16):
    data = data_maps.odd_cubic(Q=3, amplitude=0.1)
    u, info = minimize(dom16, data, init="mean", update_stop=1e-13,
                       max_sweeps=3000)
    tr = np.array(info.energy_trace)
    assert np.all(np.diff(tr) <= tr[:-1] * 1e-10 + 1e-12)
    assert info.energy < tr[0]


@pytest.mark.parametrize("init", ["harmonic", "mean"])
def test_minimize_independent_of_sheet_storage_order(dom32, init):
    # The collapse-refinement data at its coarsest grid, with the sheets
    # stored in three orders: the minimizer is the same multiset, reached
    # by the same sweeps, to the last bit. The harmonic start is exact;
    # the mean start leaves the work to the sweeps.
    runs = []
    for plus_w, minus_w in (([-1.0, 0.25, 1.0], [-0.55, 1.0]),
                            ([1.0, -1.0, 0.25], [1.0, -0.55]),
                            ([0.25, 1.0, -1.0], [-0.55, 1.0])):
        data = data_maps.odd_cubic(Q=3, amplitude=0.01, taper=3.0,
                                   plus_weights=plus_w, minus_weights=minus_w)
        runs.append(minimize(dom32, data, init=init, update_stop=1e-12,
                             max_sweeps=200000))
    (u0, info0), rest = runs[0], runs[1:]
    assert info0.converged
    for u, info in rest:
        assert info.sweeps == info0.sweeps
        assert info.energy == info0.energy
        for a, b in ((u.plus, u0.plus), (u.minus, u0.minus)):
            gap = np.abs(np.sort(a, axis=1) - np.sort(b, axis=1)).max()
            assert gap == 0.0


@pytest.mark.parametrize("Q", [1, 2, 3, 4])
def test_ranked_step_matches_matched_mean(dom16, Q):
    # Reference: _MatchedSide on the rows of both sides in arbitrary
    # storage order, every neighbor matched to the node by the kernel. The
    # ranked state runs on the same rows sorted, in one color-blocked
    # buffer, and must land on the sorted result; for Q >= 3 the minus
    # rows have two or more sheets, so its re-sort runs too.
    sides = (dom16.plus, dom16.minus)
    omega = 1.7
    rng = np.random.default_rng(Q)
    V = [rng.standard_normal((side.n_nodes, q, 1))
         for side, q in zip(sides, (Q, Q - 1))]
    matched = [_MatchedSide(side, v, omega) for side, v in zip(sides, V)]
    state = _RankedState(sides, tuple(np.sort(v, axis=1) for v in V), omega)

    def reference_energy():
        return sum(edge_energy(v, side.edges) for side, v in zip(sides, V))

    assert state.energy() == reference_energy()
    for c in (0, 1):
        delta = max(st.sweep_color(c) for st in matched)
        assert state.sweep_color(c) == delta
        for got, v in zip(state.unpack(), V):
            assert np.array_equal(got, np.sort(v, axis=1))
        assert state.energy() == reference_energy()


def test_ranked_minimize_matches_matched_sweeps(dom16):
    # A whole ranked solve against the same sweeps run by the matched
    # reference from the same start: same trace, same values.
    data = data_maps.odd_cubic(Q=3, amplitude=0.5)
    sweeps, omega = 25, suggested_omega(dom16)
    u, info = minimize(dom16, data, init="mean", max_sweeps=sweeps)

    start = _initial_values(dom16, data, "mean")
    states = [_MatchedSide(dom16.plus, np.sort(start.plus, axis=1), omega),
              _MatchedSide(dom16.minus, np.sort(start.minus, axis=1), omega)]
    trace = [sum(st.energy() for st in states)]
    for _ in range(sweeps):
        for c in (0, 1):
            for st in states:
                st.sweep_color(c)
        trace.append(sum(st.energy() for st in states))
    assert info.sweeps == sweeps
    assert info.energy_trace == trace
    for got, st in ((u.plus, states[0]), (u.minus, states[1])):
        assert np.array_equal(got, np.sort(st.values, axis=1))


def _reference_sparse_products(sides, widths):
    """The ranked state's nb_sum and incidence, built entry by entry: one
    pass per sheet for the buffer positions, np.tile for the CSR data."""
    import scipy.sparse as sp

    used = [s for s in range(len(sides)) if widths[s]]
    parts = {s: [_color_rows(sides[s], c) for c in (0, 1)] for s in used}
    for s in used:
        pinned = np.ones(sides[s].n_nodes, dtype=bool)
        pinned[np.concatenate(parts[s])] = False
        parts[s].append(np.nonzero(pinned)[0])
    blocks = [(s, parts[s][part]) for part in range(3) for s in used]
    ends = np.cumsum([widths[s] * rows.size for s, rows in blocks])
    index = np.int32 if ends[-1] < 2**31 else np.int64
    pos = [np.empty(side.n_nodes, dtype=index) for side in sides]
    for (s, rows), lo in zip(blocks, np.concatenate(([0], ends))):
        pos[s][rows] = lo + widths[s] * np.arange(rows.size)

    def entries(s, nodes):
        base = pos[s][nodes]
        out = np.empty((base.shape[0], widths[s], base.shape[1]), index)
        for k in range(widths[s]):
            out[:, k] = base + k
        return out.reshape(-1, base.shape[1])

    def row_matrix(cols, weights):
        rows, k = cols.shape
        return sp.csr_matrix((np.tile(weights, rows), cols.ravel(),
                              np.arange(0, rows * k + 1, k, dtype=cols.dtype)),
                             shape=(rows, ends[-1]))

    n = len(used)
    nb_sum = [row_matrix(np.concatenate([entries(s, sides[s].nb[rows])
                                         for s, rows in blocks[c * n:(c + 1) * n]]),
                         np.ones(4))
              for c in (0, 1)]
    incidence = row_matrix(np.concatenate([entries(s, sides[s].edges)
                                           for s in used]),
                           np.array([1.0, -1.0]))
    return nb_sum, incidence


@pytest.mark.parametrize("dom_name, Q", [("dom32", 3), ("sine32", 2)])
def test_ranked_state_sparse_products_match_entrywise_build(request,
                                                            dom_name, Q):
    dom = request.getfixturevalue(dom_name)
    sides = (dom.plus, dom.minus)
    values = tuple(np.zeros((side.n_nodes, q, 1))
                   for side, q in zip(sides, (Q, Q - 1)))
    state = _RankedState(sides, values, 1.0)
    nb_sum, incidence = _reference_sparse_products(sides, (Q, Q - 1))
    for got, want in ((state.nb_sum[0], nb_sum[0]), (state.nb_sum[1], nb_sum[1]),
                      (state.incidence, incidence)):
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


@pytest.mark.parametrize("Q", [2, 3, 4])
def test_collapsed_scalar_solve_keeps_rows_rank_sorted(dom16, Q):
    data = data_maps.odd_cubic(Q=Q, amplitude=0.5)
    u, info = minimize(dom16, data, init="mean", max_sweeps=25)
    assert info.sweeps == 25
    for V in (u.plus, u.minus):
        assert np.all(np.diff(V, axis=1) >= 0.0)


def _refinement_data():
    return data_maps.odd_cubic(Q=3, amplitude=0.01, taper=3.0,
                               plus_weights=[-1.0, 0.25, 1.0],
                               minus_weights=[-0.55, 1.0])


def _rankwise_reference(dom):
    # Independent Q > 1 reference: for scalar sheets the energy of a map is
    # at least the sum of its rank functions' energies, so the collapsed
    # minimizer is the direct 5-point solve of each rank of the sorted
    # boundary data, with every rank pinned to phi on the interface. One
    # solve per side carries all ranks as channels.
    data = _refinement_data()
    ref = {}
    for side_name, gen, q in (("plus", data.plus, 3), ("minus", data.minus, 2)):
        def bfn(xy, gen=gen):
            return np.sort(np.asarray(gen(xy)), axis=1)[:, :, 0]

        def ifn(xy, q=q):
            return np.tile(data.phi(xy), (1, q))

        ranks = harmonic_reference(dom, side_name, bfn, ifn)
        ref[side_name] = ranks[:, :, None]
    energy = (edge_energy(ref["plus"], dom.plus.edges)
              + edge_energy(ref["minus"], dom.minus.edges))
    return ref, energy


@pytest.fixture(scope="module")
def rankwise_reference(dom32):
    return _rankwise_reference(dom32)


def _refinement_solve(dom, init):
    return minimize(dom, _refinement_data(), init=init, update_stop=1e-12,
                    max_sweeps=200000)


@pytest.mark.parametrize("dom_name", ["dom32", "sine32"])
def test_harmonic_start_is_rankwise_reference(request, dom_name):
    # The straight interface shares one factorization between the sides,
    # the sine wave factors each side on its own; both are exact.
    dom = request.getfixturevalue(dom_name)
    ref, energy = _rankwise_reference(dom)
    u, info = _refinement_solve(dom, "harmonic")
    assert info.converged and info.stop_reason == "update_stop"
    assert info.sweeps == 1
    for side_name in ("plus", "minus"):
        got = np.sort(getattr(u, side_name), axis=1)
        assert np.abs(got - ref[side_name]).max() < 1e-12
    assert info.energy == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("dom_name", ["dom16", "dom32"])
def test_shared_minus_solve_matches_its_own_factorization(request, dom_name):
    # On the straight interface the minus ranks are solved as mirrored
    # channels of the plus system; the result is the minus side's own
    # direct solve up to rounding.
    dom = request.getfixturevalue(dom_name)
    assert _mirror_onto_plus(dom) is not None
    data = _refinement_data()
    shared = _initial_values(dom, data, "harmonic").minus
    seeded = _initial_values(dom, data, "mean").minus
    own = _solve_harmonic(dom.minus, ~dom.minus.free,
                          np.sort(seeded, axis=1).reshape(dom.minus.n_nodes, -1))
    own = own.reshape(shared.shape)
    assert np.abs(shared - own).max() <= 1e-13 * np.abs(own).max()


@pytest.mark.parametrize("dom_name, factorizations",
                         [("dom32", 1), ("sine32", 2)])
def test_one_factorization_per_grid_when_the_sides_mirror(
        request, monkeypatch, dom_name, factorizations):
    import scipy.sparse.linalg as spla

    dom = request.getfixturevalue(dom_name)
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    _refinement_solve(dom, "harmonic")
    assert len(calls) == factorizations


@pytest.mark.parametrize("init", ["mean"])
def test_sweeps_land_on_rankwise_reference(dom32, rankwise_reference, init):
    ref, energy = rankwise_reference
    u, info = _refinement_solve(dom32, init)
    assert info.converged
    for side_name in ("plus", "minus"):
        got = np.sort(getattr(u, side_name), axis=1)
        assert np.abs(got - ref[side_name]).max() < 1e-9
    assert info.energy == pytest.approx(energy, rel=1e-9)


def _wavy_mean_solve(dom):
    return minimize(dom, data_maps.quadratic_harmonic(Q=1), init="mean",
                    update_stop=1e-11, max_sweeps=200000)


@pytest.mark.parametrize("scale", [0.85, 1.15])
def test_suggested_omega_beats_a_scaled_constant(sine32, monkeypatch, scale):
    # Young's factor sits at the minimum of the sweep count: moving the
    # half-disk's eigenvalue constant either way costs sweeps.
    _, best = _wavy_mean_solve(sine32)
    monkeypatch.setattr("qhalf.solver.J11", J11 * scale)
    _, other = _wavy_mean_solve(sine32)
    assert best.converged and other.converged
    assert best.sweeps < other.sweeps


def test_mean_start_lands_near_the_harmonic_start(sine32):
    u, info = _wavy_mean_solve(sine32)
    exact, _ = minimize(sine32, data_maps.quadratic_harmonic(Q=1))
    assert info.converged
    assert np.abs(u.plus - exact.plus).max() < 5e-11


def test_collapsed_interface_is_pinned(dom16):
    data = data_maps.odd_cubic(Q=3, amplitude=0.05)
    u, info = minimize(dom16, data, init="harmonic", update_stop=1e-12,
                       max_sweeps=5000)
    if_ids = np.nonzero(dom16.tag == INTERFACE)[0]
    for V, side in ((u.plus, dom16.plus), (u.minus, dom16.minus)):
        assert np.abs(V[side.loc[if_ids]] - u.phi[:, None, :]).max() == 0.0


def test_minimize_refuses_vector_valued_data(dom16, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("solve started on vector-valued data")

    for name in ("_initial_values", "_RankedState"):
        monkeypatch.setattr(f"qhalf.solver.{name}", no_work)
    with pytest.raises(ValueError, match="n = 1"):
        minimize(dom16, data_maps.sqrt_branch())


def test_collapse_decompose_odd_data(dom16):
    data = data_maps.odd_cubic(Q=3, amplitude=0.025)
    u, info = minimize(dom16, data, init="harmonic", update_stop=1e-11,
                       max_sweeps=20000)
    rep = collapse_decompose(u, info)
    # sheet means stay odd across the straight interface
    assert rep.odd_defect is not None
    mirror = {(int(i), int(j)): k for k, (i, j) in enumerate(dom16.ij)}
    pairs = [(v, mirror[(int(i), -int(j))]) for v, (i, j) in enumerate(dom16.ij)
             if j > 0 and (int(i), -int(j)) in mirror]
    # the glued sheet mean: upper and lower carriers, phi on the interface
    m = np.zeros((dom16.n_nodes, 1))
    m[dom16.plus.ids] = u.plus.mean(axis=1)
    m[dom16.minus.ids] = u.minus.mean(axis=1)
    m[u.interface_ids()] = u.phi
    assert rep.odd_defect == max(float(np.abs(m[v] + m[w]).max())
                                 for v, w in pairs)
    assert rep.odd_defect < 1e-7
    # the glued mean is discrete harmonic up to solver tolerance
    assert rep.harmonic_defect < 1e-4
    # spread is set by the boundary data, whose peak sits at (0, +-1)
    expected = 0.025 * np.sqrt(2.0)
    assert rep.sheet_spread == pytest.approx(expected, rel=1e-6)


def test_collapse_decompose_refuses_unconverged(dom16):
    data = data_maps.odd_cubic(Q=3, amplitude=0.05)
    u, info = minimize(dom16, data, init="mean", max_sweeps=3)
    assert not info.converged
    with pytest.raises(ValueError):
        collapse_decompose(u, info)


def test_interpolation_linear_pair():
    # f = a y and g = b y are both 0 on the straight interface, so they
    # share phi with every sheet pinned to it. All sheets of a node agree,
    # so the blend is the closed form (1 - t) g + t f at every node, and
    # the band energy is that field's on the edges inside the band.
    dom = build_halfdisk(R=1.0, h=1.0 / 64)
    lam, Q, a, b = 0.25, 2, 0.3, -0.5
    f = sample_map(dom, data_maps.linear(Q, slope=a))
    g = sample_map(dom, data_maps.linear(Q, slope=b))
    blended, rep = interpolate_annulus(f, g, lam)
    expected = 0.0
    for side, V in ((dom.plus, blended.plus), (dom.minus, blended.minus)):
        r = np.hypot(side.xy[:, 0], side.xy[:, 1])
        t = np.clip((r - (1.0 - lam)) / lam, 0.0, 1.0)[:, None, None]
        y = side.xy[:, 1:2, None]
        closed = np.broadcast_to((1.0 - t) * (b * y) + t * (a * y), V.shape)
        assert np.abs(V - closed).max() <= 1e-15
        band = r >= 1.0 - lam - 1e-12
        e = side.edges
        expected += edge_energy(closed, e[band[e[:, 0]] & band[e[:, 1]]])
    assert rep.band_energy == pytest.approx(expected, rel=1e-12)
    assert rep.fitted_constant < 20.0


def test_interpolation_keeps_interface_rows_at_phi(dom32):
    # Different sheets over one nonzero trace: every interface row of the
    # blend is phi to the last bit, on both sides.
    trace = [(0, 0.7, 0.0), (1, 0.3, 0.0), (2, -0.4, 0.0)]

    def spec(plus, minus):
        return data_maps.custom_coefficients([plus, minus], phi_coeffs=trace)

    f = sample_map(dom32, spec([[(1, 1.0, 0.0)], [(2, 0.5, 0.5)],
                                [(3, 0.2, -0.1)]],
                               [[(1, -1.0, 0.3)], [(2, 0.1, 0.0)]]))
    g = sample_map(dom32, spec([[(0, 0.1, 0.0)], [(1, 0.0, 0.8)],
                                [(2, -0.6, 0.2)]],
                               [[(3, 0.4, 0.0)], [(1, 0.2, -0.5)]]))
    blended, _ = interpolate_annulus(f, g, 0.45)
    if_ids = np.nonzero(dom32.tag == INTERFACE)[0]
    assert np.abs(blended.phi).min() > 0
    for V, side in ((blended.plus, dom32.plus), (blended.minus, dom32.minus)):
        rows = V[side.loc[if_ids]]
        assert np.array_equal(rows, np.broadcast_to(blended.phi[:, None, :],
                                                    rows.shape))


def test_interpolation_band_guard(dom16):
    data = data_maps.linear(Q=2)
    f = sample_map(dom16, data)
    g = sample_map(dom16, data)
    with pytest.raises(ValueError):
        interpolate_annulus(f, g, dom16.h * 1.5)


def test_interpolation_refuses_traces_5e6_apart(dom16):
    # The stated bound is absolute: traces near 1 that differ by 5e-6 are
    # not one trace, whatever their size.
    def spec(phi):
        return data_maps.custom_coefficients(
            [[[(0, 1.0, 0.0)], [(1, 1.0, 0.0)]], [[(0, 1.0, 0.0)]]],
            phi_coeffs=[(0, phi, 0.0)])

    f = sample_map(dom16, spec(1.0))
    g = sample_map(dom16, spec(1.0 + 5e-6))
    with pytest.raises(ValueError, match="traces differ"):
        interpolate_annulus(f, g, 0.3)


def test_interpolation_endpoints(dom16):
    lam = 0.3
    f = sample_map(dom16, data_maps.odd_cubic(Q=2, amplitude=0.1))
    g = sample_map(dom16, data_maps.linear(Q=2))
    blended, rep = interpolate_annulus(f, g, lam)
    r = np.hypot(dom16.plus.xy[:, 0], dom16.plus.xy[:, 1])
    inner = r <= 1.0 - lam + 1e-12
    assert np.allclose(blended.plus[inner], g.plus[inner])
    # outermost ring follows f up to sheet order
    rim = r >= 1.0 - 1e-9
    from qhalf.qpoint import batch_match_cost2

    c2 = batch_match_cost2(blended.plus[rim], f.plus[rim])
    assert np.sqrt(c2.max()) < 1e-12
