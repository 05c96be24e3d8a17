"""Frequency quantities against closed-form homogeneous fields."""

import numpy as np
import pytest
from scipy import integrate

from qhalf import data_maps, frequency
from qhalf.domain import (INTERFACE, InterfaceSpec, build_halfdisk,
                          build_distance_field)
from qhalf.frequency import (
    ResolutionError,
    check_doubling_bounds,
    check_monotonicity,
    check_outer_identity,
    cutoff_antiderivative,
    frequency_scan,
    homogeneity_defect,
)
from qhalf.qpoint import batch_match_values
from qhalf.solver import GridField, QHalfMap, minimize, sample_map


@pytest.fixture(scope="module")
def dom64():
    return build_halfdisk(R=1.0, h=1.0 / 64)


@pytest.fixture(scope="module")
def dist64(dom64):
    return build_distance_field(dom64)


def full_field(dom, spec):
    vals = np.asarray(spec.plus(dom.full.xy), dtype=float)
    return GridField(dom, dom.full, vals)


def plus_field(dom, spec):
    vals = np.asarray(spec.plus(dom.plus.xy), dtype=float)
    return GridField(dom, dom.plus, vals)


def unpinned_map(dom, data):
    """The closed-form data at every node, interface rows left unpinned."""
    n = data.n
    minus = (data.minus(dom.minus.xy) if data.Q > 1
             else np.zeros((dom.minus.n_nodes, 0, n)))
    phi = data.phi(dom.xy[dom.tag == INTERFACE])
    return QHalfMap(dom, data.Q, n, np.asarray(data.plus(dom.plus.xy), float),
                    np.asarray(minus, float), np.asarray(phi, float))


def cutoff(t):
    """The Lipschitz cutoff of the module docstring: 1 on [0, 1/2], linear
    down to 0 on [1/2, 1], 0 beyond."""
    return np.clip(2.0 * (1.0 - np.asarray(t, dtype=float)), 0.0, 1.0)


def annulus_sums(u, dist, r):
    """(D, H, E, Gq) of a QHalfMap or GridField at one radius, from the
    scan's quadrature; an annulus with no grid node raises."""
    quads = [frequency._Quad(f, dist) for f in u.fields()]
    D, H, E, Gq, count = frequency._eval(quads, r)
    if count == 0:
        raise ResolutionError(f"annulus [{r / 2}, {r}] contains no grid nodes")
    return D, H, E, Gq


def test_cutoff_shape():
    assert cutoff(0.0) == 1.0
    assert cutoff(0.49) == 1.0
    assert cutoff(0.75) == pytest.approx(0.5)
    assert cutoff(1.0) == 0.0
    assert cutoff(2.0) == 0.0
    # the scan's closed-form weights integrate this cutoff
    r = 0.8
    for s in (0.0, 0.3, 0.4, 0.55, 0.7, 0.8, 1.3):
        ref, _ = integrate.quad(lambda t: cutoff(t / r), 0.0, s,
                                points=[r / 2, r])
        assert cutoff_antiderivative(np.array([s]), r)[0] == pytest.approx(
            ref, rel=1e-12, abs=1e-14)


def test_constant_map_zero_quantities(dom64, dist64):
    zero = [(1, 0.0, 0.0)]
    spec = data_maps.custom_coefficients([[zero, zero], [zero]], phi_coeffs=[])
    u = sample_map(dom64, spec)
    u.plus[:] = 1.0
    u.minus[:] = 1.0
    fld = GridField(dom64, dom64.plus, u.plus)
    D, H, E, Gq = annulus_sums(fld, dist64, 0.5)
    assert D == 0.0
    assert E == 0.0
    assert Gq == 0.0
    assert H > 0.0


def test_D_against_reference_quadrature(dom64, dist64):
    # f = x has |Df|^2 = 1 on the plus side, so D(r) equals the weighted
    # area integral of the cutoff, computed independently in polar form.
    def fx(xy):
        xy = np.atleast_2d(np.asarray(xy, float))
        return xy[:, 0:1]

    spec = data_maps.DataSpec(Q=1, n=1, plus=data_maps._tile(fx, 1),
                              minus=data_maps._tile(fx, 0),
                              phi=fx, label="f=x")
    fld = plus_field(dom64, spec)
    r = 0.5
    got = annulus_sums(fld, dist64, r)[0]
    ref, _ = integrate.quad(lambda s: cutoff(s / r) * s * np.pi, 0, 1.0)
    assert got == pytest.approx(ref, rel=0.02)


def test_D_monotone_in_r(dom64, dist64):
    spec = data_maps.odd_cubic(Q=2, amplitude=0.2)
    u = sample_map(dom64, spec)
    assert annulus_sums(u, dist64, 1.6)[0] >= annulus_sums(u, dist64, 0.8)[0]


def test_H_resolution_error(dom64, dist64):
    spec = data_maps.linear(Q=1)
    u = sample_map(dom64, spec)
    with pytest.raises(ResolutionError):
        annulus_sums(u, dist64, 1e-4)
    with pytest.raises(ValueError):
        annulus_sums(u, dist64, -1.0)


def test_homogeneous_degree_one_identities(dom64, dist64):
    # f = y on both sides: 1-homogeneous, so E = H/r, Gq = H/r^2,
    # H(2r)/H(r) = 2^{m-1+2} = 8, and I = 1. H ~ r^3 and E = H/r give
    # the derivative identity H' = ((m-1)/r) H + 2 E.
    u = sample_map(dom64, data_maps.linear(Q=2))
    r = 0.4
    _, H1, E1, G1 = annulus_sums(u, dist64, r)
    H2 = annulus_sums(u, dist64, 2 * r)[1]
    assert H2 / H1 == pytest.approx(8.0, rel=0.01)
    assert E1 == pytest.approx(H1 / r, rel=0.01)
    assert G1 == pytest.approx(H1 / r**2, rel=0.02)
    scan = frequency_scan(u, dist64)
    assert np.abs(scan.I - 1.0).max() <= 0.02


def test_branch_field_frequency_three_halves(dom64, dist64):
    # Two-valued square roots of z^3 on the full disk: 3/2-homogeneous.
    fld = full_field(dom64, data_maps.sqrt_branch())
    scan = frequency_scan(fld, dist64)
    assert np.abs(scan.I - 1.5).max() <= 0.03
    assert abs(scan.i0 - 1.5) <= 0.02


def test_cauchy_schwarz_random_map(dom64, dist64):
    rng = np.random.default_rng(3)
    coeffs = [[[(k, rng.standard_normal(), rng.standard_normal())
                for k in range(4)] for _ in range(3)],
              [[(k, rng.standard_normal(), rng.standard_normal())
                for k in range(4)] for _ in range(2)]]
    u = unpinned_map(dom64, data_maps.custom_coefficients(coeffs, []))
    scan = frequency_scan(u, dist64)
    # positive part of (E^2 - H Gq) / (H Gq)
    hg = scan.H * scan.Gq
    assert np.all(hg > 0)
    assert (np.maximum(scan.E**2 - hg, 0.0) / hg).max() <= 1e-9


def test_sheet_storage_permutation_invariance(dom64, dist64):
    u = unpinned_map(dom64, data_maps.odd_cubic(Q=3, amplitude=0.3))
    r = 0.5
    vals = annulus_sums(u, dist64, r)
    rng = np.random.default_rng(11)
    v = u.copy()
    for row in range(v.plus.shape[0]):
        v.plus[row] = v.plus[row, rng.permutation(3)]
    got = annulus_sums(v, dist64, r)
    assert np.allclose(vals, got, rtol=1e-12, atol=1e-14)


def test_scale_equivariance():
    # H(f(s.), 1) = s^{1-m} H(f, s) and D(f(s.), 1) = s^{2-m} D(f, s)
    # for d = |x|; evaluate both sides on the same grid, s = 1/2.
    dom = build_halfdisk(R=1.0, h=1.0 / 64)
    dist = build_distance_field(dom)
    s = 0.5

    def f(xy):
        xy = np.atleast_2d(np.asarray(xy, float))
        z = xy[:, 0] + 1j * xy[:, 1]
        return (z**2).real[:, None] + 0.3 * (z**3).imag[:, None]

    def fs(xy):
        return f(np.asarray(xy) * s)

    mk = lambda fn: data_maps.DataSpec(Q=1, n=1, plus=data_maps._tile(fn, 1),
                                       minus=data_maps._tile(fn, 0),
                                       phi=fn, label="scale")
    u = plus_field(dom, mk(f))
    us = plus_field(dom, mk(fs))
    D_right, H_right, _, _ = annulus_sums(u, dist, s)
    H_right /= s
    D_left, H_left, _, _ = annulus_sums(us, dist, 1.0)
    assert H_left == pytest.approx(H_right, rel=0.02)
    assert D_left == pytest.approx(D_right, rel=0.02)


def test_monotonicity_homogeneous_passes(dom64, dist64):
    fld = full_field(dom64, data_maps.sqrt_branch())
    scan = frequency_scan(fld, dist64)
    ok, worst, c_eff = check_monotonicity(scan, tol=0.02, kappa=0.0)
    assert ok
    assert worst <= 0.005


def test_monotonicity_negative_control(dom64, dist64):
    fld = plus_field(dom64, data_maps.frequency_drop())
    scan = frequency_scan(fld, dist64)
    ok, worst, c_eff = check_monotonicity(scan, tol=0.02, kappa=0.0)
    assert not ok
    assert worst > 0.1


def test_doubling_bounds_homogeneous(dom64, dist64):
    u = sample_map(dom64, data_maps.linear(Q=2))
    scan = frequency_scan(u, dist64)
    rep = check_doubling_bounds(scan, lam=1.2, kappa=0.0)
    assert rep.passed
    assert rep.pairs > 10


def test_blow_up_homogeneous_shape_invariant(dom64):
    # 3/2-homogeneous two-valued field: it is its own blow-up at the
    # origin, so the homogeneity defect at i0 = 3/2 stays near zero and
    # is clearly nonzero at a wrong exponent.
    spec = data_maps.sqrt_branch()
    u = unpinned_map(dom64, spec)
    assert homogeneity_defect(u, 1.5) <= 0.02
    assert homogeneity_defect(u, 1.0) > 0.05


def test_outer_identity_on_solved_map(dom64, dist64, stop_rule):
    data = data_maps.quadratic_harmonic(Q=1)
    stop_rule(update_stop=1e-11, max_sweeps=100000)
    u, info = minimize(dom64, data, init="mean")
    assert info.converged
    scan = frequency_scan(u, dist64)
    ok, worst = check_outer_identity(scan, tol=0.05)
    assert ok, f"outer residual {worst}"
    # negative control: random perturbation breaks the identity
    rng = np.random.default_rng(5)
    v = u.copy()
    free = dom64.plus.free
    v.plus[free] += 0.1 * rng.standard_normal(v.plus[free].shape)
    scan_bad = frequency_scan(v, dist64)
    _, worst_bad = check_outer_identity(scan_bad, tol=0.05)
    assert worst_bad > 3 * worst


class _ReferenceQuad:
    """The per-radius quadrature the scan must reproduce bit for bit.

    Every radius recomputes each node's d-range and cutoff weights over
    the whole field and masks the sums; Jacobian rows are staged as NaN
    where a stencil is cut, and each one-sided neighbour is matched by
    its own kernel call.
    """

    def __init__(self, fld, dist):
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
        Jd = np.einsum("mqnk,mk->mqn", Jc, gradc)
        self.e_term = np.einsum("mqn,mqn->m", V, Jd)
        self.g_term = np.einsum("mqn,mqn->m", Jd, Jd)

        cell = np.full(ns, h * h)
        if side is fld.domain.plus or side is fld.domain.minus:
            cell[fld.domain.tag[side.ids] == INTERFACE] *= 0.5
        self.cell = cell
        gd2_safe = np.where(np.isfinite(self.gd2), self.gd2, 1.0)
        self.delta = 0.5 * h * np.sqrt(np.maximum(gd2_safe, 0.0))

    def at(self, r):
        if r <= 0:
            raise ValueError("radius must be positive")
        a = np.maximum(self.d - self.delta, 0.0)
        b = self.d + self.delta
        span = np.maximum(b - a, 1e-300)
        w_prime = 2.0 * np.clip(np.minimum(b, r) - np.maximum(a, r / 2.0),
                                0.0, None) / span
        w_phi = (cutoff_antiderivative(b, r)
                 - cutoff_antiderivative(a, r)) / span
        selD = (w_phi > 0) & self.valid
        D = float(np.sum(self.cell[selD] * w_phi[selD] * self.df2[selD]))
        sel = ((w_prime > 0) & self.valid & (self.d > 0)
               & np.isfinite(self.gd2))
        w = self.cell[sel] * w_prime[sel]
        H = float(np.sum(w * self.gd2[sel] * self.f2[sel] / self.d[sel]))
        E = float(np.sum(w * self.e_term[sel])) / r
        Gq = float(np.sum(w * self.d[sel] / self.gd2[sel]
                          * self.g_term[sel])) / r**2
        return D, H, E, Gq, int(sel.sum())


def _scan_fields(dom64):
    """(label, field) pairs covering the scan's kinds of input."""
    refinement = data_maps.odd_cubic(Q=3, amplitude=0.01, taper=3.0,
                                     plus_weights=[-1.0, 0.25, 1.0],
                                     minus_weights=[-0.55, 1.0])
    yield "collapse-refinement-64", minimize(dom64, refinement)[0]
    wavy = build_halfdisk(R=1.0, h=1.0 / 64,
                          interface=InterfaceSpec.sine_wave(0.05, 3.0))
    yield "sine-wave-q2", minimize(wavy, data_maps.odd_cubic(Q=2,
                                                             amplitude=0.3))[0]
    yield "glued-full-sqrt-branch", full_field(dom64, data_maps.sqrt_branch())
    yield "sampled-q3", sample_map(dom64, data_maps.odd_cubic(Q=3, amplitude=0.3))


def test_scan_is_bit_equal_to_the_reference_quadrature(dom64, monkeypatch,
                                                       stop_rule):
    stop_rule(max_sweeps=200000)
    fields = [(label, u, build_distance_field(u.domain))
              for label, u in _scan_fields(dom64)]
    got = {label: frequency_scan(u, dist) for label, u, dist in fields}
    monkeypatch.setattr(frequency, "_Quad", _ReferenceQuad)
    for label, u, dist in fields:
        want = frequency_scan(u, dist)
        for name in ("r", "D", "H", "E", "Gq", "I", "outer_residual"):
            assert np.array_equal(getattr(got[label], name),
                                  getattr(want, name)), (label, name)
        assert got[label].i0 == want.i0, label
        assert got[label].h == want.h


def test_empty_annulus_still_raises(dom64, dist64):
    # [r/2, r] below the first grid ring holds no node at all.
    u = sample_map(dom64, data_maps.odd_cubic(Q=3, amplitude=0.3))
    r = 0.5 * dom64.h
    with pytest.raises(ResolutionError):
        annulus_sums(u, dist64, r)
    assert _ReferenceQuad(u.fields()[0], dist64).at(r)[4] == 0


def test_kappa_calibrates_on_the_exact_minimizer(monkeypatch, stop_rule):
    # The harmonic start is the minimizer: one sweep certifies it, and a
    # long mean-start calibration reaches the same kappa.
    dom = build_halfdisk(R=1.0, h=1.0 / 32,
                         interface=InterfaceSpec.sine_wave(0.05, 3.0))
    dist = build_distance_field(dom)
    kappa, info = frequency.calibrate_kappa(dom, dist)
    assert info.sweeps == 1 and info.stop_reason == "update_stop"
    assert kappa > 0.0

    def mean_start(dom, data, **_):
        return minimize(dom, data, init="mean")

    stop_rule(update_stop=1e-11, max_sweeps=200000)
    monkeypatch.setattr("qhalf.solver.minimize", mean_start)
    swept, swept_info = frequency.calibrate_kappa(dom, dist)
    assert swept_info.sweeps > 1
    assert kappa == pytest.approx(swept, rel=1e-8)
