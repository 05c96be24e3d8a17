"""Frequency quantities against closed-form homogeneous fields."""

import numpy as np
import pytest
from scipy import integrate

from qhalf import data_maps
from qhalf.domain import build_halfdisk, build_distance_field
from qhalf.frequency import (
    FrequencyConfig,
    ResolutionError,
    annulus_sums,
    check_doubling_bounds,
    check_monotonicity,
    check_outer_identity,
    cutoff,
    frequency_scan,
    homogeneity_defect,
)
from qhalf.solver import GridField, sample_map


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


def test_cutoff_shape():
    assert cutoff(0.0) == 1.0
    assert cutoff(0.49) == 1.0
    assert cutoff(0.75) == pytest.approx(0.5)
    assert cutoff(1.0) == 0.0
    assert cutoff(2.0) == 0.0


def test_constant_map_zero_quantities(dom64, dist64):
    spec = data_maps.linear(Q=2, slope=0.0)
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
    rel = scan.reliable
    assert np.abs(scan.I[rel] - 1.0).max() <= 0.02


def test_branch_field_frequency_three_halves(dom64, dist64):
    # Two-valued square roots of z^3 on the full disk: 3/2-homogeneous.
    fld = full_field(dom64, data_maps.sqrt_branch())
    scan = frequency_scan(fld, dist64)
    rel = scan.reliable
    assert np.abs(scan.I[rel] - 1.5).max() <= 0.03
    assert abs(scan.i0 - 1.5) <= 0.02


def test_cauchy_schwarz_random_map(dom64, dist64):
    rng = np.random.default_rng(3)
    coeffs = [[[(k, rng.standard_normal(), rng.standard_normal())
                for k in range(4)] for _ in range(3)],
              [[(k, rng.standard_normal(), rng.standard_normal())
                for k in range(4)] for _ in range(2)]]
    u = sample_map(dom64, data_maps.custom_coefficients(coeffs),
                   collapsed=False)
    scan = frequency_scan(u, dist64)
    assert scan.csq_residual.max() <= 1e-9


def test_sheet_storage_permutation_invariance(dom64, dist64):
    u = sample_map(dom64, data_maps.odd_cubic(Q=3, amplitude=0.3),
                   collapsed=False)
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
    ok, worst, c_eff = check_monotonicity(scan)
    assert ok
    assert worst <= 0.005


def test_monotonicity_negative_control(dom64, dist64):
    fld = plus_field(dom64, data_maps.frequency_drop())
    scan = frequency_scan(fld, dist64)
    ok, worst, c_eff = check_monotonicity(scan, tol=0.02)
    assert not ok
    assert worst > 0.1


def test_doubling_bounds_homogeneous(dom64, dist64):
    u = sample_map(dom64, data_maps.linear(Q=2))
    scan = frequency_scan(u, dist64)
    rep = check_doubling_bounds(scan, lam=1.2)
    assert rep.passed
    assert rep.pairs > 10


def test_blow_up_homogeneous_shape_invariant(dom64):
    # 3/2-homogeneous two-valued field: it is its own blow-up at the
    # origin, so the homogeneity defect at i0 = 3/2 stays near zero and
    # is clearly nonzero at a wrong exponent.
    spec = data_maps.sqrt_branch()
    u = sample_map(dom64, spec, collapsed=False)
    assert homogeneity_defect(u, 1.5) <= 0.02
    assert homogeneity_defect(u, 1.0) > 0.05


def test_outer_identity_on_solved_map(dom64, dist64):
    from qhalf.solver import SolverConfig, minimize, suggested_omega

    data = data_maps.quadratic_harmonic(Q=1)
    cfg = SolverConfig(init="mean", update_stop=1e-11,
                       omega=suggested_omega(dom64), max_sweeps=100000)
    u, info = minimize(dom64, data, cfg)
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
