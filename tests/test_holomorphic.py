"""Branch factors, zero certification, and flat decay measurements."""

import numpy as np
import pytest

from qhalf import holomorphic
from qhalf.holomorphic import (
    ZeroMatchError,
    branch_product,
    branch_product_and_prime,
    decay_constant,
    derivative_decay_check,
    fd_weights,
    find_zeros_numeric,
    flat_profile,
    log_derivative,
    predicted_zeros_in_annulus,
    product_phase,
)

# reference values computed with 40-digit arithmetic
F_AT_ONE = [
    0.84660055414926127477j,
    0.20154402981776545279j,
    -0.20154402981776545279j,
    -0.84660055414926127477j,
]
F1_AT_P = -0.17211843223593608353 + 0.24038799608623566437j
G_AT_P = 0.019133197544892224165 + 0.0026486411817210529721j
G_AT_Q = 1.0812780417187566868 - 0.16876933481255753907j
H_AT_001 = 0.16533663615751249312 - 0.048926515675144086687j
G_ALPHA07 = 0.076612317504163191773 - 0.085142018058007295138j


def branch_factor(z, k, alpha=0.5):
    """One factor exp(-z^{-alpha}) sin(Log z + i(3-2k)pi/6), principal
    branch, extended by 0 at the origin: the reference the fused
    product is checked against."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    nz = z != 0
    zz = z[nz]
    out[nz] = np.exp(-zz ** (-alpha)) * np.sin(
        np.log(zz) + 1j * (3 - 2 * k) * np.pi / 6.0)
    return out[()]


def predicted_zero_set(k, n_range):
    """Zeros e^{n pi + i(2k-3) pi/6} of factor k for n in n_range."""
    n = np.asarray(list(n_range), dtype=float)
    return np.exp(n * np.pi + 1j * (2 * k - 3) * np.pi / 6.0)


def test_factor_values():
    for k in range(4):
        np.testing.assert_allclose(branch_factor(1.0, k), F_AT_ONE[k],
                                   rtol=1e-13)
    np.testing.assert_allclose(branch_factor(0.7 + 0.2j, 1), F1_AT_P,
                               rtol=1e-13)


def test_product_values():
    np.testing.assert_allclose(branch_product(0.7 + 0.2j), G_AT_P,
                               rtol=1e-13)
    np.testing.assert_allclose(branch_product(0.05 + 1.3j), G_AT_Q,
                               rtol=1e-13)
    np.testing.assert_allclose(branch_product(0.4 - 0.6j, alpha=0.7),
                               G_ALPHA07, rtol=1e-13)


def test_flat_extension_at_origin():
    assert branch_product(0.0) == 0.0
    for k in range(4):
        assert branch_factor(0.0, k) == 0.0


def test_conjugation_symmetry():
    # conjugating z swaps factor k with factor 3-k and fixes the product
    pts = np.array([0.7 + 0.2j, 0.05 + 1.3j, 1.4 - 0.9j])
    for k in range(4):
        np.testing.assert_allclose(branch_factor(np.conj(pts), k),
                                   np.conj(branch_factor(pts, 3 - k)),
                                   rtol=1e-13)
    np.testing.assert_allclose(branch_product(np.conj(pts)),
                               np.conj(branch_product(pts)), rtol=1e-13)


def test_slit_plane_domain():
    with pytest.raises(ValueError):
        branch_product(-1.0)
    for fn in (branch_product_and_prime, log_derivative, product_phase):
        with pytest.raises(ValueError):
            fn(np.array([0.3 + 0.1j, -0.2 + 0.0j]))
    # just off the slit is fine
    branch_product(-1.0 + 0.5j)


def test_predicted_zero_closed_forms():
    np.testing.assert_allclose(predicted_zero_set(0, [0]), [-1j], atol=1e-15)
    np.testing.assert_allclose(predicted_zero_set(3, [0]), [1j], atol=1e-15)
    np.testing.assert_allclose(predicted_zero_set(2, [1]),
                               [np.exp(np.pi) * np.exp(1j * np.pi / 6)],
                               rtol=1e-14)
    ring0 = predicted_zeros_in_annulus(0.5, 2.0)
    assert ring0.size == 4
    np.testing.assert_allclose(np.abs(ring0), 1.0, rtol=1e-14)


def test_product_vanishes_on_zero_rings():
    for n in (-1, 0, 1):
        for k in range(4):
            z = predicted_zero_set(k, [n])[0]
            assert abs(branch_product(z)) < 1e-12
            assert abs(branch_factor(z, k)) < 1e-12


def test_prime_matches_finite_difference():
    h = 1e-5
    for z in (0.7 + 0.2j, 1.3 - 0.4j, 0.05 + 1.3j):
        fd = (branch_product(z + h) - branch_product(z - h)) / (2 * h)
        np.testing.assert_allclose(branch_product_and_prime(z)[1], fd,
                                   rtol=1e-5)


def test_log_derivative_consistency():
    for z in (0.7 + 0.2j, 0.05 + 1.3j, 1.4 - 0.9j):
        g, gp = branch_product_and_prime(z)
        np.testing.assert_allclose(log_derivative(z), gp / g, rtol=1e-10)
    pts = _sample_points(np.random.default_rng(7), 400)
    g, gp = branch_product_and_prime(pts)
    np.testing.assert_allclose(gp, log_derivative(pts) * g, rtol=1e-10)


def _sample_points(rng, n):
    # moduli e^{-pi}..e^{pi}, angles across the slit plane
    r = np.exp(rng.uniform(-np.pi, np.pi, n))
    return r * np.exp(1j * rng.uniform(-0.95 * np.pi, 0.95 * np.pi, n))


def _four_factor_product(z):
    return np.prod([branch_factor(z, k) for k in range(4)], axis=0)


def test_fused_product_matches_four_factors():
    rng = np.random.default_rng(11)
    zeros = np.concatenate([predicted_zero_set(k, range(-1, 2))
                            for k in range(4)])
    pts = _sample_points(rng, 4000)
    near = np.min(np.abs(pts[:, None] - zeros[None, :])
                  / np.abs(zeros)[None, :], axis=1) < 0.05
    far = pts[~near]
    assert far.size > 3000
    g, _ = branch_product_and_prime(far)
    np.testing.assert_allclose(g, _four_factor_product(far), rtol=1e-12)
    # next to the closed-form zeros the relative error is unbounded;
    # the absolute one stays at rounding level
    for z0 in zeros:
        z = z0 + abs(z0) * np.concatenate(
            [[0.0], 10.0 ** rng.uniform(-9, -2, 40)
             * np.exp(2j * np.pi * rng.uniform(size=40))])
        g, _ = branch_product_and_prime(z)
        assert np.max(np.abs(g - _four_factor_product(z))) < 1e-13
    for alpha in (0.3, 0.7):
        g, _ = branch_product_and_prime(far[:200], alpha)
        np.testing.assert_allclose(
            g, branch_product(far[:200], alpha), rtol=1e-12)


def test_fused_evaluator_shapes_origin_and_slit():
    g, gp = branch_product_and_prime(0.7 + 0.2j)
    assert isinstance(g, complex) and isinstance(gp, complex)
    np.testing.assert_allclose(g, G_AT_P, rtol=1e-13)
    g, gp = branch_product_and_prime(np.array([0.0, 0.7 + 0.2j]))
    assert g.shape == gp.shape == (2,)
    assert g[0] == 0.0 and gp[0] == 0.0
    with pytest.raises(ValueError):
        branch_product_and_prime(-1.0)


def test_phase_and_log_abs_below_underflow():
    # at this point exp(-4 Re z^{-1/2}) is around exp(-25000)
    z = 1e-8 * np.exp(1j * np.pi / 5)
    assert branch_product(z) == 0.0
    assert np.isfinite(product_phase(z))


def test_find_zeros_unit_ring():
    zeros, paired = find_zeros_numeric(0.5, 2.0)
    expected = np.array([np.exp(-1j * np.pi / 2), np.exp(-1j * np.pi / 6),
                         np.exp(1j * np.pi / 6), np.exp(1j * np.pi / 2)])
    np.testing.assert_allclose(zeros, expected, atol=1e-12)
    np.testing.assert_allclose(paired, expected, atol=1e-15)


def test_find_zeros_three_rings():
    zeros, paired = find_zeros_numeric(0.02, 30.0)
    assert zeros.size == 12
    moduli = np.sort(np.abs(zeros))
    expected = np.repeat([np.exp(-np.pi), 1.0, np.exp(np.pi)], 4)
    np.testing.assert_allclose(moduli, expected, rtol=1e-12)
    # each zero is paired with its own closed-form zero, once
    assert np.max(np.abs(zeros - paired)) <= 1e-10
    assert np.unique(paired).size == 12


def test_zeros_come_ring_by_ring_in_increasing_angle():
    # The four zeros of a ring share one modulus, so |z| alone leaves
    # their order to rounding: rings ascend, then angles inside a ring.
    # The zeros runner scans each ring n in -4..3 on its own 4:1 annulus.
    for n in range(-4, 4):
        ring = np.exp(n * np.pi)
        zeros, _ = find_zeros_numeric(ring / 2.0, 2.0 * ring)
        np.testing.assert_allclose(np.degrees(np.angle(zeros)),
                                   [-90.0, -30.0, 30.0, 90.0], rtol=0,
                                   atol=1e-9, err_msg=f"ring {n}")
    zeros, _ = find_zeros_numeric(0.02, 30.0)
    assert np.rint(np.log(np.abs(zeros)) / np.pi).tolist() == (
        [-1.0] * 4 + [0.0] * 4 + [1.0] * 4)
    np.testing.assert_allclose(np.degrees(np.angle(zeros)).reshape(3, 4),
                               np.tile([-90.0, -30.0, 30.0, 90.0], (3, 1)),
                               rtol=0, atol=1e-9)


def test_find_zeros_empty_annulus():
    zeros, paired = find_zeros_numeric(2.0, 10.0)
    assert zeros.size == paired.size == 0


def test_zero_match_must_be_one_to_one(monkeypatch):
    # Newton lands the two upper-half-plane cells on the conjugate zeros:
    # every numeric zero sits on a closed-form zero, but two pairs share
    # one, so the match is not a permutation.
    polish = holomorphic._newton_polish

    def onto_lower_half(z0, alpha):
        z = polish(z0, alpha)
        return z.conjugate() if z.imag > 0 else z

    monkeypatch.setattr(holomorphic, "_newton_polish", onto_lower_half)
    with pytest.raises(ZeroMatchError, match="share"):
        find_zeros_numeric(0.5, 2.0)


def test_zero_match_bounds_the_worst_pair(monkeypatch):
    # one closed-form zero moved by 1e-6, far beyond MATCH_TOL
    def shifted(r_lo, r_hi):
        pts = predicted_zeros_in_annulus(r_lo, r_hi)
        pts[1] += 1e-6
        return pts

    monkeypatch.setattr(holomorphic, "predicted_zeros_in_annulus", shifted)
    with pytest.raises(ZeroMatchError, match="exceeds"):
        find_zeros_numeric(0.5, 2.0)


def test_zero_on_cell_boundary_is_rejected():
    # inner radius exactly on the unit ring puts four zeros on the
    # cell boundary, which the winding count must refuse to certify
    with pytest.raises(ZeroMatchError):
        find_zeros_numeric(1.0, 2.0)


def test_flat_profile_value_and_axis_zeros():
    np.testing.assert_allclose(flat_profile(0.01), H_AT_001, rtol=1e-13)
    s0 = np.exp(-3 * np.pi)
    assert abs(flat_profile(s0)) < 1e-15
    assert abs(flat_profile(1.1 * s0)) > 1e-8
    with pytest.raises(ValueError):
        flat_profile(-0.1)


def test_envelope_on_right_half_plane():
    c = decay_constant(0.5)
    slack = np.log(72.0)
    for theta in (-1.5, -0.9, -0.3, 0.2, 0.8, 1.4):
        r = np.geomspace(5e-3, 1.5, 120)
        la = np.log(np.abs(branch_product(r * np.exp(1j * theta))))
        assert np.all(la <= slack - 4 * c * r ** -0.5 + 1e-9)


def test_fd_weights_exact_on_polynomials():
    x = np.array([0.3, 0.45, 0.7, 0.8, 1.1])
    p = np.array([1.0, -2.0, 0.0, 1.0, -3.0])  # x^4 - 2x^3 + x - 3
    for m, want in ((0, np.polyval(p, 0.6)),
                    (2, 12 * 0.6 ** 2 - 12 * 0.6),
                    (4, 24.0)):
        w = fd_weights(x, 0.6, m)
        np.testing.assert_allclose(w @ np.polyval(p, x), want,
                                   rtol=1e-12, atol=1e-12)



def _scalar_fd_weights(x, x0, m):
    # Fornberg's recursion for one stencil, one Python float at a time.
    n = len(x)
    w = np.zeros((n, m + 1))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1]
                                    - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, m]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_batched_fd_weights_equal_one_stencil_at_a_time(order):
    # The decay check's stencils, weighed all at once, against the scalar
    # recursion per stencil: weights and magnitudes bit for bit.
    from qhalf.holomorphic import _fit_grid, _span_grid

    rep = derivative_decay_check(order)
    for grid, mag in ((_span_grid(order, 0.5), rep.magnitude),
                      (_fit_grid(order, 0.5), None)):
        centers = np.arange(2, len(grid) - 2)
        stencils = centers[:, None] + np.arange(-2, 3)
        batched = fd_weights(grid[stencils], grid[centers], order)
        h = flat_profile(grid, 0.5)
        want = []
        for c, w in zip(centers, batched):
            ref = _scalar_fd_weights(grid[c - 2:c + 3], grid[c], order)
            assert np.array_equal(w, ref)
            want.append(abs(np.dot(ref, h[c - 2:c + 3])))
        if mag is not None:
            assert np.array_equal(mag, np.array(want))


def _loop_fit_decay_exponent(xs, ys):
    """One least-squares solve per trial exponent, the first strictly
    smallest residual with C > 0 kept."""
    best = (np.inf, float("nan"))
    for beta in np.geomspace(0.02, 1.2, 241):
        basis = np.column_stack([np.ones_like(xs), np.log(xs),
                                 xs ** (-beta)])
        coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
        if coef[2] <= 0:
            continue
        r = float(np.sum((basis @ coef - ys) ** 2))
        if r < best[0]:
            best = (r, beta)
    return best[1]


def test_batched_decay_fit_picks_the_loops_exponent(monkeypatch):
    # The batched QR fit against one lstsq per trial: the same trial
    # exponent, bit for bit, on every order.
    batched = [derivative_decay_check(order).fitted_exponent
               for order in range(5)]
    monkeypatch.setattr(holomorphic, "_fit_decay_exponent",
                        _loop_fit_decay_exponent)
    looped = [derivative_decay_check(order).fitted_exponent
              for order in range(5)]
    assert batched == looped
    assert all(np.isfinite(batched))


def exponent_within(rep, rtol=0.2):
    """The fitted decay exponent within rtol of the expected alpha / 3."""
    fitted, expected = rep.fitted_exponent, rep.expected_exponent
    return np.isfinite(fitted) and abs(fitted - expected) <= rtol * expected


def test_decay_reports_default_windows():
    for order in range(5):
        rep = derivative_decay_check(order)
        assert rep.tail_monotone
        # no magnitude on the default windows underflows to zero
        assert np.all(rep.magnitude > 0.0)
        assert exponent_within(rep)
        assert rep.expected_exponent == pytest.approx(1.0 / 6.0)
        if order == 0:
            assert rep.envelope_ok
            # the whole direct window is already decaying
            assert rep.crossover == pytest.approx(1e-2)
        else:
            assert rep.envelope_ok is None


def test_decay_other_alphas():
    for alpha in (0.4, 0.7):
        rep = derivative_decay_check(4, alpha=alpha)
        assert rep.expected_exponent == pytest.approx(alpha / 3.0)
        assert exponent_within(rep)
        assert rep.tail_monotone


def test_decay_validation():
    with pytest.raises(ValueError):
        derivative_decay_check(5)
    with pytest.raises(ValueError):
        derivative_decay_check(1, alpha=1.0)
