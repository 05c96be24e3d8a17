"""Flat holomorphic branch factors, their zero rings, and decay checks.

The four factors exp(-z^{-alpha}) sin(Log z + i(3-2k)pi/6), k = 0..3,
are holomorphic on the plane slit along the negative real axis and
extend by 0 at the origin with all derivatives vanishing there. Each
factor vanishes on one logarithmic spiral of points e^{n pi + i(2k-3)
pi/6}, so the product has four explicit zeros on every modulus ring
e^{n pi}. Restricting the product to the imaginary axis through the
cube-root chart s -> i s^{1/3} gives a profile h(s) whose derivatives
decay like exp(-4 cos(alpha pi/2) s^{-alpha/3}) near 0.

The phases pair up as +-i pi/2 and +-i pi/6, and sin(w + ia) sin(w - ia)
= (cosh 2a - cos 2w)/2, so with w = Log z the product is
g = exp(-4 z^{-alpha}) (cosh pi - cos 2w)(cosh pi/3 - cos 2w) / 4.
branch_product_and_prime evaluates g and g' from this closed form in one
pass, for the surface. branch_product keeps the four-factor form: the
decay checks take finite differences up to order 4, which amplify
rounding, and the closed form would move their values by about 1e-12.

Zeros are located independently of the closed form by winding counts
over sector-annulus cells (phase increments only, so magnitudes never
underflow), positioned by the first moment of the logarithmic
derivative around the cell, and polished by Newton. The decay checks
evaluate finite-difference derivatives of h on geometric grids and fit
the stretched-exponential exponent.

Numerical windows for the decay measurement need care on two counts.
First, |h^{(ell)}| rises before it falls: the prefactor s^{-N} wins
until u = -log s passes u* = (3/alpha) log(3N/(4 c alpha)) with
N = ell (1 + alpha/3), so the grid must reach beyond u*. Second, the
k = 3 factor is real on the axis and vanishes at s = e^{-3 m pi};
windows are placed inside the zero-free spans between those points.
"""

import numpy as np
from dataclasses import dataclass
from typing import Optional

_K_PHASES = tuple((3 - 2 * k) * np.pi / 6.0 for k in range(4))

MATCH_TOL = 1e-10  # farthest a numeric zero may lie from its closed form


class ZeroMatchError(RuntimeError):
    """Numeric zero search disagrees with the closed-form prediction."""


def decay_constant(alpha: float) -> float:
    """cos(alpha pi / 2), the constant in the radial decay envelope."""
    return float(np.cos(alpha * np.pi / 2.0))


def _prep(z):
    """Validate and broadcast an input of points in the slit plane."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    on_slit = (z.real < 0) & (z.imag == 0)
    if np.any(on_slit):
        raise ValueError("points on the negative real axis are outside "
                         "the slit-plane domain")
    return z, scalar


def branch_product(z, alpha: float = 0.5):
    """Product of the four branch factors; 0 at the origin."""
    z, scalar = _prep(z)
    out = np.zeros(z.shape, dtype=complex)
    nz = z != 0
    zz = z[nz]
    logz = np.log(zz)
    acc = np.exp(-4.0 * zz ** (-alpha))
    for ph in _K_PHASES:
        acc = acc * np.sin(logz + 1j * ph)
    out[nz] = acc
    return complex(out[0]) if scalar else out


def branch_product_and_prime(z, alpha: float = 0.5):
    """g and g' from the closed form in one pass; both 0 at the origin.

    With c = cos 2w and e = exp(-4 z^{-alpha}), g' = e [alpha z^{-alpha}
    (cosh pi - c)(cosh pi/3 - c) + sin 2w (cosh pi + cosh pi/3 - 2c) / 2] / z.
    cos 2w and sin 2w come from u = e^{2iw} = z^{2i}.
    """
    z, scalar = _prep(z)
    g, gp = np.zeros((2,) + z.shape, dtype=complex)
    nz = z != 0
    zz = z[nz]
    logz = np.log(zz)
    za = np.exp(-alpha * logz)
    u = np.exp(2j * logz)
    ui = 1.0 / u
    c = 0.5 * (u + ui)
    a, b = np.cosh(np.pi) - c, np.cosh(np.pi / 3.0) - c
    ab = a * b
    e = np.exp(-4.0 * za)
    g[nz] = 0.25 * e * ab
    gp[nz] = e * (alpha * za * ab - 0.25j * (u - ui) * (a + b)) / zz
    return (complex(g[0]), complex(gp[0])) if scalar else (g, gp)


def log_derivative(z, alpha: float = 0.5):
    """(d/dz) log of the product: 4 alpha z^{-alpha-1} + sum cot / z."""
    z, scalar = _prep(z)
    logz = np.log(z)
    acc = 4.0 * alpha * z ** (-alpha - 1.0)
    for ph in _K_PHASES:
        acc = acc + 1.0 / (np.tan(logz + 1j * ph) * z)
    return complex(acc[0]) if scalar else acc


def product_phase(z, alpha: float = 0.5):
    """Phase of the product (mod 2 pi), usable at any magnitude."""
    z, scalar = _prep(z)
    logz = np.log(z)
    acc = -4.0 * np.imag(z ** (-alpha))
    for ph in _K_PHASES:
        acc = acc + np.angle(np.sin(logz + 1j * ph))
    return float(acc[0]) if scalar else acc


def predicted_zeros_in_annulus(r_lo: float, r_hi: float) -> np.ndarray:
    """All closed-form zeros with modulus in [r_lo, r_hi]."""
    if not 0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")
    n_lo = int(np.ceil(np.log(r_lo) / np.pi - 1e-12))
    n_hi = int(np.floor(np.log(r_hi) / np.pi + 1e-12))
    pts = []
    for n in range(n_lo, n_hi + 1):
        for k in range(4):
            pts.append(np.exp(n * np.pi + 1j * (2 * k - 3) * np.pi / 6.0))
    return np.array(pts, dtype=complex)


def _cell_path(r0, r1, t0, t1, n):
    """Counterclockwise boundary samples of a sector-annulus cell."""
    rr = np.geomspace(r0, r1, n)
    tt = np.linspace(t0, t1, n)
    bottom = rr * np.exp(1j * t0)
    outer = r1 * np.exp(1j * tt)
    top = rr[::-1] * np.exp(1j * t1)
    inner = r0 * np.exp(1j * tt[::-1])
    return np.concatenate([bottom[:-1], outer[:-1], top[:-1], inner])


def _winding_and_moment(r0, r1, t0, t1, alpha):
    """Zero count inside a cell and the first moment of log' around it.

    The count comes from accumulated phase increments of the product
    along the boundary; the moment (1/2 pi i) oint z (log g)' dz equals
    the zero location when the count is one.
    """
    n = 64
    for _ in range(5):
        path = _cell_path(r0, r1, t0, t1, n)
        phases = product_phase(path, alpha)
        d = np.diff(np.concatenate([phases, phases[:1]]))
        d = (d + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(d)) < 2.0:
            break
        n *= 2
    else:
        raise ZeroMatchError("winding phase step did not resolve; a zero "
                             "may sit on a cell boundary")
    count = int(round(float(np.sum(d)) / (2.0 * np.pi)))
    if count == 0:
        return 0, 0.0j
    closed = np.concatenate([path, path[:1]])
    f = closed * log_derivative(closed, alpha)
    seg = 0.5 * (f[1:] + f[:-1]) * np.diff(closed)
    moment = np.sum(seg) / (2j * np.pi)
    return count, moment / count


def _newton_polish(z0, alpha, steps=60):
    z = complex(z0)
    for _ in range(steps):
        step = -1.0 / log_derivative(z, alpha)
        z = z + step
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            return z
    raise ZeroMatchError(f"Newton did not converge from {z0}")


def find_zeros_numeric(r_lo: float, r_hi: float, alpha: float = 0.5):
    """Locate the product's zeros in an annulus and certify the formula.

    Sector-annulus cells covering moduli [r_lo, r_hi] and angles just
    past [-pi/2, pi/2] are scanned by winding count; each zero is
    positioned by the boundary moment and polished by Newton. Each
    numeric zero is paired with its nearest closed-form zero; the
    pairing must be one-to-one and every pair within MATCH_TOL, else
    ZeroMatchError (a missed, spurious, or displaced zero). The closed
    form's zeros lie far more than 2 MATCH_TOL apart, so this is the
    only one-to-one matching within MATCH_TOL. Returns the numeric
    zeros sorted by ring n (the nearest integer to log|z| / pi), then by
    angle within the ring, and the closed-form zero paired with each.
    """
    if not 0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")
    pad = 0.06
    n_t = 8
    t_edges = np.linspace(-np.pi / 2 - pad, np.pi / 2 + pad, n_t + 1)
    n_r = max(1, int(np.ceil(np.log(r_hi / r_lo) / 1.4)))
    r_edges = np.geomspace(r_lo, r_hi, n_r + 1)
    # nudge interior radial edges off the zero rings
    for i in range(1, n_r):
        lg = np.log(r_edges[i])
        if abs(lg / np.pi - round(lg / np.pi)) * np.pi < 0.15:
            r_edges[i] *= np.exp(0.2)

    found = []
    stack = [(r_edges[i], r_edges[i + 1], t_edges[j], t_edges[j + 1])
             for i in range(n_r) for j in range(n_t)]
    guard = 0
    while stack:
        r0, r1, t0, t1 = stack.pop()
        guard += 1
        if guard > 4000:
            raise ZeroMatchError("cell subdivision budget exceeded")
        count, moment = _winding_and_moment(r0, r1, t0, t1, alpha)
        if count == 0:
            continue
        if count == 1:
            found.append(_newton_polish(moment, alpha))
            continue
        rm = np.sqrt(r0 * r1)
        tm = 0.5 * (t0 + t1)
        stack.extend([(r0, rm, t0, tm), (rm, r1, t0, tm),
                      (r0, rm, tm, t1), (rm, r1, tm, t1)])

    found = np.array(found, dtype=complex)
    predicted = predicted_zeros_in_annulus(r_lo, r_hi)
    if len(found) != len(predicted):
        raise ZeroMatchError(
            f"found {len(found)} zeros in [{r_lo}, {r_hi}] but the "
            f"closed form predicts {len(predicted)}")
    if not len(found):
        return found, predicted
    dist = np.abs(found[:, None] - predicted[None, :])
    nearest = np.argmin(dist, axis=1)
    if np.unique(nearest).size < nearest.size:
        raise ZeroMatchError("two numeric zeros share their nearest "
                             "closed-form zero")
    worst = float(dist[np.arange(len(found)), nearest].max())
    if worst > MATCH_TOL:
        raise ZeroMatchError(
            f"zero matching distance {worst:.3e} exceeds {MATCH_TOL}")
    # a ring's zeros share |z| up to rounding: sort by ring index first
    order = np.lexsort((np.angle(found),
                        np.rint(np.log(np.abs(found)) / np.pi)))
    return found[order], predicted[nearest[order]]


def flat_profile(s, alpha: float = 0.5):
    """The axis profile h(s) = product(i s^{1/3}) for s > 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    return branch_product(1j * np.cbrt(s), alpha)


def fd_weights(x, x0, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0.

    Fornberg's recursion on arbitrary nodes x; exact for polynomials
    of degree len(x)-1. Stencils stacked on leading axes of x (x0 one
    point each) run at once, each with its own call's scalar operations.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if m >= n:
        raise ValueError("need more nodes than the derivative order")
    w = np.zeros(x.shape + (m + 1,))
    w[..., 0, 0] = 1.0
    c1 = np.ones(x.shape[:-1])
    c4 = x[..., 0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = np.ones(x.shape[:-1])
        c5 = c4
        c4 = x[..., i] - x0
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                # row i must come from row i-1 before its update below
                for k in range(mn, 0, -1):
                    w[..., i, k] = c1 * (k * w[..., i - 1, k - 1]
                                         - c5 * w[..., i - 1, k]) / c2
                w[..., i, 0] = -c1 * c5 * w[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[..., j, k] = (c4 * w[..., j, k] - k * w[..., j, k - 1]) / c3
            w[..., j, 0] = c4 * w[..., j, 0] / c3
        c1 = c2
    return w[..., m]


@dataclass
class DecayReport:
    """What derivative_decay_check measured; envelope_ok is None past
    order 0, and the caller judges the fitted exponent."""

    s: np.ndarray
    magnitude: np.ndarray
    crossover: float
    tail_monotone: bool
    envelope_ok: Optional[bool]
    fitted_exponent: float
    expected_exponent: float


def _turnaround_u(order: int, alpha: float) -> float:
    """u = -log s past which |h^(order)| starts decreasing."""
    if order == 0:
        return 0.0
    c4 = 4.0 * decay_constant(alpha)
    n_pref = order * (1.0 + alpha / 3.0)
    return (3.0 / alpha) * np.log(3.0 * n_pref / (alpha * c4))


def _fidelity_points(order: int, alpha: float, u_lo: float,
                     u_hi: float) -> int:
    """Grid size keeping finite differences honest at the deep end.

    -log|h^(order)| grows like c4 exp(beta u), so the log-slope at the
    deep end is beta times the envelope term there. Spacing du is kept
    at or below 0.5 / slope so the magnitude varies by at most about
    e^2 across a five-point stencil; beyond that the stencil sum is
    just a read of its largest node and the measured decay warps.
    """
    if order == 0:
        return 161
    beta = alpha / 3.0
    slope = beta * 4.0 * decay_constant(alpha) * np.exp(beta * u_hi)
    n = int(np.ceil((u_hi - u_lo) * slope / 0.5)) + 1
    return int(min(801, max(161, n)))


def _span_grid(order: int, alpha: float) -> np.ndarray:
    """Geometric s grid inside a zero-free span with a decaying tail.

    The axis profile vanishes exactly at u = -log s = 3 pi m; spans
    between consecutive zeros have length 3 pi, enough for several
    decades of decay. Picks the first span whose far end leaves at
    least 3.5 units of u past the turnaround, so the rise, the
    crossover, and a tail that falls by orders of magnitude all fit.
    """
    u_star = _turnaround_u(order, alpha)
    margin = 1.1
    m = 1
    while 3.0 * np.pi * (m + 1) - margin < u_star + 3.5:
        m += 1
    u_lo = 3.0 * np.pi * m + margin
    u_hi = 3.0 * np.pi * (m + 1) - margin
    points = _fidelity_points(order, alpha, u_lo, u_hi)
    return np.exp(-np.linspace(u_lo, u_hi, points))


def _fit_grid(order: int, alpha: float) -> np.ndarray:
    """Deep geometric s grid where the decay exponent is identifiable.

    The stretched-exponential term must dominate the power-law
    prefactor and the bounded angular wiggles for the exponent scan to
    lock on, so the window sits as deep as the floating-point floor
    allows: the envelope exponent c4 s^{-alpha/3} is let run up to 600
    for direct magnitudes and 340 when finite differences are involved
    (the extra headroom keeps stencil spacing practical). The window
    stays inside one zero-free span, past the turnaround, and the
    grid density follows the fidelity rule.
    """
    beta = alpha / 3.0
    c4 = 4.0 * decay_constant(alpha)
    e_max = 600.0 if order == 0 else 340.0
    u_cap = np.log(e_max / c4) / beta
    margin = 1.1
    m = 1
    while 3.0 * np.pi * (m + 1) + margin + 2.0 <= u_cap:
        m += 1
    u_star = _turnaround_u(order, alpha)
    while 3.0 * np.pi * m + margin < u_star + 1.0:
        m += 1
    u_lo = 3.0 * np.pi * m + margin
    u_hi = min(3.0 * np.pi * (m + 1) - margin, u_cap)
    u_hi = max(u_hi, u_lo + 1.2)
    points = _fidelity_points(order, alpha, u_lo, u_hi)
    return np.exp(-np.linspace(u_lo, u_hi, points))


# trial exponents of the stretched-exponential decay fit
_TRIAL_BETAS = np.geomspace(0.02, 1.2, 241)


def _fit_decay_exponent(xs, ys):
    """Trial beta whose least-squares fit ys ~ A + B log xs + C xs^{-beta}
    with C > 0 leaves the smallest residual (the first, on ties); NaN if
    no trial has C > 0. One batched QR solves every trial's basis."""
    basis = np.empty((_TRIAL_BETAS.size, xs.size, 3))
    basis[:, :, 0] = 1.0
    basis[:, :, 1] = np.log(xs)
    basis[:, :, 2] = xs[None, :] ** -_TRIAL_BETAS[:, None]
    q, rr = np.linalg.qr(basis)
    coef = np.linalg.solve(rr, (ys @ q)[:, :, None])[:, :, 0]
    res = np.sum(((basis @ coef[:, :, None])[:, :, 0] - ys) ** 2, axis=1)
    res = np.where((coef[:, 2] > 0) & (res < np.inf), res, np.inf)
    k = int(np.argmin(res))
    return float(_TRIAL_BETAS[k]) if res[k] < np.inf else float("nan")


def derivative_decay_check(order: int, alpha: float = 0.5) -> DecayReport:
    """Measure the decay of |h^{(order)}| toward s = 0.

    Derivatives are finite differences on five-point stencils of the
    (generally nonuniform) grid. The report records the crossover
    below which the magnitude is nonincreasing, whether the tail
    actually decays, the order-0 envelope bound with the 0.5 slack
    constant, and a stretched-exponential fit of the decay exponent
    -log|h^(order)| ~ A + B log s + C s^{-beta} against the expected
    beta = alpha/3 (NaN when no trial fits).
    """
    if not 0 <= order <= 4:
        raise ValueError("order must be in 0..4")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    s = np.geomspace(1e-2, 1e-4, 49) if order == 0 else _span_grid(order, alpha)

    def magnitudes(grid):
        h = flat_profile(grid, alpha)
        if order == 0:
            return np.abs(h), grid
        half = 2
        centers = np.arange(half, len(grid) - half)
        stencils = centers[:, None] + np.arange(-half, half + 1)
        weights = fd_weights(grid[stencils], grid[centers], order)
        # one np.dot per stencil: a batched sum adds in another order
        vals = np.array([abs(np.dot(w, h[k]))
                         for w, k in zip(weights, stencils)])
        return vals, grid[half:-half]

    mag, s_eval = magnitudes(s)

    # longest monotone (nonincreasing) run ending at the smallest s
    c = len(mag) - 1
    while c > 0 and mag[c] <= mag[c - 1] * (1.0 + 1e-12):
        c -= 1
    crossover = float(s_eval[c])
    span = mag[c:]
    tail_monotone = (len(span) >= 8 and span[0] > 0
                     and span[-1] <= 0.1 * span[0])

    envelope_ok = None
    if order == 0:
        cc = decay_constant(alpha)
        inside = s_eval <= 0.0101
        bound = np.exp(-0.5 * cc * s_eval[inside] ** (-alpha / 3.0))
        envelope_ok = bool(np.all(mag[inside] <= bound * (1.0 + 1e-12)))

    fit_mag, fit_nodes = magnitudes(_fit_grid(order, alpha))
    # fit only the decaying side, past the turnaround with a little room
    s_cap = np.exp(-(_turnaround_u(order, alpha) + 0.5))
    keep = (fit_mag > 0) & (fit_nodes <= s_cap)
    expected = alpha / 3.0
    fitted = float("nan")
    if np.sum(keep) >= 8:
        fitted = _fit_decay_exponent(fit_nodes[keep], -np.log(fit_mag[keep]))
    return DecayReport(s=s_eval, magnitude=mag, crossover=crossover,
                       tail_monotone=bool(tail_monotone),
                       envelope_ok=envelope_ok, fitted_exponent=fitted,
                       expected_exponent=expected)
