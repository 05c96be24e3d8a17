"""Named closed-form fields used as boundary data and reference maps.

Each factory returns a DataSpec: callables producing multivalued values
on the plus side (Q sheets), the minus side (Q-1 sheets), and the
single-valued interface trace. The callables accept any (M, 2) array of
points, so the same spec serves as boundary data for solves and as an
exact field for quadrature tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DataSpec:
    Q: int
    n: int
    plus: Callable
    minus: Callable
    phi: Callable
    label: str

    def oscillation(self, xy: np.ndarray) -> float:
        """Spread of the plus-side sheet values over the given points."""
        vals = self.plus(xy)
        return float(vals.max() - vals.min())


def _tile(fn, q):
    def call(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        base = fn(xy)  # (M, n)
        return np.repeat(base[:, None, :], q, axis=1)

    return call


def _zero_phi(xy):
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    return np.zeros((xy.shape[0], 1))


def linear(Q: int) -> DataSpec:
    """All sheets equal to y; vanishes on the straight interface."""

    def base(xy):
        return xy[:, 1:2]

    return DataSpec(Q=Q, n=1, plus=_tile(base, Q), minus=_tile(base, Q - 1),
                    phi=_zero_phi, label="linear")


def quadratic_harmonic(Q: int = 1) -> DataSpec:
    """Sheets carry the harmonic polynomial x^2 - y^2; trace x^2 on y=0."""

    def base(xy):
        return (xy[:, 0:1] ** 2 - xy[:, 1:2] ** 2)

    def phi(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return xy[:, 0:1] ** 2 - xy[:, 1:2] ** 2

    return DataSpec(Q=Q, n=1, plus=_tile(base, Q), minus=_tile(base, Q - 1),
                    phi=phi, label="quadratic-harmonic")


def _centered_weights(q: int) -> np.ndarray:
    if q == 1:
        return np.zeros(1)
    w = np.arange(q, dtype=float) - (q - 1) / 2.0
    return w / np.max(np.abs(w))


def odd_cubic(Q: int, amplitude: float, taper: float = 0.0,
              plus_weights=None, minus_weights=None) -> DataSpec:
    """Odd multivalued data: sheets y + amplitude * w_i * Im(z^3) * t(r).

    By default the sheet weights w_i are centered (they sum to zero),
    so the sheet mean is exactly y on both sides; pass plus_weights /
    minus_weights for a lopsided family. The radial factor is
    t(r) = 1 + taper * (1 - r^2); with taper > 1.5 the deviation
    profile peaks just inside the rim instead of on it.
    """

    wp = _centered_weights(Q) if plus_weights is None \
        else np.asarray(plus_weights, dtype=float)
    if minus_weights is not None:
        wm = np.asarray(minus_weights, dtype=float)
    else:
        wm = _centered_weights(Q - 1) if Q > 1 else np.zeros(0)
    if wp.shape != (Q,) or wm.shape != (Q - 1,):
        raise ValueError("weights must have Q plus entries and Q-1 minus entries")

    def sheets(xy, weights):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        x, y = xy[:, 0], xy[:, 1]
        imz3 = 3.0 * x * x * y - y**3
        rad = 1.0 + taper * (1.0 - x * x - y * y)
        vals = y[:, None] + amplitude * np.outer(imz3 * rad, weights)
        return vals[:, :, None]

    return DataSpec(
        Q=Q, n=1,
        plus=lambda xy: sheets(xy, wp),
        minus=lambda xy: sheets(xy, wm),
        phi=_zero_phi,
        label=f"odd-cubic(Q={Q},amp={amplitude})",
    )


def sqrt_branch() -> DataSpec:
    """Two-valued branch field: the pair of square roots of z^3, in R^2."""

    def sheets(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        r = np.hypot(xy[:, 0], xy[:, 1])
        th = np.arctan2(xy[:, 1], xy[:, 0])
        mag = r**1.5
        w = np.stack((mag * np.cos(1.5 * th), mag * np.sin(1.5 * th)), axis=1)
        return np.stack((w, -w), axis=1)  # (M, 2, 2)

    def minus(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return np.zeros((xy.shape[0], 1, 2))

    def phi(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return np.zeros((xy.shape[0], 2))

    return DataSpec(Q=2, n=2, plus=sheets, minus=minus, phi=phi,
                    label="sqrt-branch")


def custom_coefficients(coeffs, phi_coeffs) -> DataSpec:
    """Sheets built from harmonic polynomials Re(z^k), Im(z^k).

    coeffs: nested list, coeffs[side][sheet] = [(k, c_re, c_im), ...];
    side 0 is plus, side 1 is minus. phi_coeffs uses the same triples.
    """

    plus_c, minus_c = coeffs[0], coeffs[1]
    Q = len(plus_c)
    if len(minus_c) != Q - 1:
        raise ValueError(f"minus side needs Q-1={Q - 1} sheets, got {len(minus_c)}")

    def poly(xy, terms):
        z = xy[:, 0] + 1j * xy[:, 1]
        out = np.zeros(xy.shape[0])
        for k, cre, cim in terms:
            zk = z**int(k)
            out += cre * zk.real + cim * zk.imag
        return out

    def sheets(xy, sheet_terms):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        if not sheet_terms:
            return np.zeros((xy.shape[0], 0, 1))
        cols = [poly(xy, terms) for terms in sheet_terms]
        return np.stack(cols, axis=1)[:, :, None]

    def phi(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return poly(xy, phi_coeffs)[:, None]

    return DataSpec(
        Q=Q, n=1,
        plus=lambda xy: sheets(xy, plus_c),
        minus=lambda xy: sheets(xy, minus_c),
        phi=phi,
        label="custom-coefficients",
    )


def frequency_drop(Q: int = 1) -> DataSpec:
    """Slowly growing high mode crossing over to a fast low mode.

    r^{1/2} sin(4 theta) dominates inside r_cross = 0.45 with frequency ratio
    65/4; r^3 sin(theta) takes over outside and settles near 5/3. The
    angular parts are orthogonal, so the scan quantities add mode by
    mode and the ratio genuinely falls across the crossover, faster
    than any admissible drift constant can absorb. Negative control
    for the monotonicity check.
    """
    r_cross = 0.45

    def base(xy):
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        x, y = xy[:, 0], xy[:, 1]
        rr = np.hypot(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            high = 4.0 * x * y * (x * x - y * y) / rr**3.5
        high = np.where(rr > 0, high, 0.0)
        low = rr * rr * y / r_cross**2.5
        return (high + low)[:, None]

    return DataSpec(Q=Q, n=1, plus=_tile(base, Q), minus=_tile(base, Q - 1),
                    phi=_zero_phi, label=f"frequency-drop(r={r_cross})")


GENERATORS = {
    "linear": linear,
    "quadratic-harmonic": quadratic_harmonic,
    "odd-cubic": odd_cubic,
    "sqrt-branch": sqrt_branch,
    "frequency-drop": frequency_drop,
}


def make_boundary_data(name: str, **params) -> DataSpec:
    """The spec the generator GENERATORS[name] makes from params."""
    return GENERATORS[name](**params)
