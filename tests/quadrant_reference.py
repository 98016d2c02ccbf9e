"""The 2-D quadrant form of h and h0, kept as the tests' reference.

``klab.hfun`` sums h and h0 as 1-D series over k = m + n, each term a sum
over a finite window of n.  This is the direct form they are checked
against: the quadrant cone sum over a 2-D sup-norm box of (m, n), summed by
the same kernel.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from klab.core import (
    DEFAULT_BUDGET,
    TWO_PI_I,
    Envelope,
    _NUMBERS,
    _box,
    lattice_sum,
    reject_integer_shifts,
)
from klab.hfun import _q


class Quadrant(NamedTuple):
    """h's or h0's series as a 2-D numpy term, or stacked, a batch's:
    sign(u) e^E over u v > 0 at (m, n) = (c1 + k1, c2 + k2), (u, v) = (m + s1,
    n + s2), E = (et m + 2 et n + e_m) m + (et n / 2 + e_n) n."""

    et: complex
    e_m: complex
    e_n: complex
    c1: int
    c2: int
    s1: float
    s2: float

    def __call__(self, k1, k2, members=slice(None)) -> tuple:
        et, e_m, e_n, c1, c2, s1, s2 = self
        if type(e_m) is np.ndarray:
            et, e_m, e_n, c1, c2, s1, s2 = (
                f[members, None] if type(f) is np.ndarray else f for f in self)
        u, m, n = k1 + (c1 + s1), k1 + c1, k2 + c2
        cone = u * (k2 + (c2 + s2)) > 0
        exponent = (et * m + 2 * et * n + e_m) * m + (et / 2 * n + e_n) * n
        if cone.shape != exponent.shape:  # a stacked h0's cone, shared by its rows
            u, cone = np.broadcast_to(u, exponent.shape), np.broadcast_to(cone, exponent.shape)
        # exp in the cone only: outside it the terms are 0, and e^E can overflow
        values = np.zeros(cone.shape, dtype=complex)
        values[cone] = np.sign(u[cone]) * np.exp(exponent[cone])
        return values, cone, None


def quadrant(z1, z2, frozen, tau, on=_NUMBERS) -> tuple:
    """The set-up of the quadrant sum of sign(u) e(tau/2 Q(m, n) + 2 (m + n) z1
    + (2 m + n) z2) over u v > 0, (u, v) = (m, n) + s, s = a = (alpha(z1),
    alpha(z2)) or, ``frozen``, (1/2, 1/2).  A term's log-modulus is pi Im(tau)
    (Q(a) - Q(w)), w = (u, v) + d, d = a - s, and on the closed quadrants
    Q(p) >= |p|^2, so Q(p + d) >= |p|^2 - 2 |A d| |p| + Q(d) (A the matrix of
    Q); the index is centred on the apex, the integer point nearest -s."""
    t = tau.tau
    a1, a2 = on.alpha(z1, tau), on.alpha(z2, tau)
    s1, s2 = (0.5, 0.5) if frozen else (a1, a2)
    reject_integer_shifts(s1, s2, on=on)
    c1, c2 = on.round(-s1), on.round(-s2)
    d1, d2 = a1 - s1, a2 - s2
    c = math.pi * t.imag
    const = c * _q(a1, a2)
    # top: the term at the index next to the apex with u, v > 0
    top = const - c * _q(c1 + (c1 + s1 < 0) + a1, c2 + (c2 + s2 < 0) + a2)
    beta = on.hypot(2 * d1 + 2 * d2, 2 * d1 + d2)
    # |p| >= j - 1/2 at sup-norm j of the centred index
    peak = const - c * (1 / 4 + beta + _q(d1, d2))
    env = tuple.__new__(Envelope, (peak, c, -c * (1 + 2 * beta), top))
    et, e_m, e_n = TWO_PI_I * t, TWO_PI_I * (2 * z1 + 2 * z2), TWO_PI_I * (2 * z1 + z2)
    return tuple.__new__(Quadrant, (et, e_m, e_n, c1, c2, s1, s2)), 2, env


def h_reference(z1: complex, z2: complex, tau, frozen: bool, budget=DEFAULT_BUDGET) -> tuple:
    """h (or, ``frozen``, h0) at one point by the quadrant sum, and the
    largest modulus of the terms it summed."""
    series, dim, env = quadrant(z1, z2, frozen, tau)
    trace = []
    value = lattice_sum(series, dim, env, budget, trace)[0]
    values = series(*_box(dim, trace[0].radius)[0])[0]
    return value, float(np.abs(values).max())
