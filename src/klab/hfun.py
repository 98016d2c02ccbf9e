"""The rank-2 indefinite series h, its absolutely convergent restriction h0,
and the closed form for psi(x) = theta(x - xi) h0(x, -x); all elementwise on
numpy arrays."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .appell import kappa
from .core import (
    DEFAULT_BUDGET,
    TWO_PI_I,
    Modulus,
    SummationBudget,
    _NUMBERS,
    cone_envelope,
    e_of,
    lattice_sum,
    reject_integer_shifts,
    sum_series,
)
from .theta import theta


def _q(m: float, n: float) -> float:
    """The form of h and h0; on the closed quadrants Q >= m^2 + n^2."""
    return 2 * m * m + 4 * m * n + n * n


class _Quadrant(NamedTuple):
    """h's or h0's series as data for ``lattice_sum``, or stacked, a batch's:
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


def _quadrant(z1, z2, frozen, tau, on=_NUMBERS) -> tuple:
    """The set-up of the sum of sign(u) e(tau/2 Q(m, n) + 2 (m + n) z1 + (2 m + n) z2)
    over u v > 0, (u, v) = (m, n) + shift, shift = a = (alpha(z1), alpha(z2)) or,
    ``frozen``, (1/2, 1/2) (stacked, on arrays).  Completing the square, a
    term's log-modulus is pi Im(tau) (Q(a) - Q(w)), w = (m, n) + a = (u, v) + d;
    the index is centred on the apex, the integer point nearest -shift."""
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
    beta = on.hypot(2 * d1 + 2 * d2, 2 * d1 + d2)  # |A d|, A the matrix of Q
    env = cone_envelope(const, t.imag, 1.0, top, beta, _q(d1, d2))
    # 2 pi i times the exponent in (m, n)
    et, e_m, e_n = TWO_PI_I * t, TWO_PI_I * (2 * z1 + 2 * z2), TWO_PI_I * (2 * z1 + z2)
    return tuple.__new__(_Quadrant, (et, e_m, e_n, c1, c2, s1, s2)), 2, env


def h_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Cone-restricted sum over (m + alpha(z1))(n + alpha(z2)) > 0 with sign(m + alpha(z1))."""
    if type(z1) is np.ndarray or type(z2) is np.ndarray:
        return sum_series(_quadrant, (z1, z2, False, tau), budget, trace)
    series, dim, env = _quadrant(z1, z2, False, tau)
    return lattice_sum(series, dim, env, budget, trace)[0]


def h0_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Same summand as h with the cone frozen at (m + 1/2)(n + 1/2) > 0.

    Agrees with h for 0 < alpha(z_i) < 1 and extends to an entire function
    of (z1, z2).
    """
    if type(z1) is np.ndarray or type(z2) is np.ndarray:
        return sum_series(_quadrant, (z1, z2, True, tau), budget, trace)
    series, dim, env = _quadrant(z1, z2, True, tau)
    return lattice_sum(series, dim, env, budget, trace)[0]


def psi_closed(
    x: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Closed form of psi(x) = theta(x - xi, tau) * h0(x, -x), xi = (tau+1)/2.

    Mixes kappa at modulus tau and 2 tau; the unique holomorphic solution of
    psi(x + tau) = e(xi) psi(x) + e(tau/2) theta(x) theta(x - xi)
    + theta(0, 2 tau) theta(x + xi).  On an array x, theta(0, 2 tau) and
    theta(xi, 2 tau) are summed once.
    """
    t = tau.tau
    xi = tau.xi
    tau2 = tau.scaled(2)
    part1 = theta(0, tau2, budget, trace=trace) * kappa(xi, x + xi, tau, budget, trace=trace)
    part2 = theta(xi, tau2, budget, trace=trace) * (
        e_of(t / 2) * kappa(xi, 2 * x - xi, tau2, budget, trace=trace)
        - e_of(x - t / 2) * kappa(-xi, 2 * x + xi, tau2, budget, trace=trace)
    )
    return part1 + part2
