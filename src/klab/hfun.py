"""The rank-2 indefinite series h, its absolutely convergent restriction h0,
and the closed form for psi(x) = theta(x - xi) h0(x, -x)."""
from __future__ import annotations

import math

import numpy as np

from .appell import kappa
from .core import (
    DEFAULT_BUDGET,
    TWO_PI_I,
    Modulus,
    SummationBudget,
    alpha,
    cone_envelope,
    e_of,
    lattice_sum,
    reject_integer_shifts,
)
from .theta import theta


def _q(m: float, n: float) -> float:
    """The form of h and h0; on the closed quadrants Q >= m^2 + n^2."""
    return 2 * m * m + 4 * m * n + n * n


def _quadrant_sum(z1, z2, frozen, tau, budget, trace) -> complex:
    """Sum of sign(u) e(tau/2 Q(m, n) + 2 (m + n) z1 + (2 m + n) z2) over u v > 0,
    (u, v) = (m, n) + shift, shift = a = (alpha(z1), alpha(z2)) or, ``frozen``,
    (1/2, 1/2).  Completing the square, a term's log-modulus is
    pi Im(tau) (Q(a) - Q(w)), w = (m, n) + a = (u, v) + d; the index is
    centred on the apex, the integer point nearest -shift."""
    t = tau.tau
    a1, a2 = alpha(z1, tau), alpha(z2, tau)
    s1, s2 = (0.5, 0.5) if frozen else (a1, a2)
    reject_integer_shifts(s1, s2)
    c1, c2 = round(-s1), round(-s2)
    d1, d2 = a1 - s1, a2 - s2
    c = math.pi * t.imag
    const = c * _q(a1, a2)
    # top: the term at the index next to the apex with u, v > 0
    top = const - c * _q(c1 + (c1 + s1 < 0) + a1, c2 + (c2 + s2 < 0) + a2)
    beta = math.hypot(2 * d1 + 2 * d2, 2 * d1 + d2)  # |A d|, A the matrix of Q
    env = cone_envelope(const, t.imag, 1.0, top, beta, _q(d1, d2))

    # 2 pi i times the exponent is (e_mm m + e_mn n + e_m) m + (e_nn n + e_n) n
    e_mm, e_mn, e_nn = TWO_PI_I * t, 2 * TWO_PI_I * t, TWO_PI_I * t / 2
    e_m, e_n = TWO_PI_I * (2 * z1 + 2 * z2), TWO_PI_I * (2 * z1 + z2)

    def term(k1, k2):
        u, v = k1 + (c1 + s1), k2 + (c2 + s2)
        cone = u * v > 0
        m, n = k1[cone] + c1, k2[cone] + c2
        values = np.zeros(len(k1), dtype=complex)
        values[cone] = np.sign(u[cone]) * np.exp((e_mm * m + e_mn * n + e_m) * m + (e_nn * n + e_n) * n)
        return values, cone, None

    return lattice_sum(term, 2, env, budget, trace)[0]


def h_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Cone-restricted sum over (m + alpha(z1))(n + alpha(z2)) > 0 with sign(m + alpha(z1))."""
    return _quadrant_sum(z1, z2, False, tau, budget, trace)


def h0_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Same summand as h with the cone frozen at (m + 1/2)(n + 1/2) > 0.

    Agrees with h for 0 < alpha(z_i) < 1 and extends to an entire function
    of (z1, z2).
    """
    return _quadrant_sum(z1, z2, True, tau, budget, trace)


def psi_closed(
    x: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Closed form of psi(x) = theta(x - xi, tau) * h0(x, -x), xi = (tau+1)/2.

    Mixes kappa at modulus tau and 2 tau; the unique holomorphic solution of
    psi(x + tau) = e(xi) psi(x) + e(tau/2) theta(x) theta(x - xi)
    + theta(0, 2 tau) theta(x + xi).
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
