"""Appell function kappa, the trapezoid series g, its resummation g0, and
the piecewise correction p bridging the two."""
from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    GUARD,
    Modulus,
    PoleProximity,
    BoundaryProximity,
    SummationBudget,
    TWO_PI_I,
    alpha,
    dist_to_integers,
    e_of,
    lattice_sum,
    quadrant_cone_sum,
)
from .theta import theta


def kappa(
    y: complex, x: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """kappa(y, x; tau) = sum_n e(tau n^2/2 + n x) / (e(n tau) - e(y)).

    Holomorphic in x; requires y to stay away from the period lattice so the
    denominators are well conditioned.  Only n = round(alpha(y)) can come
    near the pole, so that one denominator is checked, whatever the radius
    the sum stops at.
    """
    t = tau.tau
    n_pole = round(alpha(y, tau))
    if abs(e_of(n_pole * t - y) - 1) < GUARD:
        raise PoleProximity(f"e({n_pole} tau) - e(y) below conditioning floor")
    ey = e_of(y)
    t2 = t / 2

    def term(n):
        den = np.exp(TWO_PI_I * (n * t)) - ey
        return np.exp(TWO_PI_I * (t2 * (n * n) + n * x)) / den, None, None

    return lattice_sum(term, 1, budget, trace)[0]


def g_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Trapezoid double series over (n + alpha(z1))(m + alpha(z2)) > 0."""
    t = tau.tau

    def exponent(m, n):
        return (n + m / 2) * m * t + m * z1 + (m + n) * z2

    return quadrant_cone_sum(alpha(z2, tau), alpha(z1, tau), exponent, budget, trace)


def g0(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """One-sided resummation g0(z1, z2) = sum_m e(m^2 tau/2 + m(z1+z2)) / (1 - e(m tau + z2)).

    Only m = round(-alpha(z2)) can come near the pole; that denominator is
    checked whatever the radius the sum stops at.
    """
    t = tau.tau
    m_pole = round(-alpha(z2, tau))
    em = e_of(m_pole * t + z2)
    if abs(1 - em) < GUARD * (1 + abs(em)):
        raise PoleProximity(f"1 - e({m_pole} tau + z2) below conditioning floor")

    t2, z12 = t / 2, z1 + z2

    def term(m):
        den = 1 - np.exp(TWO_PI_I * (m * t + z2))
        return np.exp(TWO_PI_I * (t2 * (m * m) + m * z12)) / den, None, None

    return lattice_sum(term, 1, budget, trace)[0]


def p_correction(z: complex, tau: Modulus) -> complex:
    """Finite piecewise sum p(z, tau); jumps when alpha(z) crosses an integer.

    For alpha(z) >= 0: - sum over 0 < n <= alpha(z) of e(-n^2 tau/2 + n z);
    for alpha(z) < 0:  + sum over alpha(z) < n <= 0 of the same terms.
    """
    a = alpha(z, tau)
    if dist_to_integers(a) <= GUARD:
        raise BoundaryProximity(f"alpha(z) = {a} is within {GUARD} of a jump")
    t = tau.tau
    if a >= 0:
        return -sum(
            (e_of(-t * (n * n) / 2 + n * z) for n in range(1, math.floor(a) + 1)),
            start=0j,
        )
    return sum(
        (e_of(-t * (n * n) / 2 + n * z) for n in range(math.floor(a) + 1, 1)),
        start=0j,
    )


def g0_minus_g(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> complex:
    """The bridge p(z1) * theta(z1 + z2), which equals g0 - g."""
    return p_correction(z1, tau) * theta(z1 + z2, tau, budget)
