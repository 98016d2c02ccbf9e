"""Appell function kappa, the trapezoid series g, its resummation g0, and
the piecewise correction p bridging the two."""
from __future__ import annotations

import math

from .core import (
    DEFAULT_BUDGET,
    GUARD,
    Modulus,
    BoundaryProximity,
    SummationBudget,
    alpha,
    appell_lerch_sum,
    dist_to_integers,
    e_of,
    lerch_sum,
)
from .theta import theta


def kappa(
    y: complex, x: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """kappa(y, x; tau) = sum_n e(tau n^2/2 + n x) / (e(n tau) - e(y)),
    which is -e(-y) g0(x + y, -y): holomorphic in x, with poles at y in the
    period lattice, where only n = round(alpha(y)) comes near (lerch_sum
    checks that one denominator)."""
    return lerch_sum(tau.tau / 2, x, -y, 0, tau, budget, trace) * -e_of(-y)


def g_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """The trapezoid series of e(m^2 tau/2 + m (z1 + z2) + n (m tau + z2))
    over (n + alpha(z1))(m + alpha(z2)) > 0 weighted by sign(m + alpha(z2)),
    summed over n in closed form (see appell_lerch_sum):

        g = sum_m sign(m + alpha(z2)) e(m^2 tau/2 + m (z1 + z2)) x_m^N / (1 - x_m),
        x_m = e(m tau + z2),  N = floor(-alpha(z1)) + 1.

    The Gaussian factor makes the sum over m converge at every alpha-margin;
    the terms fall off like exp(-pi Im(tau) k^2) k indices from the peak,
    which lies at the cone boundary m = -alpha(z2).
    """
    return appell_lerch_sum(tau.tau / 2, z1 + z2, z2, alpha(z1, tau), tau, budget, trace)


def g0(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """One-sided resummation g0(z1, z2) = sum_m e(m^2 tau/2 + m(z1+z2)) / (1 - e(m tau + z2)),
    the Appell-Lerch sum of power 0; only m = round(-alpha(z2)) comes near a
    pole, and lerch_sum checks that denominator."""
    return lerch_sum(tau.tau / 2, z1 + z2, z2, 0, tau, budget, trace)


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
