"""The Kronecker function f(z1, z2; tau).

Two independent evaluation routes: the cone-restricted double series and the
classical closed form as a ratio of theta functions.
"""
from __future__ import annotations

from .core import (
    DEFAULT_BUDGET,
    GUARD,
    Modulus,
    PoleProximity,
    SummationBudget,
    TWO_PI_I,
    alpha,
    quadrant_cone_sum,
)
from .theta import theta, theta_prime


def f_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Double series over (alpha(z1)+m)(alpha(z2)+n) > 0 weighted by sign(alpha(z1)+m)."""
    t = tau.tau

    def exponent(m, n):
        return t * (m * n) + n * z1 + m * z2

    return quadrant_cone_sum(alpha(z1, tau), alpha(z2, tau), exponent, budget, trace)


def f_closed(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> complex:
    """Closed form (theta'(xi)/2 pi i) * theta(z1+z2-xi) / (theta(z1-xi) theta(z2-xi))."""
    xi = tau.xi
    den1 = theta(z1 - xi, tau, budget)
    den2 = theta(z2 - xi, tau, budget)
    scale = abs(theta(0, tau, budget))
    for name, den in (("z1", den1), ("z2", den2)):
        if abs(den) <= GUARD * scale:
            raise PoleProximity(f"theta({name} - xi) = {den} is too close to zero")
    num = theta(z1 + z2 - xi, tau, budget)
    const = theta_prime(xi, tau, budget) / TWO_PI_I
    return const * num / (den1 * den2)
