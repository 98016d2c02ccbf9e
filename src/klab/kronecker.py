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
    appell_lerch_sum,
    dist_to_integers,
)
from .theta import theta, theta_prime


def f_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """The cone series of e(m n tau + n z1 + m z2) over
    (alpha(z1)+m)(alpha(z2)+n) > 0 weighted by sign(alpha(z1)+m), summed over
    n in closed form (see appell_lerch_sum):

        f = sum_m sign(alpha(z1)+m) e(m z2) x_m^N / (1 - x_m),
        x_m = e(m tau + z1),  N = floor(-alpha(z2)) + 1.

    The sum over m decays like exp(-2 pi Im(tau) d |m|), d the distance from
    alpha(z2) to the integers, which sets the cost.  Since f(z1, z2) =
    f(z2, z1), the argument whose alpha is farther from the integers takes
    the role of z2; the choice depends on the pair only, not its order, so
    both orders give the same bits.
    """
    a1, a2 = alpha(z1, tau), alpha(z2, tau)
    if (dist_to_integers(a1), a1, z1.real) > (dist_to_integers(a2), a2, z2.real):
        z1, z2, a2 = z2, z1, a1
    return appell_lerch_sum(0, z2, z1, a2, tau, budget, trace)


def f_closed(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> complex:
    """Closed form (theta'(xi)/2 pi i) * theta(z1+z2-xi) / (theta(z1-xi) theta(z2-xi)).

    theta(z - xi) vanishes exactly on the lattice Z + tau Z, so an argument
    within GUARD of it, in alpha and in Re(z - alpha tau), raises
    PoleProximity.
    """
    for name, z in (("z1", z1), ("z2", z2)):
        a = alpha(z, tau)
        if (dist_to_integers(a) <= GUARD
                and dist_to_integers((z - a * tau.tau).real) <= GUARD):
            raise PoleProximity(f"{name} = {z} is within {GUARD} of a pole in Z + tau Z")
    xi = tau.xi
    den1 = theta(z1 - xi, tau, budget)
    den2 = theta(z2 - xi, tau, budget)
    num = theta(z1 + z2 - xi, tau, budget)
    const = theta_prime(xi, tau, budget) / TWO_PI_I
    return const * num / (den1 * den2)
