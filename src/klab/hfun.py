"""The rank-2 indefinite series h, its absolutely convergent restriction h0,
and the closed form for psi(x) = theta(x - xi) h0(x, -x)."""
from __future__ import annotations

from .appell import kappa
from .core import (
    DEFAULT_BUDGET,
    Modulus,
    SummationBudget,
    alpha,
    e_of,
    quadrant_cone_sum,
)
from .theta import theta


def _h_exponent(z1, z2, t):
    """The summand exponent of h and h0 as a function of the indices (m, n)."""
    return lambda m, n: (
        t / 2 * (2 * m * m + 4 * m * n + n * n) + 2 * (m + n) * z1 + (2 * m + n) * z2
    )


def h_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Cone-restricted sum over (m + alpha(z1))(n + alpha(z2)) > 0 with sign(m + alpha(z1))."""
    exponent = _h_exponent(z1, z2, tau.tau)
    return quadrant_cone_sum(alpha(z1, tau), alpha(z2, tau), exponent, budget, trace)


def h0_series(
    z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """Same summand as h with the cone frozen at (m + 1/2)(n + 1/2) > 0.

    Agrees with h for 0 < alpha(z_i) < 1 and extends to an entire function
    of (z1, z2).
    """
    return quadrant_cone_sum(0.5, 0.5, _h_exponent(z1, z2, tau.tau), budget, trace)


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
