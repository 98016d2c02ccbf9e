"""The Kronecker function f(z1, z2; tau).

Two independent evaluation routes, both elementwise on numpy arrays: the
cone-restricted double series and the classical closed form as a ratio of
theta functions.
"""
from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_BUDGET, GUARD, Modulus, PoleProximity, SummationBudget, _ARRAYS, _NUMBERS,
    appell_record, evaluate, finite, lattice_sum, reduce_real, sum_series,
)
from .theta import _constant, _theta_record


def _f_record(z1, z2, tau, on=_NUMBERS) -> tuple:
    """The set-up of f_series (stacked with ``on`` = _ARRAYS)."""
    a1, a2 = on.alpha(z1, tau), on.alpha(z2, tau)
    swap = on.lex_less((on.dist(a2), a2, z2.real), (on.dist(a1), a1, z1.real))
    if swap is not False:  # for numbers, a bool
        z1, z2, a2 = on.where(swap, z2, z1), on.where(swap, z1, z2), on.where(swap, a1, a2)
    return appell_record(0, z2, z1, a2, tau, on)


def f_series(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
             trace: list | None = None) -> complex:
    """The cone series of e(m n tau + n z1 + m z2) over
    (alpha(z1)+m)(alpha(z2)+n) > 0 weighted by sign(alpha(z1)+m), summed over
    n in closed form (see appell_record):

        f = sum_m sign(alpha(z1)+m) e(m z2) x_m^N / (1 - x_m),
        x_m = e(m tau + z1),  N = floor(-alpha(z2)) + 1.

    The sum over m decays like exp(-2 pi Im(tau) d |m|), d the distance from
    alpha(z2) to the integers, which sets the cost.  Since f(z1, z2) =
    f(z2, z1), the argument whose alpha is farther from the integers takes
    the role of z2; the choice depends on the pair only, not its order, so
    both orders give the same bits.
    """
    return evaluate(_f_record, (z1, z2, tau), budget, trace)


def f_closed(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
             trace: list | None = None) -> complex:
    """Closed form (theta'(xi)/2 pi i) * theta(z1+z2-xi) / (theta(z1-xi) theta(z2-xi)).

    theta'(xi)/2 pi i is summed once per Modulus and budget (``_constant``);
    on arrays the three thetas are one batch.

    theta(z - xi) vanishes exactly on the lattice Z + tau Z, so an argument
    within GUARD of it, in alpha and in Re(z - alpha tau), raises
    PoleProximity; a ratio beyond the float range raises DomainError.
    """
    z1, z2 = reduce_real(z1), reduce_real(z2)
    stacked = type(z1) is np.ndarray or type(z2) is np.ndarray
    on, t = _ARRAYS if stacked else _NUMBERS, tau.tau
    for name, z in (("z1", z1), ("z2", z2)):
        z = np.ravel(z) if stacked else z
        a = z.imag / t.imag  # alpha(z); reduce_real has checked that z is finite
        near = on.dist(a) <= GUARD
        if near is not False:  # for numbers, a bool
            near = near & (on.dist((z - a * t).real) <= GUARD)
            if on.any(near):
                raise PoleProximity(f"{name} = {on.first(z, near)} is within {GUARD} of a pole "
                                    "in Z + tau Z")
    xi = tau.xi
    if not stacked:
        den1 = lattice_sum(*_theta_record(z1 - xi, tau), budget, trace)[0]
        den2 = lattice_sum(*_theta_record(z2 - xi, tau), budget, trace)[0]
        num = lattice_sum(*_theta_record(z1 + z2 - xi, tau), budget, trace)[0]
        const = _constant(tau, "theta'(xi)/2 pi i", budget, trace)
        return finite(const * num / (den1 * den2), "f_closed")
    thetas = np.stack(np.broadcast_arrays(z1 - xi, z2 - xi, z1 + z2 - xi))
    den1, den2, num = sum_series(_theta_record, (thetas, tau), budget, trace)
    const = _constant(tau, "theta'(xi)/2 pi i", budget, trace)
    with np.errstate(over="ignore", invalid="ignore"):  # a ratio past the float range raises
        return finite(const * num / (den1 * den2), "f_closed")
