"""Appell function kappa, the trapezoid series g, its resummation g0, and
the piecewise correction p bridging the two; all elementwise on numpy arrays,
each taking its arguments less the integers nearest their real parts."""
from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_BUDGET, GUARD, Modulus, BoundaryProximity, DomainError, SummationBudget, _LOG_TINY,
    _NUMBERS, alpha, appell_record, dist_to_integers, e_of, evaluate, finite, lattice_sum,
    lerch_record, reduce_real, sum_series,
)
from .theta import _theta_record


def _kappa_record(y, x, tau, on=_NUMBERS) -> tuple:
    """The set-up of kappa's Appell-Lerch sum, kappa(y, x) less its factor -e(-y)."""
    return lerch_record(tau.tau / 2, x, -y, 0, tau, on)


def kappa(y: complex, x: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
          trace: list | None = None) -> complex:
    """kappa(y, x; tau) = sum_n e(tau n^2/2 + n x) / (e(n tau) - e(y)),
    which is -e(-y) g0(x + y, -y): holomorphic in x, with poles at y in the
    period lattice, where only n = round(alpha(y)) comes near (lerch_record
    checks that one denominator); DomainError where the product with e(-y)
    exceeds the float range."""
    y = reduce_real(y)  # e(-y) takes it reduced, as the sum does
    value = evaluate(_kappa_record, (y, x, tau), budget, trace)
    if type(value) is not np.ndarray:
        return finite(value * -e_of(-y), "kappa")
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range raises
        return finite(value * -e_of(-y), "kappa")


def _g_record(z1, z2, tau, on=_NUMBERS) -> tuple:
    """The set-up of g_series (stacked with ``on`` = _ARRAYS)."""
    return appell_record(tau.tau / 2, z1 + z2, z2, on.alpha(z1, tau), tau, on)


def g_series(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
             trace: list | None = None) -> complex:
    """The trapezoid series of e(m^2 tau/2 + m (z1 + z2) + n (m tau + z2))
    over (n + alpha(z1))(m + alpha(z2)) > 0 weighted by sign(m + alpha(z2)),
    summed over n in closed form (see appell_record):

        g = sum_m sign(m + alpha(z2)) e(m^2 tau/2 + m (z1 + z2)) x_m^N / (1 - x_m),
        x_m = e(m tau + z2),  N = floor(-alpha(z1)) + 1.

    The Gaussian factor makes the sum over m converge at every alpha-margin;
    the terms fall off like exp(-pi Im(tau) k^2) k indices from the peak,
    which lies at the cone boundary m = -alpha(z2).
    """
    return evaluate(_g_record, (z1, z2, tau), budget, trace)


def _g0_record(z1, z2, tau, on=_NUMBERS) -> tuple:
    """The set-up of g0 (stacked with ``on`` = _ARRAYS)."""
    return lerch_record(tau.tau / 2, z1 + z2, z2, 0, tau, on)


def g0(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
       trace: list | None = None) -> complex:
    """One-sided resummation g0(z1, z2) = sum_m e(m^2 tau/2 + m(z1+z2)) / (1 - e(m tau + z2)),
    the Appell-Lerch sum of power 0; only m = round(-alpha(z2)) comes near a
    pole, and lerch_record checks that denominator."""
    return evaluate(_g0_record, (z1, z2, tau), budget, trace)


def p_correction(z: complex, tau: Modulus) -> complex:
    """Finite piecewise sum p(z, tau); jumps when alpha(z) crosses an integer.

    For alpha(z) >= 0: - sum over 0 < n <= alpha(z) of e(-n^2 tau/2 + n z);
    for alpha(z) < 0:  + sum over alpha(z) < n <= 0 of the same terms.
    """
    return _p_sum(reduce_real(z), tau)


#: A log-modulus below log(2^-1075) = -745.13, past which cmath.exp returns 0.0.
_LOG_ZERO = -746.0


def _p_sum(z, tau: Modulus):
    """p_correction at z, elementwise on arrays, without reducing z.  The
    term of n has log-modulus 2 pi Im(tau) (n^2/2 - n alpha(z)), falling
    from n = 0 towards n = alpha(z), so only the n nearer 0 where it is at
    least _LOG_ZERO are summed: the others are 0.0.  A largest term below
    the normal float range raises DomainError."""
    if type(z) is np.ndarray:
        return np.vectorize(_p_sum, otypes=[complex])(z, tau)
    a, t = alpha(z, tau), tau.tau
    if dist_to_integers(a) <= GUARD:
        raise BoundaryProximity(f"alpha(z) = {a} is within {GUARD} of a jump")
    scale = 2 * math.pi * t.imag
    if a > 1 and scale * (0.5 - a) < _LOG_TINY:  # the term of n = 1, the largest
        raise DomainError(f"the largest term of p, about e^{scale * (0.5 - a):.0f}, "
                          "is below the normal float range")
    c = _LOG_ZERO / -scale  # the root nearer 0 of n^2/2 - |n alpha(z)| = -c bounds |n|
    count = min(math.floor(abs(a)), math.floor(2 * c / (abs(a) + math.sqrt(max(a * a - 2 * c, 0)))))
    ns = range(1, count + 1) if a >= 0 else range(-count, 1)
    total = sum((e_of(-t * (n * n) / 2 + n * z) for n in ns), start=0j)
    return -total if a >= 0 else total


def g0_minus_g(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
               trace: list | None = None) -> complex:
    """The bridge p(z1) * theta(z1 + z2), which equals g0 - g."""
    z1, z2 = reduce_real(z1), reduce_real(z2)
    p = _p_sum(z1, tau)
    if type(p) is not np.ndarray and type(z2) is not np.ndarray:
        return p * lattice_sum(*_theta_record(z1 + z2, tau), budget, trace)
    return p * sum_series(_theta_record, (z1 + z2, tau), budget, trace)
