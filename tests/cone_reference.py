"""The coefficient series F of m3 as a plain 2-D box sum, kept as the tests'
reference.

``klab.fukaya.F_series`` sums each coset as 1-D series over the lines of a
Q-orthogonal basis, each term a finite window of the cone.  This sums the
same terms over a 2-D box of the config's sublattice basis (b1, b2) about the
apex, tests the cone and its guard band on the four coordinates, and grows
the box until its outer ring is negligible, without klab's kernel.  From the
apex and beta as floats on, it computes in extended precision, with the
exact basis and slopes: a term near e^-200 then keeps the digits that a
double-precision exponent of that size does not.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from klab.core import GUARD, BoundaryProximity, ConvergenceBudgetExceeded, DomainError, alpha
from klab.lattice import shift_vector

from lattice_reference import embed

#: The reference's ring tolerance, and its largest radius.
RING_TOL, MAX_RADIUS = 1e-16, 128
_LONG = np.longdouble
_PI = np.arccos(_LONG(-1))


def _long(x) -> np.longdouble:
    """A rational as the nearest extended float."""
    x = Fraction(x)
    return _LONG(x.numerator) / _LONG(x.denominator)


def in_cone(c, w):
    """Where the four products c_i w_i w_(i-1) are positive, over the last axis."""
    return np.all(np.asarray(c) * w * np.roll(w, 1, axis=-1) > 0, axis=-1)


def near_boundary(c, w):
    """Where every product c_i w_i w_(i-1) is above -GUARD |w|^2 and one is
    within GUARD |w|^2 of 0, |w| the sup-norm, over the last axis."""
    products = np.asarray(c) * w * np.roll(w, 1, axis=-1)
    bound = GUARD * np.max(w * w, axis=-1, keepdims=True)
    return np.any(np.abs(products) <= bound, axis=-1) & np.all(products > -bound, axis=-1)


def F_reference(slopes, cfg, shift, z, tau) -> tuple:
    """F's series of one shift (a 4-vector) at the lines' z, and the largest
    modulus of its terms: sign(w_1) e(tau/2 Q(w) + <w, beta>) over the cone
    points w = n + v, n in shift + Z b1 + Z b2, with the index centred on the
    apex.  A point near the cone boundary raises BoundaryProximity; a
    largest term below the normal float range, DomainError."""
    slopes = [Fraction(s) for s in slopes]
    _, _, b1, b2 = cfg.float_data
    c = np.array([_long(slopes[i - 1] - slopes[i]) for i in range(4)])
    basis = np.array([[_long(x) for x in embed(slopes, b[1], b[2])] for b in (b1, b2)])
    t = tau.tau
    alphas = [alpha(zi, tau) for zi in z]
    beta = np.array([zi.real - a * t.real for zi, a in zip(z, alphas)]).astype(_LONG)
    apex = (np.array(shift) + np.array(shift_vector(alphas, cfg.gaps))).astype(_LONG)
    # the coordinates of apex along (b1, b2), from slots 2 and 3
    det = b1[1] * b2[2] - b1[2] * b2[1]
    x = (float(apex[1]) * b2[2] - float(apex[2]) * b2[1]) / det
    y = (b1[1] * float(apex[2]) - b1[2] * float(apex[1])) / det
    origin = apex - round(x) * basis[0] - round(y) * basis[1]
    radius = 8
    while radius <= MAX_RADIUS:
        side = np.arange(-radius, radius + 1)
        a, b = np.repeat(side, side.size), np.tile(side, side.size)
        w = origin + np.outer(a, basis[0]) + np.outer(b, basis[1])
        if near_boundary(c, w).any():
            raise BoundaryProximity("a point within the guard band of the cone boundary")
        cone = in_cone(c, w)
        if not cone.any():
            radius *= 2
            continue
        w = w[cone]
        q = c[1] * w[:, 0] * w[:, 1] + c[3] * w[:, 2] * w[:, 3]
        # the exponent pi i tau q + 2 pi i <w, beta>, less top in its real part
        top = -_PI * _LONG(t.imag) * q.min()
        phase = _PI * _LONG(t.real) * q + 2 * _PI * (w @ beta)
        scaled = np.sign(w[:, 0]) * np.exp(-_PI * _LONG(t.imag) * q - top)
        terms = scaled * np.cos(phase) + 1j * (scaled * np.sin(phase))
        ring = np.abs(terms[np.maximum(np.abs(a), np.abs(b))[cone] == radius]).sum()
        if ring < RING_TOL:
            if top < math.log(np.finfo(float).tiny):
                raise DomainError("the largest term is below the normal float range")
            return complex(terms.sum() * np.exp(top)), math.exp(top)
        radius *= 2
    raise ConvergenceBudgetExceeded(f"needs a radius above {MAX_RADIUS}")
