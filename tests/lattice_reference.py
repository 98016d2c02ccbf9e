"""Exact rational forms of the lattice layer, kept as the tests' reference.

``klab.lattice`` builds its set-ups from the slopes' integer pairs and keeps
only the floats the series read.  These are the Fraction forms they are
checked against: the ideal of a slope and of a triple, the lift of slot-2
and slot-3 components to a lattice vector, membership in the lattice and its
sublattice, the four cone products and Q.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from klab.core import DomainError


def ideal_of(lam) -> int:
    """Generator of {n in Z : n * lam in Z}; q for lam = p/q in lowest terms."""
    return Fraction(lam).denominator


def triple_ideal(l1, l2, l3) -> int:
    """Generator of I_{l2} intersected with ((l3-l1)/(l3-l2)) I_{l1}."""
    l1, l2, l3 = Fraction(l1), Fraction(l2), Fraction(l3)
    if len({l1, l2, l3}) != 3:
        raise DomainError("triple_ideal requires three distinct slopes")
    c = abs((l3 - l1) / (l3 - l2)) * ideal_of(l1)
    # the generator of q2 Z intersected with (n / d) Z is lcm(q2 d, n) / d
    g, rem = divmod(math.lcm(ideal_of(l2) * c.denominator, c.numerator), c.denominator)
    if rem:
        raise AssertionError("triple ideal generator must be an integer")
    return g


@lru_cache(maxsize=None)
def _slot1_coefficients(slopes: tuple) -> tuple:
    """(l4 - l2) / (l1 - l4) and (l4 - l3) / (l1 - l4), the coefficients of
    n2 and n3 in n1 on the subspace."""
    l1, l2, l3, l4 = (Fraction(s) for s in slopes)
    return (l4 - l2) / (l1 - l4), (l4 - l3) / (l1 - l4)


def embed(slopes: Sequence, n2, n3) -> tuple:
    """Lift slot-2/slot-3 components to the full 4-vector on the subspace."""
    c2, c3 = _slot1_coefficients(tuple(slopes))
    n2 = Fraction(n2)
    n3 = Fraction(n3)
    n1 = c2 * n2 + c3 * n3
    n4 = -(n1 + n2 + n3)
    return (n1, n2, n3, n4)


def coset_vectors(slopes: Sequence, cfg) -> list:
    """The exact representatives of ``cfg.coset_reps``, each (a, b) being
    the lattice vector with n2 = a q2 and n3 = b q3."""
    q2, q3 = ideal_of(slopes[1]), ideal_of(slopes[2])
    return [embed(slopes, a * q2, b * q3) for a, b in cfg.coset_reps]


def contains(slopes: Sequence, vec: Sequence, plus: bool = False) -> bool:
    """Exact membership of a rational 4-vector in the lattice (or sublattice)."""
    return membership(slopes)(vec, plus)


def membership(slopes: Sequence):
    """``contains`` for one slope tuple, a function of (vec, plus=False),
    with the slopes' coefficients and ideals found once."""
    c2, c3 = _slot1_coefficients(tuple(slopes))
    q1, q2, q3 = (ideal_of(s) for s in slopes[:3])

    def member(vec: Sequence, plus: bool = False) -> bool:
        n1, n2, n3, n4 = map(Fraction, vec)
        # on the subspace, as ``embed`` lifts (n2, n3)
        m1 = c2 * n2 + c3 * n3
        if (m1, -(m1 + n2 + n3)) != (n1, n4):
            return False
        if n2 % q2 != 0 or n3 % q3 != 0:
            return False
        if plus:
            return n1.denominator == 1 and n1 % q1 == 0
        return True

    return member


def cone_products(slopes: Sequence, x: Sequence) -> list:
    """The four defining products (l_{i-1} - l_i) x_i x_{i-1}, i = 1..4."""
    slopes = [Fraction(s) for s in slopes]
    return [(slopes[i - 1] - slopes[i]) * x[i] * x[i - 1] for i in range(4)]


def Q(slopes: Sequence, x: Sequence):
    """Q(x) = (l1 - l2) x1 x2 + (l3 - l4) x3 x4 on the lattice subspace.

    The two terms are the second and fourth cone products, so Q > 0 on
    the cone.
    """
    if embed(slopes, x[1], x[2]) != tuple(x):
        raise DomainError("vector does not satisfy the two linear relations")
    products = cone_products(slopes, x)
    return products[1] + products[3]
