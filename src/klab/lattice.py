"""Exact-rational combinatorics for quadruples of distinct-slope lines on the
flat torus: ideals, the rank-2 lattice of closed quadrangle edge vectors, its
finite-index sublattice, the indefinite quadratic form, and the summation cone.

``QuadLatticeConfig`` holds the one definition of the cone and of Q: the four
products (l_{i-1} - l_i) x_i x_{i-1} with exact coefficients ``cone_coeffs``,
and Q, the sum of the second and fourth of them.  All lattice and coset
computations are exact (fractions.Fraction) and depend on the slopes only, so
``build_quad_config`` does them once per slope tuple and returns one shared,
immutable config.  The config also holds, computed once from the exact data,
the floats the series read on every call: the slopes, the differences
l_j - l_i, the sublattice basis and the coset representatives with their m3
labels.  Floating point enters only there.

``point_label`` names each crossing of two lines by one label (a, b),
computed from integers: m2, m3 and the polygon oracle report their
coefficients under it, so results are compared and added by label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Sequence

from .core import DomainError

#: Exact rational scalar used throughout the lattice layer.
Rational = Fraction


@dataclass(frozen=True)
class LineOnTorus:
    """A geodesic circle of rational slope with a shift and a monodromy.

    The line is {((y + t) / slope, t)} projected to R^2/Z^2; equivalently the
    graph t = slope * x - y.  ``monodromy_beta`` is the holonomy exponent per
    unit x-displacement along the line.
    """

    slope: Rational
    shift_y: float = 0.0
    monodromy_beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slope", Fraction(self.slope))


def ideal_of(lam: Rational) -> int:
    """Generator of {n in Z : n * lam in Z}; q for lam = p/q in lowest terms."""
    return Fraction(lam).denominator


def triple_ideal(l1: Rational, l2: Rational, l3: Rational) -> int:
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


def hom_degree(li: Rational, lj: Rational) -> int:
    """Degree of the morphism between lines of slopes li, lj: 0 iff li < lj."""
    if li == lj:
        raise DomainError("hom_degree requires distinct slopes")
    return 0 if li < lj else 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class QuadLatticeConfig:
    """Lattice data attached to four distinct rational slopes.

    The lattice of closed quadrangle edge vectors is rank 2, parameterized by
    its slot-2 and slot-3 components; the sublattice adds an integrality
    condition on slot 1 (equivalently slot 4).  The cone is the set where the
    four products (l_{i-1} - l_i) x_i x_{i-1} are positive; its plus component
    is the part with the sign pattern ``plus_signs``, whose first sign is +1;
    it is None when the degree condition of m3 fails and the cone is empty.
    """

    def __init__(self, slopes: Sequence[Rational]):
        slopes = tuple(Fraction(s) for s in slopes)
        if len(slopes) != 4 or len(set(slopes)) != 4:
            raise DomainError("need four pairwise distinct slopes")
        self.slopes = slopes
        l1, l2, l3, l4 = slopes
        #: (l4 - l1, l1 - l2, l2 - l3, l3 - l4), the coefficients of the cone products
        self.cone_coeffs = tuple(slopes[i - 1] - slopes[i] for i in range(4))
        self._q = tuple(ideal_of(s) for s in slopes)

        q2, q3 = self._q[1], self._q[2]
        self.basis_Lambda = (self.embed(q2, 0), self.embed(0, q3))

        # slot-1 integrality: n1 / q1 = r*a + s*b must be an integer, where
        # (a, b) are coordinates along basis_Lambda
        q1 = self._q[0]
        r = (l4 - l2) * q2 / (q1 * (l1 - l4))
        s = (l4 - l3) * q3 / (q1 * (l1 - l4))
        d = math.lcm(r.denominator, s.denominator)
        u = (r.numerator * (d // r.denominator)) % d
        v = (s.numerator * (d // s.denominator)) % d
        # their kernel {(a, b) : u a + v b = 0 mod d} in row HNF (p, 0),
        # (roff, sdiag): with g = gcd(u, d), u a runs over gZ mod d, so (a, 0)
        # lies in it for a in pZ, p = d / g; b is a second coordinate when
        # v b = 0 mod g, for b in sdiag Z; roff solves (u / g) roff =
        # -(v sdiag / g) mod p
        g = math.gcd(u, d)
        p, sdiag = d // g, g // math.gcd(g, v)
        roff = (-(v * sdiag // g) * pow(u // g, -1, p)) % p
        self.index = p * sdiag
        self.basis_LambdaPlus = (
            self.embed(p * q2, 0),
            self.embed(roff * q2, sdiag * q3),
        )
        for vec in self.basis_LambdaPlus:
            if vec[0].denominator not in (1,) or vec[0] % q1 != 0:
                raise AssertionError("sublattice basis must satisfy the slot-1 condition")
            if vec[3] % self._q[3] != 0:
                raise AssertionError("slot-4 characterization must agree with slot-1")
        self.coset_reps = tuple(
            self.embed(a * q2, b * q3) for b in range(sdiag) for a in range(p)
        )

        self.plus_signs = self._canonical_plus_signs()

        #: (slopes, cone_coeffs, *basis_LambdaPlus) as floats
        self.float_data = tuple(tuple(float(x) for x in seq)
                                for seq in (slopes, self.cone_coeffs, *self.basis_LambdaPlus))
        #: gaps[i][j] = float(l_j - l_i), rounded once from the exact difference
        self.gaps = tuple(tuple(float(g) for g in row) for row in _gaps(slopes))
        #: (representative as floats, m3 output label) per coset; the lift
        #: offset (-k2 - k3) l4 + l2 k2 + l3 k3 of the last line meets the
        #: first at the coset's output point, named by ``point_label``
        self.float_cosets = tuple(
            (tuple(float(x) for x in rep),
             point_label(l1, l4, int(-rep[1] - rep[2]), int(l2 * rep[1] + l3 * rep[2])))
            for rep in self.coset_reps
        )
        self.cone_curvature = self._cone_curvature()

    def embed(self, n2, n3) -> tuple:
        """Lift slot-2/slot-3 components to the full 4-vector on the subspace."""
        l1, l2, l3, l4 = self.slopes
        n2 = Fraction(n2)
        n3 = Fraction(n3)
        n1 = ((l4 - l2) * n2 + (l4 - l3) * n3) / (l1 - l4)
        n4 = -(n1 + n2 + n3)
        return (n1, n2, n3, n4)

    def contains(self, vec: Sequence[Fraction], plus: bool = False) -> bool:
        """Exact membership of a rational 4-vector in the lattice (or sublattice)."""
        n1, n2, n3, n4 = (Fraction(x) for x in vec)
        if self.embed(n2, n3) != (n1, n2, n3, n4):
            return False
        q1, q2, q3, _ = self._q
        if n2 % q2 != 0 or n3 % q3 != 0:
            return False
        if plus:
            return n1.denominator == 1 and n1 % q1 == 0
        return True

    def _signs_consistent(self, signs: Sequence[int]) -> bool:
        """Whether points with this sign pattern make all four cone products positive.

        A consistent pattern always has points: it flips sign exactly at the
        ascents l_{i-1} < l_i of the cycle l1 l2 l3 l4, so the cycle has two
        ascents (m3's degree condition).  By Stiemke's alternative the open
        orthant of the pattern misses the plane {sum x = 0, sum l x = 0} only
        if some nonzero r_i = a + b l_i has signs[i] r_i >= 0 for all i, that
        is, the pattern in slope order is constant or flips once, at some
        threshold.  Then the ascents would cross the threshold upward and the
        descents would not cross it, which a closed cycle cannot do.
        """
        return all(c * signs[i] * signs[i - 1] > 0 for i, c in enumerate(self.cone_coeffs))

    def _canonical_plus_signs(self) -> Optional[tuple]:
        signs = [1]
        for c in self.cone_coeffs[1:]:
            signs.append(signs[-1] * _sign(c))
        signs = tuple(signs)
        return signs if self._signs_consistent(signs) else None

    def _cone_curvature(self) -> float:
        """The least Q(x) / (a^2 + b^2) over the closed cone, x = a b1 + b b2.

        Q = p2 + p4 > 0 there (distinct slopes keep two coordinates from
        vanishing together) and is indefinite, so the least value lies on a
        boundary ray x_i = 0: the other two products positive, and p_i, p_{i+1}
        turning positive together.
        """
        _, c, b1, b2 = self.float_data
        least = math.inf
        for i in range(4):
            a, b = -b2[i], b1[i]
            x = [a * u + b * v for u, v in zip(b1, b2)]
            p = [c[j] * x[j] * x[j - 1] for j in range(4)]
            nxt = (i + 1) % 4
            if p[i - 2] > 0 and p[i - 1] > 0 and c[i] * x[i - 1] * c[nxt] * x[nxt] > 0:
                least = min(least, (p[1] + p[3]) / (a * a + b * b))
        return least

    def cone_products(self, x: Sequence) -> list:
        """The four defining products (l_{i-1} - l_i) x_i x_{i-1}, i = 1..4."""
        return [c * x[i] * x[i - 1] for i, c in enumerate(self.cone_coeffs)]

    def Q(self, x: Sequence):
        """Q(x) = (l1 - l2) x1 x2 + (l3 - l4) x3 x4 on the lattice subspace.

        The two terms are the second and fourth cone products, so Q > 0 on
        the cone.
        """
        if self.embed(x[1], x[2]) != tuple(x):
            raise DomainError("vector does not satisfy the two linear relations")
        products = self.cone_products(x)
        return products[1] + products[3]


@lru_cache(maxsize=64)
def _quad_config(ratios: tuple) -> QuadLatticeConfig:
    """One config per tuple of the slopes' (numerator, denominator) pairs, a
    key that hashes and compares without Fraction arithmetic; ints and the
    Fractions of the same values share an entry."""
    return QuadLatticeConfig([Fraction(*r) for r in ratios])


def build_quad_config(slopes: Sequence[Rational]) -> QuadLatticeConfig:
    """Exact lattice, sublattice, cosets and cone data for four distinct slopes.

    Memoized: the same slopes return the same instance, whose data are tuples
    and are not to be changed.
    """
    return _quad_config(tuple(s.as_integer_ratio() for s in slopes))


def _gaps(slopes: Sequence) -> tuple:
    """gaps[i][j] = slopes[j] - slopes[i], in the arithmetic of the slopes."""
    return tuple(tuple(b - a for b in slopes) for a in slopes)


def _yij(y: Sequence, gaps: Sequence, i: int, j: int):
    """(y_j - y_i) / (l_j - l_i), with gaps[i][j] = l_j - l_i.

    Exact for rational y and Fraction gaps.  For float y a Fraction gap and
    its float give the same bits: float / Fraction divides by the float.
    """
    return (y[j] - y[i]) / gaps[i][j]


def shift_vector(y: Sequence, slopes: Sequence[Rational], gaps: Optional[Sequence] = None) -> tuple:
    """The cone shift (y14 - y12, y12 - y23, y23 - y34, y34 - y14).

    ``gaps`` are the slope differences of ``_yij``, computed here from the
    slopes, which must then be distinct, unless given: the series pass the
    ``gaps`` of their config.  Exact when y is rational and the slopes are
    Fractions; float otherwise.  Lies on the lattice subspace for any y.
    """
    if gaps is None:
        if len(set(slopes)) != 4:
            raise DomainError("need four pairwise distinct slopes")
        gaps = _gaps(slopes)
    y12, y23, y34, y14 = (_yij(y, gaps, i, j) for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)))
    return (y14 - y12, y12 - y23, y23 - y34, y34 - y14)


def intersection_point(
    line_i: LineOnTorus, line_j: LineOnTorus, a: int = 0, b: int = 0
) -> tuple[float, float]:
    """The (a, b)-labelled intersection point of two lines, mod Z^2.

    Each quotient of integers is one correctly rounded division, so the
    floats are those of the exact slopes and their difference.
    """
    (pi, qi), (pj, qj) = line_i.slope.as_integer_ratio(), line_j.slope.as_integer_ratio()
    num = pj * qi - pi * qj
    if num == 0:
        raise DomainError("intersection requires distinct slopes")
    gap, li, lj = num / (qi * qj), pi / qi, pj / qj
    yi, yj = float(line_i.shift_y), float(line_j.shift_y)
    shift = (a * pj / qj + b) / gap
    x = (yj - yi) / gap + shift
    t = (li * yj - lj * yi) / gap + shift * li
    return (x % 1.0, t % 1.0)


def point_label(l_first: Rational, l_last: Rational, a: int, b: int) -> tuple[int, int]:
    """The one label (a', b') of the point where the lift of the last line by
    the offset a l_last + b meets the base lift of the first line, mod Z^2.

    Two offsets name one torus point exactly when they differ by a multiple
    of q_first (l_last - l_first), for l = p / q in lowest terms.  In units
    of 1 / q_last the offset is C = a p_last + b q_last, reduced mod
    |q_first p_last - p_first q_last|; then a' = C / p_last mod q_last and
    b' = (C - a' p_last) / q_last, so that 0 <= a' < q_last.  For integer
    slopes the label is (0, (a l_last + b) mod |l_last - l_first|).
    """
    (pf, qf), (pl, ql) = l_first.as_integer_ratio(), l_last.as_integer_ratio()
    period = abs(qf * pl - pf * ql)
    if period == 0:
        raise DomainError("a point label requires distinct slopes")
    c = (a * pl + b * ql) % period
    a = c * pow(pl, -1, ql) % ql
    return a, (c - a * pl) // ql
