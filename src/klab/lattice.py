"""Set-ups of slope tuples for m2 and m3, in integers, and the labels of the
crossings of lines on the flat torus.

A slope is taken as its pair l = p/q in lowest terms, and every datum here is
an integer or the float of one quotient of integers.  Python rounds that
quotient correctly, so each float has the bits of the exact rational's.

``QuadLatticeConfig`` is the set-up of four slopes for m3.  The closed
quadrangle edge vectors form a rank-2 lattice in the plane {sum x = 0,
sum l x = 0}, parameterized by slots 2 and 3: with d14 = p1 q4 - p4 q1, the
vector with n2 = a q2 and n3 = b q3 has n1 = q1 (r a + s b) / d14, r = p4 q2
- p2 q4, s = p4 q3 - p3 q4, so it is an integer 4-vector over d14.  The
sublattice asks n1 in q1 Z, that is r a + s b = 0 mod d14; its cosets are
summed one series each.  The cone is where the four products
(l_{i-1} - l_i) x_i x_{i-1} are positive, and Q is the sum of the second and
fourth of them.  ``TripleConfig`` is the set-up of three slopes for m2: the
Gaussian coefficient of its theta series, the ideal it sums over and the
cosets of that ideal.

``build_quad_config`` and ``build_triple_config`` compute a set-up once per
slope tuple and return one shared, immutable record of the floats the
series read on every call.  A tuple with more cosets than one kernel box
holds, such as one with a float slope like 0.1 (denominator 2^55), is
refused with DomainError before any coset is listed.

``point_label`` names each crossing of two lines by one label (a, b),
computed from integers: m2, m3 and the polygon oracle report their
coefficients under it, so results are compared and added by label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .core import MAX_RADIUS_2D, DomainError


@dataclass(frozen=True)
class LineOnTorus:
    """A geodesic circle of rational slope with a shift and a monodromy.

    The line is {((y + t) / slope, t)} projected to R^2/Z^2; equivalently the
    graph t = slope * x - y.  ``monodromy_beta`` is the holonomy exponent per
    unit x-displacement along the line.
    """

    slope: Fraction
    shift_y: float = 0.0
    monodromy_beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slope", Fraction(self.slope))


def hom_degree(li: Fraction, lj: Fraction) -> int:
    """Degree of the morphism between lines of slopes li, lj: 0 iff li < lj."""
    if li == lj:
        raise DomainError("hom_degree requires distinct slopes")
    return 0 if li < lj else 1


def _count_cosets(count: int) -> int:
    """``count``, or DomainError if more cosets than one kernel box holds."""
    box = (2 * MAX_RADIUS_2D + 1) ** 2
    if count > box:
        raise DomainError(f"the slopes have {count} cosets, more than the {box} "
                          "indices of one kernel box")
    return count


def _gaps(ratios: tuple) -> tuple:
    """gaps[i][j] = float(l_j - l_i), from the slopes' (p, q) pairs."""
    return tuple(tuple((pj * qi - pi * qj) / (qi * qj) for pj, qj in ratios) for pi, qi in ratios)


class QuadLatticeConfig(NamedTuple):
    """The set-up of four distinct slopes for m3 (see the module docstring).

    The cone's plus component is the part with the sign pattern
    ``plus_signs``, whose first sign is +1; it is None when the degree
    condition of m3 fails and the cone is empty.
    """

    index: int  # of the sublattice in the lattice
    plus_signs: tuple | None
    float_data: tuple  # (slopes, cone coefficients l_(i-1) - l_i, sublattice basis b1, b2)
    gaps: tuple  # gaps[i][j] = float(l_j - l_i)
    coset_reps: tuple  # (a, b) per coset: the lattice vector with n2 = a q2, n3 = b q3
    float_cosets: tuple  # (that vector as floats, m3 output label) per coset
    cone_curvature: float  # the least Q(x) / (a^2 + b^2) over the closed cone, x = a b1 + b b2


@lru_cache(maxsize=64)
def _quad_config(ratios: tuple) -> QuadLatticeConfig:
    """The config of four slopes given by their (numerator, denominator)
    pairs, a key that hashes and compares without Fraction arithmetic; ints
    and the Fractions of the same values share an entry."""
    if len(ratios) != 4 or len(set(ratios)) != 4:
        raise DomainError("need four pairwise distinct slopes")
    (p1, q1), (p2, q2), (p3, q3), (p4, q4) = ratios
    # d14, r and s, all negated if d14 < 0, so that a zero divided by d has
    # the sign of a zero Fraction's float
    sign = 1 if p1 * q4 > p4 * q1 else -1
    d, r, s = (sign * (p1 * q4 - p4 * q1), sign * (p4 * q2 - p2 * q4),
               sign * (p4 * q3 - p3 * q4))

    def vector(a, b):
        """The lattice vector with n2 = a q2 and n3 = b q3, as floats."""
        n1, n2, n3 = q1 * (r * a + s * b), a * q2 * d, b * q3 * d
        return tuple(n / d for n in (n1, n2, n3, -(n1 + n2 + n3)))

    # the sublattice {(a, b) : r a + s b = 0 mod d} in row HNF (p, 0),
    # (roff, sdiag): with g = gcd(r, d), r a runs over gZ mod d, so (a, 0)
    # lies in it for a in pZ, p = d / g; b is a second coordinate when
    # s b = 0 mod g, for b in sdiag Z; roff solves (r / g) roff =
    # -(s sdiag / g) mod p
    g = math.gcd(r, d)
    p, sdiag = d // g, g // math.gcd(g, s)
    roff = (-(s * sdiag // g) * pow(r // g, -1, p)) % p
    index = _count_cosets(p * sdiag)

    gaps = _gaps(ratios)
    cone = tuple(gaps[i][i - 1] for i in range(4))
    # Each product after the first is positive with the sign pattern that
    # flips at each negative coefficient.  The pattern is consistent when the
    # first product is positive too: it then flips exactly at the ascents
    # l_(i-1) < l_i of the cycle l1 l2 l3 l4, so the cycle has two ascents
    # (m3's degree condition).  A consistent pattern always has points: by
    # Stiemke's alternative the open orthant of the pattern misses the plane
    # {sum x = 0, sum l x = 0} only if some nonzero r_i = a + b l_i has
    # signs[i] r_i >= 0 for all i, that is, the pattern in slope order is
    # constant or flips once, at some threshold.  Then the ascents would
    # cross the threshold upward and the descents would not cross it, which
    # a closed cycle cannot do.
    signs = [1]
    for c in cone[1:]:
        signs.append(signs[-1] * (1 if c > 0 else -1))
    b1, b2 = vector(p, 0), vector(roff, sdiag)
    reps = tuple((a, b) for b in range(sdiag) for a in range(p))
    return QuadLatticeConfig(
        index,
        tuple(signs) if cone[0] * signs[3] > 0 else None,
        (tuple(pi / qi for pi, qi in ratios), cone, b1, b2),
        gaps,
        reps,
        # the lift offset -(a q2 + b q3) l4 + a p2 + b p3 of the last line
        # meets the first at the coset's output point
        tuple((vector(a, b), _label(ratios[0], ratios[3], -(a * q2 + b * q3), a * p2 + b * p3))
              for a, b in reps),
        _cone_curvature(cone, b1, b2),
    )


def _cone_curvature(c: tuple, b1: tuple, b2: tuple) -> float:
    """The least Q(x) / (a^2 + b^2) over the closed cone, x = a b1 + b b2.

    Q = p2 + p4 > 0 there (distinct slopes keep two coordinates from
    vanishing together) and is indefinite, so the least value lies on a
    boundary ray x_i = 0: the other two products positive, and p_i, p_{i+1}
    turning positive together.
    """
    least = math.inf
    for i in range(4):
        a, b = -b2[i], b1[i]
        x = [a * u + b * v for u, v in zip(b1, b2)]
        p = [c[j] * x[j] * x[j - 1] for j in range(4)]
        nxt = (i + 1) % 4
        if p[i - 2] > 0 and p[i - 1] > 0 and c[i] * x[i - 1] * c[nxt] * x[nxt] > 0:
            least = min(least, (p[1] + p[3]) / (a * a + b * b))
    return least


def build_quad_config(slopes: Sequence) -> QuadLatticeConfig:
    """The m3 set-up of four distinct slopes, memoized: the same slopes
    return the same record."""
    return _quad_config(tuple(s.as_integer_ratio() for s in slopes))


class TripleConfig(NamedTuple):
    """The set-up of three slopes for m2, as its theta series read it."""

    gaps: tuple  # gaps[i][j] = float(l_j - l_i)
    c: float  # the Gaussian coefficient (l3 - l2)(l2 - l1)/(l3 - l1), positive
    ideal: int  # the generator of q2 Z intersected with ((l3 - l1)/(l3 - l2)) q1 Z
    cosets: tuple  # (n0, output label) for n0 in range(0, ideal, q2)


@lru_cache(maxsize=64)
def _triple_config(ratios: tuple) -> TripleConfig | None:
    """The set-up of three slopes given by their (numerator, denominator)
    pairs; None when they fail the degree condition, that is when c is not
    positive.  With d_ij = p_j q_i - p_i q_j, c = d12 d23 / (q2^2 d13) and
    the ideal is q2 |d13| / gcd(d13, d23).  Coset n0 has its output point
    where the lift -n0 l3 + n0 l2 of the third line meets the first, m3's
    rule with b = 0."""
    if len(set(ratios)) != 3:
        raise DomainError("slopes must be pairwise distinct")
    (p1, q1), (p2, q2), (p3, q3) = ratios
    d12, d13, d23 = p2 * q1 - p1 * q2, p3 * q1 - p1 * q3, p3 * q2 - p2 * q3
    count = _count_cosets(abs(d13) // math.gcd(d13, d23))
    if d12 * d13 * d23 < 0:
        return None
    return TripleConfig(_gaps(ratios), d12 * d23 / (q2 * q2 * d13), q2 * count, tuple(
        (k * q2, _label(ratios[0], ratios[2], -k * q2, k * p2)) for k in range(count)))


def build_triple_config(slopes: Sequence) -> TripleConfig | None:
    """The m2 set-up of three slopes, memoized; None where m2 is zero, and
    DomainError unless the slopes are pairwise distinct."""
    return _triple_config(tuple(s.as_integer_ratio() for s in slopes))


def shift_vector(y: Sequence, gaps: Sequence) -> tuple:
    """The cone shift (y14 - y12, y12 - y23, y23 - y34, y34 - y14), with
    y_ij = (y_j - y_i) / gaps[i][j] and gaps[i][j] = l_j - l_i.  It lies on
    the lattice subspace for any y."""
    y12, y23, y34, y14 = ((y[j] - y[i]) / gaps[i][j] for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)))
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


def point_label(l_first: Fraction, l_last: Fraction, a: int, b: int) -> tuple[int, int]:
    """The one label (a', b') of the point where the lift of the last line by
    the offset a l_last + b meets the base lift of the first line, mod Z^2.

    Two offsets name one torus point exactly when they differ by a multiple
    of q_first (l_last - l_first), for l = p / q in lowest terms.  In units
    of 1 / q_last the offset is C = a p_last + b q_last, reduced mod
    |q_first p_last - p_first q_last|; then a' = C / p_last mod q_last and
    b' = (C - a' p_last) / q_last, so that 0 <= a' < q_last.  For integer
    slopes the label is (0, (a l_last + b) mod |l_last - l_first|).
    """
    return _label(l_first.as_integer_ratio(), l_last.as_integer_ratio(), a, b)


def _label(first: tuple, last: tuple, a: int, b: int) -> tuple[int, int]:
    """``point_label`` of slopes given by their (p, q) pairs."""
    (pf, qf), (pl, ql) = first, last
    period = abs(qf * pl - pf * ql)
    if period == 0:
        raise DomainError("a point label requires distinct slopes")
    c = (a * pl + b * ql) % period
    a = c * pow(pl, -1, ql) % ql
    return a, (c - a * pl) // ql
