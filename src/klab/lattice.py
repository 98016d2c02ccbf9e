"""Set-ups of slope tuples for m2 and m3, in integers, and the labels of the
crossings of lines on the flat torus.

A slope is taken as its pair l = p/q in lowest terms, and every datum here is
an integer or the float of one quotient of integers, which Python rounds
correctly; F's record (``_windows``) holds such floats in read-only arrays.

``QuadLatticeConfig`` is the set-up of four slopes for m3.  The closed
quadrangle edge vectors form a rank-2 lattice in the plane {sum x = 0,
sum l x = 0}, parameterized by slots 2 and 3: with d14 = p1 q4 - p4 q1, the
vector with n2 = a q2 and n3 = b q3 has n1 = q1 (r a + s b) / d14, r = p4 q2
- p2 q4, s = p4 q3 - p3 q4, so it is an integer 4-vector over d14.  The
sublattice asks n1 in q1 Z, that is r a + s b = 0 mod d14; its cosets are
summed one F series each.  The cone is where the four products
(l_{i-1} - l_i) x_i x_{i-1} are positive, and Q is the sum of the second and
fourth of them.  Q has signature (1, 1), and F sums a coset over the lines
of a Q-orthogonal basis of a sublattice (``_windows``).  ``TripleConfig`` is
the set-up of three slopes for m2: the Gaussian coefficient of its theta
series, the ideal it sums over and the cosets of that ideal.

``build_quad_config`` and ``build_triple_config`` compute a set-up once per
slope tuple, a shared immutable record: their two memos are the only ones
that the m2 and m3 sums keep.  A tuple with more than
``_MAX_COSETS`` cosets, such as one with a float slope like 0.1
(denominator 2^55), is refused with DomainError before any is listed.

``point_label`` names each crossing of two lines by one label (a, b),
computed from integers: m2, m3 and the polygon oracle report their
coefficients under it, so results are compared and added by label.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import GUARD, DomainError


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
        if not (math.isfinite(self.shift_y) and math.isfinite(self.monodromy_beta)):
            raise DomainError(f"{self!r}: shift_y and monodromy_beta must be finite")


def hom_degree(li: Fraction, lj: Fraction) -> int:
    """Degree of the morphism between lines of slopes li, lj: 0 iff li < lj."""
    if li == lj:
        raise DomainError("hom_degree requires distinct slopes")
    return 0 if li < lj else 1


#: Most cosets a set-up lists, 511^2, so that its lists hold tens of MB at most.
_MAX_COSETS = 511 ** 2


def _count_cosets(count: int) -> int:
    """``count``, or DomainError if it exceeds ``_MAX_COSETS``."""
    if count > _MAX_COSETS:
        raise DomainError(f"the slopes have {count} cosets, more than the {_MAX_COSETS} "
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

    plus_signs: tuple | None
    float_data: tuple  # (slopes, cone coefficients l_(i-1) - l_i, sublattice basis b1, b2)
    gaps: tuple  # gaps[i][j] = float(l_j - l_i)
    coset_reps: tuple  # (a, b) per coset (len: the index): the vector with n2 = a q2, n3 = b q3
    float_cosets: tuple  # (that vector as floats, m3 output label) per coset
    basis: tuple | None  # (u, v) as (a, b) pairs: Q-orthogonal, Q(u) > 0 > Q(v), in the sublattice
    windows: tuple | None  # F's record, from ``_windows``


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

    def vector(x):
        """d14 times the lattice vector with n2 = a q2 and n3 = b q3, x = (a, b)."""
        n1, n2, n3 = q1 * (r * x[0] + s * x[1]), x[0] * q2 * d, x[1] * q3 * d
        return n1, n2, n3, -(n1 + n2 + n3)

    def floats(x):
        """The lattice vector itself, each float one quotient n / d."""
        return tuple(n / d for n in vector(x))

    # the sublattice {(a, b) : r a + s b = 0 mod d} in row HNF (p, 0), (roff,
    # sdiag): with g = gcd(r, d), r a runs over gZ mod d, so (a, 0) lies in it
    # for a in pZ, p = d / g; b is a second coordinate when s b = 0 mod g, for
    # b in sdiag Z; roff solves (r / g) roff = -(s sdiag / g) mod p
    g = math.gcd(r, d)
    p, sdiag = d // g, g // math.gcd(g, s)
    roff = (-(s * sdiag // g) * pow(r // g, -1, p)) % p
    _count_cosets(p * sdiag)

    gaps = _gaps(ratios)
    cone = tuple(gaps[i][i - 1] for i in range(4))
    # Each product after the first is positive with the sign pattern that flips
    # at each negative coefficient; the first is too exactly when it flips at
    # the ascents l_(i-1) < l_i of the cycle l1 l2 l3 l4 and there are two
    # (m3's degree condition).  Such a pattern has points: by Stiemke's
    # alternative its open orthant misses the plane {sum x = 0, sum l x = 0}
    # only if some nonzero r_i = a + b l_i has signs[i] r_i >= 0 for all i, a
    # pattern that in slope order flips at most once, at a threshold, which
    # the ascents would cross upward and the descents not: no closed cycle.
    signs = [1]
    for c in cone[1:]:
        signs.append(signs[-1] * (1 if c > 0 else -1))
    b1, b2 = floats((p, 0)), floats((roff, sdiag))
    reps = tuple((a, b) for b in range(sdiag) for a in range(p))
    plus = tuple(signs) if cone[0] * signs[3] > 0 else None
    return QuadLatticeConfig(
        plus,
        (tuple(pi / qi for pi, qi in ratios), cone, b1, b2),
        gaps,
        reps,
        # the lift offset -(a q2 + b q3) l4 + a p2 + b p3 of the last line
        # meets the first at the coset's output point
        tuple((floats((a, b)), _label(ratios[0], ratios[3], -(a * q2 + b * q3), a * p2 + b * p3))
              for a, b in reps),
        *(_windows(ratios, d, r, s, ((p, 0), (roff, sdiag)), vector) if plus else (None, None)),
    )


#: The search box of ``_windows``: u = i g1 + j g2 with |i|, |j| <= this.
_SEARCH = 12
_TOP_REACH = 64  # the largest |j| but reach at which F_series looks for its top


def _windows(ratios: tuple, d: int, r: int, s: int, hnf: tuple, vector) -> tuple:
    """A Q-orthogonal basis (u, v) of a sublattice of the m3 sublattice, as
    (a, b) pairs, and the data with which F sums over it, from integers.

    u = i g1 + j g2, (g1, g2) the Lagrange-reduced sublattice basis and |i|,
    |j| <= _SEARCH, has Q(u) > 0, the least index and then the largest least
    / A (1 where U bisects the cone); v is the least sublattice vector
    B-orthogonal to u, and the cosets of Z u + Z v are t w, t < index.  With
    x = k' U + n' V, Q(x) = A k'^2 - C n'^2, A, C > 0, the cone is lo < n' /
    k' < hi, bounded by lines x_i = 0, n' = -(U_i / V_i) k', and its plus
    sector lies at sign(k') = side.  The data is F's record, read-only arrays
    and floats in the order ``F_series`` unpacks them: (((d U_i, d V_i) per
    i), d), (k', n') as linear forms per i, the cosets' vectors (k' mod 1) U
    + (n' mod 1) V, (A, C, side, least, js, hi - lo, far), (lo, hi) and GUARD
    (band_lo, band_hi) as columns, and the steps d U_i and d V_i as columns.
    Here least = min(A - C lo^2, A - C hi^2), so Q >= least k'^2 on the cone;
    reach is the least J with (hi - lo) (J - 1/2) > 1, so each window with
    |k'| >= J - 1/2 holds a point, and js the j = +-reach and |j| <=
    min(reach, _TOP_REACH) at which F bounds its top; far is (lam, the other
    end, +1 if lam = hi else -1), lam the end of larger modulus; band is the
    sup-norm of x at k' = 1 on a boundary line over |V_i|, so |x_i| < g |x|
    where |n' - lam k'| < g band |k'|.
    """
    (p1, q1), (p2, q2), (p3, q3), (p4, q4) = ratios
    cone = [Fraction(*x) - Fraction(*y) for x, y in zip(ratios[-1:] + ratios[:-1], ratios)]

    def bilinear(x, y):  # B(x, y) of Q
        return (cone[1] * (x[0] * y[1] + x[1] * y[0]) + cone[3] * (x[2] * y[3] + x[3] * y[2])) / 2

    def dot(x, y):  # Euclidean, of the vectors
        return sum(m * n for m, n in zip(vector(x), vector(y)))

    def boundary(U, V):
        """The boundary lines' i, lower lam first, and the cone's point at
        k' = 1 halfway between them."""
        lines = sorted((-U[i] / V[i], i) for i in range(4) if V[i])
        for (a, i), (b, j) in zip(lines, lines[1:]):
            x = [y + (a + b) / 2 * z for y, z in zip(U, V)]
            if all(c * x[m] * x[m - 1] > 0 for m, c in enumerate(cone)):
                return (i, j), x

    # 2 d14^2 q1 q2 q3 q4 B, an integer form in (a, b)
    f = [[int(2 * q1 * q2 * q3 * q4 * bilinear(vector(x), vector(y))) for y in ((1, 0), (0, 1))]
         for x in ((1, 0), (0, 1))]
    g1, g2 = sorted(hnf, key=lambda x: dot(x, x))
    while True:  # Lagrange reduction
        norm = dot(g1, g1)
        k = (2 * dot(g1, g2) + norm) // (2 * norm)
        g2 = (g2[0] - k * g1[0], g2[1] - k * g1[1])
        if dot(g2, g2) >= norm:
            break
        g1, g2 = g2, g1
    candidates = []
    for i, j in itertools.product(range(_SEARCH + 1), range(-_SEARCH, _SEARCH + 1)):
        u = (i * g1[0] + j * g2[0], i * g1[1] + j * g2[1])
        la, lb = f[0][0] * u[0] + f[1][0] * u[1], f[0][1] * u[0] + f[1][1] * u[1]
        if (i, j) > (0, 0) and math.gcd(i, j) == 1 and la * u[0] + lb * u[1] > 0:
            g = math.gcd(la, lb)
            m = d // math.gcd(d, (r * lb - s * la) // g)  # the least multiple in the sublattice
            v = (-m * lb // g, m * la // g)
            fv = m * m * (f[0][0] * lb * lb - 2 * f[0][1] * la * lb + f[1][1] * la * la) // (g * g)
            candidates.append((abs(u[0] * v[1] - u[1] * v[0]), u, v, i, j,
                               Fraction(fv, la * u[0] + lb * u[1])))
    if not candidates:
        raise DomainError("no lattice vector of positive Q within the search box")
    index = min(candidates)[0]
    edges, _ = boundary(vector(candidates[0][1]), vector(candidates[0][2]))
    # least / A = min(1 - C lam^2 / A) over the boundary lines
    _, u, v, i, j, _ = max((c for c in candidates if c[0] == index), key=lambda c: min(
        1 + c[5] * Fraction(vector(c[1])[e], vector(c[2])[e]) ** 2 for e in edges))
    index //= abs(g1[0] * g2[1] - g1[1] * g2[0])
    # w = -x g1 + y g2 with j x + i y = 1
    x = pow(j, -1, abs(i)) if abs(i) > 1 else (0 if i else j)
    y = (1 - j * x) // i if i else 0
    w = (-x * g1[0] + y * g2[0], -x * g1[1] + y * g2[1])
    U, V, W = (tuple(Fraction(n, d) for n in vector(x)) for x in (u, v, w))
    A, C, (edges, middle) = bilinear(U, U), -bilinear(V, V), boundary(U, V)
    duals = [(cone[1] * x[1], cone[1] * x[0], cone[3] * x[3], cone[3] * x[2]) for x in (U, V)]
    (lo, hi), bands = zip(*((-U[e] / V[e], max(abs(x - U[e] / V[e] * y) for x, y in zip(U, V))
                             / abs(V[e])) for e in edges))
    cosets = tuple(tuple(float((t * bilinear(W, U) / A % 1) * x + (-t * bilinear(W, V) / C % 1) * y)
                         for x, y in zip(U, V)) for t in range(index))
    least, reach = min(A - C * lo * lo, A - C * hi * hi), math.floor(1 / (hi - lo) + Fraction(1, 2)) + 1
    lo, hi, J = float(lo), float(hi), min(reach, _TOP_REACH)
    numer, duals, cosets, js, ends, guard = arrays = (
        np.array(tuple(zip(vector(u), vector(v))), dtype=float),
        np.array(tuple((float(a / A / 2), float(-b / C / 2)) for a, b in zip(*duals))),
        np.array(cosets), np.array((-reach, *range(-J, J + 1), reach)),
        np.array((lo, hi))[:, None, None], GUARD * np.array(tuple(map(float, bands)))[:, None, None])
    for x in arrays:
        x.flags.writeable = False
    return (u, v), ((numer, float(d)), duals, cosets,
                    (float(A), float(C), 1 if middle[0] > 0 else -1, float(least), js, hi - lo,
                     (hi, lo, 1.0) if abs(hi) >= abs(lo) else (lo, hi, -1.0)),
                    ends, guard, (numer[:, 0, None, None], numer[:, 1, None, None, None]))


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
