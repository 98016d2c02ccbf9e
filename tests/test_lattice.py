import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import test_fukaya
from five_term_reference import FIVE_TERM_ROWS, _five_term_plan, five_term_values

from klab import fukaya, lattice
from klab.core import DomainError, Modulus
from klab.lattice import (
    LineOnTorus,
    build_quad_config,
    build_triple_config,
    hom_degree,
    intersection_point,
    point_label,
    shift_vector,
)
from lattice_reference import (
    Q,
    cone_products,
    contains,
    coset_vectors,
    embed,
    ideal_of,
    triple_ideal,
)

F = Fraction


class TestIdealOf:
    @pytest.mark.parametrize(
        "lam, want", [(F(3, 2), 2), (F(5), 1), (F(0), 1), (F(-2, 3), 3)]
    )
    def test_examples(self, lam, want):
        assert ideal_of(lam) == want

    def test_brute_force(self):
        for lam in (F(1, 2), F(5, 3), F(-7, 2), F(4)):
            members = [n for n in range(1, 20) if (n * lam).denominator == 1]
            assert ideal_of(lam) == members[0]


class TestTripleIdeal:
    def test_brute_force(self):
        cases = [(F(0), F(1), F(2)), (F(0), F(2), F(3)), (F(1, 2), F(2), F(-1)),
                 (F(0), F(1, 3), F(1)), (F(-1), F(1), F(3))]
        for l1, l2, l3 in cases:
            c = (l3 - l1) / (l3 - l2)
            got = triple_ideal(l1, l2, l3)
            members = [
                n
                for n in range(1, 100)
                if (n * l2).denominator == 1 and (F(n) / c).denominator == 1
                and ((F(n) / c) * l1).denominator == 1
            ]
            assert got == members[0]

    def test_symmetry_in_outer_slopes(self):
        for l1, l2, l3 in [(F(0), F(1), F(2)), (F(1, 2), F(2), F(-1)),
                           (F(0), F(2), F(-1))]:
            assert triple_ideal(l1, l2, l3) == triple_ideal(l3, l2, l1)

    def test_repeated_slopes_rejected(self):
        with pytest.raises(DomainError):
            triple_ideal(F(1), F(1), F(2))
        with pytest.raises(DomainError):
            build_triple_config((F(1), F(1), F(2)))

    def test_m2_setup_matches_the_exact_formulas(self):
        # every ordering of three slopes of the pool: m2's integer set-up
        # against the Fraction forms of its Gaussian coefficient, ideal,
        # slope differences and coset labels
        for slopes in itertools.permutations(SLOPE_POOL + [F(5, 2), F(-2, 3), F(7, 2)], 3):
            l1, l2, l3 = slopes
            c = (l3 - l2) * (l2 - l1) / (l3 - l1)
            tri = build_triple_config(slopes)
            assert (tri is None) == (c < 0)
            if tri is None:
                continue
            g = triple_ideal(*slopes)
            assert (tri.c, tri.ideal) == (float(c), g)
            assert tri.gaps == tuple(tuple(float(b - a) for b in slopes) for a in slopes)
            assert tri.cosets == tuple((n0, point_label(l1, l3, -n0, int(n0 * l2)))
                                       for n0 in range(0, g, ideal_of(l2)))


def brute_force_lattice_data(slopes, box=8):
    """Independent enumeration of Lambda and Lambda+ near the origin.

    A lattice vector is determined by its slot-2/slot-3 components via the
    two linear relations; slot-1 is solved directly from those relations.
    """
    l1, l2, l3, l4 = slopes
    q2, q3 = ideal_of(l2), ideal_of(l3)
    q1, q4 = ideal_of(l1), ideal_of(l4)

    @lru_cache(maxsize=None)  # in_plus lifts the points the tests lift
    def lift(n2, n3):
        n1 = (l4 * (n2 + n3) - (l2 * n2 + l3 * n3)) / (l1 - l4)
        n4 = -(n1 + n2 + n3)
        return (n1, n2, n3, n4)

    def in_plus(n2, n3):
        n1, _, _, n4 = lift(n2, n3)
        ok1 = n1.denominator == 1 and (n1 * l1).denominator == 1
        ok4 = n4.denominator == 1 and (n4 * l4).denominator == 1
        assert ok1 == ok4  # the two printed characterizations agree
        return ok1

    # index = M^2 / #(Lambda+ points) once M*e_i both lie in Lambda+
    m = 1
    while not (in_plus(m * q2, 0) and in_plus(0, m * q3)):
        m += 1
        assert m <= 64
    count = sum(
        in_plus(a * q2, b * q3) for a in range(m) for b in range(m)
    )
    assert (m * m) % count == 0
    return lift, in_plus, (m * m) // count


SLOPE_POOL = [F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(1, 3), F(2, 3)]
#: the slope quadruples of the compose benchmark
COMPOSE_SLOPES = (
    (0, 2, -1, 1), (F(1, 2), 2, -1, 1), (0, F(5, 2), F(-2, 3), 1),
    (0, 1, -1, 2), (0, F(3, 2), F(1, 2), 2), (1, F(3, 2), F(2, 3), F(-1, 2)),
    (F(-1, 2), 1, F(-3, 2), F(1, 2)), (F(1, 2), 2, F(1, 3), F(3, 2)),
    (-1, F(-1, 2), 3, F(2, 3)), (0, 1, 2, 3), (-1, F(1, 2), 2, F(5, 2)),
)


def sublattice_basis(slopes, cfg) -> list:
    """The exact vectors of the config's float sublattice basis, whose slot-2
    and slot-3 components are integers."""
    return [embed(slopes, F(b[1]), F(b[2])) for b in cfg.float_data[2:]]


class TestQuadLatticeBruteForce:
    def test_all_quadruples_denominator_le_3(self):
        start = time.time()
        for slopes in itertools.permutations(SLOPE_POOL, 4):
            cfg = build_quad_config(slopes)
            lift, in_plus, index = brute_force_lattice_data(slopes)
            reps = coset_vectors(slopes, cfg)
            assert len(cfg.coset_reps) == len(reps) == index
            # representatives are in Lambda, pairwise non-congruent mod
            # Lambda+, and every small lattice point matches exactly one.  A
            # vector of Lambda is in Lambda+ exactly when its slot-1
            # component is in q1 Z, the one condition ``contains`` adds with
            # plus=True, so two vectors of Lambda are congruent exactly when
            # their slot-1 components are congruent mod q1; testing that
            # residue alone keeps the 840 orderings within the time budget.
            q1, q2, q3 = (ideal_of(s) for s in slopes[:3])
            for rep in reps:
                assert contains(slopes, rep)
            residues = [rep[0] % q1 for rep in reps]
            assert len(set(residues)) == len(reps)
            for a in range(-3, 4):
                for b in range(-3, 4):
                    vec = lift(F(a * q2), F(b * q3))
                    assert contains(slopes, vec)
                    residue = vec[0] % q1
                    assert residues.count(residue) == 1
                    assert (residue == 0) == in_plus(vec[1], vec[2])
        assert time.time() - start < 5.0

    def test_basis_relations_exact(self):
        # the float basis and representatives are the floats of exact
        # vectors of the plane, the basis spans a sublattice of the index
        # found, and each representative's label is that of its lift offset
        for slopes in itertools.permutations(SLOPE_POOL, 4):
            cfg = build_quad_config(slopes)
            basis = sublattice_basis(slopes, cfg)
            for vec, floats in zip(basis, cfg.float_data[2:]):
                assert tuple(map(float, vec)) == floats
                assert contains(slopes, vec, plus=True)
                assert sum(vec) == 0
                assert sum(l * v for l, v in zip(slopes, vec)) == 0
            q2, q3 = ideal_of(slopes[1]), ideal_of(slopes[2])
            (_, u2, u3, _), (_, v2, v3, _) = basis
            assert abs(u2 * v3 - u3 * v2) == len(cfg.coset_reps) * q2 * q3
            for (floats, label), vec in zip(cfg.float_cosets, coset_vectors(slopes, cfg)):
                assert floats == tuple(map(float, vec))
                offset = (int(-vec[1] - vec[2]), int(slopes[1] * vec[1] + slopes[2] * vec[2]))
                assert label == point_label(slopes[0], slopes[3], *offset)


SLOPES_0123 = (F(0), F(1), F(2), F(3))


class TestQuadConfig0123:
    def test_index_three(self):
        cfg = build_quad_config(SLOPES_0123)
        assert len(cfg.coset_reps) == 3

    def test_lambda_parameterization(self):
        # Lambda = {((-2a - b)/3, a, b, -(a + 2b)/3)}
        for a in range(-4, 5):
            for b in range(-4, 5):
                vec = (F(-2 * a - b, 3), F(a), F(b), F(-(a + 2 * b), 3))
                assert contains(SLOPES_0123, vec)

    def test_q_integer_on_sublattice(self):
        basis = sublattice_basis(SLOPES_0123, build_quad_config(SLOPES_0123))
        rng = random.Random(5)
        for _ in range(50):
            c1, c2 = rng.randint(-8, 8), rng.randint(-8, 8)
            vec = tuple(
                c1 * u + c2 * v
                for u, v in zip(*basis)
            )
            assert Q(SLOPES_0123, vec).denominator == 1


class TestQuadraticQ:
    def test_zero_and_even(self):
        assert Q(SLOPES_0123, (0, 0, 0, 0)) == 0
        x = embed(SLOPES_0123, F(3, 2), F(-5, 3))
        neg = tuple(-v for v in x)
        assert Q(SLOPES_0123, x) == Q(SLOPES_0123, neg)

    def test_off_subspace_rejected(self):
        with pytest.raises(DomainError):
            Q(SLOPES_0123, (1, 0, 0, 0))

    def test_positive_on_cone(self):
        rng = random.Random(11)
        for slopes in [(F(1), F(3), F(0), F(2)), (F(2), F(-1), F(1), F(3)),
                       (F(0), F(2), F(-1), F(1))]:
            found = 0
            for _ in range(500):
                x = embed(
                    slopes, F(rng.randint(-40, 40), 7), F(rng.randint(-40, 40), 7)
                )
                if all(p > 0 for p in cone_products(slopes, x)):
                    found += 1
                    assert Q(slopes, x) > 0
            assert found > 10


def degree_condition(slopes) -> bool:
    """m3's degree condition deg(1,2) + deg(2,3) + deg(3,4) = deg(1,4) + 1."""
    degs = sum(hom_degree(slopes[i], slopes[i + 1]) for i in range(3))
    return degs == hom_degree(slopes[0], slopes[3]) + 1


def point_with_signs(slopes, signs, radius=20):
    """A point embed(slopes, x2, x3) with integers 0 < |x2|, |x3| <= radius
    and the sign pattern ``signs``, nearest the origin first, or None."""
    quadrant = itertools.product(range(1, radius + 1), repeat=2)
    for a, b in sorted(quadrant, key=max):
        x = embed(slopes, signs[1] * a, signs[2] * b)
        if all((v > 0) - (v < 0) == s for v, s in zip(x, signs)):
            return x
    return None


class TestConeMembership:
    def test_every_consistent_pattern_has_points(self):
        # the cone is never searched for a point: the plus component of a
        # consistent pattern is non-empty by the argument in lattice.py
        checked = 0
        for combo in itertools.combinations(SLOPE_POOL, 4):
            for slopes in itertools.permutations(combo):
                cfg = build_quad_config(slopes)
                if cfg.plus_signs is None:
                    continue
                for signs in (cfg.plus_signs, tuple(-s for s in cfg.plus_signs)):
                    x = point_with_signs(slopes, signs)
                    assert x is not None, (slopes, signs)
                    assert all(p > 0 for p in cone_products(slopes, x))
                    checked += 1
        # 16 of the 24 orders of four slopes have two ascents around the
        # cycle; each has two consistent patterns
        assert checked == 35 * 16 * 2

    def test_plus_signs_iff_degree_condition(self):
        for combo in itertools.combinations(SLOPE_POOL, 4):
            for slopes in itertools.permutations(combo):
                cfg = build_quad_config(slopes)
                assert (cfg.plus_signs is not None) == degree_condition(slopes)

    def test_cone_curvature_is_the_least_on_the_cone(self):
        # the Q-orthogonal basis in Fractions: u and v lie in the sublattice
        # with Q(u) > 0 > Q(v) and B(u, v) = 0, span a sublattice of the index
        # of the cosets the windows list, and in x = k' U + n' V the cone is
        # lo < n' / k' < hi, with its plus sector at sign(k') = side; the
        # curvature least = min(A - C lo^2, A - C hi^2) is then the least
        # Q(x) / k'^2 over the closed cone, as Q = A k'^2 - C n'^2
        for combo in itertools.combinations(SLOPE_POOL, 4):
            for slopes in itertools.permutations(combo):
                cfg = build_quad_config(slopes)
                if cfg.plus_signs is None:
                    assert cfg.basis is None and cfg.windows is None
                    continue
                q2, q3 = ideal_of(slopes[1]), ideal_of(slopes[2])
                U, V = (embed(slopes, a * q2, b * q3) for a, b in cfg.basis)
                assert contains(slopes, U, plus=True) and contains(slopes, V, plus=True)
                A, C = Q(slopes, U), -Q(slopes, V)
                assert A > 0 and C > 0
                assert Q(slopes, tuple(x + y for x, y in zip(U, V))) == A - C  # B(U, V) = 0
                _, _, cosets, (A_f, C_f, side, least, *_), ends, *_ = cfg.windows
                index = len(cosets)
                assert abs(U[1] * V[2] - U[2] * V[1]) == index * len(cfg.coset_reps) * q2 * q3
                lines = sorted({-x / y for x, y in zip(U, V) if y})
                inside = [(a, b) for a, b in zip(lines, lines[1:])
                          if all(p > 0 for p in cone_products(slopes, tuple(
                              x + (a + b) / 2 * y for x, y in zip(U, V))))]
                assert len(inside) == 1, slopes
                lo, hi = inside[0]
                lo_f, hi_f = ends.ravel().tolist()
                assert (A_f, C_f, lo_f, hi_f) == tuple(map(float, (A, C, lo, hi)))
                assert least == float(min(A - C * lo * lo, A - C * hi * hi)) > 0
                mid = tuple(side * (x + (lo + hi) / 2 * y) for x, y in zip(U, V))
                assert [p > 0 for p in mid] == [s > 0 for s in cfg.plus_signs]

    def test_printed_sign_table_2345(self):
        # sub-quadruple (2345) of the slope order l3 < l1 < l4 < l2 < l5:
        # plus component has n2 > 0, n3 > 0, n4 < 0, n5 > 0
        slopes = (F(2), F(-1), F(1), F(3))
        cfg = build_quad_config(slopes)
        assert cfg.plus_signs == (1, 1, -1, 1)
        x = point_with_signs(slopes, cfg.plus_signs)
        assert [v > 0 for v in x] == [True, True, False, True]
        assert all(p > 0 for p in cone_products(slopes, x))

    def test_two_inequalities_redundant(self):
        # some pair of the four defining products already decides membership
        rng = random.Random(3)
        for slopes in [(F(2), F(-1), F(1), F(3)), (F(0), F(2), F(-1), F(1))]:
            samples = []
            for _ in range(200):
                x = embed(
                    slopes, F(rng.randint(-30, 30), 7), F(rng.randint(-30, 30), 7)
                )
                if x == (0, 0, 0, 0):
                    continue
                prods = cone_products(slopes, x)
                if any(p == 0 for p in prods):
                    continue
                samples.append((all(p > 0 for p in prods), prods))
            assert any(inside for inside, _ in samples)
            pairs = itertools.combinations(range(4), 2)
            assert any(
                all(
                    inside == (prods[i] > 0 and prods[j] > 0)
                    for inside, prods in samples
                )
                for i, j in pairs
            )


class TestShiftVector:
    def test_zero(self):
        assert shift_vector([0, 0, 0, 0], build_quad_config(SLOPES_0123).gaps) == (
            0, 0, 0, 0,
        )

    def test_linear_relations(self):
        # exact for Fraction shifts and the exact slope differences
        gaps = [[b - a for b in SLOPES_0123] for a in SLOPES_0123]
        v = shift_vector([F(0), F(1), F(0), F(1)], gaps)
        assert sum(v) == 0
        assert sum(l * c for l, c in zip(SLOPES_0123, v)) == 0

    def test_float_input(self):
        v = shift_vector([0.1, -0.2, 0.3, 0.05], build_quad_config(SLOPES_0123).gaps)
        assert abs(sum(v)) < 1e-12


class TestIntersectionPoint:
    def test_basic(self):
        li = LineOnTorus(F(0), 0.0)
        lj = LineOnTorus(F(1), 0.5)
        x, t = intersection_point(li, lj)
        assert abs(x - 0.5) < 1e-12 and abs(t) < 1e-12

    def test_label_relabeling_relation(self):
        li = LineOnTorus(F(1, 2), 0.3)
        lj = LineOnTorus(F(2), -0.1)
        for a in (-2, 0, 1):
            for b in (-1, 0, 2):
                p = intersection_point(li, lj, a, b)
                shifted = LineOnTorus(F(1, 2), 0.3 - float(a * F(1, 2)) - b)
                q = intersection_point(shifted, lj)
                assert all(
                    abs((u - v + 0.5) % 1.0 - 0.5) < 1e-9 for u, v in zip(p, q)
                )

    def test_point_count_slopes_0_2(self):
        li = LineOnTorus(F(0), 0.17)
        lj = LineOnTorus(F(2), -0.3)
        pts = set()
        for a in range(-4, 5):
            for b in range(-4, 5):
                x, t = intersection_point(li, lj, a, b)
                pts.add((round(x, 9) % 1.0, round(t, 9) % 1.0))
        assert len(pts) == 2

    @staticmethod
    def float_formula(line_i, line_j, a=0, b=0):
        """The float formulas intersection_point used before it called
        lattice._yij and _yij_prime, kept as a reference."""
        li, lj = line_i.slope, line_j.slope
        yi, yj = line_i.shift_y, line_j.shift_y
        d = float(lj - li)
        shift = (float(a * lj) + b) / d
        x = (yj - yi) / d + shift
        t = (float(li) * yj - float(lj) * yi) / d + shift * float(li)
        return (x % 1.0, t % 1.0)

    def test_bit_identical_to_float_formula(self):
        # the m3 quadruples of test_fukaya, and the slope quadruples of the
        # compose benchmark with seeded shifts
        quadruples = [[LineOnTorus(*c) for c in case] for case in test_fukaya.TestM3Generic.CASES]
        rng = random.Random(4)
        for slopes in COMPOSE_SLOPES:
            quadruples.append([LineOnTorus(F(s), rng.uniform(-0.4, 0.4), rng.random())
                               for s in slopes])
        checked = 0
        for lines in quadruples:
            for li, lj in itertools.permutations(lines, 2):
                for a, b in itertools.product(range(-2, 3), repeat=2):
                    assert intersection_point(li, lj, a, b) == self.float_formula(li, lj, a, b)
                    checked += 1
        assert checked == 16 * 12 * 25

    def test_equal_slopes_rejected(self):
        with pytest.raises(DomainError):
            intersection_point(LineOnTorus(F(1), 0.0), LineOnTorus(F(1), 0.5))


class TestLineOnTorus:
    @pytest.mark.parametrize("shift_y, beta", [(float("nan"), 0.0), (float("inf"), 0.0),
                                               (0.1, float("nan")), (0.1, -float("inf"))])
    def test_non_finite_shift_or_monodromy_raises(self, shift_y, beta):
        # polygon_oracle returned an empty result for such lines, and
        # intersection_point (nan, nan)
        with pytest.raises(DomainError, match="must be finite"):
            LineOnTorus(F(1), shift_y, beta)


small_slopes = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5))
offsets = st.integers(-60, 60)
shifts = st.floats(-0.5, 0.5)


class TestPointLabel:
    @settings(max_examples=300)
    @given(small_slopes, small_slopes, offsets, offsets, offsets, offsets,
           st.one_of(st.none(), st.integers(-3, 3)), shifts, shifts)
    def test_one_label_per_point(self, first, last, a, b, c, d, m, y_first, y_last):
        assume(first != last)
        if m is not None:
            # the offset moved by m q_first (l_last - l_first), the same point
            p, q = first.as_integer_ratio()
            c, d = a + m * q, b - m * p
        li, lj = LineOnTorus(first, y_first), LineOnTorus(last, y_last)
        label = point_label(first, last, a, b)
        assert 0 <= label[0] < last.denominator
        point = intersection_point(li, lj, a, b)
        assert test_fukaya._close_mod1(intersection_point(li, lj, *label), point)
        same = test_fukaya._close_mod1(intersection_point(li, lj, c, d), point)
        assert (point_label(first, last, c, d) == label) == same

    def test_integer_slopes(self):
        assert [point_label(F(0), F(3), a, b) for a, b in ((0, 0), (0, 4), (1, -1), (-2, 5))] == [
            (0, 0), (0, 1), (0, 2), (0, 2)]
        assert point_label(F(2), F(-1), 0, 7) == (0, 1)

    def test_equal_slopes_rejected(self):
        with pytest.raises(DomainError):
            point_label(F(1, 2), F(1, 2), 0, 1)


class TestHomDegree:
    def test_examples(self):
        assert hom_degree(F(0), F(1)) == 0
        assert hom_degree(F(1), F(0)) == 1
        with pytest.raises(DomainError):
            hom_degree(F(1), F(1))

    def test_degree_condition_0123(self):
        slopes = [F(0), F(1), F(2), F(3)]
        degs = sum(hom_degree(slopes[i], slopes[i + 1]) for i in range(3))
        assert degs != hom_degree(slopes[0], slopes[3]) + 1


#: five-term slopes (l1..l5) in the certified order l3 < l1 < l4 < l2 < l5
FIVE_TERM_SLOPES = ((0, 2, -1, 1, 3), (F(1, 2), 3, F(-1, 3), 1, F(7, 2)))
#: (slopes, plus_signs) of each compose quadruple with a non-empty cone, with
#: the pattern left out, and of each five-term row, with the row's pattern
CACHED_CONFIGS = [(tuple(F(s) for s in q), None) for q in COMPOSE_SLOPES
                  if degree_condition([F(s) for s in q])] + [
    (tuple(F(five[i - 1]) for i in row[0]), row[2])
    for five in FIVE_TERM_SLOPES for row in FIVE_TERM_ROWS
]
#: the float data of two compose quadruples, as the Fraction set-up gave them
PINNED_FLOATS = {
    (0, 2, -1, 1): (
        ((0.0, 2.0, -1.0, 1.0), (1.0, -2.0, 3.0, -2.0), (1.0, 1.0, 0.0, -2.0),
         (-2.0, 0.0, 1.0, 1.0)),
        ((0.0, 2.0, -1.0, 1.0), (-2.0, 0.0, -3.0, -1.0), (1.0, 3.0, 0.0, 2.0),
         (-1.0, 1.0, -2.0, 0.0)),
        (((0.0, 0.0, 0.0, 0.0), (0, 0)),),
    ),
    (F(1, 2), 2, F(1, 3), F(3, 2)): (
        ((0.5, 2.0, 0.3333333333333333, 1.5), (1.0, -1.5, 1.6666666666666667, -1.1666666666666667),
         (2.0, 4.0, 0.0, -6.0), (-2.0, 3.0, 3.0, -4.0)),
        ((0.0, 1.5, -0.16666666666666666, 1.0), (-1.5, 0.0, -1.6666666666666667, -0.5),
         (0.16666666666666666, 1.6666666666666667, 0.0, 1.1666666666666667),
         (-1.0, 0.5, -1.1666666666666667, 0.0)),
        (((0.0, 0.0, 0.0, 0.0), (0, 0)), ((0.5, 1.0, 0.0, -1.5), (1, -1)),
         ((1.0, 2.0, 0.0, -3.0), (0, 1)), ((1.5, 3.0, 0.0, -4.5), (1, 0))),
    ),
}


def _all_tuples(x):
    """x is immutable all through: tuples, numbers and read-only arrays."""
    if isinstance(x, np.ndarray):
        return not x.flags.writeable
    return not isinstance(x, (list, dict, set)) and (
        not isinstance(x, tuple) or all(_all_tuples(v) for v in x))


def _same(x, y):
    """x == y all through, arrays by dtype, shape and bits."""
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and (x.dtype, x.shape) == (y.dtype, y.shape)
                and x.tobytes() == y.tobytes())
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    return x == y


class TestConfigCache:
    def test_int_list_and_fraction_tuple_share_one_config(self):
        a = build_quad_config([0, 2, -1, 1])
        assert build_quad_config((F(0), F(2), F(-1), F(1))) is a

    @pytest.mark.parametrize("slopes, signs", CACHED_CONFIGS)
    def test_cached_fields_equal_a_fresh_config(self, slopes, signs):
        cached = build_quad_config(slopes)
        fresh = lattice._quad_config.__wrapped__(tuple(s.as_integer_ratio() for s in slopes))
        assert cached.plus_signs is not None and signs in (None, cached.plus_signs)
        assert _same(cached, fresh)
        for name in cached._fields:
            assert _all_tuples(getattr(cached, name)), name

    @pytest.mark.parametrize("slopes", PINNED_FLOATS)
    def test_floats_are_pinned(self, slopes):
        # repr tells -0.0 from 0.0
        cfg = build_quad_config(slopes)
        assert repr((cfg.float_data, cfg.gaps, cfg.float_cosets)) == repr(PINNED_FLOATS[slopes])

    def test_results_unchanged_after_cache_clear(self):
        tau = Modulus(1j)
        quad = [LineOnTorus(*c) for c in test_fukaya.TestM3Generic.CASES[3]]
        triple = [LineOnTorus(F(-1, 2), 0.15, 0.21), LineOnTorus(F(1, 3), -0.42, 0.64),
                  LineOnTorus(F(2), 0.33, 0.05)]
        y = [0.241095, 0.180568, -0.0556, -0.168758, 0.007892]

        def results():
            m3 = fukaya.m3_generic(quad, tau)
            m2 = fukaya.m2_generic(triple, tau)
            return (m3.prefactor, m3.coefficients, m2.prefactor, m2.coefficients,
                    five_term_values(FIVE_TERM_SLOPES[0], y, tau))

        before = results()
        for cached in (lattice._quad_config, lattice._triple_config, _five_term_plan):
            cached.cache_clear()
        assert results() == before

    def test_float_gaps_match_the_fraction_formula(self):
        # float / Fraction divides by the float of the exact difference, so
        # the config's gaps reproduce the Fraction formula bit for bit, and
        # its slopes and cone coefficients are the floats of the exact ones
        rng = random.Random(8)
        for slopes, _ in CACHED_CONFIGS:
            cfg = build_quad_config(slopes)
            y = [rng.uniform(-0.5, 0.5) for _ in range(4)]
            for i, j in itertools.permutations(range(4), 2):
                li, lj = slopes[i], slopes[j]
                assert (y[j] - y[i]) / cfg.gaps[i][j] == (y[j] - y[i]) / (lj - li)
            assert cfg.float_data[:2] == (tuple(map(float, slopes)), tuple(
                float(slopes[i - 1] - slopes[i]) for i in range(4)))
