import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from klab.core import (
    BoundaryProximity,
    DomainError,
    EvalError,
    GUARD,
    Modulus,
    PoleProximity,
    TWO_PI_I,
    e_of,
)
from klab import fukaya
from klab.appell import g_series, kappa
from klab.fukaya import (
    CompositionResult,
    F_series,
    _same_torus_point,
    m2_generic,
    m3_generic,
    polygon_oracle,
    _lift_offsets,
)
from klab.kronecker import f_closed, f_series
from klab.lattice import (
    LineOnTorus,
    build_quad_config,
    hom_degree,
    intersection_point,
)
from klab.theta import theta

from cone_reference import F_reference, in_cone
from five_term_reference import theta_slope_coefficient
from lattice_reference import ideal_of

F = Fraction


def raw_square_sum(a1, a2, b1, b2, tau, radius=40):
    """Direct rectangle-area sum: sign(M) e(tau M N + N b1 + M b2) over the
    cone M*N > 0, M = m + a1, N = n + a2."""
    t = tau.tau
    total = 0.0j
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            M, N = m + a1, n + a2
            if M * N <= 0:
                continue
            total += math.copysign(1, M) * e_of(t * M * N + N * b1 + M * b2)
    return total


def raw_trapezoid_sum(a1, a2, b1, b2, tau, radius=40):
    """Direct trapezoid-area sum: sign(M) e(tau (M N + M^2/2) + M b1 +
    (M + N) b2) over M*N > 0, M = m + a2, N = n + a1."""
    t = tau.tau
    total = 0.0j
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            M, N = m + a2, n + a1
            if M * N <= 0:
                continue
            total += math.copysign(1, M) * e_of(
                t * (M * N + M * M / 2) + M * b1 + (M + N) * b2
            )
    return total


def _close_mod1(p, q, tol=1e-9):
    return all(abs((a - b + 0.5) % 1.0 - 0.5) < tol for a, b in zip(p, q))


def triangle_oracle(lines, tau, radius=10, tol=1e-14):
    """Binary composition by direct triangle enumeration in the plane.

    The two input morphisms pin the first two vertices to the standard
    intersection points mod Z^2; output vertices on the first line are scanned
    over one fundamental period.  Weights are e(tau * area + holonomy);
    contributing triangles are the clockwise ones.
    """
    t = tau.tau
    lam = [float(ln.slope) for ln in lines]
    y = [ln.shift_y for ln in lines]
    beta = [ln.monodromy_beta for ln in lines]
    q1 = ideal_of(lines[0].slope)

    def meet(i, ci, j, cj):
        x = ((y[i] + ci) - (y[j] + cj)) / (lam[i] - lam[j])
        return (x, lam[i] * x - y[i] - ci)

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    e12 = intersection_point(lines[0], lines[1])
    e23 = intersection_point(lines[1], lines[2])
    bins = {}
    for c2, _ in _lift_offsets(lines[1].slope, radius):
        p12 = meet(0, 0.0, 1, c2)
        if not _close_mod1(p12, e12):
            continue
        for c3, _ in _lift_offsets(lines[2].slope, radius):
            p23 = meet(1, c2, 2, c3)
            if not _close_mod1(p23, e23):
                continue
            p31 = meet(2, c3, 0, 0.0)
            if not (0.0 <= p31[0] < q1):
                continue
            twice_area = (
                cross(p31, p12) + cross(p12, p23) + cross(p23, p31)
            )
            if twice_area > GUARD:  # keep clockwise (and degenerate) only
                continue
            area = abs(twice_area) / 2
            runs = ((p31, p12), (p12, p23), (p23, p31))
            hol = sum(
                beta[k] * (runs[k][0][0] - runs[k][1][0]) for k in range(3)
            )
            w = e_of(t * area + hol)
            key = (round(p31[0] % 1.0, 6) % 1.0, round(p31[1] % 1.0, 6) % 1.0)
            bins[key] = bins.get(key, 0.0) + w
    return {k: v for k, v in bins.items() if abs(v) > tol}


def max_pointwise_diff(by_point, oracle_map, tol=1e-5):
    """Largest coefficient difference over the points of both maps.  Each
    point is matched to the nearest point of the other map within tol on the
    torus (triangle_oracle rounds its points to 6 digits); a point with no
    match counts its whole value."""
    def gap(p, q):
        return max(abs((a - b + 0.5) % 1.0 - 0.5) for a, b in zip(p, q))

    diff = 0.0
    for mine, theirs in ((by_point, oracle_map), (oracle_map, by_point)):
        for k, v in mine.items():
            best = min(theirs, key=lambda kk: gap(kk, k), default=None)
            other = theirs[best] if best is not None and gap(best, k) < tol else 0.0
            diff = max(diff, abs(v - other))
    return diff


def _lifted(line: LineOnTorus, a: int, b: int) -> LineOnTorus:
    """The same torus line, with its lift by the offset a * slope + b as the
    base lift: the plane translated by the integer vector (a, -b)."""
    return LineOnTorus(line.slope, line.shift_y + float(a * line.slope + b),
                       line.monodromy_beta)


def composition_by_point(
    result: CompositionResult,
    line_first: LineOnTorus,
    line_last: LineOnTorus,
) -> dict:
    """Total coefficient values by geometric intersection point.

    Collapses label aliasing: labels naming points within 1e-9 of each other
    on the torus are merged by summation, under the first one's point.
    """
    out: dict = {}
    for (a, b), value in result.coefficients.items():
        _add_at_point(out, intersection_point(line_first, line_last, a, b), value)
    return out


def _add_at_point(by_point: dict, point: tuple, value: complex) -> None:
    """Add value at the key of ``by_point`` within 1e-9 of point on the torus,
    or at point itself when there is none."""
    key = next((k for k in by_point if _same_torus_point(k, point)), point)
    by_point[key] = by_point.get(key, 0.0) + value


def _point_gap(first: dict, second: dict) -> float:
    """Largest difference of two by-point maps, with points matched within
    1e-9 on the torus; a point on one side only counts its whole value."""
    diff = dict(first)
    for point, value in second.items():
        _add_at_point(diff, point, -value)
    return max((abs(v) for v in diff.values()), default=0.0)


def m3_square(a1, a2, b1, b2, tau):
    """The square triple composition: a prefactor times f_series."""
    t = tau.tau
    pre = e_of(t * a1 * a2 + a1 * b2 + a2 * b1)
    return pre * f_series(a1 * t + b1, a2 * t + b2, tau)


def m3_trapezoid(a1, a2, b1, b2, tau):
    """The trapezoid triple composition: a prefactor times g_series."""
    t = tau.tau
    pre = e_of((a1 + a2 / 2) * a2 * t + a2 * b1 + (a1 + a2) * b2)
    return pre * g_series(a1 * t + b1, a2 * t + b2, tau)


class TestM3Square:
    def test_raw_double_sum(self, tau_i):
        for a1, a2, b1, b2 in [(0.3, 0.4, 0.1, 0.2), (0.62, 0.17, 0.8, 0.05)]:
            got = m3_square(a1, a2, b1, b2, tau_i)
            want = raw_square_sum(a1, a2, b1, b2, tau_i)
            assert abs(got - want) < 1e-10

    def test_beta_shift_covariance(self, tau_i):
        a1, a2, b1, b2 = 0.3, 0.4, 0.1, 0.2
        base = m3_square(a1, a2, b1, b2, tau_i)
        shifted = m3_square(a1, a2, b1, b2 + 1, tau_i)
        assert abs(shifted - e_of(a1) * base) < 1e-10

    def test_closed_form(self, tau_i):
        a1, a2, b1, b2 = 0.3, 0.4, 0.1, 0.2
        t = tau_i.tau
        pre = e_of(t * a1 * a2 + a1 * b2 + a2 * b1)
        want = pre * f_closed(a1 * t + b1, a2 * t + b2, tau_i)
        assert abs(m3_square(a1, a2, b1, b2, tau_i) - want) < 1e-9

    def test_integer_alpha_guard(self, tau_i):
        with pytest.raises(PoleProximity):
            m3_square(1.0, 0.4, 0.1, 0.2, tau_i)


class TestM3Trapezoid:
    def test_raw_double_sum(self, tau_i):
        for a1, a2, b1, b2 in [(0.3, 0.4, 0.1, 0.2), (0.57, 0.23, 0.4, 0.9)]:
            got = m3_trapezoid(a1, a2, b1, b2, tau_i)
            want = raw_trapezoid_sum(a1, a2, b1, b2, tau_i)
            assert abs(got - want) < 1e-10

    def test_kappa_relation(self, tau_i):
        # for 0 < alpha1 < 1 the trapezoid series is the one-sided kappa form
        a1, a2, b1, b2 = 0.3, 0.4, 0.1, 0.2
        t = tau_i.tau
        z1, z2 = a1 * t + b1, a2 * t + b2
        pre = e_of((a1 + a2 / 2) * a2 * t + a2 * b1 + (a1 + a2) * b2)
        want = pre * kappa(z2, t - z1 - z2, tau_i)
        assert abs(m3_trapezoid(a1, a2, b1, b2, tau_i) - want) < 1e-9


class TestM2Generic:
    def test_slopes_012_cosets(self, tau_i):
        lines = [
            LineOnTorus(F(0), 0.0),
            LineOnTorus(F(1), 0.0),
            LineOnTorus(F(2), 0.0),
        ]
        res = m2_generic(lines, tau_i)
        assert len(res.coefficients) == 2
        t = tau_i.tau
        # Gaussian coefficient tau/4: coset sums over even / odd integers
        direct = {}
        for n0 in (0, 1):
            direct[n0] = sum(
                e_of(t * (n0 + 2 * k) ** 2 / 4) for k in range(-30, 31)
            )
        vals = sorted(abs(v) for v in res.coefficients.values())
        want = sorted(abs(v) for v in direct.values())
        assert all(abs(a - b) < 1e-12 for a, b in zip(vals, want))

    def test_degree_failure_zero(self, tau_i):
        lines = [
            LineOnTorus(F(0), 0.1),
            LineOnTorus(F(2), 0.2),
            LineOnTorus(F(1), 0.3),
        ]
        res = m2_generic(lines, tau_i)
        assert res.is_zero

    def test_degree_condition_read_off_the_triple(self, tau_i, monkeypatch):
        # every ordering of three slopes: zero exactly when the degree
        # condition fails, which the cached triple record holds, so no call
        # compares Fractions
        for slopes in itertools.permutations((F(-1), F(1, 2), F(3))):
            lines = [LineOnTorus(s, 0.1 * i) for i, s in enumerate(slopes)]
            holds = (hom_degree(*slopes[:2]) + hom_degree(*slopes[1:])
                     == hom_degree(slopes[0], slopes[2]))
            with monkeypatch.context() as patch:
                patch.setattr(fukaya, "hom_degree", None)
                assert m2_generic(lines, tau_i).is_zero != holds

    def test_coefficient_count_matches_intersections(self, tau_i):
        lines = [
            LineOnTorus(F(0), 0.17),
            LineOnTorus(F(1), 0.42),
            LineOnTorus(F(2), -0.3),
        ]
        assert len(m2_generic(lines, tau_i).coefficients) == 2

    @pytest.mark.parametrize(
        "case",
        [
            [(F(0), 0.15, 0.3), (F(1), 0.42, 0.1), (F(2), -0.23, 0.7)],
            [(F(-1, 2), 0.15, 0.21), (F(1, 3), -0.42, 0.64), (F(2), 0.33, 0.05)],
            [(F(0), 0.11, 0.5), (F(1, 2), 0.27, 0.13), (F(3), -0.08, 0.77)],
            [(F(0), 0.22, 0.0), (F(1), -0.13, 0.0), (F(3), 0.31, 0.0)],
            [(F(-1), 0.08, 0.4), (F(1), 0.29, 0.9), (F(2), -0.14, 0.2)],
        ],
    )
    def test_triangle_oracle(self, case):
        tau = Modulus(0.8j)
        lines = [LineOnTorus(*c) for c in case]
        res = m2_generic(lines, tau)
        by_point = composition_by_point(res, lines[0], lines[2])
        oracle = triangle_oracle(lines, tau)
        assert len(by_point) == len(oracle)
        assert max_pointwise_diff(by_point, oracle) < 1e-9

    @pytest.mark.parametrize("slopes, y", [
        ((F(-5, 2), F(-2), F(1, 4)), (-0.35, 0.12, 0.26)),
        ((F(-1, 4), F(4, 3), F(3, 2)), (-0.15, 0.37, -0.06)),
        ((F(-3, 4), F(-2, 3), F(1, 2)), (-0.24, 0.14, 0.24)),
    ])
    def test_fractional_slopes_by_point(self, slopes, y, tau_i):
        # coset n0's output point is where the lift -n0 l3 + n0 l2 of the third
        # line meets the first; the lifts n0 (l2 - l1) + u (l3 - l1), u + n0
        # not a multiple of q1, meet it at other points, and here some of
        # them are also lifts of the third line
        lines = [LineOnTorus(s, yi) for s, yi in zip(slopes, y)]
        by_point = composition_by_point(m2_generic(lines, tau_i), lines[0], lines[2])
        oracle = triangle_oracle(lines, tau_i, radius=14)
        scale = max(abs(v) for v in oracle.values())
        assert max_pointwise_diff(by_point, oracle) <= 1e-12 * scale

    def test_underflowing_coset_is_a_domain_error(self, tau_i):
        # c = 170/13 and triple ideal 13: every term of one coset rounds to 0
        # (its largest is about e^-1700), which no truncation radius mends
        lines = [LineOnTorus(F(-2, 3), 0.2589, 0.2694), LineOnTorus(F(5), 0.0758, 0.9202),
                 LineOnTorus(F(-5), -0.0899, 0.7881)]
        with pytest.raises(DomainError, match="normal float range"):
            m2_generic(lines, tau_i)

    def test_relabel_invariance(self, tau_i):
        lines = [
            LineOnTorus(F(0), 0.22),
            LineOnTorus(F(1), -0.13),
            LineOnTorus(F(3), 0.31),
        ]
        base = composition_by_point(m2_generic(lines, tau_i), lines[0], lines[2])
        shifted_first = LineOnTorus(F(0), 0.22 - 1.0)  # y1 -> y1 + b, b = -1
        moved = [shifted_first, lines[1], lines[2]]
        got = composition_by_point(m2_generic(moved, tau_i), moved[0], moved[2])
        assert len(base) == len(got)
        assert max_pointwise_diff(base, got) < 1e-9


class TestFSeries:
    @staticmethod
    def _setup(slopes=(F(2), F(-1), F(1), F(3)), ys=(0.28, 0.21, -0.06, -0.19)):
        cfg = build_quad_config(slopes)
        tau = Modulus(1j)
        z = [tau.tau * y for y in ys]
        return cfg, z, tau

    def test_antipodal_oddness(self):
        cfg, z, tau = self._setup()
        rep = cfg.float_cosets[0][0]
        plus = F_series(cfg, [rep], z, tau)[0]
        neg_rep = tuple(-v for v in rep)
        minus = F_series(cfg, [neg_rep], [-zi for zi in z], tau)[0]
        assert abs(plus) > 1e-9  # non-trivial sample
        assert abs(plus + minus) < 1e-12

    def test_reduced_variable_invariance(self):
        cfg, z, tau = self._setup()
        rep = cfg.float_cosets[0][0]
        base = F_series(cfg, [rep], z, tau)[0]
        a, b = 0.37, -0.81
        moved = [zi + a + b * l for zi, l in zip(z, cfg.float_data[0])]
        assert abs(F_series(cfg, [rep], moved, tau)[0] - base) < 1e-10

    def test_one_trace_per_shift(self):
        # five cosets summed over one box, each with its own certificate
        cfg = build_quad_config((F(-1), F(-1, 2), F(3), F(2, 3)))
        tau = Modulus(0.2 + 0.8j)
        z = [tau.tau * y + b for y, b in ((0.12, 0.3), (-0.21, 0.7), (0.05, 0.1), (0.33, 0.9))]
        reps = [rep for rep, _ in cfg.float_cosets]
        traces = []
        values = F_series(cfg, reps, z, tau, trace=traces)
        assert len(reps) == len(values) == len(traces) == 5
        assert len({(t.radius, t.terms) for t in traces}) == 1
        assert len({t.ring for t in traces}) == len(traces)
        assert all(0 < t.ring < 1e-12 and t.terms_in_cone > 0 for t in traces)
        alone = [F_series(cfg, [rep], z, tau)[0] for rep in reps]
        assert all(abs(v - a) <= 1e-14 * abs(a) for v, a in zip(values, alone))


#: compose's slope quadruples: 1 to 5 cosets, and two whose degree condition fails
COMPOSE_SLOPES = (
    (0, 2, -1, 1), (F(1, 2), 2, -1, 1), (0, F(5, 2), F(-2, 3), 1),
    (0, 1, -1, 2), (0, F(3, 2), F(1, 2), 2), (1, F(3, 2), F(2, 3), F(-1, 2)),
    (F(-1, 2), 1, F(-3, 2), F(1, 2)), (F(1, 2), 2, F(1, 3), F(3, 2)),
    (-1, F(-1, 2), 3, F(2, 3)), (0, 1, 2, 3), (-1, F(1, 2), 2, F(5, 2)),
)


class TestM3Generic:
    CASES = [
        [(F(0), 0.11, 0.0), (F(2), 0.23, 0.0), (F(-1), -0.31, 0.0), (F(1), 0.07, 0.0)],
        [(F(1), 0.05, 0.0), (F(3), -0.21, 0.0), (F(0), 0.33, 0.0), (F(2), 0.12, 0.0)],
        [(F(0), 0.11, 0.3), (F(2), 0.23, 0.8), (F(3), -0.31, 0.1), (F(1), 0.07, 0.5)],
        [(F(1, 2), 0.14, 0.0), (F(2), 0.31, 0.0), (F(-1), -0.22, 0.0), (F(1), 0.09, 0.0)],
        [(F(0), 0.13, 0.0), (F(-1), 0.27, 0.0), (F(1), -0.08, 0.0), (F(3), 0.21, 0.0)],
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_polygon_oracle_agreement(self, case, tau_i):
        lines = [LineOnTorus(*c) for c in case]
        res = m3_generic(lines, tau_i)
        oracle = polygon_oracle(lines, tau_i, radius=5)
        assert not res.is_zero and not oracle.is_zero
        sp = composition_by_point(res, lines[0], lines[3])
        op = composition_by_point(oracle, lines[0], lines[3])
        assert len(sp) == len(op)
        assert max_pointwise_diff(sp, op) < 1e-9

    def test_degree_failure_zero(self, tau_i):
        lines = [LineOnTorus(F(s), 0.1 * s) for s in (0, 1, 2, 3)]
        assert m3_generic(lines, tau_i).is_zero
        assert polygon_oracle(lines, tau_i).is_zero

    def test_leading_exponent(self):
        # at large Im tau the dominant quadrangle area controls log|coef|
        lines = [LineOnTorus(*c) for c in self.CASES[0]]

        def lead_area(obj, tau):
            vals = composition_by_point(obj, lines[0], lines[3])
            top = max(abs(v) for v in vals.values())
            return -math.log(top) / (2 * math.pi * tau.tau.imag)

        for make in (m3_generic, lambda ln, tu: polygon_oracle(ln, tu, 4)):
            a3 = lead_area(make(lines, Modulus(1.5j)), Modulus(1.5j))
            a4 = lead_area(make(lines, Modulus(2j)), Modulus(2j))
            assert abs(a3 - a4) < 5e-3
        s4 = lead_area(m3_generic(lines, Modulus(2j)), Modulus(2j))
        o4 = lead_area(polygon_oracle(lines, Modulus(2j), 4), Modulus(2j))
        assert abs(s4 - o4) < 1e-6

    def test_calibrated_sign_is_plus(self, tau_i):
        # the series and the oracle agree in sign at the largest coefficient
        lines = [LineOnTorus(*c) for c in self.CASES[0]]
        sp = composition_by_point(m3_generic(lines, tau_i), lines[0], lines[3])
        op = composition_by_point(polygon_oracle(lines, tau_i, 4), lines[0], lines[3])
        k = max(sp, key=lambda kk: abs(sp[kk]))
        match = [kk for kk in op if _close_mod1(kk, k)]
        assert len(match) == 1
        assert (op[match[0]] / sp[k]).real > 0

    def test_repeated_slopes_rejected(self, tau_i):
        lines = [LineOnTorus(F(s), 0.0) for s in (0, 1, 1, 2)]
        with pytest.raises(DomainError):
            m3_generic(lines, tau_i)

    @pytest.mark.parametrize("slopes", COMPOSE_SLOPES)
    def test_equals_single_shift_sums(self, slopes):
        # the batched cosets against one F_series call per coset
        rng = random.Random(str(slopes))
        cfg = build_quad_config([F(s) for s in slopes])
        for im in (0.3, 0.8, 2.0):
            tau = Modulus(complex(rng.uniform(-0.5, 0.5), im))
            lines = [LineOnTorus(F(s), rng.uniform(-0.4, 0.4), rng.random()) for s in slopes]
            got = m3_generic(lines, tau).coefficients
            if cfg.plus_signs is None:
                assert got == {}
                continue
            z = [tau.tau * ln.shift_y + ln.monodromy_beta for ln in lines]
            want = {}
            for rep, label in cfg.float_cosets:
                want[label] = want.get(label, 0.0) + F_series(cfg, [rep], z, tau)[0]
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= 1e-14 * abs(want[k]) for k in want)


#: the compose quadruples and one with a narrow cone
CANDIDATE_SLOPES = COMPOSE_SLOPES + ((1, 3, 0, 2),)
#: offsets of an apex from a point on a boundary line of the cone, along a
#: direction off the line: on it, or within the guard band of it
EDGE_OFFSETS = (0.0, 1e-11, -1e-11, 3e-12)


def boundary_points(cfg):
    """A point of sup-norm 1 on each boundary line w_i = 0 of the cone, with
    a direction off the line of sup-norm 1."""
    _, c, b1, b2 = map(np.array, cfg.float_data)
    for i in range(4):
        point = -b2[i] * b1 + b1[i] * b2
        point /= np.abs(point).max()
        off = b1 if abs(b1[i]) >= abs(b2[i]) else b2
        off = off / np.abs(off).max()
        if in_cone(c, point + 1e-3 * off) or in_cone(c, point - 1e-3 * off):
            yield point, off


class TestFullBoxReference:
    # the same draws on every run: where the largest term is near e^-280, a
    # few ulps of its exponent are 1e-13 of it, and over 9,600 draws F came
    # within 9.7e-14 of the extended-precision reference
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(slopes=st.sampled_from(CANDIDATE_SLOPES), data=st.data())
    def test_F_series_equals_its_full_box_reference(self, slopes, data):
        # each coset's window series against the plain box sum of its terms:
        # within 1e-13 of the largest term, or the same error kind
        cfg = build_quad_config([F(s) for s in slopes])
        assume(cfg.plus_signs is not None)
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        tau = Modulus(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.15, 3.0)))
        z = [tau.tau * rng.uniform(-3, 3) + rng.random() for _ in range(4)]
        for rep, _ in cfg.float_cosets:
            try:
                want, largest = F_reference(slopes, cfg, rep, z, tau)
            except EvalError as ex:
                with pytest.raises(EvalError) as raised:
                    F_series(cfg, [rep], z, tau)
                assert raised.value.kind == ex.kind
                continue
            assert abs(F_series(cfg, [rep], z, tau)[0] - want) <= 1e-13 * largest

    @pytest.mark.parametrize("slopes", CANDIDATE_SLOPES)
    def test_edge_apexes_raise_on_both_sides(self, slopes):
        # an apex next to a point on a boundary line puts that point of the
        # shifted lattice on the line or within the guard band of it
        cfg = build_quad_config([F(s) for s in slopes])
        if cfg.plus_signs is None:
            return
        tau = Modulus(0.1 + 1j)
        z = [tau.tau * 0.1 + 0.3] * 4  # equal lines: the cone shift v is 0
        lines = list(boundary_points(cfg))
        assert len(lines) == 2
        for point, off in lines:
            for offset in EDGE_OFFSETS:
                shift = tuple(point + offset * off)
                with pytest.raises(BoundaryProximity):
                    F_series(cfg, [shift], z, tau)
                with pytest.raises(BoundaryProximity):
                    F_reference(slopes, cfg, shift, z, tau)


class TestFractionalQuadruples:
    #: 36 cosets, more series than one kernel group holds
    CROWDED = ((F(5, 3), 0.34, 0.25), (-4, 0.14, 0.44), (F(3, 2), -0.35, 0.02),
               (F(-7, 3), -0.37, 0.29))

    def test_a_crowded_batch_is_summed_in_groups(self):
        # each group hands F's record the rows of its own series
        lines = [LineOnTorus(*c) for c in self.CROWDED]
        with pytest.raises(DomainError, match="below the normal float range"):
            m3_generic(lines, Modulus(0.5j))
        for im, radius in ((0.3, 8), (0.2, 12)):
            tau = Modulus(complex(0, im))
            got = composition_by_point(m3_generic(lines, tau), lines[0], lines[3])
            want = composition_by_point(polygon_oracle(lines, tau, radius), lines[0], lines[3])
            assert len(got) == 36
            assert _point_gap(got, want) <= 1e-12 * max(map(abs, got.values()))

    def test_a_thin_cone_agrees_with_the_oracle(self):
        # in the sublattice's HNF basis this cone holds only the directions
        # a/b in (-0.46, -0.41): its points lie far from the apex
        lines = [LineOnTorus(F(s), y) for s, y in ((F(1, 2), 0.1), (F(-1, 3), 0.2), (1, -0.1),
                                                    (F(7, 2), 0.05))]
        tau = Modulus(1j)
        got = composition_by_point(m3_generic(lines, tau), lines[0], lines[3])
        want = composition_by_point(polygon_oracle(lines, tau, radius=14), lines[0], lines[3])
        assert _point_gap(got, want) <= 1e-12 * max(map(abs, got.values()))

    @settings(max_examples=100, deadline=None)
    @given(slopes=st.lists(st.builds(F, st.integers(-7, 7), st.integers(1, 3)), min_size=4,
                           max_size=4, unique=True),
           im=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 2**32))
    def test_m3_returns_or_raises_a_typed_error(self, slopes, im, seed):
        rng = random.Random(seed)
        tau = Modulus(complex(rng.uniform(-0.5, 0.5), im))
        lines = [LineOnTorus(s, rng.uniform(-0.4, 0.4), rng.random()) for s in slopes]
        try:
            m3_generic(lines, tau)
        except EvalError:
            pass


#: compositions with points, on integer and fractional slopes
NONZERO_COMPOSITIONS = [(m2_generic, slopes) for slopes in (
    (0, 1, 3), (-1, 1, 2), (F(-1, 2), F(1, 3), 2), (0, F(1, 2), 3),
)] + [(m3_generic, slopes) for slopes in (
    (0, 2, -1, 1), (1, 4, 0, 2), (F(1, 2), 2, -1, 1), (0, F(5, 2), F(-2, 3), 1),
    (1, F(3, 2), F(2, 3), F(-1, 2)),
)]


class TestCompositionRows:
    @pytest.mark.parametrize("compose, slopes", NONZERO_COMPOSITIONS)
    def test_rows_agree_with_one_call_per_row(self, compose, slopes):
        # one batch of every row's cosets; a row's series share the batch's
        # largest radius, so they agree with its own call to rounding
        rng = random.Random(str(slopes))
        tau = Modulus(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5)))
        sets = [[LineOnTorus(F(s), rng.uniform(-0.4, 0.4), rng.random()) for s in slopes]
                for _ in range(4)]
        z = list(np.array([[tau.tau * ln.shift_y + ln.monodromy_beta for ln in lines]
                           for lines in sets]).T)
        rows = fukaya.compositions(tuple(F(s) for s in slopes), z, tau)
        assert len(rows) == len(sets)
        for lines, got in zip(sets, rows):
            want = compose(lines, tau).coefficients
            assert got.keys() == want.keys()
            scale = max(map(abs, want.values()))
            assert max(abs(got[k] - want[k]) for k in want) <= 1e-13 * scale


class TestCosetBound:
    @pytest.mark.parametrize("compose, slopes", [(m2_generic, (0.1, 2, 3)),
                                                 (m3_generic, (0.1, 2, -1, 1))])
    def test_float_slope_is_refused_before_its_cosets_are_listed(self, compose, slopes, tau_i):
        # the slope 0.1 is the Fraction 3602879701896397 / 2^55, whose
        # tuples have about 1e17 cosets: more than one kernel box holds
        lines = [LineOnTorus(s, 0.1 * i) for i, s in enumerate(slopes)]
        with pytest.raises(DomainError, match="cosets, more than the 261121"):
            compose(lines, tau_i)


class TestWholeLiftMoves:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(NONZERO_COMPOSITIONS), data=st.data())
    def test_moving_a_suffix_keeps_the_composition(self, case, data):
        # lines[k:] moved by one lift offset a l + b whose label names the
        # standard crossing of lines[k - 1] and lines[k] are the same torus
        # lines with the same inputs, so the composition is the same by point
        compose, slopes = case
        k = data.draw(st.integers(1, len(slopes) - 1), label="k")
        (pi, qi), (pj, qj) = F(slopes[k - 1]).as_integer_ratio(), F(slopes[k]).as_integer_ratio()
        # with c = a l_k + b, the crossing moves by c / (l_k - l_(k-1)) (1, l_(k-1)),
        # here m (qi, pi): the labels m (qi, -pi) + r (qj, -pj) do that
        m = data.draw(st.integers(-50 // max(qi, abs(pi)), 50 // max(qi, abs(pi))), label="m")
        r = data.draw(st.integers(-50 // max(qj, abs(pj)), 50 // max(qj, abs(pj))), label="r")
        a, b = m * qi + r * qj, -m * pi - r * pj
        assume(max(abs(a), abs(b)) <= 50 and (a, b) != (0, 0))
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        tau = Modulus(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0)))
        lines = [LineOnTorus(F(s), rng.uniform(-0.4, 0.4), rng.random()) for s in slopes]
        moved = [*lines[:k], *(_lifted(ln, a, b) for ln in lines[k:])]
        assert _same_torus_point(intersection_point(lines[k - 1], lines[k], a, b),
                                 intersection_point(lines[k - 1], lines[k]))
        before = composition_by_point(compose(lines, tau), lines[0], lines[-1])
        after = composition_by_point(compose(moved, tau), moved[0], moved[-1])
        assert len(before) == len(after) > 0
        assert _point_gap(before, after) <= 1e-11 * max(abs(v) for v in before.values())


class TestThetaSlopeCoefficient:
    def test_degree_condition_required(self, tau_i):
        with pytest.raises(DomainError):
            theta_slope_coefficient(
                [F(0), F(2), F(1)], F(0), [0.0, 0.0, 0.0], tau_i
            )

    def test_trace(self, tau_i):
        traces = []
        args = ([F(-1), F(1, 2), F(3)], F(1), [0.1 + 0.2j, 0.3j, -0.2], tau_i)
        got = theta_slope_coefficient(*args, trace=traces)
        assert got == theta_slope_coefficient(*args)
        assert len(traces) == 1 and traces[0].terms == 2 * traces[0].radius + 1

    def test_pure_gaussian_at_zero(self, tau_i):
        # slopes (0,1,2): c = 1/2, ideal step 2 -> theta(0, 2 tau) at n0 = 0
        got = theta_slope_coefficient(
            [F(0), F(1), F(2)], F(0), [0.0, 0.0, 0.0], tau_i
        )
        assert abs(got - theta(0, Modulus(2j))) < 1e-12
