import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from klab.core import (
    DomainError,
    GUARD,
    Modulus,
    PoleProximity,
    TWO_PI_I,
    e_of,
)
from klab import fukaya
from klab.appell import g_series, kappa
from klab.fukaya import (
    F_series,
    composition_by_point,
    m2_generic,
    m3_generic,
    polygon_oracle,
    theta_slope_coefficient,
    _lift_offsets,
)
from klab.kronecker import f_closed, f_series
from klab.lattice import (
    LineOnTorus,
    build_quad_config,
    hom_degree,
    ideal_of,
    intersection_point,
)
from klab.theta import theta

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
        rep = cfg.coset_reps[0]
        plus = F_series(cfg, [rep], z, tau)[0]
        neg_rep = tuple(-v for v in rep)
        minus = F_series(cfg, [neg_rep], [-zi for zi in z], tau)[0]
        assert abs(plus) > 1e-9  # non-trivial sample
        assert abs(plus + minus) < 1e-12

    def test_reduced_variable_invariance(self):
        cfg, z, tau = self._setup()
        rep = cfg.coset_reps[0]
        base = F_series(cfg, [rep], z, tau)[0]
        a, b = 0.37, -0.81
        moved = [zi + a + b * float(l) for zi, l in zip(z, cfg.slopes)]
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
