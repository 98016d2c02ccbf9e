import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from five_term_reference import FIVE_TERM_ROWS, _decompose, five_term_tables, five_term_values

from klab.core import DEFAULT_BUDGET, DomainError, Modulus, PoleProximity
from klab.fukaya import F_series, _same_torus_point, theta_slope_coefficient
from klab.lattice import LineOnTorus, build_quad_config, intersection_point
from klab.verify import (
    EPSILONS,
    SAMPLE_MARGIN,
    SUITES,
    _balanced_terms,
    _five_terms,
    _sampled,
    residual_of,
    verify_five_term,
    verify_functional_equation,
    verify_kronecker_id,
    verify_m2_associativity,
    verify_sign_determination,
    verify_t_quasi,
)

F = Fraction


class TestResidual:
    def test_absolute_for_small_values(self):
        assert residual_of(0.5, 0.5 + 1e-6) == pytest.approx(1e-6)

    def test_relative_for_large_values(self):
        assert residual_of(1e6, 1e6 + 1.0) == pytest.approx(1e-6)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_passes_at_reduced_samples(self, name, tau_generic):
        report = SUITES[name](tau_generic, 5, 3, DEFAULT_BUDGET)
        assert report.passed, (name, report.max_residual)
        assert report.max_residual < report.tolerance

    def test_bit_reproducible_from_seed(self, tau_generic):
        r1 = verify_kronecker_id(tau_generic, 10, 42, DEFAULT_BUDGET)
        r2 = verify_kronecker_id(tau_generic, 10, 42, DEFAULT_BUDGET)
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)

    def test_negative_control_functional(self, tau_i):
        report = verify_functional_equation(
            tau_i, 10, 0, DEFAULT_BUDGET, zeta=-1
        )
        assert not report.passed
        assert report.max_residual > 1e-2


class TestSampledLoop:
    @staticmethod
    def run(fail_at=None, calls=None):
        """The probe suite; ``calls`` collects the shape of each call's i."""
        def draw(rng, i):
            return (i, rng.random())

        def checks(i, x):
            # called once on the arrays of all points, or on one point
            if calls is not None:
                calls.append(np.shape(i))
            if fail_at is not None and np.any(np.asarray(i) == fail_at):
                raise PoleProximity("chosen point")
            return [(x, x + 1e-3), (2 * x, 2 * x)]

        return _sampled("probe", 1e-2, 6, 11, DEFAULT_BUDGET, draw, checks)

    def test_skip_counts_one_and_keeps_later_points(self):
        clean, skipped = self.run(), self.run(fail_at=2)
        assert (skipped.skipped, clean.skipped) == (1, 0)
        assert skipped.skipped_by_kind == {"PoleProximity": 1}
        assert clean.skipped_by_kind == {}
        assert [s for s in clean.samples if s["point"][0] != 2] == skipped.samples
        assert skipped.passed and skipped.max_residual == pytest.approx(1e-3)

    @pytest.mark.parametrize("fail_at", [0, 3, 5])
    def test_failing_point_in_the_batch_falls_back_to_points(self, fail_at):
        clean_calls, calls = [], []
        clean, skipped = self.run(calls=clean_calls), self.run(fail_at, calls)
        # the batch raises, then each point is evaluated alone
        assert clean_calls == [(6,)] and calls == [(6,)] + [()] * 6
        assert skipped.skipped_by_kind == {"PoleProximity": 1}
        assert [s for s in clean.samples if s["point"][0] != fail_at] == skipped.samples
        assert all(type(s["lhs"]) is float for s in clean.samples)

    def test_non_finite_residual_fails(self):
        def checks(x):
            return [(x * math.nan, x * 0 + 1.0), (x, x)]

        report = _sampled("probe", 1e-2, 3, 0, DEFAULT_BUDGET, lambda rng, i: (rng.random(),),
                          checks)
        assert not report.passed and report.max_residual == math.inf
        assert len(report.samples) == 6 and report.skipped == 0

    def test_t_quasi_points_are_the_first_draws(self):
        # tau = 0.3+0.02i skips a point (an f sum needs a radius beyond
        # max_shell); the points after a skip still come from the same
        # positions of one random.Random(seed) sequence
        tau, grid, seed = Modulus(0.3 + 0.02j), 4, 7
        rng = random.Random(seed)

        def z():
            a = SAMPLE_MARGIN + (1 - 2 * SAMPLE_MARGIN) * rng.random()
            return a * tau.tau + rng.random()

        drawn = [(z(), z(), z()) for _ in range(grid * grid)]
        report = verify_t_quasi(tau, grid, seed)
        recorded = list(dict.fromkeys(s["point"] for s in report.samples))
        assert report.skipped_by_kind == {"ConvergenceBudgetExceeded": 1}
        assert recorded == [p for p in drawn if p in recorded]
        assert len(recorded) + report.skipped == grid * grid

    def test_points_count_draws_not_pairs(self):
        # t-quasi records 6 (lhs, rhs) pairs per kept point
        report = verify_t_quasi(Modulus(0.3 + 0.02j), 4, 7)
        assert report.points == 16 and report.skipped == 1
        assert len(report.samples) == 6 * (report.points - report.skipped)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_tolerance_override(self, name, tau_generic):
        report = SUITES[name](tau_generic, 5, 3, DEFAULT_BUDGET, tolerance=1e-30)
        if name == "sign-det":
            assert report.tolerance == 1e-7 and report.passed
        else:
            assert report.tolerance == 1e-30 and not report.passed


class TestDecompose:
    def test_single_generator(self):
        assert _decompose(F(6), [F(3)]) == [F(6)]
        with pytest.raises(DomainError):
            _decompose(F(5), [F(3)])

    def test_two_generators(self):
        parts = _decompose(F(7), [F(3, 2), F(2)])
        assert sum(parts) == F(7)
        assert (parts[0] / F(3, 2)).denominator == 1
        assert (parts[1] / F(2)).denominator == 1

    def test_three_generators(self):
        gens = [F(3, 2), F(1, 2), F(2)]
        parts = _decompose(F(5, 2), gens)
        assert sum(parts) == F(5, 2)
        for p, g in zip(parts, gens):
            assert (p / g).denominator == 1

    def test_not_in_ideal_sum(self):
        with pytest.raises(DomainError):
            _decompose(F(1, 3), [F(1, 2), F(1)])


class TestFiveTerm:
    SLOPES = (F(0), F(2), F(-1), F(1), F(3))

    def test_slope_order_enforced(self, tau_i):
        with pytest.raises(DomainError):
            five_term_values((0, 1, 2, 3, 4), [0.1] * 5, tau_i)

    def test_shift_vector_relations(self):
        # every tabulated shift vector lies in the plane of the relevant
        # sub-quadruple: components sum to zero with and without slope weights
        tables = five_term_tables(list(self.SLOPES))
        subs = {
            "u1": (3, 1, 4, 2), "u2": (3, 1, 4, 2),
            "v1": (1, 4, 2, 5), "v2": (1, 4, 2, 5),
            "w1": (1, 2, 4, 5), "w2": (1, 2, 4, 5), "w3": (1, 2, 4, 5),
        }
        order = {
            "u1": (1, 3, 4, 5), "u2": (1, 3, 4, 5),
            "v1": (1, 2, 3, 5), "v2": (1, 2, 3, 5),
            "w1": (1, 2, 4, 5), "w2": (1, 2, 4, 5), "w3": (1, 2, 4, 5),
        }
        for key in ("u1", "u2", "v1", "v2", "w1", "w2", "w3"):
            vec = tables[key]
            slopes = [self.SLOPES[i - 1] for i in order[key]]
            assert sum(vec) == 0
            assert sum(l * v for l, v in zip(slopes, vec)) == 0

    def test_fifth_term_inclusion_identity(self):
        # the slot-3 contribution index splits exactly across the two
        # adjacent triples: k = c25/c35 * (c34/c24 k) + c45/c35 * (c32/c42 k)
        l1, l2, l3, l4, l5 = self.SLOPES
        for k in [F(1), F(5, 3), F(-7, 2)]:
            lhs = k
            rhs = (l5 - l2) / (l5 - l3) * ((l4 - l3) / (l4 - l2) * k) + (
                l5 - l4
            ) / (l5 - l3) * ((l3 - l2) / (l4 - l2) * k)
            assert lhs == rhs

    def test_decomposition_well_defined(self, tau_i):
        # alternative splittings of the same index give the same F * theta
        # product: the term value cannot depend on the decomposition choice
        l1, l2, l3, l4, l5 = self.SLOPES
        y = [0.123988, 0.199438, 0.014326, 0.008044, -0.074526]
        z = [tau_i.tau * yi for yi in y]
        tables = five_term_tables(list(self.SLOPES))
        signs = next(row[2] for row in FIVE_TERM_ROWS if row[0] == (1, 2, 3, 5))
        cfg = build_quad_config([l1, l2, l3, l5], signs)
        gens = [F(3, 2), F(1, 2), F(2)]
        k = F(1)
        vals = []
        for parts in ([F(0), F(-1), F(2)], [F(3), F(0), F(-2)],
                      [F(3, 2), F(-1, 2), F(0)]):
            assert sum(parts) == k
            for p, g in zip(parts, gens):
                assert (p / g).denominator == 1
            shift = tuple(
                parts[0] * a + parts[1] * b
                for a, b in zip(tables["v1"], tables["v2"])
            )
            # identical shifted F arguments must produce identical products;
            # here we check the theta factor is independent of the split
            th = theta_slope_coefficient(
                [l3, l4, l5], k, [z[2], z[3], z[4]], tau_i
            )
            vals.append(th)
        assert max(abs(v - vals[0]) for v in vals) < 1e-12

    def test_passes_at_fixed_sample(self, tau_i):
        report = verify_five_term(seed=19, y=[0.123988, 0.199438, 0.014326,
                                              0.008044, -0.074526])
        assert report.passed
        assert report.max_residual < 1e-12

    def test_random_samples_pass(self, tau_i):
        report = verify_five_term(n_samples=2, seed=5)
        assert report.passed

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j])
    def test_composed_terms_match_the_hand_derived_ones(self, tau):
        # at the standard intersection of the first and last lines, each
        # composed term is the hand-derived term times one factor per draw
        tau = Modulus(tau)
        rng = random.Random(0)
        for _ in range(3):
            y = [round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)]
            reference = five_term_values(self.SLOPES, y, tau)
            lines = [LineOnTorus(s, yi) for s, yi in zip(self.SLOPES, y)]
            point = intersection_point(lines[0], lines[4])
            by_point = _five_terms(self.SLOPES, y, tau, DEFAULT_BUDGET)
            terms = next(v for k, v in by_point.items() if _same_torus_point(k, point))
            ratios = [t / r for t, r in zip(terms, reference)]
            assert max(abs(r - ratios[0]) for r in ratios) < 1e-12 * abs(ratios[0])

    @pytest.mark.parametrize("slopes", [(0, 3, -2, 1, 5), (0, 2, -1, 1, 4), (-1, 1, -3, 0, 2)])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j])
    def test_passes_where_the_hand_derived_terms_failed(self, slopes, tau):
        # the hand-derived terms left residuals of 1.04 to 1.20 here
        report = verify_five_term(slopes, Modulus(tau))
        assert report.passed and report.skipped == 0


class TestIntegerSlopes:
    @pytest.mark.parametrize("run, slopes", [
        (verify_five_term, (F(1, 2), 3, F(-1, 3), 1, F(7, 2))),
        (verify_sign_determination, (F(1, 2), 3, F(-1, 3), 1, F(7, 2))),
        (verify_m2_associativity, (0, F(1, 2), 2, 3)),
    ])
    def test_fractional_slopes_raise(self, run, slopes, tau_i):
        with pytest.raises(DomainError):
            run(tau=tau_i, slopes=slopes)

    @pytest.mark.parametrize("slopes", [(0, 2, 3, 5), (0, 3, 4, 6), (1, 3, 4, 7)])
    def test_m2_associativity_where_the_inputs_have_several_points(self, slopes, tau_i):
        # with |l2 - l1| > 1, e12 is one of several points, which moving the
        # middle line instead of the last one would change
        report = verify_m2_associativity(tau_i, slopes=slopes)
        assert report.passed and report.skipped == 0


class TestSignDetermination:
    def test_requires_imaginary_tau(self):
        with pytest.raises(DomainError):
            verify_sign_determination(tau=Modulus(0.1 + 1j))

    def test_flip_battery(self):
        report = verify_sign_determination(tau=Modulus(1j), seed=0)
        assert report.passed
        declared = [s for s in report.samples if s["point"] == ("declared",)]
        flips = [s for s in report.samples if s["point"][0].startswith("flip-")]
        assert declared and declared[0]["residual"] < 1e-7
        assert len(flips) == 5
        assert min(f["lhs"] for f in flips) > 1e-2

    def test_only_the_declared_signs_vanish(self):
        # of the 32 sign vectors, only +-EPSILONS cancel the balanced terms
        terms = _balanced_terms((F(0), F(2), F(-1), F(1), F(3)), Modulus(1j), 0, DEFAULT_BUDGET)
        scale = max(abs(t) for t in terms)
        vanishing = {eps for eps in itertools.product((1, -1), repeat=5)
                     if abs(sum(e * t for e, t in zip(eps, terms))) < 1e-7 * scale}
        assert vanishing == {EPSILONS, tuple(-e for e in EPSILONS)}
