import dataclasses
import random
from fractions import Fraction

import pytest

from klab.core import DEFAULT_BUDGET, DomainError, Modulus, PoleProximity
from klab.fukaya import F_series, theta_slope_coefficient
from klab.lattice import build_quad_config
from klab.verify import (
    SAMPLE_MARGIN,
    SUITES,
    _decompose,
    _sampled,
    five_term_values,
    residual_of,
    verify_five_term,
    verify_functional_equation,
    verify_kronecker_id,
    verify_sign_determination,
    verify_t_quasi,
)
from klab.verify_data import FIVE_TERM_ROWS, five_term_tables

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
    def run(fail_at=None):
        def draw(rng, i):
            return (i, rng.random())

        def checks(i, x):
            if i == fail_at:
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
