import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from five_term_reference import (
    _decompose,
    five_term_tables,
    five_term_values,
    theta_slope_coefficient,
)
from test_fukaya import _lifted

from conftest import functional_with_root, kernel_calls

from klab import fukaya
from klab.appell import g_series, kappa
from klab.core import (
    DEFAULT_BUDGET,
    DomainError,
    EvalError,
    Modulus,
    PoleProximity,
    e_of,
    lattice_sum,
)
from klab.hfun import h0_series, h_series, psi_closed
from klab.kronecker import f_series
from klab.lattice import LineOnTorus
from klab.theta import _constant, theta
from klab.verify import (
    EPSILONS,
    FIVE_TERM_SLOPES,
    FIVE_TERMS,
    SAMPLE_MARGIN,
    SUITES,
    _balanced_terms,
    _composed,
    _five_term_draws,
    _label_gap,
    _lifted_z,
    _sampled,
    residual_of,
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
        r1 = SUITES["kronecker"](tau_generic, 10, 42, DEFAULT_BUDGET)
        r2 = SUITES["kronecker"](tau_generic, 10, 42, DEFAULT_BUDGET)
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)

    def test_negative_control_functional(self, tau_i):
        report = functional_with_root(-1)(tau_i, 10, 0, DEFAULT_BUDGET)
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

        return _sampled("probe", 1e-2, 6, 11, draw, checks)

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
        assert all(type(s["lhs"]) is float for s in clean.samples + skipped.samples)

    def test_non_finite_residual_fails(self):
        def checks(x):
            return [(x * math.nan, x * 0 + 1.0), (x, x)]

        report = _sampled("probe", 1e-2, 3, 0, lambda rng, i: (rng.random(),),
                          checks)
        assert not report.passed and report.max_residual == math.inf
        assert len(report.samples) == 6 and report.skipped == 0

    def test_t_quasi_points_are_the_first_draws(self):
        # tau = 0.3+0.02i skips a point (an f sum needs a radius beyond
        # max_shell); the points after a skip still come from the same
        # positions of one random.Random(seed) sequence
        tau, n, seed = Modulus(0.3 + 0.02j), 16, 7
        rng = random.Random(seed)

        def z():
            a = SAMPLE_MARGIN + (1 - 2 * SAMPLE_MARGIN) * rng.random()
            return a * tau.tau + rng.random()

        drawn = [(z(), z(), z()) for _ in range(n)]
        report = SUITES["t-quasi"](tau, n, seed, DEFAULT_BUDGET)
        recorded = list(dict.fromkeys(s["point"] for s in report.samples))
        assert report.skipped_by_kind == {"ConvergenceBudgetExceeded": 1}
        assert recorded == [p for p in drawn if p in recorded]
        assert len(recorded) + report.skipped == n

    def test_points_count_draws_not_pairs(self):
        # t-quasi records 6 (lhs, rhs) pairs per kept point
        report = SUITES["t-quasi"](Modulus(0.3 + 0.02j), 16, 7, DEFAULT_BUDGET)
        assert report.points == 16 and report.skipped == 1
        assert len(report.samples) == 6 * (report.points - report.skipped)


def _t_quasi_pairs(tau, z1, z2, y):
    """t-quasi's pairs by one evaluator call per value."""
    t, b = tau.tau, DEFAULT_BUDGET
    base_f, base_g = f_series(z1, z2, tau, b), g_series(z1, z2, tau, b)
    return [
        (f_series(z2, z1, tau, b), base_f),
        (f_series(z1 + 1 + t, z2, tau, b), e_of(-z2) * base_f),
        (f_series(z1, z2 - 1 + t, tau, b), e_of(-z1) * base_f),
        (g_series(z1 + 1 + t, z2, tau, b), e_of(-z2) * base_g),
        (g_series(z1, z2 + 1 + t, tau, b), e_of(-t / 2 - (z1 + z2)) * base_g),
        (kappa(y, z1 + 1 + t, tau, b), e_of(y) * kappa(y, z1, tau, b) + theta(z1, tau, b)),
    ]


def _hqp_pairs(tau, z1, z2):
    t, b = tau.tau, DEFAULT_BUDGET
    base = h_series(z1, z2, tau, b)
    return [(h_series(z1 + 1 + t, z2, tau, b), e_of(-t - 2 * z1 - 2 * z2) * base),
            (h_series(z1, z2 + 1 + t, tau, b), e_of(-t / 2 - 2 * z1 - z2) * base)]


def _fg_pairs(tau, z1, z2, z3):
    b = DEFAULT_BUDGET
    lhs = (theta(z1, tau, b) * g_series(z3, z1 + z2, tau, b)
           + theta(z1 + z2 + z3, tau, b) * g_series(-z3, z1 + z3, tau, b))
    return [(lhs, theta(z2, tau, b) * f_series(z1 + z2, z1 + z3, tau, b))]


def _identity1_pairs(tau, x, y, z):
    b = DEFAULT_BUDGET
    lhs = (e_of(y) * theta(y + z, tau, b) * kappa(y, z - x, tau, b)
           - e_of(-x) * theta(x - z, tau, b) * kappa(-x, y + z, tau, b))
    return [(lhs, theta(z, tau, b) * f_series(x, y, tau, b))]


def _identity2_pairs(tau, x, y, z):
    t, tau2, b = tau.tau, tau.scaled(2), DEFAULT_BUDGET
    lhs = (theta(2 * x + y, tau, b) * h0_series(x, z, tau, b)
           - theta(2 * x + z, tau, b) * h0_series(x, y, tau, b))
    w = -2 * x - y - z
    rhs = (theta(2 * (x + z), tau2, b) * kappa(w, 2 * x + y + t, tau, b)
           - theta(2 * (x + y), tau2, b) * kappa(w, 2 * x + z + t, tau, b))
    return [(lhs, rhs)]


def _psi_pairs(tau, x):
    t, xi, b = tau.tau, tau.xi, DEFAULT_BUDGET
    shifted = theta(x - xi, tau, b)
    closed = psi_closed(x, tau, b)
    rhs_de = (e_of(xi) * closed + e_of(t / 2) * theta(x, tau, b) * shifted
              + _constant(tau, "theta(0, 2 tau)", b) * theta(x + xi, tau, b))
    return [(shifted * h0_series(x, -x, tau, b), closed), (psi_closed(x + t, tau, b), rhs_de)]


class TestStackedChecks:
    """The sampled suites whose checks call an evaluator several times at one
    modulus call it once, on its arguments stacked along a leading axis."""

    # run at a few points, the batch kernel calls at tau = i, the pairs per
    # call; each id starts with the name the suite had as a function
    CASES = [
        pytest.param(partial(SUITES[name], samples=n, seed=0, budget=DEFAULT_BUDGET), count,
                     reference, id=f"{old}-{count}-{reference.__name__}")
        for name, old, n, count, reference in [
            ("t-quasi", "verify_t_quasi", 9, 4, _t_quasi_pairs),
            ("hqp", "verify_hqp", 9, 1, _hqp_pairs),
            ("fg", "verify_fg_identity", 8, 3, _fg_pairs),
            ("identity1", "verify_identity1", 8, 3, _identity1_pairs),
            ("identity2", "verify_identity2", 8, 4, _identity2_pairs),
            ("psi", "verify_psi", 8, 4, _psi_pairs),
        ]
    ]

    @pytest.mark.parametrize("run, count, _", CASES)
    def test_one_batch_per_evaluator_and_modulus(self, run, count, _, monkeypatch):
        calls = kernel_calls(monkeypatch)
        assert run(Modulus(1j)).passed
        # the theta constants are summed alone, on numbers
        assert sum(any(type(f) is np.ndarray for f in args[0]) for args in calls) == count

    @pytest.mark.parametrize("tau", [0.3 + 0.9j, 1j])
    @pytest.mark.parametrize("run, _, reference", CASES)
    def test_pairs_agree_with_one_call_per_value(self, run, _, reference, tau):
        tau = Modulus(tau)
        report = run(tau)
        points = list(dict.fromkeys(s["point"] for s in report.samples))
        want = [pair for point in points for pair in reference(tau, *point)]
        assert report.skipped == 0 and len(want) == len(report.samples)
        for sample, (lhs, rhs) in zip(report.samples, want):
            assert abs(sample["lhs"] - lhs) <= 1e-12 * max(1, abs(lhs))
            assert abs(sample["rhs"] - rhs) <= 1e-12 * max(1, abs(rhs))

    def test_a_point_alone_reports_python_numbers(self):
        # at this modulus fg's batch raises, and each point is evaluated alone,
        # its stacked calls as small batches
        report = SUITES["fg"](Modulus(0.3 + 0.015j), 50, 0, DEFAULT_BUDGET)
        assert report.skipped_by_kind == {"ConvergenceBudgetExceeded": 6}
        assert len(report.samples) == 44 and type(report.passed) is bool
        for sample in report.samples:
            assert type(sample["lhs"]) is complex and type(sample["rhs"]) is complex
            assert type(sample["residual"]) is float


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(set(SUITES) - {"eta-const", "sign-det"}))
    def test_samples_are_the_points_drawn(self, name):
        for n in (1, 2, 3) if name == "five-term" else (1, 2, 3, 4):  # five-term draws at most 3
            report = SUITES[name](Modulus(1j), n, 0, DEFAULT_BUDGET)
            assert report.points == n, n

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_tolerance_override(self, name, tau_generic):
        report = SUITES[name](tau_generic, 5, 3, DEFAULT_BUDGET, tolerance=1e-30)
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

    def test_failed_ring_check_is_redone_at_the_asked_radius(self, monkeypatch):
        # five-term's F batches pass their ring checks; m3 of these lines
        # sums one batch of 4 F series, which fails the ring check at R = 4,
        # where a window's terms cancel: it is redone at 5, not 8
        radii, redone = [], []
        call = fukaya._ConeWindows.__call__

        def record(self, k, members=slice(None)):
            radii.append(len(k) // 2)
            return call(self, k, members)

        def spy(term, env, budget=DEFAULT_BUDGET, trace=None):
            traces = []
            value = lattice_sum(term, env, budget, traces)
            if isinstance(term, fukaya._ConeWindows):
                redone.extend(t.radius for t in traces if t.stop == "ring check")
            if trace is not None:
                trace.extend(traces)
            return value

        monkeypatch.setattr(fukaya._ConeWindows, "__call__", record)
        monkeypatch.setattr(fukaya, "lattice_sum", spy)
        lines = [LineOnTorus(F(s), y, b) for s, y, b in ((4, 0.15, 0.61), (1, -0.11, 0.48),
                                                          (3, -0.34, 0.23), (0, -0.35, 0.79))]
        fukaya.m3_generic(lines, Modulus(-0.45 + 0.15j))
        assert radii == [4, 5]
        assert redone == [5] * 4

    def test_passes_at_fixed_sample(self, tau_i):
        y = [0.123988, 0.199438, 0.014326, 0.008044, -0.074526]
        by_label, = _five_term_draws(FIVE_TERM_SLOPES, [y], tau_i, DEFAULT_BUDGET)
        scale = max(abs(t) for terms in by_label.values() for t in terms)
        total = max((sum(e * t for e, t in zip(EPSILONS, terms)) for terms in by_label.values()),
                    key=abs)
        assert abs(total) / scale < 1e-12

    def test_random_samples_pass(self, tau_i):
        report = SUITES["five-term"](tau_i, 2, 5, DEFAULT_BUDGET)
        assert report.passed

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j])
    def test_composed_terms_match_the_hand_derived_ones(self, tau):
        # at the standard intersection of the first and last lines, label
        # (0, 0), each composed term is the hand-derived term times one factor per draw
        tau = Modulus(tau)
        rng = random.Random(0)
        for _ in range(3):
            y = [round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)]
            reference = five_term_values(self.SLOPES, y, tau)
            by_label, = _five_term_draws(self.SLOPES, [y], tau, DEFAULT_BUDGET)
            terms = by_label[(0, 0)]
            ratios = [t / r for t, r in zip(terms, reference)]
            assert max(abs(r - ratios[0]) for r in ratios) < 1e-12 * abs(ratios[0])

    def test_passes_on_rational_slopes_where_tau_has_a_real_part(self):
        # at tau = i, TestIntegerSlopes::test_fractional_slopes_run
        report = SUITES["five-term"](Modulus(0.3 + 0.9j), 3, 0, DEFAULT_BUDGET,
                                     slopes=(F(1, 2), 3, F(-1, 3), 1, F(7, 2)))
        assert report.passed and report.skipped == 0 and len(report.samples) == 3
        assert report.max_residual < 1e-12

    @pytest.mark.parametrize("slopes", [(0, 3, -2, 1, 5), (0, 2, -1, 1, 4), (-1, 1, -3, 0, 2)])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j])
    def test_passes_where_the_hand_derived_terms_failed(self, slopes, tau):
        # the hand-derived terms left residuals of 1.04 to 1.20 here
        report = SUITES["five-term"](Modulus(tau), 3, 0, DEFAULT_BUDGET, slopes=slopes)
        assert report.passed and report.skipped == 0


class TestComposedBatches:
    SLOPES = (F(0), F(2), F(-1), F(1), F(3))

    @staticmethod
    def draws(slopes, n, seed):
        rng = random.Random(seed)
        return [[LineOnTorus(s, round(rng.uniform(-0.35, 0.35), 6), rng.random()) for s in slopes]
                for _ in range(n)]

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j, 0.1 + 0.25j])
    def test_a_batch_of_draws_agrees_with_each_draw_alone(self, tau):
        # one batch shares the largest radius of its series, so its sums
        # hold more terms than a draw's alone: equal to rounding
        tau = Modulus(tau)
        draws = self.draws(self.SLOPES, 4, 1)
        for start, stop in FIVE_TERMS:
            batch = _composed(draws, start, stop, tau, DEFAULT_BUDGET)
            for lines, got in zip(draws, batch):
                want, = _composed([lines], start, stop, tau, DEFAULT_BUDGET)
                assert got.keys() == want.keys()
                scale = max(map(abs, want.values()))
                assert max(abs(got[k] - want[k]) for k in want) <= 1e-13 * scale

    def test_lifted_z_is_the_z_of_the_lifted_line(self, tau_generic):
        rng = random.Random(4)
        for slope in (F(0), F(3), F(-2), F(1, 2), F(-5, 3), F(7, 4)):
            line = LineOnTorus(slope, rng.uniform(-0.5, 0.5), rng.random())
            for a, b in ((0, 0), (1, 0), (0, -1), (3, 7), (-4, 2)):
                lifted = _lifted(line, a, b)
                assert (_lifted_z(line, a, b, tau_generic)
                        == tau_generic.tau * lifted.shift_y + lifted.monodromy_beta)

    @pytest.mark.parametrize("slopes, tau, seed, kept, kinds", [
        ((0, 3, -2, 1, 5), 2j, 0, 0, {"DomainError": 3}),
        ((-6, 2, -7, 1, 6), 1.5j, 1, 1, {"DomainError": 2}),
        ((-1, 5, -4, 0, 7), 2j, 2, 1, {"DomainError": 2}),
    ])
    def test_a_draw_that_raises_is_skipped_alone(self, slopes, tau, seed, kept, kinds):
        # the batch raises, and each draw is redone alone: the skips are the
        # draws whose terms raise alone, with their kinds, and the kept
        # residuals are those of each draw alone
        tau = Modulus(tau)
        report = SUITES["five-term"](tau, 3, seed, DEFAULT_BUDGET, slopes=slopes)
        assert report.skipped_by_kind == kinds and len(report.samples) == kept
        rng = random.Random(seed)
        ys = [[round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)] for _ in range(3)]
        alone = []
        for y in ys:
            by_label, = _five_term_draws(slopes, [y], tau, DEFAULT_BUDGET)
            if not isinstance(by_label, EvalError):
                alone.append((y, by_label))
        assert [tuple(y) for y, _ in alone] == [s["point"] for s in report.samples]
        for (_, by_label), sample in zip(alone, report.samples):
            scale = max(abs(t) for terms in by_label.values() for t in terms)
            total = max((sum(e * t for e, t in zip(EPSILONS, terms)) for terms in by_label.values()),
                        key=abs)
            assert abs(sample["lhs"] - total) <= 1e-13 * scale

    def test_a_draw_on_a_thin_cone_certifies_alone(self):
        # at (0, 5, -1, 2, 6) and tau = 1.7i an outer m3 coset of the first
        # draw has its cone points far from the apex, on a thin cone: its
        # window series certifies the draw alone and in a batch of three
        tau = Modulus(1.7j)
        slopes = (F(0), F(5), F(-1), F(2), F(6))
        rng = random.Random(3)
        y = [round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)]
        alone, = _five_term_draws(slopes, [y], tau, DEFAULT_BUDGET)
        assert not isinstance(alone, EvalError)
        for samples in (1, 3):
            report = SUITES["five-term"](tau, samples, 3, DEFAULT_BUDGET, slopes=slopes)
            assert report.passed and report.skipped == 0 and report.samples[0]["point"] == tuple(y)


class TestM2Associativity:
    @pytest.mark.parametrize("slopes", [(0, 1, 2, 3), (0, 2, 3, 5)])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j, 0.1 + 0.25j])
    def test_residual_is_the_label_gap_of_the_two_sides(self, slopes, tau):
        # each side sums its own labels in its own order
        tau, seed = Modulus(tau), 4
        report = SUITES["m2-assoc"](tau, 6, seed, DEFAULT_BUDGET, slopes=slopes)
        rng = random.Random(seed)
        draws = []
        for _ in range(6):
            ys = [round(rng.uniform(-0.45, 0.45), 6) for _ in slopes]
            betas = [rng.random() for _ in slopes]
            draws.append([LineOnTorus(s, y, b) for s, y, b in zip(slopes, ys, betas)])
        left = _composed(draws, 0, 3, tau, DEFAULT_BUDGET)
        right = _composed(draws, 1, 4, tau, DEFAULT_BUDGET)
        assert report.skipped == 0
        for lines, lhs, rhs, sample in zip(draws, left, right, report.samples, strict=True):
            assert sample["point"] == tuple(ln.shift_y for ln in lines)
            assert sample["residual"] == _label_gap(lhs, rhs)
            assert (sample["lhs"], sample["rhs"]) == (sum(lhs.values()), sum(rhs.values()))


    @pytest.mark.parametrize("slopes", [(3, 2, 1, 0), (0, 2, -1, 1)])
    def test_a_draw_where_neither_side_has_a_point_is_skipped(self, slopes, tau_i):
        # both sides were 0 at every draw, and the suite passed on no comparison
        report = SUITES["m2-assoc"](tau_i, 10, 0, DEFAULT_BUDGET, slopes=slopes)
        assert not report.passed and report.samples == []
        assert report.skipped_by_kind == {"AllTermsZero": 10}


class TestIntegerSlopes:
    # the ids keep the names of the suites' former public functions
    @pytest.mark.parametrize("suite, samples, slopes", [
        pytest.param("five-term", 3, (F(1, 2), 3, F(-1, 3), 1, F(7, 2)),
                     id="verify_five_term-slopes0"),
        pytest.param("sign-det", 1, (0, F(5, 2), F(-3, 2), 1, F(7, 2)),
                     id="verify_sign_determination-slopes1"),
        pytest.param("m2-assoc", 10, (0, F(1, 2), 2, 3), id="verify_m2_associativity-slopes2"),
    ])
    def test_fractional_slopes_run(self, suite, samples, slopes, tau_i):
        # the suites once refused slopes that are not integers
        report = SUITES[suite](tau_i, samples, 0, DEFAULT_BUDGET, slopes=slopes)
        assert report.passed and report.skipped == 0 and report.max_residual < 1e-12

    def test_a_sign_battery_without_a_balanced_draw_raises(self, tau_i):
        # no draw has all five terms at one label: the battery cannot run
        with pytest.raises(DomainError, match="no balanced sample"):
            SUITES["sign-det"](tau_i, 1, 0, DEFAULT_BUDGET,
                               slopes=(F(1, 2), 3, F(-1, 3), 1, F(7, 2)))

    @settings(max_examples=40, deadline=None)
    @given(slopes=st.lists(st.builds(F, st.integers(-7, 7), st.integers(1, 3)), min_size=4,
                           max_size=4, unique=True).map(sorted),
           tau=st.sampled_from([1j, 0.3 + 0.9j, -0.2 + 0.5j, 0.1 + 2j]), seed=st.integers(0, 2**32))
    def test_m2_associativity_on_rational_slopes(self, slopes, tau, seed):
        # increasing slopes, where both sides have points; every draw whose
        # terms compute has the two sides equal label by label
        report = SUITES["m2-assoc"](Modulus(tau), 2, seed, DEFAULT_BUDGET, slopes=slopes)
        assert len(report.samples) + report.skipped == 2
        assert all(s["residual"] <= 1e-9 for s in report.samples)

    @pytest.mark.parametrize("suite, slopes", [
        pytest.param("five-term", (0, 2, -1, 1), id="verify_five_term-slopes0"),
        pytest.param("five-term", (0, 2, -1, 1, 3, 4), id="verify_five_term-slopes1"),
        pytest.param("sign-det", (0, 2, -1, 1), id="verify_sign_determination-slopes2"),
        pytest.param("m2-assoc", (0, 1, 2), id="verify_m2_associativity-slopes3"),
        pytest.param("m2-assoc", (0, 1, 2, 3, 4), id="verify_m2_associativity-slopes4"),
    ])
    def test_a_wrong_slope_count_raises(self, suite, slopes, tau_i):
        with pytest.raises(DomainError, match="slopes, got"):
            SUITES[suite](tau_i, 10, 0, DEFAULT_BUDGET, slopes=slopes)

    @pytest.mark.parametrize("slopes", [(0, 2, 3, 5), (0, 3, 4, 6), (1, 3, 4, 7)])
    def test_m2_associativity_where_the_inputs_have_several_points(self, slopes, tau_i):
        # with |l2 - l1| > 1, e12 is one of several points, which moving the
        # middle line instead of the last one would change
        report = SUITES["m2-assoc"](tau_i, 10, 0, DEFAULT_BUDGET, slopes=slopes)
        assert report.passed and report.skipped == 0


class TestSignDetermination:
    @pytest.mark.parametrize("tau", [0.3 + 0.9j, 0.5 + 1.2j, -0.2 + 0.6j, 0.1 + 0.25j])
    def test_flip_battery_where_tau_has_a_real_part(self, tau):
        # the suite once ran at i Im(tau) in place of tau
        tau = Modulus(tau)
        report = SUITES["sign-det"](tau, 1, 0, DEFAULT_BUDGET)
        assert report == SUITES["sign-det"](tau, 5, 0, DEFAULT_BUDGET)
        assert report != SUITES["sign-det"](Modulus(1j * tau.tau.imag), 1, 0, DEFAULT_BUDGET)
        assert report.passed
        assert min(s["lhs"] for s in report.samples if s["point"][0].startswith("flip-")) > 1e-2

    def test_flip_battery(self):
        report = SUITES["sign-det"](Modulus(1j), 1, 0, DEFAULT_BUDGET)
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
