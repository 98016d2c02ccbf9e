import math
import random

import numpy as np
import pytest

from klab.core import DEFAULT_BUDGET, EvalError, Modulus, PoleProximity, SummationBudget, e_of
from klab.kronecker import f_closed, f_series

from conftest import kernel_calls, sample_z


class TestFSeries:
    def test_symmetry(self, tau_i, rng):
        for _ in range(10):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            assert abs(f_series(z1, z2, tau_i) - f_series(z2, z1, tau_i)) < 1e-10

    def test_period_one(self, tau_i, rng):
        z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
        assert abs(f_series(z1 + 1, z2, tau_i) - f_series(z1, z2, tau_i)) < 1e-12

    def test_odd(self, tau_i, rng):
        for _ in range(5):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            assert abs(f_series(-z1, -z2, tau_i) + f_series(z1, z2, tau_i)) < 1e-10

    def test_guard_rejects_integer_alpha(self, tau_i):
        with pytest.raises(PoleProximity):
            f_series(0.3, 0.5 * tau_i.tau + 0.1, tau_i)

    def test_cone_met_away_from_origin(self):
        # alpha = (-1.6, 1.8): the cone misses the shells of radius 0 and 1
        tau = Modulus(0.4j)
        z1, z2 = -1.6 * tau.tau + 0.21, 1.8 * tau.tau + 0.66
        got = f_series(z1, z2, tau)
        assert abs(got - (1.5751686e-4 - 1.0912436e-4j)) < 1e-11
        assert abs(got - f_closed(z1, z2, tau)) < 1e-11

    @pytest.mark.parametrize("tau, a1, a2, b1, b2", [
        # the benchmark's F1 points: alpha-margin 0.02 in alpha(z1)
        (0.1 + 0.5j, 0.02, 0.45, 0.3, 0.6),
        (-0.2 + 0.7j, 1.02, 0.55, 0.7, 0.2),
        (0.3 + 1.0j, -0.02, 0.4, 0.1, 0.9),
        # alpha-margin 0.01, in either argument
        (0.1 + 0.5j, 0.01, 0.45, 0.3, 0.6),
        (0.2 + 0.35j, -0.4, 2.99, 0.8, 0.1),
        # both margins small: over 100 shells with N = 3, where |x_m|^N
        # overflows on the u < 0 side unless that side uses 1/x_m
        (0.1 + 1j, 0.03, -2.96, 0.3, 0.7),
    ])
    def test_small_alpha_margin(self, tau, a1, a2, b1, b2):
        # the sum over m decays at the margin of the argument that fixes N,
        # which is the one farther from the integers
        z1, z2 = a1 * tau + b1, a2 * tau + b2
        got, want = f_series(z1, z2, Modulus(tau)), f_closed(z1, z2, Modulus(tau))
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-10

    def test_symmetry_is_exact(self):
        def outcome(z1, z2, tau):
            try:
                return f_series(z1, z2, tau)
            except EvalError as ex:
                return ex.kind

        rng = random.Random(3)
        for im in (0.3, 1.0, 2.0):
            tau = Modulus(complex(rng.uniform(-0.5, 0.5), im))
            for _ in range(20):
                a1, a2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
                z1, z2 = a1 * tau.tau + rng.random(), a2 * tau.tau + rng.random()
                assert outcome(z1, z2, tau) == outcome(z2, z1, tau)
            # both alphas at the same distance from the integers
            z1, z2 = 0.25 * tau.tau + 0.2, -0.25 * tau.tau + 0.6
            assert f_series(z1, z2, tau) == f_series(z2, z1, tau)

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_t_shift_first_argument(self, tau_i, m, n):
        t = tau_i.tau
        z1, z2 = 0.31 * t + 0.17, 0.53 * t + 0.41
        base = f_series(z1, z2, tau_i)
        got = f_series(z1 + m + n * t, z2, tau_i)
        assert abs(got - e_of(-n * z2) * base) < 1e-9

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_t_shift_second_argument(self, tau_i, m, n):
        t = tau_i.tau
        z1, z2 = 0.31 * t + 0.17, 0.53 * t + 0.41
        base = f_series(z1, z2, tau_i)
        got = f_series(z1, z2 + m + n * t, tau_i)
        assert abs(got - e_of(-n * z1) * base) < 1e-9

    def test_tau_period_one(self, tau_i):
        t = tau_i.tau
        z1, z2 = 0.31 * t + 0.17, 0.53 * t + 0.41
        assert abs(
            f_series(z1, z2, Modulus(t + 1)) - f_series(z1, z2, tau_i)
        ) < 1e-10


class TestFClosed:
    def test_matches_series_100_points(self, tau_i):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(100):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            worst = max(
                worst, abs(f_series(z1, z2, tau_i) - f_closed(z1, z2, tau_i))
            )
        assert worst < 1e-9

    def test_zero_at_lattice_sum(self, tau_i):
        # numerator theta(z1 + z2 - xi) vanishes when z1 + z2 lies on the
        # period lattice (the theta zero xi satisfies 2 xi = tau + 1)
        z1 = 0.31 * tau_i.tau + 0.17
        z2 = -z1 + 1 + tau_i.tau
        assert abs(f_closed(z1, z2, tau_i)) < 1e-9

    def test_simple_pole_growth(self, tau_i):
        z2 = 0.53 * tau_i.tau + 0.41
        ts = [1e-2, 1e-3, 1e-4]
        vals = [abs(f_closed(t * (1 + 1j), z2, tau_i)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope + 1) < 0.05

    def test_pole_guard_on_the_lattice(self):
        # theta(z1 - xi) vanishes at z1 = 2 - tau: within GUARD of it the
        # closed form raises, at 1e-6 it returns the series' value
        tau = Modulus(0.3 + 0.9j)
        pole, z2 = 2 - tau.tau, 0.3 + 0.4j
        with pytest.raises(PoleProximity):
            f_closed(pole + 1e-12 * (1 + 1j), z2, tau)
        with pytest.raises(PoleProximity):
            f_closed(z2, pole + 1e-12 * (1 + 1j), tau)
        near = pole + 1e-6 * (1 + 1j)
        got, want = f_closed(near, z2, tau), f_series(near, z2, tau)
        assert abs(got) > 1e3
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_functional_equation(self, tau_i):
        t = tau_i.tau
        z1, z2 = 0.31 * t + 0.17, 0.53 * t + 0.41
        lhs = f_series(z1 / t, z2 / t, Modulus(-1 / t))
        rhs = t * e_of(z1 * z2 / t) * f_series(z1, z2, tau_i)
        assert abs(lhs - rhs) < 1e-8

    def test_functional_equation_wrong_root_fails(self, tau_i):
        t = tau_i.tau
        z1, z2 = 0.31 * t + 0.17, 0.53 * t + 0.41
        lhs = f_series(z1 / t, z2 / t, Modulus(-1 / t))
        rhs = -t * e_of(z1 * z2 / t) * f_series(z1, z2, tau_i)
        assert abs(lhs - rhs) / abs(rhs) > 1e-2


class TestFClosedConstant:
    """theta'(xi)/2 pi i is summed once per Modulus and budget, and a kept
    one gives the bits of its sum."""

    TAU = 0.1 + 1j
    Z1, Z2 = 0.4 * TAU + 0.1, 0.6 * TAU + 0.3

    def test_a_second_call_sums_only_its_thetas(self, monkeypatch):
        tau = Modulus(self.TAU)
        calls = kernel_calls(monkeypatch)
        first = f_closed(self.Z1, self.Z2, tau)
        assert len(calls) == 4
        second = f_closed(self.Z1, self.Z2, tau)
        assert len(calls) == 4 + 3
        monkeypatch.undo()
        assert repr(first) == repr(second) == repr(f_closed(self.Z1, self.Z2, Modulus(self.TAU)))

    def test_array_calls_take_the_kept_constant(self, monkeypatch):
        tau = Modulus(self.TAU)
        z1 = np.array([0.4, 0.15, -1.3]) * self.TAU + 0.1
        f_closed(self.Z1, self.Z2, tau)
        calls = kernel_calls(monkeypatch)
        got = f_closed(z1, self.Z2, tau)
        assert len(calls) == 1  # the three thetas, stacked into one batch
        monkeypatch.undo()
        assert got.tolist() == f_closed(z1, self.Z2, Modulus(self.TAU)).tolist()

    def test_each_budget_keeps_its_own_constant(self, monkeypatch):
        tau, loose = Modulus(self.TAU), SummationBudget(target_tol=1e-6)
        calls = kernel_calls(monkeypatch)
        for budget in (DEFAULT_BUDGET, loose, DEFAULT_BUDGET, loose):
            f_closed(self.Z1, self.Z2, tau, budget)
        assert len(calls) == 4 + 4 + 3 + 3
        assert {key for key in tau._memo if type(key) is tuple} == {
            ("theta'(xi)/2 pi i", budget.target_tol, budget.max_shell)
            for budget in (DEFAULT_BUDGET, loose)}
        monkeypatch.undo()
        for budget in (DEFAULT_BUDGET, loose):
            assert (repr(f_closed(self.Z1, self.Z2, tau, budget))
                    == repr(f_closed(self.Z1, self.Z2, Modulus(self.TAU), budget)))
