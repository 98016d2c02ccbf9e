import pytest

from klab.core import (
    DEFAULT_BUDGET,
    Modulus,
    PoleProximity,
    SummationBudget,
    e_of,
)
from klab.appell import g_series, kappa
from klab.hfun import h0_series, h_series, psi_closed
from klab.theta import theta

from conftest import sample_z


class TestHSeries:
    def test_hqp1(self, tau_i, rng):
        t = tau_i.tau
        for m in (-1, 0, 1):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            base = h_series(z1, z2, tau_i)
            got = h_series(z1 + m + t, z2, tau_i)
            rhs = e_of(-t - 2 * z1 - 2 * z2) * base
            assert abs(got - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_hqp2(self, tau_i, rng):
        t = tau_i.tau
        for m in (-1, 0, 1):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            base = h_series(z1, z2, tau_i)
            got = h_series(z1, z2 + m + t, tau_i)
            rhs = e_of(-t / 2 - 2 * z1 - z2) * base
            assert abs(got - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_period_one(self, tau_i, rng):
        z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
        assert abs(h_series(z1 + 1, z2, tau_i) - h_series(z1, z2, tau_i)) < 1e-12

    def test_guard(self, tau_i):
        with pytest.raises(PoleProximity):
            h_series(0.3, 0.5 * tau_i.tau, tau_i)

    def test_cone_met_away_from_origin(self):
        # alpha = (-1.6, 1.8): the cone misses the shells of radius 0 and 1;
        # carry the value by quasi-periodicity to alpha = (0.4, 0.8)
        tau = Modulus(0.4j)
        t, s = tau.tau, 1 + tau.tau
        z1, z2 = -1.6 * t + 0.21, 1.8 * t + 0.66
        value = h_series(z1, z2, tau)
        assert value != 0
        for _ in range(2):
            value *= e_of(-t - 2 * z1 - 2 * z2)
            z1 += s
        z2 -= s
        value /= e_of(-t / 2 - 2 * z1 - z2)
        want = h_series(z1, z2, tau)
        assert abs(value - want) < 1e-12 * abs(want)


class TestH0Series:
    def test_equals_h_in_strip(self, tau_i, rng):
        for _ in range(5):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            assert abs(h0_series(z1, z2, tau_i) - h_series(z1, z2, tau_i)) < 1e-9

    def test_defined_at_real_arguments(self, tau_i):
        # h itself rejects alpha = 0; h0 is entire
        val = h0_series(0.3, 0.4, tau_i)
        assert abs(val) < 1e3

    def test_diagonal_recursion(self, tau_i, rng):
        t = tau_i.tau
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            x = sample_z(rng, tau_i)
            lhs = h0_series(x + t, -(x + t), tau_i)
            rhs = e_of(t / 2 + x) * (
                h0_series(x, -x, tau_i) - theta(x, tau_i)
            ) + theta(0, tau2)
            assert abs(lhs - rhs) < 1e-9

    def test_budget_doubling_invariance(self, tau_i):
        z1, z2 = 0.21 + 0.1j, -0.4 + 0.05j
        small = SummationBudget(max_shell=100)
        big = SummationBudget(max_shell=200)
        assert abs(
            h0_series(z1, z2, tau_i, small) - h0_series(z1, z2, tau_i, big)
        ) < DEFAULT_BUDGET.target_tol


class TestPsi:
    def test_closed_form(self, tau_i, rng):
        xi = tau_i.xi
        for _ in range(5):
            x = sample_z(rng, tau_i)
            direct = theta(x - xi, tau_i) * h0_series(x, -x, tau_i)
            assert abs(direct - psi_closed(x, tau_i)) < 1e-8

    def test_difference_equation(self, tau_i, rng):
        t, xi = tau_i.tau, tau_i.xi
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            x = sample_z(rng, tau_i)
            lhs = psi_closed(x + t, tau_i)
            rhs = (
                e_of(xi) * psi_closed(x, tau_i)
                + e_of(t / 2) * theta(x, tau_i) * theta(x - xi, tau_i)
                + theta(0, tau2) * theta(x + xi, tau_i)
            )
            assert abs(lhs - rhs) < 1e-8

    def test_period_one(self, tau_i, rng):
        x = sample_z(rng, tau_i)
        assert abs(psi_closed(x + 1, tau_i) - psi_closed(x, tau_i)) < 1e-10


class TestIdentity2:
    def test_samples(self, tau_i, rng):
        t = tau_i.tau
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            x, y, z = (sample_z(rng, tau_i) for _ in range(3))
            lhs = theta(2 * x + y, tau_i) * h0_series(x, z, tau_i) - theta(
                2 * x + z, tau_i
            ) * h0_series(x, y, tau_i)
            w = -2 * x - y - z
            rhs = theta(2 * (x + z), tau2) * kappa(
                w, 2 * x + y + t, tau_i
            ) - theta(2 * (x + y), tau2) * kappa(w, 2 * x + z + t, tau_i)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_antisymmetric_diagonal(self, tau_i, rng):
        x, y = sample_z(rng, tau_i), sample_z(rng, tau_i)
        lhs = theta(2 * x + y, tau_i) * h0_series(x, y, tau_i) - theta(
            2 * x + y, tau_i
        ) * h0_series(x, y, tau_i)
        assert lhs == 0


class TestFiveLineHIdentity:
    def test_samples(self, tau_i, rng):
        tau2 = tau_i.scaled(2)
        for _ in range(5):
            z1, z2, z3 = (sample_z(rng, tau_i, margin=0.15) for _ in range(3))
            try:
                lhs = theta(2 * z1 + z3, tau_i) * h_series(
                    z1 + z3, -z1 + z2 - z3, tau_i
                ) + theta(z1 + z2 + z3, tau_i) * h_series(-z1 - z3, z3, tau_i)
                rhs = theta(2 * z2, tau2) * g_series(
                    -z1 + z2 - z3, -z1 - z2, tau_i
                ) + theta(2 * z1, tau2) * g_series(z3, z1 + z2, tau_i)
            except PoleProximity:
                continue
            assert abs(lhs - rhs) < 1e-8
