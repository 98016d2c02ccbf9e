import random

import numpy as np
import pytest

from klab.appell import g0, g0_minus_g, g_series, kappa, p_correction
from klab.core import (
    BoundaryProximity,
    Modulus,
    PoleProximity,
    TWO_PI_I,
    e_of,
)
from klab.theta import theta, theta_prime

from conftest import sample_z


class TestKappa:
    def test_difference_equation_grids(self, tau_i, tau_generic):
        for tau in (tau_i, tau_generic):
            t = tau.tau
            for i in range(10):
                for j in range(10):
                    y = (0.08 + 0.84 * i / 10) * t + j / 10 + 0.03
                    x = (0.08 + 0.84 * j / 10) * t + i / 10 + 0.07
                    lhs = kappa(y, x + t, tau)
                    rhs = e_of(y) * kappa(y, x, tau) + theta(x, tau)
                    assert abs(lhs - rhs) < 1e-10

    def test_period_one_in_x(self, tau_i, rng):
        y, x = sample_z(rng, tau_i), sample_z(rng, tau_i)
        assert abs(kappa(y, x + 1, tau_i) - kappa(y, x, tau_i)) < 1e-12

    def test_value_at_half_period(self, tau_i, rng):
        xi = tau_i.xi
        for _ in range(5):
            y = sample_z(rng, tau_i)
            lhs = kappa(y, xi, tau_i)
            rhs = theta_prime(xi, tau_i) / (TWO_PI_I * theta(y - xi, tau_i))
            assert abs(lhs - rhs) < 1e-9

    def test_constant_product_over_y(self, tau_i, rng):
        xi = tau_i.xi
        const = theta_prime(xi, tau_i) / TWO_PI_I
        vals = []
        for _ in range(20):
            y = sample_z(rng, tau_i)
            vals.append(kappa(y, xi, tau_i) * theta(y - xi, tau_i))
        spread = max(abs(v - const) for v in vals)
        assert spread < 1e-9

    def test_pole_guard(self, tau_i):
        with pytest.raises(PoleProximity):
            kappa(1e-12j, 0.3 * tau_i.tau + 0.1, tau_i)

    def test_pole_past_the_stop_radius(self, tau_i):
        # e(7 tau) = e(y): the pole sits at n = 7, beyond where the sum stops
        with pytest.raises(PoleProximity):
            kappa(7 * tau_i.tau, 0.3 + 0.2j, tau_i)


class TestGSeries:
    def test_period_one(self, tau_i, rng):
        z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
        assert abs(g_series(z1 + 1, z2, tau_i) - g_series(z1, z2, tau_i)) < 1e-12

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_quasi_periodicity_first(self, tau_i, m, n):
        t = tau_i.tau
        z1, z2 = 0.37 * t + 0.21, 0.61 * t + 0.47
        base = g_series(z1, z2, tau_i)
        got = g_series(z1 + m + n * t, z2, tau_i)
        assert abs(got - e_of(-n * z2) * base) < 1e-9

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_quasi_periodicity_second(self, tau_i, m, n):
        t = tau_i.tau
        z1, z2 = 0.37 * t + 0.21, 0.61 * t + 0.47
        base = g_series(z1, z2, tau_i)
        got = g_series(z1, z2 + m + n * t, tau_i)
        assert abs(got - e_of(-n * n * t / 2 - n * (z1 + z2)) * base) < 1e-9


    def test_cone_met_away_from_origin(self):
        # alpha = (-1.6, 1.8): the cone misses the shells of radius 0 and 1
        tau = Modulus(0.4j)
        z1, z2 = -1.6 * tau.tau + 0.21, 1.8 * tau.tau + 0.66
        got = g_series(z1, z2, tau)
        assert abs(got - (-2.8928722e-2 + 5.709128e-3j)) < 1e-9
        assert abs(got - (g0(z1, z2, tau) - g0_minus_g(z1, z2, tau))) < 1e-11

    def test_matches_bridge_on_grid(self):
        rng = random.Random(11)
        for im in (0.25, 0.5, 1.0, 1.5, 2.0):
            for _ in range(30):
                tau = Modulus(complex(rng.uniform(-0.5, 0.5), im))
                a1, a2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
                z1, z2 = a1 * tau.tau + rng.random(), a2 * tau.tau + rng.random()
                whole, bridge = g0(z1, z2, tau), g0_minus_g(z1, z2, tau)
                want = whole - bridge
                # the reference cancels: allow its rounding, relative to its parts
                tol = 1e-9 * abs(want) + 1e-10 + 1e-12 * max(abs(whole), abs(bridge))
                assert abs(g_series(z1, z2, tau) - want) <= tol

    @pytest.mark.parametrize("tau, a1, b1, a2, b2, want", [
        # the largest terms lie far from the origin, past indices whose terms
        # are all below 1e-12
        (0.3 + 2j, 1.485, 0.4, -2.828, 0.1, -0.024878514173947826 - 0.0008862036066920428j),
        (0.69 + 3j, -2.977, 0.68, 0.2267, 0.43, 1.3670354690493003e-07 - 2.67174727335685e-06j),
    ])
    def test_largest_terms_far_from_origin(self, tau, a1, b1, a2, b2, want):
        # want: mpmath at 150 digits, direct sum over the cone
        z1, z2 = a1 * tau + b1, a2 * tau + b2
        assert abs(g_series(z1, z2, Modulus(tau)) - want) <= 1e-12 * abs(want)


class TestG0:
    def test_pole_past_the_stop_radius(self, tau_i):
        with pytest.raises(PoleProximity):
            g0(0.3 + 0.2j, -7 * tau_i.tau, tau_i)

    def test_kappa_forms(self, tau_i, rng):
        t = tau_i.tau
        for _ in range(5):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            val = g0(z1, z2, tau_i)
            assert abs(val - kappa(z2, t - z1 - z2, tau_i)) < 1e-10
            assert abs(val + e_of(-z2) * kappa(-z2, z1 + z2, tau_i)) < 1e-10

    def test_equals_g_in_strip(self, tau_i, rng):
        for _ in range(5):
            z1, z2 = sample_z(rng, tau_i), sample_z(rng, tau_i)
            assert abs(g0(z1, z2, tau_i) - g_series(z1, z2, tau_i)) < 1e-9

    def test_pole_as_z2_to_zero(self, tau_i):
        z1 = 0.37 * tau_i.tau + 0.21
        ts = [1e-2, 1e-3, 1e-4]
        vals = [abs(g0(z1, t * (1 + 1j), tau_i)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope + 1) < 0.05


class TestPCorrection:
    def test_windows(self, tau_i):
        t = tau_i.tau
        z_mid = 0.5 * t + 0.3  # alpha in (0, 1)
        assert p_correction(z_mid, tau_i) == 0
        z_hi = 1.5 * t + 0.3  # alpha in (1, 2): single term n = 1
        assert abs(p_correction(z_hi, tau_i) + e_of(-t / 2 + z_hi)) < 1e-14
        z_lo = -0.5 * t + 0.3  # alpha in (-1, 0): single term n = 0
        assert abs(p_correction(z_lo, tau_i) - 1) < 1e-14

    def test_jump_guard(self, tau_i):
        with pytest.raises(BoundaryProximity):
            p_correction(0.25, tau_i)


class TestBridge:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_g0_minus_g_three_windows(self, tau_i, rng, offset):
        for _ in range(6):
            z1 = sample_z(rng, tau_i, offset=offset)
            z2 = sample_z(rng, tau_i)
            lhs = g0(z1, z2, tau_i) - g_series(z1, z2, tau_i)
            rhs = g0_minus_g(z1, z2, tau_i)
            assert abs(lhs - rhs) < 1e-9

    def test_window_values(self, tau_i, rng):
        t = tau_i.tau
        z2 = sample_z(rng, tau_i)
        z1 = 1.5 * t + 0.3
        diff = g0(z1, z2, tau_i) - g_series(z1, z2, tau_i)
        assert abs(diff + e_of(-t / 2 + z1) * theta(z1 + z2, tau_i)) < 1e-9
        z1 = -0.5 * t + 0.3
        diff = g0(z1, z2, tau_i) - g_series(z1, z2, tau_i)
        assert abs(diff - theta(z1 + z2, tau_i)) < 1e-9
