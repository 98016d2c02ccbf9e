import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from klab.core import DEFAULT_BUDGET, Modulus, TWO_PI_I, e_of
from klab.theta import eta_cubed_constant, theta, theta_prime

# frozen reference values from direct high-precision partial summation
THETA_0_I = 1.0864348112133082
THETA_0_2I = 1.0037348854877393


class TestTheta:
    def test_zero_at_half_period(self, tau_i):
        assert abs(theta(tau_i.xi, tau_i)) < 1e-10

    def test_frozen_value_at_origin(self, tau_i):
        assert abs(theta(0, tau_i) - THETA_0_I) < 1e-12

    def test_even(self, tau_generic, rng):
        for _ in range(10):
            z = (rng.random() - 0.5) * 2 + (rng.random() - 0.5) * 1j
            assert abs(theta(z, tau_generic) - theta(-z, tau_generic)) < 1e-12

    def test_quasi_periodicity_grid(self, tau_i, tau_generic):
        for tau in (tau_i, tau_generic):
            t = tau.tau
            for i in range(10):
                for j in range(10):
                    z = (i / 10) * t + j / 10
                    base = theta(z, tau)
                    assert abs(theta(z + 1, tau) - base) < 1e-10
                    rhs = e_of(-t / 2 - z) * base
                    assert abs(theta(z + t, tau) - rhs) < 1e-10 * max(
                        1.0, abs(rhs)
                    )

    def test_zero_translates(self, tau_i):
        xi, t = tau_i.xi, tau_i.tau
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                val = theta(xi + m + n * t, tau_i)
                # undo the quasi-periodicity factor of the tau-shift
                unshifted = val * e_of(n * n * t / 2 + n * (xi + m))
                assert abs(unshifted) < 1e-9

    def test_shells_used_bounded(self, tau_i):
        # the box is centred on the largest term, so R is set by the Gaussian
        # width, not by alpha: e^(-pi (R^2 - R)) falls below 1e-12 at R = 4
        for z in (0.3 + 0.2j, 0.3 + 6.2j, 0.3 - 7.9j):
            trace = []
            theta(z, tau_i, trace=trace)
            (tr,) = trace
            assert tr.radius == 4 and tr.stop == "tail bound"
            assert tr.terms == tr.terms_in_cone == 2 * tr.radius + 1
            assert tr.ring < DEFAULT_BUDGET.target_tol


class TestThetaScaled:
    def test_identity_scale(self, tau_i):
        z = 0.3 + 0.11j
        assert theta(z, tau_i.scaled(1)) == theta(z, tau_i)

    def test_frozen_value(self, tau_i):
        # direct oracle: sum_n exp(-2 pi n^2) = 1 + 2 e^{-2pi} + 2 e^{-8pi} + ...
        oracle = sum(math.exp(-2 * math.pi * n * n) for n in range(-6, 7))
        assert abs(oracle - THETA_0_2I) < 1e-15
        assert abs(theta(0, tau_i.scaled(2)) - THETA_0_2I) < 1e-12

    def test_no_zero_at_tau_half_period(self, tau_i):
        assert abs(theta(tau_i.xi, tau_i.scaled(2))) > 1e-3
        # the zero of theta(., 2 tau) sits at (2 tau + 1)/2 instead
        assert abs(theta((2j + 1) / 2, tau_i.scaled(2))) < 1e-10


class TestThetaPrime:
    def test_odd_at_origin(self, tau_generic):
        assert abs(theta_prime(0, tau_generic)) < 1e-12

    def test_finite_difference(self, tau_generic):
        z = 0.21 + 0.13j
        h = 1e-5
        fd = (theta(z + h, tau_generic) - theta(z - h, tau_generic)) / (2 * h)
        assert abs(fd - theta_prime(z, tau_generic)) < 1e-8

    def test_eta_product_at_i(self, tau_i):
        q = tau_i.q
        prod = 1.0
        for n in range(1, 51):
            prod *= (1 - q**n) ** 3
        lhs = theta_prime(tau_i.xi, tau_i) / TWO_PI_I
        assert abs(lhs - prod) < 1e-12


class TestEtaCubedConstant:
    def test_matches_theta_prime(self, tau_i, tau_generic):
        for tau, tol in ((tau_i, 1e-12), (tau_generic, 1e-10)):
            lhs = theta_prime(tau.xi, tau) / TWO_PI_I
            assert abs(lhs - eta_cubed_constant(tau)) < tol

    def test_large_im_tau_limit(self):
        assert abs(eta_cubed_constant(Modulus(40j)) - 1) < 1e-12

    def test_frozen_value_at_i(self, tau_i):
        assert abs(eta_cubed_constant(tau_i) - 0.994397704367004) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-1, 1), st.floats(-0.8, 0.8))
def test_theta_even_property(re, im):
    tau = Modulus(0.3 + 0.9j)
    z = complex(re, im)
    assert abs(theta(z, tau) - theta(-z, tau)) < 1e-11


@settings(max_examples=20, deadline=None)
@given(st.floats(-1, 1), st.floats(-0.5, 0.5))
def test_theta_periodicity_property(re, im):
    tau = Modulus(1j)
    z = complex(re, im)
    assert abs(theta(z + 1, tau) - theta(z, tau)) < 1e-11
