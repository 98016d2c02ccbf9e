"""Tests of the benchmark's own references, each against a second route.

    python3 -m pytest -q bench

A wrong reference shows up here as a failing test rather than as failing
operations in a workload.
"""
import json
import os
import sys
from fractions import Fraction

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import references as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from klab import LineOnTorus, Modulus, polygon_oracle  # noqa: E402

POINTS = [  # (tau, z1, z2): alpha(z1) in each window, alpha(z2) in (0, 1)
    (complex(0.2, 1.0), complex(0.3, -0.6), complex(0.7, 0.45)),
    (complex(-0.3, 0.6), complex(0.1, 0.21), complex(0.4, 0.33)),
    (complex(0.1, 1.3), complex(0.8, 1.69), complex(0.2, 0.52)),
]


def near(a, b, digits=25):
    return abs(a - b) <= mpmath.mpf(10) ** -digits * max(1, abs(b))


def theta_sum(z, tau, derivative=False):
    """theta (or theta') as a direct sum over n."""
    z, t = ref._c(z), ref._c(tau)

    def term(n):
        w = ref.e(t * n * n / 2 + n * z)
        return 2j * mpmath.pi * n * w if derivative else w

    return ref._sum_1d(term, ref._alpha(z, tau), tau)


def f_double_sum(z1, z2, tau, radius):
    """The defining cone series of f over |m|, |n| <= radius; the cone edges
    decay only geometrically, at the alpha-margin rate."""
    a1, a2 = z1.imag / tau.imag, z2.imag / tau.imag
    w1, w2, t = ref._c(z1), ref._c(z2), ref._c(tau)
    terms = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            s = a1 + m
            if s * (a2 + n) > 0:
                terms.append((1 if s > 0 else -1) * ref.e(t * m * n + n * w1 + m * w2))
    return mpmath.fsum(terms)


def g_double_sum(z1, z2, tau, radius):
    """The defining trapezoid series of g, summed directly."""
    a1, a2 = z1.imag / tau.imag, z2.imag / tau.imag
    w1, w2, t = ref._c(z1), ref._c(z2), ref._c(tau)
    terms = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            s = m + a2
            if (n + a1) * s > 0:
                terms.append((1 if s > 0 else -1)
                             * ref.e((n + mpmath.mpf(m) / 2) * m * t + m * w1 + (m + n) * w2))
    return mpmath.fsum(terms)


@pytest.mark.parametrize("tau,z1,z2", POINTS)
def test_theta_jtheta_matches_direct_sum(tau, z1, z2):
    assert near(ref.theta(z1, tau), theta_sum(z1, tau))
    assert near(ref.theta_prime(z1, tau), theta_sum(z1, tau, derivative=True))


@pytest.mark.parametrize("tau,z1,z2", POINTS)
def test_f_closed_form_matches_double_sum(tau, z1, z2):
    # the cone edges decay like exp(-2 pi Im(tau) margin k): 60 shells give
    # more than 25 digits at these margins
    assert near(ref.f_closed(z1, z2, tau), f_double_sum(z1, z2, tau, 60), 20)


@pytest.mark.parametrize("tau,z1,z2", POINTS)
def test_g_bridge_matches_double_sum(tau, z1, z2):
    assert near(ref.g_series(z1, z2, tau), g_double_sum(z1, z2, tau, 60), 20)


@pytest.mark.parametrize("tau,z1,z2", POINTS)
def test_kappa_difference_equation(tau, z1, z2):
    # kappa(y, x + 1 + tau) = e(y) kappa(y, x) + theta(x)
    y, x = z2, ref._c(z1)
    lhs = ref.kappa(y, x + 1 + ref._c(tau), tau)
    rhs = ref.e(ref._c(y)) * ref.kappa(y, x, tau) + ref.theta(x, tau)
    assert near(lhs, rhs)


@pytest.mark.parametrize("tau,z1,z2", POINTS)
def test_h_quasi_periodicity(tau, z1, z2):
    # h(z1 + 1 + tau, z2) = e(-tau - 2 z1 - 2 z2) h(z1, z2)
    t, w1, w2 = ref._c(tau), ref._c(z1), ref._c(z2)
    lhs = ref.h_series(w1 + 1 + t, z2, tau)
    assert near(lhs, ref.e(-t - 2 * w1 - 2 * w2) * ref.h_series(z1, z2, tau))


def test_h0_agrees_with_h_in_the_unit_window():
    tau, z1, z2 = POINTS[1]
    assert near(ref.h0_series(z1, z2, tau), ref.h_series(z1, z2, tau))


def test_psi_difference_equation():
    # psi(x + tau) = e(xi) psi(x) + e(tau/2) theta(x) theta(x - xi)
    #                + theta(0, 2 tau) theta(x + xi)
    tau, x = complex(0.1, 0.9), ref._c(complex(0.35, 0.3))
    t = ref._c(tau)
    xi = (t + 1) / 2
    rhs = (ref.e(xi) * ref.psi(x, tau)
           + ref.e(t / 2) * ref.theta(x, tau) * ref.theta(x - xi, tau)
           + ref.theta(0, 2 * t) * ref.theta(x + xi, tau))
    assert near(ref.psi(x + t, tau), rhs)


def test_ring_check_widens_a_box_that_is_too_small():
    # the a-priori box follows Im(tau) = 50, the terms decay at Im = 0.05:
    # only the ring check can bring the sums to the right value
    slow = mpmath.mpf("0.05")
    exact_1d = mpmath.jtheta(3, 0, mpmath.exp(-2 * mpmath.pi * slow / 2))
    term = lambda n: mpmath.exp(-mpmath.pi * slow * n * n)
    assert near(ref._sum_1d(term, 0.0, complex(0, 50)), exact_1d)
    exponent = lambda m, n, prec: 1j * slow * (m * m + n * n) if prec else 0.05j * (m * m + n * n)
    total = ref._sum_2d(lambda m, n: 1, exponent, complex(0, 50))
    assert near(total, mpmath.jtheta(3, 0, mpmath.exp(-2 * mpmath.pi * slow)) ** 2)


def test_oracle_ring_check_rejects_a_small_radius():
    lines = [LineOnTorus(Fraction(s), y, b) for s, y, b in
             ((0, 0.05, 0.1), (2, -0.21, 0.3), (-1, 0.12, 0.7), (1, 0.33, 0.2))]
    tau = Modulus(0.2j)
    with pytest.raises(ref.TruncationError):
        ref.oracle_points(polygon_oracle, lines, tau, radii=(2, 4))
    points, radius = ref.oracle_points(polygon_oracle, lines, tau)
    assert points and radius > 2


def test_point_matching_merges_by_distance():
    # two labels of one torus point, 1e-7 apart in x: 6-digit bins would
    # split them, distance matching must not
    ours = [((0.3608125, 0.5), 1.0)]
    theirs = [((0.3608125 + 1e-12, 0.5), 1.0)]
    assert ref.point_gap(ours, theirs) == 0.0
    assert ref.point_gap(ours, []) == 1.0


def test_verify_check_recomputes_residuals():
    sample = {"point": [0], "lhs": [1.0, 0.0], "rhs": [1.0, 0.0], "residual": 0.0}
    payload = {"identity_id": "kronecker", "tolerance": 1e-9, "skipped": 0,
               "samples": [sample]}
    assert workloads.verify_check((0, payload), None)[0]
    bad = dict(sample, lhs=[1.0 + 1e-6, 0.0])  # a residual the suite did not report
    assert not workloads.verify_check((0, dict(payload, samples=[bad])), None)[0]
    assert not workloads.verify_check((0, dict(payload, skipped=1)), None)[0]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
