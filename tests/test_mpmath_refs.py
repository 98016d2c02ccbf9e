"""Property tests against references computed in mpmath, apart from klab.

theta and theta' come from ``mpmath.jtheta``, f from its theta-quotient
closed form, kappa, g0 and g from direct sums at 30 digits (for the
cone series g, the sum over one index is geometric and done in closed
form), h and h0 from direct cone sums at 30 digits, psi from
theta(x - xi) h0(x, -x), and the eta product from ``mpmath.qp``.  Inputs cover Im(tau) in [0.1, 3],
|Re(tau)| <= 1 and alpha in [-8, 8], with alpha-margins down to 1e-6 from
the integers.  The property: every call returns a value within 1e-10 of
the reference, relative, or raises a typed EvalError; it never returns a
silently wrong value.

Two limits of floating point shape the tolerance.  Near a zero, where the
series cancels, no sum is relatively accurate, so the tolerance also allows
1e-11 of the series' absolute sum, the sum of the moduli of its terms
(klab's budget promises 1e-12 of the largest term).  And within d of a pole
the value is only known to about 1e-16 / d relative, so arguments within
1e-5 of a pole are not drawn; klab raises PoleProximity within 1e-9.
"""
import math

import mpmath
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

import pytest

from klab import (
    EvalError,
    Modulus,
    eta_cubed_constant,
    f_series,
    g0,
    g_series,
    h0_series,
    h_series,
    kappa,
    psi_closed,
    theta,
    theta_prime,
)

mpmath.mp.dps = 30
REL_TOL = 1e-10
#: share of the absolute series allowed where the value cancels
ABS_SHARE = 1e-11
#: nats of Gaussian decay past which a direct reference sum is cut
DECAY = 40 * math.log(10)


def e(x):
    return mpmath.expjpi(2 * x)


def jtheta(z, tau, derivative=0):
    """theta(z) = jtheta(3, pi z, e(tau/2)), or its z-derivative."""
    value = mpmath.jtheta(3, mpmath.pi * z, e(tau / 2), derivative)
    return value * mpmath.pi if derivative else value


def direct_sum(term, centre, tau, reach=0.0):
    """Sum term(n) over the integers within ``reach`` plus the Gaussian width
    of ``centre``, exp(-pi Im(tau) (n - centre)^2) decaying by DECAY, and
    check that the two end terms are below 1e-30 of the absolute sum.
    Returns the sum and the absolute sum."""
    width = math.ceil(math.sqrt(DECAY / (math.pi * tau.imag)) + reach) + 2
    lo, hi = math.floor(centre) - width, math.ceil(centre) + width
    terms = [term(n) for n in range(lo, hi + 1)]
    scale = mpmath.fsum(abs(x) for x in terms)
    assert abs(terms[0]) + abs(terms[-1]) <= 1e-30 * scale
    return mpmath.fsum(terms), float(scale)


def theta_reference(z, tau, derivative=0):
    """(theta or theta' from jtheta, the absolute series)."""
    a = float(mpmath.im(z) / mpmath.im(tau))
    factor = (lambda n: 2 * math.pi * abs(n)) if derivative else (lambda n: 1)
    _, scale = direct_sum(lambda n: factor(n) * mpmath.exp(-mpmath.pi * tau.imag * n * (n + 2 * a)),
                          -a, tau)
    return jtheta(z, tau, derivative), scale


def g0_reference(z1, z2, tau):
    a = mpmath.im(z1 + z2) / mpmath.im(tau)
    return direct_sum(lambda m: e(m * m * tau / 2 + m * (z1 + z2)) / (1 - e(m * tau + z2)),
                      float(-a), tau)


def kappa_reference(y, x, tau):
    a = mpmath.im(x) / mpmath.im(tau)
    return direct_sum(lambda n: e(tau * n * n / 2 + n * x) / (e(n * tau) - e(y)), float(-a), tau)


def cone_scale(s, quad, lin, a_u, a_v):
    """Absolute sum of the quadrant series of e(quad m^2 + lin m) |x_m|^n over
    u v > 0, u = m + a_u, v = n + a_v, |x_m| = exp(-2 pi s u), with the sum
    over n done in closed form: in floats, over the m where it matters, out
    to a Gaussian decay of e^-60 or, without one, a geometric decay at the
    rate of a_v's distance to the integers."""
    if quad > 0:
        reach = math.sqrt(60 / (math.pi * s)) + abs(lin) / (2 * quad)
    else:
        reach = 60 / (2 * math.pi * s * max(abs(a_v - round(a_v)), 1e-4))
    half = math.ceil(abs(a_u) + reach) + 10
    m = np.arange(-half, half + 1, dtype=float)
    u = m + a_u
    log_x = -2 * math.pi * s * u
    n0 = math.floor(-a_v) + 1  # the least n with v > 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        geo = np.where(u > 0, n0 * log_x - np.log1p(-np.exp(log_x)),
                       (n0 - 1) * log_x - np.log1p(-np.exp(-log_x)))
        return float(np.sum(np.exp(-2 * math.pi * (quad * m * m + lin * m) + geo)))


def f_reference(z1, z2, tau):
    xi = (tau + 1) / 2
    const = jtheta(xi, tau, 1) / (2j * mpmath.pi)
    value = const * jtheta(z1 + z2 - xi, tau) / (jtheta(z1 - xi, tau) * jtheta(z2 - xi, tau))
    # the cone series of |e(m n tau + n z1 + m z2)| is symmetric in the two
    # arguments; it is summed over m with v = n + alpha the farther from Z
    s = float(tau.imag)
    a1, a2 = (float(mpmath.im(z) / tau.imag) for z in (z1, z2))
    if abs(a1 - round(a1)) > abs(a2 - round(a2)):
        a1, a2 = a2, a1
    return value, cone_scale(s, 0.0, s * a2, a1, a2)


def g_reference(z1, z2, tau):
    """The cone series of sign(m + alpha(z2)) e(m^2 tau/2 + m(z1 + z2) + n(m tau + z2))
    over (n + alpha(z1))(m + alpha(z2)) > 0, summed over m directly and over
    n, a geometric series in x_m = e(m tau + z2), in closed form."""
    a1, a2 = (float(mpmath.im(z) / tau.imag) for z in (z1, z2))
    n0 = math.floor(-a1) + 1  # the least n with n + alpha(z1) > 0

    def term(m):
        x = e(m * tau + z2)
        base = e(m * m * tau / 2 + m * (z1 + z2))
        if m + a2 > 0:
            return base * x ** n0 / (1 - x)  # n >= n0
        return -base * x ** (n0 - 1) / (1 - 1 / x)  # n <= n0 - 1

    return direct_sum(term, -(a1 + a2), tau, abs(a1) + abs(a2))


def quadrant_reference(z1, z2, tau, frozen):
    """h, or h0 if ``frozen``, as a direct sum at 30 digits, and its absolute
    series: sign(u) e(tau/2 Q(m, n) + 2 (m + n) z1 + (2 m + n) z2) over
    u v > 0, Q = 2 m^2 + 4 m n + n^2, (u, v) = (m, n) + (alpha(z1), alpha(z2))
    or, frozen, (m, n) + (1/2, 1/2).  The terms' log-moduli are found in
    floats over a box about the apex, grown until its outer ring is DECAY
    below the largest; the terms within DECAY of the largest are summed."""
    s = float(tau.imag)
    a1, a2 = (float(mpmath.im(z) / tau.imag) for z in (z1, z2))
    s1, s2 = (0.5, 0.5) if frozen else (a1, a2)
    c1, c2 = round(-s1), round(-s2)
    radius = 8
    while True:
        side = np.arange(-radius, radius + 1)
        m, n = np.meshgrid(side + c1, side + c2, indexing="ij")
        u, v = m + s1, n + s2
        log_mod = -2 * math.pi * (s * (m * m + 2 * m * n + n * n / 2)
                                  + 2 * (m + n) * a1 * s + (2 * m + n) * a2 * s)
        log_mod = np.where(u * v > 0, log_mod, -np.inf)
        top = log_mod.max()
        ring = np.maximum(np.abs(m - c1), np.abs(n - c2)) == radius
        if log_mod[ring].max() < top - DECAY:
            break
        radius *= 2
    keep = np.argwhere(log_mod >= top - DECAY)
    terms = [math.copysign(1, u[i, j]) * e(tau / 2 * (2 * mm * mm + 4 * mm * nn + nn * nn)
                                            + 2 * (mm + nn) * z1 + (2 * mm + nn) * z2)
             for i, j in keep.tolist() for mm, nn in [(int(m[i, j]), int(n[i, j]))]]
    return mpmath.fsum(terms), float(mpmath.fsum(abs(x) for x in terms))


def psi_reference(x, tau):
    """theta(x - xi) h0(x, -x), xi = (tau + 1) / 2, with its absolute series
    the product of the two factors' absolute series."""
    theta_value, theta_scale = theta_reference(x - (tau + 1) / 2, tau)
    h0_value, h0_scale = quadrant_reference(x, -x, tau, True)
    return theta_value * h0_value, theta_scale * h0_scale


taus = st.builds(complex, st.floats(-1, 1), st.floats(0.1, 3))


def alphas_within(bound):
    """alpha in [-bound, bound]: uniform, or within a log-uniform margin of an
    integer."""
    return st.one_of(
        st.floats(-bound, bound),
        st.builds(lambda n, side, k: n + side * 10.0 ** k, st.integers(1 - bound, bound - 1),
                  st.sampled_from([-1, 1]), st.floats(-6, math.log10(0.5))),
    )


alphas = alphas_within(8)
#: for h and h0: beyond about 3 their largest terms exceed the float range
#: at Im(tau) = 3
short_alphas = alphas_within(3)
reals = st.floats(0, 1, exclude_max=True)


def point(tau, a, b):
    return a * tau + b


def off_poles(tau, a, b):
    """Whether a * tau + b is at least 1e-5 from the lattice Z tau + Z."""
    return min(abs((a - m) * tau + b - n) for m in (math.floor(a), math.ceil(a))
               for n in (math.floor(b), math.ceil(b))) >= 1e-5


def check(call, reference):
    """A returned value is within REL_TOL of the reference, or ABS_SHARE of
    the absolute series; a typed error passes."""
    try:
        got = call()
    except EvalError:
        return
    want, scale = reference()
    want = complex(want)
    assert abs(got - want) <= REL_TOL * abs(want) + ABS_SHARE * scale, (got, want, scale)


def mp(*args):
    return [mpmath.mpc(x) for x in args]


@settings(max_examples=60)
@given(taus, alphas, reals)
def test_theta(tau, a, b):
    z = point(tau, a, b)
    check(lambda: theta(z, Modulus(tau)), lambda: theta_reference(*mp(z, tau)))


@settings(max_examples=60)
@given(taus, alphas, reals)
def test_theta_prime(tau, a, b):
    z = point(tau, a, b)
    check(lambda: theta_prime(z, Modulus(tau)), lambda: theta_reference(*mp(z, tau), 1))


@settings(max_examples=60)
@given(taus, alphas, reals, alphas, reals)
def test_kappa(tau, a1, b1, a2, b2):
    assume(off_poles(tau, a1, b1))
    y, x = point(tau, a1, b1), point(tau, a2, b2)
    check(lambda: kappa(y, x, Modulus(tau)), lambda: kappa_reference(*mp(y, x, tau)))


@settings(max_examples=60)
@given(taus, alphas, reals, alphas, reals)
def test_g0(tau, a1, b1, a2, b2):
    assume(off_poles(tau, a2, b2))
    z1, z2 = point(tau, a1, b1), point(tau, a2, b2)
    check(lambda: g0(z1, z2, Modulus(tau)), lambda: g0_reference(*mp(z1, z2, tau)))


@settings(max_examples=60)
@given(taus, alphas, reals, alphas, reals)
# every term is below the normal range of doubles, so the value has few digits
@example(-0.52 + 2.42j, 7 - 1e-6, 0.85, -6.9, 0.04)
# both parts are below the float maximum but the modulus is above it
@example(2.268951334798859j, 6.999, 0.0625, 7.10366329284377, 0.125)
def test_f(tau, a1, b1, a2, b2):
    assume(off_poles(tau, a1, b1) and off_poles(tau, a2, b2))
    z1, z2 = point(tau, a1, b1), point(tau, a2, b2)
    check(lambda: f_series(z1, z2, Modulus(tau)), lambda: f_reference(*mp(z1, z2, tau)))


@settings(max_examples=60)
@given(taus, alphas, reals, alphas, reals)
def test_g(tau, a1, b1, a2, b2):
    assume(off_poles(tau, a2, b2))
    z1, z2 = point(tau, a1, b1), point(tau, a2, b2)
    check(lambda: g_series(z1, z2, Modulus(tau)), lambda: g_reference(*mp(z1, z2, tau)))


@settings(max_examples=30, deadline=None)
@given(taus, short_alphas, reals, short_alphas, reals)
def test_h(tau, a1, b1, a2, b2):
    z1, z2 = point(tau, a1, b1), point(tau, a2, b2)
    check(lambda: h_series(z1, z2, Modulus(tau)),
          lambda: quadrant_reference(*mp(z1, z2, tau), False))


@settings(max_examples=30, deadline=None)
@given(taus, short_alphas, reals, short_alphas, reals)
def test_h0(tau, a1, b1, a2, b2):
    z1, z2 = point(tau, a1, b1), point(tau, a2, b2)
    check(lambda: h0_series(z1, z2, Modulus(tau)),
          lambda: quadrant_reference(*mp(z1, z2, tau), True))


@settings(max_examples=30, deadline=None)
@given(taus, alphas, reals)
def test_psi(tau, a, b):
    x = point(tau, a, b)
    check(lambda: psi_closed(x, Modulus(tau)), lambda: psi_reference(*mp(x, tau)))


@pytest.mark.parametrize("tau", [0.3 + 0.12j, 0.2 + 0.1j, 0.3 + 0.15j, 0.5 + 0.1j, 1j])
def test_eta_product(tau):
    # within the eta-const suite's absolute tolerance, also where |product| > 1
    q = e(mpmath.mpc(tau))
    assert abs(eta_cubed_constant(Modulus(tau)) - complex(mpmath.qp(q, q) ** 3)) < 1e-12
