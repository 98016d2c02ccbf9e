"""Reference values computed apart from klab.

The special functions are evaluated in mpmath at ``DPS`` digits, by routes
that share no code with the package: ``mpmath.jtheta`` for theta and theta',
the theta-quotient closed form for f, and direct lattice sums for kappa, g0,
h and h0.  Every direct sum is truncated a priori from the Gaussian decay of
its terms and then checked: the outermost ring of the truncation box must
contribute below ``RING_TOL`` of the sum, otherwise the box is doubled.

The triple composition is checked against ``klab.fukaya.polygon_oracle``
(plane geometry only) at a lift radius whose outer ring is shown to
contribute below tolerance, and the two results are matched by the distance
between their output points, not by rounded bins.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

DPS = 32
#: Share of the sum that the outermost ring of a direct sum may contribute.
RING_TOL = mpf(10) ** -30
#: Nats of decay below the largest term at which a Gaussian sum is cut.
_DECAY = (DPS + 6) * math.log(10)

mp.dps = DPS


def _c(z) -> mpc:
    """An mpmath complex; Python numbers are taken exactly as given."""
    return mpc(z) if isinstance(z, (mpc, mpf)) else mpc(complex(z))


def e(x):
    """exp(2 pi i x) in mpmath."""
    return mpmath.expjpi(2 * x)


def _alpha(z, tau) -> float:
    return float(_c(z).imag / _c(tau).imag)


class TruncationError(RuntimeError):
    """A reference sum whose outer ring did not fall below tolerance."""


# --- theta ---------------------------------------------------------------

def theta(z, tau):
    """sum_n e(tau n^2/2 + n z) as jtheta(3, pi z, e(tau/2))."""
    return mpmath.jtheta(3, mpmath.pi * _c(z), e(_c(tau) / 2))


def theta_prime(z, tau):
    """d/dz of theta: pi * jtheta'(3, pi z, e(tau/2))."""
    return mpmath.pi * mpmath.jtheta(3, mpmath.pi * _c(z), e(_c(tau) / 2), 1)


# --- 1-D and 2-D direct sums -----------------------------------------------

def _radius(center: float, tau) -> int:
    """Half-width covering exp(-_DECAY) of a Gaussian exp(-pi Im(tau) n^2)
    centred within ``center`` of the origin."""
    width = math.sqrt(_DECAY / (math.pi * complex(tau).imag))
    return int(math.ceil(abs(center) + width)) + 2


def _sum_1d(term, center: float, tau):
    """Sum term(n) over |n| < N, N from _radius, with a check on the ring |n| = N."""
    n_max = _radius(center, tau)
    while True:
        total = mpmath.fsum(term(n) for n in range(-n_max + 1, n_max))
        ring = term(-n_max) + term(n_max)
        if abs(ring) <= RING_TOL * max(abs(total), mpf(10) ** -300):
            return total + ring
        n_max *= 2
        if n_max > 4096:
            raise TruncationError("1-D reference sum did not converge")


def _sum_2d(sign, exponent, tau, reach: float = 0.0):
    """Sum sign(m, n) * e(exponent(m, n)) over the box |m|, |n| <= R.

    ``sign`` is 0 outside the summation cone.  ``exponent(m, n, prec)`` gives
    the exponent in floating point (prec=False), used only to bound term
    moduli, or in mpmath (prec=True).  Terms more than exp(-_DECAY) below the
    largest are bounded instead of summed; the bound on them plus the modulus
    of the outermost ring must stay below RING_TOL of the sum, otherwise the
    box is doubled.
    """
    r = _radius(reach, tau)
    while r <= 512:
        terms = []
        for m in range(-r, r + 1):
            for n in range(-r, r + 1):
                s = sign(m, n)
                if s:
                    log_mod = -2 * math.pi * exponent(m, n, False).imag
                    terms.append((log_mod, m, n, s))
        top = max(t[0] for t in terms)
        kept = [t for t in terms if t[0] > top - _DECAY]
        dropped = sum(math.exp(t[0] - top) for t in terms if t[0] <= top - _DECAY)
        ring = sum(math.exp(t[0] - top) for t in terms if max(abs(t[1]), abs(t[2])) == r)
        total = mpmath.fsum(s * e(exponent(m, n, True)) for _, m, n, s in kept)
        if (dropped + ring) * math.exp(top) <= RING_TOL * abs(total):
            return total
        r *= 2
    raise TruncationError("2-D reference sum did not converge")


# --- Kronecker f -----------------------------------------------------------

def f_closed(z1, z2, tau):
    """theta'(xi)/(2 pi i) * theta(z1+z2-xi) / (theta(z1-xi) theta(z2-xi))."""
    z1, z2, t = _c(z1), _c(z2), _c(tau)
    xi = (t + 1) / 2
    const = theta_prime(xi, t) / (2j * mpmath.pi)
    return const * theta(z1 + z2 - xi, t) / (theta(z1 - xi, t) * theta(z2 - xi, t))


# --- Appell-type sums ------------------------------------------------------

def kappa(y, x, tau):
    """sum_n e(tau n^2/2 + n x) / (e(n tau) - e(y)), summed directly."""
    y, x, t = _c(y), _c(x), _c(tau)
    ey = e(y)
    return _sum_1d(
        lambda n: e(t * n * n / 2 + n * x) / (e(n * t) - ey), _alpha(x, tau), tau
    )


def g0(z1, z2, tau):
    """sum_m e(m^2 tau/2 + m(z1+z2)) / (1 - e(m tau + z2)), summed directly."""
    z1c, z2c, t = _c(z1), _c(z2), _c(tau)
    center = _alpha(complex(z1) + complex(z2), tau)
    return _sum_1d(
        lambda m: e(m * m * t / 2 + m * (z1c + z2c)) / (1 - e(m * t + z2c)),
        abs(center) + abs(_alpha(z2, tau)),
        tau,
    )


def p_correction(z, tau):
    """The finite window sum p(z): minus the terms 0 < n <= alpha(z) for
    alpha(z) >= 0, plus the terms alpha(z) < n <= 0 otherwise."""
    a = _alpha(z, tau)
    zc, t = _c(z), _c(tau)
    term = lambda n: e(-t * n * n / 2 + n * zc)
    if a >= 0:
        return -mpmath.fsum(term(n) for n in range(1, math.floor(a) + 1))
    return mpmath.fsum(term(n) for n in range(math.floor(a) + 1, 1))


def g0_minus_g(z1, z2, tau):
    return p_correction(z1, tau) * theta(_c(z1) + _c(z2), tau)


def g_series(z1, z2, tau):
    """g by the bridge g = g0 - p(z1) theta(z1 + z2)."""
    return g0(z1, z2, tau) - g0_minus_g(z1, z2, tau)


# --- rank-2 series ---------------------------------------------------------

def _h_sum(z1, z2, tau, a1: float, a2: float):
    """The rank-2 summand of h over the cone (m + a1)(n + a2) > 0."""
    args = {False: (complex(z1), complex(z2), complex(tau)), True: (_c(z1), _c(z2), _c(tau))}

    def sign(m, n):
        s = m + a1
        return 0 if s * (n + a2) <= 0 else (1 if s > 0 else -1)

    def exponent(m, n, prec):
        w1, w2, t = args[prec]
        return t / 2 * (2 * m * m + 4 * m * n + n * n) + 2 * (m + n) * w1 + (2 * m + n) * w2

    # inside the cone 2m^2 + 4mn + n^2 >= m^2 + n^2 up to the alpha shifts,
    # so the terms decay like exp(-pi Im(tau) |(m, n)|^2) past a centre
    # displaced by the linear part; the ring check certifies the box
    shift = 3 * (abs(_alpha(z1, tau)) + abs(_alpha(z2, tau)))
    return _sum_2d(sign, exponent, tau, reach=shift)


def h_series(z1, z2, tau):
    """Cone sum over (m + alpha(z1))(n + alpha(z2)) > 0, summed directly."""
    return _h_sum(z1, z2, tau, _alpha(z1, tau), _alpha(z2, tau))


def h0_series(z1, z2, tau):
    """The same summand over the frozen cone (m + 1/2)(n + 1/2) > 0."""
    return _h_sum(z1, z2, tau, 0.5, 0.5)


def psi(x, tau):
    """psi(x) = theta(x - xi) h0(x, -x), from the direct h0 sum."""
    t = _c(tau)
    xi = (t + 1) / 2
    return theta(_c(x) - xi, tau) * h0_series(x, -_c(x), tau)


# --- triple composition ----------------------------------------------------

#: Absolute tolerance, relative to max(1, largest coefficient), within which
#: the series and the oracle must agree at every output point.
M3_TOL = 1e-9
#: The oracle's outer ring (radius r to r + 2) must move no point by more.
ORACLE_RING_TOL = 1e-12
ORACLE_RADII = (4, 6, 8, 10, 12, 14)


def _torus_gap(p, q) -> float:
    return max(abs((a - b + 0.5) % 1.0 - 0.5) for a, b in zip(p, q))


def output_points(result, line_first, line_last) -> list:
    """[(point, total coefficient)] with aliases of one torus point merged.

    A label (a, b) names the crossing of the first line with the lift
    a * slope + b of the last line, recomputed here from the line equations
    t = slope * x - y; points closer than 1e-9 on the torus are merged.
    """
    l1, l4 = float(line_first.slope), float(line_last.slope)
    y1, y4 = line_first.shift_y, line_last.shift_y
    merged: list = []
    for (a, b), value in result.coefficients.items():
        x = (y4 - y1 + a * l4 + b) / (l4 - l1)
        point = (x % 1.0, (l1 * x - y1) % 1.0)
        total = result.sign * result.prefactor * value
        for entry in merged:
            if _torus_gap(entry[0], point) < 1e-9:
                entry[1] += total
                break
        else:
            merged.append([point, total])
    return merged


def point_gap(ours: list, theirs: list) -> float:
    """Largest coefficient difference over the union of output points."""
    gap = 0.0
    matched = set()
    for point, value in ours:
        other = 0.0
        for j, (q, w) in enumerate(theirs):
            if _torus_gap(point, q) < 1e-9:
                other += w
                matched.add(j)
        gap = max(gap, abs(value - other))
    for j, (_, w) in enumerate(theirs):
        if j not in matched:
            gap = max(gap, abs(w))
    return gap


def degree_condition(slopes) -> bool:
    """True when m3 of lines with these slopes can be nonzero:
    deg(1,2) + deg(2,3) + deg(3,4) = deg(1,4) + 1, with deg(a, b) = 0 iff a < b."""
    deg = lambda a, b: 0 if a < b else 1
    s = [Fraction(x) for x in slopes]
    return deg(s[0], s[1]) + deg(s[1], s[2]) + deg(s[2], s[3]) == deg(s[0], s[3]) + 1


def oracle_points(oracle, lines, tau, radii=ORACLE_RADII):
    """Output points of the polygon oracle at the first radius whose outer
    ring (radius r to r + 2) moves no point by more than ORACLE_RING_TOL.

    Returns (points, radius).  Raises TruncationError when no radius in
    ``radii`` passes.
    """
    prev = None
    for r in radii:
        pts = output_points(oracle(lines, tau, radius=r), lines[0], lines[3])
        if prev is not None and point_gap(pts, prev) <= ORACLE_RING_TOL:
            return prev, r - 2
        prev = pts
    raise TruncationError(f"oracle ring still contributes at radius {radii[-1]}")
