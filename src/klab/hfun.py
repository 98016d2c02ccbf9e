"""The rank-2 indefinite series h, its absolutely convergent restriction h0,
and the closed form for psi(x) = theta(x - xi) h0(x, -x); all elementwise on
numpy arrays.

The form of h and h0, Q(m, n) = 2 m^2 + 4 m n + n^2, has signature (1, 1):
with k = m + n it is 2 k^2 - n^2, and the cone (m + s1)(n + s2) > 0 holds a
finite window of n on each line of k, one end of which is fixed.  So each is
a 1-D series over k, a term a Gaussian in k times a running sum over its
window (Zwegers, Mock theta functions, 2002), summed in Python numbers at
every radius, or in numpy for a batch.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .appell import _kappa_record
from .core import (
    DEFAULT_BUDGET, TWO_PI_I, DomainError, Envelope, Modulus, SummationBudget, _NUMBERS, e_of,
    evaluate, finite, lattice_sum, reduce_real, reject_integer_shifts, sum_series,
)
from .theta import _constant


def _q(m: float, n: float) -> float:
    """The form of h and h0, 2 (m + n)^2 - n^2."""
    return 2 * m * m + 4 * m * n + n * n


#: Largest rise, in nats, of the log-scale within one block of a running sum:
#: a block's terms are summed relative to its largest, so the least kept one
#: is about e^-600 times the largest at its end, a normal float.
_SPAN = 600.0
#: Largest amount, in nats, by which a Python running sum's terms may exceed
#: its scale before it is rescaled.
_RISE = 30.0


def _running(w: np.ndarray) -> tuple:
    """Running sums of e^w along each row, outward from its first entry, as
    (scaled, scale): the sum up to t is scaled[t] e^scale[t], where scale[t]
    = max(Re w[0], Re w[t]) is the log-modulus of its largest term for a
    convex Re w, so |scaled| <= t + 1 and no sum overflows.  Summed in
    blocks whose scale rises by at most _SPAN."""
    scale = np.maximum(w.real, w.real[:, :1])
    scaled = np.empty_like(w)
    n = w.shape[1]
    start = 0
    while start < n:
        stop = n
        if max((scale[:, -1] - scale[:, start]).tolist()) > _SPAN:
            rise = np.maximum.reduce(scale[:, start:] - scale[:, start:start + 1], axis=0)
            stop = start + int(np.argmax(rise > _SPAN))
        level = scale[:, stop - 1:stop]
        block = np.cumsum(np.exp(w[:, start:stop] - level), axis=1)
        if start:
            block += scaled[:, start - 1:start] * np.exp(scale[:, start - 1:start] - level)
        scaled[:, start:stop] = block * np.exp(level - scale[:, start:stop])
        start = stop
    return scaled, scale


class _Windows(NamedTuple):
    """h's or h0's series over k as data for ``lattice_sum``, summed alone in
    Python numbers (``short_terms``) or stacked, a batch's numpy term: at k
    = centre + j the term is e^(E(j)) S(j + offset), E(j) = (e2 j + e1) j +
    e0 and S(x) the sum of e^((g2 i + g1) i) over 0 <= i < x, or minus that
    over x <= i < 0.  i counts n from the window's fixed end, so each S is one
    running sum outward and no two are subtracted; it is kept as S e^-s, s
    the log-modulus of its largest term, and e^(E + s) is the window's
    largest term, so that neither factor overflows where the term does not."""

    e2: complex
    e1: complex
    e0: complex
    g2: complex
    g1: complex
    offset: int

    def __call__(self, k: np.ndarray, members=slice(None)) -> tuple:
        """The terms of a stacked record at the integers k, a row per one of
        ``members``, and the number of (k, n) points each sums."""
        e2, e1, e0, g2, g1, offset = (f[members, None] if type(f) is np.ndarray else f
                                      for f in self)
        # an inner sequence per row, also where all rows share z2
        offset, g1 = offset.astype(int), g1 + np.zeros(offset.shape)
        x = k + offset
        lo, hi = min(int(x.min()), 0), max(int(x.max()), 0)
        i = np.arange(lo, hi)
        w = (g2 * i + g1) * i
        up, up_scale = _running(w[:, -lo:])
        down, down_scale = _running(w[:, :-lo][:, ::-1])
        empty = np.zeros((w.shape[0], 1))
        # S(x) and its scale at x - lo; S(0) = 0, and its scale -inf keeps e^E out
        scaled = np.concatenate((-down[:, ::-1], empty, up), axis=1)
        scale = np.concatenate((down_scale[:, ::-1], empty - np.inf, up_scale), axis=1)
        at = x - lo
        values = (np.exp((e2 * k + e1) * k + e0 + np.take_along_axis(scale, at, axis=1))
                  * np.take_along_axis(scaled, at, axis=1))
        return values, np.abs(x), None

    def short_terms(self, radius: int) -> tuple:
        """The terms with |k| <= radius as Python complex numbers, and the
        number of (k, n) points they sum.  Each running sum is kept as
        S e^-s with s within _RISE of the log-modulus of its largest term."""
        e2, e1, e0, g2, g1, offset = self
        exp = cmath.exp
        values = [0j] * (2 * radius + 1)  # S(0) = 0
        start = radius - offset  # values[x + start] is the term of x
        # outward from the fixed end: x = i + 1 for i >= 0, and x = i for i < 0
        for first, stop, step, near in ((0, offset + radius, 1, 0.0),
                                        (-1, offset - radius - 1, -1, (g2 - g1).real)):
            total, scale, limit = 0j, near, near + _RISE
            for i in range(first, stop, step):
                w = (g2 * i + g1) * i
                if w.real > limit:
                    total *= math.exp(scale - w.real)
                    scale, limit = w.real, w.real + _RISE
                total += step * exp(w - scale)
                at = i + 1 + first + start  # the position of x
                if 0 <= at <= 2 * radius:
                    j = at - radius
                    values[at] = exp((e2 * j + e1) * j + e0 + scale) * total
        left, right = radius - offset, radius + offset  # the sum of |x| over x = offset + j
        points = ((left * (left + 1) + right * (right + 1)) // 2 if left >= 0 <= right
                  else (2 * radius + 1) * abs(offset))
        return values, points


def _window_record(z1, z2, tau, frozen=False, on=_NUMBERS) -> tuple:
    """The set-up of the sum of sign(m + s1) e(tau/2 Q(m, n) + 2 (m + n) z1 +
    (2 m + n) z2) over (m + s1)(n + s2) > 0, s = a = (alpha(z1), alpha(z2))
    or, ``frozen``, (1/2, 1/2), as (_Windows, Envelope) (stacked, on arrays).

    With k = m + n, A = k + s1 + s2 and v = n + s2 the cone is v between 0
    and A, where sign(m + s1) = sign(A): the term of k is sign(A) e(tau k^2 +
    2 k (z1 + z2)) times the sum of e(-tau n^2 / 2 - n z2) over that window
    of n, whose end v = 0 is fixed.  A (k, n) term's log-modulus is pi Im(tau)
    (Q(a) - 2 K^2 + V^2), K = A + delta, V = n + a2 between d2 and A + d2, d =
    a - s (0 for h), delta = d1 + d2; V^2 is convex, so a window's largest
    term is at an end, where -2 K^2 + V^2 is a parabola in A of curvature 1
    (moving end) or 2 (fixed end).  The index is centred on the vertex of
    the first, and the window of k = centre + j holds |offset + j| points."""
    t = tau.tau
    a1, a2 = on.alpha(z1, tau), on.alpha(z2, tau)
    if frozen:
        s1 = s2 = 0.5
    else:
        s1, s2 = a1, a2
        reject_integer_shifts(a1, a2, on=on)
    d2 = a2 - s2
    delta = a1 - s1 + d2
    # -2 K^2 + (A + d2)^2 = d2^2 + m1 - (A - p1)^2 and -2 K^2 + d2^2 = d2^2 - 2 (A - p2)^2
    p1, p2 = d2 - 2 * delta, -delta
    m1 = p1 * p1 - 2 * delta * delta
    shift = s1 + s2
    if on is _NUMBERS and not abs(p1) < math.inf:  # round(p1) would raise OverflowError
        raise DomainError("2 (alpha(z1) + alpha(z2)) exceeds the float range")
    centre = on.round(p1 - shift)
    b1, b2 = abs(centre + shift - p1), abs(centre + shift - p2)
    fixed = on.floor(-s2) + 1  # the least n with v > 0
    offset = centre + on.floor(s1) + 1 - fixed
    c, q = math.pi * t.imag, _q(a1, a2)
    # at k = centre + j: -(j + b1)^2 <= -j^2 + 2 b1 |j| - b1^2, and -2 (j + b2)^2 is at
    # most -j^2 + 2 b1 |j| - 2 b2^2 + max(2 b2 - b1, 0)^2; the window holds |offset + j|
    # points, and log(|offset| + |j|) <= log(2 + |offset|) + (|j| - 2) / (2 + |offset|)
    count = 2 + abs(offset)
    fold = on.maximum(2 * b2 - b1, 0.0)
    peak = (on.log(count) - 2 / count
            + c * (q + d2 * d2 + on.maximum(m1 - b1 * b1, fold * fold - 2 * b2 * b2)))
    rate = -(2 * c * b1 + 1 / count)
    # top: the larger end term of the window of k = centre or, if it is empty,
    # of the one-point windows of k = centre + 1 (at v0) and centre - 1
    v0 = fixed + a2  # V at the fixed end
    low, high = v0 + on.minimum(offset, 0), v0 + on.maximum(offset, 0) - 1
    big, empty = centre + shift + delta, offset == 0  # K at k = centre
    after, before = big + empty, big - empty
    top = on.maximum(low * low - 2 * after * after, high * high - 2 * before * before)
    env = tuple.__new__(Envelope, (peak, c, rate, c * (q + top)))
    # 2 pi i times the exponents: e(tau k^2 + 2 k (z1 + z2)) at k = centre + j,
    # and e(-tau n^2 / 2 - n z2) at n = fixed + i, whose value at i = 0 joins e0
    zeta = 2 * (z1 + z2)
    e1 = TWO_PI_I * (2 * t * centre + zeta)
    e0 = TWO_PI_I * ((t * centre + zeta) * centre - (t / 2 * fixed + z2) * fixed)
    g1 = -TWO_PI_I * (t * fixed + z2)
    series = (TWO_PI_I * t, e1, e0, -math.pi * 1j * t, g1, offset)
    return tuple.__new__(_Windows, series), env


def _h0_record(z1, z2, tau, on=_NUMBERS) -> tuple:
    """The set-up of h0_series."""
    return _window_record(z1, z2, tau, True, on)


def h_series(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
             trace: list | None = None) -> complex:
    """Cone-restricted sum over (m + alpha(z1))(n + alpha(z2)) > 0 with sign(m + alpha(z1))."""
    return evaluate(_window_record, (z1, z2, tau), budget, trace)


def h0_series(z1: complex, z2: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
              trace: list | None = None) -> complex:
    """Same summand as h with the cone frozen at (m + 1/2)(n + 1/2) > 0.

    Agrees with h for 0 < alpha(z_i) < 1 and extends to an entire function
    of (z1, z2).
    """
    return evaluate(_h0_record, (z1, z2, tau), budget, trace)


def psi_closed(x: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
               trace: list | None = None) -> complex:
    """Closed form of psi(x) = theta(x - xi, tau) * h0(x, -x), xi = (tau+1)/2.

    Mixes kappa at modulus tau and 2 tau; the unique holomorphic solution of
    psi(x + tau) = e(xi) psi(x) + e(tau/2) theta(x) theta(x - xi)
    + theta(0, 2 tau) theta(x + xi).  theta(0, 2 tau) and theta(xi, 2 tau)
    are summed once per Modulus and budget (``_constant``).  A part or sum
    beyond the float range raises DomainError.
    """
    x = reduce_real(x)
    xi, tau2 = tau.xi, tau.scaled(2)
    const0 = _constant(tau, "theta(0, 2 tau)", budget, trace)
    const_xi = _constant(tau, "theta(xi, 2 tau)", budget, trace)
    # the Appell-Lerch sums of kappa(xi, x + xi) at tau and kappa(+-xi, 2 x -+ xi) at 2 tau
    if type(x) is not np.ndarray:
        sum1 = lattice_sum(*_kappa_record(xi, x + xi, tau), budget, trace)
        sum2 = lattice_sum(*_kappa_record(xi, 2 * x - xi, tau2), budget, trace)
        sum3 = lattice_sum(*_kappa_record(-xi, 2 * x + xi, tau2), budget, trace)
        return _psi(x, tau, const0, const_xi, sum1, sum2, sum3)
    ys = np.array([xi, -xi]).reshape((2,) + (1,) * x.ndim)  # the two at 2 tau one batch
    sum1 = sum_series(_kappa_record, (xi, x + xi, tau), budget, trace)
    sum2, sum3 = sum_series(_kappa_record, (ys, 2 * x - ys, tau2), budget, trace)
    with np.errstate(over="ignore", invalid="ignore"):  # a part past the float range raises
        return _psi(x, tau, const0, const_xi, sum1, sum2, sum3)


def _psi(x, tau: Modulus, const0, const_xi, sum1, sum2, sum3):
    """``psi_closed`` from its theta constants and the Appell-Lerch sums of
    its kappas, each kappa(y, .) as -e(-y) times its sum."""
    t, xi = tau.tau, tau.xi
    factor = -e_of(-xi)
    part1 = const0 * (factor * sum1)
    part2 = const_xi * (e_of(t / 2) * (factor * sum2) - e_of(x - t / 2) * (-e_of(xi) * sum3))
    return finite(part1 + part2, "psi")
