"""The 2-D quadrant form of h and h0, kept as the tests' reference.

``klab.hfun`` sums h and h0 as 1-D series over k = m + n, each term a sum
over a finite window of n.  This is the direct form they are checked
against: the quadrant cone sum over a 2-D sup-norm box of (m, n) about the
apex, grown until its outer ring is negligible, without klab's kernel.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np

from klab.core import (
    ConvergenceBudgetExceeded,
    DomainError,
    TWO_PI_I,
    _NUMBERS,
    reject_integer_shifts,
)


class Quadrant(NamedTuple):
    """h's or h0's series as a 2-D term: sign(u) e^E over u v > 0 at (m, n) =
    (c1 + k1, c2 + k2), (u, v) = (m + s1, n + s2), E = (et m + 2 et n + e_m) m
    + (et n / 2 + e_n) n."""

    et: complex
    e_m: complex
    e_n: complex
    c1: int
    c2: int
    s1: float
    s2: float

    def __call__(self, k1, k2) -> tuple:
        """The signs sign(u) (0 outside the cone) and the exponents E."""
        et, e_m, e_n, c1, c2, s1, s2 = self
        u, m, n = k1 + (c1 + s1), k1 + c1, k2 + c2
        exponent = (et * m + 2 * et * n + e_m) * m + (et / 2 * n + e_n) * n
        return np.where(u * (k2 + (c2 + s2)) > 0, np.sign(u), 0.0), exponent


def quadrant(z1, z2, frozen, tau, on=_NUMBERS) -> Quadrant:
    """The quadrant sum of sign(u) e(tau/2 Q(m, n) + 2 (m + n) z1 + (2 m + n)
    z2) over u v > 0, (u, v) = (m, n) + s, s = a = (alpha(z1), alpha(z2)) or,
    ``frozen``, (1/2, 1/2), as a term whose index is centred on the apex, the
    integer point nearest -s."""
    t = tau.tau
    a1, a2 = on.alpha(z1, tau), on.alpha(z2, tau)
    s1, s2 = (0.5, 0.5) if frozen else (a1, a2)
    reject_integer_shifts(s1, s2, on=on)
    et, e_m, e_n = TWO_PI_I * t, TWO_PI_I * (2 * z1 + 2 * z2), TWO_PI_I * (2 * z1 + z2)
    return Quadrant(et, e_m, e_n, on.round(-s1), on.round(-s2), s1, s2)


#: The reference's ring tolerance, and its largest radius.
RING_TOL, MAX_RADIUS = 1e-16, 256
_LOG_TINY, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def h_reference(z1: complex, z2: complex, tau, frozen: bool) -> tuple:
    """h (or, ``frozen``, h0) at one point by the quadrant sum, and the
    largest modulus of the terms it summed: the box |k| <= R about the apex,
    R doubled from 8 until the outer ring holds less than RING_TOL of the
    largest term.  A largest term outside the normal float range raises
    DomainError, as klab's sums do."""
    series = quadrant(z1, z2, frozen, tau)
    radius = 8
    while radius <= MAX_RADIUS:
        side = np.arange(-radius, radius + 1)
        k1, k2 = np.repeat(side, side.size), np.tile(side, side.size)
        signs, exponent = series(k1, k2)
        cone = signs != 0
        top = exponent.real[cone].max()
        scaled = signs[cone] * np.exp(exponent[cone] - top)
        ring = np.abs(scaled[np.maximum(np.abs(k1), np.abs(k2))[cone] == radius]).sum()
        if ring < RING_TOL:
            if not _LOG_TINY <= top <= _LOG_MAX:
                raise DomainError(f"the largest term, e^{top:.0f}, is outside the float range")
            value = complex(scaled.sum()) * math.exp(top)
            if not cmath.isfinite(value):
                raise DomainError("the sum exceeds the float range")
            return value, math.exp(top)
        radius *= 2
    raise ConvergenceBudgetExceeded(f"needs a radius above {MAX_RADIUS}")
