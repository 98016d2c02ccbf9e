"""Compositions of morphisms between lines on the torus.

The generic double and triple compositions m2 and m3 are theta series
indexed by intersection points, one per coset of a slope tuple's set-up in
``lattice``: a definite series on the ideal of ``build_triple_config`` for
m2, and for m3 the cone-restricted F series of ``build_quad_config``.  (The
square and trapezoid triple compositions are a prefactor times f_series and
g_series.)  A polygon-enumeration oracle recomputes triple compositions
from plane geometry alone, independent of the lattice machinery, in three
numpy stages over the lifts of the second, third and fourth lines.

Each output point, a crossing of the first and last lines, is named by
``lattice.point_label``, so m2, m3 and the oracle give one point one label
and their coefficients are added and compared by label.

``compositions`` takes many sets of lines of one slope tuple, given by their
z_i as arrays, and sums every coset of every set as one kernel batch: stacked
theta records for m2, one ``F_series`` call for m3, whose 1-D series run
over the lines of a Q-orthogonal basis, a term summing the cone's finite
window on one line.  F reads the config's ``windows`` record as it is, so
the two config memos of ``lattice`` are the only memos of these sums.
``m2_generic`` and ``m3_generic`` compose one set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    ConvergenceBudgetExceeded,
    DomainError,
    Envelope,
    GUARD,
    Modulus,
    Series1D,
    SummationBudget,
    TWO_PI_I,
    _ARRAYS,
    _NUMBERS,
    convex_envelope,
    e_of,
    lattice_sum,
)
from .lattice import (
    LineOnTorus,
    QuadLatticeConfig,
    TripleConfig,
    build_quad_config,
    build_triple_config,
    hom_degree,
    intersection_point,
    point_label,
    shift_vector,
)


@dataclass(frozen=True)
class CompositionResult:
    """Coefficients of a composition, one per intersection-point label (a, b).

    Each coefficient is the sum of its polygons' weights.  ``prefactor`` and
    ``sign`` are the constants 1 and 1, which the JSON of ``klab m3`` and its
    readers still carry.
    """

    coefficients: dict
    prefactor: ClassVar[complex] = 1.0 + 0.0j
    sign: ClassVar[int] = 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


ZERO_RESULT = CompositionResult({})


def _slope_record(tri: TripleConfig, n0, z1, z2, z3, tau: Modulus, on=_NUMBERS) -> tuple:
    """The definite theta series of a slope triple and a coset shift n0, as
    (Series1D, Envelope) (stacked with ``on`` = _ARRAYS, e2 shared and
    e1, e0 per member).

    With c the Gaussian coefficient of ``tri`` and z_i = tau y_i + beta_i
    (y_i = alpha(z_i), beta_i real), sums e(c tau u^2 / 2 - c u (beta23 -
    beta12)) over u in n0 - (y23 - y12) + (the triple's ideal), where x_ij =
    (x_j - x_i) / (l_j - l_i): each term is e(tau * area + holonomy) of the
    corresponding triangle.
    """
    c, gaps = tri.c, tri.gaps
    w = -c * ((z3 - z2) / gaps[1][2] - (z2 - z1) / gaps[0][1])
    ct = c * tau.tau
    # the index n + s, s = Im(w) / Im(ct), completes the square: e(ct n^2 / 2 +
    # n w) is e(ct (n + s)^2 / 2 + (n + s)(w - ct s)) times a factor free of n,
    # which is dropped, and the sum below runs over n + s with w - ct s as w
    s = w.imag / ct.imag
    w = w - ct * s
    nf, gf = n0 + s, float(tri.ideal)

    # the height -log|term| / 2 pi is Im(ct) n^2 / 2 + n Im(w), least at the
    # index nearest its vertex
    centre = on.round(-(w.imag / ct.imag + nf) / gf)
    n = nf + gf * centre
    env = convex_envelope((ct.imag * n / 2 + w.imag) * n, ct.imag * gf * gf / 2)
    # 2 pi i (ct n^2 / 2 + n w) at n = nf + gf (centre + k), as (e2 k + e1) k + e0
    series = (TWO_PI_I * ct * gf * gf / 2, TWO_PI_I * gf * (ct * n + w),
              TWO_PI_I * (ct * n / 2 + w) * n, None, None, 0j, 0, 0, 0j)
    return tuple.__new__(Series1D, series), env


def _z(lines: Sequence[LineOnTorus], tau: Modulus) -> list:
    """z_i = tau y_i + beta_i of each line."""
    return [tau.tau * ln.shift_y + ln.monodromy_beta for ln in lines]


def compositions(slopes: tuple, z: Sequence, tau: Modulus,
                 budget: SummationBudget = DEFAULT_BUDGET) -> list:
    """m2 (three slopes) or m3 (four) of lines of these slopes, one
    coefficient dict by output label per row: their z_i = tau y_i + beta_i
    are numbers, one row, or 1-D arrays with an element per row.  All cosets
    of all rows are summed as one batch: stacked ``_slope_record`` records
    or one ``F_series`` call.  Where the degree condition fails the
    dicts are empty; slopes that are not pairwise distinct raise DomainError.
    """
    rows = len(z[0]) if type(z[0]) is np.ndarray else 1
    if len(slopes) == 3:
        tri = build_triple_config(slopes)
        if tri is None:
            return [{} for _ in range(rows)]
        cosets = tri.cosets
        # a series per (row, coset), row by row
        n0 = np.tile(np.array([n0 for n0, _ in cosets], dtype=float), rows)
        z = [np.repeat(zi, len(cosets)) if type(zi) is np.ndarray else zi for zi in z]
        flat = lattice_sum(*_slope_record(tri, n0, *z, tau, _ARRAYS), budget)
    else:
        cfg = build_quad_config(slopes)
        if cfg.plus_signs is None:
            return [{} for _ in range(rows)]
        cosets = cfg.float_cosets
        flat = F_series(cfg, [rep for rep, _ in cosets], z, tau, budget)
    values = [flat[i:i + len(cosets)] for i in range(0, len(flat), len(cosets))]
    out = []
    for row in values:
        coeffs = {}
        for (_, label), value in zip(cosets, row):
            coeffs[label] = coeffs.get(label, 0.0) + value
        out.append(coeffs)
    return out


def m2_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Binary composition for three distinct-slope lines: ``compositions``
    of one row; the zero result where deg(1,2) + deg(2,3) = deg(1,3) fails.
    Cosets that share an output label add their values."""
    if len(lines) != 3:
        raise DomainError("m2_generic needs exactly three lines")
    slopes = tuple(ln.slope for ln in lines)
    return CompositionResult(compositions(slopes, _z(lines, tau), tau, budget)[0])


#: Most window points one call of an F term evaluates: 511^2, tens of MB at most.
_MAX_POINTS = 511 ** 2


class _ConeWindows(NamedTuple):
    """F's series over k, stacked, a batch's numpy term for ``lattice_sum``:
    with k' = k + delta and n' = n + eps, the term at k is side sign(k')
    times the sum of e(tau/2 Q(x) + <x, beta>) over the integers n with n'
    strictly between lo k' and hi k'; an n' within GUARD band |k'| of a line
    n' = lam k' (lam = lo or hi) is near the cone boundary.  A point's x_i =
    (start_i + d U_i k + d V_i n + low_i) / d sums integers and the exact
    part of d times the apex's without rounding, and Q(x) = c_2 x_1 x_2 +
    c_4 x_3 x_4 adds two positive products, so a term keeps the digits that
    A k'^2 - C n'^2 loses on a thin cone.  From ``start`` on a field has a
    column per series, up to ``beta`` a row per coordinate."""

    quad: tuple  # pi i tau (c_2, c_4) / d^2
    ends: np.ndarray  # (lo, hi)
    guard: np.ndarray  # GUARD (band_lo, band_hi)
    steps: tuple  # (d U_i), (d V_i)
    side: int
    start: np.ndarray
    low: np.ndarray
    beta: np.ndarray  # 2 pi i beta / d
    delta: np.ndarray
    eps: np.ndarray

    def __call__(self, k: np.ndarray, members=slice(None)) -> tuple:
        """The terms at the integers k, a row per one of ``members``, and the
        number of window points each sums."""
        (e2, e4), ends, guard, (du, dv), side = self[:5]
        start, low, beta = (f[:, members] for f in self[5:8])
        kp, eps = k + self.delta[members], self.eps[members]
        # the least and largest n with n + eps between lo k' and hi k' (one on
        # an end counts: it is near), and where one is near an end
        bounds = ends * kp - eps
        floor = np.floor(bounds)
        frac = bounds - floor
        near = np.minimum(frac, 1 - frac) < guard * np.abs(kp)
        first, last = np.minimum(floor[0], floor[1]) + 1, np.maximum(floor[0], floor[1])
        counts = last - first + 1  # 0 for an empty window, as last >= first - 1
        width = int(counts.max())
        if counts.size * width > _MAX_POINTS:
            raise ConvergenceBudgetExceeded(f"needs {counts.size * width} window points > {_MAX_POINTS}")
        n = first[..., None] + np.arange(width)  # each window's n, as many as the longest's
        x = (start + du * k)[..., None] + dv * n + low  # d x
        exponent = e2 * (x[0] * x[1]) + e4 * (x[2] * x[3]) + (x * beta).sum(axis=0)
        values = np.where(n <= last[..., None], np.exp(exponent), 0).sum(axis=-1)
        return side * np.sign(kp) * values, counts, near[0] | near[1]


def F_series(
    cfg: QuadLatticeConfig,
    shifts: Sequence[Sequence],
    z: Sequence,
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> list:
    """Indefinite theta series over the shifted-cone slices of cosets, one
    value per row of ``z`` (the z_i, numbers or 1-D arrays with an element
    per set of lines) and coset shift, in that order, summed as one batch.

    With z_i = tau alpha(z_i) + beta_i, beta_i real, and v = v(alpha(z)): for
    a shift n0 (a 4-vector, such as a representative of ``cfg.float_cosets``),
    sums sign(x_1) e(tau/2 Q(x) + <x, beta>), the e(tau * area + holonomy) of
    a quadrangle, over x = n + v in the cone, n in sublattice + n0.  That is
    ``index`` 1-D series (``_ConeWindows``) over the cosets of Z U + Z V:
    x = k' U + n' V with sign(x_1) = side sign(k'), read from ``cfg.windows``
    as ``lattice._windows`` lays it out.  Each series has its own
    certificate, and its SeriesTrace is appended to ``trace``.  A window's
    points have |n'| < max(|lo|, |hi|) |k'|, so |term| <= (W |k'| + 1)
    e^(-pi Im(tau) least k'^2), W = hi - lo; with k' = j + delta, |delta| <=
    1/2 and |j| >= 1, k'^2 >= j^2 - |j| + 1/4 and log(W (|j| + 1/2) + 1) <=
    log(a) + W (|j| - 1) / a, a = 3 W / 2 + 1.  ``top`` is the largest term at
    the far end of a window, by the line of the larger |lam|, at the record's
    js: |j| <= min(reach, 64) and |j| = reach, where a window holds a point.
    """
    if cfg.plus_signs is None:
        raise DomainError("the summation cone for these slopes is empty")
    t = tau.tau
    (numer, d), duals, cosets, (A, C, side, least, js, width, far), ends, guard, steps = cfg.windows
    on = _ARRAYS if any(type(zi) is np.ndarray for zi in z) else _NUMBERS
    alphas = [on.alpha(zi, tau) for zi in z]
    # per row (set of lines) v and beta; per series, (row, shift, coset) in
    # that order, the apex, its (k', n') = (k0 + delta, n0 + eps) for integers
    # k0 and n0, and d apex = d high + the rest, high of 26 bits, so that
    # start = d high - (k0 d U + n0 d V) is exact
    v, beta = np.array((shift_vector(alphas, cfg.gaps),
                        [zi.real - ai * t.real for zi, ai in zip(z, alphas)])).T.reshape(-1, 4, 2).T
    apex = ((np.asarray(shifts, dtype=float).reshape(-1, 1, 4) + cosets)
            + v.T[:, None, None]).reshape(-1, 4)
    coords = apex @ duals
    whole = np.rint(coords)
    delta, eps = (coords - whole).T[:, :, None]
    big = apex * 134217729.0
    high = big - (big - apex)
    c = math.pi * t.imag
    a, curv = 1.5 * width + 1, c * least
    peak, rate = math.log(a) - width / a - curv / 4, -(curv + width / a)
    kp = js + delta
    lam, other, sense = far
    skp = sense * kp
    n = np.floor(lam * kp - eps) + (skp < 0) + eps
    q = np.where(skp * (other * kp - n) < 0, (A * kp) * kp - (C * n) * n, math.inf)
    env = tuple.__new__(Envelope, (peak, curv, rate, -c * q.min(axis=1)))
    values = lattice_sum(tuple.__new__(_ConeWindows, (
        tuple(TWO_PI_I * t / 2 * ci / (d * d) for ci in cfg.float_data[1][1::2]), ends, guard, steps, side,
        (d * high - whole @ numer.T).T[:, :, None],
        (d * (apex - high)).T[:, :, None, None],
        np.repeat(TWO_PI_I / d * beta, len(apex) * 4 // beta.size, axis=1)[:, :, None, None],
        delta, eps)), env, budget, trace)
    index = len(cosets)
    return values if index == 1 else [sum(values[i:i + index]) for i in range(0, len(values), index)]


def m3_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Triple composition for four distinct-slope lines via the F series:
    ``compositions`` of one row; the zero result where deg(1,2) + deg(2,3) +
    deg(3,4) = deg(1,4) + 1 fails, the config's cone being empty.  All cosets
    are summed in one ``F_series`` call and binned by label.  The global sign
    is +1, as checked against the polygon oracle."""
    if len(lines) != 4:
        raise DomainError("m3_generic needs exactly four lines")
    slopes = tuple(ln.slope for ln in lines)
    return CompositionResult(compositions(slopes, _z(lines, tau), tau, budget)[0])


def _lift_offsets(slope, radius: int) -> list[tuple[float, tuple[int, int]]]:
    """Distinct lift offsets a*slope + b with |a|, |b| <= radius, in increasing
    order, each with one label (a, b) of it."""
    p, q = slope.as_integer_ratio()
    side = range(-radius, radius + 1)
    # keyed by q times the offset, an integer
    seen = {}
    for a in side:
        for b in side:
            seen.setdefault(a * p + b * q, (a, b))
    return [(c / q, ab) for c, ab in sorted(seen.items())]


#: polygon_oracle drops the quadrangles and coefficients of modulus below this.
ORACLE_TOL = 1e-14


def polygon_oracle(
    lines: Sequence[LineOnTorus],
    tau: Modulus,
    radius: int = 4,
) -> CompositionResult:
    """Triple composition by direct enumeration of plane quadrangles.

    The base lift of the first line meets the lifts of the others by the
    offsets of ``_lift_offsets`` in three stages, each a few numpy operations
    on all candidates at once: the offsets c2 whose crossing p12 lies on the
    standard point e12 mod Z^2; the grid of those by every c3, kept where p23
    lies on e23; the grid of those (c2, c3) by every c4, kept where p34 lies
    on e34 and the output vertex p41 has 0 <= x < q1.  If the quadrangle
    (p41, p12, p23, p34) of a survivor has every edge within GUARD of 0 the
    lines are concurrent (DomainError).  Quadrangles with no cross product
    of successive edges within GUARD of 0, convex and traversed clockwise,
    whose area does not put e(tau * area) below ORACLE_TOL, add
    sign * e(tau * area + holonomy), the sign being the run direction of the
    first edge, to the bin of their c4 offset's ``point_label``, in the
    lexicographic (c2, c3, c4) order.  Independent of the lattice / F-series
    machinery.
    """
    if len(lines) != 4:
        raise DomainError("polygon_oracle needs exactly four lines")
    slopes = [ln.slope for ln in lines]
    if len(set(slopes)) != 4:
        raise DomainError("slopes must be pairwise distinct")
    degs = [hom_degree(slopes[i], slopes[i + 1]) for i in range(3)]
    if sum(degs) != hom_degree(slopes[0], slopes[3]) + 1:
        return ZERO_RESULT
    t = tau.tau
    lam = [float(s) for s in slopes]
    y = [float(ln.shift_y) for ln in lines]
    beta = [float(ln.monodromy_beta) for ln in lines]
    q1 = slopes[0].denominator

    def meet(i, ci, j, cj):
        # lines t = lam_i x - (y_i + c_i); returns their crossing point
        x = ((y[i] + ci) - (y[j] + cj)) / (lam[i] - lam[j])
        return x, lam[i] * x - y[i] - ci

    def on(p, e):
        # where p lies within 1e-9 of the point e mod Z^2
        return ((abs((p[0] - e[0] + 0.5) % 1.0 - 0.5) < 1e-9)
                & (abs((p[1] - e[1] + 0.5) % 1.0 - 0.5) < 1e-9))

    offsets = [_lift_offsets(s, radius) for s in slopes[1:]]
    c2, c3, c4 = (np.array([c for c, _ in off], dtype=float) for off in offsets)
    area_cut = -np.log(ORACLE_TOL) / (2 * np.pi * t.imag)
    # input morphisms are the standard intersection points, so the three
    # non-output vertices must land on them modulo Z^2
    e12 = intersection_point(lines[0], lines[1])
    e23 = intersection_point(lines[1], lines[2])
    e34 = intersection_point(lines[2], lines[3])

    c2 = c2[on(meet(0, 0.0, 1, c2), e12)]
    c2, c3 = np.repeat(c2, len(c3)), np.tile(c3, len(c2))
    keep = on(meet(1, c2, 2, c3), e23)
    c2, c3 = c2[keep], c3[keep]
    # the (c2, c3, c4) grid, c4 by its index k4
    c2, c3, k4 = np.repeat(c2, len(c4)), np.repeat(c3, len(c4)), np.tile(np.arange(len(c4)), len(c2))
    keep = on(meet(2, c3, 3, c4[k4]), e34)
    c2, c3, k4 = c2[keep], c3[keep], k4[keep]
    p41 = np.array(meet(3, c4[k4], 0, 0.0))
    keep = (0.0 <= p41[0]) & (p41[0] < q1)
    c2, c3, k4, p41 = c2[keep], c3[keep], k4[keep], p41[:, keep]
    # the vertices (p41, p12, p23, p34), by coordinate, vertex and quadrangle,
    # and each one's successor
    verts = np.stack([p41, meet(0, 0.0, 1, c2), meet(1, c2, 2, c3), meet(2, c3, 3, c4[k4])], axis=1)
    nxt = np.roll(verts, -1, axis=1)
    ex, ey = nxt - verts
    if (~((abs(ex) > GUARD) | (abs(ey) > GUARD)).any(axis=0)).any():
        raise DomainError("all four lines are concurrent: zero-area quadrangle")
    crosses = ex * np.roll(ey, -1, axis=0) - ey * np.roll(ex, -1, axis=0)
    # contributing quadrangles are convex and traversed clockwise
    keep = ~(abs(crosses) <= GUARD).any(axis=0) & (crosses < 0).all(axis=0)
    area = abs(sum(verts[0] * nxt[1] - verts[1] * nxt[0])) / 2
    keep &= area <= area_cut
    x, area, k4 = verts[0][:, keep], area[keep], k4[keep]
    # the edge on line i runs from p_{i-1,i} to p_{i,i+1}
    hol = sum(b * run for b, run in zip(beta, x - np.roll(x, -1, axis=0)))
    # the component sign is the run direction of the first edge
    weights = np.where(x[0] > x[1], 1, -1) * e_of(t * area + hol)
    bins: dict = {}
    for k, w in zip(k4.tolist(), weights.tolist()):
        label = point_label(slopes[0], slopes[3], *offsets[2][k][1])
        bins[label] = bins.get(label, 0.0) + w
    return CompositionResult({k: v for k, v in bins.items() if abs(v) > ORACLE_TOL})
