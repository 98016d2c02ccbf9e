"""Compositions of morphisms between lines on the torus.

The generic double and triple compositions m2 and m3 are theta series
indexed by intersection points, one per coset of a slope tuple's set-up in
``lattice``: a definite series on the ideal of ``build_triple_config`` for
m2, and for m3 the cone-restricted F series of ``build_quad_config``.  (The
square and trapezoid triple compositions are a prefactor times f_series and
g_series.)  A polygon-enumeration oracle recomputes triple compositions
from plane geometry alone, independent of the lattice machinery.

Each output point, a crossing of the first and last lines, is named by
``lattice.point_label``, so m2, m3 and the oracle give one point one label
and their coefficients are added and compared by label.

``compositions`` takes many sets of lines of one slope tuple, given by their
z_i as arrays, and sums every coset of every set as one kernel batch: stacked
theta records for m2, one ``F_series`` call for m3, whose 1-D series run
over the lines of a Q-orthogonal basis, a term summing the cone's finite
window on one line.  ``m2_generic`` and ``m3_generic`` compose one set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
        flat = lattice_sum(*_slope_record(tri, n0, *z, tau, _ARRAYS), budget)[0]
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
_TOP_REACH = 64  # the largest |j| but reach at which F_series looks for its top


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
    x = k' U + n' V with sign(x_1) = side sign(k').  Each series has its own
    certificate, and its SeriesTrace is appended to ``trace``.  A window's
    points have |n'| < max(|lo|, |hi|) |k'|, so |term| <= (W |k'| + 1)
    e^(-pi Im(tau) least k'^2), W = hi - lo; with k' = j + delta, |delta| <=
    1/2 and |j| >= 1, k'^2 >= j^2 - |j| + 1/4 and log(W (|j| + 1/2) + 1) <=
    log(a) + W (|j| - 1) / a, a = 3 W / 2 + 1.  ``top`` is the largest term at
    the far end of a window, by the line of the larger |lam|, for |j| <=
    min(reach, _TOP_REACH) and |j| = reach, where a window holds a point.
    """
    if cfg.plus_signs is None:
        raise DomainError("the summation cone for these slopes is empty")
    t = tau.tau
    (numer, d), duals, cosets, (A, C, side, least, js, width, far), ends, guard, steps = (
        _window_arrays(cfg.windows))
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
        delta, eps)), env, budget, trace)[0]
    index = len(cosets)
    return values if index == 1 else [sum(values[i:i + index]) for i in range(0, len(values), index)]


@lru_cache(maxsize=64)
def _window_arrays(windows: tuple) -> tuple:
    """``cfg.windows`` as ``F_series`` reads it, shared by its calls: js, the
    j of ``top``; far, the line with the larger |lam|, the other and +1 if it
    is hi's, else -1."""
    (numer, d), duals, (*scalars, reach), (ends, bands), cosets = windows
    numer, (lo, hi), J = np.array(numer, dtype=float), ends, min(reach, _TOP_REACH)
    arrays = ((numer, float(d)), np.array(duals), np.array(cosets),
              (*scalars, np.array((-reach, *range(-J, J + 1), reach)), hi - lo,
               (hi, lo, 1.0) if abs(hi) >= abs(lo) else (lo, hi, -1.0)),
              np.array(ends)[:, None, None], GUARD * np.array(bands)[:, None, None],
              (numer[:, 0, None, None], numer[:, 1, None, None, None]))
    for x in (numer, *arrays[1:3], *arrays[4:6]):
        x.flags.writeable = False
    return arrays


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


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _same_torus_point(p, q, tol: float = 1e-9) -> bool:
    return all(abs((a - b + 0.5) % 1.0 - 0.5) < tol for a, b in zip(p, q))


def polygon_oracle(
    lines: Sequence[LineOnTorus],
    tau: Modulus,
    radius: int = 4,
    tol: float = 1e-14,
) -> CompositionResult:
    """Triple composition by direct enumeration of plane quadrangles.

    Lifts of the four lines are intersected pairwise; candidate quadrangles
    with consistently oriented convex boundary are weighted by
    e(tau * area + holonomy) with a sign distinguishing the two orientation
    classes, and binned by the ``point_label`` of their output vertex on the
    first and last lines.  Independent of the lattice / F-series machinery.
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
    y = [ln.shift_y for ln in lines]
    beta = [ln.monodromy_beta for ln in lines]
    q1 = slopes[0].denominator

    def meet(i, ci, j, cj):
        # lines t = lam_i x - (y_i + c_i); returns their crossing point
        x = ((y[i] + ci) - (y[j] + cj)) / (lam[i] - lam[j])
        return (x, lam[i] * x - y[i] - ci)

    offsets = [_lift_offsets(s, radius) for s in slopes]
    area_cut = -np.log(tol) / (2 * np.pi * t.imag)
    # input morphisms are the standard intersection points, so the three
    # non-output vertices must land on them modulo Z^2
    e12 = intersection_point(lines[0], lines[1])
    e23 = intersection_point(lines[1], lines[2])
    e34 = intersection_point(lines[2], lines[3])

    bins: dict = {}
    for c2, _ in offsets[1]:
        p12 = meet(0, 0.0, 1, c2)
        if not _same_torus_point(p12, e12):
            continue
        for c3, _ in offsets[2]:
            p23 = meet(1, c2, 2, c3)
            if not _same_torus_point(p23, e23):
                continue
            for c4, lab4 in offsets[3]:
                p34 = meet(2, c3, 3, c4)
                if not _same_torus_point(p34, e34):
                    continue
                p41 = meet(3, c4, 0, 0.0)
                if not (0.0 <= p41[0] < q1):
                    continue
                verts = (p41, p12, p23, p34)
                edges = []
                degenerate = True
                for k in range(4):
                    ex = verts[(k + 1) % 4][0] - verts[k][0]
                    ey = verts[(k + 1) % 4][1] - verts[k][1]
                    if abs(ex) > GUARD or abs(ey) > GUARD:
                        degenerate = False
                    edges.append((ex, ey))
                if degenerate:
                    raise DomainError("all four lines are concurrent: zero-area quadrangle")
                crosses = [_cross(edges[k], edges[(k + 1) % 4]) for k in range(4)]
                if any(abs(c) <= GUARD for c in crosses):
                    continue
                # contributing quadrangles are convex and traversed clockwise
                if not all(c < 0 for c in crosses):
                    continue
                area = 0.0
                for k in range(4):
                    area += _cross(verts[k], verts[(k + 1) % 4])
                area = abs(area) / 2
                if area > area_cut:
                    continue
                hol = 0.0
                # edge on line i runs from p_{i-1,i} to p_{i,i+1}
                runs = ((p41, p12), (p12, p23), (p23, p34), (p34, p41))
                for k in range(4):
                    hol += beta[k] * (runs[k][0][0] - runs[k][1][0])
                # the component sign is the run direction of the first edge
                sigma = 1 if p41[0] > p12[0] else -1
                weight = sigma * e_of(t * area + hol)
                label = point_label(slopes[0], slopes[3], *lab4)
                bins[label] = bins.get(label, 0.0) + weight
    return CompositionResult({k: v for k, v in bins.items() if abs(v) > tol})

