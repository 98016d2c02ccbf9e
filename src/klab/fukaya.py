"""Compositions of morphisms between lines on the torus.

The generic double and triple compositions are theta-coefficient maps indexed
by intersection points, built from the lattice layer and the cone-restricted
F series, which takes Q and the cone from ``QuadLatticeConfig``.  (The square
and trapezoid triple compositions are a prefactor times f_series and
g_series.)  A direct polygon-enumeration oracle recomputes triple compositions
from plane geometry alone, independent of the lattice machinery.

Each output point, a crossing of the first and last lines, is named by
``lattice.point_label``, so m2, m3 and the oracle give one point one label
and their coefficients are added and compared by label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    DomainError,
    Envelope,
    GUARD,
    Modulus,
    Series1D,
    SummationBudget,
    TWO_PI_I,
    _box,
    alpha,
    cone_envelope,
    convex_envelope,
    e_of,
    lattice_sum,
)
from .lattice import (
    LineOnTorus,
    QuadLatticeConfig,
    _gaps,
    build_quad_config,
    hom_degree,
    ideal_of,
    intersection_point,
    point_label,
    shift_vector,
    triple_ideal,
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


class _Triple(NamedTuple):
    """The exact data of a slope triple, as the m2 series read them."""

    gaps: tuple  # gaps[i][j] = float(l_j - l_i)
    c: float  # the Gaussian coefficient (l3 - l2)(l2 - l1)/(l3 - l1), positive
    ideal: int  # triple_ideal(l1, l2, l3)
    cosets: tuple  # (n0, output label) for n0 in range(0, ideal, q2)


@lru_cache(maxsize=64)
def _triple(slopes: tuple) -> _Triple | None:
    """The data of three distinct slopes, once per slope tuple (ints and
    Fractions of equal value share an entry); None when they fail the degree
    condition, that is when the Gaussian coefficient c is not positive.  Coset
    n0 has its output point where the lift -n0 l3 + n0 l2 of the third line
    meets the first, m3's rule (``float_cosets``) with k3 = 0."""
    l1, l2, l3 = slopes = tuple(Fraction(s) for s in slopes)
    c = (l3 - l2) * (l2 - l1) / (l3 - l1)
    if c <= 0:
        return None
    g = triple_ideal(l1, l2, l3)
    return _Triple(
        tuple(tuple(float(d) for d in row) for row in _gaps(slopes)),
        float(c),
        g,
        tuple((n0, point_label(l1, l3, -n0, int(n0 * l2))) for n0 in range(0, g, ideal_of(l2))),
    )


def theta_slope_coefficient(
    slopes: Sequence[Fraction],
    n0: Fraction,
    z: Sequence[complex],
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> complex:
    """The definite theta series attached to a slope triple and a coset shift.

    With c = (l3 - l2)(l2 - l1)/(l3 - l1) and z_i = tau y_i + beta_i (y_i =
    alpha(z_i), beta_i real), sums e(c tau u^2 / 2 - c u (beta23 - beta12))
    over u in n0 - (y23 - y12) + (triple ideal), where x_ij = (x_j - x_i) /
    (l_j - l_i): each term is e(tau * area + holonomy) of the corresponding
    triangle.  Given a ``trace`` list, appends the sum's SeriesTrace.
    """
    tri = _triple(tuple(slopes))
    if tri is None:
        raise DomainError("Gaussian coefficient must be positive (degree condition)")
    c, gaps = tri.c, tri.gaps
    w = -c * ((z[2] - z[1]) / gaps[1][2] - (z[1] - z[0]) / gaps[0][1])
    ct = c * tau.tau
    # the index n + s, s = Im(w) / Im(ct), completes the square: e(ct n^2 / 2 +
    # n w) is e(ct (n + s)^2 / 2 + (n + s)(w - ct s)) times a factor free of n,
    # which is dropped, and the sum below runs over n + s with w - ct s as w
    s = w.imag / ct.imag
    w -= ct * s
    nf, gf = float(n0) + s, float(tri.ideal)

    # the height -log|term| / 2 pi is Im(ct) n^2 / 2 + n Im(w), least at the
    # index nearest its vertex
    centre = round(-(w.imag / ct.imag + nf) / gf)
    n = nf + gf * centre
    env = convex_envelope((ct.imag * n / 2 + w.imag) * n, ct.imag * gf * gf / 2)
    # 2 pi i (ct n^2 / 2 + n w) at n = nf + gf (centre + k), as (e2 k + e1) k + e0
    series = tuple.__new__(Series1D, (TWO_PI_I * ct * gf * gf / 2, TWO_PI_I * gf * (ct * n + w),
                                      TWO_PI_I * (ct * n / 2 + w) * n, None, None, 0j, 0, 0))
    return lattice_sum(series, 1, env, budget, trace)[0]


def m2_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Binary composition for three distinct-slope lines.

    Returns the zero result when the degree condition
    deg(1,2) + deg(2,3) = deg(1,3) fails.  Cosets that share an output
    label add their values.
    """
    if len(lines) != 3:
        raise DomainError("m2_generic needs exactly three lines")
    slopes = tuple(ln.slope for ln in lines)
    if len(set(slopes)) != 3:
        raise DomainError("slopes must be pairwise distinct")
    tri = _triple(slopes)
    if tri is None:
        return ZERO_RESULT
    z = [tau.tau * ln.shift_y + ln.monodromy_beta for ln in lines]
    coeffs = {}
    for n0, label in tri.cosets:
        value = theta_slope_coefficient(slopes, n0, z, tau, budget)
        coeffs[label] = coeffs.get(label, 0.0) + value
    return CompositionResult(coeffs)


def _offsets(b1: tuple, b2: tuple, radius: int) -> np.ndarray:
    """The lattice vectors a b1 + b b2 over the box |(a, b)| <= radius, in the
    kernel's order, as an array of shape (points, 4)."""
    (a, b), _ = _box(2, radius)
    offsets = np.outer(a, b1) + np.outer(b, b2)
    offsets.flags.writeable = False  # shared by every caller of the cache
    return offsets


#: offsets up to radius 32 are kept, 135 kB each at most
_cached_offsets = lru_cache(maxsize=64)(_offsets)


def F_series(
    cfg: QuadLatticeConfig,
    shifts: Sequence[Sequence],
    z: Sequence[complex],
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> list:
    """Indefinite theta series over the shifted-cone slices of cosets, one
    value per coset shift, summed as one batch over a shared box.

    With z_i = tau alpha(z_i) + beta_i, beta_i real, and v = v(alpha(z)): for
    a shift n0, sums sign(w_1) e(tau/2 Q(w) + <w, beta>) over w = n + v in the
    cone C, n in (sublattice + n0).  Each term is e(tau * area + holonomy) of
    the quadrangle it stands for.  A shift may be given as Fractions or as
    their floats, such as a representative of ``cfg.float_cosets``; both give
    the same bits.  Each series has its own certificate, and with a ``trace`` list one
    SeriesTrace per shift is appended to it.
    """
    if cfg.plus_signs is None:
        raise DomainError("the summation cone for these slopes is empty")
    t = tau.tau
    slopes, c, b1, b2 = cfg.float_data
    alphas = [alpha(zi, tau) for zi in z]
    v = shift_vector(alphas, slopes, cfg.gaps)
    beta = [(zi - ai * t).real for zi, ai in zip(z, alphas)]

    def quadratic(x):
        """Q(x) = (l1 - l2) x1 x2 + (l3 - l4) x3 x4 over the last axis."""
        return c[1] * (x[..., 0] * x[..., 1]) + c[3] * (x[..., 2] * x[..., 3])

    # A term's log-modulus is -pi Im(tau) Q(w), w = n + v on the cone.  Each series' index (a, b) is centred on its apex
    # w = 0: its origin nc is n0 plus the lattice vector nearest -(n0 + v),
    # whose coordinates along (b1, b2) are read off slots 2 and 3.
    width = t.imag
    coeffs, v, basis = np.array(c), np.array(v), np.array((b1, b2))
    n0 = np.array(shifts, dtype=float).reshape(-1, 4)
    apex = n0 + v
    det = b1[1] * b2[2] - b1[2] * b2[1]
    ca = np.rint((apex[:, 2] * b2[1] - apex[:, 1] * b2[2]) / det)
    cb = np.rint((apex[:, 1] * b1[2] - apex[:, 2] * b1[1]) / det)
    nc = n0 + ca[:, None] * basis[0] + cb[:, None] * basis[1]
    # top: the largest term next to the apex, if the cone meets those nine points
    near_apex = (nc + v)[:, None, :] + _cached_offsets(b1, b2, 1)
    in_cone = np.logical_and.reduce(coeffs * near_apex * near_apex[..., [3, 0, 1, 2]] > 0, axis=2)
    q_near = np.minimum.reduce(np.where(in_cone, quadratic(near_apex), math.inf), axis=1)
    peak, curv, rate, _ = cone_envelope(0.0, width, cfg.cone_curvature)
    env = tuple.__new__(Envelope, (peak, curv, rate, np.array([
        peak if q == math.inf else -math.pi * width * q for q in q_near.tolist()])))
    e_q, e_beta = TWO_PI_I * t / 2, TWO_PI_I * np.array(beta)
    nc = nc[:, None, :]

    def term(a, b, members=slice(None)):
        radius = -int(a[0])  # the box starts at (-R, -R)
        n = nc[members] + (_cached_offsets if radius <= 32 else _offsets)(b1, b2, radius)
        w = n + v
        prods = coeffs * w * w[..., [3, 0, 1, 2]]
        bound = GUARD * np.maximum.reduce(w * w, axis=2)[..., None]
        cone = np.logical_and.reduce(prods > 0, axis=2)
        near = (np.logical_or.reduce(np.abs(prods) <= bound, axis=2)
                & np.logical_and.reduce(prods > -bound, axis=2))
        w = w[cone]
        values = np.zeros(cone.shape, dtype=complex)
        values[cone] = np.sign(w[:, 0]) * np.exp(e_q * quadratic(w) + w @ e_beta)
        return values, cone, near

    return lattice_sum(term, 2, env, budget, trace)[0]


def m3_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Triple composition for four distinct-slope lines via the F series.

    Returns the zero result when the degree condition
    deg(1,2) + deg(2,3) + deg(3,4) = deg(1,4) + 1 fails, which is when the
    config's cone is empty (``plus_signs`` None).  All cosets of the config
    are summed in one ``F_series`` call, and the values binned by their
    label.  The global sign is +1; tests/test_fukaya.py checks it against the
    polygon oracle.
    """
    if len(lines) != 4:
        raise DomainError("m3_generic needs exactly four lines")
    cfg = build_quad_config([ln.slope for ln in lines])
    if cfg.plus_signs is None:
        return ZERO_RESULT
    z = [tau.tau * ln.shift_y + ln.monodromy_beta for ln in lines]
    values = F_series(cfg, [rep for rep, _ in cfg.float_cosets], z, tau, budget)
    coeffs = {}
    for (_, label), value in zip(cfg.float_cosets, values):
        coeffs[label] = coeffs.get(label, 0.0) + value
    return CompositionResult(coeffs)


def _lift_offsets(slope: Fraction, radius: int) -> list[tuple[float, tuple[int, int]]]:
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
    q1 = ideal_of(slopes[0])

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


def composition_by_point(
    result: CompositionResult,
    line_first: LineOnTorus,
    line_last: LineOnTorus,
) -> dict:
    """Total coefficient values by geometric intersection point.

    Collapses label aliasing: labels naming points within 1e-9 of each other
    on the torus are merged by summation, under the first one's point.
    """
    out: dict = {}
    for (a, b), value in result.coefficients.items():
        _add_at_point(out, intersection_point(line_first, line_last, a, b), value)
    return out


def _add_at_point(by_point: dict, point: tuple, value: complex) -> None:
    """Add value at the key of ``by_point`` within 1e-9 of point on the torus,
    or at point itself when there is none."""
    key = next((k for k in by_point if _same_torus_point(k, point)), point)
    by_point[key] = by_point.get(key, 0.0) + value
