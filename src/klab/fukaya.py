"""Compositions of morphisms between lines on the torus.

The generic double and triple compositions m2 and m3 are theta series
indexed by intersection points, one per coset of a slope tuple's set-up in
``lattice``: a definite series on the ideal of ``build_triple_config`` for
m2, and for m3 the cone-restricted F series, which takes Q, the cone and the
sublattice from ``build_quad_config``.  Both set-ups are integer arithmetic
on the slopes' (p, q) pairs, done once per slope tuple; the series read
only their floats.  (The square and trapezoid triple compositions are a
prefactor times f_series and g_series.)  A direct polygon-enumeration
oracle recomputes triple compositions from plane geometry alone,
independent of the lattice machinery.

Each output point, a crossing of the first and last lines, is named by
``lattice.point_label``, so m2, m3 and the oracle give one point one label
and their coefficients are added and compared by label.

``compositions`` takes many sets of lines of one slope tuple, given by their
z_i as arrays, and sums every coset of every set as one kernel batch: stacked
theta records for m2, one ``F_series`` call for m3.  ``m2_generic`` and
``m3_generic`` are ``compositions`` of one set.  ``F_series`` evaluates its
terms only at the box indices whose unit square can reach the cone
(``_candidates``, cached per config and radius) and puts them back in the
box, so the sums, certificates and traces are those of the whole box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Sequence

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
    _ARRAYS,
    _NUMBERS,
    _box,
    cone_envelope,
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
    (Series1D, 1, Envelope) (stacked with ``on`` = _ARRAYS, e2 shared and
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
              TWO_PI_I * (ct * n / 2 + w) * n, None, None, 0j, 0, 0)
    return tuple.__new__(Series1D, series), 1, env


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
    of one row.

    Returns the zero result when the degree condition
    deg(1,2) + deg(2,3) = deg(1,3) fails.  Cosets that share an output
    label add their values.
    """
    if len(lines) != 3:
        raise DomainError("m2_generic needs exactly three lines")
    slopes = tuple(ln.slope for ln in lines)
    return CompositionResult(compositions(slopes, _z(lines, tau), tau, budget)[0])


def _offsets(b1: tuple, b2: tuple, radius: int) -> np.ndarray:
    """The lattice vectors a b1 + b b2 over the box |(a, b)| <= radius, in the
    kernel's order, as an array of shape (points, 4)."""
    (a, b), _ = _box(2, radius)
    offsets = np.outer(a, b1) + np.outer(b, b2)
    offsets.flags.writeable = False  # shared by every caller of the cache
    return offsets


#: the index of x_(i-1) at i, for the cone products c_i x_i x_(i-1)
_PREVIOUS = np.array((3, 0, 1, 2))
#: the word of four set bools, in either byte order
_ALL_SET = 0x01010101


def _words(mask: np.ndarray) -> np.ndarray:
    """A C-contiguous bool array whose last axis has 4 entries, as one 32-bit
    word per row of them: 0 where none is set, ``_ALL_SET`` where all are.
    One comparison of it replaces a reduction along that axis, which numpy
    does row by row at several times the cost."""
    return mask.view(np.uint32)[..., 0]


#: the nine offsets around an apex, of radius 1, per basis
_cached_offsets = lru_cache(maxsize=64)(_offsets)


def _candidates(cfg: QuadLatticeConfig, radius: int) -> tuple:
    """The positions in the box |(a, b)| <= radius of the indices at which a
    term of ``F_series`` on ``cfg`` can be in the cone or near its boundary,
    and the lattice vectors a b1 + b b2 there.

    Index (a, b) stands for w = (a + da) b1 + (b + db) b2 with the apex offset
    (da, db) in [-1/2, 1/2]^2, so s_i w_i is at most s_i (a b1 + b b2)_i +
    (|b1_i| + |b2_i|) / 2 on its unit square.  The cone is the two sectors
    s_i w_i > 0, s = +-``plus_signs``.  An index is kept when its square
    reaches every half-plane s_i w_i >= -margin |w| of one sector, |w| bounded
    on the square: with margin = sqrt(GUARD / min |c_i|), a point within
    GUARD of the boundary (all products c_i w_i w_(i-1) above -GUARD |w|^2)
    has s_i w_i > 0 where |w_i| > margin |w|, as two such neighbours' product
    is then positive; two coordinates, which vanish together only at 0, are
    not both below margin |w| unless the lines w_i = 0 meet at angles of
    about margin.
    """
    _, c, b1, b2 = cfg.float_data
    offsets = _offsets(b1, b2, radius)
    reach = (np.abs(b1) + np.abs(b2)) / 2
    margin = math.sqrt(GUARD / min(map(abs, c)))
    slack = reach + margin * np.maximum.reduce(np.abs(offsets) + reach, axis=1)[:, None]
    signs = np.array(cfg.plus_signs)
    keep = np.flatnonzero(np.logical_and.reduce(offsets * signs + slack >= 0, axis=1)
                          | np.logical_and.reduce(slack - offsets * signs >= 0, axis=1))
    offsets = offsets[keep]
    keep.flags.writeable = offsets.flags.writeable = False  # shared by every caller of the cache
    return keep, offsets


#: candidates up to radius 32 are kept, for 64 configs and radii
_cached_candidates = lru_cache(maxsize=64)(_candidates)


def F_series(
    cfg: QuadLatticeConfig,
    shifts: Sequence[Sequence],
    z: Sequence,
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> list:
    """Indefinite theta series over the shifted-cone slices of cosets, summed
    as one batch over a shared box, one series per coset shift and row of
    ``z``: the z_i of the four lines are numbers, or 1-D arrays with an
    element per set of lines (a row), and the series run row by row.

    With z_i = tau alpha(z_i) + beta_i, beta_i real, and v = v(alpha(z)): for
    a shift n0, sums sign(w_1) e(tau/2 Q(w) + <w, beta>) over w = n + v in the
    cone C, n in (sublattice + n0).  Each term is e(tau * area + holonomy) of
    the quadrangle it stands for.  A shift is a 4-vector of floats, such as a
    representative of ``cfg.float_cosets``.  The terms are evaluated at the
    box's ``_candidates`` only, each tested against the cone and its guard
    band, and put back in the box.  Each series has its own certificate, and with a ``trace`` list
    one SeriesTrace per series is appended to it.
    """
    if cfg.plus_signs is None:
        raise DomainError("the summation cone for these slopes is empty")
    t = tau.tau
    _, c, b1, b2 = cfg.float_data
    on = _ARRAYS if any(type(zi) is np.ndarray for zi in z) else _NUMBERS
    alphas = [on.alpha(zi, tau) for zi in z]
    # v, and 2 pi i beta, beta the real part of z - alpha tau, a row per set of lines
    v = np.array(shift_vector(alphas, cfg.gaps)).T.reshape(-1, 4)
    e_beta = TWO_PI_I * np.array([zi.real - ai * t.real for zi, ai in zip(z, alphas)]).T.reshape(-1, 4)
    n0 = np.array(shifts, dtype=float).reshape(-1, 4)
    if len(v) > 1:  # a series per (row, shift)
        n0 = np.tile(n0, (len(v), 1))
        v, e_beta = (np.repeat(x, len(n0) // len(x), axis=0) for x in (v, e_beta))

    def quadratic(x):
        """Q(x) = (l1 - l2) x1 x2 + (l3 - l4) x3 x4 over the last axis."""
        return c[1] * (x[..., 0] * x[..., 1]) + c[3] * (x[..., 2] * x[..., 3])

    # A term's log-modulus is -pi Im(tau) Q(w), w = n + v on the cone.  Each series' index (a, b) is centred on its apex
    # w = 0: its origin nc is n0 plus the lattice vector nearest -(n0 + v),
    # whose coordinates along (b1, b2) are read off slots 2 and 3.
    width = t.imag
    basis = np.array((b1, b2))
    apex = n0 + v
    det = b1[1] * b2[2] - b1[2] * b2[1]
    ca = np.rint((apex[:, 2] * b2[1] - apex[:, 1] * b2[2]) / det)
    cb = np.rint((apex[:, 1] * b1[2] - apex[:, 2] * b1[1]) / det)
    nc = n0 + ca[:, None] * basis[0] + cb[:, None] * basis[1]
    # top: the largest term next to the apex, if the cone meets those nine points
    near_apex = (nc + v)[:, None, :] + _cached_offsets(b1, b2, 1)
    coeffs = np.array(c)
    in_cone = _words(coeffs * near_apex * near_apex[..., _PREVIOUS] > 0) == _ALL_SET
    q_near = np.minimum.reduce(np.where(in_cone, quadratic(near_apex), math.inf), axis=1)
    peak, curv, rate, _ = cone_envelope(0.0, width, cfg.cone_curvature)
    env = tuple.__new__(Envelope, (peak, curv, rate, np.where(
        q_near == math.inf, peak, -math.pi * width * q_near)))
    e_q, e_beta = TWO_PI_I * t / 2, e_beta[:, :, None]
    nc, v = nc[:, None, :], v[:, None, :]

    def term(a, b, members=slice(None)):
        radius = -int(a[0])  # the box starts at (-R, -R)
        keep, offsets = (_cached_candidates if radius <= 32 else _candidates)(cfg, radius)
        w = nc[members] + offsets + v[members]
        prods = coeffs * w * w[..., _PREVIOUS]
        square = w * w
        bound = GUARD * np.maximum(np.maximum(square[..., 0], square[..., 1]),
                                   np.maximum(square[..., 2], square[..., 3]))[..., None]
        cone = _words(prods > 0) == _ALL_SET
        near = (_words(np.abs(prods) <= bound) != 0) & (_words(prods > -bound) == _ALL_SET)
        # <w, 2 pi i beta> row by row, each with the bits of w @ (2 pi i beta)
        holonomy = np.matmul(w, e_beta[members])[..., 0][cone]
        w = w[cone]
        in_box = np.zeros((len(cone), a.size), dtype=bool)
        in_box[:, keep] = cone
        values = np.zeros(in_box.shape, dtype=complex)
        values[in_box] = np.sign(w[:, 0]) * np.exp(e_q * quadratic(w) + holonomy)
        return values, in_box, near

    return lattice_sum(term, 2, env, budget, trace)[0]


def m3_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Triple composition for four distinct-slope lines via the F series:
    ``compositions`` of one row.

    Returns the zero result when the degree condition
    deg(1,2) + deg(2,3) + deg(3,4) = deg(1,4) + 1 fails, which is when the
    config's cone is empty (``plus_signs`` None).  All cosets of the config
    are summed in one ``F_series`` call, and the values binned by their
    label.  The global sign is +1; tests/test_fukaya.py checks it against the
    polygon oracle.
    """
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

