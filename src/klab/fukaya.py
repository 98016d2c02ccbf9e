"""Compositions of morphisms between lines on the torus.

Elementary square and trapezoid triple compositions wrap the f and g series;
the generic double and triple compositions are theta-coefficient maps indexed
by intersection points, built from the lattice layer and the cone-restricted
F series.  A direct polygon-enumeration oracle recomputes triple compositions
from plane geometry alone, independent of the lattice machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .appell import g_series
from .core import (
    DEFAULT_BUDGET,
    DomainError,
    GUARD,
    Modulus,
    PoleProximity,
    SummationBudget,
    TWO_PI_I,
    alpha,
    dist_to_integers,
    e_of,
    lattice_sum,
)
from .kronecker import f_series
from .lattice import (
    LineOnTorus,
    QuadLatticeConfig,
    build_quad_config,
    hom_degree,
    ideal_of,
    intersection_point,
    shift_vector,
    triple_ideal,
)


@dataclass(frozen=True)
class CompositionResult:
    """Coefficients of a composition, one per intersection-point label (a, b).

    The scalar ``prefactor`` multiplies every coefficient; ``sign`` is the
    global orientation sign in use (triple compositions only).
    """

    prefactor: complex
    coefficients: dict
    sign: int = 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


ZERO_RESULT = CompositionResult(prefactor=1.0 + 0.0j, coefficients={})


def _yij(y: Sequence[float], slopes: Sequence[Fraction], i: int, j: int) -> float:
    return (y[j] - y[i]) / float(slopes[j] - slopes[i])


def _yij_prime(y: Sequence[float], slopes: Sequence[Fraction], i: int, j: int) -> float:
    li, lj = float(slopes[i]), float(slopes[j])
    return (li * y[j] - lj * y[i]) / (lj - li)


def delta_triple(y: Sequence[float], slopes: Sequence[Fraction]) -> float:
    """det of the 2x2 matrix built from y23 - y12 and y13 - y12 (and primes)."""
    a = _yij(y, slopes, 1, 2) - _yij(y, slopes, 0, 1)
    b = _yij(y, slopes, 0, 2) - _yij(y, slopes, 0, 1)
    ap = _yij_prime(y, slopes, 1, 2) - _yij_prime(y, slopes, 0, 1)
    bp = _yij_prime(y, slopes, 0, 2) - _yij_prime(y, slopes, 0, 1)
    return a * bp - b * ap


def delta_quad(y: Sequence[float], slopes: Sequence[Fraction]) -> float:
    """det of the 2x2 matrix built from y34 - y12 and y23 - y14 (and primes)."""
    a = _yij(y, slopes, 2, 3) - _yij(y, slopes, 0, 1)
    b = _yij(y, slopes, 1, 2) - _yij(y, slopes, 0, 3)
    ap = _yij_prime(y, slopes, 2, 3) - _yij_prime(y, slopes, 0, 1)
    bp = _yij_prime(y, slopes, 1, 2) - _yij_prime(y, slopes, 0, 3)
    return a * bp - b * ap


def m3_square(
    a1: float, a2: float, b1: float, b2: float, tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
) -> complex:
    """Triple composition for the axis-parallel square configuration."""
    for name, a in (("a1", a1), ("a2", a2)):
        if dist_to_integers(a) <= GUARD:
            raise PoleProximity(f"{name} = {a} is within {GUARD} of an integer")
    t = tau.tau
    pre = e_of(t * a1 * a2 + a1 * b2 + a2 * b1)
    return pre * f_series(a1 * t + b1, a2 * t + b2, tau, budget)


def m3_trapezoid(
    a1: float, a2: float, b1: float, b2: float, tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
) -> complex:
    """Triple composition for the trapezoid configuration."""
    for name, a in (("a1", a1), ("a2", a2)):
        if dist_to_integers(a) <= GUARD:
            raise PoleProximity(f"{name} = {a} is within {GUARD} of an integer")
    t = tau.tau
    pre = e_of((a1 + a2 / 2) * a2 * t + a2 * b1 + (a1 + a2) * b2)
    return pre * g_series(a1 * t + b1, a2 * t + b2, tau, budget)


def theta_slope_coefficient(
    slopes: Sequence[Fraction],
    n0: Fraction,
    z: Sequence[complex],
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
) -> complex:
    """The definite theta series attached to a slope triple and a coset shift.

    Sum over n in the triple ideal of e(c tau (n + n0)^2 / 2 + (n + n0) w)
    with c = (l3 - l2)(l2 - l1)/(l3 - l1) and w = -c (z23 - z12), so that
    together with the e(-tau Delta / 2) prefactor each term completes the
    square to e(tau * area) of the corresponding triangle.
    """
    l1, l2, l3 = (Fraction(s) for s in slopes)
    c = (l3 - l2) * (l2 - l1) / (l3 - l1)
    if c <= 0:
        raise DomainError("Gaussian coefficient must be positive (degree condition)")
    g = triple_ideal(l1, l2, l3)
    w = -float(c) * (
        (z[2] - z[1]) / float(l3 - l2) - (z[1] - z[0]) / float(l2 - l1)
    )
    ct = float(c) * tau.tau
    nf, gf = float(n0), float(g)

    def term(k):
        n = nf + gf * k
        return np.exp(TWO_PI_I * (ct * n * n / 2 + n * w)), None, None

    return lattice_sum(term, 1, budget)[0]


def _label_for_offset(l_first: Fraction, l_last: Fraction, c: Fraction) -> tuple:
    """Integer (a, b) with a*l_last + b = c; c must lie in the lift set."""
    p, q = l_last.numerator, l_last.denominator
    cq = c * q
    if cq.denominator != 1:
        raise AssertionError(f"offset {c} is not a lift of the last line")
    if q == 1:
        return 0, int(c)
    a = (cq.numerator * pow(p, -1, q)) % q
    b = c - a * l_last
    return a, int(b)


def _m2_label(slopes: Sequence[Fraction], n0: int) -> tuple:
    """Label (a, b) of the output point for coset n0: the minimal lift offset
    c = n0(l2 - l1) + u2(l3 - l1), u2 in the slot-2 ideal, realizable on the
    third line."""
    l1, l2, l3 = slopes
    q2, q3 = ideal_of(l2), ideal_of(l3)
    target = n0 * (l2 - l1)
    step = l3 - l1
    for k in range(0, 2 * q2 * q3 + 1):
        for u2 in ({0} if k == 0 else {k * q2, -k * q2}):
            c = target + u2 * step
            if (c * q3).denominator == 1:
                return _label_for_offset(l1, l3, c)
    raise AssertionError("no realizable output lift for this coset")


def m2_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Binary composition for three distinct-slope lines.

    Returns the zero result when the degree condition
    deg(1,2) + deg(2,3) = deg(1,3) fails.
    """
    if len(lines) != 3:
        raise DomainError("m2_generic needs exactly three lines")
    slopes = [ln.slope for ln in lines]
    if len(set(slopes)) != 3:
        raise DomainError("slopes must be pairwise distinct")
    l1, l2, l3 = slopes
    if hom_degree(l1, l2) + hom_degree(l2, l3) != hom_degree(l1, l3):
        return ZERO_RESULT
    y = [ln.shift_y for ln in lines]
    beta = [ln.monodromy_beta for ln in lines]
    z = [tau.tau * yi + bi for yi, bi in zip(y, beta)]
    # holonomy is linear in the square-completed index, so the constant part
    # joins the prefactor alongside e(-tau Delta / 2)
    c = float((l3 - l2) * (l2 - l1) / (l3 - l1))
    w_y = _yij(y, slopes, 1, 2) - _yij(y, slopes, 0, 1)
    w_b = _yij(beta, slopes, 1, 2) - _yij(beta, slopes, 0, 1)
    pre = e_of(-tau.tau / 2 * delta_triple(y, slopes) + c * w_y * w_b)
    q2 = ideal_of(l2)
    g = triple_ideal(l1, l2, l3)
    coeffs = {}
    for n0 in range(0, g, q2):
        label = _m2_label(slopes, n0)
        coeffs[label] = theta_slope_coefficient(slopes, Fraction(n0), z, tau, budget)
    return CompositionResult(prefactor=pre, coefficients=coeffs)


def F_series(
    cfg: QuadLatticeConfig,
    n0: Sequence[Fraction],
    z: Sequence[complex],
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
) -> complex:
    """Indefinite theta series over the shifted-cone slice of a coset.

    Sums e(tau/2 Q(n) + sum n_i z_i) over n in (sublattice + n0) meeting
    C - v(alpha(z)), weighted by the component sign of n + v(alpha(z)).
    """
    if cfg.plus_signs is None:
        raise DomainError("the summation cone for these slopes is empty")
    t = tau.tau
    slopes_f = np.array([float(s) for s in cfg.slopes])
    b1 = np.array([float(v) for v in cfg.basis_LambdaPlus[0]])
    b2 = np.array([float(v) for v in cfg.basis_LambdaPlus[1]])
    base = np.array([float(v) for v in n0])
    av = [alpha(zi, tau) for zi in z]
    v = np.array([float(c) for c in shift_vector(av, cfg.slopes)])
    zarr = np.array([complex(zi) for zi in z])
    lam_prev = np.roll(slopes_f, 1)  # (l4, l1, l2, l3)
    s1 = cfg.plus_signs[0]
    # Q(x) = (l3-l4) x3 x4 + (l1-l2) x1 x2
    c34 = slopes_f[2] - slopes_f[3]
    c12 = slopes_f[0] - slopes_f[1]

    def term(a, b):
        pts = base[None, :] + np.outer(a, b1) + np.outer(b, b2)
        w = pts + v[None, :]
        products = (lam_prev - slopes_f)[None, :] * w * np.roll(w, 1, axis=1)
        bound = GUARD * np.max(w * w, axis=1)[:, None]
        cone = np.all(products > 0, axis=1)
        near = (np.abs(products) <= bound).any(axis=1) & np.all(products > -bound, axis=1)
        p = pts[cone]
        eps = np.sign(w[cone, 0]) * s1
        qvals = c34 * p[:, 2] * p[:, 3] + c12 * p[:, 0] * p[:, 1]
        values = np.zeros(len(a), dtype=complex)
        values[cone] = eps * np.exp(TWO_PI_I * (t / 2 * qvals + p @ zarr))
        return values, cone, near

    return lattice_sum(term, 2, budget)[0]


def m3_generic(
    lines: Sequence[LineOnTorus], tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET
) -> CompositionResult:
    """Triple composition for four distinct-slope lines via the F series.

    Returns the zero result when the degree condition
    deg(1,2) + deg(2,3) + deg(3,4) = deg(1,4) + 1 fails.  The global sign
    is +1; tests/test_fukaya.py checks it against the polygon oracle.
    """
    if len(lines) != 4:
        raise DomainError("m3_generic needs exactly four lines")
    slopes = [ln.slope for ln in lines]
    if len(set(slopes)) != 4:
        raise DomainError("slopes must be pairwise distinct")
    degs = [hom_degree(slopes[i], slopes[i + 1]) for i in range(3)]
    if sum(degs) != hom_degree(slopes[0], slopes[3]) + 1:
        return ZERO_RESULT
    cfg = build_quad_config(slopes)
    y = [ln.shift_y for ln in lines]
    beta = [ln.monodromy_beta for ln in lines]
    z = [tau.tau * yi + bi for yi, bi in zip(y, beta)]
    # the holonomy of each polygon involves the shifted index n + v(y), so
    # the constant part e(sum v_i beta_i) joins the prefactor
    v = shift_vector(y, slopes)
    pre = e_of(
        tau.tau / 2 * delta_quad(y, slopes)
        + sum(float(vi) * bi for vi, bi in zip(v, beta))
    )
    l2, l3 = slopes[1], slopes[2]
    coeffs = {}
    for rep in cfg.coset_reps:
        k2, k3 = rep[1], rep[2]
        label = (int(-k2 - k3), int(l2 * k2 + l3 * k3))
        value = F_series(cfg, rep, z, tau, budget)
        coeffs[label] = coeffs.get(label, 0.0) + value
    return CompositionResult(prefactor=pre, coefficients=coeffs)


def _lift_offsets(slope: Fraction, radius: int) -> list[tuple[float, tuple[int, int]]]:
    """Distinct lift offsets a*slope + b with |a|, |b| <= radius, with labels."""
    seen = {}
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            c = a * slope + b
            if c not in seen:
                seen[c] = (a, b)
    return [(float(c), ab) for c, ab in sorted(seen.items())]


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
    classes, and binned by their output vertex on the first and last lines.
    Independent of the lattice / F-series machinery.
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
    points: dict = {}
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
                key = (round(p41[0] % 1.0, 9) % 1.0, round(p41[1] % 1.0, 9) % 1.0)
                bins[key] = bins.get(key, 0.0) + weight
                points.setdefault(key, lab4)
    coeffs = {points[k]: v for k, v in bins.items() if abs(v) > tol}
    return CompositionResult(prefactor=1.0 + 0.0j, coefficients=coeffs)


def composition_by_point(
    result: CompositionResult,
    line_first: LineOnTorus,
    line_last: LineOnTorus,
    digits: int = 6,
) -> dict:
    """Total coefficient values binned by geometric intersection point.

    Collapses label aliasing: labels naming the same point mod Z^2 are merged
    by summation.
    """
    out: dict = {}
    for (a, b), value in result.coefficients.items():
        x, tpt = intersection_point(line_first, line_last, a, b)
        key = (round(x, digits) % 1.0, round(tpt, digits) % 1.0)
        out[key] = out.get(key, 0.0) + result.sign * result.prefactor * value
    return out
