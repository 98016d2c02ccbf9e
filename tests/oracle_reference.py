"""The loop form of ``klab.fukaya.polygon_oracle``, kept as the tests' reference.

``polygon_oracle`` enumerates the quadrangles of lifted lines in three numpy
stages.  This is the nested loop it replaced: each lift offset of the second,
third and fourth lines in turn, with every test and the weight computed on
Python floats one quadrangle at a time.  The tests require the two to give
the same labels and values.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from klab.core import GUARD, DomainError, Modulus, e_of
from klab.fukaya import ORACLE_TOL, ZERO_RESULT, CompositionResult, _lift_offsets
from klab.lattice import LineOnTorus, hom_degree, intersection_point, point_label


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _same_torus_point(p, q, tol: float = 1e-9) -> bool:
    return all(abs((a - b + 0.5) % 1.0 - 0.5) < tol for a, b in zip(p, q))


def polygon_oracle(
    lines: Sequence[LineOnTorus],
    tau: Modulus,
    radius: int = 4,
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
    area_cut = -np.log(ORACLE_TOL) / (2 * np.pi * t.imag)
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
    return CompositionResult({k: v for k, v in bins.items() if abs(v) > ORACLE_TOL})

