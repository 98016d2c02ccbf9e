"""The hand-derived five-term identity, kept as an independent reference.

Each of the five terms of the A-infinity relation m2 m3 + m3 m2 = 0 on five
lines of slopes in the order l3 < l1 < l4 < l2 < l5 is written out as theta
series on a slope triple times the F series of a quadruple, with the F shifts
derived by hand from ideal decompositions (Polishchuk, "A-infinity
structures on an elliptic curve", Comm. Math. Phys. 247, 2004).  Each term is
the coefficient at the standard intersection point of the first and last
lines, up to one factor common to the five terms.  ``klab.verify`` composes
the same terms from ``m2_generic`` and ``m3_generic``; the tests pin that
composer against this derivation.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from klab import core, fukaya
from klab.core import DEFAULT_BUDGET, DomainError, Modulus, SummationBudget
from klab.fukaya import F_series
from klab.lattice import build_quad_config, build_triple_config

from lattice_reference import coset_vectors, ideal_of, triple_ideal


def theta_slope_coefficient(
    slopes: Sequence,
    n0,
    z: Sequence[complex],
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> complex:
    """m2's theta series on a slope triple at one shift n0, which need not be
    a coset of the triple's ideal (``fukaya._slope_record``), summed by
    ``core.lattice_sum`` looked up at call time, so a test can wrap it.
    Given a ``trace`` list, appends the sum's SeriesTrace."""
    tri = build_triple_config(slopes)
    if tri is None:
        raise DomainError("Gaussian coefficient must be positive (degree condition)")
    return core.lattice_sum(*fukaya._slope_record(tri, n0, *z, tau), budget, trace)[0]


def five_term_tables(slopes: Sequence[Fraction]) -> dict:
    """Shift vectors for the slope order l3 < l1 < l4 < l2 < l5.

    ``u1``/``u2`` shift the (1,3,4,5) series, ``v1``/``v2`` the (1,2,3,5)
    series, ``w1``/``w2``/``w3`` the (1,2,4,5) series, all in sub-quadruple
    slot order.
    """
    l1, l2, l3, l4, l5 = (Fraction(s) for s in slopes)
    return {
        "u1": (
            (l4 - l3) * (l2 - l1) / ((l4 - l1) * (l3 - l1)),
            (l1 - l2) / (l3 - l1),
            (l1 - l2) / (l1 - l4),
            Fraction(0),
        ),
        "u2": (
            (l5 - l3) * (l2 - l1) / ((l5 - l1) * (l3 - l1)),
            (l1 - l2) / (l3 - l1),
            Fraction(0),
            (l2 - l1) / (l5 - l1),
        ),
        "v1": (
            (l5 - l4) / (l5 - l1),
            Fraction(0),
            (l5 - l4) / (l3 - l5),
            (l5 - l4) * (l1 - l3) / ((l5 - l1) * (l3 - l5)),
        ),
        "v2": (
            Fraction(0),
            (l5 - l4) / (l5 - l2),
            (l5 - l4) / (l3 - l5),
            (l5 - l4) * (l2 - l3) / ((l5 - l2) * (l3 - l5)),
        ),
        "w1": (
            (l5 - l3) / (l5 - l1),
            (l4 - l3) / (l2 - l4),
            (l3 - l2) / (l2 - l4),
            (l3 - l1) / (l5 - l1),
        ),
        "w2": (
            Fraction(0),
            (l5 - l4) * (l2 - l3) / ((l5 - l2) * (l2 - l4)),
            (l3 - l2) / (l2 - l4),
            (l3 - l2) / (l5 - l2),
        ),
        "w3": (
            Fraction(0),
            (l4 - l3) / (l2 - l4),
            (l5 - l2) * (l3 - l4) / ((l2 - l4) * (l5 - l4)),
            (l3 - l4) / (l5 - l4),
        ),
    }


#: One row per term of the five-term identity, slots numbered 1..5:
#: (F quadruple, theta triple, plus-component cone signs of the quadruple,
#: pivot p, generator slots, split, shifts).  A term sums theta on its
#: triple times F on its quadruple over indices split across the ideals
#: (l_p - l_j) / (l_p - l_r) I_j for j in the generator slots, where r is the
#: middle slot of the triple.  Terms 1-2 split coordinate ``split`` of each
#: coset representative of the quadruple's lattice and shift F by it.  Terms
#: 3-5 (split None) run k over I_r modulo the triple ideal and shift F by
#: parts[i] * vector for each (i, key of five_term_tables) in shifts.
FIVE_TERM_ROWS = (
    ((2, 3, 4, 5), (1, 2, 5), (1, 1, -1, 1), 5, (2, 1), 0, ()),
    ((1, 2, 3, 4), (1, 4, 5), (1, -1, -1, 1), 1, (4, 5), 3, ()),
    ((1, 3, 4, 5), (1, 2, 3), (1, 1, -1, 1), 1, (3, 4, 5), None, ((1, "u1"), (2, "u2"))),
    ((1, 2, 3, 5), (3, 4, 5), (1, -1, -1, 1), 5, (1, 2, 3), None, ((0, "v1"), (1, "v2"))),
    ((1, 2, 4, 5), (2, 3, 4), (1, -1, -1, 1), 5, (1, 2, 4), None,
     ((0, "w1"), (1, "w2"), (2, "w3"))),
)


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Generator of the subgroup aZ + bZ of (Q, +)."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a x + b y = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    return old_x, old_y


def _decompose(value: Fraction, gens: Sequence[Fraction]) -> list:
    """Split value as a sum of elements of gens[i] * Z (greedy xgcd chain).

    Raises DomainError when value is not in the sum of the ideals.
    """
    gens = [Fraction(g) for g in gens]
    value = Fraction(value)
    if len(gens) == 1:
        q = value / gens[0]
        if q.denominator != 1:
            raise DomainError(f"{value} not in {gens[0]}Z")
        return [value]
    # combine all but the last into their gcd ideal, recurse
    head_gen = gens[0]
    for g in gens[1:-1]:
        head_gen = _frac_gcd(head_gen, g)
    d = math.lcm(head_gen.denominator, gens[-1].denominator, value.denominator)
    a, b = int(head_gen * d), int(gens[-1] * d)
    v = int(value * d)
    g = math.gcd(a, b)
    if v % g != 0:
        raise DomainError(f"{value} not in the ideal sum")
    x, y = _xgcd(a, b)
    k = v // g
    head_val = Fraction(x * k * a, d)
    tail_val = Fraction(y * k * b, d)
    if len(gens) == 2:
        return [head_val, tail_val]
    return _decompose(head_val, gens[:-1]) + [tail_val]


def five_term_values(
    slopes: Sequence,
    y: Sequence[float],
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
) -> list:
    """The five terms of the generic A-infinity identity (without the
    epsilon signs), for the implemented slope-order class l3<l1<l4<l2<l5;
    one sum per row of FIVE_TERM_ROWS, whose F shifts are one batch."""
    z = [tau.tau * yi for yi in y]
    terms = []
    for quad, tri, tri_slopes, cfg, pairs in _five_term_plan(tuple(slopes)):
        tri_z, quad_z = [z[i - 1] for i in tri], [z[i - 1] for i in quad]
        thetas = [theta_slope_coefficient(tri_slopes, n0, tri_z, tau, budget) for n0, _ in pairs]
        f_values = F_series(cfg, [shift for _, shift in pairs], quad_z, tau, budget)
        terms.append(sum((t * f for t, f in zip(thetas, f_values)), 0.0j))
    return terms


@lru_cache(maxsize=16)
def _five_term_plan(slopes: tuple) -> tuple:
    """The exact set-up of the five terms, once per slope tuple: per row of
    FIVE_TERM_ROWS, (quadruple slots, triple slots, triple slopes, config,
    pairs), where pairs holds the (theta shift, F shift) of each summand as
    floats."""
    slopes = [Fraction(s) for s in slopes]
    l1, l2, l3, l4, l5 = slopes
    if not (l3 < l1 < l4 < l2 < l5):
        raise DomainError(
            "only the slope order l3 < l1 < l4 < l2 < l5 is certified"
        )
    tables = five_term_tables(slopes)
    q = [ideal_of(s) for s in slopes]
    plan = []
    for quad, tri, signs, pivot, gen_slots, split, shifts in FIVE_TERM_ROWS:
        cfg = build_quad_config([slopes[i - 1] for i in quad])
        if cfg.plus_signs != signs:
            raise AssertionError(f"the plus component of {quad} is {cfg.plus_signs}, not {signs}")
        p, r = pivot - 1, tri[1] - 1
        gens = [(slopes[p] - slopes[j - 1]) / (slopes[p] - slopes[r]) * q[j - 1]
                for j in gen_slots]
        if split is None:
            period = triple_ideal(*(slopes[i - 1] for i in tri))
            vectors = [(i, tables[key]) for i, key in shifts]
            pairs = _index_shifts(range(0, period, q[r]), gens, vectors)
        else:
            pairs = _coset_shifts(coset_vectors([slopes[i - 1] for i in quad], cfg), split, gens)
        plan.append((quad, tri, tuple(slopes[i - 1] for i in tri), cfg, tuple(
            (float(n0), tuple(float(x) for x in shift)) for n0, shift in pairs
        )))
    return tuple(plan)


def _coset_shifts(reps, split: int, gens):
    """(theta shift, F shift) of terms 1-2: the second part of coordinate
    ``split`` of each coset representative that splits, and the representative."""
    for rep in reps:
        try:
            parts = _decompose(Fraction(rep[split]), gens)
        except DomainError:
            continue
        yield parts[1], rep


def _index_shifts(ks, gens, vectors):
    """(theta shift, F shift) of terms 3-5: each k, and the sum of
    parts[i] * vector over the (i, vector) pairs."""
    for k in ks:
        parts = _decompose(Fraction(k), gens)
        yield Fraction(k), tuple(
            sum(parts[i] * vec[j] for i, vec in vectors) for j in range(4)
        )
