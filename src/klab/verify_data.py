"""Closed-form tables for the five-term identity: the ideal-decomposition
shift vectors, and one row of data per term with the cone sign conventions
of its sub-quadruple."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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
