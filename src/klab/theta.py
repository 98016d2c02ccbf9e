"""Classical theta function, its z-derivative, and the eta-product constant.

Conventions: theta(z, tau) = sum_n e(tau n^2 / 2 + n z), an entire even
function of z with a simple zero at xi = (tau + 1) / 2 and its translates.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    TWO_PI_I,
    Modulus,
    SummationBudget,
    lattice_sum,
)


def theta(
    z: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """theta(z, tau) = sum_n e(tau n^2/2 + n z)."""
    t2 = tau.tau / 2

    def term(n):
        return np.exp(TWO_PI_I * (t2 * (n * n) + n * z)), None, None

    return lattice_sum(term, 1, budget, trace)[0]


def theta_prime(
    z: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """d theta / dz by term-wise differentiation: sum_n 2 pi i n e(tau n^2/2 + n z)."""
    t2 = tau.tau / 2

    def term(n):
        return TWO_PI_I * n * np.exp(TWO_PI_I * (t2 * (n * n) + n * z)), None, None

    return lattice_sum(term, 1, budget, trace)[0]


def eta_cubed_constant(tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET) -> complex:
    """The product prod_{n>=1} (1 - q^n)^3, which equals theta'((tau+1)/2) / 2 pi i.

    Truncated at the smallest N with |q|^(N+1) * 3 / (1 - |q|) < target_tol,
    a first-order bound on the log of the dropped factors.
    """
    q = tau.q
    aq = abs(q)
    if aq == 0.0:
        return 1.0 + 0.0j
    bound = budget.target_tol * (1 - aq) / 3
    n_terms = max(1, math.ceil(math.log(bound) / math.log(aq)) - 1) if bound < 1 else 1
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(1, n_terms + 1):
        qn *= q
        prod *= (1 - qn) ** 3
    return prod
