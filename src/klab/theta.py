"""Classical theta function, its z-derivative, and the eta-product constant.

Conventions: theta(z, tau) = sum_n e(tau n^2 / 2 + n z), an entire even
function of z with a simple zero at xi = (tau + 1) / 2 and its translates.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Envelope,
    TWO_PI_I,
    Modulus,
    SummationBudget,
    alpha,
    convex_envelope,
    lattice_sum,
)


def _theta_sum(z, tau, budget, trace, derivative: bool) -> complex:
    """sum_n u_n e(tau n^2/2 + n z), u_n = 1, or 2 pi i n for the derivative.

    -log|e(tau n^2/2 + n z)| / 2 pi is Im(tau) n (n/2 + alpha(z)), least at the
    centre nearest -alpha(z).  For the derivative |u_n| <= 2 pi (1 + |centre|)
    e^|k| at n = centre + k, and the top is the centre's term or, at centre 0,
    its larger neighbour's."""
    t = tau.tau
    s, a = t.imag, alpha(z, tau)
    centre = round(-a)
    env = convex_envelope(s * centre * (centre / 2 + a), s / 2)
    # 2 pi i (tau n^2/2 + n z) at n = centre + k, as (e2 k + e1) k + e0
    e2, e1, e0 = TWO_PI_I * t / 2, TWO_PI_I * (centre * t + z), TWO_PI_I * (t * centre / 2 + z) * centre
    if derivative:
        ref = centre or (1 if a <= 0 else -1)
        env = Envelope(env.peak + math.log(2 * math.pi * (1 + abs(centre))), env.curv, env.rate - 1,
                       math.log(2 * math.pi * abs(ref)) - 2 * math.pi * s * ref * (ref / 2 + a))

    def term(k):
        values = np.exp((e2 * k + e1) * k + e0)
        return (TWO_PI_I * (k + centre) * values if derivative else values), None, None

    return lattice_sum(term, 1, env, budget, trace)[0]


def theta(
    z: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """theta(z, tau) = sum_n e(tau n^2/2 + n z)."""
    return _theta_sum(z, tau, budget, trace, False)


def theta_prime(
    z: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
    trace: list | None = None,
) -> complex:
    """d theta / dz by term-wise differentiation: sum_n 2 pi i n e(tau n^2/2 + n z)."""
    return _theta_sum(z, tau, budget, trace, True)


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
