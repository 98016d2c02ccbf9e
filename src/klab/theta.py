"""Classical theta function, its z-derivative, and the eta-product constant.

Conventions: theta(z, tau) = sum_n e(tau n^2 / 2 + n z), an entire even
function of z with a simple zero at xi = (tau + 1) / 2 and its translates.
theta and theta' are elementwise on numpy arrays of z, and take z less the
integer nearest Re(z) (``reduce_real``), as every evaluator does.
"""
from __future__ import annotations

import math

from .core import (
    DEFAULT_BUDGET, ConvergenceBudgetExceeded, DomainError, Envelope, TWO_PI_I, Modulus,
    Series1D, SummationBudget, _NUMBERS, convex_envelope, evaluate, lattice_sum,
)


def _theta_record(z, tau, derivative: bool = False, on=_NUMBERS) -> tuple:
    """The set-up of sum_n u_n e(tau n^2/2 + n z), u_n = 1 or 2 pi i n (stacked, on arrays).

    -log|e(tau n^2/2 + n z)| / 2 pi is Im(tau) n (n/2 + alpha(z)), least at the
    centre nearest -alpha(z).  For the derivative |u_n| <= 2 pi (1 + |centre|)
    e^|k| at n = centre + k, and the top is the centre's term or, at centre 0,
    its larger neighbour's."""
    t = tau.tau
    s, a = t.imag, on.alpha(z, tau)
    centre = on.round(-a)
    env = convex_envelope(s * centre * (centre / 2 + a), s / 2)
    # 2 pi i (tau n^2/2 + n z) at n = centre + k, as (e2 k + e1) k + e0
    e2, e1, e0 = TWO_PI_I * t / 2, TWO_PI_I * (centre * t + z), TWO_PI_I * (t * centre / 2 + z) * centre
    if derivative:
        ref = on.where(centre, centre, 1 - 2 * (a > 0))
        env = tuple.__new__(Envelope, (
            env.peak + on.log(2 * math.pi * (1 + abs(centre))), env.curv, env.rate - 1,
            on.log(2 * math.pi * abs(ref)) - 2 * math.pi * s * ref * (ref / 2 + a)))
    series = (e2, e1, e0, centre if derivative else None, None, 0j, 0, 0, 0j)
    return tuple.__new__(Series1D, series), env


def _theta_prime_record(z, tau, on=_NUMBERS) -> tuple:
    """The set-up of theta_prime."""
    return _theta_record(z, tau, True, on)


def theta(z: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
          trace: list | None = None) -> complex:
    """theta(z, tau) = sum_n e(tau n^2/2 + n z)."""
    return evaluate(_theta_record, (z, tau), budget, trace)


def theta_prime(z: complex, tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET, *,
                trace: list | None = None) -> complex:
    """d theta / dz by term-wise differentiation: sum_n 2 pi i n e(tau n^2/2 + n z)."""
    return evaluate(_theta_prime_record, (z, tau), budget, trace)


def _constant(tau: Modulus, name: str, budget: SummationBudget = DEFAULT_BUDGET,
              trace: list | None = None) -> complex:
    """A theta constant of tau alone, by name: "theta'(xi)/2 pi i" at tau, or
    "theta(0, 2 tau)" and "theta(xi, 2 tau)".  Each is summed at most once
    per Modulus and budget and kept in ``tau._memo``, keyed by the name and
    the budget's fields, with its SeriesTrace, which every call appends to
    ``trace``, so that a kept constant traces as its sum would."""
    key = name, budget.target_tol, budget.max_shell  # no dataclass __hash__ per call
    kept = tau._memo.get(key)
    if kept is None:
        series_trace = []
        if name == "theta'(xi)/2 pi i":
            value = lattice_sum(*_theta_record(tau.xi, tau, True), budget, series_trace) / TWO_PI_I
        else:
            z = {"theta(0, 2 tau)": 0, "theta(xi, 2 tau)": tau.xi}[name]
            value = lattice_sum(*_theta_record(z, tau.scaled(2)), budget, series_trace)
        kept = tau._memo[key] = value, series_trace[0]
    if trace is not None:
        trace.append(kept[1])
    return kept[0]


def eta_cubed_constant(tau: Modulus, budget: SummationBudget = DEFAULT_BUDGET) -> complex:
    """The product prod_{n>=1} (1 - q^n)^3, which equals theta'((tau+1)/2) / 2 pi i.

    Truncated after the first factor N at which 3 |q|^(N+1) / (1 - |q|), a
    first-order bound on the log of the dropped factors, times
    max(1, |product|) is below target_tol: an absolute error bound, also
    where the product exceeds 1.  More than ``max_shell`` factors raise
    ConvergenceBudgetExceeded, and |q| rounding to 1 raises DomainError.
    """
    q = tau.q
    aq = abs(q)
    if not aq < 1:
        raise DomainError(f"|q| rounds to 1 at tau = {tau.tau!r}")
    prod = qn = 1.0 + 0.0j
    for _ in range(budget.max_shell):
        qn *= q
        prod *= (1 - qn) ** 3
        if 3 * abs(qn) * aq / (1 - aq) * max(1.0, abs(prod)) < budget.target_tol:
            return prod
    raise ConvergenceBudgetExceeded(f"the product needs more than {budget.max_shell} factors")
