"""Shared numerics: exponential conventions, the lattice-sum kernel, error taxonomy.

Every series in this package (theta, theta', kappa, g0, the cone series h
and h0, and the coefficient series F of the triple composition) is a sum of
sign * e(tau/2 Q(n) + <n, z>) over a shifted lattice n = base + A k, k in
Z^dim with dim 1 or 2, sometimes restricted to a cone.  For F, Q and the
cone are those of ``lattice.QuadLatticeConfig``.  ``lattice_sum`` is
the one loop that sums them.  Each series hands it a vectorized term over
index arrays; the kernel walks the shells of sup-norm radius 0, 1, 2, ... of
k in a fixed order, evaluating BLOCK_SHELLS shells per call of the term.

f and g are quadrant cone series too, but one index enters their exponent
linearly, so ``appell_lerch_sum`` does the geometric sum over it in closed
form and leaves a 1-D Appell-Lerch sum, like kappa and g0; h and h0 are
summed over their cone by ``quadrant_cone_sum``.

Stop rule: a shell stalls when its sum is below ``target_tol`` in modulus.
Stalls count only from the first shell that meets the cone (decided by the
cone mask, not by a zero term), and summation stops at the ``stall_shells``-th
consecutive stall; values of shells past the stop are discarded.  Reaching
``max_shell`` first raises ConvergenceBudgetExceeded; a sum that is not
finite at the stop or at ``max_shell`` raises DomainError instead.  The order
of every sum is fixed, so results are bit-reproducible for a fixed budget.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

TWO_PI_I = 2j * math.pi

#: Guard radius in alpha-coordinates: evaluations closer than this to a pole
#: locus or cone boundary are rejected rather than attempted.
GUARD = 1e-9


class EvalError(Exception):
    """Base class for evaluation failures.

    ``kind`` is the machine-readable discriminator; the exception message is
    human-facing diagnostic text only.
    """

    kind = "EvalError"

    @property
    def detail(self) -> str:
        return str(self)


class DomainError(EvalError):
    kind = "DomainError"


class PoleProximity(EvalError):
    kind = "PoleProximity"


class BoundaryProximity(EvalError):
    kind = "BoundaryProximity"


class ConvergenceBudgetExceeded(EvalError):
    kind = "ConvergenceBudgetExceeded"


@dataclass(frozen=True)
class Modulus:
    """Complex modulus tau in the upper half-plane."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not (tau.imag > 0):
            raise DomainError(f"tau={tau!r} must lie in the upper half-plane")

    @property
    def q(self) -> complex:
        """Nome e(tau); |q| < 1."""
        return e_of(self.tau)

    @property
    def xi(self) -> complex:
        """Half-period point (tau + 1) / 2, the zero of the theta function."""
        return (self.tau + 1) / 2

    def scaled(self, k: int) -> "Modulus":
        """Modulus with tau replaced by k * tau (k a positive integer)."""
        if k < 1 or k != int(k):
            raise DomainError(f"scale {k!r} must be a positive integer")
        return Modulus(k * self.tau)


@dataclass(frozen=True)
class SummationBudget:
    """Truncation policy shared by every series evaluator.

    Summation stops after ``stall_shells`` consecutive shells, counted from
    the first shell that meets the cone, each contribute less than
    ``target_tol`` in absolute value; ``max_shell`` caps the shell radius and
    exceeding it raises ConvergenceBudgetExceeded.
    """

    target_tol: float = 1e-12
    max_shell: int = 200
    stall_shells: int = 2

    def __post_init__(self):
        if not self.target_tol > 0:
            raise DomainError("target_tol must be positive")
        if self.max_shell < 1:
            raise DomainError("max_shell must be >= 1")
        if self.stall_shells < 1:
            raise DomainError("stall_shells must be >= 1")


DEFAULT_BUDGET = SummationBudget()


def e_of(z: complex) -> complex:
    """The exponential e(z) = exp(2 pi i z)."""
    return cmath.exp(TWO_PI_I * z)


def alpha(z: complex, tau: Modulus) -> float:
    """Slope coordinate Im(z) / Im(tau); a non-finite z raises DomainError."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z!r} is not finite")
    return z.imag / tau.tau.imag


def dist_to_integers(x: float) -> float:
    """Distance from x to the nearest integer, in [0, 1/2]."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)




#: Shells of the index lattice evaluated per vectorized call of a series term.
BLOCK_SHELLS = 8


@dataclass(frozen=True)
class SeriesTrace:
    """How one lattice sum was computed.

    ``shells`` is the radius of the shell at which summation stopped,
    ``terms`` the number of indices evaluated up to and including that shell
    and ``terms_in_cone`` how many of them lay in the summation cone.
    """

    shells: int
    terms: int
    terms_in_cone: int


def _shell(dim: int, r: int) -> np.ndarray:
    """Points of Z^dim (dim 1 or 2) of sup-norm exactly r, lexicographic, one per row."""
    if r == 0:
        return np.zeros((1, dim), dtype=int)
    if dim == 1:
        return np.array([[-r], [r]])
    side = np.arange(-r, r + 1)
    edge = np.full(2 * r + 1, r)
    m = np.concatenate([-edge, np.repeat(side[1:-1], 2), edge])
    n = np.concatenate([side, np.tile(side[[0, -1]], 2 * r - 1), side])
    return np.stack([m, n], axis=1)


@lru_cache(maxsize=None)
def shell_block(dim: int, block: int) -> tuple:
    """Indices k in Z^dim of sup-norm block*BLOCK_SHELLS .. (block+1)*BLOCK_SHELLS - 1.

    Returns ``(k, starts, sizes)``: ``k`` holds one integer array per
    coordinate, shell after shell in increasing radius and each shell in
    lexicographic order; shell i of the block starts at ``starts[i]`` and
    has ``sizes[i]`` points.
    """
    shells = [_shell(dim, r) for r in range(block * BLOCK_SHELLS, (block + 1) * BLOCK_SHELLS)]
    sizes = [len(sh) for sh in shells]
    grid = np.concatenate(shells)
    starts = np.cumsum([0] + sizes[:-1])
    return tuple(grid[:, i].copy() for i in range(dim)), starts, sizes


def _block_sums(term: Callable[..., tuple], dim: int, block: int) -> tuple:
    """One vectorized call of ``term`` on a block of shells, reduced to
    per-shell lists: sums, their moduli, sizes, cone sizes, and the index of
    the first shell holding a near-boundary index (BLOCK_SHELLS if none).

    Only these small lists reach the caller, so an error raised there keeps
    no block-sized array alive through its traceback.
    """
    k, starts, sizes = shell_block(dim, block)
    # A non-finite term is reported as DomainError where the sum stops, so
    # numpy's warnings are noise.  The moduli come from numpy too: Python's
    # abs() of a nan complex can raise OverflowError from an errno that an
    # overflowing exp left behind.
    with np.errstate(invalid="ignore", over="ignore"):
        values, cone, near = term(*k)
        sums = np.add.reduceat(values, starts)
        moduli = np.abs(sums).tolist()
    cone_sizes = sizes if cone is None else np.add.reduceat(cone, starts, dtype=int).tolist()
    near_shell = BLOCK_SHELLS
    if near is not None and near.any():
        near_shell = int(np.searchsorted(starts, np.argmax(near), side="right")) - 1
    return sums.tolist(), moduli, sizes, cone_sizes, near_shell


def lattice_sum(
    term: Callable[..., tuple],
    dim: int,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> tuple[complex, SeriesTrace]:
    """Sum a series over the shells of Z^dim (dim 1 or 2); the one summation
    loop of the package.  Returns ``(value, SeriesTrace)`` and appends the
    trace to ``trace`` when a list is given.

    ``term(*k)`` receives the index arrays of one block of shells (see
    shell_block) and returns ``(values, cone, near)``: the terms, zero
    outside the cone; a boolean cone mask, or None when every index is in the
    cone; and a boolean mask of indices within the guard distance of the cone
    boundary, or None.  A near index in a shell the stop rule consumes raises
    BoundaryProximity.
    """
    tol, needed = budget.target_tol, budget.stall_shells
    total = 0.0 + 0.0j
    stall = terms = in_cone = 0
    for lo in range(0, budget.max_shell + 1, BLOCK_SHELLS):
        sums, moduli, sizes, cone_sizes, near_shell = _block_sums(term, dim, lo // BLOCK_SHELLS)
        for i in range(min(BLOCK_SHELLS, budget.max_shell + 1 - lo)):
            if i == near_shell:
                raise BoundaryProximity("summand within guard distance of the cone boundary")
            total += sums[i]
            terms += sizes[i]
            in_cone += cone_sizes[i]
            if moduli[i] >= tol:
                stall = 0
            elif in_cone:
                stall += 1
                if stall >= needed:
                    if not cmath.isfinite(total):
                        raise DomainError("series value is not finite")
                    result = SeriesTrace(lo + i, terms, in_cone)
                    if trace is not None:
                        trace.append(result)
                    return total, result
    if not cmath.isfinite(total):
        raise DomainError("series value is not finite")
    raise ConvergenceBudgetExceeded(
        f"no {budget.stall_shells} consecutive shells below {budget.target_tol} "
        f"after meeting the cone within radius {budget.max_shell}"
    )


def _reject_integer_shifts(*shifts: float) -> None:
    """A cone shift within GUARD of an integer puts terms on the cone
    boundary, a pole of the series in its arguments: raise PoleProximity."""
    for shift in shifts:
        if dist_to_integers(shift) <= GUARD:
            raise PoleProximity(f"cone shift {shift} is within {GUARD} of an integer")


def quadrant_cone_sum(
    u_shift: float,
    v_shift: float,
    exponent: Callable[[np.ndarray, np.ndarray], np.ndarray],
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> complex:
    """Sum of sign(u) e(exponent(m, n)) over the pairs (m, n) with
    u v > 0, where u = m + u_shift and v = n + v_shift.
    """
    _reject_integer_shifts(u_shift, v_shift)

    def term(m, n):
        u = m + u_shift
        cone = u * (n + v_shift) > 0
        values = np.zeros(len(m), dtype=complex)
        values[cone] = np.sign(u[cone]) * np.exp(TWO_PI_I * exponent(m[cone], n[cone]))
        return values, cone, None

    return lattice_sum(term, 2, budget, trace)[0]


def appell_lerch_sum(
    quad: complex,
    lin: complex,
    c: complex,
    n_shift: float,
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> complex:
    """The quadrant cone sum of sign(u) e(quad m^2 + lin m + n (m tau + c))
    over u v > 0, where u = m + alpha(c) and v = n + n_shift, with the
    geometric sum over n done in closed form.  That leaves the Appell-Lerch sum

        sum_m e(quad m^2 + lin m) x_m^N / (1 - x_m),  x_m = e(m tau + c),

    with N = floor(-n_shift) + 1.  For u < 0 the term is the equal
    -x_m^(N-1) / (1 - 1/x_m), so no exponential exceeds 1 in modulus.

    The stop rule counts stalls from the first shell, so the walk is centred
    on the index of the largest numerator: its modulus is log-concave in m,
    with a kink at the cone boundary m = -alpha(c), so the peak is next to the
    kink or at the rounded vertex of one of the two quadratic pieces.
    """
    m_shift = alpha(c, tau)
    _reject_integer_shifts(m_shift, n_shift)
    t = tau.tau
    n0 = math.floor(-n_shift) + 1
    kink = math.floor(-m_shift)  # the largest m with u < 0
    qi, li = quad.imag, lin.imag

    def height(m):
        """-log|e(quad m^2 + lin m) x_m^N'| / 2 pi, N' the power of m's branch."""
        return qi * m * m + li * m + (n0 - (m <= kink)) * (m * t.imag + c.imag)

    candidates = [kink, kink + 1]
    if qi > 0:
        candidates += [min(kink, round(-(li + (n0 - 1) * t.imag) / (2 * qi))),
                  max(kink + 1, round(-(li + n0 * t.imag) / (2 * qi)))]
    m_peak = min(candidates, key=height)

    def term(k):
        m = m_peak + k
        sign = np.where(m > kink, 1, -1)
        w = TWO_PI_I * (m * t + c)
        num = np.exp(TWO_PI_I * (quad * (m * m) + lin * m) + (n0 - (sign < 0)) * w)
        return sign * num / (1 - np.exp(sign * w)), None, None

    return lattice_sum(term, 1, budget, trace)[0]
