"""Shared numerics: exponential conventions, the lattice-sum kernel, error taxonomy.

Every series here (theta, theta', kappa, g0, f, g, the cone series h and h0,
and the coefficient series F of the triple composition) is a sum of
sign * e(tau/2 Q(n) + <n, z>) over a shifted lattice n = base + A k, k in
Z^dim with dim 1 or 2, sometimes restricted to a cone (for F, the cone and Q
of ``lattice.QuadLatticeConfig``).  ``lattice_sum`` is the one loop that sums
them: each series hands it its terms and an ``Envelope``, a bound on the
log-modulus of its terms read off its quadratic form.  A series is a record
that one set-up function returns with its dim and Envelope: a 1-D record
with a ``short_terms`` method, summed in Python complex numbers up to radius
``SHORT_RADIUS`` and in numpy beyond, or a 2-D numpy term (F alone).  For f
and g one index enters linearly, so ``appell_record`` sums it in closed form
and leaves a 1-D Appell-Lerch sum (``lerch_record``); for h and h0 the cone
holds finitely many points on each line of one index, so ``hfun`` sums
those in each term of a 1-D series.

A set-up takes numbers or, given ``on`` = ``_ARRAYS``, 1-D numpy arrays: it
then returns one stacked record and Envelope, whose fields are arrays (or
numbers shared by all series), each element with the bits of its scalar
set-up, and ``lattice_sum`` sums them as one batch over a shared box, as it
does the cosets of one F.  ``sum_series`` so sums an evaluator's arrays.

Stop rule: the kernel takes the smallest radius R at which each envelope
bounds its series' terms with |k| >= R by ``target_tol`` times its largest
term (a Gaussian tail, or a geometric one for f), sums every |k| <= R in one
call of the term, and checks that each series' outer ring |k| = R holds less
than ``target_tol`` of its largest term.  If one does not, the whole batch is
redone once at the radius its certificates ask for, at least R + 1.  An R
beyond ``max_shell`` raises ConvergenceBudgetExceeded naming that R; a sum
that is not finite or whose modulus overflows, or whose largest term is
below the normal float range, raises DomainError.  R is measured from
the peak of the terms, so each series centres its index there.  Every sum
has a fixed order, so results are bit-reproducible for a fixed budget.
"""
from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from types import ModuleType
from typing import Callable, NamedTuple, Sequence

import numpy as np

TWO_PI_I = 2j * math.pi
_TWO_PI = 2 * math.pi

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
    """Truncation policy shared by every series evaluator: a sum is cut where
    the terms it drops are bounded by ``target_tol`` times its largest term,
    at a radius of at most ``max_shell`` (or ConvergenceBudgetExceeded); the
    default covers f down to alpha-margins of 0.03 at Im(tau) = 0.12."""

    target_tol: float = 1e-12
    max_shell: int = 2048

    def __post_init__(self):
        if not self.target_tol > 0:
            raise DomainError("target_tol must be positive")
        if self.max_shell < 1:
            raise DomainError("max_shell must be >= 1")
        object.__setattr__(self, "log_tol", math.log(self.target_tol))  # read by every sum


DEFAULT_BUDGET = SummationBudget()


def e_of(z):
    """e(z) = exp(2 pi i z), elementwise on numpy arrays; DomainError where not finite."""
    if type(z) is not np.ndarray:
        try:
            return cmath.exp(TWO_PI_I * z)
        except OverflowError:
            raise DomainError(f"e({z!r}) overflows the float range") from None
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(TWO_PI_I * z)
    if not np.isfinite(value).all():
        raise DomainError("e(z) is not finite at an element of z")
    return value


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


def _each(f: Callable, dtype: type = float) -> Callable:
    """``f`` on a number, or on each element of a 1-D array through ``f``."""
    return lambda x: np.fromiter(map(f, x.tolist()), dtype, x.size) if type(x) is np.ndarray else f(x)


def _alphas(z, tau: Modulus):
    """``alpha`` elementwise."""
    if not np.isfinite(z).all():
        raise DomainError(f"argument {_ARRAYS.first(z, ~np.isfinite(z))!r} is not finite")
    return z.imag / tau.tau.imag


def _unstack(env: Envelope, n: int) -> list:
    """The Envelopes, as numbers, of the n series of a stacked Envelope."""
    fields = (f.tolist() if type(f) is np.ndarray else repeat(f, n) for f in env)
    return [tuple.__new__(Envelope, member) for member in zip(*fields)]


def _lex_less(x: tuple, y: tuple):
    """x < y elementwise, for tuples of arrays in the order of Python's tuples."""
    less, tied = False, True
    for a, b in zip(x, y):
        less, tied = less | (tied & (a < b)), tied & (a == b)
    return less


#: The steps of a set-up or the kernel that are not plain arithmetic, on numbers
#: and elementwise on 1-D arrays (where a value shared by all may stay a number).
#: A set-up's steps give an element its scalar bits: ``_each`` maps Python's
#: log, complex exp and abs, as numpy's can differ in the last bit; exp and log1p
#: only decide the kernel's integer radii.  A number's test is a bool, so
#: ``x is True`` (``x is False``) settles it without a call of ``on.all`` (``any``).
#: Each is a module, whose attributes Python looks up as fast as ``math``'s.
_NUMBERS, _ARRAYS = ModuleType("numbers"), ModuleType("arrays")
_NUMBERS.__dict__.update(
    alpha=alpha, dist=dist_to_integers, isfinite=cmath.isfinite, first=lambda x, mask: x,
    floor=math.floor, ceil=math.ceil, round=round, sqrt=math.sqrt, log=math.log, log1p=math.log1p,
    exp=math.exp, cexp=cmath.exp, abs=abs, hypot=math.hypot, minimum=min, maximum=max,
    lex_less=operator.lt, lex_min=min, where=lambda cond, a, b: a if cond else b, any=bool, all=bool)
_ARRAYS.__dict__.update(
    alpha=_alphas, dist=lambda x: np.minimum(x - np.floor(x), 1.0 - (x - np.floor(x))),
    isfinite=np.isfinite, floor=np.floor, ceil=np.ceil, round=np.rint, sqrt=np.sqrt,
    first=lambda x, mask: x[int(np.argmax(mask))].item() if type(x) is np.ndarray else x,
    log=_each(math.log), log1p=np.log1p, exp=np.exp, cexp=_each(cmath.exp, complex),
    abs=_each(abs),
    hypot=lambda x, y: np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, x.size),
    minimum=np.minimum, maximum=np.maximum, lex_less=_lex_less,
    lex_min=lambda x, y: tuple(np.where(_lex_less(y, x), b, a)[()] for a, b in zip(x, y)),
    where=lambda cond, a, b: np.where(cond, a, b)[()],
    any=lambda x: bool(np.logical_or.reduce(x)) if type(x) is np.ndarray else bool(x),
    all=lambda x: bool(np.logical_and.reduce(x)) if type(x) is np.ndarray else bool(x))


def reject_integer_shifts(*shifts: float, on=_NUMBERS) -> None:
    """A cone shift within GUARD of an integer puts terms on the cone
    boundary, a pole of the series in its arguments: raise PoleProximity."""
    for shift in shifts:
        near = on.dist(shift) <= GUARD
        if near is not False and on.any(near):
            raise PoleProximity(f"cone shift {on.first(shift, near)} is within {GUARD} of an integer")


_LOG2 = math.log(2)
#: Largest batch whose radii and certificates are taken series by series, in
#: Python numbers: numpy's per-call cost outweighs its per-series gain below it.
SMALL_BATCH = 16
_LOG_MAX = math.log(sys.float_info.max)
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)
#: Largest radius of a 2-D sum: its term's arrays then hold tens of MB at most.
MAX_RADIUS_2D = 255


class Envelope(NamedTuple):
    """Bound on a lattice sum's terms, |term(k)| <= exp(peak - curv j^2 - rate j)
    at sup-norm j of k past the truncation radius; ``top`` is the log-modulus
    of a term with |k| <= 1 (so at most the largest), or else an estimate;
    stacked for a batch: ``top`` an array, other fields arrays or shared."""

    peak: float
    curv: float
    rate: float
    top: float


class SeriesTrace(NamedTuple):
    """How one lattice sum was computed: the truncation radius R, the indices
    evaluated (|k| <= R), the lattice points in the cone that their terms sum,
    the outer ring's summed modulus over the largest term, and what fixed R
    ("tail bound" or "ring check")."""

    radius: int
    terms: int
    terms_in_cone: int
    ring: float
    stop: str


def convex_envelope(h0: float, curv: float, d2: float | None = None, lo: float = 0.0,
                    hi: float = 0.0) -> Envelope:
    """Envelope of 1-D terms u_m e^(-2 pi height(m)), m = centre + k, where
    height is convex with second differences >= 2 curv and least over the
    integers at the centre, where it is h0; log|u_m| <= hi everywhere and >= lo
    at the centre.  As height(m) - curv m^2 is convex, height(m) - h0 >=
    curv (j - 1)(j - 2) + (j - 1) d2 at j = |k|, for d2 from 2 curv (the
    default) up to the smaller step from centre +- 1 to centre +- 2.
    """
    if d2 is None:
        d2 = 2 * curv
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(Envelope, (hi - _TWO_PI * (h0 + 2 * curv - d2), _TWO_PI * curv,
                                    _TWO_PI * (d2 - 3 * curv), lo - _TWO_PI * h0))


def cone_envelope(const, width, lam) -> Envelope:
    """Envelope of 2-D terms of log-modulus const - pi width q(p), p on a
    closed cone where q(p) >= lam |p|^2 and |p| >= j - 1/2 (the index centred
    on the apex); the peak is also the estimate of the largest term."""
    c = math.pi * width
    peak = const - c * lam / 4
    return tuple.__new__(Envelope, (peak, c * lam, -c * lam, peak))


def _tail(dim: int, env: Envelope, r: float, on=_NUMBERS) -> float:
    """log of a bound on exp(-psi(j)), psi(j) = curv j^2 + rate j increasing
    past r, summed over the indices of sup-norm j >= r: count exp(-psi(r)) /
    (1 - e^-d)^dim, d = psi(r+1) - psi(r), count = 2 or 8 (r + 1) (the rings)."""
    d = env.curv * (2 * r + 1) + env.rate
    return ((_LOG2 if dim == 1 else on.log(8 * (r + 1))) - dim * on.log1p(-on.exp(-d))
            - r * (env.curv * r + env.rate))


def _radius(dim: int, env: Envelope, slack: float, log_tol: float, on=_NUMBERS) -> float:
    """The least R >= 1 with slack + _tail(R) <= log_tol from a closed-form
    start (inf without decay): psi(R) = level, where the level allows one nat
    for _tail's ring count and ratio, or all of them for a geometric envelope,
    whose ratio d = rate is fixed; on arrays (``on``), elementwise as floats."""
    curv, rate = env.curv, env.rate
    level = (slack - log_tol if (slack > log_tol) is True
             else (slack - log_tol) * (slack > log_tol))
    gauss = curv > 0
    if gauss is True or (gauss is not False and on.all(gauss)):
        radius = (on.sqrt(rate * rate + 4 * curv * (level + 1)) - rate) / (2 * curv)
    else:  # geometric envelopes, where 1.0 stands in for a rate (or curv) that has none
        d = rate if (rate > 0) is True else on.where(rate > 0, rate, 1.0)
        radius = on.where(rate > 0, (level + _LOG2 - dim * on.log1p(-on.exp(-d))) / d, math.inf)
        if gauss is not False:  # and Gaussian ones beside them in a batch
            c = on.where(gauss, curv, 1.0)
            radius = on.where(gauss, (on.sqrt(rate * rate + 4 * c * (level + 1)) - rate) / (2 * c),
                              radius)
    if (radius < 1e9) is not True and not on.all(radius < 1e9):
        # a batch with an infinite radius raises: the others are left as they are
        return on.where(radius < 1e9, radius, math.inf)
    radius = (on.ceil(radius) if (radius > 1) is True  # ceil(R) if R > 1 else 1
              else on.ceil(radius) * (radius > 1) + (radius <= 1))
    while True:
        short = slack + _tail(dim, env, radius, on) > log_tol
        if short is False or not on.any(short):
            return radius
        radius = radius + short


def _box(dim: int, radius: int) -> tuple:
    """The indices of the box |k| <= radius of Z^dim, lexicographic, one array
    per coordinate, and the positions of its outer ring |k| = radius."""
    side = np.arange(-radius, radius + 1)
    k = (side,) if dim == 1 else (np.repeat(side, side.size), np.tile(side, side.size))
    return k, np.flatnonzero(np.abs(k).max(axis=0) == radius)


#: boxes up to radius 64 are kept, 0.5 MB at most
_cached_box = lru_cache(maxsize=64)(_box)
#: Largest radius of a 1-D series summed in Python complex numbers: numpy's
#: per-call cost outweighs its per-term gain below about 33 terms.
SHORT_RADIUS = 16


def _expm1(w: complex) -> complex:
    """e^w - 1, exact also for w near 0: numpy's formula for np.expm1."""
    half = math.sin(w.imag / 2)
    return complex(math.expm1(w.real) * math.cos(w.imag) - 2 * half * half,
                   math.exp(w.real) * math.sin(w.imag))


class Series1D(NamedTuple):
    """A 1-D series as data for ``lattice_sum``: its term at k is u e^E,
    E = (e2 k + e1) k + e0, and u = 1 or, given ``centre``, 2 pi i (k + centre).
    Given ``w1``, it is the Appell-Lerch term -e^E / (e^w - 1), w = w1 k + w0,
    for k > split and the equal e^(E - w) / (e^-w - 1) for k <= split; only
    at k = ``pole`` can e^w - 1 lose digits, as elsewhere |e^w - 1| >=
    1 - e^(-pi Im(tau)).  A stacked record, whose ``e0`` is an array with
    an element per series (other fields arrays, or shared), is a numpy term
    of the batch."""

    e2: complex
    e1: complex
    e0: complex
    centre: float | None = None
    w1: complex | None = None
    w0: complex = 0j
    split: int = 0
    pole: int = 0

    def __call__(self, k: np.ndarray, members=slice(None)) -> tuple:
        """The terms at the integers k (stacked, a row per one of ``members``)."""
        e2, e1, e0, centre, w1, w0, split, _ = self
        if type(e0) is np.ndarray:
            e2, e1, e0, centre, w1, w0, split, _ = (
                f[members, None] if type(f) is np.ndarray else f for f in self)
        exponent = (e2 * k + e1) * k + e0
        if w1 is None:
            values = np.exp(exponent)
            return (values if centre is None else TWO_PI_I * (k + centre) * values), None, None
        w = w1 * k + w0
        low = k <= split
        num = np.exp(np.where(low, exponent - w, exponent))
        return np.where(low, num, -num) / np.expm1(np.where(low, -w, w)), None, None

    def short_terms(self, radius: int) -> tuple:
        """The terms with |k| <= radius as Python complex numbers, and their number."""
        e2, e1, e0, centre, w1, w0, split, pole = self
        exp, values = cmath.exp, []
        if w1 is None:  # a loop per kind: the test per term costs theta's sum 9%
            if centre is None:
                for k in range(-radius, radius + 1):
                    values.append(exp((e2 * k + e1) * k + e0))
            else:
                for k in range(-radius, radius + 1):
                    values.append(TWO_PI_I * (k + centre) * exp((e2 * k + e1) * k + e0))
            return values, len(values)
        for k in range(-radius, radius + 1):
            x, w, sign = (e2 * k + e1) * k + e0, w1 * k + w0, -1
            if k <= split:
                x, w, sign = x - w, -w, 1
            values.append(sign * exp(x) / (_expm1(w) if k == pole else exp(w) - 1))
        return values, len(values)


def _short_sum(series, radius: int) -> tuple | None:
    """``_box_sum`` of a single 1-D record, in Python complex numbers."""
    try:
        values, points = series.short_terms(radius)
        total = sum(values)
        moduli = list(map(abs, values))
    except (OverflowError, ZeroDivisionError):
        return None
    if not math.isfinite(math.hypot(total.real, total.imag)):
        return None
    return (total, max(moduli), moduli[0] + moduli[-1], points), False


def _box_sum(term: Callable[..., tuple], dim: int, radius: int, batch: bool) -> tuple | None:
    """One call of a numpy term on the box, reduced to Python scalars (so a
    raised error pins no box-sized array): sum, largest modulus, outer ring's
    summed moduli and cone count, for a batch the list of sums and arrays of
    the others, and whether an index is near a cone boundary; None when a sum
    or modulus is not finite."""
    k, ring = (_cached_box if radius <= 64 else _box)(dim, radius)
    # an overflow, which the size check of the largest term does not rule
    # out, is reported as DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        values, cone, near = term(*k)
    near = near is not None and bool(near.any())
    if batch:
        # one reduction per statistic along the box axis, each row summed on its own
        sums = np.add.reduce(values, axis=1)
        if not all(map(math.isfinite, map(math.hypot, sums.real.tolist(), sums.imag.tolist()))):
            return None
        moduli = np.abs(values)
        return (sums.tolist(), np.maximum.reduce(moduli, axis=1),
                np.add.reduce(moduli.take(ring, axis=1), axis=1),
                [values.shape[1]] * len(sums) if cone is None
                else np.add.reduce(cone, axis=1).tolist()), near
    total = complex(np.add.reduce(values))
    # parts below the float maximum can still have a modulus above it, on
    # which abs() would raise OverflowError
    if not math.isfinite(math.hypot(total.real, total.imag)):
        return None
    moduli = np.abs(values)
    return (total, float(np.maximum.reduce(moduli)), float(np.add.reduce(moduli[ring])),
            values.size if cone is None else int(np.add.reduce(cone))), near


def _certify(dim: int, env: Envelope, radius: int, stats: tuple, tol: float,
             log_tol: float, on=_NUMBERS) -> tuple:
    """Certify a sum over |k| <= radius by its outer ring and its envelope past
    radius - 1 (bounded already, up to rounding, unless the largest term is
    below exp(top)).  Returns the ring's share of the largest term, the radius
    to redo at (None if certified), and a DomainError if that term underflows.
    A sum whose terms are all 0 is certified only as an underflow, when its
    envelope's ``top`` is below the normal float range.  With ``on`` =
    _ARRAYS, for a batch: the shares of its series or, if one is not
    certified, the largest radius and share of those not certified."""
    _, largest, ring, _ = stats
    peak, _, _, top = env
    if (largest > 0) is not True and not on.all(largest > 0):
        faint = on.where(largest > 0, True, top < _LOG_TINY)
        if faint is not True and not on.all(faint):
            return math.inf, math.inf, None  # a series without a term: no radius certifies it
        largest = on.where(largest > 0, largest, 1.0)  # its ring share is then 0, and bounded
    share, slack = ring / largest, peak - on.log(largest)
    bounded = slack <= peak - top + 1e-9
    if bounded is not True and not on.all(bounded):
        bounded = bounded | (slack + _tail(dim, env, radius, on) <= log_tol)
    if (share < tol) is True and bounded is True or on.all((share < tol) & bounded):
        small = stats[1] < _TINY  # with an all-0 series certified above
        if small is not False and on.any(small):
            return share, None, DomainError(f"the largest term, "
                                            f"{on.first(stats[1], small):.3g}, "
                                            "is below the normal float range")
        return share, None, None
    needed = _radius(dim, env, slack, log_tol, on)
    if on is _NUMBERS:
        return share, needed, None
    needed = np.where((share < tol) & bounded, 0.0, needed)
    most = max(needed.tolist())
    return max(share[needed == most].tolist()), int(most) if most < math.inf else most, None


def lattice_sum(
    term: Series1D | Callable[..., tuple],
    dim: int,
    env: Envelope | Sequence[Envelope],
    budget: SummationBudget = DEFAULT_BUDGET,
    trace: list | None = None,
) -> tuple:
    """Sum a series over the box |k| <= R of Z^dim (dim 1 or 2), or a batch of
    series over one shared box; the one summation loop of the package.
    Returns ``(value, SeriesTrace)``, for a batch the lists of values and
    traces, and appends the traces to ``trace`` when a list is given.

    ``term`` is a numpy term: ``term(*k)`` receives one integer array per
    coordinate and returns the terms (zero outside the cone), the cone mask
    (None for all) or the number of cone points each term sums, and the mask
    of indices within the guard distance of the cone boundary (None for
    none), which raise BoundaryProximity.  A 1-D record (``Series1D``, say)
    also gives its terms as Python numbers through ``short_terms``.  ``env`` is the series' Envelope or, for a
    batch, a stacked Envelope (a sequence of Envelopes is stacked), whose
    numpy term (a stacked record, say) then returns terms and cone mask with
    a leading axis over the batch, and takes the keyword ``members``, the
    indices of the series to evaluate.  R is the largest of the series'
    radii, the least at which the series' envelope bounds its terms beyond R
    by ``target_tol`` times its largest term; a batch with more indices in
    all than the largest box of one series is summed in groups of like
    radius that each fit that box.  Each series is certified against its own
    largest term (``_certify``); if one is not, the whole batch is redone
    once at the largest radius the certificates ask for, at least R + 1.  A
    batch's radii and certificates are taken on arrays, or series by series
    in Python numbers up to ``SMALL_BATCH`` series.
    """
    if not isinstance(env, Envelope):
        env = Envelope(*map(np.array, zip(*env)))
    batch = type(env.top) is np.ndarray
    if not batch:
        members, on = (env,), _NUMBERS
    elif env.top.size <= SMALL_BATCH:
        members, on = _unstack(env, env.top.size), _NUMBERS
    else:
        members, on = (env,), _ARRAYS
    tol, log_tol = budget.target_tol, budget.log_tol
    cap = budget.max_shell if dim == 1 else min(budget.max_shell, MAX_RADIUS_2D)
    radii = []
    for member in members:
        peak, curv, rate, top = member
        if not (math.isfinite(peak + curv + rate + top) if on is _NUMBERS
                else on.all(np.isfinite(peak + curv + rate + top))):
            raise DomainError("series envelope is not finite")
        if (top > _LOG_MAX) is not False and on.any(top > _LOG_MAX):
            raise DomainError(f"the largest term, about e^{on.first(top, top > _LOG_MAX):.0f}, "
                              "exceeds the float range")
        radii.append(_radius(dim, member, peak - top, log_tol, on))
    radius = radii[0]
    if batch:
        radii = radius.tolist() if on is _ARRAYS else radii
        radius = max(radii)
        radius = int(radius) if radius < math.inf else radius
        if radius <= cap and len(radii) * (2 * radius + 1) ** dim > (2 * cap + 1) ** dim:
            return _sum_in_groups(term, dim, env, radii, budget, trace, (2 * cap + 1) ** dim)
    for stop in ("tail bound", "ring check"):
        if radius > cap:
            raise ConvergenceBudgetExceeded(f"needs truncation radius {radius} > {cap}")
        if radius <= SHORT_RADIUS and not batch and hasattr(term, "short_terms"):
            box = _short_sum(term, radius)
        else:
            box = _box_sum(term, dim, radius, batch)
        if box is None:
            raise DomainError("series value or its modulus is not finite")
        stats, near = box
        if near:
            raise BoundaryProximity("summand within guard distance of the cone boundary")
        terms = (2 * radius + 1) ** dim
        if not batch or on is _ARRAYS:
            share, needed, error = _certify(dim, env, radius, stats, tol, log_tol, on)
        else:  # the batch is redone at the largest radius that a series needs
            share, redo, error = [], [], None
            for member, big, rim in zip(members, stats[1].tolist(), stats[2].tolist()):
                ring, need, fault = _certify(dim, member, radius, (0j, big, rim, 0), tol, log_tol)
                share.append(ring)
                if need is not None:
                    redo.append((need, ring))
                elif error is None:
                    error = fault
            needed, share = max(redo) if redo else (None, share)
        if needed is None:
            # a batch is redone before one of its series reports underflow
            if error is not None:
                raise error
            # tuple.__new__ skips the NamedTuple's Python-level __new__,
            # which costs a single short sum about 3% of its time
            if not batch:
                result = tuple.__new__(SeriesTrace, (radius, terms, stats[3], share, stop))
                if trace is not None:
                    trace.append(result)
                return stats[0], result
            results = [tuple.__new__(SeriesTrace, (radius, terms, count, ring, stop))
                       for count, ring in zip(stats[3], share if type(share) is list
                                              else share.tolist())]
            if trace is not None:
                trace.extend(results)
            return stats[0], results
        failed, worst, radius = radius, share, max(radius + 1, needed)
    raise ConvergenceBudgetExceeded(
        f"the outer ring at radius {failed} holds {worst:.3g} of the largest term "
        f"(target_tol {tol}); needs radius {radius}")


def _sum_in_groups(term, dim, env, radii, budget, trace, limit) -> tuple:
    """``lattice_sum`` of a batch, in groups of series of like radius whose
    boxes hold at most ``limit`` indices in all, so that memory stays within
    the bound of one series; values and traces keep the batch's order."""
    groups = [[]]
    for i in sorted(range(len(radii)), key=radii.__getitem__):
        if groups[-1] and (len(groups[-1]) + 1) * (2 * radii[i] + 1) ** dim > limit:
            groups.append([])
        groups[-1].append(i)
    values, traces = [None] * len(radii), [None] * len(radii)
    for group in groups:
        sums, group_traces = lattice_sum(
            partial(term, members=group), dim,
            Envelope(*(f[group] if type(f) is np.ndarray else f for f in env)), budget)
        for i, value, series_trace in zip(group, sums, group_traces):
            values[i], traces[i] = value, series_trace
    if trace is not None:
        trace.extend(traces)
    return values, traces


def lerch_record(quad: complex, lin: complex, c: complex, power: int, tau: Modulus,
                 on=_NUMBERS) -> tuple:
    """The set-up of the Appell-Lerch sum of e(quad m^2 + lin m) x_m^power /
    (1 - x_m) over m in Z, x_m = e(m tau + c), as (Series1D, 1, Envelope);
    with ``on`` = _ARRAYS, stacked over arrays of lin, c or power.

    For u = m + alpha(c) < 0 the term is the equal -x_m^(power-1) / (1 - 1/x_m),
    so no exponential in a denominator exceeds 1 in modulus.  Only
    m = round(-alpha(c)) can come near a pole: a denominator below
    GUARD (1 + |x|) there raises PoleProximity, and every other one is at
    least 1 - e^(-pi Im(tau)); they bound the envelope.  The index is centred
    on the largest numerator: -log of its modulus over 2 pi is the convex
    height below, a quadratic with a kink at the cone boundary, least at one
    of the two pieces' rounded vertices clipped to its side (the kink itself
    without a Gaussian factor).
    """
    finite = on.isfinite(lin)
    if not (finite is True or on.all(finite)):
        raise DomainError(f"argument {on.first(lin, ~np.isfinite(lin))!r} is not finite")
    a_c = on.alpha(c, tau)
    t = tau.tau
    s = t.imag
    kink = on.floor(-a_c)  # the largest m with u < 0
    m_pole = on.round(-a_c)
    w_pole = TWO_PI_I * (m_pole * t + c)
    y = on.cexp(on.where(m_pole > kink, w_pole, -w_pole))
    gap = on.abs(1 - y)
    near = gap < GUARD * (1 + on.abs(y))
    if near is not False and on.any(near):
        raise PoleProximity(f"1 - e({on.first(m_pole, near)} tau + c) below conditioning floor")
    qi, li, ci = quad.imag, lin.imag, c.imag

    def height(m):
        """-log|e(quad m^2 + lin m) x_m^p| / 2 pi, p the power of m's branch."""
        return (qi * m + li) * m + (power - (m <= kink)) * (m * s + ci)

    left, right = kink, kink + 1
    if qi > 0:
        left = on.minimum(left, on.round(-(li + (power - 1) * s) / (2 * qi)))
        right = on.maximum(right, on.round(-(li + power * s) / (2 * qi)))
    h0, m_peak = on.lex_min((height(left), left), (height(right), right))
    # without a Gaussian factor (f) the decay is the smaller asymptotic slope
    d2 = None if qi > 0 else on.maximum(on.minimum(height(m_peak + 2) - height(m_peak + 1),
                                                   height(m_peak - 2) - height(m_peak - 1)), 0.0)
    floor = on.minimum(gap, -math.expm1(-math.pi * s))
    env = convex_envelope(h0, qi, d2, -_LOG2, -on.log(floor))

    # exponents times 2 pi i, in Horner form about the peak: w is the one of
    # x_m, and the numerator's is (q2 k + q1) k + q0 on the u > 0 side
    w1, w0 = TWO_PI_I * t, TWO_PI_I * (m_peak * t + c)
    q2, q1 = TWO_PI_I * quad, TWO_PI_I * (lin + 2 * quad * m_peak) + power * w1
    q0 = TWO_PI_I * (quad * m_peak + lin) * m_peak + power * w0
    series = (q2, q1, q0, None, w1, w0, kink - m_peak, m_pole - m_peak)
    return tuple.__new__(Series1D, series), 1, env


def appell_record(quad: complex, lin: complex, c: complex, n_shift: float, tau: Modulus,
                  on=_NUMBERS) -> tuple:
    """The set-up of the quadrant cone sum of sign(u) e(quad m^2 + lin m +
    n (m tau + c)) over u v > 0, where u = m + alpha(c) and v = n + n_shift,
    with the geometric sum over n done in closed form: the ``lerch_record``
    with power N = floor(-n_shift) + 1 (stacked with ``on`` = _ARRAYS).
    """
    reject_integer_shifts(on.alpha(c, tau), n_shift, on=on)
    return lerch_record(quad, lin, c, on.floor(-n_shift) + 1, tau, on)


def sum_series(setup: Callable[..., tuple], args: tuple, budget: SummationBudget,
               trace: list | None):
    """The sums of the series that ``setup(*args)`` sets up, one per element
    of the broadcast of the numpy arrays among ``args``, flattened: one
    stacked set-up (``on`` = _ARRAYS) and one batch, returned in the
    broadcast shape, one SeriesTrace per element to ``trace``.  An element
    whose set-up or sum raises makes the call raise.  Evaluators hand a
    scalar call's record to ``lattice_sum``: this costs it about 2% more."""
    shape = np.broadcast_shapes(*(a.shape for a in args if type(a) is np.ndarray))
    if not math.prod(shape):
        return np.zeros(shape, dtype=complex)
    args = [np.broadcast_to(a, shape).ravel() if type(a) is np.ndarray else a for a in args]
    return np.array(lattice_sum(*setup(*args, on=_ARRAYS), budget, trace)[0]).reshape(shape)
