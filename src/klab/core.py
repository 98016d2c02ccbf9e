"""Shared numerics: exponential conventions, the lattice-sum kernel, error taxonomy.

Every series here (theta, theta', kappa, g0, f, g, the cone series h and h0,
and the coefficient series F of the triple composition) is a sum of
sign * e(tau/2 Q(n) + <n, z>) over a shifted lattice, sometimes restricted
to a cone, summed as a 1-D series over an index k in Z: for f and g one
index enters linearly and is summed in closed form (``appell_record``,
``lerch_record``); for h, h0 and F, whose forms have signature (1, 1), each
term sums the cone's finite window on one line (``hfun``, ``fukaya``).
``lattice_sum`` is the one kernel entry that sums them: a series is a
record that one set-up returns with an ``Envelope``, a bound on the
log-modulus of its terms; it returns the sum (a list for a batch) and
makes a SeriesTrace per series only for a ``trace`` list.  One rule says
where a sum runs: a single series is summed in Python complex numbers (its
record's ``short_terms``) at every radius, and a batch (``_batch_sum``) in
one numpy call of its term over the box, reduced row by row.  Given ``on``
= ``_ARRAYS``, a set-up takes 1-D arrays and returns one stacked record and
Envelope, each element with the bits of its scalar set-up, summed as one
batch over a shared box (``sum_series``).  Each evaluator is its set-up and
one ``evaluate`` call; the closed forms call the set-ups by the same routes
(see ``evaluate``).

Stop rule: the kernel takes the least radius R >= 1 at which each envelope
bounds its series' terms with |k| >= R by ``target_tol`` times its largest
term, sums every |k| <= R in one call, and checks that each outer ring |k| =
R, the box's two ends, holds less than ``target_tol`` of its largest term;
if one does not, the batch is redone once at the radius its certificates ask
for, at least R + 1.  An R beyond ``max_shell`` raises
ConvergenceBudgetExceeded; a sum that is not finite, or whose largest term is
below the normal float range, raises DomainError.  R is measured from the
peak of the terms, where each series centres its index.  Every sum has a
fixed order and the kernel keeps nothing between calls, so results are
bit-reproducible for a fixed budget.
"""
from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from types import ModuleType
from typing import Callable, NamedTuple

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
    """Complex modulus tau, a finite point of the upper half-plane.

    ``_memo`` keeps what depends on tau alone, each made at most once, on
    first use: ``scaled(k)`` under k, and under (name, budget), one entry
    per SummationBudget, the theta constants of ``f_closed`` and
    ``psi_closed`` with their SeriesTraces (``theta._constant``), which a
    closed form's ``trace`` receives, kept or not.  It takes no part in
    equality, hash or repr."""

    tau: complex
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        # 2 pi Re(tau) is the phase of the nome e(tau)
        if not (tau.imag > 0 and cmath.isfinite(tau) and math.isfinite(_TWO_PI * tau.real)):
            raise DomainError(f"tau={tau!r} must be a finite point of the upper half-plane "
                              "with a finite nome e(tau)")

    @property
    def q(self) -> complex:
        """Nome e(tau); |q| < 1."""
        return e_of(self.tau)

    @property
    def xi(self) -> complex:
        """Half-period point (tau + 1) / 2, the zero of the theta function."""
        return (self.tau + 1) / 2

    def scaled(self, k: int) -> "Modulus":
        """Modulus with tau replaced by k * tau (k a positive integer), made once per k."""
        scaled = self._memo.get(k)
        if scaled is None:
            if k < 1 or k != int(k):
                raise DomainError(f"scale {k!r} must be a positive integer")
            scaled = self._memo[k] = Modulus(k * self.tau)
        return scaled


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
        except (OverflowError, ValueError):  # ValueError where the phase is infinite
            raise DomainError(f"e({z!r}) overflows the float range") from None
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(TWO_PI_I * z)
    if not np.isfinite(value).all():
        raise DomainError("e(z) is not finite at an element of z")
    return value


def alpha(z: complex, tau: Modulus) -> float:
    """Slope coordinate Im(z) / Im(tau); DomainError where it or z is not finite."""
    z = complex(z)
    a = z.imag / tau.tau.imag
    if not (cmath.isfinite(z) and math.isfinite(a)):
        raise DomainError(f"argument {z!r} or its alpha is not finite")
    return a


def reduce_real(z):
    """z less the integer nearest Re(z), half to even, on numbers and
    elementwise on arrays: exact, and z itself where |Re(z)| <= 1/2.  Each
    evaluator is 1-periodic in the real part of each argument, and takes it
    so, as its phases keep their digits only for small Re(z).  A non-finite
    z raises DomainError."""
    if type(z) is np.ndarray:
        if not np.isfinite(z).all():
            raise DomainError(f"argument {_ARRAYS.first(z, ~np.isfinite(z))!r} is not finite")
        whole = np.rint(z.real) + 0.0  # +0.0, so that a -0.0 leaves its element as it is
        return z - whole if whole.any() else z
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z!r} is not finite")
    x = z.real
    return z if -0.5 <= x <= 0.5 else z - round(x)


def finite(value, name: str):
    """value, a number or an array; DomainError where an element is not finite."""
    if not (np.isfinite(value).all() if type(value) is np.ndarray else cmath.isfinite(value)):
        raise DomainError(f"{name} exceeds the float range")
    return value


def dist_to_integers(x: float) -> float:
    """Distance from x to the nearest integer, in [0, 1/2]."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)


def _each(f: Callable, dtype: type = float) -> Callable:
    """``f`` on a number, or on each element of a 1-D array through ``f``."""
    return lambda x: np.fromiter(map(f, x.tolist()), dtype, x.size) if type(x) is np.ndarray else f(x)


def _alphas(z, tau: Modulus):
    """``alpha`` elementwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = z.imag / tau.tau.imag
    bad = ~(np.isfinite(z) & np.isfinite(a))
    if bad.any():
        raise DomainError(f"argument {_ARRAYS.first(z, bad)!r} or its alpha is not finite")
    return a


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
#: and elementwise on 1-D arrays (a value shared by all may stay a number), each
#: element with its scalar bits: ``_each`` maps Python's log, complex exp and
#: abs, whose numpy forms can differ in the last bit (exp and log1p only decide
#: radii).  A number's test is a bool, so ``x is True`` settles it without
#: ``on.all``.  Modules, whose attributes Python looks up as fast as ``math``'s.
_NUMBERS, _ARRAYS = ModuleType("numbers"), ModuleType("arrays")
_NUMBERS.__dict__.update(
    alpha=alpha, dist=dist_to_integers, first=lambda x, mask: x,
    floor=math.floor, ceil=math.ceil, round=round, sqrt=math.sqrt, log=math.log, log1p=math.log1p,
    exp=math.exp, cexp=cmath.exp, abs=abs, minimum=min, maximum=max,
    lex_less=operator.lt, lex_min=min, where=lambda cond, a, b: a if cond else b, any=bool, all=bool)
_ARRAYS.__dict__.update(
    alpha=_alphas, dist=lambda x: np.minimum(x - np.floor(x), 1.0 - (x - np.floor(x))),
    floor=np.floor, ceil=np.ceil, round=np.rint, sqrt=np.sqrt,
    first=lambda x, mask: x.flat[int(np.argmax(mask))].item() if type(x) is np.ndarray else x,
    log=_each(math.log), log1p=np.log1p, exp=np.exp, cexp=_each(cmath.exp, complex),
    abs=_each(abs), minimum=np.minimum, maximum=np.maximum, lex_less=_lex_less,
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
_NOT_FINITE = "series value or its modulus is not finite"
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)


class Envelope(NamedTuple):
    """Bound on a lattice sum's terms, |term(k)| <= exp(peak - curv j^2 - rate j)
    at j = |k| past the truncation radius; ``top`` is the log-modulus
    of a term with |k| <= 1 (so at most the largest), or else an estimate.
    Stacked for a batch: ``top`` an array, ``peak`` and ``rate`` arrays or
    shared, and ``curv`` one number for the whole batch (so it is all
    Gaussian, curv > 0, or all geometric), as every set-up gives it; an
    array of positive ones is summed too."""

    peak: float
    curv: float
    rate: float
    top: float


class SeriesTrace(NamedTuple):
    """How one lattice sum was computed: the truncation radius R, the indices
    evaluated (|k| <= R), the lattice points in the cone that their terms sum,
    the outer ring's summed modulus over the largest term, and what fixed R
    ("tail bound" or "ring check").  ``lattice_sum`` makes one per series
    only when its ``trace`` is a list."""

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


def _tail(env: Envelope, r: float, on=_NUMBERS) -> float:
    """log of a bound on exp(-psi(|k|)), psi(j) = curv j^2 + rate j increasing
    past r, summed over the indices with |k| >= r: 2 exp(-psi(r)) / (1 - e^-d),
    d = psi(r+1) - psi(r)."""
    d = env.curv * (2 * r + 1) + env.rate
    return _LOG2 - on.log1p(-on.exp(-d)) - r * (env.curv * r + env.rate)


def _radius(env: Envelope, slack: float, log_tol: float, on=_NUMBERS) -> float:
    """The least R >= 1 with slack + _tail(R) <= log_tol from a closed-form
    start (inf without decay): psi(R) = level, where the level allows one nat
    for _tail's ring count and ratio, or all of them for a geometric envelope,
    whose ratio d = rate is fixed; on arrays (``on``), elementwise as floats."""
    curv, rate = env.curv, env.rate
    level = (slack - log_tol if (slack > log_tol) is True
             else (slack - log_tol) * (slack > log_tol))
    gauss = curv > 0  # one number for a batch, or positive throughout
    if gauss is True or gauss is not False and on.all(gauss):
        radius = (on.sqrt(rate * rate + 4 * curv * (level + 1)) - rate) / (2 * curv)
    else:  # geometric envelopes, where 1.0 stands in for a rate that has none
        d = rate if (rate > 0) is True else on.where(rate > 0, rate, 1.0)
        radius = on.where(rate > 0, (level + _LOG2 - on.log1p(-on.exp(-d))) / d, math.inf)
    if (radius < 1e9) is not True and not on.all(radius < 1e9):
        # a batch with an infinite radius raises: the others are left as they are
        return on.where(radius < 1e9, radius, math.inf)
    radius = (on.ceil(radius) if (radius > 1) is True  # ceil(R) if R > 1 else 1
              else on.ceil(radius) * (radius > 1) + (radius <= 1))
    while True:
        short = slack + _tail(env, radius, on) > log_tol
        if short is False or not on.any(short):
            return radius
        radius = radius + short


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
    1 - e^(-pi Im(tau)), and there ``w_pole``, where not 0 (w is 0 only at
    a pole itself), is w formed exactly (``lerch_record``).  A stacked
    record, with ``e0`` an array (other fields arrays, or shared), is a
    batch's numpy term."""

    e2: complex
    e1: complex
    e0: complex
    centre: float | None = None
    w1: complex | None = None
    w0: complex = 0j
    split: int = 0
    pole: int = 0
    w_pole: complex = 0j

    def __call__(self, k: np.ndarray, members=slice(None)) -> tuple:
        """The terms of a stacked record at the integers k, a row per one of ``members``."""
        e2, e1, e0, centre, w1, w0, split, pole, w_pole = (
            f[members, None] if type(f) is np.ndarray else f for f in self)
        exponent = (e2 * k + e1) * k + e0
        if w1 is None:
            values = np.exp(exponent)
            return (values if centre is None else TWO_PI_I * (k + centre) * values), None, None
        w = w1 * k + w0
        if type(w_pole) is np.ndarray or w_pole:
            w = np.where((k == pole) & (w_pole != 0), w_pole, w)
        low = k <= split
        num = np.exp(np.where(low, exponent - w, exponent))
        return np.where(low, num, -num) / np.expm1(np.where(low, -w, w)), None, None

    def short_terms(self, radius: int) -> tuple:
        """The terms with |k| <= radius as Python complex numbers, and their number."""
        e2, e1, e0, centre, w1, w0, split, pole, w_pole = self
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
        if w_pole and -radius <= pole <= radius:  # the pole's term with its exact w
            x, w, sign = (e2 * pole + e1) * pole + e0, w_pole, -1
            if pole <= split:
                x, w, sign = x - w, -w, 1
            values[pole + radius] = sign * exp(x) / _expm1(w)
        return values, len(values)


def _box_sum(term: Callable[..., tuple], radius: int) -> tuple:
    """One call of a batch's numpy term on the box |k| <= radius, increasing,
    reduced row by row (so a raised error pins no box-sized array): the lists
    of sums and cone counts, and the arrays of largest moduli and outer
    rings' summed moduli (radius >= 1, so a ring is the box's two ends).
    DomainError if a sum is not finite, BoundaryProximity if an index is
    near a cone boundary."""
    # an overflow, which the size check of the largest term does not rule
    # out, is reported as DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        values, cone, near = term(np.arange(-radius, radius + 1))
    # one reduction per statistic along the box axis, each row summed on its
    # own; parts below the float maximum can still have a modulus above it
    sums = np.add.reduce(values, axis=1)
    if not all(map(math.isfinite, map(math.hypot, sums.real.tolist(), sums.imag.tolist()))):
        raise DomainError(_NOT_FINITE)
    if near is not None and near.any():
        raise BoundaryProximity("summand within guard distance of the cone boundary")
    moduli = np.abs(values)
    counts = [values.shape[1]] * len(sums) if cone is None else np.add.reduce(cone, axis=1).tolist()
    return sums.tolist(), np.maximum.reduce(moduli, axis=1), moduli[:, 0] + moduli[:, -1], counts


def _certify(env: Envelope, radius: int, stats: tuple, tol: float, log_tol: float,
             on=_NUMBERS) -> tuple:
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
        bounded = bounded | (slack + _tail(env, radius, on) <= log_tol)
    if (share < tol) is True and bounded is True or on.all((share < tol) & bounded):
        small = stats[1] < _TINY  # with an all-0 series certified above
        if small is not False and on.any(small):
            return share, None, DomainError(f"the largest term, "
                                            f"{on.first(stats[1], small):.3g}, "
                                            "is below the normal float range")
        return share, None, None
    needed = _radius(env, slack, log_tol, on)
    if on is _NUMBERS:
        return share, needed, None
    needed = np.where((share < tol) & bounded, 0.0, needed)
    most = max(needed.tolist())
    return max(share[needed == most].tolist()), int(most) if most < math.inf else most, None


def _start(env: Envelope, log_tol: float, on=_NUMBERS) -> float:
    """The tail-bound radius (``_radius``) of a series, or with ``on`` =
    _ARRAYS of each series of a stacked Envelope; DomainError where the
    Envelope is not finite or the largest term exceeds the float range."""
    peak, curv, rate, top = env
    if not (math.isfinite(peak + curv + rate + top) if on is _NUMBERS
            else on.all(np.isfinite(peak + curv + rate + top))):
        raise DomainError("series envelope is not finite")
    if (top > _LOG_MAX) is not False and on.any(top > _LOG_MAX):
        raise DomainError(f"the largest term, about e^{on.first(top, top > _LOG_MAX):.0f}, "
                          "exceeds the float range")
    return _radius(env, peak - top, log_tol, on)


def _too_far(radius: float, cap: int) -> ConvergenceBudgetExceeded:
    return ConvergenceBudgetExceeded(f"needs truncation radius {radius} > {cap}")


def _uncertified(failed: int, worst: float, tol: float, radius: float) -> ConvergenceBudgetExceeded:
    return ConvergenceBudgetExceeded(
        f"the outer ring at radius {failed} holds {worst:.3g} of the largest term "
        f"(target_tol {tol}); needs radius {radius}")


def lattice_sum(term: Series1D | Callable[..., tuple], env: Envelope,
                budget: SummationBudget = DEFAULT_BUDGET, trace: list | None = None) -> complex | list:
    """Sum a series over the box |k| <= R of Z, or a batch of series over one
    shared box (``_batch_sum``), by the stop rule; the one kernel entry of
    the package.  Returns the sum, for a batch (``env.top`` an array) the
    list of sums, and appends one SeriesTrace per series to ``trace`` when
    it is a list; none is made otherwise.  A single series is a record whose
    ``short_terms(R)`` returns its terms with |k| <= R as Python complex
    numbers and the number of cone points they sum; ``env`` is its Envelope."""
    if type(env.top) is np.ndarray:
        return _batch_sum(term, env, budget, trace)
    tol, log_tol, cap = budget.target_tol, budget.log_tol, budget.max_shell
    radius = _start(env, log_tol)
    for stop in ("tail bound", "ring check"):
        if radius > cap:
            raise _too_far(radius, cap)
        try:  # in Python complex numbers; cmath.exp raises ValueError at an infinite phase
            values, points = term.short_terms(radius)
            total = sum(values)
            ok = math.isfinite(abs(total))
            stats = total, max(map(abs, values)), abs(values[0]) + abs(values[-1]), points
        except (OverflowError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            raise DomainError(_NOT_FINITE)
        share, needed, error = _certify(env, radius, stats, tol, log_tol)
        if needed is None:
            if error is not None:
                raise error
            if trace is not None:
                # tuple.__new__ skips the NamedTuple's Python-level __new__
                trace.append(tuple.__new__(SeriesTrace, (radius, 2 * radius + 1, points, share, stop)))
            return total
        failed, worst, radius = radius, share, max(radius + 1, needed)
    raise _uncertified(failed, worst, tol, radius)


def _batch_sum(term: Callable[..., tuple], env: Envelope, budget: SummationBudget,
               trace: list | None) -> list:
    """``lattice_sum`` of a batch.  Its term is a numpy callable: ``term(k,
    members=...)`` receives the box's integers and the series to evaluate,
    and returns their terms, a row per series (zero outside the cone), the
    cone mask (None for all) or the number of cone points each term sums,
    and the mask of indices near the cone boundary (None for none); ``env``
    is a stacked Envelope.  R is the largest of the series' radii, and a
    batch with more indices in all than the largest box of one series is
    summed in groups of like radius.  Radii and certificates are taken on
    arrays or, up to ``SMALL_BATCH`` series, series by series in Python
    numbers.  Returns the list of sums, and their SeriesTraces go to
    ``trace`` when it is a list."""
    if env.top.size > SMALL_BATCH:
        radii = _start(env, budget.log_tol, _ARRAYS).tolist()
        certify = partial(_certify, on=_ARRAYS)
    else:
        members = _unstack(env, env.top.size)
        radii = [_start(member, budget.log_tol) for member in members]

        def certify(env, radius, stats, tol, log_tol):
            """The shares or, if a series is not certified, the largest radius
            and share of those not certified."""
            share, redo, error = [], [], None
            for member, big, rim in zip(members, stats[1].tolist(), stats[2].tolist()):
                ring, need, fault = _certify(member, radius, (0j, big, rim, 0), tol, log_tol)
                share.append(ring)
                if need is not None:
                    redo.append((need, ring))
                elif error is None:
                    error = fault
            if redo:  # the batch is redone at the largest radius that a series needs
                needed, worst = max(redo)
                return worst, needed, None
            return share, None, error
    radius, cap = max(radii), budget.max_shell
    radius = int(radius) if radius < math.inf else radius
    if radius <= cap and len(radii) * (2 * radius + 1) > 2 * cap + 1:
        return _sum_in_groups(term, env, radii, budget, trace)
    for stop in ("tail bound", "ring check"):
        if radius > cap:
            raise _too_far(radius, cap)
        stats = _box_sum(term, radius)
        share, needed, error = certify(env, radius, stats, budget.target_tol, budget.log_tol)
        if needed is None:
            # a batch is redone before one of its series reports underflow
            if error is not None:
                raise error
            if trace is not None:
                trace.extend(tuple.__new__(SeriesTrace, (radius, 2 * radius + 1, count, ring, stop))
                             for count, ring in zip(stats[3], share if type(share) is list
                                                    else share.tolist()))
            return stats[0]
        failed, worst, radius = radius, share, max(radius + 1, needed)
    raise _uncertified(failed, worst, budget.target_tol, radius)


def _sum_in_groups(term, env, radii, budget, trace) -> list:
    """``lattice_sum`` of a batch, in groups of series of like radius whose
    boxes hold at most the indices of the largest box of one series in all;
    sums and traces keep the batch's order."""
    limit, groups = 2 * budget.max_shell + 1, [[]]
    for i in sorted(range(len(radii)), key=radii.__getitem__):
        if groups[-1] and (len(groups[-1]) + 1) * (2 * radii[i] + 1) > limit:
            groups.append([])
        groups[-1].append(i)
    values, traces = [None] * len(radii), [None] * len(radii)
    for group in groups:
        kept = None if trace is None else []
        sums = _batch_sum(partial(term, members=group),
                          Envelope(*(f[group] if type(f) is np.ndarray else f for f in env)),
                          budget, kept)
        for i, value in zip(group, sums):
            values[i] = value
        for i, series_trace in zip(group, kept or ()):
            traces[i] = series_trace
    if trace is not None:
        trace.extend(traces)
    return values


#: Largest ratio of the parts of m tau + c at a pole to |1 - e(m tau + c)|,
#: about 2 pi |m tau + c| there, at which m tau + c is formed in floats:
#: their rounding then moves e^w - 1 by at most about 2 pi _CANCEL unit
#: roundoffs, 2e-13, of itself.
_CANCEL = 256.0


def _exact_exponent(m: float, t: complex, c: complex) -> complex:
    """w = 2 pi i (m t + c), with m t + c formed exactly, less the integer
    nearest its real part (half to even; so e^w is the same), and rounded
    once.  Each part is an integer over the larger of the floats' power-of-two
    denominators, rounded by one correctly rounded int division."""
    m = int(m)
    parts = []
    for a, b in ((t.real, c.real), (t.imag, c.imag)):
        (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
        den = max(q, s)
        parts.append((m * p * (den // q) + r * (den // s), den))
    (re, den), (im, den_im) = parts
    whole, re = divmod(re, den)  # re/den is now in [0, 1)
    if 2 * re > den or 2 * re == den and whole & 1:
        re -= den
    return TWO_PI_I * complex(re / den, im / den_im)


def lerch_record(quad: complex, lin: complex, c: complex, power: int, tau: Modulus,
                 on=_NUMBERS) -> tuple:
    """The set-up of the Appell-Lerch sum of e(quad m^2 + lin m) x_m^power /
    (1 - x_m) over m in Z, x_m = e(m tau + c), as (Series1D, Envelope);
    with ``on`` = _ARRAYS, stacked over arrays of lin, c or power.

    For u = m + alpha(c) < 0 the term is the equal -x_m^(power-1) / (1 - 1/x_m),
    so no exponential in a denominator exceeds 1 in modulus.  Only m =
    round(-alpha(c)) can come near a pole (a denominator below GUARD (1 + |x|)
    raises PoleProximity); every other is at least 1 - e^(-pi Im(tau)), which
    bounds the envelope.  Where m tau + c at that m is the small difference
    of parts above _CANCEL |1 - e(m tau + c)|, it is formed exactly, as the
    record's ``w_pole`` (elementwise on arrays, 0 elsewhere).  The index is
    centred on the largest numerator: -log of its modulus over 2 pi is the
    convex height below, a quadratic with a kink at the cone boundary, least
    at one of the two pieces' rounded vertices clipped to its side (the kink
    itself without a Gaussian factor).
    """
    on.alpha(lin, tau)  # DomainError where lin, or Im(lin) / Im(tau), is not finite
    a_c = on.alpha(c, tau)
    t = tau.tau
    s = t.imag
    kink = on.floor(-a_c)  # the largest m with u < 0
    m_pole = on.round(-a_c)
    w_pole = TWO_PI_I * (m_pole * t + c)
    try:
        y = on.cexp(on.where(m_pole > kink, w_pole, -w_pole))
    except (OverflowError, ValueError):  # ValueError where the phase is infinite
        raise DomainError("e(m tau + c) at the pole's m is not finite") from None
    gap = on.abs(1 - y)
    size = abs(m_pole) * (abs(t.real) + abs(t.imag)) + abs(c.real) + abs(c.imag)
    close, exact = gap * _CANCEL < size, 0j
    if close is True or close is not False and on.any(close):
        if type(close) is np.ndarray:  # 0 where the pole is not close
            exact = np.zeros(close.shape, complex)
            rows = np.flatnonzero(close)
            exact[rows] = list(map(_exact_exponent,
                                   np.broadcast_to(m_pole, close.shape)[rows].tolist(), repeat(t),
                                   np.broadcast_to(c, close.shape)[rows].tolist()))
        else:
            exact = _exact_exponent(m_pole, t, c)
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
    series = (q2, q1, q0, None, w1, w0, kink - m_peak, m_pole - m_peak, exact)
    return tuple.__new__(Series1D, series), env


def appell_record(quad: complex, lin: complex, c: complex, n_shift: float, tau: Modulus,
                  on=_NUMBERS) -> tuple:
    """The set-up of the quadrant cone sum of sign(u) e(quad m^2 + lin m +
    n (m tau + c)) over u v > 0, where u = m + alpha(c) and v = n + n_shift,
    with the geometric sum over n done in closed form: the ``lerch_record``
    with power N = floor(-n_shift) + 1 (stacked with ``on`` = _ARRAYS).
    """
    reject_integer_shifts(on.alpha(c, tau), n_shift, on=on)
    return lerch_record(quad, lin, c, on.floor(-n_shift) + 1, tau, on)


def evaluate(setup: Callable[..., tuple], args: tuple, budget: SummationBudget,
             trace: list | None):
    """The sum of the series that ``setup(*args)`` sets up, ``args`` an
    evaluator's one or two complex arguments, each reduced once
    (``reduce_real``), and its Modulus: a number's record goes straight to
    ``lattice_sum``'s single-series route, and arrays are one batch
    (``sum_series``).  The closed forms reduce theirs once, and sum their
    set-ups' records by these two routes themselves."""
    if len(args) == 2:
        z, tau = args
        z = reduce_real(z)
        if type(z) is not np.ndarray:
            return lattice_sum(*setup(z, tau), budget, trace)
        return sum_series(setup, (z, tau), budget, trace)
    z1, z2, tau = args
    z1, z2 = reduce_real(z1), reduce_real(z2)
    if type(z1) is not np.ndarray and type(z2) is not np.ndarray:
        return lattice_sum(*setup(z1, z2, tau), budget, trace)
    return sum_series(setup, (z1, z2, tau), budget, trace)


def sum_series(setup: Callable[..., tuple], args: tuple, budget: SummationBudget,
               trace: list | None):
    """The sums of the series that ``setup(*args)`` sets up, one per element
    of the broadcast of the numpy arrays among ``args``, flattened: one
    stacked set-up (``on`` = _ARRAYS) and one batch, returned in the
    broadcast shape, one SeriesTrace per element to a ``trace`` list.  An
    element whose set-up or sum raises makes the call raise.  A closed form
    that stacks the arguments of several series makes them one batch."""
    shape = np.broadcast_shapes(*(a.shape for a in args if type(a) is np.ndarray))
    if not math.prod(shape):
        return np.zeros(shape, dtype=complex)
    args = [np.broadcast_to(a, shape).ravel() if type(a) is np.ndarray else a for a in args]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in the kernel
        series, env = setup(*args, on=_ARRAYS)
    return np.array(lattice_sum(series, env, budget, trace)).reshape(shape)
