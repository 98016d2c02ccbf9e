"""Shared numerics: exponential conventions, the lattice-sum kernel, error taxonomy.

Every series here (theta, theta', kappa, g0, f, g, the cone series h and h0,
and the coefficient series F of the triple composition) is a sum of
sign * e(tau/2 Q(n) + <n, z>) over a shifted lattice n = base + A k, k in
Z^dim with dim 1 or 2, sometimes restricted to a cone (for F, the cone and Q
of ``lattice.QuadLatticeConfig``).  ``lattice_sum`` is the one loop that sums
them: each series hands it its terms and an ``Envelope``, a bound on the
log-modulus of its terms read off its quadratic form.  A series is a record
that one set-up function returns with its dim and Envelope: a 1-D
``Series1D``, summed in Python complex numbers up to radius ``SHORT_RADIUS``
and in numpy beyond, or a 2-D numpy term.  A batch of series that share Q
and the cone, such as the cosets of one F or an evaluator's series at each
element of its arrays (``sum_series``), is one call with one Envelope per
series: the term returns their terms with a leading batch axis, and they
share one box.  For f and g one index enters linearly, so ``appell_record``
sums it in closed form and leaves a 1-D Appell-Lerch sum (``lerch_record``).

Stop rule: the kernel takes the smallest radius R at which each envelope
bounds its series' terms with |k| >= R by ``target_tol`` times its largest
term (a Gaussian tail, or a geometric one for f), sums every |k| <= R in one
call of the term, and checks that each series' outer ring |k| = R holds less
than ``target_tol`` of its largest term, doubling R once for the whole batch
if not.  An R beyond ``max_shell`` raises ConvergenceBudgetExceeded naming
that R; a sum that is not finite or whose modulus overflows, or whose largest
term is below the normal float range, raises DomainError.  R is measured from
the peak of the terms, so each series centres its index there.  Every sum
has a fixed order, so results are bit-reproducible for a fixed budget.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
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


_LOG_MAX = math.log(sys.float_info.max)
#: Largest radius of a 2-D sum: its term's arrays then hold tens of MB at most.
MAX_RADIUS_2D = 255


class Envelope(NamedTuple):
    """Bound on a lattice sum's terms, |term(k)| <= exp(peak - curv j^2 - rate j)
    at sup-norm j of k past the truncation radius; ``top`` is the log-modulus
    of a term with |k| <= 1 (so at most the largest), or else an estimate."""

    peak: float
    curv: float
    rate: float
    top: float


class SeriesTrace(NamedTuple):
    """How one lattice sum was computed: the truncation radius R, the indices
    evaluated (|k| <= R) and those in the cone, the outer ring's summed modulus
    over the largest term, and what fixed R ("tail bound" or "ring check")."""

    radius: int
    terms: int
    terms_in_cone: int
    ring: float
    stop: str


def convex_envelope(h0: float, curv: float, d2: float = 0.0, lo: float = 0.0,
                    hi: float = 0.0) -> Envelope:
    """Envelope of 1-D terms u_m e^(-2 pi height(m)), m = centre + k, where
    height is convex with second differences >= 2 curv and least over the
    integers at the centre, where it is h0; log|u_m| <= hi everywhere and >= lo
    at the centre.  As height(m) - curv m^2 is convex, height(m) - h0 >=
    curv (j - 1)(j - 2) + (j - 1) d2 at j = |k|, for d2 up to the smaller step
    from centre +- 1 to centre +- 2; those steps are >= 2 curv, the default.
    """
    if d2 < 2 * curv:
        d2 = 2 * curv
    return Envelope(hi - _TWO_PI * (h0 + 2 * curv - d2), _TWO_PI * curv,
                    _TWO_PI * (d2 - 3 * curv), lo - _TWO_PI * h0)


def cone_envelope(const, width, lam, top=None, beta=0.0, q_shift=0.0) -> Envelope:
    """Envelope of 2-D terms of log-modulus const - pi width q(p + d), p on a
    closed cone where q(p) >= lam |p|^2 and |p| >= j - 1/2 (the index centred
    on the apex), beta = |A d| for the matrix A of q, q_shift = q(d): then
    q(p + d) >= lam |p|^2 - 2 beta |p| + q(d), increasing past beta / lam.
    Without a known ``top`` the peak is the estimate."""
    c = math.pi * width
    peak = const - c * (lam / 4 + beta + q_shift)
    return Envelope(peak, c * lam, -c * (lam + 2 * beta), peak if top is None else top)


def _tail(dim: int, env: Envelope, r: float) -> float:
    """log of a bound on exp(-psi(j)), psi(j) = curv j^2 + rate j increasing
    past r, summed over the indices of sup-norm j >= r: count exp(-psi(r)) /
    (1 - e^-d)^dim, d = psi(r+1) - psi(r), count = 2 or 8 (r + 1) (the rings)."""
    count = 2 if dim == 1 else 8 * (r + 1)
    d = env.curv * (2 * r + 1) + env.rate
    return math.log(count) - dim * math.log1p(-math.exp(-d)) - r * (env.curv * r + env.rate)


def _radius(dim: int, env: Envelope, slack: float, log_tol: float) -> float:
    """The least R >= 1 with slack + _tail(R) <= log_tol from a closed-form
    start (inf without decay): psi(R) = level, where the level allows one nat
    for _tail's ring count and ratio, or all of them for a geometric envelope,
    whose ratio d = rate is fixed."""
    curv, rate = env.curv, env.rate
    level = slack - log_tol if slack > log_tol else 0.0
    if curv > 0:
        radius = (math.sqrt(rate * rate + 4 * curv * (level + 1)) - rate) / (2 * curv)
    elif rate > 0:
        radius = (level + math.log(2) - dim * math.log1p(-math.exp(-rate))) / rate
    else:
        return math.inf
    if not radius < 1e9:
        return math.inf
    radius = math.ceil(radius) if radius > 1 else 1
    while slack + _tail(dim, env, radius) > log_tol:
        radius += 1
    return radius


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
    1 - e^(-pi Im(tau)).  Stacked records, whose fields are columns of a
    batch's records (None where all are), are a numpy term of the batch."""

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
                None if f is None else f[members, None] for f in self)
        exponent = (e2 * k + e1) * k + e0
        if w1 is None:
            values = np.exp(exponent)
            return (values if centre is None else TWO_PI_I * (k + centre) * values), None, None
        w = w1 * k + w0
        low = k <= split
        num = np.exp(np.where(low, exponent - w, exponent))
        return np.where(low, num, -num) / np.expm1(np.where(low, -w, w)), None, None

    def short_terms(self, radius: int) -> list:
        """The terms with |k| <= radius as Python complex numbers."""
        e2, e1, e0, centre, w1, w0, split, pole = self
        exp, values = cmath.exp, []
        for k in range(-radius, radius + 1):
            x = (e2 * k + e1) * k + e0
            if w1 is None:
                values.append(exp(x) if centre is None else TWO_PI_I * (k + centre) * exp(x))
            else:
                w, sign = w1 * k + w0, -1
                if k <= split:
                    x, w, sign = x - w, -w, 1
                values.append(sign * exp(x) / (_expm1(w) if k == pole else exp(w) - 1))
        return values


def _short_sum(series: Series1D, radius: int) -> tuple | None:
    """``_box_sum`` of a single Series1D, in Python complex numbers."""
    try:
        values = series.short_terms(radius)
        total = sum(values)
        moduli = list(map(abs, values))
    except (OverflowError, ZeroDivisionError):
        return None
    if not math.isfinite(math.hypot(total.real, total.imag)):
        return None
    return (total, max(moduli), moduli[0] + moduli[-1], len(values)), False


def _box_sum(term: Callable[..., tuple], dim: int, radius: int, batch: bool) -> tuple | None:
    """One call of a numpy term on the box, reduced to Python scalars (so a
    raised error pins no box-sized array): sum, largest modulus, outer ring's
    summed moduli and cone count, a list of them for a batch, and whether an
    index is near a cone boundary; None when a sum or modulus is not finite."""
    k, ring = (_cached_box if radius <= 64 else _box)(dim, radius)
    if dim == 1:
        values, cone, near = term(*k)
    else:
        # a 1-D sum is centred on its largest term, whose size lattice_sum
        # checks against the float range; a cone sum is centred on its apex,
        # and an overflow away from it is reported as DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            values, cone, near = term(*k)
    near = near is not None and bool(near.any())
    if batch:
        # one reduction per statistic along the box axis, each row summed on its own
        totals = np.add.reduce(values, axis=1).tolist()
        if not all(math.isfinite(math.hypot(total.real, total.imag)) for total in totals):
            return None
        moduli = np.abs(values)
        return list(zip(totals, np.maximum.reduce(moduli, axis=1).tolist(),
                        np.add.reduce(moduli.take(ring, axis=1), axis=1).tolist(),
                        repeat(values.shape[1]) if cone is None
                        else np.add.reduce(cone, axis=1).tolist())), near
    total = complex(np.add.reduce(values))
    # parts below the float maximum can still have a modulus above it, on
    # which abs() would raise OverflowError
    if not math.isfinite(math.hypot(total.real, total.imag)):
        return None
    moduli = np.abs(values)
    return (total, float(np.maximum.reduce(moduli)), float(np.add.reduce(moduli[ring])),
            values.size if cone is None else int(np.count_nonzero(cone))), near


def _certify(dim: int, env: Envelope, radius: int, stats: tuple, tol: float,
             log_tol: float) -> tuple:
    """Certify a sum over |k| <= radius by its outer ring and its envelope past
    radius - 1 (bounded already, up to rounding, unless the largest term is
    below exp(top)).  Returns the ring's share of the largest term, the radius
    to redo at (None if certified), and a DomainError if that term underflows."""
    _, largest, ring, _ = stats
    peak, _, _, top = env
    share = ring / largest if largest > 0 else math.inf
    slack = peak - math.log(largest) if largest > 0 else math.inf
    if share < tol and (slack <= peak - top + 1e-9 or slack + _tail(dim, env, radius) <= log_tol):
        if largest < sys.float_info.min:
            return share, None, DomainError(
                f"the largest term, {largest:.3g}, is below the normal float range")
        return share, None, None
    return share, _radius(dim, env, slack, log_tol), None


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

    ``term`` is a ``Series1D`` (dim 1), or a numpy term: ``term(*k)``
    receives one integer array per coordinate and returns the terms (zero
    outside the cone), the cone mask (None for all) and the mask of indices
    within the guard distance of the cone boundary (None for none), which
    raise BoundaryProximity.  ``env`` is the series' Envelope, or a sequence
    of Envelopes for a batch, whose numpy term (stacked records, say) then
    returns terms and cone mask with a leading axis over the batch, and takes
    the keyword ``members``, the indices of the series to evaluate.  R is the
    largest of the series' radii, the least at which the series' envelope
    bounds its terms beyond R by ``target_tol`` times its largest term; a
    batch with more indices in all than the largest box of one series is
    summed in groups of like radius that each fit that box.  Each series is
    certified against its own largest term (``_certify``); if one is not,
    the whole batch is redone once at twice R.
    """
    batch = not isinstance(env, Envelope)
    envs = env if batch else (env,)
    tol, log_tol = budget.target_tol, math.log(budget.target_tol)
    cap = budget.max_shell if dim == 1 else min(budget.max_shell, MAX_RADIUS_2D)
    radius, radii = 1, []
    for env in envs:
        peak, curv, rate, top = env
        if not math.isfinite(peak + curv + rate + top):
            raise DomainError("series envelope is not finite")
        if top > _LOG_MAX:
            raise DomainError(f"the largest term, about e^{top:.0f}, exceeds the float range")
        own = _radius(dim, env, peak - top, log_tol)
        radii.append(own)
        if own > radius:
            radius = own
    if batch and radius <= cap and len(envs) * (2 * radius + 1) ** dim > (2 * cap + 1) ** dim:
        return _sum_in_groups(term, dim, envs, radii, budget, trace, (2 * cap + 1) ** dim)
    for stop in ("tail bound", "ring check"):
        if radius > cap:
            raise ConvergenceBudgetExceeded(f"needs truncation radius {radius} > {cap}")
        if radius <= SHORT_RADIUS and not batch and isinstance(term, Series1D):
            box = _short_sum(term, radius)
        else:
            box = _box_sum(term, dim, radius, batch)
        if box is None:
            raise DomainError("series value or its modulus is not finite")
        stats, near = box
        if near:
            raise BoundaryProximity("summand within guard distance of the cone boundary")
        terms = (2 * radius + 1) ** dim
        if not batch:
            share, needed, error = _certify(dim, env, radius, stats, tol, log_tol)
            if needed is None:
                if error is not None:
                    raise error
                # tuple.__new__ skips the NamedTuple's Python-level __new__,
                # which costs a single short sum about 3% of its time
                result = tuple.__new__(SeriesTrace, (radius, terms, stats[3], share, stop))
                if trace is not None:
                    trace.append(result)
                return stats[0], result
            worst = share
        else:
            results, redo, underflow = [], [], None
            for env, row in zip(envs, stats):
                share, needed, error = _certify(dim, env, radius, row, tol, log_tol)
                if needed is not None:
                    redo.append((needed, share))
                elif underflow is None:
                    underflow = error
                results.append(SeriesTrace(radius, terms, row[3], share, stop))
            if not redo:
                # a batch is redone before one of its series reports underflow
                if underflow is not None:
                    raise underflow
                if trace is not None:
                    trace.extend(results)
                return [row[0] for row in stats], results
            needed, worst = max(redo)
        failed, radius = radius, max(2 * radius, needed)
    raise ConvergenceBudgetExceeded(
        f"the outer ring at radius {failed} holds {worst:.3g} of the largest term "
        f"(target_tol {tol}); needs radius {radius}")


def _sum_in_groups(term, dim, envs, radii, budget, trace, limit) -> tuple:
    """``lattice_sum`` of a batch, in groups of series of like radius whose
    boxes hold at most ``limit`` indices in all, so that memory stays within
    the bound of one series; values and traces keep the batch's order."""
    groups = [[]]
    for i in sorted(range(len(envs)), key=radii.__getitem__):
        if groups[-1] and (len(groups[-1]) + 1) * (2 * radii[i] + 1) ** dim > limit:
            groups.append([])
        groups[-1].append(i)
    values, traces = [None] * len(envs), [None] * len(envs)
    for group in groups:
        sums, group_traces = lattice_sum(partial(term, members=group), dim,
                                         [envs[i] for i in group], budget)
        for i, value, series_trace in zip(group, sums, group_traces):
            values[i], traces[i] = value, series_trace
    if trace is not None:
        trace.extend(traces)
    return values, traces


def reject_integer_shifts(*shifts: float) -> None:
    """A cone shift within GUARD of an integer puts terms on the cone
    boundary, a pole of the series in its arguments: raise PoleProximity."""
    for shift in shifts:
        if dist_to_integers(shift) <= GUARD:
            raise PoleProximity(f"cone shift {shift} is within {GUARD} of an integer")


def lerch_record(quad: complex, lin: complex, c: complex, power: int, tau: Modulus) -> tuple:
    """The set-up of the Appell-Lerch sum of e(quad m^2 + lin m) x_m^power /
    (1 - x_m) over m in Z, x_m = e(m tau + c), as (Series1D, 1, Envelope).

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
    if not cmath.isfinite(lin):
        raise DomainError(f"argument {lin!r} is not finite")
    a_c = alpha(c, tau)
    t = tau.tau
    s = t.imag
    kink = math.floor(-a_c)  # the largest m with u < 0
    m_pole = round(-a_c)
    w_pole = TWO_PI_I * (m_pole * t + c)
    y = cmath.exp(w_pole if m_pole > kink else -w_pole)
    gap = abs(1 - y)
    if gap < GUARD * (1 + abs(y)):
        raise PoleProximity(f"1 - e({m_pole} tau + c) below conditioning floor")
    qi, li, ci = quad.imag, lin.imag, c.imag

    def height(m):
        """-log|e(quad m^2 + lin m) x_m^p| / 2 pi, p the power of m's branch."""
        return (qi * m + li) * m + (power - (m <= kink)) * (m * s + ci)

    left, right = kink, kink + 1
    if qi > 0:
        left = min(left, round(-(li + (power - 1) * s) / (2 * qi)))
        right = max(right, round(-(li + power * s) / (2 * qi)))
    h0, m_peak = min((height(left), left), (height(right), right))
    # without a Gaussian factor (f) the decay is the smaller asymptotic slope
    d2 = 0.0 if qi > 0 else min(height(m_peak + 2) - height(m_peak + 1),
                                height(m_peak - 2) - height(m_peak - 1))
    floor = min(gap, -math.expm1(-math.pi * s))
    env = convex_envelope(h0, qi, d2, -math.log(2), -math.log(floor))

    # exponents times 2 pi i, in Horner form about the peak: w is the one of
    # x_m, and the numerator's is (q2 k + q1) k + q0 on the u > 0 side
    w1, w0 = TWO_PI_I * t, TWO_PI_I * (m_peak * t + c)
    q2, q1 = TWO_PI_I * quad, TWO_PI_I * (lin + 2 * quad * m_peak) + power * w1
    q0 = TWO_PI_I * (quad * m_peak + lin) * m_peak + power * w0
    return Series1D(q2, q1, q0, None, w1, w0, kink - m_peak, m_pole - m_peak), 1, env


def appell_record(quad: complex, lin: complex, c: complex, n_shift: float, tau: Modulus) -> tuple:
    """The set-up of the quadrant cone sum of sign(u) e(quad m^2 + lin m +
    n (m tau + c)) over u v > 0, where u = m + alpha(c) and v = n + n_shift,
    with the geometric sum over n done in closed form: the ``lerch_record``
    with power N = floor(-n_shift) + 1.
    """
    reject_integer_shifts(alpha(c, tau), n_shift)
    return lerch_record(quad, lin, c, math.floor(-n_shift) + 1, tau)


def appell_lerch_sum(quad: complex, lin: complex, c: complex, n_shift: float, tau: Modulus,
                     budget: SummationBudget = DEFAULT_BUDGET, trace: list | None = None) -> complex:
    """The sum that ``appell_record`` sets up."""
    series, dim, env = appell_record(quad, lin, c, n_shift, tau)
    return lattice_sum(series, dim, env, budget, trace)[0]


def sum_series(setup: Callable[..., tuple], args: tuple, budget: SummationBudget,
               trace: list | None):
    """The sums of the series that ``setup(*args)`` sets up as (record, dim,
    Envelope), one per element of the broadcast of the numpy arrays among
    ``args``, in one batch whose term is the records' fields stacked into
    columns (None where all are); one SeriesTrace per element goes to
    ``trace``.  An element whose set-up or sum raises makes the call raise.
    An evaluator tests its arguments for arrays itself and hands a scalar
    call's record to ``lattice_sum``: routed through here, each scalar sum
    would take a further call, about 2% of the eval-sweep benchmark's time."""
    shape = np.broadcast_shapes(*(a.shape for a in args if type(a) is np.ndarray))
    if not math.prod(shape):
        return np.zeros(shape, dtype=complex)
    columns = [np.broadcast_to(a, shape).ravel().tolist() if type(a) is np.ndarray else repeat(a)
               for a in args]
    records, dims, envs = zip(*map(setup, *columns))
    stacked = type(records[0])(*(None if first is None else np.array(column)
                                 for first, column in zip(records[0], zip(*records))))
    return np.array(lattice_sum(stacked, dims[0], envs, budget, trace)[0]).reshape(shape)
