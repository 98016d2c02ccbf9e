"""Identity-certification suites.

Each suite evaluates one analytic identity on seeded pseudo-random admissible
points and reports the maximum residual.  Residuals are absolute, switching
to relative when the reference side exceeds 1 in modulus; the five-term
suite is relative to the largest of its terms.

The nine sampled suites are ``Sampled`` records, data for one loop,
``_sampled``: a ``draw`` of the i-th point and the ``checks`` giving its
(lhs, rhs) pairs, run once on arrays of all points.  A check calls each
evaluator once per modulus, on its arguments stacked along a new leading
axis, so each is one batch of records.  If a batch raises EvalError,
``_per_draw`` redoes it draw by draw (here on each point's numbers, its
stacked calls as small batches), and a draw that raises is skipped and
counted in ``skipped`` and, by kind, in ``skipped_by_kind``, out of the
``points`` drawn.  ``SUITES`` maps each identity id to a callable of one
signature, ``(tau, samples, seed, budget, slopes=None, tolerance=None)``:
its ``Sampled`` record or, for the other four, a function that resolves its
own default tolerance, slopes and sample cap (10 for m2-assoc, 3 for
five-term).  Each runs on the given modulus and tolerance, and takes the
sample count, seed and slopes where it has them.

m2-assoc, five-term and sign-det check the A-infinity relations of m2 and m3
(with m1 = 0) through ``fukaya.compositions``: one composer, ``_composed``,
feeds each output point of an inner composition to the outer one and sums
the result by the ``point_label`` of its output point on the first and last
lines, for all draws at once: one batch sums the inner compositions of every
draw, one the outer ones of every (draw, inner label).  The suites take
their terms from ``_term_draws``, per term one ``_composed`` through
``_per_draw``, and the first error among a draw's terms skips it.  They
compare terms label by label, and take rational slopes, four for m2-assoc
and five for the others (``SLOPE_COUNTS``; DomainError otherwise).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .appell import g0, g0_minus_g, g_series, kappa
from .core import (
    DomainError,
    EvalError,
    Modulus,
    SummationBudget,
    TWO_PI_I,
    e_of,
)
from .fukaya import _z, compositions
from .hfun import h0_series, h_series, psi_closed
from .kronecker import f_closed, f_series
from .lattice import LineOnTorus, point_label
from .theta import _constant, eta_cubed_constant, theta, theta_prime

#: Margin keeping sampled alpha-coordinates away from the excluded loci.
SAMPLE_MARGIN = 0.05


@dataclass
class IdentityReport:
    """Outcome of one certification suite: ``samples`` holds one entry per
    (lhs, rhs) pair of the kept points, ``points`` counts the points drawn,
    kept or skipped."""

    identity_id: str
    tolerance: float
    max_residual: float
    passed: bool
    samples: list = field(default_factory=list)
    seed: Optional[int] = None
    skipped: int = 0
    skipped_by_kind: dict = field(default_factory=dict)
    points: int = 0

    def skip(self, kind: str) -> None:
        """Count one skipped sample under its error ``kind``."""
        self.skipped += 1
        self.skipped_by_kind[kind] = self.skipped_by_kind.get(kind, 0) + 1

    def record(self, point, lhs, rhs, residual) -> None:
        """Keep one pair; a residual that is not finite makes max_residual inf."""
        self.samples.append(
            {"point": point, "lhs": lhs, "rhs": rhs, "residual": residual}
        )
        if not residual <= self.max_residual:  # also where residual is NaN
            self.max_residual = residual if math.isfinite(residual) else math.inf

    def finalize(self) -> "IdentityReport":
        self.passed = bool(self.samples) and self.max_residual < self.tolerance
        return self


def residual_of(lhs: complex, rhs: complex) -> float:
    """Absolute difference, relative to |rhs| when |rhs| > 1."""
    d = abs(lhs - rhs)
    r = abs(rhs)
    return d / r if r > 1 else d


def _sample_alpha(rng: random.Random) -> float:
    return SAMPLE_MARGIN + (1 - 2 * SAMPLE_MARGIN) * rng.random()


def sample_point(rng: random.Random, tau: Modulus) -> complex:
    """One admissible z: alpha uniform in the guarded unit window, beta in [0,1)."""
    return _sample_alpha(rng) * tau.tau + rng.random()


def _sampled(identity_id, tolerance, n, seed, draw, checks) -> IdentityReport:
    """The sampling loop of the suites whose residual is ``residual_of``.

    ``draw(rng, i)`` returns the i-th point, drawn from one generator seeded
    with ``seed``, and ``checks(*point)`` its (lhs, rhs) pairs; ``checks``
    runs once on arrays of all the points or, if that raises EvalError, on
    the numbers of each point (``_per_draw``): one that raises is skipped
    and counted by kind, and as every random number is drawn in ``draw``,
    the points after it do not move.  Either way the report keeps Python
    numbers.
    """
    rng = random.Random(seed)
    rep = IdentityReport(identity_id, tolerance, 0.0, False, seed=seed, points=n)
    points = [draw(rng, i) for i in range(n)]

    def pairs(batch):  # per point its (lhs, rhs); alone, a stacked call's rows are numpy scalars
        size = len(batch)
        args = map(np.array, zip(*points)) if batch is points else batch[0]
        return list(zip(*(zip(np.broadcast_to(lhs, size).tolist(),
                              np.broadcast_to(rhs, size).tolist())
                          for lhs, rhs in checks(*args))))

    for point, result in zip(points, _per_draw(pairs, points) if points else []):
        if isinstance(result, EvalError):
            rep.skip(result.kind)
            continue
        for lhs, rhs in result:
            rep.record(point, lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def _points(k: int):
    """A draw of k independent admissible points."""

    def draw(rng, i, tau):
        return tuple(sample_point(rng, tau) for _ in range(k))

    return draw


def _bridge_draw(rng, i, tau):
    """z1 in the alpha(z1) window (-1, 0), (0, 1) or (1, 2) by i % 3, and an
    admissible z2."""
    z1 = (i % 3 - 1 + _sample_alpha(rng)) * tau.tau + rng.random()
    return z1, sample_point(rng, tau)


def _kronecker(tau: Modulus, budget: SummationBudget):
    """Series and closed form of f agree on pseudo-random admissible points."""

    def checks(z1, z2):
        return [(f_series(z1, z2, tau, budget), f_closed(z1, z2, tau, budget))]

    return checks


def _functional(tau: Modulus, budget: SummationBudget):
    """Modular behavior of f: under tau -> -1/tau, and invariance under
    tau -> tau + 1."""
    t = tau.tau
    tau_inv = Modulus(-1 / t)
    tau_shift = Modulus(t + 1)

    def checks(z1, z2):
        base = f_series(z1, z2, tau, budget)
        lhs = f_series(z1 / t, z2 / t, tau_inv, budget)
        rhs = t * e_of(z1 * z2 / t) * base
        return [(lhs, rhs), (f_series(z1, z2, tau_shift, budget), base)]

    return checks


def _t_quasi(tau: Modulus, budget: SummationBudget):
    """Quasi-periodicity of f (symmetry and the two lattice shifts), of g
    (both shifts), and the first-order difference equation of kappa."""
    t = tau.tau

    def checks(z1, z2, y):
        base_f, swapped, f1, f2 = f_series(np.stack([z1, z2, z1 + 1 + t, z1]),
                                           np.stack([z2, z1, z2, z2 - 1 + t]), tau, budget)
        base_g, g1, g2 = g_series(np.stack([z1, z1 + 1 + t, z1]),
                                  np.stack([z2, z2, z2 + 1 + t]), tau, budget)
        shifted, base_k = kappa(y, np.stack([z1 + 1 + t, z1]), tau, budget)
        return [
            (swapped, base_f),
            (f1, e_of(-z2) * base_f),
            (f2, e_of(-z1) * base_f),
            (g1, e_of(-z2) * base_g),
            (g2, e_of(-t / 2 - (z1 + z2)) * base_g),
            (shifted, e_of(y) * base_k + theta(z1, tau, budget)),
        ]

    return checks


def _hqp(tau: Modulus, budget: SummationBudget):
    """Quasi-periodicity of the rank-2 series h under both lattice shifts."""
    t = tau.tau

    def checks(z1, z2):
        base, h1, h2 = h_series(np.stack([z1, z1 + 1 + t, z1]), np.stack([z2, z2, z2 + 1 + t]),
                                tau, budget)
        return [(h1, e_of(-t - 2 * z1 - 2 * z2) * base), (h2, e_of(-t / 2 - 2 * z1 - z2) * base)]

    return checks


def _g_bridge(tau: Modulus, budget: SummationBudget):
    """g0 - g equals the piecewise correction p(z1) theta(z1+z2) across the
    alpha(z1) windows (-1,0), (0,1), (1,2)."""

    def checks(z1, z2):
        lhs = g0(z1, z2, tau, budget) - g_series(z1, z2, tau, budget)
        return [(lhs, g0_minus_g(z1, z2, tau, budget))]

    return checks


def _fg(tau: Modulus, budget: SummationBudget):
    """theta(z1) g(z3, z1+z2) + theta(z1+z2+z3) g(-z3, z1+z3)
    = theta(z2) f(z1+z2, z1+z3)."""

    def checks(z1, z2, z3):
        th1, th123, th2 = theta(np.stack([z1, z1 + z2 + z3, z2]), tau, budget)
        g1, g2 = g_series(np.stack([z3, -z3]), np.stack([z1 + z2, z1 + z3]), tau, budget)
        return [(th1 * g1 + th123 * g2, th2 * f_series(z1 + z2, z1 + z3, tau, budget))]

    return checks


def _identity1(tau: Modulus, budget: SummationBudget):
    """e(y) theta(y+z) kappa(y, z-x) - e(-x) theta(x-z) kappa(-x, y+z)
    = theta(z) f(x, y)."""

    def checks(x, y, z):
        th_yz, th_xz, th_z = theta(np.stack([y + z, x - z, z]), tau, budget)
        k1, k2 = kappa(np.stack([y, -x]), np.stack([z - x, y + z]), tau, budget)
        lhs = e_of(y) * th_yz * k1 - e_of(-x) * th_xz * k2
        return [(lhs, th_z * f_series(x, y, tau, budget))]

    return checks


def _identity2(tau: Modulus, budget: SummationBudget):
    """theta(2x+y) h0(x,z) - theta(2x+z) h0(x,y)
    = theta(2(x+z), 2tau) kappa(-2x-y-z, 2x+y+tau)
    - theta(2(x+y), 2tau) kappa(-2x-y-z, 2x+z+tau)."""
    t = tau.tau
    tau2 = tau.scaled(2)

    def checks(x, y, z):
        th_y, th_z = theta(np.stack([2 * x + y, 2 * x + z]), tau, budget)
        h0_z, h0_y = h0_series(x, np.stack([z, y]), tau, budget)
        th2_z, th2_y = theta(np.stack([2 * (x + z), 2 * (x + y)]), tau2, budget)
        k_y, k_z = kappa(-2 * x - y - z, np.stack([2 * x + y + t, 2 * x + z + t]), tau, budget)
        return [(th_y * h0_z - th_z * h0_y, th2_z * k_y - th2_y * k_z)]

    return checks


def _psi(tau: Modulus, budget: SummationBudget):
    """The closed form of psi(x) = theta(x - xi) h0(x, -x) and its
    first-order difference equation."""
    t = tau.tau
    xi = tau.xi

    def checks(x):
        shifted, th, th_xi = theta(np.stack([x - xi, x, x + xi]), tau, budget)
        closed, lhs_de = psi_closed(np.stack([x, x + t]), tau, budget)
        rhs_de = (e_of(xi) * closed + e_of(t / 2) * th * shifted
                  + _constant(tau, "theta(0, 2 tau)", budget) * th_xi)
        return [(shifted * h0_series(x, -x, tau, budget), closed), (lhs_de, rhs_de)]

    return checks


@dataclass(frozen=True)
class Sampled:
    """A sampled SUITES entry: ``checks(tau, budget)`` is the function of a
    point's coordinates that gives its (lhs, rhs) pairs, and ``draw(rng, i,
    tau)`` the i-th point; a call runs them through ``_sampled`` on
    ``samples`` points, at ``tolerance`` unless another is given."""

    identity_id: str
    tolerance: float
    checks: Callable[[Modulus, SummationBudget], Callable]
    draw: Callable[[random.Random, int, Modulus], tuple]

    def __call__(
        self, tau: Modulus, samples: int, seed: int, budget: SummationBudget,
        slopes: Optional[Sequence] = None, tolerance: Optional[float] = None,
    ) -> IdentityReport:
        return _sampled(self.identity_id, self.tolerance if tolerance is None else tolerance,
                        samples, seed, partial(self.draw, tau=tau), self.checks(tau, budget))


def _eta_const(tau: Modulus, samples: int, seed: int, budget: SummationBudget, slopes=None,
               tolerance=None) -> IdentityReport:
    """theta'((tau+1)/2)/(2 pi i) equals ``eta_cubed_constant``, the cubed
    q-Pochhammer product truncated with a certified bound."""
    tolerance = 1e-12 if tolerance is None else tolerance
    rep = IdentityReport("eta-const", tolerance, 0.0, False, points=1)
    lhs = theta_prime(tau.xi, tau, budget) / TWO_PI_I
    rhs = eta_cubed_constant(tau, budget)
    rep.record((tau.tau,), lhs, rhs, abs(lhs - rhs))
    return rep.finalize()


def _lifted_z(line: LineOnTorus, a: int, b: int, tau: Modulus) -> complex:
    """z = tau y + beta of the same torus line with its lift by the offset
    a * slope + b as the base lift, the plane translated by the integer
    vector (a, -b): y grows by that offset, rounded once."""
    p, q = line.slope.as_integer_ratio()
    return tau.tau * (line.shift_y + (a * p + b * q) / q) + line.monodromy_beta


def _composed(draws: Sequence, start: int, stop: int, tau: Modulus,
              budget: SummationBudget) -> list:
    """The composition of each draw's lines whose inner composition is the
    one of lines[start:stop]: a dict by output label on the first and last
    lines per draw, a list of lines of the same slopes in every draw.

    The inner composition's output labelled (a, b), on lines[start] and
    lines[stop - 1], is fed to the outer one as the standard intersection of
    those two lines: the outer composition keeps lines[:start + 1] and takes
    lines[stop - 1:] lifted by their own offsets a l + b.  That translates
    them together by an integer vector, so the intersections among them, the
    outer composition's other inputs, stay where they were.  An outer label
    (a', b') on the lifted last line is the offset (a + a') l + b + b' on
    the last line, whose ``point_label`` keys the result.  The lifted lines
    keep their slopes, so the inner compositions of all draws are one
    ``compositions`` batch, and the outer ones of every (draw, inner label)
    another.
    """
    slopes = tuple(ln.slope for ln in draws[0])
    z = [_z(lines, tau) for lines in draws]
    inner = compositions(slopes[start:stop], list(np.array([row[start:stop] for row in z]).T),
                         tau, budget)
    feeds = [(i, label, value) for i, coeffs in enumerate(inner) for label, value in coeffs.items()]
    if not feeds:
        return [{} for _ in draws]
    outer = compositions(slopes[:start + 1] + slopes[stop - 1:], list(np.array([
        [*z[i][:start + 1], *(_lifted_z(ln, a, b, tau) for ln in draws[i][stop - 1:])]
        for i, (a, b), _ in feeds]).T), tau, budget)
    first, last = slopes[0], slopes[-1]
    out = [{} for _ in draws]
    for (i, (a, b), value), coeffs in zip(feeds, outer):
        for (da, db), v in coeffs.items():
            label = point_label(first, last, a + da, b + db)
            out[i][label] = out[i].get(label, 0.0) + value * v
    return out


def _per_draw(compose: Callable[[list], list], draws: list) -> list:
    """``compose(draws)`` or, if that raises EvalError, ``compose`` of each
    draw alone: per draw its result, or the EvalError that it raised."""
    try:
        return compose(draws)
    except EvalError:
        results = []
        for draw in draws:
            try:
                results.append(compose([draw])[0])
            except EvalError as ex:
                results.append(ex)
        return results


def _term_draws(draws: list, slices: Sequence, tau: Modulus, budget: SummationBudget) -> list:
    """Per draw the ``_composed`` terms whose inner compositions take the
    (start, stop) ``slices`` of its lines, or the EvalError of the first
    term that raised for it.  Each term is one ``_composed`` of all draws,
    redone draw by draw if it raises."""
    terms = [_per_draw(partial(_composed, start=start, stop=stop, tau=tau, budget=budget), draws)
             for start, stop in slices]
    return [next((r for r in results if isinstance(r, EvalError)), results)
            for results in zip(*terms)]


def _label_gap(first: dict, second: dict) -> float:
    """Largest difference of two maps by label; a label on one side only
    counts its whole value."""
    return max((abs(first.get(k, 0.0) - second.get(k, 0.0)) for k in first.keys() | second.keys()),
               default=0.0)


#: how many slopes each suite that takes ``slopes`` needs; the others take none
SLOPE_COUNTS = {"m2-assoc": 4, "five-term": 5, "sign-det": 5}


def check_slope_count(identity_id: str, slopes: Sequence) -> None:
    """DomainError unless ``slopes`` holds as many slopes as the suite takes."""
    need = SLOPE_COUNTS[identity_id]
    if len(slopes) != need:
        raise DomainError(f"need {need} slopes, got {len(slopes)}")


def _m2_assoc(tau: Modulus, samples: int, seed: int, budget: SummationBudget, slopes=None,
              tolerance=None) -> IdentityReport:
    """m2(m2(e12, e23), e34) = m2(e12, m2(e23, e34)) on four slopes,
    compared coefficient-wise at the labels of the outer intersection points."""
    slopes = (0, 1, 2, 3) if slopes is None else slopes
    tolerance = 1e-9 if tolerance is None else tolerance
    n_samples = min(samples, 10)
    check_slope_count("m2-assoc", slopes)
    rng = random.Random(seed)
    rep = IdentityReport("m2-assoc", tolerance, 0.0, False, seed=seed, points=n_samples)
    draws = []
    for _ in range(n_samples):
        ys = [round(rng.uniform(-0.45, 0.45), 6) for _ in slopes]
        betas = [rng.random() for _ in slopes]
        draws.append([LineOnTorus(s, y, b) for s, y, b in zip(slopes, ys, betas)])
    for lines, sides in zip(draws, _term_draws(draws, ((0, 3), (1, 4)), tau, budget)):
        if isinstance(sides, EvalError):
            rep.skip(sides.kind)
            continue
        left, right = sides
        if not (left or right):  # neither side has an output point: nothing to compare
            rep.skip("AllTermsZero")
            continue
        rep.record(tuple(ln.shift_y for ln in lines), sum(left.values()), sum(right.values()),
                   _label_gap(left, right))
    return rep.finalize()


#: The inner composition of each of the five terms of the A-infinity relation
#: on four inputs, as the slice of the five lines it takes: m2(e12, m3(e23,
#: e34, e45)), m2(m3(e12, e23, e34), e45), m3(m2(e12, e23), e34, e45),
#: m3(e12, e23, m2(e34, e45)) and m3(e12, m2(e23, e34), e45).
FIVE_TERMS = ((1, 5), (0, 4), (0, 3), (2, 5), (1, 4))
#: the signs of the five terms in the relation
EPSILONS = (1, 1, -1, -1, 1)
#: the slopes of five-term and sign-det unless others are given
FIVE_TERM_SLOPES = (0, 2, -1, 1, 3)


def _five_term_draws(slopes: Sequence, ys: Sequence, tau: Modulus,
                     budget: SummationBudget) -> list:
    """The five terms (without the signs) of the lines of these slopes at
    each shift tuple of ``ys``: per tuple a list of five values per output
    label on the first and last lines, 0 where a term has no coefficient, or
    the EvalError of the first term that raised for it (``_term_draws``).

    Slopes other than five raise DomainError, and outside the slope order
    l3 < l1 < l4 < l2 < l5 every tuple has one.
    """
    check_slope_count("five-term", slopes)
    l1, l2, l3, l4, l5 = slopes
    if not (l3 < l1 < l4 < l2 < l5):
        return [DomainError("only the slope order l3 < l1 < l4 < l2 < l5 is certified")] * len(ys)
    draws = [[LineOnTorus(s, yi) for s, yi in zip(slopes, y)] for y in ys]
    out = []
    for results in _term_draws(draws, FIVE_TERMS, tau, budget):
        if isinstance(results, EvalError):
            out.append(results)
            continue
        by_label: dict = {}
        for i, values in enumerate(results):
            for label, value in values.items():
                by_label.setdefault(label, [0j] * 5)[i] += value
        out.append(by_label)
    return out


def _five_term(tau: Modulus, samples: int, seed: int, budget: SummationBudget, slopes=None,
               tolerance=None) -> IdentityReport:
    """The five-term A-infinity identity: at each output point the sum of
    the five terms with the signs ``EPSILONS`` vanishes.  A sample records
    the sum at its worst point, with residual relative to the largest term
    at any point."""
    slopes = FIVE_TERM_SLOPES if slopes is None else slopes
    tolerance = 1e-7 if tolerance is None else tolerance
    rng = random.Random(seed)
    ys = [[round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)] for _ in range(min(samples, 3))]
    rep = IdentityReport("five-term", tolerance, 0.0, False, seed=seed, points=len(ys))
    for y, by_label in zip(ys, _five_term_draws(slopes, ys, tau, budget)):
        if isinstance(by_label, EvalError):
            rep.skip(by_label.kind)
            continue
        scale = max((abs(t) for terms in by_label.values() for t in terms), default=0.0)
        if scale == 0:
            rep.skip("AllTermsZero")
            continue
        total = max((sum(e * t for e, t in zip(EPSILONS, terms)) for terms in by_label.values()),
                    key=abs)
        rep.record(tuple(y), total, 0.0, abs(total) / scale)
    return rep.finalize()


def _balanced_terms(slopes: Sequence, tau: Modulus, seed: int,
                    budget: SummationBudget) -> list:
    """The five terms at the first output point, over up to 50 seeded draws
    of the shifts, where each term is at least 0.05 of the largest, so that a
    single flipped sign moves their signed sum well clear of 0."""
    rng = random.Random(seed)
    for _ in range(50):
        y = [round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)]
        by_label, = _five_term_draws(slopes, [y], tau, budget)
        if isinstance(by_label, EvalError):
            continue
        for terms in by_label.values():
            if min(map(abs, terms)) >= 0.05 * max(map(abs, terms)) > 0:
                return terms
    raise DomainError("no balanced sample found for the sign battery")


def _sign_det(tau: Modulus, samples: int, seed: int, budget: SummationBudget, slopes=None,
              tolerance=None) -> IdentityReport:
    """Certifies the sign assignment of the five-term identity by a control
    battery: the declared signs pass, every single-sign flip fails by more
    than 1e-2, and the global flip passes (the overall sign is free)."""
    slopes = FIVE_TERM_SLOPES if slopes is None else slopes
    tolerance = 1e-7 if tolerance is None else tolerance
    terms = _balanced_terms(slopes, tau, seed, budget)
    rep = IdentityReport("sign-det", tolerance, 0.0, False, seed=seed, points=1)
    scale = max(abs(t) for t in terms)

    def resid(eps):
        return abs(sum(e * t for e, t in zip(eps, terms))) / scale

    ok = True
    for label, eps in (("declared", EPSILONS), ("global-flip", [-e for e in EPSILONS])):
        r = resid(eps)
        rep.record((label,), r, 0.0, r)
        ok = ok and r < tolerance
    for i in range(5):
        r = resid(EPSILONS[:i] + (-EPSILONS[i],) + EPSILONS[i + 1:])
        rep.record((f"flip-{i + 1}",), r, 0.0, 0.0)
        ok = ok and r > 1e-2
    rep.passed = ok
    return rep


SUITES = {
    "kronecker": Sampled("kronecker", 1e-9, _kronecker, _points(2)),
    "functional": Sampled("functional", 1e-8, _functional, _points(2)),
    "t-quasi": Sampled("t-quasi", 1e-9, _t_quasi, _points(3)),
    "hqp": Sampled("hqp", 1e-9, _hqp, _points(2)),
    "g-bridge": Sampled("g-bridge", 1e-9, _g_bridge, _bridge_draw),
    "fg": Sampled("fg", 1e-8, _fg, _points(3)),
    "identity1": Sampled("identity1", 1e-8, _identity1, _points(3)),
    "identity2": Sampled("identity2", 1e-8, _identity2, _points(3)),
    "psi": Sampled("psi", 1e-8, _psi, _points(1)),
    "eta-const": _eta_const,
    "m2-assoc": _m2_assoc,
    "five-term": _five_term,
    "sign-det": _sign_det,
}
