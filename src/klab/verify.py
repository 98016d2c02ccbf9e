"""Identity-certification suites.

Each suite evaluates one analytic identity on seeded pseudo-random admissible
points (or structured grids) and reports the maximum residual.  Residuals are
absolute, switching to relative when the reference side exceeds 1 in modulus;
the five-term suite is relative to the largest of its terms.

The sampled suites are data for one loop, ``_sampled``: a ``draw`` of the
next point and the ``checks`` giving its (lhs, rhs) pairs, run once on arrays
of all points (a batch of records per series) or, if that raises, point by
point; a point whose evaluation raises EvalError is skipped and counted in
``skipped`` and, by kind, in ``skipped_by_kind``, out of the ``points`` drawn.
``SUITES`` maps each identity id to a ``Suite``, which maps the command
line's sample count, seed, slopes and tolerance override onto its parameters.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .appell import g0, g0_minus_g, g_series, kappa
from .core import (
    DEFAULT_BUDGET,
    DomainError,
    EvalError,
    Modulus,
    SummationBudget,
    TWO_PI_I,
    e_of,
)
from .fukaya import (
    F_series,
    _add_at_point,
    _point_gap,
    composition_by_point,
    m2_generic,
    theta_slope_coefficient,
)
from .hfun import h0_series, h_series, psi_closed
from .kronecker import f_closed, f_series
from .lattice import (
    LineOnTorus,
    _frac_gcd,
    _xgcd,
    build_quad_config,
    ideal_of,
    triple_ideal,
)
from .theta import eta_cubed_constant, theta, theta_prime
from .verify_data import FIVE_TERM_ROWS, five_term_tables

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
    budget: SummationBudget = DEFAULT_BUDGET
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


def _sampled(identity_id, tolerance, n, seed, budget, draw, checks) -> IdentityReport:
    """The sampling loop of the suites whose residual is ``residual_of``.

    ``draw(rng, i)`` returns the i-th point, drawn from one generator seeded
    with ``seed``, and ``checks(*point)`` its (lhs, rhs) pairs; ``checks``
    runs once on arrays of all the points or, if that raises EvalError, on
    each point: one that raises is skipped and counted by kind, and as every
    random number is drawn in ``draw``, the points after it do not move.
    """
    rng = random.Random(seed)
    rep = IdentityReport(identity_id, tolerance, 0.0, False, seed=seed, budget=budget,
                         points=n)
    points = [draw(rng, i) for i in range(n)]
    try:
        # the (lhs, rhs) pairs of each point
        batch = list(zip(*(zip(np.broadcast_to(lhs, n).tolist(), np.broadcast_to(rhs, n).tolist())
                           for lhs, rhs in checks(*map(np.array, zip(*points)))))) if points else []
    except EvalError:
        batch = None
    for i, point in enumerate(points):
        try:
            pairs = checks(*point) if batch is None else batch[i]
        except EvalError as ex:
            rep.skip(ex.kind)
            continue
        for lhs, rhs in pairs:
            rep.record(point, lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def _points(tau: Modulus, k: int):
    """A draw of k independent admissible points."""

    def draw(rng, i):
        return tuple(sample_point(rng, tau) for _ in range(k))

    return draw


def verify_kronecker_id(
    tau: Modulus,
    n_samples: int = 100,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """Series and closed form of f agree on pseudo-random admissible points."""

    def checks(z1, z2):
        return [(f_series(z1, z2, tau, budget), f_closed(z1, z2, tau, budget))]

    return _sampled("kronecker", tolerance, n_samples, seed, budget, _points(tau, 2), checks)


def verify_functional_equation(
    tau: Modulus,
    n_samples: int = 20,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
    zeta: complex = 1.0,
) -> IdentityReport:
    """Modular behavior of f: under tau -> -1/tau with root of unity zeta = 1,
    and invariance under tau -> tau + 1."""
    t = tau.tau
    tau_inv = Modulus(-1 / t)
    tau_shift = Modulus(t + 1)

    def checks(z1, z2):
        base = f_series(z1, z2, tau, budget)
        lhs = f_series(z1 / t, z2 / t, tau_inv, budget)
        rhs = zeta * t * e_of(z1 * z2 / t) * base
        return [(lhs, rhs), (f_series(z1, z2, tau_shift, budget), base)]

    return _sampled("functional", tolerance, n_samples, seed, budget, _points(tau, 2), checks)


def verify_t_quasi(
    tau: Modulus,
    grid: int = 10,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """Quasi-periodicity of f (symmetry and the two lattice shifts), of g
    (both shifts), and the first-order difference equation of kappa, on
    grid * grid points (z1, z2, y)."""
    t = tau.tau

    def checks(z1, z2, y):
        base_f = f_series(z1, z2, tau, budget)
        pairs = [
            (f_series(z2, z1, tau, budget), base_f),
            (f_series(z1 + 1 + t, z2, tau, budget), e_of(-z2) * base_f),
            (f_series(z1, z2 - 1 + t, tau, budget), e_of(-z1) * base_f),
        ]
        base_g = g_series(z1, z2, tau, budget)
        return pairs + [
            (g_series(z1 + 1 + t, z2, tau, budget), e_of(-z2) * base_g),
            (g_series(z1, z2 + 1 + t, tau, budget), e_of(-t / 2 - (z1 + z2)) * base_g),
            (
                kappa(y, z1 + 1 + t, tau, budget),
                e_of(y) * kappa(y, z1, tau, budget) + theta(z1, tau, budget),
            ),
        ]

    return _sampled("t-quasi", tolerance, grid * grid, seed, budget, _points(tau, 3), checks)


def verify_hqp(
    tau: Modulus,
    grid: int = 10,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """Quasi-periodicity of the rank-2 series h under both lattice shifts,
    on grid * grid points."""
    t = tau.tau

    def checks(z1, z2):
        base = h_series(z1, z2, tau, budget)
        return [
            (h_series(z1 + 1 + t, z2, tau, budget), e_of(-t - 2 * z1 - 2 * z2) * base),
            (h_series(z1, z2 + 1 + t, tau, budget), e_of(-t / 2 - 2 * z1 - z2) * base),
        ]

    return _sampled("hqp", tolerance, grid * grid, seed, budget, _points(tau, 2), checks)


def verify_g_bridge(
    tau: Modulus,
    n_samples: int = 30,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """g0 - g equals the piecewise correction p(z1) theta(z1+z2) across the
    alpha(z1) windows (-1,0), (0,1), (1,2)."""
    t = tau.tau
    per = max(1, n_samples // 3)

    def draw(rng, i):
        # the first `per` points in window (-1, 0), the next in (0, 1), ...
        z1 = (i // per - 1 + _sample_alpha(rng)) * t + rng.random()
        return z1, sample_point(rng, tau)

    def checks(z1, z2):
        lhs = g0(z1, z2, tau, budget) - g_series(z1, z2, tau, budget)
        return [(lhs, g0_minus_g(z1, z2, tau, budget))]

    return _sampled("g-bridge", tolerance, 3 * per, seed, budget, draw, checks)


def verify_fg_identity(
    tau: Modulus,
    n_samples: int = 50,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """theta(z1) g(z3, z1+z2) + theta(z1+z2+z3) g(-z3, z1+z3)
    = theta(z2) f(z1+z2, z1+z3)."""

    def checks(z1, z2, z3):
        lhs = theta(z1, tau, budget) * g_series(z3, z1 + z2, tau, budget) + theta(
            z1 + z2 + z3, tau, budget
        ) * g_series(-z3, z1 + z3, tau, budget)
        return [(lhs, theta(z2, tau, budget) * f_series(z1 + z2, z1 + z3, tau, budget))]

    return _sampled("fg", tolerance, n_samples, seed, budget, _points(tau, 3), checks)


def verify_identity1(
    tau: Modulus,
    n_samples: int = 50,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """e(y) theta(y+z) kappa(y, z-x) - e(-x) theta(x-z) kappa(-x, y+z)
    = theta(z) f(x, y)."""

    def checks(x, y, z):
        lhs = e_of(y) * theta(y + z, tau, budget) * kappa(y, z - x, tau, budget) - (
            e_of(-x) * theta(x - z, tau, budget) * kappa(-x, y + z, tau, budget)
        )
        return [(lhs, theta(z, tau, budget) * f_series(x, y, tau, budget))]

    return _sampled("identity1", tolerance, n_samples, seed, budget, _points(tau, 3), checks)


def verify_identity2(
    tau: Modulus,
    n_samples: int = 50,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """theta(2x+y) h0(x,z) - theta(2x+z) h0(x,y)
    = theta(2(x+z), 2tau) kappa(-2x-y-z, 2x+y+tau)
    - theta(2(x+y), 2tau) kappa(-2x-y-z, 2x+z+tau)."""
    t = tau.tau
    tau2 = tau.scaled(2)

    def checks(x, y, z):
        lhs = theta(2 * x + y, tau, budget) * h0_series(x, z, tau, budget) - theta(
            2 * x + z, tau, budget
        ) * h0_series(x, y, tau, budget)
        w = -2 * x - y - z
        rhs = theta(2 * (x + z), tau2, budget) * kappa(
            w, 2 * x + y + t, tau, budget
        ) - theta(2 * (x + y), tau2, budget) * kappa(w, 2 * x + z + t, tau, budget)
        return [(lhs, rhs)]

    return _sampled("identity2", tolerance, n_samples, seed, budget, _points(tau, 3), checks)


def verify_psi(
    tau: Modulus,
    n_samples: int = 25,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """The closed form of psi(x) = theta(x - xi) h0(x, -x) and its
    first-order difference equation."""
    t = tau.tau
    xi = tau.xi
    tau2 = tau.scaled(2)

    def checks(x):
        direct = theta(x - xi, tau, budget) * h0_series(x, -x, tau, budget)
        closed = psi_closed(x, tau, budget)
        lhs_de = psi_closed(x + t, tau, budget)
        rhs_de = (
            e_of(xi) * closed
            + e_of(t / 2) * theta(x, tau, budget) * theta(x - xi, tau, budget)
            + theta(0, tau2, budget) * theta(x + xi, tau, budget)
        )
        return [(direct, closed), (lhs_de, rhs_de)]

    return _sampled("psi", tolerance, n_samples, seed, budget, _points(tau, 1), checks)


def verify_eta_const(
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-12,
    n_factors: int = 50,
) -> IdentityReport:
    """theta'((tau+1)/2)/(2 pi i) equals the cubed q-Pochhammer product."""
    rep = IdentityReport("eta-const", tolerance, 0.0, False, budget=budget, points=1)
    lhs = theta_prime(tau.xi, tau, budget) / TWO_PI_I
    q = tau.q
    prod = 1.0 + 0.0j
    for n in range(1, n_factors + 1):
        prod *= (1 - q**n) ** 3
    rep.record((tau.tau,), lhs, prod, abs(lhs - prod))
    packaged = eta_cubed_constant(tau, budget)
    rep.record((tau.tau,), packaged, prod, abs(packaged - prod))
    return rep.finalize()


def verify_m2_associativity(
    tau: Modulus,
    n_samples: int = 10,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
    slopes: Sequence = (0, 1, 2, 3),
) -> IdentityReport:
    """m2(m2(e12, e23), e34) = m2(e12, m2(e23, e34)) for integer slopes,
    compared coefficient-wise at the outer intersection points."""
    slopes = [Fraction(s) for s in slopes]
    if any(ideal_of(s) != 1 for s in slopes):
        raise DomainError("associativity harness requires integer slopes")
    rng = random.Random(seed)
    rep = IdentityReport("m2-assoc", tolerance, 0.0, False, seed=seed, budget=budget,
                         points=n_samples)
    for _ in range(n_samples):
        ys = [round(rng.uniform(-0.45, 0.45), 6) for _ in slopes]
        betas = [rng.random() for _ in slopes]
        lines = [LineOnTorus(s, y, b) for s, y, b in zip(slopes, ys, betas)]
        try:
            left = _assoc_side(lines, tau, budget, first=True)
            right = _assoc_side(lines, tau, budget, first=False)
        except EvalError as ex:
            rep.skip(ex.kind)
            continue
        res = _point_gap(left, right)
        rep.record(tuple(ys), sum(left.values()), sum(right.values()), res)
    return rep.finalize()


def _relabel(line: LineOnTorus, a: int, b: int) -> LineOnTorus:
    """The same torus line re-parameterized so that e_{a,b} becomes e_{0,0};
    valid for integer slopes."""
    return LineOnTorus(line.slope, line.shift_y - float(a * line.slope + b),
                       line.monodromy_beta)


def _assoc_side(lines, tau, budget, first: bool) -> dict:
    l1, l2, l3, l4 = lines
    inner = m2_generic([l1, l2, l3] if first else [l2, l3, l4], tau, budget)
    out: dict = {}
    for (a, b), val in inner.coefficients.items():
        if first:
            outer_lines = [_relabel(l1, a, b), l3, l4]
        else:
            outer_lines = [l1, _relabel(l2, a, b), l4]
        outer = m2_generic(outer_lines, tau, budget)
        for point, v in composition_by_point(outer, outer_lines[0], l4).items():
            _add_at_point(out, point, inner.prefactor * val * v)
    return {k: v for k, v in out.items() if abs(v) > 1e-13}


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
        cfg = build_quad_config([slopes[i - 1] for i in quad], signs)
        p, r = pivot - 1, tri[1] - 1
        gens = [(slopes[p] - slopes[j - 1]) / (slopes[p] - slopes[r]) * q[j - 1]
                for j in gen_slots]
        if split is None:
            period = triple_ideal(*(slopes[i - 1] for i in tri))
            vectors = [(i, tables[key]) for i, key in shifts]
            pairs = _index_shifts(range(0, period, q[r]), gens, vectors)
        else:
            pairs = _coset_shifts(cfg.coset_reps, split, gens)
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


EPSILONS = (1, 1, -1, -1, 1)


def verify_five_term(
    slopes: Sequence = (0, 2, -1, 1, 3),
    tau: Modulus = Modulus(1j),
    n_samples: int = 3,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-7,
    epsilons: Sequence[int] = EPSILONS,
    y: Optional[Sequence[float]] = None,
) -> IdentityReport:
    """The five-term A-infinity identity: the signed sum of the five terms
    vanishes, with residual relative to the largest term.

    Samples pseudo-random y-tuples unless an explicit ``y`` is given.
    """
    rng = random.Random(seed)
    fixed = y
    n_points = 1 if fixed is not None else n_samples
    rep = IdentityReport("five-term", tolerance, 0.0, False, seed=seed, budget=budget,
                         points=n_points)
    for _ in range(n_points):
        y = list(fixed) if fixed is not None else [
            round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)
        ]
        try:
            terms = five_term_values(slopes, y, tau, budget)
        except EvalError as ex:
            rep.skip(ex.kind)
            continue
        total = sum(e * t for e, t in zip(epsilons, terms))
        scale = max(abs(t) for t in terms)
        if scale == 0:
            rep.skip("AllTermsZero")
            continue
        rep.record(tuple(y), total, 0.0, abs(total) / scale)
    return rep.finalize()


def verify_sign_determination(
    slopes: Sequence = (0, 2, -1, 1, 3),
    tau: Modulus = Modulus(1j),
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-7,
    control_floor: float = 1e-2,
) -> IdentityReport:
    """Certifies the sign assignment of the five-term identity by a control
    battery: the declared signs pass, every single-sign flip fails by a wide
    margin, and the global flip passes (the overall sign is free).

    Requires a purely imaginary modulus, where all five terms are real and the
    flip controls measure genuine cancellation structure."""
    if abs(tau.tau.real) > 1e-12:
        raise DomainError("the sign battery requires a purely imaginary modulus")
    rng = random.Random(seed)
    rep = IdentityReport("sign-det", tolerance, 0.0, False, seed=seed, budget=budget,
                         points=1)
    # a discriminating sample needs all five terms of comparable size, so a
    # single flipped sign moves the sum well clear of the tolerance
    terms = None
    for _ in range(50):
        y = [round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)]
        try:
            cand = five_term_values(slopes, y, tau, budget)
        except EvalError:
            continue
        if min(abs(t) for t in cand) >= 0.05 * max(abs(t) for t in cand):
            terms = cand
            break
    if terms is None:
        raise DomainError("no balanced sample found for the sign battery")
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
        ok = ok and r > control_floor
    rep.passed = ok
    return rep


def _grid(samples: int) -> int:
    """Side of the square grid that stands for ``samples`` points."""
    return max(2, math.isqrt(samples))


@dataclass(frozen=True)
class Suite:
    """A SUITES entry: runs ``run`` with the common arguments of
    ``klab verify`` mapped onto the suite's own parameters.

    ``size`` names the parameter set to ``scale(samples)`` (None: the suite
    has no size); ``seeded`` says whether it takes a seed, ``slopes`` whether
    it takes the five slopes, ``tolerance`` whether a tolerance override
    applies, and ``imaginary_tau`` that it runs at i Im(tau).
    """

    run: Callable[..., IdentityReport]
    size: Optional[str] = "n_samples"
    scale: Callable[[int], int] = int
    seeded: bool = True
    slopes: bool = False
    tolerance: bool = True
    imaginary_tau: bool = False

    def __call__(
        self, tau: Modulus, samples: int, seed: int, budget: SummationBudget,
        slopes: Optional[Sequence] = None, tolerance: Optional[float] = None,
    ) -> IdentityReport:
        kwargs = {"budget": budget}
        if self.size is not None:
            kwargs[self.size] = self.scale(samples)
        if self.seeded:
            kwargs["seed"] = seed
        if self.slopes and slopes is not None:
            kwargs["slopes"] = slopes
        if self.tolerance and tolerance is not None:
            kwargs["tolerance"] = tolerance
        if self.imaginary_tau:
            tau = Modulus(complex(0.0, tau.tau.imag))
        return self.run(tau=tau, **kwargs)


SUITES = {
    "kronecker": Suite(verify_kronecker_id),
    "functional": Suite(verify_functional_equation),
    "t-quasi": Suite(verify_t_quasi, "grid", _grid),
    "hqp": Suite(verify_hqp, "grid", _grid),
    "g-bridge": Suite(verify_g_bridge),
    "fg": Suite(verify_fg_identity),
    "identity1": Suite(verify_identity1),
    "identity2": Suite(verify_identity2),
    "psi": Suite(verify_psi),
    "eta-const": Suite(verify_eta_const, None, seeded=False),
    "m2-assoc": Suite(verify_m2_associativity, scale=partial(min, 10)),
    "five-term": Suite(verify_five_term, scale=partial(min, 3), slopes=True),
    # the battery needs a purely imaginary modulus and its own tolerance
    "sign-det": Suite(
        verify_sign_determination, None, slopes=True, tolerance=False, imaginary_tau=True
    ),
}
