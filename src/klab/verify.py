"""Identity-certification suites.

Each suite evaluates one analytic identity on seeded pseudo-random admissible
points (or structured grids) and reports the maximum residual.  Residuals are
absolute, switching to relative when the reference side exceeds 1 in modulus;
the five-term suite is relative to the largest of its terms.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .appell import g0, g0_minus_g, g_series, kappa, p_correction
from .core import (
    DEFAULT_BUDGET,
    DomainError,
    EvalError,
    Modulus,
    SummationBudget,
    TWO_PI_I,
    e_of,
)
from .fukaya import F_series, composition_by_point, m2_generic, theta_slope_coefficient
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
from .verify_data import five_term_tables

#: Margin keeping sampled alpha-coordinates away from the excluded loci.
SAMPLE_MARGIN = 0.05


@dataclass
class IdentityReport:
    """Outcome of one certification suite."""

    identity_id: str
    tolerance: float
    max_residual: float
    passed: bool
    samples: list = field(default_factory=list)
    seed: Optional[int] = None
    budget: SummationBudget = DEFAULT_BUDGET
    skipped: int = 0

    def record(self, point, lhs, rhs, residual) -> None:
        self.samples.append(
            {"point": point, "lhs": lhs, "rhs": rhs, "residual": residual}
        )
        if residual > self.max_residual:
            self.max_residual = residual

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


def verify_kronecker_id(
    tau: Modulus,
    n_samples: int = 100,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """Series and closed form of f agree on pseudo-random admissible points."""
    rng = random.Random(seed)
    rep = IdentityReport("kronecker", tolerance, 0.0, False, seed=seed, budget=budget)
    for _ in range(n_samples):
        z1, z2 = sample_point(rng, tau), sample_point(rng, tau)
        try:
            lhs = f_series(z1, z2, tau, budget)
            rhs = f_closed(z1, z2, tau, budget)
        except EvalError:
            rep.skipped += 1
            continue
        rep.record((z1, z2), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


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
    rng = random.Random(seed)
    rep = IdentityReport("functional", tolerance, 0.0, False, seed=seed, budget=budget)
    t = tau.tau
    tau_inv = Modulus(-1 / t)
    tau_shift = Modulus(t + 1)
    for _ in range(n_samples):
        z1, z2 = sample_point(rng, tau), sample_point(rng, tau)
        try:
            base = f_series(z1, z2, tau, budget)
            lhs = f_series(z1 / t, z2 / t, tau_inv, budget)
            rhs = zeta * t * e_of(z1 * z2 / t) * base
            shifted = f_series(z1, z2, tau_shift, budget)
        except EvalError:
            rep.skipped += 1
            continue
        rep.record((z1, z2), lhs, rhs, residual_of(lhs, rhs))
        rep.record((z1, z2), shifted, base, residual_of(shifted, base))
    return rep.finalize()


def verify_t_quasi(
    tau: Modulus,
    grid: int = 10,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """Quasi-periodicity of f (symmetry and the two lattice shifts), of g
    (both shifts), and the first-order difference equation of kappa."""
    rng = random.Random(seed)
    rep = IdentityReport("t-quasi", tolerance, 0.0, False, seed=seed, budget=budget)
    t = tau.tau
    for _ in range(grid):
        for _ in range(grid):
            z1, z2 = sample_point(rng, tau), sample_point(rng, tau)
            try:
                base_f = f_series(z1, z2, tau, budget)
                checks = [
                    (f_series(z2, z1, tau, budget), base_f),
                    (f_series(z1 + 1 + t, z2, tau, budget), e_of(-z2) * base_f),
                    (f_series(z1, z2 - 1 + t, tau, budget), e_of(-z1) * base_f),
                ]
                base_g = g_series(z1, z2, tau, budget)
                checks += [
                    (g_series(z1 + 1 + t, z2, tau, budget), e_of(-z2) * base_g),
                    (
                        g_series(z1, z2 + 1 + t, tau, budget),
                        e_of(-t / 2 - (z1 + z2)) * base_g,
                    ),
                ]
                y = sample_point(rng, tau)
                checks.append(
                    (
                        kappa(y, z1 + 1 + t, tau, budget),
                        e_of(y) * kappa(y, z1, tau, budget) + theta(z1, tau, budget),
                    )
                )
            except EvalError:
                rep.skipped += 1
                continue
            for lhs, rhs in checks:
                rep.record((z1, z2), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def verify_hqp(
    tau: Modulus,
    grid: int = 10,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """Quasi-periodicity of the rank-2 series h under both lattice shifts."""
    rng = random.Random(seed)
    rep = IdentityReport("hqp", tolerance, 0.0, False, seed=seed, budget=budget)
    t = tau.tau
    for _ in range(grid):
        for _ in range(grid):
            z1, z2 = sample_point(rng, tau), sample_point(rng, tau)
            try:
                base = h_series(z1, z2, tau, budget)
                checks = [
                    (
                        h_series(z1 + 1 + t, z2, tau, budget),
                        e_of(-t - 2 * z1 - 2 * z2) * base,
                    ),
                    (
                        h_series(z1, z2 + 1 + t, tau, budget),
                        e_of(-t / 2 - 2 * z1 - z2) * base,
                    ),
                ]
            except EvalError:
                rep.skipped += 1
                continue
            for lhs, rhs in checks:
                rep.record((z1, z2), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def verify_g_bridge(
    tau: Modulus,
    n_samples: int = 30,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-9,
) -> IdentityReport:
    """g0 - g equals the piecewise correction p(z1) theta(z1+z2) across the
    alpha(z1) windows (-1,0), (0,1), (1,2)."""
    rng = random.Random(seed)
    rep = IdentityReport("g-bridge", tolerance, 0.0, False, seed=seed, budget=budget)
    t = tau.tau
    per = max(1, n_samples // 3)
    for offset in (-1, 0, 1):
        for _ in range(per):
            a1 = offset + _sample_alpha(rng)
            z1 = a1 * t + rng.random()
            z2 = sample_point(rng, tau)
            try:
                lhs = g0(z1, z2, tau, budget) - g_series(z1, z2, tau, budget)
                rhs = g0_minus_g(z1, z2, tau, budget)
            except EvalError:
                rep.skipped += 1
                continue
            rep.record((z1, z2), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def verify_fg_identity(
    tau: Modulus,
    n_samples: int = 50,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """theta(z1) g(z3, z1+z2) + theta(z1+z2+z3) g(-z3, z1+z3)
    = theta(z2) f(z1+z2, z1+z3)."""
    rng = random.Random(seed)
    rep = IdentityReport("fg", tolerance, 0.0, False, seed=seed, budget=budget)
    for _ in range(n_samples):
        z1, z2, z3 = (sample_point(rng, tau) for _ in range(3))
        try:
            lhs = theta(z1, tau, budget) * g_series(z3, z1 + z2, tau, budget) + theta(
                z1 + z2 + z3, tau, budget
            ) * g_series(-z3, z1 + z3, tau, budget)
            rhs = theta(z2, tau, budget) * f_series(z1 + z2, z1 + z3, tau, budget)
        except EvalError:
            rep.skipped += 1
            continue
        rep.record((z1, z2, z3), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def verify_identity1(
    tau: Modulus,
    n_samples: int = 50,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """e(y) theta(y+z) kappa(y, z-x) - e(-x) theta(x-z) kappa(-x, y+z)
    = theta(z) f(x, y)."""
    rng = random.Random(seed)
    rep = IdentityReport("identity1", tolerance, 0.0, False, seed=seed, budget=budget)
    for _ in range(n_samples):
        x, y, z = (sample_point(rng, tau) for _ in range(3))
        try:
            lhs = e_of(y) * theta(y + z, tau, budget) * kappa(y, z - x, tau, budget) - (
                e_of(-x) * theta(x - z, tau, budget) * kappa(-x, y + z, tau, budget)
            )
            rhs = theta(z, tau, budget) * f_series(x, y, tau, budget)
        except EvalError:
            rep.skipped += 1
            continue
        rep.record((x, y, z), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


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
    rng = random.Random(seed)
    rep = IdentityReport("identity2", tolerance, 0.0, False, seed=seed, budget=budget)
    t = tau.tau
    tau2 = tau.scaled(2)
    for _ in range(n_samples):
        x, y, z = (sample_point(rng, tau) for _ in range(3))
        try:
            lhs = theta(2 * x + y, tau, budget) * h0_series(x, z, tau, budget) - theta(
                2 * x + z, tau, budget
            ) * h0_series(x, y, tau, budget)
            w = -2 * x - y - z
            rhs = theta(2 * (x + z), tau2, budget) * kappa(
                w, 2 * x + y + t, tau, budget
            ) - theta(2 * (x + y), tau2, budget) * kappa(w, 2 * x + z + t, tau, budget)
        except EvalError:
            rep.skipped += 1
            continue
        rep.record((x, y, z), lhs, rhs, residual_of(lhs, rhs))
    return rep.finalize()


def verify_psi(
    tau: Modulus,
    n_samples: int = 25,
    seed: int = 0,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """The closed form of psi(x) = theta(x - xi) h0(x, -x) and its
    first-order difference equation."""
    rng = random.Random(seed)
    rep = IdentityReport("psi", tolerance, 0.0, False, seed=seed, budget=budget)
    t = tau.tau
    xi = tau.xi
    tau2 = tau.scaled(2)
    for _ in range(n_samples):
        x = sample_point(rng, tau)
        try:
            direct = theta(x - xi, tau, budget) * h0_series(x, -x, tau, budget)
            closed = psi_closed(x, tau, budget)
            lhs_de = psi_closed(x + t, tau, budget)
            rhs_de = (
                e_of(xi) * closed
                + e_of(t / 2) * theta(x, tau, budget) * theta(x - xi, tau, budget)
                + theta(0, tau2, budget) * theta(x + xi, tau, budget)
            )
        except EvalError:
            rep.skipped += 1
            continue
        rep.record((x,), direct, closed, residual_of(direct, closed))
        rep.record((x,), lhs_de, rhs_de, residual_of(lhs_de, rhs_de))
    return rep.finalize()


def verify_eta_const(
    tau: Modulus,
    budget: SummationBudget = DEFAULT_BUDGET,
    tolerance: float = 1e-12,
    n_factors: int = 50,
) -> IdentityReport:
    """theta'((tau+1)/2)/(2 pi i) equals the cubed q-Pochhammer product."""
    rep = IdentityReport("eta-const", tolerance, 0.0, False, budget=budget)
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
    rep = IdentityReport("m2-assoc", tolerance, 0.0, False, seed=seed, budget=budget)
    for _ in range(n_samples):
        ys = [round(rng.uniform(-0.45, 0.45), 6) for _ in slopes]
        betas = [rng.random() for _ in slopes]
        lines = [LineOnTorus(s, y, b) for s, y, b in zip(slopes, ys, betas)]
        try:
            left = _assoc_side(lines, tau, budget, first=True)
            right = _assoc_side(lines, tau, budget, first=False)
        except EvalError:
            rep.skipped += 1
            continue
        keys = set(left) | set(right)
        res = max(abs(left.get(k, 0.0) - right.get(k, 0.0)) for k in keys)
        rep.record(tuple(ys), sum(left.values()), sum(right.values()), res)
    return rep.finalize()


def _relabel(line: LineOnTorus, a: int, b: int) -> LineOnTorus:
    """The same torus line re-parameterized so that e_{a,b} becomes e_{0,0};
    valid for integer slopes."""
    return LineOnTorus(line.slope, line.shift_y - float(a * line.slope + b),
                       line.monodromy_beta)


def _assoc_side(lines, tau, budget, first: bool) -> dict:
    l1, l2, l3, l4 = lines
    out: dict = {}
    if first:
        inner = m2_generic([l1, l2, l3], tau, budget)
        for (a, b), val in inner.coefficients.items():
            outer = m2_generic([_relabel(l1, a, b), l3, l4], tau, budget)
            pts = composition_by_point(outer, _relabel(l1, a, b), l4)
            for key, v in pts.items():
                out[key] = out.get(key, 0.0) + inner.prefactor * val * v
    else:
        inner = m2_generic([l2, l3, l4], tau, budget)
        for (a, b), val in inner.coefficients.items():
            outer = m2_generic([l1, _relabel(l2, a, b), l4], tau, budget)
            pts = composition_by_point(outer, l1, l4)
            for key, v in pts.items():
                out[key] = out.get(key, 0.0) + inner.prefactor * val * v
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
    epsilon signs), for the implemented slope-order class l3<l1<l4<l2<l5."""
    slopes = [Fraction(s) for s in slopes]
    l1, l2, l3, l4, l5 = slopes
    if not (l3 < l1 < l4 < l2 < l5):
        raise DomainError(
            "only the slope order l3 < l1 < l4 < l2 < l5 is certified"
        )
    tables = five_term_tables(slopes)
    z = [tau.tau * yi for yi in y]

    def zsub(idx):
        return [z[i - 1] for i in idx]

    def ssub(idx):
        return [slopes[i - 1] for i in idx]

    q = [ideal_of(s) for s in slopes]
    terms = []

    # term 1: quadruple (2,3,4,5), theta on (1,2,5), split of the slot-2 index
    cfg = build_quad_config(ssub((2, 3, 4, 5)), tables["C2345"])
    gens1 = [Fraction(q[1]), (l5 - l1) / (l5 - l2) * q[0]]
    total = 0.0j
    for rep in cfg.coset_reps:
        n2 = Fraction(rep[0])
        try:
            parts = _decompose(n2, gens1)
        except DomainError:
            continue
        total += theta_slope_coefficient(
            ssub((1, 2, 5)), parts[1], zsub((1, 2, 5)), tau, budget
        ) * F_series(cfg, rep, zsub((2, 3, 4, 5)), tau, budget)
    terms.append(total)

    # term 2: quadruple (1,2,3,4), theta on (1,4,5), split of the slot-4 index
    cfg = build_quad_config(ssub((1, 2, 3, 4)), tables["C1234"])
    gens2 = [Fraction(q[3]), (l5 - l1) / (l4 - l1) * q[4]]
    total = 0.0j
    for rep in cfg.coset_reps:
        n4 = Fraction(rep[3])
        try:
            parts = _decompose(n4, gens2)
        except DomainError:
            continue
        total += theta_slope_coefficient(
            ssub((1, 4, 5)), parts[1], zsub((1, 4, 5)), tau, budget
        ) * F_series(cfg, rep, zsub((1, 2, 3, 4)), tau, budget)
    terms.append(total)

    # term 3: k over I2 / I123, F on (1,3,4,5) shifted along the u-vectors
    cfg = build_quad_config(ssub((1, 3, 4, 5)), tables["C1345"])
    g123 = triple_ideal(l1, l2, l3)
    gens3 = [
        (l1 - l3) / (l1 - l2) * q[2],
        (l1 - l4) / (l1 - l2) * q[3],
        (l1 - l5) / (l1 - l2) * q[4],
    ]
    total = 0.0j
    for k in range(0, g123, q[1]):
        parts = _decompose(Fraction(k), gens3)
        shift = tuple(
            parts[1] * u1 + parts[2] * u2
            for u1, u2 in zip(tables["u1"], tables["u2"])
        )
        total += theta_slope_coefficient(
            ssub((1, 2, 3)), Fraction(k), zsub((1, 2, 3)), tau, budget
        ) * F_series(cfg, shift, zsub((1, 3, 4, 5)), tau, budget)
    terms.append(total)

    # term 4: k over I4 / I345, F on (1,2,3,5) shifted along the v-vectors
    cfg = build_quad_config(ssub((1, 2, 3, 5)), tables["C1235"])
    g345 = triple_ideal(l3, l4, l5)
    gens4 = [
        (l5 - l1) / (l5 - l4) * q[0],
        (l5 - l2) / (l5 - l4) * q[1],
        (l5 - l3) / (l5 - l4) * q[2],
    ]
    total = 0.0j
    for k in range(0, g345, q[3]):
        parts = _decompose(Fraction(k), gens4)
        shift = tuple(
            parts[0] * v1 + parts[1] * v2
            for v1, v2 in zip(tables["v1"], tables["v2"])
        )
        total += theta_slope_coefficient(
            ssub((3, 4, 5)), Fraction(k), zsub((3, 4, 5)), tau, budget
        ) * F_series(cfg, shift, zsub((1, 2, 3, 5)), tau, budget)
    terms.append(total)

    # term 5: k over I3 / I234, F on (1,2,4,5) shifted along the w-vectors
    cfg = build_quad_config(ssub((1, 2, 4, 5)), tables["C1245"])
    g234 = triple_ideal(l2, l3, l4)
    gens5 = [
        (l5 - l1) / (l5 - l3) * q[0],
        (l5 - l2) / (l5 - l3) * q[1],
        (l5 - l4) / (l5 - l3) * q[3],
    ]
    total = 0.0j
    for k in range(0, g234, q[2]):
        parts = _decompose(Fraction(k), gens5)
        shift = tuple(
            parts[0] * w1 + parts[1] * w2 + parts[2] * w3
            for w1, w2, w3 in zip(tables["w1"], tables["w2"], tables["w3"])
        )
        total += theta_slope_coefficient(
            ssub((2, 3, 4)), Fraction(k), zsub((2, 3, 4)), tau, budget
        ) * F_series(cfg, shift, zsub((1, 2, 4, 5)), tau, budget)
    terms.append(total)
    return terms


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
    rep = IdentityReport("five-term", tolerance, 0.0, False, seed=seed, budget=budget)
    fixed = y
    for _ in range(1 if fixed is not None else n_samples):
        y = list(fixed) if fixed is not None else [
            round(rng.uniform(-0.35, 0.35), 6) for _ in range(5)
        ]
        try:
            terms = five_term_values(slopes, y, tau, budget)
        except EvalError:
            rep.skipped += 1
            continue
        total = sum(e * t for e, t in zip(epsilons, terms))
        scale = max(abs(t) for t in terms)
        if scale == 0:
            rep.skipped += 1
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
    rep = IdentityReport("sign-det", tolerance, 0.0, False, seed=seed, budget=budget)
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

    base = resid(EPSILONS)
    rep.record(("declared",), base, 0.0, base)
    ok = base < tolerance
    flipped_global = tuple(-e for e in EPSILONS)
    gresid = resid(flipped_global)
    rep.record(("global-flip",), gresid, 0.0, gresid)
    ok = ok and gresid < tolerance
    for i in range(5):
        eps = list(EPSILONS)
        eps[i] = -eps[i]
        r = resid(eps)
        rep.record((f"flip-{i + 1}",), r, 0.0, 0.0)
        ok = ok and r > control_floor
    rep.passed = ok
    return rep


SUITES = {
    "kronecker": lambda tau, samples, seed, budget: verify_kronecker_id(
        tau, samples, seed, budget
    ),
    "functional": lambda tau, samples, seed, budget: verify_functional_equation(
        tau, samples, seed, budget
    ),
    "t-quasi": lambda tau, samples, seed, budget: verify_t_quasi(
        tau, max(2, int(math.isqrt(samples))), seed, budget
    ),
    "hqp": lambda tau, samples, seed, budget: verify_hqp(
        tau, max(2, int(math.isqrt(samples))), seed, budget
    ),
    "g-bridge": lambda tau, samples, seed, budget: verify_g_bridge(
        tau, samples, seed, budget
    ),
    "fg": lambda tau, samples, seed, budget: verify_fg_identity(
        tau, samples, seed, budget
    ),
    "identity1": lambda tau, samples, seed, budget: verify_identity1(
        tau, samples, seed, budget
    ),
    "identity2": lambda tau, samples, seed, budget: verify_identity2(
        tau, samples, seed, budget
    ),
    "psi": lambda tau, samples, seed, budget: verify_psi(tau, samples, seed, budget),
    "eta-const": lambda tau, samples, seed, budget: verify_eta_const(tau, budget),
    "m2-assoc": lambda tau, samples, seed, budget: verify_m2_associativity(
        tau, min(samples, 10), seed, budget
    ),
    "five-term": lambda tau, samples, seed, budget: verify_five_term(
        (0, 2, -1, 1, 3), tau, min(samples, 3), seed, budget
    ),
    # the battery needs a purely imaginary modulus; keep Im(tau), drop Re(tau)
    "sign-det": lambda tau, samples, seed, budget: verify_sign_determination(
        (0, 2, -1, 1, 3), Modulus(complex(0.0, tau.tau.imag)), seed, budget
    ),
}
