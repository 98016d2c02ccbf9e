"""End-to-end acceptance battery.

Each test covers one acceptance criterion, enforces its tolerance and runtime
budget, and prints a single PASS/FAIL line (visible with pytest -s or -v -rA).
"""

import itertools
import time
from fractions import Fraction

import pytest

from klab.core import DEFAULT_BUDGET, Modulus
from klab.fukaya import m3_generic, polygon_oracle
from klab.lattice import LineOnTorus, build_quad_config
from klab.verify import (
    verify_eta_const,
    verify_fg_identity,
    verify_five_term,
    verify_functional_equation,
    verify_g_bridge,
    verify_hqp,
    verify_identity1,
    verify_identity2,
    verify_kronecker_id,
    verify_m2_associativity,
    verify_psi,
    verify_sign_determination,
    verify_t_quasi,
)

from test_fukaya import composition_by_point, max_pointwise_diff
from lattice_reference import contains, coset_vectors
from test_lattice import SLOPE_POOL, brute_force_lattice_data

F = Fraction
TAU_I = Modulus(1j)
TAU_G = Modulus(0.3 + 0.9j)
TAU_H = Modulus(-0.5 + 1.2j)


def emit(num, label, ok, detail):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_eta_constant():
    start = time.time()
    worst = 0.0
    for tau in (TAU_I, TAU_G):
        rep = verify_eta_const(tau)
        worst = max(worst, rep.max_residual)
    dt = time.time() - start
    ok = worst < 1e-12 and dt < 0.1
    emit(1, "eta product constant", ok, f"max_residual={worst:.3e}, {dt:.3f}s")


def test_criterion_02_kronecker_closed_form():
    start = time.time()
    worst = 0.0
    for tau in (TAU_I, TAU_G, TAU_H):
        rep = verify_kronecker_id(tau, 100, 0, DEFAULT_BUDGET)
        worst = max(worst, rep.max_residual)
    dt = time.time() - start
    ok = worst < 1e-9 and dt < 5.0
    emit(2, "series vs closed form, 100 samples x 3 moduli", ok,
         f"max_residual={worst:.3e}, {dt:.2f}s")


def test_criterion_03_shift_identities_grid():
    start = time.time()
    worst = 0.0
    for tau in (TAU_I, TAU_G):
        worst = max(worst, verify_t_quasi(tau, 10, 0, DEFAULT_BUDGET).max_residual)
        worst = max(worst, verify_hqp(tau, 10, 0, DEFAULT_BUDGET).max_residual)
    dt = time.time() - start
    ok = worst < 1e-9 and dt < 10.0
    emit(3, "quasi-periodicity / difference equations on 10x10 grids", ok,
         f"max_residual={worst:.3e}, {dt:.2f}s")


def test_criterion_04_functional_equation():
    good = verify_functional_equation(TAU_I, 20, 0, DEFAULT_BUDGET)
    bad = verify_functional_equation(TAU_I, 20, 0, DEFAULT_BUDGET, zeta=-1)
    ok = good.max_residual < 1e-8 and bad.max_residual > 1e-2
    emit(4, "modular functional equation with root-sign control", ok,
         f"good={good.max_residual:.3e}, control={bad.max_residual:.3e}")


def test_criterion_05_bridge_windows():
    rep = verify_g_bridge(TAU_I, 30, 0, DEFAULT_BUDGET)
    ok = rep.passed and rep.max_residual < 1e-9
    emit(5, "analytic bridge across three alpha-windows", ok,
         f"max_residual={rep.max_residual:.3e}")


def test_criterion_06_theta_coefficient_identities():
    worst = 0.0
    for fn in (verify_fg_identity, verify_identity1, verify_identity2,
               verify_psi):
        worst = max(worst, fn(TAU_I, 50, 0, DEFAULT_BUDGET).max_residual)
    ok = worst < 1e-8
    emit(6, "three-term / psi identities, 50 samples each", ok,
         f"max_residual={worst:.3e}")


def test_criterion_07_lattice_brute_force():
    start = time.time()
    checked = 0
    for slopes in itertools.combinations(SLOPE_POOL, 4):
        cfg = build_quad_config(slopes)
        _, in_plus, index = brute_force_lattice_data(slopes)
        assert cfg.index == index
        assert len(cfg.coset_reps) == index
        for rep in coset_vectors(slopes, cfg):
            assert contains(slopes, rep)
            assert contains(slopes, rep, plus=True) == in_plus(rep[1], rep[2])
        checked += 1
    dt = time.time() - start
    ok = checked == 35 and dt < 5.0
    emit(7, "exact lattice data vs brute force, denominators <= 3", ok,
         f"{checked} slope quadruples, {dt:.2f}s")


def test_criterion_08_m3_vs_polygon_oracle():
    start = time.time()
    cases = [
        [(F(0), 0.11, 0.0), (F(2), 0.23, 0.0), (F(-1), -0.31, 0.0),
         (F(1), 0.07, 0.0)],
        [(F(1), 0.05, 0.0), (F(3), -0.21, 0.0), (F(0), 0.33, 0.0),
         (F(2), 0.12, 0.0)],
        [(F(0), 0.11, 0.3), (F(2), 0.23, 0.8), (F(3), -0.31, 0.1),
         (F(1), 0.07, 0.5)],
    ]
    worst = 0.0
    for case in cases:
        lines = [LineOnTorus(*c) for c in case]
        sp = composition_by_point(m3_generic(lines, TAU_I), lines[0], lines[3])
        op = composition_by_point(
            polygon_oracle(lines, TAU_I, radius=5), lines[0], lines[3]
        )
        assert len(sp) == len(op)
        worst = max(worst, max_pointwise_diff(sp, op))
    dt = time.time() - start
    ok = worst < 1e-9 and dt < 30.0
    emit(8, "triple composition vs polygon enumeration, 3 quadruples", ok,
         f"max_discrepancy={worst:.3e}, {dt:.2f}s")


def test_criterion_09_m2_associativity():
    rep = verify_m2_associativity(TAU_I, 10, 0, DEFAULT_BUDGET)
    ok = rep.passed and rep.max_residual < 1e-9
    emit(9, "binary composition associativity, 10 seeded offsets", ok,
         f"max_residual={rep.max_residual:.3e}")


def test_criterion_10_five_term_identity():
    start = time.time()
    rep = verify_five_term(n_samples=3, seed=0)
    battery = verify_sign_determination(tau=TAU_I, seed=0)
    flips = [s["lhs"] for s in battery.samples if s["point"][0].startswith("flip-")]
    dt = time.time() - start
    ok = (
        rep.passed
        and rep.max_residual < 1e-7
        and battery.passed
        and min(flips) > 1e-2
        and dt < 60.0
    )
    emit(10, "five-term identity with sign-flip control battery", ok,
         f"max_residual={rep.max_residual:.3e}, min_flip={min(flips):.3e}, "
         f"{dt:.2f}s")
