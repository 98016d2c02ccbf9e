"""The three workloads: seeded operation lists with independent checks.

An operation is a zero-argument ``call`` that the runner times, plus a
``check`` that turns the call's outcome into (ok, digits) outside the timed
region.  ``digits`` is -log10 of the relative error against the operation's
reference, capped at ``MAX_DIGITS``.  Everything that depends on ``--seed``
is drawn from cells of a fixed grid with small jitter, so every seed runs
the same mix of costs; the operations kept because they fail today (F1, F2)
do not depend on the seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import references as ref

MAX_DIGITS = 16.0
#: An evaluation passes when |value - reference| <= EVAL_REL_TOL * |reference|
#: + EVAL_ABS_TOL; the absolute part allows for the budget's absolute stop
#: test (target_tol 1e-12 per shell).
EVAL_REL_TOL = 1e-9
EVAL_ABS_TOL = 1e-10
#: The sign battery's declared floor for a flipped sign.
SIGN_CONTROL_FLOOR = 1e-2


@dataclass
class Op:
    name: str
    call: Callable
    check: Callable  # (result, error) -> (ok, digits)
    edge: bool = False
    tags: dict = field(default_factory=dict)
    #: "F1" or "F2" for an operation kept because it fails today
    known_fault: str = ""


def digits_of(value, reference) -> float:
    value, reference = complex(value), complex(reference)
    err = abs(value - reference)
    if err == 0:
        return MAX_DIGITS
    scale = abs(reference) if reference != 0 else 1.0
    return max(0.0, min(MAX_DIGITS, -math.log10(err / scale)))


def close(value, reference) -> bool:
    value, reference = complex(value), complex(reference)
    return abs(value - reference) <= EVAL_REL_TOL * abs(reference) + EVAL_ABS_TOL


# --- eval-sweep ------------------------------------------------------------

#: (name, klab attribute, argument roles, reference)
EVALUATORS = (
    ("theta", "theta", ("z1",), ref.theta),
    ("theta_prime", "theta_prime", ("z1",), ref.theta_prime),
    ("kappa", "kappa", ("z2", "z1"), ref.kappa),
    ("g0", "g0", ("z1", "z2"), ref.g0),
    ("g0_minus_g", "g0_minus_g", ("z1", "z2"), ref.g0_minus_g),
    ("f_series", "f_series", ("z1", "z2"), ref.f_closed),
    ("f_closed", "f_closed", ("z1", "z2"), ref.f_closed),
    ("g_series", "g_series", ("z1", "z2"), ref.g_series),
    ("h_series", "h_series", ("z1", "z2"), ref.h_series),
    ("h0_series", "h0_series", ("z1", "z2"), ref.h0_series),
    ("psi_closed", "psi_closed", ("z1",), ref.psi),
)

SWEEP_IM_TAU = (0.5, 0.7, 1.0, 1.4, 2.0)
SWEEP_MARGINS = (0.5, 0.35, 0.25, 0.15)
#: (Im tau, alpha-margin) cells below the 0.1 margin or 0.5 Im tau edge,
#: each as close to the F1 region as jitter allows without entering it.
SWEEP_EDGE_CELLS = (
    (0.25, 0.3), (0.35, 0.15), (0.5, 0.08), (0.7, 0.06), (1.0, 0.05),
    (1.4, 0.04), (2.0, 0.03),
)
#: F1: f_series raises ConvergenceBudgetExceeded at these points (fixed,
#: independent of the seed): alpha-margin 0.02 with Im tau <= 1.
F1_POINTS = (
    (complex(0.1, 0.5), 0.02, 0.45, 0.3, 0.6),
    (complex(-0.2, 0.7), 1.02, 0.55, 0.7, 0.2),
    (complex(0.3, 1.0), -0.02, 0.4, 0.1, 0.9),
)
WINDOWS = (-1, 0, 1)


def _sample_point(rng, im_tau, margin, window, high_side):
    """(tau, z1, z2) with alpha(z1) at ``margin`` from an end of ``window``."""
    im = im_tau * rng.uniform(0.97, 1.03)
    m = margin * rng.uniform(0.9, 1.1)
    tau = complex(rng.uniform(-0.5, 0.5), im)
    a1 = window + 1 - m if high_side else window + m
    a2 = rng.uniform(0.35, 0.65)
    return tau, a1 * tau + rng.random(), a2 * tau + rng.random()


def sweep_points(rng) -> list:
    """[(tau, z1, z2, edge)] over the grid of eval-sweep cells."""
    cells = [(im, m, False) for im in SWEEP_IM_TAU for m in SWEEP_MARGINS]
    cells += [(im, m, True) for im, m in SWEEP_EDGE_CELLS]
    points = []
    for i, (im, margin, edge) in enumerate(cells):
        for window in WINDOWS:
            tau, z1, z2 = _sample_point(rng, im, margin, window, (i + window) % 2 == 1)
            points.append((tau, z1, z2, edge))
    return points


def _eval_sweep_op(klab, tau, z1, z2, edge, label) -> Op:
    modulus = klab.Modulus(tau)
    args = {"z1": z1, "z2": z2}
    # evaluators are looked up at call time, so that a traced run sees them
    calls = [(name, attr, tuple(args[r] for r in roles)) for name, attr, roles, _ in EVALUATORS]
    refs = {name: complex(reference(*(args[r] for r in roles), tau))
            for name, _, roles, reference in EVALUATORS}

    def call():
        out = {}
        for name, attr, fargs in calls:
            try:
                out[name] = getattr(klab, attr)(*fargs, modulus)
            except klab.EvalError as ex:
                out[name] = ex
        return out

    def check(result, error):
        if error is not None:
            return False, 0.0
        failed = [v for v in result.values() if isinstance(v, Exception)]
        if failed:
            return False, 0.0
        ok = all(close(result[n], refs[n]) for n in refs)
        return ok, min(digits_of(result[n], refs[n]) for n in refs)

    return Op(label, call, check, edge=edge)


def eval_sweep(klab, seed: int) -> list:
    rng = random.Random(f"eval-sweep:{seed}")
    ops = [_eval_sweep_op(klab, tau, z1, z2, edge, f"point{i}")
           for i, (tau, z1, z2, edge) in enumerate(sweep_points(rng))]
    for j, (tau, a1, a2, b1, b2) in enumerate(F1_POINTS):
        op = _eval_sweep_op(klab, tau, a1 * tau + b1, a2 * tau + b2, True, f"F1-{j}")
        op.known_fault = "F1"
        ops.append(op)
    return ops


# --- compose ---------------------------------------------------------------

F = Fraction
#: Slope quadruples: 1 to 5 cosets, integer and fractional slopes, and two
#: whose degree condition fails (zero composition).
COMPOSE_QUADRUPLES = (
    (0, 2, -1, 1), (F(1, 2), 2, -1, 1), (0, F(5, 2), F(-2, 3), 1),
    (0, 1, -1, 2), (0, F(3, 2), F(1, 2), 2), (1, F(3, 2), F(2, 3), F(-1, 2)),
    (F(-1, 2), 1, F(-3, 2), F(1, 2)), (F(1, 2), 2, F(1, 3), F(3, 2)),
    (-1, F(-1, 2), 3, F(2, 3)),
    (0, 1, 2, 3), (-1, F(1, 2), 2, F(5, 2)),
)
COMPOSE_IM_TAU = (0.3, 0.5, 0.8, 1.3, 2.0)
#: F2: m3_generic and the ring-checked oracle disagree here (fixed input).
F2_LINES = ((-1, -0.1748, 0.6986), (F(1, 2), -0.2633, 0.0327),
            (0, 0.0146, 0.3278), (F(3, 2), 0.377, 0.1016))
F2_TAU = complex(0.3, 0.9)


def _lines(klab, rng, slopes):
    return [klab.LineOnTorus(F(s), rng.uniform(-0.4, 0.4), rng.random()) for s in slopes]


def m3_reference(klab, lines, tau):
    """Expected output points of m3: none when the degree condition fails,
    else the ring-checked polygon oracle's."""
    if not ref.degree_condition([ln.slope for ln in lines]):
        return []
    points, _ = ref.oracle_points(klab.polygon_oracle, lines, klab.Modulus(tau))
    return points


def m3_check(points, expected):
    """(ok, digits) of output points against the expected ones."""
    scale = max([1.0] + [abs(v) for _, v in expected])
    gap = ref.point_gap(points, expected) / scale
    ok = gap <= ref.M3_TOL
    return ok, MAX_DIGITS if gap == 0 else max(0.0, min(MAX_DIGITS, -math.log10(gap)))


def _compose_op(klab, lines, tau, label) -> Op:
    modulus = klab.Modulus(tau)
    expected = m3_reference(klab, lines, tau)

    def call():
        return klab.m3_generic(lines, modulus)

    def check(result, error):
        if error is not None:
            return False, 0.0
        return m3_check(ref.output_points(result, lines[0], lines[3]), expected)

    return Op(label, call, check)


def compose(klab, seed: int) -> list:
    rng = random.Random(f"compose:{seed}")
    ops = []
    for slopes in COMPOSE_QUADRUPLES:
        for im in COMPOSE_IM_TAU:
            tau = complex(rng.uniform(-0.5, 0.5), im * rng.uniform(0.97, 1.03))
            ops.append(_compose_op(klab, _lines(klab, rng, slopes), tau, f"m3{len(ops)}"))
    f2 = [klab.LineOnTorus(F(s), y, b) for s, y, b in F2_LINES]
    op = _compose_op(klab, f2, F2_TAU, "F2")
    op.known_fault = "F2"
    ops.append(op)
    return ops


# --- cli -------------------------------------------------------------------

#: klab eval function -> (flags, reference, argument roles)
CLI_EVAL = (
    ("theta", ("z",), ref.theta, ("z1",)),
    ("theta_prime", ("z",), ref.theta_prime, ("z1",)),
    ("f", ("z1", "z2"), ref.f_closed, ("z1", "z2")),
    ("kappa", ("y", "x"), ref.kappa, ("z2", "z1")),
    ("g", ("z1", "z2"), ref.g_series, ("z1", "z2")),
    ("g0", ("z1", "z2"), ref.g0, ("z1", "z2")),
    ("h", ("z1", "z2"), ref.h_series, ("z1", "z2")),
    ("h0", ("z1", "z2"), ref.h0_series, ("z1", "z2")),
    ("psi", ("x",), ref.psi, ("z1",)),
)
CLI_EVAL_CELLS = ((0.5, 0.45), (0.8, 0.35), (1.2, 0.3), (1.6, 0.4), (2.0, 0.25))
CLI_M3_PLAIN = (0, 3, -2, 1)
CLI_M3_ORACLE = (F(1, 3), -1, 2, 3)
CLI_M3_IM_TAU = (0.6, 1.5)
CLI_VERIFY_TAUS = ("0,1", "0.3,0.9")
#: Suites that skip samples today (F1), at both moduli.
F1_SUITES = ("functional", "fg")
SUITES = ("kronecker", "functional", "t-quasi", "hqp", "g-bridge", "fg",
          "identity1", "identity2", "psi", "eta-const", "m2-assoc",
          "five-term", "sign-det")


def _cplx(z) -> str:
    return f"{complex(z).real!r},{complex(z).imag!r}"


def run_cli(klab, argv):
    """klab.cli.main(argv) in process: (exit code, parsed JSON or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = klab.cli.main(argv)
        except SystemExit as ex:  # argparse rejects the command line
            code = ex.code
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _cli_eval_op(klab, fname, flags, reference, roles, tau, z1, z2, label) -> Op:
    args = {"z1": z1, "z2": z2}
    # "--flag=value", since argparse reads "-0.3,0.5" as an option
    argv = ["eval", fname, f"--tau={_cplx(tau)}"]
    argv += [f"--{flag}={_cplx(args[role])}" for flag, role in zip(flags, roles)]
    expected = complex(reference(*(args[r] for r in roles), tau))

    def check(result, error):
        if error is not None or result[0] != 0:
            return False, 0.0
        value = complex(result[1]["value_re"], result[1]["value_im"])
        return close(value, expected), digits_of(value, expected)

    return Op(label, lambda: run_cli(klab, argv), check,
              tags={"command": "eval", "function": fname})


def _line_arg(line) -> str:
    return f"{line.slope}:{line.shift_y!r}:{line.monodromy_beta!r}"


class _ParsedComposition:
    """The coefficients of a ``klab m3`` JSON payload."""

    def __init__(self, payload):
        self.prefactor = complex(payload["prefactor_re"], payload["prefactor_im"])
        self.sign = payload["sign"]
        self.coefficients = {(c["a"], c["b"]): complex(c["value_re"], c["value_im"])
                             for c in payload["coefficients"]}


def _cli_m3_op(klab, lines, tau, oracle, label) -> Op:
    # "--" keeps argparse from reading a negative slope as an option
    argv = ["m3", f"--tau={_cplx(tau)}"] + (["--oracle"] if oracle else [])
    argv += ["--"] + [_line_arg(ln) for ln in lines]
    expected = m3_reference(klab, lines, tau)

    def check(result, error):
        if error is not None or result[0] != 0:
            return False, 0.0
        if result[1].get("zero"):
            points = []
        else:
            points = ref.output_points(_ParsedComposition(result[1]), lines[0], lines[3])
        return m3_check(points, expected)

    return Op(label, lambda: run_cli(klab, argv), check,
              tags={"command": "m3-oracle" if oracle else "m3"})


def residual_of(lhs, rhs) -> float:
    """The suites' declared residual: absolute, relative when |rhs| > 1."""
    d = abs(lhs - rhs)
    return d / abs(rhs) if abs(rhs) > 1 else d


def _as_number(v):
    return complex(v[0], v[1]) if isinstance(v, list) else v


def verify_check(result, error):
    """Exit code 0, no skipped sample, and every residual recomputed from
    lhs and rhs below the suite's tolerance."""
    if error is not None or result[0] != 0 or result[1] is None:
        return False, 0.0
    payload = result[1]
    if payload["skipped"] or not payload["samples"]:
        return False, 0.0
    tol = payload["tolerance"]
    worst = 0.0
    for s in payload["samples"]:
        lhs, rhs = _as_number(s["lhs"]), _as_number(s["rhs"])
        label = s["point"][0] if payload["identity_id"] == "sign-det" else None
        if isinstance(label, str) and label.startswith("flip-"):
            # a single flipped sign must break the identity by a wide margin
            if not lhs > SIGN_CONTROL_FLOOR:
                return False, 0.0
            continue
        r = residual_of(lhs, rhs)
        if not r < tol:
            return False, 0.0
        worst = max(worst, r)
    return True, MAX_DIGITS if worst == 0 else min(MAX_DIGITS, -math.log10(worst))


def cli(klab, seed: int) -> list:
    rng = random.Random(f"cli:{seed}")
    ops = []
    for k, (im, margin) in enumerate(CLI_EVAL_CELLS):
        for j, (fname, flags, reference, roles) in enumerate(CLI_EVAL):
            window = WINDOWS[(j + k) % 3]
            tau, z1, z2 = _sample_point(rng, im, margin, window, j % 2 == 1)
            ops.append(_cli_eval_op(klab, fname, flags, reference, roles, tau, z1, z2,
                                    f"eval-{fname}-{k}"))
    for oracle, slopes in ((False, CLI_M3_PLAIN), (True, CLI_M3_ORACLE)):
        for im in CLI_M3_IM_TAU:
            tau = complex(rng.uniform(-0.5, 0.5), im * rng.uniform(0.97, 1.03))
            ops.append(_cli_m3_op(klab, _lines(klab, rng, slopes), tau, oracle,
                                  f"m3{'-oracle' if oracle else ''}-{im}"))
    for tau in CLI_VERIFY_TAUS:
        for suite in SUITES:
            argv = ["verify", suite, "--tau", tau]
            ops.append(Op(f"verify-{suite}-{tau}", lambda argv=argv: run_cli(klab, argv),
                          verify_check, tags={"command": "verify"},
                          known_fault="F1" if suite in F1_SUITES else ""))
    return ops


WORKLOADS = {"eval-sweep": eval_sweep, "compose": compose, "cli": cli}
