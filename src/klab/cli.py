"""Command-line front end: evaluate functions, compute triple compositions,
and run the identity-certification suites with machine-readable reports.

Complex numbers are written "re,im", rational slopes "p/q", and lines
"slope:y:beta"; a token that starts with '-' and a digit or '.' is a value,
not an option.  Exit codes: 0 success/pass, 1 verification failure, 2 input
or evaluation error.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from functools import cache

from . import verify as verify_mod
from .appell import g0, g_series, kappa
from .core import DEFAULT_BUDGET, GUARD, DomainError, EvalError, Modulus
from .fukaya import m3_generic, polygon_oracle
from .hfun import h0_series, h_series, psi_closed
from .kronecker import f_series
from .lattice import LineOnTorus
from .theta import theta, theta_prime

SCHEMA = 1


def parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        value = complex(float(re_s), float(im_s))
    except ValueError as ex:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from ex
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected finite 're,im', got {text!r}")
    return value


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise argparse.ArgumentTypeError(f"expected 'p/q', got {text!r}") from ex


def parse_line(text: str) -> LineOnTorus:
    try:
        slope_s, y_s, beta_s = text.split(":")
        return LineOnTorus(Fraction(slope_s), float(y_s), float(beta_s))
    except (ValueError, ZeroDivisionError, DomainError) as ex:
        raise argparse.ArgumentTypeError(
            f"expected 'slope:y:beta', got {text!r}"
        ) from ex


def parse_slopes(text: str) -> list:
    return [parse_rational(p) for p in text.split(",")]


#: function name -> (callable, ordered argument flag names)
EVAL_FUNCTIONS = {
    "theta": (theta, ["z"]),
    "theta_prime": (theta_prime, ["z"]),
    "f": (f_series, ["z1", "z2"]),
    "kappa": (kappa, ["y", "x"]),
    "g": (g_series, ["z1", "z2"]),
    "g0": (g0, ["z1", "z2"]),
    "h": (h_series, ["z1", "z2"]),
    "h0": (h0_series, ["z1", "z2"]),
    "psi": (psi_closed, ["x"]),
}


def _dumps(payload) -> str:
    """The JSON of a payload, keys sorted; a payload is a fresh tree of
    dicts, lists and numbers, so the encoder's check for cycles is skipped."""
    return json.dumps(payload, sort_keys=True, check_circular=False)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_eval(args) -> int:
    fn, flag_names = EVAL_FUNCTIONS[args.function]
    tau = Modulus(args.tau)
    values = []
    for name in flag_names:
        v = getattr(args, name)
        if v is None:
            print(f"missing required argument --{name}", file=sys.stderr)
            return 2
        values.append(v)
    traces = []
    value = fn(*values, tau, DEFAULT_BUDGET, trace=traces)
    radius = max(t.radius for t in traces)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "function": args.function,
            "args": {n: [v.real, v.imag] for n, v in zip(flag_names, values)},
            "tau": [tau.tau.real, tau.tau.imag],
            "value_re": value.real,
            "value_im": value.imag,
            "shells_used": radius,
            "ring_share": max(t.ring for t in traces),
            "terms": sum(t.terms for t in traces),
            "terms_in_cone": sum(t.terms_in_cone for t in traces),
            "guard": GUARD,
        }
        _emit(_dumps(payload), args.out)
    else:
        _emit(
            f"{args.function} = {value.real:.15g}{value.imag:+.15g}j"
            f"  (shells_used={radius})",
            args.out,
        )
    return 0


def cmd_m3(args) -> int:
    tau = Modulus(args.tau)
    lines = args.line
    result = m3_generic(lines, tau, DEFAULT_BUDGET)
    payload = {"schema": SCHEMA}
    if result.is_zero:
        payload["zero"] = True
        _emit(_dumps(payload), args.out)
        return 0
    if args.oracle:
        oracle = polygon_oracle(lines, tau, radius=args.radius)
        payload["max_discrepancy"] = verify_mod._label_gap(result.coefficients,
                                                           oracle.coefficients)
        source = oracle
    else:
        source = result
    payload["prefactor_re"] = source.prefactor.real
    payload["prefactor_im"] = source.prefactor.imag
    payload["sign"] = source.sign
    payload["coefficients"] = [
        {"a": a, "b": b, "value_re": v.real, "value_im": v.imag}
        for (a, b), v in sorted(source.coefficients.items())
    ]
    _emit(_dumps(payload), args.out)
    return 0


def _report_payload(rep) -> dict:
    return {
        "schema": SCHEMA,
        "identity_id": rep.identity_id,
        "tolerance": rep.tolerance,
        "max_residual": rep.max_residual,
        "pass": rep.passed,
        "seed": rep.seed,
        "skipped": rep.skipped,
        "skipped_by_kind": rep.skipped_by_kind,
        "points": rep.points,
        "n_samples": len(rep.samples),
        "samples": [
            {
                "point": [[v.real, v.imag] if isinstance(v, complex) else v
                          for v in s["point"]],
                "lhs": [lhs.real, lhs.imag] if isinstance(lhs := s["lhs"], complex) else lhs,
                "rhs": [rhs.real, rhs.imag] if isinstance(rhs := s["rhs"], complex) else rhs,
                "residual": s["residual"],
            }
            for s in rep.samples
        ],
    }


def _report_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["identity_id", "sample", "residual", "lhs_re", "lhs_im", "rhs_re", "rhs_im"]
    )
    for rep in reports:
        for i, s in enumerate(rep.samples):
            lhs, rhs = complex(s["lhs"]), complex(s["rhs"])
            writer.writerow(
                [rep.identity_id, i, s["residual"], lhs.real, lhs.imag, rhs.real, rhs.imag]
            )
    return buf.getvalue()


def cmd_verify(args) -> int:
    if args.samples < 1:
        print(f"--samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    if args.tol is not None and not 0 < args.tol < math.inf:
        print(f"--tol must be a positive finite number, got {args.tol}", file=sys.stderr)
        return 2
    tau = Modulus(args.tau)
    ids = list(verify_mod.SUITES) if args.identity == "all" else [args.identity]
    if args.identity != "all" and args.identity not in verify_mod.SUITES:
        print(f"unknown identity {args.identity!r}", file=sys.stderr)
        return 2
    try:
        reports = [
            verify_mod.SUITES[i](tau, args.samples, args.seed, DEFAULT_BUDGET,
                                 slopes=args.slopes, tolerance=args.tol)
            for i in ids
        ]
    except EvalError as ex:
        print(f"{ex.kind}: {ex}", file=sys.stderr)
        return 2
    if args.format == "csv":
        _emit(_report_csv(reports), args.out)
    elif args.format == "text":
        lines = []
        for r in reports:
            kinds = ", ".join(f"{k}: {n}" for k, n in sorted(r.skipped_by_kind.items()))
            lines.append(
                f"{r.identity_id}: {'PASS' if r.passed else 'FAIL'} "
                f"max_residual={r.max_residual:.3e} tol={r.tolerance:.1e} "
                f"points={r.points} samples={len(r.samples)} skipped={r.skipped}"
                + (f" ({kinds})" if kinds else "")
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payloads = [_report_payload(r) for r in reports]
        out = payloads[0] if len(payloads) == 1 else {
            "schema": SCHEMA,
            "reports": payloads,
            "pass": all(r.passed for r in reports),
        }
        _emit(_dumps(out), args.out)
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    """Reads "-0.3,0.5" and "-1:-0.31:0" as values, where argparse takes
    only plain numbers such as "-0.3"; its subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing fills a fresh
    namespace each call and leaves the parser unchanged."""
    parser = _Parser(
        prog="klab",
        description="Theta functions, Appell sums, indefinite theta series, "
        "and torus-line composition numerics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tau", type=parse_complex, default=complex(0, 1),
                        help="modulus as 're,im' (default 0,1)")
    common.add_argument("--out", default=None, help="write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one function")
    p_eval.add_argument("function", choices=sorted(EVAL_FUNCTIONS))
    p_eval.add_argument("--format", choices=["json", "text"], default="json")
    for flag in ("z", "z1", "z2", "x", "y"):
        p_eval.add_argument(f"--{flag}", type=parse_complex, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_m3 = sub.add_parser("m3", parents=[common],
                          help="triple composition of four lines")
    p_m3.add_argument("line", type=parse_line, nargs=4,
                      help="four lines as 'slope:y:beta'")
    p_m3.add_argument("--oracle", action="store_true",
                      help="use the polygon-enumeration oracle and report the "
                      "discrepancy against the series")
    p_m3.add_argument("--radius", type=int, default=4)
    p_m3.add_argument("--format", choices=["json"], default="json")
    p_m3.set_defaults(func=cmd_m3)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run an identity-certification suite")
    p_ver.add_argument("identity",
                       help="identity id or 'all': " + ", ".join(verify_mod.SUITES))
    p_ver.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_ver.add_argument("--samples", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=float, default=None,
                       help="override the declared tolerance")
    p_ver.add_argument("--slopes", type=parse_slopes, default=None,
                       help="rational slopes 'p/q,...': four for m2-assoc, five for "
                       "five-term and sign-det")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvalError as ex:
        print(f"{ex.kind}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
