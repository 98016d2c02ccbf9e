"""Spans around calls into klab's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper wherever a klab
module holds a reference to it (``from .core import ...`` copies the name
into the importing module), and in the two dispatch tables the CLI uses.  A
span is [name, start_ns, end_ns, parent, op, attrs].  Spans are kept in
memory and written out when the run ends; the per-layer metrics are derived
from them afterwards.  A function a later version of klab no longer has is
skipped and its metrics read 0.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from workloads import SUITES

#: (module, function, span name)
TARGETS = (
    ("core", "sum_by_shells_traced", "core.sum_by_shells"),
    ("doubleseries", "sum_cone_series", "doubleseries.sum_cone_series"),
    ("theta", "theta", "theta.theta"),
    ("theta", "theta_prime", "theta.theta_prime"),
    ("kronecker", "f_series", "kronecker.f_series"),
    ("kronecker", "f_closed", "kronecker.f_closed"),
    ("appell", "kappa", "appell.kappa"),
    ("appell", "g0", "appell.g0"),
    ("appell", "g_series", "appell.g_series"),
    ("hfun", "h_series", "hfun.h_series"),
    ("hfun", "h0_series", "hfun.h0_series"),
    ("hfun", "psi_closed", "hfun.psi_closed"),
    ("lattice", "build_quad_config", "lattice.build_quad_config"),
    ("fukaya", "m3_generic", "fukaya.m3_generic"),
    ("fukaya", "F_series", "fukaya.F_series"),
    ("fukaya", "theta_slope_coefficient", "fukaya.theta_slope_coefficient"),
    ("fukaya", "polygon_oracle", "fukaya.polygon_oracle"),
)
#: ``klab eval`` function -> span name of the evaluator it runs
CLI_EVAL_SPANS = {
    "theta": "theta.theta", "theta_prime": "theta.theta_prime",
    "f": "kronecker.f_series", "kappa": "appell.kappa", "g": "appell.g_series",
    "g0": "appell.g0", "h": "hfun.h_series", "h0": "hfun.h0_series",
    "psi": "hfun.psi_closed",
}

_US = ("us", "lower")
_COUNT = ("count", "lower")
#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "core.sum_by_shells.calls": _COUNT,
    "core.sum_by_shells.shells_per_call": _COUNT,
    "core.sum_by_shells.self_ms": ("ms", "lower"),
    "doubleseries.sum_cone_series.calls": _COUNT,
    "doubleseries.sum_cone_series.shells_per_call": _COUNT,
    "doubleseries.sum_cone_series.points_per_call": _COUNT,
    "doubleseries.sum_cone_series.self_ms": ("ms", "lower"),
    "theta.theta.us_per_call": _US,
    "theta.theta_prime.us_per_call": _US,
    "theta.calls_per_op": _COUNT,
    "kronecker.f_series.us_per_call": _US,
    "kronecker.f_series.us_per_call.edge": _US,
    "kronecker.f_closed.us_per_call": _US,
    "appell.kappa.us_per_call": _US,
    "appell.g0.us_per_call": _US,
    "appell.g_series.us_per_call": _US,
    "appell.g_series.us_per_call.edge": _US,
    "hfun.h_series.us_per_call": _US,
    "hfun.h0_series.us_per_call": _US,
    "hfun.psi_closed.us_per_call": _US,
    "lattice.build_quad_config.calls": _COUNT,
    "lattice.build_quad_config.us_per_call": _US,
    "lattice.cosets_per_config": _COUNT,
    "fukaya.m3_generic.us_per_call": _US,
    "fukaya.F_series.calls": _COUNT,
    "fukaya.F_series.us_per_call": _US,
    "fukaya.F_series.shells_per_call": _COUNT,
    "fukaya.theta_slope_coefficient.us_per_call": _US,
    "fukaya.polygon_oracle.us_per_call": _US,
    **{f"verify.{s}.ms": ("ms", "lower") for s in SUITES},
    "verify.samples": ("count", "higher"),
    "verify.skipped": _COUNT,
    "cli.eval.series_calls_per_command": _COUNT,
    "cli.eval.us_per_command": _US,
    "cli.m3.us_per_command": _US,
    "cli.self_ms": ("ms", "lower"),
    "size.src_lines": ("lines", "lower"),
    "size.public_names": _COUNT,
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                if before is not None:
                    args = before(rec, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_shell(self, fn):
        """Count each shell on the innermost open span that keeps counts
        (sum_cone_series and F_series)."""
        spans, stack = self.spans, self.stack

        def counted(radius):
            if stack:
                attrs = spans[stack[-1]][5]
                if attrs is not None:
                    attrs["shells"] = attrs.get("shells", 0) + 1
            return fn(radius)

        return counted

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "klab" or n.startswith("klab.")]
        replacements = {}
        for mod_name, fn_name, span in TARGETS:
            mod = sys.modules.get(f"klab.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            replacements[id(fn)] = self._wrap(span, fn, *HOOKS.get(span, (None, None)))
        shell_mn = getattr(sys.modules.get("klab.doubleseries"), "shell_mn", None)
        if shell_mn is not None:
            replacements[id(shell_mn)] = self._count_shell(shell_mn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])
        cli = sys.modules.get("klab.cli")
        table = getattr(cli, "EVAL_FUNCTIONS", {})
        for key, (fn, flags) in list(table.items()):
            table[key] = (replacements.get(id(fn), fn), flags)
        suites = getattr(sys.modules.get("klab.verify"), "SUITES", {})
        for key, fn in list(suites.items()):
            suites[key] = self._wrap(f"verify.{key}", fn, None, _suite_counts)

    def root(self, name, op_index, call):
        """Run one operation as a root span."""
        self.op = op_index
        return self._wrap(name, call)()

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)


def _shells_from_result(rec, result):
    rec[5] = {"shells": result[1]}


def _fresh_attrs(rec, args):
    rec[5] = {}
    return args


def _count_cone_points(rec, args):
    attrs = rec[5] = {"points": 0}
    shell_term = args[0]

    def counted(m, n):
        out = shell_term(m, n)
        attrs["points"] += int((out != 0).sum())
        return out

    return (counted,) + tuple(args[1:])


def _coset_count(rec, result):
    rec[5] = {"cosets": len(result.coset_reps)}


def _suite_counts(rec, report):
    rec[5] = {"samples": len(report.samples), "skipped": report.skipped}


#: span name -> (before, after): ``before(rec, args)`` may replace the call's
#: arguments, ``after(rec, result)`` records counts from the result
HOOKS = {
    "core.sum_by_shells": (None, _shells_from_result),
    "doubleseries.sum_cone_series": (_count_cone_points, None),
    "fukaya.F_series": (_fresh_attrs, None),
    "lattice.build_quad_config": (None, _coset_count),
}


def layer_metrics(tracer: Tracer, ops, n_ops: int, rounds: int) -> dict:
    """Per-layer metrics from the spans of ``n_ops`` traced operations."""
    spans = tracer.spans
    child_ns = defaultdict(int)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name = defaultdict(list)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        by_name[name].append((end - start, end - start - child_ns[i], op, attrs or {}))

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def calls(name):
        return len(by_name[name]) / n_ops

    def us(name, edge_only=False):
        return mean(d / 1e3 for d, _, op, _ in by_name[name] if not edge_only or ops[op].edge)

    def attr(name, key):
        return mean(a.get(key, 0) for _, _, _, a in by_name[name])

    def self_ms(name):
        return sum(s for _, s, _, _ in by_name[name]) / 1e6 / n_ops

    out = {
        "core.sum_by_shells.calls": calls("core.sum_by_shells"),
        "core.sum_by_shells.shells_per_call": attr("core.sum_by_shells", "shells"),
        "core.sum_by_shells.self_ms": self_ms("core.sum_by_shells"),
        "doubleseries.sum_cone_series.calls": calls("doubleseries.sum_cone_series"),
        "doubleseries.sum_cone_series.shells_per_call": attr("doubleseries.sum_cone_series", "shells"),
        "doubleseries.sum_cone_series.points_per_call": attr("doubleseries.sum_cone_series", "points"),
        "doubleseries.sum_cone_series.self_ms": self_ms("doubleseries.sum_cone_series"),
        "theta.theta.us_per_call": us("theta.theta"),
        "theta.theta_prime.us_per_call": us("theta.theta_prime"),
        "theta.calls_per_op": calls("theta.theta") + calls("theta.theta_prime"),
        "kronecker.f_series.us_per_call": us("kronecker.f_series"),
        "kronecker.f_series.us_per_call.edge": us("kronecker.f_series", True),
        "kronecker.f_closed.us_per_call": us("kronecker.f_closed"),
        "appell.kappa.us_per_call": us("appell.kappa"),
        "appell.g0.us_per_call": us("appell.g0"),
        "appell.g_series.us_per_call": us("appell.g_series"),
        "appell.g_series.us_per_call.edge": us("appell.g_series", True),
        "hfun.h_series.us_per_call": us("hfun.h_series"),
        "hfun.h0_series.us_per_call": us("hfun.h0_series"),
        "hfun.psi_closed.us_per_call": us("hfun.psi_closed"),
        "lattice.build_quad_config.calls": calls("lattice.build_quad_config"),
        "lattice.build_quad_config.us_per_call": us("lattice.build_quad_config"),
        "lattice.cosets_per_config": attr("lattice.build_quad_config", "cosets"),
        "fukaya.m3_generic.us_per_call": us("fukaya.m3_generic"),
        "fukaya.F_series.calls": calls("fukaya.F_series"),
        "fukaya.F_series.us_per_call": us("fukaya.F_series"),
        "fukaya.F_series.shells_per_call": attr("fukaya.F_series", "shells"),
        "fukaya.theta_slope_coefficient.us_per_call": us("fukaya.theta_slope_coefficient"),
        "fukaya.polygon_oracle.us_per_call": us("fukaya.polygon_oracle"),
    }
    for suite in SUITES:
        out[f"verify.{suite}.ms"] = us(f"verify.{suite}") / 1e3
    suite_spans = [s for name, rows in by_name.items() if name.startswith("verify.") for s in rows]
    out["verify.samples"] = sum(a.get("samples", 0) for _, _, _, a in suite_spans) / rounds
    out["verify.skipped"] = sum(a.get("skipped", 0) for _, _, _, a in suite_spans) / rounds

    # klab eval: calls of the evaluated function made directly by the command
    roots = {i: spans[i] for i in range(len(spans)) if spans[i][3] == -1}
    direct = defaultdict(int)
    for name, start, end, parent, op, attrs in spans:
        root = roots.get(parent)
        if root is not None and root[0] == "cli.eval":
            if name == CLI_EVAL_SPANS.get(ops[op].tags.get("function")):
                direct[parent] += 1
    eval_roots = [i for i, r in roots.items() if r[0] == "cli.eval"]
    out["cli.eval.series_calls_per_command"] = mean(direct[i] for i in eval_roots)
    out["cli.eval.us_per_command"] = us("cli.eval")
    out["cli.m3.us_per_command"] = mean(d / 1e3 for name in ("cli.m3", "cli.m3-oracle")
                                        for d, *_ in by_name[name])
    cli_roots = [i for i, r in roots.items() if r[0].startswith("cli.")]
    out["cli.self_ms"] = (sum(roots[i][2] - roots[i][1] - child_ns[i] for i in cli_roots)
                          / 1e6 / n_ops)
    return out


def size_metrics(klab) -> dict:
    src = os.path.dirname(klab.__file__)
    lines = 0
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"size.src_lines": lines, "size.public_names": len(getattr(klab, "__all__", ()))}
