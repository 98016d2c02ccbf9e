"""Benchmark of klab: one workload per run, in one single-threaded process.

    python3 bench/run.py --workload eval-sweep --seed 0 --seconds 30 --trace 0

The workload's seeded list of operations is built first, with every
reference value computed apart from klab (see references.py).  The list is
then run in whole rounds, in a fixed order, until ``--seconds`` have passed;
each operation's call is timed, scaled by the host's speed measured right
before it (see calibration.py), and checked against its reference outside the
timed region.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the list runs half the
time untraced and half traced, and the object holds the per-layer metrics.
Per-run details go to bench/out/.
"""
from __future__ import annotations

import os

# one thread for BLAS and OpenMP, set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import setup_probe  # noqa: E402

#: End-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "accuracy_digits_p10": ("digits", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Set-up is measured in this many fresh interpreters, spread over the run
#: so that the median does not hang on one moment's machine speed.
SETUP_RUNS = 9


def setup_seconds() -> float:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1] if proc.stderr else "failed")
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile of an ascending list."""
    return values[max(0, math.ceil(p * len(values)) - 1)]


def run_rounds(klab, ops, seconds, tracer=None, between_rounds=None, warm_up=True):
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least one),
    after one untimed round when ``warm_up`` is set.

    Right before each operation, ``calibration.work`` gauges the host's speed.
    Returns per-op lists of (ns, work ns, ok, digits) and the number of rounds.
    """
    records = [[] for _ in ops]
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    if warm_up:
        # an untimed first round, so that lazily filled caches are full
        for op in ops:
            calibration.work()
            try:
                op.call()
            except klab.EvalError:
                pass
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            call = op.call
            if tracer is not None:
                name = "cli." + op.tags["command"] if "command" in op.tags else "op"
                call = (lambda op=op, i=i, name=name: tracer.root(name, i, op.call))
            result = error = None
            work_ns = calibration.work_ns()
            start = clock()
            try:
                result = call()
            except klab.EvalError as ex:
                error = ex
            elapsed = clock() - start
            ok, digits = op.check(result, error)
            records[i].append((elapsed, work_ns, ok, digits))
        rounds += 1
        if time.perf_counter() >= deadline:
            return records, rounds
        if between_rounds is not None:
            between_rounds()


def summarize(ops, records):
    """Operation counts and end-to-end figures of one set of rounds.

    An operation's time is the median over the rounds of its wall time
    scaled to the reference speed of ``calibration``: ``REFERENCE_S`` times
    its wall time over the time of the ``work`` right before it.
    """
    attempted = sum(len(r) for r in records)
    scaled_s = [statistics.median(calibration.REFERENCE_S * ns / work for ns, work, _, _ in r)
                for r in records]
    passed = [all(ok for _, _, ok, _ in r) for r in records]
    # percentiles over the list's operations; a failed one counts as slower
    # than any that succeeded, and as 0 digits
    op_ms = sorted(1e3 * s if ok else math.inf for s, ok in zip(scaled_s, passed))
    op_digits = sorted(d if ok else 0.0 for r in records for _, _, ok, d in r)
    unexpected, unstable, per_op = [], [], {}
    for op, rec, s in zip(ops, records, scaled_s):
        oks = {ok for _, _, ok, _ in rec}
        if len(oks) > 1:
            unstable.append(op.name)
        if False in oks and not op.known_fault:
            unexpected.append(op.name)
        per_op[op.name] = {"ms": [ns / 1e6 for ns, _, _, _ in rec],
                           "work_ms": [work / 1e6 for _, work, _, _ in rec],
                           "scaled_ms": 1e3 * s, "ok": all(oks),
                           "digits": min(d for _, _, _, d in rec)}
    return {
        "per_op": per_op,
        "attempted": attempted,
        "failed": sum(not ok for r in records for _, _, ok, _ in r),
        # passed operations of one round over one round's scaled time
        "ops_per_s": sum(passed) / sum(scaled_s),
        "op_p50_ms": percentile(op_ms, 0.5),
        "op_p90_ms": percentile(op_ms, 0.9),
        "accuracy_digits_p10": percentile(op_digits, 0.1),
        "unexpected_failures": unexpected,
        "unstable": unstable,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup = [setup_seconds()]
    except RuntimeError as ex:
        print(f"klab set-up failed: {ex}", file=sys.stderr)
        return 2
    sys.path.insert(0, setup_probe.SRC)
    import klab
    import klab.cli  # noqa: F401
    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](klab, args.seed)

    if args.trace:
        plain, _ = run_rounds(klab, ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced, rounds = run_rounds(klab, ops, args.seconds / 2, tracer, warm_up=False)
        summary = summarize(ops, traced)
        base = summarize(ops, plain)
        summary["unexpected_failures"] += base["unexpected_failures"]
        summary["unstable"] += base["unstable"]
        values = tracing.layer_metrics(tracer, ops, summary["attempted"], rounds)
        values.update(tracing.size_metrics(klab))
        values["trace.overhead_pct"] = 100 * (1 - summary["ops_per_s"] / base["ops_per_s"])
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        units = tracing.PER_LAYER
    else:
        step = args.seconds / SETUP_RUNS
        next_probe = [time.perf_counter() + step]

        def probe_setup():
            if len(setup) < SETUP_RUNS and time.perf_counter() >= next_probe[0]:
                setup.append(setup_seconds())
                next_probe[0] += step

        records, rounds = run_rounds(klab, ops, args.seconds, between_rounds=probe_setup)
        setup += [setup_seconds() for _ in range(SETUP_RUNS - len(setup))]
        summary = summarize(ops, records)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": summary["ops_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_p90_ms": summary["op_p90_ms"],
            "accuracy_digits_p10": summary["accuracy_digits_p10"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    correct = not summary["unexpected_failures"] and not summary["unstable"]
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }
    os.makedirs(OUT, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, ops=len(ops), setup_samples_s=setup,
                  unexpected_failures=summary["unexpected_failures"],
                  unstable=summary["unstable"], per_op=summary["per_op"])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
