"""klab's own set-up time: importing the package and one warm-up pass.

The warm-up calls every public evaluator once at an ordinary point and
composes four lines once, which fills the lazy shell caches
(``core.shell_points``, ``doubleseries.shell_mn``) for typical inputs.
Interpreter start is not included.  Run directly, it prints the seconds
measured in a fresh interpreter; ``run.py`` also calls ``measure`` in its own
process.
"""
from __future__ import annotations

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def warm_up(klab) -> None:
    tau = klab.Modulus(complex(0.3, 0.9))
    z1, z2 = 0.4 * tau.tau + 0.2, 0.6 * tau.tau + 0.7
    for fn in (klab.theta, klab.theta_prime, klab.psi_closed):
        fn(z1, tau)
    klab.kappa(z2, z1, tau)
    for fn in (klab.g0, klab.g0_minus_g, klab.f_series, klab.f_closed,
               klab.g_series, klab.h_series, klab.h0_series):
        fn(z1, z2, tau)
    lines = [klab.LineOnTorus(s, y, 0.0) for s, y in zip((0, 2, -1, 1), (0.11, 0.23, -0.31, 0.07))]
    klab.m3_generic(lines, tau)


def measure() -> float:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    import klab
    import klab.cli  # noqa: F401  (the CLI workload's entry point)

    warm_up(klab)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(measure()))
