"""A fixed piece of work, unrelated to klab, that gauges the host's speed.

The benchmark's host is a 2-vCPU VM on a shared machine whose speed drifts
by up to 2x in spells of seconds to minutes, alike for all code (process CPU
time moves with wall time, so it is not steal time).  ``run.py`` runs
``work`` right before every timed operation and divides the operation's time
by it (set-up time is not scaled; see bench/README.md).  A time is reported
as ``REFERENCE_S * time / work time``: what it would have taken at the speed
at which ``work`` takes ``REFERENCE_S``.

``work`` mixes the kinds of work klab does: an interpreted loop over
complex numbers and ``cmath``, small numpy vector operations, and
``Fraction`` and dict work.  Each alone tracks klab's speed less well than
the mix.  Nothing here touches klab, so a change to klab moves the
reported times in full.
"""
from __future__ import annotations

import cmath
import time
from fractions import Fraction

import numpy as np

#: Seconds that ``work`` takes at the reference speed.  The reported times
#: are scaled to this speed; it is near the host's fastest speed, so that the
#: scaled times read close to the fastest wall times.
REFERENCE_S = 1.6e-3


def work() -> None:
    z, w = 0j, complex(0.3, 0.1)
    for i in range(3000):
        z += cmath.exp(w * i * 1e-4) * (i % 3)
    a = np.arange(200.0)
    for _ in range(60):
        a = np.exp(-a * 1e-3) * 1.0001 + a.sum() * 1e-9
    d = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + Fraction(i % 5, 3) if i % 50 == 0 else i


def work_ns() -> int:
    """Nanoseconds that one ``work`` takes now."""
    start = time.perf_counter_ns()
    work()
    return time.perf_counter_ns() - start
