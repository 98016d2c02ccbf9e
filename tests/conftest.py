import os
import random
import sys

import pytest
from hypothesis import settings

from klab.core import Modulus, lattice_sum

#: CI runs every property test on the same examples and without deadlines
#: (HYPOTHESIS_PROFILE=ci); locally the default profile draws afresh.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def tau_i():
    return Modulus(1j)


@pytest.fixture
def tau_generic():
    return Modulus(0.3 + 0.9j)


@pytest.fixture
def rng():
    return random.Random(12345)


def sample_z(rng, tau, margin=0.05, offset=0.0):
    """Admissible point with alpha in (margin, 1 - margin) + offset."""
    a = offset + margin + (1 - 2 * margin) * rng.random()
    return a * tau.tau + rng.random()


def kernel_calls(monkeypatch) -> list:
    """The calls of ``core.lattice_sum``, the one kernel entry, from now on,
    recorded (through ``monkeypatch``) in every klab module that binds it."""
    calls = []

    def recording(*args):
        calls.append(args)
        return lattice_sum(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "klab" and getattr(module, "lattice_sum", None) is lattice_sum:
            monkeypatch.setattr(module, "lattice_sum", recording)
    return calls
