"""Numerics for theta functions, Appell sums, rank-2 indefinite theta series,
and compositions of morphisms between lines on the flat torus."""

__version__ = "0.1.0"

from .core import (
    BoundaryProximity,
    ConvergenceBudgetExceeded,
    DEFAULT_BUDGET,
    DomainError,
    EvalError,
    Modulus,
    PoleProximity,
    SummationBudget,
)
from .theta import eta_cubed_constant, theta, theta_prime
from .kronecker import f_closed, f_series
from .appell import g0, g0_minus_g, g_series, kappa, p_correction
from .hfun import h0_series, h_series, psi_closed
from .lattice import LineOnTorus, hom_degree, intersection_point
from .verify import IdentityReport, SUITES
from .fukaya import (
    CompositionResult,
    F_series,
    m2_generic,
    m3_generic,
    polygon_oracle,
)

__all__ = [
    "BoundaryProximity",
    "ConvergenceBudgetExceeded",
    "DEFAULT_BUDGET",
    "DomainError",
    "EvalError",
    "Modulus",
    "PoleProximity",
    "SummationBudget",
    "eta_cubed_constant",
    "theta",
    "theta_prime",
    "f_closed",
    "f_series",
    "g0",
    "g0_minus_g",
    "g_series",
    "kappa",
    "p_correction",
    "h0_series",
    "h_series",
    "psi_closed",
    "LineOnTorus",
    "hom_degree",
    "intersection_point",
    "CompositionResult",
    "F_series",
    "m2_generic",
    "m3_generic",
    "polygon_oracle",
    "IdentityReport",
    "SUITES",
]
