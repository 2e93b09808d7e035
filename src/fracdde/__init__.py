"""Simulation and stability analysis of scalar fractional-order equations
with two discrete delays.

The package integrates D^alpha x(t) = g(x(t - tau1), x(t - tau2)) with a
Caputo derivative of order alpha in (0, 1] on a uniform grid,
and analyzes the stability of equilibria through the parametric curves in
the (tau1, tau2) plane where characteristic roots cross the imaginary axis.
"""

from __future__ import annotations

from .models import IkedaParams, UcarParams, ikeda_rhs, ucar_rhs
from .numerics import corner_weight_table, interior_weight_table
from .solver import (
    DelayPair,
    Grid,
    SystemRhs,
    Trajectory,
    build_grid,
    phase_columns,
    simulate,
)
from .stability import (
    Classification,
    LinearCoefficients,
    StabilityVerdict,
    classify,
    curve_columns,
    find_equilibria,
    linearize,
    stable_at_zero_delay,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "corner_weight_table",
    "interior_weight_table",
    "DelayPair",
    "SystemRhs",
    "Grid",
    "Trajectory",
    "build_grid",
    "simulate",
    "phase_columns",
    "StabilityVerdict",
    "LinearCoefficients",
    "find_equilibria",
    "linearize",
    "stable_at_zero_delay",
    "curve_columns",
    "Classification",
    "classify",
    "UcarParams",
    "IkedaParams",
    "ucar_rhs",
    "ikeda_rhs",
]
