"""Simulation and stability analysis of scalar fractional-order equations
with two discrete delays.

The package integrates D^alpha x(t) = g(x(t - tau1), x(t - tau2)) with a
Caputo derivative of order alpha in (0, 1] on a uniform grid,
and analyzes the stability of equilibria through the parametric curves in
the (tau1, tau2) plane where characteristic roots cross the imaginary axis.
"""

from __future__ import annotations

from .models import ikeda_rhs, ucar_rhs
from .solver import SystemRhs, Trajectory, simulate
from .stability import (
    Classification,
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
    "SystemRhs",
    "Trajectory",
    "simulate",
    "StabilityVerdict",
    "find_equilibria",
    "linearize",
    "stable_at_zero_delay",
    "curve_columns",
    "Classification",
    "classify",
    "ucar_rhs",
    "ikeda_rhs",
]
