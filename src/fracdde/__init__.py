"""Simulation and stability analysis of scalar fractional-order equations
with two discrete delays.

The package integrates D^alpha x(t) = g(x(t - tau1), x(t - tau2)) with a
Caputo derivative of order alpha in (0, 1] on a grid shared by both delays,
and analyzes the stability of equilibria through the parametric curves in
the (tau1, tau2) plane where characteristic roots cross the imaginary axis.
"""

from __future__ import annotations

from .errors import (
    DegenerateCoefficientsError,
    IncommensurableDelaysError,
    NonConvergenceError,
)
from .models import IkedaParams, UcarParams, ikeda_rhs, ucar_rhs
from .numerics import (
    FractionalOrder,
    corner_weight_table,
    gamma_function,
    interior_weight_table,
)
from .solver import (
    CommensurateGrid,
    DelayPair,
    SystemRhs,
    Trajectory,
    build_grid,
    phase_columns,
    simulate,
)
from .stability import (
    CriticalCurvePoint,
    LinearCoefficients,
    StabilityVerdict,
    characteristic_residual,
    classify,
    critical_curve,
    critical_tau2_for_tau1,
    default_v_window,
    find_equilibria,
    linearize,
    parametric_delays,
    stable_at_zero_delay,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DegenerateCoefficientsError",
    "IncommensurableDelaysError",
    "NonConvergenceError",
    "FractionalOrder",
    "gamma_function",
    "corner_weight_table",
    "interior_weight_table",
    "DelayPair",
    "SystemRhs",
    "CommensurateGrid",
    "Trajectory",
    "build_grid",
    "simulate",
    "phase_columns",
    "StabilityVerdict",
    "LinearCoefficients",
    "CriticalCurvePoint",
    "find_equilibria",
    "linearize",
    "stable_at_zero_delay",
    "characteristic_residual",
    "default_v_window",
    "parametric_delays",
    "critical_curve",
    "critical_tau2_for_tau1",
    "classify",
    "UcarParams",
    "IkedaParams",
    "ucar_rhs",
    "ikeda_rhs",
]
