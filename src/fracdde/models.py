"""Reference right-hand sides: a cubic and a sinusoidal delayed oscillator."""

from __future__ import annotations

import math

import numpy as np

from .numerics import _real
from .solver import SystemRhs

__all__ = ["ucar_rhs", "ikeda_rhs"]


def ucar_rhs(delta: float = 1.0, epsilon: float = 1.0) -> SystemRhs:
    """Cubic feedback oscillator g(x1, x2) = delta*x1 - epsilon*x2**3, both
    gains positive.

    Equilibria are 0 and +/- sqrt(delta/epsilon).  At the symmetric pair the
    linearization is (a, b) = (delta, -3*delta) independent of epsilon.
    """
    delta, epsilon = _real("delta", delta, "positive"), _real("epsilon", epsilon, "positive")

    # Multiplication instead of ** so a diverging state yields IEEE inf
    # (float ** raises OverflowError) and lands in the truncation path.
    def g(x1: float, x2: float) -> float:
        return delta * x1 - epsilon * (x2 * x2 * x2)

    def dg_dx1(x1: float, x2: float) -> float:
        return delta

    def dg_dx2(x1: float, x2: float) -> float:
        return -3.0 * epsilon * (x2 * x2)

    return SystemRhs(g=g, dg_dx1=dg_dx1, dg_dx2=dg_dx2)


def ikeda_rhs(c1: float = -3.0, c2: float = 24.0) -> SystemRhs:
    """Sinusoidal feedback oscillator g(x1, x2) = c1*x1 + c2*sin(x2), with a
    linear damping term.

    With the default gains the equation has seven equilibria in [-10, 10];
    the linearization at x* is (a, b) = (c1, c2*cos(x*)).
    """
    c1, c2 = _real("c1", c1), _real("c2", c2)

    # simulate calls g on float64 arrays, which take np.sin, and on floats,
    # which take math.sin: numpy's scalar call costs several times more.
    # math.sin raises on an infinite state, where np.sin gives NaN.
    def g(x1: float, x2: float) -> float:
        if isinstance(x2, float):
            try:
                return c1 * x1 + c2 * math.sin(x2)
            except ValueError:
                return math.nan
        return c1 * x1 + c2 * np.sin(x2)

    def dg_dx1(x1: float, x2: float) -> float:
        return c1

    def dg_dx2(x1: float, x2: float) -> float:
        return c2 * math.cos(x2)

    return SystemRhs(g=g, dg_dx1=dg_dx1, dg_dx2=dg_dx2)
