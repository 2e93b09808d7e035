"""Reference right-hand sides: a cubic and a sinusoidal delayed oscillator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import SystemRhs

__all__ = ["UcarParams", "IkedaParams", "ucar_rhs", "ikeda_rhs"]


@dataclass(frozen=True)
class UcarParams:
    """Parameters of g(x1, x2) = delta*x1 - epsilon*x2**3; both positive."""

    delta: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("delta", self.delta), ("epsilon", self.epsilon)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number")
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def ucar_rhs(params: UcarParams | None = None) -> SystemRhs:
    """Cubic feedback oscillator.

    Equilibria are 0 and +/- sqrt(delta/epsilon).  At the symmetric pair the
    linearization is (a, b) = (delta, -3*delta) independent of epsilon.
    """
    p = params if params is not None else UcarParams()
    delta, epsilon = p.delta, p.epsilon

    # Multiplication instead of ** so a diverging state yields IEEE inf
    # (float ** raises OverflowError) and lands in the truncation path.
    def g(x1: float, x2: float) -> float:
        return delta * x1 - epsilon * (x2 * x2 * x2)

    def dg_dx1(x1: float, x2: float) -> float:
        return delta

    def dg_dx2(x1: float, x2: float) -> float:
        return -3.0 * epsilon * (x2 * x2)

    return SystemRhs(g=g, dg_dx1=dg_dx1, dg_dx2=dg_dx2)


@dataclass(frozen=True)
class IkedaParams:
    """Parameters of g(x1, x2) = c1*x1 + c2*sin(x2)."""

    c1: float = -3.0
    c2: float = 24.0

    def __post_init__(self) -> None:
        for name, value in (("c1", self.c1), ("c2", self.c2)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def ikeda_rhs(params: IkedaParams | None = None) -> SystemRhs:
    """Sinusoidal feedback oscillator with a linear damping term.

    With the default parameters the equation has seven equilibria in
    [-10, 10]; the linearization at x* is (a, b) = (c1, c2*cos(x*)).
    """
    p = params if params is not None else IkedaParams()
    c1, c2 = p.c1, p.c2

    # np.sin, not math.sin: simulate calls g on float64 arrays.
    def g(x1: float, x2: float) -> float:
        return c1 * x1 + c2 * np.sin(x2)

    def dg_dx1(x1: float, x2: float) -> float:
        return c1

    def dg_dx2(x1: float, x2: float) -> float:
        return c2 * math.cos(x2)

    return SystemRhs(g=g, dg_dx1=dg_dx1, dg_dx2=dg_dx2)
