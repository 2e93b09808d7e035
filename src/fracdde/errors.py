"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DegenerateCoefficientsError",
]


class DegenerateCoefficientsError(ValueError):
    """A crossing-curve computation requires both linear coefficients nonzero."""
