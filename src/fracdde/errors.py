"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DegenerateCoefficientsError",
    "IncommensurableDelaysError",
]


class IncommensurableDelaysError(ValueError):
    """No admissible step divides both delays and the horizon within tolerance."""


class DegenerateCoefficientsError(ValueError):
    """A crossing-curve computation requires both linear coefficients nonzero."""
