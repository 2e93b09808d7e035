"""Scalar special functions and quadrature weights for fractional integrals.

Everything in this module is plain float-valued numerics: the gamma function
wrapper and the product-trapezoidal weight tables that drive the time stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalOrder",
    "order_value",
    "gamma_function",
    "corner_weight_table",
    "interior_weight_table",
]

# Interior weights switch from the direct second difference to a binomial
# series at this offset; see the comment inside interior_weight_table.
_SERIES_CUTOFF = 8
_SERIES_TERMS = 12


@dataclass(frozen=True)
class FractionalOrder:
    """Order of the fractional derivative, restricted to (0, 1].

    The value 1 is allowed and reduces every formula in this package to its
    classical first-order counterpart.
    """

    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if not isinstance(a, (int, float)) or isinstance(a, bool) or not math.isfinite(a):
            raise ValueError("derivative order must be a finite real number")
        if not 0.0 < a <= 1.0:
            raise ValueError(f"derivative order must lie in (0, 1], got {a!r}")

    def __float__(self) -> float:
        return float(self.alpha)


def order_value(order: FractionalOrder | float) -> float:
    """Unwrap an order given either bare or wrapped, validating its range."""
    if isinstance(order, FractionalOrder):
        return float(order)
    return float(FractionalOrder(float(order)))


def gamma_function(x: float) -> float:
    """Gamma function on the positive real axis.

    Delegates to the platform implementation behind :func:`math.gamma`,
    which is accurate to well under 1e-12 relative error over the range
    this package exercises (series denominators ``alpha*k + 1`` and the
    stepper constant ``alpha + 2``, all within (0, 35)).

    Parameters
    ----------
    x : float
        Point of evaluation, must be positive and finite.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If ``x`` is nonpositive, infinite, or NaN.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma_function requires a finite argument")
    if x <= 0.0:
        raise ValueError(f"gamma_function is restricted to x > 0, got {x}")
    return math.gamma(x)


def corner_weight_table(alpha: FractionalOrder | float, n_max: int) -> np.ndarray:
    """First-column quadrature weights ``a[0, n+1]`` for ``n = 0..n_max``.

    Entry ``j`` of the result multiplies the oldest integrand sample in the
    step that advances the solution from index ``j`` to ``j + 1``.
    """
    a = order_value(alpha)
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    n = np.arange(n_max + 1, dtype=float)
    # Both terms grow like n**(alpha+1) while their difference stays
    # O(n**alpha), so about log10(n) digits cancel; with n <= 1e7 that leaves
    # plenty of the 16 available, and the weight-sum identity test pins the
    # actual loss.
    return n ** (a + 1.0) - (n - a) * (n + 1.0) ** a


def interior_weight_table(alpha: FractionalOrder | float, m_max: int) -> np.ndarray:
    """Interior quadrature weights indexed by sample offset.

    Entry ``m`` of the result is the weight attached to an integrand sample
    ``m`` grid points behind the step target, for ``1 <= m <= m_max``; it is
    the centered second difference of ``m**(alpha+1)``.  Entry 0 is NaN on
    purpose: offset zero is the trailing weight, which is identically 1 and
    never read from this table.

    All entries are positive for ``alpha`` in (0, 1), and at ``alpha == 1``
    every entry is exactly 2.0, the classical trapezoid interior weight.
    """
    a = order_value(alpha)
    m_max = int(m_max)
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    beta = a + 1.0
    d2 = np.empty(m_max + 1, dtype=float)
    d2[0] = np.nan
    hi = min(_SERIES_CUTOFF - 1, m_max)
    if hi >= 1:
        m = np.arange(1, hi + 1, dtype=float)
        d2[1 : hi + 1] = (m + 1.0) ** beta + (m - 1.0) ** beta - 2.0 * m ** beta
    if m_max >= _SERIES_CUTOFF:
        # Cancellation analysis.  The direct second difference subtracts
        # numbers of size m**beta to leave a result of size
        # beta*(beta-1)*m**(beta-2), losing roughly 2*log10(m) decimal
        # digits; at m = 1e6 only half the mantissa would survive.  For
        # m >= 8 we therefore expand
        #
        #   (m+1)**beta + (m-1)**beta - 2*m**beta
        #       = 2 * sum_{k>=1} C(beta, 2k) * m**(beta-2k)
        #
        # (odd binomial terms cancel in exact arithmetic, so dropping them
        # costs nothing).  Every C(beta, 2k) is nonnegative for beta in
        # [1, 2], so the sum has no cancellation at all and each weight is
        # accurate to a few ulp.  Terms shrink by m**(-2) >= 64 per step,
        # so twelve of them reach double precision with a wide margin.
        # Writing each term as m**(beta - 2k) rather than m**beta * u**(2k)
        # keeps beta == 2 exact: there C(2, 2k) vanishes for k >= 2 and the
        # series collapses to the constant 2.
        m = np.arange(_SERIES_CUTOFF, m_max + 1, dtype=float)
        total = np.zeros_like(m)
        coeff = 1.0  # running binomial coefficient C(beta, j)
        j = 0
        for k in range(1, _SERIES_TERMS + 1):
            while j < 2 * k:
                coeff *= (beta - j) / (j + 1)
                j += 1
            if coeff == 0.0:
                break
            total += coeff * m ** (beta - 2 * k)
        d2[_SERIES_CUTOFF:] = 2.0 * total
    return d2
