"""The derivative order and the quadrature weights for fractional integrals.

Everything in this module is plain float-valued numerics: the validated
derivative order, the two rules every number the package takes passes
(``_real`` for a real, ``_count`` for a count of samples, steps or
entries), and the product-trapezoidal weight tables of the time stepper.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "order_value",
    "corner_weight_table",
    "interior_weight_table",
]

# Interior weights switch from the direct second difference to a binomial
# series at this offset; see the comment inside interior_weight_table.
_SERIES_CUTOFF = 8
_SERIES_TERMS = 12


def order_value(alpha: float) -> float:
    """The derivative order as a float, validated to lie in (0, 1].

    The value 1 is allowed and reduces every formula in this package to its
    classical first-order counterpart.
    """
    a = _real("derivative order", alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"derivative order must lie in (0, 1], got {a!r}")
    return a


def _real(name: str, value: object, bound: str = "") -> float:
    """``value`` as a float, checked by the rule for every real the package
    takes: a ``numbers.Real`` that is not a bool (numpy scalars pass,
    strings do not), finite, and ``bound`` ("nonnegative" or "positive")
    where the caller asks."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    in_bound = {"": True, "nonnegative": x >= 0.0, "positive": x > 0.0}[bound]
    if not (math.isfinite(x) and in_bound):
        need = f"{bound} and finite" if bound else "finite"
        raise ValueError(f"{name} must be {need}, got {x!r}")
    return x


def _count(name: str, value: object, least: int) -> int:
    """``value`` as an int, checked by the rule for every count: a
    ``numbers.Integral`` that is not a bool (numpy integers pass, floats and
    strings do not), at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    n = int(value)
    if n < least:
        need = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {need}")
    return n


def corner_weight_table(alpha: float, n_max: int) -> np.ndarray:
    """First-column quadrature weights ``a[0, n+1]`` for ``n = 0..n_max``.

    Entry ``j`` of the result multiplies the oldest integrand sample in the
    step that advances the solution from index ``j`` to ``j + 1``.
    """
    a = order_value(alpha)
    n_max = _count("n_max", n_max, 0)
    n = np.arange(n_max + 1, dtype=float)
    # Both terms grow like n**(alpha+1) while their difference stays
    # O(n**alpha), so about log10(n) digits cancel; with n <= 1e7 that leaves
    # plenty of the 16 available, and the weight-sum identity test pins the
    # actual loss.
    return n ** (a + 1.0) - (n - a) * (n + 1.0) ** a


def interior_weight_table(alpha: float, m_max: int) -> np.ndarray:
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
    m_max = _count("m_max", m_max, 0)
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
        #
        # The sum is at least its first term, and term k is
        # C(beta, 2k)/C(beta, 2) * m**(-2(k-1)) of it.  Where that ratio is
        # below 2**-60, far under half an ulp of the sum, adding the term
        # cannot change a bit, so it is evaluated only on the offsets
        # below that cutoff (plus one, against rounding in the cutoff).
        m = np.arange(_SERIES_CUTOFF, m_max + 1, dtype=float)
        total = np.zeros_like(m)
        coeff = 1.0  # running binomial coefficient C(beta, j)
        first = 0.0
        j = 0
        for k in range(1, _SERIES_TERMS + 1):
            while j < 2 * k:
                coeff *= (beta - j) / (j + 1)
                j += 1
            if coeff == 0.0:
                break
            if k == 1:
                first = coeff
                live = len(m)
            else:
                reach = (coeff / first * 2.0**60) ** (1.0 / (2 * k - 2))
                live = min(len(m), max(0, int(reach) + 2 - _SERIES_CUTOFF))
            total[:live] += coeff * m[:live] ** (beta - 2 * k)
        d2[_SERIES_CUTOFF:] = 2.0 * total
    return d2
