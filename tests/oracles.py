"""Independent reference solutions used only by the test suite.

A truncated Mittag-Leffler series and the closed-form series solution of the
linear single-delay problem.  Neither shares a code path with the time
stepper, which is what makes them oracles for its accuracy.
"""

from __future__ import annotations

import math

from fracdde import NonConvergenceError
from fracdde.numerics import FractionalOrder, order_value

_ML_TERM_FLOOR = 1e-14
_ML_MAX_TERMS = 10_000
_ML_ARG_LIMIT = 50.0

# Just below log(sys.float_info.max); exp() of anything larger overflows.
_LOG_HUGE = 709.0


def mittag_leffler(alpha: FractionalOrder | float, z: float) -> float:
    """One-parameter Mittag-Leffler function by direct series summation.

    Computes ``sum_k z**k / Gamma(alpha*k + 1)``, accumulating terms until
    the first one below 1e-14 in magnitude has been added, then compensates
    the sum with :func:`math.fsum`.  At ``alpha == 1`` this is ``exp(z)``.

    Arguments are restricted to ``|z| <= 50``.  Direct summation is the
    honest algorithm only where the terms do not wreck the answer before
    they decay: for negative ``z`` the terms alternate and grow to roughly
    ``exp(|z|)`` before shrinking, so the best reachable absolute error is
    about ``exp(|z|) * eps`` no matter how exactly they are added.  Within
    the accepted range that floor stays below 1e-7 absolute and the result
    of fsum realizes it.

    Raises
    ------
    ValueError
        If ``z`` is outside the supported range or not finite.
    NonConvergenceError
        If the term budget is exhausted, or if a term overflows while the
        sign still alternates (the cancelled tail would then be meaningless).
    """
    a = order_value(alpha)
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("mittag_leffler requires a finite argument")
    if abs(z) > _ML_ARG_LIMIT:
        raise ValueError(
            f"series evaluation is supported for |z| <= {_ML_ARG_LIMIT:g}, got {z}"
        )
    if z == 0.0:
        return 1.0
    log_abs_z = math.log(abs(z))
    negative = z < 0.0
    terms = [1.0]
    for k in range(1, _ML_MAX_TERMS + 1):
        log_mag = k * log_abs_z - math.lgamma(a * k + 1.0)
        if log_mag > _LOG_HUGE:
            if negative:
                raise NonConvergenceError(
                    "alternating series terms overflow before decaying "
                    f"(alpha={a}, z={z})"
                )
            # Positive argument: the true value dwarfs the float range, so
            # an infinite partial sum is the honest answer.
            terms.append(math.inf)
            continue
        mag = math.exp(log_mag)
        terms.append(-mag if negative and k % 2 else mag)
        if mag < _ML_TERM_FLOOR:
            return math.fsum(terms)
    raise NonConvergenceError(
        f"Mittag-Leffler series needed more than {_ML_MAX_TERMS} terms "
        f"(alpha={a}, z={z})"
    )


def delayed_series_oracle(
    alpha: FractionalOrder | float, a: float, tau: float, t: float
) -> float:
    """Exact solution of the linear single-delay problem with unit history.

    Evaluates the solution of ``D^alpha x(t) = a * x(t - tau)`` with
    ``x(t) = 1`` for ``t <= 0`` as the finite sum

        ``x(t) = sum_{k>=0} a**k * max(t-(k-1)*tau, 0)**(k*alpha)
                 / Gamma(k*alpha + 1)``.

    Each factor switches on one delay interval later than the previous, so
    the sum has about ``t/tau + 1`` nonzero terms.  Terms are produced in
    log space (immune to intermediate overflow) and compensated with fsum.
    The function is continuous across the interval knots ``t = k*tau``,
    though only Holder-continuous of exponent ``alpha`` at ``t = 0``.

    This series is the test suite's independent reference for solver accuracy;
    it shares no code path with the time stepper.
    """
    al = order_value(alpha)
    a = float(a)
    tau = float(tau)
    t = float(t)
    if not math.isfinite(a):
        raise ValueError("coefficient must be finite")
    if not tau > 0.0 or not math.isfinite(tau):
        raise ValueError("delay must be positive and finite")
    if t < 0.0 or not math.isfinite(t):
        raise ValueError("time must be nonnegative and finite")
    if t == 0.0 or a == 0.0:
        return 1.0
    log_abs_a = math.log(abs(a))
    negative = a < 0.0
    terms = [1.0]
    k = 1
    while True:
        base = t - (k - 1) * tau
        if base <= 0.0:
            break
        log_mag = k * log_abs_a + (k * al) * math.log(base) - math.lgamma(k * al + 1.0)
        mag = math.exp(log_mag) if log_mag <= _LOG_HUGE else math.inf
        terms.append(-mag if negative and k % 2 else mag)
        k += 1
    return math.fsum(terms)
