"""Independent references the output checks compare against.

Nothing here imports fracdde: the series solution, the root counter and the
equilibrium scan are written from the equations alone, so a defect in the
program cannot hide behind a shared code path.
"""

from __future__ import annotations

import math

import numpy as np

# A reference whose own rounding bound exceeds this is unusable for checking
# the stepper; the workload generator keeps every oracle job below it.
_SERIES_ERROR_LIMIT = 1e-8
_EPS = 2.0 ** -52

_PHASE_STEP = math.pi / 4
_MAX_REFINE = 40


def delayed_series(alpha: float, coef: float, tau: float, history: float, t: np.ndarray):
    """Exact solution of D^alpha x = coef * x(t - tau), x = history on t <= 0.

    The solution is the finite sum
        history * sum_k coef**k * max(t - (k-1)*tau, 0)**(k*alpha) / Gamma(k*alpha + 1),
    with about t/tau + 1 nonzero terms.  Returns the values at ``t`` and a
    bound on their rounding error (a few ulp of the sum of |terms|).
    """
    t = np.asarray(t, dtype=float)
    total = np.ones_like(t)
    magnitude = np.ones_like(t)
    log_coef = math.log(abs(coef))
    sign = -1.0 if coef < 0.0 else 1.0
    k = 1
    while True:
        base = t - (k - 1) * tau
        live = base > 0.0
        if not live.any():
            break
        log_term = np.full_like(t, -np.inf)
        log_term[live] = (
            k * log_coef + (k * alpha) * np.log(base[live]) - math.lgamma(k * alpha + 1.0)
        )
        term = np.exp(log_term)
        total += sign**k * term
        magnitude += term
        k += 1
    # Each term carries a relative error of a few ulp of its log-space
    # argument (at most ~60 here); summation adds k more ulp of the magnitude.
    error = magnitude * (64.0 + k) * _EPS * abs(history)
    return history * total, error


def series_error_ok(error: np.ndarray) -> bool:
    return float(np.max(error)) <= _SERIES_ERROR_LIMIT


def _characteristic(alpha: float, a: float, b: float, tau1: float, tau2: float, lam):
    return lam**alpha - a * np.exp(-lam * tau1) - b * np.exp(-lam * tau2)


def rhp_root_count(alpha: float, a: float, b: float, tau1: float, tau2: float) -> int:
    """Right-half-plane roots of lambda**alpha - a e^{-lambda tau1} - b e^{-lambda tau2}.

    Argument principle on the boundary of the right half-disc of radius R,
    traversed counterclockwise: the arc from -iR through R to iR, then the
    imaginary axis back down.  For Re(lambda) >= 0 the delay terms are at most
    |a| + |b| in modulus, so no root lies beyond R = 2 (|a|+|b|)**(1/alpha) + 1.
    The contour is refined until no phase step exceeds pi/4, so the winding
    number cannot alias.  Raises if a root sits on the contour.
    """
    radius = 2.0 * (abs(a) + abs(b)) ** (1.0 / alpha) + 1.0
    half = math.pi / 2
    # Parameter s runs over [-pi/2, pi/2] along the arc, then over
    # [pi/2, pi/2 + 2R] down the imaginary axis.
    span = half + 2.0 * radius
    oscillations = radius * max(tau1, tau2, 1.0)
    s = np.linspace(-half, span, int(max(512, 16 * oscillations)))

    def contour(s):
        on_arc = s <= half
        lam = np.empty(s.shape, dtype=complex)
        lam[on_arc] = radius * np.exp(1j * s[on_arc])
        lam[~on_arc] = 1j * (radius - (s[~on_arc] - half))
        return lam

    values = _characteristic(alpha, a, b, tau1, tau2, contour(s))
    for _ in range(_MAX_REFINE):
        if np.min(np.abs(values)) == 0.0:
            raise ArithmeticError("characteristic root on the contour")
        steps = np.angle(values[1:] / values[:-1])
        coarse = np.abs(steps) > _PHASE_STEP
        if not coarse.any():
            return int(round(float(np.sum(steps)) / (2.0 * math.pi)))
        mids = 0.5 * (s[:-1][coarse] + s[1:][coarse])
        s = np.sort(np.concatenate([s, mids]))
        values = _characteristic(alpha, a, b, tau1, tau2, contour(s))
    raise ArithmeticError("contour refinement did not converge; a root is near the contour")


def scan_roots(fun, lo: float, hi: float, points: int = 200_001) -> list[float]:
    """Roots of a scalar function on [lo, hi] by dense sign-change scan and bisection."""
    xs = np.linspace(lo, hi, points)
    ys = fun(xs)
    roots = []
    for i in np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) <= 0.0)[0]:
        left, right = float(xs[i]), float(xs[i + 1])
        f_left = float(fun(np.array([left]))[0])
        if f_left == 0.0:
            roots.append(left)
            continue
        for _ in range(200):
            mid = 0.5 * (left + right)
            if mid in (left, right):
                break
            f_mid = float(fun(np.array([mid]))[0])
            if (f_mid < 0.0) == (f_left < 0.0):
                left, f_left = mid, f_mid
            else:
                right = mid
        roots.append(0.5 * (left + right))
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-8 * max(1.0, abs(r)):
            merged.append(r)
    return merged
