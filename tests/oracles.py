"""Independent reference solutions used only by the test suite.

A truncated Mittag-Leffler series and the closed-form series solution of the
linear single-delay problem.  Neither shares a code path with the time
stepper, which is what makes them oracles for its accuracy.

``direct_sum_stepper`` is the same product-trapezoidal scheme as
:func:`fracdde.simulate` with the memory sum formed by one full-length dot
product per step, O(N^2) in total: the reference for the fast memory sum.

``trapezoid_weights`` assembles one full quadrature row from the two weight
tables that the stepper reads: the reference for the weight identities.

``scalar_equilibria`` scans and bisects one bracket at a time in Python
floats: the reference for the batched bisection of
:func:`fracdde.find_equilibria`.

``object_curve_points`` builds the crossing locus one :class:`CurvePoint`
at a time and sorts it with a key function: the reference for the columnar
:func:`fracdde.curve_columns`, whose rows :func:`curve_points` puts in the
same order.  ``parametric_delays`` gives the raw delay pair of one
frequency on one branch, from the package's branch formulas.

``bisect_line_search`` bisects every bracket of the tau1 line search in
numpy arrays: the reference for the Illinois refiner of
:func:`fracdde.critical_tau2_for_tau1`.  ``tau1_branches`` is the tau1
table that both line-search references sample.

``table_line_search`` samples every branch up to ``max_branch``, including
those whose range cannot reach the line, takes companions on every
winding, and runs the Illinois refiner with its bracket state in numpy
arrays: the bitwise reference for the pruned table, the two companion
windings and the Python-float refiner of
:func:`fracdde.critical_tau2_for_tau1`.  ``reach`` is the largest winding
number whose tau1 branch can meet a line, from the closed-form band.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from fracdde import LinearCoefficients, curve_columns
from fracdde.numerics import (
    FractionalOrder,
    corner_weight_table,
    interior_weight_table,
    order_value,
)
from fracdde.solver import (
    CommensurateGrid,
    History,
    SystemRhs,
    Trajectory,
)
from fracdde.stability import (
    _RESIDUAL_TOL,
    StabilityVerdict,
    _band,
    _band_edges,
    _bisect,
    _branch_delay,
    _branch_labels,
    _branches,
    _require_nondegenerate,
    _residual,
    _resolve_search,
    _sign_change,
    _tau2_terms,
    stable_at_zero_delay,
)

_ML_TERM_FLOOR = 1e-14
_ML_MAX_TERMS = 10_000
_ML_ARG_LIMIT = 50.0

# Just below log(sys.float_info.max); exp() of anything larger overflows.
_LOG_HUGE = 709.0


class NonConvergenceError(RuntimeError):
    """A series evaluation failed to converge within its term budget."""


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


def trapezoid_weights(alpha: FractionalOrder | float, n: int) -> np.ndarray:
    """Full product-trapezoidal quadrature row for the step to index ``n+1``.

    Returns the ``n+2`` weights ``a[j, n+1]`` for ``j = 0..n+1``.  The row
    always ends in the trailing weight 1, sums to
    ``(alpha+1) * (n+1)**alpha``, and at ``alpha == 1`` equals the classical
    pattern ``1, 2, ..., 2, 1``.  The stepper reads the two weight tables
    directly, so that its work per step stays linear, and never forms a row.
    """
    a = order_value(alpha)
    n = int(n)
    if n < 0:
        raise ValueError("step index must be nonnegative")
    row = np.empty(n + 2, dtype=float)
    row[0] = corner_weight_table(a, n)[n]
    if n >= 1:
        interior = interior_weight_table(a, n)
        row[1 : n + 1] = interior[n:0:-1]
    row[n + 1] = 1.0
    return row


def direct_sum_stepper(
    rhs: SystemRhs,
    alpha: FractionalOrder | float,
    grid: CommensurateGrid,
    history: History,
) -> Trajectory:
    """Product-trapezoidal stepping with the memory sum taken directly.

    Step ``n`` costs one dot product of length ``n`` against the interior
    weight table, so the run is O(N^2).  Arguments, result and truncation
    contract are those of :func:`fracdde.simulate`.
    """
    al = order_value(alpha)
    k1, k2, n_total = grid.k1, grid.k2, grid.n_steps
    k = grid.history_steps
    h = grid.h
    x = np.empty(n_total + k + 1, dtype=float)
    for j in range(-k, 1):
        value = float(history(j * h) if callable(history) else history)
        if not math.isfinite(value):
            raise ValueError(f"history is not finite at t = {j * h:g}")
        x[j + k] = value
    phi0 = x[k]

    interior = interior_weight_table(al, max(n_total, 1))
    corner = corner_weight_table(al, n_total)
    c = h ** al / math.gamma(al + 2.0)

    def rhs_at(j: int) -> float:
        # One scalar call per grid point, on built-in floats.  Their ** and
        # math functions raise OverflowError where IEEE arithmetic gives
        # inf; a diverging state is a truncation, not an exception.
        try:
            return float(rhs.g(float(x[k + j - k1]), float(x[k + j - k2])))
        except OverflowError:
            return math.inf

    f = np.empty(n_total + 1, dtype=float)
    f[0] = rhs_at(0)
    truncated_at: int | None = None
    # Overflow to inf is the expected signal of a diverging trajectory and
    # is handled below, so numpy must not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_total):
            j = n + 1
            f[j] = rhs_at(j)
            s = corner[n] * f[0] + f[j]
            if n >= 1:
                # f[n:0:-1] pairs f[n] with offset 1, down to f[1] with offset n.
                s += float(np.dot(interior[1 : n + 1], f[n:0:-1]))
            value = phi0 + c * s
            if not math.isfinite(value):
                truncated_at = j
                x[k + j :] = np.nan
                break
            x[k + j] = value
    return Trajectory(h=h, history_steps=k, values=x, truncated_at=truncated_at)


def scalar_equilibria(
    rhs: SystemRhs,
    bracket: tuple[float, float],
    resolution: int = 2001,
) -> list[float]:
    """Roots of g(x, x) by a per-sample scan and one bisection per sign change.

    Each bracket is bisected on its own until ``|g| <= 1e-12``, for at most
    200 steps, or until its midpoint rounds onto an end; then the sample
    with the smallest ``|g|`` stands in.  Unlike :func:`fracdde.find_equilibria`
    it keeps brackets that straddle a pole.  Roots are sorted and merged
    within 1e-8 relative.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    fun = lambda x: float(rhs.g(float(x), float(x)))
    xs = np.linspace(lo, hi, resolution)
    vals = np.array([fun(x) for x in xs])
    roots: list[float] = []
    for i in range(resolution - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(_bisect_scalar(fun, float(xs[i]), float(xs[i + 1]), float(vals[i])))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-8 * max(1.0, abs(r)):
            continue
        merged.append(r)
    return merged


def _bisect_scalar(fun, lo: float, hi: float, f_lo: float) -> float:
    best_x, best_f = lo, abs(f_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = fun(mid)
        if abs(f_mid) < best_f:
            best_x, best_f = mid, abs(f_mid)
        if abs(f_mid) <= 1e-12:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return best_x


class CurvePoint(NamedTuple):
    """One point of the crossing locus: a row of :func:`fracdde.curve_columns`."""

    v: float
    tau1: float
    tau2: float
    sign1: int
    m1: int
    sign2: int
    m2: int
    residual: float


def curve_points(alpha, coef, **kwargs) -> list[CurvePoint]:
    """The rows of :func:`fracdde.curve_columns` as :class:`CurvePoint`
    objects, sorted by ``(v, m1, sign1, m2, sign2)`` as
    :func:`object_curve_points` sorts its points."""
    columns = curve_columns(alpha, coef, **kwargs)
    order = np.lexsort((columns.sign2, columns.m2, columns.sign1, columns.m1, columns.v))
    return list(map(CurvePoint, *(col[order].tolist() for col in columns)))


def parametric_delays(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    v: float,
    sign1: int = 1,
    m1: int = 0,
    sign2: int = 1,
    m2: int = 0,
) -> tuple[float, float] | None:
    """Raw parametric delay pair at one frequency on one branch.

    Returns ``(tau1, tau2)`` from the package's arccos inversion
    (``fracdde.stability._branches``) with branch signs in {-1, +1} and
    winding numbers m1, m2 >= 0, or None where either arccos argument falls
    outside [-1, 1] beyond rounding slack.  No filtering is applied: the
    returned delays may be negative and the pair need not solve the
    characteristic equation unless the branch signs are compatible with the
    coefficient signs.
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    v = float(v)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"frequency must be positive and finite, got {v!r}")
    if sign1 not in (-1, 1) or sign2 not in (-1, 1):
        raise ValueError("branch signs must be -1 or +1")
    if m1 < 0 or m2 < 0:
        raise ValueError("winding numbers must be nonnegative")
    tau1, tau2, _ = _branches(al, c, np.array([v]), [(sign1, m1), (sign2, m2)])
    t1, t2 = float(tau1[0, 0]), float(tau2[1, 0])
    return None if math.isnan(t1) else (t1, t2)


def object_curve_points(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    v_range: tuple[float, float] | None = None,
    samples: int = 2000,
    max_branch: int = 8,
    residual_tol: float = 1e-9,
) -> list[CurvePoint]:
    """The crossing locus built point by point and sorted by a key function.

    Same samples, branch delays and residual filter as
    :func:`fracdde.curve_columns`; every accepted point becomes one object
    as soon as it is found, and the list is sorted by
    ``(v, m1, sign1, m2, sign2)`` at the end.
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    lo, hi, samples = _resolve_search(al, c, v_range, samples)
    residual_tol = float(residual_tol)

    vs = np.linspace(lo, hi, samples)
    labels = _branch_labels(max_branch)
    tau1, tau2, va = _branches(al, c, vs, labels)
    inside = ~np.isnan(tau1[0])
    vs, tau1, tau2, va = vs[inside], tau1[:, inside], tau2[:, inside], va[inside]
    ok2 = tau2 >= 0.0
    points: list[CurvePoint] = []
    for r1, t1 in enumerate(tau1):
        ok1 = t1 >= 0.0
        if not ok1.any():
            continue
        residual = _residual(al, c, vs, t1, _tau2_terms(c, vs, tau2), va)
        r2s, cols = np.nonzero(ok1 & ok2 & (residual <= residual_tol))
        points.extend(
            CurvePoint(v, t1_i, t2_i, *labels[r1], *labels[r2], res)
            for v, t1_i, t2_i, r2, res in zip(
                vs[cols].tolist(),
                t1[cols].tolist(),
                tau2[r2s, cols].tolist(),
                r2s.tolist(),
                residual[r2s, cols].tolist(),
            )
        )
    points.sort(key=lambda p: (p.v, p.m1, p.sign1, p.m2, p.sign2))
    return points


def bisect_line_search(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    tau1: float,
    v_range: tuple[float, float] | None = None,
    samples: int = 2000,
    max_branch: int = 8,
) -> float | None:
    """Smallest valid tau2 on the line tau1 = const, refined by bisection.

    Same samples, brackets, exact-sample crossings and companion validation
    as :func:`fracdde.critical_tau2_for_tau1`, with companions on every
    winding up to ``max_branch``; every bracket is bisected for at most 90
    steps on its own branch, in numpy arrays.
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    q = float(tau1)
    if stable_at_zero_delay(c) is not StabilityVerdict.STABLE_AT_ZERO_DELAYS:
        raise ValueError("the crossing search requires coefficients stable at zero delays")
    lo, hi, samples = _resolve_search(al, c, v_range, samples)

    edges = [abs(abs(c.a) - abs(c.b)) ** (1.0 / al), (abs(c.a) + abs(c.b)) ** (1.0 / al)]
    vs = np.union1d(np.linspace(lo, hi, samples), [e for e in edges if lo < e < hi])
    labels = _branch_labels(max_branch)
    sign, m = np.array(labels, dtype=float).T
    y = _branches(al, c, vs, labels)[0] - q
    rows, cols = np.nonzero(_sign_change(y[:, :-1], y[:, 1:]))
    line = lambda v: tau1_branches(al, c, v, sign[rows], m[rows]) - q
    v_cross = _bisect(line, vs[cols], vs[cols + 1], y[rows, cols], 0.0, 90)
    exact_rows, exact_cols = np.nonzero(y == 0.0)
    v_star = np.concatenate([vs[exact_cols], v_cross])
    row_star = np.concatenate([exact_rows, rows])
    tau1_star, tau2_star, va = _branches(al, c, v_star, labels)
    t1 = tau1_star[row_star, np.arange(len(v_star))]
    residual = _residual(al, c, v_star, t1, _tau2_terms(c, v_star, tau2_star), va)
    ok = (tau2_star >= 0.0) & (residual <= _RESIDUAL_TOL)
    return float(tau2_star[ok].min()) if ok.any() else None


def tau1_branches(al: float, c: LinearCoefficients, v, sign, m):
    """tau1 on the branches (sign, m), broadcast against ``v`` as in
    ``fracdde.stability._branch_delay``: the table of the line search."""
    a1, _, outside, _ = _band(al, c, v)
    return _branch_delay(al, a1, outside, v, sign, m)


def reach(alpha, coef, tau1: float, v_range: tuple[float, float] | None = None) -> int:
    """Largest winding number m whose tau1 branch can meet the line tau1 = const.

    With the arccos in [0, pi], ``tau1 = (sign*theta - alpha*pi/2 + 2*pi*m)/v``
    needs ``2*pi*m <= tau1*v + pi*(1 + alpha/2)``, and v is at most the upper
    band edge ``(|a| + |b|)**(1/alpha)`` and the window's upper end.
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    v_top = min(_band_edges(al, c)[1], _resolve_search(al, c, v_range, 2)[1])
    return math.floor((tau1 * v_top + math.pi * (1.0 + 0.5 * al)) / (2.0 * math.pi))


def table_line_search(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    tau1: float,
    v_range: tuple[float, float] | None = None,
    samples: int = 2000,
    max_branch: int = 8,
) -> float | None:
    """Smallest valid tau2 on the line tau1 = const from the full branch table.

    Same samples, brackets, exact-sample crossings, refiner iterates and
    companion validation as :func:`fracdde.critical_tau2_for_tau1`, so the
    two agree bitwise once ``max_branch`` is at least :func:`reach`; the
    tau1 table holds every branch (sign, m), the companions every winding
    up to ``max_branch``, and :func:`array_illinois` refines the brackets.
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    q = float(tau1)
    if stable_at_zero_delay(c) is not StabilityVerdict.STABLE_AT_ZERO_DELAYS:
        raise ValueError("the crossing search requires coefficients stable at zero delays")
    lo, hi, samples = _resolve_search(al, c, v_range, samples)

    edges = [e for e in _band_edges(al, c) if lo < e < hi]
    vs = np.union1d(np.linspace(lo, hi, samples), edges)
    sign, m = np.array(_branch_labels(max_branch), dtype=float).T
    y = tau1_branches(al, c, vs, sign[:, None], m[:, None]) - q
    rows, cols = np.nonzero(_sign_change(y[:, :-1], y[:, 1:]))
    row_sign, row_m = sign[rows], m[rows]
    line = lambda v: tau1_branches(al, c, v, row_sign, row_m) - q
    v_cross = array_illinois(line, vs[cols], vs[cols + 1], y[rows, cols], y[rows, cols + 1], 360)
    exact_rows, exact_cols = np.nonzero(y == 0.0)
    v_star = np.concatenate([vs[exact_cols], v_cross])
    row_star = np.concatenate([exact_rows, rows])
    a1, a2, outside, va = _band(al, c, v_star)
    t1 = _branch_delay(al, a1, outside, v_star, sign[row_star], m[row_star])
    tau2_star = _branch_delay(al, a2, outside, v_star, sign[:, None], m[:, None])
    residual = _residual(al, c, v_star, t1, _tau2_terms(c, v_star, tau2_star), va)
    ok = (tau2_star >= 0.0) & (residual <= _RESIDUAL_TOL)
    return float(tau2_star[ok].min()) if ok.any() else None


def array_illinois(fun, lo, hi, f_lo, f_hi, max_iter: int) -> np.ndarray:
    """The Illinois refiner of :func:`fracdde.stability._illinois` on numpy arrays.

    Every bracket's state is an array entry and every update is one
    ``np.where`` across all brackets; a NaN or infinite falsi point, which
    is what a zero ``f_lo - f_hi`` gives here, steps to the midpoint.  A
    kept value that would halve to zero stays as it is.
    """
    width = hi - lo
    age = np.zeros(len(lo), dtype=int)
    kept_hi = np.zeros(len(lo), dtype=bool)
    for step in range(max_iter):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        with np.errstate(all="ignore"):
            x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        x = np.where((lo < x) & (x < hi) & (age < 3), x, mid)
        f = fun(x)
        hit = f == 0.0
        below = (f_lo < 0.0) == (f < 0.0)
        lo = np.where(below | hit, x, lo)
        hi = np.where(below & ~hit, hi, x)
        scale = np.where((below == kept_hi) & (step > 0), 0.5, 1.0)
        halve = lambda kept: np.where(scale * kept != 0.0, scale * kept, kept)
        f_lo, f_hi = np.where(below, f, halve(f_lo)), np.where(below, halve(f_hi), f)
        kept_hi = below
        halved = hi - lo <= 0.5 * width
        width = np.where(halved, hi - lo, width)
        age = np.where(halved, 0, age + 1)
    return 0.5 * (lo + hi)
