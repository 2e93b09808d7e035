"""Independent reference solutions used only by the test suite.

A truncated Mittag-Leffler series and the closed-form series solution of the
linear single-delay problem.  Neither shares a code path with the time
stepper, which is what makes them oracles for its accuracy.

``direct_sum_stepper`` is the same product-trapezoidal scheme as
:func:`fracdde.simulate` with the memory sum formed by one full-length dot
product per step, O(N^2) in total: the reference for the fast memory sum.

``phase_columns`` builds the delay-embedded table of a trajectory at once:
the reference for the rows that ``fracdde simulate`` formats chunk by chunk.

``trapezoid_weights`` assembles one full quadrature row from the two weight
tables that the stepper reads: the reference for the weight identities.
``series_interior_weights`` sums all twelve series terms of the interior
weights at every offset: the reference for
:func:`fracdde.numerics.interior_weight_table`, which skips a term where it
cannot move the sum.

``scalar_equilibria`` scans and bisects one bracket at a time in Python
floats: the reference for :func:`fracdde.find_equilibria`, which refines
all brackets together by the Illinois method.  Both end on adjacent floats.
``_bisect`` bisects brackets all together in numpy arrays, and
``array_illinois`` is the Illinois method with its bracket state in numpy
arrays: the references for the Python-float refiner
:func:`fracdde.stability._illinois`.

``object_curve_points`` builds the crossing locus one :class:`CurvePoint`
at a time, chooses the branch sign pairs by an absolute residual filter
instead of the closed-form pairing, and sorts the points with a key
function: the reference for the columnar :func:`fracdde.curve_columns`,
whose rows :func:`curve_points` puts in the same order, at coefficients of
order one.  ``branches`` tabulates both delays on the arccos branches, and
``parametric_delays`` gives the raw delay pair of one frequency on one
branch from it.

``random_line_queries`` draws the fixed random set of line queries on which
the line search and the classify verdicts are measured, and
``wide_line_queries`` a fixed set over wider orders, coefficients and
lines.

The truths for the line search and :func:`fracdde.classify` come from the
characteristic function alone and import nothing from the package.
``characteristic_residual`` evaluates it at one point, so that a crossing
the line search returns can be checked to be a root.
``rhp_root_count`` counts the right-half-plane characteristic roots by the
argument principle: the truth for the count of :func:`fracdde.classify`,
which counts crossings instead.  On the diagonal tau1 = tau2 = tau the
problem has one delay with coefficient a + b, and
``diagonal_critical_delay`` is its stable range in closed form;
``diagonal_queries`` draws the fixed diagonal set.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, NamedTuple

import numpy as np

from fracdde import curve_columns
from fracdde.numerics import (
    corner_weight_table,
    interior_weight_table,
    order_value,
)
from fracdde.solver import (
    Grid,
    History,
    SystemRhs,
    Trajectory,
    _delayed,
)
from fracdde.stability import (
    _arccos,
    _band,
    _branch_labels,
    _delay,
    _require_nondegenerate,
    _residual,
    _resolve_search,
    _terms,
)

_ML_TERM_FLOOR = 1e-14
_ML_MAX_TERMS = 10_000
_ML_ARG_LIMIT = 50.0

# Just below log(sys.float_info.max); exp() of anything larger overflows.
_LOG_HUGE = 709.0


class NonConvergenceError(RuntimeError):
    """A series evaluation failed to converge within its term budget."""


def mittag_leffler(alpha: float, z: float) -> float:
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


def delayed_series_oracle(alpha: float, a: float, tau: float, t: float) -> float:
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


def phase_columns(traj: Trajectory) -> np.ndarray:
    """Delay-embedded view of a trajectory on the grid it ran on.

    Returns a float array with one row per computed grid time ``t >= 0`` and
    columns ``(t, x(t), x(t - tau1), x(t - tau2))``.  For a truncated run the
    rows stop at the last finite state.
    """
    grid = traj.grid
    rows = grid.n_steps + 1 if traj.truncated_at is None else traj.truncated_at
    k = grid.history_steps
    return np.column_stack(
        [
            np.arange(rows) * grid.h,
            traj.values[k : k + rows],
            _delayed(traj.values, k - grid.k1, grid.theta1, rows),
            _delayed(traj.values, k - grid.k2, grid.theta2, rows),
        ]
    )


def trapezoid_weights(alpha: float, n: int) -> np.ndarray:
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


def series_interior_weights(alpha: float, m_max: int) -> np.ndarray:
    """Interior weights for offsets ``8 .. m_max`` (``m_max >= 8``) from
    the first twelve terms of ``2 * sum_k C(beta, 2k) * m**(beta - 2k)``,
    ``beta = alpha + 1``, every term at every offset and added in order of
    k."""
    beta = order_value(alpha) + 1.0
    m = np.arange(8, m_max + 1, dtype=float)
    total = np.zeros_like(m)
    coeff = 1.0  # running binomial coefficient C(beta, j)
    j = 0
    for k in range(1, 13):
        while j < 2 * k:
            coeff *= (beta - j) / (j + 1)
            j += 1
        if coeff == 0.0:
            break
        total += coeff * m ** (beta - 2 * k)
    return 2.0 * total


def direct_sum_stepper(
    rhs: SystemRhs,
    alpha: float,
    grid: Grid,
    history: History,
) -> Trajectory:
    """Product-trapezoidal stepping with the memory sum taken directly.

    Step ``n`` costs one dot product of length ``n`` against the interior
    weight table, so the run is O(N^2).  A delay of ``ki + thetai`` steps
    reads ``x[j - ki] + thetai * (x[j - ki - 1] - x[j - ki])``.  It runs on
    ``grid``, the ``Trajectory.grid`` of a :func:`fracdde.simulate` run; the
    result and truncation contract are those of ``simulate``.
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

    def delayed(i: int, theta: float) -> float:
        now = float(x[i])
        return now + theta * (float(x[i - 1]) - now) if theta else now

    def rhs_at(j: int) -> float:
        # One scalar call per grid point, on built-in floats.  Their ** and
        # math functions raise OverflowError where IEEE arithmetic gives
        # inf; a diverging state is a truncation, not an exception.
        x1 = delayed(k + j - k1, grid.theta1)
        x2 = delayed(k + j - k2, grid.theta2)
        try:
            return float(rhs.g(x1, x2))
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
    return Trajectory(grid, x, truncated_at)


def scalar_equilibria(
    rhs: SystemRhs,
    bracket: tuple[float, float],
    resolution: int = 2001,
) -> list[float]:
    """Roots of g(x, x) by a per-sample scan and one bisection per sign change.

    Each bracket is bisected on its own until its midpoint rounds onto an
    end, so that it holds two adjacent floats, or until a midpoint is an
    exact zero; there is no tolerance on ``|g|``.  Unlike
    :func:`fracdde.find_equilibria` it keeps brackets that straddle a pole.
    Roots are sorted and merged within 1e-8 relative.
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
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = fun(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid


def _bisect(
    fun: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo, target: float, max_iter: int
) -> np.ndarray:
    """Bisect the sign-change brackets ``[lo, hi]`` of ``fun`` all together.

    ``fun`` maps arrays to arrays and ``f_lo`` is its value at ``lo``.  A
    midpoint with ``|fun| <= target`` collapses its bracket onto itself.
    Returns the bracket midpoints after ``max_iter`` steps, or sooner, once
    every midpoint rounds onto an end of its bracket.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        f_mid = fun(mid)
        hit = np.abs(f_mid) <= target
        below = (f_lo < 0.0) == (f_mid < 0.0)
        lo = np.where(below | hit, mid, lo)
        hi = np.where(below & ~hit, hi, mid)
        f_lo = np.where(below, f_mid, f_lo)
    return 0.5 * (lo + hi)


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


def locus_rows(columns) -> np.ndarray:
    """The rows of a :func:`fracdde.curve_columns` result as an ``(n, 8)``
    float array, in their own order, that of the ``fracdde curves`` CSV."""
    return np.column_stack([col.astype(float) for col in columns]).reshape(-1, 8)


def rescaled(alpha: float, coef: tuple[float, float], window: tuple[float, float]):
    """The same crossing problem in units where the window is centred on 1.

    With s the window's geometric centre, ``tau' = s*tau`` and ``v' = v/s``
    map the crossings of ``(a, b)`` onto those of ``(a, b)/s**alpha``.
    Returns ``(s, coef', window')``.
    """
    s = math.sqrt(window[0]) * math.sqrt(window[1])
    k = s ** alpha
    return s, (coef[0] / k, coef[1] / k), (window[0] / s, window[1] / s)


def assert_rescaled_locus(rows: np.ndarray, want: np.ndarray, s: float, rel: float) -> None:
    """``rows`` and ``want`` (as from :func:`locus_rows`) hold the same
    labels, and ``v/s``, ``s*tau1``, ``s*tau2`` agree within ``rel``."""
    assert rows.shape == want.shape
    assert (rows[:, 3:7] == want[:, 3:7]).all()
    scaled = rows[:, :3] * np.array([1.0 / s, s, s])
    assert (np.abs(scaled - want[:, :3]) <= rel * np.abs(want[:, :3])).all()


def parametric_delays(
    alpha: float,
    coef: tuple[float, float],
    v: float,
    sign1: int = 1,
    m1: int = 0,
    sign2: int = 1,
    m2: int = 0,
) -> tuple[float, float] | None:
    """Raw parametric delay pair at one frequency on one branch.

    Returns ``(tau1, tau2)`` from the package's arccos inversion
    (:func:`branches`) with branch signs in {-1, +1} and
    winding numbers m1, m2 >= 0, or None where either arccos argument falls
    outside [-1, 1] beyond rounding slack.  No filtering is applied: the
    returned delays may be negative and the pair need not solve the
    characteristic equation unless the branch signs are compatible with the
    coefficient signs.
    """
    al = order_value(alpha)
    a, b = map(float, coef)
    _require_nondegenerate(a, b)
    v = float(v)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"frequency must be positive and finite, got {v!r}")
    if sign1 not in (-1, 1) or sign2 not in (-1, 1):
        raise ValueError("branch signs must be -1 or +1")
    if m1 < 0 or m2 < 0:
        raise ValueError("winding numbers must be nonnegative")
    tau1, tau2, _ = branches(al, (a, b), np.array([v]), [(sign1, m1), (sign2, m2)])
    t1, t2 = float(tau1[0, 0]), float(tau2[1, 0])
    return None if math.isnan(t1) else (t1, t2)


def object_curve_points(
    alpha: float,
    coef: tuple[float, float],
    v_range: tuple[float, float] | None = None,
    samples: int = 2000,
    max_branch: int = 8,
    residual_tol: float = 1e-9,
) -> list[CurvePoint]:
    """The crossing locus built point by point and sorted by a key function.

    Same samples and branch delays as :func:`fracdde.curve_columns`, but
    every branch sign pair is formed, and a point is kept when both delays
    are nonnegative and its residual is at most ``residual_tol``.  Where the
    coefficients are of order one this absolute filter keeps exactly the
    pairs that the closed-form sign rule keeps.  Every accepted point
    becomes one object as soon as it is found, and the list is sorted by
    ``(v, m1, sign1, m2, sign2)`` at the end.
    """
    al = order_value(alpha)
    a, b = map(float, coef)
    _require_nondegenerate(a, b)
    lo, hi = _resolve_search(al, a, b, v_range)
    residual_tol = float(residual_tol)

    vs = np.linspace(lo, hi, samples)
    labels = _branch_labels(max_branch)
    tau1, tau2, va = branches(al, (a, b), vs, labels)
    inside = ~np.isnan(tau1[0])
    vs, tau1, tau2, va = vs[inside], tau1[:, inside], tau2[:, inside], va[inside]
    ok2 = tau2 >= 0.0
    points: list[CurvePoint] = []
    for r1, t1 in enumerate(tau1):
        ok1 = t1 >= 0.0
        if not ok1.any():
            continue
        residual = _residual(al, va, _terms(a, vs, t1), _terms(b, vs, tau2))
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


def branches(al: float, coef: tuple[float, float], v: np.ndarray, labels):
    """Both delays on the arccos branches ``labels`` at the frequencies ``v``
    of the coefficients ``coef = (a, b)``.

    Returns ``(tau1, tau2, va)``: one row per branch (sign, m) in
    ``labels``, one column per entry of the 1-d array ``v``, and
    ``va = v**alpha``; a delay is ``(sign*arccos(arg) - alpha*pi/2 +
    2*pi*m) / v``, and both are NaN outside the crossing band.
    """
    a1, a2, outside, va = _band(al, *coef, v)
    sign, m = np.array(labels, dtype=float).T[:, :, None]
    half = 0.5 * math.pi * al
    th1, th2 = (np.where(outside, np.nan, _arccos(arg)) for arg in (a1, a2))
    tau1, tau2 = (_delay(half, th, v, sign, m) for th in (th1, th2))
    return tau1, tau2, va


def array_illinois(fun, lo, hi, f_lo, f_hi, max_iter: int) -> np.ndarray:
    """The Illinois refiner of :func:`fracdde.stability._illinois` on numpy arrays.

    Every bracket's state is an array entry and every update is one
    ``np.where`` across all brackets; a NaN or infinite falsi point, which
    is what a zero ``f_lo - f_hi`` gives here, steps to the midpoint, and
    one on an end steps to that end's neighbour.  A kept value that would
    halve to zero stays as it is.  ``fun`` sees every bracket at every
    step; a bracket with no float inside reads as an exact zero at its
    step, its midpoint, and collapses onto the midpoint it returned
    already.  The package refiner does not evaluate such a bracket.
    """
    width = hi - lo
    age = np.zeros(len(lo), dtype=int)
    kept_hi = np.zeros(len(lo), dtype=bool)
    for step in range(max_iter):
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        with np.errstate(all="ignore"):
            x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        x = np.where(x == lo, np.nextafter(lo, hi), np.where(x == hi, np.nextafter(hi, lo), x))
        x = np.where((lo < x) & (x < hi) & (age < 3), x, mid)
        f = np.where(live, fun(x), 0.0)
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


def random_line_queries() -> list[tuple[float, float, float, float, float]]:
    """The random set: 312 line queries ``(alpha, a, b, tau1, tau2)``.

    ``random.Random(7)`` draws each candidate's alpha on [0.3, 1], then a
    and b on [-5, 5], then tau1 and tau2 on [0, 4]; a candidate is kept only
    if |a|, |b| >= 0.05 and a + b < -1e-3 (stable at zero delays), until 312
    are kept.
    """
    rng = random.Random(7)
    queries = []
    while len(queries) < 312:
        alpha = rng.uniform(0.3, 1.0)
        a, b = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        tau1, tau2 = rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)
        if min(abs(a), abs(b)) >= 0.05 and a + b < -1e-3:
            queries.append((alpha, a, b, tau1, tau2))
    return queries


def wide_line_queries() -> list[tuple[float, float, float, float]]:
    """The wide set: 40 line queries ``(alpha, a, b, tau1)``.

    ``random.Random(30)`` draws each candidate's alpha on [0.2, 1], a on
    [-10, -0.05] or [0.05, 10], b on [-30, -0.05] or [0.05, 10], and t on
    [0, 1], with tau1 = t*min(40, 300*2*pi/v_top) and v_top = (|a| +
    |b|)**(1/alpha): at most 300 windings of the band's upper edge.  A
    candidate is kept if a + b < -1e-6 and 16*R*max(tau1, 1) <= 4e5 with R
    = 2*v_top + 1, the radius of :func:`rhp_root_count`, until 40 are
    kept.  That bound refuses two candidates, (alpha, |a| + |b|) about
    (0.30, 22) and (0.36, 29); the smallest alpha kept is 0.26.
    """
    rng = random.Random(30)
    queries = []
    while len(queries) < 40:
        alpha = rng.uniform(0.2, 1.0)
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 10.0)
        b = rng.choice((-rng.uniform(0.05, 30.0), rng.uniform(0.05, 10.0)))
        t = rng.uniform(0.0, 1.0)
        v_top = (abs(a) + abs(b)) ** (1.0 / alpha)
        tau1 = t * min(40.0, 300 * 2.0 * math.pi / v_top)
        if a + b < -1e-6 and 16.0 * (2.0 * v_top + 1.0) * max(tau1, 1.0) <= 4e5:
            queries.append((alpha, a, b, tau1))
    return queries


def characteristic_residual(
    alpha: float, a: float, b: float, tau1: float, tau2: float, lam: complex
) -> complex:
    """lambda**alpha - a*exp(-lambda*tau1) - b*exp(-lambda*tau2) at ``lam``.

    The principal branch of the complex power, in Python's complex
    arithmetic.  A characteristic root makes it zero, and its modulus
    measures how far a candidate is from being one.
    """
    lam = complex(lam)
    return lam**alpha - a * cmath.exp(-lam * tau1) - b * cmath.exp(-lam * tau2)


_PHASE_STEP = math.pi / 4
_MAX_REFINE = 40


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
    # Down the axis the delay terms turn by up to R*max(tau1, tau2) radians;
    # the refinement below resolves whatever else turns between samples.
    oscillations = radius * max(tau1, tau2)
    s = np.linspace(-half, span, int(max(512, 16 * oscillations)))

    def contour(s):
        on_arc = s <= half
        lam = np.empty(s.shape, dtype=complex)
        lam[on_arc] = radius * np.exp(1j * s[on_arc])
        lam[~on_arc] = 1j * (radius - (s[~on_arc] - half))
        return lam

    def characteristic(lam):
        return lam**alpha - a * np.exp(-lam * tau1) - b * np.exp(-lam * tau2)

    values = characteristic(contour(s))
    for _ in range(_MAX_REFINE):
        if np.min(np.abs(values)) == 0.0:
            raise ArithmeticError("characteristic root on the contour")
        steps = np.angle(values[1:] / values[:-1])
        coarse = np.abs(steps) > _PHASE_STEP
        if not coarse.any():
            return int(round(float(np.sum(steps)) / (2.0 * math.pi)))
        mids = 0.5 * (s[:-1][coarse] + s[1:][coarse])
        # Evaluate only the new points; the function is elementwise.
        order = np.argsort(np.concatenate([s, mids]), kind="stable")
        s = np.concatenate([s, mids])[order]
        values = np.concatenate([values, characteristic(contour(mids))])[order]
    raise ArithmeticError("contour refinement did not converge; a root is near the contour")


def diagonal_critical_delay(alpha: float, a: float, b: float) -> float:
    """tau* = pi*(1 - alpha/2) / |a + b|**(1/alpha), for a + b < 0.

    On tau1 = tau2 = tau the characteristic function is lambda**alpha - (a +
    b)*exp(-lambda*tau).  Its roots reach the imaginary axis only at v =
    |a + b|**(1/alpha), first at tau*, where they cross to the right; so
    the point is stable exactly for tau < tau*.
    """
    return math.pi * (1.0 - 0.5 * alpha) / abs(a + b) ** (1.0 / alpha)


def diagonal_queries() -> list[tuple[float, float, float, float]]:
    """The diagonal set: 278 queries ``(alpha, a, b, tau)`` at tau1 = tau2 = tau.

    ``random.Random(11)`` draws alpha on [0.3, 1], then a and b on [-5, 5];
    a draw with |a| or |b| below 0.05, or with a + b >= -0.05, is redrawn.
    Of 300 such draws, those with tau* = :func:`diagonal_critical_delay`
    above 10 are skipped; otherwise tau is drawn on [0, 3*tau*], and the
    draw is skipped if |tau - tau*| < 1e-4.  99 of the 278 kept have tau <
    tau*.
    """
    rng = random.Random(11)
    queries = []
    for _ in range(300):
        alpha, a, b = rng.uniform(0.3, 1.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        while min(abs(a), abs(b)) < 0.05 or a + b >= -0.05:
            alpha, a, b = rng.uniform(0.3, 1.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        star = diagonal_critical_delay(alpha, a, b)
        if star > 10.0:
            continue
        tau = rng.uniform(0.0, 3.0 * star)
        if abs(tau - star) >= 1e-4:
            queries.append((alpha, a, b, tau))
    return queries
