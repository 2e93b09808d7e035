"""Equilibrium analysis and delay-plane stability boundaries.

Near an equilibrium x* of D^alpha x(t) = g(x(t - tau1), x(t - tau2)) the
dynamics are governed by the linearization with coefficients
a = d g/d x1 and b = d g/d x2 at (x*, x*), whose characteristic function is

    lambda**alpha - a*exp(-lambda*tau1) - b*exp(-lambda*tau2).

With zero delays the equilibrium is asymptotically stable iff a + b < 0.
As the delays grow, stability can only be lost through a purely imaginary
characteristic root lambda = i*v with v > 0.  Splitting that condition into
real and imaginary parts and eliminating the trigonometric unknowns yields,
for each crossing frequency v, arccos expressions for the two delays; these
trace parametric curves in the (tau1, tau2) plane whose lowest branch bounds
the region, attached to the origin, where stability persists.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateCoefficientsError
from .numerics import FractionalOrder, order_value
from .solver import DelayPair, SystemRhs, _as_delays

__all__ = [
    "StabilityVerdict",
    "LinearCoefficients",
    "CurveColumns",
    "find_equilibria",
    "linearize",
    "stable_at_zero_delay",
    "characteristic_residual",
    "default_v_window",
    "curve_columns",
    "critical_tau2_for_tau1",
    "classify",
]

# Arccos arguments may stick out of [-1, 1] by this much before the sample
# is discarded; the excess is pure rounding at the window edges.
_CLAMP_SLACK = 1e-12

# A parametric point is accepted only if both defining equations hold this
# tightly when evaluated from the final float delays.
_RESIDUAL_TOL = 1e-9

_ZERO_SUM_TOL = 1e-12
_EQUILIBRIUM_TOL = 1e-12
_FD_BASE_STEP = 1e-6

_DEFAULT_SAMPLES = 2000
_DEFAULT_MAX_BRANCH = 8
_TWO_PI = 2.0 * math.pi


class StabilityVerdict(str, enum.Enum):
    """Outcome labels for equilibrium classification."""

    STABLE_AT_ZERO_DELAYS = "StableAtZeroDelays"
    UNSTABLE_AT_ZERO_DELAYS = "UnstableAtZeroDelays"
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    ON_BOUNDARY = "OnBoundary"


@dataclass(frozen=True)
class LinearCoefficients:
    """Partial derivatives (a, b) of the right-hand side at an equilibrium."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def _as_coef(coef: LinearCoefficients | tuple[float, float]) -> LinearCoefficients:
    if isinstance(coef, LinearCoefficients):
        return coef
    a, b = coef
    return LinearCoefficients(float(a), float(b))


def _require_nondegenerate(coef: LinearCoefficients | tuple[float, float]) -> LinearCoefficients:
    c = _as_coef(coef)
    if c.a == 0.0 or c.b == 0.0:
        raise DegenerateCoefficientsError(
            f"crossing curves require both coefficients nonzero, got a={c.a}, b={c.b}; "
            "a vanishing coefficient reduces the problem to a single delay"
        )
    return c


class CurveColumns(NamedTuple):
    """The columns of :func:`curve_columns`, in the ``fracdde curves`` CSV order."""

    v: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    sign1: np.ndarray
    m1: np.ndarray
    sign2: np.ndarray
    m2: np.ndarray
    residual: np.ndarray


def find_equilibria(
    rhs: SystemRhs,
    bracket: tuple[float, float],
    resolution: int = 2001,
) -> list[float]:
    """Locate roots of g(x, x) inside a bracket by scan plus bisection.

    The bracket is sampled at ``resolution`` uniformly spaced points.  Every
    exact zero sample is a root.  All sign changes are refined together by
    bisection, each until ``|g(x, x)| <= 1e-12`` or until its bracket
    collapses onto adjacent floats.  A refined point where ``|g|`` exceeds
    its value at both scan ends is a pole, not a root, and is dropped.
    Roots closer together than the scan spacing can be missed; raise the
    resolution for wildly oscillatory right-hand sides.  ``g`` is called
    with floats only.  Returns the roots sorted increasingly, duplicates
    merged.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bracket must be a finite increasing pair, got {bracket!r}")
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    fun = lambda xs: np.array([float(rhs.g(x, x)) for x in xs.tolist()])
    xs = np.linspace(lo, hi, resolution)
    vals = fun(xs)
    i = np.flatnonzero(_sign_change(vals[:-1], vals[1:]))
    refined = _bisect(fun, xs[i], xs[i + 1], vals[i], _EQUILIBRIUM_TOL, 200)
    size = np.abs(fun(refined))
    pole = (size > np.abs(vals[i])) & (size > np.abs(vals[i + 1]))
    roots = sorted(np.concatenate([xs[vals == 0.0], refined[~pole]]).tolist())
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-8 * max(1.0, abs(r)):
            continue
        merged.append(r)
    return merged


def _sign_change(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where ``a`` and ``b`` have strictly opposite signs, elementwise.

    Compares signs rather than testing ``a * b < 0``, whose product
    underflows to zero for tiny values and overflows for huge ones.  Zeros
    and NaNs are never a sign change.
    """
    return ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))


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


def _illinois(
    fun: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo, f_hi, max_iter: int
) -> np.ndarray:
    """Refine the sign-change brackets ``[lo, hi]`` of ``fun`` all together.

    ``fun`` maps arrays to arrays; ``f_lo`` and ``f_hi`` are its values at
    the bracket ends.  Each step evaluates ``fun`` once, at the regula falsi
    point of every bracket, which replaces the end whose value has its
    sign.  When the same end is kept twice in a row, the value stored
    there is halved (the Illinois method; Dowell & Jarratt, BIT 11 (1971)
    168-174), so a far end with a large value cannot pin the falsi point;
    a value that would halve to zero is kept as it is.
    A bracket steps to its midpoint instead when the falsi point is NaN or
    not strictly inside it (a zero ``f_lo - f_hi`` included), or when its
    width has not halved within the last 3 steps, so it needs at most four
    times bisection's step count.  An exact zero collapses its bracket onto
    itself.  Stops as :func:`_bisect` does: after ``max_iter`` steps, or
    sooner, once every midpoint rounds onto an end of its bracket.  Returns
    the bracket midpoints.

    The bracket state lives in Python floats, which round as float64 arrays
    do: a line search refines only a few brackets, and numpy's per-call
    overhead on arrays that short would cost more than the step's one
    evaluation of ``fun``.
    """
    lo, hi, f_lo, f_hi = np.array([lo, hi, f_lo, f_hi], dtype=float).tolist()
    width = [b - a for a, b in zip(lo, hi)]
    age = [0] * len(lo)
    kept_hi = [False] * len(lo)
    for step in range(max_iter):
        xs = []
        settled = True
        for a, b, fa, fb, n in zip(lo, hi, f_lo, f_hi, age):
            mid = 0.5 * (a + b)
            settled = settled and (mid == a or mid == b)
            d = fa - fb
            x = a + (b - a) * (fa / d) if d != 0.0 else mid
            xs.append(x if a < x < b and n < 3 else mid)
        if settled:
            break
        for i, (x, f) in enumerate(zip(xs, fun(np.array(xs)).tolist())):
            below = (f_lo[i] < 0.0) == (f < 0.0)
            scale = 0.5 if below == kept_hi[i] and step > 0 else 1.0
            kept = f_hi[i] if below else f_lo[i]
            # A subnormal value would halve to +-0 and lose its sign.
            kept = scale * kept or kept
            if below:
                lo[i], f_lo[i], f_hi[i] = x, f, kept
            else:
                hi[i], f_lo[i], f_hi[i] = x, kept, f
            if f == 0.0:
                lo[i] = hi[i] = x
            kept_hi[i] = below
            if hi[i] - lo[i] <= 0.5 * width[i]:
                width[i], age[i] = hi[i] - lo[i], 0
            else:
                age[i] += 1
    return np.array([0.5 * (a + b) for a, b in zip(lo, hi)])


def linearize(rhs: SystemRhs, x_star: float) -> LinearCoefficients:
    """Coefficients (a, b) of the linearization at an equilibrium.

    Analytic partials attached to the right-hand side are used when present.
    A missing slot falls back to a central difference with one Richardson
    extrapolation step, which is accurate to roughly 1e-9 relative for
    smooth right-hand sides at moderately sized equilibria.
    """
    x = float(x_star)
    if not math.isfinite(x):
        raise ValueError(f"equilibrium must be finite, got {x_star!r}")
    if rhs.dg_dx1 is not None:
        a = float(rhs.dg_dx1(x, x))
    else:
        a = _numeric_partial(rhs.g, x, slot=0)
    if rhs.dg_dx2 is not None:
        b = float(rhs.dg_dx2(x, x))
    else:
        b = _numeric_partial(rhs.g, x, slot=1)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"linearization is not finite at x = {x}: a={a}, b={b}")
    return LinearCoefficients(a, b)


def _numeric_partial(g: Callable[[float, float], float], x: float, slot: int) -> float:
    d = max(_FD_BASE_STEP, _FD_BASE_STEP * abs(x))

    def central(step: float) -> float:
        if slot == 0:
            return (float(g(x + step, x)) - float(g(x - step, x))) / (2.0 * step)
        return (float(g(x, x + step)) - float(g(x, x - step))) / (2.0 * step)

    coarse = central(d)
    fine = central(0.5 * d)
    # One Richardson step cancels the O(d^2) error term of the central
    # difference, leaving O(d^4) truncation against O(eps/d) rounding.
    return (4.0 * fine - coarse) / 3.0


def stable_at_zero_delay(
    coef: LinearCoefficients | tuple[float, float],
) -> StabilityVerdict:
    """Classify an equilibrium of the delay-free problem by the sign of a+b.

    Within 1e-12 of a + b = 0 the verdict is OnBoundary; the boundary band
    wins over either sign so that roundoff in computed coefficients cannot
    flip a marginal case to a definite one.
    """
    c = _as_coef(coef)
    s = c.a + c.b
    if abs(s) <= _ZERO_SUM_TOL:
        return StabilityVerdict.ON_BOUNDARY
    if s < 0.0:
        return StabilityVerdict.STABLE_AT_ZERO_DELAYS
    return StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS


def characteristic_residual(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    delays: DelayPair | tuple[float, float],
    lam: complex,
) -> complex:
    """Defect of the characteristic equation at a candidate root.

    Evaluates ``lam**alpha - a*exp(-lam*tau1) - b*exp(-lam*tau2)`` with the
    principal branch of the complex power.  A genuine characteristic root
    makes this zero; the magnitude of the return value measures how far a
    candidate is from being one.
    """
    al = order_value(alpha)
    c = _as_coef(coef)
    d = _as_delays(delays)
    lam = complex(lam)
    return (
        lam ** al
        - c.a * cmath.exp(-lam * d.tau1)
        - c.b * cmath.exp(-lam * d.tau2)
    )


def default_v_window(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
) -> tuple[float, float]:
    """Default crossing-frequency search window.

    Eliminating the trigonometric unknowns from lambda = i*v confines the
    crossings to the closed-form band ``||a| - |b|| <= v**alpha <= |a| + |b|``,
    the frequencies at which both arccos arguments lie in [-1, 1].  The
    window extends to four times the upper band edge with a tiny positive
    lower end (v = 0 itself is never a crossing of interest and the
    parametrization is singular there).  Both band edges are square-root
    folds of the branch functions, which is why the line search of
    :func:`critical_tau2_for_tau1` samples them explicitly.  Raises
    ValueError when the window end exceeds the float range.
    """
    al = order_value(alpha)
    c = _as_coef(coef)
    hi = 4.0 * _band_edges(al, c)[1]
    if math.isinf(hi):
        raise ValueError(
            f"the default frequency window 4*(|a| + |b|)**(1/alpha) exceeds the float "
            f"range for a={c.a}, b={c.b}, alpha={al}; give an explicit window"
        )
    return (1e-6, hi)


def _band_edges(al: float, c: LinearCoefficients) -> list[float]:
    """The band edges ``||a| - |b||**(1/alpha)`` and ``(|a| + |b|)**(1/alpha)``;
    an edge beyond the float range is inf."""
    edges = []
    for base in (abs(abs(c.a) - abs(c.b)), abs(c.a) + abs(c.b)):
        try:
            edges.append(base ** (1.0 / al))
        except OverflowError:
            edges.append(math.inf)
    return edges


def _branch_labels(max_branch: int) -> list[tuple[int, int]]:
    """Every arccos branch (sign, m) with winding number up to ``max_branch``."""
    return [(sign, m) for sign in (1, -1) for m in range(max_branch + 1)]


def _band(al: float, c: LinearCoefficients, v: np.ndarray):
    """Arccos arguments of both delays at the frequencies ``v``.

    Returns ``(a1, a2, outside, va)`` with ``va = v**alpha`` and ``outside``
    true wherever either argument leaves [-1, 1] beyond rounding slack,
    i.e. outside the crossing band.  The two arguments share one expression
    tree with the roles of a and b exchanged, so swapping the coefficients
    swaps the delays bitwise.
    """
    va = v ** al
    v2a = v ** (2.0 * al)
    a1 = (v2a + (c.a * c.a - c.b * c.b)) / ((2.0 * c.a) * va)
    a2 = (v2a + (c.b * c.b - c.a * c.a)) / ((2.0 * c.b) * va)
    outside = (np.abs(a1) > 1.0 + _CLAMP_SLACK) | (np.abs(a2) > 1.0 + _CLAMP_SLACK)
    return a1, a2, outside, va


def _branch_delay(al: float, arg, outside, v, sign, m):
    """Delay ``(sign*arccos(arg) - alpha*pi/2 + 2*pi*m) / v`` on branch (sign, m).

    ``sign`` and ``m`` are float arrays that broadcast against ``v``: a
    column per branch gives a table, one entry per frequency gives each
    frequency its own branch.  The delay is NaN wherever ``outside``.
    """
    th = np.arccos(np.clip(arg, -1.0, 1.0))
    th[outside] = np.nan
    return (sign * th - 0.5 * math.pi * al + _TWO_PI * m) / v


def _branches(
    al: float, c: LinearCoefficients, v: np.ndarray, labels: Sequence[tuple[int, int]]
):
    """Parametric delays on the arccos branches ``labels`` at the frequencies ``v``.

    Returns ``(tau1, tau2, va)``: one row per branch (sign, m) in
    ``labels``, one column per entry of the 1-d array ``v``, and
    ``va = v**alpha``.  Both delays are NaN outside the crossing band.
    """
    a1, a2, outside, va = _band(al, c, v)
    sign, m = np.array(labels, dtype=float).T[:, :, None]
    tau1 = _branch_delay(al, a1, outside, v, sign, m)
    return tau1, _branch_delay(al, a2, outside, v, sign, m), va


def _tau1(al: float, c: LinearCoefficients, v, sign, m):
    """tau1 on the branches (sign, m), broadcast against ``v`` as in :func:`_branch_delay`."""
    a1, _, outside, _ = _band(al, c, v)
    return _branch_delay(al, a1, outside, v, sign, m)


def _tau2_terms(c: LinearCoefficients, v, tau2):
    """The tau2 terms ``(b*cos(v*tau2), b*sin(v*tau2))`` of :func:`_residual`."""
    return c.b * np.cos(v * tau2), c.b * np.sin(v * tau2)


def _residual(al: float, c: LinearCoefficients, v, tau1, tau2_terms, va):
    """Larger absolute defect of the two real crossing equations, elementwise.

    ``tau2_terms`` is :func:`_tau2_terms` of the tau2 delays, so that a
    caller pairing many tau1 rows with one tau2 block forms it once.
    """
    half = 0.5 * math.pi * al
    b_cos, b_sin = tau2_terms
    r1 = va * math.cos(half) - (c.a * np.cos(v * tau1) + b_cos)
    r2 = va * math.sin(half) + (c.a * np.sin(v * tau1) + b_sin)
    return np.maximum(np.abs(r1), np.abs(r2))


def _resolve_search(
    al: float,
    c: LinearCoefficients,
    v_range: tuple[float, float] | None,
    samples: int,
    max_branch: int,
) -> tuple[float, float, int, int]:
    lo, hi = v_range if v_range is not None else default_v_window(al, c)
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"frequency window must satisfy 0 < lo < hi, got {(lo, hi)!r}")
    if int(samples) < 2:
        raise ValueError("samples must be at least 2")
    if int(max_branch) < 0:
        raise ValueError("max_branch must be nonnegative")
    return (lo, hi, int(samples), int(max_branch))


def curve_columns(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    v_range: tuple[float, float] | None = None,
    samples: int = _DEFAULT_SAMPLES,
    max_branch: int = _DEFAULT_MAX_BRANCH,
) -> CurveColumns:
    """Sampled imaginary-axis crossing locus in the (tau1, tau2) plane.

    The frequency window (default :func:`default_v_window`) is sampled
    uniformly at ``samples`` points.  At each frequency where both arccos
    arguments lie in [-1, 1] (clamped within 1e-12), every branch
    combination with winding numbers up to ``max_branch`` is formed, and a
    point is kept when both delays are nonnegative and both defining
    equations hold with residual at most 1e-9.  The residual filter is what
    discards the branch sign pairs that are incompatible with the
    coefficient signs.

    Each row is one point: ``v`` is the crossing frequency, ``(tau1, tau2)``
    the delays at which lambda = i*v solves the characteristic equation,
    ``(sign1, m1)`` and ``(sign2, m2)`` the arccos branch and winding number
    behind each delay (integer columns), and ``residual`` the larger absolute
    defect of the two defining equations at the stored floats.  The rows come
    in no particular order; ``fracdde curves`` sorts them by ``(m1, sign1,
    v)``.  Swapping a and b maps the result to the mirrored locus with the
    delay and label columns exchanged.
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    lo, hi, samples, max_branch = _resolve_search(al, c, v_range, samples, max_branch)

    vs = np.linspace(lo, hi, samples)
    labels = _branch_labels(max_branch)
    tau1, tau2, va = _branches(al, c, vs, labels)
    inside = ~np.isnan(tau1[0])
    vs, tau1, tau2, va = vs[inside], tau1[:, inside], tau2[:, inside], va[inside]
    ok2 = tau2 >= 0.0
    tau2_terms = _tau2_terms(c, vs, tau2)
    hits = []
    # One tau1 branch at a time against the whole tau2 block keeps the
    # temporaries at (branches x samples) rather than its square.
    for r1, t1 in enumerate(tau1):
        residual = _residual(al, c, vs, t1, tau2_terms, va)
        r2, col = np.nonzero((t1 >= 0.0) & ok2 & (residual <= _RESIDUAL_TOL))
        hits.append((np.full(len(col), r1), r2, col, residual[r2, col]))
    r1, r2, col, residual = map(np.concatenate, zip(*hits))
    sign, m = np.array(labels).T
    return CurveColumns(
        vs[col], tau1[r1, col], tau2[r2, col], sign[r1], m[r1], sign[r2], m[r2], residual
    )


def critical_tau2_for_tau1(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    tau1: float,
    v_range: tuple[float, float] | None = None,
    samples: int = _DEFAULT_SAMPLES,
    max_branch: int = _DEFAULT_MAX_BRANCH,
) -> float | None:
    """Smallest tau2 at which the vertical line tau1 = const meets the locus.

    For coefficients that are stable at zero delays, this is the first delay
    pair (tau1, tau2) at which a characteristic root reaches the imaginary
    axis when tau2 grows from 0 with tau1 held fixed, i.e. the stability
    boundary along that line; None means the line meets no crossing inside
    the frequency window.

    The branch functions tau1(v) are sampled over the window, but only
    those whose range can reach the requested value.  A branch (sign, m)
    is its sign's m = 0 branch plus 2*pi*m/v, so the sampled m = 0 range
    and the range of 1/v over the band bound it before it is sampled; the
    bound's margin scales with both terms, so rounding cannot rule out a
    branch whose samples change sign or hit the value exactly.  Every
    bracketed crossing of the requested value is sharpened by Illinois
    regula falsi steps on its own branch, falling back to the midpoint when
    a step stalls, until the bracket shrinks onto adjacent floats or a step
    lands on an exact crossing.  The smallest valid tau2 companion at the
    crossing frequencies is returned.  A companion is valid when it is
    nonnegative and both defining equations hold at the stored floats with
    the fixed residual 1e-9.  Crossings exist only in the closed-form band
    ``||a| - |b|| <= v**alpha <= |a| + |b|``.  At both band edges the branch
    functions fold with square-root speed, so a crossing can lie between an
    edge and the nearest interior sample, where a plain scanline would miss
    it; the band edges that fall inside the window are therefore sampled
    as well.

    Raises
    ------
    ValueError
        If the coefficients are not stable at zero delays (the first
        crossing of a line from an already unstable origin is meaningless).
    """
    al = order_value(alpha)
    c = _require_nondegenerate(coef)
    q = float(tau1)
    if not (math.isfinite(q) and q >= 0.0):
        raise ValueError(f"tau1 must be nonnegative and finite, got {tau1!r}")
    if stable_at_zero_delay(c) is not StabilityVerdict.STABLE_AT_ZERO_DELAYS:
        raise ValueError(
            "the crossing search requires coefficients stable at zero delays "
            f"(a + b < 0), got a={c.a}, b={c.b}"
        )
    lo, hi, samples, max_branch = _resolve_search(al, c, v_range, samples, max_branch)

    edges = [e for e in _band_edges(al, c) if lo < e < hi]
    vs = np.union1d(np.linspace(lo, hi, samples), edges)
    sign, m = np.array(_branch_labels(max_branch), dtype=float).T
    a1, _, outside, _ = _band(al, c, vs)
    # Row (sign, m) is the m = 0 row of its sign plus 2*pi*m/v, so its
    # sampled range lies within the m = 0 range plus 2*pi*m*[min, max](1/v).
    # The margin scales with the terms, not their sum, so rounding never
    # drops a row whose table entry changes sign or is exactly 0; a bound
    # that overflows to inf or NaN keeps its row.
    base = _branch_delay(al, a1, outside, vs, np.array([[1.0], [-1.0]]), 0.0)
    band = ~np.isnan(base[0])
    if not band.any():
        return None
    base, v_band = base[:, band], vs[band]
    half = (sign < 0.0).astype(int)
    with np.errstate(all="ignore"):
        wind_lo, wind_hi = m * (_TWO_PI / v_band[-1]), m * (_TWO_PI / v_band[0])
        low = base.min(axis=1)[half] + wind_lo
        high = base.max(axis=1)[half] + wind_hi
        margin = 1e-9 * (np.abs(base).max(axis=1)[half] + wind_hi + q)
        keep = np.flatnonzero(~((q < low - margin) | (q > high + margin)))
    y = _branch_delay(al, a1, outside, vs, sign[keep, None], m[keep, None]) - q
    # Flat indices and divmod: a 2-d nonzero on this table costs several
    # times as much, even when it finds nothing.
    rows, cols = np.divmod(np.flatnonzero(_sign_change(y[:, :-1], y[:, 1:])), len(vs) - 1)
    row_sign, row_m = sign[keep[rows]], m[keep[rows]]
    line = lambda v: _tau1(al, c, v, row_sign, row_m) - q
    # The midpoint fallback halves every bracket at least every fourth
    # step, so 360 steps reach adjacent floats wherever 90 bisection steps do.
    v_cross = _illinois(line, vs[cols], vs[cols + 1], y[rows, cols], y[rows, cols + 1], 360)
    exact_rows, exact_cols = np.divmod(np.flatnonzero(y == 0.0), len(vs))
    v_star = np.concatenate([vs[exact_cols], v_cross])
    row_star = keep[np.concatenate([exact_rows, rows])]
    a1, a2, outside, va = _band(al, c, v_star)
    t1 = _branch_delay(al, a1, outside, v_star, sign[row_star], m[row_star])
    tau2_star = _branch_delay(al, a2, outside, v_star, sign[:, None], m[:, None])
    residual = _residual(al, c, v_star, t1, _tau2_terms(c, v_star, tau2_star), va)
    ok = (tau2_star >= 0.0) & (residual <= _RESIDUAL_TOL)
    return float(tau2_star[ok].min()) if ok.any() else None


def classify(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    delays: DelayPair | tuple[float, float],
    tolerance: float = 1e-6,
    v_range: tuple[float, float] | None = None,
    samples: int = _DEFAULT_SAMPLES,
    max_branch: int = _DEFAULT_MAX_BRANCH,
) -> StabilityVerdict:
    """Classify an equilibrium of the linearized problem at given delays.

    At zero delays the verdict reduces to :func:`stable_at_zero_delay`.  An
    equilibrium already unstable without delays stays Unstable for positive
    delays (delays cannot stabilize a positive coefficient sum here), and a
    delay-free boundary case stays OnBoundary.  Otherwise the point is
    compared against the stability boundary along its tau1 line: Stable
    below it by more than ``tolerance``, Unstable above it by more than
    ``tolerance``, OnBoundary inside the band.  The boundary is
    :func:`critical_tau2_for_tau1`.  When the tau1 line misses every
    sampled branch (possible in custom frequency windows, or for tau1
    beyond the sampled branches), the lowest tau2 of the
    :func:`curve_columns` locus, the curve floor, stands in as a
    conservative boundary.  If the window holds no crossing locus at all
    the delays are classified Stable, since no root can have crossed the
    imaginary axis.
    """
    return _classify_with_boundary(alpha, coef, delays, tolerance, v_range, samples, max_branch)[0]


def _classify_with_boundary(
    alpha: FractionalOrder | float,
    coef: LinearCoefficients | tuple[float, float],
    delays: DelayPair | tuple[float, float],
    tolerance: float,
    v_range: tuple[float, float] | None,
    samples: int,
    max_branch: int,
) -> tuple[StabilityVerdict, float | None]:
    """The verdict of :func:`classify` and the boundary tau2 behind it.

    The boundary is None when none applies: at zero delays, when the
    coefficients are not stable at zero delays, or when the frequency
    window holds no crossing locus.
    """
    c = _require_nondegenerate(coef)
    d = _as_delays(delays)
    tolerance = float(tolerance)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be nonnegative, got {tolerance!r}")
    zero_verdict = stable_at_zero_delay(c)
    if d.tau1 == 0.0 and d.tau2 == 0.0:
        return zero_verdict, None
    if zero_verdict is StabilityVerdict.ON_BOUNDARY:
        return StabilityVerdict.ON_BOUNDARY, None
    if zero_verdict is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS:
        return StabilityVerdict.UNSTABLE, None
    boundary = critical_tau2_for_tau1(
        alpha, c, d.tau1, v_range=v_range, samples=samples, max_branch=max_branch
    )
    if boundary is None:
        floor = curve_columns(alpha, c, v_range, samples, max_branch).tau2
        boundary = float(floor.min()) if floor.size else None
    if boundary is None or d.tau2 < boundary - tolerance:
        return StabilityVerdict.STABLE, boundary
    if d.tau2 > boundary + tolerance:
        return StabilityVerdict.UNSTABLE, boundary
    return StabilityVerdict.ON_BOUNDARY, boundary
