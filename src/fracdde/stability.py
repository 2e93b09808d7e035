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
trace parametric curves in the (tau1, tau2) plane.  Stability can be lost
and regained across them, so :func:`classify` counts the roots that cross
on a path from the origin to the point instead.  The signs of
the two arccos branches are tied to each other by the coefficient signs
(:func:`_paired_sign`), so every pairing formed is a crossing, whatever the
scale of the coefficients.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .numerics import _count, _real, order_value
from .solver import SystemRhs

__all__ = [
    "StabilityVerdict",
    "CurveColumns",
    "Classification",
    "find_equilibria",
    "linearize",
    "stable_at_zero_delay",
    "curve_columns",
    "classify",
]

# Arccos arguments may stick out of [-1, 1] by this much before the sample
# is discarded; the excess is pure rounding at the window edges.
_CLAMP_SLACK = 1e-12

_ZERO_SUM_TOL = 1e-12
_FD_BASE_STEP = 1e-6

# The tau1 line search samples the crossing band at _SCAN_MIN frequencies
# plus _SCAN_PER_RADIAN per radian of tau1*v, at most _SCAN_BUDGET.  The
# relative rounding slack _SCAN_SLACK has three uses: the scan reaches that
# far past both band ends, a leg-1 crossing that close to tau1 lies on the
# corner (tau1, 0), and a point that close to a crossing is OnBoundary.
_SCAN_MIN = 256
_SCAN_PER_RADIAN = 2.0
_SCAN_SLACK = 1e-9
_SCAN_BUDGET = 2**18
_TWO_PI = 2.0 * math.pi
# The least closed-form crossing frequency that classify takes: from there
# up, 2*pi/v, which bounds the crossing's first delay, is a float.
_V_FLOOR = _TWO_PI / sys.float_info.max


class StabilityVerdict(str, enum.Enum):
    """Outcome labels for equilibrium classification."""

    STABLE_AT_ZERO_DELAYS = "StableAtZeroDelays"
    UNSTABLE_AT_ZERO_DELAYS = "UnstableAtZeroDelays"
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    ON_BOUNDARY = "OnBoundary"


def _require_nondegenerate(a: float, b: float) -> None:
    if a == 0.0 or b == 0.0:
        raise ValueError(
            f"crossing curves require both coefficients nonzero, got a={a}, b={b}; "
            "a vanishing coefficient reduces the problem to a single delay"
        )


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
    """Locate roots of g(x, x) inside a bracket by a scan and :func:`_illinois`.

    The bracket is sampled at ``resolution`` uniformly spaced points.  Every
    exact zero sample is a root.  All sign changes are refined together by
    :func:`_illinois` until each bracket holds two adjacent floats or an
    exact zero; there is no tolerance on ``|g|``, so the scale of ``g``
    does not matter.  A refined point where ``|g|`` exceeds its value at
    both scan ends is a pole, not a root, and is dropped, as is one where
    ``g`` is not finite (a bracket between infinite scan values can outlast
    the refiner's steps).
    Roots closer together than the scan spacing can be missed; raise the
    resolution for wildly oscillatory right-hand sides.  ``g`` is called
    with floats only.  Returns the roots sorted increasingly, duplicates
    merged.  A bracket whose width overflows a float raises ValueError.
    """
    lo, hi = (_real("bracket", end) for end in bracket)
    if not lo < hi:
        raise ValueError(f"bracket must be a finite increasing pair, got {bracket!r}")
    if math.isinf(hi - lo):
        # The scan's spacing would be inf: every sample but the last NaN or inf.
        raise ValueError(f"the width of bracket ({lo:g}, {hi:g}) exceeds the float range")
    resolution = _count("resolution", resolution, 2)
    fun = lambda xs: np.array([float(rhs.g(x, x)) for x in xs.tolist()])
    xs = np.linspace(lo, hi, resolution)
    vals = fun(xs)
    i = np.flatnonzero(_sign_change(vals[:-1], vals[1:]))
    refined = _illinois(fun, xs[i], xs[i + 1], vals[i], vals[i + 1], 360)
    size = np.abs(fun(refined))
    pole = ~np.isfinite(size) | ((size > np.abs(vals[i])) & (size > np.abs(vals[i + 1])))
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
    A falsi point that rounds onto an end steps to that end's neighbouring
    float toward the other end: near a root the falsi point lands within a
    few ulps of it, and the neighbour closes the bracket where halving down
    to it would take dozens of steps.  A bracket steps to its midpoint
    instead when the falsi point is NaN or outside it (a zero ``f_lo -
    f_hi`` included), or when its width has not halved within the last 3
    steps, so it still needs at most four times bisection's step count.  An
    exact zero collapses its bracket onto itself.  A bracket whose midpoint
    rounds onto one of its ends holds no float inside and is done: it is
    not passed to ``fun`` again, since no step can move its ends.  Stops
    after ``max_iter`` steps, or sooner, once every bracket is done.
    Returns the bracket midpoints.

    It serves both root searches: the scan of :func:`find_equilibria` and
    the tau1 line search of :func:`_line_crossings`.
    The bracket state lives in Python floats, which round as float64 arrays
    do: either search refines only a few brackets, and numpy's per-call
    overhead on arrays that short would cost more than the step's one
    evaluation of ``fun``.
    """
    lo, hi, f_lo, f_hi = np.array([lo, hi, f_lo, f_hi], dtype=float).tolist()
    width = [b - a for a, b in zip(lo, hi)]
    age = [0] * len(lo)
    kept_hi = [False] * len(lo)
    live = range(len(lo))
    for step in range(max_iter):
        live = [i for i in live if lo[i] < 0.5 * (lo[i] + hi[i]) < hi[i]]
        if not live:
            break
        xs = []
        for i in live:
            a, b, fa, fb = lo[i], hi[i], f_lo[i], f_hi[i]
            mid = 0.5 * (a + b)
            d = fa - fb
            x = a + (b - a) * (fa / d) if d != 0.0 else mid
            x = math.nextafter(a, b) if x == a else math.nextafter(b, a) if x == b else x
            xs.append(x if a < x < b and age[i] < 3 else mid)
        for i, x, f in zip(live, xs, fun(np.array(xs)).tolist()):
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


def linearize(rhs: SystemRhs, x_star: float) -> tuple[float, float]:
    """Coefficients ``(a, b)`` of the linearization at an equilibrium, the
    partial derivatives of the right-hand side there.

    Analytic partials attached to the right-hand side are used when present.
    A missing slot falls back to a central difference with one Richardson
    extrapolation step, which is accurate to roughly 1e-9 relative for
    smooth right-hand sides at moderately sized equilibria.
    """
    x = _real("equilibrium", x_star)
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
    return a, b


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


def stable_at_zero_delay(coef: tuple[float, float]) -> StabilityVerdict:
    """Classify an equilibrium of the delay-free problem by the sign of a+b,
    ``coef = (a, b)``.

    Where |a + b| is at most 1e-12 times |a| + |b| the verdict is
    OnBoundary, whatever the scale of the coefficients; the boundary band
    wins over either sign so that roundoff in computed coefficients cannot
    flip a marginal case to a definite one.
    """
    a, b = coef
    a, b = _real("a", a), _real("b", b)
    s = a + b
    # Each term scaled on its own: |a| + |b| may overflow where a + b does not.
    if abs(s) <= _ZERO_SUM_TOL * abs(a) + _ZERO_SUM_TOL * abs(b):
        return StabilityVerdict.ON_BOUNDARY
    if s < 0.0:
        return StabilityVerdict.STABLE_AT_ZERO_DELAYS
    return StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS


def _band_edges(al: float, a: float, b: float) -> list[float]:
    """The band edges ``||a| - |b||**(1/alpha)`` and ``(|a| + |b|)**(1/alpha)``;
    an edge beyond the float range is inf."""
    edges = []
    for base in (abs(abs(a) - abs(b)), abs(a) + abs(b)):
        try:
            edges.append(base ** (1.0 / al))
        except OverflowError:
            edges.append(math.inf)
    return edges


def _branch_labels(max_branch: int) -> list[tuple[int, int]]:
    """Every arccos branch (sign, m) with winding number up to ``max_branch``,
    ordered by (m, sign)."""
    max_branch = _count("max_branch", max_branch, 0)
    return [(sign, m) for m in range(max_branch + 1) for sign in (-1, 1)]


def _argument(k: float, l: float, va, v2a):
    """Arccos argument ``(v**(2*alpha) + k*k - l*l) / (2*k*v**alpha)`` of the
    delay with coefficient k, the other delay's being l, from ``va =
    v**alpha`` and ``v2a = v**(2*alpha)``."""
    return (v2a + (k * k - l * l)) / ((2.0 * k) * va)


def _band(al: float, a: float, b: float, v: np.ndarray):
    """Arccos arguments of both delays at the frequencies ``v``.

    Returns ``(a1, a2, outside, va)`` with ``va = v**alpha`` and ``outside``
    true wherever either argument leaves [-1, 1] beyond rounding slack,
    i.e. outside the crossing band.  The two arguments are one expression
    with the roles of a and b exchanged, so swapping the coefficients swaps
    the delays bitwise.
    """
    va = v ** al
    v2a = v ** (2.0 * al)
    a1, a2 = _argument(a, b, va, v2a), _argument(b, a, va, v2a)
    outside = (np.abs(a1) > 1.0 + _CLAMP_SLACK) | (np.abs(a2) > 1.0 + _CLAMP_SLACK)
    return a1, a2, outside, va


def _arccos(arg):
    """``arccos`` of ``arg`` clamped to [-1, 1]."""
    return np.arccos(np.minimum(np.maximum(arg, -1.0), 1.0))


def _delay(half: float, th, v, sign, m):
    """Delay ``(sign*th - half + 2*pi*m) / v`` on branch (sign, m), with ``half = alpha*pi/2``.

    Arrays broadcast; Python floats round as float64 arrays do, so either
    form gives the same bits.
    """
    return (sign * th - half + _TWO_PI * m) / v


def _terms(k: float, v, tau):
    """``(k*cos(v*tau), k*sin(v*tau))``, one delay's terms in :func:`_residual`."""
    return k * np.cos(v * tau), k * np.sin(v * tau)


def _residual(al: float, va, terms1, terms2):
    """Larger absolute defect of the two real crossing equations, elementwise.

    ``terms1`` and ``terms2`` are :func:`_terms` of a with tau1 and of b with
    tau2, so that a caller can form them once per table entry.  The defect
    is in the units of the coefficients: the equations balance
    ``va = v**alpha`` against a and b.
    """
    half = 0.5 * math.pi * al
    (a_cos, a_sin), (b_cos, b_sin) = terms1, terms2
    r1 = va * math.cos(half) - (a_cos + b_cos)
    r2 = va * math.sin(half) + (a_sin + b_sin)
    return np.maximum(np.abs(r1), np.abs(r2))


def _paired_sign(a: float, b: float, sign1: int) -> int:
    """The tau2 arccos sign that can pair with a tau1 row of sign ``sign1``.

    Rotated by ``exp(i*alpha*pi/2)``, the crossing equation at lambda = i*v
    reads ``a*exp(-i*psi1) + b*exp(-i*psi2) = v**alpha`` with ``psi_k =
    v*tau_k + alpha*pi/2 = sign_k*theta_k + 2*pi*m_k``.  Its imaginary part,
    ``a*sin(psi1) = -b*sin(psi2)``, with both arccos angles in [0, pi], fixes
    ``sign2 = -sign1*sgn(a*b)`` for any windings.  Where theta2 is 0 or pi,
    a fold, both signs give the same delay and both pair.
    """
    return -sign1 if (a > 0.0) == (b > 0.0) else sign1


def _resolve_search(
    al: float, a: float, b: float, v_range: tuple[float, float] | None
) -> tuple[float, float]:
    if v_range is None:
        hi = 4.0 * _band_edges(al, a, b)[1]
        if math.isinf(hi):
            raise ValueError(
                f"the default frequency window 4*(|a| + |b|)**(1/alpha) exceeds the float "
                f"range for a={a}, b={b}, alpha={al}; curves can be given an explicit window"
            )
        v_range = (1e-6, hi)
    lo, hi = (_real("frequency window", end) for end in v_range)
    if not 0.0 < lo < hi:
        raise ValueError(f"frequency window must satisfy 0 < lo < hi, got {(lo, hi)!r}")
    return lo, hi


def curve_columns(
    alpha: float,
    coef: tuple[float, float],
    v_range: tuple[float, float] | None = None,
    samples: int = 2000,
    max_branch: int = 8,
) -> CurveColumns:
    """Sampled imaginary-axis crossing locus in the (tau1, tau2) plane of
    the coefficients ``coef = (a, b)``.

    Eliminating the trigonometric unknowns from lambda = i*v confines the
    crossings to the closed-form band ``||a| - |b|| <= v**alpha <= |a| +
    |b|``, the frequencies at which both arccos arguments lie in [-1, 1].
    The frequency window ``v_range`` defaults to four times the upper band
    edge with a tiny positive lower end, ``(1e-6, 4*(|a| + |b|)**(1/alpha))``
    (v = 0 itself is never a crossing of interest and the parametrization
    is singular there), and is sampled uniformly at ``samples`` points.  At
    each frequency where both arccos arguments lie in [-1, 1] (clamped
    within 1e-12), every tau1 branch with winding number up to
    ``max_branch`` is paired with every tau2 branch of the arccos sign that
    the coefficient signs allow (see :func:`_paired_sign`; at a fold both
    signs pair), and a point is kept when both delays are nonnegative.

    Each row is one point: ``v`` is the crossing frequency, ``(tau1, tau2)``
    the delays at which lambda = i*v solves the characteristic equation,
    ``(sign1, m1)`` and ``(sign2, m2)`` the arccos branch and winding number
    behind each delay (integer columns), and ``residual`` the larger absolute
    defect of the two defining equations at the stored floats, in the units
    of the coefficients.  The rows come in the order of the ``fracdde
    curves`` CSV, sorted by ``(m1, sign1, v, m2, sign2)``.  Swapping a and b
    maps the result to the mirrored locus with the delay and label columns
    exchanged.

    Raises ValueError when a coefficient vanishes, which leaves a single
    delay, and when the default window's upper end exceeds the float range.
    """
    al = order_value(alpha)
    a, b = coef
    a, b = _real("a", a), _real("b", b)
    _require_nondegenerate(a, b)
    lo, hi = _resolve_search(al, a, b, v_range)
    samples = _count("samples", samples, 2)
    labels = _branch_labels(max_branch)

    # A window a few ulps wide repeats sample values: each distinct one is
    # computed once, and its rows are repeated.
    vs, repeats = np.unique(np.linspace(lo, hi, samples), return_counts=True)
    a1, a2, outside, va = _band(al, a, b, vs)
    inside = ~(outside | np.isnan(a1))
    vs, va, repeats = vs[inside], va[inside], repeats[inside]
    th1, th2 = _arccos(a1[inside]), _arccos(a2[inside])
    half = 0.5 * math.pi * al
    sign, m = np.array(labels).T
    # A delay that overflows over a subnormal v drops out, as a negative one does.
    with np.errstate(over="ignore"):
        tau1, tau2 = (_delay(half, th, vs, sign[:, None], m[:, None]) for th in (th1, th2))
    tau1[np.isinf(tau1)] = tau2[np.isinf(tau2)] = np.nan
    ok1, ok2 = tau1 >= 0.0, tau2 >= 0.0
    terms1, terms2 = _terms(a, vs, tau1), _terms(b, vs, tau2)
    # A tau1 row of sign s meets the tau2 rows of the paired sign, and at a
    # fold those of both signs.
    fold = (th2 == 0.0) | (th2 == math.pi)
    pairs = {s: ok2 & ((sign[:, None] == _paired_sign(a, b, s)) | fold) for s in (1, -1)}
    hits = []
    # One tau1 row at a time keeps the temporaries at the size of the table.
    # The labels come ordered by (m, sign), so the tau1 rows in turn, each
    # taken column by column, give the rows in CSV order.
    for r1, s in enumerate(sign.tolist()):
        col, r2 = np.divmod(np.flatnonzero((ok1[r1] & pairs[s]).T), len(labels))
        kept1, kept2 = [t[r1, col] for t in terms1], [t[r2, col] for t in terms2]
        hits.append((np.full(len(col), r1), r2, col, _residual(al, va[col], kept1, kept2)))
    r1, r2, col, residual = map(np.concatenate, zip(*hits))
    n = repeats[col]
    r1, r2, col, residual = (np.repeat(x, n) for x in (r1, r2, col, residual))
    return CurveColumns(
        vs[col], tau1[r1, col], tau2[r2, col], sign[r1], m[r1], sign[r2], m[r2], residual
    )


def _may_hide_root(al: float, a: float, b: float, q: float, left, right, g_left, g_right):
    """Where an interval of the line function g of :func:`_line_crossings`
    without a sign change may still hold a root.

    ``g = a1 - cos(q*v + alpha*pi/2)`` with ``a1 = (va + d/va)/(2a)``, ``va
    = v**alpha``, ``d = a*a - b*b``.  An interval is root-free when the end
    values exceed the total variation of g, at most ``q*width`` plus that of
    the monotone va and d/va, or when the smaller one exceeds how far g can
    bend from its chord, ``M*width**2/8`` with M = q**2 plus the bound of
    ``|a1''|`` at the left end.  The first test alone never passes next to
    a root where ``|g'|`` is below its bound.  A NaN end is never a root.
    """
    d, two_a, width = a * a - b * b, 2.0 * abs(a), right - left
    va_left, va_right = left**al, right**al
    size_left, size_right = np.abs(g_left), np.abs(g_right)
    travel = q * width + (va_right - va_left + np.abs(d / va_left - d / va_right)) / two_a
    with np.errstate(over="ignore", divide="ignore"):
        bend = q * q + al * ((1.0 - al) * va_left + (1.0 + al) * abs(d) / va_left) / two_a / left / left
    return (size_left + size_right <= travel) & (
        np.minimum(size_left, size_right) <= 0.125 * bend * width * width
    )


def _finite_band(al: float, a: float, b: float) -> list[float]:
    """:func:`_band_edges`, raising ValueError when the upper one is beyond the float range."""
    edges = _band_edges(al, a, b)
    if math.isinf(edges[1]):
        raise ValueError(
            f"the crossing band's upper end (|a| + |b|)**(1/alpha) exceeds the float range "
            f"for a={a}, b={b}, alpha={al}"
        )
    return edges


def _line_crossings(al: float, a: float, b: float, q: float):
    """Every crossing on the line tau1 = q, as arrays ``(v, w, tau2)``.

    On the line, lambda = i*v is a root for some tau2 exactly where ``w =
    (i*v)**alpha - a*exp(-i*v*q)`` has modulus |b|, i.e. where ``g(v) =
    a1(v) - cos(q*v + alpha*pi/2)`` vanishes, a1 the tau1 arccos argument
    (:func:`_argument`).  g is sampled across the band at 256 frequencies
    plus 2 per radian that q*v sweeps there.  An interval without a sign
    change that :func:`_may_hide_root` cannot show root-free is split in
    two, down to adjacent floats, so two crossings between neighbouring
    samples are found too.  :func:`_illinois` refines every sign change.  At
    a root v, ``b*exp(-i*v*tau2) = w``: ``tau2 = ((-arg(w/b)) mod 2*pi)/v``
    is the smallest nonnegative delay, and every 2*pi/v above it is one
    more.

    Raises ValueError if the band ends beyond the float range, if the line
    function or the delay of a crossing is (squares of the coefficients, or
    phase over a subnormal v), or, before allocating them, if the scan needs
    more than 2**18 frequencies, samples and split points together.
    """
    lo, hi = _finite_band(al, a, b)
    # v = 0, the lower band edge when |a| = |b|, is no crossing, and g is 0/0
    # there.  A band that underflows to 0 holds no positive float at all.
    lo, hi = max(lo * (1.0 - _SCAN_SLACK), math.ulp(0.0)), hi * (1.0 + _SCAN_SLACK)
    if not lo < hi:
        return (np.empty(0),) * 3
    half = 0.5 * math.pi * al
    g = lambda v: _argument(a, b, v**al, v ** (2.0 * al)) - np.cos(q * v + half)

    def charge(count: float) -> None:
        if not count <= _SCAN_BUDGET:
            raise ValueError(
                f"the line tau1 = {q!r} needs about {count:.4g} frequencies across the "
                f"crossing band, more than the {_SCAN_BUDGET} allowed"
            )

    count = _SCAN_MIN + _SCAN_PER_RADIAN * q * (hi - lo)
    charge(count)
    v = np.linspace(lo, hi, math.ceil(count))
    with np.errstate(over="ignore", invalid="ignore"):
        y = g(v)
    if not np.isfinite(y).all():
        raise ValueError(
            f"the crossing equation on the line tau1 = {q!r} leaves the float range: "
            f"its terms of order (|a| + |b|)**2 overflow"
        )
    while True:
        mid = 0.5 * (v[:-1] + v[1:])
        splittable = (v[:-1] < mid) & (mid < v[1:]) & ~_sign_change(y[:-1], y[1:])
        split = np.flatnonzero(
            splittable & _may_hide_root(al, a, b, q, v[:-1], v[1:], y[:-1], y[1:])
        )
        if not split.size:
            break
        charge(v.size + split.size)
        v, y = np.insert(v, split + 1, mid[split]), np.insert(y, split + 1, g(mid[split]))
    i = np.flatnonzero(_sign_change(y[:-1], y[1:]))
    # The midpoint fallback halves every bracket at least every fourth
    # step, so 360 steps reach adjacent floats wherever 90 bisection steps do.
    v = np.concatenate([v[y == 0.0], _illinois(g, v[i], v[i + 1], y[i], y[i + 1], 360)])
    w = (1j * v) ** al - a * np.exp(-1j * q * v)
    phase = np.mod(-np.angle(w / b), _TWO_PI)
    with np.errstate(over="ignore"):
        tau2 = phase / v
    beyond = np.flatnonzero(np.isinf(tau2))
    if beyond.size:
        i = beyond[0]
        raise ValueError(
            f"the crossing at v = {v[i].item()!r} on the line tau1 = {q!r} lies at "
            f"tau2 = {phase[i].item()!r}/v, beyond the float range"
        )
    return v, w, tau2


def _single_delay_crossings(al: float, k: float, c0: float) -> list[tuple[float, float, float]]:
    """Crossings of ``lambda**alpha - c0 - k*exp(-lambda*tau)`` as tau grows
    from 0, as :func:`_tally` takes them, on Python floats.

    lambda = i*v is a root for some tau exactly where ``w = (i*v)**alpha -
    c0`` has modulus |k|, i.e. where u = v**alpha solves ``u*u -
    2*c0*cos(alpha*pi/2)*u + c0*c0 - k*k = 0``: at most two frequencies.

    Raises ValueError for a frequency below ``2*pi/max_float``, the least v
    whose delays (below 2*pi/v) and :func:`_side` term ``v**(alpha - 1)``
    stay in the float range; at small orders a small u underflows there.
    """
    if k == 0.0:
        return []
    half = 0.5 * math.pi * al
    p, s = c0 * math.cos(half), abs(c0 * math.sin(half))
    if abs(k) < s:
        return []
    # The root of the larger modulus without cancellation, the other from
    # the product of the roots, c0*c0 - k*k.
    big = p + math.copysign(math.sqrt((abs(k) - s) * (abs(k) + s)), p)
    crossings = []
    for u in (big, (c0 - k) / big * (c0 + k)):
        if u > 0.0:
            v = u ** (1.0 / al)
            if v < _V_FLOOR:
                raise ValueError(
                    f"the crossing frequency {u!r}**(1/alpha) = {v!r} at alpha = {al!r} "
                    f"is too small for its delay to lie in the float range"
                )
            w = (1j * v) ** al - c0
            crossings.append((((-cmath.phase(w / k)) % _TWO_PI) / v, v, _side(al, v, w, 0.0)))
    return crossings


def _side(al: float, v: float, w: complex, rest: complex) -> float:
    """``Im(w*conj(p))`` with ``p = alpha*(i*v)**(alpha - 1) + rest``: its
    sign is that of Re(d lambda/d tau) where lambda = i*v crosses.

    ``w = k*exp(-i*v*tau)`` is the term of the delay tau that moves, and p
    the lambda-derivative of the rest of the characteristic function F,
    ``rest`` that of its other delay term.  From ``F_lambda = p + tau*w``
    and ``F_tau = i*v*w``, ``Re(d lambda/d tau) = Re(-F_tau/F_lambda)`` has
    the sign of ``Re(-i*v*w*conj(p))``, v times the side, since the tau*w
    term adds ``Re(-i*v*tau*|w|**2) = 0``: the side is the same at every
    delay where the crossing recurs.
    """
    return (w * (al * (1j * v) ** (al - 1.0) + rest).conjugate()).imag


def _tally(crossings, tau: float) -> int | None:
    """Right-half-plane roots gained on a leg whose delay grows from 0 to tau.

    Each of ``crossings`` is ``(tau0, v, side)``: lambda = i*v is a root at
    ``tau0 + 2*pi*m/v`` for every m >= 0, and each of those delays below tau
    adds the root and its conjugate, 2 where :func:`_side` is positive and
    -2 where it is negative.  Returns None when the recurrence nearest to
    tau, the one below tau0 included, lies within ``_SCAN_SLACK*tau`` of it,
    the corner's slack in :func:`classify`.  Raises ValueError on a
    tangential crossing below tau, side 0, where the count is undefined.
    """
    count = 0
    for tau0, v, side in crossings:
        period = _TWO_PI / v
        laps = (tau - tau0) / period
        if abs(tau0 + max(-1, round(laps)) * period - tau) <= _SCAN_SLACK * tau:
            return None
        if laps > 0.0:
            if side == 0.0:
                raise ValueError(
                    f"the root i*{v!r} touches the imaginary axis without crossing it; "
                    "the count of right-half-plane roots is undefined there"
                )
            count += math.ceil(laps) * (2 if side > 0.0 else -2)
    return count


class Classification(NamedTuple):
    """What :func:`classify` finds at one delay pair.

    ``verdict`` and ``critical_tau2`` are the fields that ``fracdde
    classify`` prints.  ``critical_tau2`` is the first crossing on the tau1
    line; it is None at zero delays, when the coefficients are not stable
    at zero delays, and when the line meets no crossing.  ``roots`` is the
    number of right-half-plane characteristic roots, None where it is
    undefined: OnBoundary, a root on the imaginary axis within rounding of
    the point, and where the coefficients are not stable at zero delays.
    """

    verdict: StabilityVerdict
    critical_tau2: float | None
    roots: int | None


def classify(
    alpha: float,
    coef: tuple[float, float],
    delays: tuple[float, float],
) -> Classification:
    """Classify an equilibrium of the linearized problem with coefficients
    ``coef = (a, b)`` at the delays ``delays = (tau1, tau2)``.

    At zero delays the verdict reduces to :func:`stable_at_zero_delay`.  An
    equilibrium already unstable without delays stays Unstable for positive
    delays (a positive real root persists), and a delay-free boundary case
    stays OnBoundary.  Otherwise the verdict is the number of
    right-half-plane characteristic roots, 0 at the origin, counted along
    the path (0, 0) -> (tau1, 0) -> (tau1, tau2) (Gu, Niculescu & Chen,
    J. Math. Anal. Appl. 311 (2005) 231-253): each imaginary-axis crossing
    on the path adds 2 or -2 by the side to which it crosses.  The leg
    tau2 = 0 has at most one crossing frequency, in closed form
    (:func:`_single_delay_crossings`), where roots cross to the right; the
    leg on the tau1 line takes every crossing of the line scan
    :func:`_line_crossings`, the first of which is ``critical_tau2``.  A
    crossing on the tau1 line recurring within 1e-9*tau2 of tau2, the corner's
    slack, makes the point OnBoundary (every point, where crossings recur
    closer than about 2e-9*tau2); otherwise it is Stable iff the count is 0.
    A vanishing coefficient leaves one delay, whose leg is closed form too.

    Raises ValueError for a coefficient that is not a finite real number, a
    delay that is not a nonnegative finite one, a band beyond the float range,
    coefficients whose squares overflow, a line over the scan budget, a
    crossing frequency or delay beyond the float range, or a tangential
    crossing on the path, where the count is undefined.
    """
    al = order_value(alpha)
    a, b = coef
    a, b = _real("a", a), _real("b", b)
    tau1, tau2 = delays
    tau1, tau2 = _real("tau1", tau1, "nonnegative"), _real("tau2", tau2, "nonnegative")
    zero_verdict = stable_at_zero_delay((a, b))
    stable = zero_verdict is StabilityVerdict.STABLE_AT_ZERO_DELAYS
    if tau1 == 0.0 and tau2 == 0.0:
        return Classification(zero_verdict, None, 0 if stable else None)
    if zero_verdict is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS:
        return Classification(StabilityVerdict.UNSTABLE, None, None)
    if not stable:
        return Classification(StabilityVerdict.ON_BOUNDARY, None, None)
    _finite_band(al, a, b)
    leg1 = _single_delay_crossings(al, a, b)
    last, boundary, corner = tau2, None, 0
    if b == 0.0:
        # tau2 drops out: the tau1 leg reaches the point, and the tau1 line
        # meets no crossing.
        leg1, leg2, last = [], leg1, tau1
    elif a == 0.0:
        leg2 = _single_delay_crossings(al, b, 0.0)
        boundary = min((tau0 for tau0, _, _ in leg2), default=None)
    else:
        q = tau1
        v, w, tau0 = (x.tolist() for x in _line_crossings(al, a, b, q))
        # A leg-1 crossing within rounding of tau1 puts a root on the axis at
        # the corner (tau1, 0).  The line crossing nearest its frequency is
        # that root (the rounding of tau1 can move the frequency by more),
        # its phase rounded to 0 or to 2*pi/v.  Leg 1 crosses to the right,
        # so the root is in the right half-plane above the corner iff its
        # side on the line is positive: it is counted there, not on leg 1,
        # and as any crossing from one period up the line.
        ends = []
        for t, x, _ in leg1:
            laps = round((q - t) / (_TWO_PI / x))
            if laps >= 0 and abs(t + laps * (_TWO_PI / x) - q) <= _SCAN_SLACK * q:
                ends.append(x)
                corner += 2 * laps
        leg1 = [crossing for crossing in leg1 if crossing[1] not in ends]
        near = {min(range(len(v)), key=lambda i: abs(v[i] - e)) for e in ends if v}
        at_end = [i in near for i in range(len(v))]
        boundary = 0.0 if near else min(tau0, default=None)
        leg2 = []
        for t, x, z, end in zip(tau0, v, w, at_end):
            # Sides only for the crossings that can lie below the point or
            # within rounding of it.
            if end or t <= tau2 * (1.0 + _SCAN_SLACK):
                side = _side(al, x, z, a * q * cmath.exp(-1j * x * q))
                leg2.append((_TWO_PI / x if end else t, x, side))
                corner += 2 if end and side > 0.0 else 0
    count = _tally(leg2, last)
    if count is None:
        return Classification(StabilityVerdict.ON_BOUNDARY, boundary, None)
    # Leg 1 is never None: the corner rule took its crossings that close to tau1.
    count += corner + _tally(leg1, tau1)
    if count < 0:
        raise RuntimeError(
            f"internal error: {count} right-half-plane roots counted at {(tau1, tau2)} for "
            f"a={a}, b={b}, alpha={al}"
        )
    verdict = StabilityVerdict.STABLE if count == 0 else StabilityVerdict.UNSTABLE
    return Classification(verdict, boundary, count)
