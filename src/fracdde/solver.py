"""Time stepping for scalar fractional equations with two discrete delays.

The initial value problem

    D^alpha x(t) = g(x(t - tau1), x(t - tau2)),    x(t) = phi(t) on [-tau_max, 0]

with Caputo derivative of order alpha in (0, 1] is equivalent to the Volterra
integral equation x(t) = phi(0) + I^alpha[g(...)](t).  The stepper discretizes
that integral with product-trapezoidal weights on a uniform grid chosen so
that both delays are whole numbers of steps, which keeps every delayed sample
on the grid and makes the scheme explicit.

Every step needs the whole memory of g.  The stepper splits that sum in two
(the divide-and-conquer scheme of Hairer, Lubich and Schlichte, SIAM J. Sci.
Stat. Comput. 6 (1985) 532-541): the near part, the samples of the current
block of ``_BLOCK`` steps, is a short dot product inside the scalar loop; the
far part reaches each block already summed, added by convolutions of finished
halves of the history against the weight table, direct for short ones and by
FFT for long ones.  A run of N steps costs O(N log^2 N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IncommensurableDelaysError
from .numerics import FractionalOrder, corner_weight_table, interior_weight_table, order_value

__all__ = [
    "DelayPair",
    "SystemRhs",
    "CommensurateGrid",
    "Trajectory",
    "History",
    "build_grid",
    "simulate",
    "phase_columns",
]

History = float | Callable[[float], float]

_DIVISOR_LIMIT = 1024

# Steps advanced by the scalar loop between far-field updates, and the
# convolution length above which the far field is added by FFT rather than
# directly.  Both are powers of two, and so is every convolution length.
_BLOCK = 32
_FFT_THRESHOLD = 256


@dataclass(frozen=True)
class DelayPair:
    """The two feedback delays.  Both must be nonnegative and finite."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        for name, value in (("tau1", self.tau1), ("tau2", self.tau2)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number")
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")

    @property
    def max(self) -> float:
        return max(self.tau1, self.tau2)


def _as_delays(delays: DelayPair | tuple[float, float]) -> DelayPair:
    if isinstance(delays, DelayPair):
        return delays
    tau1, tau2 = delays
    return DelayPair(float(tau1), float(tau2))


@dataclass(frozen=True)
class SystemRhs:
    """Right-hand side g(x_tau1, x_tau2) with optional analytic partials.

    ``g`` maps the two delayed states to the fractional derivative.  The
    partial derivatives, when supplied, are evaluated at diagonal points
    (x, x) by the linearization; omitting them switches the caller to finite
    differences.
    """

    g: Callable[[float, float], float]
    dg_dx1: Callable[[float, float], float] | None = None
    dg_dx2: Callable[[float, float], float] | None = None


@dataclass(frozen=True)
class CommensurateGrid:
    """Uniform time grid on which both delays are whole numbers of steps."""

    h: float
    n_steps: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        if not (isinstance(self.h, float) and math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step must be a positive finite float, got {self.h!r}")
        for name, value in (("n_steps", self.n_steps), ("k1", self.k1), ("k2", self.k2)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def history_steps(self) -> int:
        """Number of grid points the history must cover, max(k1, k2)."""
        return max(self.k1, self.k2)

    @property
    def t_end(self) -> float:
        return self.n_steps * self.h


@dataclass(frozen=True)
class Trajectory:
    """Simulation output on a uniform grid.

    ``values[j]`` is the state at time ``(j - history_steps) * h`` for
    ``j = 0..history_steps + n_steps``; the first ``history_steps + 1``
    entries reproduce the history on [-tau_max, 0].  ``truncated_at`` is
    None for a complete run, otherwise the step index (in time units,
    ``truncated_at * h``) at which the state first left the finite float
    range; entries from that index on are NaN.
    """

    h: float
    history_steps: int
    values: np.ndarray
    truncated_at: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.values) - self.history_steps - 1

    @property
    def is_truncated(self) -> bool:
        return self.truncated_at is not None

    def times(self) -> np.ndarray:
        """Grid times aligned with ``values``, from -tau_max to t_end."""
        return (np.arange(len(self.values)) - self.history_steps) * self.h


def build_grid(
    delays: DelayPair | tuple[float, float],
    t_end: float,
    h_request: float,
    tolerance: float = 1e-9,
) -> CommensurateGrid:
    """Choose the largest admissible step no larger than the requested one.

    Steps of the form ``h_request / m`` are tried for ``m = 1..1024``; the
    first (largest) one for which both delays and the horizon round to whole
    numbers of steps within the relative tolerance is selected.  Each delay
    must span at least one step, which is what makes the stepper explicit.

    Raises
    ------
    IncommensurableDelaysError
        If no admissible step exists, e.g. when the delay ratio is
        irrational or beyond the divisor search range.
    """
    d = _as_delays(delays)
    t_end = float(t_end)
    h_request = float(h_request)
    tolerance = float(tolerance)
    if d.tau1 <= 0.0 or d.tau2 <= 0.0:
        raise ValueError("both delays must be positive to build a grid")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {t_end!r}")
    if not (math.isfinite(h_request) and h_request > 0.0):
        raise ValueError(f"requested step must be positive and finite, got {h_request!r}")
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tolerance!r}")
    for m in range(1, _DIVISOR_LIMIT + 1):
        h = h_request / m
        k1 = round(d.tau1 / h)
        k2 = round(d.tau2 / h)
        n = round(t_end / h)
        if k1 < 1 or k2 < 1 or n < 1:
            continue
        if (
            abs(k1 * h - d.tau1) <= tolerance * d.tau1
            and abs(k2 * h - d.tau2) <= tolerance * d.tau2
            and abs(n * h - t_end) <= tolerance * t_end
        ):
            return CommensurateGrid(h=h, n_steps=n, k1=k1, k2=k2)
    raise IncommensurableDelaysError(
        f"no step of the form {h_request:g}/m with m <= {_DIVISOR_LIMIT} places "
        f"delays ({d.tau1:g}, {d.tau2:g}) and horizon {t_end:g} on a common grid "
        f"within relative tolerance {tolerance:g}"
    )


def _history_callable(history: History) -> Callable[[float], float]:
    if callable(history):
        return history
    value = float(history)
    return lambda _t: value


def _eval_rhs(rhs: SystemRhs, x1: float, x2: float) -> float:
    # Python floats raise OverflowError from ** and math functions where
    # IEEE arithmetic would produce inf; map that back to inf so a diverging
    # trajectory is reported as truncation rather than as an exception.
    try:
        return float(rhs.g(x1, x2))
    except OverflowError:
        return math.inf


def simulate(
    rhs: SystemRhs,
    alpha: FractionalOrder | float,
    grid: CommensurateGrid,
    history: History,
) -> Trajectory:
    """Integrate the two-delay problem over the given grid.

    The right-hand side is evaluated exactly once per grid point and the
    evaluations are memoized.  Step ``j`` adds a short dot product over the
    samples of its own block to a far-field sum over all older samples,
    which divide-and-conquer convolutions of the finished history have
    already accumulated, so the whole run is O(N log^2 N).  Delayed indices
    always lag the step target by at least one point (``k1, k2 >= 1``), so no
    implicit solve is ever needed.

    A history callable is sampled on [-tau_max, 0] and must be finite there.
    If the state leaves the finite float range the run stops and the partial
    trajectory is returned with ``truncated_at`` set; blow-up is data, not
    an exception.

    Parameters
    ----------
    rhs : SystemRhs
        Right-hand side of the equation.
    alpha : float or FractionalOrder
        Caputo derivative order in (0, 1].
    grid : CommensurateGrid
        Output of :func:`build_grid`.
    history : float or callable
        Constant history value, or a function of t on [-tau_max, 0].

    Returns
    -------
    Trajectory
    """
    al = order_value(alpha)
    k1, k2, n_total = grid.k1, grid.k2, grid.n_steps
    k = grid.history_steps
    h = grid.h
    phi = _history_callable(history)

    x = np.empty(n_total + k + 1, dtype=float)
    for j in range(-k, 1):
        value = float(phi(j * h))
        if not math.isfinite(value):
            raise ValueError(f"history is not finite at t = {j * h:g}")
        x[j + k] = value
    phi0 = float(x[k])

    interior = interior_weight_table(al, max(n_total, 1))
    corner = corner_weight_table(al, n_total)
    c = h ** al / math.gamma(al + 2.0)

    # Hand built-in floats to the right-hand side: numpy scalars silently
    # produce inf with a warning where float raises OverflowError, and the
    # truncation contract is defined in terms of the latter.
    f = np.empty(n_total + 1, dtype=float)
    f0 = f[0] = _eval_rhs(rhs, float(x[k - k1]), float(x[k - k2]))
    # far[j] collects interior[j - l] * f[l] over every l in 1..j-1 that lies
    # outside the block containing j; spectra caches the weight FFTs by length.
    far = np.zeros(n_total + 1, dtype=float)
    spectra: dict[int, np.ndarray] = {}
    # near[-m:] holds interior[m], ..., interior[1], contiguous for np.dot.
    near = interior[_BLOCK - 1 : 0 : -1].copy()

    def advance_block(lo: int, hi: int) -> int | None:
        # Python floats from here on: the same IEEE arithmetic as numpy
        # scalars, without their per-operation overhead.
        corner_terms = (corner[lo - 1 : hi - 1] * f0).tolist()
        far_terms = far[lo:hi].tolist()
        for j in range(lo, hi):
            fj = _eval_rhs(rhs, float(x[k + j - k1]), float(x[k + j - k2]))
            f[j] = fj
            s = corner_terms[j - lo] + fj + far_terms[j - lo]
            if j > lo:
                # f[lo:j] pairs f[lo] with offset j - lo, down to f[j-1] with offset 1.
                s += float(np.dot(near[lo - j :], f[lo:j]))
            value = phi0 + c * s
            if not math.isfinite(value):
                x[k + j :] = np.nan
                return j
            x[k + j] = value
        return None

    def add_far(lo: int, mid: int, hi: int, size: int) -> None:
        # Add the finished f[lo:mid] to far[mid:hi].  Target j reads source l
        # at offset j - l in 1..hi-lo-1; with w = interior[1:], that is entry
        # (l - lo) + (j - l - 1) = j - lo - 1 of the linear convolution of
        # f[lo:mid] with w, a window that a cyclic convolution of length
        # size >= hi - lo - 1 leaves unaliased.
        seg = f[lo:mid]
        peak = float(np.max(np.abs(seg)))
        if peak == 0.0:
            # A run sitting on an equilibrium: add exactly nothing.
            return
        if size <= _FFT_THRESHOLD:
            far[mid:hi] += np.convolve(interior[1 : hi - lo], seg, mode="valid")
            return
        w_hat = spectra.get(size)
        if w_hat is None:
            w_hat = spectra[size] = np.fft.rfft(interior[1:size], size)
        # Scale by an exact power of two so that the transform works near 1
        # and cannot overflow before the direct sum would.
        e = math.frexp(peak)[1]
        y = np.fft.irfft(np.fft.rfft(np.ldexp(seg, -e), size) * w_hat, size)
        far[mid:hi] += np.ldexp(y[mid - lo - 1 : hi - lo - 1], e)

    def advance(lo: int, size: int) -> int | None:
        # Steps lo..lo+size-1, clipped to the horizon; size is _BLOCK * 2**p.
        hi = min(lo + size, n_total + 1)
        if size <= _BLOCK:
            return advance_block(lo, hi)
        mid = lo + size // 2
        stop = advance(lo, size // 2)
        if stop is not None or mid >= hi:
            return stop
        add_far(lo, mid, hi, size)
        return advance(mid, size // 2)

    size = _BLOCK
    while size < n_total:
        size *= 2
    # Overflow to inf is the expected signal of a diverging trajectory and
    # is handled in advance_block, so numpy must not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        truncated_at = advance(1, size)
    return Trajectory(h=h, history_steps=k, values=x, truncated_at=truncated_at)


def phase_columns(traj: Trajectory, grid: CommensurateGrid) -> np.ndarray:
    """Delay-embedded view of a trajectory.

    Returns a float array with one row per computed grid time ``t >= 0`` and
    columns ``(t, x(t), x(t - tau1), x(t - tau2))``.  For a truncated run the
    rows stop at the last finite state.
    """
    if grid.history_steps != traj.history_steps:
        raise ValueError("grid and trajectory disagree on the history length")
    if abs(grid.h - traj.h) > 1e-12 * grid.h:
        raise ValueError("grid and trajectory disagree on the step size")
    last = traj.n_steps if traj.truncated_at is None else traj.truncated_at - 1
    idx = np.arange(last + 1)
    k = traj.history_steps
    return np.column_stack(
        [
            idx * traj.h,
            traj.values[k + idx],
            traj.values[k + idx - grid.k1],
            traj.values[k + idx - grid.k2],
        ]
    )
