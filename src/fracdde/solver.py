"""Time stepping for scalar fractional equations with two discrete delays.

The initial value problem

    D^alpha x(t) = g(x(t - tau1), x(t - tau2)),    x(t) = phi(t) on [-tau_max, 0]

with Caputo derivative of order alpha in (0, 1] is equivalent to the Volterra
integral equation x(t) = phi(0) + I^alpha[g(...)](t).  The stepper discretizes
that integral with product-trapezoidal weights on a uniform grid chosen so
that both delays are whole numbers of steps, which keeps every delayed sample
on the grid and makes the scheme explicit.

Both delays are at least ``kmin = min(k1, k2)`` steps, so the right-hand
side at the next ``kmin`` grid points reads only states already computed:
the stepper advances in chunks of up to ``kmin`` steps, with one vectorized
call of the elementwise ``g`` per chunk.  Delays shorter than ``_MIN_CHUNK``
steps make chunks too short to pay for numpy's call overhead, and those runs
are stepped one point at a time with ``g`` called on floats.

Every step needs the whole memory of g.  The stepper splits that sum in two
(the divide-and-conquer scheme of Hairer, Lubich and Schlichte, SIAM J. Sci.
Stat. Comput. 6 (1985) 532-541): the near part, the samples of the current
block of ``_BLOCK`` steps, is one product with the block's lower-triangular
weight matrix per chunk (a short dot product per step in the one-point
loop); the far part reaches each block already summed.  One loop runs the
blocks in order; after block ``done`` (counting from 1), one convolution,
direct when short and by FFT when long, adds its last ``d = done & -done``
blocks to the far part of the next ``d``.  A run of N steps costs
O(N log^2 N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IncommensurableDelaysError
from .numerics import (
    FractionalOrder,
    corner_weight_table,
    gamma_function,
    interior_weight_table,
    order_value,
)

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

# Steps advanced between far-field updates, and the convolution length
# above which the far field is added by FFT rather than directly.  Both are
# powers of two, and so is every convolution length.
_BLOCK = 32
_FFT_THRESHOLD = 256
# Shortest delay, in steps, advanced in vectorized chunks; below it a chunk
# costs more in numpy call overhead than one scalar step per point.
_MIN_CHUNK = 8


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

    ``g`` maps the two delayed states to the fractional derivative.  It must
    be elementwise: :func:`simulate` calls it with two float64 arrays of
    equal length and expects the values pointwise (an array of that length,
    or a scalar that broadcasts), and it calls it with floats too.  Write it
    with arithmetic operators and numpy functions (``np.sin``, not
    ``math.sin``); ``simulate`` raises TypeError on the first call if ``g``
    rejects arrays.  The linearization and the equilibrium search call ``g``
    with floats only.  The partial derivatives, when supplied, are evaluated
    at diagonal points (x, x) by the linearization, with floats; omitting
    them switches the caller to finite differences.
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


def simulate(
    rhs: SystemRhs,
    alpha: FractionalOrder | float,
    grid: CommensurateGrid,
    history: History,
) -> Trajectory:
    """Integrate the two-delay problem over the given grid.

    The right-hand side is evaluated exactly once per grid point and the
    evaluations are memoized.  ``rhs.g`` must be elementwise: both delays
    are at least ``kmin = min(k1, k2)`` steps, so the next ``kmin`` states
    depend only on states already computed, and ``g`` is called once per
    chunk of up to ``kmin`` grid points with two float64 arrays.  A ``g``
    that rejects arrays (one written with :func:`math.sin`, say) raises
    TypeError on its first call.  Step ``j`` adds the samples of its own
    block of ``_BLOCK`` steps, one small matrix product per chunk, to a
    far-field sum over all older samples; after block ``done`` one
    convolution adds its last ``done & -done`` blocks to that sum for as
    many blocks ahead, so the whole run is O(N log^2 N).  When ``kmin`` is
    below ``_MIN_CHUNK`` the steps are taken one at a time instead, with
    ``g`` called on floats.

    A history callable is sampled on [-tau_max, 0] and must be finite there.
    If the state leaves the finite float range the run stops and the partial
    trajectory is returned with ``truncated_at`` set; blow-up is data, not
    an exception.

    Parameters
    ----------
    rhs : SystemRhs
        Right-hand side of the equation; ``rhs.g`` must be elementwise.
    alpha : float or FractionalOrder
        Caputo derivative order in (0, 1].
    grid : CommensurateGrid
        Output of :func:`build_grid`.
    history : float or callable
        Constant history value, or a function of t on [-tau_max, 0].

    Returns
    -------
    Trajectory

    Raises
    ------
    TypeError
        If ``rhs.g`` does not accept float64 arrays.
    """
    al = order_value(alpha)
    k1, k2, n_total = grid.k1, grid.k2, grid.n_steps
    k = grid.history_steps
    kmin = min(k1, k2)
    h = grid.h
    phi = _history_callable(history)
    g = rhs.g

    x = np.empty(n_total + k + 1, dtype=float)
    for j in range(-k, 1):
        value = float(phi(j * h))
        if not math.isfinite(value):
            raise ValueError(f"history is not finite at t = {j * h:g}")
        x[j + k] = value
    phi0 = float(x[k])

    interior = interior_weight_table(al, max(n_total, 1))
    corner = corner_weight_table(al, n_total)
    c = h ** al / gamma_function(al + 2.0)

    # The memory sum of step j in a block starting at lo is
    # acc[j] + sum over l in lo..j of w[j - l] * f[l], with w[0] = 1 the
    # trailing weight and w[m] = interior[m]; toeplitz holds the block's
    # weights as a lower-triangular matrix.
    w = np.concatenate(([1.0], interior[1:_BLOCK]))
    lag = np.subtract.outer(np.arange(len(w)), np.arange(len(w)))
    toeplitz = np.tril(w[np.abs(lag)])
    f = np.empty(n_total + 1, dtype=float)
    # Steps 0..known read only the history, so g covers them in one call:
    # the first call, at least two points long, where a g that is not
    # elementwise shows itself.
    known = min(kmin, n_total)
    # acc[j] collects corner[j - 1] * f[0] and interior[j - l] * f[l] over
    # every l in 1..j-1 outside the block containing j; spectra caches the
    # weight FFTs by length.
    acc = np.empty(n_total + 1, dtype=float)
    spectra: dict[int, np.ndarray] = {}
    # The per-step body keeps its block's f in fb; heads[m] = fb[:m] and
    # tails[m] = toeplitz[m, :m] = (interior[m], ..., interior[1]) are fixed
    # views, so its dot products take no slices.
    fb = np.empty(len(w), dtype=float)
    heads = [fb[:m] for m in range(len(w))]
    tails = [toeplitz[m, :m] for m in range(len(w))]

    def step_each(lo: int, hi: int, evaluated: int = known) -> int | None:
        # One step at a time, calling g on floats past f[evaluated].
        # Python floats from here on: the same IEEE arithmetic as numpy
        # scalars, without their per-operation overhead.
        ready = min(hi, evaluated + 1) - lo
        if ready > 0:
            fb[:ready] = f[lo : lo + ready]
        acc_terms = acc[lo:hi].tolist()
        for m in range(hi - lo):
            j = lo + m
            if j > evaluated:
                try:
                    fj = float(g(x.item(k + j - k1), x.item(k + j - k2)))
                except OverflowError:
                    # Python floats raise from ** and math functions where
                    # IEEE arithmetic gives inf; a diverging state is a
                    # truncation, not an exception.
                    fj = math.inf
                fb[m] = fj
            else:
                fj = fb.item(m)
            s = acc_terms[m] + fj
            if m:
                s += float(tails[m].dot(heads[m]))
            value = phi0 + c * s
            if not math.isfinite(value):
                x[k + j :] = np.nan
                return j
            x[k + j] = value
        f[lo:hi] = fb[: hi - lo]
        return None

    def step_chunks(lo: int, hi: int) -> int | None:
        # Chunks of at most kmin steps: every delayed argument of a chunk
        # lies before it, so one g call and one product with the block's
        # weights advance the whole chunk.
        for s in range(lo, hi, kmin):
            e = min(s + kmin, hi)
            a = max(s, known + 1)
            if a < e:
                f[a:e] = g(x[k + a - k1 : k + e - k1], x[k + a - k2 : k + e - k2])
            y = toeplitz[s - lo : e - lo, : e - lo].dot(f[lo:e])
            y += acc[s:e]
            y *= c
            y += phi0
            x[k + s : k + e] = y
        if np.isfinite(x[k + lo : k + hi]).all():
            return None
        # The zero upper triangle times a non-finite f puts NaN on the
        # earlier rows of its chunk, so find the first non-finite state
        # again step by step, from the f already evaluated.
        return step_each(lo, hi, hi - 1)

    def add_far(lo: int, mid: int, hi: int, size: int) -> None:
        # Add the finished f[lo:mid] to acc[mid:hi].  Target j reads source l
        # at offset j - l in 1..hi-lo-1; with v = interior[1:], that is entry
        # (l - lo) + (j - l - 1) = j - lo - 1 of the linear convolution of
        # f[lo:mid] with v, a window that a cyclic convolution of length
        # size >= hi - lo - 1 leaves unaliased.
        seg = f[lo:mid]
        peak = float(np.max(np.abs(seg)))
        if peak == 0.0:
            # A run sitting on an equilibrium: add exactly nothing.
            return
        if size <= _FFT_THRESHOLD:
            acc[mid:hi] += np.convolve(interior[1 : hi - lo], seg, mode="valid")
            return
        w_hat = spectra.get(size)
        if w_hat is None:
            w_hat = spectra[size] = np.fft.rfft(interior[1:size], size)
        # Scale by an exact power of two so that the transform works near 1
        # and cannot overflow before the direct sum would.
        e = math.frexp(peak)[1]
        y = np.fft.irfft(np.fft.rfft(np.ldexp(seg, -e), size) * w_hat, size)
        acc[mid:hi] += np.ldexp(y[mid - lo - 1 : hi - lo - 1], e)

    # Overflow to inf is the expected signal of a diverging trajectory and
    # is handled by the truncation checks, so numpy must not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            f[: known + 1] = g(
                x[k - k1 : k - k1 + known + 1], x[k - k2 : k - k2 + known + 1]
            )
        except (TypeError, ValueError) as exc:
            raise TypeError(
                "SystemRhs.g failed on float64 arrays; simulate needs an elementwise "
                "g, written with numpy operations (np.sin, not math.sin)"
            ) from exc
        acc[0] = 0.0
        acc[1:] = corner[:n_total] * f[0]
        step = step_chunks if kmin >= _MIN_CHUNK else step_each
        truncated_at = None
        for lo in range(1, n_total + 1, _BLOCK):
            hi = lo + _BLOCK
            truncated_at = step(lo, min(hi, n_total + 1))
            if truncated_at is not None or hi > n_total:
                break
            # With `done` blocks finished, the last lowbit(done) of them are
            # the first half of an aligned run twice as long (the
            # divide-and-conquer schedule): add them to its second half.
            done = (hi - 1) // _BLOCK
            span = (done & -done) * _BLOCK
            add_far(hi - span, hi, min(hi + span, n_total + 1), 2 * span)
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
