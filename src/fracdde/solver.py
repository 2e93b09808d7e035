"""Time stepping for scalar fractional equations with two discrete delays.

The initial value problem

    D^alpha x(t) = g(x(t - tau1), x(t - tau2)),    x(t) = phi(t) on [-tau_max, 0]

with Caputo derivative of order alpha in (0, 1] is equivalent to the Volterra
integral equation x(t) = phi(0) + I^alpha[g(...)](t).  The stepper discretizes
that integral with product-trapezoidal weights on a uniform grid of the
requested step.  A delay of ``k + theta`` steps reads the sample ``k`` steps
back, or for ``theta > 0`` interpolates linearly with the one before (Bellen
and Zennaro, Numerical Methods for Delay Differential Equations, OUP 2003).

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
weight matrix per chunk (in the one-point loop, one dot product per step of
a precomputed weight row with the block's samples so far, zero past them);
the far part reaches each block already summed.  One loop runs the
blocks in order; after block ``done`` (counting from 1), one FFT
convolution adds its last ``d = done & -done`` blocks to the far part of
the next ``d``.  A run of N steps costs O(N log^2 N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import _real, corner_weight_table, interior_weight_table, order_value

__all__ = [
    "SystemRhs",
    "Grid",
    "Trajectory",
    "History",
    "simulate",
]

History = float | Callable[[float], float]

# Relative slack within which a span counts as a whole number of steps.
_SLACK = 1e-9

# Steps advanced between far-field updates: a power of two, and so is every
# FFT length.  Long enough that the shortest transform pays for its call
# overhead, short enough that the block's weight matrix stays small.
_BLOCK = 128
# Shortest delay, in steps, advanced in vectorized chunks; below it a chunk
# costs more in numpy call overhead than one scalar step per point.
_MIN_CHUNK = 8


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
class Grid:
    """Uniform grid of step ``h`` that :func:`simulate` ran on; delay i is
    ``ki >= 1`` steps plus an offset ``thetai`` in [0, 1), read by
    interpolation when nonzero."""

    h: float
    n_steps: int
    k1: int
    k2: int
    theta1: float = 0.0
    theta2: float = 0.0

    @property
    def history_steps(self) -> int:
        """Grid points the history covers: each delay's ``ki``, plus one if off grid."""
        return max(self.k1 + (self.theta1 > 0.0), self.k2 + (self.theta2 > 0.0))


@dataclass(frozen=True)
class Trajectory:
    """Simulation output on the uniform ``grid`` it ran on.

    ``values[j]`` is the state at time ``(j - k) * h`` for ``j = 0..k +
    n_steps``, with ``k = grid.history_steps`` and ``h = grid.h``; the
    first ``k + 1`` entries are the history on [-k * h, 0], which an
    off-grid delay starts up to one step before -tau_max.  ``truncated_at``
    is None for a complete run, otherwise the step index (in time units,
    ``truncated_at * h``) at which the state first left the finite float
    range; entries from that index on are NaN.
    """

    grid: Grid
    values: np.ndarray
    truncated_at: int | None = None

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def times(self) -> np.ndarray:
        """Grid times aligned with ``values``, from -history_steps * h to n_steps * h."""
        return (np.arange(len(self.values)) - self.grid.history_steps) * self.grid.h


def _build_grid(delays: tuple[float, float], t_end: float, h_request: float) -> Grid:
    # The grid that simulate's docstring describes.  Each delay must span at
    # least one step, which is what makes the stepper explicit.
    tau1, tau2 = delays
    tau1, tau2 = _real("tau1", tau1, "nonnegative"), _real("tau2", tau2, "nonnegative")
    t_end = _real("horizon", t_end, "positive")
    h = _real("requested step", h_request, "positive")
    spans = (tau1, tau2, t_end)
    if not all(math.isfinite(s / h) for s in spans):
        raise ValueError(
            f"delays ({tau1:g}, {tau2:g}) and horizon {t_end:g} "
            f"span too many steps h = {h:g} to count"
        )
    (k1, theta1), (k2, theta2), (n, rest) = (_steps(s, h) for s in spans)
    if min(k1, k2) < 1:
        raise ValueError(f"delay {min(tau1, tau2):g} is shorter than the step h = {h:g}")
    return Grid(h=h, n_steps=n + (rest > 0.0), k1=k1, k2=k2, theta1=theta1, theta2=theta2)


def _steps(span: float, h: float) -> tuple[int, float]:
    # span = (k + theta) * h with theta in [0, 1), and theta exactly 0.0
    # when span is within _SLACK relative of k whole steps.
    k = round(span / h)
    if abs(k * h - span) <= _SLACK * span:
        return k, 0.0
    whole, theta = divmod(span / h, 1.0)
    return int(whole), theta


def _delayed(x: np.ndarray, i: int, theta: float, n: int) -> np.ndarray:
    # The states theta steps before x[i : i + n]; with theta == 0 the
    # samples themselves.
    now = x[i : i + n]
    return now if theta == 0.0 else now + theta * (x[i - 1 : i + n - 1] - now)


def _history_callable(history: History) -> Callable[[float], float]:
    if callable(history):
        return history
    value = _real("history", history)
    return lambda _t: value


def simulate(
    rhs: SystemRhs,
    alpha: float,
    delays: tuple[float, float],
    t_end: float,
    h: float,
    history: History,
) -> Trajectory:
    """Integrate the two-delay problem up to ``t_end`` in steps of ``h``.

    The step is never changed.  A delay within 1e-9 relative of ``k`` whole
    steps is ``k`` steps with offset 0.0; any other delay is ``k =
    floor(tau / h)`` steps plus the offset ``tau / h - k`` in (0, 1), read
    by linear interpolation.  The horizon takes the fewest steps that reach
    ``t_end`` with the same slack.  The trajectory carries that
    :class:`Grid`.

    The right-hand side is evaluated exactly once per grid point and the
    evaluations are memoized; a delay off the grid interpolates the state
    it reads.  ``rhs.g`` must be elementwise: both delays are at least
    ``kmin = min(k1, k2)`` whole steps, so the next ``kmin`` states
    depend only on states already computed, and ``g`` is called once per
    chunk of up to ``kmin`` grid points with two float64 arrays.  A ``g``
    that rejects arrays (one written with :func:`math.sin`, say) raises
    TypeError on its first call.  Step ``j`` adds the samples of its own
    block of ``_BLOCK`` (128) steps, one small matrix product per chunk, to
    a far-field sum over all older samples; after block ``done`` one FFT
    convolution adds its last ``done & -done`` blocks to that sum for as
    many blocks ahead, so the whole run is O(N log^2 N).  When ``kmin`` is
    below ``_MIN_CHUNK`` the steps are taken one at a time instead, with
    ``g`` called on floats and one fixed-length dot product per step for
    the block's part of the sum.

    A history callable is sampled on [-grid.history_steps * h, 0] (up to one step
    before -tau_max for an off-grid delay) and must be finite there.
    If the state leaves the finite float range the run stops and the partial
    trajectory is returned with ``truncated_at`` set; blow-up is data, not
    an exception.

    Parameters
    ----------
    rhs : SystemRhs
        Right-hand side of the equation; ``rhs.g`` must be elementwise.
    alpha : float
        Caputo derivative order in (0, 1].
    delays : (float, float)
        The delays ``(tau1, tau2)``, each finite and at least ``h``.
    t_end, h : float
        Horizon and step, both positive and finite.
    history : float or callable
        Constant history value, or a function of t.

    Returns
    -------
    Trajectory

    Raises
    ------
    ValueError
        On a bad input, checked in this order: the delays, horizon and step
        (a delay shorter than the step, or a span of more steps than a float
        can count, included), the order, the history.
    TypeError
        If ``rhs.g`` does not accept float64 arrays.
    """
    grid = _build_grid(delays, t_end, h)
    al = order_value(alpha)
    k1, k2, n_total = grid.k1, grid.k2, grid.n_steps
    th1, th2 = grid.theta1, grid.theta2
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
    c = h ** al / math.gamma(al + 2.0)

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

    # Row m of the block's weight matrix with its diagonal and upper part
    # zeroed: dotted with the block's f, filled up to step m and zero past
    # it, it gives step m's near sum at one fixed length.  Built on the
    # first one-point block; a chunk-body run needs it only to find a
    # truncation step.
    strict_rows: list[np.ndarray] = []

    def step_each(lo: int, hi: int, evaluated: int = known) -> int | None:
        # One step at a time, calling g on floats past f[evaluated].
        # Python floats from here on: the same IEEE arithmetic as numpy
        # scalars, without their per-operation overhead.  reads_i starts at
        # state lo - ki - 1 and grows by each new state, so step j reads
        # state j - ki at reads_i[j - lo + 1]; a delay of a block or more
        # finds every state it reads there from the start.  The block's
        # states reach x, and its f values f, once at the end.
        if not strict_rows:
            strict_rows.extend(np.tril(toeplitz, -1))
        reads1 = x[k + lo - k1 - 1 : k + min(lo, hi - k1)].tolist()
        reads2 = x[k + lo - k2 - 1 : k + min(lo, hi - k2)].tolist()
        first = len(reads1)
        acc_terms = acc[lo:hi].tolist()
        # Filled step by step: a non-finite f known ahead of the current
        # step would turn its zero weight into NaN.
        fblock = np.zeros(len(toeplitz))
        for m in range(hi - lo):
            j = lo + m
            if j > evaluated:
                x1 = reads1[m + 1]
                if th1:
                    x1 += th1 * (reads1[m] - x1)
                x2 = reads2[m + 1]
                if th2:
                    x2 += th2 * (reads2[m] - x2)
                try:
                    fj = float(g(x1, x2))
                except OverflowError:
                    # Python floats raise from ** and math functions where
                    # IEEE arithmetic gives inf; a diverging state is a
                    # truncation, not an exception.
                    fj = math.inf
            else:
                fj = f.item(j)
            fblock[m] = fj
            s = acc_terms[m] + fj
            if m:
                s += float(strict_rows[m].dot(fblock))
            value = phi0 + c * s
            if not math.isfinite(value):
                x[k + lo : k + j] = reads1[first:]
                x[k + j :] = np.nan
                return j
            reads1.append(value)
            reads2.append(value)
        x[k + lo : k + hi] = reads1[first:]
        f[lo:hi] = fblock[: hi - lo]
        return None

    def step_chunks(lo: int, hi: int) -> int | None:
        # Chunks of at most kmin steps: every delayed argument of a chunk
        # lies before it, so one g call and one product with the block's
        # weights advance the whole chunk.
        for s in range(lo, hi, kmin):
            e = min(s + kmin, hi)
            a = max(s, known + 1)
            if a < e:
                f[a:e] = g(_delayed(x, k + a - k1, th1, e - a), _delayed(x, k + a - k2, th2, e - a))
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
                _delayed(x, k - k1, th1, known + 1), _delayed(x, k - k2, th2, known + 1)
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
    return Trajectory(grid, x, truncated_at)
