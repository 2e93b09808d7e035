"""Spans around the calls into each fracdde module, recorded from outside.

The tracer replaces public functions at the module attributes their callers
look up (for example ``fracdde.cli.simulate``) with wrappers that record a
span: name, start, end and the index of the enclosing span.  Calls into the
right-hand side are too many and too short for one span each, so their count
and busy time are summed per enclosing span instead.  Everything stays in
memory until the run ends.

Only attributes that exist are wrapped; a missing one is reported as absent,
so the trace keeps working when later versions merge or remove functions.
"""

from __future__ import annotations

import dataclasses
import inspect
from time import perf_counter

# (module, attribute the caller looks up, span name)
TARGETS = [
    ("fracdde.cli", "simulate", "solver.simulate"),
    ("fracdde.cli", "build_grid", "solver.build_grid"),
    ("fracdde.cli", "phase_columns", "solver.phase_columns"),
    ("fracdde.cli", "classify", "stability.classify"),
    ("fracdde.cli", "delay_plane_boundary", "stability.delay_plane_boundary"),
    ("fracdde.cli", "critical_curve", "stability.critical_curve"),
    ("fracdde.cli", "find_equilibria", "stability.find_equilibria"),
    ("fracdde.cli", "linearize", "stability.linearize"),
    ("fracdde.stability", "critical_tau2_for_tau1", "stability.critical_tau2_for_tau1"),
    ("fracdde.stability", "delay_plane_boundary", "stability.delay_plane_boundary"),
    ("fracdde.stability", "critical_curve", "stability.critical_curve"),
    ("fracdde.solver", "interior_weight_table", "numerics.weights"),
    ("fracdde.solver", "corner_weight_table", "numerics.weights"),
]

# Factories whose SystemRhs result gets its callables wrapped.
RHS_FACTORIES = [("fracdde.cli", "ucar_rhs"), ("fracdde.cli", "ikeda_rhs"),
                 ("fracdde.cli", "SystemRhs")]
RHS_FIELDS = ("g", "dg_dx1", "dg_dx2")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.rhs: dict[int, list] = {}  # parent span index -> [calls, busy seconds]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()

    def span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def rhs_callable(self, fn):
        busy, stack = self.rhs, self.stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = busy.setdefault(stack[-1] if stack else -1, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return traced

    def count(self, name: str, value: float) -> None:
        if name in MAXIMA:
            self.counts[name] = max(self.counts.get(name, value), value)
        else:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def _counter(self, name: str, fn):
        """on_result hook adding the counts measured from a call's result.

        A result of an unexpected shape marks the counter as unavailable
        instead of failing the job.
        """
        measure = _measure(name, fn)
        if measure is None:
            return None

        def hook(args, kwargs, result):
            try:
                counts = measure(args, kwargs, result)
            except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                self.broken_counters.add(name)
                return
            for key, value in counts.items():
                self.count(key, value)

        return hook

    def install(self, modules: dict) -> None:
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, fn, self._counter(name, fn)))
        for module_name, attr in RHS_FACTORIES:
            module = modules[module_name]
            factory = getattr(module, attr, None)
            if factory is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._rhs_factory(factory))

    def _rhs_factory(self, factory):
        def build(*args, **kwargs):
            rhs = factory(*args, **kwargs)
            if not dataclasses.is_dataclass(rhs):
                self.broken_counters.add("models.rhs")
                return rhs
            wrapped = {f: self.rhs_callable(getattr(rhs, f)) for f in RHS_FIELDS
                       if callable(getattr(rhs, f, None))}
            return dataclasses.replace(rhs, **wrapped)

        return build


# Counters reported as the largest value seen rather than a sum.
MAXIMA = {"solver.grid_divisor"}


def _measure(name: str, fn):
    if name == "solver.simulate":
        return _simulate_counts
    if name == "solver.build_grid":
        signature = inspect.signature(fn)

        def grid_counts(args, kwargs, grid):
            h_request = float(signature.bind(*args, **kwargs).arguments["h_request"])
            return {"solver.grid_divisor": round(h_request / grid.h)}

        return grid_counts
    if name == "numerics.weights":
        return lambda args, kwargs, table: {"numerics.weights.entries": len(table)}
    if name == "stability.critical_curve":
        return lambda args, kwargs, points: {"stability.critical_curve.points": len(points)}
    return None


def _simulate_counts(args, kwargs, traj) -> dict:
    truncated = traj.truncated_at
    steps = traj.n_steps if truncated is None else truncated
    return {"solver.steps": steps, "solver.truncations": int(truncated is not None)}


def summarize(tracer: Tracer, first: int, last: int) -> dict:
    """Per-name totals over spans[first:last]: calls, seconds and self seconds.

    Self time is a span's duration minus the time its direct children and its
    right-hand-side calls cover.
    """
    spans = tracer.spans
    child_time = [0.0] * (last - first)
    for i in range(first, last):
        name, start, end, parent = spans[i]
        if parent >= first:
            child_time[parent - first] += end - start
    totals: dict[str, list] = {}
    rhs_calls = 0
    rhs_busy = 0.0
    for i in range(first, last):
        name, start, end, parent = spans[i]
        calls, busy = tracer.rhs.get(i, (0, 0.0))
        rhs_calls += calls
        rhs_busy += busy
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i - first] - busy
    return {"spans": totals, "rhs_calls": rhs_calls, "rhs_busy": rhs_busy}
