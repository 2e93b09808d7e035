"""Output checks: each job's files and printed JSON against the benchmark's
own references.  A check returns an Outcome; ``ok`` False counts the job as
failed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIM_HEADER = "t,x,x_tau1,x_tau2"
CURVES_HEADER = "v,tau1,tau2,sign1,m1,sign2,m2,residual"
CLASSIFY_KEYS = {"verdict", "critical_tau2", "a", "b", "alpha", "tau1", "tau2"}
EQUILIBRIA_KEYS = {"x_star", "a", "b", "stable_at_zero"}
STABLE = {"Stable", "StableAtZeroDelays"}
UNSTABLE = {"Unstable", "UnstableAtZeroDelays"}

# Documented bound on every curves row, and the slack allowed for evaluating
# the same defect independently from the 17-digit CSV values.
CURVE_RESIDUAL = 1e-9
CURVE_RESIDUAL_INDEPENDENT = 2e-9

# Error allowed against the series solution, in units of
# |a + b| * |history| * h**(2 alpha).  The product-trapezoidal stepper measures
# at most 0.041 of that unit over the 360 single-delay jobs of seeds 1-20
# (alpha 0.5-1, h = 0.01); a stepper three times less accurate fails.
ORACLE_ERROR_UNITS = 0.12

# Recipe comparisons: rows compared closely (where a tiny change in the
# arithmetic cannot have grown yet) must agree to CLOSE_TOL relative to
# max(1, |x|); chaotic tails are checked by attractor statistics instead.
CLOSE_TOL = 1e-8
STATS_TOL = {"mean": 0.1, "std": 0.08, "min": 0.25, "max": 0.25}

_TRUNCATION = re.compile(r"at step (\d+)")


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    steps: int = 0  # grid steps integrated
    oracle_err: float | None = None
    verdict_agrees: bool | None = None


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason)


def read_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"header {first!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data


def attractor_stats(x: np.ndarray) -> dict:
    half = len(x) // 2
    return {
        "mean": [float(x[:half].mean()), float(x[half:].mean())],
        "std": [float(x[:half].std()), float(x[half:].std())],
        "min": float(x.min()),
        "max": float(x.max()),
    }


def _close(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref) / np.maximum(1.0, np.abs(ref))))


def _check_recipe(t: np.ndarray, x: np.ndarray, ref: dict) -> str:
    stride, until = ref["stride"], ref["close_until"]
    expected = np.array(ref["x"])
    got = x[: len(expected) * stride : stride]
    if len(got) != len(expected) or t[(len(expected) - 1) * stride] > until + 1e-9:
        return "reference sample grid mismatch"
    err = _close(got, expected)
    if not err <= CLOSE_TOL:
        return f"deviates from the frozen reference by {err:.3g} for t <= {until}"
    if "stats" in ref:
        frozen = ref["stats"]
        got_stats = attractor_stats(x[t >= frozen["from_t"]])
        for key, tol in STATS_TOL.items():
            for g, f in zip(np.ravel(got_stats[key]), np.ravel(frozen[key])):
                if not abs(g - f) <= tol:
                    return f"attractor {key} {g:.4g} differs from {f:.4g}"
    return ""


def check_simulate(job: dict, result: dict, workdir: Path, reference, recipe_refs: dict) -> Outcome:
    exp = job["expect"]
    if result["rc"] != exp["exit"]:
        return _fail(f"exit {result['rc']}, expected {exp['exit']}")
    steps = exp["steps"]
    rows = steps + 1
    if exp["exit"] == 2:
        match = _TRUNCATION.search(result["stderr"])
        if match is None:
            return _fail("truncation step not reported")
        steps = rows = int(match.group(1))
        if not 1 <= steps <= exp["steps"]:
            return _fail(f"reported truncation step {steps} outside the run")
    try:
        data = read_csv(workdir / job["out"], SIM_HEADER)
    except (OSError, ValueError) as exc:
        return _fail(f"unreadable CSV: {exc}")
    if data.shape != (rows, 4):
        return _fail(f"CSV shape {data.shape}, expected ({rows}, 4)")
    if not np.isfinite(data).all():
        return _fail("non-finite value in CSV")
    t, x, x1, x2 = data.T
    h, hist = exp["h"], exp["history"]
    j = np.arange(rows)
    if not np.all(np.abs(t - j * h) <= 1e-9 * np.maximum(1.0, t)):
        return _fail("time column is not the grid")
    if x[0] != hist:
        return _fail("x(0) differs from the history")
    for col, k in ((x1, exp["k1"]), (x2, exp["k2"])):
        lagged = np.where(j >= k, x[np.maximum(j - k, 0)], hist)
        if not np.array_equal(col, lagged):
            return _fail("delayed column is not x shifted by the delay")
    outcome = Outcome(True, steps=steps)
    if exp.get("oracle"):
        outcome.oracle_err = float(np.max(np.abs(x - reference[:rows])))
        allowed = ORACLE_ERROR_UNITS * abs((exp["a"] + exp["b"]) * hist) * h ** (2 * exp["alpha"])
        if not outcome.oracle_err <= allowed:
            return _fail(f"error {outcome.oracle_err:.3g} against the series solution "
                         f"exceeds {allowed:.3g}")
    if "recipe" in exp:
        reason = _check_recipe(t, x, recipe_refs[exp["recipe"]])
        if reason:
            return _fail(reason)
    return outcome


def check_curves(job: dict, result: dict, workdir: Path, recipe_refs: dict) -> Outcome:
    exp = job["expect"]
    if result["rc"] != exp["exit"]:
        return _fail(f"exit {result['rc']}, expected {exp['exit']}")
    try:
        data = read_csv(workdir / job["out"], CURVES_HEADER)
    except (OSError, ValueError) as exc:
        return _fail(f"unreadable CSV: {exc}")
    if data.shape[0] == 0 or data.shape[1] != 8:
        return _fail(f"CSV shape {data.shape}")
    v, tau1, tau2, sign1, m1, _, _, residual = data.T
    if not np.all(residual <= CURVE_RESIDUAL):
        return _fail("a row reports residual above 1e-9")
    lam = 1j * v
    defect = (lam ** exp["alpha"] - exp["a"] * np.exp(-lam * tau1)
              - exp["b"] * np.exp(-lam * tau2))
    worst = float(np.max(np.maximum(np.abs(defect.real), np.abs(defect.imag))))
    if not worst <= CURVE_RESIDUAL_INDEPENDENT:
        return _fail(f"independent residual {worst:.3g}")
    if np.any(tau1 < 0.0) or np.any(tau2 < 0.0):
        return _fail("negative delay on the curve")
    keys = list(zip(m1, sign1, v))
    if any(a > b for a, b in zip(keys, keys[1:])):
        return _fail("rows not sorted by (m1, sign1, v)")
    ref = recipe_refs[job["name"]]
    if data.shape[0] != ref["rows"]:
        return _fail(f"{data.shape[0]} rows, frozen reference has {ref['rows']}")
    if not abs(float(tau2.min()) - ref["min_tau2"]) <= CLOSE_TOL * ref["min_tau2"]:
        return _fail("lowest tau2 differs from the frozen reference")
    return Outcome(True)


def check_classify(job: dict, result: dict, root_count: int) -> Outcome:
    exp = job["expect"]
    if result["rc"] != exp["exit"]:
        return _fail(f"exit {result['rc']}, expected {exp['exit']}")
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return _fail("stdout is not JSON")
    if not isinstance(doc, dict) or set(doc) != CLASSIFY_KEYS:
        return _fail(f"keys {sorted(doc) if isinstance(doc, dict) else type(doc).__name__}")
    for key in ("alpha", "tau1", "tau2"):
        if doc[key] != exp[key]:
            return _fail(f"{key} echoed as {doc[key]!r}")
    for key in ("a", "b"):
        if not (isinstance(doc[key], float)
                and abs(doc[key] - exp[key]) <= 1e-9 * max(1.0, abs(exp[key]))):
            return _fail(f"linearization {key} = {doc[key]!r}, expected {exp[key]!r}")
    boundary = doc["critical_tau2"]
    if boundary is not None and not (isinstance(boundary, (int, float))
                                     and math.isfinite(boundary) and boundary >= 0.0):
        return _fail(f"critical_tau2 = {boundary!r}")
    verdict = doc["verdict"]
    if verdict in STABLE:
        agrees = root_count == 0
    elif verdict in UNSTABLE:
        agrees = root_count > 0
    elif verdict == "OnBoundary":
        agrees = None  # a crossing within the tolerance band; a count cannot judge it
    else:
        return _fail(f"unknown verdict {verdict!r}")
    return Outcome(True, verdict_agrees=agrees)


def equilibrium_coefficients(model: str, p1: float, p2: float, x: float) -> tuple[float, float]:
    if model == "ucar":
        return p1, -3.0 * p2 * x * x
    return p1, p2 * math.cos(x)


def check_equilibria(job: dict, result: dict, roots: list[float]) -> Outcome:
    exp = job["expect"]
    if result["rc"] != exp["exit"]:
        return _fail(f"exit {result['rc']}, expected {exp['exit']}")
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return _fail("stdout is not JSON")
    if not isinstance(doc, list) or len(doc) != len(roots):
        return _fail(f"{len(doc) if isinstance(doc, list) else 'no'} equilibria, "
                     f"expected {len(roots)}")
    for entry, root in zip(doc, roots):
        if not isinstance(entry, dict) or set(entry) != EQUILIBRIA_KEYS:
            return _fail("equilibrium entry has the wrong keys")
        x = entry["x_star"]
        if not abs(x - root) <= 1e-8 * max(1.0, abs(root)):
            return _fail(f"equilibrium {x!r}, expected {root!r}")
        a, b = equilibrium_coefficients(exp["model"], exp["p1"], exp["p2"], x)
        if not (abs(entry["a"] - a) <= 1e-9 * max(1.0, abs(a))
                and abs(entry["b"] - b) <= 1e-9 * max(1.0, abs(b))):
            return _fail(f"linearization at {x!r} is ({entry['a']!r}, {entry['b']!r})")
        if abs(a + b) > 1e-9 and entry["stable_at_zero"] != (a + b < 0.0):
            return _fail(f"stable_at_zero wrong at {x!r}")
    return Outcome(True)
