"""The public surface: the names the package exports and the README's code."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fracdde
from fracdde import (
    build_grid,
    classify,
    curve_columns,
    ikeda_rhs,
    stable_at_zero_delay,
    ucar_rhs,
)

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "__version__",
    "SystemRhs",
    "Grid",
    "Trajectory",
    "build_grid",
    "simulate",
    "StabilityVerdict",
    "find_equilibria",
    "linearize",
    "stable_at_zero_delay",
    "curve_columns",
    "Classification",
    "classify",
    "ucar_rhs",
    "ikeda_rhs",
}


def test_package_exports_exactly_the_public_names():
    assert len(fracdde.__all__) == len(set(fracdde.__all__)) == 15
    assert set(fracdde.__all__) == PUBLIC


MODULES = ["fracdde"] + [f"fracdde.{name}" for name in
                         ("cli", "models", "numerics", "solver", "stability")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["Stable"]


def rhs_values(rhs):
    return rhs.g(0.3, 0.7), rhs.dg_dx1(0.3, 0.7), rhs.dg_dx2(0.3, 0.7)


DELAY = "nonnegative and finite"

# (entry point, name of the checked value, what it must be, call with x in
# that slot): every delay, coefficient and gain goes through one rule.
ENTRY_POINTS = [
    ("build_grid", "tau1", DELAY, lambda x: build_grid((x, 0.5), 10.0, 0.01)),
    ("build_grid", "tau2", DELAY, lambda x: build_grid((0.4, x), 10.0, 0.01)),
    ("classify", "a", "finite", lambda x: classify(0.9, (x, -3.0), (0.4, 0.5))),
    ("classify", "b", "finite", lambda x: classify(0.9, (1.0, x), (0.4, 0.5))),
    ("classify", "tau1", DELAY, lambda x: classify(0.9, (1.0, -3.0), (x, 0.5))),
    ("classify", "tau2", DELAY, lambda x: classify(0.9, (1.0, -3.0), (0.4, x))),
    ("curve_columns", "a", "finite",
     lambda x: [c.tolist() for c in curve_columns(0.9, (x, -3.0), samples=50)]),
    ("curve_columns", "b", "finite",
     lambda x: [c.tolist() for c in curve_columns(0.9, (1.0, x), samples=50)]),
    ("stable_at_zero_delay", "a", "finite", lambda x: stable_at_zero_delay((x, -3.0))),
    ("stable_at_zero_delay", "b", "finite", lambda x: stable_at_zero_delay((1.0, x))),
    ("ucar_rhs", "delta", "positive and finite", lambda x: rhs_values(ucar_rhs(delta=x))),
    ("ucar_rhs", "epsilon", "positive and finite", lambda x: rhs_values(ucar_rhs(epsilon=x))),
    ("ikeda_rhs", "c1", "finite", lambda x: rhs_values(ikeda_rhs(c1=x))),
    ("ikeda_rhs", "c2", "finite", lambda x: rhs_values(ikeda_rhs(c2=x))),
]
DELAY_POINTS = [entry for entry in ENTRY_POINTS if entry[2] == DELAY]


def entry_ids(entries):
    return [f"{entry}-{name}" for entry, name, _, _ in entries]


@pytest.mark.parametrize("bad", ["1", True], ids=["str", "bool"])
@pytest.mark.parametrize("entry, name, need, call", ENTRY_POINTS, ids=entry_ids(ENTRY_POINTS))
def test_non_real_is_refused(entry, name, need, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a real number$"):
        call(bad)


# An int beyond the float range counts as infinite.
@pytest.mark.parametrize(
    "bad, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf")],
    ids=["nan", "inf", "-inf", "big_int"],
)
@pytest.mark.parametrize("entry, name, need, call", ENTRY_POINTS, ids=entry_ids(ENTRY_POINTS))
def test_nonfinite_is_refused(entry, name, need, call, bad, shown):
    message = f"{name} must be {need}, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("entry, name, need, call", DELAY_POINTS, ids=entry_ids(DELAY_POINTS))
def test_negative_delay_is_refused(entry, name, need, call):
    with pytest.raises(ValueError, match=f"^{name} must be {need}, got -1.0$"):
        call(-1)


@pytest.mark.parametrize("good", [2, np.int64(2), np.float32(0.5)], ids=["int", "int64", "float32"])
@pytest.mark.parametrize("entry, name, need, call", ENTRY_POINTS, ids=entry_ids(ENTRY_POINTS))
def test_real_types_act_as_their_float(entry, name, need, call, good):
    assert call(good) == call(float(good))
