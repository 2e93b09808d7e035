"""The public surface: the names the package exports and the README's code."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fracdde
from fracdde import (
    classify,
    curve_columns,
    find_equilibria,
    ikeda_rhs,
    linearize,
    simulate,
    stable_at_zero_delay,
    ucar_rhs,
)
from fracdde.numerics import corner_weight_table, interior_weight_table

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "__version__",
    "SystemRhs",
    "Trajectory",
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
    assert len(fracdde.__all__) == len(set(fracdde.__all__)) == 13
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


def locus(alpha=0.9, v_range=None, **counts):
    columns = curve_columns(alpha, (1.0, -3.0), v_range, **{"samples": 50, **counts})
    return [c.tolist() for c in columns]


def run(alpha=0.9, delays=(0.4, 0.5), t_end=2.0, h=0.01, history=0.8):
    traj = simulate(ucar_rhs(), alpha, delays, t_end, h, history)
    return traj.values.tolist(), traj.truncated_at


DELAY = "nonnegative and finite"
POSITIVE = "positive and finite"
ORDER = "derivative order"

# (entry point, name of the checked value, what it must be, a whole number
# it may be, call with x in that slot): every real the package takes goes
# through one rule.  simulate checks its delays, horizon and step first, in
# the grid builder (solver._build_grid) whose name those entries carry.
ENTRY_POINTS = [
    ("build_grid", "tau1", DELAY, 2, lambda x: run(delays=(x, 0.5))),
    ("build_grid", "tau2", DELAY, 2, lambda x: run(delays=(0.4, x))),
    ("classify", "a", "finite", 2, lambda x: classify(0.9, (x, -3.0), (0.4, 0.5))),
    ("classify", "b", "finite", 2, lambda x: classify(0.9, (1.0, x), (0.4, 0.5))),
    ("classify", "tau1", DELAY, 2, lambda x: classify(0.9, (1.0, -3.0), (x, 0.5))),
    ("classify", "tau2", DELAY, 2, lambda x: classify(0.9, (1.0, -3.0), (0.4, x))),
    ("curve_columns", "a", "finite", 2,
     lambda x: [c.tolist() for c in curve_columns(0.9, (x, -3.0), samples=50)]),
    ("curve_columns", "b", "finite", 2,
     lambda x: [c.tolist() for c in curve_columns(0.9, (1.0, x), samples=50)]),
    ("stable_at_zero_delay", "a", "finite", 2, lambda x: stable_at_zero_delay((x, -3.0))),
    ("stable_at_zero_delay", "b", "finite", 2, lambda x: stable_at_zero_delay((1.0, x))),
    ("ucar_rhs", "delta", POSITIVE, 2, lambda x: rhs_values(ucar_rhs(delta=x))),
    ("ucar_rhs", "epsilon", POSITIVE, 2, lambda x: rhs_values(ucar_rhs(epsilon=x))),
    ("ikeda_rhs", "c1", "finite", 2, lambda x: rhs_values(ikeda_rhs(c1=x))),
    ("ikeda_rhs", "c2", "finite", 2, lambda x: rhs_values(ikeda_rhs(c2=x))),
    ("simulate", ORDER, "finite", 1, lambda x: run(alpha=x)),
    ("classify", ORDER, "finite", 1, lambda x: classify(x, (1.0, -3.0), (0.4, 0.5))),
    ("curve_columns", ORDER, "finite", 1, lambda x: locus(alpha=x)),
    ("build_grid", "horizon", POSITIVE, 2, lambda x: run(t_end=x)),
    ("build_grid", "requested step", POSITIVE, 2,
     lambda x: run(delays=(4.0, 6.0), t_end=10.0, h=x)),
    ("simulate", "history", "finite", 2, lambda x: run(history=x)),
    ("linearize", "equilibrium", "finite", 2, lambda x: linearize(ucar_rhs(), x)),
    ("find_equilibria-lo", "bracket", "finite", 2, lambda x: find_equilibria(ucar_rhs(), (x, 3.0))),
    ("find_equilibria-hi", "bracket", "finite", 2, lambda x: find_equilibria(ucar_rhs(), (-3.0, x))),
    ("curve_columns-lo", "frequency window", "finite", 2, lambda x: locus(v_range=(x, 5.0))),
    ("curve_columns-hi", "frequency window", "finite", 2, lambda x: locus(v_range=(0.1, x))),
]
DELAY_POINTS = [entry for entry in ENTRY_POINTS if entry[2] == DELAY]
POSITIVE_POINTS = [entry for entry in ENTRY_POINTS if entry[2] == POSITIVE]


def entry_ids(entries):
    return [f"{entry}-{name}".replace(" ", "_") for entry, name, *_ in entries]


@pytest.mark.parametrize("bad", ["1", True], ids=["str", "bool"])
@pytest.mark.parametrize("entry, name, need, whole, call", ENTRY_POINTS, ids=entry_ids(ENTRY_POINTS))
def test_non_real_is_refused(entry, name, need, whole, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a real number$"):
        call(bad)


# An int beyond the float range counts as infinite.
@pytest.mark.parametrize(
    "bad, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf")],
    ids=["nan", "inf", "-inf", "big_int"],
)
@pytest.mark.parametrize("entry, name, need, whole, call", ENTRY_POINTS, ids=entry_ids(ENTRY_POINTS))
def test_nonfinite_is_refused(entry, name, need, whole, call, bad, shown):
    message = f"{name} must be {need}, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("entry, name, need, whole, call", DELAY_POINTS, ids=entry_ids(DELAY_POINTS))
def test_negative_delay_is_refused(entry, name, need, whole, call):
    with pytest.raises(ValueError, match=f"^{name} must be {need}, got -1.0$"):
        call(-1)


@pytest.mark.parametrize("bad, shown", [(0, "0.0"), (-1, "-1.0")], ids=["zero", "negative"])
@pytest.mark.parametrize(
    "entry, name, need, whole, call", POSITIVE_POINTS, ids=entry_ids(POSITIVE_POINTS)
)
def test_nonpositive_is_refused(entry, name, need, whole, call, bad, shown):
    with pytest.raises(ValueError, match=f"^{name} must be {need}, got {re.escape(shown)}$"):
        call(bad)


@pytest.mark.parametrize("kind", [int, np.int64, np.float32], ids=["int", "int64", "float32"])
@pytest.mark.parametrize("entry, name, need, whole, call", ENTRY_POINTS, ids=entry_ids(ENTRY_POINTS))
def test_real_types_act_as_their_float(entry, name, need, whole, call, kind):
    good = np.float32(0.5) if kind is np.float32 else kind(whole)
    assert call(good) == call(float(good))


# (entry point, name of the count, its least value, call with n in that
# slot): every count the package takes goes through the sibling rule.
COUNT_POINTS = [
    ("curve_columns", "samples", 2, lambda n: locus(samples=n)),
    ("curve_columns", "max_branch", 0, lambda n: locus(max_branch=n)),
    ("find_equilibria", "resolution", 2, lambda n: find_equilibria(ucar_rhs(), (-3.0, 3.0), n)),
    ("corner_weight_table", "n_max", 0, lambda n: corner_weight_table(0.5, n).tolist()),
    # Entry 0 of the interior table is NaN on purpose.
    ("interior_weight_table", "m_max", 0, lambda n: interior_weight_table(0.5, n)[1:].tolist()),
]


@pytest.mark.parametrize(
    "bad", ["1", True, 2.5, 3.0, np.float64(3.0)], ids=["str", "bool", "fraction", "float", "float64"]
)
@pytest.mark.parametrize("entry, name, least, call", COUNT_POINTS, ids=entry_ids(COUNT_POINTS))
def test_non_integer_count_is_refused(entry, name, least, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(bad)


@pytest.mark.parametrize("entry, name, least, call", COUNT_POINTS, ids=entry_ids(COUNT_POINTS))
def test_count_below_its_least_is_refused(entry, name, least, call):
    need = "nonnegative" if least == 0 else f"at least {least}"
    with pytest.raises(ValueError, match=f"^{name} must be {need}$"):
        call(least - 1)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8], ids=["int64", "int32", "uint8"])
@pytest.mark.parametrize("entry, name, least, call", COUNT_POINTS, ids=entry_ids(COUNT_POINTS))
def test_integer_types_act_as_their_int(entry, name, least, call, kind):
    assert call(kind(least + 3)) == call(least + 3)
