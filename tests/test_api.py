"""The public surface: the names the package exports and the README's code."""

import importlib
import re
from pathlib import Path

import pytest

import fracdde

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "__version__",
    "DelayPair",
    "SystemRhs",
    "Grid",
    "Trajectory",
    "build_grid",
    "simulate",
    "StabilityVerdict",
    "LinearCoefficients",
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
    assert len(fracdde.__all__) == len(set(fracdde.__all__)) == 17
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
