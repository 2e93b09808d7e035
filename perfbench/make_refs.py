"""Regenerate recipe_refs.json, the frozen outputs of the README recipes.

    python3 perfbench/make_refs.py

Runs the recipes through ``fracdde.cli.main`` from ``src/`` and stores, per
simulate recipe, a strided sample of x over the window where a tiny change in
the arithmetic cannot yet have grown (all of a converging run, t <= 100 for
the ucar oscillation, t <= 2 for the ikeda one), plus attractor statistics
of the chaotic tails; for the curves recipe, the row count and lowest tau2.
Measured growth of a 2e-15 relative change in the history: ikeda chaotic
3e-11 at t = 2, 2e-7 at t = 5, O(1) by t = 10; ucar chaotic 2e-11 at t = 100,
4e-8 at t = 200; the two converging recipes stay at 5e-15.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402

BENCH = Path(__file__).resolve().parent
SAMPLES = 400
# (t up to which rows are compared closely, t from which tail statistics start)
WINDOWS = {
    "ucar_stable": (200.0, None),
    "ucar_chaotic": (100.0, 100.0),
    "ikeda_stable": (50.0, None),
    "ikeda_chaotic": (2.0, 50.0),
}


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import fracdde.cli

    work = BENCH / "out" / "make-refs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    refs = {}
    for job in jobs.recipes(0):
        if fracdde.cli.main(job["argv"]) != 0:
            raise SystemExit(f"{job['name']} failed")
        if job["kind"] == "curves":
            data = checks.read_csv(work / job["out"], checks.CURVES_HEADER)
            refs[job["name"]] = {"rows": len(data), "min_tau2": float(data[:, 2].min())}
            continue
        t, x = checks.read_csv(work / job["out"], checks.SIM_HEADER)[:, :2].T
        until, tail = WINDOWS[job["name"]]
        rows = int(np.count_nonzero(t <= until + 1e-9))
        stride = max(1, rows // SAMPLES)
        entry = {"close_until": until, "stride": stride, "x": [float(v) for v in x[:rows:stride]]}
        if tail is not None:
            entry["stats"] = {"from_t": tail, **checks.attractor_stats(x[t >= tail])}
        refs[job["name"]] = entry
    os.chdir(BENCH)
    shutil.rmtree(work)
    (BENCH / "recipe_refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
