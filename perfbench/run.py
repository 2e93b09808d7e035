"""fracdde benchmark: seeded workloads run through ``fracdde.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload recipes --seed 1 --seconds 30 --trace 0

Workloads are ``recipes``, ``sim-short`` and ``stability-sweep`` (see
BENCHMARK.json for why each exists); ``--workload all`` runs the three in
turn.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, library versions, thread setting, every metric, every failed job)
is written to ``perfbench/out/``.

The program under test is imported from ``src/`` of the checkout; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child:
# unpinned, the 2-thread default makes the O(N^2) memory sum measure the
# scheduler rather than the code.
BLAS_THREADS = 1
THREAD_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import jobs as workloads  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RECIPE_REFS = BENCH / "recipe_refs.json"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import fracdde.cli; "
    "fracdde.cli.build_parser(); print(repr(time.monotonic()))"
)

# Spans whose time is also reported as a share of cli.main, which stays
# meaningful on workloads that never call them.
SHARE_SPANS = [
    "solver.simulate", "solver.build_grid", "solver.phase_columns", "numerics.weights",
    "stability.classify", "stability.critical_tau2_for_tau1", "stability.critical_curve",
    "stability.find_equilibria", "stability.linearize",
]


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV}


def measure_setup(workdir: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until import + build_parser()."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=workdir,
                              env=child_env(), capture_output=True, text=True, timeout=30)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed:\n{proc.stderr}")
        if i:  # the first start compiles bytecode caches; users pay that once
            samples.append(float(proc.stdout.strip()) - start)
    return samples


def compute_references(job_list: list[dict]) -> list:
    """Per-job reference, computed before the timed run."""
    out = []
    for job in job_list:
        exp = job["expect"]
        if job["kind"] == "simulate" and exp.get("oracle"):
            t = np.arange(exp["steps"] + 1) * exp["h"]
            values, error = refs.delayed_series(exp["alpha"], exp["a"] + exp["b"],
                                                exp["k1"] * exp["h"], exp["history"], t)
            if not refs.series_error_ok(error):
                raise BenchmarkError(f"series reference too inexact for job {job['name']}")
            out.append(values)
        elif job["kind"] == "classify":
            out.append(refs.rhp_root_count(exp["alpha"], exp["a"], exp["b"],
                                           exp["tau1"], exp["tau2"]))
        elif job["kind"] == "equilibria":
            p1, p2 = exp["p1"], exp["p2"]
            if exp["model"] == "ucar":
                fun = lambda x, p1=p1, p2=p2: p1 * x - p2 * x * x * x  # noqa: E731
            else:
                fun = lambda x, p1=p1, p2=p2: p1 * x + p2 * np.sin(x)  # noqa: E731
            out.append(refs.scan_roots(fun, *exp["bracket"]))
        else:
            out.append(None)
    return out


def run_worker(job_list, workdir: Path, seconds: float, trace: int, spans: Path | None) -> dict:
    jobs_path, result_path = workdir / "jobs.json", workdir / "result.json"
    jobs_path.write_text(json.dumps(job_list))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC), "--jobs", str(jobs_path),
           "--result", str(result_path), "--seconds", str(seconds), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("worker exceeded its time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text())


def check_jobs(job_list, record, workdir, references, recipe_refs) -> tuple[list, int, int, list]:
    """Return (outcomes, attempted, failed, failure notes).

    Every execution of a job is attempted once.  A job whose final output
    fails its check fails on every execution (the outputs were identical);
    an execution whose output differs from the final one fails on its own.
    """
    outcomes, notes = [], []
    attempted = failed = 0
    for job, ref, digests, last in zip(job_list, references, record["digests"], record["last"]):
        kind = job["kind"]
        if kind == "simulate":
            outcome = checks.check_simulate(job, last, workdir, ref, recipe_refs)
        elif kind == "curves":
            outcome = checks.check_curves(job, last, workdir, recipe_refs)
        elif kind == "classify":
            outcome = checks.check_classify(job, last, ref)
        else:
            outcome = checks.check_equilibria(job, last, ref)
        outcomes.append(outcome)
        attempted += len(digests)
        if not outcome.ok:
            failed += len(digests)
            notes.append(f"{job['name']}: {outcome.reason}")
            continue
        differing = sum(d != digests[-1] for d in digests)
        if differing:
            failed += differing
            notes.append(f"{job['name']}: output differs between executions")
    return outcomes, attempted, failed, notes


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(job_list, record, outcomes, setup, attempted, failed) -> dict:
    passes = [p for p in record["passes"] if not p["traced"]]
    latencies = [t for p in passes for _, t in p["jobs"]]
    kinds = [job["kind"] for job in job_list]
    metrics = {
        "setup_s": (_median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "wall_s": (_median([p["wall"] for p in passes]), "s", f"median of {len(passes)} passes"),
        "job_p50_s": (statistics.median(latencies), "s", f"n={len(latencies)} jobs"),
        "job_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s",
                      f"n={len(latencies)} jobs"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", "worker process"),
        "failed_frac": (failed / attempted, "1", f"{failed} of {attempted} job executions"),
    }
    if "simulate" in kinds:
        steps = sum(o.steps for o in outcomes)
        rates = [steps / sum(t for (_, t), k in zip(p["jobs"], kinds) if k == "simulate")
                 for p in passes]
        metrics["steps_per_s"] = (_median(rates), "1/s",
                                  f"{steps} steps per pass, over time in simulate jobs")
    if "classify" in kinds:
        queries = kinds.count("classify")
        rates = [queries / sum(t for (_, t), k in zip(p["jobs"], kinds) if k == "classify")
                 for p in passes]
        metrics["queries_per_s"] = (_median(rates), "1/s",
                                    f"{queries} queries per pass, over time in classify jobs")
        judged = [o.verdict_agrees for o in outcomes if o.verdict_agrees is not None]
        if judged:
            wrong = judged.count(False)
            metrics["verdict_err"] = (wrong / len(judged), "1", f"{wrong} of {len(judged)} "
                                      "checked verdicts disagree with the root count")
    errs = [o.oracle_err for o in outcomes if o.oracle_err is not None]
    if errs:
        metrics["oracle_err"] = (max(errs), "abs", f"max over {len(errs)} single-delay jobs")
    return metrics


def per_layer_metrics(job_list, record, workdir) -> dict:
    untraced = [p["wall"] for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    absent = set(record.get("absent", []))

    def per_pass(fn):
        return _median([fn(p) for p in traced])

    def span(p, name, field):
        entry = p["layers"]["spans"].get(name)
        return entry[field] if entry else 0

    def share(p, name, field):
        return 100.0 * span(p, name, field) / span(p, "cli.main", 1)

    out_bytes = sum((workdir / job["out"]).stat().st_size if job["out"] else 0
                    for job in job_list)
    out_bytes += sum(len(last["stdout"].encode()) for last in record["last"])
    counts = traced[-1]["counts"]
    classify_calls = span(traced[-1], "stability.classify", 0)
    metrics = {
        "cli.main.s": per_pass(lambda p: span(p, "cli.main", 1)),
        "cli.self_s": per_pass(lambda p: span(p, "cli.main", 2)),
        "cli.out_bytes": out_bytes,
        "models.rhs.calls": traced[-1]["layers"]["rhs_calls"],
        "models.rhs.s": per_pass(lambda p: p["layers"]["rhs_busy"]),
        "solver.simulate.s": per_pass(lambda p: span(p, "solver.simulate", 1)),
        "solver.simulate.self_s": per_pass(lambda p: span(p, "solver.simulate", 2)),
        "solver.simulate.self_pct": per_pass(lambda p: share(p, "solver.simulate", 2)),
        "solver.build_grid.s": per_pass(lambda p: span(p, "solver.build_grid", 1)),
        "solver.phase_columns.s": per_pass(lambda p: span(p, "solver.phase_columns", 1)),
        "numerics.weights.s": per_pass(lambda p: span(p, "numerics.weights", 1)),
        "stability.classify.s": per_pass(lambda p: span(p, "stability.classify", 1)),
        "stability.critical_tau2_for_tau1.s":
            per_pass(lambda p: span(p, "stability.critical_tau2_for_tau1", 1)),
        "stability.critical_curve.s": per_pass(lambda p: span(p, "stability.critical_curve", 1)),
        "stability.find_equilibria.s": per_pass(lambda p: span(p, "stability.find_equilibria", 1)),
        "stability.linearize.s": per_pass(lambda p: span(p, "stability.linearize", 1)),
        "stability.delay_plane_boundary.calls":
            span(traced[-1], "stability.delay_plane_boundary", 0),
        "trace.untraced_wall_s": _median(untraced),
        "trace.traced_wall_s": per_pass(lambda p: p["wall"]),
    }
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    for name in ("solver.steps", "solver.grid_divisor", "solver.truncations",
                 "numerics.weights.entries", "stability.critical_curve.points"):
        metrics[name] = counts.get(name, 0)
    for name in ("stability.classify", "stability.critical_tau2_for_tau1",
                 "stability.critical_curve"):
        metrics[f"{name}.calls"] = span(traced[-1], name, 0)
    metrics["stability.boundary_calls_per_query"] = (
        metrics["stability.critical_tau2_for_tau1.calls"] / classify_calls if classify_calls else 0.0)
    for name in SHARE_SPANS:
        metrics[f"{name}.pct"] = per_pass(lambda p, name=name: share(p, name, 1))
    absent_spans = {span_name for span_name in {t[2] for t in tracing.TARGETS}
                    if all(f"{m}.{a}" in absent for m, a, n in tracing.TARGETS if n == span_name)}
    return {name: (value, _unit(name), "absent" if name.rsplit(".", 1)[0] in absent_spans else "")
            for name, value in metrics.items()}


def _unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith((".pct", "_pct")):
        return "%"
    return {"cli.out_bytes": "bytes", "stability.boundary_calls_per_query": "ratio"}.get(
        metric, "count")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    job_list = workloads.WORKLOADS[name](seed)
    recipe_refs = json.loads(RECIPE_REFS.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setup = [] if trace else measure_setup(workdir)
        references = compute_references(job_list)
        spans = OUT / f"spans-{name}-seed{seed}.json" if trace else None
        record = run_worker(job_list, workdir, seconds, trace, spans)
        outcomes, attempted, failed, notes = check_jobs(job_list, record, workdir, references,
                                                        recipe_refs)
        if trace:
            metrics = per_layer_metrics(job_list, record, workdir)
        else:
            metrics = end_to_end_metrics(job_list, record, outcomes, setup, attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": {**record["env"], "blas_threads": BLAS_THREADS},
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "failures": notes, "pass_walls": [p["wall"] for p in record["passes"]],
              "absent": record.get("absent", []),
              "broken_counters": record.get("broken_counters", []),
              "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()}}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result, report_lines(result)


def report_lines(result: dict) -> list[str]:
    env = result["env"]
    lines = [
        f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas'].get('name')} "
        f"{env['blas'].get('version')}, {env['blas_threads']} BLAS thread(s), "
        f"{env['cpus_usable']} of {env['cpu_count']} CPUs",
        f"# jobs: {result['attempted']} executions, {result['failed']} failed",
    ]
    lines += [f"#   FAILED {note}" for note in result["failures"]]
    for name, m in result["metrics"].items():
        note = f"  ({m['note']})" if m["note"] else ""
        lines.append(f"{result['workload']:16s} {name:40s} {m['value']:.6g} {m['unit']}{note}")
    if result["absent"]:
        lines.append(f"# absent layer functions: {', '.join(result['absent'])}")
    if result["broken_counters"]:
        lines.append(f"# counters unavailable: {', '.join(result['broken_counters'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracdde" / "cli.py").is_file():
        print(f"benchmark: no fracdde sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, unit in declared.items():
                measured = result["metrics"][metric]
                if measured["unit"] != unit or not math.isfinite(measured["value"]):
                    raise BenchmarkError(f"{metric} measured as {measured}, declared in {unit}")
                summary["metrics"][prefix + metric] = {"value": measured["value"], "unit": unit}
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
