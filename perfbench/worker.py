"""Runs one workload's jobs in-process through ``fracdde.cli.main``.

Started by run.py in a fresh interpreter with the BLAS thread count pinned,
with the work directory as its current directory.  It runs one untimed
warm-up job of each kind, then timed passes over all jobs until the time
budget is spent, and writes per-job latencies, exit codes, output digests,
peak memory and (with ``--trace 1``) per-layer span summaries to a JSON
result file.  A pass's wall time is the sum of its job latencies; hashing
the outputs between jobs is not part of it.

With ``--trace 1`` the first half of the budget runs untraced and the second
half traced, so the tracing overhead is measured within one process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, summarize


def _digest(rc: int, stdout: str, stderr: str, out: str | None) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{rc}\0{stdout}\0{stderr}\0".encode())
    if out is not None:
        try:
            h.update(Path(out).read_bytes())
        except FileNotFoundError:
            h.update(b"\0missing")
    return h.hexdigest()


def run_pass(main, jobs: list[dict], record: dict, indices=None) -> list[list]:
    """Run the jobs at ``indices`` (default all) once; return [exit code, seconds] per job."""
    timings = []
    for i in range(len(jobs)) if indices is None else indices:
        job = jobs[i]
        out_buf, err_buf = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            start = time.perf_counter()
            try:
                rc = main(job["argv"])
            except Exception as exc:  # a crash is a failed job, not a benchmark error
                rc = f"exception: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        timings.append([rc, elapsed])
        stdout, stderr = out_buf.getvalue(), err_buf.getvalue()
        record["digests"][i].append(_digest(rc, stdout, stderr, job["out"]))
        record["last"][i] = {"rc": rc, "stdout": stdout, "stderr": stderr}
    return timings


def run_passes(main, jobs, record, seconds: float, traced: bool, tracer=None) -> None:
    deadline = time.perf_counter() + seconds
    while True:
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counts = {}
        timings = run_pass(main, jobs, record)
        entry = {"traced": traced, "wall": sum(t for _, t in timings), "jobs": timings}
        if tracer:
            entry["layers"] = summarize(tracer, first, len(tracer.spans))
            entry["counts"] = tracer.counts
        record["passes"].append(entry)
        if time.perf_counter() >= deadline:
            return


def environment(numpy) -> dict:
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy

    import fracdde
    import fracdde.cli
    import fracdde.solver
    import fracdde.stability

    package = Path(fracdde.__file__).resolve()
    if Path(args.src).resolve() not in package.parents:
        print(f"fracdde imported from {package}, not from {args.src}", file=sys.stderr)
        return 3

    jobs = json.loads(Path(args.jobs).read_text())
    record = {
        "env": environment(numpy),
        "passes": [],
        "digests": [[] for _ in jobs],
        "last": [None] * len(jobs),
    }
    # Warm-up, one job of each kind: first-call costs inside the process
    # (lazy imports, allocator growth) are not part of a job.
    first_of_kind = {}
    for i, job in enumerate(jobs):
        first_of_kind.setdefault(job["kind"], i)
    run_pass(fracdde.cli.main, jobs, record, sorted(first_of_kind.values()))
    if args.trace:
        run_passes(fracdde.cli.main, jobs, record, args.seconds / 2, traced=False)
        tracer = Tracer()
        tracer.install({m.__name__: m for m in (fracdde.cli, fracdde.solver, fracdde.stability)})
        traced_main = tracer.span("cli.main", fracdde.cli.main)
        run_passes(traced_main, jobs, record, args.seconds / 2, traced=True, tracer=tracer)
        record["absent"] = tracer.absent
        record["broken_counters"] = sorted(tracer.broken_counters)
        if args.spans:
            Path(args.spans).write_text(json.dumps({
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in tracer.spans],
                "rhs": [{"parent": p, "calls": c, "busy_s": b}
                        for p, (c, b) in sorted(tracer.rhs.items())],
            }))
    else:
        run_passes(fracdde.cli.main, jobs, record, args.seconds, traced=False)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
