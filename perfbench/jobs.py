"""Workload generation: each workload is a list of CLI argv lists plus what
the benchmark expects of each job.

Generation uses only ``random.Random(seed)``, so the same seed gives the same
jobs on any machine.  Step counts are not drawn: each group of jobs spreads
them evenly over the range, so the total work and the spread of job sizes
(and with them the latency percentiles) do not depend on the seed.
"""

from __future__ import annotations

import math
import random

H = 0.01
IKEDA_X_STAR = 2.7859
UCAR_X_STAR = 1.0

# The four README simulate recipes and the README curves recipe, in README order.
RECIPES = [
    ("ucar_stable", "simulate --model ucar --alpha 0.9 --tau1 0.4 --tau2 0.5 "
     "--T 200 --h 0.01 --history 0.8"),
    ("ucar_chaotic", "simulate --model ucar --alpha 0.9 --tau1 1.6 --tau2 1.4 "
     "--T 200 --h 0.01 --history 0.8"),
    ("ikeda_stable", "simulate --model ikeda --alpha 0.7 --tau1 0.02 --tau2 0.01 "
     "--T 50 --h 0.0025 --history 2.5"),
    ("ikeda_chaotic", "simulate --model ikeda --alpha 0.7 --tau1 0.01 --tau2 0.1 "
     "--T 150 --h 0.0025 --history 2.5"),
    ("ucar_boundary", "curves --model ucar --x-star 1 --alpha 0.9"),
]


def _job(name: str, argv: list[str], kind: str, **expect) -> dict:
    out = f"{name}.csv" if kind in ("simulate", "curves") else None
    if out is not None:
        argv = argv + ["--out", out]
    return {"name": name, "argv": argv, "kind": kind, "out": out, "expect": expect}


def _simulate_expect(model: str, alpha: float, k1: int, k2: int, steps: int, h: float,
                     history: float, **extra) -> dict:
    return dict(model=model, alpha=alpha, k1=k1, k2=k2, steps=steps, h=h,
                history=history, **extra)


def recipes(seed: int) -> list[dict]:
    """The README recipes; they take no random input, so the seed is unused."""
    del seed
    jobs = []
    for name, line in RECIPES:
        argv = line.split()
        if argv[0] == "curves":
            jobs.append(_job(name, argv, "curves", a=1.0, b=-3.0, alpha=0.9, exit=0))
            continue
        opt = dict(zip(argv[1::2], argv[2::2]))
        h = float(opt["--h"])
        jobs.append(_job(
            name, argv, "simulate",
            **_simulate_expect(
                opt["--model"], float(opt["--alpha"]),
                round(float(opt["--tau1"]) / h), round(float(opt["--tau2"]) / h),
                round(float(opt["--T"]) / h), h, float(opt["--history"]),
                exit=0, recipe=name,
            ),
        ))
    return jobs


def _strata(count: int, lo: int, hi: int) -> list[int]:
    width = (hi - lo) / count
    return [int(lo + width * (i + 0.5)) for i in range(count)]


def _simulate_job(name: str, model: str, alpha: float, k1: int, k2: int, steps: int,
                  history: float, exit_code: int, model_args: list[str], **extra) -> dict:
    argv = ["simulate", "--model", model, *model_args,
            "--alpha", f"{alpha:.3f}", "--tau1", f"{k1 * H:.2f}", "--tau2", f"{k2 * H:.2f}",
            "--T", f"{steps * H:.2f}", "--h", f"{H}", "--history", f"{history:.3f}"]
    return _job(name, argv, "simulate",
                **_simulate_expect(model, float(f"{alpha:.3f}"), k1, k2, steps, H,
                                   float(f"{history:.3f}"), exit=exit_code, **extra))


def sim_short(seed: int) -> list[dict]:
    """About 100 short simulate jobs of 1000-4000 steps at h = 0.01.

    Parameter regions were chosen, and checked on the ucar jobs of seeds
    1-400, so that every job's outcome is known in advance: the bounded ucar
    region converges to x = 1 for every draw, the diverging ucar region leaves
    the float range within 1000 steps for every draw, ikeda and linear jobs
    never overflow, and the single-delay linear region keeps the series
    reference accurate to 1e-8 (see refs.py).
    """
    rng = random.Random(seed)
    uniform = rng.uniform
    jobs: list[dict] = []
    for i, steps in enumerate(_strata(28, 1000, 4000)):
        # The linearization at x* = 1 has no right-half-plane root while both
        # delays stay below 16 steps at alpha = 0.5 and 43 at alpha = 1; kmax
        # keeps a margin below that edge, past which some runs diverge.
        alpha = uniform(0.5, 1.0)
        kmax = int(12 + 50 * (alpha - 0.5))
        jobs.append(_simulate_job(
            f"ucar_{i}", "ucar", alpha, rng.randint(1, kmax), rng.randint(1, kmax),
            steps, uniform(0.5, 1.2), 0, []))
    for i, steps in enumerate(_strata(4, 1000, 4000)):
        jobs.append(_simulate_job(
            f"ucar_div_{i}", "ucar", uniform(0.85, 1.0), rng.randint(40, 120),
            rng.randint(80, 120), steps, uniform(2.5, 4.0), 2, []))
    for i, steps in enumerate(_strata(32, 1000, 4000)):
        jobs.append(_simulate_job(
            f"ikeda_{i}", "ikeda", uniform(0.5, 1.0), rng.randint(1, 120), rng.randint(1, 120),
            steps, uniform(1.0, 4.0), 0, []))
    for i, steps in enumerate(_strata(18, 1000, 4000)):
        # Single delay: tau1 == tau2, so the equation is D^alpha x = (a+b) x(t-tau).
        # With a+b in [-0.3, -0.1], tau >= 0.5, t <= 40 and history <= 2 the
        # series' rounding bound stays below 2.5e-9 (worst corner, alpha = 1).
        k = rng.randint(50, 120)
        a = round(uniform(-0.15, -0.05), 4)
        b = round(uniform(-0.15, -0.05), 4)
        jobs.append(_simulate_job(
            f"linear1_{i}", "linear", uniform(0.5, 1.0), k, k, steps, uniform(0.5, 2.0), 0,
            ["--a", f"{a}", "--b", f"{b}"], a=a, b=b, oracle=True))
    for i, steps in enumerate(_strata(18, 1000, 4000)):
        a = round(uniform(-1.0, 1.0), 4)
        b = round(uniform(-1.0, 1.0), 4)
        k1 = rng.randint(1, 120)
        k2 = rng.choice([k for k in range(1, 121) if k != k1])
        jobs.append(_simulate_job(
            f"linear2_{i}", "linear", uniform(0.5, 1.0), k1, k2, steps, uniform(-2.0, 2.0), 0,
            ["--a", f"{a}", "--b", f"{b}"], a=a, b=b))
    rng.shuffle(jobs)
    return jobs


def _classify_job(name: str, model: str, x_star: float, alpha: float, tau1: float,
                  tau2: float) -> dict:
    argv = ["classify", "--model", model, "--x-star", f"{x_star}", "--alpha", f"{alpha}",
            "--tau1", f"{tau1:.4f}", "--tau2", f"{tau2:.4f}"]
    if model == "ucar":
        a, b = 1.0, -3.0 * x_star * x_star
    else:
        a, b = -3.0, 24.0 * math.cos(x_star)
    return _job(name, argv, "classify", a=a, b=b, alpha=alpha,
                tau1=float(f"{tau1:.4f}"), tau2=float(f"{tau2:.4f}"), exit=0)


# Equilibria jobs use fixed parameters whose roots are well separated, so the
# program's 2001-point scan and the benchmark's dense scan must agree.
EQUILIBRIA = [
    ("eq_ikeda", ["--model", "ikeda"], "ikeda", -3.0, 24.0, (-10.0, 10.0)),
    ("eq_ikeda_c2", ["--model", "ikeda", "--c2", "12"], "ikeda", -3.0, 12.0, (-10.0, 10.0)),
    ("eq_ucar", ["--model", "ucar"], "ucar", 1.0, 1.0, (-10.0, 10.0)),
    ("eq_ucar_wide", ["--model", "ucar", "--delta", "2", "--epsilon", "0.5",
                      "--bracket", "-5", "5"], "ucar", 2.0, 0.5, (-5.0, 5.0)),
]

# The stability switch on tau1 = 1.0 for the ucar linearization: the number
# of right-half-plane roots runs 2 -> 0 -> 0 -> 2 at tau2 = 0.5, 0.6, 0.8, 1.0.
SCAN_TAU2 = [round(0.1 * i, 1) for i in range(1, 21)]


def stability_sweep(seed: int) -> list[dict]:
    """About 100 seeded classify queries, a fixed tau2 scan and four equilibria jobs."""
    rng = random.Random(seed)
    jobs: list[dict] = []
    side = 7  # 7 x 7 strata per linearization, one jittered query per cell
    for model, x_star, alpha, width in (("ucar", UCAR_X_STAR, 0.9, 2.0),
                                        ("ikeda", IKEDA_X_STAR, 0.7, 0.2)):
        cell = width / side
        for i in range(side):
            for j in range(side):
                jobs.append(_classify_job(
                    f"{model}_q{i}{j}", model, x_star, alpha,
                    cell * (i + rng.random()), cell * (j + rng.random())))
    rng.shuffle(jobs)
    for tau2 in SCAN_TAU2:
        jobs.append(_classify_job(f"scan_{tau2}", "ucar", UCAR_X_STAR, 0.9, 1.0, tau2))
    for name, args, model, p1, p2, bracket in EQUILIBRIA:
        jobs.append(_job(name, ["equilibria", *args], "equilibria", model=model,
                         p1=p1, p2=p2, bracket=list(bracket), exit=0))
    return jobs


WORKLOADS = {
    "recipes": recipes,
    "sim-short": sim_short,
    "stability-sweep": stability_sweep,
}
