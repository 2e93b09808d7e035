"""End-to-end acceptance checks.

One test per criterion, each asserting the documented value, tolerance, and
runtime budget; run with ``pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from fracdde import (
    DelayPair,
    StabilityVerdict,
    SystemRhs,
    build_grid,
    classify,
    critical_curve,
    critical_tau2_for_tau1,
    find_equilibria,
    ikeda_rhs,
    linearize,
    parametric_delays,
    phase_columns,
    simulate,
    stable_at_zero_delay,
    ucar_rhs,
)
from oracles import delayed_series_oracle, trapezoid_weights

UCAR_COEF = (1.0, -3.0)


def max_abs_error_vs_oracle(alpha, h, t_end):
    grid = build_grid(DelayPair(1.0, 1.0), t_end, h)
    traj = simulate(SystemRhs(g=lambda x1, x2: -x1), alpha, grid, 1.0)
    t = np.arange(grid.n_steps + 1) * grid.h
    exact = np.array([delayed_series_oracle(alpha, -1.0, 1.0, ti) for ti in t])
    return float(np.max(np.abs(traj.values[grid.history_steps :] - exact)))


def window_amplitudes(values, h, t_from, t_to, width):
    # Amplitude max-min over every window [t, t+width] with t in (t_from, t_to].
    w = int(round(width / h))
    i0 = int(round(t_from / h)) + 1
    i1 = int(round(t_to / h))
    segment = values[i0 : i1 + w + 1]
    windows = np.lib.stride_tricks.sliding_window_view(segment, w + 1)
    return windows.max(axis=1) - windows.min(axis=1)


def test_c1_boundary_tau2_on_the_tau1_axis():
    start = time.perf_counter()
    got = critical_tau2_for_tau1(1.0, UCAR_COEF, 0.0)
    elapsed = time.perf_counter() - start
    assert got == pytest.approx(0.43521, abs=1e-3)
    assert elapsed < 1.0


def test_c2_lowest_boundary_tau2_over_all_branches():
    start = time.perf_counter()
    points = critical_curve(1.0, UCAR_COEF)
    elapsed = time.perf_counter() - start
    assert points
    best = min(points, key=lambda p: p.tau2)
    expected = 0.366667
    if abs(best.tau2 - expected) > 1e-3:
        branch = (best.sign1, best.m1, best.sign2, best.m2)
        same = [p for p in points if (p.sign1, p.m1, p.sign2, p.m2) == branch]
        i = same.index(best)
        trace = "\n".join(
            f"  v={p.v:.9g} tau1={p.tau1:.9g} tau2={p.tau2:.9g} residual={p.residual:.3g}"
            for p in same[max(0, i - 3) : i + 4]
        )
        pytest.fail(
            f"lowest boundary tau2 = {best.tau2!r}, expected {expected} +/- 1e-3;\n"
            f"minimizing branch (sign1, m1, sign2, m2) = {branch}, neighborhood:\n{trace}"
        )
    assert elapsed < 10.0


def test_c3_sinusoidal_model_linearization_and_equilibria():
    start = time.perf_counter()
    rhs = ikeda_rhs()
    coef = linearize(rhs, 2.7859)
    roots = find_equilibria(rhs, (-10.0, 10.0))
    elapsed = time.perf_counter() - start
    assert coef.b == pytest.approx(-22.4977, abs=1e-3)
    expected_roots = [-7.95732, -7.49775, -2.7859, 0.0, 2.7859, 7.49775, 7.95732]
    assert len(roots) == 7
    for got, expected in zip(roots, expected_roots):
        assert got == pytest.approx(expected, abs=1e-4)
    assert elapsed < 1.0


def test_c4_generic_curve_formulas_specialize_to_cubic_model():
    # At (a, b) = (1, -3) the arccos numerators collapse to v**(2*alpha) -/+ 8;
    # the generic implementation must match the specialized closed forms.
    for alpha in (0.7, 1.0):
        half = 0.5 * math.pi * alpha
        lo = 2.0 ** (1.0 / alpha) * (1 + 1e-9)
        hi = 4.0 ** (1.0 / alpha) * (1 - 1e-9)
        for v in np.linspace(lo, hi, 1000):
            v = float(v)
            va = v ** alpha
            v2a = v ** (2.0 * alpha)
            tau1_hand = (math.acos((v2a - 8.0) / (2.0 * va)) - half) / v
            tau2_hand = (math.acos((v2a + 8.0) / (-6.0 * va)) - half + 2.0 * math.pi) / v
            pair = parametric_delays(alpha, UCAR_COEF, v, sign1=1, m1=0, sign2=1, m2=1)
            assert pair is not None, f"alpha={alpha}, v={v}"
            assert abs(pair[0] - tau1_hand) <= 1e-12
            assert abs(pair[1] - tau2_hand) <= 1e-12


def test_c5_random_family_curve_residuals():
    rng = np.random.default_rng(41)
    half_pi = 0.5 * math.pi
    total_points = 0
    cases = 0
    while cases < 100:
        alpha = float(rng.uniform(0.3, 1.0))
        a = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
        b = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
        if a + b >= 0.0:
            continue
        cases += 1
        for p in critical_curve(alpha, (a, b), samples=250, max_branch=2):
            # Recompute both defining equations from scratch.
            r1 = p.v ** alpha * math.cos(half_pi * alpha) - a * math.cos(
                p.v * p.tau1
            ) - b * math.cos(p.v * p.tau2)
            r2 = p.v ** alpha * math.sin(half_pi * alpha) + a * math.sin(
                p.v * p.tau1
            ) + b * math.sin(p.v * p.tau2)
            # 1e-13 covers the rounding difference between this scalar
            # recomputation and the vectorized evaluation inside the filter.
            assert max(abs(r1), abs(r2)) <= 1e-9 + 1e-13
            total_points += 1
    assert total_points > 1000


def test_c6_solver_accuracy_against_series_oracle():
    start = time.perf_counter()
    steps = (1e-3, 5e-4, 2.5e-4)
    for alpha in (0.5, 0.9, 1.0):
        errs = [max_abs_error_vs_oracle(alpha, h, 5.0) for h in steps]
        assert errs[0] <= 5e-4, f"alpha={alpha}: {errs[0]}"
        assert errs[0] > errs[1] > errs[2], f"alpha={alpha}: {errs}"
        # Empirical order from the least-squares slope of log err against
        # log h over the halving sequence.  At alpha=0.5 the max error sits
        # at the first grid point past the delay kink and halves with h at
        # asymptotic ratio exactly 2; a single-pair log2 ratio lands within
        # rounding noise (~2e-9) of 1.0 on either side, while the slope
        # across three grids resolves it.
        order = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
        assert order >= 1.0, f"alpha={alpha}: order {order}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_c7_exact_weight_and_fixed_point_identities():
    for alpha in np.linspace(0.05, 1.0, 20):
        a = float(alpha)
        for n in range(201):
            total = math.fsum(trapezoid_weights(a, n))
            expected = (a + 1.0) * (n + 1.0) ** a
            assert abs(total - expected) <= 1e-12 * expected, f"alpha={a}, n={n}"
    for n in (0, 1, 5, 60, 200):
        row = trapezoid_weights(1.0, n)
        classical = np.full(n + 2, 2.0)
        classical[0] = classical[-1] = 1.0
        assert np.array_equal(row, classical)
    grid = build_grid(DelayPair(0.4, 0.5), 5.0, 0.01)
    for x_star in (-1.0, 0.0, 1.0):
        traj = simulate(ucar_rhs(), 0.9, grid, x_star)
        assert np.max(np.abs(traj.values - x_star)) <= 1e-12


def test_c8_qualitative_long_run_dynamics():
    start = time.perf_counter()

    # Cubic model, stable delay pair: settles onto the equilibrium at 1.
    grid = build_grid(DelayPair(0.4, 0.5), 200.0, 0.01)
    traj = simulate(ucar_rhs(), 0.9, grid, 0.8)
    assert not traj.is_truncated
    x = traj.values[grid.history_steps :]
    tail = x[int(round(150.0 / grid.h)) :]
    assert np.max(np.abs(tail - 1.0)) <= 1e-3

    # Cubic model, unstable delay pair: stays bounded but keeps oscillating
    # with amplitude above 0.5 over every late 20-unit window.
    grid = build_grid(DelayPair(1.6, 1.4), 200.0, 0.01)
    traj = simulate(ucar_rhs(), 0.9, grid, 0.8)
    assert not traj.is_truncated
    x = traj.values[grid.history_steps :]
    assert np.max(np.abs(x)) <= 3.0
    amplitudes = window_amplitudes(x, grid.h, 100.0, 180.0, 20.0)
    assert amplitudes.min() > 0.5

    # Sinusoidal model, stable delay pair: settles onto the upper equilibrium.
    grid = build_grid(DelayPair(0.02, 0.01), 50.0, 0.0025)
    traj = simulate(ikeda_rhs(), 0.7, grid, 2.5)
    assert not traj.is_truncated
    x = traj.values[grid.history_steps :]
    tail = x[int(round(40.0 / grid.h)) :]
    assert np.max(np.abs(tail - 2.7859)) <= 1e-2

    # Sinusoidal model, unstable delay pair: sustained bounded oscillation.
    grid = build_grid(DelayPair(0.01, 0.1), 150.0, 0.0025)
    traj = simulate(ikeda_rhs(), 0.7, grid, 2.5)
    assert not traj.is_truncated
    x = traj.values[grid.history_steps :]
    assert np.max(np.abs(x)) <= 50.0
    amplitudes = window_amplitudes(x, grid.h, 100.0, 130.0, 20.0)
    assert amplitudes.min() > 0.5

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_c9_classify_agrees_with_long_run_dynamics():
    # Cubic model around x* = 1.
    coef_ucar = linearize(ucar_rhs(), 1.0)
    assert classify(0.9, coef_ucar, (0.4, 0.5)) is StabilityVerdict.STABLE
    assert classify(0.9, coef_ucar, (1.6, 1.4)) is StabilityVerdict.UNSTABLE

    # Sinusoidal model around its upper equilibrium, via the full pipeline.
    rhs = ikeda_rhs()
    roots = find_equilibria(rhs, (-10.0, 10.0))
    x_up = next(r for r in roots if abs(r - 2.7859) < 1e-3)
    coef_ikeda = linearize(rhs, x_up)
    assert classify(0.7, coef_ikeda, (0.02, 0.01)) is StabilityVerdict.STABLE
    assert classify(0.7, coef_ikeda, (0.01, 0.1)) is StabilityVerdict.UNSTABLE

    # Zero-delay verdicts follow the sign of a + b.
    for coef in (coef_ucar, coef_ikeda, (2.0, -1.0), (1.0, 0.5)):
        expected = stable_at_zero_delay(coef)
        assert classify(0.9, coef, (0.0, 0.0)) is expected


def test_acceptance_cli_surface(tmp_path):
    # The same scenarios drive through the command line: a trajectory CSV, a
    # boundary CSV, and a classify verdict, exercising install-level wiring.
    from fracdde.cli import main

    out_traj = tmp_path / "traj.csv"
    assert (
        main(
            [
                "simulate", "--model", "ucar", "--alpha", "0.9",
                "--tau1", "0.4", "--tau2", "0.5", "--T", "20", "--h", "0.01",
                "--history", "0.8", "--out", str(out_traj),
            ]
        )
        == 0
    )
    assert out_traj.read_text().splitlines()[0] == "t,x,x_tau1,x_tau2"

    out_curve = tmp_path / "curve.csv"
    assert (
        main(
            ["curves", "--a", "1", "--b", "-3", "--alpha", "1.0", "--out", str(out_curve)]
        )
        == 0
    )
    tau2_col = [float(line.split(",")[2]) for line in out_curve.read_text().splitlines()[1:]]
    assert min(tau2_col) == pytest.approx(0.366667, abs=1e-3)
