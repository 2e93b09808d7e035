import gc
import math

import numpy as np
import pytest

from fracdde import (
    CommensurateGrid,
    DelayPair,
    IncommensurableDelaysError,
    SystemRhs,
    Trajectory,
    build_grid,
    gamma_function,
    phase_columns,
    simulate,
    ucar_rhs,
)
from oracles import delayed_series_oracle, direct_sum_stepper, mittag_leffler


def linear_rhs(a, b):
    return SystemRhs(g=lambda x1, x2: a * x1 + b * x2)


class TestBuildGrid:
    def test_exact_request(self):
        grid = build_grid(DelayPair(0.4, 0.5), 100.0, 0.01)
        assert grid == CommensurateGrid(h=0.01, n_steps=10000, k1=40, k2=50)

    def test_subdivides_until_delays_fit(self):
        # 0.004 does not divide 0.01, but 0.004/2 does.
        grid = build_grid(DelayPair(0.02, 0.01), 50.0, 0.004)
        assert grid.h == 0.002
        assert (grid.k1, grid.k2) == (10, 5)
        assert grid.n_steps == 25000

    def test_step_never_exceeds_request(self):
        for h_req in (0.01, 0.004, 0.003, 0.0007):
            grid = build_grid(DelayPair(0.02, 0.01), 10.0, h_req)
            assert grid.h <= h_req * (1 + 1e-12)
            assert grid.k1 >= 1 and grid.k2 >= 1

    def test_commensurability_invariants(self):
        for tau1, tau2, t_end, h_req in [
            (0.4, 0.5, 100.0, 0.01),
            (1.6, 1.4, 200.0, 0.01),
            (0.02, 0.01, 50.0, 0.004),
            (0.3, 0.7, 15.0, 0.11),
        ]:
            grid = build_grid(DelayPair(tau1, tau2), t_end, h_req)
            assert abs(grid.k1 * grid.h - tau1) <= 1e-9 * tau1
            assert abs(grid.k2 * grid.h - tau2) <= 1e-9 * tau2
            assert abs(grid.n_steps * grid.h - t_end) <= 1e-9 * t_end

    def test_irrational_ratio_rejected(self):
        with pytest.raises(IncommensurableDelaysError):
            build_grid(DelayPair(1.0, math.sqrt(2)), 10.0, 0.01)

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError):
            build_grid(DelayPair(0.0, 0.5), 10.0, 0.01)

    def test_rejects_bad_horizon_and_step(self):
        with pytest.raises(ValueError):
            build_grid(DelayPair(0.4, 0.5), -1.0, 0.01)
        with pytest.raises(ValueError):
            build_grid(DelayPair(0.4, 0.5), 10.0, 0.0)

    def test_history_steps_property(self):
        grid = build_grid(DelayPair(0.4, 0.5), 10.0, 0.01)
        assert grid.history_steps == 50
        assert grid.t_end == pytest.approx(10.0)


class TestSimulate:
    def test_constant_history_at_equilibrium_is_fixed(self):
        # g vanishes identically along the trajectory, so every computed
        # value is bitwise the history constant.
        grid = build_grid(DelayPair(0.4, 0.5), 5.0, 0.01)
        for x_star in (0.0, 1.0, -1.0):
            traj = simulate(ucar_rhs(), 0.85, grid, x_star)
            assert np.all(traj.values == x_star)
            assert not traj.is_truncated

    def test_equilibrium_stays_fixed_through_fft_path(self):
        # 5000 steps take the far-field sum through FFT convolutions; an
        # all-zero history segment must add exactly nothing there.
        grid = build_grid(DelayPair(0.4, 0.5), 50.0, 0.01)
        assert grid.n_steps == 5000
        for x_star in (0.0, 1.0, -1.0):
            traj = simulate(ucar_rhs(), 0.85, grid, x_star)
            assert np.all(traj.values == x_star)
            assert not traj.is_truncated

    def test_alpha_one_matches_classical_trapezoid(self, rng):
        # At alpha = 1 the scheme must reduce to the classical trapezoid
        # rule; integrate the memoized right-hand side independently.
        a, b = rng.uniform(-1.0, 1.0, 2)
        grid = build_grid(DelayPair(0.3, 0.7), 10.0, 0.1)
        traj = simulate(linear_rhs(a, b), 1.0, grid, lambda t: 1.0 + 0.5 * t)
        k, k1, k2 = grid.history_steps, grid.k1, grid.k2
        x = traj.values
        f = a * x[k - k1 : k - k1 + grid.n_steps + 1] + b * x[k - k2 : k - k2 + grid.n_steps + 1]
        running = 0.0
        for n in range(grid.n_steps):
            running += 0.5 * grid.h * (f[n] + f[n + 1])
            assert abs(x[k + n + 1] - (x[k] + running)) <= 1e-12

    def test_first_interval_closed_form_any_alpha(self):
        # Up to t = tau both delayed arguments still read the constant
        # history, so x(t) = 1 - t**alpha/Gamma(alpha+1) exactly in exact
        # arithmetic; the weight-sum identity makes the scheme reproduce it.
        grid = build_grid(DelayPair(1.0, 1.0), 1.0, 0.01)
        for alpha in (0.3, 0.5, 0.9, 1.0):
            traj = simulate(linear_rhs(-1.0, 0.0), alpha, grid, 1.0)
            t = np.arange(grid.n_steps + 1) * grid.h
            expected = 1.0 - t ** alpha / gamma_function(alpha + 1.0)
            got = traj.values[grid.history_steps :]
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_matches_series_oracle(self):
        for alpha, tol in ((0.5, 2e-3), (0.9, 1e-4)):
            grid = build_grid(DelayPair(1.0, 1.0), 3.0, 0.01)
            traj = simulate(linear_rhs(-1.0, 0.0), alpha, grid, 1.0)
            t = np.arange(grid.n_steps + 1) * grid.h
            expected = np.array([delayed_series_oracle(alpha, -1.0, 1.0, ti) for ti in t])
            err = np.max(np.abs(traj.values[grid.history_steps :] - expected))
            assert err <= tol, f"alpha={alpha}: {err}"

    def test_two_delay_case_converges_to_oracle_limit(self):
        # With both delays equal the two-delay solver must agree with the
        # single-delay series on g = -(x1 + x2)/2.
        alpha = 0.7
        grid = build_grid(DelayPair(0.5, 0.5), 2.0, 0.005)
        traj = simulate(linear_rhs(-0.5, -0.5), alpha, grid, 1.0)
        t_check = [0.5, 1.0, 1.7, 2.0]
        for t in t_check:
            n = round(t / grid.h)
            expected = delayed_series_oracle(alpha, -1.0, 0.5, t)
            assert abs(traj.values[grid.history_steps + n] - expected) <= 2e-3

    def test_convergence_is_at_least_first_order(self):
        steps = (0.01, 0.005, 0.0025)
        for alpha in (0.5, 0.9):
            errors = []
            for h in steps:
                grid = build_grid(DelayPair(1.0, 1.0), 2.0, h)
                traj = simulate(linear_rhs(-1.0, 0.0), alpha, grid, 1.0)
                t = np.arange(grid.n_steps + 1) * grid.h
                exact = np.array([delayed_series_oracle(alpha, -1.0, 1.0, ti) for ti in t])
                errors.append(np.max(np.abs(traj.values[grid.history_steps :] - exact)))
            assert errors[0] > errors[1] > errors[2]
            # Least-squares slope of log err vs log h.  At alpha=0.5 the max
            # error halves with h at ratio exactly 2, so a single-pair log2
            # ratio lands within rounding noise of 1.0 on either side; the
            # slope across three grids stays on the right side.
            order = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
            assert order >= 1.0, f"alpha={alpha}: order={order} errors={errors}"

    def test_delay_free_limit_matches_mittag_leffler(self):
        # Shrinking both delays to one step approaches the ordinary
        # fractional relaxation equation, whose solution is E_alpha(-t**alpha).
        alpha = 0.8
        h = 5e-4
        grid = build_grid(DelayPair(h, h), 1.0, h)
        traj = simulate(linear_rhs(-1.0, 0.0), alpha, grid, 1.0)
        t_idx = [200, 1000, 2000]
        for n in t_idx:
            t = n * h
            expected = mittag_leffler(alpha, -(t ** alpha))
            assert abs(traj.values[grid.history_steps + n] - expected) <= 5e-3

    def test_blowup_truncates_instead_of_raising(self):
        rhs = SystemRhs(g=lambda x1, x2: x2 * x2 * x2)
        grid = build_grid(DelayPair(0.1, 0.1), 50.0, 0.1)
        traj = simulate(rhs, 1.0, grid, 2.0)
        assert traj.is_truncated
        j = traj.truncated_at
        k = traj.history_steps
        assert 1 <= j <= grid.n_steps
        assert np.all(np.isfinite(traj.values[: k + j]))
        assert np.all(np.isnan(traj.values[k + j :]))

    def test_overflowing_rhs_is_treated_as_blowup(self):
        # Python's float ** raises OverflowError where IEEE gives inf; the
        # solver must convert that into truncation, not an exception.
        rhs = SystemRhs(g=lambda x1, x2: x2 ** 9)
        grid = build_grid(DelayPair(0.1, 0.1), 50.0, 0.1)
        traj = simulate(rhs, 1.0, grid, 3.0)
        assert traj.is_truncated

    @pytest.mark.parametrize("k1, k2", [(1, 1), (40, 50)])
    def test_scalar_only_rhs_is_rejected_on_the_first_call(self, k1, k2):
        # g must be elementwise; math.sin takes no arrays.  The first call
        # covers at least two points, so a short delay is no way around it.
        calls = []

        def g(x1, x2):
            calls.append(1)
            return -x1 + math.sin(x2)

        grid = CommensurateGrid(h=0.01, n_steps=100, k1=k1, k2=k2)
        with pytest.raises(TypeError, match="elementwise"):
            simulate(SystemRhs(g=g), 0.9, grid, 0.5)
        assert len(calls) == 1

    def test_leaves_no_reference_cycle(self):
        # The work arrays are freed when simulate returns, not at some later
        # garbage collection; a run deep enough to use the FFT levels.
        grid = build_grid(DelayPair(0.4, 0.5), 40.0, 0.01)
        rhs = ucar_rhs()
        gc.collect()
        gc.disable()
        try:
            simulate(rhs, 0.9, grid, 0.8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_history_callable_is_sampled(self):
        grid = build_grid(DelayPair(0.4, 0.5), 1.0, 0.01)
        traj = simulate(linear_rhs(-1.0, 0.5), 0.9, grid, lambda t: math.cos(t))
        k = grid.history_steps
        times = (np.arange(k + 1) - k) * grid.h
        assert np.allclose(traj.values[: k + 1], np.cos(times), rtol=0, atol=0)

    def test_nonfinite_history_rejected(self):
        grid = build_grid(DelayPair(0.4, 0.5), 1.0, 0.01)
        with pytest.raises(ValueError):
            simulate(linear_rhs(-1.0, 0.0), 0.9, grid, lambda t: math.inf)

    def test_trajectory_times_alignment(self):
        grid = build_grid(DelayPair(0.4, 0.5), 1.0, 0.1)
        traj = simulate(linear_rhs(-1.0, 0.0), 0.9, grid, 1.0)
        t = traj.times()
        assert t[0] == pytest.approx(-0.5)
        assert t[grid.history_steps] == 0.0
        assert t[-1] == pytest.approx(1.0)
        assert traj.n_steps == grid.n_steps


def _max_relative_deviation(got, expected):
    return float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))))


class TestFastMemorySum:
    """simulate against the O(N^2) direct-sum stepper it replaces."""

    # Step counts around the base block (32) and the FFT threshold (256),
    # plus two runs deep into the FFT levels.  The delays put kmin = min(k1,
    # k2), the chunk length, below and above the one-point cutoff (8) and
    # around the block size.
    @pytest.mark.parametrize("n_steps", [31, 32, 33, 64, 65, 255, 256, 257, 1000, 5000])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize(
        "k1, k2",
        [
            (1, 1),
            (101, 150),
            (1, 2),
            (4, 40),
            (7, 9),
            (8, 8),
            (31, 40),
            (32, 32),
            (33, 50),
            (160, 140),
        ],
    )
    def test_converging_runs_match_direct_sum(self, n_steps, alpha, k1, k2):
        grid = CommensurateGrid(h=0.01, n_steps=n_steps, k1=k1, k2=k2)
        rhs = linear_rhs(-0.5, -0.25)
        history = lambda t: 1.0 + 0.5 * math.cos(3.0 * t)
        traj = simulate(rhs, alpha, grid, history)
        ref = direct_sum_stepper(rhs, alpha, grid, history)
        assert not traj.is_truncated and not ref.is_truncated
        assert _max_relative_deviation(traj.values, ref.values) <= 1e-12

    @pytest.mark.parametrize("n_steps", [1, 2, 5, 20])
    @pytest.mark.parametrize("k1, k2", [(40, 50), (9, 12), (3, 100)])
    def test_run_shorter_than_a_block_and_the_delays(self, n_steps, k1, k2):
        # Every step reads only the history, and the weight tables are
        # shorter than one block.
        grid = CommensurateGrid(h=0.01, n_steps=n_steps, k1=k1, k2=k2)
        rhs = linear_rhs(-0.5, -0.25)
        history = lambda t: 1.0 + 0.5 * math.cos(3.0 * t)
        traj = simulate(rhs, 0.6, grid, history)
        ref = direct_sum_stepper(rhs, 0.6, grid, history)
        assert not traj.is_truncated
        assert _max_relative_deviation(traj.values, ref.values) <= 1e-12

    def test_nonlinear_run_matches_direct_sum(self):
        grid = build_grid(DelayPair(0.4, 0.5), 40.0, 0.01)
        traj = simulate(ucar_rhs(), 0.9, grid, 0.8)
        ref = direct_sum_stepper(ucar_rhs(), 0.9, grid, 0.8)
        assert _max_relative_deviation(traj.values, ref.values) <= 1e-12

    @pytest.mark.parametrize(
        "rhs, alpha, k1, k2, n_steps, history",
        [
            (ucar_rhs(), 0.881, 47, 110, 2125, 3.805),
            (ucar_rhs(), 0.972, 93, 102, 3625, 2.502),
            (ucar_rhs(), 0.935, 65, 112, 2875, 3.12),
            (ucar_rhs(), 0.961, 56, 113, 1375, 3.666),
            # Grows slowly enough to cross many FFT levels before overflowing.
            (linear_rhs(2.5, 1.5), 0.8, 1, 3, 20000, 1.0),
            # g overflows to inf inside a chunk, not at its first step: step
            # 90 is step 7 of the chunk of 9 at 83, and step 282 is step 25
            # of the chunk of 33 at 257.
            (SystemRhs(g=lambda x1, x2: x2 * x2 * x2), 0.8, 12, 9, 3000, 1.5),
            (SystemRhs(g=lambda x1, x2: x2 * x2 * x2), 1.0, 40, 33, 3000, 1.5),
        ],
    )
    def test_diverging_runs_truncate_at_the_same_step(self, rhs, alpha, k1, k2, n_steps, history):
        grid = CommensurateGrid(h=0.01, n_steps=n_steps, k1=k1, k2=k2)
        traj = simulate(rhs, alpha, grid, history)
        ref = direct_sum_stepper(rhs, alpha, grid, history)
        assert traj.truncated_at is not None
        assert traj.truncated_at == ref.truncated_at
        end = grid.history_steps + traj.truncated_at
        assert _max_relative_deviation(traj.values[:end], ref.values[:end]) <= 1e-12
        assert np.all(np.isnan(traj.values[end:]))


class TestPhaseColumns:
    def test_alignment_small_case(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        traj = Trajectory(h=0.5, history_steps=1, values=values)
        grid = CommensurateGrid(h=0.5, n_steps=2, k1=1, k2=1)
        table = phase_columns(traj, grid)
        expected = np.array(
            [
                [0.0, 2.0, 1.0, 1.0],
                [0.5, 3.0, 2.0, 2.0],
                [1.0, 4.0, 3.0, 3.0],
            ]
        )
        assert np.array_equal(table, expected)

    def test_delayed_columns_lag_by_grid_offsets(self):
        grid = build_grid(DelayPair(0.3, 0.7), 5.0, 0.1)
        traj = simulate(linear_rhs(-0.8, -0.1), 0.75, grid, lambda t: 1.0 + t)
        table = phase_columns(traj, grid)
        assert table.shape == (grid.n_steps + 1, 4)
        k = grid.history_steps
        n = 17
        assert table[n, 2] == traj.values[k + n - grid.k1]
        assert table[n, 3] == traj.values[k + n - grid.k2]

    def test_truncated_rows_stop_at_last_finite(self):
        rhs = SystemRhs(g=lambda x1, x2: x2 * x2 * x2)
        grid = build_grid(DelayPair(0.1, 0.1), 50.0, 0.1)
        traj = simulate(rhs, 1.0, grid, 2.0)
        table = phase_columns(traj, grid)
        assert len(table) == traj.truncated_at
        assert np.all(np.isfinite(table))

    def test_mismatched_grid_rejected(self):
        grid = build_grid(DelayPair(0.4, 0.5), 1.0, 0.1)
        traj = simulate(linear_rhs(-1.0, 0.0), 0.9, grid, 1.0)
        other = CommensurateGrid(h=0.1, n_steps=10, k1=4, k2=3)
        with pytest.raises(ValueError):
            phase_columns(traj, other)
