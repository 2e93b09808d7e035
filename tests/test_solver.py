import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdde import (
    SystemRhs,
    Trajectory,
    simulate,
    ucar_rhs,
)
from fracdde.solver import Grid
from oracles import delayed_series_oracle, direct_sum_stepper, mittag_leffler, phase_columns


def linear_rhs(a, b):
    return SystemRhs(g=lambda x1, x2: a * x1 + b * x2)


def grid_of(delays, t_end, h):
    """The grid that simulate runs on for these delays, horizon and step."""
    return simulate(linear_rhs(-1.0, 0.0), 0.9, delays, t_end, h, 1.0).grid


H = 0.01


def in_steps(k1, k2, n_steps, theta1=0.0, theta2=0.0):
    """simulate's delays, horizon and step for delays of ``ki + thetai``
    steps of H and a horizon of ``n_steps`` steps."""
    return ((k1 + theta1) * H, (k2 + theta2) * H), n_steps * H, H


class TestBuildGrid:
    def test_exact_request(self):
        grid = grid_of((0.4, 0.5), 100.0, 0.01)
        assert grid == Grid(h=0.01, n_steps=10000, k1=40, k2=50)

    def test_off_grid_delay_keeps_the_requested_step(self):
        # 0.01 is 2.5 steps of 0.004: two whole steps and an offset of a half.
        grid = grid_of((0.02, 0.01), 50.0, 0.004)
        assert grid.h == 0.004
        assert (grid.k1, grid.theta1) == (5, 0.0)
        assert grid.k2 == 2 and grid.theta2 == pytest.approx(0.5, abs=1e-12)
        assert grid.n_steps == 12500
        assert grid.history_steps == 5

    def test_step_never_exceeds_request(self):
        for h_req in (0.01, 0.004, 0.003, 0.0007):
            grid = grid_of((0.02, 0.01), 10.0, h_req)
            assert grid.h == h_req
            assert grid.k1 >= 1 and grid.k2 >= 1

    def test_commensurability_invariants(self):
        for tau1, tau2, t_end, h_req in [
            (0.4, 0.5, 100.0, 0.01),
            (1.6, 1.4, 200.0, 0.01),
            (0.02, 0.01, 50.0, 0.004),
            (0.3, 0.7, 15.0, 0.11),
            (0.4, 0.5, 10.005, 0.01),
        ]:
            grid = grid_of((tau1, tau2), t_end, h_req)
            assert grid.h == h_req
            for tau, k, theta in ((tau1, grid.k1, grid.theta1), (tau2, grid.k2, grid.theta2)):
                assert 0.0 <= theta < 1.0
                assert abs((k + theta) * grid.h - tau) <= 1e-9 * tau
            # The fewest steps that reach the horizon, within the same slack.
            assert grid.n_steps * grid.h >= t_end * (1.0 - 1e-9)
            assert (grid.n_steps - 1) * grid.h < t_end * (1.0 - 1e-9)

    # A delay is drawn as (k + frac) steps of h, stretched by up to 3e-9
    # relative or not at all.  Within 1e-9 relative of whole steps it must
    # come back as those steps with offset exactly 0.0; anywhere else as
    # floor(tau / h) steps plus an offset in (0, 1) that puts it back to a
    # few ulps.  A delay below one step is refused.
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        h=st.floats(1e-4, 10.0),
        k=st.integers(1, 500),
        frac=st.one_of(st.just(0.0), st.floats(1e-6, 1.0 - 1e-6)),
        jitter=st.one_of(st.just(0.0), st.floats(-3e-9, 3e-9)),
    )
    def test_property_delay_is_whole_steps_plus_an_offset(self, h, k, frac, jitter):
        tau = (k + frac) * h * (1.0 + jitter)
        try:
            grid = grid_of((tau, 2.0 * h), 3.0 * h, h)
        except ValueError as exc:
            assert tau < h and "shorter than the step" in str(exc)
            return
        assert grid.h == h and (grid.k2, grid.theta2, grid.n_steps) == (2, 0.0, 3)
        got_k, theta = grid.k1, grid.theta1
        if theta == 0.0:
            assert got_k >= 1 and abs(got_k * h - tau) <= 1e-9 * tau
        else:
            assert got_k == math.floor(tau / h) >= 1 and 0.0 < theta < 1.0
            assert abs((got_k + theta) * h - tau) <= 4 * math.ulp(tau)
            assert all(abs(j * h - tau) > 1e-9 * tau for j in (got_k, got_k + 1))
        if frac == 0.0 and jitter == 0.0:
            assert (got_k, theta) == (k, 0.0)

    def test_irrational_ratio_runs_at_the_requested_step(self):
        traj = simulate(ucar_rhs(), 0.9, (1.0, math.sqrt(2)), 10.0, 0.01, 0.8)
        grid = traj.grid
        assert (grid.h, grid.n_steps, grid.k1, grid.theta1, grid.k2) == (0.01, 1000, 100, 0.0, 141)
        assert abs((141 + grid.theta2) * 0.01 - math.sqrt(2)) <= 4 * math.ulp(math.sqrt(2))
        assert grid.history_steps == 142
        assert traj.truncated_at is None and np.all(np.isfinite(traj.values))

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError):
            grid_of((0.0, 0.5), 10.0, 0.01)

    def test_rejects_bad_horizon_and_step(self):
        with pytest.raises(ValueError):
            grid_of((0.4, 0.5), -1.0, 0.01)
        with pytest.raises(ValueError):
            grid_of((0.4, 0.5), 10.0, 0.0)
        # Spans whose step counts overflow to infinity are refused before
        # anything is allocated.
        with pytest.raises(ValueError, match="too many steps"):
            grid_of((0.4, 0.5), 1e300, 1e-300)
        with pytest.raises(ValueError, match="too many steps"):
            grid_of((1e300, 0.5), 10.0, 1e-300)

    def test_grid_is_checked_before_the_order_and_the_history(self):
        rhs = linear_rhs(-1.0, 0.0)
        with pytest.raises(ValueError, match="^delay 0.005 is shorter than the step h = 0.01$"):
            simulate(rhs, 2.0, (0.005, 0.5), 1.0, 0.01, math.nan)
        with pytest.raises(ValueError, match="^horizon must be positive and finite"):
            simulate(rhs, 2.0, (0.4, 0.5), 0.0, 0.01, math.nan)
        with pytest.raises(ValueError, match="^derivative order must lie in"):
            simulate(rhs, 2.0, (0.4, 0.5), 1.0, 0.01, math.nan)
        with pytest.raises(ValueError, match="^history must be finite, got nan$"):
            simulate(rhs, 0.9, (0.4, 0.5), 1.0, 0.01, math.nan)

    def test_grid_stores_python_numbers(self):
        # The delays, horizon and step pass the package's rule for reals, and
        # the grid holds the Python floats and ints they stand for.
        grid = grid_of((np.float32(0.625), np.int64(1)), np.int64(10), np.float32(0.25))
        assert grid == Grid(h=0.25, n_steps=40, k1=2, k2=4, theta1=0.5)
        fields = (grid.h, grid.n_steps, grid.k1, grid.k2, grid.theta1, grid.theta2)
        assert [type(f) for f in fields] == [float, int, int, int, float, float]

    def test_history_steps_property(self):
        grid = grid_of((0.4, 0.5), 10.0, 0.01)
        assert grid.history_steps == 50
        assert grid.n_steps * grid.h == pytest.approx(10.0)
        # An off-grid delay also reads the sample one step further back.
        assert grid_of((0.4, 0.505), 10.0, 0.01).history_steps == 51


class TestSimulate:
    def test_constant_history_at_equilibrium_is_fixed(self):
        # g vanishes identically along the trajectory, so every computed
        # value is bitwise the history constant.
        for x_star in (0.0, 1.0, -1.0):
            traj = simulate(ucar_rhs(), 0.85, (0.4, 0.5), 5.0, 0.01, x_star)
            assert np.all(traj.values == x_star)
            assert traj.truncated_at is None

    def test_equilibrium_stays_fixed_through_fft_path(self):
        # 5000 steps take the far-field sum through FFT convolutions; an
        # all-zero history segment must add exactly nothing there.
        for x_star in (0.0, 1.0, -1.0):
            traj = simulate(ucar_rhs(), 0.85, (0.4, 0.5), 50.0, 0.01, x_star)
            assert traj.n_steps == 5000
            assert np.all(traj.values == x_star)
            assert traj.truncated_at is None

    def test_alpha_one_matches_classical_trapezoid(self, rng):
        # At alpha = 1 the scheme must reduce to the classical trapezoid
        # rule; integrate the memoized right-hand side independently.
        a, b = rng.uniform(-1.0, 1.0, 2)
        traj = simulate(linear_rhs(a, b), 1.0, (0.3, 0.7), 10.0, 0.1, lambda t: 1.0 + 0.5 * t)
        grid = traj.grid
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
        for alpha in (0.3, 0.5, 0.9, 1.0):
            traj = simulate(linear_rhs(-1.0, 0.0), alpha, (1.0, 1.0), 1.0, 0.01, 1.0)
            grid = traj.grid
            t = np.arange(grid.n_steps + 1) * grid.h
            expected = 1.0 - t ** alpha / math.gamma(alpha + 1.0)
            got = traj.values[grid.history_steps :]
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_matches_series_oracle(self):
        for alpha, tol in ((0.5, 2e-3), (0.9, 1e-4)):
            traj = simulate(linear_rhs(-1.0, 0.0), alpha, (1.0, 1.0), 3.0, 0.01, 1.0)
            grid = traj.grid
            t = np.arange(grid.n_steps + 1) * grid.h
            expected = np.array([delayed_series_oracle(alpha, -1.0, 1.0, ti) for ti in t])
            err = np.max(np.abs(traj.values[grid.history_steps :] - expected))
            assert err <= tol, f"alpha={alpha}: {err}"

    def test_two_delay_case_converges_to_oracle_limit(self):
        # With both delays equal the two-delay solver must agree with the
        # single-delay series on g = -(x1 + x2)/2.
        alpha = 0.7
        traj = simulate(linear_rhs(-0.5, -0.5), alpha, (0.5, 0.5), 2.0, 0.005, 1.0)
        grid = traj.grid
        t_check = [0.5, 1.0, 1.7, 2.0]
        for t in t_check:
            n = round(t / grid.h)
            expected = delayed_series_oracle(alpha, -1.0, 0.5, t)
            assert abs(traj.values[grid.history_steps + n] - expected) <= 2e-3

    def test_convergence_is_at_least_first_order(self):
        # g = -x(t - 1) against the series solution on [0, 2], with h =
        # 1/(n + theta): the delay is n whole steps (theta 0) or n and a half
        # (theta 0.5), read by interpolation.  The max-norm error is
        # O(h^(2 alpha)): x has a t^alpha term at 0+, so g(x(t - 1)) has a
        # (t - 1)^alpha kink that the product-trapezoidal rule integrates to
        # that order.  Measured: 0.600, 1.000, 1.400, 1.800 at both offsets,
        # and 2.000 at alpha 1 off the grid; on the grid the alpha = 1 error
        # is rounding (5.6e-16), so that case has no order to fit.
        rhs = linear_rhs(-1.0, 0.0)
        for theta in (0.0, 0.5):
            for alpha in (0.3, 0.5, 0.7, 0.9, 1.0) if theta else (0.3, 0.5, 0.7, 0.9):
                steps, errors = [], []
                for n in (100, 200, 400, 800):
                    traj = simulate(rhs, alpha, (1.0, 1.0), 2.0, 1.0 / (n + theta), 1.0)
                    grid = traj.grid
                    assert (grid.k1, grid.theta1 > 0.0) == (n, theta > 0.0)
                    t = np.arange(grid.n_steps + 1) * grid.h
                    exact = np.array([delayed_series_oracle(alpha, -1.0, 1.0, ti) for ti in t])
                    steps.append(grid.h)
                    errors.append(np.max(np.abs(traj.values[grid.history_steps :] - exact)))
                assert errors == sorted(errors, reverse=True), (theta, alpha, errors)
                # Least-squares slope of log err against log h over the four grids.
                order = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
                assert abs(order - 2.0 * alpha) <= 0.05, (theta, alpha, order, errors)

    def test_delay_free_limit_matches_mittag_leffler(self):
        # Shrinking both delays to one step approaches the ordinary
        # fractional relaxation equation, whose solution is E_alpha(-t**alpha).
        alpha = 0.8
        h = 5e-4
        traj = simulate(linear_rhs(-1.0, 0.0), alpha, (h, h), 1.0, h, 1.0)
        grid = traj.grid
        t_idx = [200, 1000, 2000]
        for n in t_idx:
            t = n * h
            expected = mittag_leffler(alpha, -(t ** alpha))
            assert abs(traj.values[grid.history_steps + n] - expected) <= 5e-3

    def test_blowup_truncates_instead_of_raising(self):
        rhs = SystemRhs(g=lambda x1, x2: x2 * x2 * x2)
        traj = simulate(rhs, 1.0, (0.1, 0.1), 50.0, 0.1, 2.0)
        assert traj.truncated_at is not None
        j = traj.truncated_at
        k = traj.grid.history_steps
        assert 1 <= j <= traj.n_steps
        assert np.all(np.isfinite(traj.values[: k + j]))
        assert np.all(np.isnan(traj.values[k + j :]))

    def test_overflowing_rhs_is_treated_as_blowup(self):
        # Python's float ** raises OverflowError where IEEE gives inf; the
        # solver must convert that into truncation, not an exception.
        rhs = SystemRhs(g=lambda x1, x2: x2 ** 9)
        traj = simulate(rhs, 1.0, (0.1, 0.1), 50.0, 0.1, 3.0)
        assert traj.truncated_at is not None

    @pytest.mark.parametrize("k1, k2", [(1, 1), (40, 50)])
    def test_scalar_only_rhs_is_rejected_on_the_first_call(self, k1, k2):
        # g must be elementwise; math.sin takes no arrays.  The first call
        # covers at least two points, so a short delay is no way around it.
        calls = []

        def g(x1, x2):
            calls.append(1)
            return -x1 + math.sin(x2)

        with pytest.raises(TypeError, match="elementwise"):
            simulate(SystemRhs(g=g), 0.9, *in_steps(k1, k2, 100), 0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("theta1, theta2", [(0.0, 0.0), (0.3, 0.7)])
    @pytest.mark.parametrize("k1, k2", [(1, 1), (4, 40), (7, 9), (8, 8), (40, 33), (130, 129)])
    def test_rhs_is_evaluated_once_per_grid_point(self, k1, k2, theta1, theta2):
        # Both bodies, on the grid and off it: g sees n_steps + 1 points in
        # all, whether called on floats or on arrays.
        points = []

        def g(x1, x2):
            points.append(np.size(x1))
            return -0.5 * x1 - 0.25 * x2

        traj = simulate(SystemRhs(g=g), 0.8, *in_steps(k1, k2, 1000, theta1, theta2), 1.0)
        grid = traj.grid
        assert (grid.k1, grid.k2, grid.theta1 > 0.0) == (k1, k2, theta1 > 0.0)
        assert traj.truncated_at is None
        assert sum(points) == grid.n_steps + 1 == 1001

    def test_leaves_no_reference_cycle(self):
        # The work arrays are freed when simulate returns, not at some later
        # garbage collection; a run deep enough to use the FFT levels.
        rhs = ucar_rhs()
        gc.collect()
        gc.disable()
        try:
            simulate(rhs, 0.9, (0.4, 0.5), 40.0, 0.01, 0.8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_history_callable_is_sampled(self):
        traj = simulate(linear_rhs(-1.0, 0.5), 0.9, (0.4, 0.5), 1.0, 0.01, lambda t: math.cos(t))
        k = traj.grid.history_steps
        times = (np.arange(k + 1) - k) * traj.grid.h
        assert np.allclose(traj.values[: k + 1], np.cos(times), rtol=0, atol=0)

    def test_nonfinite_history_rejected(self):
        with pytest.raises(ValueError):
            simulate(linear_rhs(-1.0, 0.0), 0.9, (0.4, 0.5), 1.0, 0.01, lambda t: math.inf)

    def test_trajectory_times_alignment(self):
        traj = simulate(linear_rhs(-1.0, 0.0), 0.9, (0.4, 0.5), 1.0, 0.1, 1.0)
        t = traj.times()
        assert t[0] == pytest.approx(-0.5)
        assert t[traj.grid.history_steps] == 0.0
        assert t[-1] == pytest.approx(1.0)
        assert traj.n_steps == traj.grid.n_steps == 10


def _max_relative_deviation(got, expected):
    return float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))))


class TestFastMemorySum:
    """simulate against the O(N^2) direct-sum stepper it replaces."""

    # Step counts inside the first block of 128 steps and around the ends of
    # blocks 1, 2 and 4, where the far-field updates of FFT length 256, 512
    # and 1024 first act, plus two runs deep into the FFT levels.  The
    # delays put kmin = min(k1, k2), the chunk length, below and above the
    # one-point cutoff (8) and around the block size; (3, 300) is a
    # one-point run whose far delay spans more than two blocks.  Each pair
    # runs on the grid and 0.3 and 0.7 of a step further back (id
    # "k1.3-k2.7"), read by interpolation.
    @pytest.mark.parametrize(
        "n_steps", [31, 32, 33, 64, 65, 127, 128, 129, 255, 256, 257, 513, 1000, 5000]
    )
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize(
        "k1, k2, theta1, theta2",
        [
            pytest.param(k1, k2, theta1, theta2, id=f"{k1}{tag1}-{k2}{tag2}")
            for theta1, theta2, tag1, tag2 in ((0.0, 0.0, "", ""), (0.3, 0.7, ".3", ".7"))
            for k1, k2 in [
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
                (128, 128),
                (3, 300),
            ]
        ],
    )
    def test_converging_runs_match_direct_sum(self, n_steps, alpha, k1, k2, theta1, theta2):
        rhs = linear_rhs(-0.5, -0.25)
        history = lambda t: 1.0 + 0.5 * math.cos(3.0 * t)
        traj = simulate(rhs, alpha, *in_steps(k1, k2, n_steps, theta1, theta2), history)
        grid = traj.grid
        assert (grid.k1, grid.k2, grid.n_steps) == (k1, k2, n_steps)
        assert (grid.theta1 > 0.0, grid.theta2 > 0.0) == (theta1 > 0.0, theta2 > 0.0)
        ref = direct_sum_stepper(rhs, alpha, grid, history)
        assert traj.truncated_at is None and ref.truncated_at is None
        assert _max_relative_deviation(traj.values, ref.values) <= 1e-12

    @pytest.mark.parametrize("n_steps", [1, 2, 5, 20])
    @pytest.mark.parametrize("k1, k2", [(40, 50), (9, 12), (3, 100)])
    def test_run_shorter_than_a_block_and_the_delays(self, n_steps, k1, k2):
        # Every step reads only the history, and the weight tables are
        # shorter than one block.
        rhs = linear_rhs(-0.5, -0.25)
        history = lambda t: 1.0 + 0.5 * math.cos(3.0 * t)
        traj = simulate(rhs, 0.6, *in_steps(k1, k2, n_steps), history)
        ref = direct_sum_stepper(rhs, 0.6, traj.grid, history)
        assert traj.truncated_at is None
        assert _max_relative_deviation(traj.values, ref.values) <= 1e-12

    def test_nonlinear_run_matches_direct_sum(self):
        traj = simulate(ucar_rhs(), 0.9, (0.4, 0.5), 40.0, 0.01, 0.8)
        ref = direct_sum_stepper(ucar_rhs(), 0.9, traj.grid, 0.8)
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
            # 90 is step 9 of the chunk of 9 at 82, and step 282 is step 26
            # of the chunk of 33 at 257.
            (SystemRhs(g=lambda x1, x2: x2 * x2 * x2), 0.8, 12, 9, 3000, 1.5),
            (SystemRhs(g=lambda x1, x2: x2 * x2 * x2), 1.0, 40, 33, 3000, 1.5),
            # One-point runs whose g is already inf on the last three history
            # states: step 1 reads none of them, and the run truncates at
            # step 3, the first that does.
            *(
                (SystemRhs(g=lambda x1, x2: x2 * x2 * x2), 0.8, 5, 5, n,
                 lambda t: 1e103 if t >= -0.02 else 1.0)
                for n in (20, 300)
            ),
        ],
    )
    def test_diverging_runs_truncate_at_the_same_step(self, rhs, alpha, k1, k2, n_steps, history):
        traj = simulate(rhs, alpha, *in_steps(k1, k2, n_steps), history)
        ref = direct_sum_stepper(rhs, alpha, traj.grid, history)
        assert traj.truncated_at is not None
        assert traj.truncated_at == ref.truncated_at
        end = traj.grid.history_steps + traj.truncated_at
        assert _max_relative_deviation(traj.values[:end], ref.values[:end]) <= 1e-12
        assert np.all(np.isnan(traj.values[end:]))


class TestPhaseColumns:
    def test_alignment_small_case(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        traj = Trajectory(Grid(h=0.5, n_steps=2, k1=1, k2=1), values)
        table = phase_columns(traj)
        expected = np.array(
            [
                [0.0, 2.0, 1.0, 1.0],
                [0.5, 3.0, 2.0, 2.0],
                [1.0, 4.0, 3.0, 3.0],
            ]
        )
        assert np.array_equal(table, expected)

    def test_delayed_columns_lag_by_grid_offsets(self):
        traj = simulate(linear_rhs(-0.8, -0.1), 0.75, (0.3, 0.7), 5.0, 0.1, lambda t: 1.0 + t)
        grid = traj.grid
        table = phase_columns(traj)
        assert table.shape == (grid.n_steps + 1, 4)
        k = grid.history_steps
        n = 17
        assert table[n, 2] == traj.values[k + n - grid.k1]
        assert table[n, 3] == traj.values[k + n - grid.k2]

    def test_truncated_rows_stop_at_last_finite(self):
        rhs = SystemRhs(g=lambda x1, x2: x2 * x2 * x2)
        traj = simulate(rhs, 1.0, (0.1, 0.1), 50.0, 0.1, 2.0)
        table = phase_columns(traj)
        assert len(table) == traj.truncated_at
        assert np.all(np.isfinite(table))
