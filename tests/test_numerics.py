import math

import numpy as np
import pytest

from fracdde import (
    FractionalOrder,
    NonConvergenceError,
    corner_weight_table,
    gamma_function,
    interior_weight_table,
)
from oracles import delayed_series_oracle, mittag_leffler, trapezoid_weights
from reference_values import (
    GAMMA_REFERENCE,
    INTERIOR_WEIGHT_HALF_N2_J1,
    MITTAG_LEFFLER_REFERENCE,
    ORACLE_REFERENCE,
)


class TestFractionalOrder:
    def test_accepts_unit_interval(self):
        assert float(FractionalOrder(0.5)) == 0.5
        assert float(FractionalOrder(1.0)) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0000001, 2.0, math.inf, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            FractionalOrder(bad)


class TestGammaFunction:
    def test_integer_values_exact(self):
        for n, expected in [(1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (9, 40320.0)]:
            assert gamma_function(float(n)) == expected

    def test_matches_high_precision_references(self):
        for x, expected in GAMMA_REFERENCE:
            got = gamma_function(x)
            assert got == pytest.approx(expected, rel=1e-12), f"Gamma({x})"

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            gamma_function(bad)


class TestTrapezoidWeights:
    def test_base_row(self):
        # n = 0: corner is 0**(a+1) - (0-a)*1 = a, trailing weight 1.
        row = trapezoid_weights(0.5, 0)
        assert row.tolist() == [0.5, 1.0]

    def test_alpha_one_is_classical_trapezoid(self):
        for n in (0, 1, 2, 5, 40, 333):
            row = trapezoid_weights(1.0, n)
            expected = np.full(n + 2, 2.0)
            expected[0] = 1.0
            expected[-1] = 1.0
            assert np.array_equal(row, expected), f"n={n}"

    def test_interior_weight_matches_reference(self):
        row = trapezoid_weights(0.5, 2)
        assert row[1] == pytest.approx(INTERIOR_WEIGHT_HALF_N2_J1, rel=1e-13)

    def test_row_shape_and_tail(self):
        for alpha in (0.2, 0.7, 1.0):
            for n in (0, 3, 17):
                row = trapezoid_weights(alpha, n)
                assert len(row) == n + 2
                assert row[-1] == 1.0

    def test_all_weights_positive(self):
        for alpha in np.linspace(0.05, 1.0, 12):
            row = trapezoid_weights(float(alpha), 300)
            assert (row > 0.0).all()

    def test_sum_identity(self):
        # Rows must sum to (alpha+1)*(n+1)**alpha to near machine precision;
        # this pins down the cancellation behavior of both weight kinds.
        for alpha in np.linspace(0.05, 1.0, 20):
            a = float(alpha)
            for n in (0, 1, 2, 3, 5, 10, 50, 100, 217, 1000):
                total = math.fsum(trapezoid_weights(a, n))
                expected = (a + 1.0) * (n + 1.0) ** a
                assert abs(total - expected) <= 1e-12 * expected, f"alpha={a}, n={n}"

    def test_interior_table_alpha_one_exact(self):
        table = interior_weight_table(1.0, 500)
        assert np.array_equal(table[1:], np.full(500, 2.0))

    def test_interior_table_series_continuous_at_cutoff(self):
        # The direct formula and the series must agree where they meet.
        for alpha in (0.1, 0.5, 0.77, 0.99):
            b = alpha + 1.0
            table = interior_weight_table(alpha, 20)
            for m in (8, 9, 15):
                direct = (m + 1.0) ** b + (m - 1.0) ** b - 2.0 * m ** b
                assert table[m] == pytest.approx(direct, rel=1e-10)

    def test_corner_table_matches_row(self):
        corners = corner_weight_table(0.35, 25)
        for n in (0, 1, 7, 25):
            assert trapezoid_weights(0.35, n)[0] == corners[n]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            trapezoid_weights(0.5, -1)


class TestMittagLeffler:
    def test_at_zero(self):
        assert mittag_leffler(0.6, 0.0) == 1.0

    def test_reference_values(self):
        for alpha, z, expected in MITTAG_LEFFLER_REFERENCE:
            assert mittag_leffler(alpha, z) == pytest.approx(expected, rel=1e-13)

    def test_reduces_to_exp_moderate_arguments(self):
        for z in np.linspace(-3.0, 10.0, 53):
            z = float(z)
            assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_reduces_to_exp_negative_tail_condition_scaled(self):
        # Below about z = -3 the alternating terms grow to exp(|z|) before
        # they decay, so even exact summation of rounded terms cannot beat
        # an absolute error around exp(|z|)*eps.  Scale the bound by the
        # term magnitude instead of demanding fixed relative accuracy.
        for z in np.linspace(-10.0, -3.0, 29):
            z = float(z)
            bound = 1e-12 * math.exp(-z) + 1e-13
            assert abs(mittag_leffler(1.0, z) - math.exp(z)) <= bound

    def test_rejects_large_arguments(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.8, 50.5)
        with pytest.raises(ValueError):
            mittag_leffler(0.8, -51.0)

    def test_alternating_overflow_raises(self):
        with pytest.raises(NonConvergenceError):
            mittag_leffler(0.01, -50.0)


class TestDelayedSeriesOracle:
    def test_history_value_at_zero(self):
        assert delayed_series_oracle(0.7, -1.0, 1.0, 0.0) == 1.0

    def test_zero_coefficient_is_constant(self):
        assert delayed_series_oracle(0.7, 0.0, 1.0, 123.0) == 1.0

    def test_reference_values(self):
        # The absolute floor covers the alternating cases, where terms two
        # orders larger than the sum bound the reachable accuracy.
        for (alpha, a, tau, t), expected in ORACLE_REFERENCE:
            got = delayed_series_oracle(alpha, a, tau, t)
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-12)

    def test_first_interval_closed_form(self):
        # For t <= tau only the k=1 term is active:
        # x(t) = 1 + a*t**alpha/Gamma(alpha+1).
        for alpha in (0.4, 0.8, 1.0):
            for a in (-1.0, 0.6):
                for t in (0.05, 0.4, 1.0):
                    expected = 1.0 + a * t ** alpha / gamma_function(alpha + 1.0)
                    got = delayed_series_oracle(alpha, a, 1.0, t)
                    assert got == pytest.approx(expected, rel=1e-13)

    def test_second_interval_closed_form(self):
        alpha, a, tau = 0.6, -0.9, 0.8
        t = 1.3
        expected = (
            1.0
            + a * t ** alpha / gamma_function(alpha + 1.0)
            + a * a * (t - tau) ** (2 * alpha) / gamma_function(2 * alpha + 1.0)
        )
        assert delayed_series_oracle(alpha, a, tau, t) == pytest.approx(expected, rel=1e-13)

    def test_continuity_at_interval_knots(self):
        # The solution is continuous across t = k*tau.  Below alpha = 0.5
        # the Holder exponent at the knots makes a float-step comparison
        # meaningless, so restrict to orders where x is Lipschitz there.
        for alpha in (0.5, 0.75, 1.0):
            for tau in (0.5, 1.0):
                for knot_index in (1, 2, 3, 4):
                    t = knot_index * tau
                    left = delayed_series_oracle(alpha, -1.0, tau, np.nextafter(t, 0.0))
                    right = delayed_series_oracle(alpha, -1.0, tau, np.nextafter(t, math.inf))
                    assert abs(left - right) <= 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            delayed_series_oracle(0.5, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            delayed_series_oracle(0.5, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            delayed_series_oracle(0.5, math.nan, 1.0, 1.0)
