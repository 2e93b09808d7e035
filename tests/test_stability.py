import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracdde import (
    DegenerateCoefficientsError,
    IkedaParams,
    LinearCoefficients,
    StabilityVerdict,
    SystemRhs,
    UcarParams,
    characteristic_residual,
    classify,
    critical_tau2_for_tau1,
    curve_columns,
    default_v_window,
    find_equilibria,
    ikeda_rhs,
    linearize,
    stable_at_zero_delay,
    ucar_rhs,
)
from fracdde import stability
from oracles import (
    array_illinois,
    bisect_line_search,
    curve_points,
    object_curve_points,
    parametric_delays,
    reach,
    scalar_equilibria,
    table_line_search,
    tau1_branches,
)
from reference_values import IKEDA_EQUILIBRIA

UCAR_COEF = (1.0, -3.0)
FIELDS = ("v", "tau1", "tau2", "sign1", "m1", "sign2", "m2", "residual")


def independent_residual(alpha, a, b, v, tau1, tau2):
    # Written from scratch on purpose; keep it free of package code.
    half = 0.5 * math.pi * alpha
    r1 = v ** alpha * math.cos(half) - a * math.cos(v * tau1) - b * math.cos(v * tau2)
    r2 = v ** alpha * math.sin(half) + a * math.sin(v * tau1) + b * math.sin(v * tau2)
    return max(abs(r1), abs(r2))


class TestFindEquilibria:
    def test_cubic_equilibria(self):
        roots = find_equilibria(ucar_rhs(), (-3.0, 3.0))
        assert len(roots) == 3
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)

    def test_sinusoidal_equilibria_match_references(self):
        roots = find_equilibria(ikeda_rhs(), (-10.0, 10.0))
        assert len(roots) == len(IKEDA_EQUILIBRIA)
        for got, expected in zip(roots, IKEDA_EQUILIBRIA):
            assert got == pytest.approx(expected, abs=1e-9)

    def test_roots_are_numerically_exact(self):
        rhs = ikeda_rhs()
        for x in find_equilibria(rhs, (-10.0, 10.0)):
            assert abs(rhs.g(x, x)) <= 1e-10

    def test_no_roots(self):
        rhs = SystemRhs(g=lambda x1, x2: 1.0 + x1 * x1)
        assert find_equilibria(rhs, (-5.0, 5.0)) == []

    def test_exact_sample_zero_not_duplicated(self):
        # x = 0 falls on a scan point for a symmetric bracket.
        roots = find_equilibria(ucar_rhs(), (-2.0, 2.0), resolution=2001)
        assert len(roots) == 3

    def test_poles_are_not_equilibria(self):
        # tan changes sign across each pole as well as at each root; the
        # refined |g| at a pole exceeds both scan ends.
        roots = find_equilibria(SystemRhs(g=lambda x1, x2: math.tan(x1)), (-10.0, 10.0))
        assert roots == pytest.approx([k * math.pi for k in range(-3, 4)], abs=1e-12)

    def test_steep_root_is_kept(self):
        # Only x = 3.3 itself reaches |g| <= 1e-12; at its float neighbours
        # |g| is about 4e-7.  At the larger scales the product of two scan
        # samples would overflow; the sign comparison does not.
        for scale in (1e9, 1e160, 1e300):
            rhs = SystemRhs(g=lambda x1, x2: scale * (x1 - 3.3))
            assert find_equilibria(rhs, (-10.0, 10.0)) == [3.3]

    def test_tiny_scale_root_is_kept(self):
        # |g| <= 1e-12 over the whole bracket: the first midpoint ends the
        # bisection although |g| there exceeds it at the lower scan end.
        # Only a point that exceeds both ends is taken for a pole.  At 1e-170
        # the product of two scan samples would underflow to zero; the sign
        # comparison still sees the change.
        for scale in (1e-20, 1e-170):
            rhs = SystemRhs(g=lambda x1, x2: scale * (x1 - 0.1201))
            assert find_equilibria(rhs, (-10.0, 10.0)) == pytest.approx([0.125], abs=1e-12)

    def test_unreachable_tolerance_ends_on_a_float_sign_change(self):
        # At this scale rounding in g is far above 1e-12, so the bisection
        # runs until its bracket holds two adjacent floats; the root is one
        # of them, and g changes sign between it and a neighbour.
        rhs = SystemRhs(g=lambda x1, x2: 1e9 * (0.3 * x1 + math.sin(2.7 * x2 + 0.4)))
        roots = find_equilibria(rhs, (-10.0, 10.0))
        assert len(roots) == 5
        # The reference keeps the sample of least |g| rather than the final
        # bracket end, which can differ by a few ulps.
        assert roots == pytest.approx(scalar_equilibria(rhs, (-10.0, 10.0)), rel=16 * 2.0**-52)
        for r in roots:
            g = rhs.g(r, r)
            assert abs(g) > 1e-12
            below, above = math.nextafter(r, -math.inf), math.nextafter(r, math.inf)
            assert any((g < 0.0) != (rhs.g(n, n) < 0.0) for n in (below, above))

    @pytest.mark.parametrize(
        "rhs, bracket",
        [
            (ucar_rhs(), (-10.0, 10.0)),
            (ucar_rhs(UcarParams(2.0, 0.5)), (-5.0, 5.0)),
            (ikeda_rhs(), (-10.0, 10.0)),
            (ikeda_rhs(IkedaParams(-3.0, 12.0)), (-10.0, 10.0)),
        ],
        ids=["ucar", "ucar_wide", "ikeda", "ikeda_c2_12"],
    )
    def test_matches_scalar_reference(self, rhs, bracket):
        assert find_equilibria(rhs, bracket) == scalar_equilibria(rhs, bracket)

    def test_matches_scalar_reference_on_random_cubics(self, rng):
        for _ in range(20):
            c = rng.normal(size=4) * 10.0 ** rng.uniform(-2.0, 2.0)
            rhs = SystemRhs(g=lambda x1, x2, c=c: ((c[0] * x1 + c[1]) * x1 + c[2]) * x1 + c[3])
            assert find_equilibria(rhs, (-5.0, 5.0)) == scalar_equilibria(rhs, (-5.0, 5.0))

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            find_equilibria(ucar_rhs(), (2.0, -2.0))
        with pytest.raises(ValueError):
            find_equilibria(ucar_rhs(), (0.0, 1.0), resolution=1)


class TestLinearize:
    def test_analytic_partials_cubic(self):
        rhs = ucar_rhs()
        coef = linearize(rhs, 1.0)
        assert (coef.a, coef.b) == (1.0, -3.0)
        coef0 = linearize(rhs, 0.0)
        assert (coef0.a, coef0.b) == (1.0, 0.0)

    def test_numeric_matches_analytic_on_random_polynomials(self, rng):
        for _ in range(40):
            c = rng.uniform(-2.0, 2.0, 5)
            x = float(rng.uniform(-2.0, 2.0))
            g = lambda x1, x2: c[0] + c[1] * x1 + c[2] * x1 ** 3 + c[3] * x2 + c[4] * x2 ** 2
            da = c[1] + 3.0 * c[2] * x * x
            db = c[3] + 2.0 * c[4] * x
            got = linearize(SystemRhs(g=g), x)
            if abs(da) >= 0.1:
                assert got.a == pytest.approx(da, rel=1e-7)
            if abs(db) >= 0.1:
                assert got.b == pytest.approx(db, rel=1e-7)

    def test_numeric_fallback_on_stripped_model(self):
        full = ikeda_rhs()
        stripped = SystemRhs(g=full.g)
        for x in (-2.7859, 0.0, 2.7859, 7.4978):
            exact = linearize(full, x)
            approx = linearize(stripped, x)
            assert approx.a == pytest.approx(exact.a, rel=1e-7, abs=1e-8)
            assert approx.b == pytest.approx(exact.b, rel=1e-7, abs=1e-8)

    def test_rejects_nonfinite_point(self):
        with pytest.raises(ValueError):
            linearize(ucar_rhs(), math.inf)


class TestStableAtZeroDelay:
    def test_negative_sum_is_stable(self):
        assert stable_at_zero_delay(UCAR_COEF) is StabilityVerdict.STABLE_AT_ZERO_DELAYS

    def test_positive_sum_is_unstable(self):
        assert stable_at_zero_delay((1.0, 0.0)) is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS

    def test_boundary_band(self):
        assert stable_at_zero_delay((1.0, -1.0)) is StabilityVerdict.ON_BOUNDARY
        assert stable_at_zero_delay((1.0, -1.0 + 5e-13)) is StabilityVerdict.ON_BOUNDARY
        assert stable_at_zero_delay((1.0, -1.0 - 5e-13)) is StabilityVerdict.ON_BOUNDARY
        assert stable_at_zero_delay((1.0, -1.0 + 1e-11)) is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS


class TestCharacteristicResidual:
    def test_real_root_no_delays(self):
        # lambda = a + b solves the equation when both delays vanish.
        assert characteristic_residual(1.0, (1.5, -2.5), (0.0, 0.0), -1.0) == 0

    def test_known_imaginary_root(self):
        # At alpha=1, coefficients (1, -3), the point tau1=tau2=pi/4 has the
        # crossing frequency v=2: i*2 = e^{-2i pi/4}(1 - 3) has to balance.
        res = characteristic_residual(1.0, UCAR_COEF, (math.pi / 4, math.pi / 4), 2j)
        assert abs(res) <= 1e-12

    def test_agrees_with_trigonometric_split(self, rng):
        for _ in range(25):
            alpha = float(rng.uniform(0.3, 1.0))
            a, b = rng.uniform(-3.0, 3.0, 2)
            t1, t2 = rng.uniform(0.0, 2.0, 2)
            v = float(rng.uniform(0.1, 5.0))
            half = 0.5 * math.pi * alpha
            r1 = v ** alpha * math.cos(half) - a * math.cos(v * t1) - b * math.cos(v * t2)
            r2 = v ** alpha * math.sin(half) + a * math.sin(v * t1) + b * math.sin(v * t2)
            res = characteristic_residual(alpha, (a, b), (t1, t2), complex(0.0, v))
            assert res.real == pytest.approx(r1, rel=1e-12, abs=1e-12)
            assert res.imag == pytest.approx(r2, rel=1e-12, abs=1e-12)


class TestParametricDelays:
    def test_matches_hand_formula(self):
        alpha, a, b = 1.0, 1.0, -3.0
        v = 3.0
        va = v ** alpha
        a1 = (v ** (2 * alpha) + a * a - b * b) / (2 * a * va)
        a2 = (v ** (2 * alpha) + b * b - a * a) / (2 * b * va)
        half = 0.5 * math.pi * alpha
        expected1 = (math.acos(a1) - half) / v
        expected2 = (math.acos(a2) - half + 2 * math.pi) / v
        got = parametric_delays(alpha, (a, b), v, sign1=1, m1=0, sign2=1, m2=1)
        assert got is not None
        assert got[0] == pytest.approx(expected1, rel=1e-14)
        assert got[1] == pytest.approx(expected2, rel=1e-14)

    def test_none_outside_window(self):
        # For these coefficients crossings need v in [2, 4].
        assert parametric_delays(1.0, UCAR_COEF, 1.0) is None
        assert parametric_delays(1.0, UCAR_COEF, 5.0) is None

    def test_none_exactly_outside_closed_form_band(self, rng):
        # Crossings need ||a| - |b|| <= v**alpha <= |a| + |b|.  Frequencies
        # within 1e-6 (relative) of a band edge are skipped: there the
        # rounding slack of the arccos arguments decides.
        checked = 0
        for _ in range(200):
            alpha = float(rng.uniform(0.2, 1.0))
            a = float(rng.uniform(0.1, 5.0) * rng.choice((-1.0, 1.0)))
            b = float(rng.uniform(0.1, 5.0) * rng.choice((-1.0, 1.0)))
            lo, hi = abs(abs(a) - abs(b)), abs(a) + abs(b)
            for va in rng.uniform(0.0, 1.5 * hi, 5):
                if min(abs(va - lo), abs(va - hi)) < 1e-6 * hi or va == 0.0:
                    continue
                pair = parametric_delays(alpha, (a, b), va ** (1.0 / alpha))
                assert (pair is None) == (not lo <= va <= hi), (alpha, a, b, va)
                checked += 1
        assert checked > 900

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            parametric_delays(1.0, UCAR_COEF, 3.0, sign1=0)
        with pytest.raises(ValueError):
            parametric_delays(1.0, UCAR_COEF, 3.0, m1=-1)
        with pytest.raises(ValueError):
            parametric_delays(1.0, UCAR_COEF, 0.0)


class TestCriticalCurve:
    def test_known_point_first_order(self):
        # v=2 is sampled exactly by this window; there A1=-1, A2=+1/3... the
        # first-branch point is tau1 = tau2 = pi/4.
        points = curve_points(1.0, UCAR_COEF, v_range=(2.0, 4.0), samples=201)
        at_two = [p for p in points if p.v == 2.0 and p.m1 == 0 and p.m2 == 0]
        assert at_two, "expected a crossing at the sampled frequency v=2"
        p = at_two[0]
        assert p.tau1 == pytest.approx(math.pi / 4, rel=1e-12)
        assert p.tau2 == pytest.approx(math.pi / 4, rel=1e-12)

    def test_default_window_formula(self):
        lo, hi = default_v_window(0.5, UCAR_COEF)
        assert lo == 1e-6
        assert hi == pytest.approx(4.0 * 4.0 ** 2.0)
        lo1, hi1 = default_v_window(1.0, UCAR_COEF)
        assert hi1 == pytest.approx(16.0)

    def test_invariants_random_coefficients(self, rng):
        checked = 0
        for _ in range(12):
            alpha = float(rng.uniform(0.3, 1.0))
            a = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
            b = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
            lo, hi = default_v_window(alpha, (a, b))
            points = curve_points(alpha, (a, b), samples=300, max_branch=3)
            for p in points:
                assert p.tau1 >= 0.0 and p.tau2 >= 0.0
                assert lo <= p.v <= hi
                assert p.residual <= 1e-9
                ind = independent_residual(alpha, a, b, p.v, p.tau1, p.tau2)
                assert ind <= 2e-9
                char = characteristic_residual(
                    alpha, (a, b), (p.tau1, p.tau2), complex(0.0, p.v)
                )
                assert abs(char) <= 3e-9
                checked += 1
        assert checked > 100

    def test_points_match_scalar_parametrization(self):
        points = curve_points(0.8, UCAR_COEF, samples=150, max_branch=2)
        assert points
        for p in points[:: max(1, len(points) // 50)]:
            pair = parametric_delays(0.8, UCAR_COEF, p.v, p.sign1, p.m1, p.sign2, p.m2)
            assert pair == (p.tau1, p.tau2)

    def test_swap_symmetry_is_bitwise(self):
        for alpha, a, b in [(1.0, 1.0, -3.0), (0.7, -3.0, -22.5), (0.55, 2.0, -2.5)]:
            fwd = curve_points(alpha, (a, b), samples=400, max_branch=2)
            rev = curve_points(alpha, (b, a), samples=400, max_branch=2)
            fwd_set = {(p.v, p.tau1, p.tau2, p.sign1, p.m1, p.sign2, p.m2) for p in fwd}
            rev_swapped = {(p.v, p.tau2, p.tau1, p.sign2, p.m2, p.sign1, p.m1) for p in rev}
            assert fwd_set == rev_swapped

    def test_empty_window_below_crossings(self):
        columns = curve_columns(1.0, UCAR_COEF, v_range=(0.1, 1.5))
        assert [len(col) for col in columns] == [0] * len(FIELDS)

    def test_columns_in_csv_order_with_integer_labels(self):
        columns = curve_columns(0.9, UCAR_COEF, samples=300, max_branch=2)
        assert columns._fields == FIELDS
        assert len({len(col) for col in columns}) == 1 and len(columns.v) > 0
        kinds = [col.dtype.kind for col in columns]
        assert kinds == ["f", "f", "f", "i", "i", "i", "i", "f"]

    @staticmethod
    def assert_matches_object_path(alpha, coef, **kwargs):
        points = curve_points(alpha, coef, **kwargs)
        expected = object_curve_points(alpha, coef, **kwargs)
        assert points == expected
        types = lambda ps: {tuple(type(getattr(p, f)) for f in FIELDS) for p in ps}
        assert types(points) == types(expected)
        return points

    def test_matches_object_path_on_random_coefficients(self, rng):
        for _ in range(20):
            alpha = float(rng.uniform(0.3, 1.0))
            a = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
            b = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
            self.assert_matches_object_path(alpha, (a, b), samples=300, max_branch=3)

    def test_matches_object_path_on_documented_windows(self):
        coef = linearize(ucar_rhs(), 1.0)
        assert len(self.assert_matches_object_path(0.9, coef)) > 30_000
        assert self.assert_matches_object_path(1.0, UCAR_COEF, v_range=(3.9, 4.0))
        assert self.assert_matches_object_path(1.0, UCAR_COEF, v_range=(0.1, 1.5)) == []

    def test_degenerate_coefficient_rejected(self):
        with pytest.raises(DegenerateCoefficientsError):
            curve_columns(0.9, (1.0, 0.0))
        with pytest.raises(DegenerateCoefficientsError):
            curve_columns(0.9, (0.0, -2.0))


class TestCriticalTau2ForTau1:
    def test_axis_value_matches_analytic(self):
        # At tau1 = 0 the crossing sits where the first arccos argument
        # vanishes: v = sqrt(b*b - a*a), tau2 from the second argument.
        a, b = UCAR_COEF
        v = math.sqrt(b * b - a * a)
        a2 = (v * v + b * b - a * a) / (2 * b * v)
        expected = (math.acos(a2) - 0.5 * math.pi) / v
        got = critical_tau2_for_tau1(1.0, UCAR_COEF, 0.0)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_insensitive_to_sampling_density(self, rng):
        # Doubling the samples moves the brackets, so the refined crossings
        # may differ in their last bits, but no crossing appears or vanishes.
        found = 0
        for alpha, coef, q in [(1.0, UCAR_COEF, 0.3)] + self.random_queries(rng, 200):
            base = critical_tau2_for_tau1(alpha, coef, q)
            dense = critical_tau2_for_tau1(alpha, coef, q, samples=4000)
            assert (base is None) == (dense is None), (alpha, coef, q)
            if base is not None:
                found += 1
                assert abs(dense - base) <= 1e-13 * base, (alpha, coef, q, base, dense)
        assert found > 40

    def test_fold_edge_crossing_is_found(self):
        # The upper branch of tau1(v) for these coefficients folds at the
        # window edge just above the queried line; a plain scanline misses
        # the crossing because it lies between the last two valid samples.
        b = 24.0 * math.cos(2.785902114077879)
        got = critical_tau2_for_tau1(0.7, (-3.0, b), 0.02)
        assert got is not None
        assert got == pytest.approx(0.0199867, abs=2e-5)

    def test_lower_edge_sliver_crossing_is_found(self):
        # For these coefficients at order 1 the crossing band starts at v = 2,
        # where two branches fold together at tau1 = pi/4.  The line
        # tau1 = 0.78 meets the locus between v = 2 and the first valid
        # sample of the default window (v = 2.001), which a plain scanline
        # over the window samples would miss.
        q = 0.78
        lo, hi = 2.0, 2.001
        for _ in range(200):
            v = 0.5 * (lo + hi)
            if (math.acos((v * v - 8.0) / (2.0 * v)) - 0.5 * math.pi) / v > q:
                lo = v
            else:
                hi = v
        expected = (math.acos((v * v + 8.0) / (-6.0 * v)) - 0.5 * math.pi) / v
        got = critical_tau2_for_tau1(1.0, UCAR_COEF, q)
        assert got is not None
        assert got == pytest.approx(expected, abs=1e-9)
        assert independent_residual(1.0, 1.0, -3.0, v, q, got) <= 1e-9

    def test_crossing_on_a_sample_is_exact(self):
        # At order 1 the band of (1, -3) starts at v = 2, where the line
        # tau1 = pi/4 meets the fold.  In the window (2, 4) that frequency
        # is a sample with tau1(v) - q exactly 0; in (1.999, 4) it is not,
        # and bisection must reach the same crossing.
        q = 0.7853981633974483
        on_sample = critical_tau2_for_tau1(1.0, UCAR_COEF, q, v_range=(2.0, 4.0), samples=201)
        bisected = critical_tau2_for_tau1(1.0, UCAR_COEF, q, v_range=(1.999, 4.0), samples=201)
        assert on_sample == 0.7853981633974483
        assert bisected == 0.7853981633974483

    def test_none_when_line_misses_curve(self, monkeypatch):
        # In this window the m = 0 branches lie below tau1 = -0.3 and the
        # m = 1 branches above 1.07, so the line tau1 = 0.5 passes between
        # them and the refiner gets no bracket.
        brackets = self.count_brackets(monkeypatch)
        assert critical_tau2_for_tau1(1.0, UCAR_COEF, 0.5, v_range=(3.9, 4.0)) is None
        assert table_line_search(1.0, UCAR_COEF, 0.5, v_range=(3.9, 4.0)) is None
        assert brackets == [0]

    def test_line_beyond_every_branch_samples_no_row(self, monkeypatch):
        # At order 0.9 the crossing band of UCAR_COEF ends at v = 4.666, so
        # the window (5, 6) holds no branch for the line tau1 = 1e3 to meet:
        # the search returns before it tabulates a row or refines a bracket.
        brackets = self.count_brackets(monkeypatch)
        rows = []
        delay = stability._delay
        monkeypatch.setattr(stability, "_delay", lambda *args: rows.append(args) or delay(*args))
        assert critical_tau2_for_tau1(0.9, UCAR_COEF, 1e3, v_range=(5.0, 6.0)) is None
        assert rows == []
        assert brackets == []
        assert table_line_search(0.9, UCAR_COEF, 1e3, v_range=(5.0, 6.0)) is None

    @pytest.mark.parametrize(
        "alpha, tau1, expected",
        [
            # Winding numbers up to 32 reach this line.
            (1.0, 50.0, 0.3662061782158131),
            # Up to 23: the value the search gave with branches up to 40.
            (0.9, 30.0, 0.35197227130910624),
        ],
    )
    def test_windings_beyond_eight_are_searched(self, alpha, tau1, expected):
        assert reach(alpha, UCAR_COEF, tau1) > 20
        got = critical_tau2_for_tau1(alpha, UCAR_COEF, tau1)
        assert got == expected
        assert got == table_line_search(
            alpha, UCAR_COEF, tau1, max_branch=reach(alpha, UCAR_COEF, tau1) + 4
        )

    def test_oversized_table_is_refused_before_it_is_built(self):
        # Windings from about 12 700 to 25 500 reach the line tau1 = 4e4 on
        # 252 in-band samples: 1.5 times the budget of 2**22 table entries.
        # A query only just over the budget keeps a broken check from taking
        # all memory; the check itself allocates only the in-band samples.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"tau1 = 40000\.0 can meet about 2\.547e\+04 "):
                critical_tau2_for_tau1(1.0, UCAR_COEF, 4e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @staticmethod
    def sweep_queries(rng):
        # The classify queries of the benchmark's stability sweep: one
        # jittered tau1 per cell of a 7 x 7 grid for each linearization,
        # plus the ucar stability-switch line tau1 = 1.
        queries = [(0.9, linearize(ucar_rhs(), 1.0), 1.0)]
        for alpha, coef, width in (
            (0.9, linearize(ucar_rhs(), 1.0), 2.0),
            (0.7, linearize(ikeda_rhs(), 2.7859), 0.2),
        ):
            cells = np.arange(7)[:, None] + rng.random((7, 7))
            queries += [(alpha, coef, q) for q in (width / 7 * cells).ravel().tolist()]
        return queries

    @staticmethod
    def random_queries(rng, count):
        # tau1 at most 3, and at most what 200 windings span at the upper
        # band edge: the references tabulate every winding at every sample.
        queries = []
        while len(queries) < count:
            alpha, a, b, t = rng.uniform((0.3, -5.0, -25.0, 0.0), (1.0, 5.0, 5.0, 1.0)).tolist()
            if a + b < -1e-3:
                v_top = (abs(a) + abs(b)) ** (1.0 / alpha)
                queries.append((alpha, (a, b), t * min(3.0, 200 * 2.0 * math.pi / v_top)))
        return queries

    @staticmethod
    def assert_matches_bisection(queries):
        found = 0
        for alpha, coef, q in queries:
            got = critical_tau2_for_tau1(alpha, coef, q)
            ref = bisect_line_search(alpha, coef, q, max_branch=reach(alpha, coef, q) + 4)
            assert (got is None) == (ref is None), (alpha, coef, q)
            if ref is not None:
                found += 1
                assert abs(got - ref) <= 1e-13 * abs(ref), (alpha, coef, q, got, ref)
        return found

    def test_matches_bisection_reference_on_sweep_grids(self, rng):
        queries = self.sweep_queries(rng)
        assert self.assert_matches_bisection(queries) == len(queries)

    def test_matches_bisection_reference_on_random_queries(self, rng):
        found = self.assert_matches_bisection(self.random_queries(rng, 50))
        assert 10 < found < 50

    def test_line_evaluations_per_query(self, rng, monkeypatch):
        # Bisection evaluates the line about 43 times per query on this grid.
        calls = 0
        refine = stability._illinois

        def counted(fun, *args):
            def line(v):
                nonlocal calls
                calls += 1
                return fun(v)

            return refine(line, *args)

        monkeypatch.setattr(stability, "_illinois", counted)
        queries = self.sweep_queries(rng)
        for alpha, coef, q in queries:
            critical_tau2_for_tau1(alpha, coef, q)
        assert calls <= 12 * len(queries)

    @pytest.mark.parametrize(
        "fun, root",
        [
            # Plain regula falsi keeps the end at 1 and crawls in from 0.
            (lambda v: v ** 20 - 0.5, 0.5 ** 0.05),
            # The value at 1 is about 1e299; only the midpoint fallback
            # moves that end within the step budget.
            (lambda v: np.exp(690.0 * v) - 2.0, math.log(2.0) / 690.0),
            # NaN between 0.2 and 0.9, where the first falsi point lands.
            (lambda v: np.where((v > 0.2) & (v < 0.9), np.nan, np.sqrt(v) - 0.31), 0.31 ** 2),
        ],
        ids=["crawl", "huge_end", "nan_gap"],
    )
    def test_refiner_ends_on_adjacent_floats(self, fun, root):
        counts = {}

        def counting(name):
            def line(v):
                counts[name] = counts.get(name, 0) + 1
                return fun(v)

            return line

        lo, hi = np.array([0.0]), np.array([1.0])
        f_lo, f_hi = fun(lo), fun(hi)
        got = float(stability._illinois(counting("illinois"), lo, hi, f_lo, f_hi, 360)[0])
        stability._bisect(counting("bisect"), lo, hi, f_lo, 0.0, 360)
        if fun(got) != 0.0:
            below = got if fun(got) < 0.0 else np.nextafter(got, -np.inf)
            assert fun(below) < 0.0 < fun(np.nextafter(below, np.inf))
        assert got == pytest.approx(root, rel=1e-14)
        assert counts["illinois"] <= 4 * counts["bisect"]

    @staticmethod
    def assert_matches_table(queries, **kwargs):
        # The reference tabulates every winding up to four past the reach.
        found = 0
        for alpha, coef, q in queries:
            got = critical_tau2_for_tau1(alpha, coef, q, **kwargs)
            windings = reach(alpha, coef, q, kwargs.get("v_range")) + 4
            ref = table_line_search(alpha, coef, q, max_branch=windings, **kwargs)
            assert got == ref, (alpha, coef, q)
            found += got is not None
        return found

    def test_matches_table_reference_bitwise_on_sweep_grids(self, rng):
        queries = self.sweep_queries(rng)
        assert self.assert_matches_table(queries) == len(queries)

    def test_matches_table_reference_bitwise_on_random_queries(self, rng):
        found = self.assert_matches_table(self.random_queries(rng, 200))
        assert 40 < found < 200

    @staticmethod
    def count_brackets(monkeypatch):
        # The number of brackets of each refiner call, in call order.
        brackets = []
        refine = stability._illinois

        def counted(fun, lo, *args):
            brackets.append(len(lo))
            return refine(fun, lo, *args)

        monkeypatch.setattr(stability, "_illinois", counted)
        return brackets

    @pytest.mark.parametrize("windings", [20, 40])
    def test_matches_table_reference_bitwise_with_many_brackets(self, rng, windings, monkeypatch):
        brackets = self.count_brackets(monkeypatch)
        # |b| just above |a| puts the lower band edge near 0, where every
        # winding number reaches the line.  Each line reaches between half
        # of and all the given windings.
        alpha, a, gap, t = rng.uniform((0.5, -5.0, 0.05, 0.5), (1.0, 5.0, 1.0, 1.0), (15, 4)).T
        queries = []
        for al, x, g, f in zip(alpha.tolist(), a.tolist(), gap.tolist(), t.tolist()):
            coef = (x, -abs(x) - g)
            v_top = (abs(x) + abs(coef[1])) ** (1.0 / al)
            queries.append((al, coef, f * windings * 2.0 * math.pi / v_top))
        assert self.assert_matches_table(queries) > 10
        assert sum(brackets) >= 20 * len(queries)

    @pytest.mark.parametrize(
        "alpha, coef, window, samples",
        [
            pytest.param(0.9, UCAR_COEF, None, 2000, id="coef0"),
            pytest.param(0.9, (-3.0, 1.0), None, 2000, id="coef1"),
            pytest.param(0.9, (2.0, -5.0), None, 2000, id="coef2"),
            # Both band edges, v = 2 and 4, are also grid points.
            pytest.param(1.0, UCAR_COEF, (1.0, 5.0), 5, id="edges_on_samples"),
            # One ulp wide: the 2000 samples take 2 distinct values.
            pytest.param(1.0, UCAR_COEF, (3.0, 3.0000000000000004), 2000, id="two_values"),
            # Inside the band: neither edge is sampled.
            pytest.param(1.0, UCAR_COEF, (2.5, 3.5), 2000, id="no_edge"),
        ],
    )
    def test_line_through_a_row_extreme_is_an_exact_hit(self, alpha, coef, window, samples):
        # tau1 equal to the largest or smallest sampled value of one row:
        # that row touches the line at one sample, with no sign change, so
        # only the exact-sample hit can find it and the row must be sampled.
        c = stability.LinearCoefficients(*coef)
        lo, hi = window or stability.default_v_window(alpha, c)
        edges = [e for e in stability._band_edges(alpha, c) if lo < e < hi]
        vs = np.union1d(np.linspace(lo, hi, samples), edges)
        labels = stability._branch_labels(8)
        sign, m = np.array(labels, dtype=float).T
        table = tau1_branches(alpha, c, vs, sign[:, None], m[:, None])
        queries = [
            (alpha, coef, float(q))
            for row in table
            for q in (np.nanmax(row), np.nanmin(row))
            if q >= 0.0
        ]
        assert self.assert_matches_table(queries, v_range=window, samples=samples) > 0

    @pytest.mark.parametrize(
        "alpha, coef, window, label",
        [
            # One sample of each window lies in the band: the upper band edge,
            # where both arccos arguments are 1.  So every row's range is one
            # value and its bound is tight on both sides.  The line meets
            # rows (1, 1) and (-1, 1) exactly there, at tau1 = 3*pi/13.
            (1.0, (3.0, -3.5), (6.5, 13.0), (-1, 1)),
            # The same at v = 4.225e9: the m = 0 term, about -1.9e-10, and
            # the winding term, about 1.5e-9, add up to tau1 = 1.3e-9.
            (0.5, (3e4, -3.5e4), (4.225e9, 8.45e9), (-1, 1)),
        ],
    )
    def test_prune_margin_keeps_a_tight_row(self, alpha, coef, window, label):
        # Adding the two bounded terms rounds differently from the table's
        # one expression, so without a margin this row would be dropped.
        c = stability.LinearCoefficients(*coef)
        sign, m = (np.array([[x]], dtype=float) for x in label)
        row = tau1_branches(alpha, c, np.linspace(*window, 2), sign, m)
        assert np.isnan(row).sum() == 1
        q = float(np.nanmax(row))
        assert self.assert_matches_table([(alpha, coef, q)], v_range=window, samples=2) == 1

    # Coefficients stay at least 0.05 in size: a tiny one overflows inside
    # _band, and tiny ones at small alpha put the default window's upper
    # end below its fixed lower end 1e-6.  tau1 stays within 40 and within
    # 300 windings of the upper band edge, which keeps the reference's full
    # table small; at alpha 0.2 the band reaches far enough that 40 would
    # take about 6e8 windings.
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        alpha=st.floats(0.2, 1.0),
        a=st.one_of(st.floats(-10.0, -0.05), st.floats(0.05, 10.0)),
        b=st.one_of(st.floats(-30.0, -0.05), st.floats(0.05, 10.0)),
        t=st.floats(0.0, 1.0),
    )
    def test_property_matches_table_reference_bitwise(self, alpha, a, b, t):
        assume(a + b < -1e-6)
        v_top = (abs(a) + abs(b)) ** (1.0 / alpha)
        q = t * min(40.0, 300 * 2.0 * math.pi / v_top)
        assert reach(alpha, (a, b), q) <= 301
        self.assert_matches_table([(alpha, (a, b), q)])

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 1.0),
        a=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
        b=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
        signs=st.sampled_from([(1, -1), (-1, 1), (-1, -1), (1, 1)]),
        label=st.tuples(st.sampled_from([1, -1]), st.integers(0, 40)),
        q=st.floats(0.0, 40.0),
        t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_property_line_evaluator_matches_tau1(self, alpha, a, b, signs, label, q, t):
        # The bracket evaluator works in Python floats and the table in
        # numpy arrays; between any two adjacent in-band samples the two
        # must give the same bits, and the arccos arguments stay inside
        # [-1, 1], so a bracket never evaluates to NaN.
        c = stability.LinearCoefficients(signs[0] * a, signs[1] * b)
        edge_lo, edge_hi = stability._band_edges(alpha, c)
        lo, hi = 0.5 * edge_lo + 1e-6 * edge_hi, 2.0 * edge_hi
        vs = np.union1d(np.linspace(lo, hi, 200), [e for e in (edge_lo, edge_hi) if lo < e])
        a1, _, outside, _ = stability._band(alpha, c, vs)
        band = ~(outside | np.isnan(a1))
        left, right = vs[:-1][band[:-1] & band[1:]], vs[1:][band[:-1] & band[1:]]
        x = left + t * (right - left)
        x = x[(left < x) & (x < right)]
        assume(x.size)
        got = stability._line(alpha, c, q, [label] * x.size, x)
        want = tau1_branches(alpha, c, x, float(label[0]), float(label[1])) - q
        assert got.tobytes() == want.tobytes()
        assert not np.isnan(got).any()

    @pytest.mark.parametrize(
        "fun, lo, hi",
        [
            # f_lo - f_hi overflows to -inf, so every falsi point is lo and
            # each step takes the midpoint.
            (lambda v: np.where(v < 0.3, -1e308, 1e308), [0.0], [1.0]),
            (lambda v: 1e308 * np.tanh(40.0 * (v - 0.3)), [0.0], [1.0]),
            # Subnormal values.  The first bracket hits 0 at once; its
            # stored -5e-324 would then halve to -0 and is kept, while the
            # second bracket still steps.
            (
                lambda v: np.where(v < 1.5, 1e-323 * (v - 0.5), 1e-320 * np.tanh(40.0 * (v - 2.3))),
                [0.0, 2.0],
                [1.0, 3.0],
            ),
        ],
        ids=["huge_step", "huge_smooth", "subnormal"],
    )
    def test_refiner_float_edges(self, fun, lo, hi):
        lo, hi = np.array(lo), np.array(hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stability._illinois(fun, lo, hi, fun(lo), fun(hi), 360)
        assert got.tobytes() == array_illinois(fun, lo, hi, fun(lo), fun(hi), 360).tobytes()
        f = lambda v: float(fun(np.array([v]))[0])
        for x in got.tolist():
            # An exact zero, or a sign change to the next float.
            if f(x) != 0.0:
                below = x if f(x) < 0.0 else float(np.nextafter(x, -np.inf))
                assert f(below) < 0.0 < f(float(np.nextafter(below, np.inf)))

    def test_refiner_keeps_subnormal_end_values(self):
        # Halving the kept end's 5e-324 would give 0, which has no sign:
        # the bracket would then leave the sign change at 0.3 behind.
        fun = lambda v: np.where(v < 0.3, -5e-324, 5e-324)
        lo, hi = np.array([0.0]), np.array([1.0])
        for refine in (stability._illinois, array_illinois):
            got = refine(fun, lo, hi, fun(lo), fun(hi), 360)
            assert got.tolist() == [0.29999999999999993]
            assert fun(got)[0] < 0.0 < fun(np.nextafter(got, np.inf))[0]

    def test_refiner_without_brackets(self):
        def fail(v):
            raise AssertionError("evaluated without brackets")

        empty = np.array([])
        got = stability._illinois(fail, empty, empty, empty, empty, 360)
        assert got.dtype == float and got.shape == (0,)

    def test_requires_stability_at_zero(self):
        with pytest.raises(ValueError):
            critical_tau2_for_tau1(0.9, (1.0, -0.5), 0.1)

    def test_rejects_negative_line(self):
        with pytest.raises(ValueError):
            critical_tau2_for_tau1(1.0, UCAR_COEF, -0.1)


class TestDelayPlaneBoundary:
    # The boundary tau2 that classify compares a point against.
    @staticmethod
    def boundary(tau1, tau2=1.0, v_range=None):
        return stability._classify_with_boundary(
            1.0, UCAR_COEF, (tau1, tau2), 1e-6, v_range, 2000
        )[1]

    def test_equals_line_search_when_it_hits(self):
        direct = critical_tau2_for_tau1(1.0, UCAR_COEF, 0.0)
        assert self.boundary(0.0) == direct

    def test_falls_back_to_curve_floor(self):
        # In this narrow window the tau1 = 0.5 line misses every branch, but
        # curve points exist; their lowest tau2 stands in as the boundary.
        assert critical_tau2_for_tau1(1.0, UCAR_COEF, 0.5, v_range=(3.9, 4.0)) is None
        boundary = self.boundary(0.5, v_range=(3.9, 4.0))
        assert boundary is not None
        assert boundary == curve_columns(1.0, UCAR_COEF, v_range=(3.9, 4.0)).tau2.min()

    def test_none_when_window_has_no_locus(self):
        assert self.boundary(0.1, v_range=(0.1, 1.5)) is None

    def test_line_search_past_eight_windings_on_default_window(self):
        # Windings up to 19 reach tau1 = 30, so the line meets the locus
        # itself, just above the curve floor, and the floor is not used.
        boundary = self.boundary(30.0)
        assert boundary == critical_tau2_for_tau1(1.0, UCAR_COEF, 30.0) == 0.36622093074825357
        assert boundary > curve_columns(1.0, UCAR_COEF).tau2.min()
        assert classify(1.0, UCAR_COEF, (30.0, 0.3)) is StabilityVerdict.STABLE
        assert classify(1.0, UCAR_COEF, (30.0, 0.4)) is StabilityVerdict.UNSTABLE


class TestClassify:
    def test_zero_delays_delegate_to_sign_rule(self):
        assert classify(0.9, UCAR_COEF, (0.0, 0.0)) is StabilityVerdict.STABLE_AT_ZERO_DELAYS
        assert (
            classify(0.9, (2.0, -1.0), (0.0, 0.0)) is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS
        )
        assert classify(0.9, (1.0, -1.0), (0.0, 0.0)) is StabilityVerdict.ON_BOUNDARY

    def test_unstable_at_zero_stays_unstable_with_delays(self):
        assert classify(0.9, (2.0, -1.0), (0.3, 0.4)) is StabilityVerdict.UNSTABLE

    def test_boundary_at_zero_stays_boundary(self):
        assert classify(0.9, (1.0, -1.0), (0.3, 0.4)) is StabilityVerdict.ON_BOUNDARY

    def test_band_around_boundary(self):
        c0 = critical_tau2_for_tau1(1.0, UCAR_COEF, 0.0)
        assert classify(1.0, UCAR_COEF, (0.0, c0 - 1e-3)) is StabilityVerdict.STABLE
        assert classify(1.0, UCAR_COEF, (0.0, c0 + 1e-3)) is StabilityVerdict.UNSTABLE
        assert classify(1.0, UCAR_COEF, (0.0, c0 + 1e-8)) is StabilityVerdict.ON_BOUNDARY
        assert classify(1.0, UCAR_COEF, (0.0, c0 - 1e-8)) is StabilityVerdict.ON_BOUNDARY

    def test_stable_when_window_has_no_locus(self):
        verdict = classify(1.0, UCAR_COEF, (0.1, 0.1), v_range=(0.1, 1.5))
        assert verdict is StabilityVerdict.STABLE

    def test_fallback_window_verdicts(self):
        stable = classify(1.0, UCAR_COEF, (0.5, 0.01), v_range=(3.9, 4.0))
        unstable = classify(1.0, UCAR_COEF, (0.5, 0.9), v_range=(3.9, 4.0))
        assert stable is StabilityVerdict.STABLE
        assert unstable is StabilityVerdict.UNSTABLE

    def test_verdict_stable_under_sampling_density(self):
        cases = [
            (0.9, UCAR_COEF, (0.4, 0.5)),
            (0.9, UCAR_COEF, (1.6, 1.4)),
            (1.0, UCAR_COEF, (0.0, 0.3)),
            (1.0, UCAR_COEF, (0.0, 0.5)),
        ]
        for alpha, coef, delays in cases:
            v1 = classify(alpha, coef, delays, samples=1000)
            v2 = classify(alpha, coef, delays, samples=2000)
            assert v1 is v2, f"{alpha}, {delays}"

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateCoefficientsError):
            classify(0.9, (-1.0, 0.0), (0.1, 0.1))


# (|a| + |b|)**(1/alpha) is beyond the float range for both pairs.  At alpha
# 0.1 the lower band edge ||a| - |b||**10 = 1e290 is finite and lies inside
# the explicit window, so the line search samples it there.  Frequencies
# that high put about tau1*1e290 windings within reach of a line, far over
# the table budget at tau1 = 0.1, so the lines queried lie near 1e-290.
HUGE_BAND = [
    (0.5, (1e200, -3e200), (1.0, 10.0)),
    (0.1, (3.4e30, -3.5e30), (1e289, 1e291)),
]


class TestOverflowingBandEdge:
    @pytest.mark.parametrize("alpha, coef", [case[:2] for case in HUGE_BAND])
    def test_default_window_is_a_value_error(self, alpha, coef):
        for call in (
            lambda: default_v_window(alpha, coef),
            lambda: curve_columns(alpha, coef),
            lambda: critical_tau2_for_tau1(alpha, coef, 0.1),
            lambda: classify(alpha, coef, (0.1, 0.1)),
        ):
            with pytest.raises(ValueError, match="float range"):
                call()

    @pytest.mark.parametrize("alpha, coef, window", HUGE_BAND)
    def test_explicit_window_leaves_the_edge_outside(self, alpha, coef, window):
        assert len(curve_columns(alpha, coef, v_range=window, samples=200).v) == 0
        assert critical_tau2_for_tau1(alpha, coef, 1e-290, v_range=window) is None
        verdict = classify(alpha, coef, (1e-290, 0.1), v_range=window)
        assert verdict is StabilityVerdict.STABLE
