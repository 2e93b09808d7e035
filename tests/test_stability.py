import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracdde import (
    Classification,
    StabilityVerdict,
    SystemRhs,
    classify,
    curve_columns,
    find_equilibria,
    ikeda_rhs,
    linearize,
    stable_at_zero_delay,
    ucar_rhs,
)
from fracdde import stability
from oracles import (
    _bisect,
    array_illinois,
    assert_rescaled_locus,
    branches,
    characteristic_residual,
    curve_points,
    diagonal_critical_delay,
    diagonal_queries,
    locus_rows,
    object_curve_points,
    parametric_delays,
    random_line_queries,
    rescaled,
    rhp_root_count,
    scalar_equilibria,
    wide_line_queries,
)
from reference_values import IKEDA_EQUILIBRIA

UCAR_COEF = (1.0, -3.0)
FIELDS = ("v", "tau1", "tau2", "sign1", "m1", "sign2", "m2", "residual")
# A line that misses every crossing: alpha, (a, b) and tau1.  The lowest
# tau2 of the locus on the default window is 0.002137549932831143, but no
# root crosses on the path to a point of the line: the count there is 0.
MISSED_LINE = (0.556, (-4.42, 0.0744), 0.15)


def doubled_scan_density(monkeypatch):
    monkeypatch.setattr(stability, "_SCAN_MIN", 2 * stability._SCAN_MIN)
    monkeypatch.setattr(stability, "_SCAN_PER_RADIAN", 2 * stability._SCAN_PER_RADIAN)


def first_crossing(alpha, coef, tau1):
    """``critical_tau2`` of the line tau1 = const: the first crossing on it,
    which :func:`classify` reports at every point of the line off the
    origin."""
    return classify(alpha, coef, (tau1, 1.0)).critical_tau2


def assert_line_truths(alpha, a, b, q):
    """Check the line search on the line tau1 = q against the characteristic
    function alone, and return its crossings ``(v, w, tau2)``.

    Every crossing must be a root: |F(i*v)| <= 1e-12*(|a| + |b|) at (q,
    tau2).  The count of :func:`classify` must equal the argument-principle
    count at the midpoints of the first two gaps [0, t1] and [t1, t2]
    between the delays where a root reaches the axis on the line (each
    crossing and its recurrences every 2*pi/v).  A gap narrower than 1e-9,
    where a touching pair sits on the axis, is skipped; a line with no
    crossing is checked at tau2 = 1 and 3.
    """
    crossings = stability._line_crossings(alpha, a, b, q)
    v, w, tau0 = (x.tolist() for x in crossings)
    for x, t in zip(v, tau0):
        residual = abs(characteristic_residual(alpha, a, b, q, t, 1j * x))
        assert residual <= 1e-12 * (abs(a) + abs(b)), (alpha, a, b, q, x, t, residual)
    times = sorted(t + k * 2.0 * math.pi / x for x, t in zip(v, tau0) for k in (0, 1))
    ends = [0.0] + times[:2]
    gaps = zip(ends, ends[1:])
    points = [0.5 * (lo + hi) for lo, hi in gaps if hi - lo >= 1e-9] if v else [1.0, 3.0]
    for tau2 in points:
        count = classify(alpha, (a, b), (q, tau2)).roots
        assert count == rhp_root_count(alpha, a, b, q, tau2), (alpha, a, b, q, tau2, count)
    return crossings


class TestFindEquilibria:
    def test_cubic_equilibria(self):
        roots = find_equilibria(ucar_rhs(), (-3.0, 3.0))
        assert len(roots) == 3
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)

    def test_sinusoidal_equilibria_match_references(self):
        # The refiner ends on adjacent floats, where the frozen mpmath roots
        # round to the same float.
        assert find_equilibria(ikeda_rhs(), (-10.0, 10.0)) == IKEDA_EQUILIBRIA

    @pytest.mark.parametrize(
        "rhs",
        [ikeda_rhs(), ikeda_rhs(-3.0, 12.0), ucar_rhs()],
        ids=["ikeda", "ikeda_c2_12", "ucar"],
    )
    def test_odd_rhs_gives_mirrored_roots(self, rhs):
        # g(-x, -x) = -g(x, x) and the scan is symmetric, so each bracket
        # refines to adjacent floats around the negated root of its mirror.
        roots = find_equilibria(rhs, (-10.0, 10.0))
        assert len(roots) % 2 == 1
        assert roots == [-r for r in reversed(roots)]

    def test_refining_costs_few_calls(self):
        # 2001 scan samples, then at most 8 refining steps and one pole
        # check for each of the 7 roots.
        calls = 0
        g = ikeda_rhs().g

        def counted(x1, x2):
            nonlocal calls
            calls += 1
            return g(x1, x2)

        assert len(find_equilibria(SystemRhs(g=counted), (-10.0, 10.0))) == 7
        assert calls <= 2001 + 8 * 7

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

    def test_refined_point_where_g_is_not_finite_is_dropped(self):
        # Every scan value is +-inf, and bisecting the one bracket between
        # them (-4e304 to 4.5e304) down to the roots -1, 0 and 1 inside takes
        # far more than the refiner's 360 steps.  It stops near 4.9e195,
        # where g(x, x) is -inf: no root, so none is returned.
        assert find_equilibria(ucar_rhs(), (-1e308, 7e307)) == []

    def test_steep_root_is_kept(self):
        # Only x = 3.3 itself reaches |g| <= 1e-12; at its float neighbours
        # |g| is about 4e-7.  At the larger scales the product of two scan
        # samples would overflow; the sign comparison does not.
        for scale in (1e9, 1e160, 1e300):
            rhs = SystemRhs(g=lambda x1, x2: scale * (x1 - 3.3))
            assert find_equilibria(rhs, (-10.0, 10.0)) == [3.3]

    def test_tiny_scale_root_is_kept(self):
        # |g| <= 1e-12 over the whole bracket, and the refiner has no
        # tolerance on |g|: the root is found as at any other scale.  At
        # 1e-170 the product of two scan samples would underflow to zero; the
        # sign comparison still sees the change.
        for scale in (1e-20, 1e-170):
            rhs = SystemRhs(g=lambda x1, x2: scale * (x1 - 0.1201))
            assert find_equilibria(rhs, (-10.0, 10.0)) == [0.1201]

    def test_unreachable_tolerance_ends_on_a_float_sign_change(self):
        # At this scale rounding in g is far above 1e-12, so no point reaches
        # |g| <= 1e-12; the refiner runs until its bracket holds two adjacent
        # floats, the root is one of them, and g changes sign between it and
        # a neighbour.
        rhs = SystemRhs(g=lambda x1, x2: 1e9 * (0.3 * x1 + math.sin(2.7 * x2 + 0.4)))
        roots = find_equilibria(rhs, (-10.0, 10.0))
        assert len(roots) == 5
        # Where rounding makes g change sign more than once near a root, the
        # reference's bisection can end on another sign change a few ulps away.
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
            (ucar_rhs(2.0, 0.5), (-5.0, 5.0)),
            (ikeda_rhs(), (-10.0, 10.0)),
            (ikeda_rhs(-3.0, 12.0), (-10.0, 10.0)),
        ],
        ids=["ucar", "ucar_wide", "ikeda", "ikeda_c2_12"],
    )
    def test_matches_scalar_reference(self, rhs, bracket):
        assert find_equilibria(rhs, bracket) == scalar_equilibria(rhs, bracket)

    def test_matches_scalar_reference_on_random_cubics(self, rng):
        # Both refiners end on adjacent floats, but where rounding makes g
        # change sign more than once near a root they can end on different
        # sign changes a few ulps apart.
        for _ in range(20):
            c = rng.normal(size=4) * 10.0 ** rng.uniform(-2.0, 2.0)
            rhs = SystemRhs(g=lambda x1, x2, c=c: ((c[0] * x1 + c[1]) * x1 + c[2]) * x1 + c[3])
            roots = find_equilibria(rhs, (-5.0, 5.0))
            assert roots == pytest.approx(scalar_equilibria(rhs, (-5.0, 5.0)), rel=4 * 2.0**-52)
            for r in roots:
                g = rhs.g(r, r)
                below, above = math.nextafter(r, -math.inf), math.nextafter(r, math.inf)
                assert g == 0.0 or any((g < 0.0) != (rhs.g(n, n) < 0.0) for n in (below, above))

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            find_equilibria(ucar_rhs(), (2.0, -2.0))
        with pytest.raises(ValueError):
            find_equilibria(ucar_rhs(), (0.0, 1.0), resolution=1)

    @pytest.mark.parametrize(
        "rhs, bracket",
        [(ucar_rhs(), (-1e308, 1e308)), (ikeda_rhs(), (-1.7e308, 1.7e308))],
        ids=["ucar", "ikeda"],
    )
    def test_bracket_wider_than_the_float_range_is_refused(self, rhs, bracket):
        # hi - lo overflows: the scan's spacing would be inf and every sample
        # but the last NaN or inf, so the roots inside would be lost without
        # a word.  Refused before g is called, with no numpy warning.
        calls = []
        counted = SystemRhs(g=lambda x1, x2: calls.append(x1) or rhs.g(x1, x2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the width of bracket .* exceeds the float range$"):
                find_equilibria(counted, bracket)
        assert calls == []


class TestLinearize:
    def test_analytic_partials_cubic(self):
        rhs = ucar_rhs()
        assert linearize(rhs, 1.0) == (1.0, -3.0)
        assert linearize(rhs, 0.0) == (1.0, 0.0)

    def test_numeric_matches_analytic_on_random_polynomials(self, rng):
        for _ in range(40):
            c = rng.uniform(-2.0, 2.0, 5)
            x = float(rng.uniform(-2.0, 2.0))
            g = lambda x1, x2: c[0] + c[1] * x1 + c[2] * x1 ** 3 + c[3] * x2 + c[4] * x2 ** 2
            da = c[1] + 3.0 * c[2] * x * x
            db = c[3] + 2.0 * c[4] * x
            a, b = linearize(SystemRhs(g=g), x)
            if abs(da) >= 0.1:
                assert a == pytest.approx(da, rel=1e-7)
            if abs(db) >= 0.1:
                assert b == pytest.approx(db, rel=1e-7)

    def test_numeric_fallback_on_stripped_model(self):
        full = ikeda_rhs()
        stripped = SystemRhs(g=full.g)
        for x in (-2.7859, 0.0, 2.7859, 7.4978):
            exact = linearize(full, x)
            approx = linearize(stripped, x)
            assert approx == pytest.approx(exact, rel=1e-7, abs=1e-8)

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

    @pytest.mark.parametrize("scale", [1e-13, 1e-300, 1e300])
    def test_boundary_band_scales_with_the_coefficients(self, scale):
        # The band is 1e-12 of |a| + |b|: tiny coefficients keep the sign of
        # their sum, and the band holds a rounding of a + b = 0 at any scale.
        assert stable_at_zero_delay((scale, -3.0 * scale)) is StabilityVerdict.STABLE_AT_ZERO_DELAYS
        assert stable_at_zero_delay((3.0 * scale, -scale)) is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS
        near = -scale * (1.0 + 5e-13)
        assert stable_at_zero_delay((scale, near)) is StabilityVerdict.ON_BOUNDARY

    def test_boundary_band_does_not_overflow(self):
        # |a| + |b| overflows here; a + b does for the first pair only.
        big = 1.5e308
        assert stable_at_zero_delay((big, big)) is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS
        assert stable_at_zero_delay((big, -big)) is StabilityVerdict.ON_BOUNDARY
        assert stable_at_zero_delay((big, -1e308)) is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS


class TestCharacteristicResidual:
    def test_real_root_no_delays(self):
        # lambda = a + b solves the equation when both delays vanish.
        assert characteristic_residual(1.0, 1.5, -2.5, 0.0, 0.0, -1.0) == 0

    def test_known_imaginary_root(self):
        # At alpha=1, coefficients (1, -3), the point tau1=tau2=pi/4 has the
        # crossing frequency v=2: i*2 = e^{-2i pi/4}(1 - 3) has to balance.
        res = characteristic_residual(1.0, *UCAR_COEF, math.pi / 4, math.pi / 4, 2j)
        assert abs(res) <= 1e-12


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
        # No window samples (1e-6, 4*(|a| + |b|)**(1/alpha)), bit for bit.
        for alpha in (0.5, 0.9, 1.0):
            window = (1e-6, 4.0 * (abs(UCAR_COEF[0]) + abs(UCAR_COEF[1])) ** (1.0 / alpha))
            got = curve_columns(alpha, UCAR_COEF)
            want = curve_columns(alpha, UCAR_COEF, v_range=window)
            assert got.v.size > 0
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_invariants_random_coefficients(self, rng):
        checked = 0
        for _ in range(12):
            alpha = float(rng.uniform(0.3, 1.0))
            a = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
            b = float(rng.uniform(0.5, 4.0) * rng.choice((-1.0, 1.0)))
            lo, hi = 1e-6, 4.0 * (abs(a) + abs(b)) ** (1.0 / alpha)
            points = curve_points(alpha, (a, b), samples=300, max_branch=3)
            for p in points:
                assert p.tau1 >= 0.0 and p.tau2 >= 0.0
                assert lo <= p.v <= hi
                assert p.residual <= 1e-9
                char = characteristic_residual(alpha, a, b, p.tau1, p.tau2, 1j * p.v)
                assert max(abs(char.real), abs(char.imag)) <= 2e-9
                assert abs(char) <= 3e-9
                checked += 1
        assert checked > 100

    def test_locus_does_not_thin_out_at_large_coefficients(self):
        # At order 1, (s*a, s*b) is the problem (a, b) with v scaled by s and
        # the delays by 1/s, so the sampled locus keeps every row.
        counts = [len(curve_columns(1.0, (s, -3.0 * s)).v) for s in (1.0, 1e6, 1e8)]
        assert counts == [34_936] * 3

    # Every sign pair, coefficients from 1e-3 to 1e4 and alpha down to 0.05,
    # on a window from below the band to past it or on one whose ends are
    # band edges.  The window starts at 1e-6 of the upper edge or above:
    # near |a| = |b| the lower edge can be subnormal, where 1/v overflows
    # and the samples drop out (test_overflowing_delays_are_dropped).  Where
    # both arccos arguments stay 1e-6 away from +-1 the rows hold to 2e-13
    # relative.
    # At an edge sample an argument rounds to within a few ulps of +-1,
    # where the arccos turns that into an angle error of about
    # sqrt(eps) = 1.5e-8: over 15 000 random draws with both edges sampled,
    # the largest residual was 2.6e-8 * (|a| + |b|).
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 1.0),
        a=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
        b=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
        signs=st.sampled_from([(1, -1), (-1, 1), (-1, -1), (1, 1)]),
        edges=st.booleans(),
    )
    def test_property_rows_satisfy_both_crossing_equations(self, alpha, a, b, signs, edges):
        a, b = signs[0] * a, signs[1] * b
        edge_lo, edge_hi = stability._band_edges(alpha, a, b)
        if edges:
            window = (max(edge_lo, 1e-6 * edge_hi), edge_hi)
        else:
            window = (0.5 * edge_lo + 1e-6 * edge_hi, 2.0 * edge_hi)
        columns = curve_columns(alpha, (a, b), v_range=window, samples=200)
        bound = 5e-8 * (abs(a) + abs(b))
        assert (columns.residual <= bound).all()
        # The characteristic function itself, in numpy's complex arithmetic.
        v, tau1, tau2 = columns.v, columns.tau1, columns.tau2
        f = (1j * v) ** alpha - a * np.exp(-1j * v * tau1) - b * np.exp(-1j * v * tau2)
        assert (np.abs(f) <= bound).all()

    def test_overflowing_delays_are_dropped(self):
        # Near |a| = |b| at small order the lower band edge is subnormal,
        # about 5.6e-309.  Over a v that small the delays overflow: those
        # samples are no points of the locus and drop out, with no warning,
        # and every row kept satisfies the crossing equations.
        alpha, coef = 0.05078125, (10**0.05, -1.1220184543019636)
        window = stability._band_edges(alpha, *coef)
        columns = curve_columns(alpha, coef, v_range=window)
        assert len(columns.v) == 288_893
        assert all(np.isfinite(col).all() for col in columns)
        assert (columns.residual <= 5e-8 * (abs(coef[0]) + abs(coef[1]))).all()

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

    @pytest.mark.parametrize(
        "alpha, coef, kwargs, rows",
        [
            (0.9, UCAR_COEF, {}, 37_618),
            (0.5, (-1.0, 0.3), {"max_branch": 12}, 110_062),
            # Both band edges are samples, and folds pair both signs there.
            (1.0, UCAR_COEF, {"v_range": (1.0, 5.0), "samples": 5}, 697),
            # One ulp wide: the 2000 samples take 2 distinct values, and
            # each sample keeps its rows.
            (1.0, UCAR_COEF, {"v_range": (3.0, 3.0000000000000004)}, 272_000),
        ],
        ids=["readme", "windings", "edges_on_samples", "two_values"],
    )
    def test_rows_come_in_csv_order(self, alpha, coef, kwargs, rows):
        # Sorted by (m1, sign1, v, m2, sign2): a stable sort by that key
        # leaves every row in place.
        c = curve_columns(alpha, coef, **kwargs)
        order = np.lexsort((c.sign2, c.m2, c.v, c.sign1, c.m1))
        assert len(order) == rows and order.tolist() == list(range(rows))

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
        with pytest.raises(ValueError, match="both coefficients nonzero"):
            curve_columns(0.9, (1.0, 0.0))
        with pytest.raises(ValueError, match="both coefficients nonzero"):
            curve_columns(0.9, (0.0, -2.0))


class TestCriticalTau2ForTau1:
    def test_random_set_is_pinned(self):
        # The set on which line-search and verdict changes are measured:
        # its draw order is fixed by the first query, and 19 of its 312
        # lines meet no crossing.
        queries = random_line_queries()
        assert len(queries) == 312
        assert queries[0] == (
            0.5266829353832136, -3.4915082607549808, 1.5093447303985377,
            0.28974514667017104, 2.143528017226757,
        )
        missed = [q for q in queries if classify(q[0], q[1:3], q[3:]).critical_tau2 is None]
        assert len(missed) == 19

    def test_axis_value_matches_analytic(self):
        # At tau1 = 0 the crossing sits where the first arccos argument
        # vanishes: v = sqrt(b*b - a*a), tau2 from the second argument.
        a, b = UCAR_COEF
        v = math.sqrt(b * b - a * a)
        a2 = (v * v + b * b - a * a) / (2 * b * v)
        expected = (math.acos(a2) - 0.5 * math.pi) / v
        got = first_crossing(1.0, UCAR_COEF, 0.0)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_insensitive_to_sampling_density(self, rng, monkeypatch):
        # Doubling the scan density moves the brackets, so the refined
        # crossings may differ in their last bits, but no crossing appears
        # or vanishes.
        queries = [(1.0, UCAR_COEF, 0.3)] + self.random_queries(rng, 200)
        base = [first_crossing(alpha, coef, q) for alpha, coef, q in queries]
        doubled_scan_density(monkeypatch)
        for (alpha, coef, q), got in zip(queries, base):
            dense = first_crossing(alpha, coef, q)
            assert (got is None) == (dense is None), (alpha, coef, q)
            if got is not None:
                assert abs(dense - got) <= 1e-13 * got, (alpha, coef, q, got, dense)
        assert sum(got is not None for got in base) > 40

    def test_fold_edge_crossing_is_found(self):
        # The upper branch of tau1(v) for these coefficients folds at the
        # window edge just above the queried line; a plain scanline misses
        # the crossing because it lies between the last two valid samples.
        b = 24.0 * math.cos(2.785902114077879)
        got = first_crossing(0.7, (-3.0, b), 0.02)
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
        got = first_crossing(1.0, UCAR_COEF, q)
        assert got is not None
        assert got == pytest.approx(expected, abs=1e-9)
        assert abs(characteristic_residual(1.0, 1.0, -3.0, q, got, 1j * v)) <= 1e-9

    def test_crossing_on_a_sample_is_exact(self, monkeypatch):
        # The line tau1 = q scans the band of (1, -3) at order 1, [2, 4] with
        # its slack, at 258 frequencies.  The line function is exactly 0 at
        # the 42nd, v: no interval has a sign change, so the refiner gets no
        # bracket, and tau2 comes from the phase of the crossing equation
        # at v itself.
        q, v = 0.2590680114945696, 2.3190661468171205
        assert np.linspace(2.0 * (1.0 - 1e-9), 4.0 * (1.0 + 1e-9), 258)[41] == v
        assert stability._argument(1.0, -3.0, v, v * v) == math.cos(q * v + 0.5 * math.pi)
        brackets = self.count_brackets(monkeypatch)
        z = 1j * v - np.exp(-1j * q * v)
        tau2 = np.mod(-np.angle(z / -3.0), 2.0 * math.pi) / v
        assert first_crossing(1.0, UCAR_COEF, q) == tau2
        assert brackets == [0]

    def test_large_coefficients_rescale(self):
        # At order 1, (1e8, -3e8) is (1, -3) with the delays divided by 1e8.
        got = first_crossing(1.0, (1e8, -3e8), 0.0)
        assert got == pytest.approx(first_crossing(1.0, UCAR_COEF, 0.0) / 1e8, rel=1e-13)

    def test_crossing_at_a_row_extreme_on_the_band_edge(self):
        # At order 0.9 the band of (2, -5) starts at v = 3**(1/0.9), where
        # this line touches a tau1 row.  Both arccos arguments round to
        # within a few ulps of +-1 there, so a delay formed from them holds
        # only to about sqrt(eps) relative, as every band-edge row of the
        # locus does.  The line search takes tau2 from the phase of the
        # crossing equation instead.
        # The reference is a 50-digit solution of |z| = |b| at the edge.
        q = 0.5097741723787141
        got = first_crossing(0.9, (2.0, -5.0), q)
        assert got == pytest.approx(0.50977417694746279, abs=1e-15)
        v = 3.0 ** (1.0 / 0.9)
        residual = characteristic_residual(0.9, 2.0, -5.0, q, got, 1j * v)
        assert abs(residual) <= 5e-8 * 7.0

    def test_none_when_line_misses_curve(self, monkeypatch):
        # The band of (-4.42, 0.0744) at order 0.556 is narrow, about
        # [14.05, 14.92], and the line tau1 = 0.15 passes between its
        # branches across all of it: the line function keeps one sign, and
        # the refiner gets no bracket.
        brackets = self.count_brackets(monkeypatch)
        assert first_crossing(*MISSED_LINE) is None
        assert brackets == [0]
        alpha, (a, b), q = MISSED_LINE
        assert_line_truths(alpha, a, b, q)

    def test_line_beyond_every_branch_samples_no_row(self, monkeypatch):
        # At order 0.02 the band of (-2e-12, 1e-13), ending at about
        # (2.1e-12)**50, underflows to 0: it holds no positive float, so the
        # scan returns before it evaluates the line or refines a bracket.
        brackets = self.count_brackets(monkeypatch)
        rows = []
        argument = stability._argument
        monkeypatch.setattr(stability, "_argument", lambda *args: rows.append(args) or argument(*args))
        assert stability._band_edges(0.02, -2e-12, 1e-13) == [0.0, 0.0]
        assert [x.size for x in stability._line_crossings(0.02, -2e-12, 1e-13, 1.0)] == [0, 0, 0]
        assert rows == []
        assert brackets == []

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
        # The expected values are those of a table of every winding.
        got = first_crossing(alpha, UCAR_COEF, tau1)
        assert got == pytest.approx(expected, abs=1e-13)
        v, _, tau2 = assert_line_truths(alpha, *UCAR_COEF, tau1)
        assert len(v) > 20 and tau2.min() == got

    def test_oversized_table_is_refused_before_it_is_built(self):
        # The phase tau1*v sweeps 2e5 radians across the band [2, 4] of the
        # line tau1 = 1e5, which asks for 4e5 samples: 1.5 times the budget
        # of 2**18 frequencies.  A query only just over the budget keeps a
        # broken check from taking all memory; the check allocates nothing.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"tau1 = 100000\.0 needs about 4\.003e\+05 "):
                classify(1.0, UCAR_COEF, (1e5, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_split_points_count_against_the_budget(self, monkeypatch):
        # The 273 samples of test_close_pair_between_samples_is_found fit a
        # budget of 273; the first two points that split the interval
        # around its close pair do not.
        monkeypatch.setattr(stability, "_SCAN_BUDGET", 273)
        with pytest.raises(ValueError, match=r"needs about 275 frequencies .* more than the 273 "):
            classify(1.0, UCAR_COEF, (4.019937207034583 - 1e-10, 1.0))

    def test_close_pair_between_samples_is_found(self, monkeypatch):
        # The line passes just below the interior maximum of row (-1, 2), at
        # v = 2.045927, and meets it twice within about 1e-5, between two of
        # its 273 samples across the band [2, 4].  Only the split intervals
        # bracket the pair.  A table of the branches on 200 000 samples of
        # (2, 2.1) puts the pair at tau2 = 0.8269058492039539; the line meets
        # lower crossings too.
        q = 4.019937207034583 - 1e-10
        roots = []
        refine = stability._illinois

        def recorded(*args):
            found = refine(*args)
            roots.extend(found.tolist())
            return found

        monkeypatch.setattr(stability, "_illinois", recorded)
        classify(1.0, UCAR_COEF, (q, 1.0))
        pair = [v for v in roots if abs(v - 2.045927) < 1e-5]
        assert len(pair) == 2 and pair[1] - pair[0] < 2e-5 < 2.0 / 272
        z = 1j * pair[0] - np.exp(-1j * q * pair[0])
        assert np.mod(-np.angle(z / -3.0), 2.0 * math.pi) / pair[0] == pytest.approx(
            0.8269058492039539, abs=1e-9
        )
        assert_line_truths(1.0, *UCAR_COEF, q)
        roots.clear()
        monkeypatch.setattr(stability, "_may_hide_root", lambda *args: np.zeros(len(args[4]), bool))
        classify(1.0, UCAR_COEF, (q, 1.0))
        assert not [v for v in roots if abs(v - 2.045927) < 1e-5]

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
        # band edge, so that no line nears the scan budget.
        queries = []
        while len(queries) < count:
            alpha, a, b, t = rng.uniform((0.3, -5.0, -25.0, 0.0), (1.0, 5.0, 5.0, 1.0)).tolist()
            if a + b < -1e-3:
                v_top = (abs(a) + abs(b)) ** (1.0 / alpha)
                queries.append((alpha, (a, b), t * min(3.0, 200 * 2.0 * math.pi / v_top)))
        return queries

    @pytest.mark.parametrize("lines", ["sweep_grid", "random_set", "wide_set"])
    def test_crossings_are_roots_and_counts_match(self, rng, lines):
        if lines == "sweep_grid":
            queries = [(alpha, *c, q) for alpha, c, q in self.sweep_queries(rng)]
        elif lines == "random_set":
            queries = [query[:4] for query in random_line_queries()]
        else:
            queries = wide_line_queries()
        assert len(queries) == {"sweep_grid": 99, "random_set": 312, "wide_set": 40}[lines]
        for query in queries:
            assert_line_truths(*query)

    def test_line_evaluations_per_query(self, rng, monkeypatch):
        # Each evaluation of the line function, on an array of frequencies,
        # forms the tau1 arccos argument once.  On this grid a query takes
        # about 6.1: one for the scan, one per level of splits and the rest,
        # about 5.1, in the refiner.  Bisection would take about 43.5 for the
        # refiner, and halving the last gap instead of stepping to the
        # neighbouring float took about 14.5.
        calls = 0
        argument = stability._argument

        def counted(*args):
            nonlocal calls
            calls += 1
            return argument(*args)

        monkeypatch.setattr(stability, "_argument", counted)
        queries = self.sweep_queries(rng)
        for alpha, coef, q in queries:
            classify(alpha, coef, (q, 1.0))
        assert calls <= 8 * len(queries)

    def test_bracket_closes_on_the_neighbouring_float(self, monkeypatch):
        # On this line the falsi point lands within a few ulps of the root by
        # the fourth evaluation and then rounds onto an end of the bracket.
        # Halving from there down to the neighbouring float took 31
        # evaluations; stepping to it takes 6.  Bisection ends on the same
        # adjacent floats.
        brackets = []
        refine = stability._illinois

        def recorded(fun, lo, hi, f_lo, f_hi, max_iter):
            brackets.append((fun, lo, hi, f_lo, f_hi))
            return refine(fun, lo, hi, f_lo, f_hi, max_iter)

        monkeypatch.setattr(stability, "_illinois", recorded)
        classify(0.9, UCAR_COEF, (0.88, 1.0))
        [(fun, lo, hi, f_lo, f_hi)] = brackets
        assert len(lo) == 1
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return fun(v)

        got = refine(counted, lo, hi, f_lo, f_hi, 360)
        assert calls <= 8
        assert got.tobytes() == _bisect(fun, lo, hi, f_lo, 0.0, 360).tobytes()
        assert got[0] == pytest.approx(float.fromhex("0x1.16407e3da0990p+1"), rel=1e-15)

    def test_done_bracket_is_not_evaluated_again(self):
        # The first bracket closes on adjacent floats around sqrt(2) after
        # 9 steps; the second, a jump at 3.1, takes many more.  From then on
        # only the second bracket's points reach the line function.
        fun = lambda v: np.where(v < 2.25, v * v - 2.0, np.where(v < 3.1, -1.0, 2.0))
        lo, hi = np.array([1.0, 2.5]), np.array([2.0, 3.5])
        points = []

        def recorded(v):
            points.append(v.tolist())
            return fun(v)

        got = stability._illinois(recorded, lo, hi, fun(lo), fun(hi), 360)
        assert got.tobytes() == array_illinois(fun, lo, hi, fun(lo), fun(hi), 360).tobytes()
        lengths = [len(v) for v in points]
        done = lengths.index(1)
        assert 2 <= done <= len(lengths) - 10
        assert lengths == [2] * done + [1] * (len(lengths) - done)
        assert all(2.5 < v[0] < 3.5 for v in points[done:])
        assert got[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

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
        _bisect(counting("bisect"), lo, hi, f_lo, 0.0, 360)
        if fun(got) != 0.0:
            below = got if fun(got) < 0.0 else np.nextafter(got, -np.inf)
            assert fun(below) < 0.0 < fun(np.nextafter(below, np.inf))
        assert got == pytest.approx(root, rel=1e-14)
        assert counts["illinois"] <= 4 * counts["bisect"]

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
    def test_many_brackets_satisfy_both_truths(self, rng, windings, monkeypatch):
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
        found = sum(len(assert_line_truths(al, *coef, q)[0]) > 0 for al, coef, q in queries)
        assert found > 10
        assert sum(brackets) >= 20 * len(queries)

    @pytest.mark.parametrize(
        "alpha, coef, window, samples, lines",
        [
            pytest.param(0.9, UCAR_COEF, None, 2000, 33, id="coef0"),
            pytest.param(0.9, (-3.0, 1.0), None, 2000, 34, id="coef1"),
            pytest.param(0.9, (2.0, -5.0), None, 2000, 33, id="coef2"),
            # Both band edges, v = 2 and 4, are also grid points.
            pytest.param(1.0, UCAR_COEF, (1.0, 5.0), 5, 33, id="edges_on_samples"),
            # One ulp wide: the 2000 samples take 2 distinct values.
            pytest.param(1.0, UCAR_COEF, (3.0, 3.0000000000000004), 2000, 32, id="two_values"),
            # Inside the band: neither edge is sampled.
            pytest.param(1.0, UCAR_COEF, (2.5, 3.5), 2000, 33, id="no_edge"),
        ],
    )
    def test_line_through_a_row_extreme_is_an_exact_hit(self, alpha, coef, window, samples, lines):
        # tau1 equal to the largest or smallest sampled value of one row of a
        # branch table on ``window``: that row touches the line at one
        # sample, with no sign change, and the line meets it twice close
        # together or once on a band edge.
        lo, hi = window or (1e-6, 4.0 * stability._band_edges(alpha, *coef)[1])
        edges = [e for e in stability._band_edges(alpha, *coef) if lo < e < hi]
        vs = np.union1d(np.linspace(lo, hi, samples), edges)
        table = branches(alpha, coef, vs, stability._branch_labels(8))[0]
        queries = [float(q) for row in table for q in (np.nanmax(row), np.nanmin(row)) if q >= 0.0]
        assert len(queries) == lines
        for q in queries:
            assert_line_truths(alpha, *coef, q)

    @pytest.mark.parametrize(
        "alpha, coef, window, label",
        [
            # One sample of each window lies in the band: the upper band edge,
            # where both arccos arguments are 1, at the window's lower end.
            # The line meets rows (1, 1) and (-1, 1) exactly there, at
            # tau1 = 3*pi/13.
            (1.0, (3.0, -3.5), (6.5, 13.0), (-1, 1)),
            # The same at v = 4.225e9: the m = 0 term, about -1.9e-10, and
            # the winding term, about 1.5e-9, add up to tau1 = 1.3e-9.
            (0.5, (3e4, -3.5e4), (4.225e9, 8.45e9), (-1, 1)),
        ],
    )
    def test_prune_margin_keeps_a_tight_row(self, alpha, coef, window, label):
        # The crossing lies on the upper band edge, which is also the lower
        # end of the window; the scan reaches it only because it runs a
        # little past both band edges.  No lower crossing lies in the band.
        # (A branch table needs a rounding margin to keep this row.)
        row = branches(alpha, coef, np.linspace(*window, 2), [label])[0]
        assert np.isnan(row).sum() == 1
        q = float(np.nanmax(row))
        v, _, tau2 = assert_line_truths(alpha, *coef, q)
        edge = np.abs(v / window[0] - 1.0) <= 1e-9
        assert tau2[edge].tolist() == [tau2.min()]

    def test_cap_rounding_keeps_the_last_winding(self):
        # The band of (-1, -3) at order 0.5 ends at v = 16, where the tau1
        # arccos is pi.  Row (-1, 11) takes its smallest value there, so the
        # line through that value meets the row at that sample only, on the
        # band edge.  A cap on the windings of (tau1*16 + pi*(1 +
        # alpha/2))/(2*pi), 11 exactly, rounds to 10.999999999999998 here,
        # so a search that cut its windings there would lose the row.  The
        # tau2 arccos is pi there too, so tau2 = (pi - pi/4)/16.
        c = (-1.0, -3.0)
        q = float(branches(0.5, c, np.array([16.0]), [(-1, 11)])[0][0, 0])
        assert (q * 16.0 + math.pi * 1.25) / (2.0 * math.pi) < 11.0
        assert first_crossing(0.5, c, q) == pytest.approx(3.0 * math.pi / 64.0, abs=1e-15)
        assert_line_truths(0.5, -1.0, -3.0, q)

    @pytest.mark.parametrize(
        "fun, lo, hi",
        [
            # f_lo - f_hi overflows to -inf, so the first falsi points are lo
            # and step to its neighbours, until halving the kept end value
            # brings the difference back into range.
            (lambda v: np.where(v < 0.3, -1e308, 1e308), [0.0], [1.0]),
            (lambda v: 1e308 * np.tanh(40.0 * (v - 0.3)), [0.0], [1.0]),
            # f_lo is too small to move the falsi point off lo = 1: each step
            # goes to lo's neighbour until the age rule takes the midpoint.
            (lambda v: np.where(v < 1.3, -1e-20, 1.0), [1.0], [2.0]),
            # Subnormal values.  The first bracket hits 0 at once; its
            # stored -5e-324 would then halve to -0 and is kept, while the
            # second bracket still steps.
            (
                lambda v: np.where(v < 1.5, 1e-323 * (v - 0.5), 1e-320 * np.tanh(40.0 * (v - 2.3))),
                [0.0, 2.0],
                [1.0, 3.0],
            ),
        ],
        ids=["huge_step", "huge_smooth", "onto_end", "subnormal"],
    )
    def test_refiner_float_edges(self, fun, lo, hi):
        lo, hi = np.array(lo), np.array(hi)
        points = {"python": [], "array": []}

        def recording(name):
            def line(v):
                points[name].append(v.tolist())
                return fun(v)

            return line

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stability._illinois(recording("python"), lo, hi, fun(lo), fun(hi), 360)
        ref = array_illinois(recording("array"), lo, hi, fun(lo), fun(hi), 360)
        assert got.tobytes() == ref.tobytes()
        # Both step through the same points; the array refiner also passes
        # the brackets that are done.
        assert len(points["python"]) == len(points["array"])
        for python, array in zip(points["python"], points["array"]):
            assert set(python) <= set(array)
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
        # The first crossing of a line from an already unstable origin is
        # meaningless: the line is not searched.
        assert classify(0.9, (1.0, -0.5), (0.1, 1.0)) == (StabilityVerdict.UNSTABLE, None, None)

    def test_rejects_negative_line(self):
        with pytest.raises(ValueError):
            classify(1.0, UCAR_COEF, (-0.1, 1.0))


class TestDelayPlaneBoundary:
    # The boundary tau2 that classify compares a point against.
    @staticmethod
    def boundary(tau1, tau2=1.0, alpha=1.0, coef=UCAR_COEF):
        return classify(alpha, coef, (tau1, tau2)).critical_tau2

    @staticmethod
    def line_search(tau1, alpha=1.0, coef=UCAR_COEF):
        return stability._line_crossings(alpha, *coef, tau1)[2]

    def test_equals_line_search_when_it_hits(self):
        direct = self.line_search(0.0).min()
        assert self.boundary(0.0) == direct

    def test_null_when_the_line_misses_every_crossing(self):
        # This line misses every branch of the band, though the locus has
        # points below tau2 = 1 elsewhere: no boundary lies above the line.
        alpha, coef, q = MISSED_LINE
        assert self.line_search(q, alpha, coef).size == 0
        assert self.boundary(q, alpha=alpha, coef=coef) is None
        assert curve_columns(alpha, coef).tau2.min() < 1.0

    def test_line_search_past_eight_windings_on_default_window(self):
        # Windings up to 19 reach tau1 = 30, so the line meets the locus
        # just above the lowest tau2 of the locus on the default window.
        boundary = self.boundary(30.0)
        assert boundary == self.line_search(30.0).min()
        assert boundary == pytest.approx(0.36622093074825357, abs=1e-13)
        assert boundary > curve_columns(1.0, UCAR_COEF).tau2.min()
        assert classify(1.0, UCAR_COEF, (30.0, 0.3)).verdict is StabilityVerdict.STABLE
        assert classify(1.0, UCAR_COEF, (30.0, 0.4)).verdict is StabilityVerdict.UNSTABLE


class TestClassify:
    def test_zero_delays_delegate_to_sign_rule(self):
        assert classify(0.9, UCAR_COEF, (0.0, 0.0)).verdict is StabilityVerdict.STABLE_AT_ZERO_DELAYS
        assert (
            classify(0.9, (2.0, -1.0), (0.0, 0.0)).verdict is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS
        )
        assert classify(0.9, (1.0, -1.0), (0.0, 0.0)).verdict is StabilityVerdict.ON_BOUNDARY

    def test_unstable_at_zero_stays_unstable_with_delays(self):
        assert classify(0.9, (2.0, -1.0), (0.3, 0.4)).verdict is StabilityVerdict.UNSTABLE

    def test_boundary_at_zero_stays_boundary(self):
        assert classify(0.9, (1.0, -1.0), (0.3, 0.4)).verdict is StabilityVerdict.ON_BOUNDARY

    def test_band_around_boundary(self):
        # The point is OnBoundary only within rounding of the crossing,
        # 1e-9*tau2; 1e-8 away, the root count decides.
        c0 = first_crossing(1.0, UCAR_COEF, 0.0)
        assert classify(1.0, UCAR_COEF, (0.0, c0 - 1e-3)).verdict is StabilityVerdict.STABLE
        assert classify(1.0, UCAR_COEF, (0.0, c0 + 1e-3)).verdict is StabilityVerdict.UNSTABLE
        for tau2, verdict, roots in (
            (c0 - 1e-8, StabilityVerdict.STABLE, 0),
            (c0 + 1e-8, StabilityVerdict.UNSTABLE, 2),
        ):
            assert rhp_root_count(1.0, *UCAR_COEF, 0.0, tau2) == roots
            assert classify(1.0, UCAR_COEF, (0.0, tau2)) == (verdict, c0, roots)
        near = [c0 - 1e-10, c0 + 1e-10, c0 - 3 * math.ulp(c0), c0 + 3 * math.ulp(c0)]
        for tau2 in near:
            assert classify(1.0, UCAR_COEF, (0.0, tau2)) == (StabilityVerdict.ON_BOUNDARY, c0, None)

    def test_result_fields(self):
        # roots is the count that the verdict reads, None where no count is
        # formed; the CLI prints verdict and critical_tau2.
        assert classify(0.9, UCAR_COEF, (0.0, 0.0)) == (
            StabilityVerdict.STABLE_AT_ZERO_DELAYS, None, 0
        )
        assert classify(0.9, (2.0, -1.0), (0.0, 0.0)) == (
            StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS, None, None
        )
        assert classify(0.9, (1.0, -1.0), (0.3, 0.4)) == (StabilityVerdict.ON_BOUNDARY, None, None)
        result = classify(0.9, UCAR_COEF, (1.0, 0.5))
        assert isinstance(result, Classification)
        assert (result.verdict, result.roots) == (StabilityVerdict.UNSTABLE, 2)
        assert rhp_root_count(0.9, *UCAR_COEF, 1.0, 0.5) == 2
        c0 = result.critical_tau2
        assert classify(0.9, UCAR_COEF, (1.0, c0)) == (StabilityVerdict.ON_BOUNDARY, c0, None)
        assert classify(0.9, UCAR_COEF, (1.0, 0.7)) == (StabilityVerdict.STABLE, c0, 0)

    @pytest.mark.parametrize(
        "alpha, a, b, corner",
        [
            # The line scan's phase for the root at the corner rounds to
            # 2*pi/v: the crossing was neither counted nor seen at tau2 = 0.
            (0.5, -4.0, 1.0, 0.10100647673532827),
            (0.8, -3.0, -0.5, 0.5624679864618456),
            # The phase rounds to 0, and the crossing to the left was
            # counted as leaving the right half-plane: a count of -2.
            (0.9, -3.0, 1.0, 0.4124473892577091),
        ],
    )
    def test_line_through_a_tau1_axis_crossing(self, alpha, a, b, corner):
        # The tau2 = 0 leg crosses at tau1* (pinned as the closed form gives
        # it), where a root sits on the axis at (tau1*, 0).  On the line
        # through it, that root is counted once, by its side on the line.
        # The lines 4 ulps either side and the next recurrence count alike,
        # and so do those 0.99e-9 relative above the corner and the
        # recurrence, within the corner's slack: there the frequency of the
        # root on the line moves by more than 1e-9 relative.
        [(tau1, v, side)] = stability._single_delay_crossings(alpha, a, b)
        assert tau1 == corner and side > 0.0
        lines = [corner, corner + 2.0 * math.pi / v]
        lines += [float(np.nextafter(corner, corner + d, dtype=float)) for d in (-1.0, 1.0)]
        slack = [x * (1.0 + 0.99e-9) for x in lines[:2]]
        for q in lines + [x + 3 * (x - corner) for x in lines[2:]] + slack:
            assert classify(alpha, (a, b), (q, 0.0)) == (StabilityVerdict.ON_BOUNDARY, 0.0, None)
            for tau2 in (5e-7, 1e-4, 1e-3, 1e-2):
                verdict, boundary, roots = classify(alpha, (a, b), (q, tau2))
                count = rhp_root_count(alpha, a, b, q, tau2)
                assert (roots, boundary) == (count, 0.0), (q, tau2)
                assert verdict is (StabilityVerdict.STABLE if count == 0 else StabilityVerdict.UNSTABLE)

    def test_tiny_coefficients_classify_at_their_scale(self):
        # (1e-13, -3e-13) is (1, -3) with every delay multiplied by s =
        # 1e-13**(-1/alpha): the point (1, 1) is the point (1/s, 1/s) of (1,
        # -3), stable, and the first crossing above it is s times that of
        # the line tau1 = 1/s.
        alpha = 0.9
        s = 1e-13 ** (-1.0 / alpha)
        verdict, boundary, roots = classify(alpha, (1e-13, -3e-13), (1.0, 1.0))
        assert (verdict, roots) == (StabilityVerdict.STABLE, 0)
        assert boundary == pytest.approx(s * first_crossing(alpha, UCAR_COEF, 1.0 / s), rel=1e-9)
        assert classify(alpha, (3e-13, -1e-13), (1.0, 1.0)).verdict is StabilityVerdict.UNSTABLE

    @pytest.mark.parametrize("tau2, count", [(3e-4, 10), (1e-3, 454), (3e-3, 1296)])
    def test_small_order_counts_many_roots_at_small_delays(self, tau2, count):
        # At order 0.2188 the band of (7.64, -20.23) reaches v of about 4e6:
        # crossings recur every 1.5e-6 or so in tau2 on the line tau1 = 3e-4,
        # far more than rounding of tau2 apart.
        alpha, coef, q = 0.2188, (7.64, -20.23), 3e-4
        assert rhp_root_count(alpha, *coef, q, tau2) == count
        verdict, _, roots = classify(alpha, coef, (q, tau2))
        assert (verdict, roots) == (StabilityVerdict.UNSTABLE, count)

    def test_negative_count_is_an_internal_error(self, monkeypatch):
        # Crossings that all go to the left cannot start from a stable
        # origin: the count is wrong, not the point unstable.
        monkeypatch.setattr(stability, "_side", lambda *args: -1.0)
        with pytest.raises(RuntimeError, match="internal error"):
            classify(0.9, UCAR_COEF, (1.0, 0.7))

    def test_missed_line_counts_no_root(self):
        # No root crosses on the path to any point of a line that misses
        # every crossing, although points of the locus lie below tau2 = 1.
        alpha, coef, q = MISSED_LINE
        for tau2 in (0.001, 1.0):
            assert classify(alpha, coef, (q, tau2)).verdict is StabilityVerdict.STABLE
            assert rhp_root_count(alpha, *coef, q, tau2) == 0

    def test_verdict_never_reads_the_locus(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("classify sampled the locus")

        monkeypatch.setattr(stability, "curve_columns", unused)
        monkeypatch.setattr(stability, "_resolve_search", unused)
        alpha, coef, q = MISSED_LINE
        assert classify(alpha, coef, (q, 1.0)).verdict is StabilityVerdict.STABLE
        assert classify(0.9, UCAR_COEF, (1.0, 0.5)).verdict is StabilityVerdict.UNSTABLE
        assert classify(0.9, UCAR_COEF, (1.0, 0.7)).verdict is StabilityVerdict.STABLE

    # The ranges of the random set.  The reference count's contour grows
    # with the delays, so they stay below 4.
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        alpha=st.floats(0.3, 1.0),
        a=st.floats(-5.0, 5.0),
        b=st.floats(-5.0, 5.0),
        tau1=st.floats(0.0, 4.0),
        tau2=st.floats(0.0, 4.0),
    )
    def test_property_verdict_is_the_root_count(self, alpha, a, b, tau1, tau2):
        assume(a + b < -1e-3 and tau1 + tau2 > 0.0)
        verdict = classify(alpha, (a, b), (tau1, tau2)).verdict
        assume(verdict is not StabilityVerdict.ON_BOUNDARY)
        count = rhp_root_count(alpha, a, b, tau1, tau2)
        assert (verdict is StabilityVerdict.STABLE) == (count == 0), count

    def test_random_set_counts_the_same_along_either_path(self):
        # Exchanging the roles of the delays counts along the other path,
        # (0, 0) -> (0, tau2) -> (tau1, tau2), from other crossings.
        for alpha, a, b, tau1, tau2 in random_line_queries():
            verdict = classify(alpha, (a, b), (tau1, tau2)).verdict
            assert classify(alpha, (b, a), (tau2, tau1)).verdict is verdict

    def test_diagonal_set_is_stable_below_the_closed_form(self):
        queries = diagonal_queries()
        assert len(queries) == 278
        for alpha, a, b, tau in queries:
            stable = tau < diagonal_critical_delay(alpha, a, b)
            assert (classify(alpha, (a, b), (tau, tau)).verdict is StabilityVerdict.STABLE) == stable

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        alpha=st.floats(0.1, 1.0),
        k=st.floats(0.05, 5.0),
        tau=st.floats(0.0, 10.0),
        other=st.floats(0.0, 10.0),
        mirror=st.booleans(),
    )
    def test_property_single_delay_is_stable_below_the_closed_form(
        self, alpha, k, tau, other, mirror
    ):
        # With b = 0 only tau1 matters; with a = 0 only tau2.
        star = diagonal_critical_delay(alpha, -k, 0.0)
        assume(abs(tau - star) > 1e-6 and tau + other > 0.0)
        coef, delays = ((0.0, -k), (other, tau)) if mirror else ((-k, 0.0), (tau, other))
        stable = classify(alpha, coef, delays).verdict is StabilityVerdict.STABLE
        assert stable == (tau < star)

    def test_tangential_crossing_is_refused(self):
        # A root that touches the axis without crossing leaves the count
        # undefined above that delay; below it the count still stands.
        with pytest.raises(ValueError, match="undefined"):
            stability._tally([(0.5, 2.0, 0.0)], 1.0)
        assert stability._tally([(0.5, 2.0, 0.0)], 0.4) == 0
        # Each recurrence 0.5 + pi*m below 7 adds 2; 0.5 + 2*pi is one.
        assert stability._tally([(0.5, 2.0, 1.0)], 7.0) == 6
        assert stability._tally([(0.5, 2.0, -1.0)], 0.5 + 2.0 * math.pi) is None
        # The slack is relative to the delay: 1e-9 of it.
        tau = 0.5 + 2.0 * math.pi
        assert stability._tally([(0.5, 2.0, 1.0)], tau * (1.0 + 5e-10)) is None
        assert stability._tally([(0.5, 2.0, 1.0)], tau * (1.0 + 2e-9)) == 6
        assert stability._tally([(0.5, 2.0, 1.0)], tau * (1.0 - 2e-9)) == 4

    def test_verdict_stable_under_sampling_density(self, monkeypatch):
        cases = [
            (0.9, UCAR_COEF, (0.4, 0.5)),
            (0.9, UCAR_COEF, (1.6, 1.4)),
            (1.0, UCAR_COEF, (0.0, 0.3)),
            (1.0, UCAR_COEF, (0.0, 0.5)),
        ]
        base = [classify(alpha, coef, delays).verdict for alpha, coef, delays in cases]
        doubled_scan_density(monkeypatch)
        for (alpha, coef, delays), verdict in zip(cases, base):
            assert classify(alpha, coef, delays).verdict is verdict, f"{alpha}, {delays}"

    def test_degenerate_rejected(self):
        # The locus needs both coefficients; classify counts the one delay
        # left in closed form, tau* = pi*(1 - 0.45).
        for coef in ((-1.0, 0.0), (0.0, -1.0)):
            with pytest.raises(ValueError, match="both coefficients nonzero"):
                curve_columns(0.9, coef)
        assert classify(0.9, (-1.0, 0.0), (2.0, 0.5)).verdict is StabilityVerdict.UNSTABLE
        assert classify(0.9, (-1.0, 0.0), (1.5, 0.5)).verdict is StabilityVerdict.STABLE
        assert rhp_root_count(0.9, -1.0, 0.0, 2.0, 0.5) == 2
        assert rhp_root_count(0.9, -1.0, 0.0, 1.5, 0.5) == 0
        # With a = 0 the tau1 line is the single delay's own axis.
        verdict, boundary, roots = classify(0.9, (0.0, -1.0), (0.5, 2.0))
        assert (verdict, roots) == (StabilityVerdict.UNSTABLE, 2)
        assert boundary == pytest.approx(math.pi * 0.55, rel=1e-15)
        assert classify(0.9, (-1.0, 0.0), (2.0, 0.5)).critical_tau2 is None

    def test_zero_delay_verdict_comes_before_the_degenerate_check(self):
        # ucar linearized at its equilibrium x* = 0: (a, b) = (1, -0.0), so
        # a + b = 1 > 0 and the point is unstable whatever the delays, as
        # the one positive real root of lambda**alpha = exp(-lambda*tau1)
        # shows.
        coef = linearize(ucar_rhs(), 0.0)
        assert coef == (1.0, 0.0)
        assert classify(0.9, coef, (0.4, 0.5)) == (StabilityVerdict.UNSTABLE, None, None)
        zero = classify(0.9, coef, (0.0, 0.0)).verdict
        assert zero is StabilityVerdict.UNSTABLE_AT_ZERO_DELAYS
        assert classify(0.9, (-1.0, 0.0), (0.0, 0.0)).verdict is StabilityVerdict.STABLE_AT_ZERO_DELAYS
        assert classify(0.9, (0.0, 0.0), (0.4, 0.5)).verdict is StabilityVerdict.ON_BOUNDARY


# (|a| + |b|)**(1/alpha) is beyond the float range for both pairs.  At alpha
# 0.1 the lower band edge ||a| - |b||**10 = 1e290 is finite and lies inside
# the explicit window of the curves.  The line search and classify cover
# the whole band, which they cannot scan on one scale, and raise.
HUGE_BAND = [
    (0.5, (1e200, -3e200), (1.0, 10.0)),
    (0.1, (3.4e30, -3.5e30), (1e289, 1e291)),
]

# The band of these pairs is finite, but the squares of the coefficients,
# and so every value of the line function, overflow: (1, -3) at (0, 1) and
# (1, -1.5) at (1, 1), rescaled.  (1, -3) at (0, 1) has 2 right-half-plane
# roots, which the line scan cannot count at this scale.
OVERFLOWING_SQUARES = [
    (1.0, (1e160, -3e160), (0.0, 1e-160)),
    (1.0, (1e154, -1.5e154), (1e-154, 1e-154)),
]


class TestOverflowingBandEdge:
    @pytest.mark.parametrize("alpha, coef", [case[:2] for case in HUGE_BAND])
    def test_default_window_is_a_value_error(self, alpha, coef):
        for call in (
            lambda: curve_columns(alpha, coef),
            lambda: stability._line_crossings(alpha, *coef, 0.1),
            lambda: classify(alpha, coef, (0.1, 0.1)),
        ):
            with pytest.raises(ValueError, match="float range"):
                call()

    @pytest.mark.parametrize("alpha, coef, delays", OVERFLOWING_SQUARES)
    def test_overflowing_squares_are_a_value_error(self, alpha, coef, delays):
        assert math.isfinite(stability._band_edges(alpha, *coef)[1])
        with pytest.raises(ValueError, match="float range"):
            stability._line_crossings(alpha, *coef, delays[0])
        with pytest.raises(ValueError, match="float range"):
            classify(alpha, coef, delays)

    def test_default_window_end_beyond_the_float_range(self):
        # The band's upper edge, 1.1e308, is a float; four times it is not.
        coef = (5e307, -6e307)
        assert math.isfinite(stability._band_edges(1.0, *coef)[1])
        with pytest.raises(ValueError, match="float range"):
            curve_columns(1.0, coef)

    @pytest.mark.parametrize("alpha, coef, window", HUGE_BAND)
    def test_explicit_window_leaves_the_edge_outside(self, alpha, coef, window):
        # The overflowing edge lies above the window, so what the window
        # holds is that of the problem rescaled to a window centred on 1,
        # where every value is of order one.  The rescaled coefficients
        # round, so the two agree to 1e-12 relative, not bitwise.
        s, scaled, scaled_window = rescaled(alpha, coef, window)
        got = curve_columns(alpha, coef, v_range=window, samples=200)
        want = curve_columns(alpha, scaled, v_range=scaled_window, samples=200)
        assert_rescaled_locus(locus_rows(got), locus_rows(want), s, 1e-12)
        with pytest.raises(ValueError, match="float range"):
            stability._line_crossings(alpha, *coef, 1e-290)
        with pytest.raises(ValueError, match="float range"):
            classify(alpha, coef, (1e-290, 0.1))

    def test_locus_above_the_finite_edge(self):
        # The band of the second pair starts at 1e290, inside its window:
        # the locus there is as full as at order one.
        alpha, coef, window = HUGE_BAND[1]
        assert len(curve_columns(alpha, coef, v_range=window, samples=200).v) == 26_245
        with pytest.raises(ValueError, match="float range"):
            stability._line_crossings(alpha, *coef, 1e-290)
        with pytest.raises(ValueError, match="float range"):
            classify(alpha, coef, (1e-290, 0.1))

    @pytest.mark.parametrize("coef", [(-1e-7, 0.0), (0.0, -1e-7), (-3e-7, 1e-7)])
    def test_single_delay_frequency_below_the_float_range(self, coef):
        # At order 0.02 the closed-form crossing frequency u**50 of the
        # tau2 = 0 leg, or of the one delay left, underflows to 0 or is
        # subnormal, where its delay 2*pi/v and the power v**(alpha - 1) of
        # the crossing side leave the float range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                classify(0.02, coef, (1.0, 1.0))
