import math
import warnings

import numpy as np
import pytest

from fracdde import ikeda_rhs, linearize, ucar_rhs

# States at which two right-hand sides are compared value by value.
STATES = [(0.0, 0.0), (1.5, 2.0), (-0.3, 0.7), (4.0, -9.5)]


def same_values(rhs, other):
    return all(
        (rhs.g(*x), rhs.dg_dx1(*x), rhs.dg_dx2(*x))
        == (other.g(*x), other.dg_dx1(*x), other.dg_dx2(*x))
        for x in STATES
    )


class TestUcar:
    def test_equilibria_satisfy_rhs(self):
        for delta, epsilon in [(1.0, 1.0), (1.0, 2.0), (0.5, 0.25)]:
            rhs = ucar_rhs(delta, epsilon)
            assert rhs.g(0.0, 0.0) == 0.0
            x = math.sqrt(delta / epsilon)
            assert abs(rhs.g(x, x)) <= 1e-12
            assert abs(rhs.g(-x, -x)) <= 1e-12

    def test_linearization_independent_of_epsilon(self):
        # At the symmetric equilibria the cubic gain cancels out of both
        # partials, leaving (delta, -3*delta).
        for epsilon in (0.5, 1.0, 2.0):
            rhs = ucar_rhs(1.0, epsilon)
            a, b = linearize(rhs, math.sqrt(1.0 / epsilon))
            assert a == pytest.approx(1.0, rel=1e-12)
            assert b == pytest.approx(-3.0, rel=1e-12)

    def test_origin_linearization(self):
        assert linearize(ucar_rhs(), 0.0) == (1.0, 0.0)

    def test_default_parameters(self):
        assert same_values(ucar_rhs(), ucar_rhs(1.0, 1.0))

    @pytest.mark.parametrize(
        "bad",
        [
            (0.0, 1.0),
            (1.0, -2.0),
            (math.nan, 1.0),
            (math.inf, 1.0),
            (1.0, -math.inf),
            (-1.0, 1.0),
            (1.0, 0),
            (1.0, math.nan),
        ],
    )
    def test_rejects_nonpositive_parameters(self, bad):
        with pytest.raises(ValueError, match="must be positive and finite, got "):
            ucar_rhs(*bad)

    @pytest.mark.parametrize(
        "bad", [{"delta": True}, {"epsilon": True}, {"delta": "1"}, {"epsilon": "1"}]
    )
    def test_rejects_non_real_parameters(self, bad):
        with pytest.raises(ValueError, match="must be a real number"):
            ucar_rhs(**bad)

    def test_rhs_values(self):
        rhs = ucar_rhs(delta=2.0, epsilon=0.5)
        assert rhs.g(1.5, 2.0) == 2.0 * 1.5 - 0.5 * 8.0
        assert same_values(rhs, ucar_rhs(2.0, 0.5))
        assert same_values(ucar_rhs(epsilon=0.5), ucar_rhs(1.0, 0.5))


class TestIkeda:
    def test_rhs_values(self):
        rhs = ikeda_rhs()
        assert rhs.g(0.0, 0.0) == 0.0
        assert rhs.g(1.0, math.pi / 2) == pytest.approx(-3.0 + 24.0)

    def test_linearization(self):
        rhs = ikeda_rhs()
        assert linearize(rhs, 0.0) == (-3.0, 24.0)
        x = 2.785902114077879
        a_up, b_up = linearize(rhs, x)
        assert a_up == -3.0
        assert b_up == pytest.approx(24.0 * math.cos(x), rel=1e-14)

    def test_rhs_is_elementwise(self):
        # simulate calls g on float64 arrays; every entry must equal the
        # scalar call exactly.
        rhs = ikeda_rhs()
        rng = np.random.default_rng(5)
        x1 = rng.uniform(-10.0, 10.0, 1000)
        x2 = rng.uniform(-10.0, 10.0, 1000)
        got = rhs.g(x1, x2)
        assert got.shape == x1.shape
        expected = [rhs.g(a, b) for a, b in zip(x1.tolist(), x2.tolist())]
        assert got.tolist() == expected

    def test_float_and_array_sines_agree(self):
        # Floats take math.sin and arrays np.sin, whose own SIMD sine may
        # differ from the C library's in the last bits; at large |x2| too.
        rhs = ikeda_rhs(c1=0.0, c2=1.0)
        x2 = np.concatenate(
            [
                np.linspace(-20.0, 20.0, 4001),
                np.geomspace(1.0, 1e300, 600),
                -np.geomspace(1e-300, 1e6, 600),
            ]
        )
        got = rhs.g(np.zeros_like(x2), x2)
        for x, y in zip(x2.tolist(), got.tolist()):
            z = rhs.g(0.0, x)
            assert type(z) is float
            assert abs(z - y) <= 2 * math.ulp(y), x

    @pytest.mark.parametrize("x2", [math.inf, -math.inf, math.nan])
    def test_nonfinite_float_state_gives_nan(self, x2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(ikeda_rhs().g(1.0, x2))

    def test_custom_parameters(self):
        rhs = ikeda_rhs(c1=-1.0, c2=2.0)
        assert rhs.g(3.0, 0.5) == pytest.approx(-3.0 + 2.0 * math.sin(0.5))
        assert same_values(rhs, ikeda_rhs(-1.0, 2.0))

    def test_default_parameters(self):
        assert same_values(ikeda_rhs(), ikeda_rhs(-3.0, 24.0))

    @pytest.mark.parametrize("gains", [(0.0, 0.0), (2.0, -5.0), (0, -1)])
    def test_accepts_zero_and_negative_gains(self, gains):
        rhs = ikeda_rhs(*gains)
        assert rhs.g(1.0, 0.0) == gains[0]

    @pytest.mark.parametrize(
        "bad",
        [(math.inf, 24.0), (-3.0, math.nan), (-math.inf, 24.0), (-3.0, -math.inf), (math.nan, 1.0)],
    )
    def test_rejects_nonfinite_parameters(self, bad):
        with pytest.raises(ValueError, match="must be finite, got "):
            ikeda_rhs(*bad)

    @pytest.mark.parametrize(
        "bad", [{"c1": False}, {"c2": True}, {"c1": None}, {"c2": "1"}]
    )
    def test_rejects_non_real_parameters(self, bad):
        with pytest.raises(ValueError, match="must be a real number"):
            ikeda_rhs(**bad)
