import math

import numpy as np
import pytest

from fracdde import IkedaParams, UcarParams, ikeda_rhs, linearize, ucar_rhs


class TestUcar:
    def test_equilibria_satisfy_rhs(self):
        for delta, epsilon in [(1.0, 1.0), (1.0, 2.0), (0.5, 0.25)]:
            rhs = ucar_rhs(UcarParams(delta, epsilon))
            assert rhs.g(0.0, 0.0) == 0.0
            x = math.sqrt(delta / epsilon)
            assert abs(rhs.g(x, x)) <= 1e-12
            assert abs(rhs.g(-x, -x)) <= 1e-12

    def test_linearization_independent_of_epsilon(self):
        # At the symmetric equilibria the cubic gain cancels out of both
        # partials, leaving (delta, -3*delta).
        for epsilon in (0.5, 1.0, 2.0):
            rhs = ucar_rhs(UcarParams(1.0, epsilon))
            coef = linearize(rhs, math.sqrt(1.0 / epsilon))
            assert coef.a == pytest.approx(1.0, rel=1e-12)
            assert coef.b == pytest.approx(-3.0, rel=1e-12)

    def test_origin_linearization(self):
        coef = linearize(ucar_rhs(), 0.0)
        assert (coef.a, coef.b) == (1.0, 0.0)

    def test_default_parameters(self):
        assert UcarParams() == UcarParams(1.0, 1.0)

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_rejects_nonpositive_parameters(self, bad):
        with pytest.raises(ValueError):
            UcarParams(*bad)

    @pytest.mark.parametrize("bad", [{"delta": True}, {"epsilon": True}, {"delta": "1"}])
    def test_rejects_non_real_parameters(self, bad):
        with pytest.raises(ValueError, match="must be a real number"):
            UcarParams(**bad)

    def test_rhs_values(self):
        rhs = ucar_rhs(UcarParams(2.0, 0.5))
        assert rhs.g(1.5, 2.0) == 2.0 * 1.5 - 0.5 * 8.0


class TestIkeda:
    def test_rhs_values(self):
        rhs = ikeda_rhs()
        assert rhs.g(0.0, 0.0) == 0.0
        assert rhs.g(1.0, math.pi / 2) == pytest.approx(-3.0 + 24.0)

    def test_linearization(self):
        rhs = ikeda_rhs()
        coef = linearize(rhs, 0.0)
        assert (coef.a, coef.b) == (-3.0, 24.0)
        x = 2.785902114077879
        coef_up = linearize(rhs, x)
        assert coef_up.a == -3.0
        assert coef_up.b == pytest.approx(24.0 * math.cos(x), rel=1e-14)

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

    def test_custom_parameters(self):
        rhs = ikeda_rhs(IkedaParams(c1=-1.0, c2=2.0))
        assert rhs.g(3.0, 0.5) == pytest.approx(-3.0 + 2.0 * math.sin(0.5))

    @pytest.mark.parametrize("bad", [(math.inf, 24.0), (-3.0, math.nan)])
    def test_rejects_nonfinite_parameters(self, bad):
        with pytest.raises(ValueError):
            IkedaParams(*bad)

    @pytest.mark.parametrize("bad", [{"c1": False}, {"c2": True}, {"c1": None}])
    def test_rejects_non_real_parameters(self, bad):
        with pytest.raises(ValueError, match="must be a real number"):
            IkedaParams(**bad)
