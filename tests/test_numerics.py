import numpy as np
import pytest

from fuse3d import finite_diff_grad, sigmoid


class TestSigmoid:
    def test_symmetry_point(self):
        assert float(sigmoid(0.0)) == 0.5

    def test_known_value(self):
        # 1 / (1 + e^-2)
        np.testing.assert_allclose(float(sigmoid(2.0)), 0.8807970779778823,
                                   rtol=0, atol=1e-15)

    def test_mirror_sum_is_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-14)

    def test_strictly_inside_unit_interval(self):
        x = np.array([-1e308, -1e6, -745.0, -40.0, 0.0, 40.0, 745.0, 1e6, 1e308])
        s = sigmoid(x)
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)
        assert np.isfinite(s).all()

    def test_monotone(self):
        x = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(sigmoid(x)) > 0)


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda m: float((m ** 2).sum()), [[3.0]], eps=1e-4)
        np.testing.assert_allclose(grad, [[6.0]], rtol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda m: 7.5, np.ones((2, 3)), eps=1e-4)
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_linear_function(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2))
        grad = finite_diff_grad(lambda m: float(m.sum()), x, eps=1e-4)
        np.testing.assert_allclose(grad, np.ones((3, 2)), rtol=1e-9)

    def test_quadratic_matches_analytic(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((4, 4))
        q = q + q.T
        x = rng.standard_normal(4)

        def f(v):
            return float(v @ q @ v)

        grad = finite_diff_grad(f, x, eps=1e-4)
        analytic = 2.0 * q @ x
        assert float(np.abs(grad - analytic).max() / np.abs(analytic).max()) < 1e-6

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda m: 0.0, np.ones(2), eps=0.0)
