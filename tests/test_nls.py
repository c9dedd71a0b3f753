import numpy as np
import pytest

from actirhythm import errors
from actirhythm.nls import (
    NlsOptions,
    ResidualProblem,
    Termination,
    levenberg_marquardt,
    linear_least_squares,
    numeric_jacobian,
)
from reference_impls import model_partials, sigmoid_curve


class TestLinearLeastSquares:
    def test_identity_design(self):
        b = linear_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(b, [1, 2, 3], atol=1e-12)

    def test_column_of_ones_gives_mean(self):
        obs = np.array([2.0, 4.0, 9.0])
        b = linear_least_squares(np.ones((3, 1)), obs)
        assert b[0] == pytest.approx(obs.mean(), rel=1e-12)

    def test_exact_cosine_regression(self):
        t = np.linspace(0, 48, 2000)
        omega = 2 * np.pi / 24
        y = 10 + 5 * np.cos(omega * t) + 2 * np.sin(omega * t)
        design = np.column_stack([np.ones_like(t), np.cos(omega * t),
                                  np.sin(omega * t)])
        b = linear_least_squares(design, y)
        assert np.allclose(b, [10, 5, 2], atol=1e-10)

    def test_rank_deficient(self):
        design = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(errors.RankDeficient):
            linear_least_squares(design, np.arange(5.0))


class TestNumericJacobian:
    def test_scalar_square(self):
        problem = ResidualProblem(lambda p: np.array([p[0] ** 2]), 1, 1)
        J = numeric_jacobian(problem, np.array([3.0]))
        assert J[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_linear_is_exact(self, rng):
        A = rng.normal(size=(7, 3))
        problem = ResidualProblem(lambda p: A @ p, 3, 7)
        J = numeric_jacobian(problem, rng.normal(size=3))
        assert np.allclose(J, A, atol=1e-9)

    def test_curve_model_matches_analytic_partials(self, rng):
        t = rng.uniform(0, 120, size=40)
        y = rng.uniform(0, 10, size=40)
        theta = np.array([2.0, 8.0, 0.3, 5.0, 14.0])

        problem = ResidualProblem(
            lambda p: y - sigmoid_curve(t, *p), 5, 40)
        J = numeric_jacobian(problem, theta)
        analytic = -model_partials(t, *theta)
        assert np.max(np.abs(J - analytic)) < 1e-5

    def test_halving_step_quarters_error(self):
        problem = ResidualProblem(
            lambda p: np.array([np.sin(p[0]), p[0] ** 3]), 1, 2)
        x = np.array([0.7])
        exact = np.array([[np.cos(0.7)], [3 * 0.7 ** 2]])
        err_h = np.max(np.abs(numeric_jacobian(problem, x, rel_step=1e-4) - exact))
        err_h2 = np.max(np.abs(numeric_jacobian(problem, x, rel_step=5e-5) - exact))
        assert 3.0 < err_h / err_h2 < 5.0

    def test_non_finite_residual(self):
        problem = ResidualProblem(lambda p: np.array([np.nan]), 1, 1)
        with pytest.raises(errors.NonFiniteResidual):
            numeric_jacobian(problem, np.array([1.0]))


class TestLevenbergMarquardt:
    def test_linear_problem_matches_lstsq(self, rng):
        A = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        problem = ResidualProblem(lambda p: A @ p - y, 3, 20)
        result = levenberg_marquardt(problem, np.zeros(3))
        direct = linear_least_squares(A, y)
        rss_direct = float(np.sum((A @ direct - y) ** 2))
        assert result.converged
        # the optimum is reached within 3 accepted steps; later iterations
        # only polish the gradient below its tolerance
        rss_by_three = result.rss_history[min(3, len(result.rss_history) - 1)]
        assert rss_by_three == pytest.approx(rss_direct, abs=1e-9)
        assert result.rss == pytest.approx(rss_direct, abs=1e-9)
        assert np.allclose(result.params, direct, atol=1e-6)

    def test_rosenbrock(self):
        def residual(p):
            a, b = p
            return np.array([1 - a, 10 * (b - a * a)])

        problem = ResidualProblem(residual, 2, 2)
        result = levenberg_marquardt(problem, np.array([-1.2, 1.0]))
        assert result.converged
        assert np.allclose(result.params, [1.0, 1.0], atol=1e-8)

    def test_curve_recovery_from_stage_one_style_seed(self):
        t = (np.arange(5 * 1440) + 0.5) / 60.0
        truth = (3.0, 120.0, 0.25, 6.0, 15.0)
        y = sigmoid_curve(t, *truth)
        problem = ResidualProblem(lambda p: y - sigmoid_curve(t, *p), 5, t.size)
        x0 = np.array([10.0, 90.0, 0.0, 2.0, 14.0])
        result = levenberg_marquardt(problem, x0)
        assert result.converged
        assert np.allclose(result.params, truth, rtol=1e-6)

    def test_accepted_rss_monotone(self, rng):
        t = np.linspace(0, 72, 500)
        y = sigmoid_curve(t, 1.0, 5.0, 0.2, 3.0, 10.0) + rng.normal(0, 0.3, t.size)
        problem = ResidualProblem(lambda p: y - sigmoid_curve(t, *p), 5, t.size)
        result = levenberg_marquardt(problem, np.array([0.0, 3.0, 0.0, 2.0, 8.0]))
        history = np.array(result.rss_history)
        assert np.all(np.diff(history) <= 0)
        assert result.rss == history[-1]

    def test_residual_scaling(self, rng):
        A = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        base = levenberg_marquardt(ResidualProblem(lambda p: A @ p - y, 2, 12),
                                   np.zeros(2))
        k = 7.5
        scaled = levenberg_marquardt(
            ResidualProblem(lambda p: k * (A @ p - y), 2, 12), np.zeros(2))
        assert scaled.rss == pytest.approx(k * k * base.rss, rel=1e-6)
        assert np.allclose(scaled.params, base.params, atol=1e-6)

    def test_analytic_jacobian_reaches_same_optimum(self, rng):
        t = np.linspace(0, 72, 500)
        y = sigmoid_curve(t, 1.0, 5.0, 0.2, 3.0, 10.0) + rng.normal(0, 0.3, t.size)
        calls = []

        def jac(p):
            calls.append(p)
            return -model_partials(t, *p)

        def residual(p):
            return y - sigmoid_curve(t, *p)

        x0 = np.array([0.0, 3.0, 0.0, 2.0, 8.0])
        numeric = levenberg_marquardt(ResidualProblem(residual, 5, t.size), x0)
        analytic = levenberg_marquardt(
            ResidualProblem(residual, 5, t.size, jac=jac), x0)
        assert analytic.converged
        assert len(calls) == analytic.iterations
        assert analytic.rss == pytest.approx(numeric.rss, rel=1e-10)
        assert np.allclose(analytic.params, numeric.params, rtol=1e-6)

    def test_non_finite_analytic_jacobian(self):
        problem = ResidualProblem(lambda p: p - 1.0, 1, 1,
                                  jac=lambda p: np.array([[np.nan]]))
        with pytest.raises(errors.NonFiniteResidual):
            levenberg_marquardt(problem, np.array([0.0]))

    def test_non_finite_start(self):
        problem = ResidualProblem(lambda p: np.array([np.inf]), 1, 1)
        with pytest.raises(errors.NonFiniteResidual):
            levenberg_marquardt(problem, np.array([0.0]))

    def test_max_iterations_reported(self):
        # a residual that keeps shrinking but never meets the tolerances
        problem = ResidualProblem(lambda p: np.array([np.exp(p[0]), 1.0]), 1, 2)
        opts = NlsOptions(max_iterations=5, gradient_tolerance=1e-300,
                          step_tolerance=1e-300)
        result = levenberg_marquardt(problem, np.array([0.0]), opts)
        assert result.termination is Termination.MAX_ITERATIONS
        assert not result.converged
        assert result.iterations == 5
