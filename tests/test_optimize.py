"""Tests for the damped least-squares solver."""

import warnings

import numpy as np
import pytest

from afmcavity import optimize
from conftest import numerical_jacobian


def test_linear_problem_exact():
    # residual (x0 - 3, x1 + 2) has the unique zero (3, -2)
    fun = lambda x: np.array([x[0] - 3.0, x[1] + 2.0])
    result = optimize.levenberg_marquardt(
        fun, [0.0, 0.0], jac=lambda p: numerical_jacobian(fun, p)
    )
    assert result.converged
    assert result.x == pytest.approx([3.0, -2.0], abs=1e-9)
    assert result.gradient_norm < optimize.GRADIENT_TOL


def test_rosenbrock_style_valley():
    fun = lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    result = optimize.levenberg_marquardt(
        fun, [-1.2, 1.0], jac=lambda p: numerical_jacobian(fun, p)
    )
    assert result.converged
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-6)


def test_overdetermined_exponential_fit():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 2, 40)
    y = 2.5 * np.exp(-1.3 * t)

    fun = lambda x: x[0] * np.exp(x[1] * t) - y
    result = optimize.levenberg_marquardt(
        fun, [1.0, -0.5], jac=lambda p: numerical_jacobian(fun, p)
    )
    assert result.converged
    assert result.x == pytest.approx([2.5, -1.3], rel=1e-8)
    assert result.cost < 1e-18

    noisy = y + 0.01 * rng.standard_normal(t.size)
    fun_n = lambda x: x[0] * np.exp(x[1] * t) - noisy
    result_n = optimize.levenberg_marquardt(
        fun_n, [1.0, -0.5], jac=lambda p: numerical_jacobian(fun_n, p)
    )
    assert result_n.converged
    assert result_n.x == pytest.approx([2.5, -1.3], rel=0.05)


def test_analytic_jacobian_used():
    t = np.linspace(0, 1, 20)
    y = 4.0 * t + 1.0
    fun = lambda x: x[0] * t + x[1] - y
    jac = lambda x: np.column_stack([t, np.ones_like(t)])
    result = optimize.levenberg_marquardt(fun, [0.0, 0.0], jac=jac)
    assert result.converged
    assert result.x == pytest.approx([4.0, 1.0], abs=1e-10)


def test_numerical_jacobian_matches_analytic():
    t = np.linspace(0.1, 2.0, 15)

    def fun(x):
        return x[0] * np.exp(x[1] * t) + x[2]

    def jac(x):
        e = np.exp(x[1] * t)
        return np.column_stack([e, x[0] * t * e, np.ones_like(t)])

    x = np.array([1.7, -0.8, 0.3])
    numeric = numerical_jacobian(fun, x)
    analytic = jac(x)
    assert np.allclose(numeric, analytic, rtol=1e-7, atol=1e-9)


def test_iteration_cap_reported():
    fun = lambda x: np.array([np.tanh(x[0]) - 0.999999])
    result = optimize.levenberg_marquardt(
        fun, [0.0], jac=lambda p: numerical_jacobian(fun, p), max_iterations=2
    )
    assert result.iterations <= 2
    if not result.converged:
        assert result.gradient_norm >= optimize.GRADIENT_TOL


def test_converged_implies_gradient_below_tolerance():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 3, 25)
    for _ in range(20):
        a, b = rng.uniform(0.5, 3.0), rng.uniform(-2.0, -0.2)
        y = a * np.exp(b * t) + 0.01 * rng.standard_normal(t.size)
        fun = lambda x: x[0] * np.exp(x[1] * t) - y
        result = optimize.levenberg_marquardt(
            fun, [1.0, -1.0], jac=lambda p: numerical_jacobian(fun, p)
        )
        if result.converged:
            assert result.gradient_norm < optimize.GRADIENT_TOL


def test_two_dimensional_residual_rejected():
    fun = lambda x: np.zeros((2, 2))
    with pytest.raises(ValueError, match="^residual function must return a 1-D vector$"):
        optimize.levenberg_marquardt(fun, [0.0], jac=lambda x: np.ones((4, 1)))


def test_singular_solve_retried_with_more_damping(monkeypatch):
    solve = np.linalg.solve
    calls = []

    def fails_once(a, b):
        calls.append(a.copy())
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fails_once)
    fun = lambda x: np.array([x[0] - 3.0, x[1] + 2.0])
    result = optimize.levenberg_marquardt(fun, [0.0, 0.0], jac=lambda x: np.eye(2))
    assert result.converged
    assert result.x == pytest.approx([3.0, -2.0], abs=1e-9)
    # the retry solves the same normal equations with ten times the damping: 1 + 10λ
    assert calls[1] == pytest.approx(10 * calls[0] - 9 * np.eye(2), rel=1e-12)


def test_covariance_uncertainties():
    # y = a*t with unit-variance residuals: var(a) = sigma^2 / sum(t^2)
    t = np.linspace(1, 5, 50)
    jac = t[:, None]
    residual = np.ones(t.size)  # ssr = n, dof = n - 1
    sigma = optimize.covariance_uncertainties(jac, residual)
    expected = np.sqrt((t.size / (t.size - 1)) / np.sum(t**2))
    assert sigma[0] == pytest.approx(expected, rel=1e-12)


def test_covariance_zero_dof():
    jac = np.array([[1.0, 0.0], [0.0, 1.0]])
    residual = np.array([0.1, -0.2])
    sigma = optimize.covariance_uncertainties(jac, residual)
    assert np.all(sigma == 0.0)


def test_covariance_subnormal_column_non_finite_without_warning():
    # JᵀJ of a 1e-155 column is subnormal: its inverse times the variance leaves the float range
    jac = np.array([[1e-155], [1e-155], [1e-155]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = optimize.covariance_uncertainties(jac, np.ones(3))
    assert not np.isfinite(sigma[0])


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


# (residual, x0, jac, max_iterations) -> (message, iterations, converged, gradient_norm);
# jac None stands for the central-difference oracle.  The cases call no transcendental
# function, so the pinned figures are plain IEEE arithmetic
STOP_CASES = {
    "gradient": (
        (lambda x: np.array([x[0] - 3.0, x[1] + 2.0]), [0.0, 0.0], None, 200),
        ("gradient below tolerance", 3, True, 4.110489726343893e-12),
    ),
    "gradient-at-start": (
        (lambda x: np.array([x[0] - 3.0]), [3.0], None, 0),
        ("gradient below tolerance", 0, True, 0.0),
    ),
    "step": (
        (
            lambda x: np.array([1e6 * (x[0] - 1e6) ** 2]),
            [0.0],
            lambda x: np.array([[2e6 * (x[0] - 1e6)]]),
            200,
        ),
        ("parameter step below tolerance", 40, False, 1.5101283466022454e-06),
    ),
    "damping": (  # a wrong-sign Jacobian points every step uphill
        (lambda x: np.array([x[0] - 3.0]), [0.0], lambda x: np.array([[-1.0]]), 200),
        ("no acceptable step found (damping exhausted)", 1, False, 3.0),
    ),
    "max-0": (
        (_rosenbrock, [-1.2, 1.0], None, 0),
        ("maximum iterations reached", 0, False, 107.80000000147153),
    ),
    "max-negative": (  # a negative cap acts as 0
        (_rosenbrock, [-1.2, 1.0], None, -1),
        ("maximum iterations reached", 0, False, 107.80000000147153),
    ),
    "max-1": (
        (_rosenbrock, [-1.2, 1.0], None, 1),
        ("maximum iterations reached", 1, False, 14.322629006989528),
    ),
    "max-2": (
        (_rosenbrock, [-1.2, 1.0], None, 2),
        ("maximum iterations reached", 2, False, 8.927563752111693),
    ),
}


@pytest.mark.parametrize("case", STOP_CASES.values(), ids=STOP_CASES.keys())
def test_stop_reasons_pinned(case):
    (fun, x0, jac, max_iterations), (message, iterations, converged, gradient_norm) = case
    jac = jac or (lambda p: numerical_jacobian(fun, p))
    result = optimize.levenberg_marquardt(fun, x0, jac=jac, max_iterations=max_iterations)
    assert result.message == message
    assert result.iterations == iterations
    assert result.converged is converged
    assert result.gradient_norm == pytest.approx(gradient_norm, rel=1e-9, abs=1e-300)
