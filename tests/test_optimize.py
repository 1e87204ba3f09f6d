"""Tests for the damped least-squares solver."""

import warnings

import numpy as np
import pytest

import afmcavity
from afmcavity import analysis, optimize
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


def test_iteration_cap_reported(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 2)
    fun = lambda x: np.array([np.tanh(x[0]) - 0.999999])
    result = optimize.levenberg_marquardt(fun, [0.0], jac=lambda p: numerical_jacobian(fun, p))
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
    # y = a*t fitted by least squares: var(a) = s² / sum(t²), s² = ssr / (n - 1)
    t = np.linspace(1, 5, 50)
    y = 2.0 * t + 0.1 * np.random.default_rng(5).standard_normal(t.size)
    result = optimize.solve(lambda x: x[0] * t - y, [0.0], lambda x: t[:, None], ("a",))
    ssr = np.linalg.lstsq(t[:, None], y, rcond=None)[1][0]
    expected = np.sqrt(ssr / (t.size - 1) / np.sum(t**2))
    assert result.uncertainties[0] == pytest.approx(expected, rel=1e-12)


def test_covariance_zero_dof():
    # a wrong-sign Jacobian leaves the residual (0.1, -0.2) in place; with no dof σ is 0
    fun = lambda x: np.array([x[0] + 0.1, x[1] - 0.2])
    result = optimize.solve(fun, [0.0, 0.0], lambda x: -np.eye(2), ("a", "b"))
    assert np.array_equal(result.residual, [0.1, -0.2])
    assert np.all(result.uncertainties == 0.0)


def test_covariance_subnormal_column_raises_without_warning():
    # JᵀJ of a 1e-155 column is subnormal: its inverse times the variance leaves the float range
    jac = lambda x: np.full((3, 1), 1e-155)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(optimize.FitError, match="^the data do not constrain a: uncertainty"):
            optimize.solve(lambda x: np.ones(3), [0.0], jac, ("a",))


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


# (residual, x0, jac, MAX_ITERATIONS) -> (message, iterations, converged, gradient_norm);
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
def test_stop_reasons_pinned(case, monkeypatch):
    (fun, x0, jac, max_iterations), (message, iterations, converged, gradient_norm) = case
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", max_iterations)
    jac = jac or (lambda p: numerical_jacobian(fun, p))
    result = optimize.levenberg_marquardt(fun, x0, jac=jac)
    assert result.message == message
    assert result.iterations == iterations
    assert result.converged is converged
    assert result.gradient_norm == pytest.approx(gradient_norm, rel=1e-9, abs=1e-300)


def _largest_cosine(jacobian, residual) -> float:
    """Largest |cos| between the residual and a Jacobian column; 0 for a zero one."""
    scale = np.linalg.norm(jacobian, axis=0) * np.linalg.norm(residual)
    return max((abs(residual @ col) / s if s else 0.0 for col, s in zip(jacobian.T, scale)),
               default=0.0)


def test_solve_converges_on_the_gradient_test_or_an_orthogonal_stall():
    # scaled residuals lift the rounding floor of ‖Jᵀr‖ above GRADIENT_TOL, so fits stall there
    rng = np.random.default_rng(11)
    t = np.linspace(0, 3, 25)
    seen = set()
    for scale in (1.0, 1e3, 1e6):
        for _ in range(20):
            a, b = rng.uniform(0.5, 3.0), rng.uniform(-2.0, -0.2)
            y = a * np.exp(b * t) + 0.01 * rng.standard_normal(t.size)
            fun = lambda x: scale * (x[0] * np.exp(x[1] * t) - y)
            jac = lambda x: scale * np.column_stack([np.exp(x[1] * t), x[0] * t * np.exp(x[1] * t)])
            plain = optimize.levenberg_marquardt(fun, [1.0, -1.0], jac=jac)
            result = optimize.solve(fun, [1.0, -1.0], jac, ("a", "b"))
            assert np.array_equal(result.x, plain.x) and result.iterations == plain.iterations
            jmat, r = plain.jacobian, plain.residual
            sigma = np.sqrt(np.diag(np.linalg.inv(jmat.T @ jmat)) * (r @ r) / (t.size - 2))
            assert result.uncertainties == pytest.approx(sigma, rel=1e-10)
            assert result.converged
            if result.message == "gradient below tolerance":
                assert result.gradient_norm < optimize.GRADIENT_TOL
                seen.add("gradient")
            else:
                assert plain.message in optimize.STALLS
                assert result.message == f"{plain.message}; cosine below tolerance"
                assert _largest_cosine(result.jacobian, result.residual) < optimize.COSINE_TOL
                seen.add(plain.message)
    assert seen == {"gradient", *optimize.STALLS}


@pytest.mark.parametrize("case", STOP_CASES.values(), ids=STOP_CASES.keys())
def test_solve_keeps_each_pinned_stop(case, monkeypatch):
    # a one-residual stall has |cos| = 1: no pinned stop is certified afresh
    (fun, x0, jac, max_iterations), (message, iterations, converged, _) = case
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", max_iterations)
    result = optimize.solve(fun, x0, jac or (lambda p: numerical_jacobian(fun, p)), ("a", "b"))
    assert (result.message, result.iterations, result.converged) == (message, iterations, converged)


def test_solve_non_finite_cosine_certifies_nothing():
    # |J| overflows, so r·J / (|r| |J|) would read 0 on a stall with cos = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize.solve(
            lambda x: np.array([x[0] - 3.0]), [0.0], lambda x: np.array([[-1e200]]), ("a",)
        )
    assert result.message == "no acceptable step found (damping exhausted)"
    assert not result.converged


def test_solve_names_each_parameter_whose_uncertainty_overflows():
    # JᵀJ of 1e-155 columns is subnormal, and its inverse leaves the float range
    fun = lambda x: 1e-155 * (x[0] + x[1] * np.arange(3.0)) - np.array([1.0, 2.0, 4.0])
    jac = lambda x: 1e-155 * np.column_stack([np.ones(3), np.arange(3.0)])
    with pytest.raises(optimize.FitError,
                       match="^the data do not constrain a, b: uncertainty overflows$"):
        optimize.solve(fun, [0.0, 0.0], jac, ("a", "b"))
    assert optimize.FitError is analysis.FitError is afmcavity.FitError
