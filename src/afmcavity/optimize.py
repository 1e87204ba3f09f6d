"""Small damped least-squares (Levenberg-Marquardt) solver.

Sized for the dense, few-parameter problems in this toolkit: normal equations
are formed explicitly and damped with a Marquardt diagonal.  The schedule is
the classic one: shrink the damping after an accepted step, grow it and retry
after a rejected one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10  # infinity norm of J^T r
STEP_TOL = 1e-12  # relative parameter step


@dataclass
class LMResult:
    x: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    cost: float  # sum of squared residuals
    gradient_norm: float
    iterations: int
    converged: bool
    message: str


@np.errstate(over="ignore", invalid="ignore")  # an overflowing JᵀJ or trial fails the cost test
def levenberg_marquardt(
    fun: Callable[[np.ndarray], np.ndarray],
    x0,
    jac: Callable[[np.ndarray], np.ndarray],
    max_iterations: int = MAX_ITERATIONS,
) -> LMResult:
    """Minimize sum(fun(x)**2) starting from x0.

    ``fun`` maps parameters to a residual vector; ``jac`` to its Jacobian.
    ``converged`` is set only when the gradient criterion is met, so a True
    flag certifies a stationary point to ``GRADIENT_TOL``.
    """
    x = np.array(x0, dtype=float).ravel()
    r = np.asarray(fun(x), dtype=float)
    if r.ndim != 1:
        raise ValueError("residual function must return a 1-D vector")
    cost = float(r @ r)
    jmat = np.atleast_2d(np.asarray(jac(x), dtype=float))
    lam = 1e-3
    message = ""

    for iterations in range(max(max_iterations, 0) + 1):  # a negative cap acts as 0
        grad = jmat.T @ r
        gradient_norm = float(np.max(np.abs(grad))) if grad.size else 0.0
        converged = gradient_norm < GRADIENT_TOL
        if converged or message or iterations >= max_iterations:
            break

        normal = jmat.T @ jmat
        damping = np.diag(np.maximum(np.diag(normal), 1e-12))
        for _ in range(50):
            try:
                step = np.linalg.solve(normal + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = np.asarray(fun(x + step), dtype=float)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            message = "no acceptable step found (damping exhausted)"
            continue

        x = x + step
        r = r_new
        cost = cost_new
        jmat = np.atleast_2d(np.asarray(jac(x), dtype=float))
        lam = max(lam / 9.0, 1e-14)
        if np.linalg.norm(step) <= STEP_TOL * (np.linalg.norm(x) + STEP_TOL):
            message = "parameter step below tolerance"

    message = "gradient below tolerance" if converged else message or "maximum iterations reached"
    return LMResult(
        x=x,
        residual=r,
        jacobian=jmat,
        cost=cost,
        gradient_norm=gradient_norm,
        iterations=iterations,
        converged=converged,
        message=message,
    )


def covariance_uncertainties(jacobian: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """One-sigma parameter uncertainties from the linearized covariance.

    Covariance is s² (JᵀJ)⁻¹ with s² the residual variance; with no residual
    degrees of freedom the scale collapses to zero and so do the errors.  An
    uncertainty past the float range (a Jacobian column of subnormal size) comes
    back non-finite, without a warning.
    """
    n_obs, n_par = jacobian.shape
    dof = n_obs - n_par
    ssr = float(residual @ residual)
    variance = ssr / dof if dof > 0 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.linalg.pinv(jacobian.T @ jacobian) * variance
        return np.sqrt(np.maximum(np.diag(cov), 0.0))
