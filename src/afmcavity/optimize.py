"""Small damped least-squares (Levenberg-Marquardt) solver.

Sized for the dense, few-parameter problems in this toolkit: normal equations
are formed explicitly and damped with a Marquardt diagonal.  The schedule is
the classic one: shrink the damping after an accepted step, grow it and retry
after a rejected one.  Every fit runs it through :func:`solve`, which adds 1σ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10  # infinity norm of J^T r
STEP_TOL = 1e-12  # relative parameter step
COSINE_TOL = 1e-6  # largest |cos| between r and a column of J at which a stall converges
STALLS = ("no acceptable step found (damping exhausted)", "parameter step below tolerance")


class FitError(ValueError):
    """Raised when input data cannot support the requested fit."""


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
    uncertainties: np.ndarray | None = None  # 1 sigma, set by solve


@np.errstate(over="ignore", invalid="ignore")  # an overflowing JᵀJ or trial fails the cost test
def levenberg_marquardt(
    fun: Callable[[np.ndarray], np.ndarray],
    x0,
    jac: Callable[[np.ndarray], np.ndarray],
) -> LMResult:
    """Minimize sum(fun(x)**2) starting from x0.

    ``fun`` maps parameters to a residual vector; ``jac`` to its Jacobian.
    ``converged`` is set only when the gradient criterion is met, so a True
    flag certifies a stationary point to ``GRADIENT_TOL``.  At most
    ``MAX_ITERATIONS`` steps are taken.
    """
    x = np.array(x0, dtype=float).ravel()
    r = np.asarray(fun(x), dtype=float)
    if r.ndim != 1:
        raise ValueError("residual function must return a 1-D vector")
    cost = float(r @ r)
    jmat = np.atleast_2d(np.asarray(jac(x), dtype=float))
    lam = 1e-3
    message = ""

    for iterations in range(MAX_ITERATIONS + 1):
        grad = jmat.T @ r
        gradient_norm = float(np.max(np.abs(grad))) if grad.size else 0.0
        converged = gradient_norm < GRADIENT_TOL
        if converged or message or iterations >= MAX_ITERATIONS:
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


def solve(fun, x0, jac, names) -> LMResult:
    """Run :func:`levenberg_marquardt`, add 1σ as ``uncertainties``, and converge a run in
    ``STALLS`` at ``COSINE_TOL``; a :class:`FitError` names each of ``names`` whose σ overflows.

    σ² is the diagonal of s² (JᵀJ)⁻¹, s² the residual variance, and 0 with no residual
    degrees of freedom.  A Jacobian column of subnormal size overflows σ, without a warning.
    """
    result = levenberg_marquardt(fun, x0, jac=jac)
    jmat, r = result.jacobian, result.residual
    dof = r.size - jmat.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cosine or σ is refused
        scale = np.linalg.norm(jmat, axis=0) * np.linalg.norm(r)
        cosine = np.abs(r @ jmat) / np.where(scale == 0, np.inf, scale)  # 0 if a factor is 0
        variance = r @ r / dof if dof > 0 else 0.0
        cov = np.linalg.pinv(jmat.T @ jmat) * variance
        uncertainties = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if result.message in STALLS and np.all(np.isfinite(scale) & (cosine < COSINE_TOL)):
        message = f"{result.message}; cosine below tolerance"
        result = replace(result, converged=True, message=message)
    unbounded = [name for name, u in zip(names, uncertainties) if not np.isfinite(u)]
    if unbounded:
        raise FitError(f"the data do not constrain {', '.join(unbounded)}: uncertainty overflows")
    return replace(result, uncertainties=uncertainties)
