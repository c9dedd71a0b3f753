"""Dense nonlinear least squares: linear solver, Jacobian, and a
Levenberg-Marquardt loop with Marquardt (diagonal) scaling.

A problem may supply its Jacobian in closed form (``ResidualProblem.jac``);
otherwise the loop uses central differences (``numeric_jacobian``).

The damping factor is multiplied by 10 on a rejected step and divided by 10
on an accepted one, clamped to [1e-12, 1e12]. Accepted steps strictly
decrease the sum of squares, so the returned parameters are the best seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NonFiniteResidual, RankDeficient, SingularNormalMatrix

_DAMP_MIN = 1e-12
_DAMP_MAX = 1e12


@dataclass(frozen=True)
class ResidualProblem:
    """A residual map r(p): R^n_params -> R^n_residuals, finite on the
    feasible region, with n_residuals >= n_params. ``jac``, when given,
    returns the n_residuals x n_params matrix dr/dp."""

    fun: Callable[[np.ndarray], np.ndarray]
    n_params: int
    n_residuals: int
    jac: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.n_params < 1 or self.n_residuals < self.n_params:
            raise ValueError("need n_residuals >= n_params >= 1")


@dataclass(frozen=True)
class NlsOptions:
    max_iterations: int = 200
    gradient_tolerance: float = 1e-10   # infinity norm of J^T r
    step_tolerance: float = 1e-12       # relative parameter change
    initial_damping: float = 1e-3

    def __post_init__(self):
        if min(self.max_iterations, self.gradient_tolerance,
               self.step_tolerance, self.initial_damping) <= 0:
            raise ValueError("all options must be positive")


class Termination(Enum):
    GRADIENT_SMALL = "gradient_small"
    STEP_SMALL = "step_small"
    MAX_ITERATIONS = "max_iterations"


@dataclass
class NlsResult:
    params: np.ndarray
    rss: float
    iterations: int
    converged: bool
    termination: Termination
    rss_history: list[float] = field(default_factory=list)


def linear_least_squares(design: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Minimize ||design @ b - observations||^2 via SVD (no normal
    equations). Raises RankDeficient when the design loses column rank."""
    design = np.asarray(design, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if design.ndim != 2 or design.shape[0] < design.shape[1]:
        raise ValueError("design must be n x p with n >= p")
    coeffs, _, rank, _ = np.linalg.lstsq(design, observations, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficient(f"design rank {rank} < {design.shape[1]} columns")
    return coeffs


def _jacobian(fun, params: np.ndarray, rel_step: float) -> np.ndarray:
    p = np.asarray(params, dtype=float)
    cols = []
    for i in range(p.size):
        h = rel_step * max(abs(p[i]), 1.0)
        up = p.copy()
        up[i] += h
        down = p.copy()
        down[i] -= h
        r_up = np.asarray(fun(up), dtype=float)
        r_down = np.asarray(fun(down), dtype=float)
        if not (np.all(np.isfinite(r_up)) and np.all(np.isfinite(r_down))):
            raise NonFiniteResidual(f"non-finite residual perturbing parameter {i}")
        cols.append((r_up - r_down) / (2.0 * h))
    return np.column_stack(cols)


def numeric_jacobian(problem: ResidualProblem, params: np.ndarray,
                     rel_step: float = 1e-6) -> np.ndarray:
    """Central differences with per-parameter step rel_step*max(|p_i|, 1)."""
    return _jacobian(problem.fun, params, rel_step)


def _problem_jacobian(problem: ResidualProblem, params: np.ndarray,
                      rel_step: float) -> np.ndarray:
    if problem.jac is None:
        return _jacobian(problem.fun, params, rel_step)
    J = np.asarray(problem.jac(params), dtype=float)
    if not np.all(np.isfinite(J)):
        raise NonFiniteResidual("non-finite analytic Jacobian")
    return J


def _step_small(delta: np.ndarray, x: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.abs(delta) <= tol * (np.abs(x) + tol)))


def levenberg_marquardt(problem: ResidualProblem, x0: np.ndarray,
                        opts: NlsOptions = NlsOptions(),
                        rel_step: float = 1e-6) -> NlsResult:
    """Minimize ||r(p)||^2 from x0.

    Solves (J^T J + lam*diag(J^T J)) delta = -J^T r each iteration, with J
    from ``problem.jac`` or else central differences of step
    rel_step*max(|p_i|, 1). A trial point with non-finite residuals is
    treated as a rejected step. If no acceptable step exists even at maximum
    damping the solve stops at the current (best) point with a STEP_SMALL
    termination.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n_params,):
        raise ValueError(f"x0 must have length {problem.n_params}")
    r = np.asarray(problem.fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residuals non-finite at the starting point")
    rss = float(r @ r)
    history = [rss]
    lam = opts.initial_damping
    termination = Termination.MAX_ITERATIONS
    iterations = 0

    for it in range(1, opts.max_iterations + 1):
        iterations = it
        J = _problem_jacobian(problem, x, rel_step)
        g = J.T @ r
        if np.max(np.abs(g)) < opts.gradient_tolerance:
            termination = Termination.GRADIENT_SMALL
            break
        A = J.T @ J
        d = np.diag(A).copy()
        d[d <= 0] = 1.0

        accepted = False
        delta = None
        x_new = r_new = None
        rss_new = rss
        while True:
            try:
                delta = np.linalg.solve(A + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                x_try = x + delta
                r_try = np.asarray(problem.fun(x_try), dtype=float)
                if np.all(np.isfinite(r_try)):
                    rss_try = float(r_try @ r_try)
                    if rss_try < rss:
                        accepted = True
                        x_new, r_new, rss_new = x_try, r_try, rss_try
                        break
            if delta is not None and _step_small(delta, x, opts.step_tolerance):
                break
            if lam >= _DAMP_MAX:
                if delta is None:
                    raise SingularNormalMatrix(
                        "normal matrix singular at maximum damping")
                break
            lam = min(lam * 10.0, _DAMP_MAX)

        if not accepted:
            termination = Termination.STEP_SMALL
            break
        x, r, rss = x_new, r_new, rss_new
        history.append(rss)
        lam = max(lam / 10.0, _DAMP_MIN)
        if _step_small(delta, x, opts.step_tolerance):
            termination = Termination.STEP_SMALL
            break

    return NlsResult(params=x, rss=rss, iterations=iterations,
                     converged=termination is not Termination.MAX_ITERATIONS,
                     termination=termination, rss_history=history)
