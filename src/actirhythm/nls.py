"""Dense nonlinear least squares: a linear solver and a
Levenberg-Marquardt loop with Marquardt (diagonal) scaling and the
problem's closed-form Jacobian (``ResidualProblem.jac``).

The damping factor starts at 1e-3, is multiplied by 10 on a rejected step
and divided by 10 on an accepted one, clamped to [1e-12, 1e12]. Accepted
steps strictly decrease the sum of squares, so the returned parameters are
the best seen. The stop rules are tight enough that parameter recovery on
noiseless series is limited by float precision, not by the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NonFiniteResidual, RankDeficient, SingularNormalMatrix

_MAX_ITERATIONS = 400
_GRADIENT_TOLERANCE = 1e-12   # infinity norm of J^T r
_STEP_TOLERANCE = 1e-14       # relative parameter change
_INITIAL_DAMPING = 1e-3
_DAMP_MIN = 1e-12
_DAMP_MAX = 1e12


@dataclass(frozen=True)
class ResidualProblem:
    """A residual map r(p): R^n_params -> R^n_residuals, finite on the
    feasible region, with n_residuals >= n_params, and its Jacobian ``jac``,
    which returns the n_residuals x n_params matrix dr/dp."""

    fun: Callable[[np.ndarray], np.ndarray]
    n_params: int
    n_residuals: int
    jac: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n_params < 1 or self.n_residuals < self.n_params:
            raise ValueError("need n_residuals >= n_params >= 1")


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


def _step_small(delta: np.ndarray, x: np.ndarray) -> bool:
    """|delta_i| <= tol * (|x_i| + tol) for every i, on Python floats: the
    same IEEE operations as on the arrays, without their per-call cost."""
    tol = _STEP_TOLERANCE
    return all(abs(di) <= tol * (abs(xi) + tol)
               for di, xi in zip(delta.tolist(), x.tolist()))


@np.errstate(over="ignore")
def _trial_rss(r: np.ndarray) -> float:
    """r @ r, and inf with no warning where finite residuals overflow it."""
    return float(r @ r)


def levenberg_marquardt(problem: ResidualProblem, x0: np.ndarray) -> NlsResult:
    """Minimize ||r(p)||^2 from x0.

    Solves (J^T J + lam*diag(J^T J)) delta = -J^T r each iteration, with J
    from ``problem.jac`` at the current point, whose residual was the last
    one evaluated; a non-finite J raises NonFiniteResidual. J is only read,
    and not after the next call to ``problem.jac``, so a problem may return
    one array that it overwrites; each ``problem.fun`` result must be its
    own array, as the current and the trial residual are held at once.
    diag(J^T J) and -J^T r are formed once an iteration, whatever the
    number of damping steps. A trial point with non-finite residuals has a
    non-finite sum of squares, which is not below the current one, so its
    step is rejected; so is one whose finite residuals' sum of squares
    overflows to inf. If no acceptable step exists even at maximum damping
    the solve stops at the current (best) point with a STEP_SMALL
    termination.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n_params,):
        raise ValueError(f"x0 must have length {problem.n_params}")
    r = np.asarray(problem.fun(x), dtype=float)
    if not np.isfinite(r).all():
        raise NonFiniteResidual("residuals non-finite at the starting point")
    rss = float(r @ r)
    history = [rss]
    lam = _INITIAL_DAMPING
    termination = Termination.MAX_ITERATIONS
    iterations = 0

    for it in range(1, _MAX_ITERATIONS + 1):
        iterations = it
        J = np.asarray(problem.jac(x), dtype=float)
        if not np.isfinite(J).all():
            raise NonFiniteResidual("non-finite analytic Jacobian")
        g = J.T @ r
        if np.max(np.abs(g)) < _GRADIENT_TOLERANCE:
            termination = Termination.GRADIENT_SMALL
            break
        A = J.T @ J
        d = np.diag(A).copy()
        d[d <= 0] = 1.0
        scaling, descent = np.diag(d), -g

        accepted = False
        while True:
            try:
                delta = np.linalg.solve(A + lam * scaling, descent)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                x_try = x + delta
                r_try = np.asarray(problem.fun(x_try), dtype=float)
                rss_try = _trial_rss(r_try)
                if rss_try < rss:
                    accepted = True
                    x_new, r_new, rss_new = x_try, r_try, rss_try
                    break
            if delta is not None and _step_small(delta, x):
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
        if _step_small(delta, x):
            termination = Termination.STEP_SMALL
            break

    return NlsResult(params=x, rss=rss, iterations=iterations,
                     converged=termination is not Termination.MAX_ITERATIONS,
                     termination=termination, rss_history=history)
