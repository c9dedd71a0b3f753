"""Two-stage circadian curve fitting.

Stage 1 projects the (optionally log1p-transformed) activity onto a 24 h
cosine by linear least squares. Stage 2 refines the sigmoidally transformed
cosine by Levenberg-Marquardt with its closed-form Jacobian, over an
unconstrained reparameterization: amplitude = exp(w), alpha = tanh(u),
beta = exp(v); min and phase are free and phase is reported mod 24.

Both stages read an analysis window (preprocess.require_complete) and fit
its minute means on the fitting scale (preprocess.day_profile) at the
minute midpoints t_m (preprocess.MINUTE_MIDPOINTS), weighted by the scalar
sqrt(n) for n days. The model is 24 h-periodic and each sample sits at
t = 24d + t_m, so sum (y - f)^2 = n sum_m (ybar_m - f(t_m))^2 + C, where C
is the within-minute sum of squares: the fits are those of the full data,
and the reported rss adds C back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curve
from .curve import OMEGA, fold
from .nls import ResidualProblem, levenberg_marquardt, linear_least_squares
from .preprocess import (MINUTE_MIDPOINTS, TRANSFORMS, ActivitySeries, day_profile,
                         require_complete)

# |u| or |v| beyond this means tanh/exp is pinned at its numerical limit
_BOUND_LIMIT = 20.0


@dataclass(frozen=True)
class FitConfig:
    transform: str = "log1p"
    multistart: int = 1

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")


@dataclass(frozen=True)
class LinearCosinorFit:
    mesor: float
    amplitude: float
    acrophase: float  # hours in [0, 24)


@dataclass(frozen=True)
class SigmoidalCosinorFit:
    min: float
    amplitude: float
    alpha: float
    beta: float
    phase: float       # hours in [0, 24)
    mesor: float       # min + amplitude / 2
    rss: float
    converged: bool
    n_points: int
    degenerate: bool = False
    at_bound: bool = False
    transform: str = "log1p"


def model_value(t, fit: SigmoidalCosinorFit):
    """Fitted curve value at time t (hours); vectorized."""
    return curve.evaluate(t, fit.min, fit.amplitude, fit.alpha, fit.beta, fit.phase)


def fit_linear_cosinor(series: ActivitySeries, config: FitConfig = FitConfig(),
                       means: np.ndarray | None = None) -> LinearCosinorFit:
    """Least-squares projection of an analysis window onto [1, cos, sin] of
    24 h period. ``means``, when given, is day_profile(series,
    config.transform), made by the caller."""
    require_complete(series)
    if means is None:
        means = day_profile(series, config.transform)
    weight = np.sqrt(series.n_days)
    angle = OMEGA * MINUTE_MIDPOINTS
    design = weight * np.column_stack([np.ones(angle.size), np.cos(angle), np.sin(angle)])
    b0, bc, bs = linear_least_squares(design, weight * means)
    amplitude = math.hypot(bc, bs)
    if amplitude <= 1e-12 * max(1.0, abs(b0)):
        acrophase = 0.0
    else:
        acrophase = fold(math.atan2(bs, bc) / OMEGA, 24.0)
    return LinearCosinorFit(mesor=float(b0), amplitude=float(amplitude),
                            acrophase=float(acrophase))


def initial_sigmoidal_params(linear: LinearCosinorFit,
                             transform: str = "log1p") -> np.ndarray:
    """Stage-2 starting point (min, amplitude, phase, alpha, beta) derived
    from the stage-1 cosine."""
    min0 = linear.mesor - linear.amplitude
    if transform == "raw" and min0 < 0:
        min0 = 0.0
    if linear.amplitude == 0.0:
        return np.array([linear.mesor, 0.0, 0.0, 0.0, 2.0])
    return np.array([min0, 2.0 * linear.amplitude, linear.acrophase, 0.0, 2.0])


def _profile_problem(means: np.ndarray, n_days: int) -> ResidualProblem:
    """Residual sqrt(n_days) * (ybar_m - f(t_m)) over (min, w, phase, u, v)
    at the minute midpoints t_m, with its closed-form Jacobian.

    Both write their elementwise steps into arrays made once per problem,
    in the operations and order of curve.evaluate and of the Jacobian's
    columns, so every bit is theirs; only np.where's selections are new
    arrays, as a masked write costs more. The residual returns a fresh
    array on every call, since LM holds the current and the trial residual
    at once. The Jacobian returns one (n, 5) array, which its callers only
    read and its next call overwrites.

    The residual keeps its terms (amplitude, beta, alpha, the sigmoid s,
    and the arrays angle, cos - alpha and amplitude * s) at the last point
    it was given, and the Jacobian at a point of the same bits reuses them:
    LM asks for J only at a point whose residual it has just evaluated. At
    any other point the Jacobian evaluates them first."""
    t = MINUTE_MIDPOINTS
    weight = np.sqrt(n_days)
    weighted_means = weight * means
    negative_weight = -weight
    angle, shifted, z, e, one_plus_e, upper, lower, amplitude_s, sine, work = np.empty(
        (10, t.size))
    jacobian = np.empty((t.size, 5))
    jacobian[:, 0] = negative_weight                  # -sqrt(n_days) * d/d min
    # the bits of the last point given to the residual, and its scalar terms
    last = [b"", ()]

    # a trial step may overflow exp(w) or exp(v) to inf, and inf times a
    # zero sigmoid or cosine term is NaN; LM rejects the non-finite result,
    # so neither is reported
    def terms(p: np.ndarray) -> tuple:
        """(min, amplitude, beta, alpha, s) at p, by the steps of
        curve.evaluate, which also fill the arrays."""
        min_, w, phase, u, v = p
        with np.errstate(over="ignore", invalid="ignore"):
            amplitude, beta = np.exp(w), np.exp(v)
            alpha = np.tanh(u)
            np.subtract(t, phase, out=angle)
            np.multiply(angle, OMEGA, out=angle)
            # antilogistic(cos(angle), alpha, beta), with 1 + e formed once
            np.subtract(np.cos(angle, out=shifted), alpha, out=shifted)
            np.multiply(beta, shifted, out=z)
            np.exp(np.copysign(z, -1.0, out=e), out=e)          # exp(-|z|)
            np.add(1.0, e, out=one_plus_e)
            s = np.where(z >= 0.0, np.divide(1.0, one_plus_e, out=upper),
                         np.divide(e, one_plus_e, out=lower))
            np.multiply(amplitude, s, out=amplitude_s)
        last[:] = [np.asarray(p, dtype=float).tobytes(), (min_, amplitude, beta, alpha, s)]
        return last[1]

    def residual(p: np.ndarray) -> np.ndarray:
        min_ = terms(p)[0]
        np.add(min_, amplitude_s, out=work)
        np.multiply(weight, work, out=work)
        return weighted_means - work

    def jac(p: np.ndarray) -> np.ndarray:
        same = last[0] == np.asarray(p, dtype=float).tobytes()
        _, amplitude, beta, alpha, s = last[1] if same else terms(p)
        # s(1 - s) * beta tends to 0 where s saturates; at beta = inf the
        # product there is 0 * inf = nan, so take the limit instead
        with np.errstate(invalid="ignore"):
            np.subtract(1.0, s, out=work)
            np.multiply(amplitude_s, work, out=work)
            slope = np.where((s > 0.0) & (s < 1.0), np.multiply(work, beta, out=work), 0.0)
        # column j is -sqrt(n_days) times d/d(w, phase, u, v)
        columns = jacobian.T
        np.multiply(negative_weight, amplitude_s, out=columns[1])
        np.multiply(slope, OMEGA, out=work)
        np.multiply(work, np.sin(angle, out=sine), out=work)
        np.multiply(negative_weight, work, out=columns[2])
        np.negative(slope, out=work)
        np.multiply(work, 1.0 - alpha * alpha, out=work)
        np.multiply(negative_weight, work, out=columns[3])
        np.multiply(slope, shifted, out=work)
        np.multiply(negative_weight, work, out=columns[4])
        return jacobian

    return ResidualProblem(residual, 5, t.size, jac)


def fit_sigmoidal_cosinor(series: ActivitySeries,
                          config: FitConfig = FitConfig()) -> SigmoidalCosinorFit:
    """Two-stage fit of the sigmoidally transformed cosine to an analysis window.

    Stage 2 runs Levenberg-Marquardt (nls, with its fixed stop rules) from
    config.multistart phase-rotated starts and keeps the lowest rss. A
    series constant on the fitting scale, or a fit whose amplitude collapses
    below 1e-9 of that scale's range, is returned with degenerate=True and
    converged=False rather than raised. A fit whose rss is not finite, as
    for counts near the float limit, is not converged either.
    """
    require_complete(series)
    scaled = TRANSFORMS[config.transform](series.grid)
    low = scaled.min()
    data_range = float(scaled.max() - low)
    if data_range == 0.0:
        return SigmoidalCosinorFit(
            min=float(low), amplitude=0.0, alpha=0.0, beta=2.0, phase=0.0,
            mesor=float(low), rss=0.0, converged=False, n_points=scaled.size,
            degenerate=True, transform=config.transform)

    means = scaled.sum(axis=0) / series.n_days   # day_profile, from the scaled grid
    linear = fit_linear_cosinor(series, config, means)
    seed = initial_sigmoidal_params(linear, config.transform)
    amp0 = max(seed[1], 1e-3 * data_range)  # log reparameterization needs > 0

    problem = _profile_problem(means, series.n_days)
    best = None
    for k in range(config.multistart):
        phase0 = seed[2] + 24.0 * k / config.multistart
        x0 = np.array([seed[0], np.log(amp0), phase0,
                       np.arctanh(seed[3]), np.log(seed[4])])
        result = levenberg_marquardt(problem, x0)
        if best is None or result.rss < best.rss:
            best = result

    min_, w, phase, u, v = best.params
    amplitude = float(np.exp(w))
    alpha = float(np.clip(np.tanh(u), -(1.0 - 1e-12), 1.0 - 1e-12))
    beta = float(np.exp(v))
    degenerate = amplitude < 1e-9 * data_range
    at_bound = bool(abs(u) > _BOUND_LIMIT or abs(v) > _BOUND_LIMIT)
    rss = float(best.rss) + float(np.sum((scaled - means) ** 2))
    return SigmoidalCosinorFit(
        min=float(min_), amplitude=amplitude, alpha=alpha, beta=beta,
        phase=fold(phase, 24.0), mesor=float(min_) + amplitude / 2.0, rss=rss,
        converged=bool(best.converged and not degenerate and math.isfinite(rss)),
        n_points=scaled.size, degenerate=degenerate, at_bound=at_bound,
        transform=config.transform)
