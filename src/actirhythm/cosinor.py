"""Two-stage circadian curve fitting.

Stage 1 projects the (optionally log1p-transformed) activity onto a 24 h
cosine by linear least squares. Stage 2 refines the sigmoidally transformed
cosine by Levenberg-Marquardt with its closed-form Jacobian, over an
unconstrained reparameterization: amplitude = exp(w), alpha = tanh(u),
beta = exp(v); min and phase are free and phase is reported mod 24.

Both stages fit the minute-of-day mean profile on the fitting scale
(preprocess.day_profile) weighted by day count rather than every valid
minute. The model is 24 h-periodic and every sample sits
at a minute midpoint t = 24d + (m + 1/2)/60, so for any mask
sum (y - f)^2 = sum_m n_m (ybar_m - f(t_m))^2 + C, where C is the
within-minute sum of squares: the fits are those of the full data, and the
reported rss adds C back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curve
from .curve import antilogistic  # re-exported; stable sigmoid
from .errors import InsufficientSpan
from .nls import NlsOptions, ResidualProblem, levenberg_marquardt, linear_least_squares
from .preprocess import MINUTES_PER_DAY, TRANSFORMS, ActivitySeries, DayProfile, day_profile

__all__ = [
    "FitConfig", "LinearCosinorFit", "SigmoidalCosinorFit", "antilogistic",
    "model_value", "fit_linear_cosinor", "initial_sigmoidal_params",
    "fit_sigmoidal_cosinor", "export_fitted_curve",
]

_OMEGA = 2.0 * np.pi / 24.0
# |u| or |v| beyond this means tanh/exp is pinned at its numerical limit
_BOUND_LIMIT = 20.0

# Tighter than the generic NlsOptions defaults: parameter recovery on
# noiseless series should be limited by float precision, not the stop rule.
_FIT_OPTIONS = NlsOptions(max_iterations=400, gradient_tolerance=1e-12,
                          step_tolerance=1e-14, initial_damping=1e-3)


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


def _fit_data(series: ActivitySeries, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clock hours and transformed counts of the valid recorded minutes, in
    time order; hours count 24 per grid row, so t mod 24 is time of day."""
    rows = np.flatnonzero(series.day_valid)
    scaled = TRANSFORMS[config.transform](series.grid[rows])
    recorded = ~np.isnan(scaled)
    hours = rows[:, None] * 24.0 + (np.arange(MINUTES_PER_DAY) + 0.5) / 60.0
    return hours[recorded], scaled[recorded]


def fit_linear_cosinor(series: ActivitySeries,
                       config: FitConfig = FitConfig()) -> LinearCosinorFit:
    """Least-squares projection onto [1, cos, sin] of 24 h period."""
    t, _ = _fit_data(series, config)
    if t.size < 3 or (t.max() - t.min()) <= 12.0:
        raise InsufficientSpan(
            "need at least 3 valid minutes spanning more than 12 hours")
    profile = day_profile(series, config.transform)
    weight = np.sqrt(profile.counts)
    angle = _OMEGA * profile.t
    design = weight[:, None] * np.column_stack(
        [np.ones(angle.size), np.cos(angle), np.sin(angle)])
    b0, bc, bs = linear_least_squares(design, weight * profile.means)
    amplitude = math.hypot(bc, bs)
    if amplitude <= 1e-12 * max(1.0, abs(b0)):
        acrophase = 0.0
    else:
        acrophase = (math.atan2(bs, bc) / _OMEGA) % 24.0
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


def _degenerate_fit(y: np.ndarray, config: FitConfig, n_points: int) -> SigmoidalCosinorFit:
    level = float(y[0])
    return SigmoidalCosinorFit(min=level, amplitude=0.0, alpha=0.0, beta=2.0,
                               phase=0.0, mesor=level, rss=0.0, converged=False,
                               n_points=n_points, degenerate=True,
                               transform=config.transform)


def _profile_problem(profile: DayProfile) -> ResidualProblem:
    """Residual sqrt(n_m) * (ybar_m - f(t_m)) over (min, w, phase, u, v),
    with its closed-form Jacobian."""
    t = profile.t
    weight = np.sqrt(profile.counts)
    weighted_means = weight * profile.means

    # a trial step may overflow exp(w) or exp(v); LM rejects the non-finite
    # result, so the overflow is expected and not reported
    def residual(p: np.ndarray) -> np.ndarray:
        min_, w, phase, u, v = p
        with np.errstate(over="ignore"):
            amplitude, beta = np.exp(w), np.exp(v)
        return weighted_means - weight * curve.evaluate(
            t, min_, amplitude, np.tanh(u), beta, phase)

    def jac(p: np.ndarray) -> np.ndarray:
        _, w, phase, u, v = p
        with np.errstate(over="ignore"):
            amplitude, beta = np.exp(w), np.exp(v)
        alpha = np.tanh(u)
        angle = (t - phase) * _OMEGA
        cos = np.cos(angle)
        s = antilogistic(cos, alpha, beta)
        # s(1 - s) * beta tends to 0 where s saturates; at beta = inf the
        # product there is 0 * inf = nan, so take the limit instead
        with np.errstate(invalid="ignore"):
            slope = np.where((s > 0.0) & (s < 1.0),
                             amplitude * s * (1.0 - s) * beta, 0.0)
        df = np.column_stack([
            np.ones(t.size),                          # d/d min
            amplitude * s,                            # d/dw
            slope * _OMEGA * np.sin(angle),           # d/d phase
            -slope * (1.0 - alpha * alpha),           # d/du
            slope * (cos - alpha),                    # d/dv
        ])
        return -weight[:, None] * df

    return ResidualProblem(residual, 5, t.size, jac=jac)


def fit_sigmoidal_cosinor(series: ActivitySeries,
                          config: FitConfig = FitConfig()) -> SigmoidalCosinorFit:
    """Two-stage fit of the sigmoidally transformed cosine.

    Stage 2 runs Levenberg-Marquardt with the fixed _FIT_OPTIONS from
    config.multistart phase-rotated starts and keeps the lowest rss. A fit
    whose amplitude collapses below 1e-9 of the data range is returned
    with degenerate=True and converged=False rather than raised. Fewer than
    5 populated minutes of day raise InsufficientSpan.
    """
    _, y = _fit_data(series, config)
    data_range = float(y.max() - y.min()) if y.size else 0.0
    if y.size and data_range == 0.0:
        return _degenerate_fit(y, config, int(y.size))

    linear = fit_linear_cosinor(series, config)
    profile = day_profile(series, config.transform)
    if profile.t.size < 5:
        raise InsufficientSpan("need at least 5 distinct valid minutes of day")
    seed = initial_sigmoidal_params(linear, config.transform)
    amp0 = max(seed[1], 1e-3 * data_range)  # log reparameterization needs > 0

    problem = _profile_problem(profile)
    best = None
    for k in range(config.multistart):
        phase0 = seed[2] + 24.0 * k / config.multistart
        x0 = np.array([seed[0], np.log(amp0), phase0,
                       np.arctanh(seed[3]), np.log(seed[4])])
        result = levenberg_marquardt(problem, x0, _FIT_OPTIONS)
        if best is None or result.rss < best.rss:
            best = result

    min_, w, phase, u, v = best.params
    amplitude = float(np.exp(w))
    alpha = float(np.clip(np.tanh(u), -(1.0 - 1e-12), 1.0 - 1e-12))
    beta = float(np.exp(v))
    phase = float(phase % 24.0)
    degenerate = amplitude < 1e-9 * data_range
    at_bound = abs(u) > _BOUND_LIMIT or abs(v) > _BOUND_LIMIT
    return SigmoidalCosinorFit(
        min=float(min_), amplitude=amplitude, alpha=alpha, beta=beta,
        phase=phase, mesor=float(min_) + amplitude / 2.0,
        rss=float(best.rss) + profile.within_ss,
        converged=bool(best.converged and not degenerate),
        n_points=int(y.size), degenerate=degenerate, at_bound=at_bound,
        transform=config.transform)


def export_fitted_curve(fit: SigmoidalCosinorFit,
                        resolution: float = 1.0) -> np.ndarray:
    """Sample the fitted curve over one 24 h cycle at ``resolution`` minutes;
    returns an (n, 2) array of (hours, value)."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    minutes = np.arange(0.0, 1440.0, resolution)
    t = minutes / 60.0
    return np.column_stack([t, model_value(t, fit)])
