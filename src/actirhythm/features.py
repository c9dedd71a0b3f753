"""Statistical activity features: mean/SD, M10, L5, relative amplitude,
RMSSD, RMSSD/SD, and immobile minutes per day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curve import fold
from .errors import BothZero
from .preprocess import MINUTES_PER_DAY, ActivitySeries, day_profile, require_complete


@dataclass(frozen=True)
class FeatureConfig:
    immobile_threshold: float = 0.0
    per_day: bool = False          # M10/L5 per day then averaged across days
    ra_raw_sums: bool = False      # literal (m10-l5)/(m10+l5) on raw sums


@dataclass(frozen=True, eq=False)
class MinuteProfile:
    """Across-day mean count for each minute of day (length 1440)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (MINUTES_PER_DAY,):
            raise ValueError("profile must have exactly 1440 values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ActivityFeatures:
    mean: float
    sd: float
    m10: float
    t_m10: float
    l5: float
    t_l5: float
    ra: float
    rmssd: float
    rmssd_sd: float
    immobile_minutes: float

    FIELDS = ("mean", "sd", "m10", "t_m10", "l5", "t_l5", "ra", "rmssd",
              "rmssd_sd", "immobile_minutes")


def minute_profile(series: ActivitySeries) -> MinuteProfile:
    """Mean count per minute-of-day over an analysis window's days."""
    return MinuteProfile(day_profile(series))


def _candidates(wrapped: np.ndarray, width: int, mode: str):
    """The starts of one wrapped row that the running-sum screen of
    _window_extreme keeps, in start order, or None when every window is to
    be summed."""
    with np.errstate(over="ignore"):
        total = float(np.abs(wrapped).sum())
    if not math.isfinite(4.0 * total):
        return None
    running = np.empty(wrapped.size + 1)
    running[0] = 0.0
    np.cumsum(wrapped, out=running[1:])
    approx = running[width:] - running[:-width]
    tau = 2.0 * (2 * wrapped.size + width + 4) * 2.0 ** -53 * total
    if mode == "max":
        starts = np.flatnonzero(approx >= approx.max() - 2.0 * tau)
    else:
        starts = np.flatnonzero(approx <= approx.min() + 2.0 * tau)
    return starts if 8 * starts.size <= approx.size else None


def _window_extreme(values: np.ndarray, width: int, mode: str):
    """Extreme circular window sum and its start along the last axis.

    Each window's sum is numpy's pairwise sum of its values, as
    ``sliding_window_view(...).sum(-1)`` gives it, and ties break to the
    smallest start. Only the candidates of a screen are summed that way:
    one cumulative sum of the wrapped row gives every window an
    approximate sum, a difference of two running sums. With u = 2^-53,
    N the wrapped row's length, S = sum |wrapped| and g_k = k*u/(1 - k*u),
    each running sum is within g_N * S of its exact value and a window's
    pairwise sum within g_width * S, so an approximation is within
    (2*g_N + g_width + 2*u) * S of the sum numpy reports. tau is twice
    that bound, which also covers the rounding of S, of tau and of the
    threshold; every start whose sum is the extreme then has an
    approximation within 2*tau of the extreme approximation, and the
    candidates are those starts. A row whose 4 * S is not finite (so a
    difference could overflow, or the row holds a NaN or an infinity) sums
    every window, as does a row with more than an eighth of its starts
    candidates, such as a flat one, where that costs no more.
    """
    n = values.shape[-1]
    if not 1 <= width <= n:
        raise ValueError(f"width must be in [1, {n}], got {width}")
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    wrapped = np.concatenate([values, values[..., : width - 1]], axis=-1)
    pick = np.argmax if mode == "max" else np.argmin
    extremes = np.empty(values.shape[:-1])
    starts = np.empty(values.shape[:-1], dtype=np.intp)
    for row in np.ndindex(extremes.shape):
        candidates = _candidates(wrapped[row], width, mode)
        if candidates is None:
            sums = sliding_window_view(wrapped[row], width).sum(axis=-1)
        else:
            sums = wrapped[row][candidates[:, None] + np.arange(width)].sum(axis=-1)
        best = pick(sums)
        extremes[row] = sums[best]
        starts[row] = best if candidates is None else candidates[best]
    return extremes, starts


def window_extreme(profile: MinuteProfile, width: int, mode: str) -> tuple[float, int]:
    """Extreme circular window sum over all 1440 start minutes.

    Ties break to the smallest start minute.
    """
    total, start = _window_extreme(profile.values, width, mode)
    return float(total), int(start)


def relative_amplitude(m10: float, l5: float, raw_sums: bool = False) -> float:
    """(M10 - L5) / (M10 + L5) with L5 rescaled to the 10 h duration, so a
    flat profile scores 0. ``raw_sums`` applies the formula to the raw
    600- and 300-minute sums instead.
    """
    if m10 < 0 or l5 < 0:
        raise ValueError("window sums must be non-negative")
    scaled = l5 if raw_sums else 2.0 * l5
    if m10 + scaled == 0:
        raise BothZero("M10 and L5 are both zero")
    return (m10 - scaled) / (m10 + scaled)


def rmssd(series: ActivitySeries) -> float:
    """Root mean square of successive differences over an analysis window's
    minutes; pairs that span a removed day are excluded."""
    require_complete(series)
    grid, dates = series.grid, series.day_dates
    total, count = 0.0, 0
    # each day, then its join to the next, added in time order
    for d in range(series.n_days):
        row = grid[d]
        diffs = np.diff(row)
        total += diffs @ diffs
        count += diffs.size
        if d + 1 < len(dates) and (dates[d + 1] - dates[d]).days == 1:
            step = grid[d + 1, 0] - row[-1]
            total += step * step
            count += 1
    return math.sqrt(total / count)


def immobile_minutes(series: ActivitySeries, threshold: float = 0.0) -> float:
    """An analysis window's minutes at or below the threshold, per day."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    require_complete(series)
    return float(np.count_nonzero(series.grid <= threshold)) / series.n_days


def _circular_mean_minute(starts: np.ndarray) -> float:
    theta = 2.0 * np.pi * np.asarray(starts, dtype=float) / MINUTES_PER_DAY
    c, s = np.cos(theta).mean(), np.sin(theta).mean()
    if math.hypot(c, s) < 1e-12:
        return 0.0
    return fold(math.atan2(s, c) * MINUTES_PER_DAY / (2.0 * np.pi), MINUTES_PER_DAY)


def compute_features(series: ActivitySeries,
                     config: FeatureConfig = FeatureConfig()) -> ActivityFeatures:
    """Full feature battery for an analysis window.

    ``rmssd_sd`` is NaN when the series is constant (sd = 0).
    """
    require_complete(series)
    mean = float(series.grid.mean())
    sd = float(series.grid.std())

    if config.per_day:
        m10s, t10s = _window_extreme(series.grid, 600, "max")
        l5s, t5s = _window_extreme(series.grid, 300, "min")
        m10 = float(np.mean(m10s))
        l5 = float(np.mean(l5s))
        t_m10 = _circular_mean_minute(t10s)
        t_l5 = _circular_mean_minute(t5s)
    else:
        profile = minute_profile(series)
        m10, t10 = window_extreme(profile, 600, "max")
        l5, t5 = window_extreme(profile, 300, "min")
        t_m10 = float(t10)
        t_l5 = float(t5)

    ra = relative_amplitude(m10, l5, raw_sums=config.ra_raw_sums)
    rm = rmssd(series)
    rmssd_sd = rm / sd if sd > 0 else float("nan")
    immobile = immobile_minutes(series, config.immobile_threshold)
    return ActivityFeatures(mean=mean, sd=sd, m10=m10, t_m10=t_m10, l5=l5,
                            t_l5=t_l5, ra=ra, rmssd=rm, rmssd_sd=rmssd_sd,
                            immobile_minutes=immobile)
