"""Statistical activity features: mean/SD, M10, L5, relative amplitude,
RMSSD, RMSSD/SD, and immobile minutes per day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BothZero, IncompleteDays, InsufficientData, TooShort
from .preprocess import MINUTES_PER_DAY, ActivitySeries, day_profile


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


def _require_complete(series: ActivitySeries) -> None:
    if series.analysis_days().size < series.n_days:
        raise IncompleteDays("series contains invalid or partial days")


def minute_profile(series: ActivitySeries) -> MinuteProfile:
    """Mean count per minute-of-day over the (complete, valid) days."""
    _require_complete(series)
    return MinuteProfile(day_profile(series).means)


def _window_extreme(values: np.ndarray, width: int, mode: str):
    """Extreme circular window sum and its start along the last axis."""
    n = values.shape[-1]
    if not 1 <= width <= n:
        raise ValueError(f"width must be in [1, {n}], got {width}")
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    wrapped = np.concatenate([values, values[..., : width - 1]], axis=-1)
    sums = sliding_window_view(wrapped, width, axis=-1).sum(axis=-1)
    idx = np.argmax(sums, axis=-1) if mode == "max" else np.argmin(sums, axis=-1)
    return np.take_along_axis(sums, idx[..., None], axis=-1)[..., 0], idx


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
    """Root mean square of successive differences over valid minutes; pairs
    that span a removed day are excluded."""
    within = np.diff(series.grid, axis=1)
    recorded = ~np.isnan(within) & series.day_valid[:, None]
    within[~recorded] = 0.0
    n_within = recorded.sum(axis=1)
    # one dot product per day, each summed in the order `d @ d` sums it
    dots = np.matmul(within[:, None, :], within[:, :, None]).ravel()
    # only the first and last day can be partial; the zeros that pad them
    # in the grid would change how the dot product groups its terms
    diffs = np.diff(series.values)
    first, last = diffs[:n_within[0]], diffs[diffs.size - n_within[-1]:]
    dots[0], dots[-1] = first @ first, last @ last
    dates = np.array(series.day_dates, dtype="datetime64[D]")
    joined = (series.day_valid[1:] & series.day_valid[:-1]
              & (np.diff(dates) == np.timedelta64(1, "D")))
    steps = series.grid[1:, 0] - series.grid[:-1, -1]
    count = int(n_within.sum() + joined.sum())
    if count == 0:
        raise TooShort("need at least two consecutive valid minutes")
    # each day, then its join to the next, added in time order
    terms = np.zeros(2 * series.n_days - 1)
    terms[0::2] = dots
    terms[1::2] = np.where(joined, steps * steps, 0.0)
    return math.sqrt(np.cumsum(terms)[-1] / count)


def immobile_minutes(series: ActivitySeries, threshold: float = 0.0) -> float:
    """Valid minutes at or below the threshold, per valid day."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    n_valid_days = int(series.day_valid.sum())
    if n_valid_days == 0:
        raise InsufficientData("no valid days")
    immobile = np.count_nonzero(series.grid[series.day_valid] <= threshold)
    return float(immobile) / n_valid_days


def _circular_mean_minute(starts: np.ndarray) -> float:
    theta = 2.0 * np.pi * np.asarray(starts, dtype=float) / MINUTES_PER_DAY
    c, s = np.cos(theta).mean(), np.sin(theta).mean()
    if math.hypot(c, s) < 1e-12:
        return 0.0
    return float((math.atan2(s, c) * MINUTES_PER_DAY / (2.0 * np.pi)) % MINUTES_PER_DAY)


def compute_features(series: ActivitySeries,
                     config: FeatureConfig = FeatureConfig()) -> ActivityFeatures:
    """Full feature battery for a windowed series (complete valid days).

    ``rmssd_sd`` is NaN when the series is constant (sd = 0).
    """
    rows = series.grid[series.day_valid]
    values = rows[~np.isnan(rows)]
    mean = float(values.mean())
    sd = float(values.std())

    if config.per_day:
        _require_complete(series)
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
