"""Vector-magnitude conversion, non-wear detection, invalid-day filtering,
selection of the analysis window, and the minute-of-day profile.

A recording is held on a calendar-day grid: an (n_days, 1440) array of
calendar days (midnight to midnight) by minute of day, NaN outside the
recording. Partial first/last days never qualify as analysis days. The
analysis window is a selection of rows that need not be consecutive
calendar dates; ``day_dates`` records them so that, e.g.,
successive-difference statistics can skip the joins. ``day_profile`` is
the one minute-of-day profile that features, fits and figures read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import date, datetime, time
from typing import NamedTuple

import numpy as np

from .errors import CountOverflow, InsufficientData, NotMinuteEpoch
from .ingest import TriaxialSeries

MINUTES_PER_DAY = 1440

# The scales a profile or a fit can work on, by FitConfig.transform name.
TRANSFORMS = {"raw": np.asarray, "log1p": np.log1p}


@dataclass(frozen=True, eq=False)
class ActivitySeries:
    """Minute-level vector-magnitude counts on a calendar-day grid.

    ``grid`` row d holds day ``day_dates[d]``; the recorded minutes are one
    run that starts in row 0 at start_time's minute of day, and every other
    cell is NaN. ``values`` is that run in time order, a view of the grid.
    """

    subject_id: str
    start_time: datetime
    grid: np.ndarray
    day_dates: tuple[date, ...]
    day_valid: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != MINUTES_PER_DAY:
            raise ValueError("grid must be an (n_days, 1440) array")
        flat = grid.reshape(-1)
        n = int(np.count_nonzero(~np.isnan(flat)))
        values = flat[self.offset:self.offset + n]
        if (n < 1 or values.size < n or not np.all(np.isfinite(values))
                or self.offset + n <= flat.size - MINUTES_PER_DAY):
            raise ValueError("the recorded minutes must be one run of finite "
                             "values from start_time that ends in the last row")
        if values.min() < 0:
            raise ValueError("values must be non-negative")
        valid = np.asarray(self.day_valid, dtype=bool)
        if not (len(self.day_dates) == grid.shape[0] == valid.size):
            raise ValueError("day bookkeeping lengths disagree")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "day_valid", valid)

    @classmethod
    def from_minutes(cls, subject_id: str, start_time: datetime,
                     values: np.ndarray) -> "ActivitySeries":
        """Build from a contiguous minute series; day boundaries fall at
        midnight (sub-minute offsets in start_time are ignored for
        bucketing)."""
        values = np.asarray(values, dtype=float)
        # a NaN here would read as a minute outside the recording
        if values.ndim != 1 or values.size < 1 or np.isnan(values).any():
            raise ValueError("values must be a non-empty 1-d array without NaN")
        offset = start_time.hour * 60 + start_time.minute
        n_days = -(-(offset + values.size) // MINUTES_PER_DAY)
        grid = np.full((n_days, MINUTES_PER_DAY), np.nan)
        grid.reshape(-1)[offset:offset + values.size] = values
        dates = np.datetime64(start_time.date()) + np.arange(n_days)
        return cls(subject_id=subject_id, start_time=start_time, grid=grid,
                   day_dates=tuple(dates.astype(object)),
                   day_valid=np.ones(n_days, dtype=bool))

    @property
    def n_days(self) -> int:
        return self.grid.shape[0]

    @property
    def offset(self) -> int:
        """Index of values[0] in the flattened grid."""
        return self.start_time.hour * 60 + self.start_time.minute

    def analysis_days(self) -> np.ndarray:
        """Rows that are valid and recorded from midnight to midnight: the
        days an analysis window may use."""
        return np.flatnonzero(self.day_valid & ~np.isnan(self.grid).any(axis=1))


class DayProfile(NamedTuple):
    """The recorded minutes of the valid days binned by minute of day; only
    populated minutes are listed."""

    t: np.ndarray          # bin midpoint, hours in (0, 24)
    counts: np.ndarray     # n_m, samples in the bin
    means: np.ndarray      # ybar_m
    within_ss: float       # C = sum of (y - ybar_m)^2 over all samples


def day_profile(series: ActivitySeries, transform: str = "raw") -> DayProfile:
    """Minute-of-day profile of the valid days on a TRANSFORMS scale.

    A bin sums its days in time order and C its minutes in time order, as
    a running sum over the minutes would.
    """
    rows = TRANSFORMS[transform](series.grid[series.day_valid])
    recorded = ~np.isnan(rows)
    counts = recorded.sum(axis=0)
    bins = np.flatnonzero(counts)
    means = np.zeros(MINUTES_PER_DAY)
    means[bins] = np.nansum(rows, axis=0)[bins] / counts[bins]
    within_ss = float(np.sum((rows - means)[recorded] ** 2))
    return DayProfile((bins + 0.5) / 60.0, counts[bins], means[bins], within_ss)


@dataclass(frozen=True)
class NonwearBout:
    """Maximal run of zero-count minutes (start index into values)."""

    start_index: int
    length: int


def vector_magnitude(x, y, z):
    """sqrt(x^2 + y^2 + z^2); vectorized."""
    out = np.sqrt(np.asarray(x, dtype=float) ** 2
                  + np.asarray(y, dtype=float) ** 2
                  + np.asarray(z, dtype=float) ** 2)
    if np.ndim(out) == 0:
        return float(out)
    return out


def to_activity_series(series: TriaxialSeries) -> ActivitySeries:
    if series.epoch_length != 60:
        raise NotMinuteEpoch(
            f"expected 60 s epochs, got {series.epoch_length} s; aggregate first")
    if len(series) < 1:
        raise NotMinuteEpoch("empty series")
    with np.errstate(over="ignore"):
        vm = vector_magnitude(series.samples[:, 0], series.samples[:, 1],
                              series.samples[:, 2])
    if not np.all(np.isfinite(vm)):
        raise CountOverflow(f"subject {series.subject_id!r}: vector magnitude overflows")
    return ActivitySeries.from_minutes(series.subject_id, series.start_time, vm)


def _zero_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    padded = np.concatenate(([0], mask.astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    return [(int(edges[i]), int(edges[i + 1] - edges[i]))
            for i in range(0, len(edges), 2)]


def detect_nonwear_bouts(series: ActivitySeries, min_bout: int = 60,
                         tolerance: int = 0) -> list[NonwearBout]:
    """Maximal runs of zero-count minutes strictly longer than ``min_bout``.

    ``tolerance`` > 0 merges zero runs separated by short non-zero gaps, a
    per-bout budget of interrupted minutes; the default of 0 is the plain
    zero-run rule.
    """
    if min_bout < 1:
        raise ValueError("min_bout must be >= 1")
    runs = _zero_runs(series.values == 0)
    if tolerance > 0 and len(runs) > 1:
        merged = []
        cur_start, cur_len = runs[0]
        budget = tolerance
        for start, length in runs[1:]:
            gap = start - (cur_start + cur_len)
            if gap <= budget:
                budget -= gap
                cur_len = start + length - cur_start
            else:
                merged.append((cur_start, cur_len))
                cur_start, cur_len = start, length
                budget = tolerance
        merged.append((cur_start, cur_len))
        runs = merged
    return [NonwearBout(start, length) for start, length in runs
            if length > min_bout]


def filter_invalid_days(series: ActivitySeries,
                        bouts: list[NonwearBout]) -> ActivitySeries:
    """Mark every calendar day intersecting a bout as invalid."""
    valid = series.day_valid.copy()
    for bout in bouts:
        first = series.offset + bout.start_index
        valid[first // MINUTES_PER_DAY:
              (first + bout.length - 1) // MINUTES_PER_DAY + 1] = False
    return dataclasses.replace(series, day_valid=valid)


def select_analysis_window(series: ActivitySeries,
                           n_days: int = 5) -> ActivitySeries:
    """Restrict to the first ``n_days`` valid complete calendar days.

    Partial first/last days never qualify. The retained rows keep their
    time order; the result's start_time is midnight of the first retained
    date.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    kept = series.analysis_days()
    if kept.size < n_days:
        raise InsufficientData(
            f"subject {series.subject_id!r}: {kept.size} valid complete days, "
            f"need {n_days}")
    kept = kept[:n_days]
    dates = tuple(series.day_dates[d] for d in kept)
    return ActivitySeries(
        subject_id=series.subject_id,
        start_time=datetime.combine(dates[0], time()),
        grid=series.grid[kept], day_dates=dates,
        day_valid=np.ones(n_days, dtype=bool))
