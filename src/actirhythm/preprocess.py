"""Vector-magnitude conversion, non-wear detection, invalid-day filtering,
and selection of the analysis window.

A "day" is a calendar day (midnight to midnight). Partial first/last days
are kept in the series but never qualify as analysis days. After
select_analysis_window the retained days are concatenated in time order and
need not be consecutive calendar dates; ``day_dates`` records the original
dates so that, e.g., successive-difference statistics can skip the joins.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta

import numpy as np

from .errors import CountOverflow, InsufficientData, NotMinuteEpoch
from .ingest import TriaxialSeries

MINUTES_PER_DAY = 1440


@dataclass(frozen=True, eq=False)
class ActivitySeries:
    """Minute-level vector-magnitude counts with per-day validity.

    ``values`` is the concatenation of the listed days; day d occupies
    ``values[day_starts[d]:day_starts[d+1]]`` (to the end for the last day).
    """

    subject_id: str
    start_time: datetime
    values: np.ndarray
    day_dates: tuple[date, ...]
    day_starts: tuple[int, ...]
    day_valid: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if values.min() < 0:
            raise ValueError("values must be non-negative")
        valid = np.asarray(self.day_valid, dtype=bool)
        if not (len(self.day_dates) == len(self.day_starts) == valid.size):
            raise ValueError("day bookkeeping lengths disagree")
        if self.day_starts[0] != 0 or any(
                a >= b for a, b in zip(self.day_starts, self.day_starts[1:])):
            raise ValueError("day_starts must be ascending from 0")
        if self.day_starts[-1] >= values.size:
            raise ValueError("day_starts exceed series length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "day_valid", valid)

    @classmethod
    def from_minutes(cls, subject_id: str, start_time: datetime,
                     values: np.ndarray) -> "ActivitySeries":
        """Build from a contiguous minute series; day boundaries fall at
        midnight (sub-minute offsets in start_time are ignored for
        bucketing)."""
        values = np.asarray(values, dtype=float)
        n = values.size
        offset = start_time.hour * 60 + start_time.minute
        starts = [0]
        nxt = MINUTES_PER_DAY - offset
        while nxt < n:
            starts.append(nxt)
            nxt += MINUTES_PER_DAY
        first = start_time.date()
        dates = tuple(first + timedelta(days=i) for i in range(len(starts)))
        return cls(subject_id=subject_id, start_time=start_time, values=values,
                   day_dates=dates, day_starts=tuple(starts),
                   day_valid=np.ones(len(starts), dtype=bool))

    @property
    def n_days(self) -> int:
        return len(self.day_dates)

    def day_length(self, d: int) -> int:
        end = self.day_starts[d + 1] if d + 1 < self.n_days else self.values.size
        return end - self.day_starts[d]

    def day_block(self, d: int) -> np.ndarray:
        end = self.day_starts[d + 1] if d + 1 < self.n_days else self.values.size
        return self.values[self.day_starts[d]:end]

    def day_offset_minutes(self, d: int) -> int:
        """Minute-of-day of the day's first sample."""
        if d == 0:
            return self.start_time.hour * 60 + self.start_time.minute
        return 0

    def is_complete_day(self, d: int) -> bool:
        return self.day_length(d) == MINUTES_PER_DAY and self.day_offset_minutes(d) == 0

    def valid_minutes_mask(self) -> np.ndarray:
        mask = np.zeros(self.values.size, dtype=bool)
        for d in range(self.n_days):
            if self.day_valid[d]:
                end = self.day_starts[d + 1] if d + 1 < self.n_days else self.values.size
                mask[self.day_starts[d]:end] = True
        return mask

    def time_hours(self) -> np.ndarray:
        """Clock time of each minute's midpoint, in hours, counting whole
        days from the first covered day (so t mod 24 is time of day)."""
        t = np.empty(self.values.size, dtype=float)
        for d in range(self.n_days):
            start = self.day_starts[d]
            length = self.day_length(d)
            m0 = self.day_offset_minutes(d)
            t[start:start + length] = d * 24.0 + (m0 + np.arange(length) + 0.5) / 60.0
        return t


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
        b_lo, b_hi = bout.start_index, bout.start_index + bout.length
        for d in range(series.n_days):
            d_lo = series.day_starts[d]
            d_hi = d_lo + series.day_length(d)
            if b_lo < d_hi and b_hi > d_lo:
                valid[d] = False
    return dataclasses.replace(series, day_valid=valid)


def select_analysis_window(series: ActivitySeries,
                           n_days: int = 5) -> ActivitySeries:
    """Restrict to the first ``n_days`` valid complete calendar days.

    Partial first/last days never qualify. The retained days are
    concatenated in time order; the result's start_time is midnight of the
    first retained date.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    kept = [d for d in range(series.n_days)
            if series.day_valid[d] and series.is_complete_day(d)]
    if len(kept) < n_days:
        raise InsufficientData(
            f"subject {series.subject_id!r}: {len(kept)} valid complete days, "
            f"need {n_days}")
    kept = kept[:n_days]
    values = np.concatenate([series.day_block(d) for d in kept])
    dates = tuple(series.day_dates[d] for d in kept)
    starts = tuple(i * MINUTES_PER_DAY for i in range(n_days))
    return ActivitySeries(
        subject_id=series.subject_id,
        start_time=datetime.combine(dates[0], time()),
        values=values, day_dates=dates, day_starts=starts,
        day_valid=np.ones(n_days, dtype=bool))
