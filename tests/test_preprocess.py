import dataclasses
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from actirhythm import errors
from actirhythm.cosinor import fit_linear_cosinor, fit_sigmoidal_cosinor
from actirhythm.features import compute_features, immobile_minutes, minute_profile, rmssd
from actirhythm.ingest import TriaxialSeries
from actirhythm.preprocess import (
    MINUTE_MIDPOINTS,
    ActivitySeries,
    day_profile,
    NonwearBout,
    detect_nonwear_bouts,
    filter_invalid_days,
    select_analysis_window,
    to_activity_series,
    vector_magnitude,
)
from conftest import make_series
from reference_impls import (
    LoopSeries,
    brute_zero_bouts,
    loop_filter_invalid_days,
    loop_fit_data,
    loop_minute_profile,
    loop_rmssd,
    loop_select_analysis_window,
)


class TestVectorMagnitude:
    @pytest.mark.parametrize("xyz,expected", [
        ((3, 4, 0), 5.0),
        ((0, 0, 0), 0.0),
        ((1, 2, 2), 3.0),
    ])
    def test_values(self, xyz, expected):
        assert vector_magnitude(*xyz) == pytest.approx(expected, abs=1e-12)

    @given(st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 1e6))] * 3))
    def test_dominates_components(self, xyz):
        assert vector_magnitude(*xyz) >= max(xyz) * (1 - 1e-12)


class TestToActivitySeries:
    def test_single_minute(self):
        tri = TriaxialSeries("s1", datetime(2016, 5, 1, 10, 0), 60,
                             np.array([[3.0, 4.0, 0.0]]))
        act = to_activity_series(tri)
        assert np.array_equal(act.values, [5.0])
        assert act.n_days == 1
        assert act.day_valid.all()

    def test_two_full_days_from_midnight(self):
        tri = TriaxialSeries("s1", datetime(2016, 5, 1), 60, np.ones((2880, 3)))
        act = to_activity_series(tri)
        assert act.n_days == 2
        assert act.day_dates == (date(2016, 5, 1), date(2016, 5, 2))

    def test_evening_start_spans_two_days(self):
        tri = TriaxialSeries("s1", datetime(2016, 5, 1, 23, 0), 60,
                             np.ones((1500, 3)))
        act = to_activity_series(tri)
        assert act.n_days == 2
        assert np.count_nonzero(~np.isnan(act.grid), axis=1).tolist() == [60, 1440]

    def test_overflowing_vector_magnitude_is_a_data_error(self):
        tri = TriaxialSeries("s1", datetime(2016, 5, 1), 60,
                             np.array([[1.0, 0.0, 0.0], [1e160, 1e160, 0.0]]))
        with pytest.raises(errors.CountOverflow):
            to_activity_series(tri)

    def test_rejects_non_minute_epoch(self):
        tri = TriaxialSeries("s1", datetime(2016, 5, 1), 30, np.ones((4, 3)))
        with pytest.raises(errors.NotMinuteEpoch):
            to_activity_series(tri)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50),
                              st.integers(0, 50)), min_size=1, max_size=100))
    def test_axis_permutation_invariance(self, rows):
        samples = np.array(rows, dtype=float)
        base = to_activity_series(
            TriaxialSeries("s1", datetime(2016, 5, 1), 60, samples))
        permuted = to_activity_series(
            TriaxialSeries("s1", datetime(2016, 5, 1), 60, samples[:, [2, 0, 1]]))
        assert np.array_equal(base.values, permuted.values)


class TestNonwear:
    def test_all_zero_day(self):
        s = make_series(np.zeros(1440))
        assert detect_nonwear_bouts(s, 60) == [NonwearBout(0, 1440)]

    def test_exactly_sixty_minutes_is_not_a_bout(self):
        values = np.ones(1440)
        values[100:160] = 0
        assert detect_nonwear_bouts(make_series(values), 60) == []

    def test_sixty_one_minutes_is_a_bout(self):
        values = np.ones(1440)
        values[100:161] = 0
        assert detect_nonwear_bouts(make_series(values), 60) == [NonwearBout(100, 61)]

    def test_two_separated_runs(self):
        values = np.ones(1440 * 2)
        values[100:161] = 0
        values[500:590] = 0
        bouts = detect_nonwear_bouts(make_series(values), 60)
        assert bouts == [NonwearBout(100, 61), NonwearBout(500, 90)]

    def test_tolerance_merges_short_interruptions(self):
        values = np.ones(1440)
        values[100:140] = 0
        values[141:180] = 0  # one active minute splits two 40-minute runs
        assert detect_nonwear_bouts(make_series(values), 60) == []
        merged = detect_nonwear_bouts(make_series(values), 60, tolerance=2)
        assert merged == [NonwearBout(100, 80)]

    def test_tolerance_merges_a_gap_equal_to_it(self):
        values = np.ones(1440)
        values[100:140] = 0
        values[142:182] = 0
        merged = detect_nonwear_bouts(make_series(values), 60, tolerance=2)
        assert merged == [NonwearBout(100, 82)]

    def test_tolerance_is_a_budget_per_bout(self):
        values = np.ones(1440)
        values[100:140] = 0
        values[141:170] = 0
        values[171:200] = 0  # two one-minute gaps
        assert detect_nonwear_bouts(make_series(values), 60, tolerance=1) == [
            NonwearBout(100, 70)]
        assert detect_nonwear_bouts(make_series(values), 60, tolerance=2) == [
            NonwearBout(100, 100)]

    @given(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=1, max_size=600),
           st.integers(1, 30))
    def test_matches_brute_force_scan(self, pattern, min_bout):
        values = np.asarray(pattern, dtype=float)
        got = detect_nonwear_bouts(make_series(values), min_bout)
        expected = brute_zero_bouts(values, min_bout)
        assert [(b.start_index, b.length) for b in got] == expected

    @given(st.lists(st.sampled_from([0, 0, 0, 2]), min_size=1, max_size=400),
           st.integers(1, 20))
    def test_bouts_maximal_and_disjoint(self, pattern, min_bout):
        values = np.asarray(pattern, dtype=float)
        bouts = detect_nonwear_bouts(make_series(values), min_bout)
        prev_end = -1
        for b in bouts:
            assert b.length > min_bout
            assert np.all(values[b.start_index:b.start_index + b.length] == 0)
            if b.start_index > 0:
                assert values[b.start_index - 1] != 0
            if b.start_index + b.length < values.size:
                assert values[b.start_index + b.length] != 0
            assert b.start_index > prev_end
            prev_end = b.start_index + b.length


class TestFilterInvalidDays:
    def test_bout_inside_one_day(self):
        values = np.ones(1440 * 5)
        values[2 * 1440 + 100:2 * 1440 + 220] = 0
        s = make_series(values)
        out = filter_invalid_days(s, detect_nonwear_bouts(s, 60))
        assert list(out.day_valid) == [True, True, False, True, True]

    def test_bout_spanning_midnight_invalidates_both(self):
        values = np.ones(1440 * 4)
        values[2 * 1440 - 40:2 * 1440 + 40] = 0
        s = make_series(values)
        out = filter_invalid_days(s, detect_nonwear_bouts(s, 60))
        assert list(out.day_valid) == [True, False, False, True]

    def test_no_bouts_is_identity(self):
        s = make_series(np.ones(1440 * 3))
        out = filter_invalid_days(s, [])
        assert np.array_equal(out.day_valid, s.day_valid)

    def test_idempotent(self):
        values = np.ones(1440 * 3)
        values[100:300] = 0
        s = make_series(values)
        bouts = detect_nonwear_bouts(s, 60)
        once = filter_invalid_days(s, bouts)
        twice = filter_invalid_days(once, bouts)
        assert np.array_equal(once.day_valid, twice.day_valid)


class TestSelectWindow:
    def test_first_five_of_seven(self):
        s = make_series(np.arange(1440 * 7, dtype=float))
        out = select_analysis_window(s, 5)
        assert out.values.size == 5 * 1440
        assert np.array_equal(out.values, s.values[:5 * 1440])
        assert out.day_dates == s.day_dates[:5]

    def test_skips_invalid_day(self):
        s = make_series(np.arange(1440 * 6, dtype=float))
        valid = s.day_valid.copy()
        valid[1] = False
        s = dataclasses.replace(s, day_valid=valid)
        out = select_analysis_window(s, 5)
        assert out.day_dates == tuple(s.day_dates[d] for d in (0, 2, 3, 4, 5))
        assert np.array_equal(out.values[1440:2880], s.values[2880:4320])

    def test_insufficient_days(self):
        s = make_series(np.ones(1440 * 3))
        with pytest.raises(errors.InsufficientData):
            select_analysis_window(s, 5)

    def test_partial_days_never_qualify(self):
        # starts at 23:00: day 0 is partial, day 6 is partial
        s = make_series(np.ones(60 + 1440 * 5 + 100),
                        start=datetime(2016, 5, 1, 23, 0))
        out = select_analysis_window(s, 5)
        assert out.values.size == 5 * 1440
        assert out.day_dates[0] == date(2016, 5, 2)
        assert out.start_time == datetime(2016, 5, 2)

    def test_output_contains_no_invalid_minutes(self):
        values = np.ones(1440 * 7)
        values[3 * 1440 + 10:3 * 1440 + 100] = 0
        s = make_series(values)
        s = filter_invalid_days(s, detect_nonwear_bouts(s, 60))
        out = select_analysis_window(s, 5)
        assert out.values.size == 5 * 1440
        assert out.day_valid.all()
        assert date(2016, 5, 4) not in out.day_dates
        assert np.all(out.values > 0)


@st.composite
def minute_series(draw):
    """A start time (midnight, 09:37 or 23:58) and 1 minute to 8 days of
    positive counts, with zero runs placed around midnights, some of them
    ending or starting exactly there, and around noons."""
    start_minute = draw(st.sampled_from([0, 577, 1438]))
    start = datetime(2016, 5, 1) + timedelta(minutes=start_minute)
    n = draw(st.integers(0, 7)) * 1440 + draw(st.integers(1, 1440))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.exponential(80.0, n)
    midnights = np.arange((1440 - start_minute) % 1440, n, 1440)
    extent = st.sampled_from([0, 61]) | st.integers(0, 200)
    runs = draw(st.lists(st.tuples(st.integers(0, 8), extent, extent,
                                   st.sampled_from([0, 720])), max_size=4))
    for k, before, after, shift in runs:
        if midnights.size:
            m = midnights[k % midnights.size] + shift
            values[max(0, m - before):m + after] = 0.0
    return start, values


EDGE_BOUT = np.r_[np.full(1440 - 61, 3.0), np.zeros(61), np.arange(1.0, 1500.0)]
GAP_DAY = np.arange(1.0, 5 * 1440.0 + 1)
GAP_DAY[2 * 1440:2 * 1440 + 100] = 0.0
INCOMPLETE = "series contains invalid or partial days"


def outcome(fn, *args):
    try:
        return fn(*args)
    except errors.DataError as exc:
        return type(exc), str(exc)


class TestGridMatchesDayLoops:
    """The calendar-day grid against the per-day loops it replaced."""

    @given(minute_series(), st.integers(1, 90), st.integers(1, 6))
    # a bout that ends exactly at midnight; windows with a removed day
    @example((datetime(2016, 5, 1), EDGE_BOUT), 60, 1)
    @example((datetime(2016, 5, 1, 9, 37), GAP_DAY), 60, 3)
    @example((datetime(2016, 5, 1), GAP_DAY), 60, 4)
    def test_days_window_rmssd_and_fit_data(self, drawn, min_bout, days):
        start, values = drawn
        series = ActivitySeries.from_minutes("s1", start, values)
        loop = LoopSeries.from_minutes("s1", start, values)
        bouts = detect_nonwear_bouts(series, min_bout)
        series = filter_invalid_days(series, bouts)
        loop = loop_filter_invalid_days(loop, bouts)
        assert series.day_dates == loop.day_dates
        assert series.day_valid.tolist() == loop.day_valid.tolist()
        if all(loop.day_valid[d] and loop.is_complete_day(d) for d in range(loop.n_days)):
            assert rmssd(series) == loop_rmssd(loop)
        else:
            assert outcome(rmssd, series) == (errors.IncompleteDays, INCOMPLETE)

        window = outcome(select_analysis_window, series, days)
        expected = outcome(loop_select_analysis_window, loop, days)
        if isinstance(expected, tuple):
            assert window == expected
            return
        assert window.values.tobytes() == expected.values.tobytes()
        assert window.day_dates == expected.day_dates
        assert window.start_time == expected.start_time
        assert rmssd(window) == loop_rmssd(expected)
        for transform, scale in (("raw", np.asarray), ("log1p", np.log1p)):
            got = (MINUTE_MIDPOINTS, np.full(1440, days), day_profile(window, transform))
            want = loop_minute_profile(*loop_fit_data(expected, scale))
            for got_part, want_part in zip(got, want, strict=True):
                assert got_part.tobytes() == want_part.tobytes()


def _invalid_day():
    series = make_series(np.arange(2880.0) % 7 + 1)
    return dataclasses.replace(series, day_valid=np.array([True, False]))


class TestWindowRule:
    """Features and fits read only analysis windows: every row a valid
    complete day."""

    @pytest.mark.parametrize("entry", [
        day_profile, minute_profile, compute_features, rmssd, immobile_minutes,
        fit_linear_cosinor, fit_sigmoidal_cosinor,
    ], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("series", [
        make_series(np.arange(2000.0) % 7 + 1),     # midnight to 09:20 the next day
        _invalid_day(),
        make_series(np.arange(2880.0) % 7 + 1, start=datetime(2016, 5, 1, 12)),
        make_series(np.full(600, 6.0)),             # not a window, so not degenerate
    ], ids=["partial", "invalid-day", "noon-start", "constant-partial"])
    def test_entry_points_raise_incomplete_days(self, entry, series):
        with pytest.raises(errors.IncompleteDays) as exc:
            entry(series)
        assert str(exc.value) == INCOMPLETE
