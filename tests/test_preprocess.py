from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actirhythm import errors
from actirhythm.ingest import TriaxialSeries
from actirhythm.preprocess import (
    ActivitySeries,
    NonwearBout,
    detect_nonwear_bouts,
    filter_invalid_days,
    select_analysis_window,
    to_activity_series,
    vector_magnitude,
)
from conftest import make_series
from reference_impls import brute_zero_bouts


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
        assert act.day_length(0) == 60
        assert act.day_length(1) == 1440

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
        s = ActivitySeries(subject_id=s.subject_id, start_time=s.start_time,
                           values=s.values, day_dates=s.day_dates,
                           day_starts=s.day_starts, day_valid=valid)
        out = select_analysis_window(s, 5)
        assert out.day_dates == tuple(s.day_dates[d] for d in (0, 2, 3, 4, 5))
        assert np.array_equal(out.day_block(1), s.day_block(2))

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
