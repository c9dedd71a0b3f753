import math
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actirhythm import errors
from actirhythm.features import (
    FeatureConfig,
    MinuteProfile,
    compute_features,
    immobile_minutes,
    minute_profile,
    relative_amplitude,
    rmssd,
    window_extreme,
)
from actirhythm.preprocess import ActivitySeries
from conftest import make_series, make_window
from reference_impls import brute_features, brute_window_extreme


def window_series_with_gap():
    """Two valid days whose dates are NOT consecutive (a removed day sits
    between them)."""
    grid = np.stack([np.arange(1440.0), np.arange(1440.0) + 5])
    return ActivitySeries(
        subject_id="s1", start_time=datetime(2016, 5, 1), grid=grid,
        day_dates=(date(2016, 5, 1), date(2016, 5, 3)),
        day_valid=np.array([True, True]))


class TestMinuteProfile:
    def test_two_identical_days(self):
        day = np.arange(1440.0)
        profile = minute_profile(make_window([day, day]))
        assert np.array_equal(profile.values, day)

    def test_mean_of_two_days(self):
        profile = minute_profile(make_window([np.zeros(1440), np.full(1440, 10.0)]))
        assert np.all(profile.values == 5.0)

    def test_minute_zero_mean(self):
        d1 = np.zeros(1440)
        d1[0] = 1
        d2 = np.zeros(1440)
        d2[0] = 3
        profile = minute_profile(make_window([d1, d2]))
        assert profile.values[0] == 2.0

    def test_rejects_partial_days(self):
        s = make_series(np.ones(2000))
        with pytest.raises(errors.IncompleteDays):
            minute_profile(s)


class TestWindowExtreme:
    def test_constant_profile_ties_to_start_zero(self):
        profile = MinuteProfile(np.ones(1440))
        assert window_extreme(profile, 600, "max") == (600.0, 0)

    def test_single_spike_max(self):
        values = np.zeros(1440)
        values[700] = 100.0
        assert window_extreme(MinuteProfile(values), 300, "max") == (100.0, 401)

    def test_single_spike_min(self):
        values = np.zeros(1440)
        values[700] = 100.0
        assert window_extreme(MinuteProfile(values), 300, "min") == (0.0, 0)

    def test_wraparound_window(self):
        values = np.zeros(1440)
        values[0:30] = 7.0
        values[1410:] = 7.0
        total, start = window_extreme(MinuteProfile(values), 60, "max")
        assert total == 420.0
        assert start == 1410

    @pytest.mark.parametrize("width", [1, 300, 600, 1439, 1440])
    def test_matches_brute_force(self, width, rng):
        for _ in range(4):
            values = rng.integers(0, 1000, size=1440).astype(float)
            for mode in ("max", "min"):
                got = window_extreme(MinuteProfile(values), width, mode)
                assert got == brute_window_extreme(values, width, mode)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 7, 300, 600, 1439, 1440]))
    def test_rotation_equivariance(self, seed, width):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1000, size=1440).astype(float)
        shift = int(rng.integers(0, 1440))
        base_sum, base_start = window_extreme(MinuteProfile(values), width, "max")
        rot_sum, rot_start = window_extreme(
            MinuteProfile(np.roll(values, shift)), width, "max")
        assert rot_sum == base_sum
        rotated_starts = {(s + shift) % 1440
                          for s in _tied_starts(values, width, base_sum)}
        assert rot_start in rotated_starts


def _tied_starts(values, width, target):
    doubled = np.concatenate([values, values])
    return [s for s in range(1440)
            if float(np.sum(doubled[s:s + width])) == target]


class TestRelativeAmplitude:
    def test_cohort_scale_values_normalized(self):
        assert relative_amplitude(1398892, 23062) == pytest.approx(0.9362, abs=1e-4)

    def test_cohort_scale_values_raw_sums(self):
        assert relative_amplitude(1398892, 23062, raw_sums=True) == \
            pytest.approx(0.9676, abs=1e-4)

    def test_flat_profile_scores_zero(self):
        assert relative_amplitude(600 * 3.0, 300 * 3.0) == 0.0

    def test_zero_l5_scores_one(self):
        assert relative_amplitude(100.0, 0.0) == 1.0

    def test_both_zero(self):
        with pytest.raises(errors.BothZero):
            relative_amplitude(0.0, 0.0)

    @given(st.floats(1, 1e6), st.floats(0, 1e6), st.floats(1e-3, 1e3))
    def test_scale_invariance(self, m10, l5, k):
        base = relative_amplitude(m10, l5)
        scaled = relative_amplitude(m10 * k, l5 * k)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestRmssd:
    def test_alternating(self):
        # every successive difference is +-2, as in the short case [0,2,0,2]
        assert rmssd(make_window(np.tile([0.0, 2.0], 720))) == pytest.approx(2.0)

    def test_hand_value(self):
        values = np.ones(1440)
        values[:4] = [0, 2, 0, 2]
        # diffs: 2,-2,2 then 1-2=-1 then zeros
        expected = math.sqrt((4 + 4 + 4 + 1) / 1439)
        assert rmssd(make_window(values)) == pytest.approx(expected, rel=1e-12)

    def test_constant_is_zero(self):
        assert rmssd(make_window(np.full(1440, 3.0))) == 0.0

    def test_pair_across_removed_day_excluded(self):
        s = window_series_with_gap()
        total = 0.0
        count = 0
        for block in (s.values[:1440], s.values[1440:]):
            d = np.diff(block)
            total += float(d @ d)
            count += d.size
        assert rmssd(s) == pytest.approx(math.sqrt(total / count), rel=1e-12)
        # gluing the same numbers as consecutive days includes the join pair
        joined = make_window(s.values)
        assert rmssd(joined) != pytest.approx(rmssd(s), rel=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
    def test_scale_homogeneity(self, seed, k):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, size=1440).astype(float)
        base = rmssd(make_window(values))
        assert rmssd(make_window(values * k)) == pytest.approx(base * k, rel=1e-9)

    def test_too_short(self):
        s = make_series([5.0])
        with pytest.raises(errors.TooShort):
            rmssd(s)


class TestImmobileMinutes:
    def test_all_zero_day(self):
        assert immobile_minutes(make_window(np.zeros(1440))) == 1440.0

    def test_partial_zero_day(self):
        values = np.ones(1440)
        values[:600] = 0
        assert immobile_minutes(make_window(values)) == 600.0

    def test_mean_over_days(self):
        d1 = np.ones(1440)
        d1[:100] = 0
        d2 = np.ones(1440)
        d2[:300] = 0
        assert immobile_minutes(make_window([d1, d2])) == 200.0

    def test_threshold(self):
        values = np.full(1440, 5.0)
        assert immobile_minutes(make_window(values), threshold=5.0) == 1440.0
        assert immobile_minutes(make_window(values), threshold=4.9) == 0.0


class TestComputeFeatures:
    def test_flat_series(self):
        f = compute_features(make_window(np.full(1440 * 2, 7.0)))
        assert f.mean == 7.0
        assert f.sd == 0.0
        assert f.ra == 0.0
        assert f.rmssd == 0.0
        assert math.isnan(f.rmssd_sd)
        assert f.immobile_minutes == 0.0

    def test_square_wave_day(self):
        day = np.zeros(1440)
        day[480:1080] = 800.0  # 10 h of activity starting 08:00
        f = compute_features(make_window([day] * 5))
        assert f.m10 == 800.0 * 600
        assert f.t_m10 == 480
        assert f.l5 == 0.0
        assert f.ra == 1.0

    def test_matches_brute_force_battery(self, rng):
        for trial in range(6):
            days = rng.integers(0, 400, size=(5, 1440)).astype(float)
            series = make_window(list(days))
            config = FeatureConfig(immobile_threshold=10.0,
                                   ra_raw_sums=bool(trial % 2))
            got = compute_features(series, config)
            want = brute_features(days, immobile_threshold=10.0,
                                  ra_raw_sums=bool(trial % 2))
            for name, expected in want.items():
                value = getattr(got, name)
                assert value == pytest.approx(expected, rel=1e-9, abs=1e-9), name

    def test_window_bounds_invariant(self, rng):
        for _ in range(20):
            days = rng.integers(0, 50, size=(3, 1440)).astype(float)
            f = compute_features(make_window(list(days)))
            profile_mean = days.mean()
            assert f.m10 / 600 >= profile_mean - 1e-9
            assert f.l5 / 300 <= profile_mean + 1e-9

    def test_per_day_variant(self):
        day1 = np.zeros(1440)
        day1[480:1080] = 100.0
        day2 = np.zeros(1440)
        day2[480:1080] = 200.0
        f = compute_features(make_window([day1, day2]),
                             FeatureConfig(per_day=True))
        assert f.m10 == pytest.approx((600 * 100 + 600 * 200) / 2)
        assert f.t_m10 == pytest.approx(480.0)

    def test_deterministic(self, rng):
        days = rng.integers(0, 400, size=(5, 1440)).astype(float)
        a = compute_features(make_window(list(days)))
        b = compute_features(make_window(list(days)))
        assert a == b

    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-2, 1e2))
    def test_ra_and_rmssd_sd_scale_invariant(self, seed, k):
        rng = np.random.default_rng(seed)
        days = rng.integers(1, 100, size=(2, 1440)).astype(float)
        base = compute_features(make_window(list(days)))
        scaled = compute_features(make_window(list(days * k)))
        assert scaled.ra == pytest.approx(base.ra, abs=1e-9)
        assert scaled.rmssd_sd == pytest.approx(base.rmssd_sd, rel=1e-9)
