import dataclasses
import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actirhythm import cosinor, errors
from actirhythm.cosinor import (
    FitConfig,
    LinearCosinorFit,
    antilogistic,
    export_fitted_curve,
    fit_linear_cosinor,
    fit_sigmoidal_cosinor,
    initial_sigmoidal_params,
    model_value,
)
from actirhythm.nls import numeric_jacobian
from conftest import make_series, make_window
from reference_impls import (
    LoopSeries,
    full_data_sigmoidal_fit,
    hours_apart,
    loop_fit_data,
    sigmoid_curve,
)

RAW = FitConfig(transform="raw")


def midpoint_hours(n_days=5):
    return (np.arange(n_days * 1440) + 0.5) / 60.0


class TestAntilogistic:
    def test_half_at_alpha(self):
        assert antilogistic(0.3, 0.3, 5.0) == 0.5

    def test_hand_value(self):
        expected = math.exp(2) / (1 + math.exp(2))
        assert antilogistic(1.0, 0.0, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_saturation_no_overflow(self):
        assert antilogistic(1.0, 0.0, 700.0) == pytest.approx(1.0, abs=1e-15)
        assert antilogistic(-1.0, 0.0, 700.0) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(-1, 1), st.floats(-0.99, 0.99), st.floats(1e-3, 1e3))
    def test_open_unit_interval(self, c, alpha, beta):
        v = antilogistic(c, alpha, beta)
        assert 0.0 <= v <= 1.0


class TestModelValue:
    def fit(self, **kw):
        params = dict(min=2.0, amplitude=10.0, alpha=0.0, beta=8.0, phase=14.0,
                      mesor=7.0, rss=0.0, converged=True, n_points=0)
        params.update(kw)
        from actirhythm.cosinor import SigmoidalCosinorFit

        return SigmoidalCosinorFit(**params)

    def test_saturated_peak(self):
        fit = self.fit(beta=500.0)
        assert model_value(14.0, fit) == pytest.approx(12.0, abs=1e-9)

    def test_quarter_cycle_is_midpoint(self):
        fit = self.fit()
        assert model_value(20.0, fit) == pytest.approx(2.0 + 5.0, abs=1e-12)

    def test_hand_value(self):
        fit = self.fit(min=0.0, amplitude=100.0, beta=2.0)
        expected = 100 * math.exp(2) / (1 + math.exp(2))
        assert model_value(14.0, fit) == pytest.approx(expected, abs=1e-9)

    def test_bounds_and_periodicity_on_dense_grid(self):
        fit = self.fit(alpha=0.4, beta=25.0)
        t = np.linspace(0, 48, 20001)
        v = model_value(t, fit)
        assert np.all(v >= fit.min - 1e-12)
        assert np.all(v <= fit.min + fit.amplitude + 1e-12)
        assert np.max(np.abs(model_value(t, fit) - model_value(t + 24.0, fit))) < 1e-12

    def test_extremes_at_phase(self):
        fit = self.fit(alpha=-0.2, beta=3.0)
        t = np.linspace(0, 24, 1441)
        v = model_value(t, fit)
        assert t[int(np.argmax(v))] % 24 == pytest.approx(fit.phase)
        assert t[int(np.argmin(v))] % 24 == pytest.approx((fit.phase + 12) % 24)


class TestLinearCosinor:
    def test_recovers_pure_cosine(self):
        t = midpoint_hours()
        y = 10 + 5 * np.cos((t - 6) * 2 * np.pi / 24)
        fit = fit_linear_cosinor(make_window(y), RAW)
        assert fit.mesor == pytest.approx(10.0, abs=1e-8)
        assert fit.amplitude == pytest.approx(5.0, abs=1e-8)
        assert fit.acrophase == pytest.approx(6.0, abs=1e-8)

    def test_constant_series_convention(self):
        fit = fit_linear_cosinor(make_window(np.full(1440 * 2, 4.0)), RAW)
        assert fit.amplitude == pytest.approx(0.0, abs=1e-9)
        assert fit.acrophase == 0.0

    def test_12h_harmonic_is_orthogonal(self):
        t = midpoint_hours()
        y = 10 + 5 * np.cos((t - 6) * 2 * np.pi / 24) \
            + 3 * np.sin(t * 2 * np.pi / 12)
        fit = fit_linear_cosinor(make_window(y), RAW)
        assert fit.mesor == pytest.approx(10.0, abs=1e-8)
        assert fit.amplitude == pytest.approx(5.0, abs=1e-8)
        assert fit.acrophase == pytest.approx(6.0, abs=1e-8)

    def test_insufficient_span(self):
        s = make_series(np.ones(600))  # 10 hours
        with pytest.raises(errors.InsufficientSpan):
            fit_linear_cosinor(s, RAW)


class TestInitialParams:
    def test_stated_mapping(self):
        seed = initial_sigmoidal_params(
            LinearCosinorFit(mesor=10.0, amplitude=5.0, acrophase=6.0))
        assert np.allclose(seed, [5.0, 10.0, 6.0, 0.0, 2.0])

    def test_degenerate_amplitude(self):
        seed = initial_sigmoidal_params(
            LinearCosinorFit(mesor=3.0, amplitude=0.0, acrophase=11.0))
        assert np.allclose(seed, [3.0, 0.0, 0.0, 0.0, 2.0])

    def test_min_floored_for_raw(self):
        seed = initial_sigmoidal_params(
            LinearCosinorFit(mesor=3.0, amplitude=5.0, acrophase=2.0),
            transform="raw")
        assert seed[0] == 0.0
        unfloored = initial_sigmoidal_params(
            LinearCosinorFit(mesor=3.0, amplitude=5.0, acrophase=2.0))
        assert unfloored[0] == -2.0


class TestSigmoidalFit:
    def test_noiseless_raw_recovery(self):
        truth = dict(min_=0.0, amplitude=100.0, alpha=0.3, beta=5.0, phase=14.0)
        y = sigmoid_curve(midpoint_hours(), **truth)
        fit = fit_sigmoidal_cosinor(make_window(y), RAW)
        assert fit.converged
        assert fit.min == pytest.approx(0.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(100.0, rel=1e-6)
        assert fit.alpha == pytest.approx(0.3, abs=1e-6)
        assert fit.beta == pytest.approx(5.0, rel=1e-6)
        assert hours_apart(fit.phase, 14.0) < 1e-6
        assert fit.mesor == pytest.approx(fit.min + fit.amplitude / 2, rel=1e-12)

    def test_constant_series_degenerate(self):
        fit = fit_sigmoidal_cosinor(make_window(np.full(1440 * 5, 6.0)), RAW)
        assert fit.degenerate
        assert not fit.converged
        assert fit.amplitude == 0.0

    def test_stage_two_never_worsens_stage_one_seed(self, rng):
        t = midpoint_hours()
        y = sigmoid_curve(t, 20.0, 300.0, -0.2, 8.0, 9.0) + rng.normal(0, 30, t.size)
        y = np.maximum(y, 0.0)
        series = make_window(y)
        config = RAW
        fit = fit_sigmoidal_cosinor(series, config)
        seed = initial_sigmoidal_params(fit_linear_cosinor(series, config), "raw")
        seed_rss = float(np.sum(
            (y - sigmoid_curve(t, seed[0], seed[1], seed[3], seed[4], seed[2])) ** 2))
        assert fit.rss <= seed_rss + 1e-9

    def test_time_shift_equivariance(self):
        t = midpoint_hours()
        base = fit_sigmoidal_cosinor(
            make_window(sigmoid_curve(t, 1.0, 50.0, 0.2, 4.0, 7.0)), RAW)
        delta = 5.25
        shifted = fit_sigmoidal_cosinor(
            make_window(sigmoid_curve(t, 1.0, 50.0, 0.2, 4.0, 7.0 + delta)), RAW)
        assert hours_apart(shifted.phase, base.phase + delta) < 1e-6
        assert shifted.amplitude == pytest.approx(base.amplitude, rel=1e-6)
        assert shifted.alpha == pytest.approx(base.alpha, abs=1e-6)
        assert shifted.beta == pytest.approx(base.beta, rel=1e-6)
        assert shifted.min == pytest.approx(base.min, abs=1e-6)

    def test_affine_equivariance(self):
        t = midpoint_hours()
        y = sigmoid_curve(t, 2.0, 40.0, -0.3, 6.0, 16.0)
        base = fit_sigmoidal_cosinor(make_window(y), RAW)
        a = 3.5
        scaled = fit_sigmoidal_cosinor(make_window(a * y), RAW)
        assert scaled.min == pytest.approx(a * base.min, abs=1e-5)
        assert scaled.amplitude == pytest.approx(a * base.amplitude, rel=1e-6)
        assert scaled.alpha == pytest.approx(base.alpha, abs=1e-6)
        assert scaled.beta == pytest.approx(base.beta, rel=1e-6)
        assert hours_apart(scaled.phase, base.phase) < 1e-6

    def test_multistart_finds_same_or_better(self):
        t = midpoint_hours()
        y = sigmoid_curve(t, 5.0, 80.0, 0.5, 30.0, 3.0)
        single = fit_sigmoidal_cosinor(make_window(y), RAW)
        multi = fit_sigmoidal_cosinor(
            make_window(y), FitConfig(transform="raw", multistart=4))
        assert multi.rss <= single.rss + 1e-9

    def test_log1p_default_transform(self):
        t = midpoint_hours()
        counts = np.expm1(sigmoid_curve(t, 1.0, 4.0, 0.1, 3.0, 13.0))
        fit = fit_sigmoidal_cosinor(make_window(counts))
        assert fit.transform == "log1p"
        assert fit.amplitude == pytest.approx(4.0, rel=1e-6)
        assert hours_apart(fit.phase, 13.0) < 1e-6


class TestExportCurve:
    def fit(self):
        t = midpoint_hours()
        return fit_sigmoidal_cosinor(
            make_window(sigmoid_curve(t, 10.0, 90.0, 0.2, 5.0, 13.0)), RAW)

    def test_hourly_resolution_gives_24_points(self):
        assert export_fitted_curve(self.fit(), resolution=60).shape == (24, 2)

    def test_max_lands_nearest_phase(self):
        fit = self.fit()
        samples = export_fitted_curve(fit, resolution=60)
        t_peak = samples[np.argmax(samples[:, 1]), 0]
        assert hours_apart(t_peak, fit.phase) <= 0.5

    def test_values_within_model_bounds(self):
        fit = self.fit()
        samples = export_fitted_curve(fit, resolution=1)
        assert samples.shape == (1440, 2)
        assert np.all(samples[:, 1] >= fit.min - 1e-9)
        assert np.all(samples[:, 1] <= fit.min + fit.amplitude + 1e-9)


def partial_series_with_invalid_day(rng):
    """Starts at 09:37, one middle day masked invalid, ends at 05:00."""
    start = datetime(2016, 5, 1, 9, 37)
    n = (1440 - 577) + 4 * 1440 + 300
    t = (577 + np.arange(n) + 0.5) / 60.0
    y = sigmoid_curve(t, 1.0, 3.5, 0.2, 6.0, 14.5) + rng.normal(0, 0.4, n)
    series = make_series(np.maximum(np.expm1(y), 0.0), start=start)
    valid = np.ones(series.n_days, dtype=bool)
    valid[2] = False
    return dataclasses.replace(series, day_valid=valid)


def full_data(series):
    """Clock hours and log1p counts of every valid minute, from the
    per-day loop oracle."""
    loop = LoopSeries.from_minutes(series.subject_id, series.start_time, series.values)
    return loop_fit_data(dataclasses.replace(loop, day_valid=series.day_valid), np.log1p)


class TestProfileReduction:
    def captured_problem(self, series, monkeypatch):
        problems = []
        solve = cosinor.levenberg_marquardt

        def capture(problem, x0, opts):
            problems.append(problem)
            return solve(problem, x0, opts)

        monkeypatch.setattr(cosinor, "levenberg_marquardt", capture)
        fit_sigmoidal_cosinor(series)
        return problems[0]

    def test_jacobian_matches_central_differences(self, rng, monkeypatch):
        problem = self.captured_problem(partial_series_with_invalid_day(rng),
                                        monkeypatch)
        points = [np.array([rng.uniform(-1, 2), rng.uniform(-1, 2),
                            rng.uniform(0, 24), rng.uniform(-2, 2),
                            rng.uniform(-1, 3)]) for _ in range(20)]
        for u, v in ((19.5, 1.0), (-19.5, 1.0), (0.4, 19.5), (0.4, -19.5),
                     (-19.5, -19.5)):
            points.append(np.array([0.5, 1.2, 13.3, u, v]))
        for p in points:
            analytic = problem.jac(p)
            numeric = numeric_jacobian(problem, p)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert np.max(np.abs(analytic - numeric)) < 1e-6 * scale, p

    def test_jacobian_is_finite_where_the_curve_saturates(self, rng, monkeypatch):
        problem = self.captured_problem(partial_series_with_invalid_day(rng),
                                        monkeypatch)
        # v = 800: beta = exp(v) overflows to inf and s is exactly 0 or 1
        with np.errstate(over="ignore"):
            jac = problem.jac(np.array([0.5, 1.2, 13.3, 0.4, 800.0]))
        assert np.all(np.isfinite(jac))

    def test_matches_full_data_fit(self, rng):
        series = partial_series_with_invalid_day(rng)
        t, y = full_data(series)
        fit = fit_sigmoidal_cosinor(series)
        mn, amp, alpha, beta, phase = full_data_sigmoidal_fit(t, y)
        assert fit.converged
        assert fit.n_points == t.size
        assert fit.min == pytest.approx(mn, rel=1e-7, abs=1e-7)
        assert fit.amplitude == pytest.approx(amp, rel=1e-7)
        assert fit.alpha == pytest.approx(alpha, rel=1e-7, abs=1e-7)
        assert fit.beta == pytest.approx(beta, rel=1e-7)
        assert hours_apart(fit.phase, phase) < 1e-7
        full_rss = float(np.sum((y - model_value(t, fit)) ** 2))
        assert fit.rss == pytest.approx(full_rss, rel=1e-9)

    def test_linear_stage_matches_full_data_projection(self, rng):
        series = partial_series_with_invalid_day(rng)
        t, y = full_data(series)
        omega = 2 * np.pi / 24
        design = np.column_stack([np.ones(t.size), np.cos(omega * t),
                                  np.sin(omega * t)])
        b0, bc, bs = np.linalg.lstsq(design, y, rcond=None)[0]
        fit = fit_linear_cosinor(series)
        assert fit.mesor == pytest.approx(b0, rel=1e-12)
        assert fit.amplitude == pytest.approx(math.hypot(bc, bs), rel=1e-12)
        assert fit.acrophase == pytest.approx(math.atan2(bs, bc) / omega % 24, rel=1e-12)

    def test_fewer_than_five_minutes_of_day(self):
        # 23:58 start: two minutes, one invalid day, then two minutes, so
        # the span exceeds 12 h but only four minutes of day are populated
        series = make_series(np.arange(1444.0) % 7, start=datetime(2016, 5, 1, 23, 58))
        series = dataclasses.replace(series, day_valid=np.array([True, False, True]))
        with pytest.raises(errors.InsufficientSpan):
            fit_sigmoidal_cosinor(series, RAW)
