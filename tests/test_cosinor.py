import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actirhythm import cosinor, curve
from actirhythm.cosinor import (
    FitConfig,
    LinearCosinorFit,
    fit_linear_cosinor,
    fit_sigmoidal_cosinor,
    initial_sigmoidal_params,
    model_value,
)
from actirhythm.curve import antilogistic
from actirhythm.ingest import SynthSpec, generate_synthetic
from actirhythm.preprocess import (
    MINUTE_MIDPOINTS,
    day_profile,
    select_analysis_window,
    to_activity_series,
)
from conftest import make_window
from reference_impls import (
    LoopSeries,
    full_data_sigmoidal_fit,
    hours_apart,
    loop_fit_data,
    loop_minute_profile,
    numeric_jacobian,
    sigmoid_curve,
    stacked_profile_jacobian,
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

    def test_acrophase_at_midnight_folds_to_zero(self):
        """atan2 gives a tiny negative angle here, which % 24 rounds to
        24 itself."""
        t = midpoint_hours(1)
        fit = fit_linear_cosinor(make_window(10 + 5 * np.cos(t * 2 * np.pi / 24)), RAW)
        assert fit.acrophase == 0.0


class TestFold:
    @pytest.mark.parametrize("x", [-1e-17, -5e-324, np.float64(-1e-300)])
    def test_tiny_negative_is_zero(self, x):
        assert curve.fold(x, 24.0) == 0.0
        assert curve.fold(x * 60.0, 1440) == 0.0

    @given(st.floats(-1e9, 1e9), st.sampled_from([24.0, 1440]))
    def test_in_period_and_congruent(self, x, period):
        folded = curve.fold(x, period)
        assert type(folded) is float
        assert 0.0 <= folded < period
        assert folded == x % period or (x % period == period and folded == 0.0)


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

    @pytest.mark.parametrize("n", [1440, 1440 * 5])
    def test_constant_series_degenerate(self, n):
        fit = fit_sigmoidal_cosinor(make_window(np.full(n, 6.0)), RAW)
        assert fit.degenerate
        assert not fit.converged
        assert fit.amplitude == 0.0
        assert fit.min == 6.0
        assert fit.n_points == n

    @pytest.mark.parametrize("transform", ["raw", "log1p"])
    def test_overflowing_trial_step_is_not_warned_of(self, transform):
        """LM tries a step on this window whose exp(w) overflows to inf
        where the sigmoid is 0; it rejects the NaN residual without a
        RuntimeWarning."""
        spec = SynthSpec(min=15.252749117180187, amplitude=206.84634561197143,
                         alpha=-0.19369562683584007, beta=1.1056375402613206,
                         phase=10.307692097615563, noise_sd=5.0, days=4, seed=4)
        window = select_analysis_window(to_activity_series(generate_synthetic(spec)), 4)
        fit = fit_sigmoidal_cosinor(window, FitConfig(transform, multistart=3))
        assert fit.converged and np.isfinite(fit.rss)

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

    @pytest.mark.parametrize("y", [
        sigmoid_curve(midpoint_hours(), 5.0, 80.0, 0.5, 30.0, 3.0),
        np.full(1440 * 5, 6.0),
        # a near-square wave, whose fit takes a beta of about 2e4
        np.where(np.sin(midpoint_hours() * np.pi / 12) > 0, 100.0, 0.0),
    ], ids=["sigmoid", "constant", "square"])
    def test_flags_are_python_bools(self, y):
        fit = fit_sigmoidal_cosinor(make_window(y), FitConfig("raw", multistart=2))
        flags = {f.name: getattr(fit, f.name) for f in dataclasses.fields(fit)
                 if f.type in (bool, "bool")}
        assert set(flags) == {"converged", "degenerate", "at_bound"}
        assert all(type(flag) is bool for flag in flags.values()), flags

    def test_log1p_default_transform(self):
        t = midpoint_hours()
        counts = np.expm1(sigmoid_curve(t, 1.0, 4.0, 0.1, 3.0, 13.0))
        fit = fit_sigmoidal_cosinor(make_window(counts))
        assert fit.transform == "log1p"
        assert fit.amplitude == pytest.approx(4.0, rel=1e-6)
        assert hours_apart(fit.phase, 13.0) < 1e-6


def window_with_removed_day(rng, days=5, alpha=0.2):
    """An analysis window of ``days`` days taken from days + 1 recorded
    ones whose third day is invalid, so its dates are not consecutive."""
    t = midpoint_hours(days + 1)
    y = sigmoid_curve(t, 1.0, 3.5, alpha, 6.0, 14.5) + rng.normal(0, 0.4, t.size)
    series = make_window(np.maximum(np.expm1(y), 0.0))
    valid = np.ones(days + 1, dtype=bool)
    valid[2] = False
    window = select_analysis_window(dataclasses.replace(series, day_valid=valid), days)
    assert (window.day_dates[2] - window.day_dates[1]).days == 2
    return window


def full_data(series, transform=np.log1p):
    """Clock hours and transformed counts of every minute, from the
    per-day loop oracle."""
    return loop_fit_data(
        LoopSeries.from_minutes(series.subject_id, series.start_time, series.values), transform)


class TestProfileReduction:
    def captured_problem(self, series, monkeypatch):
        problems = []
        solve = cosinor.levenberg_marquardt

        def capture(problem, x0):
            problems.append(problem)
            return solve(problem, x0)

        monkeypatch.setattr(cosinor, "levenberg_marquardt", capture)
        fit_sigmoidal_cosinor(series)
        return problems[0]

    @pytest.mark.parametrize("transform, scale", [("raw", np.asarray), ("log1p", np.log1p)])
    @pytest.mark.parametrize("days, alpha", [(3, -0.4), (5, 0.2)])
    def test_profile_and_rss_match_the_loop_oracle_bit_for_bit(
            self, rng, monkeypatch, transform, scale, days, alpha):
        """day_profile is the oracle's minute-of-day profile at the minute
        midpoints with a count of the window's days in each, and the fit's
        rss is LM's lowest profile rss plus the oracle's within-minute sum
        of squares."""
        window = window_with_removed_day(rng, days, alpha)
        t, y = full_data(window, scale)
        expected = loop_minute_profile(t, y)
        got = (MINUTE_MIDPOINTS, np.full(1440, days), day_profile(window, transform))
        for got_part, want in zip(got, expected, strict=True):
            assert got_part.tobytes() == want.tobytes()
        within = float(np.sum((y - np.tile(expected[2], days)) ** 2))

        results = []
        solve = cosinor.levenberg_marquardt

        def capture(problem, x0):
            results.append(solve(problem, x0))
            return results[-1]

        monkeypatch.setattr(cosinor, "levenberg_marquardt", capture)
        fit = fit_sigmoidal_cosinor(window, FitConfig(transform, multistart=2))
        assert len(results) == 2
        assert fit.rss == float(min(r.rss for r in results)) + within

    def test_jacobian_matches_central_differences(self, rng, monkeypatch):
        problem = self.captured_problem(window_with_removed_day(rng),
                                        monkeypatch)
        points = [np.array([rng.uniform(-1, 2), rng.uniform(-1, 2),
                            rng.uniform(0, 24), rng.uniform(-2, 2),
                            rng.uniform(-1, 3)]) for _ in range(20)]
        for u, v in ((19.5, 1.0), (-19.5, 1.0), (0.4, 19.5), (0.4, -19.5),
                     (-19.5, -19.5)):
            points.append(np.array([0.5, 1.2, 13.3, u, v]))
        for p in points:
            analytic = problem.jac(p)
            numeric = numeric_jacobian(problem.fun, p)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert np.max(np.abs(analytic - numeric)) < 1e-6 * scale, p

    def test_jacobian_is_finite_where_the_curve_saturates(self, rng, monkeypatch):
        problem = self.captured_problem(window_with_removed_day(rng),
                                        monkeypatch)
        # v = 800: beta = exp(v) overflows to inf and s is exactly 0 or 1
        with np.errstate(over="ignore"):
            jac = problem.jac(np.array([0.5, 1.2, 13.3, 0.4, 800.0]))
        assert np.all(np.isfinite(jac))

    def test_residual_is_the_weighted_curve_bit_for_bit(self, rng):
        """The residual at the scalar weight sqrt(n_days) is the one at a
        weight of sqrt(n_m) per minute with n_m = n_days."""
        means = day_profile(window_with_removed_day(rng), "log1p")
        p = np.array([0.5, 1.2, 13.3, 0.4, 1.8])
        weight = np.sqrt(np.full(1440, 5))
        expected = weight * means - weight * curve.evaluate(
            MINUTE_MIDPOINTS, p[0], np.exp(p[1]), np.tanh(p[3]), np.exp(p[4]), p[2])
        assert cosinor._profile_problem(means, 5).fun(p).tobytes() == expected.tobytes()

    def test_residual_at_an_overflowing_amplitude_is_nan_without_a_warning(self, rng):
        means = day_profile(window_with_removed_day(rng), "log1p")
        # exp(800) is inf, and beta = exp(10) makes the sigmoid exactly 0 where
        # cos - alpha < -0.034
        residual = cosinor._profile_problem(means, 5).fun(np.array([0.5, 800.0, 13.3, 0.4, 10.0]))
        assert np.isnan(residual).any()

    def test_residual_returns_a_fresh_array_each_call(self, rng):
        """LM holds the current and the trial residual at once, so a later
        call must leave an earlier result as it was."""
        means = day_profile(window_with_removed_day(rng), "log1p")
        problem = cosinor._profile_problem(means, 5)
        p = np.array([0.5, 1.2, 13.3, 0.4, 1.8])
        q = p + np.array([0.0, 0.1, -2.0, 0.3, -0.5])
        first = problem.fun(p)
        kept = first.copy()
        second = problem.fun(q)
        problem.jac(q)
        again = problem.fun(p)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, again)
        assert first.tobytes() == kept.tobytes() == again.tobytes()
        assert second.tobytes() != kept.tobytes()

    def test_jacobian_reuses_the_residual_terms_bit_for_bit(self, rng):
        """jac(p) reads the terms the residual kept when p has the bits of
        the residual's last point, and evaluates them otherwise; either way
        it is the column_stack form of the oracle, bit for bit."""
        means = day_profile(window_with_removed_day(rng), "log1p")

        def jac_after(*points, at):
            problem = cosinor._profile_problem(means, 5)
            with np.errstate(over="ignore"):
                for point in points:
                    problem.fun(point)
                return problem.jac(at)

        for p in ([0.5, 1.2, 13.3, 0.4, 1.8], [-0.3, 0.2, 2.5, -1.7, 0.1],
                  [0.5, 1.2, 13.3, 0.4, 800.0],    # beta = exp(v) is inf, s is 0 or 1
                  [0.5, 1.2, 13.3, 19.5, 3.0]):    # alpha = tanh(u) rounds to 1
            p = np.array(p)
            q = p + np.array([0.0, 0.1, -2.0, 0.3, -0.5])
            with np.errstate(over="ignore"):
                expected = stacked_profile_jacobian(MINUTE_MIDPOINTS, np.full(1440, 5), p)
            assert np.isfinite(expected).all()
            for jac in (jac_after(p, at=p), jac_after(q, at=p), jac_after(p, at=p.copy()),
                        jac_after(at=p), jac_after(p, q, at=p), jac_after(q, p, at=p)):
                assert jac.shape == (1440, 5) and jac.flags.c_contiguous
                assert jac.tobytes() == expected.tobytes(), p

    def test_jacobian_at_the_same_point_twice_is_unchanged(self, rng):
        means = day_profile(window_with_removed_day(rng), "log1p")
        problem = cosinor._profile_problem(means, 5)
        p = np.array([0.5, 1.2, 13.3, 0.4, 1.8])
        problem.fun(p)
        first = problem.jac(p).copy()
        assert problem.jac(p).tobytes() == first.tobytes()
        assert first.tobytes() == stacked_profile_jacobian(
            MINUTE_MIDPOINTS, np.full(1440, 5), p).tobytes()

    def test_matches_full_data_fit(self, rng):
        series = window_with_removed_day(rng)
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
        series = window_with_removed_day(rng)
        t, y = full_data(series)
        omega = 2 * np.pi / 24
        design = np.column_stack([np.ones(t.size), np.cos(omega * t),
                                  np.sin(omega * t)])
        b0, bc, bs = np.linalg.lstsq(design, y, rcond=None)[0]
        fit = fit_linear_cosinor(series)
        assert fit.mesor == pytest.approx(b0, rel=1e-12)
        assert fit.amplitude == pytest.approx(math.hypot(bc, bs), rel=1e-12)
        assert fit.acrophase == pytest.approx(math.atan2(bs, bc) / omega % 24, rel=1e-12)
