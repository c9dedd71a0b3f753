"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Relative-error conventions (documented here once): amplitude and beta are
bounded away from zero by their draw boxes, so plain relative error is used.
min and alpha may be arbitrarily close to zero where plain relative error is
ill-posed (no estimator can satisfy it under fixed-precision arithmetic or
fixed noise), so their errors are measured against a scale floor: unit scale
for the noiseless checks, the true amplitude (for min) and the stated
absolute tolerance (for alpha) in the noisy check. Phase is compared mod 24.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import settings

from actirhythm.cosinor import FitConfig, fit_linear_cosinor, fit_sigmoidal_cosinor
from actirhythm.features import MinuteProfile, compute_features, \
    relative_amplitude, window_extreme
from actirhythm.ingest import GroupLabel
from actirhythm.preprocess import (
    detect_nonwear_bouts,
    filter_invalid_days,
    select_analysis_window,
)
from actirhythm.report import PipelineConfig, run_pipeline
from actirhythm.stats import GroupSamples, chi_square_sf, kruskal_wallis
from cohorts import write_cohort
from conftest import make_series, make_window
from reference_impls import (
    brute_features,
    brute_kruskal_h,
    brute_window_extreme,
    hours_apart,
    sigmoid_curve,
)

MIDPOINTS_5D = (np.arange(5 * 1440) + 0.5) / 60.0


def _draw_params(rng):
    return (rng.uniform(0.0, 5.0), rng.uniform(1.0, 8.0),
            rng.uniform(-0.8, 0.8), rng.uniform(0.5, 60.0),
            rng.uniform(0.0, 24.0))


def _series_from_log_model(mn, amp, alpha, beta, phase, noise_rng=None,
                           noise_sd=0.0):
    y = sigmoid_curve(MIDPOINTS_5D, mn, amp, alpha, beta, phase)
    if noise_rng is not None and noise_sd > 0:
        y = y + noise_rng.normal(0.0, noise_sd, y.size)
    return make_window(np.maximum(np.expm1(y), 0.0))


def _rel(err, true, floor):
    return abs(err) / max(abs(true), floor)


def test_c01_noiseless_sigmoidal_recovery():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    worst = 0.0
    for _ in range(50):
        mn, amp, alpha, beta, phase = _draw_params(rng)
        fit = fit_sigmoidal_cosinor(_series_from_log_model(mn, amp, alpha,
                                                           beta, phase))
        assert fit.converged
        errs = (
            _rel(fit.min - mn, mn, 1.0),
            _rel(fit.amplitude - amp, amp, 1e-12),
            _rel(fit.alpha - alpha, alpha, 1.0),
            _rel(fit.beta - beta, beta, 1e-12),
            hours_apart(fit.phase, phase),
        )
        worst = max(worst, max(errs))
        assert max(errs) < 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: noiseless recovery 50/50 within 1e-6 "
          f"(worst {worst:.2e}), {elapsed:.1f}s")


def test_c02_noisy_sigmoidal_recovery():
    rng = np.random.default_rng(1002)
    started = time.monotonic()
    passes = 0
    for _ in range(50):
        mn, amp, alpha, beta, phase = _draw_params(rng)
        fit = fit_sigmoidal_cosinor(_series_from_log_model(
            mn, amp, alpha, beta, phase, noise_rng=rng, noise_sd=0.05 * amp))
        ok = (_rel(fit.min - mn, mn, amp) <= 0.02
              and abs(fit.amplitude - amp) / amp <= 0.02
              and hours_apart(fit.phase, phase) <= 0.1
              and abs(fit.alpha - alpha) <= 0.05
              and abs(fit.beta - beta) / beta <= 0.10)
        passes += ok
    elapsed = time.monotonic() - started
    assert passes >= 48, f"only {passes}/50 noisy recoveries passed"
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: noisy recovery {passes}/50 (need >=48), "
          f"{elapsed:.1f}s")


def test_c03_stage_one_analytic_anchor():
    y = 10 + 5 * np.cos((MIDPOINTS_5D - 6) * 2 * np.pi / 24)
    fit = fit_linear_cosinor(make_window(y), FitConfig(transform="raw"))
    assert fit.mesor == pytest.approx(10.0, abs=1e-8)
    assert fit.amplitude == pytest.approx(5.0, abs=1e-8)
    assert fit.acrophase == pytest.approx(6.0, abs=1e-8)
    print("\nACCEPTANCE 3 PASS: linear cosinor recovers (10, 5, 6) within 1e-8")


def test_c04_window_extreme_oracle_equivalence():
    rng = np.random.default_rng(1004)
    checked = 0
    for _ in range(200):
        profile = rng.integers(0, 1000, size=1440).astype(float)
        for width in (1, 300, 600, 1439, 1440):
            for mode in ("max", "min"):
                got_sum, got_start = window_extreme(MinuteProfile(profile),
                                                    width, mode)
                ref_sum, ref_start = brute_window_extreme(profile, width, mode)
                assert abs(got_sum - ref_sum) <= 1e-9
                assert got_start == ref_start
                checked += 1
    print(f"\nACCEPTANCE 4 PASS: window extremes match exhaustive scan on "
          f"{checked} cases")


def test_c05_feature_battery_oracle():
    rng = np.random.default_rng(1005)
    for _ in range(50):
        days = rng.integers(0, 500, size=(5, 1440)).astype(float)
        got = compute_features(make_window(list(days)))
        want = brute_features(days)
        for name, expected in want.items():
            value = getattr(got, name)
            if math.isnan(expected):
                assert math.isnan(value), name
            else:
                assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected)), name
    print("\nACCEPTANCE 5 PASS: feature battery matches brute force on "
          "50 random 5-day series within 1e-9")


def test_c06_kruskal_wallis_anchor_and_equivalence():
    kw = kruskal_wallis(GroupSamples.from_lists(
        [(GroupLabel.CCI, [1, 2, 3]), (GroupLabel.RR, [4, 5, 6])]))
    assert kw.h == pytest.approx(3.8571, abs=1e-4)
    assert kw.p == pytest.approx(0.0495, abs=1e-3)

    rng = np.random.default_rng(1006)
    labels = list(GroupLabel)
    for _ in range(500):
        k = int(rng.integers(2, 5))
        groups = [rng.integers(0, 10, size=int(rng.integers(1, 8))).astype(float)
                  for _ in range(k)]
        if sum(g.size for g in groups) < 3:
            continue
        pooled = np.concatenate(groups)
        if np.all(pooled == pooled[0]):
            continue
        kw = kruskal_wallis(GroupSamples.from_lists(
            [(labels[i], g) for i, g in enumerate(groups)]))
        assert kw.h == pytest.approx(brute_kruskal_h([g.tolist() for g in groups]),
                                     abs=1e-12)

    base_vals = [[1, 5, 9], [2, 2, 7], [4, 8, 8, 10]]
    base = kruskal_wallis(GroupSamples.from_lists(
        [(labels[i], v) for i, v in enumerate(base_vals)]))
    logged = kruskal_wallis(GroupSamples.from_lists(
        [(labels[i], np.log(v)) for i, v in enumerate(base_vals)]))
    assert logged.h == base.h
    print("\nACCEPTANCE 6 PASS: KW anchor, 500-sample brute-force equivalence "
          "within 1e-12, monotone invariance exact")


def test_c07_chi_square_sf():
    for x in np.linspace(0.0, 50.0, 1001):
        assert chi_square_sf(float(x), 2) == pytest.approx(math.exp(-x / 2),
                                                           abs=1e-12)
    assert chi_square_sf(7.8147, 3) == pytest.approx(0.05, abs=1e-4)
    print("\nACCEPTANCE 7 PASS: chi-square sf matches df=2 closed form within "
          "1e-12 and the df=3 table anchor within 1e-4")


def test_c08_relative_amplitude_reference_anchor():
    value = relative_amplitude(1398892.0, 23062.0, raw_sums=True)
    expected = (1398892.0 - 23062.0) / (1398892.0 + 23062.0)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.9676, abs=1e-4)
    print(f"\nACCEPTANCE 8 PASS: raw-sum relative amplitude {value:.6f} matches "
          f"0.9676 within 1e-4 (sanity anchor)")


def test_c09_end_to_end_amplitude_separation(tmp_path):
    started = time.monotonic()
    wins = 0
    for draw in range(20):
        manifest = write_cohort(tmp_path / f"cohort{draw}", base_seed=draw,
                                amp_factor=5.0)
        _, skipped = run_pipeline(manifest, tmp_path / f"out{draw}",
                                  PipelineConfig(transform="raw"))
        assert not skipped
        rows = {}
        text = (tmp_path / f"out{draw}" / "comparison.csv").read_text()
        for line in text.splitlines()[1:]:
            parts = line.split(",")
            rows[parts[0]] = float(parts[6])
        ok = rows["amplitude"] < 0.01 and all(
            rows[name] > 0.05 for name in ("min", "phase", "alpha", "beta"))
        wins += ok
    elapsed = time.monotonic() - started
    assert wins >= 18, f"only {wins}/20 cohort draws separated cleanly"
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9 PASS: amplitude-only separation in {wins}/20 "
          f"cohort draws (need >=18), {elapsed:.0f}s")


def test_c10_nonwear_strictly_longer_than_one_hour():
    values = np.ones(1440 * 6)
    values[1440 + 100:1440 + 161] = 0          # 61-minute zero run in day 1
    values[3 * 1440 + 500:3 * 1440 + 560] = 0  # exactly 60 minutes in day 3
    series = make_series(values)
    filtered = filter_invalid_days(series, detect_nonwear_bouts(series, 60))
    assert list(filtered.day_valid) == [True, False, True, True, True, True]
    window = select_analysis_window(filtered, 5)
    assert series.day_dates[1] not in window.day_dates
    assert series.day_dates[3] in window.day_dates
    print("\nACCEPTANCE 10 PASS: 61-minute zero run removes its day, a "
          "60-minute run does not")


def test_c11_pipeline_determinism(tmp_path):
    manifest = write_cohort(tmp_path / "cohort", base_seed=3,
                            sizes={GroupLabel.CONTROL_ICU: 2, GroupLabel.CCI: 2,
                                   GroupLabel.RR: 2, GroupLabel.CONTROL_HEALTHY: 2})
    run_pipeline(manifest, tmp_path / "a", PipelineConfig(transform="raw"))
    run_pipeline(manifest, tmp_path / "b", PipelineConfig(transform="raw"))
    names = [p.name for p in sorted((tmp_path / "a").iterdir())]
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    print(f"\nACCEPTANCE 11 PASS: two runs produced byte-identical outputs "
          f"({len(names)} files)")


def test_c12_property_suite_runs_at_full_width():
    # the invariance properties themselves live in the module test files and
    # run in the same pytest invocation; this guards their sample width
    profile = settings()
    assert profile.max_examples >= 100
    print("\nACCEPTANCE 12 PASS: property tests run at >=100 examples each "
          "(see module test files in this suite)")
