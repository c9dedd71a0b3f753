import csv
import dataclasses
import math
import re
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actirhythm import curve, errors, numtext, report
from actirhythm.cosinor import FitConfig, fit_sigmoidal_cosinor, model_value
from actirhythm.ingest import GroupLabel
from actirhythm.report import (
    CurveOverlay,
    GroupCurve,
    PipelineConfig,
    curves_csv,
    group_average_curve,
    overlays_csv,
    render_curves_svg,
    render_overlays_svg,
    run_pipeline,
)
from cohorts import write_cohort
from conftest import make_window
from edge_values import IN_RANGE, MINUTES, NOT_SIG6, OUT_OF_RANGE, SIG6, SUBJECT_IDS
from reference_impls import loop_curves_csv, loop_overlays_csv, loop_points

ICU = GroupLabel.CONTROL_ICU
CCI = GroupLabel.CCI

SMALL_SIZES = {GroupLabel.CONTROL_ICU: 2, GroupLabel.CCI: 2,
               GroupLabel.RR: 2, GroupLabel.CONTROL_HEALTHY: 2}

FAST = PipelineConfig(transform="raw")


class TestGroupAverageCurve:
    def test_two_constant_subjects(self):
        curves = group_average_curve({
            ICU: [make_window(np.zeros(1440)), make_window(np.full(1440, 10.0))],
        })
        c = curves[0]
        assert np.all(c.mean == 5.0)
        half = 1.96 * 5.0 / np.sqrt(2)  # population sd of {0, 10} is 5
        assert np.allclose(c.ci_high, 5.0 + half)
        assert np.allclose(c.ci_low, 5.0 - half)
        assert c.n_subjects == 2

    def test_single_subject_band_collapses(self):
        curves = group_average_curve({ICU: [make_window(np.arange(1440.0))]})
        assert np.array_equal(curves[0].ci_low, curves[0].mean)
        assert np.array_equal(curves[0].ci_high, curves[0].mean)

    def test_smoothing_window_one_is_identity(self, rng):
        values = rng.integers(0, 100, 1440).astype(float)
        plain = group_average_curve({ICU: [make_window(values)]})
        smoothed = group_average_curve({ICU: [make_window(values)]}, smoothing=1)
        assert np.array_equal(plain[0].mean, smoothed[0].mean)

    def test_smoothing_reduces_variation(self, rng):
        values = rng.integers(0, 100, 1440).astype(float)
        smoothed = group_average_curve({ICU: [make_window(values)]}, smoothing=31)
        assert smoothed[0].mean.std() < values.std()

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=60), st.integers(2, 130))
    def test_moving_average_is_the_mean_over_each_window(self, values, window):
        """Minute i averages minutes i - window//2 to i + (window-1)//2 that
        exist; up to the series' length this is convolve's "same" mode, bit
        for bit."""
        arr = np.array(values)
        smoothed = report._moving_average(arr, window)
        lo, hi = window // 2, (window - 1) // 2
        expected = [arr[max(0, i - lo):i + hi + 1].mean() for i in range(arr.size)]
        assert np.allclose(smoothed, expected, rtol=1e-12, atol=0)
        if window <= arr.size:
            kernel = np.ones(window)
            same = (np.convolve(arr, kernel, mode="same")
                    / np.convolve(np.ones(arr.size), kernel, mode="same"))
            assert smoothed.tobytes() == same.tobytes()
        widest = report._moving_average(arr, 2 * arr.size - 1)
        assert report._moving_average(arr, 10**20).tobytes() == widest.tobytes()

    def test_subject_order_invariance(self, rng):
        a = make_window(rng.integers(0, 50, 1440).astype(float))
        b = make_window(rng.integers(0, 50, 1440).astype(float))
        fwd = group_average_curve({ICU: [a, b]})
        rev = group_average_curve({ICU: [b, a]})
        assert np.array_equal(fwd[0].mean, rev[0].mean)
        assert np.array_equal(fwd[0].ci_low, rev[0].ci_low)

    def test_misaligned_series(self):
        with pytest.raises(errors.MisalignedSeries):
            group_average_curve({
                ICU: [make_window(np.zeros(1440))],
                CCI: [make_window(np.zeros(2880))],
            })


class TestSvg:
    def _curves(self):
        rng = np.random.default_rng(3)
        groups = {}
        for g in (GroupLabel.CONTROL_ICU, GroupLabel.CCI, GroupLabel.RR,
                  GroupLabel.CONTROL_HEALTHY):
            groups[g] = [make_window(rng.integers(0, 500, 1440).astype(float))
                         for _ in range(2)]
        return group_average_curve(groups)

    def test_structure(self):
        svg = render_curves_svg(self._curves())
        assert svg.startswith("<svg")
        assert svg.count("<path ") == 4
        assert svg.count("<polygon ") == 4
        for g in GroupLabel:
            assert g.value in svg

    def test_deterministic(self):
        assert render_curves_svg(self._curves()) == render_curves_svg(self._curves())

    def test_y_range_covers_band_maximum(self):
        curves = self._curves()
        svg = render_curves_svg(curves)
        top = max(float(c.ci_high.max()) for c in curves)
        # largest axis label is at or above the data maximum
        labels = [float(line.split(">")[1].split("<")[0])
                  for line in svg.splitlines()
                  if 'text-anchor="end"' in line]
        assert max(labels) >= top * 0.99

    def test_figure_coordinates_are_pinned(self):
        t = np.arange(4.0)
        curves = [
            GroupCurve(ICU, t, np.array([1.0, 2.5, 2.0, 0.7]),
                       np.array([0.5, 2.0, 1.25, 0.1]), np.array([1.5, 3.0, 2.75, 1.3]), 2),
            GroupCurve(CCI, t, np.array([0.2, 0.4, 1.1, 3.3]),
                       np.array([0.0, 0.3, 0.6, 2.9]), np.array([0.4, 0.5, 1.6, 3.7]), 3),
        ]
        svg = render_curves_svg(curves)
        assert re.findall(r'points="([^"]*)"', svg) == [
            "64.00,238.86 245.50,103.73 427.00,126.25 608.50,256.88 "
            "608.50,364.99 427.00,261.39 245.50,193.82 64.00,328.95",
            "64.00,337.96 245.50,328.95 427.00,229.86 608.50,40.67 "
            "608.50,112.74 427.00,319.95 245.50,346.97 64.00,374.00",
        ]
        assert re.findall(r' d="([^"]*)"', svg) == [
            "M 64.00 283.91 L 245.50 148.77 L 427.00 193.82 L 608.50 310.94",
            "M 64.00 355.98 L 245.50 337.96 L 427.00 274.90 L 608.50 76.70",
        ]
        svg = render_overlays_svg([
            CurveOverlay("a", ICU, np.array([0.0, 1.5, 3.0, 2.0, 0.5]),
                         np.array([0.25, 1.0, 2.5, 2.25, 0.75])),
            CurveOverlay("b", CCI, np.array([-0.5, 0.5, 1.0, 0.2, -0.1]),
                         np.array([-0.2, 0.4, 0.9, 0.3, 0.0])),
        ])
        assert re.findall(r'points="([^"]*)"', svg) == [
            "54.00,384.00 157.50,213.52 261.00,43.05 364.50,156.70 468.00,327.17",
            "54.00,355.59 157.50,270.35 261.00,99.87 364.50,128.29 468.00,298.76",
            "514.00,384.00 617.50,153.03 721.00,37.55 824.50,222.32 928.00,291.61",
            "514.00,314.71 617.50,176.13 721.00,60.65 824.50,199.23 928.00,268.52",
        ]

    def test_overlay_subject_id_is_escaped(self):
        profile = np.linspace(0.0, 5.0, 1440)
        svg = render_overlays_svg([
            CurveOverlay(subject_id="a<b&c", group=CCI, observed=profile,
                         fitted=profile[::-1].copy()),
            CurveOverlay(subject_id="plain", group=ICU, observed=profile,
                         fitted=profile),
        ])
        ns = "{http://www.w3.org/2000/svg}"
        labels = [t.text for t in ET.fromstring(svg).iter(ns + "text")]
        assert labels == ["a<b&c (cci)", "plain (control_icu)"]


    @pytest.mark.parametrize("char", [*map(chr, [*range(9), 11, 12, *range(14, 32)]),
                                      "\ufffe", "\uffff"])
    def test_overlay_subject_id_that_xml_cannot_hold(self, char):
        """A character that XML 1.0 cannot hold reads U+FFFD in the title."""
        profile = np.linspace(0.0, 5.0, 5)
        svg = render_overlays_svg([CurveOverlay(f"a{char}b{char}", CCI, profile, profile)])
        ns = "{http://www.w3.org/2000/svg}"
        labels = [t.text for t in ET.fromstring(svg).iter(ns + "text")]
        assert labels == ["a\ufffdb\ufffd (cci)"]


class TestBuildOverlay:
    """The fitted curve at each whole minute of the day, next to the
    observed day profile."""

    def overlay(self):
        t = (np.arange(5 * 1440) + 0.5) / 60.0
        window = make_window(curve.evaluate(t, 10.0, 90.0, 0.2, 5.0, 13.0))
        fit = fit_sigmoidal_cosinor(window, FitConfig(transform="raw"))
        return report.build_overlay(report.SubjectRecord("s1", CCI, window, fit=fit)), fit

    def test_max_lands_nearest_phase(self):
        overlay, fit = self.overlay()
        assert overlay.fitted.shape == overlay.observed.shape == (1440,)
        assert abs(np.argmax(overlay.fitted) / 60.0 - fit.phase) <= 1 / 120

    def test_values_within_model_bounds(self):
        overlay, fit = self.overlay()
        assert np.all(overlay.fitted >= fit.min - 1e-9)
        assert np.all(overlay.fitted <= fit.min + fit.amplitude + 1e-9)

    def test_fitted_is_the_model_at_whole_minutes(self):
        overlay, fit = self.overlay()
        hours = np.arange(0.0, 1440.0, 1.0) / 60.0
        assert overlay.fitted.tobytes() == model_value(hours, fit).tobytes()

# nan, both infinities, negative zero, the smallest subnormal, a huge
# value and ties at two decimals, next to any float
VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                    1e300, 0.125, 2.675, -2.675]), st.floats())
GROUPS = st.sampled_from(list(GroupLabel))


def _column(n, values=VALUES):
    return st.lists(values, min_size=n, max_size=n).map(np.array)


@st.composite
def curve_sets(draw, values=VALUES):
    n = draw(st.integers(1, 6))
    times = draw(_column(n, MINUTES))
    return [GroupCurve(g, times, draw(_column(n, values)), draw(_column(n, values)),
                       draw(_column(n, values)), draw(st.integers(1, 30)))
            for g in draw(st.lists(GROUPS, min_size=1, max_size=4, unique=True))]


@st.composite
def overlay_sets(draw, values=VALUES):
    n = draw(st.integers(1, 6))
    return [CurveOverlay(draw(SUBJECT_IDS), draw(GROUPS), draw(_column(n, values)),
                         draw(_column(n, values)))
            for _ in range(draw(st.integers(1, 4)))]


def _fill_spy():
    """A wraps spy on numtext.fill."""
    return mock.patch.object(numtext, "fill", wraps=numtext.fill)


def _filled(spy) -> int:
    """How many values the spied fill calls wrote by the %-operator."""
    assert spy.called
    return sum(int(call.args[2].sum()) for call in spy.call_args_list)


def _with_loop_points(render, items):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtext, "points", loop_points)
        return render(items)


class TestPerMinuteWriters:
    """The block-formatting writers are byte-equal to the per-value writers
    they replaced. The figures scale nan and infinities into invalid
    operations on both sides alike, so numpy's warnings are off there."""

    @given(curve_sets())
    def test_curves(self, curves):
        assert curves_csv(curves) == loop_curves_csv(curves)
        # the figure's day ticks span the minutes, so it gets whole ones
        curves = [dataclasses.replace(c, times=np.arange(c.times.size, dtype=float))
                  for c in curves]
        with np.errstate(all="ignore"):
            assert render_curves_svg(curves) == _with_loop_points(render_curves_svg, curves)

    @given(overlay_sets())
    def test_overlays(self, overlays):
        assert overlays_csv(overlays) == loop_overlays_csv(overlays)
        with np.errstate(all="ignore"):
            assert render_overlays_svg(overlays) == \
                _with_loop_points(render_overlays_svg, overlays)

    @given(st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=8),
           st.sampled_from([(",", " "), (" ", " L ")]))
    def test_points(self, pairs, sep_join):
        x, y = np.array(pairs).T
        assert numtext.points(x, y, *sep_join) == loop_points(x, y, *sep_join)

    @given(st.lists(st.tuples(IN_RANGE, IN_RANGE), max_size=40),
           st.sampled_from([(",", " "), (" ", " L ")]))
    def test_points_in_range_are_formatted_in_numpy(self, pairs, sep_join):
        x, y = np.array(pairs, dtype=float).reshape(-1, 2).T
        with _fill_spy() as spy:
            assert numtext.points(x, y, *sep_join) == loop_points(x, y, *sep_join)
        assert _filled(spy) == 0

    @given(st.lists(st.tuples(IN_RANGE, IN_RANGE), min_size=1, max_size=20),
           OUT_OF_RANGE, st.integers(0, 39), st.sampled_from([(",", " "), (" ", " L ")]))
    def test_points_out_of_range_are_filled_one_at_a_time(self, pairs, bad, at, sep_join):
        v = np.array(pairs, dtype=float).ravel()
        v[at % v.size] = bad
        x, y = v.reshape(-1, 2).T
        with _fill_spy() as spy:
            assert numtext.points(x, y, *sep_join) == loop_points(x, y, *sep_join)
        assert _filled(spy) == 1

    @given(curve_sets(SIG6), overlay_sets(SIG6))
    def test_sig6_columns_are_formatted_in_numpy(self, curves, overlays):
        """Minutes below 10**6 in magnitude and "%.6g" values in the
        tables' range take no %-operator, whatever the subject ID holds."""
        curves = [dataclasses.replace(c, times=np.fmod(c.times, 1e6)) for c in curves]
        with _fill_spy() as spy:
            assert curves_csv(curves) == loop_curves_csv(curves)
            assert overlays_csv(overlays) == loop_overlays_csv(overlays)
        assert _filled(spy) == 0

    @given(st.lists(SIG6, min_size=1, max_size=12), NOT_SIG6, st.integers(0, 99))
    def test_other_values_are_filled_one_at_a_time(self, values, other, at):
        v = np.array(values)
        v[at % v.size] = other
        curve = GroupCurve(ICU, np.arange(v.size, dtype=float), v, v[::-1].copy(), v, 2)
        overlay = CurveOverlay("s1", CCI, v, v[::-1].copy())
        with _fill_spy() as spy:
            assert curves_csv([curve]) == loop_curves_csv([curve])
            assert overlays_csv([overlay]) == loop_overlays_csv([overlay])
        assert _filled(spy) == 5

    def test_a_week_of_minutes(self, rng):
        values = rng.gamma(0.5, 200.0, (3, 10080))
        values[:, :600] = 0.0   # a night of zero minutes
        curve = GroupCurve(ICU, np.arange(10080.0), *values, 4)
        overlay = CurveOverlay("s1", CCI, values[0], values[1])
        with _fill_spy() as spy:
            assert curves_csv([curve]) == loop_curves_csv([curve])
            assert overlays_csv([overlay]) == loop_overlays_csv([overlay])
        small = (values > 0) & (values < 1e-4)   # "%.6g" writes these as 1e-05 and so on
        assert _filled(spy) == small.sum() + small[:2].sum()
        assert curves_csv([curve]).splitlines()[-1].startswith("control_icu,10079,")

    @pytest.mark.parametrize("times, subject_id, filled", [
        (np.array([0.0, 0.5, -2.5]), "s1", 5),
        (np.array([0.0, 1.0, 1e6]), "s1", 6),
        (np.array([-1e20, -0.0, 999999.9]), "s1", 6),
        (np.arange(3.0), "a\0b\x01%d", 5),
    ])
    def test_other_minutes_and_ids_fill_only_their_values(self, times, subject_id, filled):
        """A minute that is not whole takes no %-operator, one of 10**6 or
        more in magnitude takes it for itself alone, and the subject ID
        takes none; the 1e-5 column values take it, one each."""
        v = np.array([0.125, 1e-5, 3.5])
        curve = GroupCurve(ICU, times, v, v, v, 1)
        overlay = CurveOverlay(subject_id, CCI, v, v)
        with _fill_spy() as spy:
            assert curves_csv([curve]) == loop_curves_csv([curve])
            assert overlays_csv([overlay]) == loop_overlays_csv([overlay])
        assert _filled(spy) == filled

    @pytest.mark.parametrize("minute, error", [(math.nan, ValueError),
                                               (math.inf, OverflowError),
                                               (-math.inf, OverflowError)])
    def test_minutes_that_are_not_finite_raise_as_percent_d(self, minute, error):
        curve = GroupCurve(ICU, np.array([0.0, minute]), *np.ones((3, 2)), 1)
        with pytest.raises(error):
            "%d" % minute
        with pytest.raises(error):
            curves_csv([curve])

    def test_points_on_the_five_day_grid(self):
        """x = 64 + t * 121 / 12 lies within 1e-6 of a half cent at every
        12th minute; those pairs are formatted in numpy too."""
        x = report._scale(np.arange(7200.0), 0, 7200, 64, 790)
        assert np.count_nonzero(np.abs(x * 100 - np.rint(x * 100)) > 0.5 - 1e-6) == 600
        y = x[::-1] / 2
        with _fill_spy() as spy:
            assert numtext.points(x, y) == loop_points(x, y)
            assert numtext.points(x, y, " ", " L ") == loop_points(x, y, " ", " L ")
        assert _filled(spy) == 0

    def test_quoted_prefix_with_format_directives(self):
        ov = CurveOverlay('a,%d "x"', CCI, np.array([0.125, -0.0]),
                          np.array([math.nan, 1e300]))
        assert overlays_csv([ov]).splitlines()[1:] == [
            '"a,%d ""x""",cci,0,0.125,nan', '"a,%d ""x""",cci,1,-0,1e+300']


class TestPipeline:
    def test_full_run_outputs(self, tmp_path):
        manifest = write_cohort(tmp_path / "cohort", sizes=SMALL_SIZES)
        result = run_pipeline(manifest, tmp_path / "out", FAST)
        assert len(result.records) == 8
        assert not result.skipped
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "comparison.csv", "comparison.txt", "cosinor.csv", "curves.csv", "curves.svg",
            "features.csv", "overlays.csv", "overlays.svg", "skips.csv"]
        comparison = (tmp_path / "out" / "comparison.csv").read_text()
        rows = {line.split(",")[0] for line in comparison.splitlines()[1:]}
        assert len(rows) == 15

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = write_cohort(tmp_path / "cohort", sizes=SMALL_SIZES)
        run_pipeline(manifest, tmp_path / "out1", FAST)
        run_pipeline(manifest, tmp_path / "out2", FAST)
        for name in ("features.csv", "cosinor.csv", "comparison.csv",
                     "comparison.txt", "curves.csv", "curves.svg",
                     "overlays.csv", "overlays.svg", "skips.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, name

    def test_short_subject_skipped_without_changing_others(self, tmp_path):
        cohort = tmp_path / "cohort"
        manifest = write_cohort(cohort, sizes=SMALL_SIZES)
        # give one extra subject only 3 days of data
        from actirhythm.ingest import SynthSpec, generate_synthetic, serialize_triaxial_csv

        short = generate_synthetic(
            SynthSpec(min=30, amplitude=200, alpha=0.0, beta=5, phase=12,
                      noise_sd=5, days=3, seed=77), subject_id="short")
        (cohort / "short.csv").write_text(serialize_triaxial_csv(short),
                                          encoding="utf-8", newline="\n")
        with_short = manifest.read_text() + "short,cci,short.csv\n"
        manifest2 = cohort / "manifest2.csv"
        manifest2.write_text(with_short, encoding="utf-8", newline="\n")

        run_pipeline(manifest, tmp_path / "base", FAST)
        result = run_pipeline(manifest2, tmp_path / "plus", FAST)
        assert [s[0] for s in result.skipped] == ["short"]
        assert "short" in (tmp_path / "plus" / "skips.csv").read_text()
        for name in ("features.csv", "cosinor.csv", "comparison.csv"):
            assert (tmp_path / "base" / name).read_bytes() == \
                (tmp_path / "plus" / name).read_bytes(), name

    def test_two_subjects_in_two_groups(self, tmp_path):
        # each feature has one value per group, too few to test: every
        # row keeps kw_p 1 and empty markers
        manifest = write_cohort(tmp_path / "cohort",
                                sizes={GroupLabel.CCI: 1, GroupLabel.RR: 1})
        result = run_pipeline(manifest, tmp_path / "out", FAST)
        assert len(result.records) == 2
        with (tmp_path / "out" / "comparison.csv").open(newline="",
                                                        encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert {(r["group"], r["kw_p"], r["markers"]) for r in rows} == \
            {("cci", "1", ""), ("rr", "1", "")}

    def test_fails_below_two_groups(self, tmp_path):
        manifest = write_cohort(tmp_path / "cohort",
                                sizes={GroupLabel.CCI: 2})
        with pytest.raises(errors.InsufficientData):
            run_pipeline(manifest, tmp_path / "out", FAST)
        assert (tmp_path / "out" / "skips.csv").exists()
