import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actirhythm import errors
from actirhythm.ingest import (
    GroupLabel,
    SynthSpec,
    TriaxialSeries,
    aggregate_to_minutes,
    generate_synthetic,
    load_manifest,
    parse_triaxial_csv,
    serialize_triaxial_csv,
)

HEADER = "timestamp,axis1,axis2,axis3\n"


def rows_csv(*rows):
    return HEADER + "\n".join(rows) + "\n"


def assert_series_equal(a: TriaxialSeries, b: TriaxialSeries):
    assert a.subject_id == b.subject_id
    assert a.start_time == b.start_time
    assert a.epoch_length == b.epoch_length
    assert np.array_equal(a.samples, b.samples)


class TestParse:
    def test_three_rows(self):
        content = rows_csv("2016-05-01T10:00:00,3,4,0",
                           "2016-05-01T10:01:00,0,0,0",
                           "2016-05-01T10:02:00,1,2,2")
        s = parse_triaxial_csv(content, "s1")
        assert len(s) == 3
        assert s.epoch_length == 60
        assert s.start_time == datetime(2016, 5, 1, 10, 0, 0)
        assert np.array_equal(s.samples, [[3, 4, 0], [0, 0, 0], [1, 2, 2]])

    def test_irregular_gap(self):
        content = rows_csv("2016-05-01T00:00:00,1,1,1",
                           "2016-05-01T00:01:00,1,1,1",
                           "2016-05-01T00:03:00,1,1,1")
        with pytest.raises(errors.IrregularEpoch):
            parse_triaxial_csv(content, "s1")

    def test_empty_after_header(self):
        s = parse_triaxial_csv(HEADER, "s1")
        assert len(s) == 0

    def test_vm_variant(self):
        content = ("timestamp,vm\n"
                   "2016-05-01T00:00:00,5\n"
                   "2016-05-01T00:01:00,2.5\n")
        s = parse_triaxial_csv(content, "s1")
        assert np.array_equal(s.samples, [[5, 0, 0], [2.5, 0, 0]])

    def test_malformed_row_reports_line(self):
        content = rows_csv("2016-05-01T00:00:00,1,1,1",
                           "2016-05-01T00:01:00,1,oops,1")
        with pytest.raises(errors.MalformedRow) as exc:
            parse_triaxial_csv(content, "s1")
        assert exc.value.line_no == 3

    def test_negative_count(self):
        with pytest.raises(errors.NegativeCount):
            parse_triaxial_csv(rows_csv("2016-05-01T00:00:00,1,-2,1"), "s1")

    def test_non_monotonic(self):
        content = rows_csv("2016-05-01T00:02:00,1,1,1",
                           "2016-05-01T00:01:00,1,1,1")
        with pytest.raises(errors.NonMonotonicTime):
            parse_triaxial_csv(content, "s1")

    @pytest.mark.parametrize("last, error", [
        ("2016-05-01T00:03:00", errors.IrregularEpoch),
        ("2016-05-01T00:01:00", errors.NonMonotonicTime),
    ])
    def test_gap_error_names_the_file_line_after_blank_lines(self, last, error):
        content = rows_csv("2016-05-01T00:00:00,1,1,1", "", "",
                           "2016-05-01T00:01:00,1,1,1", f"{last},1,1,1")
        with pytest.raises(error, match="at line 6"):
            parse_triaxial_csv(content, "s1")

    def test_bad_csv_syntax_is_a_malformed_row(self):
        content = rows_csv("2016-05-01T00:00:00,1,1,1", "2016-05-01T00:01:00,1\r,1,1")
        with pytest.raises(errors.MalformedRow) as exc:
            parse_triaxial_csv(content, "s1")
        assert exc.value.line_no == 3

    def test_bad_header(self):
        with pytest.raises(errors.MalformedRow):
            parse_triaxial_csv("time,x,y,z\n", "s1")

    def test_accepts_bytes(self):
        s = parse_triaxial_csv(rows_csv("2016-05-01T00:00:00,1,2,3").encode(), "s1")
        assert len(s) == 1

    def test_sub_minute_epoch_inferred(self):
        content = rows_csv("2016-05-01T00:00:00,1,0,0",
                           "2016-05-01T00:00:15,2,0,0",
                           "2016-05-01T00:00:30,3,0,0")
        assert parse_triaxial_csv(content, "s1").epoch_length == 15

    # one data row cannot encode its epoch (the epoch lives in the gaps),
    # so the roundtrip property holds from two rows up
    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000),
                              st.integers(0, 5000)), min_size=2, max_size=50),
           st.sampled_from([15, 30, 60]))
    def test_roundtrip_identity(self, counts, epoch):
        series = TriaxialSeries("subj", datetime(2016, 5, 1, 8, 30),
                                epoch, np.array(counts, dtype=float))
        again = parse_triaxial_csv(serialize_triaxial_csv(series), "subj")
        assert_series_equal(series, again)

    def test_roundtrip_single_minute_row(self):
        series = TriaxialSeries("subj", datetime(2016, 5, 1), 60,
                                np.array([[1.0, 2.0, 3.0]]))
        again = parse_triaxial_csv(serialize_triaxial_csv(series), "subj")
        assert_series_equal(series, again)

    def test_roundtrip_fractional_counts(self):
        series = TriaxialSeries("subj", datetime(2016, 5, 1), 60,
                                np.array([[0.1, 2.3456789012345, 7e-3]]))
        again = parse_triaxial_csv(serialize_triaxial_csv(series), "subj")
        assert_series_equal(series, again)


class TestAggregate:
    def test_sums_sub_epochs(self):
        samples = np.tile([1.0, 0.0, 0.0], (60, 1))
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 1, samples)
        out = aggregate_to_minutes(s)
        assert len(out) == 1
        assert np.array_equal(out.samples, [[60, 0, 0]])

    def test_minute_series_unchanged(self):
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 60,
                           np.array([[1.0, 2.0, 3.0]]))
        assert aggregate_to_minutes(s) is s

    def test_trailing_partial_minute_dropped(self):
        samples = np.ones((90, 3))
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 15, samples)
        out = aggregate_to_minutes(s)
        assert len(out) == 22
        assert np.allclose(out.samples, 4.0)

    def test_incompatible_epoch(self):
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 120, np.ones((3, 3)))
        with pytest.raises(errors.IncompatibleEpoch):
            aggregate_to_minutes(s)

    def test_overflowing_minute_sum_is_a_data_error(self):
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 30,
                           np.array([[1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]))
        with pytest.raises(errors.CountOverflow):
            aggregate_to_minutes(s)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    def test_counts_preserved_up_to_dropped_tail(self, xs):
        samples = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 15, samples)
        out = aggregate_to_minutes(s)
        kept = (len(xs) // 4) * 4
        assert out.samples[:, 0].sum() == sum(xs[:kept])


class TestManifest:
    def test_two_rows(self):
        m = load_manifest("subject_id,group,path\na,cci,a.csv\nb,rr,b.csv\n")
        assert [e.subject_id for e in m.entries] == ["a", "b"]
        assert m.entries[0].group is GroupLabel.CCI
        assert m.entries[1].group is GroupLabel.RR

    def test_case_insensitive_groups(self):
        m = load_manifest("subject_id,group,path\na,Control_ICU,a.csv\n")
        assert m.entries[0].group is GroupLabel.CONTROL_ICU

    def test_duplicate_subject(self):
        with pytest.raises(errors.DuplicateSubject):
            load_manifest("subject_id,group,path\na,cci,a.csv\na,rr,b.csv\n")

    def test_unknown_group(self):
        with pytest.raises(errors.UnknownGroup):
            load_manifest("subject_id,group,path\na,septic,a.csv\n")

    @pytest.mark.parametrize("row", ['"a\rb",cci,a.csv', '"a\nb",cci,a.csv',
                                     'a,cci,"a\n.csv"', 'a\rb,cci,a.csv'])
    def test_line_break_in_a_field(self, row):
        with pytest.raises(errors.MalformedRow):
            load_manifest(f"subject_id,group,path\n{row}\n")

    def test_crlf_line_ends(self):
        m = load_manifest("subject_id,group,path\r\na,cci,a.csv\r\n")
        assert m.entries[0].source_path == "a.csv"


class TestSynthetic:
    def test_flat_zero_model(self):
        s = generate_synthetic(SynthSpec(min=0, amplitude=0, alpha=0, beta=2,
                                         phase=0, noise_sd=0, days=1, seed=1))
        assert len(s) == 1440
        assert np.all(s.samples == 0)

    def test_constant_model(self):
        s = generate_synthetic(SynthSpec(min=10, amplitude=0, alpha=0, beta=2,
                                         phase=0, noise_sd=0, days=1, seed=1))
        assert np.all(s.samples[:, 0] == 10)

    def test_peak_value_matches_hand_evaluation(self):
        s = generate_synthetic(SynthSpec(min=0, amplitude=100, alpha=0, beta=2,
                                         phase=14, noise_sd=0, days=1, seed=1))
        expected = 100 * math.exp(2) / (1 + math.exp(2))
        assert s.samples[:, 0].max() == pytest.approx(expected, abs=1e-3)

    def test_noiseless_matches_model_at_midpoints(self):
        from actirhythm import curve

        spec = SynthSpec(min=5, amplitude=50, alpha=0.3, beta=4, phase=9,
                         noise_sd=0, days=2, seed=7)
        s = generate_synthetic(spec)
        t = (np.arange(len(s)) + 0.5) / 60.0
        model = curve.evaluate(t, 5, 50, 0.3, 4, 9)
        assert np.max(np.abs(s.samples[:, 0] - model)) < 1e-12

    def test_deterministic_given_seed(self):
        spec = SynthSpec(min=5, amplitude=50, alpha=0.3, beta=4, phase=9,
                         noise_sd=10, days=2, seed=99)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_counts_clamped_non_negative(self):
        spec = SynthSpec(min=0, amplitude=1, alpha=0, beta=2, phase=0,
                         noise_sd=50, days=1, seed=3)
        assert generate_synthetic(spec).samples.min() >= 0

    @pytest.mark.parametrize("field,value", [
        ("alpha", 1.0), ("alpha", -1.5), ("beta", 0.0), ("phase", 24.0),
        ("phase", -1.0), ("noise_sd", -1.0), ("days", 0), ("amplitude", -2.0),
        ("min", -1.0),
    ])
    def test_invalid_spec(self, field, value):
        kwargs = dict(min=0, amplitude=1, alpha=0, beta=2, phase=0,
                      noise_sd=0, days=1, seed=0)
        kwargs[field] = value
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(**kwargs)
