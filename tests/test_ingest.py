import codecs
import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actirhythm import errors
from actirhythm.ingest import (
    GroupLabel,
    SynthSpec,
    TriaxialSeries,
    _parse_columnar,
    aggregate_to_minutes,
    generate_synthetic,
    load_manifest,
    parse_triaxial_csv,
    serialize_triaxial_csv,
)
from reference_impls import row_loop_parse_triaxial_csv, row_loop_serialize_triaxial_csv

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


HEADERS = ["timestamp,axis1,axis2,axis3", "timestamp,vm",
           "Timestamp,AXIS1,axis2,Axis3", " timestamp , vm", "timestamp,axis1,axis2"]
EPOCHS = [1, 2, 5, 15, 30, 60, 120, 7]
STARTS = [datetime(2016, 5, 1, 8, 30), datetime(2016, 12, 31, 23, 59, 45),
          datetime(999, 1, 1), datetime(9999, 12, 31, 23, 59)]
ODD_COUNTS = ["1_0", "nan", "inf", "1e400", "-3", "-0.0", " 7 ", '"5"', "", "+2",
              ".5", "5.", "1e5", "\u0661", "5\x1c", "\t5"]
# each edit turns a canonical file into one the row loop reads or rejects
EDITS = ["blank", "crlf", "quote", "pad", "micro", "space", "zulu", "drop",
         "swap", "extra", "non_ascii", "nul", "cut"]


@st.composite
def epoch_files(draw):
    """(text, canonical): a small epoch CSV, and True when it was built in
    the canonical form that the columnar parse must take."""
    header = draw(st.sampled_from(HEADERS))
    width = header.count(",")
    epoch = draw(st.sampled_from(EPOCHS))
    start = np.datetime64(draw(st.sampled_from(STARTS)), "s")
    canonical = header in HEADERS[:2] and epoch != 7
    rows = []
    for k in range(draw(st.integers(0, 6))):
        # numpy writes years past 9999 with five digits; keeping 19
        # characters gives a stamp like 10000-01-01T00:00:0
        stamp = np.datetime_as_string(start + k * epoch)
        canonical &= len(stamp) == 19
        counts = []
        for _ in range(width):
            if draw(st.integers(0, 29)) == 29:
                counts.append(draw(st.sampled_from(ODD_COUNTS)))
                canonical = False
            else:
                counts.append(repr(draw(st.floats(0, 1e300))))
        rows.append([stamp[:19], *counts])
    canonical &= len(rows) >= 2
    edits = draw(st.lists(st.sampled_from(EDITS), max_size=2))
    canonical &= not edits
    end = "\n"
    for edit in edits:
        pick = st.integers(0, max(len(rows) - 1, 0))
        if edit == "crlf":
            end = "\r\n"
        elif edit == "cut":
            pass
        elif not rows:
            continue
        elif edit == "blank":
            rows.insert(draw(pick), [draw(st.sampled_from(["", "  "]))])
        elif edit in ("drop", "swap") and len(rows) > 2:
            i = draw(st.integers(1, len(rows) - 1))
            if edit == "drop":
                del rows[i]
            else:
                rows[i - 1], rows[i] = rows[i], rows[i - 1]
        elif edit == "extra":
            rows[draw(pick)].append("0")
        else:
            row = rows[draw(pick)]
            f = draw(st.integers(0, len(row) - 1))
            row[f] = {"quote": f'"{row[f]}"', "pad": f" {row[f]} ",
                      "micro": row[f] + ".250000", "space": row[f].replace("T", " "),
                      "zulu": row[f] + "Z", "non_ascii": row[f] + "\u00e9",
                      "nul": row[f] + "\0"}.get(edit, row[f])
    text = end.join([header, *(",".join(row) for row in rows)]) + end
    if "cut" in edits:
        text = text[:draw(st.integers(0, len(text)))]
    return text, canonical


def parse_outcome(parse, content):
    try:
        series = parse(content, "s1")
    except errors.DataError as exc:
        return type(exc), str(exc)
    return series.start_time, series.epoch_length, series.samples.tobytes()


CANONICAL = ("timestamp,axis1,axis2,axis3\n2016-05-01T08:30:00,1,2,3\n"
             "2016-05-01T08:31:00,4,5,6\n2016-05-01T08:32:00,7,8,9\n")
# one step away from CANONICAL each: (old, new) replaced once
NEAR_CANONICAL = [
    ("00,1,", "00\0,1,"), ("31:00,", "31:00\0,"), (":00,1", ":00Z,1"),
    ("8:30:00,", "8:30:00Z,"), ("8:30:00,1", "8:30:00.5,1"), ("T08:31", " 08:31"),
    (",5,", ",nan,"), (",5,", ",inf,"), (",5,", ",1e400,"), (",5,", ",-5,"),
    (",5,", ",-0.0,"), (",5,", ",5_0,"), (",5,", ",\u0665,"), (",5,", ', "5" ,'),
    (",5,", ",5\x1c,"), ("6\n", "6\n\n"), ("9\n", "9\n\n"), ("9\n", "9\n  \n"),
    ("\n", "\r\n"), ("6\n", "6\r\n"), ("8:32:00,7,8,9\n", "8:32"),
    ("8:31:00,4,5,6", "8:31:00,4,5,6,7"), ("8:31:00,4,5,6", "8:31:00,4,5"),
    ("08:32", "08:29"), ("08:32", "08:33"), ("08:31", "08:30:07"),
    ("axis1,axis2,axis3", "AXIS1,axis2,axis3"), ('2016-05-01T08:30:00', '"2016-05-01T08:30:00"'),
]
WHOLE_FILES = [
    "timestamp,axis1,axis2,axis3\n", "timestamp,axis1,axis2,axis3\n\n",
    "timestamp,vm\n2016-05-01T00:00:00,1\n",
    "timestamp,vm\n2016-05-01T00:00:00,1\n2016-05-01T00:00:07,1\n2016-05-01T00:00:14,1\n",
    "timestamp,vm\n2016-05-01T00:00:00,1\n2016-05-01T00:00:00,1\n",
    "timestamp,vm\n9999-12-31T23:59:00,1\n9999-12-31T23:59:30,1\n10000-01-01T00:00:0,1\n",
    "timestamp,vm\n2016-05-01T00:00:00Z,1\n2016-05-01T00:01:00Z,1\n",
]


class TestColumnarMatchesRowLoop:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [CANONICAL.replace(old, new, 1)
                                      for old, new in NEAR_CANONICAL] + WHOLE_FILES)
    def test_near_canonical_files(self, text):
        expected = parse_outcome(row_loop_parse_triaxial_csv, text)
        assert parse_outcome(parse_triaxial_csv, text) == expected
        assert parse_outcome(parse_triaxial_csv, text.encode()) == expected

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400)
    @given(epoch_files())
    def test_same_series_or_same_error(self, case):
        text, canonical = case
        expected = parse_outcome(row_loop_parse_triaxial_csv, text)
        assert parse_outcome(parse_triaxial_csv, text) == expected
        assert parse_outcome(parse_triaxial_csv, text.encode()) == expected
        if canonical:
            assert _parse_columnar(text.encode(), "s1") is not None

    @given(epoch_files(), st.data())
    def test_undecodable_byte_names_its_line(self, case, data):
        content = case[0].encode()
        at = data.draw(st.integers(0, len(content)))
        content = content[:at] + b"\xff" + content[at:]
        with pytest.raises(UnicodeDecodeError):
            row_loop_parse_triaxial_csv(content, "s1")
        with pytest.raises(errors.MalformedRow) as exc:
            parse_triaxial_csv(content, "s1")
        assert exc.value.line_no == content.count(b"\n", 0, at) + 1

    @given(st.lists(st.tuples(*[st.floats(0, 1e300)] * 3), max_size=20),
           st.sampled_from([e for e in EPOCHS if e != 7]),
           st.sampled_from(STARTS + [datetime(2016, 5, 1, 8, 30, 0, 999999)]))
    def test_writer_matches_the_row_loop_writer(self, counts, epoch, start):
        series = TriaxialSeries("s1", start, epoch, np.array(counts).reshape(-1, 3))
        try:
            expected = row_loop_serialize_triaxial_csv(series)
        except OverflowError:
            with pytest.raises(OverflowError):
                serialize_triaxial_csv(series)
            return
        assert serialize_triaxial_csv(series) == expected

    @pytest.mark.parametrize("old, new", [
        ("\n", "\r\n"), ("axis1", "AXIS1"), ("T08:3", " 08:3"), ("\n2016", "\n 2016"),
        ("08:31:00", "08:31:00.000000"), ("08:31:00", "08:31:00Z"), ("08:31", "08:30"),
        ("\n2016-05-01T08:31:00,4,5,6\n2016-05-01T08:32:00,7,8,9", ""),
    ])
    def test_other_stamp_forms_are_turned_away_before_loadtxt(self, monkeypatch,
                                                               old, new):
        def loadtxt(*args, **kwargs):
            raise AssertionError("loadtxt ran")
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        text = CANONICAL.replace(old, new)
        assert _parse_columnar(text.encode(), "s1") is None
        assert parse_outcome(parse_triaxial_csv, text) == parse_outcome(
            row_loop_parse_triaxial_csv, text)

    @pytest.mark.parametrize("text", [CANONICAL, CANONICAL.replace("\n", "\r\n")])
    def test_byte_order_mark_is_skipped(self, text):
        with_mark = codecs.BOM_UTF8 + text.encode()
        assert parse_outcome(parse_triaxial_csv, with_mark) == \
            parse_outcome(parse_triaxial_csv, text.encode())

    def test_canonical_files_take_the_columnar_path(self):
        for text in (CANONICAL, serialize_triaxial_csv(parse_triaxial_csv(CANONICAL, "s1"))):
            assert_series_equal(_parse_columnar(text.encode(), "s1"),
                                row_loop_parse_triaxial_csv(text, "s1"))

    def test_writer_matches_after_parsing_the_vm_variant(self):
        series = parse_triaxial_csv("timestamp,vm\n2016-05-01T00:00:00,5\n"
                                    "2016-05-01T00:00:30,2.5\n", "s1")
        assert serialize_triaxial_csv(series) == row_loop_serialize_triaxial_csv(series)


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

    def test_byte_order_mark_is_skipped(self):
        m = load_manifest(codecs.BOM_UTF8 + b"subject_id,group,path\na,cci,a.csv\n")
        assert [e.subject_id for e in m.entries] == ["a"]

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
