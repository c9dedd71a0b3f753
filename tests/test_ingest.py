import codecs
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from datetime import date, datetime, timedelta
from decimal import ROUND_DOWN, Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actirhythm import errors, ingest
from actirhythm.ingest import (
    GroupLabel,
    SynthSpec,
    TriaxialSeries,
    _STAMP_BLOCK,
    _parse_columnar,
    _split,
    _stamp_blocks,
    aggregate_to_minutes,
    generate_synthetic,
    load_manifest,
    parse_triaxial_csv,
    serialize_triaxial_csv,
)
from actirhythm.preprocess import to_activity_series
from edge_values import DIGIT_COUNTS, EDGE_COUNTS, GROUP_EDGES, SMALL_COUNTS
from reference_impls import (
    one_pass_serialize_triaxial_csv,
    row_loop_parse_triaxial_csv,
    row_loop_serialize_triaxial_csv,
)

HEADER = "timestamp,axis1,axis2,axis3\n"
# Hypothesis warns of a deprecation in its own hook that reports a failing
# example. Put above an "error" filter, this filter lets that report through,
# and any other warning still raises.
HYPOTHESIS_REPORT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


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

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    def test_bad_byte_after_a_bad_row_names_the_byte(self, end):
        content = end.join([b"timestamp,axis1,axis2,axis3", b"2016-05-01T00:00:00,1,1,1",
                            b"2016-05-01T00:01:00,1,oops,1", b"2016-05-01T00:02:00,1,1,1",
                            b"2016-05-01T00:03:00,1,\xff,1", b""])
        with pytest.raises(errors.MalformedRow, match="byte 0xff is not UTF-8") as exc:
            parse_triaxial_csv(content, "s1")
        assert exc.value.line_no == 5

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


class TestTriaxialSeries:
    @pytest.mark.parametrize("bad", [
        [[1.0, np.nan, -2.0]], [[-2.0, 1.0, np.nan]], [[0.0, -np.inf, 1.0]],
        [[np.inf, 1.0, -2.0]], [[-2.0, 0.0, np.inf]], [[np.nan, np.inf, -np.inf]],
    ])
    def test_non_finite_counts_raise_before_negative_ones(self, bad):
        samples = np.vstack([np.ones((4, 3)), bad])
        with pytest.raises(ValueError, match="^counts must be finite$") as exc:
            TriaxialSeries("s1", datetime(2016, 5, 1), 60, samples)
        assert not isinstance(exc.value, errors.NegativeCount)

    def test_negative_count(self):
        with pytest.raises(errors.NegativeCount, match="^counts must be non-negative$"):
            TriaxialSeries("s1", datetime(2016, 5, 1), 60, [[1.0, -5e-324, 1e308]])


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


@pytest.fixture(scope="class")
def no_loadtxt():
    """np.loadtxt raises if anything calls it: the columnar parse reads
    every canonical block from the bytes. Class-scoped, so hypothesis
    tests can use it."""
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")
    with mock.patch.object(np, "loadtxt", loadtxt):
        yield


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


@pytest.mark.usefixtures("no_loadtxt")
class TestColumnarMatchesRowLoop:
    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [CANONICAL.replace(old, new, 1)
                                      for old, new in NEAR_CANONICAL] + WHOLE_FILES)
    def test_near_canonical_files(self, text):
        expected = parse_outcome(row_loop_parse_triaxial_csv, text)
        assert parse_outcome(parse_triaxial_csv, text) == expected
        assert parse_outcome(parse_triaxial_csv, text.encode()) == expected

    @HYPOTHESIS_REPORT
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
    def test_other_stamp_forms_are_turned_away(self, old, new):
        text = CANONICAL.replace(old, new)
        assert _parse_columnar(text.encode(), "s1") is None
        assert parse_outcome(parse_triaxial_csv, text) == parse_outcome(
            row_loop_parse_triaxial_csv, text)

    @pytest.mark.parametrize("epoch", [7, 45, 61, 90])
    @pytest.mark.parametrize("counts", ["1,2,3", "1.5,2,3"])
    def test_epochs_off_the_minute_go_to_the_row_loop(self, epoch, counts):
        text = HEADER + "".join(
            f"{(STARTS[1] + timedelta(seconds=k * epoch)).isoformat()},{counts}\n"
            for k in range(5))
        assert _parse_columnar(text.encode(), "s1") is None
        outcome = parse_outcome(parse_triaxial_csv, text.encode())
        assert outcome[0] is errors.IrregularEpoch
        assert outcome == parse_outcome(row_loop_parse_triaxial_csv, text)

    @pytest.mark.parametrize("text", [CANONICAL, CANONICAL.replace("\n", "\r\n")])
    def test_byte_order_mark_is_skipped(self, text):
        expected = parse_outcome(parse_triaxial_csv, text.encode())
        assert parse_outcome(parse_triaxial_csv, codecs.BOM_UTF8 + text.encode()) == expected
        assert parse_outcome(parse_triaxial_csv, "\ufeff" + text) == expected

    def test_canonical_files_take_the_columnar_path(self):
        for text in (CANONICAL, serialize_triaxial_csv(parse_triaxial_csv(CANONICAL, "s1"))):
            assert_series_equal(_parse_columnar(text.encode(), "s1"),
                                row_loop_parse_triaxial_csv(text, "s1"))

    def test_writer_matches_after_parsing_the_vm_variant(self):
        series = parse_triaxial_csv("timestamp,vm\n2016-05-01T00:00:00,5\n"
                                    "2016-05-01T00:00:30,2.5\n", "s1")
        assert serialize_triaxial_csv(series) == row_loop_serialize_triaxial_csv(series)

    @pytest.mark.parametrize("n", [_STAMP_BLOCK - 1, _STAMP_BLOCK, _STAMP_BLOCK + 1])
    def test_writer_blocks_match_the_one_pass_writer(self, n):
        samples = np.random.default_rng(n).uniform(0, 1e4, (n, 3))
        samples[::3] = np.round(samples[::3])
        # 2 s epochs from the last second of Feb 28 run through the leap day
        series = TriaxialSeries("s1", datetime(2016, 2, 28, 23, 59, 59), 2, samples)
        text = serialize_triaxial_csv(series)
        # line by line: pytest would take minutes to diff two whole texts
        lines, expected = text.split("\n"), one_pass_serialize_triaxial_csv(series).split("\n")
        wrong = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None)
        assert (wrong, len(lines)) == (None, len(expected))
        assert_series_equal(_parse_columnar(text.encode(), "s1"), series)
        last = text.rindex("\n", 0, -1) + 1   # the last row's stamp, in the last block
        assert _parse_columnar((text[:last] + "1" + text[last + 1:]).encode(), "s1") is None


def traced_peak(fn, *args):
    """The most memory traced while ``fn(*args)`` ran, in bytes, and what it
    returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestBlockwiseParse:
    """The columnar parse takes its row count from the last stamp and reads
    the file _STAMP_BLOCK rows at a time."""

    @settings(max_examples=200)
    @given(epoch_files(), st.integers(1, 3))
    def test_small_blocks_give_the_same_series_or_error(self, case, block):
        text, canonical = case
        expected = parse_outcome(row_loop_parse_triaxial_csv, text)
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            assert parse_outcome(parse_triaxial_csv, text.encode()) == expected
            if canonical:
                assert _parse_columnar(text.encode(), "s1") is not None

    @pytest.mark.parametrize("block", [1, 2, 3, _STAMP_BLOCK])
    def test_no_final_line_feed(self, block):
        text = HEADER + "\n".join([
            "2016-05-01T08:30:00,1,2,3", "2016-05-01T08:30:30,4,5,6",
            "2016-05-01T08:31:00,7,8,9", "2016-05-01T08:31:30,1.5,0,2",
            "2016-05-01T08:32:00,0,0,7"])
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            series = _parse_columnar(text.encode(), "s1")
        assert series is not None
        assert_series_equal(series, row_loop_parse_triaxial_csv(text, "s1"))

    @pytest.mark.parametrize("last", [
        "9999-12-31T23:59:00",   # far more rows than the file has bytes for
        "2016-05-01T08:33:00",   # one row more than the file has
        "2016-05-01T08:31:00",   # one row fewer
        "2016-05-01T08:32:30",   # off the grid
        "2016-05-01T08:29:00",   # before the first stamp
    ])
    def test_last_stamp_off_the_rows(self, last):
        text = CANONICAL.replace("2016-05-01T08:32:00", last)
        peak, series = traced_peak(_parse_columnar, text.encode(), "s1")
        assert series is None and peak < 64 * 1024
        assert parse_outcome(parse_triaxial_csv, text.encode()) == parse_outcome(
            row_loop_parse_triaxial_csv, text)

    @pytest.mark.parametrize("tail", ["2016-05-01T08:32:00,7,8,9\n", "2016-05-01T08:32:00"])
    def test_lines_after_the_last_stamps_row(self, tail):
        text = CANONICAL + tail
        assert _parse_columnar(text.encode(), "s1") is None
        assert parse_outcome(parse_triaxial_csv, text.encode()) == parse_outcome(
            row_loop_parse_triaxial_csv, text)


def second_counts(n):
    """``n`` seconds of whole counts, as a 1 s-epoch export holds them."""
    return np.random.default_rng(n).poisson(3.0, (n, 3)).astype(float)


def repr_counts(n):
    """``n`` rows of 17-digit reprs such as 24.708885911143664, the counts
    ``synth`` writes."""
    return np.random.default_rng(n).uniform(10, 100, (n, 3))


class TestMemoryBounds:
    """Peak memory of the canonical parse and of the writer, by tracemalloc,
    with blocks of BLOCK rows so that a small file has many blocks.
    ``samples`` is the parsed series' (n, 3) array; a block's allowance is
    the peak of the same path on a file of one block, which is one part.
    tracemalloc traces the parse's threads too."""

    BLOCK = 1024
    ROWS = 16 * BLOCK

    def file(self, counts, n):
        series = TriaxialSeries("s1", datetime(2016, 5, 1), 1, counts(n))
        return serialize_triaxial_csv(series).encode()

    def parse_peaks(self, counts, parts):
        """The traced peaks of parsing a file of one block and one of ROWS
        rows in up to ``parts`` parts, and the latter's series."""
        with (mock.patch.object(ingest, "_STAMP_BLOCK", self.BLOCK),
              mock.patch.object(ingest, "_PARTS", parts)):
            content = self.file(counts, self.ROWS)
            one_block = self.file(counts, self.BLOCK)
            block_peak, _ = traced_peak(_parse_columnar, one_block, "s1")
            peak, series = traced_peak(_parse_columnar, content, "s1")
        assert series is not None and len(series) == self.ROWS
        return block_peak, peak, series

    # whole counts are read in one pass of _whole_counts; halves and reprs
    # by _read_counts, the reprs mostly past 2**53 and so by _quotients
    COUNTS = pytest.mark.parametrize(
        "counts", [second_counts, lambda n: second_counts(n) + 0.5, repr_counts],
        ids=["whole", "halves", "reprs"])

    @COUNTS
    def test_canonical_parse_holds_samples_and_one_block(self, counts):
        block_peak, peak, series = self.parse_peaks(counts, 1)
        assert peak <= series.samples.nbytes + 2 * block_peak

    @COUNTS
    @pytest.mark.parametrize("parts", [2, 3, 8], ids=lambda p: f"parts={p}")
    def test_split_parse_holds_samples_and_one_block_per_part(self, counts, parts):
        block_peak, peak, series = self.parse_peaks(counts, parts)
        assert peak <= series.samples.nbytes + (parts + 1) * block_peak

    @COUNTS
    def test_each_part_alone_holds_at_most_one_block(self, counts):
        """Each of 8 parts of two blocks, read alone, peaks no higher than a
        file of one block: parts read at once then hold at most the bound
        above. A read window past its block's rows broke this."""
        with (mock.patch.object(ingest, "_STAMP_BLOCK", self.BLOCK),
              mock.patch.object(ingest, "_PARTS", 8)):
            content = self.file(counts, self.ROWS)
            block_peak, _ = traced_peak(_parse_columnar, self.file(counts, self.BLOCK), "s1")
            start = datetime(2016, 5, 1)
            parts = _split(content, content.index(b"\n") + 1, start, 1, self.ROWS)
            assert len(parts) == 8
            samples = np.zeros((self.ROWS, 3))
            bounds = [*parts, (len(content), self.ROWS)]
            for (pos, k), (end, k_end) in zip(bounds, bounds[1:]):
                peak, read = traced_peak(ingest._read_part, content, pos, end,
                                         start + timedelta(seconds=k), 1, samples[k:k_end])
                assert read and peak <= block_peak
        assert np.array_equal(samples, counts(self.ROWS))

    def test_writer_holds_twice_its_text_and_one_block(self):
        series = TriaxialSeries("s1", datetime(2016, 5, 1), 1, second_counts(self.ROWS))
        one_block = TriaxialSeries("s1", datetime(2016, 5, 1), 1,
                                   second_counts(self.BLOCK))
        with mock.patch.object(ingest, "_STAMP_BLOCK", self.BLOCK):
            block_peak, _ = traced_peak(serialize_triaxial_csv, one_block)
            peak, text = traced_peak(serialize_triaxial_csv, series)
        assert peak <= 2 * len(text) + block_peak

    def test_writer_lays_out_every_block_in_one_buffer(self):
        """The rows are laid out in one buffer made for the series, of a
        block's rows at the widest row a block can take: a buffer made per
        block fragments the heap of the writer's caller."""
        buffers = []
        format_block = ingest._format_block

        def record(stamps, samples, buffer):
            buffers.append(buffer)
            return format_block(stamps, samples, buffer)

        samples = second_counts(self.ROWS)
        samples[self.BLOCK, 2] = 0.5   # one block with a repr column
        series = TriaxialSeries("s1", datetime(2016, 5, 1), 1, samples)
        with (mock.patch.object(ingest, "_STAMP_BLOCK", self.BLOCK),
              mock.patch.object(ingest, "_format_block", record)):
            text = serialize_triaxial_csv(series)
        assert len(buffers) == 16
        assert all(buffer is buffers[0] for buffer in buffers)
        # the stamp and ",", then three slots of one group, ".0" and ","
        assert buffers[0].nbytes == self.BLOCK * (20 + 3 * 7)
        assert text == one_pass_serialize_triaxial_csv(series)

    def test_stamp_blocks_refill_one_buffer(self):
        """Every block's stamps are a view of one buffer made for the grid:
        a buffer made per block fragments the heap of the writer's caller."""
        with mock.patch.object(ingest, "_STAMP_BLOCK", self.BLOCK):
            blocks = [stamps for _, stamps in
                      _stamp_blocks(datetime(2016, 5, 1, 23, 59, 45), 5, self.ROWS)]
        assert len(blocks) == 16
        assert all(stamps.base is blocks[0].base for stamps in blocks)
        # a block's rows and at most two 12-row slots more
        assert blocks[0].base.nbytes <= 24 * (self.BLOCK + 2 * 12)


# whole counts around float64's and int64's limits: 2**53 + 1 rounds to
# 2**53 as float() rounds it, 18 digits is the longest whole field, and
# 19 or 20 digits overflow an int64
WHOLE_EDGES = [0, 9, 2 ** 53 + 1, 10 ** 16 - 1, 10 ** 16 + 1, 10 ** 17 - 1, 10 ** 18 - 1,
               10 ** 19 - 1, 2 ** 64 + 1]
# %d.0 as the writer has it, plain digits, leading zeros, 18 digits
WHOLE_FORMS = ["%d.0", "%d", "0%d", "00%d.0", "%018d"]
WHOLE_FIELD = re.compile(r"\d{1,18}(\.0)?")
# fields one step from a whole count
NEAR_WHOLE = ["", ".0", "5.", "5.00", "5.1", "05.0", "5e0", "-0", "5.0.0", "5 "]
# how far one row's stamp is moved: each changes other bytes of the stamp
STAMP_SHIFTS = [1, -1, 10, 60, 3600, 86400, 31 * 86400, 366 * 86400]


@st.composite
def whole_count_files(draw):
    """(text, kind): a canonical epoch CSV of up to 8 rows whose counts are
    whole, each in one of WHOLE_FORMS. Some have one count swapped for an
    ODD_COUNTS or NEAR_WHOLE entry or a float's repr, one row's stamp moved
    or one byte put before it. ``kind`` is "whole" when every count is 1-18
    digits, perhaps followed by ".0", and no row was changed, "canonical"
    when the file is still canonical, and "other" when it may not be."""
    header = draw(st.sampled_from(HEADERS[:2]))
    width = header.count(",")
    epoch = draw(st.sampled_from([1, 2, 15, 60, 120]))
    start = draw(st.sampled_from(STARTS[:2]))
    count = st.one_of(st.integers(0, 99), st.integers(0, 10 ** 18 - 1),
                      st.sampled_from(WHOLE_EDGES))
    rows = [[(start + timedelta(seconds=k * epoch)).isoformat()]
            + [draw(st.sampled_from(WHOLE_FORMS)) % draw(count) for _ in range(width)]
            for k in range(draw(st.integers(2, 8)))]
    kind = "whole" if all(WHOLE_FIELD.fullmatch(f) for row in rows for f in row[1:]) \
        else "canonical"
    edit = draw(st.sampled_from(["none", "count", "repr", "shift", "prefix"]))
    row = draw(st.sampled_from(rows))
    if edit == "count":
        row[draw(st.integers(1, width))] = draw(st.sampled_from(ODD_COUNTS + NEAR_WHOLE))
        kind = "other"
    elif edit == "repr":
        row[draw(st.integers(1, width))] = repr(draw(st.floats(0, 1e300)))
        kind = "canonical"
    elif edit == "shift":
        moved = datetime.fromisoformat(row[0]) + timedelta(
            seconds=draw(st.sampled_from(STAMP_SHIFTS)))
        row[0] = moved.isoformat()
        kind = "other"
    elif edit == "prefix":
        row[0] = draw(st.sampled_from(["0", "T", ":", "x"])) + row[0]
        kind = "other"
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n", kind


@pytest.mark.usefixtures("no_loadtxt")
class TestWholeCountReader:
    """Canonical blocks whose counts are all whole are read from the bytes
    by _whole_counts, and other blocks by _read_counts, to the same
    series."""

    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400)
    @given(whole_count_files(), st.integers(1, 3), st.sampled_from([48, 100, ingest._SCAN]))
    @example(("timestamp,vm\n2016-05-01T08:30:00,9007199254740993\n"
              "2016-05-01T08:31:00,999999999999999999.0\n", "whole"), 1, ingest._SCAN)
    @example(("timestamp,vm\n2016-05-01T08:30:00,0009999999999999999\n"
              "2016-05-01T08:31:00,7.0\n", "canonical"), 3, ingest._SCAN)
    @example(("timestamp,vm\n2016-05-01T08:30:00,1\n2016-05-01T08:31:00,"
              "9999999999999999999\n2016-05-01T08:32:00,1\n", "canonical"), 3, ingest._SCAN)
    # a read that holds only the row with no count
    @example(("timestamp,vm\n2016-05-01T08:30:00,1\n2016-05-01T08:31:00,\n"
              "2016-05-01T08:32:00,1\n", "other"), 3, 24)
    @example(("timestamp,vm\n2016-05-01T08:30:00,1\n2016-05-01T08:31:00,1\n"
              "02016-05-01T08:32:00,1\n2016-05-01T08:33:00,1\n", "other"), 3, ingest._SCAN)
    @example(("timestamp,vm\n2016-05-01T08:30:00,1\n2016-05-01T08:31:00,1\n"
              "2016-05-01T08:32:01,1\n2016-05-01T08:33:00,1\n", "other"), 3, ingest._SCAN)
    def test_same_series_or_same_error(self, case, block, scan):
        """Blocks of 1-3 rows, so that whole and other blocks mix, and reads
        of ``scan`` bytes, so that a read ends inside a row or holds none."""
        text, kind = case
        expected = parse_outcome(row_loop_parse_triaxial_csv, text)
        with (mock.patch.object(ingest, "_STAMP_BLOCK", block),
              mock.patch.object(ingest, "_SCAN", scan),
              mock.patch.object(ingest, "_read_counts", wraps=ingest._read_counts) as read_counts):
            assert parse_outcome(parse_triaxial_csv, text.encode()) == expected
            if kind != "other":
                assert _parse_columnar(text.encode(), "s1") is not None
        if kind == "whole" and scan == ingest._SCAN:
            assert not read_counts.called

    @pytest.mark.parametrize("header", ["timestamp,axis1,axis2,axis3", "timestamp,vm"])
    def test_whole_count_files_are_read_by_whole_counts(self, header):
        width = header.count(",")
        # whole counts of 1 to 16 digits, so that fields of one block differ
        # in length
        rng = np.random.default_rng(5)
        samples = np.zeros((50, 3))
        samples[:, :width] = (rng.integers(1, 10, (50, width))
                              * 10.0 ** rng.integers(0, 16, (50, width)))
        series = TriaxialSeries("s1", STARTS[1], 15, samples)
        text = serialize_triaxial_csv(series).replace("timestamp,axis1,axis2,axis3", header)
        if width == 1:
            text = text.replace(",0.0,0.0\n", "\n")
        for block in (7, _STAMP_BLOCK):
            with (mock.patch.object(ingest, "_STAMP_BLOCK", block),
                  mock.patch.object(ingest, "_read_counts") as read_counts):
                assert_series_equal(_parse_columnar(text.encode(), "s1"), series)
            assert not read_counts.called

    def test_other_blocks_are_read_by_read_counts(self):
        """A first block of repr floats, then a whole block with one other
        count in a later row: _read_counts reads those two blocks, and
        _whole_counts the other two. One part, so that the blocks are read
        in order."""
        samples = second_counts(28)
        samples[:7] = np.random.default_rng(1).uniform(0, 100, (7, 3))
        samples[12, 2] = 1e-3
        series = TriaxialSeries("s1", STARTS[0], 60, samples)
        with (mock.patch.object(ingest, "_STAMP_BLOCK", 7),
              mock.patch.object(ingest, "_PARTS", 1),
              mock.patch.object(ingest, "_read_counts", wraps=ingest._read_counts) as read_counts):
            text = serialize_triaxial_csv(series)
            assert_series_equal(_parse_columnar(text.encode(), "s1"), series)
        # each call's first row of counts, and its fields' shape
        calls = [(window[begin[0, 0]:end[-1, 0]].tobytes(), begin.shape)
                 for window, begin, end in (call.args for call in read_counts.call_args_list)]
        lines = text.encode().split(b"\n")
        assert calls == [(lines[1][20:], (3, 7)), (lines[8][20:], (3, 7))]
        assert parse_outcome(parse_triaxial_csv, text) == parse_outcome(
            row_loop_parse_triaxial_csv, text)


@st.composite
def halfway_fields(draw):
    """A decimal at or next to the midpoint of a double and the next one
    up: that midpoint, whose decimal expansion is exact, cut to 17-19
    significant digits and perhaps one unit in the last place above."""
    x = draw(st.floats(1e-4, 1e16))
    digits = draw(st.integers(17, 19))
    with localcontext(prec=1000):
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        unit = Decimal(1).scaleb(mid.adjusted() - digits + 1)
        cut = mid.quantize(unit, rounding=ROUND_DOWN) + draw(st.sampled_from([0, unit]))
    return format(cut, "f")


def point_field(zeros, mantissa, k):
    """``mantissa`` after ``zeros`` leading zeros, with a "." before its
    last ``k`` digits."""
    text = "0" * zeros + str(mantissa)
    text = text.rjust(k + 1, "0")
    return text[:len(text) - k] + "." + text[len(text) - k:] if k else text


# count fields that float() reads as finite and non-negative
COUNT_FIELDS = st.one_of(
    st.floats(0, 1e16, exclude_max=True).map(repr),
    st.builds("%.*f".__mod__, st.tuples(st.integers(1, 6), st.floats(0, 1e6))),
    st.builds(point_field, st.integers(0, 25), st.integers(0, 10 ** 20), st.integers(0, 22)),
    st.floats(0, 1e-4).map(repr),
    st.builds("%.*e".__mod__, st.tuples(st.integers(0, 17), st.floats(0, 1e300))),
    halfway_fields())


def vm_file(fields):
    """A canonical ``timestamp,vm`` file of one row per field, a minute
    apart."""
    return ("timestamp,vm\n" + "".join(
        f"{(STARTS[0] + timedelta(minutes=i)).isoformat()},{field}\n"
        for i, field in enumerate(fields))).encode()


@pytest.mark.usefixtures("no_loadtxt")
class TestDecimalCounts:
    """Every count of a canonical file is read bit for bit as float() reads
    it: from its mantissa m and its digits after the point k, as m / 10**k
    where m <= 2**53, by _quotients past that, and by float() alone where
    neither decides."""

    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(st.lists(COUNT_FIELDS, min_size=2, max_size=30), st.sampled_from([1, 3, _STAMP_BLOCK]))
    @example(["9007199254740993", "90071992547409930.0", "5753173825621752.5"], _STAMP_BLOCK)
    @example(["0.000000000000000000001", "000000000000000000000000012.5", "1e-05"], 1)
    def test_counts_are_read_as_float_reads_them(self, fields, block):
        content = vm_file(fields)
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            series = _parse_columnar(content, "s1")
        assert series is not None
        expected = np.array([float(field) for field in fields])
        assert series.samples[:, 0].tobytes() == expected.tobytes()
        assert parse_outcome(parse_triaxial_csv, content) == parse_outcome(
            row_loop_parse_triaxial_csv, content)

    @given(st.integers(2 ** 53 + 1, 10 ** 18 - 1), st.integers(1, 22))
    @example(2 * 10 ** 17 - 1, 22)
    def test_quotients_are_correctly_rounded_or_undecided(self, m, k):
        # Python's int / int is correctly rounded
        value, undecided = ingest._quotients(np.array([m]), np.array([k]))
        assert undecided[0] or value[0] == m / 10 ** k

    @pytest.mark.parametrize("m, k", [(90071992547409930, 1), (57531738256217525, 1),
                                      (900719925474099300, 2)])
    def test_exact_halfway_quotients_are_undecided(self, m, k):
        """A quotient halfway between two doubles goes to float(), whose
        ties go to the even one."""
        assert ingest._quotients(np.array([m]), np.array([k]))[1][0]
        field = point_field(0, m, k)
        series = _parse_columnar(vm_file([field, field]), "s1")
        assert series.samples[0, 0] == float(field)

    @pytest.mark.parametrize("nmant", [52, 105])
    def test_other_long_doubles_decide_no_quotient(self, nmant):
        """Where the long double is a double (52) or IBM double-double
        (105), every quotient past 2**53 goes to float()."""
        fields = [repr(x) for x in np.random.default_rng(3).uniform(10, 100, 20).tolist()]
        m = np.array([int(field.replace(".", "")) for field in fields])
        k = np.array([len(field) - 1 - field.index(".") for field in fields])
        with mock.patch.object(np, "finfo", return_value=mock.Mock(nmant=nmant)):
            assert ingest._quotients(m, k)[1].all()
            series = _parse_columnar(vm_file(fields), "s1")
        assert series.samples[:, 0].tobytes() == np.array(list(map(float, fields))).tobytes()

    @pytest.mark.parametrize("field", ["1e400", "-1e-05", "nan", "inf", "-3.5", "1e", "1.5.0",
                                       "0x10", "1.5\u00e9"])
    def test_counts_float_rejects_go_to_the_row_loop(self, field):
        content = vm_file(["1.5", field])
        assert _parse_columnar(content, "s1") is None
        assert parse_outcome(parse_triaxial_csv, content) == parse_outcome(
            row_loop_parse_triaxial_csv, content)

    @pytest.mark.parametrize("field", ["-0.0", "-0", "+2.5", "1_0", "1E+2", ".5", "5."])
    def test_other_forms_float_reads_are_read_by_it(self, field):
        """Signs and underscores are read by float() alone, -0.0 with its
        sign, and a point at either end from the digits, as the row loop
        reads them."""
        series = _parse_columnar(vm_file([field, "1"]), "s1")
        assert series.samples[0, 0].tobytes() == np.float64(float(field)).tobytes()
        assert parse_outcome(parse_triaxial_csv, vm_file([field, "1"])) == parse_outcome(
            row_loop_parse_triaxial_csv, vm_file([field, "1"]))


# bytes no canonical file holds: the csv module or float() reads each of
# them otherwise than a digit, comma or LF, or it is not UTF-8, or a
# byte-order mark past the start of the file
NOT_CANONICAL = [b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\t",
                 b"\x7f", b"\xff", b"\xc3", codecs.BOM_UTF8]
WHOLE_TEXT = serialize_triaxial_csv(TriaxialSeries("s1", STARTS[1], 15, second_counts(8)))


def row_loop_outcome(content):
    """parse_outcome of parse_triaxial_csv's own row loop, which also reads
    bytes that are not UTF-8."""
    with mock.patch.object(ingest, "_parse_columnar", return_value=None):
        return parse_outcome(parse_triaxial_csv, content)


class TestWholeCountBytes:
    """A canonical file is checked byte by byte by _read_rows: each stamp
    as words, each comma and LF by its place, and each count's bytes as
    _read_counts reads them."""

    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [3, _STAMP_BLOCK])
    @pytest.mark.parametrize("place", ["stamp start", "stamp end", "count start",
                                       "count end", "after the last LF"])
    @pytest.mark.parametrize("byte", NOT_CANONICAL, ids=lambda b: b.hex())
    def test_other_bytes_go_to_the_row_loop(self, byte, place, block):
        content = WHOLE_TEXT.encode()
        # the seventh row, which starts the third block of three rows
        row = content.index(b"\n", content.index(b"T00:01:00")) + 1
        at = {"stamp start": row, "stamp end": row + 19, "count start": row + 20,
              "count end": content.index(b"\n", row),
              "after the last LF": len(content)}[place]
        content = content[:at] + byte + content[at:]
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            assert _parse_columnar(content, "s1") is None
            assert parse_outcome(parse_triaxial_csv, content) == row_loop_outcome(content)

    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [2, 3, _STAMP_BLOCK])
    @pytest.mark.parametrize("counts", ["whole", "halves"])
    @pytest.mark.parametrize("final_lf", [True, False])
    @pytest.mark.parametrize("blank", [None, 1, 4, 7])
    def test_blank_lines_and_a_last_row_without_lf(self, blank, final_lf, counts, block):
        """A blank line is one LF more than the rows; a last row without
        LF one fewer, and the file is still canonical."""
        samples = second_counts(8) + (0.5 if counts == "halves" else 0.0)
        lines = serialize_triaxial_csv(TriaxialSeries("s1", STARTS[1], 15, samples)).split("\n")
        if blank is not None:
            lines.insert(blank + 1, "")
        text = "\n".join(lines) if final_lf else "\n".join(lines).removesuffix("\n")
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            series = _parse_columnar(text.encode(), "s1")
            assert parse_outcome(parse_triaxial_csv, text.encode()) == parse_outcome(
                row_loop_parse_triaxial_csv, text)
        if blank is None:
            assert_series_equal(series, row_loop_parse_triaxial_csv(text, "s1"))
        else:
            assert series is None


def split_rows(counts, n=8):
    """``n`` rows of one length, a minute apart from STARTS[0]: of eight, in
    blocks of two rows and two parts, the second part starts at row 4."""
    return [f"{(STARTS[0] + timedelta(minutes=k)).isoformat()},{counts}" for k in range(n)]


def split_file(lines, final_lf=True):
    return (HEADER + "\n".join(lines) + ("\n" if final_lf else "")).encode()


def split_parse(lines, final_lf=True, block=2, parts=2):
    """The first row of each part that _split gives for the file of
    ``lines``, in blocks of ``block`` rows and up to ``parts`` parts, and
    the series _parse_columnar gives for it, once the outcome of
    parse_triaxial_csv is shown to be the row loop's."""
    content = split_file(lines, final_lf)
    with (mock.patch.object(ingest, "_STAMP_BLOCK", block),
          mock.patch.object(ingest, "_PARTS", parts)):
        assert parse_outcome(parse_triaxial_csv, content) == row_loop_outcome(content)
        last = datetime.fromisoformat(lines[-1][:19])
        split = _split(content, len(HEADER), STARTS[0], 60,
                       int((last - STARTS[0]).total_seconds()) // 60 + 1)
        return split and [k for _, k in split], _parse_columnar(content, "s1")


SPLIT_COUNTS = pytest.mark.parametrize("counts", ["1,2,3", "1.5,2,3"],
                                       ids=["whole", "decimal"])


@pytest.mark.usefixtures("no_loadtxt")
class TestSplitParse:
    """A file of more than one block is split at row boundaries into up to
    _PARTS parts, read in threads, to the series that one part gives."""

    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(epoch_files(), st.integers(1, 3), st.integers(1, 3))
    def test_epoch_files_give_the_same_series_or_error(self, case, block, parts):
        text, canonical = case
        with (mock.patch.object(ingest, "_STAMP_BLOCK", block),
              mock.patch.object(ingest, "_PARTS", parts)):
            assert parse_outcome(parse_triaxial_csv, text.encode()) == parse_outcome(
                row_loop_parse_triaxial_csv, text)
            if canonical:
                assert _parse_columnar(text.encode(), "s1") is not None

    @HYPOTHESIS_REPORT
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(whole_count_files(), st.integers(1, 3), st.integers(1, 3))
    def test_whole_count_files_give_the_same_series_or_error(self, case, block, parts):
        text, kind = case
        with (mock.patch.object(ingest, "_STAMP_BLOCK", block),
              mock.patch.object(ingest, "_PARTS", parts)):
            assert parse_outcome(parse_triaxial_csv, text.encode()) == parse_outcome(
                row_loop_parse_triaxial_csv, text)
            if kind != "other":
                assert _parse_columnar(text.encode(), "s1") is not None

    @SPLIT_COUNTS
    @pytest.mark.parametrize("final_lf", [True, False], ids=["final LF", "no final LF"])
    def test_parts_start_at_the_first_row_past_each_share(self, counts, final_lf):
        """The last part alone may end without an LF."""
        lines = split_rows(counts)
        content = split_file(lines, final_lf)
        with (mock.patch.object(ingest, "_STAMP_BLOCK", 2),
              mock.patch.object(ingest, "_PARTS", 2)):
            assert _split(content, len(HEADER), STARTS[0], 60, 8) == [
                (len(HEADER), 0), (len(HEADER) + 4 * len(lines[0]) + 4, 4)]
        _, series = split_parse(lines, final_lf)
        assert_series_equal(series, row_loop_parse_triaxial_csv(content, "s1"))

    @pytest.mark.parametrize("final_lf", [True, False], ids=["final LF", "no final LF"])
    def test_a_share_that_ends_in_the_last_row_is_dropped(self, final_lf):
        lines = ["2016-05-01T08:30:00,1,2,3", "2016-05-01T08:31:00,100000,200000,300000"]
        split, series = split_parse(lines, final_lf, block=1)
        assert split == [0] and series is not None

    def test_shares_that_end_in_one_row_give_one_split(self):
        lines = ["2016-05-01T08:30:00,1,2,3", "2016-05-01T08:31:00," + ",".join(
            ["1000000000000000"] * 3), "2016-05-01T08:32:00,1,2,3"]
        split, series = split_parse(lines, block=1, parts=3)
        assert split == [0, 2] and series is not None

    @SPLIT_COUNTS
    @pytest.mark.parametrize("stamp, split", [
        pytest.param(stamp, split, id=name) for name, stamp, split in [
            ("malformed", "2016-05-01T08:34:0x", None),
            ("off the grid", "2016-05-01T08:34:30", None),
            ("before the first", "2016-05-01T08:29:00", None),
            ("past the last", "2016-05-01T08:38:00", None),
            ("the row before's", "2016-05-01T08:33:00", [0, 3])]])
    def test_a_split_row_off_its_place_is_not_canonical(self, counts, stamp, split):
        """A stamp on the grid at an index that does not follow the split
        before it ends the split; a stamp at an earlier index than its row's
        leaves the part before it a row short of that row."""
        lines = split_rows(counts)
        lines[4] = stamp + lines[4][19:]
        assert split_parse(lines) == (split, None)

    @SPLIT_COUNTS
    @pytest.mark.parametrize("edit, split", [
        pytest.param(edit, split, id=name) for name, edit, split in [
            ("blank line in part 0", lambda rows: rows[:2] + [""] + rows[2:], [0, 4]),
            ("blank line in part 1", lambda rows: rows[:6] + [""] + rows[6:], [0, 4]),
            ("row 1 missing", lambda rows: rows[:1] + rows[2:], [0, 5]),
            ("row 5 missing", lambda rows: rows[:5] + rows[6:], [0, 4]),
            ("row 3 twice", lambda rows: rows[:4] + rows[3:], [0, 4]),
            ("row 5 twice", lambda rows: rows[:6] + rows[5:], [0, 5])]])
    def test_a_break_in_one_part_is_not_canonical(self, counts, edit, split):
        """Each part reads its rows and ends at the next part's first row:
        row 3 twice leaves part 0 one row short of that."""
        assert split_parse(edit(split_rows(counts))) == (split, None)

    @pytest.fixture
    def readers(self, monkeypatch):
        """The thread that read each part."""
        readers, read_part = [], ingest._read_part

        def traced_read_part(*args):
            readers.append(threading.current_thread())
            return read_part(*args)

        monkeypatch.setattr(ingest, "_read_part", traced_read_part)
        return readers

    def test_no_thread_outlives_the_parse(self, readers):
        """Part 0 is read in the calling thread and part 1 in another, which
        has ended when the parse returns, whether part 1 was read or not."""
        before = set(threading.enumerate())
        lines = split_rows("1,2,3")
        assert split_parse(lines)[1] is not None
        assert split_parse(lines[:6] + [""] + lines[6:])[1] is None
        assert set(threading.enumerate()) == before
        assert threading.current_thread() in readers and len(set(readers)) > 1

    @SPLIT_COUNTS
    def test_more_parts_than_cpus_at_a_short_switch_interval(self, counts):
        """Eight parts write their rows of one samples array while the
        interpreter switches threads every microsecond."""
        lines = split_rows(counts, 64)
        expected = row_loop_parse_triaxial_csv(split_file(lines), "s1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                split, series = split_parse(lines, parts=8)
                assert len(split) == 8
                assert_series_equal(series, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_one_part_starts_no_thread(self, readers):
        assert split_parse(split_rows("1,2,3"), parts=1)[1] is not None
        # two parts allowed, but the file is one block
        assert split_parse(split_rows("1,2,3"), block=8)[1] is not None
        assert set(readers) == {threading.current_thread()}


WHOLE_COUNTS = st.integers(0, 10 ** 16 - 1).map(float)


@st.composite
def whole_rows(draw):
    """Up to 12 rows of whole counts; perhaps one count swapped for an edge
    count or any float."""
    rows = draw(st.lists(st.lists(WHOLE_COUNTS, min_size=3, max_size=3),
                         min_size=1, max_size=12))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[i][j] = draw(st.one_of(st.sampled_from(EDGE_COUNTS), st.floats(0, 1e300)))
    return rows


class TestWholeCountWriter:
    @given(whole_rows(), st.integers(1, 5))
    @example([[1.0, 2.0, 3.0], [4.0, -0.0, 6.0]], 2)
    @example([[1.0, 1e16, 3.0]], 1)
    @example([[1.0, 2.0, 3.0], [0.5, 2.0, 3.0]], 2)
    @example([[x, x, x] for x in EDGE_COUNTS], 1)
    def test_writer_matches_the_row_loop_writer(self, counts, block):
        """Blocks of ``block`` rows, so that one series has whole blocks and
        blocks with one other count in the same column."""
        series = TriaxialSeries("s1", STARTS[1], 15, np.array(counts))
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            text = serialize_triaxial_csv(series)
        assert text == row_loop_serialize_triaxial_csv(series)

    @given(st.lists(st.tuples(*[st.one_of(
        DIGIT_COUNTS, st.sampled_from(EDGE_COUNTS + GROUP_EDGES + SMALL_COUNTS),
        st.floats(0, 1e300))] * 3), max_size=12), st.integers(1, 4))
    @example([], 1)
    @example([(9999.0, 1e16 - 2, -0.0)], 1)
    @example([(9999.0, 1e8, 1e15), (10000.0, 1e16 - 2, 1e15 - 1), (1e16, 1e-310, 1e15)], 2)
    @example([(float(10 ** 12 - 1), 0.0, 5e-324), (float(10 ** 12), 7.0, 0.0)], 1)
    def test_digit_groups_match_the_row_loop_writer(self, rows, block):
        """Counts on each side of a digit group's edge, in columns that are
        whole in one block of ``block`` rows and repr in the next; empty
        and one-row series too."""
        series = TriaxialSeries("s1", STARTS[1], 15, np.array(rows).reshape(-1, 3))
        with mock.patch.object(ingest, "_STAMP_BLOCK", block):
            text = serialize_triaxial_csv(series)
        assert text == row_loop_serialize_triaxial_csv(series)

    def test_whole_block_then_other_block_across_the_block_boundary(self):
        samples = np.tile([[2.0 ** 53 + 2, 0.0, 1e16 - 2]], (_STAMP_BLOCK + 3, 1))
        samples[_STAMP_BLOCK + 1] = [0.5, 1e16, 5e-324]
        series = TriaxialSeries("s1", STARTS[0], 1, samples)
        lines = serialize_triaxial_csv(series).split("\n")
        expected = row_loop_serialize_triaxial_csv(series).split("\n")
        # line by line: pytest would take minutes to diff two whole texts
        wrong = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None)
        assert (wrong, len(lines)) == (None, len(expected))
        # the last row of the first block, then the first two of the second
        assert lines[_STAMP_BLOCK:_STAMP_BLOCK + 3] == [
            "2016-05-02T02:42:15,9007199254740994.0,0.0,9999999999999998.0",
            "2016-05-02T02:42:16,9007199254740994.0,0.0,9999999999999998.0",
            "2016-05-02T02:42:17,0.5,1e+16,5e-324"]


# the last day numpy and datetime can both write as a stamp
LAST_DAY = date(9999, 12, 31)


def stamp_grids(test):
    """Run ``test`` on grids of start day, second of that day, epoch and
    row count, some of which run past year 9999, made in blocks of a given
    number of rows."""
    for args in [(LAST_DAY, 86340, 1, 60, 7), (LAST_DAY, 86340, 1, 61, 7),
                 (LAST_DAY, 0, 86400, 1, 60), (LAST_DAY, 86399, 1, 0, 7),
                 (date(2015, 12, 31), 86399, 1, 2, 60),
                 # 12 rows a slot from :45 s, so that blocks of 7 start mid-slot
                 (date(2015, 12, 31), 86385, 5, 3000, 7)]:
        test = example(*args)(test)
    test = given(st.sampled_from([date(2016, 2, 28), date(2016, 2, 29), date(2015, 2, 28),
                                  date(2100, 2, 28), date(2000, 2, 29), date(2015, 12, 31),
                                  date(1, 1, 1), date(999, 12, 31), LAST_DAY]),
                 st.one_of(st.sampled_from([0, 86399, 86340]), st.integers(0, 86399)),
                 st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60,
                                  120, 420, 3600, 86400]),
                 st.integers(0, 3000), st.sampled_from([7, 60, _STAMP_BLOCK]))(test)
    return settings(max_examples=300)(test)


class TestStampColumn:
    @stamp_grids
    def test_matches_numpy_stamps(self, day, second, epoch, n, block):
        """Blocks of 7 and 60 rows, so that blocks start in a slot's middle,
        and of 65,536; the blocks' copies joined are the grid's stamps."""
        start = datetime.combine(day, datetime.min.time()) + timedelta(seconds=second)
        grid = np.datetime64(start, "s") + epoch * np.arange(n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_STAMP_BLOCK", block)
            blocks = _stamp_blocks(start, epoch, n)
            if n and grid[-1] >= np.datetime64("10000-01-01"):
                with pytest.raises(OverflowError):
                    next(blocks)
                return
            copies = [(i, stamps.copy()) for i, stamps in blocks]
        assert [i for i, _ in copies] == list(range(0, n, block))
        stamps = np.concatenate([stamps for _, stamps in copies] or [np.zeros(0, "S24")])
        expected = grid.astype("S24")
        assert stamps.dtype == expected.dtype and stamps.shape == expected.shape
        # every byte, the five NULs after each stamp too, which the bytes
        # comparison ignores
        wrong = np.flatnonzero(stamps.view(np.uint8) != expected.view(np.uint8)) // 24
        assert wrong.size == 0, (stamps[wrong[0]].tobytes(), expected[wrong[0]])


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

    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30]), st.data())
    def test_sums_match_the_reshaped_sum(self, epoch, data):
        """Bit for bit the sum along axis 1 of a (minutes, epochs, 3) view,
        or CountOverflow where that sum overflows."""
        per = 60 // epoch
        counts = data.draw(st.lists(st.lists(st.one_of(
            st.floats(0, 1e300), st.integers(0, 1000).map(float),
            st.sampled_from([1.7e308, 1e-5, 5e-324, -0.0])),
            min_size=3, max_size=3), max_size=4 * per + 3))
        s = TriaxialSeries("s1", datetime(2016, 5, 1), epoch, np.array(counts).reshape(-1, 3))
        minutes = len(s) // per
        with np.errstate(over="ignore"):
            expected = s.samples[:minutes * per].reshape(minutes, per, 3).sum(axis=1)
        if not np.isfinite(expected).all():
            with pytest.raises(errors.CountOverflow):
                aggregate_to_minutes(s)
            return
        out = aggregate_to_minutes(s)
        assert out.epoch_length == 60 and out.start_time == s.start_time
        assert out.samples.shape == expected.shape
        assert out.samples.tobytes() == expected.tobytes()

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    def test_counts_preserved_up_to_dropped_tail(self, xs):
        samples = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
        s = TriaxialSeries("s1", datetime(2016, 5, 1), 15, samples)
        out = aggregate_to_minutes(s)
        kept = (len(xs) // 4) * 4
        assert out.samples[:, 0].sum() == sum(xs[:kept])


@st.composite
def layout_samples(draw):
    """An epoch of 1, 5, 15 or 60 s and (n, 3) counts of at least a minute
    of it: whole counts, reprs and -0.0."""
    epoch = draw(st.sampled_from([1, 5, 15, 60]))
    per = 60 // epoch
    n = draw(st.integers(per, 4 * per - 1))
    counts = st.one_of(st.integers(0, 10 ** 6).map(float), st.floats(0, 1e6), st.just(-0.0))
    return epoch, np.array(draw(st.lists(counts, min_size=3 * n, max_size=3 * n))).reshape(n, 3)


class TestColumnMajorSamples:
    """The columnar parse returns column-major samples; every consumer of a
    series gives the same bytes for either layout."""

    @given(layout_samples())
    def test_either_layout_gives_the_same_outputs(self, case):
        epoch, samples = case
        c_order, f_order = (TriaxialSeries("s1", STARTS[0], epoch, layout(samples))
                            for layout in (np.ascontiguousarray, np.asfortranarray))
        assert f_order.samples.flags.f_contiguous
        minutes = [aggregate_to_minutes(s) for s in (c_order, f_order)]
        assert minutes[0].samples.tobytes() == minutes[1].samples.tobytes()
        vm = [to_activity_series(s).values for s in minutes]
        assert vm[0].tobytes() == vm[1].tobytes()
        assert serialize_triaxial_csv(c_order) == serialize_triaxial_csv(f_order)

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("header", ["timestamp,axis1,axis2,axis3", "timestamp,vm"])
    def test_columnar_parse_returns_column_major_samples(self, header, parts):
        """Whole counts and, in the first column of the three, reprs."""
        width = header.count(",")
        samples = np.zeros((40, 3))
        samples[:, :width] = second_counts(40)[:, :width]
        if width == 3:
            samples[:, 0] = repr_counts(40)[:, 0]
        series = TriaxialSeries("s1", STARTS[0], 15, samples)
        text = serialize_triaxial_csv(series).replace("timestamp,axis1,axis2,axis3", header)
        if width == 1:
            text = text.replace(",0.0,0.0\n", "\n")
        with (mock.patch.object(ingest, "_STAMP_BLOCK", 8),
              mock.patch.object(ingest, "_PARTS", parts),
              mock.patch.object(ingest, "_read_part", wraps=ingest._read_part) as read_part):
            parsed = _parse_columnar(text.encode(), "s1")
        assert read_part.call_count == parts
        assert parsed.samples.flags.f_contiguous
        assert_series_equal(parsed, series)

    def test_a_one_part_parse_imports_no_executor(self, tmp_path):
        """In a fresh interpreter, the CLI's imports and the parse of an
        8,640-row canonical file leave concurrent.futures unimported."""
        path = tmp_path / "s1.csv"
        path.write_text(serialize_triaxial_csv(
            TriaxialSeries("s1", STARTS[0], 60, second_counts(8640))))
        code = ("import pathlib, sys\nimport actirhythm.cli\nfrom actirhythm import ingest\n"
                f"content = pathlib.Path({str(path)!r}).read_bytes()\n"
                "series = ingest.parse_triaxial_csv(content, 's1')\n"
                "assert len(series) == 8640 and series.samples.flags.f_contiguous\n"
                "print('concurrent.futures' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(ingest.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


class TestManifest:
    def test_two_rows(self):
        m = load_manifest("subject_id,group,path\na,cci,a.csv\nb,rr,b.csv\n")
        assert [e.subject_id for e in m] == ["a", "b"]
        assert m[0].group is GroupLabel.CCI
        assert m[1].group is GroupLabel.RR

    def test_rows_out_of_id_order_come_back_sorted(self):
        m = load_manifest("subject_id,group,path\nc,rr,c.csv\na,cci,a.csv\nb,cci,b.csv\n")
        assert isinstance(m, tuple)
        assert [(e.subject_id, e.source_path) for e in m] == [
            ("a", "a.csv"), ("b", "b.csv"), ("c", "c.csv")]

    def test_case_insensitive_groups(self):
        m = load_manifest("subject_id,group,path\na,Control_ICU,a.csv\n")
        assert m[0].group is GroupLabel.CONTROL_ICU

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
        text = "subject_id,group,path\na,cci,a.csv\n"
        for content in (codecs.BOM_UTF8 + text.encode(), "\ufeff" + text):
            assert [e.subject_id for e in load_manifest(content)] == ["a"]

    def test_crlf_line_ends(self):
        m = load_manifest("subject_id,group,path\r\na,cci,a.csv\r\n")
        assert m[0].source_path == "a.csv"


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
        ("min", -1.0), ("amplitude", math.inf), ("amplitude", math.nan),
        ("noise_sd", math.inf), ("noise_sd", math.nan),
    ])
    def test_invalid_spec(self, field, value):
        kwargs = dict(min=0, amplitude=1, alpha=0, beta=2, phase=0,
                      noise_sd=0, days=1, seed=0)
        kwargs[field] = value
        with pytest.raises(errors.InvalidSpec):
            SynthSpec(**kwargs)

    def test_min_plus_amplitude_must_not_overflow(self):
        with pytest.raises(errors.InvalidSpec, match="min \\+ amplitude overflows"):
            SynthSpec(min=1e308, amplitude=1e308, alpha=0, beta=2, phase=0,
                      noise_sd=0, days=1, seed=0)

    def test_noise_that_overflows_is_an_invalid_spec(self):
        spec = SynthSpec(min=0, amplitude=1, alpha=0, beta=2, phase=0,
                         noise_sd=1e308, days=1, seed=0)
        with pytest.raises(errors.InvalidSpec, match="subject 'n': counts overflow"):
            generate_synthetic(spec, subject_id="n")
