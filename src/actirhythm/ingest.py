"""Parsing of epoch-level actigraphy CSVs and cohort manifests, plus
synthetic series generation for testing.

File formats:
  epoch CSV    header ``timestamp,axis1,axis2,axis3`` (or the single-column
               variant ``timestamp,vm``), ISO-8601 local timestamps at
               second resolution, non-negative decimal counts.
  manifest CSV header ``subject_id,group,path``; group is one of
               control_icu, cci, rr, control_healthy (case-insensitive).

Epoch files are written, and parsed when in canonical form, a block of
rows at a time (see serialize_triaxial_csv and parse_triaxial_csv). Each
block's stamps come from _stamp_blocks, the one generator of canonical
stamps, and the parse compares them as 8-byte words of those stamps. It
reads whole counts, as device exports and the writer's ``%d.0`` give, in
one pass of their digits. The writer lays out each block's rows, stamps
and count slots, in numpy; numtext writes the counts.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import re
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from pathlib import Path

import numpy as np

from . import curve, numtext
from .errors import (
    CountOverflow,
    DuplicateSubject,
    IncompatibleEpoch,
    InvalidSpec,
    IrregularEpoch,
    MalformedRow,
    NegativeCount,
    NonMonotonicTime,
    UnknownGroup,
)


class GroupLabel(Enum):
    CONTROL_ICU = "control_icu"
    CCI = "cci"
    RR = "rr"
    CONTROL_HEALTHY = "control_healthy"

    @classmethod
    def parse(cls, text: str, line_no: int) -> "GroupLabel":
        key = text.strip().lower()
        for label in cls:
            if label.value == key:
                return label
        raise UnknownGroup(f"line {line_no}: unknown group {text!r}; expected "
                           f"one of {[m.value for m in cls]}")


# Column order used throughout reports.
GROUP_ORDER = (
    GroupLabel.CONTROL_ICU,
    GroupLabel.CCI,
    GroupLabel.RR,
    GroupLabel.CONTROL_HEALTHY,
)

_EPOCH_HEADER = ("timestamp", "axis1", "axis2", "axis3")
_EPOCH_HEADER_VM = ("timestamp", "vm")
_MANIFEST_HEADER = ("subject_id", "group", "path")
_STAMP = re.compile(rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d")


def _word_table(parts: list[bytes], at: int) -> np.ndarray:
    """The little-endian 8-byte words that hold each of ``parts``, bytes
    of one length, at byte ``at``, and zeros elsewhere."""
    table = np.zeros((len(parts), 8), np.uint8)
    table[:, at:at + len(parts[0])] = np.frombuffer(b"".join(parts), np.uint8).reshape(
        len(parts), -1)
    return table.view("<u8").ravel()


# The time of a canonical stamp in the words _stamp_blocks makes: for each
# minute of the day, "HH:MM" as stamp bytes 11-15 of the word at byte 8;
# for each second of the minute, ":SS" as bytes 16-18 of the word at 16.
_MINUTE_WORDS = _word_table([b"%02d:%02d" % divmod(m, 60) for m in range(1440)], 3)
_SECOND_WORDS = _word_table([b":%02d" % s for s in range(60)], 0)

# Rows made, or read by the columnar parse, at a time, with their stamps;
# bounds the working memory of the writer and of that parse.
_STAMP_BLOCK = 65536
# A whole count: 1-18 digits, perhaps followed by ".0", which an int64 holds
# exactly and whose cast to float64 rounds as float() does.
_WHOLE = re.compile(rb"\d{1,18}(?:\.0)?")
# 10**k for k <= 22, exact as a double and so as a long double.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_LONG = _POW10.astype(np.longdouble)
# Bytes of rows read at a time (at least a row); bounds that read's temporaries.
_SCAN = 1 << 18
# The most parts, each read in a thread of its own, that the columnar parse
# splits a file into: the CPUs in this process's affinity mask, which a
# cgroup CPU quota does not shrink. The reader spends most of its time in
# numpy calls that release the GIL.
_PARTS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)

# Start timestamp for synthetic series; midnight so that model time equals
# clock time.
SYNTH_START = datetime(2016, 5, 1, 0, 0, 0)


@dataclass(frozen=True, eq=False)
class TriaxialSeries:
    """Contiguous per-epoch triaxial counts for one subject.

    ``samples`` is an (n, 3) float array; sample i covers
    [start_time + i*epoch_length, +1 epoch).
    """

    subject_id: str
    start_time: datetime
    epoch_length: int
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError("samples must be an (n, 3) array")
        object.__setattr__(self, "samples", samples)
        if self.epoch_length <= 0:
            raise IrregularEpoch(f"epoch_length must be positive, got {self.epoch_length}")
        if 60 % self.epoch_length != 0 and self.epoch_length % 60 != 0:
            raise IrregularEpoch(
                f"epoch of {self.epoch_length} s does not align with minutes")
        if samples.size:
            # NaN is the min and max of any array that holds one
            low, high = samples.min(), samples.max()
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError("counts must be finite")
            if low < 0:
                raise NegativeCount("counts must be non-negative")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    group: GroupLabel
    source_path: str


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for one synthetic subject.

    The noiseless vector magnitude at hour t equals
    ``min + amplitude * l(cos((t - phase) * 2*pi/24))``.
    """

    min: float
    amplitude: float
    alpha: float
    beta: float
    phase: float
    noise_sd: float
    days: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.min) or self.min < 0:
            raise InvalidSpec(f"min must be finite and >= 0, got {self.min}")
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise InvalidSpec(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not math.isfinite(self.min + self.amplitude):
            raise InvalidSpec(f"min + amplitude overflows, got {self.min} + {self.amplitude}")
        if not -1.0 < self.alpha < 1.0:
            raise InvalidSpec(f"alpha must be in (-1, 1), got {self.alpha}")
        if not self.beta > 0:
            raise InvalidSpec(f"beta must be > 0, got {self.beta}")
        if not 0.0 <= self.phase < 24.0:
            raise InvalidSpec(f"phase must be in [0, 24), got {self.phase}")
        if not math.isfinite(self.noise_sd) or self.noise_sd < 0:
            raise InvalidSpec(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.days < 1:
            raise InvalidSpec(f"days must be >= 1, got {self.days}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")


def _decode(content) -> str:
    """Text of a file's bytes as UTF-8, or the text given, after any
    byte-order mark (as utf-8-sig decodes); MalformedRow names the line of
    a bad byte."""
    if not isinstance(content, bytes):
        return str(content).removeprefix("\ufeff")
    content = content.removeprefix(codecs.BOM_UTF8)
    try:
        return content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(content.count(b"\n", 0, exc.start) + 1,
                           f"byte {content[exc.start]:#04x} is not UTF-8") from None


def _parse_timestamp(text: str, line_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise MalformedRow(line_no, f"bad timestamp {text!r}") from None
    if ts.tzinfo is not None:
        raise MalformedRow(line_no, "timezone-aware timestamps are not supported")
    return ts


def _parse_count(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_no, f"bad count {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite count {text!r}")
    if value < 0:
        raise NegativeCount(f"line {line_no}: negative count {value}")
    return value


def _stamp_blocks(start: datetime, epoch: int, n: int):
    """``(i, stamps)`` for each block of _STAMP_BLOCK rows of the grid
    ``start + i * epoch`` seconds, i < n, i the block's first row: the one
    definition of a canonical stamp, ``YYYY-MM-DDTHH:MM:SS``, for writing
    and parsing alike, made a block at a time so that no caller holds the
    whole column.

    ``stamps`` is an S24 array: each stamp's 19 bytes and five NULs, which
    numpy compares and lists as the stamp. Its bytes read as three
    little-endian 8-byte words a stamp, of stamp bytes 0-7, 8-15 and 16-18.
    It is a view of one buffer, made once per grid and filled again for
    each block, so it is valid only until the next block is made.

    ``start`` is naive and whole-second, and ``epoch`` divides a minute or
    is whole minutes, as TriaxialSeries requires. The grid is laid out in
    slots, one for each minute it passes through, of the rows in that
    minute; the first slot has ``lead`` rows before the start, and a block
    that starts in a slot's middle skips that slot's rows before it. A
    slot's day and minute give its date and minute words, and a row's
    place in its slot its second word, which is the same in every slot, so
    no stamp is formatted and the only work per row is to write its words.
    A grid that runs past year 9999 raises OverflowError before the first
    block, as its last stamp would.
    """
    if not n:
        return
    start + timedelta(seconds=epoch * (n - 1))
    midnight = start.replace(hour=0, minute=0, second=0)
    clock = (start - midnight).seconds
    # rows a slot, and minutes between slots; the first row is at `second`
    per, step = max(60 // epoch, 1), max(epoch // 60, 1)
    lead, second = divmod(clock % 60, epoch)
    # each day's "YYYY-MM-DDT" and five zeros, as the words at bytes 0 and
    # 8, through the day of the last row's minute
    last = (lead + n - 1) // per * step + clock // 60
    days = np.datetime64(midnight, "D") + np.arange(last // 1440 + 1)
    dates = np.zeros((len(days), 16), np.uint8)
    dates[:, :10] = days.astype("S10").view(np.uint8).reshape(-1, 10)
    dates[:, 10] = ord("T")
    dates = dates.view("<u8")
    # as many slots as a block with the most rows skipped spans
    buffer = np.zeros(-(-(per - 1 + min(n, _STAMP_BLOCK)) // per) * per, "S24")
    words = buffer.view("<u8").reshape(-1, per, 3)
    words[:, :, 2] = _SECOND_WORDS[second::epoch]
    for i in range(0, n, _STAMP_BLOCK):
        rows = min(_STAMP_BLOCK, n - i)
        slot, skip = divmod(lead + i, per)
        slots = -(-(skip + rows) // per)
        day, minute = np.divmod(np.arange(slot, slot + slots) * step + clock // 60, 1440)
        words[:slots, :, 0] = dates[day, :1]
        words[:slots, :, 1] = (dates[day, 1] + _MINUTE_WORDS[minute])[:, None]
        yield i, buffer[skip:skip + rows]


def _read_stamp(line: bytes) -> datetime | None:
    """The time of a line's first field if that field has the form of a
    canonical stamp and is a valid date and time; None otherwise."""
    field = line.split(b",", 1)[0]
    if not _STAMP.fullmatch(field):
        return None
    try:
        return datetime.fromisoformat(field.decode())
    except ValueError:
        return None


def _digits(window: np.ndarray, end: np.ndarray, digits: np.ndarray,
            past: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(m, other)``: the int64 m whose decimal digits are each field's
    last ``digits`` digits before ``end``, less the byte (its ".") before
    its last ``past``, and True in ``other`` where a field has no digit, a
    byte that is not one, or a nonzero one past the 18th from the last (so
    m < 1e18). Built digit by digit from the last, up to the 40th."""
    near, far = (past.min(), past.max()) if past is not None else (math.inf, math.inf)
    shortest, m = digits.min(), np.zeros(end.shape, np.int64)
    other = digits < 1 if shortest < 1 else np.zeros(end.shape, bool)
    for j in range(min(digits.max(), 40)):
        if j < near or j >= far:
            digit = window.take(end - (j + 1 + (j >= far)))
        else:
            digit = window.take(end - (j + 1) - (past <= j))
        digit -= ord("0")   # wraps any other byte past 9
        if j >= shortest:
            digit *= digits > j
        if j >= 18:
            other |= digit != 0
            continue
        if digit.max() > 9:
            other |= digit > 9
        m += digit * np.int64(10 ** j)
    return m, other


def _whole_counts(window: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The int64 values of the fields ``window[begin:end]`` if each is
    digits, perhaps followed by ".0", below 1e18; None otherwise."""
    end = end - 2 * ((window.take(end - 2) == ord(".")) & (window.take(end - 1) == ord("0")))
    m, other = _digits(window, end, end - begin)
    return None if other.any() else m


def _quotients(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m / 10**k`` rounded to the nearest double, for int64 m and k in
    0-22, and True where undecided. In an IEEE long double of 64 or 113
    bits (x86-64, aarch64 Linux) m and 10**k are exact and their quotient q
    correctly rounded, so q has the nearest double unless halfway between
    two. Others (a double, IBM double-double) decide no quotient."""
    if np.finfo(np.longdouble).nmant not in (63, 112):
        return m / _POW10[k], np.ones(m.shape, bool)
    q = m.astype(np.longdouble) / _POW10_LONG[k]
    value = q.astype(float)
    near = [np.nextafter(value, side).astype(np.longdouble) + value for side in (0.0, np.inf)]
    return value, (2 * q == near[0]) | (2 * q == near[1])


def _read_counts(window: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The float() of each field ``window[begin:end]`` (index arrays of one
    shape) if each is finite and non-negative; None otherwise. A field's
    digits but its first "." are m, k of them after it: m / 10**k is
    correctly rounded where m <= 2**53 (Clinger), and by _quotients where
    larger. float() alone reads any other field, such as one in exponent
    form, and each quotient left undecided."""
    length = end - begin
    # the digits after each field's first ".", or -1: searched from the
    # first byte, as counts have few digits before it
    k, searching = np.full(end.shape, -1), length > 0
    for at in range(min(length.max(), 40)):
        found = searching & (window.take(begin + at, mode="clip") == ord("."))
        np.copyto(k, length - 1 - at, where=found)
        searching = (searching ^ found) & (length > at + 1)
        if not searching.any():
            break
    point = k >= 0
    k = np.maximum(k, 0)
    # a field without a point never reaches its past
    m, other = _digits(window, end, length - point, np.where(point, k, length))
    other |= (k > 22) | (length > 40)
    values = m / _POW10[np.minimum(k, 22)]
    big = np.flatnonzero((m > 2 ** 53) & (k > 0) & ~other)
    if big.size:
        values.flat[big], undecided = _quotients(m.flat[big], k.flat[big])
        other.flat[big[undecided]] = True
    for i in np.flatnonzero(other).tolist():
        try:
            value = float(window[begin.flat[i]:end.flat[i]].tobytes())
        except ValueError:
            return None
        if not 0 <= value < math.inf:
            return None
        values.flat[i] = value
    return values


def _read_rows(window: np.ndarray, stamps: np.ndarray,
               out: np.ndarray) -> tuple[int, int] | None:
    """Fill the first k rows of ``out``, an (m, width) view of the samples,
    with the counts of the k complete rows that ``window`` starts with,
    k <= m, if those rows are the first k of ``stamps``, m stamps from
    _stamp_blocks, byte for byte, and return k and the rows' length in
    bytes; None if any row breaks that form or the window holds no
    complete row. Every byte is checked: the stamps' as words, each comma
    and LF by its place, and the counts' as they are read. The columns
    whose first count is whole, as device exports write them, are read by
    _whole_counts, and the others, or all if that fails, by _read_counts."""
    m, width = out.shape
    # a row's only bytes at or below the comma: the comma after the stamp
    # and before each other count, LF, and the "+" of an exponent
    sep = np.flatnonzero(window <= ord(","))
    low = window.take(sep)
    if (low == ord("+")).any():
        keep = low != ord("+")
        sep, low = sep[keep], low[keep]
    k = min(sep.size // (width + 1), m)
    if not k:
        return None
    sep = sep[:k * (width + 1)].reshape(k, width + 1)
    if (sep[0, 0] != 19 or not (sep[1:, 0] == sep[:-1, -1] + 20).all()
            or np.any(low[:sep.size].reshape(k, width + 1)
                      != np.frombuffer(b"," * width + b"\n", np.uint8))):
        return None
    # the window's 8-byte words at every offset
    window_words = np.ndarray((window.size - 7,), "<u8", window, strides=(1,))
    start = sep[:, 0] - 19
    words = stamps[:k].view("<u8").reshape(k, 3)
    # stamp bytes 16-18 are the word at byte 11 with bytes 11-15 shifted out
    if not ((window_words[start] == words[:, 0]).all()
            and (window_words[start + 8] == words[:, 1]).all()
            and (window_words[start + 11] >> 40 == words[:, 2]).all()):
        return None
    begin, end = sep[:, :-1] + 1, sep[:, 1:]
    first = window[begin[0, 0]:end[0, -1]].tobytes().split(b",")
    whole = [c for c, field in enumerate(first) if _WHOLE.fullmatch(field)]
    columns = slice(None) if len(whole) == width else whole
    values = _whole_counts(window, begin[:, columns], end[:, columns]) if whole else None
    if values is not None:
        out[:k, columns] = values
    rest = [c for c in range(width) if values is None or c not in whole]
    if rest:
        values = _read_counts(window, begin[:, rest], end[:, rest])
        if values is None:
            return None
        out[:k, rest] = values
    return k, int(sep[-1, -1]) + 1


def _split(content: bytes, pos: int, start: datetime, epoch: int,
           n: int) -> list[tuple[int, int]] | None:
    """Where each part of a canonical body of ``n`` rows starts, as the
    offset and grid index of its first row; the body starts at ``pos`` with
    row 0. The body is cut into min(_PARTS, its blocks of _STAMP_BLOCK
    rows) shares of about equal bytes, and each later part starts at the
    first row start at or past its share's first byte. A cut that lands in
    the last row, or in the row of the cut before it, is dropped. None if
    a part's first stamp is not on the grid at an index past the part
    before it, as it is in every canonical file."""
    count = min(_PARTS, -(-n // _STAMP_BLOCK))
    parts = [(pos, 0)]
    for j in range(1, count):
        at = content.find(b"\n", pos + j * (len(content) - pos) // count - 1) + 1
        # no LF past that point, the last row's LF, or the split before
        if at <= parts[-1][0] or at == len(content):
            continue
        stamp = _read_stamp(content[at:at + 20])
        if stamp is None:
            return None
        k, off_grid = divmod(int((stamp - start).total_seconds()), epoch)
        if off_grid or not parts[-1][1] < k < n:
            return None
        parts.append((at, k))
    return parts


def _read_part(content: bytes, pos: int, end: int, start: datetime, epoch: int,
               out: np.ndarray) -> bool:
    """Fill ``out``, an (m, width) view of the samples, with the counts of
    ``content[pos:end]`` if those bytes are m rows with the stamps of the
    grid of ``start`` and ``epoch``; False if they are not. ``end`` is the
    next part's first row, or the end of the file, whose last row alone may
    lack an LF (one is added). _read_rows reads each block of _stamp_blocks
    _SCAN bytes at a time, but at least a row and at most a sixteenth more
    than the block's rows left would take at the length of the first of
    them or at the mean length of the part's rows left, whichever is more:
    a read of more rows than its block has left would hold more temporaries
    than the parse of a file of that one block."""
    for i, stamps in _stamp_blocks(start, epoch, out.shape[0]):
        row = 0
        while row < stamps.size:
            line = content.find(b"\n", pos) + 1 or len(content)
            left = (stamps.size - row) * max(line - pos, (end - pos) // (out.shape[0] - i - row))
            size = min(max(min(_SCAN, left + left // 16), line - pos), len(content) - pos)
            window = (np.frombuffer(content, np.uint8, size, pos)
                      if pos + size < len(content) or content.endswith(b"\n")
                      else np.frombuffer(content[pos:] + b"\n", np.uint8))
            read = _read_rows(window, stamps[row:], out[i + row:i + stamps.size])
            if read is None:
                return False
            row, pos = row + read[0], pos + read[1]
    return min(pos, len(content)) == end


def _parse_columnar(content: bytes, subject_id: str) -> TriaxialSeries | None:
    """The series of a file in canonical form, parsed block by block with
    numpy; None for any other file.

    Canonical form is an exact lower-case header, no blank lines, the
    stamps _stamp_blocks makes for the grid of the first stamp and a
    positive epoch, byte for byte, and at least two rows of counts that
    float() reads as finite and non-negative, with no byte at or below the
    comma but the "+" of an exponent. Such a file parses to the same series
    in the row loop. A file whose epoch does not align with minutes goes to
    the row loop, after which TriaxialSeries reports it.

    The header and the first two stamps are checked before any pass over
    the whole file, so most other files cost only those few bytes. The row
    count comes from the last line's stamp and is checked against the
    file's size before the samples array is made. The rows are then split
    at row boundaries into parts (see _split), each part's first stamp
    giving its rows of the samples. The first part is read in the calling
    thread and each other one in a thread of its own, and no thread
    outlives the parse. _read_part reads each part a block of _stamp_blocks
    at a time, straight from the bytes and checking each byte (see
    _read_rows), so the parse holds the file's bytes, the samples and one
    block per part. The series is returned only if every part read exactly
    its bytes.
    """
    width = 1 if content.startswith(b"timestamp,vm\n") else 3
    header = b"timestamp,vm\n" if width == 1 else b"timestamp,axis1,axis2,axis3\n"
    if not content.startswith(header):
        return None
    row = content.find(b"\n", len(header)) + 1
    start, second = _read_stamp(content[len(header):row]), _read_stamp(content[row:row + 20])
    if start is None or second is None:
        return None
    epoch = int((second - start).total_seconds())
    last = _read_stamp(content[content.rfind(b"\n", 0, len(content) - 1) + 1:])
    if epoch <= 0 or (60 % epoch and epoch % 60) or last is None:
        return None
    steps, off_grid = divmod(int((last - start).total_seconds()), epoch)
    n = steps + 1
    # a row is at least 22 bytes, "<stamp>,0\n", and the last one 21
    if off_grid or n < 2 or 22 * n - 1 > len(content) - len(header):
        return None
    parts = _split(content, len(header), start, epoch, n)
    if parts is None:
        return None
    samples = np.zeros((n, 3))
    bounds = [*parts, (len(content), n)]
    reads = [(content, pos, end, start + timedelta(seconds=k * epoch), epoch,
              samples[k:k_end, :width])
             for (pos, k), (end, k_end) in zip(bounds, bounds[1:])]
    # the executor starts a thread only on submit, so one part starts none
    with ThreadPoolExecutor(len(reads)) as pool:
        others = [pool.submit(_read_part, *args) for args in reads[1:]]
        results = [_read_part(*reads[0])] + [part.result() for part in others]
    if not all(results):
        return None
    return TriaxialSeries(subject_id=subject_id, start_time=start,
                          epoch_length=epoch, samples=samples)


def parse_triaxial_csv(content, subject_id: str) -> TriaxialSeries:
    """Parse an epoch CSV into a TriaxialSeries.

    The epoch length is inferred from the first two timestamps and every
    subsequent gap must match it exactly. The ``timestamp,vm`` variant is
    stored as (vm, 0, 0).

    A file in the canonical form that serialize_triaxial_csv writes is
    parsed block by block straight from its bytes with numpy: each count
    from its digits, correctly rounded, and by float() only where that
    cannot decide, as in exponent form. A file of more than one block is
    split into parts read in threads, one per CPU, and the parse holds the
    bytes, the samples and one block per part. Every other file goes
    through the row loop, which is the only code that reports errors in the
    file's text, so each error's class, message and line number do not
    depend on which path ran. (An epoch that does not align with minutes is
    raised by TriaxialSeries after either path.)
    """
    raw = content.encode() if isinstance(content, str) and content.isascii() else content
    if isinstance(raw, bytes):
        series = _parse_columnar(raw.removeprefix(codecs.BOM_UTF8), subject_id)
        if series is not None:
            return series
    reader = csv.reader(io.StringIO(_decode(content)))
    counts = array("d")   # the rows' counts, three to a row
    n_rows, start, prev, epoch = 0, SYNTH_START, None, 60
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "missing header")
        cols = tuple(c.strip().lower() for c in header)
        if cols not in (_EPOCH_HEADER, _EPOCH_HEADER_VM):
            raise MalformedRow(1, f"unexpected header {header!r}")
        vm_only = cols == _EPOCH_HEADER_VM
        n_cols = len(cols)
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_cols:
                raise MalformedRow(line_no,
                                   f"expected {n_cols} fields, got {len(row)}")
            ts = _parse_timestamp(row[0], line_no)
            if vm_only:
                counts.extend((_parse_count(row[1], line_no), 0.0, 0.0))
            else:
                counts.extend((_parse_count(row[1], line_no),
                               _parse_count(row[2], line_no),
                               _parse_count(row[3], line_no)))
            n_rows += 1
            if prev is None:
                start = ts
            else:
                step = (ts - prev).total_seconds()
                if step <= 0:
                    raise NonMonotonicTime(
                        f"timestamps not increasing at line {line_no}")
                if n_rows == 2:
                    if step != int(step):
                        raise IrregularEpoch(f"non-integer epoch of {step} s")
                    epoch = int(step)
                elif step != epoch:
                    raise IrregularEpoch(
                        f"gap of {step} s at line {line_no} differs from epoch {epoch} s")
            prev = ts
    except csv.Error as exc:   # e.g. a bare CR in an unquoted field
        raise MalformedRow(reader.line_num, f"bad CSV row: {exc}") from None

    return TriaxialSeries(subject_id=subject_id, start_time=start, epoch_length=epoch,
                          samples=np.frombuffer(counts, dtype=float).reshape(-1, 3))


def _format_block(stamps: np.ndarray, samples: np.ndarray, buffer: np.ndarray) -> bytes:
    """The ASCII rows of one block, its stamps and (n, 3) counts, laid out
    in ``buffer``, a uint8 array of at least the block's bytes.

    Each row is the stamp and ",", then each count's slot and its "," or
    LF. A column of whole counts (numtext.count_groups) takes as many digit
    groups of numtext.GROUPS as its largest count, and ".0"; any other
    column takes "%r", which numtext.fill formats."""
    groups = [numtext.count_groups(column) for column in samples.T]
    width = 20 + sum(4 * g + 3 if g else 3 for g in groups)
    layout = buffer[:stamps.size * width].reshape(-1, width)
    layout[:, :19].view("S19")[:, 0] = stamps
    layout[:, 19] = ord(",")
    at = 20
    for column, g in zip(samples.T, groups):
        if g:
            n = column.astype(np.int64)
            for k in range(g - 1, -1, -1):   # from the first group to the last
                # the group's digits in the part of numtext.GROUPS for its
                # place: after the leading group, the leading one, or before it
                if k == g - 1:
                    part = (n // numtext.BASES[k] if k else n) + 10000
                else:
                    part = n // numtext.BASES[k] % 10000 + (n < numtext.BASES[k + 1]) * 10000
                if k:
                    part += (n < numtext.BASES[k]) * 10000
                layout[:, at:at + 4].view("S4")[:, 0] = numtext.GROUPS[part]
                at += 4
        layout[:, at:at + 3].view("S3")[:, 0] = b".0," if g else b"%r,"
        at += 3
    layout[:, -1] = ord("\n")
    return numtext.fill(layout.tobytes(), samples, np.equal(groups, 0))


def serialize_triaxial_csv(series: TriaxialSeries) -> str:
    """Inverse of parse_triaxial_csv (always the four-column format).

    Stamps are the canonical ones of _stamp_blocks, local times to the
    second: a start time's microseconds and UTC offset are dropped. A
    series that runs past year 9999 raises OverflowError. Each count is
    written as its float's repr, _STAMP_BLOCK rows at a time by
    _format_block in one layout buffer made for the series. The blocks are
    joined as bytes and decoded once, after the buffer and the list of
    blocks are dropped, so the writer holds at most twice its text and one
    block.
    """
    start = series.start_time.replace(microsecond=0, tzinfo=None)
    blocks = [b"timestamp,axis1,axis2,axis3\n"]
    if len(series):
        # the widest row a block can take: each column's slot at the most
        # groups that a whole count below 1e16 in it can take
        widest = 20 + sum(4 * numtext.groups(min(c.max(), 1e16 - 2)) + 3
                          for c in series.samples.T)
        buffer = np.empty(min(len(series), _STAMP_BLOCK) * widest, np.uint8)
        for i, stamps in _stamp_blocks(start, series.epoch_length, len(series)):
            blocks.append(_format_block(stamps, series.samples[i:i + stamps.size], buffer))
        del buffer
    data = b"".join(blocks)
    del blocks   # so that the blocks and the text are not held together
    return data.decode("ascii")


def aggregate_to_minutes(series: TriaxialSeries) -> TriaxialSeries:
    """Sum sub-minute epochs into 60 s epochs; a trailing partial minute is
    dropped rather than scaled."""
    if series.epoch_length == 60:
        return series
    if series.epoch_length > 60 or 60 % series.epoch_length != 0:
        raise IncompatibleEpoch(
            f"cannot aggregate epoch of {series.epoch_length} s to minutes")
    per_minute = 60 // series.epoch_length
    n_minutes = len(series) // per_minute
    used = series.samples[: n_minutes * per_minute]
    summed = np.empty((n_minutes, 3))
    # axis by axis, each minute's epochs added in order: the floats of a
    # sum along axis 1 of a (n_minutes, per_minute, 3) view, whose inner
    # loop of 3 counts costs twice the time
    with np.errstate(over="ignore"):
        for counts, total in zip(used.T, summed.T):
            total[:] = counts[::per_minute]
            for j in range(1, per_minute):
                total += counts[j::per_minute]
    if not np.all(np.isfinite(summed)):
        raise CountOverflow(f"subject {series.subject_id!r}: minute sums overflow")
    return TriaxialSeries(subject_id=series.subject_id,
                          start_time=series.start_time,
                          epoch_length=60, samples=summed)


def load_manifest(content) -> tuple[ManifestEntry, ...]:
    """The entries of a manifest CSV's bytes or text, in subject-ID order."""
    reader = csv.reader(io.StringIO(_decode(content)))
    try:
        rows = list(reader)
    except csv.Error as exc:   # e.g. a bare CR in an unquoted field
        raise MalformedRow(reader.line_num, f"bad CSV row: {exc}") from None
    if not rows:
        raise MalformedRow(1, "missing header")
    if tuple(c.strip().lower() for c in rows[0]) != _MANIFEST_HEADER:
        raise MalformedRow(1, f"unexpected header {rows[0]!r}")
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise MalformedRow(line_no, f"expected 3 fields, got {len(row)}")
        if any("\r" in f or "\n" in f for f in row):
            raise MalformedRow(line_no, "line break inside a field")
        subject_id = row[0].strip()
        if not subject_id:
            raise MalformedRow(line_no, "empty subject_id")
        if subject_id in seen:
            raise DuplicateSubject(f"line {line_no}: duplicate subject {subject_id!r}")
        seen.add(subject_id)
        path = row[2].strip()
        if not path:
            raise MalformedRow(line_no, "empty path")
        entries.append(ManifestEntry(subject_id, GroupLabel.parse(row[1], line_no), path))
    return tuple(sorted(entries, key=lambda e: e.subject_id))


def read_table(path: Path, required: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """The non-empty rows of a CSV table as (line number, dict) pairs; the
    header must name the ``required`` columns, and no column twice, and every
    row have its width. Decoded as the epoch files are (UTF-8, an optional
    byte-order mark)."""
    reader = csv.reader(io.StringIO(_decode(path.read_bytes()), newline=""))
    try:
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise MalformedRow(1, f"{path}: missing columns {missing}")
        twice = next((c for i, c in enumerate(header) if c in header[:i]), None)
        if twice is not None:
            raise MalformedRow(1, f"{path}: column {twice!r} named twice")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(reader.line_num, f"{path}: expected {len(header)} "
                                                    f"fields, got {len(row)}")
            rows.append((reader.line_num, dict(zip(header, row))))
    except csv.Error as exc:   # e.g. a field longer than csv.field_size_limit()
        raise MalformedRow(reader.line_num, f"{path}: bad CSV row: {exc}") from None
    return rows


def generate_synthetic(spec: SynthSpec, subject_id: str = "synthetic") -> TriaxialSeries:
    """One minute-level sample per minute for ``spec.days`` days from
    SYNTH_START.

    The model is evaluated at minute midpoints; Gaussian noise of sd
    ``noise_sd`` is added and the result clamped at 0. All counts go on the
    x axis so the vector magnitude reproduces the model exactly.
    Deterministic for a given seed. Noise that overflows a count is an
    InvalidSpec naming the subject.
    """
    n = spec.days * 1440
    t = (np.arange(n) + 0.5) / 60.0
    vm = curve.evaluate(t, spec.min, spec.amplitude, spec.alpha, spec.beta, spec.phase)
    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        with np.errstate(over="ignore"):
            vm = vm + rng.normal(0.0, spec.noise_sd, size=n)
    vm = np.maximum(vm, 0.0)
    if not np.all(np.isfinite(vm)):
        raise InvalidSpec(f"subject {subject_id!r}: counts overflow with "
                          f"noise_sd {spec.noise_sd}")
    samples = np.column_stack([vm, np.zeros(n), np.zeros(n)])
    return TriaxialSeries(subject_id=subject_id, start_time=SYNTH_START,
                          epoch_length=60, samples=samples)
