"""Parsing of epoch-level actigraphy CSVs and cohort manifests, plus
synthetic series generation for testing.

File formats:
  epoch CSV    header ``timestamp,axis1,axis2,axis3`` (or the single-column
               variant ``timestamp,vm``), ISO-8601 local timestamps at
               second resolution, non-negative decimal counts.
  manifest CSV header ``subject_id,group,path``; group is one of
               control_icu, cci, rr, control_healthy (case-insensitive).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum

import numpy as np

from . import curve
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
    def parse(cls, text: str) -> "GroupLabel":
        key = text.strip().lower()
        for label in cls:
            if label.value == key:
                return label
        raise UnknownGroup(f"unknown group {text!r}; expected one of "
                           f"{[m.value for m in cls]}")


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
            if not np.all(np.isfinite(samples)):
                raise ValueError("counts must be finite")
            if samples.min() < 0:
                raise NegativeCount("counts must be non-negative")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    group: GroupLabel
    source_path: str


@dataclass(frozen=True)
class CohortManifest:
    entries: tuple[ManifestEntry, ...]


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
        if not self.amplitude >= 0:
            raise InvalidSpec(f"amplitude must be >= 0, got {self.amplitude}")
        if not -1.0 < self.alpha < 1.0:
            raise InvalidSpec(f"alpha must be in (-1, 1), got {self.alpha}")
        if not self.beta > 0:
            raise InvalidSpec(f"beta must be > 0, got {self.beta}")
        if not 0.0 <= self.phase < 24.0:
            raise InvalidSpec(f"phase must be in [0, 24), got {self.phase}")
        if not self.noise_sd >= 0:
            raise InvalidSpec(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.days < 1:
            raise InvalidSpec(f"days must be >= 1, got {self.days}")


def _decode(content) -> str:
    if isinstance(content, bytes):
        return content.decode("utf-8")
    if isinstance(content, str):
        return content
    return content.read().decode("utf-8") if hasattr(content, "read") else str(content)


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


def parse_triaxial_csv(content, subject_id: str) -> TriaxialSeries:
    """Parse an epoch CSV into a TriaxialSeries.

    The epoch length is inferred from the first two timestamps and every
    subsequent gap must match it exactly. The ``timestamp,vm`` variant is
    stored as (vm, 0, 0).
    """
    reader = csv.reader(io.StringIO(_decode(content)))
    rows: list[tuple[float, float, float]] = []
    start, prev, epoch = SYNTH_START, None, 60
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
                rows.append((_parse_count(row[1], line_no), 0.0, 0.0))
            else:
                rows.append((_parse_count(row[1], line_no),
                             _parse_count(row[2], line_no),
                             _parse_count(row[3], line_no)))
            if prev is None:
                start = ts
            else:
                step = (ts - prev).total_seconds()
                if step <= 0:
                    raise NonMonotonicTime(
                        f"timestamps not increasing at line {line_no}")
                if len(rows) == 2:
                    if step != int(step):
                        raise IrregularEpoch(f"non-integer epoch of {step} s")
                    epoch = int(step)
                elif step != epoch:
                    raise IrregularEpoch(
                        f"gap of {step} s at line {line_no} differs from epoch {epoch} s")
            prev = ts
    except csv.Error as exc:   # e.g. a bare CR in an unquoted field
        raise MalformedRow(reader.line_num, f"bad CSV row: {exc}") from None

    samples = np.array(rows, dtype=float).reshape(len(rows), 3)
    return TriaxialSeries(subject_id=subject_id, start_time=start,
                          epoch_length=epoch, samples=samples)


def serialize_triaxial_csv(series: TriaxialSeries) -> str:
    """Inverse of parse_triaxial_csv (always the four-column format)."""
    out = ["timestamp,axis1,axis2,axis3"]
    step = series.epoch_length
    for i in range(len(series)):
        ts = series.start_time + timedelta(seconds=i * step)
        x, y, z = series.samples[i]
        out.append(f"{ts.isoformat(timespec='seconds')},{float(x)!r},{float(y)!r},{float(z)!r}")
    return "\n".join(out) + "\n"


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
    with np.errstate(over="ignore"):
        summed = used.reshape(n_minutes, per_minute, 3).sum(axis=1)
    if not np.all(np.isfinite(summed)):
        raise CountOverflow(f"subject {series.subject_id!r}: minute sums overflow")
    return TriaxialSeries(subject_id=series.subject_id,
                          start_time=series.start_time,
                          epoch_length=60, samples=summed)


def load_manifest(content) -> CohortManifest:
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
        entries.append(ManifestEntry(subject_id, GroupLabel.parse(row[1]), path))
    return CohortManifest(entries=tuple(entries))


def generate_synthetic(spec: SynthSpec, subject_id: str = "synthetic") -> TriaxialSeries:
    """One minute-level sample per minute for ``spec.days`` days from
    SYNTH_START.

    The model is evaluated at minute midpoints; Gaussian noise of sd
    ``noise_sd`` is added and the result clamped at 0. All counts go on the
    x axis so the vector magnitude reproduces the model exactly.
    Deterministic for a given seed.
    """
    n = spec.days * 1440
    t = (np.arange(n) + 0.5) / 60.0
    vm = curve.evaluate(t, spec.min, spec.amplitude, spec.alpha, spec.beta, spec.phase)
    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        vm = vm + rng.normal(0.0, spec.noise_sd, size=n)
    vm = np.maximum(vm, 0.0)
    samples = np.column_stack([vm, np.zeros(n), np.zeros(n)])
    return TriaxialSeries(subject_id=subject_id, start_time=SYNTH_START,
                          epoch_length=60, samples=samples)
