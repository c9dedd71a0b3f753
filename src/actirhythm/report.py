"""Cohort orchestration and figure data: group average curves with normal
95% confidence bands, per-subject observed/fitted overlays, and the
CSV/SVG/text outputs of the full pipeline. Both SVG figures share one
document frame and one axis pair. The per-minute CSV writers lay out each
row's prefix and slots, and numtext writes the numbers: "%d" and "%.6g"
in the CSVs, and "%.2f" for the figures' points.

All file outputs are UTF-8 with LF line endings and are byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import numtext, stats
from .cosinor import FitConfig, SigmoidalCosinorFit, fit_sigmoidal_cosinor, model_value
from .errors import DataError, InsufficientData, MisalignedSeries, TooFewGroups
from .features import ActivityFeatures, FeatureConfig, compute_features
from .ingest import (GROUP_ORDER, GroupLabel, aggregate_to_minutes, load_manifest,
                     parse_triaxial_csv, read_table)
from .preprocess import (
    ActivitySeries,
    NonwearBout,
    day_profile,
    detect_nonwear_bouts,
    filter_invalid_days,
    select_analysis_window,
    to_activity_series,
)

GROUP_COLORS = {
    GroupLabel.CONTROL_ICU: "#d62728",
    GroupLabel.CCI: "#9467bd",
    GroupLabel.RR: "#2ca02c",
    GroupLabel.CONTROL_HEALTHY: "#1f77b4",
}

Z_95 = 1.96
SVG_WIDTH = 960
SVG_HEIGHT = 420
_NOT_XML = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")


# rows a numtext.sig6 call writes at most: its arrays take about 100 bytes a
# value, so a long block does not raise the run's peak memory
_CHUNK_ROWS = 4096


def _csv_table(header: Sequence[str], prefixes: Sequence[Sequence[str]],
               blocks: Sequence[Sequence[np.ndarray]]) -> str:
    """The header, then each block's rows: its prefix's text fields as
    csv_text quotes them, then its columns, the minutes as "%d" and the
    others as "%.6g".

    _CHUNK_ROWS at a time, each row is a "\n" and its numbers' numtext.SIG6
    fields, and one replace puts the prefix after each "\n". The minutes
    go in truncated, -0.0 as 0.0, where "%.6g" writes them as "%d" does."""
    parts = [csv_text(header, ())[:-1]]
    for fields, (minutes, *columns) in zip(prefixes, blocks):
        prefix = ("\n" + csv_text(fields, ())[:-1]).encode()
        formats = np.array([b",%d"] + [b",%.6g"] * len(columns))
        row = np.dtype([("start", "S1"), ("values", numtext.SIG6, len(columns) + 1)])
        for start in range(0, len(minutes), _CHUNK_ROWS):
            part = slice(start, start + _CHUNK_ROWS)
            values = np.column_stack([np.trunc(minutes[part]) + 0.0]
                                     + [c[part] for c in columns])
            buf = bytearray(len(values) * row.itemsize)
            rows = np.frombuffer(buf, row)
            rows["start"] = b"\n"
            marked = numtext.sig6(values, rows["values"], formats)
            parts.append(numtext.fill(buf, values, marked).replace(b"\n", prefix).decode())
    return "".join(parts + ["\n"])


def csv_text(header: Sequence[str], rows) -> str:
    """A CSV table with LF line ends; fields are quoted only when they
    contain a comma, quote or LF (csv.QUOTE_MINIMAL). A bare CR is not
    quoted, which is why the manifest and synth spec reject line breaks."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class GroupCurve:
    group: GroupLabel
    times: np.ndarray      # minutes since analysis start
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_subjects: int


@dataclass(frozen=True)
class CurveOverlay:
    subject_id: str
    group: GroupLabel
    observed: np.ndarray   # minute-of-day profile on the fitting scale
    fitted: np.ndarray     # model samples, same length


@dataclass(frozen=True)
class PipelineConfig:
    days: int = 5
    nonwear_min: int = 60
    nonwear_tolerance: int = 0
    immobile_threshold: float = 0.0
    per_day: bool = False
    ra_raw_sums: bool = False
    transform: str = "log1p"
    multistart: int = 1
    posthoc: str = "ranksum"
    exact: bool = False
    smooth: int = 0

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(immobile_threshold=self.immobile_threshold,
                             per_day=self.per_day, ra_raw_sums=self.ra_raw_sums)

    def fit_config(self) -> FitConfig:
        return FitConfig(transform=self.transform, multistart=self.multistart)


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    group: GroupLabel
    window: ActivitySeries
    features: ActivityFeatures | None = None
    fit: SigmoidalCosinorFit | None = None


@dataclass
class PipelineResult:
    records: list[SubjectRecord]
    skipped: list[tuple[str, str, str]]   # subject_id, group, reason


def _moving_average(arr: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average over ``window`` samples, each mean taken over
    the samples its window covers; the same length as ``arr`` even for a
    window longer than it (where convolve's "same" mode returns more). Any
    window over 2 * arr.size - 1, which covers every sample, acts as that."""
    window = min(window, 2 * arr.size - 1)
    if window <= 1:
        return arr.copy()
    kernel = np.ones(window)
    centre = slice((window - 1) // 2, (window - 1) // 2 + arr.size)
    sums = np.convolve(arr, kernel)[centre]
    counts = np.convolve(np.ones(arr.size), kernel)[centre]
    return sums / counts


def group_average_curve(series_by_group: Mapping[GroupLabel, Sequence[ActivitySeries]],
                        smoothing: int = 0) -> list[GroupCurve]:
    """Pointwise across-subject mean and 95% normal band per group.

    All series must share one days*1440 grid. The band is
    mean +- 1.96 * sd/sqrt(n) with population sd; one subject gives a
    zero-width band.
    """
    lengths = {s.values.size for group in series_by_group.values() for s in group}
    if not lengths:
        raise InsufficientData("no series given")
    if len(lengths) != 1:
        raise MisalignedSeries(f"series lengths differ: {sorted(lengths)}")
    n_minutes = lengths.pop()
    times = np.arange(n_minutes, dtype=float)
    curves = []
    for group in GROUP_ORDER:
        members = series_by_group.get(group)
        if not members:
            continue
        stack = np.vstack([s.values for s in members])
        mean = stack.mean(axis=0)
        sd = stack.std(axis=0)
        half = Z_95 * sd / math.sqrt(stack.shape[0])
        lo, hi = mean - half, mean + half
        if smoothing > 1:
            mean = _moving_average(mean, smoothing)
            lo = _moving_average(lo, smoothing)
            hi = _moving_average(hi, smoothing)
        curves.append(GroupCurve(group=group, times=times, mean=mean,
                                 ci_low=lo, ci_high=hi,
                                 n_subjects=stack.shape[0]))
    return curves


def _scale(v: np.ndarray, lo, hi, out_lo, out_hi) -> np.ndarray:
    """Map v from [lo, hi] onto [out_lo, out_hi]; the midpoint if hi == lo."""
    if hi == lo:
        return np.full(np.shape(v), (out_lo + out_hi) / 2.0)
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def _axes(x0, y0, x1, y1) -> list[str]:
    """The x axis from (x0, y0) to (x1, y0), the y axis to (x0, y1)."""
    return [f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333333"/>',
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333333"/>']


def _svg_document(body: Sequence[str]) -> str:
    """body inside the <svg> element, over a white background."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]) + "\n"


def render_curves_svg(curves: Sequence[GroupCurve]) -> str:
    """One panel: x in days, y in counts/min, a mean line plus translucent
    band per group, legend at the right. Deterministic output."""
    if not curves:
        raise ValueError("need at least one curve")
    x0, x1 = 64, SVG_WIDTH - 170
    y0, y1 = SVG_HEIGHT - 46, 24
    t_max = max(float(c.times[-1]) + 1.0 for c in curves)
    v_max = max(float(c.ci_high.max()) for c in curves) or 1.0
    v_max *= 1.05

    parts = _axes(x0, y0, x1, y1)
    n_days = int(round(t_max / 1440.0))
    day_x = _scale(np.arange(n_days + 1) * 1440.0, 0.0, t_max, x0, x1)
    for d, x in enumerate(day_x.tolist()):
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{x:.2f}" y="{y0 + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#333333">{d}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{SVG_HEIGHT - 8}" font-size="12" '
                 f'text-anchor="middle" fill="#333333">days</text>')
    tick_v = np.array([0.0, 0.5, 1.0]) * v_max
    tick_y = _scale(tick_v, 0.0, v_max, y0, y1)
    for v, y in zip(tick_v.tolist(), tick_y.tolist()):
        parts.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#333333">{v:.0f}</text>')
    parts.append(f'<text x="14" y="{(y0 + y1) / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" fill="#333333" '
                 f'transform="rotate(-90 14 {(y0 + y1) / 2:.2f})">counts/min</text>')

    xs = [_scale(c.times, 0.0, t_max, x0, x1) for c in curves]
    for c, x in zip(curves, xs):
        band = _scale(np.concatenate([c.ci_high, c.ci_low[::-1]]), 0.0, v_max, y0, y1)
        points = numtext.points(np.concatenate([x, x[::-1]]), band)
        parts.append(f'<polygon points="{points}" fill="{GROUP_COLORS[c.group]}" '
                     f'fill-opacity="0.2" stroke="none"/>')
    for c, x in zip(curves, xs):
        d_attr = "M " + numtext.points(x, _scale(c.mean, 0.0, v_max, y0, y1), " ", " L ")
        parts.append(f'<path d="{d_attr}" fill="none" stroke="{GROUP_COLORS[c.group]}" '
                     f'stroke-width="1.2"/>')
    for i, c in enumerate(curves):
        ly = y1 + 10 + 18 * i
        parts.append(f'<rect x="{x1 + 12}" y="{ly - 9}" width="14" height="10" '
                     f'fill="{GROUP_COLORS[c.group]}"/>')
        parts.append(f'<text x="{x1 + 31}" y="{ly}" font-size="11" '
                     f'fill="#333333">{c.group.value} (n={c.n_subjects})</text>')
    return _svg_document(parts)


def _xml_text(text: str) -> str:
    """Escape &, < and > for SVG character data, and write each character
    that XML 1.0 cannot hold (_NOT_XML) as U+FFFD."""
    text = text.translate(_NOT_XML)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_overlays_svg(overlays: Sequence[CurveOverlay]) -> str:
    """Small-multiple panels of observed minute-of-day profile (grey) and
    fitted curve (group color) over one 24 h cycle."""
    if not overlays:
        raise ValueError("need at least one overlay")
    cols = 2
    rows_n = (len(overlays) + cols - 1) // cols
    panel_w = (SVG_WIDTH - 40) // cols
    panel_h = (SVG_HEIGHT - 20) // rows_n
    parts = []
    for idx, ov in enumerate(overlays):
        px0 = 20 + (idx % cols) * panel_w + 34
        py0 = 10 + (idx // cols) * panel_h + 16
        px1 = 20 + (idx % cols + 1) * panel_w - 12
        py1 = 10 + (idx // cols + 1) * panel_h - 26
        v_hi = max(float(ov.observed.max()), float(ov.fitted.max())) or 1.0
        v_lo = min(0.0, float(ov.observed.min()), float(ov.fitted.min()))
        x = _scale(np.arange(ov.observed.size), 0, ov.observed.size - 1, px0, px1)
        obs = numtext.points(x, _scale(ov.observed, v_lo, v_hi * 1.05, py1, py0))
        fit_pts = numtext.points(x, _scale(ov.fitted, v_lo, v_hi * 1.05, py1, py0))
        parts += _axes(px0, py1, px1, py0)
        parts.append(f'<polyline points="{obs}" fill="none" stroke="#999999" '
                     f'stroke-width="0.8"/>')
        parts.append(f'<polyline points="{fit_pts}" fill="none" '
                     f'stroke="{GROUP_COLORS[ov.group]}" stroke-width="1.8"/>')
        parts.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{py0 - 4}" font-size="11" '
                     f'text-anchor="middle" fill="#333333">{_xml_text(ov.subject_id)} '
                     f'({ov.group.value})</text>')
    return _svg_document(parts)


def build_overlay(record: SubjectRecord) -> CurveOverlay:
    observed = day_profile(record.window, record.fit.transform)
    fitted = model_value(np.arange(1440) / 60.0, record.fit)
    return CurveOverlay(subject_id=record.subject_id, group=record.group,
                        observed=observed, fitted=fitted)


# ---------------------------------------------------------------------------
# output writers

def features_csv(records: Sequence[SubjectRecord]) -> str:
    return csv_text(
        ("subject_id", "group") + ActivityFeatures.FIELDS,
        ([rec.subject_id, rec.group.value]
         + ["%.6g" % getattr(rec.features, name) for name in ActivityFeatures.FIELDS]
         for rec in records))


def cosinor_csv(records: Sequence[SubjectRecord]) -> str:
    names = ("min", "amplitude", "alpha", "beta", "phase", "mesor", "rss")
    return csv_text(
        ("subject_id", "group") + names + ("converged", "transform"),
        ([rec.subject_id, rec.group.value]
         + ["%.6g" % getattr(rec.fit, name) for name in names]
         + ["true" if rec.fit.converged else "false", rec.fit.transform]
         for rec in records))


def comparison_csv(rows: Sequence[stats.GroupComparisonRow]) -> str:
    return csv_text(
        ("feature", "group", "median", "q25", "q75", "kw_h", "kw_p", "markers"),
        ((row.feature, cell.label.value, "%.6g" % cell.median, "%.6g" % cell.q25,
          "%.6g" % cell.q75, "%.6g" % row.kw.h, "%.6g" % row.kw.p, cell.markers)
         for row in rows for cell in row.cells))


def comparison_text(rows: Sequence[stats.GroupComparisonRow]) -> str:
    if not rows:
        return ""
    labels = [cell.label for cell in rows[0].cells]
    # cohort size per group: per-feature n can be smaller when values are NaN
    sizes = [max(row.cells[i].n for row in rows) for i in range(len(labels))]
    header = ["feature"] + [f"{lb.value} (n={n})"
                            for lb, n in zip(labels, sizes)] + ["p"]
    table = [header]
    for row in rows:
        cells = [row.feature]
        for cell in row.cells:
            if cell.n == 0:
                cells.append("-")
            else:
                text = "%.6g (%.6g, %.6g)" % (cell.median, cell.q25, cell.q75)
                if cell.markers:
                    text += f" {cell.markers}"
                cells.append(text)
        cells.append("<0.001" if row.kw.p < 0.001 else "%.6g" % row.kw.p)
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in table]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def curves_csv(curves: Sequence[GroupCurve]) -> str:
    return _csv_table(("group", "minute", "mean", "ci_low", "ci_high"),
                      [(c.group.value,) for c in curves],
                      [(c.times, c.mean, c.ci_low, c.ci_high) for c in curves])


def overlays_csv(overlays: Sequence[CurveOverlay]) -> str:
    return _csv_table(("subject_id", "group", "minute", "observed", "fitted"),
                      [(ov.subject_id, ov.group.value) for ov in overlays],
                      [(np.arange(ov.observed.size), ov.observed, ov.fitted)
                       for ov in overlays])


def skips_csv(skipped: Sequence[tuple[str, str, str]]) -> str:
    return csv_text(("subject_id", "group", "reason"), skipped)


def write_file(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def write_comparison(features: Path, cosinor: Path, out_dir: Path,
                     posthoc: str = "ranksum", exact: bool = False) -> tuple[Path, Path]:
    """comparison.csv and comparison.txt under out_dir, from a features and
    a cosinor table that both have subject_id and group columns."""
    columns = ("subject_id", "group")
    rows = stats.feature_table(read_table(features, columns), read_table(cosinor, columns),
                               posthoc, exact)
    return (write_file(out_dir / "comparison.csv", comparison_csv(rows)),
            write_file(out_dir / "comparison.txt", comparison_text(rows)))


# ---------------------------------------------------------------------------
# pipeline

def read_subject(entry, manifest_dir: Path,
                 config: PipelineConfig) -> tuple[ActivitySeries, list[NonwearBout]]:
    """ingest -> minutes -> vector magnitude -> non-wear bouts -> day
    filter; returns the filtered series and the bouts found."""
    path = manifest_dir / entry.source_path
    try:
        content = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except ValueError:   # a NUL byte in the path
        raise DataError(f"cannot read {str(path)!r}: NUL byte in path") from None
    tri = aggregate_to_minutes(parse_triaxial_csv(content, entry.subject_id))
    series = to_activity_series(tri)
    bouts = detect_nonwear_bouts(series, min_bout=config.nonwear_min,
                                 tolerance=config.nonwear_tolerance)
    return filter_invalid_days(series, bouts), bouts


def prepare_subject(entry, manifest_dir: Path, config: PipelineConfig,
                    features: bool = False, fit: bool = False) -> SubjectRecord:
    """One subject's whole chain: read_subject, the analysis window and,
    when asked, compute_features and fit_sigmoidal_cosinor."""
    series, _ = read_subject(entry, manifest_dir, config)
    window = select_analysis_window(series, n_days=config.days)
    return SubjectRecord(
        entry.subject_id, entry.group, window,
        compute_features(window, config.feature_config()) if features else None,
        fit_sigmoidal_cosinor(window, config.fit_config()) if fit else None)


def load_cohort(manifest_path: Path, config: PipelineConfig, features: bool = False,
                fit: bool = False) -> tuple[list[SubjectRecord],
                                            list[tuple[str, str, str]]]:
    """prepare_subject on each manifest subject in ID order; a DataError at
    any stage makes the subject a (subject_id, group, reason) skip."""
    records, skipped = [], []
    for entry in load_manifest(manifest_path.read_bytes()):
        try:
            records.append(prepare_subject(entry, manifest_path.parent, config,
                                           features, fit))
        except DataError as exc:
            skipped.append((entry.subject_id, entry.group.value, str(exc)))
    return records, skipped


def cohort_curves(records: Sequence[SubjectRecord], smoothing: int) -> list[GroupCurve]:
    by_group: dict[GroupLabel, list[ActivitySeries]] = {}
    for rec in records:
        by_group.setdefault(rec.group, []).append(rec.window)
    return group_average_curve(by_group, smoothing=smoothing)


def run_pipeline(manifest_path: Path, out_dir: Path,
                 config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Full cohort run; every output file is written under out_dir.

    Subjects failing any stage land in the skip report and are excluded
    from all outputs. Fails only if fewer than two groups survive, with a
    TooFewGroups that holds the skip rows. The comparison is
    write_comparison on the features.csv and cosinor.csv written here, so
    ``compare`` on those tables reproduces it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    records, skipped = load_cohort(manifest_path, config, features=True, fit=True)
    write_file(out_dir / "skips.csv", skips_csv(skipped))
    if len({rec.group for rec in records}) < 2:
        raise TooFewGroups(skipped)

    features = write_file(out_dir / "features.csv", features_csv(records))
    cosinor = write_file(out_dir / "cosinor.csv", cosinor_csv(records))
    write_comparison(features, cosinor, out_dir, config.posthoc, config.exact)
    curves = cohort_curves(records, config.smooth)

    first_per_group = {}
    for rec in records:
        first_per_group.setdefault(rec.group, rec)
    overlays = [build_overlay(first_per_group[g])
                for g in GROUP_ORDER if g in first_per_group]

    write_file(out_dir / "curves.csv", curves_csv(curves))
    write_file(out_dir / "curves.svg", render_curves_svg(curves))
    write_file(out_dir / "overlays.csv", overlays_csv(overlays))
    write_file(out_dir / "overlays.svg", render_overlays_svg(overlays))
    return PipelineResult(records=records, skipped=skipped)
