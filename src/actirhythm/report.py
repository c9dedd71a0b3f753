"""Cohort orchestration and figure data: group average curves with normal
95% confidence bands, per-subject observed/fitted overlays, and the
CSV/SVG/text outputs of the full pipeline.

All file outputs are UTF-8 with LF line endings and are byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import stats
from .cosinor import FitConfig, SigmoidalCosinorFit, export_fitted_curve, fit_sigmoidal_cosinor
from .errors import DataError, InsufficientData, MisalignedSeries
from .features import ActivityFeatures, FeatureConfig, compute_features
from .ingest import GROUP_ORDER, GroupLabel, aggregate_to_minutes, load_manifest, parse_triaxial_csv
from .preprocess import (
    ActivitySeries,
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


def _fmt(x: float) -> str:
    return "%.6g" % x


def csv_field(text: str) -> str:
    """One CSV field, quoted only when it needs to be (csv.QUOTE_MINIMAL).
    The default "\r\n" terminator makes both CR and LF force quoting."""
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL).writerow([text])
    return buf.getvalue()[:-2]


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
class SvgOptions:
    width: int = 960
    height: int = 420
    margin_left: int = 64
    margin_right: int = 170
    margin_top: int = 24
    margin_bottom: int = 46


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


@dataclass
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
    outputs: dict[str, Path] = field(default_factory=dict)


def _moving_average(arr: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return arr.copy()
    kernel = np.ones(window)
    sums = np.convolve(arr, kernel, mode="same")
    counts = np.convolve(np.ones(arr.size), kernel, mode="same")
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


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def render_curves_svg(curves: Sequence[GroupCurve],
                      options: SvgOptions = SvgOptions()) -> str:
    """One panel: x in days, y in counts/min, a mean line plus translucent
    band per group, legend at the right. Deterministic output."""
    if not curves:
        raise ValueError("need at least one curve")
    o = options
    x0, x1 = o.margin_left, o.width - o.margin_right
    y0, y1 = o.height - o.margin_bottom, o.margin_top
    t_max = max(float(c.times[-1]) + 1.0 for c in curves)
    v_max = max(float(c.ci_high.max()) for c in curves) or 1.0
    v_max *= 1.05

    def px(t):
        return _scale(t, 0.0, t_max, x0, x1)

    def py(v):
        return _scale(v, 0.0, v_max, y0, y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
        f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">',
        f'<rect x="0" y="0" width="{o.width}" height="{o.height}" fill="#ffffff"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333333"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333333"/>',
    ]
    n_days = int(round(t_max / 1440.0))
    for d in range(n_days + 1):
        x = px(d * 1440.0)
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{x:.2f}" y="{y0 + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#333333">{d}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{o.height - 8}" font-size="12" '
                 f'text-anchor="middle" fill="#333333">days</text>')
    for frac in (0.0, 0.5, 1.0):
        v = frac * v_max
        y = py(v)
        parts.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#333333">{v:.0f}</text>')
    parts.append(f'<text x="14" y="{(y0 + y1) / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" fill="#333333" '
                 f'transform="rotate(-90 14 {(y0 + y1) / 2:.2f})">counts/min</text>')

    for c in curves:
        color = GROUP_COLORS[c.group]
        band = " ".join(f"{px(t):.2f},{py(v):.2f}" for t, v in zip(c.times, c.ci_high))
        band += " " + " ".join(f"{px(t):.2f},{py(v):.2f}"
                               for t, v in zip(c.times[::-1], c.ci_low[::-1]))
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.2" '
                     f'stroke="none"/>')
    for c in curves:
        color = GROUP_COLORS[c.group]
        d_attr = "M " + " L ".join(f"{px(t):.2f} {py(v):.2f}"
                                   for t, v in zip(c.times, c.mean))
        parts.append(f'<path d="{d_attr}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
    ly = y1 + 10
    for c in curves:
        color = GROUP_COLORS[c.group]
        parts.append(f'<rect x="{x1 + 12}" y="{ly - 9}" width="14" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x1 + 31}" y="{ly}" font-size="11" '
                     f'fill="#333333">{c.group.value} (n={c.n_subjects})</text>')
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_overlays_svg(overlays: Sequence[CurveOverlay],
                        options: SvgOptions = SvgOptions()) -> str:
    """Small-multiple panels of observed minute-of-day profile (grey) and
    fitted curve (group color) over one 24 h cycle."""
    if not overlays:
        raise ValueError("need at least one overlay")
    o = options
    cols = 2
    rows_n = (len(overlays) + cols - 1) // cols
    panel_w = (o.width - 40) // cols
    panel_h = (o.height - 20) // rows_n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
        f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">',
        f'<rect x="0" y="0" width="{o.width}" height="{o.height}" fill="#ffffff"/>',
    ]
    for idx, ov in enumerate(overlays):
        px0 = 20 + (idx % cols) * panel_w + 34
        py0 = 10 + (idx // cols) * panel_h + 16
        px1 = 20 + (idx % cols + 1) * panel_w - 12
        py1 = 10 + (idx // cols + 1) * panel_h - 26
        v_hi = max(float(ov.observed.max()), float(ov.fitted.max())) or 1.0
        v_lo = min(0.0, float(ov.observed.min()), float(ov.fitted.min()))
        n = ov.observed.size

        def sx(i):
            return _scale(i, 0, n - 1, px0, px1)

        def sy(v):
            return _scale(v, v_lo, v_hi * 1.05, py1, py0)

        parts.append(f'<line x1="{px0}" y1="{py1}" x2="{px1}" y2="{py1}" '
                     f'stroke="#333333"/>')
        parts.append(f'<line x1="{px0}" y1="{py1}" x2="{px0}" y2="{py0}" '
                     f'stroke="#333333"/>')
        obs = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(ov.observed))
        parts.append(f'<polyline points="{obs}" fill="none" stroke="#999999" '
                     f'stroke-width="0.8"/>')
        fit_pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(ov.fitted))
        parts.append(f'<polyline points="{fit_pts}" fill="none" '
                     f'stroke="{GROUP_COLORS[ov.group]}" stroke-width="1.8"/>')
        parts.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{py0 - 4}" font-size="11" '
                     f'text-anchor="middle" fill="#333333">{ov.subject_id} '
                     f'({ov.group.value})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_overlay(record: SubjectRecord, config: PipelineConfig) -> CurveOverlay:
    fit = record.fit
    matrix = np.vstack([record.window.day_block(d)
                        for d in range(record.window.n_days)])
    if config.transform == "log1p":
        observed = np.log1p(matrix).mean(axis=0)
    else:
        observed = matrix.mean(axis=0)
    fitted = export_fitted_curve(fit, resolution=1.0)[:, 1]
    return CurveOverlay(subject_id=record.subject_id, group=record.group,
                        observed=observed, fitted=fitted)


# ---------------------------------------------------------------------------
# output writers

def features_csv(records: Sequence[SubjectRecord]) -> str:
    lines = ["subject_id,group," + ",".join(ActivityFeatures.FIELDS)]
    for rec in records:
        f = rec.features
        lines.append(f"{csv_field(rec.subject_id)},{rec.group.value},"
                     + ",".join(_fmt(getattr(f, name))
                                for name in ActivityFeatures.FIELDS))
    return "\n".join(lines) + "\n"


def cosinor_csv(records: Sequence[SubjectRecord]) -> str:
    lines = ["subject_id,group,min,amplitude,alpha,beta,phase,mesor,rss,"
             "converged,transform"]
    for rec in records:
        fit = rec.fit
        lines.append(
            f"{csv_field(rec.subject_id)},{rec.group.value},{_fmt(fit.min)},"
            f"{_fmt(fit.amplitude)},{_fmt(fit.alpha)},{_fmt(fit.beta)},"
            f"{_fmt(fit.phase)},{_fmt(fit.mesor)},{_fmt(fit.rss)},"
            f"{'true' if fit.converged else 'false'},{fit.transform}")
    return "\n".join(lines) + "\n"


def comparison_csv(rows: Sequence[stats.GroupComparisonRow]) -> str:
    lines = ["feature,group,median,q25,q75,kw_h,kw_p,markers"]
    for row in rows:
        for cell in row.cells:
            lines.append(f"{row.feature},{cell.label.value},{_fmt(cell.median)},"
                         f"{_fmt(cell.q25)},{_fmt(cell.q75)},{_fmt(row.kw.h)},"
                         f"{_fmt(row.kw.p)},{cell.markers}")
    return "\n".join(lines) + "\n"


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
                text = f"{_fmt(cell.median)} ({_fmt(cell.q25)}, {_fmt(cell.q75)})"
                if cell.markers:
                    text += f" {cell.markers}"
                cells.append(text)
        cells.append("<0.001" if row.kw.p < 0.001 else _fmt(row.kw.p))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in table]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def curves_csv(curves: Sequence[GroupCurve]) -> str:
    lines = ["group,minute,mean,ci_low,ci_high"]
    for c in curves:
        for i in range(c.times.size):
            lines.append(f"{c.group.value},{int(c.times[i])},{_fmt(c.mean[i])},"
                         f"{_fmt(c.ci_low[i])},{_fmt(c.ci_high[i])}")
    return "\n".join(lines) + "\n"


def overlays_csv(overlays: Sequence[CurveOverlay]) -> str:
    lines = ["subject_id,group,minute,observed,fitted"]
    for ov in overlays:
        sid = csv_field(ov.subject_id)
        for i in range(ov.observed.size):
            lines.append(f"{sid},{ov.group.value},{i},"
                         f"{_fmt(ov.observed[i])},{_fmt(ov.fitted[i])}")
    return "\n".join(lines) + "\n"


def skips_csv(skipped: Sequence[tuple[str, str, str]]) -> str:
    lines = ["subject_id,group,reason"]
    for sid, group, reason in skipped:
        reason = reason.replace('"', "'")
        lines.append(f'{csv_field(sid)},{group},"{reason}"')
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


# ---------------------------------------------------------------------------
# pipeline

def prepare_subject(entry, manifest_dir: Path, config: PipelineConfig) -> ActivitySeries:
    """ingest -> minutes -> vector magnitude -> non-wear filter -> window."""
    path = Path(entry.source_path)
    if not path.is_absolute():
        path = manifest_dir / path
    try:
        content = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    tri = aggregate_to_minutes(parse_triaxial_csv(content, entry.subject_id))
    series = to_activity_series(tri)
    bouts = detect_nonwear_bouts(series, min_bout=config.nonwear_min,
                                 tolerance=config.nonwear_tolerance)
    series = filter_invalid_days(series, bouts)
    return select_analysis_window(series, n_days=config.days)


def load_cohort(manifest_path: Path,
                config: PipelineConfig) -> tuple[list[SubjectRecord],
                                                 list[tuple[str, str, str]]]:
    manifest = load_manifest(manifest_path.read_bytes())
    records = []
    skipped = []
    for entry in sorted(manifest.entries, key=lambda e: e.subject_id):
        try:
            window = prepare_subject(entry, manifest_path.parent, config)
            records.append(SubjectRecord(subject_id=entry.subject_id,
                                         group=entry.group, window=window))
        except DataError as exc:
            skipped.append((entry.subject_id, entry.group.value, str(exc)))
    return records, skipped


def run_pipeline(manifest_path: Path, out_dir: Path,
                 config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Full cohort run; every output file is written under out_dir.

    Subjects failing any stage land in the skip report and are excluded
    from all outputs. Fails only if fewer than two groups survive.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    records, skipped = load_cohort(manifest_path, config)

    surviving = []
    for rec in records:
        try:
            rec.features = compute_features(rec.window, config.feature_config())
            rec.fit = fit_sigmoidal_cosinor(rec.window, config.fit_config())
            surviving.append(rec)
        except DataError as exc:
            skipped.append((rec.subject_id, rec.group.value, str(exc)))
    records = surviving

    if len({rec.group for rec in records}) < 2:
        _write(out_dir / "skips.csv", skips_csv(skipped))
        raise InsufficientData("fewer than 2 groups survived preprocessing")

    rows = stats.feature_table(
        {r.subject_id: r.features for r in records},
        {r.subject_id: r.fit for r in records},
        {r.subject_id: r.group for r in records},
        posthoc=config.posthoc, exact=config.exact)

    by_group: dict[GroupLabel, list[ActivitySeries]] = {}
    for rec in records:
        by_group.setdefault(rec.group, []).append(rec.window)
    curves = group_average_curve(by_group, smoothing=config.smooth)

    first_per_group = {}
    for rec in records:
        first_per_group.setdefault(rec.group, rec)
    overlays = [build_overlay(first_per_group[g], config)
                for g in GROUP_ORDER if g in first_per_group]

    result = PipelineResult(records=records, skipped=skipped)
    result.outputs = {
        "features": _write(out_dir / "features.csv", features_csv(records)),
        "cosinor": _write(out_dir / "cosinor.csv", cosinor_csv(records)),
        "comparison": _write(out_dir / "comparison.csv", comparison_csv(rows)),
        "comparison_txt": _write(out_dir / "comparison.txt", comparison_text(rows)),
        "curves": _write(out_dir / "curves.csv", curves_csv(curves)),
        "curves_svg": _write(out_dir / "curves.svg", render_curves_svg(curves)),
        "overlays": _write(out_dir / "overlays.csv", overlays_csv(overlays)),
        "overlays_svg": _write(out_dir / "overlays.svg", render_overlays_svg(overlays)),
        "skips": _write(out_dir / "skips.csv", skips_csv(skipped)),
    }
    return result
