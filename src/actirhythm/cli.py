"""Command-line interface.

Subcommands: validate, features, cosinor, compare, curves, synth, run.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import traceback
from pathlib import Path

from . import report, stats
from .cosinor import fit_sigmoidal_cosinor
from .errors import DataError, MalformedRow, UsageError
from .features import compute_features
from .ingest import (
    GroupLabel,
    SynthSpec,
    aggregate_to_minutes,
    generate_synthetic,
    load_manifest,
    parse_triaxial_csv,
    serialize_triaxial_csv,
)
from .preprocess import detect_nonwear_bouts, filter_invalid_days, to_activity_series

SYNTH_COLUMNS = ("subject_id", "group", "min", "amplitude", "alpha", "beta",
                 "phase", "noise_sd", "days")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_preprocess_flags(p: argparse.ArgumentParser):
    p.add_argument("--days", type=int, default=5,
                   help="valid complete days required per subject (default 5)")
    p.add_argument("--nonwear-min", type=int, default=60,
                   help="zero-run length in minutes a bout must exceed (default 60)")
    p.add_argument("--nonwear-tolerance", type=int, default=0,
                   help="non-zero minutes tolerated inside a bout (default 0)")


def _add_feature_flags(p: argparse.ArgumentParser):
    p.add_argument("--immobile-threshold", type=float, default=0.0,
                   help="counts/min at or below which a minute is immobile")
    p.add_argument("--per-day", action="store_true",
                   help="compute M10/L5 per day and average across days")
    p.add_argument("--ra-raw-sums", action="store_true",
                   help="relative amplitude from raw window sums")


def _add_cosinor_flags(p: argparse.ArgumentParser):
    p.add_argument("--transform", choices=["log1p", "raw"], default="log1p",
                   help="activity transform before fitting (default log1p)")
    p.add_argument("--multistart", type=int, default=1,
                   help="number of phase-rotated starting points (default 1)")


def _add_compare_flags(p: argparse.ArgumentParser):
    p.add_argument("--posthoc", choices=["ranksum", "dunn"], default="ranksum",
                   help="pairwise test (default ranksum)")
    p.add_argument("--exact", action="store_true",
                   help="exact permutation rank-sum p, from the counted "
                        "rank-sum distribution, when both groups have n <= 12")


def build_parser() -> _Parser:
    parser = _Parser(prog="actirhythm",
                     description="Actigraphy features, circadian curve fits, "
                                 "and group comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report per-subject valid days")
    p.add_argument("--manifest", required=True, type=Path)
    _add_preprocess_flags(p)

    p = sub.add_parser("features", help="write the statistical feature table")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_preprocess_flags(p)
    _add_feature_flags(p)

    p = sub.add_parser("cosinor", help="fit the sigmoidal cosine model")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_preprocess_flags(p)
    _add_cosinor_flags(p)

    p = sub.add_parser("compare", help="rank-based group comparison tables")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--cosinor", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_compare_flags(p)

    p = sub.add_parser("curves", help="group average curves with bands")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_preprocess_flags(p)
    p.add_argument("--smooth", type=int, default=0,
                   help="centered moving-average window, minutes (default off)")

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--spec", required=True, type=Path,
                   help="CSV with columns " + ",".join(SYNTH_COLUMNS) + "[,seed]")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed added to each row's seed (default 0)")

    p = sub.add_parser("run", help="full pipeline")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_preprocess_flags(p)
    _add_feature_flags(p)
    _add_cosinor_flags(p)
    _add_compare_flags(p)
    p.add_argument("--smooth", type=int, default=0)

    return parser


def _config_from(args: argparse.Namespace) -> report.PipelineConfig:
    return report.PipelineConfig(
        days=getattr(args, "days", 5),
        nonwear_min=getattr(args, "nonwear_min", 60),
        nonwear_tolerance=getattr(args, "nonwear_tolerance", 0),
        immobile_threshold=getattr(args, "immobile_threshold", 0.0),
        per_day=getattr(args, "per_day", False),
        ra_raw_sums=getattr(args, "ra_raw_sums", False),
        transform=getattr(args, "transform", "log1p"),
        multistart=getattr(args, "multistart", 1),
        posthoc=getattr(args, "posthoc", "ranksum"),
        exact=getattr(args, "exact", False),
        smooth=getattr(args, "smooth", 0),
    )


def _cmd_validate(args) -> int:
    config = _config_from(args)
    manifest = load_manifest(args.manifest.read_bytes())
    print(f"{'subject_id':<16}{'group':<18}{'days':>6}{'bouts':>7}{'valid':>7}  status")
    all_ok = True
    for entry in sorted(manifest.entries, key=lambda e: e.subject_id):
        path = Path(entry.source_path)
        if not path.is_absolute():
            path = args.manifest.parent / path
        try:
            tri = aggregate_to_minutes(parse_triaxial_csv(path.read_bytes(),
                                                          entry.subject_id))
            series = to_activity_series(tri)
            bouts = detect_nonwear_bouts(series, min_bout=config.nonwear_min,
                                         tolerance=config.nonwear_tolerance)
            series = filter_invalid_days(series, bouts)
            valid = sum(1 for d in range(series.n_days)
                        if series.day_valid[d] and series.is_complete_day(d))
            ok = valid >= config.days
            all_ok &= ok
            print(f"{entry.subject_id:<16}{entry.group.value:<18}"
                  f"{series.n_days:>6}{len(bouts):>7}{valid:>7}  "
                  f"{'ok' if ok else 'insufficient'}")
        except (DataError, OSError) as exc:
            all_ok = False
            print(f"{entry.subject_id:<16}{entry.group.value:<18}"
                  f"{'-':>6}{'-':>7}{'-':>7}  error: {exc}")
    return 0 if all_ok else 2


def _report_skips(skipped, out_dir: Path):
    report._write(out_dir / "skips.csv", report.skips_csv(skipped))
    for sid, _, reason in skipped:
        print(f"skipped {sid}: {reason}", file=sys.stderr)


def _cmd_features(args) -> int:
    config = _config_from(args)
    args.out.mkdir(parents=True, exist_ok=True)
    records, skipped = report.load_cohort(args.manifest, config)
    ok = []
    for rec in records:
        try:
            rec.features = compute_features(rec.window, config.feature_config())
            ok.append(rec)
        except DataError as exc:
            skipped.append((rec.subject_id, rec.group.value, str(exc)))
    _report_skips(skipped, args.out)
    if not ok:
        raise DataError("no subject produced features")
    report._write(args.out / "features.csv", report.features_csv(ok))
    return 0


def _cmd_cosinor(args) -> int:
    config = _config_from(args)
    args.out.mkdir(parents=True, exist_ok=True)
    records, skipped = report.load_cohort(args.manifest, config)
    ok = []
    for rec in records:
        try:
            rec.fit = fit_sigmoidal_cosinor(rec.window, config.fit_config())
            ok.append(rec)
        except DataError as exc:
            skipped.append((rec.subject_id, rec.group.value, str(exc)))
    _report_skips(skipped, args.out)
    if not ok:
        raise DataError("no subject produced a fit")
    report._write(args.out / "cosinor.csv", report.cosinor_csv(ok))
    return 0


def _read_table(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedRow(1, f"{path}: missing header")
        return list(reader.fieldnames), list(reader)


def _cmd_compare(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    _, feat_rows = _read_table(args.features)
    _, cos_rows = _read_table(args.cosinor)
    values: dict[str, dict[str, float]] = {}
    groups: dict[str, GroupLabel] = {}

    def absorb(rows, names):
        for row in rows:
            sid = row.get("subject_id", "").strip()
            if not sid:
                raise MalformedRow(2, "row without subject_id")
            groups[sid] = GroupLabel.parse(row["group"])
            dest = values.setdefault(sid, {})
            for name in names:
                if name in row:
                    try:
                        dest[name] = float(row[name])
                    except ValueError:
                        dest[name] = math.nan

    absorb(feat_rows, stats.FEATURE_ORDER)
    absorb(cos_rows, stats.CIRCADIAN_ORDER)
    order = list(stats.FEATURE_ORDER) + list(stats.CIRCADIAN_ORDER)
    rows = stats.comparison_rows(values, groups, order,
                                 posthoc=args.posthoc, exact=args.exact)
    report._write(args.out / "comparison.csv", report.comparison_csv(rows))
    report._write(args.out / "comparison.txt", report.comparison_text(rows))
    return 0


def _cmd_curves(args) -> int:
    config = _config_from(args)
    args.out.mkdir(parents=True, exist_ok=True)
    records, skipped = report.load_cohort(args.manifest, config)
    _report_skips(skipped, args.out)
    if not records:
        raise DataError("no subject produced an analysis window")
    by_group = {}
    for rec in records:
        by_group.setdefault(rec.group, []).append(rec.window)
    curves = report.group_average_curve(by_group, smoothing=config.smooth)
    report._write(args.out / "curves.csv", report.curves_csv(curves))
    report._write(args.out / "curves.svg", report.render_curves_svg(curves))
    return 0


def _parse_synth_row(row: dict[str, str], line_no: int, base_seed: int):
    try:
        sid = row["subject_id"].strip()
        group = GroupLabel.parse(row["group"])
        seed = int(row["seed"]) if row.get("seed") not in (None, "") else line_no - 2
        spec = SynthSpec(min=float(row["min"]), amplitude=float(row["amplitude"]),
                         alpha=float(row["alpha"]), beta=float(row["beta"]),
                         phase=float(row["phase"]), noise_sd=float(row["noise_sd"]),
                         days=int(row["days"]), seed=seed + base_seed)
    except (KeyError, ValueError) as exc:
        raise MalformedRow(line_no, f"bad synth spec row: {exc}") from None
    if not sid:
        raise MalformedRow(line_no, "empty subject_id")
    return sid, group, spec


def _cmd_synth(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    names, rows = _read_table(args.spec)
    missing = [c for c in SYNTH_COLUMNS if c not in names]
    if missing:
        raise MalformedRow(1, f"spec is missing columns {missing}")
    manifest_lines = ["subject_id,group,path"]
    seen = set()
    for line_no, row in enumerate(rows, start=2):
        sid, group, spec = _parse_synth_row(row, line_no, args.seed)
        if sid in seen:
            raise MalformedRow(line_no, f"duplicate subject {sid!r}")
        seen.add(sid)
        series = generate_synthetic(spec, subject_id=sid)
        report._write(args.out / f"{sid}.csv", serialize_triaxial_csv(series))
        manifest_lines.append(f"{report.csv_field(sid)},{group.value},"
                              f"{report.csv_field(sid + '.csv')}")
    report._write(args.out / "manifest.csv", "\n".join(manifest_lines) + "\n")
    print(f"wrote {len(rows)} subjects and manifest.csv to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from(args)
    result = report.run_pipeline(args.manifest, args.out, config)
    for sid, _, reason in result.skipped:
        print(f"skipped {sid}: {reason}", file=sys.stderr)
    print(f"processed {len(result.records)} subjects "
          f"({len(result.skipped)} skipped); outputs in {args.out}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "features": _cmd_features,
    "cosinor": _cmd_cosinor,
    "compare": _cmd_compare,
    "curves": _cmd_curves,
    "synth": _cmd_synth,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
