"""Command-line interface.

Subcommands: validate, features, cosinor, compare, curves, synth, run.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
import traceback
from pathlib import Path

from . import report, stats
from .errors import DataError, MalformedRow, UsageError
from .ingest import (
    GroupLabel,
    SynthSpec,
    _decode,
    generate_synthetic,
    load_manifest,
    serialize_triaxial_csv,
)

SYNTH_COLUMNS = ("subject_id", "group", "min", "amplitude", "alpha", "beta",
                 "phase", "noise_sd", "days")

_DEFAULTS = report.PipelineConfig()
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(report.PipelineConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_preprocess_flags(p: argparse.ArgumentParser):
    p.add_argument("--days", type=int, default=_DEFAULTS.days,
                   help="valid complete days required per subject (default %(default)s)")
    p.add_argument("--nonwear-min", type=int, default=_DEFAULTS.nonwear_min,
                   help="zero-run length in minutes a bout must exceed (default %(default)s)")
    p.add_argument("--nonwear-tolerance", type=int, default=_DEFAULTS.nonwear_tolerance,
                   help="non-zero minutes tolerated inside a bout (default %(default)s)")


def _add_feature_flags(p: argparse.ArgumentParser):
    p.add_argument("--immobile-threshold", type=float, default=_DEFAULTS.immobile_threshold,
                   help="counts/min at or below which a minute is immobile "
                        "(default %(default)s)")
    p.add_argument("--per-day", action="store_true",
                   help="compute M10/L5 per day and average across days")
    p.add_argument("--ra-raw-sums", action="store_true",
                   help="relative amplitude from raw window sums")


def _add_cosinor_flags(p: argparse.ArgumentParser):
    p.add_argument("--transform", choices=["log1p", "raw"], default=_DEFAULTS.transform,
                   help="activity transform before fitting (default %(default)s)")
    p.add_argument("--multistart", type=int, default=_DEFAULTS.multistart,
                   help="number of phase-rotated starting points (default %(default)s)")


def _add_compare_flags(p: argparse.ArgumentParser):
    p.add_argument("--posthoc", choices=["ranksum", "dunn"], default=_DEFAULTS.posthoc,
                   help="pairwise test (default %(default)s)")
    p.add_argument("--exact", action="store_true",
                   help="exact permutation rank-sum p, from the counted "
                        "rank-sum distribution, when both groups have n <= 12")


def _add_smooth_flag(p: argparse.ArgumentParser):
    p.add_argument("--smooth", type=int, default=_DEFAULTS.smooth,
                   help="centered moving-average window of the group curves in "
                        "minutes, 0 for none (default %(default)s)")


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
    _add_smooth_flag(p)

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
    _add_smooth_flag(p)

    return parser


def _config_from(args: argparse.Namespace) -> report.PipelineConfig:
    return report.PipelineConfig(**{k: v for k, v in vars(args).items()
                                    if k in _CONFIG_FIELDS})


def _cmd_validate(args) -> int:
    config = _config_from(args)
    manifest = load_manifest(args.manifest.read_bytes())
    print(f"{'subject_id':<16}{'group':<18}{'days':>6}{'bouts':>7}{'valid':>7}  status")
    all_ok = True
    for entry in sorted(manifest.entries, key=lambda e: e.subject_id):
        try:
            series, bouts = report.read_subject(entry, args.manifest.parent, config)
        except DataError as exc:
            all_ok = False
            print(f"{entry.subject_id:<16}{entry.group.value:<18}"
                  f"{'-':>6}{'-':>7}{'-':>7}  error: {exc}")
            continue
        valid = series.analysis_days().size
        ok = valid >= config.days
        all_ok &= ok
        print(f"{entry.subject_id:<16}{entry.group.value:<18}"
              f"{series.n_days:>6}{len(bouts):>7}{valid:>7}  "
              f"{'ok' if ok else 'insufficient'}")
    return 0 if all_ok else 2


def _cohort(args, **stages) -> list[report.SubjectRecord]:
    """report.load_cohort with ``stages``; writes skips.csv under --out and
    lists the skips on stderr. A data error if no subject survived."""
    config = _config_from(args)
    args.out.mkdir(parents=True, exist_ok=True)
    records, skipped = report.load_cohort(args.manifest, config, **stages)
    report._write(args.out / "skips.csv", report.skips_csv(skipped))
    for sid, _, reason in skipped:
        print(f"skipped {sid}: {reason}", file=sys.stderr)
    if not records:
        raise DataError("no subject survived")
    return records


def _cmd_features(args) -> int:
    records = _cohort(args, features=True)
    report._write(args.out / "features.csv", report.features_csv(records))
    return 0


def _cmd_cosinor(args) -> int:
    records = _cohort(args, fit=True)
    report._write(args.out / "cosinor.csv", report.cosinor_csv(records))
    return 0


def _read_table(path: Path) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """The header and the non-empty rows as (line number, dict) pairs;
    every row must have the header's field count. The file is decoded as
    the epoch files are (UTF-8, an optional byte-order mark)."""
    reader = csv.reader(io.StringIO(_decode(path.read_bytes()), newline=""))
    header = next(reader, None)
    if header is None:
        raise MalformedRow(1, f"{path}: missing header")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRow(reader.line_num, f"{path}: expected {len(header)} "
                                                f"fields, got {len(row)}")
        rows.append((reader.line_num, dict(zip(header, row))))
    return header, rows


def _cmd_compare(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    _, feat_rows = _read_table(args.features)
    _, cos_rows = _read_table(args.cosinor)
    values: dict[str, dict[str, float]] = {}
    groups: dict[str, GroupLabel] = {}

    def absorb(rows, names):
        for line_no, row in rows:
            sid = row.get("subject_id", "").strip()
            if not sid:
                raise MalformedRow(line_no, "row without subject_id")
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
    curves = report.cohort_curves(_cohort(args), args.smooth)
    report._write(args.out / "curves.csv", report.curves_csv(curves))
    report._write(args.out / "curves.svg", report.render_curves_svg(curves))
    return 0


def _parse_synth_row(row: dict[str, str], line_no: int, index: int, base_seed: int):
    """The subject of the spec row ``index`` at file line ``line_no``;
    without a seed column the row index is its seed."""
    try:
        sid = row["subject_id"].strip()
        group = GroupLabel.parse(row["group"])
        seed = int(row["seed"]) if row.get("seed") not in (None, "") else index
        spec = SynthSpec(min=float(row["min"]), amplitude=float(row["amplitude"]),
                         alpha=float(row["alpha"]), beta=float(row["beta"]),
                         phase=float(row["phase"]), noise_sd=float(row["noise_sd"]),
                         days=int(row["days"]), seed=seed + base_seed)
    except (KeyError, ValueError) as exc:
        raise MalformedRow(line_no, f"bad synth spec row: {exc}") from None
    if not sid:
        raise MalformedRow(line_no, "empty subject_id")
    if "\r" in sid or "\n" in sid:
        raise MalformedRow(line_no, f"line break in subject_id {sid!r}")
    return sid, group, spec


def _cmd_synth(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    names, rows = _read_table(args.spec)
    missing = [c for c in SYNTH_COLUMNS if c not in names]
    if missing:
        raise MalformedRow(1, f"spec is missing columns {missing}")
    manifest_rows = []
    seen = set()
    for index, (line_no, row) in enumerate(rows):
        sid, group, spec = _parse_synth_row(row, line_no, index, args.seed)
        if sid in seen:
            raise MalformedRow(line_no, f"duplicate subject {sid!r}")
        seen.add(sid)
        series = generate_synthetic(spec, subject_id=sid)
        report._write(args.out / f"{sid}.csv", serialize_triaxial_csv(series))
        manifest_rows.append((sid, group.value, sid + ".csv"))
    report._write(args.out / "manifest.csv",
                  report.csv_text(("subject_id", "group", "path"), manifest_rows))
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
