"""Command-line interface.

Subcommands: validate, features, cosinor, compare, curves, synth, run.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path

from . import report
from .errors import DataError, InvalidSpec, MalformedRow, TooFewGroups, UsageError
from .ingest import (
    GroupLabel,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    read_table,
    serialize_triaxial_csv,
)

SYNTH_COLUMNS = ("subject_id", "group", "min", "amplitude", "alpha", "beta",
                 "phase", "noise_sd", "days")

_DEFAULTS = report.PipelineConfig()
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(report.PipelineConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low, kind=int):
    """An argparse type: a ``kind`` value no smaller than ``low``."""
    def parse(text):
        value = kind(text)
        if not value >= low:   # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    parse.__name__ = kind.__name__   # "invalid int value" on a non-number
    return parse


def _add_preprocess_flags(p: argparse.ArgumentParser):
    p.add_argument("--days", type=_at_least(1), default=_DEFAULTS.days,
                   help="valid complete days required per subject (default %(default)s)")
    p.add_argument("--nonwear-min", type=_at_least(1), default=_DEFAULTS.nonwear_min,
                   help="zero-run length in minutes a bout must exceed (default %(default)s)")
    p.add_argument("--nonwear-tolerance", type=_at_least(0),
                   default=_DEFAULTS.nonwear_tolerance,
                   help="non-zero minutes tolerated inside a bout (default %(default)s)")


def _add_feature_flags(p: argparse.ArgumentParser):
    p.add_argument("--immobile-threshold", type=_at_least(0.0, float),
                   default=_DEFAULTS.immobile_threshold,
                   help="counts/min at or below which a minute is immobile "
                        "(default %(default)s)")
    p.add_argument("--per-day", action="store_true",
                   help="compute M10/L5 per day and average across days")
    p.add_argument("--ra-raw-sums", action="store_true",
                   help="relative amplitude from raw window sums")


def _add_cosinor_flags(p: argparse.ArgumentParser):
    p.add_argument("--transform", choices=["log1p", "raw"], default=_DEFAULTS.transform,
                   help="activity transform before fitting (default %(default)s)")
    p.add_argument("--multistart", type=_at_least(1), default=_DEFAULTS.multistart,
                   help="number of phase-rotated starting points (default %(default)s)")


def _add_compare_flags(p: argparse.ArgumentParser):
    p.add_argument("--posthoc", choices=["ranksum", "dunn"], default=_DEFAULTS.posthoc,
                   help="pairwise test (default %(default)s)")
    p.add_argument("--exact", action="store_true",
                   help="exact permutation rank-sum p, from the counted "
                        "rank-sum distribution, when both groups have n <= 12 "
                        "(with --posthoc ranksum only)")


def _add_smooth_flag(p: argparse.ArgumentParser):
    p.add_argument("--smooth", type=_at_least(0), default=_DEFAULTS.smooth,
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


def _list_skips(skipped) -> None:
    for sid, _, reason in skipped:
        print(f"skipped {sid}: {reason}", file=sys.stderr)


def _cohort(args, **stages) -> list[report.SubjectRecord]:
    """report.load_cohort with ``stages``; writes skips.csv under --out and
    lists the skips on stderr. A data error if no subject survived."""
    config = _config_from(args)
    args.out.mkdir(parents=True, exist_ok=True)
    records, skipped = report.load_cohort(args.manifest, config, **stages)
    report._write(args.out / "skips.csv", report.skips_csv(skipped))
    _list_skips(skipped)
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


def _cmd_compare(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    report.write_comparison(args.features, args.cosinor, args.out, args.posthoc, args.exact)
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
        group = GroupLabel.parse(row["group"], line_no)
        seed = int(row["seed"]) if row.get("seed") not in (None, "") else index
        spec = SynthSpec(min=float(row["min"]), amplitude=float(row["amplitude"]),
                         alpha=float(row["alpha"]), beta=float(row["beta"]),
                         phase=float(row["phase"]), noise_sd=float(row["noise_sd"]),
                         days=int(row["days"]), seed=seed + base_seed)
    except (KeyError, ValueError) as exc:
        raise MalformedRow(line_no, f"bad synth spec row: {exc}") from None
    except InvalidSpec as exc:
        raise InvalidSpec(f"line {line_no}: {exc}") from None
    if not sid:
        raise MalformedRow(line_no, "empty subject_id")
    if "\r" in sid or "\n" in sid:
        raise MalformedRow(line_no, f"line break in subject_id {sid!r}")
    if (sid in (".", "..") or sid.casefold() == "manifest"
            or any(c in sid for c in "/\\\0")):
        raise MalformedRow(line_no, f"subject_id {sid!r} cannot name a file")
    return sid, group, spec


def _cmd_synth(args) -> int:
    subjects = []
    seen = set()
    for index, (line_no, row) in enumerate(read_table(args.spec, SYNTH_COLUMNS)):
        sid, group, spec = _parse_synth_row(row, line_no, index, args.seed)
        if sid in seen:
            raise MalformedRow(line_no, f"duplicate subject {sid!r}")
        seen.add(sid)
        subjects.append((sid, group, spec))
    for sid, _, spec in subjects:   # noise that overflows is raised before any write
        generate_synthetic(spec, subject_id=sid)
    args.out.mkdir(parents=True, exist_ok=True)
    for sid, _, spec in subjects:
        series = generate_synthetic(spec, subject_id=sid)
        report._write(args.out / f"{sid}.csv", serialize_triaxial_csv(series))
    report._write(args.out / "manifest.csv",
                  report.csv_text(("subject_id", "group", "path"),
                                  [(sid, group.value, sid + ".csv")
                                   for sid, group, _ in subjects]))
    print(f"wrote {len(subjects)} subjects and manifest.csv to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from(args)
    try:
        result = report.run_pipeline(args.manifest, args.out, config)
    except TooFewGroups as exc:
        _list_skips(exc.skipped)
        raise
    _list_skips(result.skipped)
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
        if getattr(args, "exact", False) and args.posthoc == "dunn":
            parser.error("--exact applies to --posthoc ranksum only")
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
