#!/usr/bin/env python3
"""Check that this checkout's demo outputs match those of another revision.

Extracts REV with ``git archive`` into a temporary directory and runs each
tree's ``scripts/make_demo_cohort.py`` for seeds 1 and 2, under the default
log1p transform and under ``--transform raw``. Each tree then runs
``compare --exact`` and ``compare --posthoc dunn`` on its own run's
features.csv and cosinor.csv. The demo's epoch files hold the writer's
float counts, one block of the parse each, so this script also writes,
once and with its own formatting, a cohort of seven subjects with 6 days
of seeded Poisson counts. Five hold whole counts as device exports hold
them, written as plain digits for three subjects and as ``%d.0`` for the
others. Four of those, one per group, have 15 s epochs, and one of those
has stamps that cross a month end and a year end. The fifth has 5 s
epochs from 15 s before midnight, so that the parse's second block of
65,536 rows starts in the middle of a minute. The sixth has 5 s epochs
and float counts written as their repr, so that its two blocks are read
as decimals, in two parts where the host has two CPUs. The seventh has
15 s epochs and one count format an axis: short fixed decimals such as
``12.500``, as device exports write them; 17-digit reprs, one in 50 of
them below 1e-4 and so in exponent form, which float() alone reads; and
plain digits. Each tree then runs
``run`` on that cohort three times: with the default flags; with
``--transform raw --smooth 15``, so that raw-scale overlays and smoothed
curves reach the CSV and SVG writers; and with ``--per-day --ra-raw-sums
--multistart 3``, so that M10/L5 are taken on each day's row and each fit
reuses one residual problem across its starts. Each tree also runs
``features``, ``cosinor`` and ``curves`` on it, and ``validate`` and the
default ``run`` on a second manifest of it whose rows are in reverse ID
order, so that the commands' subject order comes from the manifest reader.
Each tree also parses every file of that cohort and writes it again with
its epoch writer, which puts multi-digit whole counts, rows with both
``%d.0`` and ``%r`` columns, a second block that starts mid-minute, and a
month and a year end through the writer. Last, this script writes a
features and a cosinor table shaped like the benchmark's exact_compare
tables (33 subjects in groups of 6/8/9/10, seeded values, t_l5 and
immobile_minutes tied), and each tree runs ``compare``, ``compare
--exact`` and ``compare --posthoc dunn`` on them, so that exact
distributions are reused across features and tie patterns. Both trees
write to the same out-dir paths, so every output file and stdout must be
byte-identical.
Each one that differs is named, as is each run of this checkout whose
stderr holds a warning, and the exit status is then 1.

    python3 scripts/same_outputs.py HEAD~
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUNS = [(seed, transform) for seed in (1, 2) for transform in ("log1p", "raw")]
COMPARES = {"compare-exact": ["--exact"], "compare-dunn": ["--posthoc", "dunn"]}
GROUPS = ("control_icu", "cci", "rr", "control_healthy")
# the compare tables: columns, group sizes, and the runs on them by label
FEATURES = ("mean", "sd", "m10", "t_m10", "l5", "t_l5", "ra", "rmssd",
            "rmssd_sd", "immobile_minutes")
CIRCADIAN = ("min", "amplitude", "phase", "alpha", "beta")
TABLE_SIZES = (6, 8, 9, 10)
TABLE_COMPARES = {"compare": [], **COMPARES}
WHOLE_DAYS = 6
# each subject's first stamp, epoch in seconds and count format by axis:
# plain digits, "%d.0", "%.3f" of the count divided by 8, or the repr of
# the count divided by 3 (and by 1e6 more in every 50th row of a subject
# whose axes differ in format)
WHOLE_GRIDS = ([(datetime(2016, 5, 1), 15, ("%d",) * 3), (datetime(2016, 5, 1), 15, ("%d.0",) * 3),
                (datetime(2016, 5, 1), 15, ("%d",) * 3), (datetime(2016, 12, 28), 15, ("%d.0",) * 3),
                (datetime(2016, 5, 1, 23, 59, 45), 5, ("%d",) * 3),
                (datetime(2016, 5, 1), 5, ("%r",) * 3),
                (datetime(2016, 5, 1), 15, ("%.3f", "%r", "%d"))])
DIVISORS = {"%.3f": 8, "%r": 3}
# the commands on the whole-count cohort, by label; the third run takes
# M10/L5 per day and fits each subject from three starts on one residual
# problem
WHOLE_RUNS = {"whole counts": ["run"],
              "whole counts raw smooth 15": ["run", "--transform", "raw", "--smooth", "15"],
              "whole counts per day multistart 3": ["run", "--per-day", "--ra-raw-sums",
                                                    "--multistart", "3"],
              "whole counts features": ["features"],
              "whole counts cosinor": ["cosinor"],
              "whole counts curves": ["curves"]}
# the commands on that cohort's manifest with its rows reversed, by label
REVERSED_RUNS = {"reversed manifest validate": ["validate"],
                 "reversed manifest": ["run"]}
# parses each whole-count epoch file in the directory argv[1] and writes it
# again, with the epoch writer, under its name in the new directory argv[2]
RESERIALIZE = """
import sys
from pathlib import Path
from actirhythm.ingest import parse_triaxial_csv, serialize_triaxial_csv
source, out = map(Path, sys.argv[1:])
out.mkdir()
for path in sorted(source.glob("w*.csv")):
    text = serialize_triaxial_csv(parse_triaxial_csv(path.read_bytes(), path.stem))
    (out / path.name).write_text(text, encoding="ascii", newline="\\n")
"""
# the runs of this checkout whose stderr holds a warning, with that stderr
WARNED: list[str] = []


def _run(tree: Path, argv: list[str], cwd: Path) -> bytes:
    """The stdout of python ``argv`` with that tree's src/ as the only
    PYTHONPATH; a failure raises. A run of this checkout whose stderr
    holds "Warning" is added to WARNED."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, check=True)
    if tree == ROOT and b"Warning" in done.stderr:
        WARNED.append(f"{' '.join(argv)}\n{done.stderr.decode(errors='replace')}")
    return done.stdout


def _files(out: Path) -> dict[str, bytes]:
    """Every file under out by relative path."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def demo(tree: Path, out: Path, seed: int, transform: str) -> dict[str, bytes]:
    """Every file that tree's make_demo_cohort.py writes under out, and
    that each of its COMPARES writes under out/<compare>/ from the run's
    tables, by relative path; their stdout in turn under the key "stdout"."""
    shutil.rmtree(out, ignore_errors=True)
    stdout = _run(tree, [str(tree / "scripts" / "make_demo_cohort.py"), "--out", str(out),
                         "--seed", str(seed), "--transform", transform], out.parent)
    for name, flags in COMPARES.items():
        stdout += compare(tree, out / "results", out / name, flags)
    return {**_files(out), "stdout": stdout}


def compare(tree: Path, tables: Path, out: Path, flags: list[str]) -> bytes:
    """The stdout of that tree's ``compare`` with flags on the features.csv
    and cosinor.csv under tables, writing under out."""
    return _run(tree, ["-m", "actirhythm.cli", "compare",
                       "--features", str(tables / "features.csv"),
                       "--cosinor", str(tables / "cosinor.csv"),
                       "--out", str(out), *flags], out.parent)


def table_compare(tree: Path, tables: Path, out: Path, flags: list[str]) -> dict[str, bytes]:
    """Every file that tree's ``compare`` with flags writes under out from
    the tables, by relative path, and its stdout under the key "stdout"."""
    shutil.rmtree(out, ignore_errors=True)
    stdout = compare(tree, tables, out, flags)
    return {**_files(out), "stdout": stdout}


def write_compare_tables(root: Path) -> Path:
    """Write features.csv and cosinor.csv under root and return root. Each
    column is shifted by group with its own effect; t_l5 takes multiples of
    30 and immobile_minutes multiples of 15, so both have ties, and the
    other columns hold seeded normals at 6 significant digits."""
    root.mkdir()
    rng = np.random.default_rng(33)
    labels = [g for g, n in zip(GROUPS, TABLE_SIZES) for _ in range(n)]
    effect = np.array([GROUPS.index(g) for g in labels], dtype=float)
    columns = {}
    for name in FEATURES + CIRCADIAN:
        shift = rng.uniform(0.0, 1.2) * effect
        if name == "immobile_minutes":
            columns[name] = np.floor(rng.uniform(0, 6, len(labels)) + 2 * shift) * 15.0
        elif name == "t_l5":
            columns[name] = np.round(rng.normal(4.0, 1.0, len(labels)) + shift) * 30.0
        else:
            columns[name] = [float("%.6g" % v) for v in
                             10.0 + rng.normal(0.0, 1.0, len(labels)) + shift]
    for table, names in (("features", FEATURES), ("cosinor", CIRCADIAN)):
        lines = ["subject_id,group," + ",".join(names)] + [
            f"s{i:02d},{g}," + ",".join(repr(float(columns[c][i])) for c in names)
            for i, g in enumerate(labels)]
        (root / f"{table}.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    return root


def write_whole_cohort(root: Path) -> tuple[Path, Path]:
    """Write the whole-count cohort under root and return the paths of its
    manifest and of the same manifest with its rows reversed. Each
    subject's three axes are Poisson counts around a daily cosine, on its
    grid of WHOLE_GRIDS and in its formats there."""
    root.mkdir()
    rng = np.random.default_rng(17)
    manifest = ["subject_id,group,path"]
    for i, (start, epoch, formats) in enumerate(WHOLE_GRIDS):
        group = GROUPS[i % len(GROUPS)]
        n = WHOLE_DAYS * 86400 // epoch
        hours = np.arange(n) * epoch / 3600
        stamps = [(start + timedelta(seconds=k * epoch)).isoformat() for k in range(n)]
        rate = 5 + 10 * i + (30 + 20 * i) * (1 + np.cos((hours - 14 - i) * np.pi / 12))
        counts = rng.poisson(np.outer(rate, (0.8, 0.48, 0.36))) / [
            DIVISORS.get(f, 1) for f in formats]
        if len(set(formats)) > 1:
            counts[::50, [f == "%r" for f in formats]] /= 1e6
        counts = counts.tolist()
        row = "%s," + ",".join(formats) + "\n"
        text = "timestamp,axis1,axis2,axis3\n" + "".join(
            row % (stamp, *c) for stamp, c in zip(stamps, counts))
        (root / f"w{i}.csv").write_text(text, encoding="ascii", newline="\n")
        manifest.append(f"w{i},{group},w{i}.csv")
    paths = root / "manifest.csv", root / "manifest_reversed.csv"
    for path, rows in zip(paths, (manifest[1:], manifest[:0:-1])):
        path.write_text("\n".join([manifest[0], *rows]) + "\n", encoding="ascii",
                        newline="\n")
    return paths


def whole_run(tree: Path, manifest: Path, out: Path, argv: list[str]) -> dict[str, bytes]:
    """Every file that tree's command argv (a command and its flags) writes
    under out from the manifest by relative path, and its stdout under the
    key "stdout"; validate writes no file, so it gets no --out."""
    shutil.rmtree(out, ignore_errors=True)
    command, *flags = argv
    where = [] if command == "validate" else ["--out", str(out)]
    stdout = _run(tree, ["-m", "actirhythm.cli", command, "--manifest", str(manifest),
                         *where, *flags], out.parent)
    return {**_files(out), "stdout": stdout}


def reserialize(tree: Path, cohort: Path, out: Path) -> dict[str, bytes]:
    """Every epoch file of the whole-count cohort as that tree's writer
    writes it again after its parse, by file name."""
    shutil.rmtree(out, ignore_errors=True)
    _run(tree, ["-c", RESERIALIZE, str(cohort), str(out)], out.parent)
    return _files(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    args = parser.parse_args(argv)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        out = Path(tmp) / "out"
        for seed, transform in RUNS:
            theirs = demo(base, out, seed, transform)
            ours = demo(ROOT, out, seed, transform)
            differ += [f"seed {seed} {transform}: {name}"
                       for name in sorted(theirs.keys() | ours.keys())
                       if theirs.get(name) != ours.get(name)]
            print(f"seed {seed} {transform}: {len(ours)} outputs compared", file=sys.stderr)
        manifests = write_whole_cohort(Path(tmp) / "whole")
        for manifest, runs in zip(manifests, (WHOLE_RUNS, REVERSED_RUNS)):
            for label, argv in runs.items():
                theirs, ours = (whole_run(tree, manifest, out, argv) for tree in (base, ROOT))
                differ += [f"{label}: {name}" for name in sorted(theirs.keys() | ours.keys())
                           if theirs.get(name) != ours.get(name)]
                print(f"{label}: {len(ours)} outputs compared", file=sys.stderr)
        theirs, ours = (reserialize(tree, manifests[0].parent, out) for tree in (base, ROOT))
        differ += [f"re-serialized: {name}" for name in sorted(theirs.keys() | ours.keys())
                   if theirs.get(name) != ours.get(name)]
        print(f"re-serialized: {len(ours)} epoch files compared", file=sys.stderr)
        tables = write_compare_tables(Path(tmp) / "tables")
        for label, flags in TABLE_COMPARES.items():
            theirs, ours = (table_compare(tree, tables, out, flags) for tree in (base, ROOT))
            differ += [f"tables {label}: {name}" for name in sorted(theirs.keys() | ours.keys())
                       if theirs.get(name) != ours.get(name)]
            print(f"tables {label}: {len(ours)} outputs compared", file=sys.stderr)
    for line in differ:
        print(f"differs: {line}")
    for run in WARNED:
        print(f"warns: {run}")
    return 1 if differ or WARNED else 0


if __name__ == "__main__":
    sys.exit(main())
