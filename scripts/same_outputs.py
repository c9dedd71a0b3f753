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
``run`` on that cohort. Both trees write to the same
out-dir paths, so every output file and stdout must be byte-identical.
Each one that differs is named, and the exit status is then 1.

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


def _run(tree: Path, argv: list[str], cwd: Path) -> bytes:
    """The stdout of python ``argv`` with that tree's src/ as the only
    PYTHONPATH; a failure raises."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, check=True).stdout


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
    tables = out / "results"
    for name, flags in COMPARES.items():
        stdout += _run(tree, ["-m", "actirhythm.cli", "compare",
                              "--features", str(tables / "features.csv"),
                              "--cosinor", str(tables / "cosinor.csv"),
                              "--out", str(out / name), *flags], out.parent)
    return {**_files(out), "stdout": stdout}


def write_whole_cohort(root: Path) -> Path:
    """Write the whole-count cohort under root and return its manifest's
    path. Each subject's three axes are Poisson counts around a daily
    cosine, on its grid of WHOLE_GRIDS and in its formats there."""
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
    path = root / "manifest.csv"
    path.write_text("\n".join(manifest) + "\n", encoding="ascii", newline="\n")
    return path


def whole_run(tree: Path, manifest: Path, out: Path) -> dict[str, bytes]:
    """Every file that tree's ``run`` writes under out from the whole-count
    cohort by relative path, and its stdout under the key "stdout"."""
    shutil.rmtree(out, ignore_errors=True)
    stdout = _run(tree, ["-m", "actirhythm.cli", "run", "--manifest", str(manifest),
                         "--out", str(out)], out.parent)
    return {**_files(out), "stdout": stdout}


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
        manifest = write_whole_cohort(Path(tmp) / "whole")
        theirs, ours = (whole_run(tree, manifest, out) for tree in (base, ROOT))
        differ += [f"whole counts: {name}" for name in sorted(theirs.keys() | ours.keys())
                   if theirs.get(name) != ours.get(name)]
        print(f"whole counts: {len(ours)} outputs compared", file=sys.stderr)
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
