#!/usr/bin/env python3
"""Check that this checkout's demo outputs match those of another revision.

Extracts REV with ``git archive`` into a temporary directory and runs each
tree's ``scripts/make_demo_cohort.py`` for seeds 1 and 2, under the default
log1p transform and under ``--transform raw``. Each tree then runs
``compare --exact`` and ``compare --posthoc dunn`` on its own run's
features.csv and cosinor.csv. Both trees write to the same out-dir paths,
so every output file and stdout must be byte-identical. Each one that
differs is named, and the exit status is then 1.

    python3 scripts/same_outputs.py HEAD~
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = [(seed, transform) for seed in (1, 2) for transform in ("log1p", "raw")]
COMPARES = {"compare-exact": ["--exact"], "compare-dunn": ["--posthoc", "dunn"]}


def _run(tree: Path, argv: list[str], cwd: Path) -> bytes:
    """The stdout of python ``argv`` with that tree's src/ as the only
    PYTHONPATH; a failure raises."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, check=True).stdout


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
    outputs = {p.relative_to(out).as_posix(): p.read_bytes()
               for p in out.rglob("*") if p.is_file()}
    return {**outputs, "stdout": stdout}


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
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
