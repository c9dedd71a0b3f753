#!/usr/bin/env python3
"""Check that this checkout's demo outputs match those of another revision.

Extracts REV with ``git archive`` into a temporary directory and runs each
tree's ``scripts/make_demo_cohort.py`` for seeds 1 and 2, under the default
log1p transform and under ``--transform raw``. Both trees write to the same
out-dir path, so every output file and the stdout must be byte-identical.
Each one that differs is named, and the exit status is then 1.

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


def demo(tree: Path, out: Path, seed: int, transform: str) -> dict[str, bytes]:
    """Every file that tree's make_demo_cohort.py writes under out, by
    relative path, and its stdout under the key "stdout"."""
    shutil.rmtree(out, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tree / "scripts" / "make_demo_cohort.py"), "--out", str(out),
         "--seed", str(seed), "--transform", transform],
        cwd=out.parent, env=env, capture_output=True, check=True)
    outputs = {p.relative_to(out).as_posix(): p.read_bytes()
               for p in out.rglob("*") if p.is_file()}
    return {**outputs, "stdout": done.stdout}


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
