#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``bench/run.py --trace 0`` of PARENT and of CHANGE, each in its own
checkout, one after the other; the first of each pair alternates between
them (PARENT first in pair 1, CHANGE first in pair 2, and so on). From the
metric line of each run it prints, for every end-to-end metric that
``BENCHMARK.json`` lists, both medians, the parent's interquartile range
as a share of its median, and in how many pairs the change is better by
that metric's direction (an equal value counts for neither side).

    python3 scripts/bench_pairs.py ../parent . --workload exact_compare \\
        --seed 47 --pairs 10 --seconds 30

A gain holds when the change is better in at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range (ROADMAP, "Speed claims"); the last column says whether both hold.
Each pair's values go to stderr as the pair ends.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric line of one untraced run of ``checkout``'s benchmark."""
    argv = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric from the metric lines of paired runs
    (``parent[i]`` and ``change[i]`` are pair i); ``end_to_end`` is the
    list of that name in BENCHMARK.json."""
    lines = [f"pairs: {len(parent)}; failed ops: parent "
             f"{sum(r['failed'] for r in parent)}, change {sum(r['failed'] for r in change)}"]
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        ours = [r["metrics"][name]["value"] for r in change]
        theirs = [r["metrics"][name]["value"] for r in parent]
        q1, median, q3 = (statistics.quantiles(theirs, n=4) if len(theirs) > 1
                          else theirs * 3)
        ours_median = statistics.median(ours)
        better = sum((c < p) if lower else (c > p) for p, c in zip(theirs, ours))
        gain = better >= 0.9 * len(theirs) and abs(ours_median - median) > q3 - q1
        lines.append(
            f"{name} ({metric['better']} is better): parent {median:.6g} "
            f"[IQR/median {(q3 - q1) / median if median else 0.0:.1%}], change "
            f"{ours_median:.6g} ({(ours_median - median) / median if median else 0.0:+.1%}); "
            f"change better in {better} of {len(theirs)}; gain {'holds' if gain else 'not shown'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            results[side].append(run_once(trees[side], args.workload, args.seed,
                                          args.seconds))
        print(f"bench_pairs: pair {i + 1} of {args.pairs}: " + "; ".join(
            f"{m['name']} parent {results['parent'][-1]['metrics'][m['name']]['value']:.6g}, "
            f"change {results['change'][-1]['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"]), file=sys.stderr)
    print("\n".join(summarize(results["parent"], results["change"], spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
