#!/usr/bin/env python3
"""Run the benchmark's workloads untraced and record their results in one file.

Runs ``bench/run.py --trace 0`` once for each workload that
``BENCHMARK.json`` lists, one after another, with the given seed and run
length, and writes the two JSON lines each run prints (the report and the
metrics) to ``BENCH_<pr>.json`` at the root of the repository.

    python3 scripts/bench_record.py --pr 8 --seed 11 --seconds 30
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {workload} exited {done.returncode}:\n"
                         f"{done.stderr}")
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"report": report, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output file name BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"pr": args.pr, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"bench_record: {workload}", file=sys.stderr)
        record["workloads"][workload] = run_workload(workload, args.seed, args.seconds)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
