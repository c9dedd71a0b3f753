"""Benchmark of the actirhythm CLI on seeded synthetic inputs.

    python3 bench/run.py --workload cohort_run --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the program is imported from
``src/`` beside this directory, and inputs, outputs and span files go under
``.bench_work/`` in the checkout. Every op calls ``actirhythm.cli.main``
in this process and its outputs are checked (see workloads.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_ref`` is the median op wall time divided by the median time of a
fixed reference loop timed between ops in the same run (see REF_SHARE),
``throughput_ref`` the work per op (subject-days, or pair tests) per that
unit, ``setup_s`` the seconds one set-up of the inputs takes (median over
set-up steps), and ``peak_rss_mb`` the process's peak resident memory;
with ``--trace 1`` it reports per-layer metrics from spans recorded by
wrappers at the program's module boundaries (see spans.py), and the spans
are written to ``.bench_work/spans-<workload>-<seed>.json``. The line
before it is a JSON report with the op and set-up times in seconds, the
reference time, the environment and the input size; in a traced run it also lists the per-layer metrics
that read 0 because the workload never calls that layer.

Each run makes its inputs once per set-up repetition, then calls the CLI
on them again and again (closed loop, one caller) until --seconds is used.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One thread for BLAS/OpenMP, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# A run stops starting ops once this many have been measured and the next
# would end after --seconds; it always makes at least MIN_OPS.
MIN_OPS = 3
# After each op, reference loops are timed for REF_SHARE of the op's wall
# time (at least REF_MIN of them). A shared host's CPU speed can shift by
# 25-50% for minutes at a time; dividing op times by the reference time of
# the same run kept about half of that shift out of the end-to-end metrics.
# Raw seconds are in the report line.
REF_SHARE = 0.1
REF_MIN = 10
_SC_LEVEL3_CACHE_SIZE = 194   # glibc sysconf name; absent from os.sysconf_names

# Per-layer self-time metrics: the span names whose self time they sum.
SELF_TIME = {
    "ingest.parse_s": ("ingest.parse_triaxial_csv",),
    "ingest.aggregate_s": ("ingest.aggregate_to_minutes",),
    "cosinor.fit_s": ("cosinor.fit_sigmoidal_cosinor", "cosinor.fit_linear_cosinor"),
    "cosinor.linear_s": ("cosinor.fit_linear_cosinor",),
    "nls.lm_s": ("nls.levenberg_marquardt",),
    "stats.s": ("stats.feature_table", "stats.comparison_rows",
                "stats.kruskal_wallis", "stats.pairwise_ranksum",
                "stats.pairwise_dunn"),
    "stats.kw_s": ("stats.kruskal_wallis",),
    "stats.pairwise_s": ("stats.pairwise_ranksum", "stats.pairwise_dunn"),
    "report.curves_s": ("report.group_average_curve", "report.build_overlay"),
    "report.svg_s": ("report.render_curves_svg", "report.render_overlays_svg"),
    "report.csv_s": tuple(f"report.{f}" for f in (
        "features_csv", "cosinor_csv", "comparison_csv", "comparison_text",
        "curves_csv", "overlays_csv", "skips_csv")),
    "report.self_s": ("report.run_pipeline", "report.load_cohort",
                      "report.prepare_subject"),
    "preprocess.s": ("preprocess.to_activity_series", "preprocess.detect_nonwear_bouts",
                     "preprocess.filter_invalid_days",
                     "preprocess.select_analysis_window"),
    "features.s": ("features.compute_features",),
    "cli.self_s": ("cli.main",),
}
UNITS = {**{name: "s" for name in SELF_TIME}, "ingest.serialize_s": "s",
         "trace.overhead_s": "s", "ingest.us_per_row": "us",
         "cosinor.ms_per_fit": "ms", "stats.ms_per_pair_test": "ms",
         "nls.evals_per_iteration": "ratio", "ingest.bytes": "bytes",
         "report.bytes_written": "bytes"}
COUNTS = ("ingest.rows", "ingest.bytes", "cosinor.fits", "nls.iterations",
          "nls.residual_evals", "nls.residual_points", "nls.not_converged",
          "stats.pair_tests", "preprocess.bouts", "preprocess.days_dropped")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _load_program():
    """Import actirhythm from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "actirhythm" / "__init__.py").is_file():
        raise ImportError(f"no actirhythm package under {src}")
    sys.path.insert(0, str(src))
    import actirhythm
    if Path(actirhythm.__file__).resolve().parent != (src / "actirhythm").resolve():
        raise ImportError(f"actirhythm imported from {actirhythm.__file__}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _environment(numpy_version: str) -> dict:
    try:
        l3 = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        l3 = -1
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "l3_bytes": l3,
            "threads_pinned": os.environ["OMP_NUM_THREADS"]}


def reference_loop() -> float:
    """Wall time of fixed interpreter work (about 10 ms): build and sum
    40000 small tuples, the kind of work parsing and writing do."""
    t0 = time.perf_counter()
    rows = [(i * 0.5, str(i)) for i in range(40000)]
    sum(x for x, _ in rows)
    return time.perf_counter() - t0


def _out_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _quiet() -> contextlib.ExitStack:
    """Swallow what the program prints, keeping the last stdout line ours."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


class Runner:
    def __init__(self, workload, workdir: Path, seconds: float, tracer=None):
        self.workload = workload
        self.workdir = workdir
        self.seconds = seconds
        self.tracer = tracer
        self.failures: list[str] = []
        self.attempted = 0
        self.input_bytes = 0
        self.ref_times: list[float] = []

    def setup(self) -> list[float]:
        """Make the inputs ``setup_reps`` times; returns the duration of
        each set-up step."""
        from workloads import CheckFailed

        times = []
        for rep in range(self.workload.setup_reps):
            if self.tracer is not None:
                self.tracer.op = -1 - rep
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            with _quiet():
                for step in self.workload.setup_steps(self.workdir):
                    gc.collect()
                    t0 = time.perf_counter()
                    step()
                    times.append(time.perf_counter() - t0)
        try:
            self.workload.expect(self.workdir)
        except CheckFailed as exc:
            raise RuntimeError(f"setup produced bad inputs: {exc}") from None
        self.input_bytes = sum(p.stat().st_size for p in self.workdir.rglob("*")
                               if p.is_file())
        return times

    def op(self, index: int, traced: bool) -> float:
        """One checked call of the CLI; returns its wall time."""
        from actirhythm import cli
        from workloads import CheckFailed

        out_dir = self.workdir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.workload.argv(self.workdir, out_dir)
        if self.tracer is not None:
            self.tracer.op = index
        # every op starts from the same collector state
        gc.collect()
        with _quiet() as quiet:
            if traced:
                quiet.enter_context(self.tracer.install())
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        self.attempted += 1
        try:
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            self.workload.check(out_dir)
        except CheckFailed as exc:
            self.failures.append(f"op {index}: {exc}")
        return wall

    def _sample_reference(self, budget: float):
        """Time the reference loop for ``budget`` seconds, at least REF_MIN
        times."""
        spent, n = 0.0, 0
        while n < REF_MIN or spent < budget:
            self.ref_times.append(reference_loop())
            spent += self.ref_times[-1]
            n += 1

    def measure(self, schedule) -> list[tuple[int, bool, float]]:
        """Run ops for ``seconds``; ``schedule(i)`` says whether op i is
        traced. Returns (index, traced, wall) per op."""
        done = []
        start = time.perf_counter()
        while True:
            i = len(done)
            traced = schedule(i)
            done.append((i, traced, self.op(i, traced)))
            self._sample_reference(REF_SHARE * done[-1][2])
            elapsed = time.perf_counter() - start
            next_wall = done[-1][2]
            if len(done) >= MIN_OPS and elapsed + next_wall > self.seconds:
                return done


def end_to_end(workload, setup_times, ops, ref_times) -> dict:
    """Op time in units of the run's median reference-loop time, work per
    that unit, set-up seconds and peak memory."""
    wall_ref = statistics.median(w for _, _, w in ops) / statistics.median(ref_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps_per_setup = len(setup_times) / workload.setup_reps
    return {
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "throughput_ref": {"value": workload.work_per_op / wall_ref, "unit": "1/ref"},
        "setup_s": {"value": statistics.median(setup_times) * steps_per_setup,
                    "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(tracer, ops, setup_reps: int, out_bytes: int) -> tuple[dict, dict]:
    """Medians over traced ops of per-op self times and counts, and per
    traced op the part of its wall time outside its spans."""
    traced = [i for i, t, _ in ops if t]
    per_op = [tracer.self_times(i) for i in traced]
    values = {name: _median([sum(st.get(s, 0.0) for s in spans) for st in per_op])
              for name, spans in SELF_TIME.items()}
    counts = {}
    for name in COUNTS:
        seen = {tracer.counts.get(i, {}).get(name, 0) for i in traced}
        if len(seen) != 1:
            raise RuntimeError(f"count {name} differs between ops: {sorted(seen)}")
        counts[name] = seen.pop()
    values.update(counts)
    setup = [tracer.self_times(-1 - r).get("ingest.serialize_triaxial_csv", 0.0)
             for r in range(setup_reps)]
    values["ingest.serialize_s"] = _median(setup)
    values["ingest.us_per_row"] = 1e6 * _ratio(values["ingest.parse_s"],
                                               counts["ingest.rows"])
    # a fit is both stages: the cosinor layer's own time plus its LM solve
    values["cosinor.ms_per_fit"] = 1e3 * _ratio(values["cosinor.fit_s"] + values["nls.lm_s"],
                                                counts["cosinor.fits"])
    values["nls.evals_per_iteration"] = _ratio(counts["nls.residual_evals"],
                                               counts["nls.iterations"])
    values["stats.ms_per_pair_test"] = 1e3 * _ratio(values["stats.pairwise_s"],
                                                    counts["stats.pair_tests"])
    values["report.bytes_written"] = out_bytes
    # can read below 0 when the host's speed drifts more than tracing costs
    untraced = [w for _, t, w in ops if not t]
    traced_walls = [w for _, t, w in ops if t]
    values["trace.overhead_s"] = _median(traced_walls) - _median(untraced)

    gaps = {i: w - sum(tracer.self_times(i).values()) for i, t, w in ops if t}
    metrics = {name: {"value": values[name], "unit": UNITS.get(name, "count")}
               for name in sorted(values)}
    return metrics, gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_program()
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    import numpy as np
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, workdir, args.seconds, tracer)
    try:
        if tracer is not None:
            with tracer.install():
                setup_times = runner.setup()
            # alternate so that the untraced ops give the overhead baseline
            ops = runner.measure(lambda i: i % 2 == 0)
            out_bytes = _out_bytes(workdir / "out")
        else:
            setup_times = runner.setup()
            ops = runner.measure(lambda i: False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "op_walls_s": [w for _, _, w in ops],
        "wall_s": statistics.median(w for _, _, w in ops),
        "ref_s": statistics.median(runner.ref_times),
        "setup_step_walls_s": setup_times, "input_bytes": runner.input_bytes,
        "work_per_op": workload.work_per_op, "work_unit": workload.work_unit,
        "environment": _environment(np.__version__),
        "failures": runner.failures,
    }
    if tracer is not None:
        metrics, gaps = per_layer(tracer, ops, workload.setup_reps, out_bytes)
        report["wall_minus_self_s"] = gaps
        report["not_called"] = sorted(
            name for name, m in metrics.items() if m["value"] == 0
            and name not in ("nls.not_converged", "preprocess.bouts",
                             "preprocess.days_dropped"))
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end(workload, setup_times, ops, runner.ref_times)
    print(json.dumps(report))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
