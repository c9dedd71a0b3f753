"""Self-tests of the benchmark: deterministic generators, checks that catch
corrupted outputs, and well-formed spans.

    python3 -m pytest -q bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from actirhythm import cli  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CheckFailed, CohortRun, ExactCompare, HighresIngest  # noqa: E402

# the smallest cohort whose amplitude separation reaches KW p < 0.01
SMALL = (3, 3, 3, 8)


def _prepare(workload, workdir: Path) -> Path:
    for step in workload.setup_steps(workdir):
        step()
    workload.expect(workdir)
    out = workdir / "out"
    assert cli.main(workload.argv(workdir, out)) == 0
    workload.check(out)
    return out


def test_generators_are_deterministic_per_seed():
    assert CohortRun(3).spec_csv() == CohortRun(3).spec_csv()
    assert CohortRun(3).spec_csv() != CohortRun(4).spec_csv()
    assert ExactCompare(3).tables() == ExactCompare(3).tables()
    assert ExactCompare(3).tables() != ExactCompare(4).tables()
    a, b = HighresIngest(3), HighresIngest(3)
    assert np.array_equal(a.samples("s01"), b.samples("s01"))
    assert not np.array_equal(a.samples("s01"), HighresIngest(4).samples("s01"))


def test_exact_compare_inputs_have_the_planned_ties():
    w = ExactCompare(5)
    for name, column in w.columns.items():
        distinct = len(set(column)) == len(column)
        assert distinct == (name not in w.tied), name


def test_highres_plants_one_nonwear_bout():
    w = HighresIngest(2)
    counts = w.samples(w.nonwear_subject)
    minutes = counts.reshape(-1, 60, 3).sum(axis=1).sum(axis=1)
    zero = np.flatnonzero(minutes == 0)
    start = w.nonwear_day * 1440 + w.nonwear_start_min
    assert list(zero) == list(range(start, start + w.nonwear_minutes))
    assert w.nonwear_minutes > 60


def _rewrite(path: Path, line_no: int, old: str, new: str):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert old in lines[line_no]
    lines[line_no] = lines[line_no].replace(old, new, 1)
    path.write_text("".join(lines), encoding="utf-8")


def test_corrupted_run_outputs_fail_their_check(tmp_path):
    w = CohortRun(1, sizes=SMALL)
    out = _prepare(w, tmp_path)
    saved = tmp_path / "saved"
    shutil.copytree(out, saved)

    def corrupted(name, edit):
        shutil.rmtree(out)
        shutil.copytree(saved, out)
        edit(out / name)
        with pytest.raises(CheckFailed):
            w.check(out)

    def bump_mean(path):
        fields = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        _rewrite(path, 1, "," + fields[2] + ",", f",{float(fields[2]) * 1.01:.6g},")

    def drop_last_row(path):
        text = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(text[:-1]), encoding="utf-8")

    corrupted("features.csv", bump_mean)
    corrupted("curves.csv", drop_last_row)
    corrupted("cosinor.csv", lambda p: _rewrite(p, 1, "true", "false"))
    corrupted("curves.svg", lambda p: p.write_text("<svg", encoding="utf-8"))
    corrupted("skips.csv", lambda p: p.write_text("subject_id,group,reason\n"
                                                  's00,cci,"x"\n', encoding="utf-8"))


def test_corrupted_compare_output_fails_its_check(tmp_path):
    w = ExactCompare(1, sizes=(4, 4, 5, 5))
    out = _prepare(w, tmp_path)
    path = out / "comparison.csv"
    fields = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    _rewrite(path, 1, "," + fields[6] + ",", f",{float(fields[6]) * 1.001:.6g},")
    with pytest.raises(CheckFailed):
        w.check(out)


def test_spans_nest_and_self_times_cover_the_op(tmp_path):
    w = CohortRun(2, sizes=SMALL)
    _prepare(w, tmp_path)
    tracer = Tracer()
    counts = []
    for op in (0, 1):
        tracer.op = op
        out = tmp_path / f"out{op}"
        with tracer.install():
            rc = cli.main(w.argv(tmp_path, out))
        assert rc == 0
        w.check(out)
        counts.append(dict(tracer.counts[op]))
    assert counts[0] == counts[1]
    assert counts[0]["cosinor.fits"] == sum(SMALL)
    assert counts[0]["nls.residual_evals"] > counts[0]["nls.iterations"] > 0

    for i, span in enumerate(tracer.spans):
        assert span.end >= span.start
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert span.parent < i and span.op == parent.op
            assert parent.start <= span.start and span.end <= parent.end
    for op in (0, 1):
        roots = [s for s in tracer.spans if s.op == op and s.parent < 0]
        assert [s.name for s in roots] == ["cli.main"]
        self_times = tracer.self_times(op)
        assert min(self_times.values()) >= 0.0
        wall = roots[0].end - roots[0].start
        assert sum(self_times.values()) == pytest.approx(wall, abs=1e-6)
        assert {"ingest.parse_triaxial_csv", "nls.levenberg_marquardt",
                "stats.pairwise_ranksum", "report.render_curves_svg"} <= set(self_times)


def test_wrappers_are_removed_after_tracing():
    from actirhythm import report

    before = (cli.main, report.parse_triaxial_csv)
    with Tracer().install():
        assert report.parse_triaxial_csv is not before[1]
    assert (cli.main, report.parse_triaxial_csv) == before


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cohort_run",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_runner_reports_the_metrics_benchmark_json_names(tmp_path):
    import json

    import run

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    w = CohortRun(1, sizes=SMALL)
    w.setup_reps = 2
    tracer = Tracer()
    runner = run.Runner(w, tmp_path / "traced", seconds=0, tracer=tracer)
    with tracer.install():
        setup_times = runner.setup()
    ops = runner.measure(lambda i: i % 2 == 0)
    assert not runner.failures and runner.attempted == len(ops) == run.MIN_OPS
    metrics, gaps = run.per_layer(tracer, ops, w.setup_reps,
                                  run._out_bytes(tmp_path / "traced" / "out"))
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in declared["per_layer"])
    # the op's wall time outside its spans is the wrapper call around cli.main
    assert all(0.0 <= gap < 1e-3 for gap in gaps.values())
    assert metrics["ingest.serialize_s"]["value"] > 0.0

    assert len(runner.ref_times) >= run.REF_MIN * len(ops)
    metrics = run.end_to_end(w, setup_times, ops, runner.ref_times)
    assert sorted(metrics) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in declared["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
