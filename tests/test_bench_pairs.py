"""The summary of scripts/bench_pairs.py, on canned metric lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
              {"name": "throughput_ref", "unit": "1/ref", "better": "higher", "bound": 0.25}]


def line(wall: float, failed: int = 0) -> dict:
    """A metric line as bench/run.py prints it, with 100 units of work."""
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {"wall_ref": {"value": wall, "unit": "ref"},
                        "throughput_ref": {"value": 100 / wall, "unit": "1/ref"}}}


def test_direction_medians_spread_and_count():
    parent = [line(w) for w in (1.0, 1.2, 0.9, 1.1, 1.0)]
    change = [line(w) for w in (0.8, 0.9, 0.9, 0.7, 1.1)]
    head, wall, throughput = bench_pairs.summarize(parent, change, END_TO_END)
    assert head == "pairs: 5; failed ops: parent 0, change 0"
    # quartiles of the parent's 0.9, 1.0, 1.0, 1.1, 1.2: 0.95 and 1.15;
    # pair 3 ties (0.9 v 0.9) and pair 5 is worse, so 3 of 5
    assert wall == ("wall_ref (lower is better): parent 1 [IQR/median 20.0%], change 0.9 "
                    "(-10.0%); change better in 3 of 5; gain not shown")
    assert throughput.startswith("throughput_ref (higher is better): parent 100 ")
    assert throughput.endswith("change better in 3 of 5; gain not shown")


def test_gain_needs_nine_tenths_and_more_than_the_spread():
    parent = [line(1.0 + 0.01 * i) for i in range(10)]
    faster = [line(0.8) for _ in range(10)]
    assert bench_pairs.summarize(parent, faster, END_TO_END)[1].endswith(
        "change better in 10 of 10; gain holds")
    # better in every pair, but by less than the parent's spread
    slightly = [line(1.0 + 0.01 * i - 0.001) for i in range(10)]
    assert bench_pairs.summarize(parent, slightly, END_TO_END)[1].endswith(
        "change better in 10 of 10; gain not shown")
    # far better in 8 of 10 pairs only
    mixed = [line(0.8) for _ in range(8)] + [line(2.0), line(2.0)]
    assert bench_pairs.summarize(parent, mixed, END_TO_END)[1].endswith(
        "change better in 8 of 10; gain not shown")


def test_failed_ops_are_summed():
    head = bench_pairs.summarize([line(1.0, 1), line(1.0, 2)], [line(1.0), line(1.0, 1)],
                                 END_TO_END)[0]
    assert head == "pairs: 2; failed ops: parent 3, change 1"
