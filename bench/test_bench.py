"""Self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import TARGETS, Tracer, layer_metrics

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize("workload", list(workloads.SPECS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace):
    report, result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert report["checks"]["threads_identical"]
    assert report["loop_s"]["samples"] >= 1


def test_traced_digests_equal_untraced_and_wrappers_removed(tmp_path: Path):
    prog = workloads.load_program(run.SRC)
    ex = workloads.prepare(prog, "subsample-greedy", 3, tmp_path, tiny=True)
    untraced = workloads.digest(ex.canonical(ex.run()))
    originals = {(m, a): getattr(prog, m).__dict__[a] for m, a, _ in TARGETS}
    concat = prog.tensorset.PointSet.__dict__["concat"]

    tracer = Tracer()
    tracer.install(prog)
    try:
        assert all(getattr(prog, m).__dict__[a] is not f for (m, a), f in originals.items())
        tracer.begin(1)
        traced = workloads.digest(ex.canonical(ex.run()))
        tracer.end()
    finally:
        tracer.remove()

    assert traced == untraced
    assert all(getattr(prog, m).__dict__[a] is f for (m, a), f in originals.items())
    assert prog.tensorset.PointSet.__dict__["concat"] is concat
    metrics = layer_metrics(tracer.spans)
    assert metrics["neighbors.kth_nn_within.repeat_frac"] == 0.5
    assert metrics["selection.select_greedy.picks"] == 2 * 60


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "metrics.mnnd", "execution": 1, "iteration": 1, "parent": None,
         "start": 0.0, "end": 10.0, "counts": {}},
        {"id": 1, "name": "neighbors.kth_nn_within", "execution": 1, "iteration": 1, "parent": 0,
         "start": 2.0, "end": 5.0, "counts": {"rows": 4, "key": ("a", 1, "m")}},
        {"id": 2, "name": "neighbors.kth_nn_within", "execution": 1, "iteration": 1, "parent": 0,
         "start": 4.0, "end": 7.0, "counts": {"rows": 4, "key": ("a", 1, "m")}},
    ]
    metrics = layer_metrics(spans)
    assert metrics["metrics.mnnd.self_s"] == 5.0
    assert metrics["neighbors.kth_nn_within.s"] == 6.0
    assert metrics["neighbors.kth_nn_within.repeat_frac"] == 0.5
