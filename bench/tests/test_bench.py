"""Self-tests of the benchmark: the tracer restores gradcv, its counts
repeat exactly, its metric names match BENCHMARK.json, and the benchmark
refuses to run without the program's sources.

    python3 -m pytest bench/tests
"""
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gradcv.demos  # noqa: F401  (loads every gradcv module the workloads use)
from tracer import TRACED, Tracer, _gradcv_modules, per_layer_names
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
EXACT = (".calls", "nodes_per_step", ".macs", ".bytes", ".points", "_frac")


def _namespace_snapshot() -> dict:
    snap = {}
    for mod in _gradcv_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    snap[(mod.__name__, key, meth)] = fn
    return snap


def _traced_op(name: str, seed: int = 0):
    case = WORKLOADS[name].build(seed)
    tracer = Tracer()
    with tracer.operation(0):
        result = case.run()
    ok, detail = case.check(result)
    assert ok, detail
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_restore_gradcv_and_repeat_counts(name):
    before = _namespace_snapshot()
    tracer = _traced_op(name)
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    # only functions declared as nesting may be the parent of a span
    parents = {tracer.spans[parent][0] for _, _, _, parent, _ in tracer.spans if parent >= 0}
    assert {n for n in parents if not TRACED[n][2]} == set()

    first = tracer.per_op_metrics(1)
    second = _traced_op(name).per_op_metrics(1)
    exact = {k: v for k, v in first.items() if k.endswith(EXACT)}
    assert exact == {k: second[k] for k in exact}
    assert first["kernels.conv2d.calls"][0] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    reported = set(per_layer_names()) | {("trace.overhead_s", "s"), ("trace.coverage", "ratio")}
    assert declared == reported
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert spec["paths"] == [BENCH.name]


def _run(cwd, *args):
    return subprocess.run([sys.executable, f"{BENCH.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_result_line_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "register", "--seed", "1", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "register", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
