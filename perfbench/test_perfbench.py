"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The traced-run test starts the benchmark twice per workload and takes a few
minutes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mutualsec  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def canonical(obj):
    """Plain, comparable form of generated inputs."""
    if isinstance(obj, mutualsec.TrafficMatrix):
        return ("tm", obj.rates.tobytes())
    if isinstance(obj, mutualsec.MonitoringModel):
        return workloads.monitor_key(obj)
    if dataclasses.is_dataclass(obj):
        return tuple(canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    return obj


def bench(*args) -> list[dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(workload):
    make_inputs, _ = workloads.WORKLOADS[workload]
    first = canonical(make_inputs(7))
    assert canonical(make_inputs(7)) == first
    assert canonical(make_inputs(8)) != first


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_untraced_run_prints_end_to_end_metrics():
    *_, result = bench("--workload", "simulate", "--seed", "2",
                       "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat_across_traced_runs(workload):
    runs = []
    for _ in range(2):
        *_, result = bench("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "1")
        assert result["correct"], result
        assert list(result["metrics"]) == [name for name, _ in tracing.PER_LAYER]
        runs.append({k: result["metrics"][k]["value"] for k in tracing.EXACT_COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["design.optimal_design.calls"] > 0
