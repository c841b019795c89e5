"""Tests of the benchmark itself, on the tiny ``--smoke`` sizes.

Run with ``python -m pytest perfbench -q`` from the root of the repository.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import layertrace
import run

ROOT = os.path.dirname(run.HERE)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    result = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", trace, "--smoke")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if trace == "0":
        assert all(value > 0 for value in values)


def test_bits_depend_on_the_seed_alone():
    def bits(seed: str, seconds: str) -> tuple:
        metrics = result_of(
            bench("--workload", "tenant_stream", "--seed", seed,
                  "--seconds", seconds, "--smoke")
        )["metrics"]
        return metrics["bits_per_op"]["value"], metrics["max_node_bits_p85"]["value"]

    assert bits("5", "0.5") == bits("5", "2")
    assert bits("5", "0.5") != bits("6", "0.5")


def test_all_runs_each_workload_untraced_then_traced():
    completed = bench(
        "--workload", "all", "--seed", "2", "--seconds", "0.5", "--trace", "1", "--smoke"
    )
    result = result_of(completed)
    for workload in run.WORKLOAD_NAMES:
        assert f"{workload}.op_p50_s" in result["metrics"]
        assert f"{workload}.trace.overhead" in result["metrics"]
        assert completed.stdout.count(f"{workload} seed=2") == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    completed = bench("--workload", "oneshot", "--seed", "1", "--seconds", "1",
                      cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_fold_subtracts_child_spans_from_self_time():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer starts, inner runs 1..3, outer ends
    tracer = layertrace.LayerTracer(clock=lambda: next(ticks))
    inner = tracer._wrap(lambda: None, "inner")
    outer = tracer._wrap(lambda: inner(), "outer")
    outer()
    self_time, calls, durations = tracer.fold()
    assert self_time == {"inner": 2.0, "outer": 8.0}
    assert calls == {"inner": 1, "outer": 1}
    assert durations["outer"] == [10.0]


def test_tracer_wraps_the_bindings_callers_use_and_restores_them():
    import repro.network.simulator as simulator
    import repro.streaming.vector_engine as vector_engine
    from repro import SensorNetwork

    originals = (
        simulator.bounded_degree_tree,
        vector_engine.sweep_levels,
        SensorNetwork.send_batch,
    )
    with layertrace.LayerTracer() as tracer:
        assert simulator.bounded_degree_tree.__wrapped_layer__ == "spanning_tree.build"
        assert vector_engine.sweep_levels.__wrapped_layer__ == (
            "vector_kernels.sweep_levels"
        )
        SensorNetwork.from_items([1, 2, 3, 4], topology="line")
    assert (
        simulator.bounded_degree_tree,
        vector_engine.sweep_levels,
        SensorNetwork.send_batch,
    ) == originals
    _, calls, _ = tracer.fold()
    assert calls["topology.build"] == 1
    assert calls["spanning_tree.build"] == 1


def test_band_misses_fail_only_beyond_the_promised_rate(monkeypatch):
    import scenarios

    # Four or more LogLog misses in 16 answers happen with probability 1.7e-5.
    assert scenarios.allowed_misses(16, scenarios.LOGLOG_MISS_RATE) == 3
    assert scenarios.allowed_misses(16, 0.1) == 7

    workload = scenarios.OneShot(3, num_nodes=64, rounds=4)
    monkeypatch.setattr(scenarios, "is_approximate_order_statistic", lambda *args: False)
    ops, stats = [], {}
    workload.run_pass(workload.setup(), ops, stats)
    assert stats["band_misses"]["apx_median"] == (4, 4, 3)
    assert [op.ok for op in ops[1::4]] == [False] * 4
    assert all(op.ok for index, op in enumerate(ops) if index % 4 != 1)
