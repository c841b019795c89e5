"""E11 — execution-path scaling: the batched core vs the per-edge reference.

The batched execution core exists so the simulator can run production-scale
fields: the per-edge path allocates a ``Message``, consults the graph, walks
the radio model and mutates the ledger once per edge, which caps experiments
at a few thousand nodes.  This benchmark drives the same broadcast + SUM
convergecast round trip through both paths and checks the two claims of the
refactor:

* **equivalence** — wherever both paths run, their ledgers are bit-for-bit
  identical (``ScalingRecord.ledgers_identical``);
* **speed** — the batched path is ≥ 5× faster in wall-clock at n = 10,000,
  and completes a 100k-node field (where the per-edge path is not even
  attempted).

Set ``REPRO_SCALE_SIZES`` (comma-separated node counts) to shrink the sweep —
the CI smoke job runs ``REPRO_SCALE_SIZES=256,1024``, which still asserts
ledger equivalence but skips the wall-clock assertions (timing on shared
runners is noise).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import (
    emit_bench_json,
    emit_telemetry_jsonl,
    phases_from_tracer,
    run_once,
)
from repro.analysis.experiments import run_scaling_study
from repro.analysis.report import format_table
from repro.network.simulator import SensorNetwork
from repro.telemetry import SpanTracer

_ENV_SIZES = os.environ.get("REPRO_SCALE_SIZES")
FULL_SIZES = (1_000, 10_000, 100_000)
SIZES = (
    tuple(int(size) for size in _ENV_SIZES.split(",")) if _ENV_SIZES else FULL_SIZES
)
SMOKE = _ENV_SIZES is not None
PER_EDGE_LIMIT = 20_000
SPEEDUP_TARGET = 5.0
SPEEDUP_AT = 10_000


def test_batched_backend_scales(benchmark):
    # The one-shot protocols emit no phase spans, but the tracer still
    # collects the per-size timing histograms and net.* counters.
    tracer = SpanTracer()
    records = run_once(
        benchmark,
        run_scaling_study,
        SIZES,
        per_edge_limit=PER_EDGE_LIMIT,
        repeats=3,
        seed=0,
        telemetry=tracer,
    )

    rows = [
        [
            record.num_nodes,
            record.tree_height,
            round(record.batched_seconds * 1000, 1),
            "-" if record.per_edge_seconds is None
            else round(record.per_edge_seconds * 1000, 1),
            "-" if record.speedup is None else round(record.speedup, 1),
            "-" if record.ledgers_identical is None else record.ledgers_identical,
            record.messages,
        ]
        for record in records
    ]
    print()
    print(format_table(
        [
            "N",
            "tree height",
            "batched (ms)",
            "per-edge (ms)",
            "speedup",
            "ledgers equal",
            "messages",
        ],
        rows,
        title="E11  broadcast + SUM convergecast: batched vs per-edge execution",
    ))

    for record in records:
        benchmark.extra_info[f"batched_ms_{record.num_nodes}"] = round(
            record.batched_seconds * 1000, 2
        )
        if record.speedup is not None:
            benchmark.extra_info[f"speedup_{record.num_nodes}"] = round(
                record.speedup, 2
            )

    # Equivalence: wherever both paths ran, the ledgers must be identical.
    compared = [record for record in records if record.ledgers_identical is not None]
    assert compared, "no size was small enough to run the per-edge reference"
    assert all(record.ledgers_identical for record in compared)
    # Every requested size completed under the batched backend.
    assert len(records) == len(SIZES)

    metrics = {}
    if not SMOKE:
        # Acceptance: ≥ 5× wall-clock speedup on the 10k-node convergecast...
        ten_k = [
            record
            for record in records
            if record.num_nodes >= SPEEDUP_AT and record.speedup is not None
        ]
        assert ten_k, f"sweep did not include a timed size ≥ {SPEEDUP_AT}"
        best_speedup = max(record.speedup for record in ten_k)
        assert best_speedup >= SPEEDUP_TARGET
        # ...and the 100k-node field completes on the batched path.
        assert max(record.num_nodes for record in records) >= 99_000
        metrics["traversal_speedup"] = {
            "value": round(best_speedup, 2),
            "floor": SPEEDUP_TARGET,
        }

    largest = records[-1]
    emit_bench_json(
        "scale",
        n=largest.num_nodes,
        wall_clock_s=largest.batched_seconds,
        bits=largest.total_bits,
        metrics=metrics,
        phases=phases_from_tracer(tracer) or None,
    )
    if tracer.spans:
        emit_telemetry_jsonl("scale", tracer)


# --------------------------------------------------------------------------- #
# Vectorized core: the million-node epoch
# --------------------------------------------------------------------------- #
MILLION = 1_000_000
VECTORIZED_N = max(SIZES) if SMOKE else MILLION
EPOCH_BUDGET_SECONDS = 1.0
STEADY_EPOCHS = 5
CHURN_FRACTION = 0.01


def test_vectorized_million_node_epoch(benchmark):
    """A 1M-node fused epoch (detect + repair + convergecast) under 1 s.

    The steady-state epoch is the quantity the paper's continuous-monitoring
    regime pays every round: a full heartbeat sweep over all alive edges, the
    attach-mask repair sweep, and the change-driven convergecast over ~1% of
    the field.  All three phases run as whole-array level passes on the
    :class:`~repro.network.VectorField`, so the epoch cost is a handful of
    numpy passes — not a million Python callbacks.
    """
    pytest.importorskip("numpy", reason="the vectorized core needs the fast extra")
    import numpy as np

    from repro.network import VectorField

    tracer = SpanTracer()
    field = VectorField.balanced(VECTORIZED_N, branching=8, telemetry=tracer)
    field.register_count_query("count")
    rng = np.random.default_rng(0)
    field.advance_epoch(
        changed_positions=np.arange(VECTORIZED_N),
        new_counts=rng.integers(0, 50, VECTORIZED_N),
    )

    churn = max(1, int(VECTORIZED_N * CHURN_FRACTION))

    def steady_epochs():
        for _ in range(STEADY_EPOCHS):
            changed = rng.choice(VECTORIZED_N, churn, replace=False)
            field.advance_epoch(
                changed_positions=changed,
                new_counts=rng.integers(0, 50, churn),
            )

    started = time.perf_counter()
    run_once(benchmark, steady_epochs)
    per_epoch = (time.perf_counter() - started) / STEADY_EPOCHS

    total_bits = sum(record["bits"] for record in field.records[1:])
    print()
    print(format_table(
        ["N", "epoch (ms)", "dirty/epoch", "tx/epoch", "bits/epoch"],
        [[
            VECTORIZED_N,
            round(per_epoch * 1000, 1),
            round(sum(r["dirty"] for r in field.records[1:]) / STEADY_EPOCHS),
            round(sum(r["transmissions"] for r in field.records[1:]) / STEADY_EPOCHS),
            round(total_bits / STEADY_EPOCHS),
        ]],
        title="E12  vectorized fused epoch: detect + repair + stream",
    ))
    benchmark.extra_info["vectorized_epoch_ms"] = round(per_epoch * 1000, 2)

    metrics = {}
    if not SMOKE:
        assert VECTORIZED_N >= MILLION
        assert per_epoch < EPOCH_BUDGET_SECONDS, (
            f"1M-node epoch took {per_epoch:.3f}s (budget {EPOCH_BUDGET_SECONDS}s)"
        )
        metrics["vectorized_epochs_per_second"] = {
            "value": round(1.0 / per_epoch, 2),
            "floor": 1.0 / EPOCH_BUDGET_SECONDS,
        }

    emit_bench_json(
        "scale",
        n=VECTORIZED_N,
        wall_clock_s=per_epoch,
        bits=total_bits,
        metrics=metrics,
        phases=phases_from_tracer(tracer) or None,
    )
    if tracer.spans:
        emit_telemetry_jsonl("scale_vectorized", tracer)


# --------------------------------------------------------------------------- #
# Vectorized engine: bit-identical to the batched engine at scale
# --------------------------------------------------------------------------- #
VECTORIZED_N = min(10_000, max(SIZES)) if SMOKE else 10_000
VECTORIZED_EPOCHS = 4


def test_vectorized_ledger_identity(benchmark):
    """The vectorized streaming engine stays bit-identical at n = 10,000.

    Twin networks run the same update stream, one under the batched
    :class:`ContinuousQueryEngine` and one under ``execution="vectorized"``;
    the vectorized ledger must reproduce the batched ledger exactly —
    per-node bits, totals, messages, rounds and per-protocol breakdowns.
    The vectorized run's spans land in the BENCH_scale.json phase table.
    """
    pytest.importorskip("numpy", reason="the vectorized engine needs the fast extra")

    import random

    from repro.streaming.engine import ContinuousQueryEngine
    from repro.streaming.queries import CountQuery
    from repro.streaming.vector_engine import VectorStreamEngine

    tracer = SpanTracer()

    def build(execution, telemetry=None):
        network = SensorNetwork.from_items(
            [0] * VECTORIZED_N,
            topology="random_geometric",
            seed=0,
            execution=execution,
            telemetry=telemetry,
        )
        return network

    def run_twins():
        batched_net = build("batched")
        vector_net = build("vectorized", telemetry=tracer)
        engines = [
            ContinuousQueryEngine(batched_net, epsilon=0.1),
            VectorStreamEngine(vector_net, epsilon=0.1),
        ]
        rng_state = random.Random(17)
        epochs = []
        for _ in range(VECTORIZED_EPOCHS):
            updates = {
                rng_state.randrange(VECTORIZED_N): [
                    rng_state.randrange(100)
                    for _ in range(rng_state.randrange(4))
                ]
                for _ in range(VECTORIZED_N // 20)
            }
            epochs.append(updates)
        for engine in engines:
            engine.register("count", CountQuery())
            for updates in epochs:
                engine.advance_epoch(dict(updates))
        return batched_net, vector_net

    started = time.perf_counter()
    batched_net, vector_net = run_once(benchmark, run_twins)
    elapsed = time.perf_counter() - started
    left = batched_net.ledger.snapshot()
    right = vector_net.ledger.snapshot()
    identical = (
        left.per_node_bits == right.per_node_bits
        and left.total_bits == right.total_bits
        and left.max_node_bits == right.max_node_bits
        and left.messages == right.messages
        and left.rounds == right.rounds
        and left.per_protocol_bits == right.per_protocol_bits
    )

    print()
    print(format_table(
        ["N", "epochs", "total bits", "ledgers equal"],
        [[VECTORIZED_N, VECTORIZED_EPOCHS, left.total_bits, identical]],
        title="E13  vectorized engine: ledger vs batched",
    ))
    emit_bench_json(
        "scale",
        n=VECTORIZED_N,
        wall_clock_s=elapsed,
        bits=left.total_bits,
        metrics={
            "vectorized_ledger_identity": {
                "value": 1.0 if identical else 0.0,
                "floor": 1.0,
            }
        },
        phases=phases_from_tracer(tracer) or None,
    )
    if tracer.spans:
        emit_telemetry_jsonl("scale_vectorized_stream", tracer)
    assert identical, "vectorized ledger diverged from the batched reference"
