"""The repository benchmark: end-to-end and per-layer timing of ``repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload (see ``scenarios.py``) is one closed loop driven by a single
client in a single process, with no sharded execution and no worker pool.
Inputs are generated from ``--seed`` before anything is timed.  The run
repeats whole passes — a fresh set-up followed by the workload's fixed op
sequence — until about ``--seconds`` of op time has been measured, sets up a
few extra times when the passes gave too few set-up samples, and checks every
op's answer against a reference outside the timer.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs a shorter op sequence three times — plain, with a
:class:`repro.telemetry.SpanTracer` installed, and with every public entry
point wrapped by :class:`layertrace.LayerTracer` — and reports the per-layer
metrics, the telemetry overhead and the tracing overhead; the raw spans are
written to ``.perfbench-out/``.  ``--workload all`` runs each workload in a
fresh process — untraced, and then traced too with ``--trace 1``.
``--smoke`` shrinks every workload to a few seconds for the benchmark's own
tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails when
its answer misses its check or it raises; an exception also fails every op
of the pass not yet run and ends the run.  ``correct`` is true when no op
failed.  Answers of randomized summaries (``oneshot``'s APX_MEDIAN and
LogLog counts, ``tenant_stream``'s DISTINCT leg) are judged against the rate
at which they promise to keep their band (see ``scenarios.py``).

``BENCHMARK.json`` lists the workloads on which no op fails.
``faulted_field`` is left out of it: after the root fail-over the vectorized
engine's COUNT answers miss their bound on some seeds (or the engine raises),
so its runs report failed ops.  It still runs here, alone or in ``all``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics, reported with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p85_s": "s",
    "ops_per_s": "1/s",
    "bits_per_op": "bits",
    "max_node_bits_p85": "bits",
    "peak_rss_mb": "MB",
}

#: The tail percentile of the per-op figures.  Ops cost in clusters — a
#: workload's slow ops are about a tenth of its ops (oneshot: the zipf and
#: full-length adversarial APX_MEDIAN queries, 6 to 12 of 96; tenant_stream: a
#: burst's epoch and its recovery, plus epoch 0, 19 of 100) — and a
#: percentile on a cluster's edge jumps with the seed.  The 85th lands inside
#: a cluster on both workloads and leaves at least ten ops above it.
TAIL = 0.85

#: Per-layer metrics, reported with ``--trace 1``: name -> unit.  A ``_s``
#: total is the layer's self time over the traced pass; a ``_p50_s`` /
#: ``_p90_s`` is a percentile of one call's inclusive duration.
PER_LAYER = {
    "topology.build_s": "s",
    "spanning_tree.build_s": "s",
    "spanning_tree.validate_s": "s",
    "flat_tree.build_s": "s",
    "flat_tree.rewire_calls": "count",
    "flat_tree.rewire_s": "s",
    "simulator.send_batch_calls": "count",
    "simulator.send_batch_s": "s",
    "radio.filter_batch_calls": "count",
    "radio.filter_batch_s": "s",
    "radio.delivered_per_attempt": "ratio",
    "accounting.charge_calls": "count",
    "accounting.charge_s": "s",
    "accounting.snapshot_s": "s",
    "protocols.convergecast_calls": "count",
    "protocols.convergecast_s": "s",
    "protocols.broadcast_s": "s",
    "protocols.epoch_convergecast_s": "s",
    "core.det_median_p50_s": "s",
    "core.apx_median_p50_s": "s",
    "core.apx_median_p90_s": "s",
    "core.probes_per_query": "count",
    "distinct.exact_p50_s": "s",
    "distinct.apx_p50_s": "s",
    "sketches.loglog_merge_calls": "count",
    "sketches.loglog_merge_s": "s",
    "sketches.qdigest_merge_calls": "count",
    "sketches.qdigest_merge_s": "s",
    "sketches.qdigest_compress_calls": "count",
    "sketches.qdigest_compress_s": "s",
    "streaming.advance_epoch_s": "s",
    "streaming.suppressed_share": "ratio",
    "streaming.dirty_per_epoch": "count",
    "streaming.register_s": "s",
    "streaming.apply_repair_s": "s",
    "streaming.apply_root_change_s": "s",
    "vector_kernels.sweep_levels_calls": "count",
    "vector_kernels.sweep_levels_s": "s",
    "faults.detect_s": "s",
    "faults.step_s": "s",
    "faults.repair_s": "s",
    "faults.election_s": "s",
    "faults.rebuilds": "count",
    "faults.detection_bits_share": "ratio",
    "tenancy.register_s": "s",
    "tenancy.advance_epoch_s": "s",
    "tenancy.split_epoch_s": "s",
    "tenancy.queries_per_leg": "ratio",
    "telemetry.span_overhead": "ratio",
    "trace.overhead": "ratio",
    "trace.ops": "count",
}

WORKLOAD_NAMES = ("oneshot", "tenant_stream", "faulted_field")

#: Constructor overrides per mode.  ``run`` times the workload's own pass;
#: ``trace`` is the shorter pass each of the three traced variants runs;
#: ``smoke`` shrinks both for the benchmark's tests.
SIZES = {
    "oneshot": {"run": {}, "trace": {"rounds": 4}, "smoke": {"num_nodes": 64, "rounds": 4}},
    "tenant_stream": {
        "run": {},
        "trace": {"epochs": 34},
        "smoke": {"num_nodes": 100, "epochs": 12, "tenants": 8},
    },
    "faulted_field": {
        "run": {},
        "trace": {"epochs": 20},
        "smoke": {"num_nodes": 256, "epochs": 12},
    },
}

#: Set-ups per run at least; ``setup_s`` is their median.  A faulted_field
#: set-up takes ~4 s, the others about 0.1 s.
MIN_SETUPS = {"oneshot": 20, "tenant_stream": 20, "faulted_field": 3}

OUT_DIR = ".perfbench-out"


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed(function):
    gc.collect()
    start = time.perf_counter()
    value = function()
    return value, time.perf_counter() - start


class Tally:
    """Ops, set-up samples and failures of one run."""

    def __init__(self) -> None:
        self.ops: list = []
        self.setups: list[float] = []
        self.unrun = 0
        self.passes = 0
        self.stats: dict = {}

    @property
    def latencies(self) -> list[float]:
        return [op.latency for op in self.ops]

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.unrun

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok) + self.unrun

    def run_pass(self, workload, before_ops=None) -> bool:
        """Set up, then run one whole pass; False when an op raised."""
        field, setup_s = timed(workload.setup)
        self.setups.append(setup_s)
        if before_ops is not None:
            before_ops(field)
        start = len(self.ops)
        gc.collect()
        try:
            workload.run_pass(field, self.ops, self.stats)
        except Exception:  # noqa: BLE001 - the benchmark reports, then stops
            traceback.print_exc(file=sys.stderr)
            self.unrun += workload.ops_per_pass - (len(self.ops) - start)
            return False
        finally:
            del field
        self.passes += 1
        return True


def build(name: str, seed: int, mode: str, smoke: bool):
    from scenarios import WORKLOADS

    sizes = SIZES[name]["smoke" if smoke else mode]
    workload = WORKLOADS[name](seed, **sizes)
    # The pre-generated inputs live for the whole run; keep the collector
    # from re-scanning them inside every timed interval.
    gc.collect()
    gc.freeze()
    return workload


def measure(name: str, seed: int, seconds: float, smoke: bool) -> tuple[Tally, dict]:
    workload = build(name, seed, "run", smoke)
    tally = Tally()
    while len(tally.setups) < MIN_SETUPS[name] - 1:
        tally.setups.append(timed(workload.setup)[1])
    while tally.run_pass(workload):
        measured = sum(tally.latencies)
        # Stop once less than half a pass of the time budget is left.
        if measured * (1 + 0.5 / tally.passes) >= seconds:
            break
    if not tally.ops:
        raise SystemExit(f"{name}: no op completed; nothing to report")
    latencies = tally.latencies
    metrics = {
        "setup_s": statistics.median(tally.setups),
        "op_p50_s": statistics.median(latencies),
        "op_p85_s": percentile(latencies, TAIL),
        "ops_per_s": len(latencies) / sum(latencies),
        "bits_per_op": statistics.fmean(op.bits for op in tally.ops),
        "max_node_bits_p85": percentile([op.max_node_bits for op in tally.ops], TAIL),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def measure_layers(name: str, seed: int, smoke: bool) -> tuple[Tally, dict]:
    from layertrace import LayerTracer
    from repro.telemetry import SpanTracer

    def install_spans(field) -> None:
        network = getattr(field, "network", field)  # oneshot's field is the network
        network.telemetry = SpanTracer()

    workload = build(name, seed, "trace", smoke)
    variants: dict[str, Tally] = {}
    tally = Tally()
    tracer = LayerTracer()
    for variant in ("plain", "spans", "traced"):
        one = Tally()
        if variant == "traced":
            with tracer:
                one.run_pass(workload)
        else:
            one.run_pass(workload, install_spans if variant == "spans" else None)
        if not one.ops:
            raise SystemExit(f"{name}: no op completed in the {variant} pass")
        variants[variant] = one
        tally.ops += one.ops
        tally.setups += one.setups
        tally.passes += one.passes
        tally.unrun += one.unrun
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}.tsv"))
    traced = variants["traced"]
    self_time, calls, durations = tracer.fold()
    counters = tracer.counters
    stats = traced.stats

    def p50(layer: str) -> float:
        values = durations.get(layer)
        return statistics.median(values) if values else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    plain_p50 = statistics.median(variants["plain"].latencies)
    apx = durations.get("core.apx_median")
    metrics = {
        "core.det_median_p50_s": p50("core.det_median"),
        "core.apx_median_p50_s": p50("core.apx_median"),
        "core.apx_median_p90_s": percentile(apx, 0.9) if apx else 0.0,
        "core.probes_per_query": ratio(counters["core.probes"], counters["core.queries"]),
        "distinct.exact_p50_s": p50("distinct.exact"),
        "distinct.apx_p50_s": p50("distinct.apx"),
        "radio.delivered_per_attempt": ratio(
            counters["radio.delivered"], counters["radio.attempts"]
        ),
        "streaming.suppressed_share": ratio(
            counters["streaming.suppressions"],
            counters["streaming.transmissions"] + counters["streaming.suppressions"],
        ),
        "streaming.dirty_per_epoch": ratio(
            counters["streaming.dirty"], counters["streaming.epochs"]
        ),
        "faults.rebuilds": stats.get("rebuilds", 0),
        "faults.detection_bits_share": ratio(
            stats.get("detection_bits", 0), stats.get("bits", 0)
        ),
        "tenancy.queries_per_leg": ratio(stats.get("tenants", 0), stats.get("legs", 0)),
        "telemetry.span_overhead": statistics.median(variants["spans"].latencies)
        / plain_p50,
        "trace.overhead": statistics.median(traced.latencies) / plain_p50,
        "trace.ops": len(traced.ops),
    }
    for metric in PER_LAYER:
        if metric in metrics:
            continue
        layer, _, kind = metric.rpartition("_")
        if kind == "calls":
            metrics[metric] = calls.get(layer, 0)
        else:  # "<layer>_s": total self time
            metrics[metric] = self_time.get(metric[: -len("_s")], 0.0)
    return tally, {metric: metrics[metric] for metric in PER_LAYER}


def report(name: str, seed: int, tally: Tally, metrics: dict, units: dict) -> dict:
    """Print the human-readable table; return the result object."""
    samples = len(tally.ops)
    print(
        f"{name} seed={seed}: {samples} ops over {tally.passes} pass(es), "
        f"{len(tally.setups)} set-up(s)"
    )
    for metric, value in metrics.items():
        note = ""
        if metric == "setup_s":
            note = f"median of n={len(tally.setups)}"
        elif metric == "op_p85_s":
            above = sum(1 for latency in tally.latencies if latency > value)
            note = f"n={samples}, {above} above"
        elif metric.startswith("op") or metric in ("bits_per_op", "max_node_bits_p85"):
            note = f"n={samples}"
        print(f"  {metric:36s} {value:>16.6g} {units[metric]:6s} {note}")
    attempted, failed = tally.attempted, tally.failed
    print(
        f"  {'failed_share':36s} {failed / attempted:>16.6g} {'ratio':6s} "
        f"{failed}/{attempted} ops"
    )
    for family, (misses, rounds, allowed) in tally.stats.get("band_misses", {}).items():
        print(f"  {family} answers outside their band: {misses}/{rounds} per pass, "
              f"{allowed} allowed at the promised rate")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def run_all(args) -> dict:
    """Each workload in fresh processes, so memory and set-up never leak.

    With ``--trace 1`` every workload runs untraced first and then traced, so
    the per-layer figures print next to the end-to-end ones they explain.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace_flag in range(args.trace + 1):
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace_flag),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                raise SystemExit(f"{name}: exited with code {child.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        tally, metrics = measure_layers(args.workload, args.seed, args.smoke)
        result = report(args.workload, args.seed, tally, metrics, PER_LAYER)
    else:
        tally, metrics = measure(args.workload, args.seed, args.seconds, args.smoke)
        result = report(args.workload, args.seed, tally, metrics, END_TO_END)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
