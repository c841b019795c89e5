"""Outside-in per-layer tracing of the ``repro`` public entry points.

:class:`LayerTracer` replaces each traced entry point with a thin wrapper at
every binding its callers use — a module-level function is rebound in every
``repro`` module that imported it (so ``sweep_levels`` is caught as
``repro.streaming.vector_engine.sweep_levels`` and ``bounded_degree_tree`` as
``repro.network.simulator.bounded_degree_tree``), and a method is rebound on
every class of the hierarchy that defines it.  Each call records one span —
layer, start, end, parent — in memory; :meth:`LayerTracer.fold` turns the
spans into per-layer self time (a span's duration minus its child spans),
call counts and inclusive call durations, and :meth:`LayerTracer.write`
stores the raw spans once, when the run ends.  Nothing inside the program
changes: uninstalling restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from repro import (
    ApproximateOrderStatisticProtocol,
    CommunicationLedger,
    ContinuousQueryEngine,
    DeterministicMedianProtocol,
    FaultEngine,
    FlatTree,
    HeartbeatDetector,
    RootElection,
    SensorNetwork,
    TreeRepair,
)
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro.network.radio import RadioModel
from repro.network.spanning_tree import SpanningTree
from repro.sketches.loglog import LogLogSketch
from repro.sketches.qdigest import QDigest
from repro.tenancy import MultiTenantEngine, TenantLedgerSplit

#: Module-level functions: (layer, defining module, name).
FUNCTIONS = (
    ("topology.build", "repro.network.topology", "build_topology"),
    ("spanning_tree.build", "repro.network.spanning_tree", "bounded_degree_tree"),
    ("spanning_tree.build", "repro.network.spanning_tree", "bfs_tree"),
    ("protocols.convergecast", "repro.protocols.convergecast", "convergecast"),
    ("protocols.broadcast", "repro.protocols.broadcast", "broadcast"),
    (
        "protocols.epoch_convergecast",
        "repro.protocols.epoch_convergecast",
        "epoch_convergecast",
    ),
    ("vector_kernels.sweep_levels", "repro.streaming.vector_kernels", "sweep_levels"),
)

#: Methods: (layer, base class, name); subclasses that override are wrapped too.
METHODS = (
    ("spanning_tree.validate", SpanningTree, "validate"),
    ("flat_tree.build", FlatTree, "from_spanning_tree"),
    ("flat_tree.rewire", FlatTree, "rewire"),
    ("simulator.send_batch", SensorNetwork, "send_batch"),
    ("radio.filter_batch", RadioModel, "filter_batch"),
    ("accounting.charge", CommunicationLedger, "charge_batch"),
    ("accounting.charge", CommunicationLedger, "charge_array"),
    ("accounting.snapshot", CommunicationLedger, "counters_snapshot"),
    ("accounting.snapshot", CommunicationLedger, "snapshot"),
    ("core.det_median", DeterministicMedianProtocol, "run"),
    ("core.apx_median", ApproximateOrderStatisticProtocol, "run"),
    ("distinct.exact", ExactDistinctCountProtocol, "run"),
    ("distinct.apx", ApproxDistinctCountProtocol, "run"),
    ("sketches.loglog_merge", LogLogSketch, "merge"),
    ("sketches.loglog_merge", LogLogSketch, "merge_in_place"),
    ("sketches.qdigest_merge", QDigest, "merge"),
    ("sketches.qdigest_compress", QDigest, "compress"),
    ("streaming.advance_epoch", ContinuousQueryEngine, "advance_epoch"),
    ("streaming.register", ContinuousQueryEngine, "register"),
    ("streaming.apply_repair", ContinuousQueryEngine, "apply_repair"),
    ("streaming.apply_root_change", ContinuousQueryEngine, "apply_root_change"),
    ("faults.step", FaultEngine, "step"),
    ("faults.detect", HeartbeatDetector, "charge_sweep"),
    ("faults.repair", TreeRepair, "repair"),
    ("faults.election", RootElection, "elect"),
    ("tenancy.register", MultiTenantEngine, "register"),
    ("tenancy.advance_epoch", MultiTenantEngine, "advance_epoch"),
    ("tenancy.split_epoch", TenantLedgerSplit, "split_epoch"),
)


def _classes_defining(base: type, name: str) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if name in vars(cls) and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class LayerTracer:
    """Span recorder for the wrapped entry points (see the module docstring)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        #: One ``[layer id, start, end, parent span index]`` per call.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._open_layers: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        #: Counters read off return values, e.g. radio attempts per batch.
        self.counters: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _wrap(self, function: Callable, layer: str) -> Callable:
        layer_id = self._layer_id(layer)
        spans, open_spans, open_layers = self.spans, self._open, self._open_layers
        clock = self._clock
        observe = _OBSERVERS.get(layer)
        counters = self.counters

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # An override calling its base (super()) is one call of the layer.
            if open_layers and open_layers[-1] == layer_id:
                return function(*args, **kwargs)
            span = [layer_id, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            open_layers.append(layer_id)
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
                open_layers.pop()
            if observe is not None:
                observe(counters, result)
            return result

        traced.__wrapped_layer__ = layer
        return traced

    def _rebind(self, owner: Any, name: str, replacement: Any) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> "LayerTracer":
        for layer, module_name, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            wrapped = self._wrap(original, layer)
            for module_key, module in list(sys.modules.items()):
                if module_key.split(".")[0] != "repro" or module is None:
                    continue
                if vars(module).get(name) is original:
                    self._rebind(module, name, wrapped)
        for layer, base, name in METHODS:
            for cls in _classes_defining(base, name):
                raw = vars(cls)[name]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, layer))
                else:
                    replacement = self._wrap(raw, layer)
                self._rebind(cls, name, replacement)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def fold(self) -> tuple[dict[str, float], dict[str, int], dict[str, list[float]]]:
        """Per-layer self time, call count and inclusive call durations."""
        self_time = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        durations: list[list[float]] = [[] for _ in self.layers]
        spans = self.spans
        for layer_id, start, end, parent in spans:
            duration = end - start
            self_time[layer_id] += duration
            calls[layer_id] += 1
            durations[layer_id].append(duration)
            if parent >= 0:
                self_time[spans[parent][0]] -= duration
        return (
            dict(zip(self.layers, self_time)),
            dict(zip(self.layers, calls)),
            dict(zip(self.layers, durations)),
        )

    def write(self, path) -> None:
        """Store every span as ``index layer start end parent`` lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tlayer\tstart_s\tend_s\tparent\n")
            handle.writelines(
                f"{index}\t{self.layers[layer_id]}\t{start - origin:.9f}\t"
                f"{end - origin:.9f}\t{parent}\n"
                for index, (layer_id, start, end, parent) in enumerate(self.spans)
            )


def _radio_attempts(counters: dict[str, float], outcomes) -> None:
    counters["radio.delivered"] += len(outcomes)
    counters["radio.attempts"] += sum(outcome.attempts for outcome in outcomes)


def _epoch_record(counters: dict[str, float], record) -> None:
    counters["streaming.epochs"] += 1
    counters["streaming.dirty"] += record.dirty_nodes
    counters["streaming.transmissions"] += record.transmissions
    counters["streaming.suppressions"] += record.suppressions


def _probes(counters: dict[str, float], result) -> None:
    counters["core.queries"] += 1
    counters["core.probes"] += result.value.probes


_OBSERVERS: dict[str, Callable[[dict, Any], None]] = {
    "radio.filter_batch": _radio_attempts,
    "streaming.advance_epoch": _epoch_record,
    "core.det_median": _probes,
    "core.apx_median": _probes,
}
