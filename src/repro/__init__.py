"""repro — reproduction of Patt-Shamir's sensor-network aggregate queries.

This package reproduces, as a runnable Python library, the protocols and
claims of:

    Boaz Patt-Shamir, "A note on efficient aggregate queries in sensor
    networks", PODC 2004 (preliminary version); Theoretical Computer Science
    370 (2007) 254-264 (full version).

Quick start::

    from repro import SensorNetwork, DeterministicMedianProtocol

    readings = [17, 4, 23, 8, 15, 42, 16, 9, 30]
    network = SensorNetwork.from_items(readings, topology="grid")
    result = DeterministicMedianProtocol().run(network)
    print(result.value.median, result.max_node_bits)

For continuous monitoring — the same aggregates maintained every epoch over
drifting readings — use the streaming engine::

    from repro import ContinuousQueryEngine, MedianQuery, CountQuery, run_stream
    from repro.workloads import DriftStream

    stream = DriftStream(num_nodes=100, seed=0)
    network = SensorNetwork.from_items([0] * 100, topology="grid")
    engine = ContinuousQueryEngine(network, epsilon=0.1)
    engine.register("median", MedianQuery(universe_size=1 << 16))
    engine.register("count", CountQuery())
    trace = run_stream(engine, stream, epochs=50)
    print(engine.answers(), trace.total_bits)

Protocols execute over a pluggable two-path core: the default *batched* path
plans whole tree levels and charges them to the ledger in bulk (scaling the
simulator to 100k-node fields), while the *per-edge* reference path sends one
edge at a time.  Both are bit-for-bit ledger-equivalent; select with
``SensorNetwork(..., execution="per-edge")`` when you want the reference
behaviour, e.g. for wall-clock comparisons (see
``benchmarks/bench_scale.py``).

Deployments also lose nodes and links: the fault-tolerance engine in
:mod:`repro.faults` injects crashes, rejoins, link drops and regional
outages, heals the spanning tree incrementally (orphaned subtrees re-attach
through local adoption instead of a full rebuild) and re-synchronises only
the summaries along repaired paths — see
:func:`~repro.faults.run_faulty_stream` and ``benchmarks/bench_faults.py``
for the measured repair-vs-rebuild savings.  Even the query root may die:
a :class:`~repro.faults.RootCrash` triggers a charged
:class:`~repro.faults.RootElection` (highest surviving id over the alive
component), the tree re-roots at the winner and the caches migrate along
the reversed root path — ``docs/FAULTS.md`` walks the whole pipeline.

Many clients can share one network: the tenancy layer in
:mod:`repro.tenancy` deduplicates overlapping standing queries into a
shared summary plan (:class:`~repro.tenancy.MultiTenantEngine`), with
gold / standard / best-effort admission tiers under a bits budget and a
per-tenant ledger split whose columns sum exactly to the shared plan's
charged bits — ``docs/MULTITENANT.md`` has the planner model and
``benchmarks/bench_multitenant.py`` the measured ≥5x dedup savings.

Every phase of that pipeline is observable: install a
:class:`~repro.telemetry.SpanTracer` (``network.telemetry = SpanTracer()``
or ``run_faulty_stream(..., telemetry=SpanTracer())``) and each epoch emits
nested, timed spans carrying their exact ledger deltas, alongside a
:class:`~repro.telemetry.MetricsRegistry` of counters/gauges/histograms
with Prometheus-text and markdown exporters — ``docs/TELEMETRY.md`` has the
span taxonomy and the metric catalogue.  When no tracer is installed the
instrumentation is free: the default recorder is a shared no-op.

The top-level namespace re-exports the pieces most users need: the network
simulator with its batched tree primitives, the deterministic and approximate
median protocols, the primitive aggregation protocols, the continuous-query
streaming engine and the verification helpers.  Substrates (sketches,
baselines, workloads, the experiment harness) live in their own subpackages.
"""

from repro.core import (
    ApproximateMedianProtocol,
    ApproximateOrderStatisticProtocol,
    DeterministicMedianProtocol,
    DeterministicOrderStatisticProtocol,
    PolyloglogMedianProtocol,
    RepetitionPolicy,
    is_approximate_order_statistic,
    is_median,
    is_order_statistic,
    rank,
    reference_median,
    reference_order_statistic,
)
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    EmptyNetworkError,
    ProtocolError,
    ReproError,
    TopologyError,
)
from repro.faults import (
    ElectionResult,
    FaultEngine,
    FaultScript,
    FaultTrace,
    HeartbeatDetector,
    LinkDrop,
    LinkRestore,
    NodeCrash,
    NodeRejoin,
    RegionalOutage,
    RepairResult,
    RootCrash,
    RootElection,
    TreeRepair,
    run_faulty_stream,
)
from repro.network import (
    EXECUTION_MODES,
    CommunicationLedger,
    EnergyModel,
    FlatTree,
    LedgerMark,
    SensorNetwork,
)
from repro.protocols import (
    ApproxCountProtocol,
    AverageProtocol,
    CountPredicateProtocol,
    CountProtocol,
    LessThanPredicate,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
    broadcast,
    convergecast,
    epoch_convergecast,
)
from repro.streaming import (
    ContinuousQueryEngine,
    CountQuery,
    DistinctCountQuery,
    EpochRecord,
    MedianQuery,
    PredicateCountQuery,
    QuantileQuery,
    RecomputeEngine,
    StreamingTrace,
    run_stream,
)
from repro.telemetry import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Span,
    SpanTracer,
    TelemetryRecorder,
)
from repro.tenancy import (
    AdmissionDecision,
    MultiTenantEngine,
    QueryPlanner,
    TenantLedgerSplit,
)

__version__ = "1.12.0"

__all__ = [
    "ApproximateMedianProtocol",
    "ApproximateOrderStatisticProtocol",
    "DeterministicMedianProtocol",
    "DeterministicOrderStatisticProtocol",
    "PolyloglogMedianProtocol",
    "RepetitionPolicy",
    "is_approximate_order_statistic",
    "is_median",
    "is_order_statistic",
    "rank",
    "reference_median",
    "reference_order_statistic",
    "BudgetExceededError",
    "ConfigurationError",
    "EmptyNetworkError",
    "ProtocolError",
    "ReproError",
    "TopologyError",
    "CommunicationLedger",
    "EnergyModel",
    "EXECUTION_MODES",
    "FlatTree",
    "LedgerMark",
    "SensorNetwork",
    "broadcast",
    "convergecast",
    "epoch_convergecast",
    "ApproxCountProtocol",
    "AverageProtocol",
    "CountPredicateProtocol",
    "CountProtocol",
    "LessThanPredicate",
    "MaxProtocol",
    "MinProtocol",
    "SumProtocol",
    "FaultEngine",
    "HeartbeatDetector",
    "ElectionResult",
    "RootCrash",
    "RootElection",
    "FaultScript",
    "FaultTrace",
    "NodeCrash",
    "NodeRejoin",
    "LinkDrop",
    "LinkRestore",
    "RegionalOutage",
    "RepairResult",
    "TreeRepair",
    "run_faulty_stream",
    "ContinuousQueryEngine",
    "RecomputeEngine",
    "run_stream",
    "CountQuery",
    "PredicateCountQuery",
    "QuantileQuery",
    "MedianQuery",
    "DistinctCountQuery",
    "EpochRecord",
    "StreamingTrace",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "SpanTracer",
    "TelemetryRecorder",
    "AdmissionDecision",
    "MultiTenantEngine",
    "QueryPlanner",
    "TenantLedgerSplit",
    "__version__",
]
