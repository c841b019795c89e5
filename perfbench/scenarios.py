"""The benchmark's three workloads: seeded inputs, set-up, timed passes, checks.

Every workload follows one shape.  Its constructor generates all inputs from
the benchmark seed (nothing random happens inside a timed interval);
:meth:`setup` builds a ready field from nothing — topology, network with its
spanning tree, flat tree, engine and query registration — and is timed by the
harness; :meth:`run_pass` drives one fixed, seeded sequence of ops through the
public ``repro`` API, timing each op on the host clock and checking each
answer against a reference computed outside the timer.  A pass always runs
whole, so the bits it charges depend on the seed alone.

An *op* is one query (``oneshot``) or one epoch (``tenant_stream``,
``faulted_field``).  The three workloads load different layers:

* ``oneshot`` — the paper's own protocols over a 1,024-node random geometric
  field; time goes to ``core``, ``protocols.convergecast`` and LogLog merges,
  and construction is negligible.  The four reading distributions change the
  number of binary-search probes and duplicates.
* ``tenant_stream`` — 32 tenants sharing four legs of a multi-tenant
  standing-query service over lossy links; the only workload with radio
  retries, tenancy and q-digests.  Bursts are its tail epochs.
* ``faulted_field`` — the vectorized resilient pipeline on a 65,536-node grid
  under a crash storm, churn and a root crash; it alone carries construction,
  the vector kernel, detect/repair/election and whole-field charging, and runs
  no sketches.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro import (
    ApproximateMedianProtocol,
    CountQuery,
    DeterministicMedianProtocol,
    FaultEngine,
    HeartbeatDetector,
    SensorNetwork,
    is_approximate_order_statistic,
    reference_median,
    run_faulty_stream,
)
from repro.analysis.experiments import _tenant_query_mix
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro.network.radio import LossyRadio
from repro.streaming.vector_engine import engine_for
from repro.tenancy import MultiTenantEngine
from repro.workloads import DriftStream
from repro.workloads.faults import root_failover_script, storm_under_churn_script
from repro.workloads.generators import generate_workload

DOMAIN = 1 << 16
EPSILON = 0.1
clock = time.perf_counter


@dataclass(frozen=True)
class Op:
    """One timed op: host latency, charged bits, its busiest node, verdict."""

    latency: float
    bits: int
    max_node_bits: int
    ok: bool


def subseed(seed: int, *parts: int) -> int:
    """A stable per-purpose seed derived from the benchmark seed."""
    return random.Random(":".join(map(str, (seed, *parts)))).getrandbits(32)


def node_bits(ledger) -> dict[int, int]:
    """Per-node charged bits so far (read outside every timed interval)."""
    return {node: ledger.node_bits(node) for node in ledger.nodes()}


def max_node_delta(before: dict[int, int], after: dict[int, int]) -> int:
    return max(
        (bits - before.get(node, 0) for node, bits in after.items()), default=0
    )


#: Randomized summaries keep their band only with a stated probability:
#: APX_MEDIAN returns an (α, β)-median with probability at least 1 - ε
#: (Theorem 4.5), and a LogLog distinct count lies within (1 ± 3.15/k) of the
#: truth with probability at least 99% (Durand-Flajolet, as the paper quotes
#: it).  One answer outside its band is thus no fault.  A pass's misses of
#: one randomized summary are faults once its promised miss rate would give
#: that many with probability below ``MISS_SIGNIFICANCE``.
LOGLOG_MISS_RATE = 0.01
MISS_SIGNIFICANCE = 1e-4


def allowed_misses(trials: int, rate: float) -> int:
    """Most misses among ``trials`` answers that a miss ``rate`` explains."""
    tail = 1.0  # probability of at least ``count`` misses
    for count in range(trials + 1):
        if tail < MISS_SIGNIFICANCE:
            return count - 1
        tail -= math.comb(trials, count) * rate**count * (1 - rate) ** (trials - count)
    return trials


def judge_band_misses(
    out: list[Op], stats: dict, family: str, misses: list[int], trials: int, rate: float
) -> None:
    """Fail the ops at ``misses`` when they outnumber what ``rate`` explains."""
    allowed = allowed_misses(trials, rate)
    stats.setdefault("band_misses", {})[family] = (len(misses), trials, allowed)
    if len(misses) > allowed:
        for index in misses:
            out[index] = replace(out[index], ok=False)


# --------------------------------------------------------------------------- #
# oneshot
# --------------------------------------------------------------------------- #
DISTRIBUTIONS = ("uniform", "zipf", "clustered", "adversarial_near_median")


class OneShot:
    """Rounds of the four one-shot protocols over reassigned readings."""

    name = "oneshot"

    def __init__(self, seed: int, num_nodes: int = 1024, rounds: int = 24) -> None:
        self.num_nodes = num_nodes
        #: Each round's readings, cycling through the distributions.
        self.readings = [
            generate_workload(
                DISTRIBUTIONS[index % len(DISTRIBUTIONS)],
                num_nodes,
                max_value=DOMAIN,
                seed=subseed(seed, 1, index),
            )
            for index in range(rounds)
        ]
        self.ops_per_pass = 4 * rounds

    def setup(self) -> SensorNetwork:
        # One deployment for every seed, and the protocols keep their default
        # randomness: the seed varies the readings.  Across seeds the random
        # geometric tree's height ranges 40-80, and the sketch seed moves an
        # APX_MEDIAN query between 3 and 6 probes; either alone moves the
        # latency percentiles by a fifth.
        network = SensorNetwork.from_items(
            [0] * self.num_nodes,
            topology="random_geometric",
            seed=0,
            degree_bound=3,
        )
        network.flat_tree
        return network

    def run_pass(self, network: SensorNetwork, out: list[Op], stats: dict) -> None:
        node_ids = network.node_ids()
        median_protocol = ApproximateMedianProtocol()
        #: Promised miss rate of each approximate protocol, and the indices
        #: into ``out`` of its answers outside their band in this pass.
        promised = {"apx_median": median_protocol.epsilon, "apx_distinct": LOGLOG_MISS_RATE}
        misses: dict[str, list[int]] = {family: [] for family in promised}
        try:
            for items in self.readings:
                network.clear_items()
                network.assign_items(
                    {node: [value] for node, value in zip(node_ids, items)}
                )
                distinct = len(set(items))
                median = reference_median(items)

                def apx_median_ok(outcome) -> bool:
                    return is_approximate_order_statistic(
                        items,
                        len(items) / 2.0,
                        outcome.value,
                        outcome.alpha_guarantee,
                        outcome.beta_guarantee,
                    )

                def apx_distinct_ok(outcome) -> bool:
                    band = outcome.guaranteed_factor
                    return (
                        distinct * (1 - band) <= outcome.estimate <= distinct * (1 + band)
                    )

                queries: list[tuple[object, Callable[[object], bool], str | None]] = [
                    (
                        DeterministicMedianProtocol(domain_max=DOMAIN),
                        lambda outcome: outcome.median == median,
                        None,
                    ),
                    (median_protocol, apx_median_ok, "apx_median"),
                    (ApproxDistinctCountProtocol(), apx_distinct_ok, "apx_distinct"),
                    (
                        ExactDistinctCountProtocol(domain_max=DOMAIN),
                        lambda outcome: outcome == distinct,
                        None,
                    ),
                ]
                for protocol, check, family in queries:
                    start = clock()
                    result = protocol.run(network)
                    latency = clock() - start
                    ok = check(result.value)
                    if family is not None and not ok:
                        # Judged below, with the pass's other misses.
                        misses[family].append(len(out))
                        ok = True
                    out.append(Op(latency, result.total_bits, result.max_node_bits, ok))
        finally:
            for family, indices in misses.items():
                judge_band_misses(
                    out, stats, family, indices, len(self.readings), promised[family]
                )


# --------------------------------------------------------------------------- #
# tenant_stream
# --------------------------------------------------------------------------- #
def drift_with_bursts(num_nodes: int, epochs: int, seed: int) -> list[dict[int, list[int]]]:
    """5% drift plus a one-epoch burst every 10th epoch.

    A burst lifts a fresh 20% of the sensors by 30% of the range (clamped at
    the top), and the next epoch drops them back to their drifting base, so
    the field stays stationary however long it runs.  Bursts and their
    recoveries are a fifth of the epochs: the 85th latency percentile lands
    among them, not on their edge.
    """
    stream = DriftStream(num_nodes, max_value=DOMAIN, seed=seed, drift_fraction=0.05)
    rng = random.Random(subseed(seed, 3))
    lift = int(0.3 * DOMAIN)
    base: dict[int, int] = {}
    lifted: set[int] = set()

    def reading(node: int) -> list[int]:
        return [min(DOMAIN, base[node] + (lift if node in lifted else 0))]

    schedule = []
    for epoch in range(epochs):
        drift = stream.initial() if epoch == 0 else stream.step(epoch)
        for node, items in drift.items():
            base[node] = items[0]
        changed = set(drift) | lifted
        lifted = set()
        if epoch and epoch % 10 == 0:
            lifted = set(rng.sample(range(num_nodes), num_nodes // 5))
            changed |= lifted
        schedule.append({node: reading(node) for node in sorted(changed)})
    return schedule


@dataclass
class TenantField:
    network: SensorNetwork
    service: MultiTenantEngine
    #: tenant -> (query name, query, leg)
    served: dict


class TenantStream:
    """One ``advance_epoch`` of a 32-tenant shared plan per op."""

    name = "tenant_stream"

    def __init__(
        self, seed: int, num_nodes: int = 2500, epochs: int = 100, tenants: int = 32
    ) -> None:
        self.seed = seed
        self.num_nodes = num_nodes
        # The E14 mix: tenants cycle COUNT / q-digest quantile / DISTINCT /
        # COUNTP, so 32 tenants share four legs.
        self.mix = _tenant_query_mix(tenants, DOMAIN, 256, 64, seed)
        self.updates = drift_with_bursts(num_nodes, epochs, seed)
        self.ops_per_pass = epochs

    def setup(self) -> TenantField:
        network = SensorNetwork.from_items(
            [0] * self.num_nodes,
            topology="grid",
            seed=self.seed,
            radio=LossyRadio(0.1, seed=self.seed),
        )
        network.clear_items()
        network.flat_tree
        service = MultiTenantEngine(network, epsilon=EPSILON)
        served = {}
        for tenant, name, query in self.mix:
            decision = service.register(tenant, name, query)
            if decision.admitted:
                served[tenant] = (name, query, decision.leg)
        return TenantField(network, service, served)

    def run_pass(self, field: TenantField, out: list[Op], stats: dict) -> None:
        service = field.service
        ledger = field.network.ledger
        before = node_bits(ledger)
        # The DISTINCT leg's bound is its LogLog sketch's 3σ error, a
        # randomized promise: its misses are judged per pass, at the LogLog
        # band's rate.  The bound scales with the largest answer seen, so a
        # low sketch narrows its own bound and misses come in runs of epochs.
        # The other legs' bounds (suppression slack, q-digest rank error)
        # always hold.
        distinct_misses: list[int] = []
        try:
            for updates in self.updates:
                start = clock()
                record = service.advance_epoch(updates)
                latency = clock() - start
                after = node_bits(ledger)
                missed = self._missed_kinds(field)
                if "DISTINCT" in missed:
                    distinct_misses.append(len(out))
                ok = service.decomposition_holds() and not missed - {"DISTINCT"}
                out.append(Op(latency, record.bits, max_node_delta(before, after), ok))
                before = after
        finally:
            judge_band_misses(
                out, stats, "distinct_leg", distinct_misses, len(self.updates),
                LOGLOG_MISS_RATE,
            )
        stats["tenants"] = len(field.served)
        stats["legs"] = len(service.planner.legs())

    def _missed_kinds(self, field: TenantField) -> set[str]:
        """Query kinds with a tenant answer missing or outside its leg's bound."""
        items = sorted(field.network.all_items())
        bounds = field.service.engine.error_bounds()
        missed = set()
        for tenant, (name, query, leg) in field.served.items():
            answer = field.service.tenant_answers(tenant).get(name)
            if answer is None:
                missed.add("no answer")
                continue
            if query.kind == "COUNT":
                error = abs(answer - len(items))
            elif query.kind == "COUNTP":
                error = abs(answer - sum(1 for item in items if query.predicate(item)))
            elif query.kind == "DISTINCT":
                error = abs(answer - len(set(items)))
            else:
                below = bisect.bisect_left(items, answer)
                ties = bisect.bisect_right(items, answer) - below
                error = abs(below + 0.5 * ties - query.fraction * len(items))
            if error > bounds[leg]:
                missed.add(query.kind)
        return missed


# --------------------------------------------------------------------------- #
# faulted_field
# --------------------------------------------------------------------------- #
class ReplayFeeder:
    """A stream that hands out pre-generated updates and closes each epoch.

    :func:`repro.run_faulty_stream` pulls one batch of updates at the start
    of every epoch, so the time from one call's return to the next call is
    exactly one epoch of the runner.  Inside the call, outside those
    intervals, the feeder closes the epoch that just ended: its charged bits,
    its busiest node, and its COUNT answer against the attached ground truth
    (the quantity ``FaultTrace.errors`` records).  Closing each epoch as it
    ends keeps the verdicts of the epochs that ran before an exception.
    """

    def __init__(self, updates: list[dict[int, list[int]]], field, out: list[Op]) -> None:
        self._updates = updates
        self._field = field
        self._out = out
        self._left: float | None = None
        self._node_bits: dict[int, int] = {}
        self._total_bits = 0

    def close_epoch(self) -> None:
        entered = clock()
        network = self._field.network
        ledger = network.ledger
        node_totals = node_bits(ledger)
        if self._left is not None:
            truth = len(network.attached_items())
            answer = self._field.engine.answers().get("count")
            ok = answer is not None and abs(answer - truth) <= EPSILON * truth
            self._out.append(
                Op(
                    entered - self._left,
                    ledger.total_bits - self._total_bits,
                    max_node_delta(self._node_bits, node_totals),
                    ok,
                )
            )
        self._node_bits = node_totals
        self._total_bits = ledger.total_bits

    def initial(self) -> dict[int, list[int]]:
        self.close_epoch()
        self._left = clock()
        return self._updates[0]

    def step(self, epoch: int) -> dict[int, list[int]]:
        self.close_epoch()
        self._left = clock()
        return self._updates[epoch]


@dataclass
class FaultField:
    network: SensorNetwork
    engine: object
    faults: FaultEngine


class FaultedField:
    """Epochs of the vectorized resilient pipeline under scripted faults."""

    name = "faulted_field"

    def __init__(self, seed: int, num_nodes: int = 65536, epochs: int = 60) -> None:
        self.seed = seed
        self.num_nodes = num_nodes
        self.epochs = epochs
        node_ids = list(range(num_nodes))
        # 10% storm at 1/4 of the run, rejoin at 1/2, churn 0.002 throughout,
        # and the root crashes at 3/4.
        self.script = storm_under_churn_script(
            node_ids,
            epochs=epochs,
            storm_epoch=epochs // 4,
            rejoin_epoch=epochs // 2,
            churn_rate=0.002,
            seed=seed,
        ).merge(root_failover_script(node_ids, crash_epoch=3 * epochs // 4))
        stream = DriftStream(
            num_nodes, max_value=DOMAIN, seed=seed, drift_fraction=0.02
        )
        self.updates = [stream.initial()] + [
            stream.step(epoch) for epoch in range(1, epochs)
        ]
        self.ops_per_pass = epochs

    def setup(self) -> FaultField:
        network = SensorNetwork.from_items(
            [0] * self.num_nodes,
            topology="grid",
            seed=self.seed,
            degree_bound=3,
            execution="vectorized",
        )
        network.clear_items()
        network.flat_tree
        engine = engine_for(network, epsilon=EPSILON)
        engine.register("count", CountQuery())
        faults = FaultEngine(
            network,
            script=self.script,
            seed=self.seed,
            detector=HeartbeatDetector(period=1),
        )
        return FaultField(network, engine, faults)

    def run_pass(self, field: FaultField, out: list[Op], stats: dict) -> None:
        feeder = ReplayFeeder(self.updates, field, out)
        trace = run_faulty_stream(field.engine, feeder, field.faults, epochs=self.epochs)
        feeder.close_epoch()
        stats["rebuilds"] = stats.get("rebuilds", 0) + trace.rebuild_count
        stats["detection_bits"] = (
            stats.get("detection_bits", 0) + trace.total_detection_bits
        )
        stats["bits"] = stats.get("bits", 0) + trace.total_bits


WORKLOADS = {
    OneShot.name: OneShot,
    TenantStream.name: TenantStream,
    FaultedField.name: FaultedField,
}
