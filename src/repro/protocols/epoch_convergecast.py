"""Epoch-aware incremental convergecast.

The one-shot :func:`~repro.protocols.convergecast.convergecast` walks the
whole tree and every node transmits.  In steady-state continuous monitoring
most subtrees are unchanged, so the streaming engine needs a traversal in
which only *dirty* nodes (and their ancestors, transitively, until a node
decides the change is too small to forward) participate.  This module
provides that traversal as synchronous rounds: a node at depth ``d`` acts in
the round in which all of its children's updates (sent one round earlier)
have been delivered, so one epoch costs at most ``deepest dirty depth + 1``
rounds and exactly one upward message per node that decides to retransmit.

The traversal is policy-free: the per-node retransmit decision (including
ε-suppression and delta sizing) is supplied by the caller as a ``decide``
callback, which is how the streaming engine keeps all summary semantics in
one place while this module owns scheduling and charging.

Two execution paths implement the rounds, selected by ``network.execution``:
the batched path (default) sweeps one tree level per round and charges each
round's transmissions in a single
:meth:`~repro.network.SensorNetwork.send_up_tree` call; the per-edge path
runs the rounds on :class:`~repro.network.RoundEngine` with one
:meth:`~repro.network.SensorNetwork.send` per transmission.  Both visit the
active nodes of a round in ascending id order (the round engine's iteration
order), so ledgers — including lossy-radio retries — are bit-for-bit
identical.

The ``"vectorized"`` execution mode falls through to the batched path here
(this module's ``decide`` callback is inherently per-node); its whole-array
twin of this traversal — same level schedule,
same charge order, no callback — is
:func:`repro.streaming.vector_kernels.sweep_levels`, which the
count-specialised :class:`~repro.streaming.vector_engine.VectorStreamEngine`
substitutes for the loop below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.network.scheduler import RoundEngine
from repro.network.simulator import SensorNetwork

# ``decide(node_id, child_updates)`` receives the payloads delivered by the
# node's children this epoch (child id → payload) and returns either ``None``
# (suppress: the parent keeps using the last transmitted summary) or a
# ``(payload, size_bits)`` pair to forward to the parent.  It is called only
# for *active* nodes: those that are dirty or received at least one update.
DecideFn = Callable[[int, Mapping[int, Any]], "tuple[Any, int] | None"]


@dataclass(frozen=True)
class EpochStats:
    """Traffic outcome of one epoch's incremental convergecast."""

    rounds: int
    activated: int
    transmissions: int
    suppressions: int


def epoch_convergecast(
    network: SensorNetwork,
    dirty: set[int],
    decide: DecideFn,
    protocol: str = "epoch-convergecast",
) -> EpochStats:
    """Run one epoch of change-driven leaves-to-root aggregation.

    ``dirty`` is the set of nodes whose local state changed this epoch; a node
    outside it is still activated if a descendant's update reaches it.  When
    nothing is dirty the traversal is skipped entirely and costs zero rounds,
    zero bits — the property that makes steady-state epochs free.

    Dirty nodes the current spanning tree does not span (crashed or cut off
    after a fault) are ignored on both execution paths: they have no route to
    the root until a repair re-attaches them.
    """
    if dirty:
        depth_of = network.tree.depth
        dirty = {node for node in dirty if node in depth_of}
    if not dirty:
        return EpochStats(rounds=0, activated=0, transmissions=0, suppressions=0)
    if network.execution == "per-edge":
        stats = _epoch_convergecast_per_edge(network, dirty, decide, protocol)
    else:
        stats = _epoch_convergecast_batched(network, dirty, decide, protocol)
    telemetry = network.telemetry
    if telemetry.enabled:
        telemetry.count("sweep.epochs", 1, protocol=protocol, path=network.execution)
        telemetry.count("sweep.rounds", stats.rounds, protocol=protocol)
        telemetry.count("sweep.activated", stats.activated, protocol=protocol)
        telemetry.count("sweep.transmissions", stats.transmissions, protocol=protocol)
        telemetry.count("sweep.suppressions", stats.suppressions, protocol=protocol)
    return stats


def _epoch_convergecast_batched(
    network: SensorNetwork,
    dirty: set[int],
    decide: DecideFn,
    protocol: str,
) -> EpochStats:
    depth_of = network.tree.depth
    deepest = max(depth_of[node] for node in dirty)
    parent_of = network.tree.parent
    ledger = network.ledger
    received: dict[int, dict[int, Any]] = {}
    # Only dirty nodes and nodes a delivery reaches ever act, so the sweep
    # tracks the active frontier per level instead of scanning whole levels —
    # a steady-state epoch with k dirty nodes is O(k · depth), not O(n).
    active_by_depth: list[set[int]] = [set() for _ in range(deepest + 1)]
    for node_id in dirty:
        active_by_depth[depth_of[node_id]].add(node_id)
    activated = transmissions = suppressions = 0
    for depth in range(deepest, -1, -1):
        links: list[tuple[int, int]] = []
        sizes: list[int] = []
        deliveries: list[tuple[int, int, Any]] = []
        # Ascending id order: the order the per-edge round engine visits.
        for node_id in sorted(active_by_depth[depth]):
            updates = received.pop(node_id, None)
            activated += 1
            decision = decide(node_id, updates if updates is not None else {})
            parent = parent_of[node_id]
            if parent is None:
                continue
            if decision is None:
                suppressions += 1
                continue
            payload, size_bits = decision
            transmissions += 1
            links.append((node_id, parent))
            sizes.append(size_bits)
            deliveries.append((parent, node_id, payload))
        if links:
            copies = network.send_batch(
                links, sizes, protocol=protocol, require_edge=False
            )
            # Only transmissions the radio actually delivered reach (and
            # thereby activate) the parent; duplicated deliveries (a
            # duplicating radio) overwrite, so delivery is idempotent.
            parents = active_by_depth[depth - 1]
            for (parent, sender, payload), count in zip(deliveries, copies):
                if count <= 0:
                    continue
                parents.add(parent)  # a tree parent is one level shallower
                inbox = received.get(parent)
                if inbox is None:
                    received[parent] = {sender: payload}
                else:
                    inbox[sender] = payload
        ledger.advance_round()
    return EpochStats(
        rounds=deepest + 1,
        activated=activated,
        transmissions=transmissions,
        suppressions=suppressions,
    )


def _epoch_convergecast_per_edge(
    network: SensorNetwork,
    dirty: set[int],
    decide: DecideFn,
    protocol: str,
) -> EpochStats:
    tree = network.tree
    deepest = max(tree.depth[node] for node in dirty)
    received: dict[int, dict[int, Any]] = {}
    counters = {"activated": 0, "transmissions": 0, "suppressions": 0}
    current = {"round": 0}

    def handler(
        net: SensorNetwork, node_id: int, inbox: list[object]
    ) -> dict[int, tuple[object, int]]:
        for sender, payload in inbox:  # duplicated deliveries overwrite: idempotent
            received.setdefault(node_id, {})[sender] = payload
        depth = tree.depth.get(node_id)
        if depth is None:  # crashed or cut off: not spanned by the repaired tree
            return {}
        if depth > deepest or deepest - depth != current["round"]:
            return {}
        updates = received.pop(node_id, {})
        if node_id not in dirty and not updates:
            return {}
        counters["activated"] += 1
        decision = decide(node_id, updates)
        parent = tree.parent[node_id]
        if parent is None:
            return {}
        if decision is None:
            counters["suppressions"] += 1
            return {}
        payload, size_bits = decision
        counters["transmissions"] += 1
        return {parent: ((node_id, payload), size_bits)}

    def advance(net: SensorNetwork, round_index: int) -> bool:
        current["round"] = round_index + 1
        return False

    engine = RoundEngine(network, protocol_name=protocol)
    result = engine.run(handler, max_rounds=deepest + 1, stop_condition=advance)
    return EpochStats(
        rounds=result.rounds_executed,
        activated=counters["activated"],
        transmissions=counters["transmissions"],
        suppressions=counters["suppressions"],
    )
