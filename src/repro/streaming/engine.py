"""The continuous-query engine: incremental aggregates over evolving readings.

:class:`ContinuousQueryEngine` registers standing queries against a
:class:`~repro.network.SensorNetwork` and advances the network through
*epochs*.  Per epoch it

1. applies the stream's reading updates to the nodes (sensing is free),
2. recomputes the local summary of every updated node and marks the node
   dirty if the summary actually changed,
3. runs one :func:`~repro.protocols.epoch_convergecast.epoch_convergecast`
   per query, in which an activated node merges its cached children summaries
   with its own and retransmits only when the result differs from what it
   last sent by more than the ε-slack (transmissions are charged at *delta*
   cost against the parent's cached copy), and
4. reads the answers off the root's merged summary and appends an
   :class:`~repro.streaming.trace.EpochRecord` to the trace.

The suppression rule allocates each node an absolute slack of
``ε · scale / n``, where ``scale`` is the *largest* answer magnitude seen so
far (a high-water mark: a node that suppressed long ago may still be stale,
so the budget must cover the scale at which it suppressed).  At most ``n``
nodes can be stale at once and each holds back a change of distance at most
its slack, so the root answer is within ``ε · scale`` of the unsuppressed
answer at every epoch — the same additive guarantee whether the stream
drifts, bursts or churns.  Steady-state communication is therefore
proportional to *change*: an epoch in which nothing moves costs zero bits.

This module is the *reference* implementation: per-node Python state, one
``decide`` callback per active node, any summary type.  For count-valued
queries at production scale, :mod:`repro.streaming.vector_engine` provides
:class:`~repro.streaming.vector_engine.VectorStreamEngine`, a drop-in
subclass that runs the same epoch as whole-array level sweeps while
staying bit-for-bit ledger-identical;
:func:`~repro.streaming.vector_engine.engine_for` picks the right engine
for a network's execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.network.energy import EnergyModel
from repro.network.simulator import SensorNetwork
from repro.protocols.broadcast import broadcast
from repro.protocols.epoch_convergecast import EpochStats, epoch_convergecast
from repro.streaming.queries import REGISTRATION_BITS, StandingQuery
from repro.streaming.summaries import StreamSummary
from repro.streaming.trace import EpochRecord, StreamingTrace, build_epoch_record


@dataclass
class _NodeQueryState:
    """Per-(node, query) cached state."""

    local: StreamSummary | None = None
    children: dict[int, StreamSummary] = field(default_factory=dict)
    subtree: StreamSummary | None = None
    transmitted: StreamSummary | None = None


@dataclass
class _QueryState:
    """Per-query engine state."""

    query: StandingQuery
    nodes: dict[int, _NodeQueryState]
    initialized: bool = False
    scale: float = 0.0


class ContinuousQueryEngine:
    """Serve standing aggregate queries over a time-evolving sensor network."""

    protocol_prefix = "stream"

    def __init__(
        self,
        network: SensorNetwork,
        epsilon: float = 0.1,
        energy_model: EnergyModel | None = None,
    ) -> None:
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
        self.network = network
        self.epsilon = epsilon
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.trace = StreamingTrace()
        self._queries: dict[str, _QueryState] = {}
        self._answers: dict[str, Any] = {}
        self._pending_dirty: set[int] = set()
        #: Last epoch's "anything transmitting?" truth, for the
        #: ``suppression.flip`` flight event (``None`` before any epoch).
        self._suppression_state: bool | None = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query: StandingQuery, announce: bool = True) -> None:
        """Register a standing query under ``name``.

        The root announces the query down the tree once (a constant-size
        description, charged like the one-shot protocols' request broadcast);
        from then on the query is answered every epoch until the engine is
        discarded.  Queries registered after epochs have already run are
        bootstrapped on the next epoch by treating every node as dirty.
        """
        if name in self._queries:
            raise ConfigurationError(f"query {name!r} is already registered")
        self._queries[name] = _QueryState(
            query=query,
            nodes={
                node_id: _NodeQueryState()
                for node_id in self.network.attached_node_ids()
            },
        )
        if announce:
            broadcast(
                self.network,
                {"register": name, "kind": query.kind},
                REGISTRATION_BITS,
                protocol=f"{self.protocol_prefix}:{name}:register",
            )

    def queries(self) -> dict[str, StandingQuery]:
        """The registered queries by name."""
        return {name: state.query for name, state in self._queries.items()}

    def answers(self) -> dict[str, Any]:
        """The most recent per-query answers (empty before the first epoch)."""
        return dict(self._answers)

    def root_summary(self, name: str) -> StreamSummary | None:
        """The root's merged subtree summary for one registered query.

        ``None`` until something has reached the root.  This is the
        shared-plan hook the tenancy layer derives per-tenant answers
        from (:mod:`repro.tenancy`): answer parameters excluded from the
        plan signature — a quantile's fraction — are applied to this one
        summary at the root instead of costing extra convergecasts.
        """
        try:
            state = self._queries[name]
        except KeyError:
            raise ConfigurationError(f"unknown query {name!r}") from None
        root_state = state.nodes.get(self.network.root_id)
        return None if root_state is None else root_state.subtree

    @property
    def epoch(self) -> int:
        """Number of epochs advanced so far."""
        return len(self.trace)

    # ------------------------------------------------------------------ #
    # Fault recovery
    # ------------------------------------------------------------------ #
    def apply_root_change(self, election) -> None:
        """Migrate the summary caches after a root fail-over.

        ``election`` is an :class:`~repro.faults.ElectionResult` (duck-typed,
        like :meth:`apply_repair`'s argument) describing a charged handover:
        the old root died, the highest surviving id won, and the tree was
        re-rooted by reversing the parent pointers along
        ``election.reversed_path``.  Instead of cold-resyncing the field,
        the caches *migrate* along that reversed path only:

        * the old root's per-query state is dropped (its caches died with
          it);
        * every node on the path evicts the cached summary of its former
          child that is now its parent (a subtree summary must never count
          its new ancestors), forgets what it last transmitted (its new
          parent caches nothing for it) and is marked dirty — its next
          transmission is one full subtree summary, after which deltas
          resume;
        * every node *off* the path keeps its caches and stays silent: its
          subtree, and therefore everything it ever transmitted, is
          unchanged by the handover.

        Fragments that were not the winner's re-attach through the ordinary
        repair recovery (:meth:`apply_repair`, called with the seeded
        repair's result right after this).  Idempotent and safe to call
        before or after :meth:`apply_repair` for the same epoch.
        """
        if election is None:
            return
        new_root = election.new_root
        path = tuple(election.reversed_path)
        dirty: set[int] = set()
        for state in self._queries.values():
            nodes = state.nodes
            nodes.pop(election.old_root, None)
            previous: int | None = None
            for member in path:
                node_state = nodes.get(member)
                if node_state is None:
                    node_state = nodes[member] = _NodeQueryState()
                if previous is not None:
                    node_state.children.pop(previous, None)
                node_state.transmitted = None
                dirty.add(member)
                previous = member
            if new_root not in nodes:
                nodes[new_root] = _NodeQueryState()
        # The winner must re-read its subtree even if nothing else changed,
        # so the standing answers move to the new root this epoch.
        dirty.add(new_root)
        self._pending_dirty |= dirty
        self._record_root_change_evictions(path)

    def apply_repair(self, result) -> None:
        """Re-synchronise the summary caches after a spanning-tree repair.

        ``result`` is a :class:`~repro.faults.RepairResult` (duck-typed, so
        the streaming layer does not import the faults package); the batched
        and per-edge repair implementations produce identical results, so
        recovery is oblivious to which one ran.  The recovery protocol
        re-transmits only along repaired paths:

        * nodes whose parent changed forget what they last transmitted (the
          new parent caches nothing for them) and are marked dirty — their
          next transmission is one full subtree summary, after which deltas
          resume;
        * parents that lost a child evict that child's cached summary and
          are marked dirty, so the loss propagates up as deltas;
        * crashed / cut-off nodes are dropped from the per-query state;
          every *other* node's caches remain valid and it stays silent.

        Only a full rebuild (``result.rebuilt``) resets every cache — that
        is exactly the recompute cost the incremental path avoids, and what
        the fault benchmarks measure.
        """
        if result is None or not getattr(result, "changed_anything", True):
            return
        tree_nodes = self.network.tree.parent
        if result.rebuilt:
            for state in self._queries.values():
                state.nodes = {
                    node_id: _NodeQueryState() for node_id in tree_nodes
                }
                state.initialized = False
            self._pending_dirty = set(tree_nodes)
            self._record_evictions(result)
            return
        dirty: set[int] = set()
        removed = set(result.removed)
        for state in self._queries.values():
            nodes = state.nodes
            for node_id in removed:
                nodes.pop(node_id, None)
            for parent, child in result.child_losses:
                parent_state = nodes.get(parent)
                if parent_state is not None:
                    parent_state.children.pop(child, None)
                    dirty.add(parent)
            for node_id in result.parent_changed:
                node_state = nodes.get(node_id)
                if node_state is None:
                    node_state = nodes[node_id] = _NodeQueryState()
                node_state.transmitted = None
                dirty.add(node_id)
            # Nodes that re-entered the tree after being dropped in an
            # earlier repair (a region detached for several epochs) need
            # fresh state and a full retransmission, even off the reversal
            # path — their old caches died with the states.
            for node_id in tree_nodes:
                if node_id not in nodes:
                    nodes[node_id] = _NodeQueryState()
                    dirty.add(node_id)
        self._pending_dirty |= {node for node in dirty if node in tree_nodes}
        self._record_evictions(result)

    def _record_evictions(self, result) -> None:
        """Flight events for the cache evictions a repair just caused.

        Called once per recovery (the evictions are identical for every
        registered query).  A rebuild resets every cache, so it emits one
        aggregated event; the incremental path emits one per evicted
        ``(parent, child)`` cache pair.
        """
        telemetry = self.network.telemetry
        if not telemetry.enabled:
            return
        if getattr(result, "rebuilt", False):
            telemetry.event(
                "cache.evict",
                count=len(self.network.tree.parent),
                site="rebuild-reset",
            )
            return
        for parent, child in result.child_losses:
            telemetry.event(
                "cache.evict", node=parent, child=child, site="repair"
            )

    def _record_root_change_evictions(self, path) -> None:
        """Flight events for the cache migration along a re-rooted path."""
        telemetry = self.network.telemetry
        if not telemetry.enabled:
            return
        for previous, member in zip(path, path[1:]):
            telemetry.event(
                "cache.evict", node=member, child=previous, site="root-change"
            )

    # ------------------------------------------------------------------ #
    # Epoch execution
    # ------------------------------------------------------------------ #
    def advance_epoch(
        self, updates: Mapping[int, Sequence[int]] | None = None
    ) -> EpochRecord:
        """Apply one epoch of reading updates and refresh every query's answer.

        ``updates`` maps node id → its new item list (an empty list takes the
        node offline).  Nodes not listed keep their readings.  Returns the
        epoch's :class:`~repro.streaming.trace.EpochRecord` (also appended to
        :attr:`trace`).
        """
        if not self._queries:
            raise ConfigurationError(
                "no standing queries registered; call register() first"
            )
        updates = dict(updates or {})
        # Totals-only diff: build_epoch_record never reads per-node bits, so
        # a steady-state epoch stays O(touched), not O(network size).
        before = self.network.ledger.counters_snapshot()
        self.network.assign_items(
            {node_id: list(items) for node_id, items in updates.items()}
        )

        # Nodes marked dirty by a tree repair (see apply_repair) join this
        # epoch's traversal for every query, then the backlog is cleared.
        pending = self._pending_dirty
        self._pending_dirty = set()
        tree_nodes = self.network.tree.parent
        total_dirty: set[int] = set()
        stats_total = {"transmissions": 0, "suppressions": 0}
        telemetry = self.network.telemetry
        stream_span = telemetry.span("stream", epoch=len(self.trace))
        with stream_span:
            for name, state in self._queries.items():
                dirty = self._refresh_local_summaries(state, updates)
                dirty |= pending
                dirty = {node for node in dirty if node in tree_nodes}
                total_dirty |= dirty
                with telemetry.span("convergecast", query=name):
                    stats = self._run_query_epoch(name, state, dirty)
                stats_total["transmissions"] += stats.transmissions
                stats_total["suppressions"] += stats.suppressions
                self._read_answer(name, state)
            if telemetry.enabled:
                stream_span.annotate(
                    dirty_nodes=len(total_dirty),
                    transmissions=stats_total["transmissions"],
                    suppressions=stats_total["suppressions"],
                )
                transmitting = stats_total["transmissions"] > 0
                if (
                    self._suppression_state is not None
                    and transmitting != self._suppression_state
                ):
                    telemetry.event(
                        "suppression.flip",
                        direction="transmitting" if transmitting else "quiet",
                        transmissions=stats_total["transmissions"],
                        suppressions=stats_total["suppressions"],
                    )
                self._suppression_state = transmitting

        after = self.network.ledger.counters_snapshot()
        record = build_epoch_record(
            epoch=len(self.trace),
            answers=self._answers,
            before=before,
            after=after,
            num_nodes=self.network.num_nodes,
            energy_model=self.energy_model,
            dirty_nodes=len(total_dirty),
            transmissions=stats_total["transmissions"],
            suppressions=stats_total["suppressions"],
            query_names=list(self._queries),
            protocol_prefix=self.protocol_prefix,
        )
        self.trace.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _refresh_local_summaries(
        self, state: _QueryState, updates: Mapping[int, Sequence[int]]
    ) -> set[int]:
        """Recompute local summaries of updated nodes; return the dirty set.

        Updates addressed to nodes the engine no longer tracks (crashed or
        cut off by faults) are ignored — their readings cannot reach the
        root until a repair re-attaches them, at which point
        :meth:`apply_repair` recreates their state.
        """
        if state.initialized:
            candidates = set(updates)
        else:
            candidates = set(state.nodes)
            state.initialized = True
        dirty: set[int] = set()
        for node_id in candidates:
            node_state = state.nodes.get(node_id)
            if node_state is None:
                continue
            new_local = state.query.local_summary(self.network.node(node_id).items)
            if node_state.local is None or not new_local.same_as(node_state.local):
                node_state.local = new_local
                dirty.add(node_id)
        return dirty

    def _slack(self, state: _QueryState) -> float:
        return self.epsilon * state.scale / max(1, self.network.num_nodes)

    def _run_query_epoch(
        self, name: str, state: _QueryState, dirty: set[int]
    ) -> EpochStats:
        slack = self._slack(state)

        def decide(
            node_id: int, received: Mapping[int, StreamSummary]
        ) -> tuple[StreamSummary, int] | None:
            node_state = state.nodes[node_id]
            for child, summary in received.items():
                node_state.children[child] = summary
            subtree = node_state.local
            if subtree is None:  # a query registered before any epoch ran
                subtree = state.query.local_summary(self.network.node(node_id).items)
                node_state.local = subtree
            for summary in node_state.children.values():
                subtree = subtree.merge(summary)
            node_state.subtree = subtree
            if self.network.tree.parent[node_id] is None:
                return None
            if node_state.transmitted is None:
                bits = subtree.serialized_bits()
            elif subtree.distance(node_state.transmitted) <= slack:
                return None
            else:
                # A wholesale content shift can make the delta cost more than
                # starting over; a real sender picks the cheaper frame, at the
                # price of one flag bit telling the receiver which it got.
                bits = 1 + min(
                    subtree.delta_bits(node_state.transmitted),
                    subtree.serialized_bits(),
                )
            node_state.transmitted = subtree
            return subtree, bits

        return epoch_convergecast(
            self.network,
            dirty,
            decide,
            protocol=f"{self.protocol_prefix}:{name}",
        )

    def _read_answer(self, name: str, state: _QueryState) -> None:
        root_state = state.nodes[self.network.root_id]
        if root_state.subtree is None:
            return  # nothing has ever reached the root for this query
        self._answers[name] = state.query.answer(root_state.subtree)
        # High-water mark: suppressed residue from an epoch with a larger
        # answer persists until those nodes re-activate, so both the slack and
        # the reported bound must keep covering the largest scale seen.
        state.scale = max(state.scale, state.query.scale(root_state.subtree))

    def error_bounds(self) -> dict[str, float]:
        """Per-query absolute answer-error guarantees.

        Bounds are relative to the largest answer magnitude seen so far, not
        the instantaneous one — see the class docstring.
        """
        return {
            name: state.query.error_bound(self.epsilon, state.scale)
            for name, state in self._queries.items()
        }


def run_stream(
    engine: "ContinuousQueryEngine",
    stream,
    epochs: int,
) -> StreamingTrace:
    """Drive ``engine`` through ``epochs`` epochs of a stream workload.

    Epoch 0 applies the stream's initial assignment; later epochs apply its
    per-epoch updates.  Works with any engine exposing ``advance_epoch``
    (including :class:`~repro.streaming.recompute.RecomputeEngine`), so the
    incremental/naive comparison drives both through identical inputs.
    """
    if epochs <= 0:
        raise ConfigurationError(f"epochs must be positive, got {epochs}")
    engine.advance_epoch(stream.initial())
    for epoch in range(1, epochs):
        engine.advance_epoch(stream.step(epoch))
    return engine.trace
