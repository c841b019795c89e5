"""Self-healing spanning trees: incremental re-attachment of orphaned subtrees.

When a node crashes (or a tree link drops), each of its surviving child
subtrees becomes an *orphan unit*: an intact tree fragment with no route to
the root.  Rebuilding the whole BFS tree from scratch costs a flood over
every alive graph edge plus a full summary recompute — :class:`TreeRepair`
instead re-attaches each unit through a local adoption handshake:

1. compute the *attached* set — alive nodes still connected to the root via
   surviving tree edges — and group the remaining alive nodes into orphan
   units (maximal fragments of surviving tree edges; a rejoining node is a
   singleton unit);
2. grow an adoption frontier outward from the attached region: when an
   attached node ``a`` hears an orphaned graph-neighbour ``x``, ``x`` adopts
   ``a`` as its parent (one request + one ack on the graph edge) and the
   unit re-roots itself at ``x`` by reversing the parent pointers along the
   path from ``x`` to the fragment's old top — one small pointer-flip
   message per reversed edge.  Every other member keeps its parent and
   children untouched, which is what lets the streaming layer re-synchronise
   only along repaired paths.  A handshake whose radio delivery *permanently*
   fails does not kill the epoch: the unit falls back to its next candidate
   attachment point, and the repair aborts only when every candidate of an
   orphan unit has been exhausted;
3. repeat wave by wave until no orphan is adjacent to the attached region;
   whatever remains is *detached* (physically cut off) and rejoins
   automatically once connectivity returns.

Two execution paths implement the sweep, selected by
``network.execution`` exactly as the protocol traversals do:

* *per-edge* — the reference implementation: the adoption frontier scans
  every attached node's neighbourhood wave by wave, and the repaired tree is
  rebuilt into fresh dictionaries.  O(alive graph edges) per fault epoch.
* *batched* (default) — operates on the
  :class:`~repro.network.FlatTree` arrays: the attached set falls out of one
  top-down array sweep, adoption candidates are enumerated from the (small)
  orphan side through a priority queue that reproduces the reference scan
  order exactly, the rebuild-vs-incremental estimate short-circuits without
  touching the edge set, and the spanning tree plus its flat view are
  patched **in place** via :meth:`~repro.network.FlatTree.rewire` instead of
  rebuilt.  O(damage) where the reference path is O(alive edges).

Both paths attempt the same adoptions in the same order and push every
control message through :meth:`~repro.network.SensorNetwork.send_batch`, so
their ledgers — including lossy-radio retries — are bit-for-bit identical
(enforced by the randomized equivalence suite).

When the *estimated* incremental cost exceeds ``rebuild_threshold`` times
the estimated flood cost — or when ``strategy="rebuild"`` pins the naive
policy for baselines — the repair falls back to rebuilding the BFS tree of
the alive root-component from scratch, charging the flood (two tokens per
alive edge, one parent-ack per node) that a distributed BFS construction
costs.  The fault benchmarks measure exactly this trade.

Even the root may die.  A repair that finds the root dead defers to its
configured :class:`~repro.faults.RootElection` (raising
:class:`~repro.exceptions.ConfigurationError` when none is wired up): the
election charges a leader handover under its own ``faults:election`` ledger
key and re-roots the network's identity at the highest surviving id, after
which the repair pass runs *seeded* — the winner's surviving fragment,
re-rooted along the election's reversed root path, plays the role of the
attached region, and every other fragment re-attaches through the ordinary
adoption cascade.  The seeded pass materialises the re-rooted tree through
:func:`~repro.network.spanning_tree.tree_from_parents` on both execution
paths (a root change moves every depth, so the O(damage) in-place
:meth:`~repro.network.FlatTree.rewire` has no edge to offer), and the
resulting :class:`RepairResult` carries the
:class:`~repro.faults.ElectionResult` so stream recovery can migrate its
caches along the reversed path.

**Ledger keys.**  All repair control traffic — adoption request/ack pairs,
pointer flips, rebuild flood tokens and parent acks — is charged under
``faults:repair`` (:attr:`TreeRepair.protocol`); a root fail-over's
election traffic lands under ``faults:election`` and heartbeat sweeps
under ``faults:heartbeat``, so per-protocol ledger snapshots decompose the
resilience bill exactly.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from collections import deque
from itertools import compress
from dataclasses import dataclass, field
from typing import Callable

import networkx as nx

from repro.exceptions import ConfigurationError, DeliveryError
from repro.faults.election import ElectionResult, RootElection
from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.network.spanning_tree import (
    bfs_tree,
    bounded_degree_tree,
    tree_from_parents,
)

#: Valid values of :attr:`TreeRepair.strategy`.
REPAIR_STRATEGIES = ("incremental", "rebuild")

#: Adoption request an orphan sends to an attached graph-neighbour
#: (type + epoch tag + fragment size estimate).
ATTACH_REQUEST_BITS = 32
#: The adopter's acknowledgement (type + its own level).
ATTACH_ACK_BITS = 16
#: Pointer-flip notification along the re-rooting path inside a unit.
REVERSAL_BITS = 16
#: One BFS-construction token, flooded over every alive edge (both
#: directions) by the rebuild-from-scratch fallback.
REBUILD_TOKEN_BITS = 16
#: Parent-choice acknowledgement each node sends once during a rebuild.
REBUILD_ACK_BITS = 16


@dataclass(frozen=True)
class RepairResult:
    """What one repair pass did to the spanning tree.

    ``parent_changed`` lists the nodes (attached in the new tree) whose
    parent pointer changed — exactly the nodes whose next transmission must
    be a full summary, since their new parent caches nothing for them.
    ``child_losses`` lists ``(parent, lost_child)`` pairs for parents that
    remain attached — the cache entries the streaming layer must evict.
    ``removed`` are previously-spanned nodes no longer in the tree (crashed
    or cut off); ``detached`` are alive nodes left without a route to the
    root.  On a full rebuild both patch lists are empty and consumers reset
    everything instead.

    ``election`` is set when this repair pass began with a root fail-over:
    the attached :class:`~repro.faults.ElectionResult` carries the handover
    (old/new root, reversed root path, election bits); ``control_bits``
    still counts the repair's own traffic only, so the two cost streams
    stay separable.
    """

    strategy: str
    rebuilt: bool
    parent_changed: tuple[int, ...]
    child_losses: tuple[tuple[int, int], ...]
    removed: tuple[int, ...]
    detached: tuple[int, ...]
    control_bits: int
    control_messages: int
    rounds: int
    election: ElectionResult | None = None

    @property
    def changed_anything(self) -> bool:
        return self.strategy != "noop"


_NOOP = RepairResult(
    strategy="noop",
    rebuilt=False,
    parent_changed=(),
    child_losses=(),
    removed=(),
    detached=(),
    control_bits=0,
    control_messages=0,
    rounds=0,
)


@dataclass
class _Cascade:
    """Mutable bookkeeping shared by one adoption sweep.

    Both execution paths feed the same fields in the same order, so the
    results they materialise afterwards are identical.  ``deferred_links`` /
    ``deferred_sizes`` buffer the control traffic when the radio is the
    perfect-delivery singleton: no handshake can fail, so charging the whole
    cascade in one ledger batch is bit-for-bit the same as charging each
    adoption as it happens — minus thousands of tiny batch calls.
    """

    attached: set
    parent_overrides: dict[int, int] = field(default_factory=dict)
    parent_changed: list[int] = field(default_factory=list)
    adopted_units: list[tuple[int, int, int]] = field(default_factory=list)
    attach_log: list[int] = field(default_factory=list)
    failed_units: set[int] = field(default_factory=set)
    waves: int = 0
    deferred_links: list[tuple[int, int]] | None = None
    deferred_sizes: list[int] | None = None


class TreeRepair:
    """Incremental spanning-tree repair with a rebuild-from-scratch fallback."""

    def __init__(
        self,
        strategy: str = "incremental",
        rebuild_threshold: float = 1.0,
        protocol: str = "faults:repair",
        execution: str | None = None,
        election: RootElection | None = None,
    ) -> None:
        if strategy not in REPAIR_STRATEGIES:
            raise ConfigurationError(
                f"unknown repair strategy {strategy!r}; known: {REPAIR_STRATEGIES}"
            )
        if rebuild_threshold <= 0:
            raise ConfigurationError(
                f"rebuild_threshold must be positive, got {rebuild_threshold}"
            )
        if execution is not None and execution not in ("batched", "per-edge"):
            raise ConfigurationError(
                f"unknown execution mode {execution!r}; known: batched, per-edge"
            )
        self.strategy = strategy
        self.rebuild_threshold = rebuild_threshold
        self.protocol = protocol
        #: Which repair implementation to run; ``None`` (default) follows
        #: ``network.execution``, an explicit value pins one path — the fault
        #: benchmarks use this to race the two repair implementations on
        #: identical batched-core networks.
        self.execution = execution
        #: How to replace a dead root.  ``None`` means a dead root is an
        #: error at repair time; :class:`~repro.faults.FaultEngine` installs
        #: a default :class:`~repro.faults.RootElection` here so scripted
        #: :class:`~repro.faults.RootCrash` events fail over out of the box.
        self.election = election

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def repair(
        self, network: SensorNetwork, election: RootElection | None = None
    ) -> RepairResult:
        """Re-span the alive, root-connected population; return what changed.

        Reads the network's graph, spanning tree and alive-mask; installs the
        repaired :class:`~repro.network.SpanningTree` on the network and
        charges every control message to the ledger under :attr:`protocol`.
        Returns a no-op result when the existing tree already spans exactly
        the attachable population.  Dispatches on ``network.execution``; the
        two paths are ledger-identical and produce identical trees.

        A dead root defers to ``election`` (falling back to
        :attr:`election`): the handover is charged and the repair runs
        seeded with the winner's re-rooted fragment — see the module
        docstring.  With no election configured a dead root raises
        :class:`~repro.exceptions.ConfigurationError`.

        Raises :class:`~repro.exceptions.DeliveryError` when an orphan unit
        with at least one permanently-failed adoption handshake exhausted
        every candidate attachment point; the partially repaired tree (with
        such units detached) is installed first, and the completed
        :class:`RepairResult` rides on the exception as ``repair_result``.
        """
        telemetry = network.telemetry
        with telemetry.span("repair", strategy=self.strategy) as span:
            result = self._repair_impl(network, election)
            if telemetry.enabled:
                span.annotate(
                    rebuilt=result.rebuilt,
                    reparented=len(result.parent_changed),
                    detached=len(result.detached),
                )
                telemetry.count("repair.passes", 1)
                if result.rebuilt:
                    telemetry.count("repair.fallbacks", 1)
        return result

    def _repair_impl(
        self, network: SensorNetwork, election: RootElection | None
    ) -> RepairResult:
        elected: ElectionResult | None = None
        if not network.is_alive(network.root_id):
            chooser = election if election is not None else self.election
            if chooser is None:
                raise ConfigurationError(
                    "cannot repair a network whose root is dead without an "
                    "election; configure TreeRepair(election=RootElection()) "
                    "or drive repairs through FaultEngine, which wires one up"
                )
            elected = chooser.elect(network)
        execution = self.execution if self.execution is not None else network.execution
        if execution == "per-edge":
            return self._repair_per_edge(network, elected)
        return self._repair_batched(network, elected)

    # ------------------------------------------------------------------ #
    # Per-edge reference path
    # ------------------------------------------------------------------ #
    def _repair_per_edge(
        self, network: SensorNetwork, elected: ElectionResult | None = None
    ) -> RepairResult:
        tree = network.tree
        graph = network.graph
        root = network.root_id
        old_parent = tree.parent
        old_children = tree.children
        has_edge = graph.has_edge
        is_alive = network.is_alive

        if elected is not None:
            # Root fail-over: the election already decided the attached
            # region — the winner's surviving fragment, re-rooted along the
            # charged reversed root path.  Everything else cascades as usual.
            attached = set(elected.winner_fragment)
        else:
            # Survivors: BFS from the root over tree edges whose child end
            # is alive and whose graph edge still exists.
            attached = {root}
            stack = [root]
            while stack:
                node = stack.pop()
                for child in old_children[node]:
                    if is_alive(child) and has_edge(child, node):
                        attached.add(child)
                        stack.append(child)

        unattached = [
            node for node in network.alive_node_ids() if node not in attached
        ]
        old_nodes = set(old_parent)
        if not unattached and attached == old_nodes:
            return _NOOP

        if self.strategy == "rebuild":
            return self._rebuild(network, old_nodes, elected)

        units, unit_id, unit_parent = self._orphan_units(network, unattached)
        if units and self._should_rebuild(network, units, unattached):
            return self._rebuild(network, old_nodes, elected)

        before = network.ledger.counters_snapshot()
        cascade = _Cascade(attached=attached)
        # ``get``: a seeded fragment may contain the winner as a node an
        # earlier repair left outside the tree (a detached survivor), which
        # has no old parent to inherit.
        new_parent: dict[int, int | None] = {
            node: old_parent.get(node) for node in attached
        }
        if elected is not None:
            new_parent[elected.new_root] = None
            for node, new_par in elected.flips:
                new_parent[node] = new_par
            cascade.parent_changed.extend(node for node, _ in elected.flips)
        frontier = sorted(attached)
        while frontier:
            wave_added: list[int] = []
            for adopter in frontier:
                for orphan in sorted(graph.neighbors(adopter)):
                    if orphan in attached or not is_alive(orphan):
                        continue
                    self._adopt_unit(
                        network,
                        orphan,
                        adopter,
                        units,
                        unit_id,
                        unit_parent,
                        cascade,
                        wave_added,
                    )
            if wave_added:
                cascade.waves += 1
            frontier = wave_added

        for member in cascade.attach_log:
            new_parent[member] = cascade.parent_overrides.get(
                member, unit_parent[member]
            )

        detached = tuple(
            node for node in sorted(unit_id) if node not in attached
        )
        child_losses: list[tuple[int, int]] = []
        for child, parent in old_parent.items():
            if parent is None or parent not in attached:
                continue
            if new_parent.get(child) != parent:
                child_losses.append((parent, child))
        removed = tuple(sorted(old_nodes - attached))

        network.tree = tree_from_parents(
            root, {node: new_parent[node] for node in attached}
        )
        network.ledger.advance_round(cascade.waves)
        after = network.ledger.counters_snapshot()
        result = RepairResult(
            strategy="incremental",
            rebuilt=False,
            parent_changed=tuple(cascade.parent_changed),
            child_losses=tuple(sorted(child_losses)),
            removed=removed,
            detached=detached,
            control_bits=after.total_bits - before.total_bits,
            control_messages=after.messages - before.messages,
            rounds=cascade.waves,
            election=elected,
        )
        self._raise_if_exhausted(cascade, units, result)
        return result

    # ------------------------------------------------------------------ #
    # Batched path: flat arrays, orphan-side candidates, in-place patch
    # ------------------------------------------------------------------ #
    def _repair_batched(
        self, network: SensorNetwork, elected: ElectionResult | None = None
    ) -> RepairResult:
        if elected is not None:
            return self._repair_batched_seeded(network, elected)
        tree = network.tree
        flat = network.flat_tree
        adjacency = network.graph._adj  # raw dict-of-dicts: the hot sweeps
        node_ids = flat.node_ids
        parent_pos = flat.parent
        num_old = flat.num_nodes
        dead = set(network.dead_node_ids())

        # Attached sweep: canonical order is top-down, so each node's parent
        # has already been classified when the node is reached.  The sweep
        # simultaneously collects the alive old-tree nodes that fell off;
        # the attached set itself is materialised in one C pass afterwards.
        attached_mask = bytearray(num_old)
        unattached_tree: list[int] = []
        if num_old:
            attached_mask[0] = 1
        for position in range(1, num_old):
            node = node_ids[position]
            if node in dead:
                continue
            if attached_mask[parent_pos[position]] and node in adjacency[
                node_ids[parent_pos[position]]
            ]:
                attached_mask[position] = 1
            else:
                unattached_tree.append(node)
        attached = set(compress(node_ids, attached_mask))

        # Alive nodes outside the old tree (rejoined or reconnecting after a
        # detachment) exist only when the population counts disagree; the
        # common fault epoch skips the full scan.
        if len(attached) + len(unattached_tree) == network.num_alive:
            unattached = sorted(unattached_tree)
        else:
            unattached = [
                node for node in network.alive_node_ids() if node not in attached
            ]
        if not unattached and len(attached) == num_old:
            return _NOOP

        if self.strategy == "rebuild":
            return self._rebuild(network, set(tree.parent))

        units, unit_id, unit_parent = self._orphan_units(network, unattached)
        if units and self._should_rebuild_batched(
            network, units, unattached, len(attached)
        ):
            return self._rebuild(network, set(tree.parent))

        before = network.ledger.counters_snapshot()
        cascade = _Cascade(attached=attached)
        if type(network.radio) is ReliableRadio:
            cascade.deferred_links = []
            cascade.deferred_sizes = []
        remaining = set(unattached)
        self._adoption_cascade_batched(
            network, adjacency, units, unit_id, unit_parent, cascade, remaining
        )
        if cascade.deferred_links:
            network.send_batch(
                cascade.deferred_links,
                cascade.deferred_sizes,
                protocol=self.protocol,
                require_edge=False,
            )

        detached = tuple(
            node for node in sorted(unit_id) if node not in attached
        )

        # O(damage) bookkeeping: the only candidates for a cache eviction or
        # a removal are reparented nodes and old-tree nodes that fell out.
        old_parent = tree.parent
        removed_list = [node for node in sorted(dead) if node in old_parent]
        removed_list.extend(node for node in detached if node in old_parent)
        removed = tuple(sorted(removed_list))
        parent_overrides = cascade.parent_overrides
        child_losses: list[tuple[int, int]] = []
        for child in cascade.parent_changed:
            old = old_parent.get(child)
            if old is not None and old in attached and parent_overrides[child] != old:
                child_losses.append((old, child))
        for child in removed:
            old = old_parent[child]
            if old is not None and old in attached:
                child_losses.append((old, child))
        child_losses.sort()

        self._patch_tree_in_place(
            network, flat, cascade, units, unit_parent, removed, child_losses
        )

        network.ledger.advance_round(cascade.waves)
        after = network.ledger.counters_snapshot()
        result = RepairResult(
            strategy="incremental",
            rebuilt=False,
            parent_changed=tuple(cascade.parent_changed),
            child_losses=tuple(child_losses),
            removed=removed,
            detached=detached,
            control_bits=after.total_bits - before.total_bits,
            control_messages=after.messages - before.messages,
            rounds=cascade.waves,
        )
        self._raise_if_exhausted(cascade, units, result)
        return result

    def _repair_batched_seeded(
        self, network: SensorNetwork, elected: ElectionResult
    ) -> RepairResult:
        """Root fail-over repair on the batched path.

        The adoption cascade still runs on the orphan-side candidate
        machinery (sets, adjacency, the per-unit heap), but the attached
        region is seeded from the election instead of swept out of the flat
        arrays — the flat view is rooted at the dead root and useless here —
        and the re-rooted tree is materialised through
        :func:`~repro.network.spanning_tree.tree_from_parents`: a root
        change moves every depth, so the O(damage) in-place rewire has
        nothing to save.  Both execution paths therefore build the fail-over
        tree identically, and their ledgers stay bit-for-bit equal.
        """
        tree = network.tree
        adjacency = network.graph._adj
        old_parent = tree.parent
        old_nodes = set(old_parent)
        attached = set(elected.winner_fragment)
        unattached = [
            node for node in network.alive_node_ids() if node not in attached
        ]

        if self.strategy == "rebuild":
            return self._rebuild(network, old_nodes, elected)
        units, unit_id, unit_parent = self._orphan_units(network, unattached)
        if units and self._should_rebuild_batched(
            network, units, unattached, len(attached)
        ):
            return self._rebuild(network, old_nodes, elected)

        before = network.ledger.counters_snapshot()
        cascade = _Cascade(attached=attached)
        cascade.parent_changed.extend(node for node, _ in elected.flips)
        if type(network.radio) is ReliableRadio:
            cascade.deferred_links = []
            cascade.deferred_sizes = []
        remaining = set(unattached)
        self._adoption_cascade_batched(
            network, adjacency, units, unit_id, unit_parent, cascade, remaining
        )
        if cascade.deferred_links:
            network.send_batch(
                cascade.deferred_links,
                cascade.deferred_sizes,
                protocol=self.protocol,
                require_edge=False,
            )

        detached = tuple(
            node for node in sorted(unit_id) if node not in attached
        )
        new_parent: dict[int, int | None] = {
            node: old_parent.get(node) for node in elected.winner_fragment
        }
        new_parent[elected.new_root] = None
        for node, new_par in elected.flips:
            new_parent[node] = new_par
        for member in cascade.attach_log:
            new_parent[member] = cascade.parent_overrides.get(
                member, unit_parent[member]
            )
        child_losses: list[tuple[int, int]] = []
        for child, parent in old_parent.items():
            if parent is None or parent not in attached:
                continue
            if new_parent.get(child) != parent:
                child_losses.append((parent, child))
        removed = tuple(sorted(old_nodes - attached))

        network.tree = tree_from_parents(
            network.root_id, {node: new_parent[node] for node in attached}
        )
        network.ledger.advance_round(cascade.waves)
        after = network.ledger.counters_snapshot()
        result = RepairResult(
            strategy="incremental",
            rebuilt=False,
            parent_changed=tuple(cascade.parent_changed),
            child_losses=tuple(sorted(child_losses)),
            removed=removed,
            detached=detached,
            control_bits=after.total_bits - before.total_bits,
            control_messages=after.messages - before.messages,
            rounds=cascade.waves,
            election=elected,
        )
        self._raise_if_exhausted(cascade, units, result)
        return result

    def _adoption_cascade_batched(
        self,
        network: SensorNetwork,
        adjacency,
        units: list[list[int]],
        unit_id: dict[int, int],
        unit_parent: dict[int, int | None],
        cascade: _Cascade,
        remaining: set[int],
    ) -> None:
        """Run the adoption waves from the orphan side.

        The reference scan attempts candidate ``(adopter, orphan)`` pairs in
        ascending ``(adopter rank, orphan id)`` order within a wave, where
        rank is the adopter's id in wave one and its position in the
        previous wave's attach order afterwards; a pair is only *attempted*
        while its orphan's unit is unattached.  The globally next attempted
        pair is therefore the minimum over units of each unit's cheapest
        untried candidate — a priority queue over per-unit minima reproduces
        the exact sequence while only ever touching the orphan side's
        adjacency, which is what makes the pass O(damage).
        """
        attached = cascade.attached
        added_in_cascade: set[int] = set()
        wave_members: list[int] | None = None  # None = wave one (original attached)
        while remaining:
            # Cheapest candidate per unit, scanned from whichever side of the
            # attached/orphan boundary has fewer nodes — both scans visit the
            # same boundary edges, and the minimum per unit is the same.
            best: dict[int, tuple[int, int]] = {}
            if wave_members is None:
                # Wave one: the adopters are the original attached set and
                # nothing has been adopted yet, so C-level set intersections
                # against the adjacency key views do the boundary scan.
                if len(attached) < len(remaining):
                    for adopter in attached:
                        for orphan in remaining.intersection(adjacency[adopter]):
                            unit = unit_id[orphan]
                            key = (adopter, orphan)
                            if unit not in best or key < best[unit]:
                                best[unit] = key
                else:
                    for orphan in remaining:
                        hits = attached.intersection(adjacency[orphan])
                        if hits:
                            unit = unit_id[orphan]
                            key = (min(hits), orphan)
                            if unit not in best or key < best[unit]:
                                best[unit] = key
                in_cascade = added_in_cascade

                def rank_of(
                    neighbor: int,
                    _attached=attached,
                    _in_cascade=in_cascade,
                ) -> int | None:
                    if neighbor in _attached and neighbor not in _in_cascade:
                        return neighbor
                    return None

                def adopter_of(rank: int) -> int:
                    return rank
            else:
                position_of = {
                    member: position for position, member in enumerate(wave_members)
                }
                get_position = position_of.get
                if len(wave_members) < len(remaining):
                    for position, adopter in enumerate(wave_members):
                        for orphan in remaining.intersection(adjacency[adopter]):
                            unit = unit_id[orphan]
                            key = (position, orphan)
                            if unit not in best or key < best[unit]:
                                best[unit] = key
                else:
                    member_set = set(position_of)
                    for orphan in remaining:
                        hits = member_set.intersection(adjacency[orphan])
                        if hits:
                            rank_min = min(position_of[hit] for hit in hits)
                            unit = unit_id[orphan]
                            key = (rank_min, orphan)
                            if unit not in best or key < best[unit]:
                                best[unit] = key

                def rank_of(neighbor: int, _get=get_position) -> int | None:
                    return _get(neighbor)

                def adopter_of(rank: int, _members=wave_members) -> int:
                    return _members[rank]

            wave_added = self._run_wave(
                network,
                adjacency,
                units,
                unit_id,
                unit_parent,
                cascade,
                remaining,
                added_in_cascade,
                best,
                rank_of,
                adopter_of,
            )
            if not wave_added:
                break
            cascade.waves += 1
            wave_members = wave_added

    def _run_wave(
        self,
        network: SensorNetwork,
        adjacency,
        units: list[list[int]],
        unit_id: dict[int, int],
        unit_parent: dict[int, int | None],
        cascade: _Cascade,
        remaining: set[int],
        added_in_cascade: set[int],
        best: dict[int, tuple[int, int]],
        rank_of: Callable[[int], int | None],
        adopter_of: Callable[[int], int],
    ) -> list[int]:
        heap = [(rank, orphan, unit) for unit, (rank, orphan) in best.items()]
        heapq.heapify(heap)

        # Full per-unit candidate lists are materialised only after a failed
        # handshake (rare), to find the unit's next attachment point.
        fallback: dict[int, tuple[list[tuple[int, int]], int]] = {}
        wave_added: list[int] = []
        while heap:
            rank, orphan, unit = heapq.heappop(heap)
            if units[unit][0] in cascade.attached:
                continue  # defensive: the unit was adopted already
            adopter = adopter_of(rank)
            adopted = self._adopt_unit(
                network,
                orphan,
                adopter,
                units,
                unit_id,
                unit_parent,
                cascade,
                wave_added,
            )
            if adopted:
                for member in units[unit]:
                    remaining.discard(member)
                    added_in_cascade.add(member)
                continue
            entry = fallback.get(unit)
            if entry is None:
                pairs: list[tuple[int, int]] = []
                for member in units[unit]:
                    for neighbor in adjacency[member]:
                        neighbor_rank = rank_of(neighbor)
                        if neighbor_rank is not None:
                            pairs.append((neighbor_rank, member))
                pairs.sort()
                entry = (pairs, bisect_right(pairs, (rank, orphan)))
            pairs, cursor = entry
            if cursor < len(pairs):
                next_rank, next_orphan = pairs[cursor]
                fallback[unit] = (pairs, cursor + 1)
                heapq.heappush(heap, (next_rank, next_orphan, unit))
        return wave_added

    def _patch_tree_in_place(
        self,
        network: SensorNetwork,
        flat,
        cascade: _Cascade,
        units: list[list[int]],
        unit_parent: dict[int, int | None],
        removed: tuple[int, ...],
        child_losses: list[tuple[int, int]],
    ) -> None:
        """Apply the cascade to the tree dictionaries and rewire the flat view.

        Touches only removed nodes, reparented nodes and re-attached unit
        members; every other entry — and its position in the canonical
        traversal order — is untouched, which is what keeps the pass
        O(damage) instead of O(network).
        """
        tree = network.tree
        parent_map = tree.parent
        children = tree.children
        depth_map = tree.depth
        overrides = cascade.parent_overrides

        for parent, child in child_losses:
            children[parent].remove(child)
        for node in removed:
            del parent_map[node]
            del children[node]
            del depth_map[node]

        new_depths: dict[int, int] = {}
        for unit, contact, adopter in cascade.adopted_units:
            members = units[unit]
            if len(members) == 1:
                # Singleton fast path: one pointer, one depth, no re-rooting
                # (the common case under churn and every rejoin).
                if contact not in parent_map:
                    children[contact] = []
                parent_map[contact] = adopter
                insort(children[adopter], contact)
                level = depth_map[adopter] + 1
                depth_map[contact] = level
                new_depths[contact] = level
                continue
            final_parent = {
                member: overrides.get(member, unit_parent[member])
                for member in members
            }
            for member in members:
                target = final_parent[member]
                if member in parent_map:
                    if parent_map[member] != target:
                        parent_map[member] = target
                        insort(children[target], member)
                else:
                    # A node re-entering the tree (rejoined, or reconnected
                    # after being detached) arrives as a singleton unit.
                    parent_map[member] = target
                    children[member] = []
                    insort(children[target], member)
            # Fresh depths ripple out from the contact point; the adopter's
            # depth is final because units are processed in adoption order.
            kids_within: dict[int, list[int]] = {}
            for member in members:
                kids_within.setdefault(final_parent[member], []).append(member)
            queue = deque([(contact, depth_map[adopter] + 1)])
            while queue:
                member, level = queue.popleft()
                depth_map[member] = level
                new_depths[member] = level
                for child in kids_within.get(member, ()):
                    queue.append((child, level + 1))

        network.set_tree(
            tree,
            flat_tree=flat.rewire(
                removed=removed, reparented=overrides, depths=new_depths
            ),
        )

    # ------------------------------------------------------------------ #
    # Shared adoption transaction
    # ------------------------------------------------------------------ #
    def _adopt_unit(
        self,
        network: SensorNetwork,
        orphan: int,
        adopter: int,
        units: list[list[int]],
        unit_id: dict[int, int],
        unit_parent: dict[int, int | None],
        cascade: _Cascade,
        wave_added: list[int],
    ) -> bool:
        """Attempt one adoption handshake; on success re-root the unit.

        The request/ack pair and the pointer-flip chain are charged through
        the radio models *at adoption time*, so a permanent delivery failure
        of the handshake leaves the unit unattached (the caller falls back
        to its next candidate) instead of aborting the repair.  A failure
        inside the pointer-flip chain still propagates: the unit is already
        committed to its new attachment point at that stage.
        """
        links = [(orphan, adopter), (adopter, orphan)]
        sizes = [ATTACH_REQUEST_BITS, ATTACH_ACK_BITS]
        reversal_path: list[int] = []
        child = orphan
        ancestor = unit_parent[orphan]
        while ancestor is not None:
            links.append((child, ancestor))
            sizes.append(REVERSAL_BITS)
            reversal_path.append(ancestor)
            child = ancestor
            ancestor = unit_parent[ancestor]
        if cascade.deferred_links is not None:
            # Perfect radio: no handshake can fail, charge the cascade in
            # one batch at the end (identical ledger, far fewer calls).
            cascade.deferred_links.extend(links)
            cascade.deferred_sizes.extend(sizes)
        else:
            try:
                network.send_batch(
                    links, sizes, protocol=self.protocol, require_edge=False
                )
            except DeliveryError as error:
                delivered = getattr(error, "outcomes_before_failure", ())
                if len(delivered) < 2:
                    # The handshake itself never completed: nothing was
                    # committed, the caller may try another attachment point.
                    cascade.failed_units.add(unit_id[orphan])
                    return False
                raise  # a pointer flip failed after the unit committed
        unit = unit_id[orphan]
        cascade.adopted_units.append((unit, orphan, adopter))
        telemetry = network.telemetry
        if telemetry.enabled:
            telemetry.event(
                "repair.adoption",
                node=orphan,
                adopter=adopter,
                unit_size=len(units[unit]),
            )
        overrides = cascade.parent_overrides
        changed = cascade.parent_changed
        overrides[orphan] = adopter
        changed.append(orphan)
        child = orphan
        for ancestor in reversal_path:
            overrides[ancestor] = child
            changed.append(ancestor)
            child = ancestor
        attached = cascade.attached
        attach_log = cascade.attach_log
        for member in units[unit]:
            attached.add(member)
            attach_log.append(member)
            wave_added.append(member)
        return True

    def _raise_if_exhausted(
        self,
        cascade: _Cascade,
        units: list[list[int]],
        result: RepairResult,
    ) -> None:
        exhausted = sorted(
            unit
            for unit in cascade.failed_units
            if units[unit][0] not in cascade.attached
        )
        if exhausted:
            members = [tuple(units[unit]) for unit in exhausted]
            error = DeliveryError(
                f"adoption exhausted every candidate attachment point for "
                f"orphan unit(s) {members}; the repaired tree (with those "
                "units detached) was installed before raising"
            )
            error.repair_result = result
            raise error

    # ------------------------------------------------------------------ #
    # Orphan-unit discovery (shared; O(damage))
    # ------------------------------------------------------------------ #
    def _orphan_units(
        self,
        network: SensorNetwork,
        unattached: list[int],
    ) -> tuple[list[list[int]], dict[int, int], dict[int, int | None]]:
        """Group unattached alive nodes into maximal surviving tree fragments.

        Returns ``(units, unit_id, unit_parent)``: member lists per unit, the
        node → unit index, and each node's surviving old parent *within its
        unit* (``None`` at the fragment top).  A unit is a subtree of the old
        tree, so exactly one member has no in-unit parent.
        """
        tree = network.tree
        old_parent = tree.parent
        old_children = tree.children
        adjacency = network.graph._adj
        get_parent = old_parent.get
        get_children = old_children.get
        unattached_set = set(unattached)
        unit_id: dict[int, int] = {}
        unit_parent: dict[int, int | None] = {}
        units: list[list[int]] = []
        for start in unattached:  # ascending ids: deterministic unit numbering
            if start in unit_id:
                continue
            # ``members`` doubles as the BFS queue: the cursor walks it while
            # discovery appends, preserving the exact breadth-first member
            # order the per-edge path produces.
            members = [start]
            unit = len(units)
            unit_id[start] = unit
            cursor = 0
            while cursor < len(members):
                node = members[cursor]
                cursor += 1
                parent = get_parent(node)
                neighbors = adjacency[node]
                if (
                    parent is not None
                    and parent in unattached_set
                    and parent in neighbors
                ):
                    unit_parent[node] = parent
                    if parent not in unit_id:
                        unit_id[parent] = unit
                        members.append(parent)
                else:
                    unit_parent[node] = None
                for child in get_children(node, ()):
                    if (
                        child in unattached_set
                        and child in neighbors
                        and child not in unit_id
                    ):
                        unit_id[child] = unit
                        members.append(child)
            units.append(members)
        return units, unit_id, unit_parent

    # ------------------------------------------------------------------ #
    # Rebuild-vs-incremental estimate
    # ------------------------------------------------------------------ #
    def _should_rebuild(
        self,
        network: SensorNetwork,
        units: list[list[int]],
        unattached: list[int],
    ) -> bool:
        """Compare the incremental cost upper bound against the flood estimate.

        The reference computation: one pass over the whole edge set.
        """
        estimated_incremental = len(units) * (
            ATTACH_REQUEST_BITS + ATTACH_ACK_BITS
        ) + len(unattached) * REVERSAL_BITS
        is_alive = network.is_alive
        alive_edges = sum(
            1 for u, v in network.graph.edges() if is_alive(u) and is_alive(v)
        )
        estimated_rebuild = (
            2 * alive_edges + network.num_alive
        ) * REBUILD_TOKEN_BITS
        return estimated_incremental > self.rebuild_threshold * estimated_rebuild

    def _should_rebuild_batched(
        self,
        network: SensorNetwork,
        units: list[list[int]],
        unattached: list[int],
        num_attached: int,
    ) -> bool:
        """Same decision as :meth:`_should_rebuild` without the edge scan.

        The surviving tree edges alone bound the alive edge count from
        below — the attached region is connected (``num_attached - 1``
        edges) and every orphan unit is a surviving fragment (``size - 1``
        edges each) — which bounds the flood estimate from below and settles
        the comparison whenever the incremental estimate is already cheaper
        than that, the common case by orders of magnitude.  Only near the
        boundary is the exact count computed, and then from the (small) dead
        boundary rather than the whole edge set: an edge is dead exactly
        when it touches a dead node.
        """
        estimated_incremental = len(units) * (
            ATTACH_REQUEST_BITS + ATTACH_ACK_BITS
        ) + len(unattached) * REVERSAL_BITS
        surviving_tree_edges = (
            max(0, num_attached - 1) + len(unattached) - len(units)
        )
        lower_bound = (
            2 * surviving_tree_edges + network.num_alive
        ) * REBUILD_TOKEN_BITS
        if estimated_incremental <= self.rebuild_threshold * lower_bound:
            return False
        adjacency = network.graph._adj
        dead = network.dead_node_ids()
        dead_set = set(dead)
        incident = 0
        dead_to_dead = 0
        for node in dead:
            neighbors = adjacency[node]
            incident += len(neighbors)
            for neighbor in neighbors:
                if neighbor in dead_set:
                    dead_to_dead += 1
        alive_edges = (
            network.graph.number_of_edges() - incident + dead_to_dead // 2
        )
        estimated_rebuild = (
            2 * alive_edges + network.num_alive
        ) * REBUILD_TOKEN_BITS
        return estimated_incremental > self.rebuild_threshold * estimated_rebuild

    # ------------------------------------------------------------------ #
    # Rebuild-from-scratch fallback (shared)
    # ------------------------------------------------------------------ #
    def _rebuild(
        self,
        network: SensorNetwork,
        old_nodes: set[int],
        elected: ElectionResult | None = None,
    ) -> RepairResult:
        graph = network.graph
        root = network.root_id
        alive = set(network.alive_node_ids())
        component = nx.node_connected_component(graph.subgraph(alive), root)
        component_graph = graph.subgraph(component)
        if network.degree_bound is None:
            tree = bfs_tree(component_graph, root)
        else:
            tree = bounded_degree_tree(
                component_graph, root, max_degree=network.degree_bound
            )
        # A distributed BFS construction floods a token over every usable
        # edge in both directions, then every node acks its chosen parent.
        links: list[tuple[int, int]] = []
        sizes: list[int] = []
        for u, v in component_graph.edges():
            links.append((u, v))
            sizes.append(REBUILD_TOKEN_BITS)
            links.append((v, u))
            sizes.append(REBUILD_TOKEN_BITS)
        for node, parent in tree.parent.items():
            if parent is not None:
                links.append((node, parent))
                sizes.append(REBUILD_ACK_BITS)
        network.tree = tree
        rounds = tree.height + 1
        before = network.ledger.counters_snapshot()
        if links:
            network.send_batch(links, sizes, protocol=self.protocol, require_edge=False)
        network.ledger.advance_round(rounds)
        after = network.ledger.counters_snapshot()
        telemetry = network.telemetry
        if telemetry.enabled:
            telemetry.event(
                "repair.rebuild",
                node=root,
                component_size=len(component),
                edges=component_graph.number_of_edges(),
            )
        return RepairResult(
            strategy="rebuild",
            rebuilt=True,
            parent_changed=(),
            child_losses=(),
            removed=tuple(sorted(old_nodes - component)),
            detached=tuple(sorted(alive - component)),
            control_bits=after.total_bits - before.total_bits,
            control_messages=after.messages - before.messages,
            rounds=rounds,
            election=elected,
        )


def attached_mask_vectorized(flat, alive):
    """Root-connectivity as one top-down array sweep over a flat tree.

    The array counterpart of the batched repair's attached-set computation,
    for callers that hold a :class:`~repro.network.FlatTree` plus an
    ``alive`` boolean mask over its canonical positions (the standalone
    :class:`~repro.network.vector_field.VectorField`): a node is attached
    iff it is alive and its parent is attached, seeded at the root.  One
    whole-array pass per tree level, O(n) total, no per-node Python.

    Returns a new boolean mask; ``alive`` is not modified.  The in-tree
    repair machinery is unaffected — under ``execution="vectorized"`` the
    :class:`TreeRepair` dispatch routes to the batched implementation, whose ledger is the reference.
    """
    from repro._util.fastpath import require_numpy

    require_numpy("vectorized attach sweep")
    attached = alive.copy()
    parent = flat.parent
    for start, end in flat.level_spans[1:]:
        attached[start:end] &= attached[parent[start:end]]
    return attached
