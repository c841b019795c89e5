"""Unit tests for the batched execution core.

Covers the flat-tree representation, batch charging and ledger marks, the
radio batch filter, and the batched send primitives on the simulator.  The
cross-path ledger equivalence property is in
``tests/test_execution_equivalence.py``.
"""

import re

import pytest

from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    TopologyError,
)
from repro.network.accounting import CommunicationLedger
from repro.network.flat_tree import FlatTree
from repro.network.radio import (
    DELIVERED_ONCE,
    DeliveryOutcome,
    LossyRadio,
    RadioModel,
    ReliableRadio,
)
from repro.network.simulator import EXECUTION_MODES, SensorNetwork
from repro.network.topology import (
    grid_topology,
    line_topology,
    random_geometric_topology,
    star_topology,
)
from repro.protocols.base import MeteredRun


def build_network(num_nodes=25, topology="grid", **kwargs):
    return SensorNetwork.from_items(
        list(range(num_nodes)), topology=topology, **kwargs
    )


class TestFlatTree:
    @pytest.fixture(
        params=[
            grid_topology(5, 5),
            line_topology(12),
            star_topology(9),
            random_geometric_topology(30, seed=7),
        ],
        ids=["grid", "line", "star", "geometric"],
    )
    def network(self, request):
        items = list(range(request.param.number_of_nodes()))
        return SensorNetwork.from_items(items, topology=request.param)

    def test_matches_spanning_tree_structure(self, network):
        tree = network.tree
        flat = network.flat_tree
        assert flat.num_nodes == tree.num_nodes
        assert flat.height == tree.height
        assert flat.root_id == tree.root
        assert flat.node_ids[0] == tree.root
        for position, node_id in enumerate(flat.node_ids):
            assert flat.depth[position] == tree.depth[node_id]
            parent = tree.parent[node_id]
            if parent is None:
                assert flat.parent[position] == -1
                assert flat.parent_id(node_id) is None
            else:
                assert flat.node_ids[flat.parent[position]] == parent
                assert flat.parent_id(node_id) == parent
            children = [
                flat.node_ids[child] for child in flat.children_of(position)
            ]
            assert children == tree.children[node_id]

    def test_traversal_orders_match_spanning_tree(self, network):
        tree = network.tree
        flat = network.flat_tree
        assert list(flat.nodes_bottom_up()) == tree.nodes_bottom_up()
        assert flat.nodes_top_down() == tree.nodes_top_down()

    def test_level_spans_partition_canonical_order(self, network):
        flat = network.flat_tree
        covered = []
        for depth, (start, end) in enumerate(flat.level_spans):
            assert start <= end
            for position in range(start, end):
                assert flat.depth[position] == depth
            covered.extend(range(start, end))
        assert covered == list(range(flat.num_nodes))

    def test_up_links_are_bottom_up_child_parent_edges(self, network):
        tree = network.tree
        flat = network.flat_tree
        expected = [
            (node_id, tree.parent[node_id])
            for node_id in tree.nodes_bottom_up()
            if tree.parent[node_id] is not None
        ]
        assert flat.up_links == expected

    def test_down_links_are_top_down_fanout_edges(self, network):
        tree = network.tree
        flat = network.flat_tree
        expected = [
            (node_id, child)
            for node_id in tree.nodes_top_down()
            for child in tree.children[node_id]
        ]
        assert flat.down_links == expected

    def test_cache_invalidated_by_rebuild(self):
        network = build_network(20, topology="single_hop")
        first = network.flat_tree
        assert network.flat_tree is first  # cached
        network.rebuild_tree(degree_bound=None)
        rebuilt = network.flat_tree
        assert rebuilt is not first
        assert list(rebuilt.nodes_bottom_up()) == network.tree.nodes_bottom_up()

    def test_from_spanning_tree_alias(self):
        network = build_network(9)
        flat = FlatTree.from_spanning_tree(network.tree)
        assert flat.node_ids == network.flat_tree.node_ids


class TestChargeBatch:
    def test_matches_sequential_charges(self):
        batched = CommunicationLedger()
        sequential = CommunicationLedger()
        links = [(0, 1), (1, 2), (0, 1), (2, 3)]
        sizes = [8, 16, 24, 32]
        copies = [1, 2, 1, 3]
        batched.charge_batch(links, sizes, copies, protocol="P")
        for (sender, receiver), size, count in zip(links, sizes, copies):
            for _ in range(count):
                sequential.charge(sender, receiver, size, protocol="P")
        assert batched.snapshot() == sequential.snapshot()

    def test_copies_none_means_once_each(self):
        ledger = CommunicationLedger()
        ledger.charge_batch([(0, 1), (1, 0)], [10, 20])
        assert ledger.total_bits == 30
        assert ledger.total_messages == 2
        assert ledger.node_bits(0) == 30
        assert ledger.node_bits(1) == 30

    def test_zero_copies_skipped(self):
        ledger = CommunicationLedger()
        ledger.charge_batch([(0, 1), (1, 2)], [10, 10], [0, 1])
        assert ledger.total_bits == 10
        assert ledger.total_messages == 1
        assert ledger.node_bits(0) == 0

    def test_negative_size_rejected(self):
        ledger = CommunicationLedger()
        with pytest.raises(Exception):
            ledger.charge_batch([(0, 1)], [-1])

    def test_budget_enforced_in_batch(self):
        ledger = CommunicationLedger(per_node_budget_bits=30)
        with pytest.raises(BudgetExceededError):
            ledger.charge_batch([(0, 1), (0, 1)], [20, 20])
        # The first transmission was committed before the breach, exactly as
        # on the per-edge path.
        assert ledger.node_bits(0) == 40

    def test_total_bits_counter_consistent(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 5)
        ledger.charge_batch([(1, 2)], [7], [2])
        assert ledger.total_bits == 5 + 14
        assert ledger.snapshot().total_bits == ledger.total_bits

    def test_empty_batch_leaves_no_trace(self):
        ledger = CommunicationLedger()
        ledger.charge_batch([], [], protocol="P")
        ledger.charge_batch([(0, 1)], [8], [0], protocol="Q")  # all skipped
        assert ledger.per_protocol_bits() == {}
        assert ledger.snapshot() == CommunicationLedger().snapshot()

    def test_counters_snapshot_matches_totals_without_per_node_copy(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 12, protocol="P")
        ledger.advance_round(2)
        cheap = ledger.counters_snapshot()
        full = ledger.snapshot()
        assert cheap.total_bits == full.total_bits
        assert cheap.messages == full.messages
        assert cheap.rounds == full.rounds
        assert cheap.per_protocol_bits == full.per_protocol_bits
        assert cheap.per_node_bits == {}

    def test_mid_batch_bad_size_mutates_nothing(self):
        ledger = CommunicationLedger()
        with pytest.raises(Exception):
            ledger.charge_batch([(0, 1), (1, 2)], [8, -4])
        # Sizes are validated up front, so the ledger stays untouched and
        # internally consistent (totals match per-node counters).
        assert ledger.total_bits == 0
        assert ledger.max_node_bits == 0
        assert ledger.total_messages == 0


class TestLedgerMarks:
    def test_deltas_cover_touched_nodes_only(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 100)
        mark = ledger.mark()
        ledger.charge(1, 2, 8)
        deltas = ledger.node_deltas_since(mark)
        assert deltas == {1: 8, 2: 8}
        assert ledger.max_node_delta_since(mark) == 8
        assert 0 not in deltas  # untouched during the interval

    def test_nested_marks_measure_their_own_intervals(self):
        ledger = CommunicationLedger()
        outer = ledger.mark()
        ledger.charge(0, 1, 10)
        inner = ledger.mark()
        ledger.charge(0, 1, 5)
        assert ledger.max_node_delta_since(inner) == 5
        assert ledger.max_node_delta_since(outer) == 15
        ledger.release(inner)
        ledger.release(outer)

    def test_release_is_idempotent_and_preserves_baselines(self):
        ledger = CommunicationLedger()
        mark = ledger.mark()
        ledger.charge(3, 4, 6)
        ledger.release(mark)
        ledger.release(mark)
        assert ledger.node_deltas_since(mark) == {3: 6, 4: 6}
        # New traffic after release is no longer tracked by the mark.
        ledger.charge(5, 6, 9)
        assert 5 not in ledger.node_deltas_since(mark)

    def test_reset_rebases_active_marks(self):
        ledger = CommunicationLedger()
        ledger.charge(0, 1, 50)
        mark = ledger.mark()
        ledger.reset()
        ledger.charge(0, 1, 4)
        assert ledger.max_node_delta_since(mark) == 4
        assert ledger.total_bits - mark.total_bits == 4

    def test_merge_records_baselines_for_active_marks(self):
        ledger = CommunicationLedger()
        other = CommunicationLedger()
        other.charge(7, 8, 12)
        mark = ledger.mark()
        ledger.merge(other)
        assert ledger.node_deltas_since(mark) == {7: 12, 8: 12}
        assert ledger.total_bits - mark.total_bits == 12

    def test_metered_run_uses_marks(self):
        network = build_network(9)
        with MeteredRun(network) as metered:
            network.send(0, 1, "x", 32, protocol="T")
            result = metered.result("answer")
        assert result.value == "answer"
        assert result.total_bits == 32
        assert result.max_node_bits == 32
        assert result.messages == 1


class TestFilterBatch:
    def test_reliable_radio_shares_singleton_outcome(self):
        outcomes = ReliableRadio().filter_batch([(0, 1), (1, 2)])
        assert list(outcomes) == [DELIVERED_ONCE, DELIVERED_ONCE]

    def test_lossy_radio_batch_matches_sequential_transmits(self):
        links = [(i, i + 1) for i in range(200)]
        batch_radio = LossyRadio(loss_rate=0.4, seed=11)
        sequential_radio = LossyRadio(loss_rate=0.4, seed=11)
        batched = list(batch_radio.filter_batch(links))
        sequential = [sequential_radio.transmit(s, r) for s, r in links]
        assert batched == sequential

    def test_custom_radio_falls_back_to_transmit_in_order(self):
        calls = []

        class Recorder(RadioModel):
            def transmit(self, sender, receiver):
                calls.append((sender, receiver))
                return DeliveryOutcome(attempts=1, copies_delivered=1)

        links = [(0, 1), (2, 3), (4, 5)]
        outcomes = Recorder().filter_batch(links)
        assert calls == links
        assert len(outcomes) == 3


class TestBatchedSendPrimitives:
    def test_send_batch_charges_like_sends(self):
        batched = build_network(9)
        reference = build_network(9)
        links = [(0, 1), (1, 2)]
        sizes = [8, 24]
        batched.send_batch(links, sizes, protocol="T")
        for (sender, receiver), size in zip(links, sizes):
            reference.send(sender, receiver, "x", size, protocol="T")
        assert batched.ledger.snapshot() == reference.ledger.snapshot()

    def test_send_batch_validates_lengths(self):
        network = build_network(4, topology="line")
        with pytest.raises(ConfigurationError):
            network.send_batch([(0, 1)], [8, 8])

    def test_send_batch_validates_nodes_and_edges(self):
        network = build_network(4, topology="line")
        with pytest.raises(ConfigurationError):
            network.send_batch([(0, 99)], [8])
        with pytest.raises(TopologyError):
            network.send_batch([(0, 2)], [8])
        # Unknown endpoints fail fast even when the edge check is waived.
        with pytest.raises(ConfigurationError):
            network.send_batch([(0, 99)], [8], require_edge=False)
        assert network.ledger.total_bits == 0
        assert 99 not in set(network.ledger.nodes())

    def test_send_up_tree_rejects_root_and_unknown(self):
        network = build_network(4, topology="line")
        with pytest.raises(ConfigurationError):
            network.send_up_tree([(network.root_id, 8)])
        with pytest.raises(ConfigurationError):
            network.send_up_tree([(99, 8)])

    def test_send_up_tree_charges_child_parent_edge(self):
        network = build_network(4, topology="line")
        copies = network.send_up_tree([(2, 16)], protocol="UP")
        assert copies == [1]
        parent = network.tree.parent[2]
        assert network.ledger.node_bits(2) == 16
        assert network.ledger.node_bits(parent) == 16

    def test_send_down_tree_fans_out_to_children(self):
        network = build_network(7, topology="single_hop", degree_bound=None)
        deliveries = network.send_down_tree([(network.root_id, 8)], protocol="DOWN")
        assert [child for child, _ in deliveries] == network.tree.children[
            network.root_id
        ]
        assert all(copies == 1 for _, copies in deliveries)

    def test_lossy_send_batch_matches_per_edge_charges(self):
        links = [(0, 1), (1, 2), (2, 3)] * 10
        sizes = [8] * len(links)
        batched = build_network(4, topology="line", radio=LossyRadio(0.5, seed=3))
        reference = build_network(4, topology="line", radio=LossyRadio(0.5, seed=3))
        batched.send_batch(links, sizes, protocol="T")
        for (sender, receiver), size in zip(links, sizes):
            reference.send(sender, receiver, "x", size, protocol="T")
        assert batched.ledger.snapshot() == reference.ledger.snapshot()


class TestExecutionMode:
    def test_default_is_batched(self):
        assert build_network(4, topology="line").execution == "batched"

    def test_modes_validated(self):
        network = build_network(4, topology="line")
        # "sharded" is a removed mode: it must fail like any unknown one.
        for unknown in ("warp-speed", "sharded"):
            with pytest.raises(ConfigurationError, match=re.escape(repr(EXECUTION_MODES))):
                network.execution = unknown
        with pytest.raises(ConfigurationError):
            SensorNetwork.from_items([1, 2], topology="line", execution="bogus")
        for mode in EXECUTION_MODES:
            network.execution = mode

    def test_node_ids_sorted_and_mutation_safe(self):
        network = build_network(16)
        first = network.node_ids()
        assert first == sorted(first)
        first.reverse()  # callers may mutate their copy freely
        assert network.node_ids() == sorted(network.node_ids())
        assert [node.node_id for node in network.nodes()] == network.node_ids()
