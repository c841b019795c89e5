"""Convergecast: leaves-to-root aggregation over the spanning tree.

The TAG idea (and the paper's Fact 2.1) is that a node does not forward raw
data; it combines its children's partial aggregates with its own local value
and sends a single partial aggregate to its parent.  The generic traversal
below is parameterised by

* ``local_value`` — the node's own contribution (computed locally, free),
* ``combine`` — the aggregation operator (must be associative and commutative
  for the result to be independent of child ordering),
* ``size_bits`` — the wire size of a partial aggregate, either a constant or
  a callable evaluated on the value actually sent (so adaptive encodings are
  charged faithfully).

Two execution paths implement the same traversal, selected by
``network.execution``:

* *batched* (default) — walks the :class:`~repro.network.flat_tree.FlatTree`
  arrays, collects the size of every upward transmission of the sweep, and
  charges them over the precomputed ``flat.up_links`` in one
  :meth:`~repro.network.SensorNetwork.send_batch` call
  (:func:`charge_up_sweep`).  This is what lets the simulator run 100k-node
  fields.
* *per-edge* — the reference implementation: one
  :meth:`~repro.network.SensorNetwork.send` per tree edge.

Both visit nodes, combine partials and draw radio randomness in exactly the
same order, so they produce bit-for-bit identical ledgers and results (the
equivalence test-suite enforces this across topologies and radio models).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.network.simulator import SensorNetwork

T = TypeVar("T")


def convergecast(
    network: SensorNetwork,
    local_value: Callable[..., T],
    combine: Callable[[T, T], T],
    size_bits: int | Callable[[T], int],
    protocol: str = "convergecast",
) -> T:
    """Aggregate ``local_value`` over all nodes, returning the root's total.

    ``local_value`` receives the :class:`~repro.network.SensorNode`; the
    traversal visits nodes bottom-up so every child has produced its partial
    aggregate before its parent combines it.  The number of synchronous rounds
    consumed equals the tree height.
    """
    if network.execution == "per-edge":
        return _convergecast_per_edge(
            network, local_value, combine, size_bits, protocol
        )
    return _convergecast_batched(network, local_value, combine, size_bits, protocol)


def _convergecast_batched(
    network: SensorNetwork,
    local_value: Callable[..., T],
    combine: Callable[[T, T], T],
    size_bits: int | Callable[[T], int],
    protocol: str,
) -> T:
    flat = network.flat_tree
    nodes = network.node_map
    node_ids = flat.node_ids
    parent = flat.parent
    child_start = flat.child_start
    child_end = flat.child_end
    child_index = flat.child_index
    values: list[T | None] = [None] * flat.num_nodes
    # Every non-root node sends exactly once, in bottom-up order — the edge
    # sequence is the precomputed flat.up_links; only the sizes are dynamic.
    # An adaptive size callable is invoked exactly as on the per-edge path:
    # once per transmitting (non-root) node, in the same order.
    sizes: list[int] = []
    append_size = sizes.append
    adaptive = callable(size_bits)
    for position in flat.bottom_up:
        value = local_value(nodes[node_ids[position]])
        start = child_start[position]
        end = child_end[position]
        if start != end:
            for slot in range(start, end):
                value = combine(value, values[child_index[slot]])
        values[position] = value
        if adaptive and parent[position] >= 0:
            append_size(size_bits(value))
    charge_up_sweep(network, sizes if adaptive else size_bits, protocol)
    return values[0]  # the root has canonical index 0


def charge_up_sweep(
    network: SensorNetwork, size_bits: int | list[int], protocol: str
) -> None:
    """Charge one full bottom-up sweep: every non-root node sends once.

    The links are ``flat.up_links`` — the per-edge convergecast's
    transmission order — and ``size_bits`` is either one constant size or
    a list of one size per link.  The sweep consumes ``flat.height``
    synchronous rounds.
    Callers that compute the root's aggregate without a tree walk (the
    batched APX_COUNT fold) charge through here so their ledger and radio
    draws are exactly those of :func:`convergecast`.
    """
    flat = network.flat_tree
    links = flat.up_links
    sizes = size_bits if isinstance(size_bits, list) else [size_bits] * len(links)
    network.send_batch(links, sizes, protocol=protocol, require_edge=False)
    network.ledger.advance_round(flat.height)


def _convergecast_per_edge(
    network: SensorNetwork,
    local_value: Callable[..., T],
    combine: Callable[[T, T], T],
    size_bits: int | Callable[[T], int],
    protocol: str,
) -> T:
    tree = network.tree
    partial: dict[int, T] = {}
    for node_id in tree.nodes_bottom_up():
        node = network.node(node_id)
        value = local_value(node)
        for child in tree.children[node_id]:
            value = combine(value, partial.pop(child))
        partial[node_id] = value
        parent = tree.parent[node_id]
        if parent is not None:
            bits = size_bits(value) if callable(size_bits) else size_bits
            network.send(node_id, parent, value, bits, protocol=protocol)
    network.ledger.advance_round(tree.height)
    return partial[network.root_id]
