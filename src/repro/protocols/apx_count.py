"""APX_COUNT — the α-counting protocol of Fact 2.2.

Each node folds its (predicate-matching) items into a small LogLog sketch;
sketches are merged register-wise up the spanning tree; the root reads off the
cardinality estimate.  Per Durand–Flajolet, with ``m`` registers the estimate
is essentially unbiased (α < 10⁻⁶) with relative standard deviation
``σ ≈ 1.30/√m``, and a sketch occupies ``m · O(log log N)`` bits — the
exponential saving over exact counting that Section 4 of the paper builds on.

Two counting modes are supported:

* ``"multiset"`` — every item contributes fresh randomness, so duplicates are
  counted (this realises the paper's APX_COUNT of |X|).  Each invocation uses
  a fresh salt so repeated runs (REP_COUNTP) are independent.
* ``"distinct"`` — items contribute the hash of their value, so duplicates
  collapse (this is the approximate COUNT DISTINCT of Section 5, and it also
  makes the protocol duplicate-insensitive at the transport level).

Execution paths.  The per-edge path runs the real tree merge through
:func:`~repro.protocols.convergecast.convergecast` — one sketch per node,
merged edge by edge — and is the reference oracle.  The batched and
vectorized paths fold every node's matching items straight into one sketch
and charge the sweep with
:func:`~repro.protocols.convergecast.charge_up_sweep`.  The two are
bit-identical: merge is a register-wise max, which is associative,
commutative and idempotent, so the root's registers do not depend on tree
shape or merge order; each node draws from the same per-node stream (or
hashes the same values) on both paths; and the sketch's wire size is a
constant, so the ledger charges and the radio's random draws over
``flat.up_links`` are exactly those of the tree merge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro._util.randomness import make_rng
from repro._util.validation import require_positive
from repro.exceptions import ConfigurationError
from repro.network.node import SensorNode
from repro.network.simulator import SensorNetwork
from repro.protocols.base import ItemView, MeteredRun, ProtocolResult, raw_items
from repro.protocols.broadcast import broadcast
from repro.protocols.convergecast import charge_up_sweep, convergecast
from repro.protocols.predicates import AllItemsPredicate, Predicate
from repro.sketches.hashing import hash64
from repro.sketches.hyperloglog import HyperLogLogSketch
from repro.sketches.loglog import LogLogSketch

_SALT_BITS = 32  # broadcast alongside the query so nodes agree on the hash salt

_SKETCH_TYPES = {
    "loglog": LogLogSketch,
    "hyperloglog": HyperLogLogSketch,
}


@dataclass(frozen=True)
class ApproxCountResult:
    """Root-side outcome of one APX_COUNT invocation."""

    estimate: float
    relative_sigma: float
    num_registers: int
    sketch_bits: int


class ApproxCountProtocol:
    """Distributed LogLog/HyperLogLog counting over the spanning tree.

    Args:
        num_registers: sketch size ``m`` (power of two).  Larger means lower
            variance and proportionally more bits per message.
        mode: ``"multiset"`` to count items with multiplicity, ``"distinct"``
            to count distinct values.
        sketch: ``"loglog"`` (the paper's reference [3]) or ``"hyperloglog"``.
        predicate: restrict counting to matching items (APX_COUNTP).
        seed: master seed; successive invocations derive fresh salts from it,
            so repeating the protocol yields independent estimates.
        max_expected_count: upper bound on the count used to size the register
            field width (defaults to 2³⁰, i.e. register width 5 bits).
    """

    def __init__(
        self,
        num_registers: int = 64,
        mode: str = "multiset",
        sketch: str = "loglog",
        predicate: Predicate | None = None,
        view: ItemView = raw_items,
        seed: int | random.Random | None = 0,
        max_expected_count: int = 1 << 30,
    ) -> None:
        require_positive(num_registers, "num_registers")
        if mode not in ("multiset", "distinct"):
            raise ConfigurationError(f"unknown counting mode {mode!r}")
        if sketch not in _SKETCH_TYPES:
            raise ConfigurationError(
                f"unknown sketch type {sketch!r}; known: {sorted(_SKETCH_TYPES)}"
            )
        self.num_registers = num_registers
        self.mode = mode
        self.sketch_type = sketch
        self.predicate = predicate if predicate is not None else AllItemsPredicate()
        self._view = view
        self._rng = make_rng(seed)
        self.max_expected_count = max_expected_count

    # ------------------------------------------------------------------ #
    def _fresh_salt(self) -> int:
        return self._rng.getrandbits(48)

    def _empty_sketch(self, salt: int):
        sketch_cls = _SKETCH_TYPES[self.sketch_type]
        return sketch_cls(num_registers=self.num_registers, salt=salt)

    def _sketch_of(
        self,
        nodes: Iterable[SensorNode],
        salt: int,
        predicate: Predicate,
        view: ItemView,
    ):
        """One sketch holding the matching items of every node in ``nodes``."""
        sketch = self._empty_sketch(salt)
        distinct = self.mode == "distinct"
        for node in nodes:
            matching = [value for value in view(node) if predicate(value)]
            if not matching:
                continue
            if distinct:
                for value in matching:
                    sketch.add_item(value)
            else:
                # Fresh per-(node, item, salt) randomness so every item counts
                # once per invocation and invocations are mutually independent.
                node_rng = random.Random(
                    hash64(node.node_id * 1_000_003 + salt, salt=salt)
                )
                for _ in matching:
                    sketch.add_random(node_rng)
        return sketch

    @property
    def relative_sigma(self) -> float:
        """The σ of Definition 2.1 for the configured sketch size."""
        return self._empty_sketch(salt=0).relative_sigma

    def run(
        self,
        network: SensorNetwork,
        predicate: Predicate | None = None,
        view: ItemView | None = None,
    ) -> ProtocolResult:
        """Execute one α-counting invocation; ``value`` is an :class:`ApproxCountResult`.

        ``predicate`` and ``view`` override the defaults configured at
        construction for this invocation only (REP_COUNTP reuses one protocol
        object across many probes with different predicates).
        """
        effective_predicate = predicate if predicate is not None else self.predicate
        effective_view = view if view is not None else self._view
        salt = self._fresh_salt()
        sketch_bits = self._empty_sketch(salt).serialized_bits(self.max_expected_count)
        with MeteredRun(network) as metered:
            broadcast(
                network,
                {"query": "APX_COUNT", "salt": salt, "predicate": effective_predicate},
                _SALT_BITS + effective_predicate.encoded_bits(),
                protocol="APX_COUNT",
            )
            if network.execution == "per-edge":
                merged = convergecast(
                    network,
                    lambda node: self._sketch_of(
                        (node,), salt, effective_predicate, effective_view
                    ),
                    lambda a, b: a.merge(b),
                    sketch_bits,
                    protocol="APX_COUNT",
                )
            else:
                nodes = network.node_map
                merged = self._sketch_of(
                    (nodes[node_id] for node_id in network.flat_tree.node_ids),
                    salt,
                    effective_predicate,
                    effective_view,
                )
                charge_up_sweep(network, sketch_bits, "APX_COUNT")
            result = ApproxCountResult(
                estimate=merged.estimate(),
                relative_sigma=merged.relative_sigma,
                num_registers=self.num_registers,
                sketch_bits=sketch_bits,
            )
        return metered.result(result)
