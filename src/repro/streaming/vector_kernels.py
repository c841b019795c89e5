"""Whole-array level-sweep kernels behind the vectorized execution paths.

The reference :func:`~repro.protocols.epoch_convergecast.epoch_convergecast`
visits each active node through a Python ``decide`` callback.  At production
scale that callback dominates the epoch, so the vectorized engine replaces it
with :func:`sweep_levels`: one pass per tree level over contiguous ``int64``
columns, computing every node's merge / suppression / delta decision with
array arithmetic and charging the level's transmissions in a single batch.

The kernel is *semantics-identical* to the batched reference for
count-valued summaries (:class:`~repro.streaming.summaries.CountSummary`):

* levels are processed deepest-first and one ledger round is advanced per
  level whether or not anything transmitted;
* within a level, transmissions are emitted in ascending canonical position
  — which inside one level is ascending node id, the order the batched and
  per-edge paths charge;
* a node transmits a full frame (``varint_bits(v) + 1``) on first contact,
  suppresses when ``|v - transmitted| <= slack``, and otherwise pays
  ``1 + min(delta_bits, full_bits)``, exactly the engine's ``decide`` rule;
* ``transmitted`` is updated on every transmission, the parent-side cache
  (``last_delivered``) only on delivery — so lossy radios leave the same
  stale caches the reference leaves.

The same kernel serves two callers: the vectorized engine and the
standalone :class:`~repro.network.vector_field.VectorField` used by the
million-node benchmarks.  Callers own charging: the kernel hands positions
and sizes to a ``charge`` callable and interprets its returned delivery
mask.

Exact bit-width arithmetic: the varint widths are computed through
``np.frexp``, which recovers ``bit_length`` exactly for magnitudes below
2**53.  Count summaries at any simulated scale stay far below that; the
helpers guard the bound explicitly rather than silently rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro._util.fastpath import np, require_numpy
from repro.exceptions import ConfigurationError

#: ``parent`` value marking a node with no parent that must not transmit
#: (the root).
NO_PARENT = -1

#: Largest magnitude whose bit length ``np.frexp`` recovers exactly.
_EXACT_LIMIT = 1 << 53


def _check_exact(values) -> None:
    if values.size and int(np.abs(values).max()) >= _EXACT_LIMIT:
        raise ConfigurationError(
            "vectorized varint sizing requires magnitudes below 2**53; "
            f"got {int(np.abs(values).max())}"
        )


def bit_width_array(values):
    """Vectorized ``max(1, v.bit_length())`` for non-negative int64 arrays."""
    require_numpy("vectorized varint sizing")
    _check_exact(values)
    exponents = np.frexp(values.astype(np.float64))[1]
    return np.maximum(1, exponents).astype(np.int64)


def varint_bits_array(values):
    """Vectorized :func:`repro._util.bits.varint_bits` (non-negative values)."""
    return 2 * bit_width_array(values) - 1


def signed_varint_bits_array(values):
    """Vectorized :func:`repro._util.bits.signed_varint_bits` (zigzag)."""
    require_numpy("vectorized varint sizing")
    zigzag = np.where(values >= 0, 2 * values, -2 * values - 1)
    return 2 * bit_width_array(zigzag) - 1


@dataclass
class SweepState:
    """Per-(node, query) streaming state as parallel ``int64``/bool columns.

    One row per canonical tree position.  The
    columns mirror the reference engine's ``_NodeQueryState`` fields:
    ``local``/``has_local`` its local summary, ``child_sum`` the sum of the
    cached child summaries (the merge of a count summary is addition, so the
    children cache collapses to one number plus each child's
    ``last_delivered`` entry), ``transmitted``/``has_transmitted`` the last
    value sent up, ``last_delivered``/``has_delivered`` the copy the parent
    holds, and ``subtree_val``/``has_subtree`` the node's last merged view.
    """

    local: "np.ndarray"
    has_local: "np.ndarray"
    child_sum: "np.ndarray"
    transmitted: "np.ndarray"
    has_transmitted: "np.ndarray"
    last_delivered: "np.ndarray"
    has_delivered: "np.ndarray"
    subtree_val: "np.ndarray"
    has_subtree: "np.ndarray"

    COLUMNS = (
        "local",
        "has_local",
        "child_sum",
        "transmitted",
        "has_transmitted",
        "last_delivered",
        "has_delivered",
        "subtree_val",
        "has_subtree",
    )
    _INT_COLUMNS = frozenset(
        {"local", "child_sum", "transmitted", "last_delivered", "subtree_val"}
    )

    @classmethod
    def zeros(cls, num_rows: int) -> "SweepState":
        require_numpy("vectorized streaming state")
        return cls(
            **{
                name: np.zeros(
                    num_rows,
                    dtype=np.int64 if name in cls._INT_COLUMNS else bool,
                )
                for name in cls.COLUMNS
            }
        )


@dataclass
class SweepResult:
    """Traffic outcome of one :func:`sweep_levels` call."""

    activated: int = 0
    transmissions: int = 0
    suppressions: int = 0
    levels: int = 0


#: ``charge(sender_positions, parent_values, sizes)`` charges one level's
#: transmissions and returns a delivered-mask (or ``None`` for "all
#: delivered").
ChargeFn = Callable[["np.ndarray", "np.ndarray", "np.ndarray"], "np.ndarray | None"]


def sweep_levels(
    *,
    parent: "np.ndarray",
    level_spans: Sequence[tuple[int, int]],
    state: SweepState,
    active: "np.ndarray",
    slack: float,
    charge: ChargeFn,
    advance_round: Callable[[], None] | None = None,
) -> SweepResult:
    """Run one epoch's change-driven convergecast as whole-array level passes.

    ``level_spans`` lists the ``(start, end)`` slices to process, ordered
    deepest level first (the caller slices the flat tree's spans down to the
    deepest dirty level).  ``active`` is the dirty mask and is grown in place
    as deliveries activate parents.  ``advance_round`` (typically
    ``ledger.advance_round``) fires once per span, matching the reference's
    one-round-per-depth schedule.
    """
    out = SweepResult()
    for start, end in level_spans:
        out.levels += 1
        window = active[start:end]
        if not window.any():
            if advance_round is not None:
                advance_round()
            continue
        positions = np.flatnonzero(window).astype(np.int64) + start
        out.activated += int(positions.size)
        subtree = state.local[positions] + state.child_sum[positions]
        state.subtree_val[positions] = subtree
        state.has_subtree[positions] = True

        parents = parent[positions]
        senders = parents != NO_PARENT
        if not senders.any():
            if advance_round is not None:
                advance_round()
            continue
        send_pos = positions[senders]
        send_par = parents[senders]
        send_sub = subtree[senders]

        prior = state.transmitted[send_pos]
        has_prior = state.has_transmitted[send_pos]
        diff = send_sub - prior
        suppressed = has_prior & (np.abs(diff).astype(np.float64) <= slack)
        out.suppressions += int(suppressed.sum())
        transmitting = ~suppressed
        if not transmitting.any():
            if advance_round is not None:
                advance_round()
            continue
        tx_pos = send_pos[transmitting]
        tx_par = send_par[transmitting]
        tx_sub = send_sub[transmitting]
        full_bits = varint_bits_array(tx_sub) + 1
        delta_bits = signed_varint_bits_array(diff[transmitting]) + 1
        sizes = np.where(
            has_prior[transmitting],
            1 + np.minimum(delta_bits, full_bits),
            full_bits,
        )
        out.transmissions += int(tx_pos.size)
        # The sender's view updates whether or not the radio delivers —
        # exactly the reference decide()'s pre-send bookkeeping.
        state.transmitted[tx_pos] = tx_sub
        state.has_transmitted[tx_pos] = True

        delivered = charge(tx_pos, tx_par, sizes)
        if delivered is None:
            del_pos, del_par, del_sub = tx_pos, tx_par, tx_sub
        else:
            del_pos = tx_pos[delivered]
            del_par = tx_par[delivered]
            del_sub = tx_sub[delivered]
        if del_pos.size:
            previous = np.where(
                state.has_delivered[del_pos], state.last_delivered[del_pos], 0
            )
            np.add.at(state.child_sum, del_par, del_sub - previous)
            active[del_par] = True
            state.last_delivered[del_pos] = del_sub
            state.has_delivered[del_pos] = True
        if advance_round is not None:
            advance_round()
    return out
