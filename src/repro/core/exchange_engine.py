"""Shared fast-path driver for the exchange phase (Algorithm 2).

On the fault-free vectorized fast path every node's exchange behaviour
is fully determined by the shared counting engine's count tensor: in
round ``start + i`` node ``v`` broadcasts column ``i`` of its own half
counts to all neighbors, and at ``start + n`` it combines its neighbors'
columns into potentials (:meth:`RWBCNodeProgram._finish`).  Stepping
``n`` nodes for ``n`` calendar rounds to do this costs O(n^2) Python
dispatch; this driver claims :data:`~repro.core.protocol.KIND_EXCHANGE`
wholesale and accounts the whole phase in one pass over the frozen
tensor.

When the phase starts the driver prices every node's column message
once: ``TAG_BITS + int_bits(s) + int_bits(c_a[v, s]) + int_bits(c_b[v,
s])``, stored ``uint8`` and source-major (row ``s`` is what every node
sends in round ``start + s``), built in bounded chunks of nodes.  Each
round then gathers that row over the directed edges and hands it to
:meth:`~repro.congest.transport.BulkOutbox.push_priced`; no fields
matrix is built, priced or drained.

Byte-identity with the per-node path is structural, not approximate:

* **Traffic.**  The run's :class:`~repro.congest.node.EdgeIndex`
  ascends node-major with ports in each node's ``info.neighbors``
  order, so its edge arrays carry exactly the messages the per-node
  loop pushes, one per directed edge, in the same rounds.  The table
  entry is the same integer sum
  :meth:`~repro.congest.transport.BulkOutbox.push_rows` charges for the
  row ``(s, c_a, c_b)`` (``int_bits_array`` over the same values), and
  a column over the per-message budget raises the same
  :class:`~repro.congest.errors.CongestViolation` in the round it would
  have been sent.  Since every edge carries one message, the round's
  per-edge loads are the row bits themselves; the scheduler records
  them, and traces the rows, before the driver takes them, so
  counters, histograms and trace streams cannot drift.
* **Results.**  After the counting phase the count tensor is frozen;
  the ``(2, n)`` slab a neighbor would have broadcast column by column
  is exactly ``engine.counts[neighbor]``.  The driver hands each
  program zero-copy views into the tensor and calls ``_finish`` in
  ascending node order - the order the scheduler's sorted step loop
  would have used - so outputs and halting rounds match bit for bit.
* **Random streams.**  The exchange phase draws no randomness; no
  generator is touched.

The driver is only installed when faults are off and the counting
engine ran (``_begin_done_wave``); loss recovery keeps the self-paced
per-node ARQ path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import TAG_BITS, int_bits_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.protocol import RWBCNodeProgram
    from repro.core.walk_engine import ClaimedKind, CountingWalkEngine

#: Count-tensor entries priced per pass when building the bit table.
#: Keeps each pass's int64/float64 temporaries (512 KB) cache-sized;
#: on a 2-vCPU x86-64 VM pricing an n=2000 tensor took 0.065 s this way
#: and 0.18 s in 8 MB passes.
PRICE_CHUNK = 1 << 16


def column_bits(counts: np.ndarray) -> np.ndarray:
    """Bit cost of every node's exchange message, source-major.

    ``counts`` is the frozen count tensor's ``(n, 2, n)`` view
    ``[node, half, source]`` (stored half-first, in
    :func:`~repro.core.walk_engine.count_dtype` cells); entry ``[s, v]``
    of the result is what node ``v``'s column-``s`` message ``(s,
    c_a[v, s], c_b[v, s])`` costs.  Every entry is at most ``TAG_BITS +
    3 * 65`` bits, so ``uint8`` holds it."""
    n = counts.shape[0]
    table = np.empty((n, n), dtype=np.uint8)
    source_bits = TAG_BITS + int_bits_array(np.arange(n))
    step = max(1, PRICE_CHUNK // (2 * n))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        node_bits = int_bits_array(counts[lo:hi]).sum(axis=1)
        table[:, lo:hi] = (node_bits + source_bits).T
    return table


class ExchangeEngine:
    """Network-wide exchange phase over the shared count tensor.

    Created by the first node to enter the done wave and shared through
    ``SharedFastPathState.slots``; every node registers as its own
    done-wave handler fires.  All ``n`` registrations must land before
    the first broadcast round ``start`` - the done wave gives the flood
    ``n + 2`` rounds of slack, so a missing registration means the wave
    itself is broken and is reported as a :class:`ProtocolError`.
    """

    def __init__(
        self, start: int, engine: "CountingWalkEngine", edges: "EdgeIndex"
    ) -> None:
        from repro.core.protocol import KIND_EXCHANGE

        self.claimed_kinds = frozenset({KIND_EXCHANGE})
        self._kind = KIND_EXCHANGE
        self.n = edges.n
        self.start = start
        self._engine = engine
        self._edges = edges
        self._programs: dict[int, "RWBCNodeProgram"] = {}
        self._done = False
        self._bits: np.ndarray | None = None  # (n, n) uint8, see column_bits

    def register(self, program: "RWBCNodeProgram") -> None:
        node = program.node_id
        if node in self._programs:
            raise ProtocolError(
                f"node {node} registered twice with the exchange engine"
            )
        self._programs[node] = program

    def end_round(
        self,
        round_number: int,
        claimed: dict[str, "ClaimedKind"],
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        # Claimed exchange traffic needs no processing: receivers read
        # their neighbors' columns straight from the count tensor at the
        # finish round.  Taking it still matters - it keeps the rows
        # from being materialized per node.
        if self._done or round_number < self.start:
            return
        n = self.n
        if len(self._programs) != n:
            raise ProtocolError(
                f"exchange engine entered round {round_number} with "
                f"{len(self._programs)}/{n} nodes registered: the done "
                "wave did not reach every node in time"
            )
        engine = self._engine
        if round_number < self.start + n:
            # Round start + i: every node broadcasts count column i.
            source = round_number - self.start
            if self._bits is None:
                self._bits = column_bits(engine.counts)
            edges = self._edges
            bulk_outbox.push_priced(
                self._kind, edges.src, edges.dst, self._bits[source][edges.src]
            )
            return
        # Round start + n: all columns have (virtually) arrived; run
        # every node's local computation in ascending node order.
        self._bits = None
        counts = engine.counts
        for node in sorted(self._programs):
            program = self._programs[node]
            program._neighbor_counts = {
                int(v): counts[int(v)] for v in program.neighbors
            }
            program._finish(round_number)
        self._done = True
