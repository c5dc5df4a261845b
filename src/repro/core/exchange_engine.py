"""Shared fast-path driver for the exchange phase (Algorithm 2).

Every node sends its ``n`` count columns to every neighbor, then
combines theirs into potentials (:meth:`RWBCNodeProgram._finish`).
This driver claims :data:`~repro.core.protocol.KIND_EXCHANGE`, so the
columns travel as bulk rows and no node is stepped for them.  It runs on
fault-free runs and on reliable runs.

**Fault-free.**  In round ``start + i`` every node broadcasts column
``i``.  The driver prices each node's column-``i`` message in that
round, through a ``uint8`` table of field costs over ``0..max cell``
built when the phase starts (cells are small integers, at most
``K * (l + 1)``), and hands the prices over the directed edges to
:meth:`~repro.congest.transport.BulkOutbox.push_priced`.  The run's
:class:`~repro.congest.node.EdgeIndex` ascends node-major with ports in
``info.neighbors`` order, so the rows are the per-node loop's messages,
at the same integer bit costs; a column over the per-message budget
raises the same :class:`~repro.congest.errors.CongestViolation` in its
round.  At ``start + n`` it finishes every node.

**Reliable.**  Each node paces itself through its ARQ with
:meth:`RWBCNodeProgram._exchange_step`, the step the per-message loop
runs in the node's handler.  Each round the driver runs every claimed
row through :meth:`ReliableChannel.accept
<repro.congest.reliable.ReliableChannel.accept>`, one call per row, and
counts fresh arrivals per directed edge; then it runs the step for
every node it owns that is not crashed, from the round after the node's
done-wave transition.  The flush's sink ships ``xch`` sends, fresh or
retransmitted with the seq last, as one ``push_rows`` per round, in
each edge's flush order - the order that fixes their fault-fate
indices - and everything else as control messages, except acks: the
channel hands those to its ack sink
(:class:`~repro.congest.reliable.AckRows`), which ships them as rows
too.  Duplicates that
reach finished nodes are settled through :meth:`ReliableChannel.settle
<repro.congest.reliable.ReliableChannel.settle>`.  The driver registers
before the walk engine, so a column reaching a counting node is
accepted before the walk engine flushes that node.

Either way the count tensor is frozen once counting stops, so the
``(2, n)`` slab a neighbor sends is ``engine.counts[neighbor]``: the
driver stores no payload, hands each program views into the tensor,
and calls ``_finish`` in ascending node order, so outputs and halting
rounds match the per-node loop bit for bit.  The phase draws no
randomness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import TAG_BITS, Message, int_bits, int_bits_array
from repro.obs.spans import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.faults import FaultRuntime
    from repro.congest.node import EdgeIndex
    from repro.congest.reliable import Sink
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.protocol import RWBCNodeProgram
    from repro.core.walk_engine import ClaimedKind, CountingWalkEngine

class ExchangeEngine:
    """Network-wide exchange phase over the shared count tensor.

    Created with the counting engine, at the first launch, and shared
    through ``SharedFastPathState.slots``; every node registers as its
    own done-wave handler fires.  ``reliable`` picks the mode;
    ``fault_runtime`` names the crashed nodes, and ``profiler`` times
    the reliable accepts and flushes.  Fault-free, all ``n``
    registrations must land before the first broadcast round
    ``start``: the done wave gives the flood ``n + 2`` rounds of slack,
    so a missing registration means the wave itself is broken and is
    reported as a :class:`ProtocolError`.
    """

    def __init__(
        self,
        start: int | None,
        engine: "CountingWalkEngine",
        edges: "EdgeIndex",
        reliable: bool = False,
        fault_runtime: "FaultRuntime | None" = None,
        profiler=NULL_PROFILER,
    ) -> None:
        from repro.core.protocol import KIND_EXCHANGE

        self.claimed_kinds = frozenset({KIND_EXCHANGE})
        self._kind = KIND_EXCHANGE
        self.n = edges.n
        # Fault-free: the first broadcast round, common to every node;
        # None until the first registration brings it.
        self.start = start
        self._engine = engine
        self._edges = edges
        self._reliable = reliable
        self._fault_runtime = fault_runtime
        self._profiler = profiler
        # Fault-free: every registered node.  Reliable: the registered
        # nodes not yet finished.
        self._programs: dict[int, "RWBCNodeProgram"] = {}
        self._done = False
        # Fault-free: bit cost of every count value up to the frozen
        # tensor's largest cell, built at the first broadcast round.
        self._field_bits: np.ndarray | None = None

    def register(self, program: "RWBCNodeProgram") -> None:
        node = program.node_id
        if node in self._programs:
            raise ProtocolError(
                f"node {node} registered twice with the exchange engine"
            )
        self._programs[node] = program
        if self.start is None:
            self.start = program._exchange_start

    def end_round(
        self,
        round_number: int,
        claimed: dict[str, "ClaimedKind"],
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        if self._reliable:
            self._reliable_round(
                round_number, claimed.get(self._kind), outbox, bulk_outbox
            )
            return
        # Claimed exchange traffic needs no processing: receivers read
        # their neighbors' columns straight from the count tensor at the
        # finish round.  Taking it still matters - it keeps the rows
        # from being materialized per node.
        if self._done or self.start is None or round_number < self.start:
            return
        n = self.n
        if len(self._programs) != n:
            raise ProtocolError(
                f"exchange engine entered round {round_number} with "
                f"{len(self._programs)}/{n} nodes registered: the done "
                "wave did not reach every node in time"
            )
        if round_number < self.start + n:
            # Round start + i: every node broadcasts count column i.
            source = round_number - self.start
            counts = self._engine.counts
            if self._field_bits is None:
                # Sized by the largest cell, not by the cell type's
                # max: pricing all 65 536 uint16 values up front would
                # cost megabytes of temporaries for a table of bytes.
                self._field_bits = int_bits_array(
                    np.arange(int(counts.max()) + 1)
                ).astype(np.uint8)
            field_bits = self._field_bits
            # Node v's message (source, c_a[v], c_b[v]): at most
            # TAG_BITS + 3 * 65 bits, so the uint8 sum cannot wrap.
            node_bits = (
                TAG_BITS
                + int_bits(source)
                + field_bits[counts[:, 0, source]]
                + field_bits[counts[:, 1, source]]
            )
            edges = self._edges
            bulk_outbox.push_priced(
                self._kind, edges.src, edges.dst, node_bits[edges.src]
            )
            return
        # Round start + n: all columns have (virtually) arrived; run
        # every node's local computation in ascending node order.
        self._field_bits = None
        for node in sorted(self._programs):
            self._finish(self._programs[node], round_number)
        self._done = True

    def _reliable_round(
        self,
        round_number: int,
        rows: "ClaimedKind | None",
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        """One reliable exchange round: accept the claimed columns,
        settle duplicates at finished nodes, then step every owned node
        and ship the round's ``xch`` sends as one bulk push."""
        profiler = self._profiler
        kind = self._kind
        push = outbox.push
        sent: list[tuple[int, ...]] = []

        def sink(node: int) -> "Sink":
            def send(receiver: int, message_kind: str, fields) -> None:
                if message_kind == kind:
                    sent.append((node, receiver) + fields)
                else:
                    push(Message(node, receiver, message_kind, fields))

            return send

        if rows is not None:
            with profiler.span("engine.dedup"):
                late = self._accept(rows)
                programs = self._engine._programs
                for node in sorted(late):
                    programs[node]._channel.settle(
                        late[node], round_number, sink(node)
                    )
        if self._programs:
            crashed = (
                self._fault_runtime.crashed(round_number)
                if self._fault_runtime is not None
                else frozenset()
            )
            with profiler.span("engine.arq_flush"):
                for node in sorted(self._programs):
                    program = self._programs[node]
                    # A node crashed this round does nothing; one that
                    # switched phase this round got the walk engine's
                    # flush and sends its first column next round.
                    if (
                        node in crashed
                        or program.exchange_start_round == round_number
                    ):
                        continue
                    if program._exchange_step(round_number, sink(node)):
                        self._finish(program, round_number)
                        del self._programs[node]
        if sent:
            table = np.array(sent, dtype=np.int64)
            bulk_outbox.push_rows(kind, table[:, 0], table[:, 1], table[:, 2:])

    def _accept(self, rows: "ClaimedKind") -> dict[int, set[int]]:
        """Run every claimed column row through its receiver's ARQ, as
        the walk engine does its walk rows, and count the fresh ones
        per directed edge.  Returns the finished receivers' senders
        (necessarily duplicates), whose acks are owed late."""
        senders, receivers, fields, multiplicity = rows
        programs = self._engine._programs
        late: dict[int, set[int]] = {}
        for sender, node, seq, copies in zip(
            senders.tolist(),
            receivers.tolist(),
            fields[:, -1].tolist(),
            multiplicity.tolist(),
        ):
            program = programs[node]
            if program._channel.accept(sender, seq, copies):
                program._xch_received[sender] += 1
            elif program.phase == "done":
                late.setdefault(node, set()).add(sender)
        return late

    def _finish(self, program: "RWBCNodeProgram", round_number: int) -> None:
        """Finish one node on views into the frozen count tensor."""
        counts = self._engine.counts
        program._neighbor_counts = {
            int(v): counts[int(v)] for v in program.neighbors
        }
        program._finish(round_number)
