"""Shared fast-path driver for the exchange phase (Algorithm 2).

Every node sends its ``n`` count columns to every neighbor, then
combines theirs into potentials (:meth:`RWBCNodeProgram._finish`).
This driver claims :data:`~repro.core.protocol.KIND_EXCHANGE`, so the
columns travel as bulk rows and no node is stepped for them.  It runs on
every fast-path run, fault-free or reliable (lossy links).

**Fault-free.**  The done wave paces each node: a node that relays
``done`` in round ``r`` has ``start[v] = r + 1`` and broadcasts column
``i`` in round ``start[v] + i``.  The driver keeps ``start`` as an int
array, filled as nodes register.  Each round it prices column
``r - start[v]`` for every node still sending, through a ``uint8``
table of field costs over ``0..max(max cell, n - 1)`` built at the
first exchange round (cells are small integers, at most
``K * (l + 1)``; a half of the tensor that is all zero, as the second
is outside split mode, is priced as a constant), and hands the prices
and the ids of those nodes' directed edges to
:meth:`~repro.congest.transport.BulkOutbox.push_priced`.  The run's
:class:`~repro.congest.node.EdgeIndex` ascends node-major with ports in
``info.neighbors`` order, so the rows are the per-node loop's messages,
at the same integer bit costs; a column over the per-message budget
raises the same :class:`~repro.congest.errors.CongestViolation` in its
round.  In round ``start[v] + n + 1`` it finishes node ``v``: over the
BFS tree two neighbors relay ``done`` at most one round apart, so every
neighbor's last column has arrived by then.

**Reliable.**  Each node paces itself through its ARQ with the steps
of :meth:`RWBCNodeProgram._exchange_step`, which the per-message loop
runs in the node's handler.  Each round the driver runs all claimed
rows through :meth:`LinkTable.accept_rows
<repro.congest.reliable.LinkTable.accept_rows>` at once and counts the
fresh ones per directed edge; then, for every node it owns that is not
crashed, from the round after the node's done-wave transition, it
queues the node's next column to all its neighbors and runs one
:meth:`LinkTable.flush <repro.congest.reliable.LinkTable.flush>` over
all of them.  ``xch`` sends, fresh or retransmitted with the seq last,
and walk tokens the node still retransmits travel as rows on their
slots' edge ids in (edge, seq) order - the order that fixes their
fault-fate indices - and everything else as control messages, except
acks, which :class:`~repro.congest.reliable.AckRows` ships as rows.
A column is accepted on the slot ``EdgeIndex.reverse`` of its id.
Duplicates that reach finished nodes are settled through
:meth:`LinkTable.settle <repro.congest.reliable.LinkTable.settle>`.
The driver registers before the walk engine, so a column reaching a
counting node is accepted before the walk engine flushes that node.

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
from repro.congest.message import TAG_BITS, int_bits_array
from repro.obs.spans import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.faults import FaultRuntime
    from repro.congest.node import EdgeIndex
    from repro.congest.reliable import LinkTable
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.protocol import RWBCNodeProgram
    from repro.core.walk_engine import ClaimedKind, CountingWalkEngine

#: ``start`` of a node that has not registered: later than any round.
_UNREGISTERED = np.iinfo(np.int64).max


class ExchangeEngine:
    """Network-wide exchange phase over the shared count tensor.

    Created with the counting engine, at the first launch, and shared
    through ``SharedFastPathState.slots``; every node registers as its
    own done-wave handler fires.  ``table``, the run's shared ARQ
    table, picks the reliable mode; ``fault_runtime`` names the crashed
    nodes, and ``profiler`` times
    the reliable accepts and flushes.  Fault-free, a node finishing in
    round ``start[v] + n + 1`` needs every neighbor to have started by
    ``start[v] + 1``; a neighbor that has not registered by then means
    the done wave itself is broken, and is reported as a
    :class:`ProtocolError`.
    """

    def __init__(
        self,
        engine: "CountingWalkEngine",
        edges: "EdgeIndex",
        table: "LinkTable | None" = None,
        fault_runtime: "FaultRuntime | None" = None,
        profiler=NULL_PROFILER,
    ) -> None:
        from repro.core.protocol import KIND_EXCHANGE
        from repro.core.walk_engine import ROW_KINDS

        self.claimed_kinds = frozenset({KIND_EXCHANGE})
        self._kind = KIND_EXCHANGE
        # Reliable: the sends that travel as rows - columns, and the
        # walk engine's kinds, which a node that left counting still
        # retransmits.
        self._row_kinds = (KIND_EXCHANGE,) + ROW_KINDS
        self.n = edges.n
        # Fault-free: each node's first broadcast round, _UNREGISTERED
        # until it registers, and the first and last of those starts.
        self._start = np.full(edges.n, _UNREGISTERED, dtype=np.int64)
        self._first_start, self._last_start = _UNREGISTERED, -1
        self._engine = engine
        self._edges = edges
        self._edge_ids = np.arange(len(edges.dst))
        # Reliable: the shared ARQ table, and per directed edge (the
        # receiver's slot) the fresh columns that arrived on it.
        self._table = table
        self._received = np.zeros(len(edges.dst), dtype=np.int64)
        self._fault_runtime = fault_runtime
        self._profiler = profiler
        # The registered nodes not yet finished.
        self._programs: dict[int, "RWBCNodeProgram"] = {}
        # Fault-free, built at the first exchange round: the bit cost of
        # every count value and source id up to the larger of the
        # largest cell and ``n - 1``; the tensor's ``(node, source)``
        # halves that hold a nonzero cell, the bits every message pays
        # besides its source id and those halves' cells, and ``v * n``
        # per node, the row offset of ``(v, s)`` in a half.
        self._field_bits: np.ndarray | None = None
        self._halves: list[np.ndarray] = []
        self._fixed_bits = 0
        self._row_base: np.ndarray | None = None

    def register(self, program: "RWBCNodeProgram") -> None:
        node = program.node_id
        if node in self._programs:
            raise ProtocolError(
                f"node {node} registered twice with the exchange engine"
            )
        self._programs[node] = program
        start = program.exchange_start_round + 1
        self._start[node] = start
        self._first_start = min(self._first_start, start)
        self._last_start = max(self._last_start, start)

    def end_round(
        self,
        round_number: int,
        claimed: dict[str, "ClaimedKind"],
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        if self._table is not None:
            self._reliable_round(
                round_number, claimed.get(self._kind), outbox, bulk_outbox
            )
            return
        # Claimed exchange traffic needs no processing: receivers read
        # their neighbors' columns straight from the count tensor at the
        # finish round.  Taking it still matters - it keeps the rows
        # from being materialized per node.
        if not self._programs:
            return
        n = self.n
        if self._first_start <= round_number < self._last_start + n:
            self._broadcast(round_number, bulk_outbox)
        finish_start = round_number - n - 1
        if self._first_start <= finish_start <= self._last_start:
            self._finish_wave(
                np.flatnonzero(self._start == finish_start), round_number
            )

    def _broadcast(self, round_number: int, bulk_outbox: "BulkOutbox") -> None:
        """Every node with ``start[v] <= round_number < start[v] + n``
        broadcasts column ``round_number - start[v]``: one priced push
        over their directed edges."""
        n = self.n
        if self._field_bits is None:
            self._build_prices()
        sources = round_number - self._start
        senders, ids = self._edges.src, self._edge_ids
        if len(self._programs) == n and (
            self._last_start <= round_number < self._first_start + n
        ):
            # Every node has started and none has stopped: all send.
            node_bits = self._price(sources)
        else:
            # A node not sending this round is priced on a clipped
            # column, and its edges are dropped.
            columns = sources.clip(0, n - 1)
            node_bits = self._price(columns)
            ids = np.flatnonzero((columns == sources)[senders])
            senders = senders[ids]
        bulk_outbox.push_priced(self._kind, ids, node_bits[senders])

    def _build_prices(self) -> None:
        n = self.n
        counts = self._engine.counts
        # Sized by the largest cell or source, not by the cell type's
        # max: pricing all 65 536 uint16 values up front would cost
        # megabytes of temporaries for a table of bytes.
        field_bits = int_bits_array(
            np.arange(max(int(counts.max()), n - 1) + 1)
        ).astype(np.uint8)
        halves = [counts[:, half] for half in (0, 1)]
        # A count in an all-zero half always costs int_bits(0), and is
        # not looked up per round.
        self._halves = [cells for cells in halves if cells.any()]
        self._fixed_bits = TAG_BITS + int(field_bits[0]) * (
            len(halves) - len(self._halves)
        )
        self._row_base = np.arange(n, dtype=np.int64) * n
        self._field_bits = field_bits

    def _price(self, columns: np.ndarray) -> np.ndarray:
        """Bits of node ``v``'s message ``(source, c_a, c_b)`` for
        column ``columns[v]``: at most ``TAG_BITS + 3 * 65`` bits, so
        the ``uint8`` sum cannot wrap."""
        field_bits = self._field_bits
        cell = self._row_base + columns
        bits = field_bits[columns] + self._fixed_bits
        for cells in self._halves:
            bits += field_bits[cells.take(cell)]
        return bits

    def _finish_wave(self, nodes: np.ndarray, round_number: int) -> None:
        """Run the local computation of every node whose last neighbor
        column arrived this round, in ascending node order."""
        start = self._start
        edges = self._edges
        for node in nodes.tolist():
            neighbors = edges.dst[edges.offsets[node]:edges.offsets[node + 1]]
            late = neighbors[start[neighbors] > start[node] + 1]
            if len(late):
                raise ProtocolError(
                    f"node {node} finishes the exchange in round "
                    f"{round_number}, but neighbor {int(late[0])} has not "
                    "sent its last column: the done wave did not reach it "
                    "in time"
                )
            self._finish(self._programs.pop(node), round_number)
        if not self._programs:
            self._field_bits = self._row_base = None
            self._halves = []

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
        table = self._table
        sends = []
        if rows is not None:
            with profiler.span("engine.dedup"):
                late = self._accept(rows)
                if len(late):
                    sends.append(table.settle(late, round_number))
        if self._programs:
            crashed = (
                self._fault_runtime.crashed(round_number)
                if self._fault_runtime is not None
                else frozenset()
            )
            # A node crashed this round does nothing.  One that leaves
            # counting this round registers after this call, gets the
            # walk engine's flush and sends its first column next round.
            steps = [
                self._programs[node]
                for node in sorted(self._programs)
                if node not in crashed
            ]
            if steps:
                with profiler.span("engine.arq_flush"):
                    sends.append(self._step(steps, round_number))
        if sends:
            table.ship(
                np.concatenate(sends), outbox, bulk_outbox, self._row_kinds
            )

    def _step(
        self, programs: list["RWBCNodeProgram"], round_number: int
    ) -> np.ndarray:
        """:meth:`RWBCNodeProgram._exchange_step` for many nodes at once:
        queue each node's next column to all its neighbors, flush them
        all, and finish the nodes that are complete.  Returns the
        flush's sends."""
        n = self.n
        table = self._table
        offsets = table.offsets
        nodes = np.array([program.node_id for program in programs])
        sending = [program for program in programs if program._next_column < n]
        if sending:
            senders = np.array([program.node_id for program in sending])
            sources = np.array([program._next_column for program in sending])
            counts = self._engine.counts
            columns = np.stack(
                [
                    sources,
                    counts[senders, 0, sources],
                    counts[senders, 1, sources],
                ],
                axis=1,
            ).astype(np.int64)
            # Each sender's column to every neighbor, node-major.
            picked = np.zeros(n, dtype=bool)
            picked[senders] = True
            table.queue_rows(
                np.flatnonzero(picked[table.owners]),
                self._kind,
                np.repeat(columns, np.diff(offsets)[senders], axis=0),
            )
            for program in sending:
                program._next_column += 1
        _, sends, _ = table.flush(nodes, round_number)
        columns_in = np.minimum.reduceat(self._received, offsets[:-1]) >= n
        drained = table.drained_nodes()
        for program in programs:
            node = program.node_id
            if program._exchange_complete(
                bool(columns_in[node]), bool(drained[node])
            ):
                self._finish(program, round_number)
                del self._programs[node]
        return sends

    def _accept(self, rows: "ClaimedKind") -> np.ndarray:
        """Run every claimed column row through its receiver's ARQ, as
        the walk engine does its walk rows, and count the fresh ones
        per directed edge.  Returns the slots of the finished receivers'
        rows (necessarily duplicates), whose acks are owed late."""
        ids, fields, multiplicity = rows
        table = self._table
        receivers = self._edges.dst[ids]
        slots = self._edges.reverse[ids]
        fresh = table.accept_rows(slots, fields[:, -1], multiplicity)
        np.add.at(self._received, slots[fresh], 1)
        programs = self._engine._programs
        done = np.zeros(self.n, dtype=bool)
        nodes = np.flatnonzero(np.bincount(receivers[~fresh]))
        done[nodes] = [programs[v].phase == "done" for v in nodes.tolist()]
        return slots[~fresh & done[receivers]]

    def _finish(self, program: "RWBCNodeProgram", round_number: int) -> None:
        """Finish one node on views into the frozen count tensor."""
        counts = self._engine.counts
        program._neighbor_counts = {
            int(v): counts[int(v)] for v in program.neighbors
        }
        program._finish(round_number)
