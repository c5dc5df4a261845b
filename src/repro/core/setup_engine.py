"""Shared fast-path driver for the setup phase (Algorithm 1 line 2).

The protocol elects its absorbing target ``t`` by flood-max over random
ranks, builds the BFS tree rooted at it, and has every node tell its
neighbors its degree (Algorithm 2 divides neighbor counts by neighbor
degrees).  Per node this is ``n + 2`` rounds of
:class:`~repro.congest.primitives.flood.FloodMaxBFS` steps and one
:class:`~repro.congest.message.Message` per flood, adopt and degree
send.  On the fault-free vectorized fast path this driver claims
``flood``, ``adopt`` and ``deg`` wholesale and runs the phase for the
whole network as arrays:

* **Round 0.**  When the last node registers (from its ``on_start``),
  every node's own candidate ``(rank, id, 0)`` goes out on every edge
  as one :meth:`~repro.congest.transport.BulkOutbox.push_priced`.
* **Rounds 1 .. n.**  The round's flood arrivals are relaxed at once by
  :func:`~repro.congest.primitives.flood.relax_flood` - the same rule
  :meth:`FloodMaxBFS.step` applies to one node's inbox - over the
  driver's ``(best_rank, best_id, distance, parent)`` arrays, and the
  improved nodes' rebroadcasts ship as one push.  Round ``n`` also
  ships every non-root node's ``adopt`` to its parent.
* **Round n + 1.**  Children are the sorted ``adopt`` senders.  The
  driver freezes every program's :class:`FloodMaxState`, ``target`` and
  neighbor degrees, and ships the degree rows.
* **Round n + 2.**  The degree rows arrive, still claimed, and are
  dropped (their content is already in place); every node wakes on its
  calendar and joins the counting engine, which launches the walks.

Nodes sleep from round 0 to ``n + 2`` (``next_wake``): claimed traffic
never reaches an inbox, so no node is stepped during the setup rounds.

Byte-identity with the per-node path is structural:

* **Traffic.**  Rows follow the run's
  :class:`~repro.congest.node.EdgeIndex` (node-major, ports in
  ``info.neighbors`` order), the order of a sorted per-node loop of
  ``broadcast`` calls, so every round carries the same messages with
  the same fields on the same edges.  A push takes the edge ids of a
  mask over the index and prices its rows as the materialized messages
  (``message_bits_array``); the scheduler records and traces them
  before the claim, so counters, per-edge histograms and trace streams
  match.
* **Ties.**  Each receiver's flood arrivals reach ``relax_flood`` in
  ascending sender order - the per-message inbox order - so an
  equal-distance tie goes to the same (smallest) sender.
* **Random streams.**  Ranks are hashed in each program's constructor on
  every path; the driver draws nothing.

Installed on the shared fast path when the links are fault-free
(``NodeInfo.lossy`` is False).  Lossy runs, the per-message loop and
the asynchronous executor keep stepping ``FloodMaxBFS`` per node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import message_bits_array
from repro.congest.primitives.flood import (
    KIND_ADOPT,
    KIND_FLOOD,
    FloodMaxState,
    relax_flood,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import SharedFastPathState
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.protocol import RWBCNodeProgram
    from repro.core.walk_engine import ClaimedKind


class SetupEngine:
    """Network-wide flood-max, BFS tree and degree exchange.

    Created by the first node's ``on_start`` and shared through
    ``SharedFastPathState.slots``; every node registers from its own
    ``on_start`` in round 0.
    """

    def __init__(self, shared: "SharedFastPathState") -> None:
        from repro.core.protocol import KIND_DEGREE

        self.claimed_kinds = frozenset({KIND_FLOOD, KIND_ADOPT, KIND_DEGREE})
        self._degree_kind = KIND_DEGREE
        edges = shared.edges
        n = edges.n
        self.n = n
        self._edges = edges
        self._shared = shared
        self._programs: dict[int, "RWBCNodeProgram"] = {}
        self._best_rank = np.zeros(n, dtype=np.int64)
        self._best_id = np.arange(n, dtype=np.int64)
        self._distance = np.zeros(n, dtype=np.int64)
        self._parent = np.full(n, -1, dtype=np.int64)
        self._done = False

    def register(self, program: "RWBCNodeProgram") -> None:
        node = program.node_id
        if node in self._programs:
            raise ProtocolError(
                f"node {node} registered twice with the setup engine"
            )
        self._programs[node] = program
        self._best_rank[node] = program._flood.rank
        if len(self._programs) == self.n:
            # Round 0: every node floods its own candidate.
            self._push_flood(
                self._shared.bulk_outbox, np.ones(self.n, dtype=bool)
            )

    def end_round(
        self,
        round_number: int,
        claimed: dict[str, "ClaimedKind"],
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        if self._done:
            return
        n = self.n
        if len(self._programs) != n:
            raise ProtocolError(
                f"setup engine entered round {round_number} with "
                f"{len(self._programs)}/{n} nodes registered"
            )
        edges = self._edges
        flood = claimed.get(KIND_FLOOD)
        if flood is not None and round_number <= n:
            ids, fields, _ = flood
            nodes, rows = relax_flood(
                self._best_rank, self._best_id, self._distance,
                edges.dst[ids], fields,
            )
            if len(nodes):
                self._best_rank[nodes] = fields[rows, 0]
                self._best_id[nodes] = fields[rows, 1]
                self._distance[nodes] = fields[rows, 2] + 1
                self._parent[nodes] = edges.src[ids[rows]]
                improved = np.zeros(n, dtype=bool)
                improved[nodes] = True
                self._push_flood(bulk_outbox, improved)
        if round_number == n:
            # Every non-root node announces itself to its parent.
            ids = np.flatnonzero(edges.dst == self._parent[edges.src])
            fields = np.empty((len(ids), 0), dtype=np.int64)
            bulk_outbox.push_priced(
                KIND_ADOPT, ids, message_bits_array(fields), fields
            )
        elif round_number == n + 1:
            self._freeze(claimed.get(KIND_ADOPT))
            fields = edges.degrees[edges.src][:, None]
            bulk_outbox.push_priced(
                self._degree_kind,
                np.arange(len(edges.dst)),
                message_bits_array(fields),
                fields,
            )
            # The degree rows arrive next round, still claimed, and are
            # dropped: their content is already in place.
            self._done = True

    def _push_flood(
        self, bulk_outbox: "BulkOutbox", senders: np.ndarray
    ) -> None:
        """Broadcast the candidate of every node flagged in ``senders``."""
        edges = self._edges
        mask = senders[edges.src]
        src = edges.src[mask]
        fields = np.stack(
            (self._best_rank[src], self._best_id[src], self._distance[src]),
            axis=1,
        )
        bulk_outbox.push_priced(
            KIND_FLOOD, np.flatnonzero(mask), message_bits_array(fields), fields
        )

    def _freeze(self, adopt: "ClaimedKind | None") -> None:
        """Hand every program its final tree state, target and neighbor
        degrees, in ascending node order."""
        n = self.n
        if adopt is None:
            children = [()] * n
        else:
            ids = adopt[0]
            senders, receivers = self._edges.src[ids], self._edges.dst[ids]
            order = np.lexsort((senders, receivers))
            split = np.cumsum(np.bincount(receivers, minlength=n))[:-1]
            children = [
                tuple(group.tolist())
                for group in np.split(senders[order], split)
            ]
        degrees = self._edges.degrees.tolist()
        best_rank = self._best_rank.tolist()
        best_id = self._best_id.tolist()
        distance = self._distance.tolist()
        parent = self._parent.tolist()
        for node in range(n):
            program = self._programs[node]
            program._tree = FloodMaxState(
                leader_id=best_id[node],
                leader_rank=best_rank[node],
                distance=distance[node],
                parent=None if parent[node] < 0 else parent[node],
                children=children[node],
            )
            program.target = best_id[node]
            program._neighbor_degrees = {
                neighbor: degrees[neighbor] for neighbor in program.neighbors
            }
