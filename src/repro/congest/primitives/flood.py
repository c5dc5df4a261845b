"""Flood-max with simultaneous BFS: the shared setup logic.

Every node holds a candidate ``(rank, id, distance, parent)``.  Initially
the candidate is itself at distance 0.  Whenever a node learns of a
lexicographically larger ``(rank, id)`` - or the same leader at a shorter
distance - it adopts it and re-floods.  After ``D`` rounds the unique
maximum has reached everyone along shortest paths, so parents form a BFS
tree rooted at the leader; running for ``n >= D`` rounds guarantees
stabilization without knowing ``D``.

The rule lives in one array function, :func:`relax_flood`: given the
round's flood arrivals of any set of receivers, in inbox order, it
returns the receivers whose candidate strictly improves and the arrival
each one adopts.  Among equally good arrivals the first in inbox order
wins - the sequential scan of the original per-message loop, where a
later equal message is not a strict improvement.  :meth:`FloodMaxBFS.step`
calls it for one node's inbox; the fast path's setup driver
(:mod:`repro.core.setup_engine`) calls it once per round for the whole
network, so both relax every arrival identically.

:class:`FloodMaxBFS` is *logic only* (no NodeProgram base) so both the
standalone primitives and the phased RWBC protocol can embed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.congest.message import Message
from repro.congest.node import RoundContext

KIND_FLOOD = "flood"
KIND_ADOPT = "adopt"


def relax_flood(
    best_rank: np.ndarray,
    best_id: np.ndarray,
    distance: np.ndarray,
    receivers: np.ndarray,
    fields: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One round of flood-max relaxation for many receivers at once.

    ``best_rank``/``best_id``/``distance`` hold every node's current
    candidate (indexed by receiver).  Arrival ``i`` is a flood message
    ``fields[i] = (rank, id, distance)`` to ``receivers[i]``; arrivals
    must be in inbox order.  A receiver adopts its best arrival - the
    largest ``(rank, id)``, then the shortest distance, then the first
    in inbox order - when it beats the current candidate: a larger
    ``(rank, id)``, or the same one reached over a strictly shorter
    path.

    Returns ``(nodes, rows)``: the improving receivers in ascending
    order and the index of the arrival each adopts, whose sender
    becomes its parent at distance ``fields[row, 2] + 1``.
    """
    ranks = fields[:, 0]
    ids = fields[:, 1]
    hops = fields[:, 2]
    # lexsort is stable, so equal keys keep inbox order.
    order = np.lexsort((hops, -ids, -ranks, receivers))
    grouped = receivers[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    rows = order[first]
    nodes = grouped[first]
    rank = ranks[rows]
    leader = ids[rows]
    current_rank = best_rank[nodes]
    current_id = best_id[nodes]
    better = (rank > current_rank) | (
        (rank == current_rank)
        & (
            (leader > current_id)
            | ((leader == current_id) & (hops[rows] + 1 < distance[nodes]))
        )
    )
    return nodes[better], rows[better]


@dataclass
class FloodMaxState:
    """Stabilized result of the flood phase at one node."""

    leader_id: int
    leader_rank: int
    distance: int
    parent: int | None
    children: tuple[int, ...]

    @property
    def is_leader(self) -> bool:
        return self.parent is None


class FloodMaxBFS:
    """Embeddable flood-max + BFS-tree logic for one node.

    Usage pattern (driven by the owning program)::

        flood = FloodMaxBFS(node_id, rank)
        flood.start(ctx)                       # round 0
        for each round while not done:
            flood.step(ctx, inbox_messages)
        # after n flooding rounds:
        flood.announce_parent(ctx)             # one extra round
        # after one more round:
        state = flood.finish(inbox_messages)

    The three-stage dance keeps each stage a constant number of messages
    per edge: flooding messages carry ``(rank, id, distance)`` and the
    parent announcement carries nothing but its kind tag.
    """

    def __init__(self, node_id: int, rank: int) -> None:
        self.node_id = node_id
        self.rank = rank
        self.best_rank = rank
        self.best_id = node_id
        self.distance = 0
        self.parent: int | None = None

    def start(self, ctx: RoundContext) -> None:
        """Send the initial flood wave."""
        self._flood(ctx)

    def step(self, ctx: RoundContext, messages: list[Message]) -> None:
        """Process one round of flood messages, re-flooding on improvement."""
        flood = [message for message in messages if message.kind == KIND_FLOOD]
        if not flood:
            return
        fields = np.array([message.fields for message in flood], dtype=np.int64)
        nodes, rows = relax_flood(
            np.array([self.best_rank], dtype=np.int64),
            np.array([self.best_id], dtype=np.int64),
            np.array([self.distance], dtype=np.int64),
            np.zeros(len(flood), dtype=np.int64),
            fields,
        )
        if len(nodes):
            row = int(rows[0])
            rank, leader_id, distance = flood[row].fields
            self.best_rank = rank
            self.best_id = leader_id
            self.distance = distance + 1
            self.parent = flood[row].sender
            self._flood(ctx)

    def _flood(self, ctx: RoundContext) -> None:
        ctx.broadcast(KIND_FLOOD, self.best_rank, self.best_id, self.distance)

    def announce_parent(self, ctx: RoundContext) -> None:
        """After stabilization, tell the parent it has a child."""
        if self.parent is not None:
            ctx.send(self.parent, KIND_ADOPT)

    def finish(self, messages: list[Message]) -> FloodMaxState:
        """Collect child announcements and freeze the final state."""
        children = tuple(
            sorted(m.sender for m in messages if m.kind == KIND_ADOPT)
        )
        return FloodMaxState(
            leader_id=self.best_id,
            leader_rank=self.best_rank,
            distance=self.distance,
            parent=self.parent,
            children=children,
        )
