"""Per-node walk bookkeeping for the counting phase (Algorithm 1).

Each node owns a :class:`WalkManager` that:

* launches the node's ``K`` walks,
* processes walk arrivals (count the visit, absorb at the target, expire
  at length 0, otherwise pick the next hop uniformly at random *at
  arrival time* and queue the token on that edge),
* emits at most ``walk_budget`` walk messages per outgoing edge per round
  (the CONGEST constraint), under one of two policies:

  - ``QUEUE``: tokens are sent individually; excess tokens wait in FIFO
    order on their chosen edge (never re-rolling the choice - re-rolling
    would bias hops toward uncongested edges and break uniformity);
  - ``BATCH``: tokens queued together with identical ``(source,
    remaining)`` fields travel as one counted message, which is still
    ``O(log n)`` bits.

The paper's line 6 ("if there is more than one random walk needed to be
sent to v, just send a random walk to v randomly") is ambiguous between
these readings; both are implemented and compared in experiment E12.

The manager holds no walk semantics of its own.  It runs the counting
engine's array code (:mod:`repro.core.walk_engine`) on a one-node slice
of the network: the node is index 0 of a one-node
:data:`~repro.core.walk_engine.WalkStreams`, its ``(2, n)`` count slab
is a one-node count tensor, and its ports are its edge ids.  Its stream
is the one the fast path gives it: the key
:func:`~repro.core.walk_engine.walk_key` derives from the run's seed
entropy, the node id and the walk domain tag, and one draw counter;
draw ``j`` is ``_mix64(key + j * GOLDEN)``, thinning takes one draw per
token, routing one per token (Lemire's rule, a rejected draw skipped
for the next counter), and a degree-1 node routes without drawing (the
contract is in :mod:`repro.core.walk_engine`).  Arrivals go
through :func:`~repro.walks.batched.aggregate_network_groups` and
:func:`~repro.core.walk_engine.counting_round_kernel`, the launch
through :func:`~repro.core.walk_engine.route_entries`, and the routed
groups wait in an :class:`~repro.core.walk_engine.EdgeQueues` over the
node's ports, whose ``take`` decides which tokens each port sends;
:func:`~repro.core.walk_engine.walk_rows` (and, under recovery,
:func:`~repro.core.walk_engine.sequence_walk_rows`) turn them into
message rows.  The fast path runs the same functions and the same queue
class over every node at once, so the two loops share one copy of the
rule and of the wire format; what stays here is the per-message
surface - sending each row as
:class:`~repro.congest.message.Message` objects for the message log,
the CONGEST audit and the asynchronous executor.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.node import RoundContext
from repro.core.walk_engine import (
    EdgeQueues,
    TransportPolicy,
    WalkStreams,
    count_dtype,
    counting_round_kernel,
    launch_groups,
    route_entries,
    sequence_walk_rows,
    walk_rows,
)
from repro.walks.batched import aggregate_network_groups

#: The one-node slice's nodes, and its edge offsets: node 0's port
#: ``j`` is edge ``j``.
_ORIGIN = np.zeros(1, dtype=np.int64)


class WalkManager:
    """Walk queues, visit counts, and death accounting for one node."""

    def __init__(
        self,
        node_id: int,
        neighbors: tuple[int, ...],
        n: int,
        target: int,
        walks_per_source: int,
        length: int,
        walk_key: int,
        policy: TransportPolicy = TransportPolicy.QUEUE,
        walk_budget: int = 2,
        count_initial: bool = True,
        survival_alpha: float | None = None,
        split_sampling: bool = False,
        half_counts: np.ndarray | None = None,
    ) -> None:
        """``walk_key``: this node's walk-stream key
        (:func:`~repro.core.walk_engine.walk_key`); the node's next hops
        and damped thinning draw from it.

        ``survival_alpha``: when set, walks are *damped* instead of
        absorbed - every hop succeeds only with probability alpha (the
        alpha-current-flow semantics of section II-C), every node
        (including the nominal target) launches walks, and arrivals at
        the target are ordinary visits.

        ``split_sampling``: tag each walk with a half-bit (A/B) and keep
        two count vectors, enabling the noise-floor bias correction of
        :mod:`repro.core.bias` at the cost of one extra bit per token.

        ``half_counts``: the ``(2, n)`` count slab to tally into, of
        :func:`~repro.core.walk_engine.count_dtype` cells; the fast path
        passes the node's view into the counting engine's tensor.
        Allocated here when omitted.
        """
        if walk_budget < 1:
            raise ProtocolError("walk_budget must be >= 1")
        if length < 1:
            raise ProtocolError("walk length must be >= 1")
        if survival_alpha is not None and not 0.0 < survival_alpha < 1.0:
            raise ProtocolError("survival_alpha must be in (0, 1)")
        self.node_id = node_id
        self.neighbors = neighbors
        self.n = n
        self.target = target
        self.walks_per_source = walks_per_source
        self.length = length
        self.walk_key = walk_key
        self.policy = policy
        self.walk_budget = walk_budget
        self.count_initial = count_initial
        self.survival_alpha = survival_alpha
        self.split_sampling = split_sampling
        if split_sampling and walks_per_source % 2 != 0:
            raise ProtocolError(
                "split sampling needs an even walks_per_source"
            )
        # xi_v^s of Algorithm 1, indexed by source id (labels are 0..n-1);
        # in split mode, one row per half (A = 0, B = 1).
        if half_counts is None:
            half_counts = np.zeros(
                (2, n), dtype=count_dtype(walks_per_source, length)
            )
        self.half_counts = half_counts
        self._deaths = 0
        # The one-node slice of the engine's arrays: this node is node
        # 0, its ports are its edge ids, and its slab, seen as
        # ``half_counts[None]``, is a one-node count tensor.
        self._degrees = np.array([len(neighbors)], dtype=np.int64)
        self._seq = 0
        # Set when a network-wide engine takes over this manager's
        # launch, queue and death bookkeeping (the half_counts array is
        # then a view into the engine's global tensor).
        self._engine = None

    def attach_engine(self, engine) -> None:
        """Hand bookkeeping over to a network-wide counting engine.

        After attachment, :attr:`deaths`, :attr:`held_walks`, and
        :attr:`idle` read the engine's per-node slots; the engine
        launches this node's walks, and the per-manager launch/receive/
        send machinery must no longer be driven directly.
        """
        self._engine = engine

    @property
    def counts(self) -> np.ndarray:
        """Total visit counts (both halves combined).  Outside split
        mode half 1 is never written, and this is a view of half 0."""
        if self.split_sampling:
            return np.add(self.half_counts[0], self.half_counts[1])
        return self.half_counts[0]

    @cached_property
    def _queues(self) -> EdgeQueues:
        """Each port's FIFO queue of pending token groups, built on
        first use (a manager whose walks the engine runs never queues)."""
        return EdgeQueues(len(self.neighbors))

    @cached_property
    def _streams(self) -> WalkStreams:
        """This node's walk stream as a one-node stream set: its key and
        its draw counter."""
        return (
            np.array([self.walk_key], dtype=np.uint64),
            np.zeros(1, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Walk lifecycle
    # ------------------------------------------------------------------
    def launch(self) -> None:
        """Start this node's ``K`` walks (line 3 of Algorithm 1).

        In absorbing mode the target launches nothing: its walks would be
        absorbed at birth and contribute the all-zero column ``T[:, t]``.
        In damped (alpha) mode there is no absorbing node, so every node
        launches.
        """
        if self.survival_alpha is None and self.node_id == self.target:
            return
        halves, group_counts = launch_groups(
            self.walks_per_source, self.split_sampling
        )
        if self.count_initial:
            # The halves are distinct: no np.add.at needed.
            self.half_counts[halves, self.node_id] += group_counts.astype(
                self.half_counts.dtype
            )
        groups = len(halves)
        entries, firsts, self._seq = route_entries(
            np.zeros(groups, dtype=np.int64), np.full(groups, self.node_id),
            np.full(groups, self.length), halves, group_counts, _ORIGIN,
            group_counts.sum(keepdims=True), self._streams, self._degrees,
            _ORIGIN, self._seq,
        )
        self._queues.append(entries, firsts)

    def receive(
        self, source: int, remaining: int, count: int = 1, half: int = 0
    ) -> None:
        """Process ``count`` arriving walk tokens (lines 7-15).

        Convenience wrapper over :meth:`receive_group_arrays` for one
        group; the protocol aggregates a whole round's arrivals and makes
        one grouped call instead, so both simulator paths draw the same
        randomness.
        """
        if count < 1:
            raise ProtocolError("walk arrival count must be >= 1")
        if half not in (0, 1):
            raise ProtocolError("walk half tag must be 0 or 1")
        self.receive_group_arrays(
            np.array([source], dtype=np.int64),
            np.array([remaining], dtype=np.int64),
            np.array([half], dtype=np.int64),
            np.array([count], dtype=np.int64),
        )

    def receive_group_arrays(
        self,
        sources: np.ndarray,
        remainings: np.ndarray,
        halves: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Process one round's walk arrivals, given as token groups.

        ``remainings`` are the hop budgets left *from this node*.  The
        groups are canonicalized first, so the randomness consumed here
        is a function of the multiset of arrivals only.  The round then
        runs :func:`~repro.core.walk_engine.counting_round_kernel` on
        this node's slice: in damped mode each token first survives its
        hop with probability alpha, and dead tokens neither count the
        visit nor continue - matching the ``sum_r (alpha M)^r`` series
        the alpha-CFBC potentials are built from.
        """
        if len(sources) == 0:
            return
        nodes, sources, remainings, halves, counts = (
            aggregate_network_groups(
                np.zeros(len(sources), dtype=np.int64),
                sources,
                remainings,
                halves,
                counts,
            )
        )
        entries, firsts, _, death_counts, self._seq = counting_round_kernel(
            nodes, sources, remainings, halves, counts, self._streams,
            self.survival_alpha, 0 if self.node_id == self.target else -1,
            self.half_counts[None], self._degrees, _ORIGIN,
            len(self.neighbors), self._seq,
        )
        self._deaths += int(death_counts.sum())
        self._queues.append(entries, firsts)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_round(
        self,
        ctx: RoundContext,
        channel=None,
        budgets: dict[int, int] | None = None,
        instruments=None,
    ) -> int:
        """Emit this round's walk messages; return how many were sent.

        :meth:`~repro.core.walk_engine.EdgeQueues.take` decides which
        tokens each port sends under the per-edge budget, and
        :func:`~repro.core.walk_engine.walk_rows` encodes them - the
        rule and the format the fast path's emission applies to every
        edge of the network.  Each row goes out as its ``copies``
        messages: under QUEUE one per token (the budget counts tokens),
        under BATCH one counted message (the budget counts messages).

        With a :class:`~repro.congest.reliable.ReliableChannel`, the
        rows are sequenced through it
        (:func:`~repro.core.walk_engine.sequence_walk_rows`) and every
        message carries its seq as the last field.  ``budgets``
        overrides the per-neighbor budget for this round: under
        lossy-link recovery, retransmitted tokens occupy edge slots
        first and fresh emission gets what remains.  ``instruments`` (a
        ``repro.obs.InstrumentSet``) receives the sent count in its
        ``walk_sends`` round counter - observation only.
        """
        if not self._queues.rows:
            return 0
        neighbors = self.neighbors
        budget: int | np.ndarray = self.walk_budget
        if budgets is not None:
            budget = np.array(
                [budgets.get(neighbor, budget) for neighbor in neighbors],
                dtype=np.int64,
            )
        sent, taken = self._queues.take(budget, self.policy)
        if not len(sent):
            return 0
        kind, ports, fields, copies = walk_rows(
            sent, taken, self.policy, channel is not None
        )
        if channel is not None:
            sequence_walk_rows(
                kind,
                ports + channel.first_slot,
                fields,
                ctx.round_number,
                channel.table,
            )
        for port, row, count in zip(
            ports.tolist(), map(tuple, fields.tolist()), copies.tolist()
        ):
            for _ in range(count):
                ctx.send_fields(neighbors[port], kind, row)
        sent_messages = int(copies.sum())
        if instruments is not None:
            instruments.bump_round("walk_sends", ctx.round_number, sent_messages)
        return sent_messages

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def deaths(self) -> int:
        """Walks that died at this node (absorbed, expired, or thinned)."""
        if self._engine is not None:
            return int(self._engine.deaths[self.node_id])
        return self._deaths

    @property
    def held_walks(self) -> int:
        """Tokens currently queued at this node."""
        if self._engine is not None:
            return self._engine.held_walks(self.node_id)
        return int(self._queues.edge_tokens.sum())

    @property
    def idle(self) -> bool:
        return self.held_walks == 0
