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

Internally all token state is *grouped*: tokens with identical
``(source, remaining, half)`` are one ``count`` entry, and each round's
arrivals are canonicalized and routed by the vectorized kernel in
:mod:`repro.walks.batched` with a single uniform draw per node per
round.  Because the draw order depends only on the canonical group
order - never on message arrival order - the per-message simulation and
the scheduler's aggregate fast path consume identical random streams and
produce identical tallies.
"""

from __future__ import annotations

import enum
from collections import deque

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.node import RoundContext
from repro.walks.batched import aggregate_groups, route_groups, thin_groups

KIND_WALK = "walk"
KIND_WALK_BATCH = "walkb"


def sequence_block(
    channel,
    neighbor: int,
    kind: str,
    payload_rows: list[tuple[int, ...]],
    round_number: int,
) -> int:
    """Sequence a head-of-queue block of messages all shipped on one
    edge this round through the sender's reliable channel; returns the
    first seq (rows get consecutive seqs in order).  Shared by the
    per-message :meth:`WalkManager.send_round` and the fast-path
    engine's ``_emit_reliable`` so both allocate identically."""
    return channel.register_block(
        neighbor, kind, payload_rows, round_number
    )


def launch_groups(
    walks_per_source: int, split_sampling: bool
) -> tuple[np.ndarray, np.ndarray]:
    """A launching node's token groups, as ``(halves, counts)``: its
    ``K`` walks as one half-0 group, or in split mode a half-0 group
    then a half-1 group.  The order is part of the random-stream
    contract: routing draws the groups' ports in this order."""
    if split_sampling:
        halves = np.array([0, 1], dtype=np.int64)
        counts = np.array(
            [(walks_per_source + 1) // 2, walks_per_source // 2],
            dtype=np.int64,
        )
    else:
        halves = np.zeros(1, dtype=np.int64)
        counts = np.array([walks_per_source], dtype=np.int64)
    return halves, counts


class TransportPolicy(enum.Enum):
    """How queued walk tokens map onto messages."""

    QUEUE = "queue"
    BATCH = "batch"


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
        rng: np.random.Generator,
        policy: TransportPolicy = TransportPolicy.QUEUE,
        walk_budget: int = 2,
        count_initial: bool = True,
        survival_alpha: float | None = None,
        split_sampling: bool = False,
        half_counts: np.ndarray | None = None,
    ) -> None:
        """``survival_alpha``: when set, walks are *damped* instead of
        absorbed - every hop succeeds only with probability alpha (the
        alpha-current-flow semantics of section II-C), every node
        (including the nominal target) launches walks, and arrivals at
        the target are ordinary visits.

        ``split_sampling``: tag each walk with a half-bit (A/B) and keep
        two count vectors, enabling the noise-floor bias correction of
        :mod:`repro.core.bias` at the cost of one extra bit per token.

        ``half_counts``: the ``(2, n)`` count slab to tally into; the
        fast path passes the node's view into the counting engine's
        tensor.  Allocated here when omitted.
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
        self.rng = rng
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
            half_counts = np.zeros((2, n), dtype=np.int64)
        self.half_counts = half_counts
        self._deaths = 0
        # One FIFO of [source, remaining_here, half, count] groups per edge.
        self._queues: dict[int, deque[list[int]]] = {
            neighbor: deque() for neighbor in neighbors
        }
        self._held = 0
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
        """Total visit counts (both halves combined)."""
        return self.half_counts.sum(axis=0)

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
            np.add.at(
                self.half_counts,
                (halves, np.full(len(halves), self.node_id)),
                group_counts,
            )
        sources = np.full(len(halves), self.node_id, dtype=np.int64)
        remainings = np.full(len(halves), self.length, dtype=np.int64)
        self._route(sources, remainings, halves, group_counts)

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
        is a function of the multiset of arrivals only - the property the
        batched fast path relies on.  In damped mode each arriving token
        first survives its hop with probability alpha (vectorized
        binomial thinning); dead tokens neither count the visit nor
        continue - matching the ``sum_r (alpha M)^r`` series the
        alpha-CFBC potentials are built from.
        """
        if len(sources) == 0:
            return
        sources, remainings, halves, counts = aggregate_groups(
            sources, remainings, halves, counts
        )
        if self.survival_alpha is not None:
            survivors = thin_groups(self.rng, counts, self.survival_alpha)
            self._deaths += int(counts.sum() - survivors.sum())
            alive = survivors > 0
            if not alive.any():
                return
            sources = sources[alive]
            remainings = remainings[alive]
            halves = halves[alive]
            counts = survivors[alive]
        elif self.node_id == self.target:
            # Absorbed; by Eq. 3's removed row, absorption is not a visit.
            self._deaths += int(counts.sum())
            return
        np.add.at(self.half_counts, (halves, sources), counts)
        expired = remainings == 0
        if expired.any():
            self._deaths += int(counts[expired].sum())
            live = ~expired
            if not live.any():
                return
            sources = sources[live]
            remainings = remainings[live]
            halves = halves[live]
            counts = counts[live]
        self._route(sources, remainings, halves, counts)

    def _route(
        self,
        sources: np.ndarray,
        remainings: np.ndarray,
        halves: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Choose next hops now (one vectorized draw; choices are final)
        and queue the resulting per-edge groups."""
        allocation = route_groups(self.rng, len(self.neighbors), counts)
        for j, neighbor in enumerate(self.neighbors):
            column = allocation[:, j]
            for g in np.nonzero(column)[0]:
                self._queues[neighbor].append(
                    [
                        int(sources[g]),
                        int(remainings[g]),
                        int(halves[g]),
                        int(column[g]),
                    ]
                )
        self._held += int(counts.sum())

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def emit_round(
        self, budgets: dict[int, int] | None = None
    ) -> list[tuple[int, int, int, int, int]]:
        """Dequeue this round's sendable tokens under the per-edge budget.

        Returns ``(neighbor, source, remaining_after_hop, half, count)``
        entries.  Under QUEUE each entry stands for ``count`` individual
        messages (the budget counts tokens); under BATCH each entry is
        one counted message (the budget counts messages).  The caller
        materializes messages (slow path) or ships the entries in
        aggregate (fast path) - either way the queue dynamics, and hence
        the random stream, are identical.

        ``budgets`` overrides the per-neighbor budget for this round:
        under lossy-link recovery, retransmitted tokens occupy edge
        slots first and fresh emission gets what remains.
        """
        entries: list[tuple[int, int, int, int, int]] = []
        for neighbor in self.neighbors:
            queue = self._queues[neighbor]
            if not queue:
                continue
            budget = self.walk_budget
            if budgets is not None:
                budget = budgets.get(neighbor, budget)
                if budget <= 0:
                    continue
            if self.policy is TransportPolicy.QUEUE:
                while queue and budget > 0:
                    group = queue[0]
                    take = min(budget, group[3])
                    entries.append(
                        (neighbor, group[0], group[1] - 1, group[2], take)
                    )
                    budget -= take
                    if take == group[3]:
                        queue.popleft()
                    else:
                        group[3] -= take
            else:
                while queue and budget > 0:
                    source, remaining_here, half, count = queue.popleft()
                    entries.append(
                        (neighbor, source, remaining_here - 1, half, count)
                    )
                    budget -= 1
        self._held -= sum(entry[4] for entry in entries)
        return entries

    def send_round(
        self,
        ctx: RoundContext,
        channel=None,
        budgets: dict[int, int] | None = None,
        instruments=None,
    ) -> int:
        """Emit this round's walk messages; return how many were sent.

        Materializes each emitted group into individual ``walk`` /
        ``walkb`` messages (the per-message simulation path; on the
        scheduler's fast path the network-wide engine ships every node's
        groups in aggregate instead).

        With a :class:`~repro.congest.reliable.ReliableChannel`, every
        token message is sequenced through ``channel.register_sent`` and
        carries its seq as the last field; under QUEUE that forces one
        token per message (each needs its own seq).  ``budgets`` is
        forwarded to :meth:`emit_round`.  ``instruments`` (a
        ``repro.obs.InstrumentSet``) receives the sent count in its
        ``walk_sends`` round counter - observation only.
        """
        entries = self.emit_round(budgets)
        if not entries:
            return 0
        sent = 0
        for neighbor, source, remaining, half, count in entries:
            if self.policy is TransportPolicy.QUEUE:
                if channel is not None:
                    start = sequence_block(
                        channel,
                        neighbor,
                        KIND_WALK,
                        [(source, remaining, half)] * count,
                        ctx.round_number,
                    )
                    for seq in range(start, start + count):
                        ctx.send(
                            neighbor, KIND_WALK, source, remaining, half, seq
                        )
                else:
                    for _ in range(count):
                        ctx.send(neighbor, KIND_WALK, source, remaining, half)
                sent += count
            else:
                if channel is not None:
                    seq = sequence_block(
                        channel,
                        neighbor,
                        KIND_WALK_BATCH,
                        [(source, remaining, half, count)],
                        ctx.round_number,
                    )
                    ctx.send(
                        neighbor,
                        KIND_WALK_BATCH,
                        source,
                        remaining,
                        half,
                        count,
                        seq,
                    )
                else:
                    ctx.send(
                        neighbor,
                        KIND_WALK_BATCH,
                        source,
                        remaining,
                        half,
                        count,
                    )
                sent += 1
        if instruments is not None and sent:
            instruments.bump_round("walk_sends", ctx.round_number, sent)
        return sent

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
            return int(self._engine.held[self.node_id])
        return self._held

    @property
    def idle(self) -> bool:
        return self.held_walks == 0
