"""The full distributed RWBC protocol as one phased CONGEST node program.

Timeline (rounds; ``n``, ``K``, ``l`` are common knowledge per the
paper's Algorithm 1 input):

=================  ========================================================
rounds             phase
=================  ========================================================
0 .. n             SETUP: flood-max leader election + BFS tree; the leader
                   (a uniformly random node, since ranks are uniform) *is*
                   the absorbing target ``t`` - implementing Algorithm 1
                   line 2.  Round ``n`` announces parents.
n + 1              tree finalized; nodes exchange degrees with neighbors
                   (Algorithm 2 line 1 divides neighbor counts by
                   *neighbor* degrees).
n + 2              COUNTING starts: launch ``K`` walks per node
                   (Algorithm 1 line 3) and begin walk forwarding.
n + 2 .. R_end     COUNTING (Algorithm 1 lines 4-17): walk messages under
                   the transport policy, plus the monotone death-counter
                   convergecast.  When the root's counter reaches
                   ``(n - 1) K`` it floods ``done(R_end)`` with
                   ``R_end = detection + n + 2``, a common round safely
                   after the wave reaches everyone.
R_end .. R_end+n   EXCHANGE (Algorithm 2 line 2): in subround ``i`` every
                   node sends its count for source ``i`` to all neighbors.
R_end + n          local computation (Algorithm 2 lines 3-4) and halt.
=================  ========================================================

Node labels must be exactly ``0 .. n-1`` (the estimator relabels
arbitrary graphs first); source ids double as count-vector indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.congest.node import (
    NodeInfo,
    RoundContext,
    VectorizedProgram,
)
from repro.congest.primitives.flood import (
    KIND_ADOPT,
    KIND_FLOOD,
    FloodMaxBFS,
    FloodMaxState,
)
from repro.congest.reliable import KIND_ACK, ReliableChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import BulkRoundContext
    from repro.congest.transport import BulkInbox
from repro.core.flow_math import (
    betweenness_from_raw_flow,
    node_raw_flow,
    pair_sum_all,
)
from repro.core.termination import KIND_DONE, KIND_TERM, DeathCounterLogic
from repro.core.walk_engine import CountingWalkEngine
from repro.core.walk_manager import (
    KIND_WALK,
    KIND_WALK_BATCH,
    TransportPolicy,
    WalkManager,
)

KIND_DEGREE = "deg"
KIND_EXCHANGE = "xch"

PHASE_SETUP = "setup"
PHASE_COUNTING = "counting"
PHASE_EXCHANGE = "exchange"
PHASE_DONE = "done"


@dataclass(frozen=True)
class ProtocolConfig:
    """Distributed-run parameters shared by every node.

    Attributes
    ----------
    length, walks_per_source:
        The paper's ``l`` and ``K`` (Theorems 1 and 3).
    policy:
        Walk transport policy (see :mod:`repro.core.walk_manager`).
    walk_budget:
        Walk messages allowed per directed edge per round.
    count_initial:
        Count the launch position as a visit (Eq. 3's ``r = 0`` term).
    include_endpoints, normalized:
        Output convention (Newman defaults).
    survival_alpha:
        ``None`` runs the paper's absorbing-walk algorithm (RWBC).  A
        value in (0, 1) runs the damped alpha-CFBC variant of section
        II-C instead: no absorbing target, every hop survives with
        probability alpha, and the output estimates the
        alpha-current-flow betweenness.  Expected walk length drops to
        ``1/(1 - alpha)``, which is where the section's
        ``O(log n / (1 - alpha))`` round claim comes from.
    split_sampling:
        Tag each walk with a half-bit and carry two counts per source in
        the exchange phase, enabling the noise-floor bias correction of
        the E15 experiment (see :mod:`repro.core.bias`).  Costs one bit
        per walk token and one extra integer per exchange message - both
        still ``O(log n)``.  Requires even ``walks_per_source``.  Nodes
        then also expose ``betweenness_debiased`` and ``noise_floor``.
    reliable:
        Run the loss-tolerant variant of the protocol: every control and
        walk message travels through a per-edge ARQ
        (:mod:`repro.congest.reliable`), the setup timeline stretches by
        ``setup_slack`` to absorb retransmission latency, the done wave
        floods over all edges instead of only tree edges, and the
        exchange phase becomes self-paced (each node ships its next
        unsent count column each round and finishes when everything is
        sent, acked, and received).  Requires a bandwidth policy with at
        least ``walk_budget + 4`` messages per edge.  Fault-free
        reliable runs produce the same estimates as unreliable runs up
        to walk-randomness scheduling; under a
        :class:`~repro.congest.faults.FaultPlan` with drops, duplicates,
        delays, or crash-recover windows, the reliable protocol still
        terminates with exact counting (exactly-once token delivery).
    setup_slack:
        Reliable mode only: parents/degrees are announced at round
        ``setup_slack * n`` and walks launch at ``2 * setup_slack * n``,
        giving the flood and adopt waves time to win against message
        loss (a dropped control message retries every
        :data:`~repro.congest.reliable.RETRANSMIT_AFTER` rounds).
    instruments:
        Optional ``repro.obs.InstrumentSet`` shared by every node:
        walk-send counters and the ARQ's window/retransmit/latency
        instruments write into it.  Observation-only - no protocol
        decision ever reads it - and excluded from equality/hash, so
        two configs differing only in telemetry are the same config.
    """

    length: int
    walks_per_source: int
    policy: TransportPolicy = TransportPolicy.QUEUE
    walk_budget: int = 2
    count_initial: bool = True
    include_endpoints: bool = True
    normalized: bool = True
    survival_alpha: float | None = None
    split_sampling: bool = False
    reliable: bool = False
    setup_slack: int = 6
    instruments: object | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ProtocolError("length must be >= 1")
        if self.walks_per_source < 1:
            raise ProtocolError("walks_per_source must be >= 1")
        if self.walk_budget < 1:
            raise ProtocolError("walk_budget must be >= 1")
        if self.setup_slack < 2:
            raise ProtocolError("setup_slack must be >= 2")
        if self.survival_alpha is not None and not (
            0.0 < self.survival_alpha < 1.0
        ):
            raise ProtocolError("survival_alpha must be in (0, 1)")
        if self.split_sampling and self.walks_per_source % 2 != 0:
            raise ProtocolError(
                "split_sampling requires an even walks_per_source"
            )

    @property
    def launching_nodes(self) -> str:
        """Documentation helper: who launches walks in this mode."""
        return "all nodes" if self.survival_alpha is not None else "all but t"


class _ReliableCtx:
    """Context adapter that reroutes a primitive's control sends into
    the node's :class:`ReliableChannel` queues.

    The flood/BFS logic is written against the plain ``ctx.send`` /
    ``ctx.broadcast`` surface; in reliable mode its messages must be
    sequenced and retransmitted instead of shipped raw.  Kinds in the
    channel's ``latest_kinds`` (flood waves, monotone counters) use
    ``queue_latest`` so a superseded value never wastes a slot.
    """

    __slots__ = ("_channel", "_neighbors", "round_number")

    def __init__(
        self,
        channel: ReliableChannel,
        neighbors: tuple[int, ...],
        round_number: int,
    ) -> None:
        self._channel = channel
        self._neighbors = neighbors
        self.round_number = round_number

    def send(self, neighbor: int, kind: str, *fields: int) -> None:
        if kind in self._channel.latest_kinds:
            self._channel.queue_latest(neighbor, kind, tuple(fields))
        else:
            self._channel.queue(neighbor, kind, tuple(fields))

    def broadcast(self, kind: str, *fields: int) -> None:
        for neighbor in self._neighbors:
            self.send(neighbor, kind, *fields)


class RWBCNodeProgram(VectorizedProgram):
    """One node of the distributed RWBC algorithm.

    Outputs after the run: ``betweenness`` (this node's estimate),
    ``counts`` (its ``xi`` vector), ``target`` (the elected absorbing
    node), and the phase-boundary rounds ``counting_start_round`` /
    ``exchange_start_round`` / ``finish_round`` for the complexity
    experiments.

    The program is a :class:`VectorizedProgram`: walk and exchange
    traffic can travel as aggregate per-edge counts on the scheduler's
    fast path.  Both paths funnel each round's walk arrivals through one
    grouped :meth:`WalkManager.receive_group_arrays` call, so the random
    stream - and therefore every tally and every message count - is
    identical for the same seed.
    """

    def __init__(
        self, info: NodeInfo, rng: np.random.Generator, config: ProtocolConfig
    ) -> None:
        super().__init__(info, rng)
        if not 0 <= info.node_id < info.n:
            raise ProtocolError(
                f"protocol requires labels 0..n-1, got {info.node_id}"
            )
        self.config = config
        self.phase = PHASE_SETUP
        rank = int(rng.integers(0, max(2, info.n) ** 3))
        self._flood = FloodMaxBFS(info.node_id, rank)
        # Fast path only: the shared setup driver (non-reliable runs
        # without fault injection).  When set, the flood, the parent
        # announcements and the degree exchange run inside the driver,
        # which freezes this node's tree, target and neighbor degrees;
        # the node sleeps until it joins the counting phase.
        self._setup_engine = None
        # Fast path only: the shared exchange driver (non-reliable runs
        # without fault injection).  When set, the whole exchange phase -
        # column broadcasts, neighbor-count collection, and the final
        # local computation - runs inside the driver, and this node is
        # never woken for it.
        self._xch_engine = None
        self._tree: FloodMaxState | None = None
        self._walks: WalkManager | None = None
        self._death_counter: DeathCounterLogic | None = None
        # Fast path only: the shared network-wide counting engine.
        self._engine: CountingWalkEngine | None = None
        self._neighbor_degrees: dict[int, int] = {}
        # Neighbor half counts, allocated on first use (see
        # _neighbor_slabs); the exchange driver installs views into the
        # count tensor instead, so the fault-free fast path never
        # allocates the matrix.
        self._neighbor_index = np.array(info.neighbors, dtype=np.int64)
        self._neighbor_matrix: np.ndarray | None = None
        self._neighbor_counts: dict[int, np.ndarray] | None = None
        self._exchange_start: int | None = None
        # Reliable-mode state (all inert when config.reliable is False).
        self._channel: ReliableChannel | None = None
        self._adopters: set[int] = set()
        self._early_terms: list[tuple[int, int]] = []
        self._announced = False
        self._next_column = 0
        self._xch_received: dict[int, int] = dict.fromkeys(info.neighbors, 0)
        if config.reliable:
            self._channel = ReliableChannel(
                node_id=info.node_id,
                neighbors=info.neighbors,
                token_budget=config.walk_budget,
                token_kinds=frozenset({KIND_WALK, KIND_WALK_BATCH}),
                latest_kinds=frozenset({KIND_FLOOD, KIND_TERM, KIND_DONE}),
                instruments=config.instruments,
            )
        # Outputs.
        self.betweenness: float | None = None
        self.betweenness_debiased: float | None = None
        self.noise_floor: float | None = None
        self.edge_betweenness: dict[int, float] = {}
        self.counts: np.ndarray | None = None
        self.target: int | None = None
        self.counting_start_round: int | None = None
        self.exchange_start_round: int | None = None
        self.finish_round: int | None = None

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------
    def on_start(self, ctx: RoundContext) -> None:
        if self._channel is None:
            shared = getattr(ctx, "shared", None)
            if shared is not None and shared.fault_runtime is None:
                # Fault-free fast path: hand the whole setup phase to the
                # shared driver, which floods every node's candidate once
                # the last node has registered.
                from repro.core.setup_engine import SetupEngine

                setup = shared.slots.get("setup_engine")
                if setup is None:
                    setup = SetupEngine(shared.edges)
                    shared.slots["setup_engine"] = setup
                    shared.register_driver(setup)
                setup.register(self, ctx.bulk)
                self._setup_engine = setup
                return
            self._flood.start(ctx)
            return
        rctx = _ReliableCtx(self._channel, self.neighbors, ctx.round_number)
        self._flood.start(rctx)
        self._channel.flush(ctx.round_number, ctx.push_message)

    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        if self.phase == PHASE_SETUP:
            self._setup_round(ctx, inbox)
        elif self.phase == PHASE_COUNTING:
            self._counting_round(ctx, inbox)
        elif self.phase == PHASE_EXCHANGE:
            self._exchange_round(ctx, inbox)
        else:  # PHASE_DONE: ignore stragglers (none are expected
            # fault-free; under recovery, re-ack so peers stop retrying).
            self._done_round(ctx, inbox)

    def on_bulk_round(
        self,
        ctx: BulkRoundContext,
        inbox: list[Message],
        bulk: BulkInbox | None,
    ) -> None:
        if self.phase == PHASE_SETUP:
            # With the setup driver installed this is the launch round;
            # otherwise (faults) setup traffic stays per-message.
            self._setup_round(ctx, inbox)
        elif self.phase == PHASE_COUNTING:
            self._counting_round_engine(ctx, inbox)
        elif self.phase == PHASE_EXCHANGE:
            self._exchange_round(ctx, inbox, bulk)
        else:
            self._done_round(ctx, inbox)

    def _done_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """A halted node woken by late traffic.  In reliable mode the
        arrivals are peer retransmissions whose acks got lost; running
        them through the channel re-marks the acks due, and the flush
        sends them so the peers can drain and halt too."""
        if self._channel is not None and inbox:
            for message in inbox:
                payload = self._channel.receive(message)
                if payload is not None and message.kind in (
                    KIND_WALK,
                    KIND_WALK_BATCH,
                ):
                    raise ProtocolError(
                        "fresh walk token arrived after finish at node "
                        f"{self.node_id}: recovery lost a death"
                    )
            self._channel.flush(ctx.round_number, ctx.push_message)
        self.halt()

    @property
    def bulk_idle(self) -> bool:
        """Skippable on the fast path: during counting, all walk
        movement and termination reporting runs inside the shared
        :class:`CountingWalkEngine`, so a node only needs a round of its
        own when control mail arrives - the done wave, plus term reports
        and ARQ traffic where the engine leaves the convergecast to the
        nodes.  Setup and exchange rounds are round-number driven, so
        the node must run every one of them."""
        return self.phase == PHASE_COUNTING

    def next_wake(self, round_number: int) -> int | None:
        """Calendar wakes for the fast-path scheduler.

        Mirrors the phase timeline exactly: in non-reliable setup the
        only mail-less rounds that *do* anything are the milestones
        ``n`` (parent announcement), ``n + 1`` (degree broadcast) and
        ``n + 2`` (launch) - between floods the ``FloodMaxBFS.step``
        with an empty inbox is a strict no-op, so sleeping until the
        next milestone is safe.  When the shared setup driver owns the
        phase, its traffic never reaches the node and the driver does
        the milestones' work, so the node sleeps straight through to
        its launch at ``n + 2``, where it only builds its manager and
        counter and registers them: the engine launches the walks.
        Reliable mode is timer-driven (ARQ retransmits), so it keeps the
        historical every-round stepping.  Counting is mail-only (the
        engine does the work; with the array convergecast only the done
        wave wakes a node).  Exchange is
        calendar-driven from ``_exchange_start`` unless the shared
        exchange driver owns it, in which case the node sleeps forever
        and the driver finishes it."""
        if self.phase == PHASE_SETUP:
            if self._channel is not None:
                return round_number + 1
            n = self.info.n
            if self._setup_engine is not None:
                return n + 2
            return n if round_number < n else round_number + 1
        if self.phase == PHASE_COUNTING:
            return None
        if self.phase == PHASE_EXCHANGE:
            if self._xch_engine is not None:
                return None
            if self._channel is not None:
                return round_number + 1
            start = self._exchange_start
            return start if round_number < start else round_number + 1
        return None  # PHASE_DONE: only late mail matters

    # ------------------------------------------------------------------
    # Phase 1: setup (leader election, tree, degrees)
    # ------------------------------------------------------------------
    def _setup_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        if self._channel is not None:
            self._setup_round_reliable(ctx, inbox)
            return
        n = self.info.n
        r = ctx.round_number
        if self._setup_engine is not None:
            # The driver froze the tree, target and neighbor degrees; the
            # node's only setup step is its launch at round n + 2.
            self._launch_counting(ctx, r)
            return
        if r <= n:
            self._flood.step(ctx, inbox)
            if r == n:
                self._flood.announce_parent(ctx)
            return
        if r == n + 1:
            self._tree = self._flood.finish(inbox)
            self.target = self._tree.leader_id
            ctx.broadcast(KIND_DEGREE, self.degree)
            return
        # r == n + 2: learn neighbor degrees, launch walks, start counting.
        for message in inbox:
            if message.kind == KIND_DEGREE:
                (degree,) = message.fields
                self._neighbor_degrees[message.sender] = degree
        if len(self._neighbor_degrees) != self.degree:
            raise ProtocolError(
                f"node {self.node_id}: expected {self.degree} degree "
                f"reports, got {len(self._neighbor_degrees)}"
            )
        self._launch_counting(ctx, r)

    def _setup_round_reliable(
        self, ctx: RoundContext, inbox: list[Message]
    ) -> None:
        """Loss-tolerant setup: same flood/adopt/degree dance, but every
        control message rides the ARQ and the timeline is stretched -
        parents and degrees go out at ``setup_slack * n`` and walks
        launch at ``2 * setup_slack * n``, leaving every wave
        ``RETRANSMIT_AFTER``-round retries worth of slack.  A node that
        was crashed through one of the milestone rounds performs the
        missed step on its first live round after it (its own control
        messages were queued, not lost, and arriving floods were held
        unacked by the ARQ until delivered)."""
        n = self.info.n
        r = ctx.round_number
        announce = self.config.setup_slack * n
        launch = 2 * announce
        flood_mail: list[Message] = []
        for message in inbox:
            kind = message.kind
            if kind == KIND_ACK:
                self._channel.receive(message)
                continue
            if kind in (KIND_WALK, KIND_WALK_BATCH):
                # Not launched yet: leave the token unacked so the
                # sender keeps retransmitting; it lands once this node
                # reaches the counting phase.
                continue
            payload = self._channel.receive(message)
            if payload is None:
                continue
            if kind == KIND_FLOOD:
                flood_mail.append(
                    Message(message.sender, self.node_id, KIND_FLOOD, payload)
                )
            elif kind == KIND_ADOPT:
                self._adopters.add(message.sender)
            elif kind == KIND_DEGREE:
                self._neighbor_degrees[message.sender] = payload[0]
            elif kind == KIND_TERM:
                # Possible only when this node was crashed through the
                # launch round: a tree child is already counting and
                # reporting.  The counter does not exist yet - hold the
                # report and replay it at launch.
                self._early_terms.append((message.sender, payload[0]))
            # done/xch cannot arrive while this node is in setup: the
            # done wave needs every launched walk dead, which cannot
            # happen before this node launches its own.
        rctx = _ReliableCtx(self._channel, self.neighbors, r)
        # The flood keeps running until launch, not just until the
        # announcement: a node crashed through the flood's last waves
        # (or through the announcement itself) catches up on recovery
        # and re-floods what it learns, and its neighbors must still
        # take that in.  Without a crash the flood is stable long
        # before ``announce`` and later flood mail changes nothing.
        self._flood.step(rctx, flood_mail)
        if not self._announced and r >= announce:
            # Normally exactly round ``announce``; later only when this
            # node was crashed through it.
            self._flood.announce_parent(rctx)
            for neighbor in self.neighbors:
                self._channel.queue(neighbor, KIND_DEGREE, (self.degree,))
            self._announced = True
        if r >= launch:
            # Freeze the tree from the flood state at launch.  Adopters
            # only seed the death counter's child set: a missing child
            # (its announcement still in retransmission, or one that
            # switched to this parent after announcing) is auto-adopted
            # by the non-strict counter on its first report, and a
            # stale one (switched away after announcing) never reports
            # and adds 0 to the subtree total.  Missing degrees arrive
            # before the exchange phase can finish.
            self._tree = FloodMaxState(
                leader_id=self._flood.best_id,
                leader_rank=self._flood.best_rank,
                distance=self._flood.distance,
                parent=self._flood.parent,
                children=tuple(sorted(self._adopters)),
            )
            self.target = self._tree.leader_id
            self._launch_counting(ctx, r)
            return
        self._channel.flush(r, ctx.push_message)

    def _launch_counting(self, ctx: RoundContext, r: int) -> None:
        """Build the walk manager and death counter and start counting.

        On the fast path the node joins (or creates) the network-wide
        engine, which launches every node's walks at the end of this
        round and owns the sends from then on; otherwise the node
        launches its own walks and sends this round's traffic."""
        n = self.info.n
        shared = getattr(ctx, "shared", None)
        engine = None
        if shared is not None:
            engine = shared.slots.get("walk_engine")
            if engine is None:
                # The convergecast runs as arrays where the setup and
                # exchange drivers run: fault-free and not reliable.
                convergecast = (
                    self._channel is None and shared.fault_runtime is None
                )
                engine = CountingWalkEngine(shared.edges, convergecast)
                shared.slots["walk_engine"] = engine
                shared.register_driver(engine)
        self._walks = WalkManager(
            node_id=self.node_id,
            neighbors=self.neighbors,
            n=n,
            target=self.target,
            walks_per_source=self.config.walks_per_source,
            length=self.config.length,
            rng=self.rng,
            policy=self.config.policy,
            walk_budget=self.config.walk_budget,
            count_initial=self.config.count_initial,
            survival_alpha=self.config.survival_alpha,
            split_sampling=self.config.split_sampling,
            half_counts=None if engine is None else engine.counts[self.node_id],
        )
        # In damped mode every node launches K walks; in absorbing mode
        # the target sits out (its walks would die at birth).
        launchers = n if self.config.survival_alpha is not None else n - 1
        self._death_counter = DeathCounterLogic(
            node_id=self.node_id,
            parent=self._tree.parent,
            children=self._tree.children,
            expected_total=launchers * self.config.walks_per_source,
            strict=not self.config.reliable,
        )
        for sender, total in self._early_terms:
            self._death_counter.receive_report(sender, total)
        self._early_terms = []
        self.phase = PHASE_COUNTING
        self.counting_start_round = r
        if engine is not None:
            engine.register(
                self, self._walks, self._death_counter, ctx, self._channel
            )
            self._engine = engine
            return
        self._walks.launch()
        if self._channel is None:
            self._counting_sends(ctx)
        else:
            self._reliable_counting_sends(ctx)

    # ------------------------------------------------------------------
    # Phase 2: counting (Algorithm 1)
    # ------------------------------------------------------------------
    def _counting_round_engine(
        self, ctx: BulkRoundContext, inbox: list[Message]
    ) -> None:
        """Fast-path counting round: only control mail reaches the node
        (walk traffic is claimed by the engine), so this just folds in
        term reports, reacts to the done wave, and tells the engine the
        node was active so the post-round pass re-examines its
        reporting state.  When the engine runs the convergecast as
        arrays it claims the term rows too, and the done wave is the
        only mail that steps a counting node.

        In reliable mode the control mail additionally includes acks
        and retransmitted walk tokens; fresh tokens are handed to the
        engine's control-arrival buffer so they join the same
        canonical grouped receive as the claimed bulk traffic.  The
        engine owns this node's flush while it is counting, so none
        happens here."""
        done_round: int | None = None
        if self._channel is not None:
            for message in inbox:
                kind = message.kind
                if kind == KIND_ACK:
                    self._channel.receive(message)
                    continue
                payload = self._channel.receive(message)
                if payload is None:
                    continue
                if kind in (KIND_WALK, KIND_WALK_BATCH):
                    self._engine.deliver_control_walk(
                        self.node_id, kind, payload
                    )
                elif kind == KIND_TERM:
                    self._death_counter.receive_report(
                        message.sender, payload[0]
                    )
                elif kind == KIND_DONE:
                    done_round = payload[0]
                elif kind == KIND_EXCHANGE:
                    self._store_exchange(message.sender, payload)
                elif kind == KIND_DEGREE:
                    self._neighbor_degrees[message.sender] = payload[0]
        else:
            for message in inbox:
                if message.kind == KIND_TERM:
                    (total,) = message.fields
                    self._death_counter.receive_report(message.sender, total)
                elif message.kind == KIND_DONE:
                    (done_round,) = message.fields
        if done_round is not None:
            self._begin_done_wave(ctx, done_round)
            return
        self._engine.touch(self.node_id)

    def _counting_round(
        self, ctx: RoundContext, inbox: list[Message]
    ) -> None:
        walks = self._walks
        deaths_before = walks.deaths
        done_round: int | None = None
        sources: list[int] = []
        remainings: list[int] = []
        halves: list[int] = []
        counts: list[int] = []
        if self._channel is not None:
            for message in inbox:
                kind = message.kind
                if kind == KIND_ACK:
                    self._channel.receive(message)
                    continue
                payload = self._channel.receive(message)
                if payload is None:
                    continue
                if kind == KIND_WALK:
                    sources.append(payload[0])
                    remainings.append(payload[1])
                    halves.append(payload[2])
                    counts.append(1)
                elif kind == KIND_WALK_BATCH:
                    sources.append(payload[0])
                    remainings.append(payload[1])
                    halves.append(payload[2])
                    counts.append(payload[3])
                elif kind == KIND_TERM:
                    self._death_counter.receive_report(
                        message.sender, payload[0]
                    )
                elif kind == KIND_DONE:
                    done_round = payload[0]
                elif kind == KIND_EXCHANGE:
                    # A neighbor reached the exchange phase before this
                    # node's done arrival; its columns are valid now.
                    self._store_exchange(message.sender, payload)
                elif kind == KIND_DEGREE:
                    self._neighbor_degrees[message.sender] = payload[0]
        else:
            for message in inbox:
                if message.kind == KIND_WALK:
                    source, remaining, half = message.fields
                    sources.append(source)
                    remainings.append(remaining)
                    halves.append(half)
                    counts.append(1)
                elif message.kind == KIND_WALK_BATCH:
                    source, remaining, half, count = message.fields
                    sources.append(source)
                    remainings.append(remaining)
                    halves.append(half)
                    counts.append(count)
                elif message.kind == KIND_TERM:
                    (total,) = message.fields
                    self._death_counter.receive_report(message.sender, total)
                elif message.kind == KIND_DONE:
                    (done_round,) = message.fields
        if sources:
            # One grouped call per round: the randomness consumed depends
            # only on the multiset of arrivals, never on message order.
            walks.receive_group_arrays(
                np.array(sources, dtype=np.int64),
                np.array(remainings, dtype=np.int64),
                np.array(halves, dtype=np.int64),
                np.array(counts, dtype=np.int64),
            )
        self._death_counter.record_deaths(walks.deaths - deaths_before)

        if done_round is None and self._death_counter.root_detects_completion:
            # Root: schedule the common phase switch and start the wave.
            done_round = ctx.round_number + self.info.n + 2
        if done_round is not None:
            self._begin_done_wave(ctx, done_round)
            if self._channel is not None:
                # Ship the queued done wave (and any owed acks) now;
                # from next round the exchange handler flushes.
                self._channel.flush(ctx.round_number, ctx.push_message)
            return
        if self._channel is not None:
            self._reliable_counting_sends(ctx)
        else:
            self._counting_sends(ctx)

    def _counting_sends(self, ctx: RoundContext) -> None:
        self._walks.send_round(ctx, instruments=self.config.instruments)
        self._death_counter.maybe_report(ctx)

    def _reliable_counting_sends(self, ctx: RoundContext) -> None:
        """Per-message-loop counting sends under recovery: queue the
        term report, flush the ARQ (retransmissions claim edge slots
        first), then emit fresh walk tokens into what remains."""
        total = self._death_counter.pop_report()
        if total is not None:
            self._channel.queue_latest(
                self._death_counter.parent, KIND_TERM, (total,)
            )
        retransmits = self._channel.flush(ctx.round_number, ctx.push_message)
        budgets = {
            neighbor: self.config.walk_budget - retransmits.get(neighbor, 0)
            for neighbor in self.neighbors
        }
        self._walks.send_round(
            ctx, self._channel, budgets,
            instruments=self.config.instruments,
        )

    def _neighbor_slabs(self) -> dict[int, np.ndarray]:
        """One ``(2, n)`` half-count slab per neighbor, allocated on
        first use: a single ``(degree, 2, n)`` matrix, so the fast path
        can scatter a whole round's exchange arrivals in one vectorized
        store, with the dict values as views into it.  The exchange
        driver installs views into the count tensor instead, and then
        nothing is allocated."""
        if self._neighbor_counts is None:
            self._neighbor_matrix = np.zeros(
                (self.degree, 2, self.info.n), dtype=np.int64
            )
            self._neighbor_counts = {
                neighbor: self._neighbor_matrix[j]
                for j, neighbor in enumerate(self.neighbors)
            }
        return self._neighbor_counts

    def _store_exchange(self, sender: int, payload: tuple[int, ...]) -> None:
        """Fold one fresh (deduplicated) exchange column from a
        neighbor; reliable mode only."""
        source, count_a, count_b = payload
        slab = self._neighbor_slabs()[sender]
        slab[0, source] = count_a
        slab[1, source] = count_b
        self._xch_received[sender] += 1

    def _begin_done_wave(self, ctx: RoundContext, done_round: int) -> None:
        self._exchange_start = done_round
        self._death_counter.stop()
        if self._engine is not None:
            self._engine.stop_reporting(self.node_id)
        if self._walks.held_walks:
            raise ProtocolError(
                f"node {self.node_id} still holds walks at the done wave; "
                "termination detection is broken"
            )
        if self._channel is not None:
            # Under loss the tree is not a safe broadcast overlay (an
            # adopt may still be in flight), so the done wave floods
            # over every edge; duplicates are cheap and dedup is free.
            for neighbor in self.neighbors:
                self._channel.queue_latest(neighbor, KIND_DONE, (done_round,))
            if self._engine is not None:
                # The engine owns this node's flush for the transition
                # round (its per-node call already happened).
                self._engine.note_transition(self.node_id)
        else:
            for child in self._tree.children:
                ctx.send(child, KIND_DONE, done_round)
        self.phase = PHASE_EXCHANGE
        self.exchange_start_round = done_round
        shared = getattr(ctx, "shared", None)
        if shared is not None and self._channel is not None:
            # Reliable mode: the exchange is self-paced, one step every
            # round from the next one on.  When this transition fired
            # inside the engine's end-of-round pass (the root's
            # detection) the scheduler saw no step to query, so file an
            # ASAP wake (target 0 clamps to the next round).  Redundant
            # after a normal mail-driven step; the scheduler dedups.
            shared.request_wake(self.node_id, 0)
        elif shared is not None:
            if self._engine is not None and shared.fault_runtime is None:
                # Fault-free fast path: hand the whole exchange phase to
                # the shared driver.  It broadcasts every node's columns
                # as one aggregate push per round (byte-identical
                # traffic) and runs the final local computation directly
                # on the engine's count tensor.
                from repro.core.exchange_engine import ExchangeEngine

                xch = shared.slots.get("exchange_engine")
                if xch is None:
                    xch = ExchangeEngine(done_round, self._engine, shared.edges)
                    shared.slots["exchange_engine"] = xch
                    shared.register_driver(xch)
                xch.register(self)
                self._xch_engine = xch
            else:
                # No driver: this transition may have happened inside
                # the engine's end-of-round pass (the root's detection),
                # where the scheduler cannot observe the phase change -
                # file the calendar wake for the first exchange round
                # explicitly.  Redundant with the post-step next_wake
                # query when the transition happened in a normal step;
                # the scheduler dedups.
                shared.request_wake(self.node_id, done_round)

    # ------------------------------------------------------------------
    # Phase 3: exchange (Algorithm 2) + local computation
    # ------------------------------------------------------------------
    def _exchange_round(
        self,
        ctx: RoundContext,
        inbox: list[Message],
        bulk: BulkInbox | None = None,
    ) -> None:
        if self._channel is not None:
            self._exchange_round_reliable(ctx, inbox)
            return
        n = self.info.n
        r = ctx.round_number
        for message in inbox:
            if message.kind == KIND_EXCHANGE:
                source, count_a, count_b = message.fields
                slab = self._neighbor_slabs()[message.sender]
                slab[0, source] = count_a
                slab[1, source] = count_b
            elif message.kind in (KIND_TERM, KIND_DONE):
                continue  # stragglers from the counting phase
            elif message.kind in (KIND_WALK, KIND_WALK_BATCH):
                raise ProtocolError(
                    "walk message arrived during exchange at node "
                    f"{self.node_id}: termination detection is broken"
                )
        if bulk:
            if KIND_WALK in bulk or KIND_WALK_BATCH in bulk:
                raise ProtocolError(
                    "walk message arrived during exchange at node "
                    f"{self.node_id}: termination detection is broken"
                )
            exchange = bulk.get(KIND_EXCHANGE)
            if exchange is not None:
                self._neighbor_slabs()  # allocates the matrix on first use
                rows = np.searchsorted(
                    self._neighbor_index, exchange.senders
                )
                source_column = exchange.fields[:, 0]
                self._neighbor_matrix[rows, 0, source_column] = (
                    exchange.fields[:, 1]
                )
                self._neighbor_matrix[rows, 1, source_column] = (
                    exchange.fields[:, 2]
                )
        if self._xch_engine is not None:
            # The shared driver broadcasts this node's columns and calls
            # ``_finish``; this step only happened because of straggler
            # control mail, and sending here would double the traffic.
            return
        start = self._exchange_start
        if start <= r < start + n:
            source = r - start
            count_a = int(self._walks.half_counts[0, source])
            count_b = int(self._walks.half_counts[1, source])
            bulk_outbox = getattr(ctx, "bulk", None)
            if bulk_outbox is not None:
                # Same broadcast, shipped as one aggregate push.  The
                # receivers are exactly this node's neighbors, so the
                # send_bulk adjacency check would be redundant.
                fields = np.empty((self.degree, 3), dtype=np.int64)
                fields[:, 0] = source
                fields[:, 1] = count_a
                fields[:, 2] = count_b
                bulk_outbox.push(
                    self.node_id, KIND_EXCHANGE, self._neighbor_index, fields
                )
            else:
                ctx.broadcast(KIND_EXCHANGE, source, count_a, count_b)
        elif r >= start + n:
            self._finish(r)

    def _exchange_round_reliable(
        self, ctx: RoundContext, inbox: list[Message]
    ) -> None:
        """Self-paced exchange under recovery (Algorithm 2, lossy form).

        The fault-free protocol synchronizes subrounds by the calendar
        (column ``i`` travels in round ``R_end + i``); loss breaks any
        fixed schedule, so instead each node ships its next unsent
        count column every round through the ARQ and finishes when all
        ``n`` columns are sent *and acked*, all ``n`` columns have
        arrived from every neighbor, every neighbor degree is known,
        and the channel is drained.  Fault-free this sends exactly the
        same n columns in the same n rounds as the calendar schedule.
        """
        n = self.info.n
        r = ctx.round_number
        for message in inbox:
            kind = message.kind
            if kind == KIND_ACK:
                self._channel.receive(message)
                continue
            payload = self._channel.receive(message)
            if payload is None:
                continue
            if kind == KIND_EXCHANGE:
                self._store_exchange(message.sender, payload)
            elif kind == KIND_TERM:
                # A child's report whose first copy was lost; fold it
                # in (monotone) so the ack stops its retransmission.
                self._death_counter.receive_report(message.sender, payload[0])
            elif kind == KIND_DONE:
                pass  # the done wave floods every edge; we already know
            elif kind == KIND_DEGREE:
                self._neighbor_degrees[message.sender] = payload[0]
            elif kind in (KIND_WALK, KIND_WALK_BATCH):
                raise ProtocolError(
                    "fresh walk token arrived during exchange at node "
                    f"{self.node_id}: recovery lost a death"
                )
        if self._next_column < n:
            source = self._next_column
            count_a = int(self._walks.half_counts[0, source])
            count_b = int(self._walks.half_counts[1, source])
            for neighbor in self.neighbors:
                self._channel.queue(
                    neighbor, KIND_EXCHANGE, (source, count_a, count_b)
                )
            self._next_column += 1
        self._channel.flush(r, ctx.push_message)
        if (
            self._next_column >= n
            and len(self._neighbor_degrees) == self.degree
            and all(self._xch_received[v] >= n for v in self.neighbors)
            and self._channel.drained
        ):
            self._finish(r)

    def _finish(self, round_number: int) -> None:
        n = self.info.n
        self.counts = self._walks.counts.copy()
        own_potential = self.counts / self.degree
        # One pass over the neighbors: each potential difference ``w``
        # feeds both the node's raw flow (the pair sum excluding this
        # node, summed as in ``node_raw_flow``) and, as a free
        # by-product, the incident edge's current-flow betweenness
        # (the sum over all pairs; edges have no Eq. 7 term).
        pairs = 0.5 * n * (n - 1)
        total = 0.0
        slabs = self._neighbor_slabs()
        for neighbor in self.neighbors:
            w = (
                own_potential
                - slabs[neighbor].sum(axis=0)
                / self._neighbor_degrees[neighbor]
            )
            full = pair_sum_all(w)
            total += full - float(np.abs(w - w[self.node_id]).sum())
            self.edge_betweenness[neighbor] = full / (
                pairs * self.config.walks_per_source
            )
        raw = 0.5 * total
        self.betweenness = betweenness_from_raw_flow(
            raw,
            n,
            scale=float(self.config.walks_per_source),
            include_endpoints=self.config.include_endpoints,
            normalized=self.config.normalized,
        )
        if self.config.split_sampling:
            self._finish_split(raw, n)
        self.finish_round = round_number
        self.phase = PHASE_DONE
        self.halt()

    def _finish_split(self, raw_signal: float, n: int) -> None:
        """Noise-floor correction (repro.core.bias, distributed form).

        The antithetic combination ``(A - B) / 2`` of the two walk
        halves is distributed exactly like the estimator noise of
        ``(A + B) / 2`` under a zero true difference, so its pair-sum
        measures the bias floor of the plain estimate.
        """
        own_noise = (
            self._walks.half_counts[0] - self._walks.half_counts[1]
        ) / (2.0 * self.degree)
        half_k = self.config.walks_per_source // 2
        slabs = self._neighbor_slabs()
        neighbor_noise = (
            (slabs[neighbor][0] - slabs[neighbor][1])
            / (2.0 * self._neighbor_degrees[neighbor])
            for neighbor in self.neighbors
        )
        raw_noise = node_raw_flow(own_noise, neighbor_noise, self.node_id)
        # The plain estimate uses scale K on summed counts; the noise
        # pair-sum is built from half-count differences at scale K/2.
        floor = betweenness_from_raw_flow(
            raw_noise,
            n,
            scale=float(half_k),
            include_endpoints=False,
            normalized=False,
        )
        if self.config.normalized:
            pairs = (
                0.5 * n * (n - 1)
                if self.config.include_endpoints
                else 0.5 * (n - 1) * (n - 2)
            )
            floor /= pairs
        self.noise_floor = floor
        self.betweenness_debiased = self.betweenness - floor


def make_protocol_factory(config: ProtocolConfig):
    """Program factory binding one :class:`ProtocolConfig`."""

    def factory(info: NodeInfo, rng: np.random.Generator) -> RWBCNodeProgram:
        return RWBCNodeProgram(info, rng, config)

    return factory
