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
n + 2 .. R         COUNTING (Algorithm 1 lines 4-17): walk messages under
                   the transport policy, plus the monotone death-counter
                   convergecast.  In the round ``R`` its counter reaches
                   ``(n - 1) K`` the root sends ``done`` down the tree;
                   a node at depth ``d`` relays it in round ``R + d``.
s .. s + n - 1     EXCHANGE (Algorithm 2 line 2), paced per node by the
                   done wave: a node that relays ``done`` in round ``r``
                   has ``s = r + 1`` and sends its count for source ``i``
                   to all neighbors in round ``s + i``.
s + n + 1          local computation (Algorithm 2 lines 3-4) and halt.
                   Tree neighbors' depths differ by at most one, so a
                   neighbor starts at most one round later and its last
                   column has arrived by then.
=================  ========================================================

Node labels must be exactly ``0 .. n-1`` (the estimator relabels
arbitrary graphs first); source ids double as count-vector indices.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.congest.node import (
    LazyGenerator,
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
from repro.congest.splitmix import stream_key
from repro.core.flow_math import (
    betweenness_from_raw_flow,
    node_raw_flow,
    pair_sum_all,
)
from repro.core.termination import KIND_DONE, KIND_TERM, DeathCounterLogic
from repro.core.walk_engine import (
    WALK_KINDS,
    CountingWalkEngine,
    TransportPolicy,
    count_dtype,
    walk_groups,
    walk_key,
)
from repro.core.walk_manager import WalkManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.reliable import ReliableChannel

KIND_DEGREE = "deg"
KIND_EXCHANGE = "xch"

PHASE_SETUP = "setup"
PHASE_COUNTING = "counting"
PHASE_EXCHANGE = "exchange"
PHASE_DONE = "done"

#: Reliable mode's setup calendar: parents and degrees are announced at
#: round ``SETUP_SLACK * n`` and walks launch at ``2 * SETUP_SLACK * n``,
#: giving the flood and adopt waves time to win against message loss (a
#: dropped control message retries every
#: :data:`~repro.congest.reliable.RETRANSMIT_AFTER` rounds).
SETUP_SLACK = 6

#: Domain tag of the leader-election ranks' keys (ASCII ``RANK``).
RANK_STREAM = 0x52414E4B


def leader_rank(entropy: int, node: int, n: int) -> int:
    """``node``'s flood-max candidate rank in a run seeded with
    ``entropy``: a hash of the node's rank key, scaled to ``[0,
    max(2, n)**3)``, so ranks are uniform and ties (which the flood
    breaks by id) have probability below ``1 / n``."""
    return (stream_key(entropy, RANK_STREAM, node) * max(2, n) ** 3) >> 64


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
        :data:`SETUP_SLACK` to absorb retransmission latency, the done wave
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
        if self.survival_alpha is not None and not (
            0.0 < self.survival_alpha < 1.0
        ):
            raise ProtocolError("survival_alpha must be in (0, 1)")
        if self.split_sampling and self.walks_per_source % 2 != 0:
            raise ProtocolError(
                "split_sampling requires an even walks_per_source"
            )


class _ReliableCtx:
    """Context adapter that reroutes a primitive's control sends into
    the node's :class:`ReliableChannel` queues.

    The flood/BFS logic is written against the plain ``ctx.send`` /
    ``ctx.broadcast`` surface; in reliable mode its messages must be
    sequenced and retransmitted instead of shipped raw.  Kinds in the
    channel's ``latest_kinds`` (flood waves, monotone counters) are
    queued as ``latest``, so a superseded value never wastes a slot.
    """

    __slots__ = ("_channel", "round_number")

    def __init__(self, channel: ReliableChannel, round_number: int) -> None:
        self._channel = channel
        self.round_number = round_number

    def send(self, neighbor: int, kind: str, *fields: int) -> None:
        channel = self._channel
        channel.queue(neighbor, kind, fields, kind in channel.latest_kinds)

    def broadcast(self, kind: str, *fields: int) -> None:
        channel = self._channel
        channel.queue_all(kind, fields, kind in channel.latest_kinds)


class RWBCNodeProgram(VectorizedProgram):
    """One node of the distributed RWBC algorithm.

    Outputs after the run: ``betweenness`` (this node's estimate),
    ``counts`` (its ``xi`` vector; outside split mode a view of its
    count slab, not a copy), ``target`` (the elected absorbing node),
    and the phase-boundary rounds ``counting_start_round`` (launch),
    ``exchange_start_round`` (the round the node relays ``done``) and
    ``finish_round`` for the complexity experiments.

    The program is a :class:`VectorizedProgram`: on the scheduler's
    fast path its setup, walk and exchange traffic travels as aggregate
    per-edge counts between shared drivers, and the node itself sees
    only control mail, through the same :meth:`on_round` the
    per-message loop calls.  Both paths run one counting kernel
    (:mod:`repro.core.walk_engine`): the per-message loop through this
    node's :class:`WalkManager`, on a one-node slice, once per round
    with all of the round's arrivals; the fast path through the shared
    :class:`CountingWalkEngine`, over every node at once.  So the
    random stream - and therefore every tally and every message count -
    is identical for the same seed.
    """

    def __init__(
        self, info: NodeInfo, rng: LazyGenerator, config: ProtocolConfig
    ) -> None:
        super().__init__(info, rng)
        if not 0 <= info.node_id < info.n:
            raise ProtocolError(
                f"protocol requires labels 0..n-1, got {info.node_id}"
            )
        self.config = config
        self.phase = PHASE_SETUP
        self._flood = FloodMaxBFS(
            info.node_id, leader_rank(rng.entropy, info.node_id, info.n)
        )
        # Fast path only: the shared setup driver (non-reliable runs
        # without fault injection).  When set, the flood, the parent
        # announcements and the degree exchange run inside the driver,
        # which freezes this node's tree, target and neighbor degrees;
        # the node sleeps until it joins the counting phase.
        self._setup_engine = None
        # Fast path only: the shared exchange driver (fault-free runs, and
        # every reliable run).  When set, the exchange phase - column
        # sends, neighbor-column receipt, and the final local
        # computation - runs inside the driver, and this node is woken
        # only for control mail.
        self._xch_engine = None
        self._tree: FloodMaxState | None = None
        self._walks: WalkManager | None = None
        self._death_counter: DeathCounterLogic | None = None
        # Fast path only: the shared network-wide counting engine.
        self._engine: CountingWalkEngine | None = None
        self._neighbor_degrees: dict[int, int] = {}
        # Neighbor half counts, allocated on first use (see
        # _neighbor_slabs); the exchange driver installs views into the
        # count tensor instead, so the fast path never allocates the
        # matrix.
        self._neighbor_matrix: np.ndarray | None = None
        self._neighbor_counts: dict[int, np.ndarray] | None = None
        # Reliable-mode state (all inert when config.reliable is False).
        self._channel: ReliableChannel | None = None
        self._adopters: set[int] = set()
        self._early_terms: list[tuple[int, int]] = []
        self._announced = False
        self._next_column = 0
        self._xch_received: dict[int, int] = dict.fromkeys(info.neighbors, 0)
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
        shared = ctx.shared
        if not self.config.reliable:
            if shared is not None and shared.fault_runtime is None:
                # Fault-free fast path: hand the whole setup phase to the
                # shared driver, which floods every node's candidate once
                # the last node has registered.
                from repro.core.setup_engine import SetupEngine

                setup = shared.slots.get("setup_engine")
                if setup is None:
                    setup = SetupEngine(shared)
                    shared.slots["setup_engine"] = setup
                    shared.register_driver(setup)
                setup.register(self)
                self._setup_engine = setup
                return
            self._flood.start(ctx)
            return
        # Imported here, so runs without recovery never load the ARQ.
        from repro.congest.reliable import AckRows, LinkTable, ReliableChannel

        config = self.config
        table = None
        if shared is not None:
            # Fast path: the channels are views of one table over the
            # run's edges, whose acks travel as bulk rows in every phase.
            table = shared.slots.get("link_table")
            if table is None:
                table = LinkTable(
                    shared.edges.offsets,
                    shared.edges.dst,
                    config.walk_budget,
                    WALK_KINDS,
                    instruments=config.instruments,
                    ack_rows=True,
                )
                shared.slots["link_table"] = table
                shared.register_driver(AckRows(table), last=True)
        self._channel = ReliableChannel(
            node_id=self.node_id,
            neighbors=self.neighbors,
            token_budget=config.walk_budget,
            token_kinds=WALK_KINDS,
            latest_kinds=frozenset({KIND_FLOOD, KIND_TERM, KIND_DONE}),
            instruments=config.instruments,
            table=table,
        )
        rctx = _ReliableCtx(self._channel, ctx.round_number)
        self._flood.start(rctx)
        self._channel.flush(ctx.round_number, ctx.send_fields)

    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        if self.phase == PHASE_SETUP:
            self._setup_round(ctx, inbox)
        elif self.phase == PHASE_COUNTING:
            if self._engine is not None:
                self._counting_round_engine(ctx, inbox)
            else:
                self._counting_round(ctx, inbox)
        elif self.phase == PHASE_EXCHANGE:
            self._exchange_round(ctx, inbox)
        else:  # PHASE_DONE: ignore stragglers (none are expected
            # fault-free; under recovery, re-ack so peers stop retrying).
            self._done_round(ctx, inbox)

    def _done_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """A halted node woken by late traffic.  In reliable mode the
        arrivals are peer retransmissions whose acks got lost; running
        them through the channel re-marks the acks due, and the flush
        sends them so the peers can drain and halt too."""
        if self._channel is not None and inbox:
            for message, _ in self._mail(inbox):
                if message.kind in WALK_KINDS:
                    raise ProtocolError(
                        "fresh walk token arrived after finish at node "
                        f"{self.node_id}: recovery lost a death"
                    )
            self._channel.flush(ctx.round_number, ctx.send_fields)
        self.halt()

    def _mail(
        self, inbox: Iterable[Message]
    ) -> list[tuple[Message, tuple[int, ...]]]:
        """This round's fresh mail, as ``(message, payload)`` pairs.

        Without recovery every message is fresh and its payload is its
        fields.  Under recovery the round's messages go through
        :meth:`ReliableChannel.receive`, which absorbs acks and
        duplicates and strips the seq off the payload of the rest."""
        channel = self._channel
        if channel is None:
            return [(message, message.fields) for message in inbox]
        return channel.receive(inbox)

    @property
    def bulk_idle(self) -> bool:
        """Skippable on the fast path: during counting, all walk
        movement and termination reporting runs inside the shared
        :class:`CountingWalkEngine`, so a node only needs a round of its
        own when control mail arrives - the done wave, plus term reports
        and retransmitted control where the engine leaves the
        convergecast to the nodes (acks are rows, applied without a
        step).  Setup and exchange wakes come from :meth:`next_wake`
        instead: its calendar, or no wake at all where the shared setup
        and exchange drivers own those phases."""
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
        Reliable setup is timer-driven: with empty mail its step only
        flushes the ARQ and checks the milestones, so the node sleeps
        until the sooner of its channel's
        :meth:`~repro.congest.reliable.ReliableChannel.wake_round` and
        its next milestone (``SETUP_SLACK * n`` until it has announced,
        then the launch at twice that).  Acks arrive as
        rows without a step and only postpone the channel's answer, so
        a wake filed before them is at worst early.  Counting is
        mail-only (the engine does the work; with the array
        convergecast only the done wave wakes a node).  Exchange runs
        every round from the node's first column, the round after it
        relayed ``done``, to its finish, unless the shared exchange
        driver owns it - always, on fault-free and reliable runs.  Then
        the driver sends the columns, flushes the ARQ and finishes the
        node, and the node wakes only for control mail (degrees, done
        and term retransmits)."""
        if self.phase == PHASE_SETUP:
            if self._channel is not None:
                announce = SETUP_SLACK * self.info.n
                milestone = 2 * announce if self._announced else announce
                wake = self._channel.wake_round(round_number)
                return milestone if wake is None else min(wake, milestone)
            n = self.info.n
            if self._setup_engine is not None:
                return n + 2
            return n if round_number < n else round_number + 1
        if self.phase == PHASE_COUNTING:
            return None
        if self.phase == PHASE_EXCHANGE:
            if self._xch_engine is not None:
                return None
            return round_number + 1
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
        parents and degrees go out at ``SETUP_SLACK * n`` and walks
        launch at ``2 * SETUP_SLACK * n``, leaving every wave
        ``RETRANSMIT_AFTER``-round retries worth of slack.  A node that
        was crashed through one of the milestone rounds performs the
        missed step on its first live round after it (its own control
        messages were queued, not lost, and arriving floods were held
        unacked by the ARQ until delivered)."""
        n = self.info.n
        r = ctx.round_number
        announce = SETUP_SLACK * n
        launch = 2 * announce
        flood_mail: list[Message] = []
        # Walk tokens stay unaccepted: the node has not launched, so it
        # leaves them unacked and the sender keeps retransmitting; they
        # land once this node reaches the counting phase.
        control = (m for m in inbox if m.kind not in WALK_KINDS)
        for message, payload in self._mail(control):
            kind = message.kind
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
        rctx = _ReliableCtx(self._channel, r)
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
            self._channel.queue_all(KIND_DEGREE, (self.degree,))
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
        self._channel.flush(ctx.round_number, ctx.send_fields)

    def _launch_counting(self, ctx: RoundContext, r: int) -> None:
        """Build the walk manager and death counter and start counting.

        On the fast path the node joins (or creates) the network-wide
        engine, which launches every node's walks at the end of this
        round and owns the sends from then on; otherwise the node
        launches its own walks and sends this round's traffic."""
        n = self.info.n
        shared = ctx.shared
        engine = None
        if shared is not None:
            engine = shared.slots.get("walk_engine")
            if engine is None:
                # The convergecast runs as arrays where the setup driver
                # runs: fault-free and not reliable.
                convergecast = (
                    self._channel is None and shared.fault_runtime is None
                )
                engine = CountingWalkEngine(
                    shared.edges,
                    convergecast,
                    self.config.walks_per_source,
                    self.config.length,
                    self.config.split_sampling,
                )
                shared.slots["walk_engine"] = engine
                if convergecast or self._channel is not None:
                    from repro.core.exchange_engine import ExchangeEngine

                    # Registered first, so each round it accepts the
                    # exchange columns before the walk engine flushes
                    # the counting nodes they reach.
                    xch = ExchangeEngine(
                        engine,
                        shared.edges,
                        table=shared.slots.get("link_table"),
                        fault_runtime=shared.fault_runtime,
                        profiler=shared.profiler,
                    )
                    shared.slots["exchange_engine"] = xch
                    shared.register_driver(xch)
                shared.register_driver(engine)
        self._walks = WalkManager(
            node_id=self.node_id,
            neighbors=self.neighbors,
            n=n,
            target=self.target,
            walks_per_source=self.config.walks_per_source,
            length=self.config.length,
            walk_key=walk_key(self.rng.entropy, self.node_id),
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
    def _counting_mail(
        self, inbox: list[Message]
    ) -> tuple[dict[str, list[tuple[int, ...]]], bool]:
        """Fold one counting round's control mail into the node: term
        reports, degrees and (under recovery) exchange columns early
        neighbors sent.  Returns the fresh walk payloads, listed per
        kind, and whether the done wave arrived."""
        walk_mail: dict[str, list[tuple[int, ...]]] = {}
        done = False
        for message, payload in self._mail(inbox):
            kind = message.kind
            if kind in WALK_KINDS:
                walk_mail.setdefault(kind, []).append(payload)
            elif kind == KIND_TERM:
                self._death_counter.receive_report(message.sender, payload[0])
            elif kind == KIND_DONE:
                done = True
            elif kind == KIND_EXCHANGE:
                # A neighbor reached the exchange phase before this
                # node's done arrival; its columns are valid now.
                self._store_exchange(message.sender, payload)
            elif kind == KIND_DEGREE:
                self._neighbor_degrees[message.sender] = payload[0]
        return walk_mail, done

    def _counting_round_engine(
        self, ctx: RoundContext, inbox: list[Message]
    ) -> None:
        """Fast-path counting round: only control mail reaches the node
        (walk traffic is claimed by the engine), so this just folds in
        term reports, reacts to the done wave, and tells the engine the
        node was active so the post-round pass re-examines its
        reporting state.  When the engine runs the convergecast as
        arrays it claims the term rows too, and the done wave is the
        only mail that steps a counting node.

        In reliable mode walk retransmissions are claimed rows too, and
        acks are rows the ack transport applies before the node pass.
        The engine owns this node's flush while it is counting, so none
        happens here, and the exchange driver takes the columns early
        neighbors send."""
        walk_mail, done = self._counting_mail(inbox)
        if walk_mail:
            raise ProtocolError(
                f"walk tokens reached node {self.node_id} as control mail "
                "on the fast path"
            )
        if done:
            self._begin_done_wave(ctx, ctx.round_number)
            return
        self._engine.touch(self.node_id)

    def _counting_round(
        self, ctx: RoundContext, inbox: list[Message]
    ) -> None:
        walks = self._walks
        deaths_before = walks.deaths
        walk_mail, done = self._counting_mail(inbox)
        if walk_mail:
            # One grouped call per round: the randomness consumed depends
            # only on the multiset of arrivals, never on message order.
            walks.receive_group_arrays(*_walk_arrivals(walk_mail))
        self._death_counter.record_deaths(walks.deaths - deaths_before)

        # The root starts the wave in the round it detects completion.
        if done or self._death_counter.root_detects_completion:
            self._begin_done_wave(ctx, ctx.round_number)
            if self._channel is not None:
                # Ship the queued done wave (and any owed acks) now;
                # from next round the exchange handler flushes.
                self._channel.flush(ctx.round_number, ctx.send_fields)
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
            self._channel.queue(
                self._death_counter.parent, KIND_TERM, (total,), latest=True
            )
        retransmits = self._channel.flush(ctx.round_number, ctx.send_fields)
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
        first use as views into a single ``(degree, 2, n)`` matrix.
        The exchange driver installs views into the count tensor
        instead, and then nothing is allocated."""
        if self._neighbor_counts is None:
            self._neighbor_matrix = np.zeros(
                (self.degree, 2, self.info.n),
                dtype=count_dtype(
                    self.config.walks_per_source, self.config.length
                ),
            )
            self._neighbor_counts = {
                neighbor: self._neighbor_matrix[j]
                for j, neighbor in enumerate(self.neighbors)
            }
        return self._neighbor_counts

    def _store_exchange(self, sender: int, payload: tuple[int, ...]) -> None:
        """Fold one fresh (deduplicated) exchange column from a
        neighbor; the per-message loop's reliable mode only (the
        exchange driver counts the rows and stores nothing)."""
        source, count_a, count_b = payload
        slab = self._neighbor_slabs()[sender]
        slab[0, source] = count_a
        slab[1, source] = count_b
        self._xch_received[sender] += 1

    def _begin_done_wave(self, ctx: RoundContext, round_number: int) -> None:
        """Switch to the exchange phase in ``round_number``, relaying
        ``done``, which carries no fields.  The exchange starts from
        the next round in both modes: fault-free, column ``i`` goes out
        in round ``round_number + 1 + i`` and the node finishes at
        ``round_number + n + 2``; under recovery the node paces itself
        through its ARQ.  So ``done`` and a column never share an edge
        in one round, and ``exchange_start_round`` is this round."""
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
            self._channel.queue_all(KIND_DONE, (), latest=True)
            if self._engine is not None:
                # The engine owns this node's flush for the transition
                # round (its per-node call already happened).
                self._engine.note_transition(self.node_id)
        else:
            for child in self._tree.children:
                ctx.send(child, KIND_DONE)
        self.exchange_start_round = round_number
        self.phase = PHASE_EXCHANGE
        shared = ctx.shared
        if shared is None:
            return
        xch = shared.slots.get("exchange_engine")
        if xch is not None:
            # The shared driver runs this node's exchange: the columns
            # travel as bulk rows (one priced push per round fault-free,
            # ARQ-sequenced rows under recovery), and it calls
            # ``_finish`` on views into the engine's count tensor.
            xch.register(self)
            self._xch_engine = xch
        else:
            # No driver (faults without recovery): this transition may
            # have happened inside the engine's end-of-round pass (the
            # root's detection), where the scheduler cannot observe the
            # phase change - file the wake for the first exchange round
            # explicitly.  Redundant with the post-step next_wake query
            # when the transition happened in a normal step; the
            # scheduler dedups.
            shared.request_wake(self.node_id, round_number + 1)

    # ------------------------------------------------------------------
    # Phase 3: exchange (Algorithm 2) + local computation
    # ------------------------------------------------------------------
    def _exchange_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
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
            elif message.kind in WALK_KINDS:
                raise ProtocolError(
                    "walk message arrived during exchange at node "
                    f"{self.node_id}: termination detection is broken"
                )
        if self._xch_engine is not None:
            # The shared driver broadcasts this node's columns and calls
            # ``_finish``; this step only happened because of straggler
            # control mail, and sending here would double the traffic.
            return
        source = r - self.exchange_start_round - 1
        if source < n:
            count_a = int(self._walks.half_counts[0, source])
            count_b = int(self._walks.half_counts[1, source])
            ctx.broadcast(KIND_EXCHANGE, source, count_a, count_b)
        elif source > n:
            # A neighbor relayed done at most one round later, so its
            # last column arrived this round.
            self._finish(r)

    def _exchange_round_reliable(
        self, ctx: RoundContext, inbox: list[Message]
    ) -> None:
        """Self-paced exchange under recovery (Algorithm 2, lossy form):
        take in this round's mail, then run :meth:`_exchange_step` -
        unless the shared exchange driver owns this node, in which case
        the driver takes the columns and runs the step at end of round.
        """
        for message, payload in self._mail(inbox):
            kind = message.kind
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
            elif kind in WALK_KINDS:
                raise ProtocolError(
                    "fresh walk token arrived during exchange at node "
                    f"{self.node_id}: recovery lost a death"
                )
        r = ctx.round_number
        if self._xch_engine is None and self._exchange_step(
            r, ctx.send_fields
        ):
            self._finish(r)

    def _exchange_step(self, round_number: int, send) -> bool:
        """One self-paced exchange round after the node's receipts:
        queue the next unsent count column to every neighbor, flush the
        ARQ through ``send`` (a :data:`~repro.congest.reliable.Sink`),
        and report whether the node is complete
        (:meth:`_exchange_complete`).

        The fault-free protocol paces subrounds by the done wave
        (column ``i`` travels in round ``exchange_start_round + 1 + i``
        and the node finishes ``n + 2`` rounds after its relay); loss
        breaks any fixed schedule, so each node paces itself on its
        acks and receipts instead.  Fault-free this sends the same
        ``n`` columns in ``n`` rounds.  The per-message loop calls this
        from the node's handler; the exchange driver runs the same
        steps for every node it owns at once, over the shared table."""
        n = self.info.n
        if self._next_column < n:
            source = self._next_column
            self._channel.queue_all(
                KIND_EXCHANGE,
                (
                    source,
                    int(self._walks.half_counts[0, source]),
                    int(self._walks.half_counts[1, source]),
                ),
            )
            self._next_column += 1
        self._channel.flush(round_number, send)
        return self._exchange_complete(
            all(self._xch_received[v] >= n for v in self.neighbors),
            self._channel.drained,
        )

    def _exchange_complete(self, columns_in: bool, drained: bool) -> bool:
        """Whether a self-paced exchange is over: all ``n`` columns sent,
        every neighbor's ``n`` received (``columns_in``), every neighbor
        degree known, and the channel ``drained`` - so every sent
        column is acked."""
        return (
            self._next_column >= self.info.n
            and len(self._neighbor_degrees) == self.degree
            and columns_in
            and drained
        )

    def _finish(self, round_number: int) -> None:
        n = self.info.n
        self.counts = self._walks.counts
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
        # Half 1 may exceed half 0, so both differences are taken in
        # int64: the unsigned count cells would wrap.
        own = self._walks.half_counts
        own_noise = np.subtract(own[0], own[1], dtype=np.int64) / (
            2.0 * self.degree
        )
        half_k = self.config.walks_per_source // 2
        slabs = self._neighbor_slabs()
        neighbor_noise = (
            np.subtract(slabs[neighbor][0], slabs[neighbor][1], dtype=np.int64)
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


def _walk_arrivals(
    walk_mail: dict[str, list[tuple[int, ...]]],
) -> tuple[np.ndarray, ...]:
    """One round's fresh walk messages as token groups ``(sources,
    remainings, halves, counts)``: each kind's payloads stacked into one
    fields matrix and decoded by :func:`walk_groups`."""
    parts = [
        walk_groups(
            kind,
            np.array(payloads, dtype=np.int64),
            np.ones(len(payloads), dtype=np.int64),
        )
        for kind, payloads in walk_mail.items()
    ]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


def make_protocol_factory(config: ProtocolConfig):
    """Program factory binding one :class:`ProtocolConfig`."""

    def factory(info: NodeInfo, rng: LazyGenerator) -> RWBCNodeProgram:
        return RWBCNodeProgram(info, rng, config)

    return factory
