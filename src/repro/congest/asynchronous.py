"""Asynchronous execution of synchronous node programs (alpha synchronizer).

The CONGEST model is synchronous; real networks are not.  Awerbuch's
alpha synchronizer bridges the gap: every payload message is tagged with
its round and acknowledged; a node that has all its round-``r`` messages
acknowledged is *safe* and says so to its neighbors; a node enters round
``r + 1`` once it is safe and has heard ``safe(r)`` from every neighbor.
This delivers every round-``r`` payload before any neighbor can start
``r + 1``, so any synchronous :class:`~repro.congest.node.NodeProgram`
runs unmodified - and produces identical outputs - on an asynchronous
network.

This module implements:

* an event-driven executor with per-message random delays
  (:class:`AsyncSimulator`);
* the synchronizer wrapper that drives an unmodified
  :class:`~repro.congest.node.NodeProgram` through its rounds;
* a **fault-tolerant transport** underneath the synchronizer: with a
  :class:`~repro.congest.faults.FaultPlan`, every payload and safe
  message carries a per-directed-edge sequence number (reusing the
  sliding-window machinery of :mod:`repro.congest.reliable`), receivers
  deduplicate and answer with cumulative + selective acks, and senders
  retransmit on virtual-time timeouts with exponential backoff.  Crash
  windows translate to virtual-time outages: a down node receives
  nothing and advances no rounds, its neighbors stall on their timers,
  and everyone resynchronizes on recovery.  Message drops, duplicates,
  and delays are decided by the same stateless hash schedules the
  synchronous loops use (:meth:`FaultRuntime.async_fate`), so one plan
  seed fully determines the run.

**Determinism and equivalence.**  Arrivals within one simulated round
are buffered with their ``(sender canonical rank, per-edge send index)``
and sorted before delivery, reconstructing exactly the inbox order of
the synchronous scheduler.  A program therefore sees *identical*
inboxes - and consumes identical randomness - whether it runs
synchronously fault-free or asynchronously under a lossy plan: outputs
match bit for bit, and the same ``(seed, plan)`` pair always reproduces
the same outputs *and* metrics (pinned by ``tests/test_async_faults.py``
alongside the synchronous pins in ``tests/test_reliable_equivalence.py``).

Overhead accounting matches the textbook: per simulated round, the
synchronizer adds one ack per payload plus 2 "safe" messages per edge -
a constant factor.  The CONGEST budget is enforced on the *program's*
messages (bits and per-edge count per round); the synchronizer's framing
(round tag, send index, kind code, seq) is the separately-charged
``O(log T)``-bit wrapper every synchronizer needs and is not counted
against the program's budget.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import (
    CongestViolation,
    ConfigError,
    FaultInjectionError,
    ProtocolError,
    RoundLimitExceeded,
    UnrecoverableLossError,
)
from repro.congest.faults import FaultPlan, FaultRuntime
from repro.congest.message import Message
from repro.congest.node import NodeInfo, NodeProgram, RoundContext
from repro.congest.scheduler import ProgramFactory
from repro.congest.transport import BandwidthPolicy
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected
from repro.obs.spans import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.reliable import InLink, OutLink

KIND_PAYLOAD = "sync.payload"
KIND_ACK = "sync.ack"
KIND_SAFE = "sync.safe"

#: Retransmission timeout, in units of ``max_delay`` (one-way delays are
#: at most ``max_delay``, so a round trip completes within 2; 3 gives
#: the ack a grace window before the first retransmission fires).
RTO_FACTOR = 3.0

#: Exponential backoff doubles the timeout per retry, capped at
#: ``2 ** BACKOFF_CAP`` times the base RTO.
BACKOFF_CAP = 3


@dataclass
class AsyncMetrics:
    """Observables of one asynchronous run.

    ``payload_messages``/``control_messages`` count *delivered* traffic
    (message copies that reached a live receiver), so dropped copies
    appear only in :attr:`faults`.  The per-round series attribute each
    delivery to the simulated round it belongs to, which is what the
    observe artifact slices into protocol phases.
    """

    virtual_time: float = 0.0
    rounds_completed: int = 0
    payload_messages: int = 0
    control_messages: int = 0
    total_bits: int = 0
    # Recovery layer (all zero on fault-free runs).
    retransmissions: int = 0
    timeouts: int = 0
    acks_sent: int = 0
    duplicates_rejected: int = 0
    crash_recoveries: int = 0
    #: ``FaultCounters.summary()`` of the run's plan (empty = no plan).
    #: ``crash_node_rounds`` counts the *planned* window lengths in
    #: simulated rounds (the virtual-time outage divided by the delay
    #: bound), fixed at start of run.
    faults: dict = field(default_factory=dict)
    #: Delivered messages / bits per simulated round (index 0 = round 1).
    messages_per_round: list = field(default_factory=list)
    bits_per_round: list = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return self.payload_messages + self.control_messages

    @property
    def rounds(self) -> int:
        """Alias for :attr:`rounds_completed`, matching the synchronous
        :class:`~repro.congest.metrics.RunMetrics` surface so result
        consumers (obs export, CLI) work on either executor."""
        return self.rounds_completed

    def summary(self) -> dict:
        data = {
            "rounds": self.rounds_completed,
            "virtual_time": round(self.virtual_time, 6),
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "payload_messages": self.payload_messages,
            "control_messages": self.control_messages,
            "retransmissions": self.retransmissions,
            "timeouts": self.timeouts,
            "acks_sent": self.acks_sent,
            "duplicates_rejected": self.duplicates_rejected,
            "crash_recoveries": self.crash_recoveries,
        }
        for key, value in sorted(self.faults.items()):
            data[f"faults_{key}"] = value
        return data

    def recovery_summary(self) -> dict:
        """The recovery counters alone, shaped like the synchronous
        estimator's ``result.recovery`` dict."""
        return {
            "retransmissions": self.retransmissions,
            "timeouts": self.timeouts,
            "acks_sent": self.acks_sent,
            "duplicates_rejected": self.duplicates_rejected,
            "crash_recoveries": self.crash_recoveries,
        }


@dataclass
class AsyncResult:
    programs: dict[int, NodeProgram]
    metrics: AsyncMetrics

    def program(self, node_id: int) -> NodeProgram:
        return self.programs[node_id]


class _SynchronizerNode:
    """Per-node alpha-synchronizer state machine."""

    __slots__ = (
        "program",
        "rank",
        "round",
        "safe_announced",
        "safe_from",
        "buffers",
        "outstanding",
        "seq_round",
        "out",
        "inn",
        "retries",
        "send_counts",
    )

    def __init__(self, program: NodeProgram, rank: int) -> None:
        self.program = program
        self.rank = rank
        self.round = 0
        self.safe_announced = False
        # safe(r) senders, keyed by r (a neighbor can run one round ahead).
        self.safe_from: dict[int, set[int]] = {}
        # Payloads buffered by the round they are DELIVERED in (sender's
        # round + 1) as (sender rank, per-edge send index, message), so
        # one sort reproduces the synchronous scheduler's inbox order.
        self.buffers: dict[int, list[tuple[int, int, Message]]] = {}
        # round -> payloads of that round still awaiting their ack; the
        # node is safe for its current round when its entry reaches 0.
        self.outstanding: dict[int, int] = {}
        # (neighbor, seq) -> round, for payload seqs only, to map an
        # ack back to the round whose safety gate it opens.
        self.seq_round: dict[tuple[int, int], int] = {}
        # Reliable-channel endpoints per neighbor (shared seq space for
        # payloads and safes on each directed edge).
        self.out: dict[int, OutLink] = {}
        self.inn: dict[int, InLink] = {}
        # (neighbor, seq) -> retransmissions so far (kept outside the
        # OutLink entry, whose 4-slot layout other code unpacks).
        self.retries: dict[tuple[int, int], int] = {}
        # Per-neighbor sends this round: the CONGEST per-edge budget
        # check and the canonical send index in one counter.
        self.send_counts: dict[int, int] = {}

    @property
    def node_id(self) -> int:
        return self.program.node_id

    @property
    def neighbors(self) -> tuple[int, ...]:
        return self.program.neighbors


class AsyncSimulator:
    """Runs any synchronous program on an asynchronous network.

    Parameters
    ----------
    graph, program_factory, policy, seed:
        As in :class:`~repro.congest.scheduler.Simulator`.
    max_delay:
        Message delays are uniform in ``[1, max_delay]`` (virtual time
        units).  Without faults, channels are additionally FIFO per
        directed edge; a fault plan makes them explicitly unordered.
    max_rounds:
        Simulated-round safety limit.  Exceeding it raises
        :class:`RoundLimitExceeded` (or :class:`UnrecoverableLossError`
        under a fault plan) carrying the partial :class:`AsyncMetrics`.
    faults:
        Optional :class:`~repro.congest.faults.FaultPlan`.  Drop,
        duplication, and delay schedules apply per transmission via the
        plan's stateless hash; a plan-level delay of ``r`` rounds adds
        ``r * max_delay`` virtual time.  Crash windows are interpreted
        on the same scale: round window ``[a, b)`` means the node is
        down for virtual time ``[a * max_delay, b * max_delay)``.
        Crash-stop windows (``end=None``) are rejected - the
        synchronizer needs every neighbor back to make progress.
    max_retransmits:
        Per-message retransmission budget before the run fails with
        :class:`UnrecoverableLossError` (context: edge, virtual time,
        retransmit count).
    telemetry:
        Optional :class:`repro.obs.Telemetry`; records a per-round wall
        series, retransmit/timeout round counters, and per-round fault
        deltas.  Observation-only.
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: ProgramFactory,
        policy: BandwidthPolicy | None = None,
        seed: int | None = None,
        max_delay: float = 10.0,
        max_rounds: int = 100_000,
        faults: FaultPlan | None = None,
        max_retransmits: int = 64,
        telemetry=None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ConfigError("cannot simulate the empty graph")
        if not is_connected(graph):
            raise ConfigError("graph must be connected")
        if max_delay < 1.0:
            raise ConfigError("max_delay must be >= 1")
        if max_retransmits < 1:
            raise ConfigError("max_retransmits must be >= 1")
        self.graph = graph
        self.policy = policy or BandwidthPolicy(
            n=graph.num_nodes,
            # The synchronizer multiplexes payload + ack + safe on one
            # edge within a round window; give it room.
            messages_per_edge=64,
        )
        self.max_delay = max_delay
        self.max_rounds = max_rounds
        self.max_retransmits = max_retransmits
        self.faults = faults if faults is not None else FaultPlan()
        self._lossy = not self.faults.is_trivial
        self._crash_spans: dict[int, list[tuple[float, float]]] = {}
        if self._lossy:
            nodes = set(graph.nodes())
            for window in self.faults.crashes:
                if window.end is None:
                    raise FaultInjectionError(
                        f"crash-stop window on node {window.node} never "
                        "ends: the synchronizer cannot outwait a node "
                        "that never recovers (use a finite end)"
                    )
                if window.node in nodes:
                    self._crash_spans.setdefault(window.node, []).append(
                        (window.start * max_delay, window.end * max_delay)
                    )
        self._seed = seed
        self._factory = program_factory
        self._profiler = (
            telemetry.profiler if telemetry is not None else NULL_PROFILER
        )
        self._instruments = (
            telemetry.instruments if telemetry is not None else None
        )
        # Inner kind-string <-> small-int table, per run (codes ride in
        # the payload envelope; the table never crosses simulations).
        self._kind_table: dict[str, int] = {}
        self._kind_reverse: dict[int, str] = {}

    # ------------------------------------------------------------------
    def run(self) -> AsyncResult:
        master = np.random.default_rng(self._seed)
        order = self.graph.canonical_order()
        # One spare child for delay draws: the first len(order) children
        # are prefix-stable, so node rngs match the synchronous
        # scheduler's exactly (same seed => same protocol randomness).
        children = master.spawn(len(order) + 1)
        self._delay_rng = children[-1]

        # Imported here, so synchronous runs without recovery never load
        # the ARQ module.
        from repro.congest.reliable import InLink, OutLink

        self._nodes: dict[int, _SynchronizerNode] = {}
        for rank, (node, rng) in enumerate(zip(order, children)):
            info = NodeInfo(
                node_id=node,
                neighbors=tuple(sorted(self.graph.neighbors(node))),
                n=self.graph.num_nodes,
            )
            state = _SynchronizerNode(self._factory(info, rng), rank)
            for neighbor in info.neighbors:
                state.out[neighbor] = OutLink()
                state.inn[neighbor] = InLink()
            self._nodes[node] = state
        self._order = order

        self._metrics = AsyncMetrics()
        self._events: list[tuple[float, int, tuple]] = []
        self._tick = itertools.count()
        self._last_delivery: dict[tuple[int, int], float] = {}
        self._clock = 0.0
        self._unacked_payloads = 0
        self._rto = RTO_FACTOR * self.max_delay
        self._fault_rt = FaultRuntime(self.faults) if self._lossy else None
        if self._fault_rt is not None:
            for node, spans in self._crash_spans.items():
                for start_t, end_t in spans:
                    heapq.heappush(
                        self._events,
                        (end_t, next(self._tick), ("recover", node)),
                    )
                    self._fault_rt.counters.crash_node_rounds += int(
                        round((end_t - start_t) / self.max_delay)
                    )

        metrics = self._metrics
        # Round 0: on_start for everyone, then enter the dance.
        for node in order:
            self._program_step(self._nodes[node], None, 0)
        for node in order:
            self._maybe_safe(self._nodes[node])

        while self._events:
            if self._quiescent():
                break
            self._clock, _, event = heapq.heappop(self._events)
            metrics.virtual_time = self._clock
            tag = event[0]
            if tag == "msg":
                self._deliver(event[1])
            elif tag == "timer":
                self._on_timer(event[1], event[2], event[3])
            else:  # "recover"
                metrics.crash_recoveries += 1
            # Advance any node whose round gate opened.
            progressed = True
            while progressed:
                progressed = False
                for node in order:
                    if self._maybe_advance(self._nodes[node]):
                        progressed = True
            if metrics.rounds_completed > self.max_rounds:
                self._finalize_metrics()
                error_cls = (
                    UnrecoverableLossError
                    if self._fault_rt is not None
                    else RoundLimitExceeded
                )
                raise error_cls(
                    f"async run exceeded {self.max_rounds} simulated "
                    "rounds",
                    context={
                        "max_rounds": self.max_rounds,
                        "virtual_time": self._clock,
                        "rounds_completed": metrics.rounds_completed,
                        "retransmissions": metrics.retransmissions,
                        "timeouts": metrics.timeouts,
                        "faults": metrics.faults or None,
                    },
                    metrics=metrics,
                )

        self._finalize_metrics()
        self._profiler.run_finished()
        return AsyncResult(
            programs={node: self._nodes[node].program for node in order},
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        """True when no program can ever run again: all halted, no
        buffered inboxes, and every *payload* confirmed delivered.
        Residual heap entries - unacked safes, in-flight acks,
        duplicate copies, stale timers, future recover events - carry
        no program-visible information at that point and the run can
        stop.  (Counting unacked safes here would never converge: every
        empty round a halted node is pushed through announces fresh
        reliable safes, which would keep the run alive forever.)"""
        if self._unacked_payloads:
            return False
        states = self._nodes.values()
        if any(not s.program.halted for s in states):
            return False
        return not any(s.buffers for s in states)

    def _finalize_metrics(self) -> None:
        """Square up the per-round series with the final round count and
        snapshot the fault counters."""
        metrics = self._metrics
        if self._fault_rt is not None:
            metrics.faults = self._fault_rt.counters.summary()
        rounds = metrics.rounds_completed
        for series in (metrics.messages_per_round, metrics.bits_per_round):
            if len(series) > rounds:
                # Trailing-round control traffic (the final safes) folds
                # into the last completed round.
                overflow = sum(series[rounds:])
                del series[rounds:]
                if rounds and overflow:
                    series[-1] += overflow
            elif len(series) < rounds:
                series.extend([0] * (rounds - len(series)))

    # ------------------------------------------------------------------
    # Crash windows (virtual time)
    # ------------------------------------------------------------------
    def _is_down(self, node: int, at: float) -> bool:
        spans = self._crash_spans.get(node)
        if not spans:
            return False
        return any(start <= at < end for start, end in spans)

    def _down_until(self, node: int, at: float) -> float | None:
        spans = self._crash_spans.get(node)
        if not spans:
            return None
        for start, end in spans:
            if start <= at < end:
                return end
        return None

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _transmit(
        self,
        sender: int,
        receiver: int,
        kind: str,
        fields: tuple[int, ...],
        hash_round: int,
    ) -> None:
        """Put one message copy on the wire, through the fault plan."""
        message = Message(
            sender=sender, receiver=receiver, kind=kind, fields=fields
        )
        if self._fault_rt is None:
            self._post_delivery(message, 0.0)
            return
        dropped, duplicated, delay_rounds = self._fault_rt.async_fate(
            hash_round, sender, receiver, kind
        )
        if dropped:
            return
        self._post_delivery(message, delay_rounds * self.max_delay)
        if duplicated:
            self._post_delivery(message, 0.0)

    def _post_delivery(self, message: Message, extra: float) -> None:
        delay = 1.0 + float(self._delay_rng.random()) * (self.max_delay - 1.0)
        at = self._clock + delay + extra
        if not self._lossy:
            # Reliable regime: keep the classic FIFO-channel model.  A
            # lossy plan makes channels explicitly unordered instead
            # (dedup + round buffering + the canonical inbox sort
            # restore determinism without FIFO).
            edge = (message.sender, message.receiver)
            at = max(at, self._last_delivery.get(edge, 0.0) + 1e-9)
            self._last_delivery[edge] = at
        heapq.heappush(self._events, (at, next(self._tick), ("msg", message)))

    def _send_payload(
        self,
        state: _SynchronizerNode,
        neighbor: int,
        kind: str,
        fields: tuple[int, ...],
        round_number: int,
    ) -> None:
        """Wrap one program message into a sequenced payload envelope."""
        index = state.send_counts.get(neighbor, 0)
        if index >= self.policy.messages_per_edge:
            raise CongestViolation(
                f"edge ({state.node_id}, {neighbor}) already carries "
                f"{index} messages this round "
                f"(limit {self.policy.messages_per_edge})"
            )
        state.send_counts[neighbor] = index + 1
        wire_fields = (
            round_number,
            index,
            self._encode_kind(kind),
            *fields,
        )
        seq = state.out[neighbor].assign(
            KIND_PAYLOAD, wire_fields, round_number
        )
        state.outstanding[round_number] = (
            state.outstanding.get(round_number, 0) + 1
        )
        state.seq_round[(neighbor, seq)] = round_number
        self._unacked_payloads += 1
        self._transmit(
            state.node_id,
            neighbor,
            KIND_PAYLOAD,
            wire_fields + (seq,),
            round_number,
        )
        if self._lossy:
            self._schedule_timer(state.node_id, neighbor, seq, self._rto)

    def _announce_safe(self, state: _SynchronizerNode) -> None:
        round_number = state.round
        for neighbor in state.neighbors:
            if self._lossy:
                seq = state.out[neighbor].assign(
                    KIND_SAFE, (round_number,), round_number
                )
                self._transmit(
                    state.node_id,
                    neighbor,
                    KIND_SAFE,
                    (round_number, seq),
                    round_number,
                )
                self._schedule_timer(
                    state.node_id, neighbor, seq, self._rto
                )
            else:
                # No loss possible: safes fly unsequenced, keeping the
                # control overhead at the textbook 2 per edge per round.
                self._transmit(
                    state.node_id,
                    neighbor,
                    KIND_SAFE,
                    (round_number,),
                    round_number,
                )

    # ------------------------------------------------------------------
    # Retransmission timers (lossy mode only)
    # ------------------------------------------------------------------
    def _schedule_timer(
        self, sender: int, neighbor: int, seq: int, delay: float
    ) -> None:
        heapq.heappush(
            self._events,
            (
                self._clock + delay,
                next(self._tick),
                ("timer", sender, neighbor, seq),
            ),
        )

    def _on_timer(self, sender: int, neighbor: int, seq: int) -> None:
        state = self._nodes[sender]
        entry = state.out[neighbor].unacked.get(seq)
        if entry is None:
            return  # acked in the meantime; stale timer
        down_until = self._down_until(sender, self._clock)
        if down_until is not None:
            # The sender itself is crashed: it cannot retransmit until
            # it recovers (its memory - the unacked window - is stable).
            self._schedule_timer(
                sender, neighbor, seq, down_until - self._clock + self._rto
            )
            return
        retries = state.retries.get((neighbor, seq), 0) + 1
        if retries > self.max_retransmits:
            self._finalize_metrics()
            raise UnrecoverableLossError(
                f"message seq {seq} on edge ({sender}, {neighbor}) "
                f"unacked after {self.max_retransmits} retransmissions "
                f"(virtual time {self._clock:.1f})",
                context={
                    "edge": (sender, neighbor),
                    "seq": seq,
                    "kind": entry[0],
                    "virtual_time": self._clock,
                    "retransmits": retries - 1,
                    "faults": self._metrics.faults or None,
                },
                metrics=self._metrics,
            )
        state.retries[(neighbor, seq)] = retries
        kind, fields = entry[0], entry[1]
        metrics = self._metrics
        metrics.timeouts += 1
        metrics.retransmissions += 1
        if self._instruments is not None:
            round_label = max(1, fields[0] + 1)
            self._instruments.bump_round("retransmissions", round_label, 1)
            self._instruments.bump_round("timeouts", round_label, 1)
        # The round tag (fields[0] for payloads and safes alike) keys
        # the fault hash, so every retransmission draws a fresh fate.
        self._transmit(sender, neighbor, kind, fields + (seq,), fields[0])
        self._schedule_timer(
            sender,
            neighbor,
            seq,
            self._rto * (2 ** min(retries, BACKOFF_CAP)),
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        if self._fault_rt is not None and self._is_down(
            message.receiver, self._clock
        ):
            # Crashed receivers lose everything sent to them; reliable
            # traffic is recovered by the sender's timers after the
            # window ends.
            self._fault_rt.counters.crash_dropped += 1
            return
        metrics = self._metrics
        state = self._nodes[message.receiver]
        sender = message.sender
        kind = message.kind
        if kind == KIND_PAYLOAD:
            fields = message.fields
            round_tag = fields[0]
            metrics.payload_messages += 1
            self._count_round(round_tag + 1, message.bits)
            if state.inn[sender].accept(fields[-1]):
                if round_tag + 1 <= state.round:
                    raise ProtocolError(
                        f"node {state.node_id} accepted a round-"
                        f"{round_tag} payload from {sender} after "
                        f"entering round {state.round}: synchronizer "
                        "safety violated"
                    )
                inner = Message(
                    sender=sender,
                    receiver=message.receiver,
                    kind=self._decode_kind(fields[2]),
                    fields=tuple(fields[3:-1]),
                )
                state.buffers.setdefault(round_tag + 1, []).append(
                    (self._nodes[sender].rank, fields[1], inner)
                )
            else:
                metrics.duplicates_rejected += 1
            self._send_ack(state, sender)
        elif kind == KIND_SAFE:
            fields = message.fields
            round_tag = fields[0]
            metrics.control_messages += 1
            self._count_round(round_tag + 1, message.bits)
            if self._lossy:
                if state.inn[sender].accept(fields[1]):
                    state.safe_from.setdefault(round_tag, set()).add(sender)
                else:
                    metrics.duplicates_rejected += 1
                self._send_ack(state, sender)
            else:
                state.safe_from.setdefault(round_tag, set()).add(sender)
        else:  # KIND_ACK
            metrics.control_messages += 1
            self._count_round(max(1, metrics.rounds_completed), message.bits)
            cum, bitmap = message.fields
            confirmed = state.out[sender].apply_ack(cum, bitmap)
            if confirmed:
                for seq in confirmed:
                    state.retries.pop((sender, seq), None)
                    seq_round = state.seq_round.pop((sender, seq), None)
                    if seq_round is not None:
                        self._unacked_payloads -= 1
                        remaining = state.outstanding[seq_round] - 1
                        if remaining:
                            state.outstanding[seq_round] = remaining
                        else:
                            del state.outstanding[seq_round]
                self._maybe_safe(state)

    def _send_ack(self, state: _SynchronizerNode, neighbor: int) -> None:
        """Ack every payload/safe delivery immediately (dup or fresh:
        re-acking a duplicate is what recovers from a lost ack)."""
        link = state.inn[neighbor]
        cum, bitmap = link.ack_fields()
        link.ack_due = False
        self._metrics.acks_sent += 1
        # Acks are unreliable and untagged; their fate hash runs in the
        # round-0 lane with its own running index.
        self._transmit(
            state.node_id, neighbor, KIND_ACK, (cum, bitmap), 0
        )

    def _count_round(self, round_number: int, bits: int) -> None:
        metrics = self._metrics
        metrics.total_bits += bits
        index = round_number - 1
        if index < 0:
            index = 0
        for series, amount in (
            (metrics.messages_per_round, 1),
            (metrics.bits_per_round, bits),
        ):
            while len(series) <= index:
                series.append(0)
            series[index] += amount

    # ------------------------------------------------------------------
    # Synchronizer state machine
    # ------------------------------------------------------------------
    def _maybe_safe(self, state: _SynchronizerNode) -> None:
        if state.safe_announced or state.outstanding.get(state.round, 0):
            return
        state.safe_announced = True
        self._announce_safe(state)

    def _maybe_advance(self, state: _SynchronizerNode) -> bool:
        if not state.safe_announced:
            return False
        if self._fault_rt is not None and self._is_down(
            state.node_id, self._clock
        ):
            return False
        heard = state.safe_from.get(state.round)
        if heard is None or len(heard) < len(state.neighbors):
            return False
        # Enter the next round.
        del state.safe_from[state.round]
        state.round += 1
        metrics = self._metrics
        if state.round > metrics.rounds_completed:
            metrics.rounds_completed = state.round
            self._profiler.round_tick(state.round)
            if self._instruments is not None and self._fault_rt is not None:
                self._instruments.record_fault_counters(
                    state.round, self._fault_rt.counters.snapshot()
                )
        state.safe_announced = False
        state.send_counts = {}
        entries = state.buffers.pop(state.round, [])
        # (sender rank, send index) is unique per entry, so the sort
        # never compares messages - and reproduces the synchronous
        # scheduler's inbox order exactly.
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        inbox = [entry[2] for entry in entries]
        self._program_step(state, inbox, state.round)
        self._maybe_safe(state)
        return True

    def _program_step(
        self,
        state: _SynchronizerNode,
        inbox: list[Message] | None,
        round_number: int,
    ) -> None:
        program = state.program
        ctx = _WrapContext(self, state, round_number)
        if inbox is None:
            program.on_start(ctx)
            return
        if program.halted and inbox:
            program.unhalt()
        if not program.halted or inbox:
            program.on_round(ctx, inbox)

    # ------------------------------------------------------------------
    # Inner kind codes (per run)
    # ------------------------------------------------------------------
    def _encode_kind(self, kind: str) -> int:
        code = self._kind_table.get(kind)
        if code is None:
            code = len(self._kind_table)
            self._kind_table[kind] = code
            self._kind_reverse[code] = kind
        return code

    def _decode_kind(self, code: int) -> str:
        return self._kind_reverse[code]


class _WrapContext(RoundContext):
    """RoundContext whose sends become sequenced payload envelopes.

    The CONGEST budget is enforced on the *inner* message: its bits
    against ``bits_per_message`` and its edge's per-round send count
    against ``messages_per_edge`` (the synchronizer's framing and
    recovery traffic ride outside the program's budget; see the module
    docstring)."""

    def __init__(
        self,
        simulator: AsyncSimulator,
        state: _SynchronizerNode,
        round_number: int,
    ) -> None:
        super().__init__(
            state.node_id, state.neighbors, None, round_number
        )
        self._simulator = simulator
        self._state = state

    def send(self, neighbor: int, kind: str, *fields: int) -> None:
        if neighbor not in self._neighbors:
            raise ProtocolError(
                f"node {self._node_id} tried to send to non-neighbor "
                f"{neighbor}"
            )
        inner = Message(
            sender=self._node_id,
            receiver=neighbor,
            kind=kind,
            fields=tuple(fields),
        )
        limit = self._simulator.policy.bits_per_message
        if inner.bits > limit:
            raise CongestViolation(
                f"message {inner!r} is {inner.bits} bits, exceeding the "
                f"per-message budget of {limit} bits"
            )
        self._simulator._send_payload(
            self._state, neighbor, kind, inner.fields, self.round_number
        )

    def send_fields(
        self, neighbor: int, kind: str, fields: tuple[int, ...]
    ) -> None:
        self.send(neighbor, kind, *fields)


def run_async(
    graph: Graph,
    program_factory: ProgramFactory,
    seed: int | None = None,
    **kwargs,
) -> AsyncResult:
    """Convenience wrapper mirroring :func:`repro.congest.scheduler.run_program`."""
    return AsyncSimulator(graph, program_factory, seed=seed, **kwargs).run()
