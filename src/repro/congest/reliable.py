"""Per-edge reliable delivery: sequence numbers, acks, retransmission.

The CONGEST model assumes reliable synchronous channels; a
:class:`~repro.congest.faults.FaultPlan` breaks that assumption.  This
module restores *exactly-once* delivery on top of lossy links with a
classic sliding-window ARQ, sized to fit the model's bandwidth budget:

* every reliable message carries a per-directed-edge **sequence number**
  as its last field (one shared seq space per edge, across all kinds) -
  ``O(log n)`` extra bits;
* receivers **deduplicate** by seq and answer with cumulative +
  selective **acks** (``cum`` plus a :data:`ACK_WINDOW`-bit bitmap), one
  unreliable ack message per edge per round at most;
* senders **retransmit** anything unacked for :data:`RETRANSMIT_AFTER`
  rounds, under fixed per-edge slot caps so retransmissions count
  against - and never exceed - the per-edge message budget.

The protocol charges every retransmission and ack against the same
``O(log n)``-bit, constant-messages-per-edge budget as fresh traffic
(see ``docs/FAULTS.md``): reliability costs a constant factor, not an
asymptotic one.

Determinism: the ARQ consumes **no randomness**.  Its state evolves as
a pure function of the delivered-message history, so the per-message
loop and the vectorized fast path - which feed it the same history -
keep byte-identical channel states.  Each rule has one copy: both loops
accept through :meth:`ReliableChannel.accept` (the fast path once per
claimed walk or exchange row), send through :meth:`ReliableChannel.flush`,
and confirm through :meth:`ReliableChannel.apply_ack` (the fast path
once per claimed ack row, the asynchronous executor through
:meth:`OutLink.apply_ack`); the fast path's drivers settle accepts that
land after a node's flush through :meth:`ReliableChannel.settle`.

On the fast path acks travel as bulk rows in every phase
(:class:`AckRows`), and a node whose channel has nothing to send sleeps
until :meth:`ReliableChannel.wake_round`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.transport import BulkOutbox, RoundOutbox

#: Kind tag of ack messages (unreliable; a newer ack supersedes).
KIND_ACK = "ack"

#: Width of the selective-ack bitmap (seqs ``cum+1 .. cum+ACK_WINDOW``).
#: 16 keeps the bitmap field under 18 bits, inside the 48-bit floor of
#: the per-message budget; out-of-window receipts still get acked
#: cumulatively once the holes before them fill.
ACK_WINDOW = 16

#: Rounds a sent message waits unacked before becoming due again.
#: One network round-trip is 2 rounds; 4 gives the ack a round of slack
#: plus headroom for ack slots lost to the fault plan itself.
RETRANSMIT_AFTER = 4

#: Where :meth:`ReliableChannel.flush` sends: ``send(receiver, kind,
#: fields)``, the seq already the last field.  A node's handler passes
#: :meth:`RoundContext.send_fields
#: <repro.congest.node.RoundContext.send_fields>`, which ships each send
#: as a :class:`Message`; the fast path's exchange driver ships ``xch``
#: sends as bulk rows instead.
Sink = Callable[[int, str, tuple[int, ...]], None]

#: Where a channel with an ack sink sends its acks instead of its flush's
#: :data:`Sink`: one ``(sender, receiver, cum, bitmap)`` row per ack
#: (see :class:`AckRows`).
AckSink = Callable[[tuple[int, int, int, int]], None]


class OutLink:
    """Sender half of one directed edge's reliable channel."""

    __slots__ = ("next_seq", "unacked", "_floor")

    def __init__(self) -> None:
        self.next_seq = 0
        # seq -> [kind, fields-without-seq, last_sent_round,
        #         first_sent_round] (first_sent only feeds telemetry's
        #         recovery-latency histogram; protocol decisions read
        #         last_sent alone)
        self.unacked: dict[int, list] = {}
        # Conservative lower bound on the unacked entries' last_sent
        # rounds; lets ``due`` skip the scan while everything in flight
        # is too fresh to retransmit (the common case every round).
        self._floor = 0

    def assign(
        self, kind: str, fields: tuple[int, ...], round_number: int
    ) -> int:
        """Allocate the next seq for a message being sent this round."""
        seq = self.next_seq
        self.next_seq += 1
        if not self.unacked:
            self._floor = round_number
        self.unacked[seq] = [kind, fields, round_number, round_number]
        return seq

    def assign_block(
        self, kind: str, fields_rows: list[tuple[int, ...]],
        round_number: int,
    ) -> int:
        """Allocate consecutive seqs for a block of messages all sent
        this round on this edge (head-of-queue order); returns the
        first seq.  Equivalent to ``assign`` once per row."""
        seq = self.next_seq
        unacked = self.unacked
        if not unacked:
            self._floor = round_number
        for fields in fields_rows:
            unacked[seq] = [kind, fields, round_number, round_number]
            seq += 1
        start = self.next_seq
        self.next_seq = seq
        return start

    def touch(self, seq: int, round_number: int) -> None:
        """Record a retransmission of ``seq`` this round."""
        self.unacked[seq][2] = round_number

    def apply_ack(
        self, cum: int, bitmap: int, latencies: list | None = None
    ) -> list[int]:
        """Discard everything the ack covers; returns the newly
        confirmed seqs, ascending.  With ``latencies``, appends each
        confirmed seq's ``last_sent - first_sent`` (extra rounds spent
        retransmitting before the acked copy went out; 0 = first try)."""
        unacked = self.unacked
        # Seqs enter ``unacked`` in ascending order, and every bitmap
        # seq is above ``cum``.
        confirmed = [seq for seq in unacked if seq <= cum]
        seq = cum + 1
        while bitmap:
            if bitmap & 1 and seq in unacked:
                confirmed.append(seq)
            bitmap >>= 1
            seq += 1
        for seq in confirmed:
            entry = unacked.pop(seq)
            if latencies is not None:
                latencies.append(entry[2] - entry[3])
        return confirmed

    def due(self, round_number: int) -> list[int]:
        """Seqs whose last transmission has gone unacked too long."""
        if not self.unacked:
            return []
        horizon = round_number - RETRANSMIT_AFTER
        if self._floor > horizon:
            return []
        due: list[int] = []
        floor = None
        for seq, entry in self.unacked.items():
            last_sent = entry[2]
            if last_sent <= horizon:
                due.append(seq)
            if floor is None or last_sent < floor:
                floor = last_sent
        self._floor = floor
        due.sort()
        return due


class InLink:
    """Receiver half of one directed edge's reliable channel.

    Delivered-but-unordered seqs live in ``mask``, an unbounded int
    bitmask relative to ``cum`` (bit ``i`` = seq ``cum + 1 + i``
    delivered).  The mask form makes acceptance O(1) bit ops.  Both
    scheduler loops accept through :meth:`ReliableChannel.accept`, one
    call per arriving message or claimed walk row.
    """

    __slots__ = ("cum", "mask", "ack_due", "acked_round")

    def __init__(self) -> None:
        self.cum = -1  # highest seq with all predecessors delivered
        self.mask = 0  # delivered seqs above cum, relative to cum + 1
        self.ack_due = False
        self.acked_round = -1  # last round an ack went out on this link

    def accept(self, seq: int) -> bool:
        """Register a delivery; True iff this seq is new (not a dup)."""
        self.ack_due = True
        offset = seq - self.cum - 1
        if offset < 0 or (self.mask >> offset) & 1:
            return False
        mask = self.mask | (1 << offset)
        # Slide the window past the contiguous prefix: the lowest zero
        # bit of the mask is one past its run of trailing ones.
        advance = ((mask + 1) & ~mask).bit_length() - 1
        if advance:
            self.cum += advance
            mask >>= advance
        self.mask = mask
        return True

    def ack_fields(self) -> tuple[int, int]:
        """Current ``(cum, bitmap)`` selective-ack payload."""
        return self.cum, self.mask & ((1 << ACK_WINDOW) - 1)


class ChannelStats:
    """Recovery-layer accounting, aggregated per node."""

    __slots__ = ("retransmissions", "acks_sent", "duplicates_rejected")

    def __init__(self) -> None:
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_rejected = 0


class ReliableChannel:
    """One node's reliable channel endpoints to all its neighbors.

    Both execution loops mutate the *same* channel objects: the
    per-message loop from inside each node's round handler, the fast
    path from the network-wide walk and exchange drivers.  All methods
    are deterministic given the delivered-message history.

    Per-edge slot discipline (``flush``): per neighbor per round, at
    most ``token_budget`` walk-token retransmissions, ``control_slots``
    control messages (due retransmits first, then fresh queued sends),
    and one ack.  With a bandwidth policy of ``walk_budget + 4``
    messages per edge, the combined fresh + recovery traffic can never
    violate the CONGEST cap.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: Iterable[int],
        token_budget: int,
        token_kinds: frozenset[str],
        latest_kinds: frozenset[str],
        control_slots: int = 2,
        instruments=None,
    ) -> None:
        self.node_id = node_id
        self.neighbors = tuple(sorted(neighbors))
        self.token_budget = token_budget
        self.token_kinds = token_kinds
        self.latest_kinds = latest_kinds
        self.control_slots = control_slots
        self.out: dict[int, OutLink] = {v: OutLink() for v in self.neighbors}
        self.inn: dict[int, InLink] = {v: InLink() for v in self.neighbors}
        # Per-neighbor fresh control queue: list of [kind, fields].
        self._queues: dict[int, list[list]] = {
            v: [] for v in self.neighbors
        }
        # Neighbors that might need flush work (something unacked,
        # queued, or an ack owed).  Every path that creates such work
        # adds the neighbor here; ``flush`` drops a neighbor once its
        # edge is fully settled, so quiet edges cost nothing per round.
        self._active: set[int] = set()
        self.stats = ChannelStats()
        # Last round :meth:`flush` ran (see :meth:`settle`).
        self.flushed_round = -1
        # Fast path only (see AckRows): where acks go instead of the
        # flush's sink.
        self.ack_sink: AckSink | None = None
        # Optional repro.obs.InstrumentSet: ARQ window occupancy,
        # per-round retransmit/ack counters, and recovery latencies.
        # Strictly observational - the channel never reads it back.
        self._instruments = instruments

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def register_block(
        self,
        neighbor: int,
        kind: str,
        fields_rows: list[tuple[int, ...]],
        round_number: int,
    ) -> int:
        """Sequence a head-of-queue run of messages the caller ships
        itself *this round* on one edge (fresh walk tokens, which the
        walk layer emits directly) and remember them for
        retransmission.  Returns the first seq; the run's seqs are
        consecutive."""
        self._active.add(neighbor)
        return self.out[neighbor].assign_block(
            kind, fields_rows, round_number
        )

    def queue(self, neighbor: int, kind: str, fields: tuple[int, ...]) -> None:
        """Queue a reliable control message; ``flush`` sends it when a
        slot frees up."""
        self._active.add(neighbor)
        self._queues[neighbor].append([kind, fields])

    def queue_latest(
        self, neighbor: int, kind: str, fields: tuple[int, ...]
    ) -> None:
        """Queue a monotone control message, superseding any *queued*
        (not yet sequenced) message of the same kind - for kinds where
        only the latest value matters (flood waves, death-counter
        reports).  Copies already in flight keep retransmitting; the
        receiver's handler is monotone, so a stale arrival is a no-op.
        """
        self._active.add(neighbor)
        for entry in self._queues[neighbor]:
            if entry[0] == kind:
                entry[1] = fields
                return
        self._queues[neighbor].append([kind, fields])

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> tuple[int, ...] | None:
        """Process one arriving message through the reliability layer.

        Returns the payload fields (seq stripped) when the message is a
        *fresh* reliable delivery; ``None`` for acks and duplicates
        (both fully handled internally).
        """
        sender = message.sender
        if message.kind == KIND_ACK:
            self.apply_ack(sender, *message.fields)
            return None
        self._check_neighbor(sender)
        if self.accept(sender, message.fields[-1]):
            return message.fields[:-1]
        return None

    def apply_ack(self, sender: int, cum: int, bitmap: int) -> None:
        """Confirm what one ``(cum, bitmap)`` ack from ``sender`` covers.
        :meth:`receive` calls this for an ack message, :class:`AckRows`
        for an ack row; with instruments attached, each confirmed seq's
        retransmission latency is observed."""
        link = self._check_neighbor(sender)
        if self._instruments is None:
            link.apply_ack(cum, bitmap)
            return
        latencies: list[int] = []
        link.apply_ack(cum, bitmap, latencies)
        for latency in latencies:
            self._instruments.observe("recovery_latency_rounds", latency)

    def _check_neighbor(self, sender: int) -> OutLink:
        """``sender``'s out-link; a non-neighbor is a protocol error."""
        link = self.out.get(sender)
        if link is None:
            raise ProtocolError(
                f"node {self.node_id} got reliable traffic from non-"
                f"neighbor {sender}"
            )
        return link

    def accept(self, sender: int, seq: int, copies: int = 1) -> bool:
        """Run ``copies`` identical arrivals of ``seq`` from ``sender``
        through the receive window; True iff the seq is new.

        Every copy past the first fresh one counts as a rejected
        duplicate, and the edge owes an ack either way.  The fast path
        calls this once per claimed walk row (``copies`` being the row's
        fault multiplicity), :meth:`receive` once per message."""
        self._active.add(sender)
        if self.inn[sender].accept(seq):
            self.stats.duplicates_rejected += copies - 1
            return True
        self.stats.duplicates_rejected += copies
        return False

    # ------------------------------------------------------------------
    # Per-round flush
    # ------------------------------------------------------------------
    def flush(self, round_number: int, send: Sink) -> dict[int, int]:
        """Send this round's recovery traffic through ``send(receiver,
        kind, fields)`` (see :data:`Sink`).

        Per neighbor, in order: due walk-token retransmissions (up to
        ``token_budget``), control messages (due retransmits, then
        fresh queued, up to ``control_slots`` combined), then one ack
        if owed.  Returns the per-neighbor token-retransmission counts;
        the walk layer subtracts them from its fresh-emission budget so
        the edge's token slots are never oversubscribed.
        """
        self.flushed_round = round_number
        token_retransmits: dict[int, int] = {}
        retransmits_this_round = 0
        acks_this_round = 0
        active = self._active
        # Only edges with live work are visited; iteration stays in
        # neighbor order, so the send order matches the full scan's.
        if not active:
            order: tuple[int, ...] | list[int] = ()
        elif len(active) == len(self.neighbors):
            order = self.neighbors
        else:
            order = sorted(active)
        for neighbor in order:
            link = self.out[neighbor]
            due = link.due(round_number)
            tokens_sent = 0
            control_sent = 0
            for seq in due:
                kind, fields, _, _ = link.unacked[seq]
                is_token = kind in self.token_kinds
                if is_token:
                    if tokens_sent >= self.token_budget:
                        continue
                elif control_sent >= self.control_slots:
                    continue
                send(neighbor, kind, fields + (seq,))
                link.touch(seq, round_number)
                self.stats.retransmissions += 1
                retransmits_this_round += 1
                if is_token:
                    tokens_sent += 1
                else:
                    control_sent += 1
            queue = self._queues[neighbor]
            while queue and control_sent < self.control_slots:
                kind, fields = queue.pop(0)
                seq = link.assign(kind, fields, round_number)
                send(neighbor, kind, fields + (seq,))
                control_sent += 1
            inlink = self.inn[neighbor]
            if inlink.ack_due:
                self._ack(neighbor, inlink, round_number, send)
                acks_this_round += 1
            if tokens_sent:
                token_retransmits[neighbor] = tokens_sent
            if not link.unacked and not queue and not inlink.ack_due:
                active.discard(neighbor)
        if self._instruments is not None:
            if retransmits_this_round:
                self._instruments.bump_round(
                    "retransmissions", round_number, retransmits_this_round
                )
            if acks_this_round:
                self._instruments.bump_round(
                    "acks", round_number, acks_this_round
                )
            self._instruments.observe("arq_window", self.unacked_count)
        return token_retransmits

    def settle(
        self, senders: Iterable[int], round_number: int, send: Sink
    ) -> None:
        """Owe what a receive-then-flush round handler would have sent
        for accepts from ``senders`` that a fast-path driver ran after
        the handler (duplicates: a fresh arrival past counting is a
        protocol error).  Both drivers settle through here.

        If this round's :meth:`flush` has not run (a halted node the
        scheduler did not step), run it now.  Otherwise the flush would
        have closed each sender's section with one ack, so send that
        ack now - still the edge's only ack this round, so it draws the
        same fault fate - unless the flush already acked the link,
        whose ``(cum, bitmap)`` a duplicate cannot have changed."""
        if self.flushed_round != round_number:
            self.flush(round_number, send)
            return
        for neighbor in sorted(senders):
            inlink = self.inn[neighbor]
            if not inlink.ack_due:
                continue
            if inlink.acked_round == round_number:
                inlink.ack_due = False
                continue
            self._ack(neighbor, inlink, round_number, send)
            if self._instruments is not None:
                self._instruments.bump_round("acks", round_number, 1)

    def _ack(
        self, neighbor: int, inlink: InLink, round_number: int, send: Sink
    ) -> None:
        """Send ``neighbor`` the link's current ack, through the ack
        sink when one is set and through ``send`` otherwise."""
        cum, bitmap = inlink.ack_fields()
        if self.ack_sink is None:
            send(neighbor, KIND_ACK, (cum, bitmap))
        else:
            self.ack_sink((self.node_id, neighbor, cum, bitmap))
        inlink.ack_due = False
        inlink.acked_round = round_number
        self.stats.acks_sent += 1

    def wake_round(self, round_number: int) -> int | None:
        """The earliest round after ``round_number`` whose :meth:`flush`
        can send anything: the next round while control mail is queued
        or an ack is owed; else the round the oldest unacked send comes
        due (``last_sent + RETRANSMIT_AFTER``, or the next round if the
        slot caps held it back); else None.  Until then a flush sends
        nothing, and acks that arrive meanwhile only move the answer
        later."""
        soonest = None
        for neighbor in self._active:
            if self._queues[neighbor] or self.inn[neighbor].ack_due:
                return round_number + 1
            unacked = self.out[neighbor].unacked
            if unacked:
                due = min(entry[2] for entry in unacked.values())
                if soonest is None or due < soonest:
                    soonest = due
        if soonest is None:
            return None
        return max(soonest + RETRANSMIT_AFTER, round_number + 1)

    # ------------------------------------------------------------------
    # Drain / introspection
    # ------------------------------------------------------------------
    @property
    def unacked_count(self) -> int:
        return sum(len(link.unacked) for link in self.out.values())

    @property
    def queued_count(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def drained(self) -> bool:
        """True when nothing is queued, in flight, or owed an ack."""
        if self.queued_count or self.unacked_count:
            return False
        return not any(link.ack_due for link in self.inn.values())



class AckRows:
    """Fast-path driver that carries every channel's acks as bulk rows.

    Each channel :meth:`attach`-ed here sends its acks to this driver
    instead of its flush's sink, so the flush and settle callers - the
    node handlers and the walk and exchange drivers - stay as they are.
    The driver registers to end each round after every other driver and
    ships the round's ack rows, in send order, as one push.  Arriving
    rows go through :meth:`ReliableChannel.apply_ack` in
    :meth:`receive_rows`, before any node or driver runs, so no node is
    stepped for an ack and the receiver's phase does not matter.

    An ack only confirms: applied before the round's handlers instead
    of inside them, it leaves every later decision the same, and
    applying a duplicated row once equals applying it twice.  Fault
    fates hash per edge and kind, and an edge carries at most one ack
    per round, so rows and messages draw the same fates.
    """

    claimed_kinds = frozenset({KIND_ACK})

    def __init__(self) -> None:
        self._channels: dict[int, ReliableChannel] = {}
        self._rows: list[tuple[int, int, int, int]] = []

    def attach(self, channel: ReliableChannel) -> None:
        """Route ``channel``'s acks through this driver."""
        self._channels[channel.node_id] = channel
        channel.ack_sink = self._rows.append

    def receive_rows(self, round_number: int, claimed: dict) -> None:
        """Apply this round's arriving ack rows."""
        senders, receivers, fields, _ = claimed[KIND_ACK]
        channels = self._channels
        for sender, receiver, (cum, bitmap) in zip(
            senders.tolist(), receivers.tolist(), fields.tolist()
        ):
            channels[receiver].apply_ack(sender, cum, bitmap)

    def end_round(
        self,
        round_number: int,
        claimed: dict,
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        rows = self._rows
        if rows:
            table = np.array(rows, dtype=np.int64)
            # In place: every attached channel's sink is this list's
            # ``append``.
            rows.clear()
            bulk_outbox.push_rows(
                KIND_ACK, table[:, 0], table[:, 1], table[:, 2:]
            )
