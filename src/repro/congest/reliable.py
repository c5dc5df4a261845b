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
keep byte-identical channel states.

One table, one copy of each rule.  All channel state lives in a
:class:`LinkTable`, one slot per directed edge: node ``v``'s slot for
neighbour ``u`` holds both halves of ``v``'s channel to ``u`` (what it
received from ``u``, and what it sent ``u`` and has not seen acked),
and a node's slots are one range in neighbour order.  The table's
functions take a whole round at once: :meth:`LinkTable.accept_rows`
runs arrivals through the receive windows, :meth:`LinkTable.apply_acks`
confirms sends, :meth:`LinkTable.register_rows` sequences fresh walk
tokens, and :meth:`LinkTable.flush` sends the flushed nodes'
retransmissions, queued control and acks.  On the fast path one table
spans the run's :class:`~repro.congest.node.EdgeIndex` and the walk and
exchange drivers call each function once per round.
:class:`ReliableChannel` is the one-node view node handlers use: it runs
the same functions on its node's range - of the shared table on the
fast path, of a private one-node table on the per-message loop.

The asynchronous executor keeps the scalar pair :meth:`InLink.accept` /
:meth:`OutLink.apply_ack` (tests pin it to the table's functions).  The
table runs small accept calls, and receive windows wider than an int64
mask, through :meth:`InLink.accept` too.  On the fast path acks travel
as bulk rows in every phase (:class:`AckRows`), and a node whose
channel has nothing to send sleeps until
:meth:`ReliableChannel.wake_round`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import Message, message_bits_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex
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

#: Payload fields a reliable message carries at most, besides its seq.
MAX_FIELDS = 4

#: Where :meth:`ReliableChannel.flush` sends: ``send(receiver, kind,
#: fields)``, the seq already the last field.  A node's handler passes
#: :meth:`RoundContext.send_fields
#: <repro.congest.node.RoundContext.send_fields>`.
Sink = Callable[[int, str, tuple[int, ...]], None]

#: Acks a flush owes, as ``(slots, cums, bitmaps)``.
Acks = tuple[np.ndarray, np.ndarray, np.ndarray]

# Receive masks up to this many bits live in an int64 array; a wider
# window runs through an InLink until it narrows again.
_NARROW = 63
_LOW_BITS = (1 << _NARROW) - 1
# Accept calls of at most this many rows run through InLink: below it
# the array operations cost more than the rows do.
_SCALAR_ROWS = 16

# Columns of the sent store and of the control queue (its slot column
# is the first too).  A dead row's slot is the table size.
_SLOT, _SEQ, _KIND, _LAST, _FIRST, _NF = range(6)
_QKIND, _QNF = 1, 2


class OutLink:
    """Sender half of one directed edge's channel, for the asynchronous
    executor."""

    __slots__ = ("next_seq", "unacked")

    def __init__(self) -> None:
        self.next_seq = 0
        # seq -> [kind, fields-without-seq, last_sent_round,
        #         first_sent_round]
        self.unacked: dict[int, list] = {}

    def assign(
        self, kind: str, fields: tuple[int, ...], round_number: int
    ) -> int:
        """Allocate the next seq for a message being sent this round."""
        seq = self.next_seq
        self.next_seq += 1
        self.unacked[seq] = [kind, fields, round_number, round_number]
        return seq

    def apply_ack(self, cum: int, bitmap: int) -> list[int]:
        """Discard everything the ack covers; returns the newly
        confirmed seqs, ascending."""
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
            del unacked[seq]
        return confirmed


class InLink:
    """Receiver half of one directed edge's channel.

    Delivered-but-unordered seqs live in ``mask``, an unbounded int
    bitmask relative to ``cum`` (bit ``i`` = seq ``cum + 1 + i``
    delivered), so acceptance is O(1) bit ops.
    """

    __slots__ = ("cum", "mask", "ack_due")

    def __init__(self, cum: int = -1, mask: int = 0) -> None:
        self.cum = cum  # highest seq with all predecessors delivered
        self.mask = mask  # delivered seqs above cum, relative to cum + 1
        self.ack_due = False

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
    """Recovery-layer accounting of one node."""

    __slots__ = ("retransmissions", "acks_sent", "duplicates_rejected")

    def __init__(
        self, retransmissions: int, acks_sent: int, duplicates_rejected: int
    ) -> None:
        self.retransmissions = retransmissions
        self.acks_sent = acks_sent
        self.duplicates_rejected = duplicates_rejected


class LinkTable:
    """Every reliable channel of a run, one slot per directed edge.

    Node ``v`` owns slots ``offsets[v]:offsets[v + 1]``, one per
    neighbour in ascending order (``peers``).  Per slot the table keeps
    the receive window (``cum`` and the int64 ``mask`` of selective bits
    above it), whether an ack is owed and the round the last one went
    out, the next seq to send, and counts of unacked and queued
    messages.  Unacked sends are rows of one store (slot, seq, kind
    code, last and first send round, field count, fields) and queued
    control messages rows of another, in FIFO order.

    ``token_kinds`` retransmit under ``token_budget`` slots per edge and
    round, every other kind under ``control_slots`` (both at least 1).
    ``ack_rows`` makes it the fast path's table, driven by
    :class:`AckRows`: it keeps the acks it owes for that driver to ship
    (otherwise :meth:`flush` returns them), and the views' flushes wait
    for :meth:`flush_pending`.  ``instruments`` (an optional
    ``repro.obs.InstrumentSet``) is written, never read.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        peers: np.ndarray,
        token_budget: int,
        token_kinds: frozenset[str],
        control_slots: int = 2,
        instruments=None,
        ack_rows: bool = False,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.peers = np.asarray(peers, dtype=np.int64)
        nodes = len(self.offsets) - 1
        size = self.size = len(self.peers)
        self.owners = np.repeat(np.arange(nodes), np.diff(self.offsets))
        # Owner per slot plus the dead slot's, a node no flush picks.
        self._slot_owner = np.append(self.owners, nodes)
        self.token_budget = token_budget
        self.token_kinds = token_kinds
        self.control_slots = control_slots
        self._instruments = instruments
        self.cum = np.full(size, -1, dtype=np.int64)
        self.mask = np.zeros(size, dtype=np.int64)
        self.ack_due = np.zeros(size, dtype=bool)
        self.acked_round = np.full(size, -1, dtype=np.int64)
        self._wide: dict[int, InLink] = {}
        self.next_seq = np.zeros(size, dtype=np.int64)
        self.unacked = np.zeros(size, dtype=np.int64)
        self.queued = np.zeros(size, dtype=np.int64)
        self._sent = _Rows(_NF + 1 + MAX_FIELDS, size)
        self._no_sends = np.zeros((0, _NF + 1 + MAX_FIELDS), dtype=np.int64)
        self._queue = _Rows(_QNF + 1 + MAX_FIELDS, size)
        self._kinds: list[str] = []
        self._codes: dict[str, int] = {}
        self._token_codes = np.zeros(0, dtype=bool)
        self.retransmissions = np.zeros(size, dtype=np.int64)
        self.acks_sent = np.zeros(size, dtype=np.int64)
        self.duplicates = np.zeros(size, dtype=np.int64)
        self.flushed_round = np.full(nodes, -1, dtype=np.int64)
        self._ack_rows: list[Acks] | None = [] if ack_rows else None
        # Nodes whose handlers flushed this round, and their wakes once
        # flushed (see flush_pending).
        self._pending: list[int] = []
        self._wakes: tuple[int, dict[int, int]] = (-1, {})

    def code(self, kind: str) -> int:
        """The kind's code in the stores (assigned on first use)."""
        code = self._codes.get(kind)
        if code is None:
            code = self._codes[kind] = len(self._kinds)
            self._kinds.append(kind)
            self._token_codes = np.append(
                self._token_codes, kind in self.token_kinds
            )
        return code

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def accept_rows(
        self, slots: np.ndarray, seqs: np.ndarray, copies: np.ndarray
    ) -> np.ndarray:
        """Run a round's arrivals through the receive windows: row ``i``
        is ``copies[i]`` identical arrivals of ``seqs[i]`` at slot
        ``slots[i]``.  Returns which rows are fresh.

        A row is fresh when its seq had not arrived before and no
        earlier row of the call carries it (the first copy wins); every
        other copy counts as a rejected duplicate, and every slot that
        got a row owes an ack.  Windows then advance past their
        trailing ones.  Small calls, and calls that reach a window wider
        than :data:`_NARROW` bits, run row by row through each slot's
        window as an :meth:`InLink.accept`."""
        count = len(slots)
        fresh = np.zeros(count, dtype=bool)
        if not count:
            return fresh
        self.ack_due[slots] = True
        if count > _SCALAR_ROWS and not self._wide:
            gaps = seqs - self.cum[slots] - 1
            if gaps.max() < _NARROW:
                self._accept_narrow(slots, seqs, gaps, fresh)
                repeated = copies - fresh
                if repeated.any():
                    np.add.at(self.duplicates, slots, repeated)
                return fresh
        links: dict[int, InLink] = {}
        for row, (slot, seq, copy) in enumerate(
            zip(slots.tolist(), seqs.tolist(), copies.tolist())
        ):
            link = links.get(slot)
            if link is None:
                link = links[slot] = self._wide.pop(slot, None) or InLink(
                    int(self.cum[slot]), int(self.mask[slot])
                )
            fresh[row] = new = link.accept(seq)
            if copy > new:
                self.duplicates[slot] += copy - new
        for slot, link in links.items():
            # A window wider than _NARROW bits stays an InLink.
            self.cum[slot] = link.cum
            self.mask[slot] = link.mask & _LOW_BITS
            if link.mask > _LOW_BITS:
                self._wide[slot] = link
        return fresh

    def _accept_narrow(
        self,
        slots: np.ndarray,
        seqs: np.ndarray,
        gaps: np.ndarray,
        fresh: np.ndarray,
    ) -> None:
        """:meth:`accept_rows` as array operations on the int64 masks."""
        bits = np.left_shift(1, np.maximum(gaps, 0))
        new = ((gaps >= 0) & ((self.mask[slots] & bits) == 0)).nonzero()[0]
        keys = seqs[new] * self.size + slots[new]
        order = np.argsort(keys, kind="stable")
        repeats = keys[order][1:] == keys[order][:-1]
        if repeats.any():
            # The first copy wins: keep each (slot, seq)'s first row.
            new = new[np.sort(order[np.append(True, ~repeats)])]
        mine = slots[new]
        np.bitwise_or.at(self.mask, mine, bits[new])
        mask = self.mask[mine]
        # The lowest zero bit is one past the run of trailing ones.
        lowest_zero = (~mask & (mask + 1)).astype(np.uint64)
        advance = np.log2(lowest_zero).astype(np.int64)
        self.cum[mine] += advance
        self.mask[mine] = mask >> advance
        fresh[new] = True

    def apply_acks(
        self, slots: np.ndarray, cums: np.ndarray, bitmaps: np.ndarray
    ) -> None:
        """Confirm what a round's acks cover: ack ``i`` confirms every
        unacked send of slot ``slots[i]`` with a seq up to ``cums[i]``
        or whose bit is set in ``bitmaps[i]`` (bit ``j`` is seq
        ``cums[i] + 1 + j``).  With instruments attached, each
        confirmed send's ``last_sent - first_sent`` (the rounds spent
        retransmitting before the acked copy went out) is observed."""
        sent = self._sent.rows()
        hit = np.zeros(self.size + 1, dtype=bool)
        hit[slots] = True
        rows = hit[sent[:, _SLOT]].nonzero()[0]
        if not len(rows):
            return
        row_keys = _slot_seq(sent[rows])
        top = np.full(self.size, -1, dtype=np.int64)
        np.maximum.at(top, slots, cums)
        done = sent[rows, _SEQ] <= top[sent[rows, _SLOT]]
        if bitmaps.any():
            bit_set = (bitmaps[:, None] >> np.arange(ACK_WINDOW)) & 1
            acks, bits = np.nonzero(bit_set)
            keys = np.sort((slots[acks] << 32) | (cums[acks] + 1 + bits))
            found = np.searchsorted(keys, row_keys).clip(0, len(keys) - 1)
            done |= keys[found] == row_keys
        rows = rows[done]
        if self._instruments is not None and len(rows):
            self._instruments.observe_array(
                "recovery_latency_rounds",
                sent[rows, _LAST] - sent[rows, _FIRST],
            )
        self.unacked -= np.bincount(sent[rows, _SLOT], minlength=self.size)
        self._sent.kill(rows)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def register_rows(
        self,
        slots: np.ndarray,
        kind: str,
        fields: np.ndarray,
        round_number: int,
    ) -> np.ndarray:
        """Sequence messages the caller ships itself *this round* (fresh
        walk tokens) and keep them for retransmission; returns their
        seqs.  Each slot's rows take consecutive seqs in row order."""
        seqs = self.next_seq[slots] + _ranks(slots)
        self.next_seq += np.bincount(slots, minlength=self.size)
        self._add_sent(
            slots, seqs, self.code(kind), fields, fields.shape[1], round_number
        )
        return seqs

    def queue_rows(
        self, slots: np.ndarray, kind: str, fields: np.ndarray, latest=False
    ) -> None:
        """Queue control message ``fields[i]`` on slot ``slots[i]`` for
        :meth:`flush` to sequence and send when a slot frees up.

        With ``latest`` (monotone kinds: flood waves, death-counter
        reports; the slots distinct) a message instead replaces one of
        its kind still *queued* on its slot.  Copies already in flight
        keep retransmitting; the receiver's handler ignores a stale
        arrival."""
        code = self.code(kind)
        width = fields.shape[1]
        if latest and self.queued[slots].any():
            queue = self._queue.rows()
            wanted = np.full(self.size + 1, -1)
            wanted[slots] = np.arange(len(slots))
            which = np.where(
                queue[:, _QKIND] == code, wanted[queue[:, _SLOT]], -1
            )
            stale = (which >= 0).nonzero()[0]
            queue[stale, _QNF + 1:_QNF + 1 + width] = fields[which[stale]]
            left = np.ones(len(slots), dtype=bool)
            left[which[stale]] = False
            slots, fields = slots[left], fields[left]
        rows = self._queue.append(len(slots))
        rows[:, _SLOT] = slots
        rows[:, _QKIND] = code
        rows[:, _QNF] = width
        rows[:, _QNF + 1:_QNF + 1 + width] = fields
        np.add.at(self.queued, slots, 1)

    def flush(
        self, nodes: np.ndarray, round_number: int
    ) -> tuple[np.ndarray | None, np.ndarray, Acks | None]:
        """Send the round's recovery traffic of every node in ``nodes``.

        Per slot, in order: due retransmissions in seq order, at most
        ``token_budget`` walk tokens and ``control_slots`` control
        messages; queued control messages in FIFO order into the
        control slots left; then one ack if owed.  Returns the token
        retransmissions per slot (None if there were none), which the
        walk layer debits from its fresh-emission budget; the sends as
        sent-store rows in (slot, seq) order (see :meth:`messages`);
        and the acks, if the table does not keep them."""
        size = self.size
        self.flushed_round[nodes] = round_number
        picked = np.zeros(len(self.flushed_round) + 1, dtype=bool)
        picked[nodes] = True
        chosen = picked[self._slot_owner]
        mine = chosen[:size]
        debits = control = None
        sends = resent = self._no_sends
        if self.unacked[mine].any():
            sent = self._sent.rows()
            rows = (
                chosen[sent[:, _SLOT]]
                & (sent[:, _LAST] <= round_number - RETRANSMIT_AFTER)
            ).nonzero()[0]
            if len(rows):
                rows = rows[np.argsort(_slot_seq(sent[rows]))]
                slots = sent[rows, _SLOT]
                token = self._token_codes[sent[rows, _KIND]]
                # No cap binds on fewer rows than the smallest cap.
                if len(rows) > min(self.token_budget, self.control_slots):
                    caps = np.where(
                        token, self.token_budget, self.control_slots
                    )
                    go = _ranks(slots * 2 + token) < caps
                    rows, slots, token = rows[go], slots[go], token[go]
                sent[rows, _LAST] = round_number
                sends = resent = sent[rows]
                control = np.bincount(slots, minlength=size)
                self.retransmissions += control
                if token.any():
                    debits = np.bincount(slots[token], minlength=size)
                    control -= debits
        if self.queued[mine].any():
            queue = self._queue.rows()
            waiting = chosen[queue[:, _SLOT]].nonzero()[0]
            slots = queue[waiting, _SLOT]
            ranks = np.zeros(len(slots), dtype=np.int64)
            if self.queued[slots].max() > 1:
                ranks = _ranks(slots)
            room = self.control_slots
            if control is not None:
                room = room - control[slots]
            go = (ranks < room).nonzero()[0]
            if len(go):
                waiting, slots, ranks = waiting[go], slots[go], ranks[go]
                taken = np.bincount(slots, minlength=size)
                self.queued -= taken
                fresh = queue[waiting]
                self._queue.kill(waiting)
                rows = self._add_sent(
                    slots, self.next_seq[slots] + ranks, fresh[:, _QKIND],
                    fresh[:, _QNF + 1:], fresh[:, _QNF], round_number,
                )
                self.next_seq += taken
                sends = np.concatenate([resent, rows])
                if len(resent):
                    sends = sends[np.argsort(_slot_seq(sends))]
        owed = (mine & self.ack_due).nonzero()[0]
        acks = self._ack(owed, round_number) if len(owed) else None
        obs = self._instruments
        if obs is not None:
            if len(resent):
                obs.bump_round("retransmissions", round_number, len(resent))
            if len(owed):
                obs.bump_round("acks", round_number, len(owed))
            if len(nodes) == 1:
                lo, hi = self.offsets[nodes[0]], self.offsets[nodes[0] + 1]
                obs.observe("arq_window", int(self.unacked[lo:hi].sum()))
            else:
                windows = np.add.reduceat(self.unacked, self.offsets[:-1])
                obs.observe_array("arq_window", windows[nodes])
        return debits, sends, acks

    def flush_pending(self, round_number: int) -> np.ndarray:
        """Run the flushes node handlers asked for this round, as one
        :meth:`flush` in ascending node order, and note the nodes'
        :meth:`wake_rounds` for the scheduler's queries that follow;
        returns the sends."""
        if not self._pending:
            return self._no_sends
        nodes, self._pending = np.array(self._pending), []
        sends = self.flush(nodes, round_number)[1]
        wakes = self.wake_rounds(nodes, round_number).tolist()
        self._wakes = (round_number, dict(zip(nodes.tolist(), wakes)))
        return sends

    def settle(self, slots: np.ndarray, round_number: int) -> np.ndarray:
        """Owe what receive-then-flush round handlers would have sent for
        accepts at ``slots`` that no handler ran: a driver's accepts
        after the node's flush (duplicates: a fresh token or column
        past counting is a protocol error), or the walk engine's early
        accepts of ``term`` and ``done`` at a node nobody steps.
        Returns the sends, as :meth:`flush` does; the table keeps the
        acks (it is built with ``ack_rows``).

        A node whose flush has not run this round (a halted node the
        scheduler did not step) is flushed now.  For the others the
        flush would have closed each such slot's section with one ack,
        so that ack goes out now - still the edge's only ack this
        round, so it draws the same fault fate - unless the flush
        already acked the slot, whose ``(cum, bitmap)`` a duplicate
        cannot have changed."""
        slots = np.flatnonzero(np.bincount(slots, minlength=self.size))
        owners = self.owners[slots]
        flushed = self.flushed_round[owners] == round_number
        late = slots[flushed & self.ack_due[slots]]
        repeat = self.acked_round[late] == round_number
        self.ack_due[late[repeat]] = False
        late = late[~repeat]
        sends = self._no_sends
        unflushed = np.flatnonzero(np.bincount(owners[~flushed]))
        if len(unflushed):
            sends = self.flush(unflushed, round_number)[1]
        if len(late):
            if self._instruments is not None:
                self._instruments.bump_round("acks", round_number, len(late))
            self._ack(late, round_number)
        return sends

    def _ack(self, slots: np.ndarray, round_number: int) -> Acks | None:
        """Send the slots' current ``(cum, bitmap)`` acks."""
        bitmaps = self.mask[slots] & ((1 << ACK_WINDOW) - 1)
        acks = (slots, self.cum[slots], bitmaps)
        self.ack_due[slots] = False
        self.acked_round[slots] = round_number
        self.acks_sent[slots] += 1
        if self._ack_rows is None:
            return acks
        self._ack_rows.append(acks)
        return None

    def take_ack_rows(self) -> Acks | None:
        """The acks kept since the last call, in send order."""
        kept, self._ack_rows = self._ack_rows, []
        if not kept:
            return None
        return tuple(np.concatenate(column) for column in zip(*kept))

    def _add_sent(self, slots, seqs, codes, fields, widths, round_number):
        """Store new sends; returns a copy of their rows."""
        rows = self._sent.append(len(slots))
        rows[:, _SLOT] = slots
        rows[:, _SEQ] = seqs
        rows[:, _KIND] = codes
        rows[:, _LAST] = round_number
        rows[:, _FIRST] = round_number
        rows[:, _NF] = widths
        rows[:, _NF + 1:_NF + 1 + fields.shape[1]] = fields
        self.unacked += np.bincount(slots, minlength=self.size)
        return rows.copy()

    # ------------------------------------------------------------------
    # Shipping and queries
    # ------------------------------------------------------------------
    def messages(self, sends: np.ndarray) -> list[tuple[int, str, tuple]]:
        """Flush sends as ``(slot, kind, fields)``, the seq last."""
        kinds = self._kinds
        return [
            (row[_SLOT], kinds[row[_KIND]],
             tuple(row[_NF + 1:_NF + 1 + row[_NF]]) + (row[_SEQ],))
            for row in sends.tolist()
        ]

    def ship(
        self,
        sends: np.ndarray,
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
        row_kinds: tuple[str, ...],
    ) -> None:
        """Ship a fast-path driver's flush sends: the kinds drivers claim
        (``row_kinds``) as bulk rows, each kind's in send order on its
        slot's edge id, and the rest as the control messages a node
        handler's flush sends."""
        for kind in row_kinds:
            mine = sends[:, _KIND] == self.code(kind)
            if mine.any():
                rows = sends[mine]
                fields = np.column_stack(
                    [rows[:, _NF + 1:_NF + 1 + rows[0, _NF]], rows[:, _SEQ]]
                )
                bulk_outbox.push_priced(
                    kind, rows[:, _SLOT], message_bits_array(fields), fields
                )
                sends = sends[~mine]
        owners, peers = self.owners, self.peers
        for slot, kind, fields in self.messages(sends):
            outbox.push(
                Message(int(owners[slot]), int(peers[slot]), kind, fields)
            )

    def drained_nodes(self) -> np.ndarray:
        """Per node: nothing queued, in flight, or owed an ack."""
        busy = self.queued + self.unacked + self.ack_due
        return np.add.reduceat(busy, self.offsets[:-1]) == 0

    def wake_rounds(self, nodes: np.ndarray, round_number: int) -> np.ndarray:
        """Per node, the earliest round after ``round_number`` whose
        flush can send anything, -1 for none (see
        :meth:`ReliableChannel.wake_round`)."""
        busy = np.add.reduceat(self.queued + self.ack_due, self.offsets[:-1])
        sent = self._sent.rows()
        never = np.iinfo(np.int64).max
        oldest = np.full(len(self.flushed_round) + 1, never)
        np.minimum.at(oldest, self._slot_owner[sent[:, _SLOT]], sent[:, _LAST])
        oldest = oldest[nodes]
        due = np.maximum(oldest + RETRANSMIT_AFTER, round_number + 1)
        due = np.where(oldest < never, due, -1)
        return np.where(busy[nodes] > 0, round_number + 1, due)

    def wake_round(self, node: int, round_number: int) -> int | None:
        """One node's :meth:`wake_rounds`, None for none; right after
        :meth:`flush_pending` the noted answer."""
        noted_round, wakes = self._wakes
        wake = wakes.get(node) if noted_round == round_number else None
        if wake is None:
            wake = int(self.wake_rounds([node], round_number)[0])
        return None if wake < 0 else wake

    def unacked_rows(self, slot: int) -> list[tuple[str, tuple, int, int]]:
        """The slot's unacked sends, by seq: ``(kind, fields, last_sent,
        first_sent)``."""
        sent = self._sent.rows()
        rows = sent[sent[:, _SLOT] == slot]
        rows = rows[np.argsort(rows[:, _SEQ])]
        return [
            (kind, fields[:-1], row[_LAST], row[_FIRST])
            for row, (_, kind, fields) in zip(
                rows.tolist(), self.messages(rows)
            )
        ]


class ReliableChannel:
    """One node's reliable channels to all its neighbours: the one-node
    view of a :class:`LinkTable`, whose functions its methods run on the
    node's range.  With ``table`` it views node ``node_id`` of that
    table (the fast path's shared one, whose settings then apply);
    otherwise it owns a one-node table over ``neighbors``.

    Per-edge slot discipline (:meth:`flush`): per neighbour per round,
    at most ``token_budget`` walk-token retransmissions,
    ``control_slots`` control messages (due retransmits first, then
    fresh queued sends), and one ack.  With a bandwidth policy of
    ``walk_budget + 4`` messages per edge, the combined fresh + recovery
    traffic can never violate the CONGEST cap.
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
        table: LinkTable | None = None,
    ) -> None:
        self.node_id = node_id
        self.neighbors = tuple(sorted(neighbors))
        self.latest_kinds = latest_kinds
        row = node_id
        if table is None:
            table = LinkTable(
                [0, len(self.neighbors)], self.neighbors, token_budget,
                token_kinds, control_slots, instruments,
            )
            row = 0
        self.table = table
        self._row = row
        self._nodes = np.array([row])
        self._lo = int(table.offsets[row])
        self._hi = int(table.offsets[row + 1])
        #: The node's first slot; the one for ``neighbors[i]`` is this + i.
        self.first_slot = self._lo
        self._slot = {v: self._lo + i for i, v in enumerate(self.neighbors)}

    def queue(
        self, neighbor: int, kind: str, fields: tuple[int, ...], latest=False
    ) -> None:
        """Queue a reliable control message; :meth:`flush` sends it when
        a slot frees up.  ``latest`` supersedes a still-queued message
        of the kind (see :meth:`LinkTable.queue_rows`)."""
        self.table.queue_rows(
            np.array([self._slot[neighbor]]), kind,
            np.array(fields, dtype=np.int64).reshape(1, len(fields)), latest,
        )

    def queue_all(
        self, kind: str, fields: tuple[int, ...], latest=False
    ) -> None:
        """:meth:`queue` the same message to every neighbour."""
        row = np.array(fields, dtype=np.int64)
        self.table.queue_rows(
            np.arange(self._lo, self._hi), kind,
            np.tile(row, (self._hi - self._lo, 1)), latest,
        )

    def flush(self, round_number: int, send: Sink) -> dict[int, int]:
        """Send this round's recovery traffic (:meth:`LinkTable.flush`)
        through ``send`` (see :data:`Sink`): each neighbour's sends in
        seq order, then its ack.  Returns the per-neighbour
        token-retransmission counts, which the walk layer subtracts from
        its fresh-emission budget.

        On the fast path's table the flush waits for
        :meth:`LinkTable.flush_pending`, which :class:`AckRows` runs for
        all of the round's handlers right after the node pass.  Node
        handlers there send nothing else, and the scheduler asks for
        their wakes only after that, so the batch sends what their
        flushes would have, in the same order."""
        table = self.table
        if table._ack_rows is not None:
            table._pending.append(self._row)
            return {}
        debits, sends, acks = table.flush(self._nodes, round_number)
        peers, lo = self.neighbors, self._lo
        owed = [] if acks is None else list(zip(*(a.tolist() for a in acks)))
        end = [(self._hi, None, None)]
        for slot, kind, fields in self.table.messages(sends) + end:
            while owed and owed[0][0] < slot:
                ack_slot, cum, bitmap = owed.pop(0)
                send(peers[ack_slot - lo], KIND_ACK, (cum, bitmap))
            if kind is not None:
                send(peers[slot - lo], kind, fields)
        if debits is None:
            return {}
        return {
            self.neighbors[slot - self._lo]: int(debits[slot])
            for slot in np.flatnonzero(debits[self._lo:self._hi]) + self._lo
        }

    def receive(
        self, messages: Iterable[Message]
    ) -> list[tuple[Message, tuple[int, ...]]]:
        """Run a round's arriving messages through the channel: acks
        through :meth:`LinkTable.apply_acks`, the rest through
        :meth:`LinkTable.accept_rows`.  Returns the fresh deliveries as
        ``(message, payload)`` pairs, the seq stripped, in arrival
        order."""
        acks: list[Message] = []
        data: list[Message] = []
        for message in messages:
            (acks if message.kind == KIND_ACK else data).append(message)
            if message.sender not in self._slot:
                raise ProtocolError(
                    f"node {self.node_id} got reliable traffic from non-"
                    f"neighbor {message.sender}"
                )
        if acks:
            self.table.apply_acks(
                np.array([self._slot[m.sender] for m in acks]),
                *np.array([m.fields for m in acks], dtype=np.int64).T,
            )
        if not data:
            return []
        fresh = self.table.accept_rows(
            np.array([self._slot[m.sender] for m in data]),
            np.array([m.fields[-1] for m in data], dtype=np.int64),
            np.ones(len(data), dtype=np.int64),
        )
        return [
            (message, message.fields[:-1])
            for message, new in zip(data, fresh.tolist())
            if new
        ]

    def wake_round(self, round_number: int) -> int | None:
        """The earliest round after ``round_number`` whose :meth:`flush`
        can send anything: the next round while control mail is queued
        or an ack is owed; else the round the oldest unacked send comes
        due (``last_sent + RETRANSMIT_AFTER``, or the next round if the
        slot caps held it back); else None.  Until then a flush sends
        nothing, and acks that arrive meanwhile only move the answer
        later."""
        return self.table.wake_round(self._row, round_number)

    @property
    def stats(self) -> ChannelStats:
        table, lo, hi = self.table, self._lo, self._hi
        return ChannelStats(
            int(table.retransmissions[lo:hi].sum()),
            int(table.acks_sent[lo:hi].sum()),
            int(table.duplicates[lo:hi].sum()),
        )

    @property
    def unacked_count(self) -> int:
        return int(self.table.unacked[self._lo:self._hi].sum())

    @property
    def queued_count(self) -> int:
        return int(self.table.queued[self._lo:self._hi].sum())

    @property
    def drained(self) -> bool:
        """True when nothing is queued, in flight, or owed an ack."""
        return bool(self.table.drained_nodes()[self._row])


class AckRows:
    """Fast-path driver that carries the shared table's acks as bulk
    rows.

    The table (built with ``ack_rows``) keeps the acks its flushes and
    settles owe; this driver registers to end each round after every
    other driver and ships them, in send order, as one push.  Arriving
    rows go through :meth:`LinkTable.apply_acks` in
    :meth:`receive_rows`, before any node or driver runs, so no node is
    stepped for an ack and the receiver's phase does not matter.  The
    table's slots are the ids of ``edges``, the run's
    :class:`~repro.congest.node.EdgeIndex`: a row on edge ``u -> v``
    acks the slot of its reverse, ``v -> u``.

    An ack only confirms: applied before the round's handlers instead
    of inside them, it leaves every later decision the same, and
    applying a duplicated row once equals applying it twice.  Fault
    fates hash per edge and kind, and an edge carries at most one ack
    per round, so rows and messages draw the same fates.

    Right after the node pass the driver also runs the flushes the
    round's node handlers asked for (:meth:`LinkTable.flush_pending`)
    and pushes their sends as control messages.
    """

    claimed_kinds = frozenset({KIND_ACK})

    def __init__(self, table: LinkTable, edges: "EdgeIndex") -> None:
        self.table = table
        self._edges = edges

    def receive_rows(self, round_number: int, claimed: dict) -> None:
        """Apply this round's arriving ack rows."""
        ids, fields, _ = claimed[KIND_ACK]
        self.table.apply_acks(
            self._edges.reverse[ids], fields[:, 0], fields[:, 1]
        )

    def after_nodes(self, round_number: int, outbox: "RoundOutbox") -> None:
        """Run and ship the node handlers' flushes of this round."""
        sends = self.table.flush_pending(round_number)
        self.table.ship(sends, outbox, None, ())

    def end_round(
        self,
        round_number: int,
        claimed: dict,
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        self.table._wakes = (-1, {})
        acks = self.table.take_ack_rows()
        if acks is not None:
            slots, cums, bitmaps = acks
            fields = np.column_stack([cums, bitmaps])
            bulk_outbox.push_priced(
                KIND_ACK, slots, message_bits_array(fields), fields
            )


class _Rows:
    """An int64 row store that grows at the end.  A row dies when
    :meth:`kill` sets its first column (the slot) to ``dead``; once dead
    rows outnumber live ones they are dropped, keeping the order of the
    rest, so scans cost what is live."""

    def __init__(self, width: int, dead: int) -> None:
        self._data = np.zeros((16, width), dtype=np.int64)
        self._size = self._live = 0
        self._dead = dead

    def rows(self) -> np.ndarray:
        """The used rows, dead ones included (a view)."""
        return self._data[:self._size]

    def append(self, count: int) -> np.ndarray:
        """``count`` new rows at the end (a view)."""
        size = self._size
        if size + count > len(self._data):
            grown = np.zeros(
                (2 * (size + count), self._data.shape[1]), dtype=np.int64
            )
            grown[:size] = self._data[:size]
            self._data = grown
        self._size += count
        self._live += count
        return self._data[size:self._size]

    def kill(self, rows: np.ndarray) -> None:
        """Mark ``rows`` dead.  Invalidates row indices taken before."""
        data = self._data
        data[rows, 0] = self._dead
        self._live -= len(rows)
        if 2 * self._live < self._size - 16:
            live = data[:self._size][data[:self._size, 0] != self._dead]
            self._size = len(live)
            data[:self._size] = live


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each element's count of equal keys before it in the array."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    positions = np.arange(len(keys))
    ranks = np.empty(len(keys), dtype=np.int64)
    firsts = np.maximum.accumulate(np.where(starts, positions, 0))
    ranks[order] = positions - firsts
    return ranks


def _slot_seq(rows: np.ndarray) -> np.ndarray:
    """Sent-store rows' (slot, seq) order as one sort key."""
    return (rows[:, _SLOT] << 32) | rows[:, _SEQ]
