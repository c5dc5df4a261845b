"""Unit tests for the per-edge ARQ layer (congest.reliable)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.congest.node import EdgeIndex
from repro.congest.reliable import (
    ACK_WINDOW,
    KIND_ACK,
    RETRANSMIT_AFTER,
    InLink,
    LinkTable,
    OutLink,
    ReliableChannel,
)
from repro.obs.instruments import InstrumentSet

TOKENS = frozenset({"walk"})
LATEST = frozenset({"term"})


def sink(channel, wire):
    """A flush sink recording each send as a :class:`Message`."""

    def send(receiver, kind, fields):
        wire.append(Message(channel.node_id, receiver, kind, fields))

    return send


def register(channel, neighbor, kind, rows, round_number):
    """Sequence fresh walk rows on one edge, as the walk layer does;
    returns the first seq."""
    slot = channel.first_slot + channel.neighbors.index(neighbor)
    seqs = channel.table.register_rows(
        np.full(len(rows), slot), kind, np.array(rows), round_number
    )
    return int(seqs[0])


def make_channel(
    node_id=0, neighbors=(1,), token_budget=2, instruments=None
):
    return ReliableChannel(
        node_id=node_id,
        neighbors=neighbors,
        token_budget=token_budget,
        token_kinds=TOKENS,
        latest_kinds=LATEST,
        instruments=instruments,
    )


class TestOutLink:
    def test_assign_is_sequential(self):
        link = OutLink()
        assert [link.assign("walk", (i,), 0) for i in range(4)] == [0, 1, 2, 3]
        assert set(link.unacked) == {0, 1, 2, 3}

    def test_cumulative_ack(self):
        link = OutLink()
        for i in range(5):
            link.assign("walk", (i,), 0)
        assert link.apply_ack(2, 0) == [0, 1, 2]
        assert set(link.unacked) == {3, 4}

    def test_selective_ack_bitmap(self):
        link = OutLink()
        for i in range(6):
            link.assign("walk", (i,), 0)
        # cum=1 plus bits for seqs 3 and 5 (offsets 1 and 3).
        assert link.apply_ack(1, 0b1010) == [0, 1, 3, 5]
        assert set(link.unacked) == {2, 4}

    def test_due_after_timeout(self):
        """The synchronous loops keep the sender half in a table: a send
        is due again ``RETRANSMIT_AFTER`` rounds after its last copy."""
        a = make_channel()
        register(a, 1, "walk", [(0, 9, 0)], round_number=1)
        wire: list[Message] = []
        a.flush(1 + RETRANSMIT_AFTER - 1, sink(a, wire))
        assert wire == []
        a.flush(1 + RETRANSMIT_AFTER, sink(a, wire))
        assert [m.fields for m in wire] == [(0, 9, 0, 0)]
        a.flush(1 + 2 * RETRANSMIT_AFTER - 1, sink(a, wire))
        assert len(wire) == 1
        a.flush(1 + 2 * RETRANSMIT_AFTER, sink(a, wire))
        assert len(wire) == 2


class TestInLink:
    def test_in_order_delivery(self):
        link = InLink()
        assert link.accept(0)
        assert link.accept(1)
        assert link.cum == 1
        assert link.ack_fields() == (1, 0)

    def test_duplicate_rejected(self):
        link = InLink()
        assert link.accept(0)
        assert not link.accept(0)
        link.accept(2)
        assert not link.accept(2)

    def test_gap_tracked_in_bitmap(self):
        link = InLink()
        link.accept(0)
        link.accept(2)
        link.accept(3)
        cum, bitmap = link.ack_fields()
        assert cum == 0
        assert bitmap == 0b110  # seqs 2 and 3 at offsets 1 and 2
        link.accept(1)  # hole fills; cum jumps past the stashed seqs
        assert link.ack_fields() == (3, 0)

    def test_bitmap_width_bounded(self):
        link = InLink()
        link.accept(ACK_WINDOW + 5)  # far beyond the window
        cum, bitmap = link.ack_fields()
        assert cum == -1
        assert bitmap < (1 << ACK_WINDOW)


class TestReliableChannel:
    def test_round_trip_exactly_once(self):
        a = make_channel(node_id=0, neighbors=(1,))
        b = make_channel(node_id=1, neighbors=(0,))
        a.queue(1, "deg", (3,))
        wire: list[Message] = []
        a.flush(1, sink(a, wire))
        (message,) = wire
        assert message.kind == "deg"
        assert message.fields == (3, 0)  # payload + seq

        assert b.receive([message]) == [(message, (3,))]
        assert b.receive([message]) == []  # duplicate of the same seq
        assert b.stats.duplicates_rejected == 1

        wire.clear()
        b.flush(1, sink(b, wire))
        (ack,) = wire
        assert ack.kind == KIND_ACK
        assert a.unacked_count == 1
        assert a.receive([ack]) == []
        assert a.unacked_count == 0
        wire.clear()
        a.flush(2, sink(a, wire))
        assert wire == []  # nothing due, nothing queued, no ack owed
        assert a.drained

    def test_retransmits_until_acked(self):
        a = make_channel(node_id=0, neighbors=(1,))
        a.queue(1, "deg", (3,))
        wire: list[Message] = []
        a.flush(1, sink(a, wire))  # original send, seq 0
        for round_number in range(2, 2 + 3 * RETRANSMIT_AFTER):
            a.flush(round_number, sink(a, wire))
        retransmits = [m for m in wire if m.fields == (3, 0)]
        assert len(retransmits) == 1 + 3  # original + one per timeout
        assert a.stats.retransmissions == 3

    def test_flush_respects_slot_caps(self):
        a = make_channel(node_id=0, neighbors=(1,), token_budget=2)
        # 5 unacked walk tokens, all due for retransmission.
        for i in range(5):
            assert register(a, 1, "walk", [(i, 9, 0)], round_number=0) == i
        # 4 queued control messages on top.
        for i in range(4):
            a.queue(1, "xch", (i, 0))
        wire: list[Message] = []
        sent_tokens = a.flush(0 + RETRANSMIT_AFTER, sink(a, wire))
        walk = [m for m in wire if m.kind == "walk"]
        control = [m for m in wire if m.kind == "xch"]
        assert len(walk) == 2  # token_budget
        assert len(control) == 2  # control_slots
        assert sent_tokens == {1: 2}
        assert a.queued_count == 2  # the rest wait for later rounds

    def test_queue_latest_supersedes_only_unsequenced(self):
        a = make_channel(node_id=0, neighbors=(1,))
        a.queue(1, "term", (5,), latest=True)
        a.queue(1, "term", (8,), latest=True)
        assert a.queued_count == 1
        wire: list[Message] = []
        a.flush(1, sink(a, wire))
        assert wire[0].fields == (8, 0)  # only the newest value flew
        # Once sequenced, a newer value gets its own seq.
        a.queue(1, "term", (9,), latest=True)
        wire.clear()
        a.flush(2, sink(a, wire))
        assert wire[0].fields == (9, 1)

    def test_shared_seq_space_across_kinds(self):
        a = make_channel(node_id=0, neighbors=(1,))
        first = register(a, 1, "walk", [(1, 2, 3)], 0)
        a.queue(1, "deg", (4,))
        wire: list[Message] = []
        a.flush(0, sink(a, wire))
        assert first == 0
        assert wire[0].fields[-1] == 1  # control continues the edge seq

    def test_rejects_non_neighbor_traffic(self):
        a = make_channel(node_id=0, neighbors=(1,))
        stranger = Message(sender=5, receiver=0, kind="deg", fields=(1, 0))
        with pytest.raises(ProtocolError):
            a.receive([stranger])

    def test_out_of_order_arrivals_both_fresh(self):
        a = make_channel(node_id=0, neighbors=(1,))
        b = make_channel(node_id=1, neighbors=(0,))
        a.queue(1, "deg", (10,))
        a.queue(1, "xch", (20, 0))
        wire: list[Message] = []
        a.flush(1, sink(a, wire))
        second, first = wire[1], wire[0]
        assert b.receive([second]) == [(second, (20, 0))]  # seq 1 first
        assert b.receive([first]) == [(first, (10,))]
        assert (b.table.cum[0], b.table.mask[0]) == (1, 0)


class TestWakeRound:
    """``wake_round``: the earliest round whose flush sends anything."""

    def test_queued_mail_wakes_next_round(self):
        a = make_channel()
        a.queue(1, "deg", (3,))
        assert a.wake_round(7) == 8

    def test_owed_ack_wakes_next_round(self):
        a = make_channel()
        a.receive([Message(1, 0, "deg", (3, 0))])
        assert a.wake_round(7) == 8

    def test_unacked_sends_wake_when_the_oldest_comes_due(self):
        a = make_channel(neighbors=(1, 2))
        register(a, 1, "walk", [(1, 2, 3)], round_number=5)
        register(a, 2, "walk", [(1, 2, 3)], round_number=3)
        assert a.wake_round(5) == 3 + RETRANSMIT_AFTER
        wire: list[Message] = []
        # Flushes before the due round send nothing.
        for round_number in range(6, 3 + RETRANSMIT_AFTER):
            a.flush(round_number, sink(a, wire))
        assert wire == []
        a.flush(3 + RETRANSMIT_AFTER, sink(a, wire))
        assert [m.receiver for m in wire] == [2]

    def test_sends_held_back_by_slot_caps_wake_next_round(self):
        a = make_channel(token_budget=1)
        register(a, 1, "walk", [(1, 2, 3), (4, 5, 6)], round_number=0)
        a.flush(RETRANSMIT_AFTER, sink(a, []))  # one slot: seq 1 waits
        assert a.wake_round(RETRANSMIT_AFTER) == RETRANSMIT_AFTER + 1

    def test_idle_channel_never_wakes(self):
        assert make_channel().wake_round(7) is None

    def test_ack_emptying_the_window_stops_the_wake(self):
        a = make_channel()
        a.queue(1, "deg", (3,))
        a.flush(1, sink(a, []))
        assert a.wake_round(1) == 1 + RETRANSMIT_AFTER
        a.receive([Message(1, 0, KIND_ACK, (0, 0))])
        assert a.wake_round(2) is None


class TestApplyAck:
    """``LinkTable.apply_acks``: the one rule for ack messages and ack
    rows."""

    def test_non_neighbor_ack_rejected(self):
        a = make_channel(neighbors=(1,))
        with pytest.raises(ProtocolError):
            a.receive([Message(5, 0, KIND_ACK, (0, 0))])

    def test_same_latencies_as_receive(self):
        observed = []
        for deliver in ("message", "row"):
            instruments = InstrumentSet()
            a = make_channel(instruments=instruments)
            a.queue(1, "deg", (3,))
            a.queue(1, "deg", (4,))
            a.flush(1, sink(a, []))
            a.flush(1 + RETRANSMIT_AFTER, sink(a, []))  # both resent
            a.queue(1, "deg", (5,))
            a.flush(2 + RETRANSMIT_AFTER, sink(a, []))
            if deliver == "message":
                a.receive([Message(1, 0, KIND_ACK, (2, 0))])
            else:
                a.table.apply_acks(np.array([0]), np.array([2]), np.array([0]))
            assert a.unacked_count == 0
            histogram = instruments.hist("recovery_latency_rounds")
            observed.append((histogram.count, list(histogram.buckets)))
        assert observed[0] == observed[1]
        assert observed[0][0] == 3


# ----------------------------------------------------------------------
# The table against the asynchronous executor's scalar pair
# ----------------------------------------------------------------------
@st.composite
def receive_histories(draw):
    """Rounds of ``(edge, seq, copies)`` arrivals on up to 3 edges; seqs
    reach far enough past the window to need the wide-mask path, and
    rounds are long enough for the array path as well as the scalar
    one."""
    edges = draw(st.integers(1, 3))
    arrival = st.tuples(
        st.integers(0, edges - 1), st.integers(0, 90), st.integers(1, 3)
    )
    # Short rounds take the scalar path, long ones the array path.
    round_ = st.one_of(
        st.lists(arrival, max_size=8),
        st.lists(arrival, min_size=17, max_size=40),
    )
    rounds = draw(st.lists(round_, max_size=8))
    return edges, rounds


@st.composite
def ack_histories(draw):
    """Sends per edge on 2 edges, then rounds of ``(edge, cum,
    bitmap)`` acks."""
    sends = draw(st.tuples(st.integers(0, 30), st.integers(0, 30)))
    ack = st.tuples(
        st.integers(0, 1),
        st.integers(-1, 32),
        st.integers(0, (1 << ACK_WINDOW) - 1),
    )
    rounds = draw(st.lists(st.lists(ack, max_size=4), max_size=6))
    return sends, rounds


def receive_table(edges):
    """A one-node table over ``edges`` neighbours."""
    return LinkTable(np.array([0, edges]), np.arange(1, edges + 1), 1, TOKENS)


class TestTableTwins:
    """``LinkTable.accept_rows`` / ``apply_acks`` take a round at once;
    ``InLink.accept`` / ``OutLink.apply_ack`` take one arrival or ack at
    a time.  Run through the same histories they must agree."""

    @given(receive_histories())
    @settings(max_examples=80, deadline=None)
    def test_accept_rows_matches_inlink(self, case):
        edges, rounds = case
        table = receive_table(edges)
        links = [InLink() for _ in range(edges)]
        copies_total = fresh_total = 0
        for arrivals in rounds:
            if not arrivals:
                continue
            slots, seqs, copies = (np.array(c) for c in zip(*arrivals))
            fresh = table.accept_rows(slots, seqs, copies)
            assert fresh.tolist() == [
                links[edge].accept(seq) for edge, seq, _ in arrivals
            ]
            for edge, link in enumerate(links):
                assert table.cum[edge] == link.cum
                assert table.mask[edge] == link.mask & ((1 << 63) - 1)
                assert table.ack_due[edge] == link.ack_due
            copies_total += int(copies.sum())
            fresh_total += int(fresh.sum())
        assert table.duplicates.sum() == copies_total - fresh_total

    @given(ack_histories())
    @settings(max_examples=80, deadline=None)
    def test_apply_acks_matches_outlink(self, case):
        sends, rounds = case
        table = LinkTable(np.array([0, 2]), np.array([1, 2]), 1, TOKENS)
        links = [OutLink(), OutLink()]
        for edge, count in enumerate(sends):
            for seq in range(count):
                links[edge].assign("deg", (seq,), 0)
            if count:
                table.register_rows(
                    np.full(count, edge), "deg", np.arange(count)[:, None], 0
                )
        for acks in rounds:
            if not acks:
                continue
            slots, cums, bitmaps = (np.array(c) for c in zip(*acks))
            table.apply_acks(slots, cums, bitmaps)
            for edge, cum, bitmap in acks:
                links[edge].apply_ack(cum, bitmap)
            for edge, link in enumerate(links):
                rows = table.unacked_rows(edge)
                left = [fields[0] for _, fields, _, _ in rows]
                assert left == sorted(link.unacked)
                assert table.unacked[edge] == len(link.unacked)

    def test_window_wider_than_63_seqs(self):
        """More than 63 out-of-order seqs on one edge: the slot's window
        moves to an exact InLink, and back to the arrays once the hole
        fills."""
        table = receive_table(1)
        link = InLink()
        late = np.arange(80, 0, -1)
        fresh = table.accept_rows(np.zeros(80, dtype=int), late, np.ones(80))
        assert fresh.all()
        assert [link.accept(int(seq)) for seq in late] == [True] * 80
        assert table.cum[0] == link.cum == -1
        assert table.mask[0] == link.mask & ((1 << 63) - 1)
        assert 0 in table._wide
        again = table.accept_rows(
            np.array([0, 0]), np.array([75, 0]), np.ones(2)
        )
        assert again.tolist() == [False, True]
        assert table.cum[0] == 80 and table.mask[0] == 0
        assert not table._wide

    def test_duplicate_rows_then_late_settle(self):
        """Duplicate rows in one round: the first copy is fresh, the
        rest count as duplicates.  A duplicate accepted after its node
        flushed is settled with one ack, and only one per round."""
        table = LinkTable(
            np.array([0, 1, 2]), np.array([1, 0]), 1, TOKENS, ack_rows=True
        )
        seqs = table.register_rows(
            np.array([0]), "walk", np.array([[1, 2, 3]]), 5
        )
        # Node 1's slot for its channel to node 0: the id of edge 1 -> 0.
        edges = EdgeIndex((0, 1), [np.array([1]), np.array([0])])
        slot = edges.ids(np.array([1]), np.array([0]))
        fresh = table.accept_rows(
            np.repeat(slot, 2), np.repeat(seqs, 2), np.array([1, 2])
        )
        assert fresh.tolist() == [True, False]
        assert table.duplicates[slot[0]] == 2
        table.flush(np.array([1]), 6)
        assert table.take_ack_rows()[1].tolist() == [0]
        # A duplicate after the flush: the flush already acked the slot.
        table.accept_rows(slot, seqs, np.array([1]))
        sends = table.settle(slot, 6)
        assert not len(sends) and table.take_ack_rows() is None
        assert not table.ack_due[slot[0]]
        # Node 1 has not flushed in round 7: settling runs its flush.
        table.accept_rows(slot, seqs, np.array([1]))
        table.settle(slot, 7)
        assert table.flushed_round[1] == 7
        assert table.take_ack_rows()[0].tolist() == [slot[0]]
        assert table.acks_sent[slot[0]] == 2
