"""Unit tests for the per-edge ARQ layer (congest.reliable)."""

import pytest

from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.congest.reliable import (
    ACK_WINDOW,
    KIND_ACK,
    RETRANSMIT_AFTER,
    InLink,
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
        link = OutLink()
        link.assign("walk", (0,), round_number=1)
        assert link.due(1 + RETRANSMIT_AFTER - 1) == []
        assert link.due(1 + RETRANSMIT_AFTER) == [0]
        link.touch(0, 10)
        assert link.due(10 + RETRANSMIT_AFTER - 1) == []
        assert link.due(10 + RETRANSMIT_AFTER) == [0]


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

        assert b.receive(message) == (3,)
        assert b.receive(message) is None  # duplicate of the same seq
        assert b.stats.duplicates_rejected == 1

        wire.clear()
        b.flush(1, sink(b, wire))
        (ack,) = wire
        assert ack.kind == KIND_ACK
        assert a.unacked_count == 1
        a.receive(ack)
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
            seq = a.register_block(1, "walk", [(i, 9, 0)], round_number=0)
            assert seq == i
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
        a.queue_latest(1, "term", (5,))
        a.queue_latest(1, "term", (8,))
        assert a.queued_count == 1
        wire: list[Message] = []
        a.flush(1, sink(a, wire))
        assert wire[0].fields == (8, 0)  # only the newest value flew
        # Once sequenced, a newer value gets its own seq.
        a.queue_latest(1, "term", (9,))
        wire.clear()
        a.flush(2, sink(a, wire))
        assert wire[0].fields == (9, 1)

    def test_shared_seq_space_across_kinds(self):
        a = make_channel(node_id=0, neighbors=(1,))
        first = a.register_block(1, "walk", [(1, 2, 3)], 0)
        a.queue(1, "deg", (4,))
        wire: list[Message] = []
        a.flush(0, sink(a, wire))
        assert first == 0
        assert wire[0].fields[-1] == 1  # control continues the edge seq

    def test_rejects_non_neighbor_traffic(self):
        a = make_channel(node_id=0, neighbors=(1,))
        stranger = Message(sender=5, receiver=0, kind="deg", fields=(1, 0))
        with pytest.raises(ProtocolError):
            a.receive(stranger)

    def test_out_of_order_arrivals_both_fresh(self):
        a = make_channel(node_id=0, neighbors=(1,))
        b = make_channel(node_id=1, neighbors=(0,))
        a.queue(1, "deg", (10,))
        a.queue(1, "xch", (20, 0))
        wire: list[Message] = []
        a.flush(1, sink(a, wire))
        second, first = wire[1], wire[0]
        assert b.receive(second) == (20, 0)  # seq 1 lands before seq 0
        assert b.receive(first) == (10,)
        cum, bitmap = b.inn[0].ack_fields()
        assert (cum, bitmap) == (1, 0)


class TestWakeRound:
    """``wake_round``: the earliest round whose flush sends anything."""

    def test_queued_mail_wakes_next_round(self):
        a = make_channel()
        a.queue(1, "deg", (3,))
        assert a.wake_round(7) == 8

    def test_owed_ack_wakes_next_round(self):
        a = make_channel()
        a.accept(1, 0)
        assert a.wake_round(7) == 8

    def test_unacked_sends_wake_when_the_oldest_comes_due(self):
        a = make_channel(neighbors=(1, 2))
        a.register_block(1, "walk", [(1, 2, 3)], round_number=5)
        a.register_block(2, "walk", [(1, 2, 3)], round_number=3)
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
        a.register_block(1, "walk", [(1, 2, 3), (4, 5, 6)], round_number=0)
        a.flush(RETRANSMIT_AFTER, sink(a, []))  # one slot: seq 1 waits
        assert a.wake_round(RETRANSMIT_AFTER) == RETRANSMIT_AFTER + 1

    def test_idle_channel_never_wakes(self):
        assert make_channel().wake_round(7) is None

    def test_ack_emptying_the_window_stops_the_wake(self):
        a = make_channel()
        a.queue(1, "deg", (3,))
        a.flush(1, sink(a, []))
        assert a.wake_round(1) == 1 + RETRANSMIT_AFTER
        a.apply_ack(1, 0, 0)
        assert a.wake_round(2) is None


class TestApplyAck:
    """``apply_ack``: the one rule for ack messages and ack rows."""

    def test_non_neighbor_ack_rejected(self):
        a = make_channel(neighbors=(1,))
        with pytest.raises(ProtocolError):
            a.apply_ack(5, 0, 0)

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
                a.receive(Message(1, 0, KIND_ACK, (2, 0)))
            else:
                a.apply_ack(1, 2, 0)
            assert a.unacked_count == 0
            histogram = instruments.hist("recovery_latency_rounds")
            observed.append((histogram.count, list(histogram.buckets)))
        assert observed[0] == observed[1]
        assert observed[0][0] == 3
