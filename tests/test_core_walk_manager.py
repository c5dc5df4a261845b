"""Unit tests for the per-node walk manager and termination logic."""

import numpy as np
import pytest

from repro.congest.errors import ProtocolError
from repro.congest.node import RoundContext
from repro.congest.transport import BandwidthPolicy, RoundOutbox
from repro.core.termination import DeathCounterLogic
from repro.core.walk_manager import TransportPolicy, WalkManager


def make_ctx(node_id, neighbors, policy=None, round_number=1):
    outbox = RoundOutbox(policy or BandwidthPolicy(n=16, messages_per_edge=100))
    ctx = RoundContext(node_id, tuple(neighbors), outbox, round_number)
    return ctx, outbox


def make_manager(**overrides):
    defaults = dict(
        node_id=0,
        neighbors=(1, 2),
        n=4,
        target=3,
        walks_per_source=5,
        length=10,
        rng=np.random.default_rng(0),
        policy=TransportPolicy.QUEUE,
        walk_budget=2,
    )
    defaults.update(overrides)
    return WalkManager(**defaults)


class TestLaunch:
    def test_launch_counts_initial_visit(self):
        manager = make_manager()
        manager.launch()
        assert manager.counts[0] == 5
        assert manager.held_walks == 5

    def test_launch_without_initial_count(self):
        manager = make_manager(count_initial=False)
        manager.launch()
        assert manager.counts[0] == 0
        assert manager.held_walks == 5

    def test_target_launches_nothing(self):
        manager = make_manager(node_id=3, neighbors=(0,))
        manager.launch()
        assert manager.held_walks == 0
        assert manager.counts.sum() == 0


class TestReceive:
    def test_visit_counted_and_requeued(self):
        manager = make_manager()
        manager.receive(source=2, remaining=5)
        assert manager.counts[2] == 1
        assert manager.held_walks == 1
        assert manager.deaths == 0

    def test_expiry(self):
        manager = make_manager()
        manager.receive(source=2, remaining=0)
        assert manager.counts[2] == 1
        assert manager.held_walks == 0
        assert manager.deaths == 1

    def test_absorption_not_counted(self):
        manager = make_manager(node_id=3, neighbors=(0,))
        manager.receive(source=1, remaining=7)
        assert manager.counts.sum() == 0
        assert manager.deaths == 1
        assert manager.held_walks == 0

    def test_dead_tokens_consume_no_randomness(self):
        manager = make_manager(rng=np.random.default_rng(3))
        manager.receive(source=2, remaining=0, count=4)  # all expire
        absorbing = make_manager(
            node_id=3, neighbors=(0,), rng=np.random.default_rng(3)
        )
        absorbing.receive(source=1, remaining=7, count=4)  # all absorbed
        fresh = np.random.default_rng(3).integers(0, 1 << 30)
        assert manager.rng.integers(0, 1 << 30) == fresh
        assert absorbing.rng.integers(0, 1 << 30) == fresh

    def test_bulk_receive(self):
        manager = make_manager()
        manager.receive(source=1, remaining=4, count=10)
        assert manager.counts[1] == 10
        assert manager.held_walks == 10

    def test_bad_count(self):
        with pytest.raises(ProtocolError):
            make_manager().receive(source=1, remaining=4, count=0)


class TestSending:
    def test_queue_respects_budget(self):
        manager = make_manager(walk_budget=2)
        manager.launch()  # 5 tokens over 2 edges
        ctx, outbox = make_ctx(0, (1, 2))
        sent = manager.send_round(ctx)
        assert sent <= 4  # 2 per edge
        assert sent + manager.held_walks == 5

    def test_queue_drains_over_rounds(self):
        manager = make_manager(walk_budget=1)
        manager.launch()
        total_sent = 0
        for _ in range(10):
            ctx, outbox = make_ctx(0, (1, 2))
            total_sent += manager.send_round(ctx)
            if manager.idle:
                break
        assert total_sent == 5
        assert manager.idle

    def test_sent_token_decrements_remaining(self):
        manager = make_manager(walks_per_source=1, length=10, walk_budget=5)
        manager.launch()
        ctx, outbox = make_ctx(0, (1, 2))
        manager.send_round(ctx)
        (message,) = outbox.drain()
        source, remaining, half = message.fields
        assert source == 0
        assert remaining == 9
        assert half == 0

    def test_batch_coalesces(self):
        manager = make_manager(policy=TransportPolicy.BATCH, walk_budget=1)
        manager.launch()  # 5 identical (source=0, remaining=10) tokens
        ctx, outbox = make_ctx(0, (1, 2))
        sent = manager.send_round(ctx)
        messages = outbox.drain()
        # At most one batch message per edge.
        assert sent == len(messages) <= 2
        total = sum(m.fields[3] for m in messages)
        assert total == 5
        assert manager.held_walks == 0

    def test_batch_separates_different_tokens(self):
        manager = make_manager(
            policy=TransportPolicy.BATCH, walk_budget=10, neighbors=(1,)
        )
        manager.receive(source=1, remaining=4, count=3)
        manager.receive(source=2, remaining=4, count=2)
        ctx, outbox = make_ctx(0, (1,))
        manager.send_round(ctx)
        messages = outbox.drain()
        by_source = {m.fields[0]: m.fields[3] for m in messages}
        assert by_source == {1: 3, 2: 2}

    def test_uniform_next_hop_distribution(self):
        """Chi-square sanity: hops split evenly across neighbors."""
        manager = make_manager(
            neighbors=(1, 2, 5), n=8, target=7, walks_per_source=3000,
            length=10, walk_budget=10**9,
        )
        manager.launch()
        ctx, outbox = make_ctx(
            0,
            (1, 2, 5),
            policy=BandwidthPolicy(n=16, messages_per_edge=10**9),
        )
        manager.send_round(ctx)
        destinations = [m.receiver for m in outbox.drain()]
        counts = {d: destinations.count(d) for d in (1, 2, 5)}
        for count in counts.values():
            assert abs(count - 1000) < 150


class TestDeathCounter:
    def test_leaf_reports_once_per_change(self):
        counter = DeathCounterLogic(1, parent=0, children=(), expected_total=10)
        ctx, outbox = make_ctx(1, (0,))
        counter.maybe_report(ctx)  # initial 0 is a change from -1
        counter.maybe_report(ctx)  # no change: silent
        assert len(outbox.drain()) == 1
        counter.record_deaths(3)
        counter.maybe_report(ctx)
        (message,) = outbox.drain()
        assert message.fields == (3,)

    def test_root_detection(self):
        counter = DeathCounterLogic(0, parent=None, children=(1, 2), expected_total=10)
        counter.record_deaths(2)
        counter.receive_report(1, 5)
        assert not counter.root_detects_completion
        counter.receive_report(2, 3)
        assert counter.root_detects_completion

    def test_monotone_child_reports(self):
        counter = DeathCounterLogic(0, parent=None, children=(1,), expected_total=5)
        counter.receive_report(1, 4)
        counter.receive_report(1, 2)  # stale, ignored
        assert counter.subtree_total == 4

    def test_non_child_report_rejected(self):
        counter = DeathCounterLogic(0, parent=None, children=(1,), expected_total=5)
        with pytest.raises(ProtocolError):
            counter.receive_report(9, 1)

    def test_stopped_counter_is_silent(self):
        counter = DeathCounterLogic(1, parent=0, children=(), expected_total=5)
        counter.record_deaths(5)
        counter.stop()
        ctx, outbox = make_ctx(1, (0,))
        counter.maybe_report(ctx)
        assert len(outbox.drain()) == 0

    def test_negative_deaths_rejected(self):
        counter = DeathCounterLogic(0, None, (), 5)
        with pytest.raises(ProtocolError):
            counter.record_deaths(-1)


class TestWalkConservation:
    """Property: walks are never created or destroyed by the manager except
    by absorption/expiry."""

    def test_conservation_over_rounds(self):
        rng = np.random.default_rng(42)
        manager = make_manager(
            walks_per_source=50, length=3, walk_budget=1, rng=rng
        )
        manager.launch()
        for _ in range(300):
            ctx, outbox = make_ctx(0, (1, 2))
            manager.send_round(ctx)
            sent = outbox.drain()
            # Bounce every sent token straight back (a 2-node ping-pong).
            for message in sent:
                source, remaining, half = message.fields
                manager.receive(source, remaining, half=half)
            total = manager.held_walks + manager.deaths
            assert total == 50
            if manager.held_walks == 0:
                break
        assert manager.deaths == 50
