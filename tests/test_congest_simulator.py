"""Tests for the scheduler, transport enforcement, and metrics."""

from collections import Counter

import numpy as np
import pytest

from repro.congest.errors import (
    ConfigError,
    CongestViolation,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.message import Message
from repro.congest.faults import FaultPlan
from repro.congest.node import EdgeIndex, NodeProgram, VectorizedProgram
from repro.congest.scheduler import Simulator, run_program
from repro.congest.transport import BandwidthPolicy, BulkOutbox
from repro.core.protocol import ProtocolConfig, RWBCNodeProgram
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.graph import Graph


class Idle(NodeProgram):
    """Halts immediately without sending anything."""

    def on_start(self, ctx):
        self.halt()

    def on_round(self, ctx, inbox):
        self.halt()


class PingOnce(NodeProgram):
    """Everyone pings all neighbors once, then counts replies."""

    def __init__(self, info, rng):
        super().__init__(info, rng)
        self.received = 0

    def on_start(self, ctx):
        ctx.broadcast("ping", self.node_id)

    def on_round(self, ctx, inbox):
        self.received += sum(1 for m in inbox if m.kind == "ping")
        self.halt()


class Chatterbox(NodeProgram):
    """Sends more messages per edge than the policy allows."""

    def on_start(self, ctx):
        for neighbor in self.neighbors:
            for _ in range(100):
                ctx.send(neighbor, "spam")

    def on_round(self, ctx, inbox):
        self.halt()


class WideMessage(NodeProgram):
    """Sends one gigantic message."""

    def on_start(self, ctx):
        for neighbor in self.neighbors:
            ctx.send(neighbor, "wide", 2 ** 4096)
            break

    def on_round(self, ctx, inbox):
        self.halt()


class NonNeighborSender(NodeProgram):
    def on_start(self, ctx):
        ctx.send(self.node_id + 1000, "oops")

    def on_round(self, ctx, inbox):
        self.halt()


class NeverHalts(NodeProgram):
    def on_round(self, ctx, inbox):
        pass


class TestSimulatorBasics:
    def test_idle_run_terminates_fast(self):
        result = run_program(path_graph(5), Idle)
        assert result.metrics.rounds == 0

    def test_ping_counts_degree(self):
        graph = star_graph(6)
        result = run_program(graph, PingOnce)
        assert result.program(0).received == 5
        for leaf in range(1, 6):
            assert result.program(leaf).received == 1

    def test_ping_metrics(self):
        graph = cycle_graph(4)
        result = run_program(graph, PingOnce)
        # 4 nodes x 2 neighbors = 8 messages, all delivered in round 1.
        assert result.metrics.total_messages == 8
        assert result.metrics.rounds == 1
        assert result.metrics.max_messages_per_edge_round == 1

    def test_message_log_recording(self):
        result = run_program(path_graph(3), PingOnce, record_messages=True)
        assert len(result.message_log) == 1
        assert len(result.message_log[0]) == 4

    def test_no_log_by_default(self):
        result = run_program(path_graph(3), PingOnce)
        assert result.message_log == []

    def test_reproducible_with_seed(self):
        class RandomReporter(NodeProgram):
            def __init__(self, info, rng):
                super().__init__(info, rng)
                self.value = int(rng.integers(1_000_000))

            def on_round(self, ctx, inbox):
                self.halt()

            def on_start(self, ctx):
                self.halt()

        a = run_program(path_graph(4), RandomReporter, seed=42)
        b = run_program(path_graph(4), RandomReporter, seed=42)
        c = run_program(path_graph(4), RandomReporter, seed=43)
        values_a = [a.program(i).value for i in range(4)]
        values_b = [b.program(i).value for i in range(4)]
        values_c = [c.program(i).value for i in range(4)]
        assert values_a == values_b
        assert values_a != values_c


class TestEnforcement:
    def test_congestion_violation(self):
        """Control mail over an edge's budget fails when the round
        closes, naming the edge of the first overloaded message."""
        with pytest.raises(
            CongestViolation,
            match=r"edge \(0 -> 1\) carries 100 messages this round "
            r"\(limit 4\)",
        ):
            run_program(path_graph(3), Chatterbox)

    def test_message_width_violation(self):
        with pytest.raises(CongestViolation):
            run_program(path_graph(3), WideMessage)

    def test_non_neighbor_send(self):
        with pytest.raises(ProtocolError):
            run_program(path_graph(3), NonNeighborSender)

    def test_round_limit(self):
        with pytest.raises(RoundLimitExceeded):
            run_program(path_graph(3), NeverHalts, max_rounds=10)

    def test_unclaimed_bulk_kind(self):
        # Bulk rows go driver to driver: a kind that no driver claims
        # has no one to receive it, and must not slip into node inboxes.
        class OrphanDriver:
            claimed_kinds = frozenset()

            def end_round(self, round_number, claimed, outbox, bulk_outbox):
                if round_number == 1:
                    bulk_outbox.push_rows(
                        "orphan", np.array([0]), np.array([1]),
                        np.zeros((1, 1), dtype=np.int64),
                    )

        class WithOrphanDriver(RWBCNodeProgram):
            def on_start(self, ctx):
                super().on_start(ctx)
                if self.node_id == 0:
                    ctx.shared.register_driver(OrphanDriver())

        config = ProtocolConfig(length=4, walks_per_source=2)
        simulator = Simulator(
            path_graph(4),
            lambda info, rng: WithOrphanDriver(info, rng, config),
            seed=1,
            vectorized=True,
        )
        with pytest.raises(ProtocolError, match="'orphan'.*round 2"):
            simulator.run()

    def test_rejects_empty_graph(self):
        with pytest.raises(ConfigError):
            Simulator(Graph(), Idle)

    def test_rejects_disconnected(self):
        with pytest.raises(ConfigError):
            Simulator(Graph(edges=[(0, 1), (2, 3)]), Idle)

    def test_allows_disconnected_when_asked(self):
        result = Simulator(
            Graph(edges=[(0, 1), (2, 3)]), Idle, require_connected=False
        ).run()
        assert result.metrics.rounds == 0

    def test_rejects_non_int_labels(self):
        with pytest.raises(ConfigError):
            Simulator(Graph(edges=[("a", "b")]), Idle)


class TestHaltSemantics:
    def test_mail_unhalts_node(self):
        class LateReplier(NodeProgram):
            def __init__(self, info, rng):
                super().__init__(info, rng)
                self.got_poke = False

            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(self.neighbors[0], "poke")
                self.halt()

            def on_round(self, ctx, inbox):
                if any(m.kind == "poke" for m in inbox):
                    self.got_poke = True
                self.halt()

        result = run_program(path_graph(2), LateReplier)
        assert result.program(1).got_poke


class TestBandwidthPolicy:
    def test_bits_budget_scales_with_n(self):
        small = BandwidthPolicy(n=16)
        large = BandwidthPolicy(n=2 ** 20)
        assert large.bits_per_message > small.bits_per_message

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            BandwidthPolicy(n=0)
        with pytest.raises(ConfigError):
            BandwidthPolicy(n=4, log_factor=0)
        with pytest.raises(ConfigError):
            BandwidthPolicy(n=4, messages_per_edge=0)


class TestMetrics:
    def test_bits_crossing_cut(self):
        from repro.congest.metrics import RunMetrics

        metrics = RunMetrics()
        log = [
            [Message(0, 1, "a"), Message(2, 3, "a")],
            [Message(1, 0, "a")],
        ]
        cut_bits = metrics.bits_crossing_cut(log, cut_nodes={0})
        expected = Message(0, 1, "a").bits * 2
        assert cut_bits == expected

    def test_summary_keys(self):
        result = run_program(path_graph(3), PingOnce)
        summary = result.metrics.summary()
        assert summary["total_messages"] == 4
        assert summary["rounds"] == 1


class VectorizedPing(PingOnce, VectorizedProgram):
    """:class:`PingOnce`, runnable on the fast path."""


class Chatter(VectorizedProgram):
    """Sends a ``ping`` and a ``pong`` down every edge each round until
    round :attr:`ROUNDS`, then halts; counts what it receives."""

    ROUNDS = 12

    def __init__(self, info, rng):
        super().__init__(info, rng)
        self.received = 0

    def on_start(self, ctx):
        self._send(ctx)

    def on_round(self, ctx, inbox):
        self.received += len(inbox)
        if ctx.round_number < self.ROUNDS:
            self._send(ctx)
        else:
            self.halt()

    def _send(self, ctx):
        for neighbor in self.neighbors:
            ctx.send(neighbor, "ping", ctx.round_number)
            ctx.send(neighbor, "pong", self.node_id, ctx.round_number)


class TestLabelsOutsideZeroToN:
    """``Simulator`` takes any int labels.  On the path 3 - 0 - 1 the
    code ``sender * n + receiver`` would give edges ``0 -> 3`` and
    ``1 -> 0`` the same value, 3; the run's edge ids keep them apart,
    in the per-edge loads and in the fault fates alike."""

    GRAPH = Graph(edges=[(3, 0), (0, 1)])
    EDGES = EdgeIndex(
        (0, 1, 3), [np.array([1, 3]), np.array([0]), np.array([0])]
    )

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_each_edge_counts_its_own_messages(self, vectorized):
        result = Simulator(
            self.GRAPH, VectorizedPing, vectorized=vectorized
        ).run()
        assert result.fast_path == vectorized
        assert result.metrics.total_messages == 4
        assert result.metrics.max_messages_per_edge_round == 1

    def test_both_loops_agree_under_faults(self):
        """Drops, duplicates and delays on both dispatch modes: the
        same metrics and fault counters, and per-edge maxima that a
        recount of the per-message run's log confirms."""
        plan = FaultPlan(
            seed=11, drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2,
            max_delay=2,
        )
        runs = [
            Simulator(
                self.GRAPH, Chatter, seed=1, faults=plan,
                vectorized=vectorized, record_messages=not vectorized,
            ).run()
            for vectorized in (False, True)
        ]
        slow, fast = runs
        assert fast.fast_path and not slow.fast_path
        assert slow.metrics.summary() == fast.metrics.summary()
        assert slow.metrics.faults == fast.metrics.faults
        assert all(slow.metrics.faults[name] for name in (
            "dropped", "duplicated", "delayed",
        ))
        assert {v: p.received for v, p in slow.programs.items()} == {
            v: p.received for v, p in fast.programs.items()
        }
        edge_messages = edge_bits = 0
        for delivered in slow.message_log:
            messages, bits = Counter(), Counter()
            for message in delivered:
                messages[message.sender, message.receiver] += 1
                bits[message.sender, message.receiver] += message.bits
            edge_messages = max([edge_messages, *messages.values()])
            edge_bits = max([edge_bits, *bits.values()])
        assert edge_messages > 2  # a duplicate or a delay piled up
        assert slow.metrics.max_messages_per_edge_round == edge_messages
        assert slow.metrics.max_bits_per_edge_round == edge_bits

    def test_bulk_budget_check_names_the_loaded_edge(self):
        outbox = BulkOutbox(
            BandwidthPolicy(n=3, messages_per_edge=1), self.EDGES
        )
        fields = np.ones((2, 1), dtype=np.int64)
        outbox.push_rows("x", np.array([0, 1]), np.array([3, 0]), fields)
        outbox.drain(3, [])
        outbox.push_rows(
            "x",
            np.array([0, 3]),
            np.array([3, 0]),
            fields,
            multiplicity=np.array([1, 2]),
        )
        with pytest.raises(
            CongestViolation, match=r"edge \(3 -> 0\) carries 2 messages"
        ):
            outbox.drain(3, [])
