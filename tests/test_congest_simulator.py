"""Tests for the scheduler, transport enforcement, and metrics."""

import numpy as np
import pytest

from repro.congest.errors import (
    ConfigError,
    CongestViolation,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.message import Message
from repro.congest.node import NodeProgram, VectorizedProgram
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
        with pytest.raises(CongestViolation):
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


class TestLabelsOutsideZeroToN:
    """``Simulator`` takes any int labels.  On the path 3 - 0 - 1 the
    code ``sender * n + receiver`` gives edges ``0 -> 3`` and ``1 -> 0``
    the same value, 3; the per-edge loads must still keep them apart."""

    GRAPH = Graph(edges=[(3, 0), (0, 1)])

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_each_edge_counts_its_own_messages(self, vectorized):
        result = Simulator(
            self.GRAPH, VectorizedPing, vectorized=vectorized
        ).run()
        assert result.fast_path == vectorized
        assert result.metrics.total_messages == 4
        assert result.metrics.max_messages_per_edge_round == 1

    def test_bulk_budget_check_names_the_loaded_edge(self):
        outbox = BulkOutbox(BandwidthPolicy(n=3, messages_per_edge=1))
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
