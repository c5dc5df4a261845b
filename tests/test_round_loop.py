"""The scheduler's one round loop in per-message dispatch mode.

Both dispatch modes fold the merged ``RoundTraffic`` of each round into
:class:`RunMetrics`, so comparing the modes' metrics no longer checks
the accounting against anything independent.  These tests recompute
every round's numbers from the materialized message log instead, and
pin the per-message mode's stepping rule: every live node, every round.
"""

import pytest

from repro.congest.errors import RoundLimitExceeded
from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.node import VectorizedProgram
from repro.congest.primitives.bfs import make_bfs_factory
from repro.congest.scheduler import Simulator
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
)


def _recount(message_log):
    """Per-round totals and run-wide maxima, from the messages alone."""
    messages_per_round = []
    bits_per_round = []
    max_edge_messages = 0
    max_edge_bits = 0
    max_message_bits = 0
    for delivered in message_log:
        edge_messages: dict[tuple[int, int], int] = {}
        edge_bits: dict[tuple[int, int], int] = {}
        for message in delivered:
            edge = (message.sender, message.receiver)
            edge_messages[edge] = edge_messages.get(edge, 0) + 1
            edge_bits[edge] = edge_bits.get(edge, 0) + message.bits
            max_message_bits = max(max_message_bits, message.bits)
        messages_per_round.append(len(delivered))
        bits_per_round.append(sum(m.bits for m in delivered))
        max_edge_messages = max([max_edge_messages, *edge_messages.values()])
        max_edge_bits = max([max_edge_bits, *edge_bits.values()])
    return {
        "rounds": len(message_log),
        "messages_per_round": messages_per_round,
        "bits_per_round": bits_per_round,
        "total_messages": sum(messages_per_round),
        "total_bits": sum(bits_per_round),
        "max_messages_per_edge_round": max_edge_messages,
        "max_bits_per_edge_round": max_edge_bits,
        "max_message_bits": max_message_bits,
    }


def _assert_metrics_match_log(metrics, message_log):
    expected = _recount(message_log)
    assert expected["total_messages"] > 0
    for name, value in expected.items():
        assert getattr(metrics, name) == value, name


class TestAccountingAgainstTheLog:
    def test_plain_rwbc(self):
        graph = cycle_graph(8)
        result = estimate_rwbc_distributed(
            graph,
            WalkParameters(length=12, walks_per_source=3),
            seed=5,
            record_messages=True,
        )
        assert result.fallback_reasons
        _assert_metrics_match_log(result.metrics, result.message_log)

    def test_reliable_rwbc_under_drops_duplicates_and_delays(self):
        graph = erdos_renyi_graph(10, 0.4, seed=2, ensure_connected=True)
        plan = FaultPlan(
            drop_rate=0.1, duplicate_rate=0.05, delay_rate=0.05, seed=7
        )
        result = estimate_rwbc_distributed(
            graph,
            WalkParameters(length=10, walks_per_source=2),
            seed=3,
            faults=plan,
            record_messages=True,
        )
        faults = result.metrics.faults
        assert faults["dropped"] and faults["duplicated"] and faults["delayed"]
        _assert_metrics_match_log(result.metrics, result.message_log)

    def test_bfs_under_drops(self):
        graph = erdos_renyi_graph(20, 0.25, seed=3, ensure_connected=True)
        result = Simulator(
            graph,
            make_bfs_factory(0),
            seed=3,
            faults=FaultPlan.from_drop_rate(0.3, seed=3 ^ 0xD509),
            record_messages=True,
        ).run()
        assert result.metrics.faults["dropped"] > 0
        _assert_metrics_match_log(result.metrics, result.message_log)


class Sleeper(VectorizedProgram):
    """Claims to be idle and never asks for a wake, so the fast path
    would step it only for mail; it records every round it runs.

    Node 0 pokes node 1 in round 6 and halts; node 1 halts in round 3;
    node 2 halts in round 5."""

    HALT_AT = {0: 6, 1: 3, 2: 5}

    def __init__(self, info, rng):
        super().__init__(info, rng)
        self.stepped: list[int] = []

    @property
    def bulk_idle(self) -> bool:
        return True

    def next_wake(self, round_number):
        return None

    def on_round(self, ctx, inbox):
        self.stepped.append(ctx.round_number)
        if self.node_id == 0 and ctx.round_number == 6:
            ctx.send(1, "poke")
        if ctx.round_number >= self.HALT_AT[self.node_id]:
            self.halt()


class TestPerMessageStepping:
    def test_every_live_node_is_stepped_every_round(self):
        result = Simulator(
            path_graph(3),
            Sleeper,
            seed=0,
            vectorized=False,
            faults=FaultPlan(crashes=(CrashWindow(2, 2, 4),)),
        ).run()
        assert not result.fast_path
        assert result.fallback_reasons == ("vectorized=False requested",)
        stepped = {v: result.program(v).stepped for v in range(3)}
        # One on_round per round until the halt; node 1 halted in round
        # 3 and the poke delivered in round 7 un-halts it once more.
        assert stepped[0] == [1, 2, 3, 4, 5, 6]
        assert stepped[1] == [1, 2, 3, 7]
        # The crash window [2, 4) skips exactly rounds 2 and 3.
        assert stepped[2] == [1, 4, 5]
        assert result.metrics.rounds == 7
        assert result.metrics.faults["crash_node_rounds"] == 2
        assert all(result.program(v).halted for v in range(3))

    def test_the_fast_path_skips_the_same_program(self):
        # The contrast: under the fast path an idle node without mail
        # is never stepped, so nobody halts and the run hits its limit.
        with pytest.raises(RoundLimitExceeded):
            Simulator(path_graph(3), Sleeper, seed=0, max_rounds=20).run()
