"""Golden pins for the per-message loop's counting phase.

The per-message loop and the vectorized fast path run the same walk
kernel (:func:`~repro.core.walk_engine.counting_round_kernel`) and the
same per-edge queues and budget rule
(:meth:`~repro.core.walk_engine.EdgeQueues.take`), one on a one-node
slice and one network-wide.  The cross-loop equivalence
tests therefore cannot see a kernel change that moves both loops
together.  These pins can: each is a SHA-256 of the run's integer
``(n, 2, n)`` visit counts plus its round, message and bit totals, all
machine-independent integers.
"""

import hashlib

import numpy as np
import pytest

from repro.congest.asynchronous import AsyncSimulator
from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.scheduler import Simulator
from repro.congest.transport import BandwidthPolicy
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.termination import KIND_DONE, KIND_TERM
from repro.core.walk_engine import CountingWalkEngine, TransportPolicy
from repro.graphs.generators import erdos_renyi_graph

GRAPH = erdos_renyi_graph(14, 0.25, seed=3, ensure_connected=True)
BASE = dict(length=24, walks_per_source=6)
SEED = 7

#: mode -> (counts digest, rounds, messages, bits).  A kernel change
#: that moves one changes the protocol's output, so update the pin only
#: on purpose, and only while the cross-loop identity tests pass.  Last
#: re-recorded when the walk streams and leader ranks became per-node
#: counter-based hashes (every draw changed, so every pin moved).
PINS = {
    "queue": (
        "7d767390108f6f822f0569d0a07bd870b4c28059aa83e09858044655d69b69f1",
        72, 1686, 31235,
    ),
    "batch": (
        "11de5051bf160af8a62b7db38c52b8d3f69801e5acee7f17d9ef2754bc2ae264",
        65, 1579, 30708,
    ),
    "damped": (
        "fbe1eea8acdea9a38372ec2543e2c5fa76d1a2b29c69a2486b6dc712bc5de894",
        57, 1321, 23510,
    ),
    "split": (
        "027663b35abec23fdba56f1a541354ccd0ee93e07609694dfbf73f4d22e81c8c",
        72, 1686, 31348,
    ),
    "lossy": (
        "156a245af459d27b96d8f70376300279bdb22792f2d77934fcc68549c4e93450",
        242, 3162, 63937,
    ),
    "lossy-batch": (
        "47d96863c43ce6cc461ffa9daadc585448fc555410bbcd28fa0d99d3f75d7009",
        244, 3033, 62537,
    ),
    "lossy-damped": (
        "5049791623b67230af76dbce990077a8f7c4ef573386b79f734dde5afd7239b3",
        238, 2586, 50497,
    ),
    "async": (
        "7d767390108f6f822f0569d0a07bd870b4c28059aa83e09858044655d69b69f1",
        72, 6704, 133459,
    ),
    "chaos": (
        "349cf8027ee75890cd24e15292571ed9f19effc74850fa644bb16be68e246bdc",
        264, 3503, 71048,
    ),
}

#: Drops, duplicates, delays of up to three rounds and an early crash
#: window: every fate the round loop delivers in its own order.
CHAOS = FaultPlan(
    seed=5,
    drop_rate=0.08,
    duplicate_rate=0.08,
    delay_rate=0.08,
    max_delay=3,
    crashes=(CrashWindow(node=0, start=2, end=8),),
)
#: The chaos run's injected faults, recorded with its pin.
CHAOS_FAULTS = {
    "dropped": 293,
    "duplicated": 232,
    "delayed": 255,
    "crash_dropped": 23,
    "crash_node_rounds": 6,
}


def _run(mode: str, vectorized: bool = False):
    n = GRAPH.num_nodes
    overrides = {
        "queue": {},
        "batch": {"policy": TransportPolicy.BATCH},
        "damped": {"survival_alpha": 0.8},
        "split": {"split_sampling": True},
        "lossy": {},
        "lossy-batch": {"policy": TransportPolicy.BATCH},
        "lossy-damped": {"survival_alpha": 0.8},
        "async": {},
        "chaos": {},
    }[mode]
    config = ProtocolConfig(**BASE, **overrides)
    factory = make_protocol_factory(config)
    if mode == "async":
        result = AsyncSimulator(GRAPH, factory, seed=SEED).run()
    elif mode.startswith("lossy") or mode == "chaos":
        result = Simulator(
            GRAPH,
            factory,
            policy=BandwidthPolicy(
                n=n, messages_per_edge=config.walk_budget + 4
            ),
            seed=SEED,
            faults=(
                CHAOS if mode == "chaos" else FaultPlan(seed=5, drop_rate=0.1)
            ),
            vectorized=vectorized,
        ).run()
    else:
        result = Simulator(GRAPH, factory, seed=SEED, vectorized=False).run()
    return result


def _pin(result) -> tuple[str, int, int, int]:
    n = GRAPH.num_nodes
    counts = np.stack(
        [result.program(node)._walks.half_counts for node in range(n)]
    ).astype("<i8")
    assert counts.shape == (n, 2, n)
    metrics = result.metrics
    return (
        hashlib.sha256(counts.tobytes()).hexdigest(),
        metrics.rounds,
        metrics.total_messages,
        metrics.total_bits,
    )


@pytest.mark.parametrize("mode", sorted(PINS))
def test_per_message_loop_matches_its_pin(mode):
    result = _run(mode)
    assert _pin(result) == PINS[mode]
    if mode == "chaos":
        assert result.metrics.faults == CHAOS_FAULTS


#: The pinned modes that run the ARQ; the fast path must reach each pin.
LOSSY_MODES = ("chaos", "lossy", "lossy-batch", "lossy-damped")


@pytest.mark.parametrize("mode", LOSSY_MODES)
def test_fast_path_matches_the_chaos_pin(mode, monkeypatch):
    """The fast path delivers each lossy plan's drops - and the chaos
    plan's duplicates, delays and crash losses - in the per-message
    loop's order, so it reaches the same pin; cross-loop equivalence
    alone would miss an order change both loops share.

    The walk engine accepts ``term`` and ``done`` rows before the node
    pass; rows that reach a node past counting are acked by the
    exchange driver's flush, or settled once the node is done.  The
    spy counts those rows, so the pin is known to cover the early
    accept."""
    late = {"exchange": 0, "done": 0}
    receive_rows = CountingWalkEngine.receive_rows

    def spy(engine, round_number, claimed):
        for kind in (KIND_TERM, KIND_DONE):
            if kind in claimed:
                for node in engine._edges.dst[claimed[kind][0]].tolist():
                    phase = engine._programs[node].phase
                    if phase in late:
                        late[phase] += 1
        receive_rows(engine, round_number, claimed)

    monkeypatch.setattr(CountingWalkEngine, "receive_rows", spy)
    result = _run(mode, vectorized=True)
    assert result.fast_path
    assert _pin(result) == PINS[mode]
    if mode == "chaos":
        assert result.metrics.faults == CHAOS_FAULTS
    assert late["exchange"] > 0
