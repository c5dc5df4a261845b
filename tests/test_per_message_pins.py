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
from repro.congest.faults import FaultPlan
from repro.congest.scheduler import Simulator
from repro.congest.transport import BandwidthPolicy
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.walk_engine import TransportPolicy
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
}


def _pin(mode: str) -> tuple[str, int, int, int]:
    n = GRAPH.num_nodes
    overrides = {
        "queue": {},
        "batch": {"policy": TransportPolicy.BATCH},
        "damped": {"survival_alpha": 0.8},
        "split": {"split_sampling": True},
        "lossy": {"reliable": True},
        "lossy-batch": {"reliable": True, "policy": TransportPolicy.BATCH},
        "lossy-damped": {"reliable": True, "survival_alpha": 0.8},
        "async": {},
    }[mode]
    config = ProtocolConfig(**BASE, **overrides)
    factory = make_protocol_factory(config)
    if mode == "async":
        result = AsyncSimulator(GRAPH, factory, seed=SEED).run()
    elif mode.startswith("lossy"):
        result = Simulator(
            GRAPH,
            factory,
            policy=BandwidthPolicy(
                n=n, messages_per_edge=config.walk_budget + 4
            ),
            seed=SEED,
            faults=FaultPlan(seed=5, drop_rate=0.1),
            vectorized=False,
        ).run()
    else:
        result = Simulator(GRAPH, factory, seed=SEED, vectorized=False).run()
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
    assert _pin(mode) == PINS[mode]
