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

#: mode -> (counts digest, rounds, messages, bits).  Recorded while the
#: per-message loop still ran its own copy of the walk rule; a kernel
#: change that moves one changes the protocol's output, so update the
#: pin only on purpose.
PINS = {
    "queue": (
        "36e8e3c84e7f715b2eb72e0f5bf54e2894ce3bfe7a0480ba9d50cc63bc6ceb31",
        80, 2132, 40077,
    ),
    "batch": (
        "3395ed9d31f99c0785426ba4f9700864d2b0efab0861dc75ecc08f5624b2da96",
        80, 2037, 40562,
    ),
    "damped": (
        "39331721c53c70c19b47e32dcb2ba23f2911e5741a57388d55cc549af7d231cb",
        71, 1353, 24406,
    ),
    "split": (
        "28ce2b34428b0cbf985a885e862bcea0a29f62842a68c929b4db94acc3433cdf",
        80, 2132, 40387,
    ),
    "lossy": (
        "ffcda2a48f7516a08b32c26d7c48a16659480e47722326624aed6fe414ea5158",
        260, 3933, 82456,
    ),
    "async": (
        "36e8e3c84e7f715b2eb72e0f5bf54e2894ce3bfe7a0480ba9d50cc63bc6ceb31",
        81, 7956, 164163,
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
        "async": {},
    }[mode]
    config = ProtocolConfig(**BASE, **overrides)
    factory = make_protocol_factory(config)
    if mode == "async":
        result = AsyncSimulator(GRAPH, factory, seed=SEED).run()
    elif mode == "lossy":
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
