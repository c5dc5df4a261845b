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
#: pin only on purpose.  The rounds, messages and bits were re-recorded
#: (digests unchanged) when the exchange became paced by the done wave
#: and ``done`` lost its round field: fault-free runs end ``n - ecc``
#: rounds sooner, and every run sends fewer bits.
PINS = {
    "queue": (
        "36e8e3c84e7f715b2eb72e0f5bf54e2894ce3bfe7a0480ba9d50cc63bc6ceb31",
        70, 2132, 39973,
    ),
    "batch": (
        "3395ed9d31f99c0785426ba4f9700864d2b0efab0861dc75ecc08f5624b2da96",
        70, 2037, 40458,
    ),
    "damped": (
        "39331721c53c70c19b47e32dcb2ba23f2911e5741a57388d55cc549af7d231cb",
        61, 1353, 24315,
    ),
    "split": (
        "28ce2b34428b0cbf985a885e862bcea0a29f62842a68c929b4db94acc3433cdf",
        70, 2132, 40283,
    ),
    "lossy": (
        "ffcda2a48f7516a08b32c26d7c48a16659480e47722326624aed6fe414ea5158",
        260, 3933, 82042,
    ),
    # Recorded before both loops shared one walk encoder: reliable BATCH
    # rows carry a count and a seq, and damped thinning draws from the
    # routing generator.
    "lossy-batch": (
        "7686fc1ab6fa490664e308cc61d82bb72e433f80a2192dafa1ee36af367c1882",
        247, 3759, 80334,
    ),
    "lossy-damped": (
        "592a337c9eda6cf0bd77b5ef38ecc00c084f765fc97136e2f86344a2a118219c",
        237, 2514, 48992,
    ),
    "async": (
        "36e8e3c84e7f715b2eb72e0f5bf54e2894ce3bfe7a0480ba9d50cc63bc6ceb31",
        71, 7535, 156812,
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
