"""The exchange paced by the done wave.

The root relays ``done`` in the round ``R`` it detects that every walk
is dead, and a node at tree depth ``d`` relays it in round ``R + d``.
Each node broadcasts count column ``i`` in round ``relay + 1 + i`` and
finishes in round ``relay + n + 2``.  So a fault-free run ends in round
``R + ecc(leader) + n + 2``, on the fast path, the per-message loop and
the async executor alike.
"""

import numpy as np
import pytest

from repro.congest.asynchronous import AsyncSimulator
from repro.congest.scheduler import Simulator
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import (
    KIND_EXCHANGE,
    ProtocolConfig,
    make_protocol_factory,
)
from repro.core.termination import KIND_DONE
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    random_tree,
)
from repro.graphs.properties import bfs_distances

PARAMS = WalkParameters(length=30, walks_per_source=4)
CONFIG = ProtocolConfig(length=30, walks_per_source=4)

GRAPHS = {
    "tree": lambda: random_tree(18, seed=2),
    "er": lambda: erdos_renyi_graph(18, 0.25, seed=3, ensure_connected=True),
    "ba": lambda: barabasi_albert_graph(18, 2, seed=4),
}


def _run(graph, executor):
    factory = make_protocol_factory(CONFIG)
    if executor == "async":
        return AsyncSimulator(graph, factory, seed=9).run()
    return Simulator(
        graph, factory, seed=9, vectorized=executor == "fast"
    ).run()


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_every_node_is_paced_by_its_relay(family):
    """Per node: relay at detection + depth, finish n + 2 later; the
    same markers and estimates on all three executors."""
    graph = GRAPHS[family]()
    n = graph.num_nodes
    runs = {
        executor: _run(graph, executor)
        for executor in ("fast", "slow", "async")
    }
    fast = runs["fast"]
    assert fast.fast_path
    leader = fast.programs[0].target
    depth = bfs_distances(graph, leader)
    detection = fast.programs[leader].exchange_start_round
    for node, program in fast.programs.items():
        assert program.exchange_start_round == detection + depth[node]
        assert program.finish_round == program.exchange_start_round + n + 2
    last = detection + max(depth.values()) + n + 2
    assert fast.metrics.rounds == last
    assert runs["slow"].metrics.rounds == last
    for executor in ("slow", "async"):
        other = runs[executor].programs
        for node, program in fast.programs.items():
            assert (
                other[node].exchange_start_round
                == program.exchange_start_round
            )
            assert other[node].finish_round == program.finish_round
            assert other[node].betweenness == program.betweenness
            assert np.array_equal(other[node].counts, program.counts)


@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_estimator_round_formula(family):
    """Through the estimator: total = detection + ecc(leader) + n + 2,
    and the three phases sum to it."""
    graph = GRAPHS[family]()
    n = graph.num_nodes
    results = {
        name: estimate_rwbc_distributed(graph, PARAMS, seed=9, **kwargs)
        for name, kwargs in (
            ("fast", {"vectorized": True}),
            ("slow", {"vectorized": False}),
            ("async", {"executor": "async"}),
        )
    }
    fast = results["fast"]
    ecc = max(bfs_distances(graph, fast.target).values())
    phases = fast.phase_rounds
    detection = phases["setup"] + phases["counting"]
    assert phases["setup"] == n + 2
    assert phases["exchange"] == ecc + n + 2
    assert fast.total_rounds == detection + ecc + n + 2
    assert results["slow"].total_rounds == fast.total_rounds
    for name in ("slow", "async"):
        assert results[name].phase_rounds["setup"] == phases["setup"]
        assert results[name].phase_rounds["counting"] == phases["counting"]
        assert results[name].phase_rounds["exchange"] == phases["exchange"]
        assert results[name].betweenness == fast.betweenness


def test_done_and_columns_never_share_an_edge_round():
    """Recorded messages: ``done`` carries no fields, and no directed
    edge carries ``done`` and a column in the same round."""
    graph = GRAPHS["er"]()
    result = estimate_rwbc_distributed(
        graph, PARAMS, seed=9, record_messages=True
    )
    assert result.fallback_reasons
    done_seen = 0
    for messages in result.message_log:
        kinds: dict[tuple, set] = {}
        for message in messages:
            if message.kind == KIND_DONE:
                assert message.fields == ()
                done_seen += 1
            kinds.setdefault((message.sender, message.receiver), set()).add(
                message.kind
            )
        for edge_kinds in kinds.values():
            assert not {KIND_DONE, KIND_EXCHANGE} <= edge_kinds
    # The wave runs down the BFS tree: one done per tree edge.
    assert done_seen == graph.num_nodes - 1
