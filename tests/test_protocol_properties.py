"""Property-based tests of the full distributed protocol.

Hypothesis drives random connected graphs and parameters through the
complete CONGEST run and asserts structural invariants that must hold on
*every* execution, independent of sampling noise.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.walk_manager import TransportPolicy
from repro.graphs.generators import erdos_renyi_graph, random_tree
from repro.graphs.properties import bfs_distances


def random_connected_graph(n, seed):
    """A connected graph: a random tree plus a few extra random edges."""
    graph = random_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(n // 2):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(4, 14),
    seed=st.integers(0, 1000),
    k=st.integers(2, 8),
    policy=st.sampled_from(list(TransportPolicy)),
)
def test_protocol_invariants(n, seed, k, policy):
    graph = random_connected_graph(n, seed)
    params = WalkParameters(length=3 * n, walks_per_source=k)
    result = estimate_rwbc_distributed(
        graph, params, seed=seed, policy=policy
    )

    # 1. Every node produced a finite estimate above the endpoint floor.
    for value in result.betweenness.values():
        assert np.isfinite(value)
        assert value >= 2.0 / n - 1e-9

    # 2. The target's count column is exactly zero everywhere (the
    #    removed row/column of Eq. 3).
    target = result.target
    for node in graph.nodes():
        assert result.counts[node][target] == 0

    # 3. Counts are non-negative integers, and each non-target source
    #    counted at least its own K launches somewhere.
    totals = np.zeros(n, dtype=np.int64)
    for node in graph.nodes():
        counts = np.asarray(result.counts[node])
        assert counts.min() >= 0
        totals += counts
    for source in graph.nodes():
        if source != target:
            assert totals[source] >= k

    # 4. Phase accounting is exact: setup n+2, exchange from the root's
    #    detection to the deepest node's finish (the done wave's
    #    ecc(leader) rounds plus each node's n + 2), and the pieces sum
    #    to the scheduler's round count.
    phases = result.phase_rounds
    ecc = max(bfs_distances(graph, result.target).values())
    assert phases["setup"] == n + 2
    assert phases["exchange"] == ecc + n + 2
    assert (
        phases["setup"] + phases["counting"] + phases["exchange"]
        == result.total_rounds
    )

    # 5. CONGEST budget: never more than walk_budget + 2 messages per
    #    directed edge per round.
    assert result.metrics.max_messages_per_edge_round <= 4


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 500))
def test_estimates_scale_free_in_K(seed):
    """Doubling K changes estimates only through sampling noise, never
    systematically by a scale factor (the K-normalization of Algorithm 2
    line 4 is correct)."""
    graph = erdos_renyi_graph(8, 0.45, seed=seed, ensure_connected=True)
    a = estimate_rwbc_distributed(
        graph, WalkParameters(length=60, walks_per_source=60), seed=seed
    )
    b = estimate_rwbc_distributed(
        graph, WalkParameters(length=60, walks_per_source=120), seed=seed
    )
    mean_a = np.mean(list(a.betweenness.values()))
    mean_b = np.mean(list(b.betweenness.values()))
    assert mean_b == pytest.approx(mean_a, rel=0.35)
