"""Tests for the full distributed RWBC protocol on the CONGEST simulator.

These are the system-level tests: every run exercises leader election,
the BFS tree, walk transport under bandwidth limits, termination
detection, the exchange phase, and local computation together.
"""

import math

import numpy as np
import pytest

from repro.core.estimator import default_max_rounds, estimate_rwbc_distributed
from repro.core.exact import rwbc_exact
from repro.core.montecarlo import betweenness_from_counts
from repro.core.parameters import WalkParameters
from repro.core.walk_manager import TransportPolicy
from repro.graphs.generators import (
    barbell_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph, GraphError
from repro.graphs.properties import bfs_distances

PARAMS = WalkParameters(length=150, walks_per_source=40)


@pytest.fixture(scope="module")
def er_run():
    graph = erdos_renyi_graph(15, 0.3, seed=4, ensure_connected=True)
    result = estimate_rwbc_distributed(graph, PARAMS, seed=4)
    return graph, result


class TestEndToEnd:
    def test_smallest_graph(self):
        result = estimate_rwbc_distributed(
            path_graph(2), WalkParameters(length=4, walks_per_source=3), seed=0
        )
        assert result.betweenness[0] == pytest.approx(1.0)
        assert result.betweenness[1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "graph",
        [path_graph(6), cycle_graph(8), star_graph(7), grid_graph(3, 3)],
        ids=["path", "cycle", "star", "grid"],
    )
    def test_estimates_near_exact(self, graph):
        exact = rwbc_exact(graph)
        result = estimate_rwbc_distributed(
            graph, WalkParameters(length=200, walks_per_source=150), seed=1
        )
        for node in graph.nodes():
            assert result.betweenness[node] == pytest.approx(
                exact[node], rel=0.25, abs=0.05
            )

    def test_estimates_er(self, er_run):
        """Median over nine seeds of the mean relative error: one run's
        error exceeds the bound for about one seed in eight."""
        graph, _ = er_run
        exact = rwbc_exact(graph)
        panel = []
        for seed in range(1, 10):
            result = estimate_rwbc_distributed(graph, PARAMS, seed=seed)
            panel.append(
                np.mean(
                    [
                        abs(result.betweenness[v] - exact[v]) / exact[v]
                        for v in graph.nodes()
                    ]
                )
            )
        assert np.median(panel) < 0.25

    def test_counts_match_algorithm2_arithmetic(self, er_run):
        """The distributed result equals betweenness_from_counts applied to
        the counts the nodes collected - Algorithm 2 is pure arithmetic."""
        graph, result = er_run
        n = graph.num_nodes
        counts = np.zeros((n, n), dtype=np.int64)
        for node in graph.nodes():
            counts[node] = result.counts[node]
        recomputed = betweenness_from_counts(
            graph, counts, PARAMS.walks_per_source
        )
        for node in graph.nodes():
            assert result.betweenness[node] == pytest.approx(
                recomputed[node], abs=1e-9
            )

    def test_target_column_zero(self, er_run):
        graph, result = er_run
        target = result.target
        for node in graph.nodes():
            assert result.counts[node][target] == 0

    def test_reproducible(self):
        graph = cycle_graph(7)
        params = WalkParameters(length=40, walks_per_source=10)
        a = estimate_rwbc_distributed(graph, params, seed=9)
        b = estimate_rwbc_distributed(graph, params, seed=9)
        assert a.betweenness == b.betweenness
        assert a.target == b.target
        assert a.total_rounds == b.total_rounds

    def test_different_seeds_differ(self):
        graph = cycle_graph(7)
        params = WalkParameters(length=40, walks_per_source=10)
        a = estimate_rwbc_distributed(graph, params, seed=1)
        b = estimate_rwbc_distributed(graph, params, seed=2)
        assert a.betweenness != b.betweenness


class TestPolicies:
    @pytest.mark.parametrize("policy", list(TransportPolicy))
    def test_both_policies_work(self, policy):
        graph = erdos_renyi_graph(12, 0.35, seed=3, ensure_connected=True)
        exact = rwbc_exact(graph)
        result = estimate_rwbc_distributed(
            graph,
            WalkParameters(length=120, walks_per_source=60),
            seed=3,
            policy=policy,
        )
        errors = [
            abs(result.betweenness[v] - exact[v]) / exact[v]
            for v in graph.nodes()
        ]
        assert np.mean(errors) < 0.3

    def test_batch_never_slower(self):
        """Batching coalesces tokens, so the counting phase cannot take
        more rounds than queueing at equal budget."""
        graph = star_graph(10)  # hub congestion stresses the queues
        params = WalkParameters(length=60, walks_per_source=40)
        queue = estimate_rwbc_distributed(
            graph, params, seed=5, policy=TransportPolicy.QUEUE
        )
        batch = estimate_rwbc_distributed(
            graph, params, seed=5, policy=TransportPolicy.BATCH
        )
        assert (
            batch.phase_rounds["counting"] <= queue.phase_rounds["counting"]
        )


class TestCongestCompliance:
    """Theorem 4: O(log n)-bit messages, O(1) messages per edge per round."""

    def test_message_width(self, er_run):
        graph, result = er_run
        n = graph.num_nodes
        budget = max(48, 8 * math.ceil(math.log2(n)))
        assert result.metrics.max_message_bits <= budget

    def test_messages_per_edge_bounded(self, er_run):
        _, result = er_run
        # walk_budget=2 walks + 1 term + 1 done.
        assert result.metrics.max_messages_per_edge_round <= 4

    def test_phase_round_accounting(self, er_run):
        """The exchange runs from the root's detection to the deepest
        node's finish: the done wave takes ``ecc(leader)`` rounds to
        reach it, and it finishes ``n + 2`` rounds after its relay."""
        graph, result = er_run
        phases = result.phase_rounds
        n = graph.num_nodes
        ecc = max(bfs_distances(graph, result.target).values())
        assert phases["setup"] == n + 2
        assert phases["exchange"] == ecc + n + 2
        assert phases["counting"] >= 1
        assert phases["total"] == (
            phases["setup"] + phases["counting"] + phases["exchange"]
        )


class TestRoundComplexity:
    def test_counting_phase_bounded(self):
        """Lemma 2 shape: counting rounds stay within a modest multiple of
        K*n + l."""
        graph = erdos_renyi_graph(14, 0.3, seed=6, ensure_connected=True)
        params = WalkParameters(length=60, walks_per_source=12)
        result = estimate_rwbc_distributed(graph, params, seed=6)
        bound = 20 * (
            params.walks_per_source * graph.num_nodes + params.length
        )
        assert result.phase_rounds["counting"] <= bound

    def test_default_max_rounds_scale(self):
        params = WalkParameters(length=30, walks_per_source=8)
        assert default_max_rounds(10, params) > 38


class TestValidation:
    def test_single_node_rejected(self):
        with pytest.raises(GraphError):
            estimate_rwbc_distributed(Graph(nodes=[0]))

    def test_disconnected_rejected(self):
        from repro.congest.errors import ConfigError

        with pytest.raises((GraphError, ConfigError)):
            estimate_rwbc_distributed(Graph(edges=[(0, 1), (2, 3)]))

    def test_non_integer_labels_work(self):
        """Arbitrary labels are relabeled internally and mapped back."""
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        result = estimate_rwbc_distributed(
            graph, WalkParameters(length=20, walks_per_source=20), seed=0
        )
        assert set(result.betweenness) == {"a", "b", "c"}
        assert result.betweenness["b"] > result.betweenness["a"]


class TestConventions:
    def test_no_endpoints_matches_exact_convention(self):
        graph = grid_graph(3, 3)
        exact = rwbc_exact(graph, include_endpoints=False)
        result = estimate_rwbc_distributed(
            graph,
            WalkParameters(length=200, walks_per_source=200),
            seed=2,
            include_endpoints=False,
        )
        for node in graph.nodes():
            assert result.betweenness[node] == pytest.approx(
                exact[node], rel=0.4, abs=0.08
            )

    def test_endpoint_floor(self):
        """With endpoints, every estimate is at least 2/n (the Eq. 7
        credit is deterministic)."""
        graph = barbell_graph(4, 2)
        result = estimate_rwbc_distributed(
            graph, WalkParameters(length=80, walks_per_source=30), seed=8
        )
        n = graph.num_nodes
        for value in result.betweenness.values():
            assert value >= 2.0 / n - 1e-9
