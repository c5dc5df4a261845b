"""Tests for the vectorized Monte-Carlo walk engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph, GraphError
from repro.walks.absorbing import visit_counts_truncated
from repro.walks.simulate import simulate_walk_counts


class TestSimulateBasics:
    def test_counts_shape_and_target_zero(self):
        graph = cycle_graph(6)
        result = simulate_walk_counts(graph, 2, length=30, walks_per_source=5, seed=0)
        assert result.counts.shape == (6, 6)
        t = graph.index_of(2)
        assert np.all(result.counts[t, :] == 0)
        assert np.all(result.counts[:, t] == 0)

    def test_initial_visits_counted(self):
        graph = path_graph(4)
        k = 7
        result = simulate_walk_counts(graph, 3, length=1, walks_per_source=k, seed=0)
        for s in range(3):
            assert result.counts[s, s] >= k

    def test_count_initial_false(self):
        graph = path_graph(3)
        with_init = simulate_walk_counts(
            graph, 2, length=0, walks_per_source=5, seed=0, count_initial=True
        )
        without = simulate_walk_counts(
            graph, 2, length=0, walks_per_source=5, seed=0, count_initial=False
        )
        assert with_init.counts.sum() == 10  # 2 sources x 5 walks
        assert without.counts.sum() == 0

    def test_all_walks_die(self):
        graph = erdos_renyi_graph(10, 0.4, seed=1, ensure_connected=True)
        k = 4
        result = simulate_walk_counts(graph, 0, length=500, walks_per_source=k, seed=1)
        assert result.absorbed + result.expired == (10 - 1) * k

    def test_path2_deterministic(self):
        """On 0-1 with target 1, every walk hops straight into absorption."""
        graph = path_graph(2)
        result = simulate_walk_counts(graph, 1, length=10, walks_per_source=8, seed=0)
        assert result.absorbed == 8
        assert result.expired == 0
        assert result.counts[0, 0] == 8
        assert result.counts.sum() == 8

    def test_reproducible(self):
        graph = cycle_graph(7)
        a = simulate_walk_counts(graph, 0, 50, 10, seed=9)
        b = simulate_walk_counts(graph, 0, 50, 10, seed=9)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_survival_fraction(self):
        graph = cycle_graph(12)
        short = simulate_walk_counts(graph, 0, length=2, walks_per_source=20, seed=3)
        long = simulate_walk_counts(graph, 0, length=3000, walks_per_source=20, seed=3)
        assert short.survival_fraction > long.survival_fraction
        assert long.survival_fraction == 0.0


class TestSimulateValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            simulate_walk_counts(Graph(edges=[(0, 1), (2, 3)]), 0, 10, 1)

    def test_bad_parameters(self):
        graph = path_graph(3)
        with pytest.raises(GraphError):
            simulate_walk_counts(graph, 0, -1, 1)
        with pytest.raises(GraphError):
            simulate_walk_counts(graph, 0, 10, 0)
        with pytest.raises(GraphError):
            simulate_walk_counts(Graph(nodes=[0]), 0, 10, 1)


class TestStatisticalAgreement:
    """Monte-Carlo counts converge to the truncated matrix expectation."""

    @pytest.mark.parametrize(
        "graph,target",
        [
            (path_graph(4), 3),
            (cycle_graph(5), 0),
            (star_graph(5), 2),
            (complete_graph(5), 1),
        ],
        ids=["path", "cycle", "star", "complete"],
    )
    def test_mean_counts_match_expectation(self, graph, target):
        k = 4000
        length = 40
        result = simulate_walk_counts(
            graph, target, length=length, walks_per_source=k, seed=11
        )
        expectation = visit_counts_truncated(graph, target, length)
        observed = result.counts / k
        # Monte-Carlo tolerance ~ 4 / sqrt(K) on entries of size O(1).
        np.testing.assert_allclose(observed, expectation, atol=4.0 / np.sqrt(k) * 5)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 100))
def test_death_conservation(n, seed):
    graph = erdos_renyi_graph(n, 0.6, seed=seed, ensure_connected=True)
    k = 3
    result = simulate_walk_counts(graph, seed % n, length=15, walks_per_source=k, seed=seed)
    assert result.absorbed + result.expired == (n - 1) * k
    assert result.counts.min() >= 0
