"""Tests for the damped-walk (distributed alpha-CFBC) protocol mode."""

import numpy as np
import pytest

from repro.baselines.alpha_cfbc import alpha_current_flow_betweenness
from repro.congest.errors import ProtocolError
from repro.core.estimator import estimate_alpha_cfbc_distributed
from repro.core.parameters import alpha_length
from repro.core.protocol import ProtocolConfig
from repro.core.walk_manager import WalkManager
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, grid_graph
from repro.graphs.graph import GraphError


class TestAlphaLength:
    def test_scales_inversely_with_gap(self):
        assert alpha_length(0.99) > alpha_length(0.9) > alpha_length(0.5)

    def test_epsilon_tightens(self):
        assert alpha_length(0.8, 0.001) > alpha_length(0.8, 0.1)

    def test_closed_form(self):
        """alpha^l <= epsilon at the returned l, and not one hop earlier."""
        alpha, epsilon = 0.85, 0.01
        length = alpha_length(alpha, epsilon)
        assert alpha**length <= epsilon
        assert alpha ** (length - 1) > epsilon

    def test_invalid(self):
        with pytest.raises(GraphError):
            alpha_length(1.0)
        with pytest.raises(GraphError):
            alpha_length(0.5, epsilon=0.0)


class TestDampedWalkManager:
    def make(self, alpha):
        return WalkManager(
            node_id=0,
            neighbors=(1, 2),
            n=4,
            target=3,
            walks_per_source=100,
            length=10,
            walk_key=0,
            survival_alpha=alpha,
        )

    def test_every_node_launches(self):
        manager = WalkManager(
            node_id=3,  # the nominal target
            neighbors=(0,),
            n=4,
            target=3,
            walks_per_source=5,
            length=10,
            walk_key=0,
            survival_alpha=0.5,
        )
        manager.launch()
        assert manager.held_walks == 5

    def test_thinning_kills_roughly_1_minus_alpha(self):
        manager = self.make(alpha=0.5)
        manager.receive(source=1, remaining=5, count=1000)
        assert 400 < manager.deaths < 600
        assert manager.counts[1] == 1000 - manager.deaths

    def test_target_arrivals_are_ordinary_visits(self):
        manager = WalkManager(
            node_id=3,
            neighbors=(0,),
            n=4,
            target=3,
            walks_per_source=1,
            length=10,
            walk_key=1,
            survival_alpha=0.99,
        )
        manager.receive(source=0, remaining=5, count=100)
        assert manager.counts[0] > 0  # not absorbed

    def test_invalid_alpha(self):
        with pytest.raises(ProtocolError):
            self.make(alpha=1.5)
        with pytest.raises(ProtocolError):
            ProtocolConfig(length=5, walks_per_source=2, survival_alpha=0.0)


class TestDistributedAlphaCFBC:
    def test_matches_exact(self):
        graph = grid_graph(4, 4)
        alpha = 0.8
        exact = alpha_current_flow_betweenness(graph, alpha=alpha)
        result = estimate_alpha_cfbc_distributed(
            graph, alpha=alpha, walks_per_source=300, seed=3
        )
        for node in graph.nodes():
            assert result.betweenness[node] == pytest.approx(
                exact[node], rel=0.15, abs=0.02
            )

    def test_rounds_shrink_with_damping(self):
        """The section II-C speedup: smaller alpha, shorter walks, fewer
        counting rounds."""
        graph = cycle_graph(12)
        heavy = estimate_alpha_cfbc_distributed(
            graph, alpha=0.9, walks_per_source=40, seed=1
        )
        light = estimate_alpha_cfbc_distributed(
            graph, alpha=0.5, walks_per_source=40, seed=1
        )
        assert (
            light.phase_rounds["counting"] < heavy.phase_rounds["counting"]
        )

    def test_all_sources_contribute(self):
        """Damped mode has no absorbed column: every source (including
        the elected leader) leaves nonzero counts somewhere."""
        graph = erdos_renyi_graph(10, 0.4, seed=2, ensure_connected=True)
        result = estimate_alpha_cfbc_distributed(
            graph, alpha=0.7, walks_per_source=30, seed=2
        )
        n = graph.num_nodes
        totals = np.zeros(n)
        for node in graph.nodes():
            totals += np.asarray(result.counts[node])
        assert np.all(totals > 0)

    def test_reproducible(self):
        graph = cycle_graph(8)
        a = estimate_alpha_cfbc_distributed(graph, alpha=0.6, seed=9)
        b = estimate_alpha_cfbc_distributed(graph, alpha=0.6, seed=9)
        assert a.betweenness == b.betweenness

    def test_too_small(self):
        from repro.graphs.graph import Graph

        with pytest.raises(GraphError):
            estimate_alpha_cfbc_distributed(Graph(nodes=[0]), alpha=0.5)
