"""The fast-path setup driver and the flood relax rule it shares.

:class:`~repro.core.setup_engine.SetupEngine` runs flood-max leader
election, the BFS tree and the degree exchange for the whole network as
arrays; :func:`~repro.congest.primitives.flood.relax_flood` is the one
relax rule both it and :meth:`FloodMaxBFS.step` call.  The graphs here
are full of equal-distance ties (several shortest paths to the leader),
where the parent choice depends on the tie-break: the first arrival in
inbox order, i.e. the smallest sender.
"""


import numpy as np
import pytest

from repro.congest.faults import FaultPlan
from repro.congest.message import Message
from repro.congest.primitives.flood import KIND_FLOOD, FloodMaxBFS, relax_flood
from repro.congest.scheduler import Simulator
from repro.congest.trace import Tracer
from repro.congest.transport import BandwidthPolicy
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.properties import bfs_distances
from repro.obs import Telemetry

CONFIG = ProtocolConfig(length=8, walks_per_source=2)

TIE_GRAPHS = {
    "grid": grid_graph(4, 5),
    "k34": complete_bipartite_graph(3, 4),
    "even-cycle": cycle_graph(10),
    "star": star_graph(7),
    "path": path_graph(9),
    "edge": path_graph(2),
    "path3": path_graph(3),
}


def _run(
    graph, vectorized, config=CONFIG, factory=None, seed=5, faults=None,
    **kwargs,
):
    tracer = Tracer()
    telemetry = Telemetry()
    # A plan turns the protocol's recovery on, which needs two more
    # slots per edge.
    extra = 2 if faults is None else 4
    result = Simulator(
        graph,
        factory or make_protocol_factory(config),
        policy=BandwidthPolicy(
            n=graph.num_nodes, messages_per_edge=config.walk_budget + extra
        ),
        seed=seed,
        vectorized=vectorized,
        tracer=tracer,
        telemetry=telemetry,
        faults=faults,
        **kwargs,
    ).run()
    return result, tracer, telemetry


def _assert_identical(graph, slow, fast):
    (slow_result, slow_tracer, slow_tel) = slow
    (fast_result, fast_tracer, fast_tel) = fast
    for node in graph.nodes():
        ps, pf = slow_result.program(node), fast_result.program(node)
        assert pf._tree == ps._tree
        assert pf.target == ps.target
        assert pf._neighbor_degrees == ps._neighbor_degrees
        assert pf.betweenness == ps.betweenness
        assert pf.edge_betweenness == ps.edge_betweenness
        assert pf.counting_start_round == ps.counting_start_round
        assert pf.finish_round == ps.finish_round
    ms, mf = slow_result.metrics, fast_result.metrics
    assert mf.messages_per_round == ms.messages_per_round
    assert mf.bits_per_round == ms.bits_per_round
    assert mf.max_messages_per_edge_round == ms.max_messages_per_edge_round
    assert mf.max_bits_per_edge_round == ms.max_bits_per_edge_round
    for name in ("bits_per_edge_round", "messages_per_edge_round"):
        hs, hf = slow_tel.instruments.hist(name), fast_tel.instruments.hist(name)
        assert np.array_equal(hf.buckets, hs.buckets)
        assert (hf.count, hf.total, hf.max) == (hs.count, hs.total, hs.max)
    assert sorted(fast_tracer.events) == sorted(slow_tracer.events)


def _assert_bfs_tree(graph, result):
    """Every node's frozen state is the BFS tree rooted at the leader,
    each parent the smallest neighbor one level up."""
    leader = result.program(0)._tree.leader_id
    distances = bfs_distances(graph, leader)
    children: dict[int, list[int]] = {node: [] for node in graph.nodes()}
    for node in graph.nodes():
        tree = result.program(node)._tree
        assert tree.leader_id == leader
        assert tree.distance == distances[node]
        if node == leader:
            assert tree.parent is None
            continue
        assert tree.parent == min(
            u for u in graph.neighbors(node)
            if distances[u] == distances[node] - 1
        )
        children[tree.parent].append(node)
    for node in graph.nodes():
        assert result.program(node)._tree.children == tuple(children[node])


class TestLoopsAgree:
    @pytest.mark.parametrize("graph", TIE_GRAPHS.values(), ids=TIE_GRAPHS)
    def test_tie_graphs(self, graph):
        slow = _run(graph, vectorized=False)
        fast = _run(graph, vectorized=True)
        assert all(p._setup_engine is not None for p in fast[0].programs.values())
        _assert_identical(graph, slow, fast)
        _assert_bfs_tree(graph, fast[0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeds_on_the_grid(self, seed):
        graph = TIE_GRAPHS["grid"]
        _assert_identical(
            graph,
            _run(graph, vectorized=False, seed=seed),
            _run(graph, vectorized=True, seed=seed),
        )

    def test_equal_ranks_elect_the_largest_id(self):
        """With every rank forced equal, the id breaks the tie."""
        base = make_protocol_factory(CONFIG)

        def factory(info, rng):
            program = base(info, rng)
            program._flood = FloodMaxBFS(info.node_id, 0)
            return program

        graph = TIE_GRAPHS["k34"]
        slow = _run(graph, vectorized=False, factory=factory)
        fast = _run(graph, vectorized=True, factory=factory)
        _assert_identical(graph, slow, fast)
        assert fast[0].program(0).target == graph.num_nodes - 1
        _assert_bfs_tree(graph, fast[0])


def _assert_recovery_runs_setup_per_node(graph):
    plan = FaultPlan(seed=4, drop_rate=1e-12)
    fast = _run(graph, vectorized=True, faults=plan)
    programs = fast[0].programs.values()
    assert fast[0].metrics.faults["dropped"] == 0
    assert all(p._setup_engine is None for p in programs)
    assert all(p._channel is not None for p in programs)
    slow = _run(graph, vectorized=False, faults=plan)
    _assert_identical(graph, slow, fast)


class TestInstallation:
    def test_not_installed_under_a_fault_plan(self):
        """Any non-trivial plan turns recovery on, whose setup runs per
        node through the ARQ; the fast path is held against the
        per-message loop.  A drop rate that never fires is enough."""
        _assert_recovery_runs_setup_per_node(TIE_GRAPHS["grid"])

    def test_not_installed_in_reliable_mode(self):
        """Reliable mode is what a fault plan turns on; on the even cycle
        its per-node setup still matches the per-message loop."""
        _assert_recovery_runs_setup_per_node(TIE_GRAPHS["even-cycle"])

    def test_fast_path_never_allocates_the_neighbor_matrix(self):
        graph = TIE_GRAPHS["grid"]
        fast, _, _ = _run(graph, vectorized=True)
        slow, _, _ = _run(graph, vectorized=False)
        for node in graph.nodes():
            assert fast.program(node)._neighbor_matrix is None
            assert slow.program(node)._neighbor_matrix is not None


def _state(rank, leader, distance):
    return (
        np.array(rank, dtype=np.int64),
        np.array(leader, dtype=np.int64),
        np.array(distance, dtype=np.int64),
    )


class TestRelaxFlood:
    def test_equal_ranks_break_on_the_id(self):
        fields = np.array([[5, 2, 0], [5, 7, 3], [5, 4, 0]], dtype=np.int64)
        nodes, rows = relax_flood(
            *_state([5], [1], [0]), np.zeros(3, dtype=np.int64), fields
        )
        assert nodes.tolist() == [0]
        assert rows.tolist() == [1]

    def test_equal_candidates_go_to_the_first_arrival(self):
        """Equal (rank, id, distance) from several senders: the first in
        inbox order - the smallest sender - wins."""
        fields = np.array([[9, 3, 1]] * 3, dtype=np.int64)
        nodes, rows = relax_flood(
            *_state([1], [0], [0]), np.zeros(3, dtype=np.int64), fields
        )
        assert (nodes.tolist(), rows.tolist()) == ([0], [0])

        flood = FloodMaxBFS(node_id=0, rank=1)
        sent = []

        class Ctx:
            def broadcast(self, kind, *fields):
                sent.append((kind, fields))

        flood.step(
            Ctx(),
            [Message(sender, 0, KIND_FLOOD, (9, 3, 1)) for sender in (2, 4, 6)],
        )
        assert (flood.best_rank, flood.best_id) == (9, 3)
        assert (flood.distance, flood.parent) == (2, 2)
        assert sent == [(KIND_FLOOD, (9, 3, 2))]

    def test_only_a_strictly_shorter_path_replaces_the_same_leader(self):
        receivers = np.array([0, 1, 2], dtype=np.int64)
        fields = np.array([[9, 3, 1], [9, 3, 0], [9, 3, 2]], dtype=np.int64)
        # Node 0 is already at distance 2 (equal: keep), node 1 at 2
        # (shorter: adopt), node 2 at 2 (longer: keep).
        nodes, rows = relax_flood(
            *_state([9, 9, 9], [3, 3, 3], [2, 2, 2]), receivers, fields
        )
        assert (nodes.tolist(), rows.tolist()) == ([1], [1])

    def test_many_receivers_at_once(self):
        """Each receiver picks independently; arrivals of different
        receivers may interleave, and a weaker best arrival loses to
        the current candidate."""
        receivers = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        fields = np.array(
            [[4, 1, 0], [6, 5, 2], [4, 8, 1], [2, 9, 0], [6, 5, 1]],
            dtype=np.int64,
        )
        nodes, rows = relax_flood(
            *_state([0, 3, 4], [0, 1, 2], [0, 0, 0]), receivers, fields
        )
        assert (nodes.tolist(), rows.tolist()) == ([0, 2], [4, 2])
