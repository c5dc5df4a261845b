"""Tests for the batched-walk kernel and the scheduler fast path.

Two layers:

* unit tests of the :mod:`repro.walks.batched` kernels (canonical group
  algebra, vectorized sampling, CSR stepping);
* seeded equivalence of the simulator's two execution paths: the
  per-message loop and the vectorized fast path (network-wide
  :class:`~repro.core.walk_engine.CountingWalkEngine`) must produce
  *identical* tallies, estimates, round counts, and bandwidth
  accounting - not statistically similar, byte-equal.
"""


import numpy as np
import pytest

from repro.congest.errors import ConfigError
from repro.congest.scheduler import Simulator
from repro.congest.trace import Tracer
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.walk_engine import CountingWalkEngine
from repro.core.walk_manager import TransportPolicy
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_graph,
    random_tree,
    star_graph,
)
from repro.walks.batched import (
    aggregate_groups,
    aggregate_network_groups,
    csr_arrays,
    route_groups,
    step_tokens,
    thin_groups,
)
from repro.walks.streams import DEFAULT_READ_AHEAD, PortStreams


# ---------------------------------------------------------------------------
# Kernel unit tests
# ---------------------------------------------------------------------------
class TestAggregateGroups:
    def test_merges_duplicates_and_sorts(self):
        sources = np.array([3, 1, 3, 1], dtype=np.int64)
        remainings = np.array([5, 2, 5, 2], dtype=np.int64)
        halves = np.array([0, 1, 0, 1], dtype=np.int64)
        counts = np.array([2, 1, 4, 7], dtype=np.int64)
        s, r, h, c = aggregate_groups(sources, remainings, halves, counts)
        assert s.tolist() == [1, 3]
        assert r.tolist() == [2, 5]
        assert h.tolist() == [1, 0]
        assert c.tolist() == [8, 6]

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        sources = rng.integers(0, 5, size=40)
        remainings = rng.integers(0, 7, size=40)
        halves = rng.integers(0, 2, size=40)
        counts = rng.integers(1, 9, size=40)
        forward = aggregate_groups(sources, remainings, halves, counts)
        perm = rng.permutation(40)
        shuffled = aggregate_groups(
            sources[perm], remainings[perm], halves[perm], counts[perm]
        )
        for a, b in zip(forward, shuffled):
            assert np.array_equal(a, b)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        out = aggregate_groups(empty, empty, empty, empty)
        assert all(len(a) == 0 for a in out)


class TestAggregateNetworkGroups:
    def test_matches_per_node_aggregation(self):
        rng = np.random.default_rng(1)
        nodes = rng.integers(0, 6, size=80)
        sources = rng.integers(0, 10, size=80)
        remainings = rng.integers(0, 12, size=80)
        halves = rng.integers(0, 2, size=80)
        counts = rng.integers(1, 5, size=80)
        gn, gs, gr, gh, gc = aggregate_network_groups(
            nodes, sources, remainings, halves, counts
        )
        assert np.all(gn[:-1] <= gn[1:])  # sorted by node
        for node in np.unique(nodes):
            mask = nodes == node
            es, er, eh, ec = aggregate_groups(
                sources[mask], remainings[mask], halves[mask], counts[mask]
            )
            seg = gn == node
            assert np.array_equal(gs[seg], es)
            assert np.array_equal(gr[seg], er)
            assert np.array_equal(gh[seg], eh)
            assert np.array_equal(gc[seg], ec)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        out = aggregate_network_groups(empty, empty, empty, empty, empty)
        assert all(len(a) == 0 for a in out)


class TestRouteGroups:
    def test_allocation_conserves_tokens(self):
        rng = np.random.default_rng(2)
        counts = np.array([5, 0, 13], dtype=np.int64)
        allocation = route_groups(rng, 4, counts)
        assert allocation.shape == (3, 4)
        assert np.array_equal(allocation.sum(axis=1), counts)

    def test_zero_tokens_consume_no_randomness(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        route_groups(rng_a, 4, np.zeros(2, dtype=np.int64))
        # The empty draw must leave the stream untouched.
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_roughly_uniform(self):
        rng = np.random.default_rng(4)
        allocation = route_groups(rng, 5, np.array([50_000], dtype=np.int64))
        assert allocation.min() > 9_000  # expectation 10k per port


class TestThinGroups:
    def test_bounds_and_empty(self):
        rng = np.random.default_rng(5)
        counts = np.array([10, 0, 1000], dtype=np.int64)
        survivors = thin_groups(rng, counts, 0.5)
        assert np.all(survivors >= 0)
        assert np.all(survivors <= counts)
        empty = np.zeros(0, dtype=np.int64)
        assert len(thin_groups(rng, empty, 0.5)) == 0


class TestCsrStepping:
    def test_csr_arrays_structure(self):
        graph = grid_graph(3, 3)
        offsets, targets = csr_arrays(graph)
        order = graph.canonical_order()
        index = {node: i for i, node in enumerate(order)}
        for i, node in enumerate(order):
            row = targets[offsets[i]:offsets[i + 1]]
            expected = sorted(index[v] for v in graph.neighbors(node))
            assert row.tolist() == expected

    def test_step_tokens_stays_on_edges(self):
        graph = erdos_renyi_graph(12, 0.3, seed=6, ensure_connected=True)
        offsets, targets = csr_arrays(graph)
        degrees = np.diff(offsets)
        rng = np.random.default_rng(7)
        current = rng.integers(0, graph.num_nodes, size=500)
        stepped = step_tokens(rng, offsets, targets, degrees, current)
        order = graph.canonical_order()
        for u, v in zip(current.tolist(), stepped.tolist()):
            assert order[v] in graph.neighbors(order[u])


# ---------------------------------------------------------------------------
# Fast path / slow path equivalence
# ---------------------------------------------------------------------------
def _run(graph, config, vectorized, seed=11, **kwargs):
    simulator = Simulator(
        graph,
        make_protocol_factory(config),
        seed=seed,
        vectorized=vectorized,
        **kwargs,
    )
    return simulator.run()


def _assert_identical(graph, config, seed=11):
    slow = _run(graph, config, vectorized=False, seed=seed)
    fast = _run(graph, config, vectorized=True, seed=seed)
    assert not slow.fast_path
    assert fast.fast_path
    for node in graph.nodes():
        ps, pf = slow.program(node), fast.program(node)
        assert ps.betweenness == pf.betweenness
        assert np.array_equal(ps.counts, pf.counts)
        assert ps.target == pf.target
        assert ps.counting_start_round == pf.counting_start_round
        assert ps.exchange_start_round == pf.exchange_start_round
        assert ps.finish_round == pf.finish_round
        assert ps.edge_betweenness == pf.edge_betweenness
        if config.split_sampling:
            assert ps.betweenness_debiased == pf.betweenness_debiased
            assert ps.noise_floor == pf.noise_floor
    ms, mf = slow.metrics, fast.metrics
    assert ms.rounds == mf.rounds
    assert ms.total_messages == mf.total_messages
    assert ms.total_bits == mf.total_bits
    assert ms.max_messages_per_edge_round == mf.max_messages_per_edge_round
    assert ms.max_bits_per_edge_round == mf.max_bits_per_edge_round
    assert ms.max_message_bits == mf.max_message_bits
    # Per-round parity, not just totals: the paths must agree round by
    # round, or round-indexed experiments would diverge between them.
    assert ms.messages_per_round == mf.messages_per_round
    assert ms.bits_per_round == mf.bits_per_round


BASE = dict(length=60, walks_per_source=8)


class TestPathEquivalence:
    @pytest.mark.parametrize(
        "graph",
        [
            erdos_renyi_graph(24, 0.15, seed=8, ensure_connected=True),
            grid_graph(5, 5),
            star_graph(12),
        ],
        ids=["er", "grid", "star"],
    )
    def test_topologies_queue_policy(self, graph):
        _assert_identical(graph, ProtocolConfig(**BASE))

    def test_batch_policy(self):
        graph = erdos_renyi_graph(24, 0.15, seed=8, ensure_connected=True)
        _assert_identical(
            graph, ProtocolConfig(**BASE, policy=TransportPolicy.BATCH)
        )

    def test_alpha_mode(self):
        graph = erdos_renyi_graph(24, 0.15, seed=8, ensure_connected=True)
        _assert_identical(
            graph, ProtocolConfig(**BASE, survival_alpha=0.85)
        )

    def test_split_sampling(self):
        graph = grid_graph(4, 5)
        _assert_identical(
            graph, ProtocolConfig(**BASE, split_sampling=True)
        )

    def test_alpha_split_batch_combined(self):
        graph = erdos_renyi_graph(20, 0.2, seed=9, ensure_connected=True)
        _assert_identical(
            graph,
            ProtocolConfig(
                **BASE,
                survival_alpha=0.9,
                split_sampling=True,
                policy=TransportPolicy.BATCH,
            ),
        )


class TestPortStreamBranches:
    """Fast path vs per-message identity where the port sampler
    branches: degree-1 leaves draw nothing (star), and a hub whose
    per-round need exceeds the read-ahead block draws directly (BA hub
    of degree 67; BATCH groups let it receive hundreds of tokens a
    round).  Each case also checks that the branch really ran."""

    @pytest.fixture
    def needs_seen(self, monkeypatch):
        seen: list[tuple[np.ndarray, np.ndarray, int]] = []
        original = PortStreams.ports

        def spy(streams, nodes, needs):
            seen.append(
                (streams._degrees[nodes], needs.copy(), streams.read_ahead)
            )
            return original(streams, nodes, needs)

        monkeypatch.setattr(PortStreams, "ports", spy)
        return seen

    @pytest.mark.parametrize("alpha", [None, 0.85], ids=["absorbing", "damped"])
    def test_star_leaves_draw_nothing(self, alpha, needs_seen):
        graph = star_graph(12)
        _assert_identical(
            graph, ProtocolConfig(**BASE, survival_alpha=alpha)
        )
        assert any((degrees == 1).any() for degrees, _, _ in needs_seen)

    @pytest.mark.parametrize("alpha", [None, 0.85], ids=["absorbing", "damped"])
    def test_hub_need_exceeds_the_block(self, alpha, needs_seen):
        graph = barabasi_albert_graph(300, 2, seed=5)
        assert max(graph.degree(node) for node in graph.nodes()) >= 60
        config = ProtocolConfig(
            length=6,
            walks_per_source=16,
            policy=TransportPolicy.BATCH,
            survival_alpha=alpha,
        )
        _assert_identical(graph, config, seed=3)
        expected_block = DEFAULT_READ_AHEAD if alpha is None else 0
        assert {block for _, _, block in needs_seen} == {expected_block}
        assert max(int(needs.max()) for _, needs, _ in needs_seen) > (
            DEFAULT_READ_AHEAD
        )

    def test_generator_calls_follow_refills(self, needs_seen):
        """Absorbing mode calls each generator once per refill, not once
        per node per round as per-node ``integers`` calls would."""
        graph = random_tree(40, seed=2)
        fast = _run(graph, ProtocolConfig(**BASE), vectorized=True)
        streams = fast.program(0)._engine._streams
        routed_node_rounds = sum(
            int((degrees > 1).sum()) for degrees, _, _ in needs_seen
        )
        assert routed_node_rounds > 1000
        assert 0 < streams.generator_calls < routed_node_rounds / 10


def _is_edge_seq_ordered(pending: np.ndarray) -> bool:
    order = np.lexsort((pending[:, 1], pending[:, 0]))
    return bool(np.array_equal(order, np.arange(len(pending))))


def test_pending_table_stays_edge_seq_ordered(monkeypatch):
    """``_emit`` orders the pending table with a stable sort on the edge
    alone; that equals the (edge, seq) order only while kept rows stay
    ordered and new rows arrive with larger seqs.  Check the invariant
    after every round of a backlogged QUEUE tree run."""
    original = CountingWalkEngine.end_round
    backlog: list[int] = []

    def checked(engine, *args):
        original(engine, *args)
        assert _is_edge_seq_ordered(engine._pending)
        backlog.append(len(engine._pending))

    monkeypatch.setattr(CountingWalkEngine, "end_round", checked)
    graph = random_tree(40, seed=2)
    parameters = WalkParameters(length=80, walks_per_source=6)
    estimate_rwbc_distributed(graph, parameters, seed=4)
    assert len(backlog) > 50 and max(backlog) > 40


class TestFastPathSelection:
    def test_record_messages_falls_back(self):
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        result = _run(
            graph, config, vectorized=None, record_messages=True
        )
        assert not result.fast_path
        assert result.message_log  # per-message fidelity preserved
        # ... and matches an explicit slow-path run.
        slow = _run(graph, config, vectorized=False)
        for node in graph.nodes():
            assert (
                result.program(node).betweenness
                == slow.program(node).betweenness
            )

    def test_auto_selects_fast_path(self):
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        assert _run(graph, config, vectorized=None).fast_path

    def test_vectorized_true_with_recording_raises(self):
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        with pytest.raises(ConfigError, match="record_messages"):
            _run(graph, config, vectorized=True, record_messages=True)

    def test_tracer_rides_fast_path(self):
        # Tracers no longer force per-message dispatch: the fast path
        # expands its aggregate rows into the same deliver events.
        graph = star_graph(6)
        config = ProtocolConfig(length=20, walks_per_source=4)
        tracer = Tracer()
        result = _run(graph, config, vectorized=None, tracer=tracer)
        assert result.fast_path
        assert len(tracer.events) > 0
        assert all(event.event == "deliver" for event in tracer.events)
