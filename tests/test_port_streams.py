"""Unit tests of the walk streams: counter-based next hops and thinning.

Node ``v``'s ``j``-th walk draw is ``_mix64(key_v + j * GOLDEN)``; a
port is Lemire's rule on the draw's high 32 bits, and a rejected draw is
skipped for the next counter value (:mod:`repro.core.walk_engine`).
The reference here is that definition computed in Python integers, one
draw at a time, independent of the array code under test.
"""

import numpy as np
import pytest
from scipy import stats

from repro.congest.faults import FaultPlan
from repro.congest.node import LazyGenerator, seed_entropy
from repro.congest.primitives.leader import LeaderElectionProgram
from repro.congest.scheduler import Simulator
from repro.congest.splitmix import GOLDEN, MASK64, _mix64_int
from repro.congest.transport import BandwidthPolicy
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, leader_rank, make_protocol_factory
from repro.core.walk_engine import thin_groups, walk_key, walk_ports
from repro.graphs.generators import erdos_renyi_graph, star_graph

#: 2**31 + 1 has threshold 2**31 - 1: about half of all draws are
#: rejected, so nearly every segment re-hashes.
DEGREES = [1, 2, 3, 7, 66, 2**31 + 1]


def _streams(degrees, start=0, seed=7):
    keys = np.array(
        [walk_key(seed, node) for node in range(len(degrees))],
        dtype=np.uint64,
    )
    counters = np.full(len(degrees), start, dtype=np.int64)
    return (keys, counters), np.array(degrees, dtype=np.int64)


class _Reference:
    """The stream definition in Python ints, one draw at a time."""

    def __init__(self, streams, degrees):
        keys, counters = streams
        self.keys = [int(key) for key in keys]
        self.counters = [int(counter) for counter in counters]
        self.degrees = [int(degree) for degree in degrees]

    def draw(self, node):
        value = _mix64_int(
            (self.keys[node] + self.counters[node] * GOLDEN) & MASK64
        )
        self.counters[node] += 1
        return value

    def ports(self, nodes, needs):
        out = []
        for node, need in zip(nodes, needs):
            degree = self.degrees[node]
            for _ in range(need):
                if degree == 1:
                    out.append(0)
                    continue
                while True:
                    m = (self.draw(node) >> 32) * degree
                    if m % 2**32 >= (2**32 - degree) % degree:
                        out.append(m >> 32)
                        break
        return out


def _check(streams, degrees, reference, nodes, needs):
    nodes = np.asarray(nodes, dtype=np.int64)
    needs = np.asarray(needs, dtype=np.int64)
    got = walk_ports(streams, degrees, nodes, needs)
    assert got.dtype == np.int64
    assert got.tolist() == reference.ports(nodes.tolist(), needs.tolist())
    assert streams[1].tolist() == reference.counters


@pytest.mark.parametrize("start", [0, 5, 256])
@pytest.mark.parametrize("degree", DEGREES)
def test_single_node_matches_integers(degree, start):
    streams, degrees = _streams([degree], start)
    reference = _Reference(streams, degrees)
    for need in [1, 3, 17, 2, 300, 4]:
        _check(streams, degrees, reference, [0], [need])


@pytest.mark.parametrize("start", [0, 8])
def test_many_nodes_one_pass(start):
    """Serving many nodes in one call draws what serving them one at a
    time would: a draw depends on its node's key and counter only."""
    rng = np.random.default_rng(3)
    streams, degrees = _streams(DEGREES, start)
    reference = _Reference(streams, degrees)
    for _ in range(200):
        nodes = np.sort(
            rng.choice(len(DEGREES), size=rng.integers(1, 7), replace=False)
        )
        needs = rng.integers(1, 40, size=len(nodes))
        _check(streams, degrees, reference, nodes, needs)


def test_degree_one_consumes_nothing():
    streams, degrees = _streams([1, 2])
    ports = walk_ports(
        streams, degrees, np.array([0, 1]), np.array([50, 3])
    )
    assert ports[:50].tolist() == [0] * 50
    assert streams[1].tolist() == [0, 3]


def test_forced_rejection_rehashes_at_next_counter():
    degree = 2**31 + 1
    streams, degrees = _streams([degree])
    reference = _Reference(*_streams([degree]))
    verdicts = []
    for _ in range(64):
        m = (reference.draw(0) >> 32) * degree
        rejected = m % 2**32 < (2**32 - degree) % degree
        verdicts.append(None if rejected else m >> 32)
    first = verdicts.index(None)
    # The draws before the first rejection, then the rejected counter's
    # successor: the rejected draw is skipped, not re-drawn elsewhere.
    need = first + 1
    ports = walk_ports(streams, degrees, np.array([0]), np.array([need]))
    accepted = [port for port in verdicts if port is not None][:need]
    assert ports.tolist() == accepted
    consumed = int(streams[1][0])
    assert consumed > need
    assert verdicts[consumed - 1] is not None


def test_streams_are_pinned():
    """The stream keys and first ports of a fixed seed: a change to the
    key derivation or the draw changes every run's output."""
    assert walk_key(1001, 0) == 0x8ED5D346D82B355B
    assert walk_key(1001, 1) == 0x6A04218344A8CCCC
    assert leader_rank(1001, 0, 10) == 446
    streams, degrees = _streams([5, 9], seed=1001)
    ports = walk_ports(streams, degrees, np.array([0, 1]), np.array([6, 6]))
    assert ports.tolist() == [3, 4, 2, 3, 0, 3, 0, 1, 3, 0, 4, 5]


@pytest.mark.parametrize("degree", [2, 3, 7, 64, 1000])
def test_ports_are_uniform_per_degree(degree):
    """Chi-square goodness of fit of the ports of 40 nodes' streams."""
    nodes = 40
    streams, degrees = _streams([degree] * nodes, seed=11)
    per_node = 100 * degree // nodes + 1
    ports = walk_ports(
        streams,
        degrees,
        np.arange(nodes),
        np.full(nodes, per_node, dtype=np.int64),
    )
    assert ports.min() >= 0 and ports.max() < degree
    observed = np.bincount(ports, minlength=degree)
    assert stats.chisquare(observed).pvalue > 1e-3


def test_thinning_takes_one_draw_per_token():
    alpha = 0.3
    streams, _ = _streams([2, 2, 2])
    nodes = np.array([0, 0, 2], dtype=np.int64)
    counts = np.array([4000, 1000, 3000], dtype=np.int64)
    survivors = thin_groups(
        streams, np.array([0, 2]), np.array([5000, 3000]), counts, alpha
    )
    assert streams[1].tolist() == [5000, 0, 3000]
    reference = _Reference(*_streams([2, 2, 2]))
    expected = []
    for node, count in zip(nodes.tolist(), counts.tolist()):
        expected.append(
            sum(
                (reference.draw(node) >> 11) * 2.0**-53 < alpha
                for _ in range(count)
            )
        )
    assert survivors.tolist() == expected
    assert abs(survivors.sum() / counts.sum() - alpha) < 0.02


def test_walk_keys_ignore_the_fault_plan_seed():
    """Walk keys and leader ranks come from the protocol seed and the
    node, never from the fault plan's seed."""
    graph = erdos_renyi_graph(12, 0.4, seed=2, ensure_connected=True)
    config = ProtocolConfig(length=6, walks_per_source=2)
    keys = {}
    for plan_seed in (1, 2):
        result = Simulator(
            graph,
            make_protocol_factory(config),
            policy=BandwidthPolicy(n=12, messages_per_edge=6),
            seed=5,
            faults=FaultPlan(seed=plan_seed, drop_rate=0.05),
        ).run()
        programs = result.programs
        assert result.metrics.faults["dropped"] > 0
        keys[plan_seed] = [
            (programs[v]._walks.walk_key, programs[v]._flood.rank)
            for v in range(12)
        ]
    assert keys[1] == keys[2]
    assert keys[1] == [
        (walk_key(5, v), leader_rank(5, v, 12)) for v in range(12)
    ]


@pytest.mark.parametrize("seed", [1001, None])
def test_lazy_generator_is_the_spawned_child(seed):
    """A program that does read ``rng`` gets the generator
    ``default_rng(seed).spawn(n)[i]`` would give it."""
    sequence = np.random.SeedSequence(seed)
    children = np.random.default_rng(sequence).spawn(4)
    assert seed_entropy(seed if seed is not None else sequence.entropy) == (
        sequence.entropy
    )
    for index, child in enumerate(children):
        lazy = LazyGenerator(sequence.entropy, index)
        assert lazy.integers(0, 2**62, size=8).tolist() == (
            child.integers(0, 2**62, size=8).tolist()
        )


@pytest.fixture
def built(monkeypatch):
    """Counts of the ``SeedSequence``s and ``Generator``s built while
    the fixture is active."""
    counts = {"SeedSequence": 0, "Generator": 0}
    for name in counts:
        original = getattr(np.random, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    return counts


@pytest.mark.parametrize("vectorized", [True, False], ids=["fast", "slow"])
def test_rwbc_run_builds_no_generator(vectorized, built):
    graph = star_graph(6)
    parameters = WalkParameters(length=8, walks_per_source=3)
    estimate_rwbc_distributed(
        graph, parameters, seed=3, vectorized=vectorized
    )
    assert built == {"SeedSequence": 0, "Generator": 0}
    # The count does see a program that draws: leader ranks from rng.
    Simulator(graph, LeaderElectionProgram, seed=3).run()
    assert built == {"SeedSequence": 6, "Generator": 6}


def test_engine_keys_every_node_from_the_run_seed():
    """The fast path's network-wide streams hold each node's own key."""
    graph = star_graph(5)
    config = ProtocolConfig(length=4, walks_per_source=2)
    result = Simulator(graph, make_protocol_factory(config), seed=9).run()
    engine = result.programs[0]._engine
    keys, counters = engine._streams
    assert keys.tolist() == [walk_key(9, v) for v in range(5)]
    # Leaves have degree 1: only the hub drew ports.
    assert counters[1:].tolist() == [0, 0, 0, 0]
    assert counters[0] > 0
