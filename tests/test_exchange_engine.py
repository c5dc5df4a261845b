"""Unit tests for the fast-path exchange driver's accounting.

:class:`~repro.core.exchange_engine.ExchangeEngine` prices each
round's column messages from the frozen count tensor as it sends them,
and ships the round as priced traffic (:meth:`BulkOutbox.push_priced`).
These tests drive it over a fabricated tensor and check every round
against the references: each pushed row priced as its
:class:`~repro.congest.message.Message`, and the same rows pushed as a
fields matrix through :meth:`BulkOutbox.push_rows` and drained.  On
lossy links (:class:`TestReliable`) the driver accepts each arriving
column on the receiver's slot for it, the reverse of the row's edge id.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.congest.errors import CongestViolation, ProtocolError
from repro.congest.faults import FaultPlan
from repro.congest.message import Message
from repro.congest.node import EdgeIndex
from repro.congest.transport import BandwidthPolicy, BulkOutbox
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exchange_engine import ExchangeEngine
from repro.core.parameters import WalkParameters
from repro.core.protocol import KIND_EXCHANGE
from repro.graphs.generators import erdos_renyi_graph

#: A small connected graph (adjacency in ascending neighbor order).
NEIGHBORS = {0: [1, 2], 1: [0, 2, 3], 2: [0, 1, 4], 3: [1], 4: [2]}
N = len(NEIGHBORS)
START = 10


def _fabricated_counts() -> np.ndarray:
    """A frozen ``(n, 2, n)`` tensor whose columns cross bit widths:
    0, 255/256 (8 -> 9 magnitude bits), and a few mid-sized values."""
    counts = np.zeros((N, 2, N), dtype=np.int64)
    counts[0, 0, 1] = 255
    counts[0, 1, 1] = 256
    counts[1, 0, 1] = 256
    counts[2, :, 2] = [1, 3]
    counts[3, 0, 3] = 1023
    counts[3, 1, 3] = 1024
    counts[4, :, 4] = [7, 8]
    return counts


class _Program:
    """Just enough of an RWBCNodeProgram for the driver: by default it
    relayed ``done`` the round before ``START``."""

    def __init__(self, node: int, relay: int = START - 1) -> None:
        self.node_id = node
        self.neighbors = NEIGHBORS[node]
        self.exchange_start_round = relay
        self.finished_at = None

    def _finish(self, round_number: int) -> None:
        self.finished_at = round_number


def _edges() -> EdgeIndex:
    return EdgeIndex(
        tuple(range(N)),
        [np.array(NEIGHBORS[v], dtype=np.int64) for v in range(N)],
    )


def _driver(counts: np.ndarray) -> tuple[ExchangeEngine, SimpleNamespace]:
    edges = _edges()
    driver = ExchangeEngine(SimpleNamespace(counts=counts), edges)
    programs = [_Program(node) for node in range(N)]
    for program in programs:
        driver.register(program)
    engine = SimpleNamespace(
        counts=counts, src=edges.src, dst=edges.dst, programs=programs
    )
    return driver, engine


def _per_edge(traffic, codes) -> dict:
    return {
        int(code): (int(messages), int(bits))
        for code, messages, bits in zip(
            codes, traffic.edge_messages, traffic.edge_bits
        )
    }


def _reference(policy, engine, source, control=()):
    """The round as a fields matrix through push_rows + drain."""
    outbox = BulkOutbox(policy, _edges())
    fields = np.empty((len(engine.src), 3), dtype=np.int64)
    fields[:, 0] = source
    fields[:, 1] = engine.counts[engine.src, 0, source]
    fields[:, 2] = engine.counts[engine.src, 1, source]
    outbox.push_rows(KIND_EXCHANGE, engine.src, engine.dst, fields)
    return outbox.drain(N, list(control))


POLICY = BandwidthPolicy(n=N)


class TestPricedRounds:
    def test_every_round_matches_push_rows(self):
        driver, engine = _driver(_fabricated_counts())
        outbox = BulkOutbox(POLICY, _edges())
        # Both drains report one load per edge, in edge id order.
        codes = engine.src * N + engine.dst
        for source in range(N):
            driver.end_round(START + source, {}, None, outbox)
            priced = outbox.drain(N, [])
            reference = _reference(POLICY, engine, source)
            assert priced.traffic == reference.traffic
            assert _per_edge(priced.traffic, codes) == _per_edge(
                reference.traffic, codes
            )
            ids, fields, multiplicity = priced.take(KIND_EXCHANGE)
            assert fields is None
            assert (ids == np.arange(len(engine.src))).all()
            assert (multiplicity == 1).all()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint8])
    def test_rows_are_priced_as_messages(self, dtype):
        """Every pushed row costs what node ``v``'s column-``s`` message
        to ``u`` costs, for each cell type the tensor can have (uint8
        cells saturate the fabricated 256 and 1024 at 255)."""
        counts = np.minimum(_fabricated_counts(), np.iinfo(dtype).max)
        counts = counts.astype(dtype)
        driver, _ = _driver(counts)
        pushed = []
        recorder = SimpleNamespace(
            push_priced=lambda kind, *rows: pushed.append((kind, *rows))
        )
        for source in range(N):
            driver.end_round(START + source, {}, None, recorder)
            kind, ids, row_bits = pushed[-1]
            assert kind == KIND_EXCHANGE
            senders, receivers = _edges().src[ids], _edges().dst[ids]
            expected = [
                Message(
                    v,
                    u,
                    KIND_EXCHANGE,
                    (source, int(counts[v, 0, source]), int(counts[v, 1, source])),
                ).bits
                for v, u in zip(senders.tolist(), receivers.tolist())
            ]
            assert row_bits.tolist() == expected

    def test_shared_round_runs_the_merge(self):
        """Control traffic on the same edges: the accounting of the
        shared loads must still equal the reference (two messages on
        edge 0 -> 1)."""
        driver, engine = _driver(_fabricated_counts())
        outbox = BulkOutbox(POLICY, _edges())
        control = [Message(0, 1, "term", (5,)), Message(4, 2, "done", (40,))]
        driver.end_round(START + 1, {}, None, outbox)
        priced = outbox.drain(N, control)
        reference = _reference(POLICY, engine, 1, control)
        assert priced.traffic == reference.traffic
        assert priced.traffic.max_edge_messages == 2
        for name in ("edge_messages", "edge_bits"):
            assert (
                getattr(priced.traffic, name) == getattr(reference.traffic, name)
            ).all()

    def test_finish_round_calls_every_program(self):
        """The round after the last column sends nothing, and the round
        after that, ``start + n + 1``, finishes every node."""
        driver, engine = _driver(_fabricated_counts())
        outbox = BulkOutbox(POLICY, _edges())
        for source in range(N):
            driver.end_round(START + source, {}, None, outbox)
            outbox.drain(N, [])
        driver.end_round(START + N, {}, None, outbox)
        assert not outbox.drain(N, [])
        assert all(p.finished_at is None for p in engine.programs)
        driver.end_round(START + N + 1, {}, None, outbox)
        for program in engine.programs:
            assert program.finished_at == START + N + 1
            for neighbor, slab in program._neighbor_counts.items():
                assert np.shares_memory(slab, engine.counts)
                assert (slab == engine.counts[neighbor]).all()
        assert not driver._programs
        assert not outbox.drain(N, [])


class TestStaggeredStarts:
    """Each node's columns are paced from the round it relayed
    ``done``: depth 0 at round ``START - 1``, depth ``d`` ``d`` rounds
    later, as the wave reaches it down the tree rooted at node 0."""

    DEPTH = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}

    def _staggered(self):
        counts = _fabricated_counts()
        driver = ExchangeEngine(SimpleNamespace(counts=counts), _edges())
        programs = {
            v: _Program(v, START - 1 + d) for v, d in self.DEPTH.items()
        }
        return driver, programs, counts

    def test_each_node_sends_its_own_column(self):
        driver, programs, counts = self._staggered()
        pushed = []
        recorder = SimpleNamespace(
            push_priced=lambda kind, *rows: pushed.append(rows)
        )
        for round_number in range(START - 1, START + N + 4):
            for v, program in programs.items():
                if program.exchange_start_round == round_number:
                    driver.register(program)
            pushed.clear()
            driver.end_round(round_number, {}, None, recorder)
            expected = []
            for v in range(N):
                column = round_number - (START + self.DEPTH[v])
                if 0 <= column < N:
                    for u in NEIGHBORS[v]:
                        message = Message(
                            v,
                            u,
                            KIND_EXCHANGE,
                            (
                                column,
                                int(counts[v, 0, column]),
                                int(counts[v, 1, column]),
                            ),
                        )
                        expected.append((v, u, message.bits))
            got = []
            if pushed:
                ((ids, row_bits),) = pushed
                senders, receivers = _edges().src[ids], _edges().dst[ids]
                got = list(
                    zip(senders.tolist(), receivers.tolist(), row_bits.tolist())
                )
            assert got == expected
        for v, program in programs.items():
            assert program.finished_at == START + self.DEPTH[v] + N + 1

    def test_missing_neighbor_is_a_protocol_error(self):
        """Node 4 never hears ``done``: its neighbor 2 cannot finish,
        and the driver says which neighbor is missing."""
        driver, programs, _ = self._staggered()
        outbox = BulkOutbox(POLICY, _edges())
        for round_number in range(START - 1, START + N + 2):
            for v, program in programs.items():
                if v != 4 and program.exchange_start_round == round_number:
                    driver.register(program)
            driver.end_round(round_number, {}, None, outbox)
            outbox.drain(N, [])
        assert programs[0].finished_at == START + N + 1
        with pytest.raises(ProtocolError, match="neighbor 4"):
            driver.end_round(START + N + 2, {}, None, outbox)
        assert programs[1].finished_at == START + N + 2

    def test_late_neighbor_is_a_protocol_error(self):
        """A neighbor two rounds behind has not sent its last column by
        the finish round: the wave is broken, not just slow."""
        counts = _fabricated_counts()
        driver = ExchangeEngine(SimpleNamespace(counts=counts), _edges())
        driver.register(_Program(3))
        driver.register(_Program(1, START + 1))
        outbox = BulkOutbox(POLICY, _edges())
        for round_number in range(START, START + N + 1):
            driver.end_round(round_number, {}, None, outbox)
            outbox.drain(N, [])
        with pytest.raises(ProtocolError, match="neighbor 1"):
            driver.end_round(START + N + 1, {}, None, outbox)


class TestBudget:
    def test_oversized_column_raises_in_its_round(self):
        counts = _fabricated_counts()
        counts[2, 0, 3] = 1 << 20
        counts[2, 1, 3] = 1 << 20
        driver, engine = _driver(counts)
        outbox = BulkOutbox(POLICY, _edges())
        for source in range(3):
            driver.end_round(START + source, {}, None, outbox)
            outbox.drain(N, [])
        with pytest.raises(CongestViolation) as raised:
            driver.end_round(START + 3, {}, None, outbox)
        assert re.search(r"from node 2 is 55 bits", str(raised.value))
        with pytest.raises(CongestViolation) as reference:
            _reference(POLICY, engine, 3)
        assert str(raised.value) == str(reference.value)


class TestReliable:
    """Lossy links under a duplicate- and delay-heavy plan, on the fast
    path: the driver accepts every arriving column on its receiver's
    slot - the reverse of the row's edge id - so each directed edge
    counts each of the sender's ``n`` columns once, and the duplicates
    that reach finished nodes are settled, so every channel of the run's
    table ends drained."""

    PLAN = FaultPlan(seed=12, duplicate_rate=0.3, delay_rate=0.3, max_delay=30)

    def test_columns_count_once_and_the_table_drains(self, monkeypatch):
        graph = erdos_renyi_graph(6, 0.5, seed=2, ensure_connected=True)
        drivers, late = [], []
        accept = ExchangeEngine._accept

        def spy(driver, rows):
            if not drivers:
                drivers.append(driver)
            assert driver is drivers[0]
            ids = rows[0]
            edges, table = driver._edges, driver._table
            slots = edges.reverse[ids]
            assert (table.owners[slots] == edges.dst[ids]).all()
            assert (table.peers[slots] == edges.src[ids]).all()
            settled = accept(driver, rows)
            late.append(len(settled))
            return settled

        monkeypatch.setattr(ExchangeEngine, "_accept", spy)
        result = estimate_rwbc_distributed(
            graph,
            WalkParameters(length=20, walks_per_source=6),
            seed=3,
            faults=self.PLAN,
            vectorized=True,
        )
        faults = result.metrics.faults
        assert faults["duplicated"] > 0 and faults["delayed"] > 0
        (driver,) = drivers
        assert not driver._programs
        assert (driver._received == driver.n).all()
        assert sum(late) > 0
        assert driver._table.drained_nodes().all()
