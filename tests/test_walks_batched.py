"""Tests for the batched-walk kernel and the scheduler fast path.

Two layers:

* unit tests of the shared kernels (canonical group algebra in
  :mod:`repro.walks.batched`, the per-edge FIFO queues and their budget
  rule in :mod:`repro.core.walk_engine`, CSR stepping);
* seeded equivalence of the simulator's two execution paths: the
  per-message loop and the vectorized fast path (network-wide
  :class:`~repro.core.walk_engine.CountingWalkEngine`) must produce
  *identical* tallies, estimates, round counts, and bandwidth
  accounting - not statistically similar, byte-equal.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.errors import ConfigError
from repro.congest.scheduler import Simulator
from repro.congest.trace import Tracer
from repro.congest.splitmix import GOLDEN, _mix64_array
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core import walk_engine
from repro.core.walk_engine import (
    CountingWalkEngine,
    EdgeQueues,
    TransportPolicy,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_graph,
    random_tree,
    star_graph,
)
from repro.walks.batched import (
    aggregate_network_groups,
    csr_arrays,
    step_tokens,
)


# ---------------------------------------------------------------------------
# Kernel unit tests
# ---------------------------------------------------------------------------
def _one_node(sources, remainings, halves, counts):
    """``aggregate_network_groups`` on a single node's arrivals."""
    nodes = np.zeros(len(sources), dtype=np.int64)
    return aggregate_network_groups(nodes, sources, remainings, halves, counts)


class TestAggregateGroups:
    """Group aggregation of one node's arrivals."""

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        out = _one_node(empty, empty, empty, empty)
        assert len(out) == 5
        assert all(len(a) == 0 for a in out)


class TestAggregateNetworkGroups:
    def test_single_node_merges_duplicates_and_sorts(self):
        sources = np.array([3, 1, 3, 1], dtype=np.int64)
        remainings = np.array([5, 2, 5, 2], dtype=np.int64)
        halves = np.array([0, 1, 0, 1], dtype=np.int64)
        counts = np.array([2, 1, 4, 7], dtype=np.int64)
        n, s, r, h, c = _one_node(sources, remainings, halves, counts)
        assert n.tolist() == [0, 0]
        assert s.tolist() == [1, 3]
        assert r.tolist() == [2, 5]
        assert h.tolist() == [1, 0]
        assert c.tolist() == [8, 6]

    def test_single_node_order_independent(self):
        rng = np.random.default_rng(0)
        sources = rng.integers(0, 5, size=40)
        remainings = rng.integers(0, 7, size=40)
        halves = rng.integers(0, 2, size=40)
        counts = rng.integers(1, 9, size=40)
        forward = _one_node(sources, remainings, halves, counts)
        perm = rng.permutation(40)
        shuffled = _one_node(
            sources[perm], remainings[perm], halves[perm], counts[perm]
        )
        for a, b in zip(forward, shuffled):
            assert np.array_equal(a, b)

    def test_matches_per_node_aggregation(self):
        rng = np.random.default_rng(1)
        # The second case puts ~55 rows on each key, so the (unstable)
        # sort mixes every run's rows.
        for size, nodes_hi, sources_hi, remainings_hi in (
            (80, 6, 10, 12),
            (2000, 3, 3, 2),
        ):
            nodes = rng.integers(0, nodes_hi, size=size)
            sources = rng.integers(0, sources_hi, size=size)
            remainings = rng.integers(0, remainings_hi, size=size)
            halves = rng.integers(0, 2, size=size)
            counts = rng.integers(1, 5, size=size)
            gn, gs, gr, gh, gc = aggregate_network_groups(
                nodes, sources, remainings, halves, counts
            )
            assert np.all(gn[:-1] <= gn[1:])  # sorted by node
            for node in np.unique(nodes):
                seg = gn == node
                keys = list(
                    zip(gs[seg].tolist(), gr[seg].tolist(), gh[seg].tolist())
                )
                # Canonical order: strictly ascending, so each key once.
                assert all(a < b for a, b in zip(keys, keys[1:]))
                expected = Counter()
                for i in np.nonzero(nodes == node)[0].tolist():
                    key = (
                        int(sources[i]), int(remainings[i]), int(halves[i])
                    )
                    expected[key] += int(counts[i])
                assert dict(zip(keys, gc[seg].tolist())) == dict(expected)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        out = aggregate_network_groups(empty, empty, empty, empty, empty)
        assert all(len(a) == 0 for a in out)


def _reference_takes(
    edges: np.ndarray,
    counts: np.ndarray,
    budget: int | np.ndarray,
    policy: TransportPolicy,
) -> np.ndarray:
    """The per-edge budget rule over a whole pending table in (edge,
    seq) order, as emission applied it before per-edge queues: how many
    tokens each row sends.  ``budget`` is a scalar or one per row."""
    if not len(edges):
        return np.zeros(0, dtype=np.int64)
    boundary = np.concatenate(([True], edges[1:] != edges[:-1]))
    starts = np.flatnonzero(boundary)
    lengths = np.diff(np.append(starts, len(edges)))
    if policy is TransportPolicy.QUEUE:
        prior = np.cumsum(counts) - counts
        prior_within = prior - np.repeat(prior[starts], lengths)
        return np.minimum(np.maximum(budget - prior_within, 0), counts)
    rank = np.arange(len(edges), dtype=np.int64) - np.repeat(starts, lengths)
    return np.where(rank < budget, counts, 0)


def _entries(edges, counts, seq_start=0) -> np.ndarray:
    """Pending-table rows on ``edges`` (edge-major) with ``counts``
    tokens; seqs ascend from ``seq_start`` and the source column
    repeats the seq, so a row is recognizable after it moves."""
    k = len(edges)
    entries = np.zeros((k, 6), dtype=np.int64)
    entries[:, 0] = edges
    entries[:, 1] = np.arange(seq_start, seq_start + k)
    entries[:, 2] = entries[:, 1]
    entries[:, 3] = 5
    entries[:, 4] = entries[:, 1] % 2
    entries[:, 5] = counts
    return entries


def _append(queues: EdgeQueues, entries: np.ndarray) -> None:
    """Append edge-major rows, marking each edge's first row."""
    firsts = np.flatnonzero(np.diff(entries[:, 0], prepend=-1))
    queues.append(entries, firsts)


def _chains(queues: EdgeQueues) -> dict[int, np.ndarray]:
    """Every non-empty queue's live rows, head first, by walking its
    chain - checking the tail slot and the edge's token total on the
    way."""
    chains = {}
    for edge in range(queues.num_edges):
        rows = []
        row = int(queues._next[edge])
        last = edge
        while row != queues._null:
            assert len(rows) < queues.rows, f"edge {edge}'s chain loops"
            rows.append(queues._rows[row].copy())
            last, row = row, int(queues._next[row])
        assert int(queues._tail[edge]) == last
        assert int(queues.edge_tokens[edge]) == sum(row[5] for row in rows)
        if rows:
            chains[edge] = np.array(rows)
    return chains


#: A hand table: rows on edges 0, 0, 0, 1, 1, 2 holding these tokens.
HAND_EDGES = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
HAND_COUNTS = np.array([2, 2, 1, 5, 1, 1], dtype=np.int64)


def _hand_queues() -> EdgeQueues:
    queues = EdgeQueues(3)
    _append(queues, _entries(HAND_EDGES, HAND_COUNTS))
    return queues


class TestBudgetTakes:
    """:meth:`EdgeQueues.take` - the per-edge budget rule both emission
    slices call - against hand-computed tables.  The rows go in
    edge-major, each edge's rows its FIFO queue, head first."""

    def test_queue_splits_the_head_and_carries_the_rest(self):
        queues = _hand_queues()
        sent, taken = queues.take(3, TransportPolicy.QUEUE)
        # Edge 0 sends 2 + 1 of its 3 slots' worth; edge 1's first row
        # is split 3 of 5; edge 2 sends its lone token.
        assert sent[:, 1].tolist() == [0, 1, 3, 5]
        assert taken.tolist() == [2, 1, 3, 1]
        # Rows leave as they stood: the counts are the pre-take ones.
        assert sent[:, 5].tolist() == [2, 2, 5, 1]
        chains = _chains(queues)
        assert sorted(chains) == [0, 1]
        assert chains[0][:, 1].tolist() == [1, 2]
        assert chains[0][:, 5].tolist() == [1, 1]
        assert chains[1][:, 1].tolist() == [3, 4]
        assert chains[1][:, 5].tolist() == [2, 1]
        assert (queues.rows, int(queues.edge_tokens.sum())) == (4, 5)
        # Next round the split remainders are still at their heads.
        sent, taken = queues.take(3, TransportPolicy.QUEUE)
        assert sent[:, 1].tolist() == [1, 2, 3, 4]
        assert taken.tolist() == [1, 1, 2, 1]
        assert (queues.rows, int(queues.edge_tokens.sum())) == (0, 0)
        assert _chains(queues) == {}

    def test_batch_takes_whole_rows_up_to_budget(self):
        sent, taken = _hand_queues().take(2, TransportPolicy.BATCH)
        assert sent[:, 1].tolist() == [0, 1, 3, 4, 5]
        assert taken.tolist() == [2, 2, 5, 1, 1]
        sent, taken = _hand_queues().take(1, TransportPolicy.BATCH)
        assert sent[:, 1].tolist() == [0, 3, 5]
        assert taken.tolist() == [2, 5, 1]

    @pytest.mark.parametrize(
        "policy, expected",
        [(TransportPolicy.QUEUE, [1]), (TransportPolicy.BATCH, [2])],
        ids=["queue", "batch"],
    )
    def test_per_edge_budget_with_empty_and_overdrawn_edges(
        self, policy, expected
    ):
        # Edge 0 keeps one slot; edge 1's sender is crashed (0 slots);
        # edge 2's retransmits already spent more than the budget.
        queues = _hand_queues()
        sent, taken = queues.take(np.array([1, 0, -1]), policy)
        assert sent[:, 1].tolist() == [0]
        assert taken.tolist() == expected
        assert queues.edge_tokens.sum() == HAND_COUNTS.sum() - expected[0]

    @pytest.mark.parametrize(
        "policy", list(TransportPolicy), ids=lambda policy: policy.value
    )
    def test_rows_leave_in_fifo_order(self, policy):
        rng = np.random.default_rng(9)
        edges = np.sort(rng.integers(0, 7, size=60))
        counts = rng.integers(1, 6, size=60)
        queues = EdgeQueues(7)
        _append(queues, _entries(edges, counts))
        sent, taken = queues.take(4, policy)
        assert np.all((taken > 0) & (taken <= sent[:, 5]))
        assert np.all(np.diff(sent[:, 0]) >= 0)
        for edge in np.unique(edges).tolist():
            mine = sent[:, 0] == edge
            row_take = taken[mine].tolist()
            row_count = counts[edges == edge].tolist()
            # The sent rows are the head of the queue, and only the
            # last may be partial.
            assert sent[mine, 1].tolist() == (
                np.flatnonzero(edges == edge)[: len(row_take)].tolist()
            )
            assert row_take[:-1] == row_count[: len(row_take) - 1]
            if policy is TransportPolicy.QUEUE:
                assert sum(row_take) == min(4, sum(row_count))
            else:
                assert row_take == row_count[:4]


class TestEdgeQueues:
    """Appends, long budgets, compaction and growth of the queues."""

    def test_append_joins_the_tails(self):
        queues = _hand_queues()
        queues.take(1, TransportPolicy.BATCH)
        _append(queues, _entries(np.array([0, 2, 2]), [7, 8, 9], seq_start=6))
        chains = _chains(queues)
        assert chains[0][:, 1].tolist() == [1, 2, 6]
        assert chains[1][:, 1].tolist() == [4]
        assert chains[2][:, 1].tolist() == [7, 8]

    def test_a_budget_beyond_the_backlog_drains_it(self):
        queues = _hand_queues()
        sent, taken = queues.take(10**9, TransportPolicy.QUEUE)
        assert taken.tolist() == HAND_COUNTS.tolist()
        assert queues.rows == 0

    def test_compaction_and_growth_keep_fifo_order(self, monkeypatch):
        compactions = []
        original = EdgeQueues._compact

        def spy(queues):
            compactions.append(queues.rows)
            return original(queues)

        monkeypatch.setattr(EdgeQueues, "_compact", spy)
        rng = np.random.default_rng(3)
        queues = EdgeQueues(5)
        model = _Model(5)
        seq = 0
        for step in range(120):
            # Bursts of large appends grow the store; rounds of takes
            # in between leave dead rows for compaction to drop.
            size = 40 if step % 10 == 0 else 3
            entries = _entries(
                np.sort(rng.integers(0, 5, size=size)),
                rng.integers(1, 4, size=size),
                seq,
            )
            seq += size
            _append(queues, entries)
            model.append(entries)
            _check_take(queues, model, 2, TransportPolicy.QUEUE)
        assert compactions
        assert len(queues._next) > queues._base + 16


class _Model:
    """The reference pending table: all rows in (edge, seq) order."""

    def __init__(self, num_edges: int) -> None:
        self.num_edges = num_edges
        self.table = np.empty((0, 6), dtype=np.int64)

    def append(self, entries: np.ndarray) -> None:
        table = np.concatenate((self.table, entries))
        self.table = table[np.lexsort((table[:, 1], table[:, 0]))]

    def take(self, budget, policy) -> tuple[np.ndarray, np.ndarray]:
        edges = self.table[:, 0]
        counts = self.table[:, 5]
        row_budget = budget[edges] if isinstance(budget, np.ndarray) else budget
        take = _reference_takes(edges, counts, row_budget, policy)
        sending = take > 0
        sent = self.table[sending].copy()
        self.table[:, 5] -= take
        self.table = self.table[self.table[:, 5] > 0]
        return sent, take[sending]


def _check_take(queues, model, budget, policy) -> None:
    sent, taken = queues.take(budget, policy)
    expected_sent, expected_taken = model.take(budget, policy)
    assert np.array_equal(sent, expected_sent)
    assert np.array_equal(taken, expected_taken)
    chains = _chains(queues)
    live = (
        np.concatenate([chains[edge] for edge in sorted(chains)])
        if chains
        else np.empty((0, 6), dtype=np.int64)
    )
    assert np.array_equal(live, model.table)
    assert queues.rows == len(model.table)
    assert queues.edge_tokens.sum() == model.table[:, 5].sum()


_EDGES = 6


@st.composite
def _queue_ops(draw):
    """A policy and a run of appends (edge-sorted rows) and takes (a
    scalar budget, or one per edge, zero and overdrawn included)."""
    policy = draw(st.sampled_from(list(TransportPolicy)))
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            edges = sorted(
                draw(st.lists(st.integers(0, _EDGES - 1), max_size=12))
            )
            counts = draw(
                st.lists(
                    st.integers(1, 6), min_size=len(edges), max_size=len(edges)
                )
            )
            ops.append(("append", edges, counts))
        elif draw(st.booleans()):
            ops.append(("take", draw(st.integers(0, 5))))
        else:
            budget = draw(
                st.lists(
                    st.integers(-1, 5), min_size=_EDGES, max_size=_EDGES
                )
            )
            ops.append(("take", np.array(budget, dtype=np.int64)))
    return policy, ops


@settings(max_examples=150, deadline=None)
@given(_queue_ops())
def test_queues_match_the_sorted_table(case):
    """Random appends and takes under either policy, through growth and
    compaction: every round sends exactly the rows the budget rule picks
    from the whole (edge, seq)-sorted table, and the queues hold what
    that table keeps."""
    policy, ops = case
    queues = EdgeQueues(_EDGES)
    model = _Model(_EDGES)
    seq = 0
    for op in ops:
        if op[0] == "append":
            _, edges, counts = op
            entries = _entries(np.array(edges, dtype=np.int64), counts, seq)
            seq += len(edges)
            _append(queues, entries)
            model.append(entries)
        else:
            _check_take(queues, model, op[1], policy)


# ---------------------------------------------------------------------------
# Round twin: the counting round against a frozen copy of its composition
# ---------------------------------------------------------------------------
def _ref_segments(values):
    boundary = np.empty(len(values), dtype=bool)
    boundary[0] = True
    np.not_equal(values[1:], values[:-1], out=boundary[1:])
    starts = boundary.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = len(values)
    return starts, ends


def _ref_aggregate(nodes, sources, remainings, halves, counts):
    source_base = int(sources.max()) + 1
    remaining_base = int(remainings.max()) + 1
    key = (
        (nodes * source_base + sources) * remaining_base + remainings
    ) * 2 + halves
    order = np.argsort(key)
    starts, _ = _ref_segments(key[order])
    first = order[starts]
    return (
        nodes[first],
        sources[first],
        remainings[first],
        halves[first],
        np.add.reduceat(counts[order], starts).astype(np.int64),
    )


def _ref_draw(streams, nodes, needs):
    keys, counters = streams
    first = counters[nodes]
    counters[nodes] = first + needs
    ends = np.cumsum(needs)
    steps = np.arange(int(needs.sum()), dtype=np.uint64) + np.repeat(
        (first - (ends - needs)).astype(np.uint64), needs
    )
    return _mix64_array(
        np.repeat(keys[nodes], needs) + steps * np.uint64(GOLDEN)
    )


def _ref_ports(streams, degrees, nodes, needs):
    node_degrees = degrees[nodes]
    routed = node_degrees > 1
    if not routed.all():
        ports = np.zeros(int(needs.sum()), dtype=np.int64)
        if routed.any():
            ports[np.repeat(routed, needs)] = _ref_ports(
                streams, degrees, nodes[routed], needs[routed]
            )
        return ports
    node_degrees = node_degrees.astype(np.uint64)
    m = (_ref_draw(streams, nodes, needs) >> np.uint64(32)) * np.repeat(
        node_degrees, needs
    )
    ports = (m >> np.uint64(32)).astype(np.int64)
    thresholds = (np.uint64(1 << 32) - node_degrees) % node_degrees
    rejected = np.flatnonzero(
        (m & np.uint64(0xFFFFFFFF)) < np.repeat(thresholds, needs)
    )
    if len(rejected):
        segment = np.repeat(np.arange(len(nodes)), needs)
        keep = np.ones(len(ports), dtype=bool)
        keep[rejected] = False
        short = np.bincount(segment[rejected], minlength=len(nodes))
        refill = np.flatnonzero(short)
        more = _ref_ports(streams, degrees, nodes[refill], short[refill])
        owner = np.concatenate(
            (segment[keep], np.repeat(refill, short[refill]))
        )
        ports = np.concatenate((ports[keep], more))[
            np.argsort(owner, kind="stable")
        ]
    return ports


def _ref_thin(streams, nodes, counts, alpha):
    starts, _ = _ref_segments(nodes)
    draws = _ref_draw(
        streams, nodes[starts], np.add.reduceat(counts, starts)
    )
    alive = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53 < alpha
    return np.add.reduceat(alive, np.cumsum(counts) - counts, dtype=np.int64)


def _ref_route(nodes, sources, remainings, halves, counts, streams,
               degrees, offsets, seq_start):
    groups = len(nodes)
    starts, _ = _ref_segments(nodes)
    draws = _ref_ports(
        streams, degrees, nodes[starts], np.add.reduceat(counts, starts)
    )
    group_base = offsets[nodes] * groups + np.arange(groups, dtype=np.int64)
    keys = np.sort(np.repeat(group_base, counts) + draws * groups)
    starts, ends = _ref_segments(keys)
    cells = keys[starts]
    group_of = cells % groups
    entries = np.empty((len(cells), 6), dtype=np.int64)
    entries[:, 0] = cells // groups
    entries[:, 1] = np.arange(seq_start, seq_start + len(cells))
    entries[:, 2] = sources[group_of]
    entries[:, 3] = remainings[group_of]
    entries[:, 4] = halves[group_of]
    entries[:, 5] = ends - starts
    return entries, seq_start + len(cells)


def _ref_round(arrivals, streams, alpha, target, tensor, degrees, offsets,
               seq):
    """One counting round as the kernel composed it: returns
    ``(entries, deaths per node, next seq)`` and tallies into
    ``tensor``."""
    nodes, sources, remainings, halves, counts = _ref_aggregate(*arrivals)
    deaths = np.zeros(tensor.shape[0], dtype=np.int64)
    if alpha is not None:
        survivors = _ref_thin(streams, nodes, counts, alpha)
        np.add.at(deaths, nodes, counts - survivors)
        keep = survivors > 0
        counts = survivors
    else:
        absorbed = nodes == target
        deaths[target] += int(counts[absorbed].sum()) if target >= 0 else 0
        keep = ~absorbed
    nodes, sources, remainings, halves, counts = (
        a[keep] for a in (nodes, sources, remainings, halves, counts)
    )
    np.add.at(tensor, (nodes, halves, sources), counts.astype(tensor.dtype))
    expired = remainings == 0
    np.add.at(deaths, nodes[expired], counts[expired])
    live = ~expired
    nodes, sources, remainings, halves, counts = (
        a[live] for a in (nodes, sources, remainings, halves, counts)
    )
    if not len(nodes):
        return np.empty((0, 6), dtype=np.int64), deaths, seq
    entries, seq = _ref_route(nodes, sources, remainings, halves, counts,
                              streams, degrees, offsets, seq)
    return entries, deaths, seq


def _round(queues, arrivals, streams, alpha, target, tensor, degrees,
           offsets, seq):
    """The same round through the library: aggregation, the kernel and
    the per-edge queues.  Returns ``(entries, deaths per node, next
    seq)``."""
    nodes, sources, remainings, halves, counts = aggregate_network_groups(
        *arrivals
    )
    entries, firsts, death_nodes, death_counts, seq = (
        walk_engine.counting_round_kernel(
            nodes, sources, remainings, halves, counts, streams, alpha,
            target, tensor, degrees, offsets, int(degrees.max()), seq,
        )
    )
    assert np.all(np.diff(death_nodes) > 0)
    deaths = np.zeros(tensor.shape[0], dtype=np.int64)
    deaths[death_nodes] = death_counts
    if queues is not None:
        queues.append(entries, firsts)
    return entries, deaths, seq


def _held(queues, edge_src, n) -> np.ndarray:
    """Per-node tokens queued on the node's out-edges, by walking every
    chain."""
    held = np.zeros(n, dtype=np.int64)
    for edge, rows in _chains(queues).items():
        held[edge_src[edge]] += int(rows[:, 5].sum())
    return held


#: The twin's graph: leaves 2 and 3 (degree 1), a triangle 4-5-6, and
#: degrees 1, 2 and 3 elsewhere.
_TWIN_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (4, 6), (5, 6)]
_TWIN_N = 7


def _twin_graph(wide: bool):
    """``(degrees, offsets, edge sources)`` of the twin graph.  ``wide``
    gives node 6 degree ``2**31 + 1`` instead, whose Lemire threshold
    rejects about half of all draws; its edges exist only as ids, so
    wide rounds skip the queues."""
    adjacency = [[] for _ in range(_TWIN_N)]
    for u, v in _TWIN_EDGES:
        adjacency[u].append(v)
        adjacency[v].append(u)
    degrees = np.array([len(a) for a in adjacency], dtype=np.int64)
    if wide:
        degrees[6] = 2**31 + 1
    offsets = np.zeros(_TWIN_N + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    edge_src = np.repeat(np.arange(_TWIN_N), degrees) if not wide else None
    return degrees, offsets, edge_src


@st.composite
def _twin_cases(draw):
    """A mode (absorbing with a drawn target, or damped), split halves,
    a policy, stream keys and counters, and a few rounds of random
    arrival multisets with budgets."""
    wide = draw(st.booleans())
    alpha = draw(st.sampled_from([None, None, 0.35, 0.85]))
    split = draw(st.booleans())
    policy = draw(st.sampled_from(list(TransportPolicy)))
    target = draw(st.integers(0, _TWIN_N - 1))
    keys = draw(
        st.lists(
            st.integers(0, 2**64 - 1), min_size=_TWIN_N, max_size=_TWIN_N
        )
    )
    counters = draw(
        st.lists(st.integers(0, 300), min_size=_TWIN_N, max_size=_TWIN_N)
    )
    group = st.tuples(
        st.integers(0, _TWIN_N - 1),
        st.integers(0, _TWIN_N - 1),
        st.integers(0, 4),
        st.integers(0, 1 if split else 0),
        st.integers(1, 5),
    )
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        arrivals = draw(st.lists(group, max_size=30))
        if split and arrivals and draw(st.booleans()):
            # Groups that differ in half or remaining only: a count
            # cell's groups are then apart in canonical order.
            v, s, r, h, c = arrivals[0]
            arrivals += [(v, s, r, 1 - h, c), (v, s, (r + 1) % 5, h, c)]
        if draw(st.booleans()):
            # The absorbing target among the arrivals.
            arrivals.append((target, draw(st.integers(0, _TWIN_N - 1)),
                             draw(st.integers(0, 4)), 0, 2))
        if draw(st.booleans()):
            budget = draw(st.integers(1, 4))
        else:
            budget = np.array(
                draw(st.lists(st.integers(-1, 3), min_size=len(_TWIN_EDGES)
                              * 2, max_size=len(_TWIN_EDGES) * 2)),
                dtype=np.int64,
            )
        rounds.append((arrivals, budget))
    return wide, alpha, policy, target, keys, counters, rounds


@settings(max_examples=150, deadline=None)
@given(_twin_cases())
def test_round_matches_the_frozen_composition(case):
    """Aggregation, the kernel, the queues' append and take, round after
    round, against a frozen copy of the composition they replaced (its
    ``np.add.at`` tallies, recursive degree-1 routing and sorted-table
    queues): the same entries, count tensor, deaths per node, stream
    counters, per-node held tokens and take output, byte for byte -
    through degree-1 nodes, Lemire rejections, the absorbing target,
    damped thinning, split halves and both policies."""
    wide, alpha, policy, target, keys, counters, rounds = case
    degrees, offsets, edge_src = _twin_graph(wide)
    if alpha is not None:
        target = -1
    streams = [
        (np.array(keys, dtype=np.uint64),
         np.array(counters, dtype=np.int64))
        for _ in range(2)
    ]
    tensors = [
        np.zeros((2, _TWIN_N, _TWIN_N), dtype=np.uint16).transpose(1, 0, 2)
        for _ in range(2)
    ]
    num_edges = len(_TWIN_EDGES) * 2
    queues = None if wide else EdgeQueues(num_edges)
    model = _Model(num_edges)
    seqs = [0, 0]
    for arrivals, budget in rounds:
        if not arrivals:
            continue
        columns = tuple(
            np.array([row[i] for row in arrivals], dtype=np.int64)
            for i in range(5)
        )
        expected, expected_deaths, seqs[0] = _ref_round(
            columns, streams[0], alpha, target, tensors[0], degrees,
            offsets, seqs[0],
        )
        got, deaths, seqs[1] = _round(
            queues, columns, streams[1], alpha, target, tensors[1], degrees,
            offsets, seqs[1],
        )
        assert np.array_equal(got, expected)
        assert np.array_equal(deaths, expected_deaths)
        assert seqs[0] == seqs[1]
        assert np.array_equal(tensors[0], tensors[1])
        assert np.array_equal(streams[0][1], streams[1][1])
        if queues is None:
            continue
        model.append(expected)
        assert np.array_equal(
            _held(queues, edge_src, _TWIN_N),
            np.bincount(
                edge_src[model.table[:, 0]],
                weights=model.table[:, 5],
                minlength=_TWIN_N,
            ).astype(np.int64),
        )
        _check_take(queues, model, budget, policy)


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
    branches: degree-1 leaves draw nothing (star), and a hub routes
    hundreds of tokens a round (BA hub of degree 67; BATCH groups let it
    receive that many).  Each case also checks that the branch really
    ran."""

    @pytest.fixture
    def port_calls(self, monkeypatch):
        """Each :func:`walk_ports` call's node degrees, needs, and how
        far it moved each of those nodes' counters."""
        seen: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        original = walk_engine.walk_ports

        def spy(streams, degrees, nodes, needs):
            before = streams[1][nodes]
            ports = original(streams, degrees, nodes, needs)
            seen.append(
                (degrees[nodes], needs.copy(), streams[1][nodes] - before)
            )
            return ports

        monkeypatch.setattr(walk_engine, "walk_ports", spy)
        return seen

    @pytest.mark.parametrize("alpha", [None, 0.85], ids=["absorbing", "damped"])
    def test_star_leaves_draw_nothing(self, alpha, port_calls):
        graph = star_graph(12)
        _assert_identical(
            graph, ProtocolConfig(**BASE, survival_alpha=alpha)
        )
        leaves = [degrees == 1 for degrees, _, _ in port_calls]
        assert any(leaf.any() for leaf in leaves)
        for leaf, (_, needs, moved) in zip(leaves, port_calls):
            assert not moved[leaf].any()
            assert np.array_equal(moved[~leaf], needs[~leaf])

    @pytest.mark.parametrize("alpha", [None, 0.85], ids=["absorbing", "damped"])
    def test_hub_routes_hundreds_of_tokens_a_round(self, alpha, port_calls):
        graph = barabasi_albert_graph(300, 2, seed=5)
        assert max(graph.degree(node) for node in graph.nodes()) >= 60
        config = ProtocolConfig(
            length=6,
            walks_per_source=16,
            policy=TransportPolicy.BATCH,
            survival_alpha=alpha,
        )
        _assert_identical(graph, config, seed=3)
        assert max(int(needs.max()) for _, needs, _ in port_calls) > 256


def test_pending_table_stays_edge_seq_ordered(monkeypatch):
    """Rows join their edge's tail and leave from its head, so each
    chain must stay in ascending seq order, and the tokens queued on a
    node's out-edges must be what ``held`` says it holds.  Check both
    after every round of a backlogged QUEUE tree run."""
    original = CountingWalkEngine.end_round
    backlog: list[int] = []

    def checked(engine, *args):
        original(engine, *args)
        queues = engine._queues
        held = np.zeros(engine.n, dtype=np.int64)
        for edge, rows in _chains(queues).items():
            assert np.all(np.diff(rows[:, 1]) > 0)
            assert np.all(rows[:, 0] == edge)
            held[engine._edge_src[edge]] += int(rows[:, 5].sum())
        assert np.array_equal(held, engine.held)
        backlog.append(queues.rows)

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
