"""Per-edge loads: the edge ids that name them, and the drain's one rule.

The run's :class:`~repro.congest.node.EdgeIndex` id is the one name of
a directed edge below the node programs.  Every pushed row carries its
id - a driver that holds ids passes them (:meth:`BulkOutbox.push_priced`,
with bits from tables such as :func:`walk_bit_tables`), and
:meth:`BulkOutbox.push_rows` looks them up (:meth:`EdgeIndex.ids`) -
so :meth:`BulkOutbox.drain` sums each edge's messages and bits by id on
every round.  These tests hold the ids to the edges they name and the
drain to a recount of its rows' ``(sender, receiver)`` loads.
"""

from collections import Counter

import numpy as np
import pytest

from repro.congest import transport
from repro.congest.errors import CongestViolation, ConfigError, ProtocolError
from repro.congest.faults import FaultPlan, FaultRuntime
from repro.congest.message import TAG_BITS, Message, int_bits_array
from repro.congest.node import EdgeIndex
from repro.congest.scheduler import Simulator
from repro.congest.transport import BandwidthPolicy, BulkOutbox
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.termination import KIND_TERM
from repro.core.walk_engine import KIND_WALK, walk_bit_tables
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.graph import Graph


# ---------------------------------------------------------------------------
# Bit tables
# ---------------------------------------------------------------------------
def _reference_bits(sources, hops, halves) -> np.ndarray:
    fields = np.stack([sources, hops, halves], axis=1)
    return TAG_BITS + int_bits_array(fields).sum(axis=1)


@pytest.mark.parametrize("n", [2, 3, 80])
def test_walk_bit_tables_price_every_row(n):
    """Every ``(source, remaining - 1, half)`` with remaining up to
    ``3n`` costs what pricing its fields costs."""
    length = 3 * n
    heads, hops = walk_bit_tables(n, length)
    source, hop, half = np.meshgrid(
        np.arange(n), np.arange(length), np.arange(2), indexing="ij"
    )
    source, hop, half = source.ravel(), hop.ravel(), half.ravel()
    assert np.array_equal(
        heads[half, source] + hops[hop], _reference_bits(source, hop, half)
    )


def test_walk_bit_tables_at_a_field_width_boundary():
    """n = 2**16 + 1: the last source id and hop counts past 2**16 need
    a 17-bit magnitude.  Every source against the hop counts around
    each power of two, and every hop count against the sources around
    each power of two."""
    n = 2**16 + 1
    length = 3 * n
    heads, hops = walk_bit_tables(n, length)
    assert heads.shape == (2, n) and len(hops) >= length
    powers = 2 ** np.arange(19)
    edges = np.unique(np.concatenate((powers - 1, powers, [0, length - 1])))
    edge_hops = edges[edges < length]
    edge_sources = edges[edges < n]
    for sources, hop_values in (
        (np.arange(n), edge_hops),
        (edge_sources, np.arange(length)),
    ):
        for half in (0, 1):
            source, hop = np.meshgrid(sources, hop_values, indexing="ij")
            source, hop = source.ravel(), hop.ravel()
            halves = np.full(len(source), half)
            assert np.array_equal(
                heads[half, source] + hops[hop],
                _reference_bits(source, hop, halves),
            )


# ---------------------------------------------------------------------------
# Edge ids
# ---------------------------------------------------------------------------
def _index(graph: Graph) -> EdgeIndex:
    order = graph.canonical_order()
    return EdgeIndex(
        order,
        [np.array(sorted(graph.neighbors(v)), dtype=np.int64) for v in order],
    )


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        [(10, 20), (20, 30), (30, 10), (30, 40)],
        [(-5, 7), (7, 100), (-5, -1), (-1, 100), (100, 2), (2, -5)],
    ],
    ids=["zero-to-n", "relabelled", "negative-and-sparse"],
)
def test_ids_name_every_edge(edges):
    """Every edge's id, and ``reverse``: an involution that swaps
    ``src`` and ``dst``, the id :meth:`EdgeIndex.ids` gives the
    reversed pair."""
    index = _index(Graph(edges=edges))
    count = len(index.dst)
    assert count == 2 * len(edges)
    assert np.array_equal(index.ids(index.src, index.dst), np.arange(count))
    reverse = index.ids(index.dst, index.src)
    assert np.array_equal(index.src[reverse], index.dst)
    assert np.array_equal(index.dst[reverse], index.src)
    assert np.array_equal(index.reverse, reverse)
    assert np.array_equal(index.reverse[index.reverse], np.arange(count))
    assert not (index.reverse == np.arange(count)).any()


def test_an_index_needs_both_directions():
    with pytest.raises(ConfigError, match="both directions"):
        EdgeIndex((0, 1, 2), [np.array([1]), np.array([0, 2]), np.array([])])


def test_an_oversized_row_names_its_senders_label():
    """On labels 10, 20, 30, 40 a row over the per-message budget names
    its sender's label, read from the row's id - not the sender's
    canonical rank."""
    index = _index(Graph(edges=[(10, 20), (20, 30), (30, 40)]))
    outbox = BulkOutbox(BandwidthPolicy(n=4), index)
    edge = int(index.ids(np.array([30]), np.array([20]))[0])
    fields = np.array([[1], [1 << 60]], dtype=np.int64)
    with pytest.raises(CongestViolation, match="from node 30 is 70 bits"):
        outbox.push_priced(
            KIND_WALK, np.array([0, edge]), _bits(fields), fields=fields
        )


PATH = [(0, 1), (1, 2), (2, 3)]
SPARSE = [(-5, 7), (7, 100), (-5, -1), (0, 7), (2, 7)]


@pytest.mark.parametrize(
    "edges, sender, receiver",
    [
        (PATH, 0, 2),
        (PATH, 0, 4),  # 0 * 4 + 4 is the code of edge 1 -> 0
        (PATH, 1, -1),
        (SPARSE, 0, 2),
        (SPARSE, -1, 7),
        (SPARSE, -5, 3),
        (SPARSE, 7, 101),
        (SPARSE, 1000, -5),
    ],
)
def test_a_non_edge_is_a_protocol_error(edges, sender, receiver):
    """Pairs of labels that are not adjacent, and labels that are not
    nodes: the lookup names the pair instead of aliasing an edge."""
    index = _index(Graph(edges=edges))
    first = edges[0]
    with pytest.raises(ProtocolError, match=f"{sender} has no edge"):
        index.ids(np.array([first[0], sender]), np.array([first[1], receiver]))


# ---------------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------------
N = 7
#: Every ordered pair of distinct nodes is an edge.
EDGES = _index(Graph(edges=[(u, v) for u in range(N) for v in range(u)]))
SRC, DST = EDGES.src, EDGES.dst


def _walk_rows(rng, rows=30):
    edges = np.sort(rng.integers(0, len(SRC), size=rows))
    fields = np.stack(
        [
            rng.integers(0, N, size=rows),
            rng.integers(0, 3 * N, size=rows),
            rng.integers(0, 2, size=rows),
        ],
        axis=1,
    )
    multiplicity = rng.integers(1, 3, size=rows)
    return edges, fields, multiplicity


def _term_rows(rng):
    senders = np.sort(rng.choice(N, size=4, replace=False))
    edges = senders * (N - 1) + rng.integers(0, N - 1, size=4)
    totals = rng.integers(0, 5000, size=4)
    return edges, totals[:, None], None


def _exchange_rows(rng):
    """One column message on every edge, as the exchange driver pushes
    them: distinct ascending ids, one copy each."""
    fields = rng.integers(0, 300, size=(len(SRC), 3))
    return np.arange(len(SRC)), fields, None


def _bits(fields) -> np.ndarray:
    return TAG_BITS + int_bits_array(fields).sum(axis=1)


def _push(outbox, kind, edges, fields, multiplicity):
    outbox.push_priced(
        kind, edges, _bits(fields), fields=fields, multiplicity=multiplicity
    )


def _recount(rows, control) -> tuple[dict, Counter, Counter]:
    """The traffic of ``rows`` - ``(senders, receivers, fields,
    copies)`` - and ``control``, from the ``(sender, receiver)`` pairs
    alone."""
    messages, bits, sizes = Counter(), Counter(), []
    for senders, receivers, fields, copies in rows:
        for s, r, size, k in zip(senders, receivers, _bits(fields), copies):
            messages[int(s), int(r)] += int(k)
            bits[int(s), int(r)] += int(k * size)
            sizes.append(int(size))
    for message in control:
        messages[message.sender, message.receiver] += 1
        bits[message.sender, message.receiver] += message.bits
        sizes.append(message.bits)
    figures = {
        "total_messages": sum(messages.values()),
        "total_bits": sum(bits.values()),
        "max_edge_messages": max(messages.values()),
        "max_edge_bits": max(bits.values()),
        "max_message_bits": max(sizes),
    }
    return figures, messages, bits


def _assert_traffic(traffic, rows, control):
    figures, messages, bits = _recount(rows, control)
    for name, value in figures.items():
        assert getattr(traffic, name) == value, name
    assert Counter(traffic.edge_messages.tolist()) == Counter(
        messages.values()
    )
    assert Counter(traffic.edge_bits.tolist()) == Counter(bits.values())


ROUNDS = ["walk", "term+walk", "exchange", "control", "faulty"]


@pytest.mark.parametrize("round_kind", ROUNDS)
@pytest.mark.parametrize("seed", range(4))
def test_drain_matches_a_recount(round_kind, seed):
    """Walk rows alone, ``term`` and walk rows, one exchange column,
    walk rows with control mail, and a faulty round: the drained
    round's traffic is the recount of what it carries, and each
    claiming driver gets its rows back as pushed."""
    rng = np.random.default_rng(seed)
    pushes = []
    if round_kind != "exchange":
        pushes.append((KIND_WALK, *_walk_rows(rng)))
    if round_kind == "term+walk":
        pushes.append((KIND_TERM, *_term_rows(rng)))
    if round_kind == "exchange":
        pushes.append(("xch", *_exchange_rows(rng)))
    control = []
    if round_kind in ("control", "faulty"):
        control = [
            Message(0, 1, "done", (3,)),
            Message(4, 2, "term", (40,)),
            Message(0, 1, "term", (5,)),
        ]
    outbox = BulkOutbox(BandwidthPolicy(n=N, messages_per_edge=100), EDGES)
    for push in pushes:
        _push(outbox, *push)
    drained = outbox.drain(N, control)
    rows = [
        (SRC[edges], DST[edges], fields,
         np.ones(len(edges)) if copies is None else copies)
        for _, edges, fields, copies in pushes
    ]
    if round_kind == "faulty":
        plan = FaultPlan(
            seed=seed, drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2
        )
        runtime = FaultRuntime(plan)
        control, drained = runtime.deliver(1, control, drained)
        counters = runtime.counters
        assert counters.dropped and counters.duplicated and counters.delayed
        rows = [
            (SRC[inbox.edges], DST[inbox.edges], inbox.fields,
             inbox.multiplicity)
            for inbox in drained.inboxes.values()
        ]
        # The fault pass keeps each row's id with its payload: every
        # delivered row is a pushed (edge, fields) row.
        for kind, edges, fields, _ in pushes:
            inbox = drained.inboxes[kind]
            assert {
                (edge, *row)
                for edge, row in zip(inbox.edges.tolist(), inbox.fields.tolist())
            } <= {
                (edge, *row) for edge, row in zip(edges.tolist(), fields.tolist())
            }
    _assert_traffic(drained.traffic, rows, control)
    if round_kind == "faulty":
        return
    for kind, edges, fields, copies in pushes:
        got_edges, got_fields, got_copies = drained.take(kind)
        assert np.array_equal(got_edges, edges)
        assert np.array_equal(got_fields, fields)
        assert np.array_equal(
            got_copies, np.ones(len(edges)) if copies is None else copies
        )


@pytest.mark.parametrize("vectorized", [False, True])
def test_a_faulty_round_decides_and_accounts_once(vectorized, monkeypatch):
    """On both loops each round of a faulty run takes one fault pass:
    one ``_decide_rows`` call over its control messages and bulk rows,
    and at most one ``RoundTraffic``, built from what the round
    delivers (the drained round is never accounted; a round that
    delivers nothing shares the empty figures)."""
    current = [0]
    busy, decided, built = set(), Counter(), Counter()
    deliver = FaultRuntime.deliver
    decide_rows = FaultRuntime._decide_rows
    round_traffic = transport.RoundTraffic

    def spy_deliver(self, round_number, control, bulk):
        current[0] = round_number
        if control or bulk:
            busy.add(round_number)
        return deliver(self, round_number, control, bulk)

    def spy_decide(self, *args):
        decided[current[0]] += 1
        return decide_rows(self, *args)

    def spy_traffic(*args, **kwargs):
        built[current[0]] += 1
        return round_traffic(*args, **kwargs)

    monkeypatch.setattr(FaultRuntime, "deliver", spy_deliver)
    monkeypatch.setattr(FaultRuntime, "_decide_rows", spy_decide)
    monkeypatch.setattr(transport, "RoundTraffic", spy_traffic)
    graph = erdos_renyi_graph(12, 0.3, seed=2, ensure_connected=True)
    config = ProtocolConfig(length=16, walks_per_source=4)
    plan = FaultPlan(
        seed=3, drop_rate=0.1, duplicate_rate=0.05, delay_rate=0.05,
        max_delay=2,
    )
    result = Simulator(
        graph,
        make_protocol_factory(config),
        policy=BandwidthPolicy(n=12, messages_per_edge=config.walk_budget + 4),
        seed=5,
        faults=plan,
        vectorized=vectorized,
    ).run()
    assert result.fast_path == vectorized
    metrics = result.metrics
    assert metrics.faults["delayed"] > 0
    assert decided == Counter(busy)
    assert built == Counter(
        r for r, count in enumerate(metrics.messages_per_round, 1) if count
    )


@pytest.mark.parametrize("also_term", [False, True])
def test_an_overloaded_edge_is_named(also_term):
    """Edges 3 and 9 both carry 5 messages against a limit of 4: the
    drain names the edge of the first row on a most loaded edge, in the
    same words whether the rows came priced or as fields."""
    edges = np.array([0, 3, 3, 3, 9, 9, 9], dtype=np.int64)
    multiplicity = np.array([1, 2, 2, 1, 1, 3, 1], dtype=np.int64)
    fields = np.tile(np.array([[1, 4, 0]], dtype=np.int64), (len(edges), 1))
    pushes = [(KIND_WALK, edges, fields, multiplicity)]
    if also_term:
        pushes.append(
            (KIND_TERM, np.array([9]), np.array([[12]]), np.array([1]))
        )
    messages = []
    for priced in (True, False):
        outbox = BulkOutbox(BandwidthPolicy(n=N, messages_per_edge=4), EDGES)
        for kind, edges_, fields_, multiplicity_ in pushes:
            if priced:
                _push(outbox, kind, edges_, fields_, multiplicity_)
            else:
                outbox.push_rows(
                    kind, SRC[edges_], DST[edges_], fields_, multiplicity_
                )
        with pytest.raises(CongestViolation) as raised:
            outbox.drain(N, [])
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    # A tie goes to the edge of the first row; the term row breaks it.
    edge, load = (9, 6) if also_term else (3, 5)
    assert messages[0] == (
        f"edge ({SRC[edge]} -> {DST[edge]}) carries {load} messages this "
        "round (limit 4)"
    )
