"""Pre-priced walk rows and the outbox's drain without a merge.

On fault-free fast-path runs the counting engine looks
each walk row's bit cost up in tables (:func:`walk_bit_tables`) and
pushes walk and ``term`` rows tagged with their directed-edge ids
(:meth:`BulkOutbox.push_priced`), so :meth:`BulkOutbox.drain` sums
every edge's load by id instead of merging ``(sender, receiver)``
codes.  These tests hold both shortcuts to the numbers the general
path (:func:`~repro.congest.transport._round_traffic`) computes.
"""

from collections import Counter

import numpy as np
import pytest

from repro.congest import transport
from repro.congest.errors import CongestViolation
from repro.congest.faults import FaultPlan, FaultRuntime
from repro.congest.message import TAG_BITS, Message, int_bits_array
from repro.congest.scheduler import Simulator
from repro.congest.transport import (
    BandwidthPolicy,
    BulkKindInbox,
    BulkOutbox,
    _round_traffic,
)
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.termination import KIND_TERM
from repro.core.walk_engine import KIND_WALK, walk_bit_tables
from repro.graphs.generators import erdos_renyi_graph


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
# Drain
# ---------------------------------------------------------------------------
N = 7
#: A directed edge per ordered pair, numbered node-major like EdgeIndex.
SRC, DST = (
    np.array(pair, dtype=np.int64)
    for pair in zip(*[(u, v) for u in range(N) for v in range(N) if u != v])
)


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
    return edges, totals[:, None], np.ones(4, dtype=np.int64)


def _push(outbox, kind, edges, fields, multiplicity):
    outbox.push_priced(
        kind,
        SRC[edges],
        DST[edges],
        TAG_BITS + int_bits_array(fields).sum(axis=1),
        edges=edges,
        fields=fields,
        multiplicity=multiplicity,
    )


def _merged(pushes, control=()) -> transport.RoundTraffic:
    """The same rows through the general merge."""
    kinds = {
        kind: BulkKindInbox(
            SRC[edges],
            DST[edges],
            fields,
            multiplicity,
            TAG_BITS + int_bits_array(fields).sum(axis=1),
        )
        for kind, edges, fields, multiplicity in pushes
    }
    return _round_traffic(kinds, list(control), N)


@pytest.mark.parametrize("walk, term", [(True, False), (True, True), (False, True)])
@pytest.mark.parametrize("seed", range(5))
def test_fast_drain_matches_the_merge(walk, term, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    pushes = []
    if walk:
        pushes.append((KIND_WALK, *_walk_rows(rng)))
    if term:
        pushes.append((KIND_TERM, *_term_rows(rng)))
    outbox = BulkOutbox(BandwidthPolicy(n=N, messages_per_edge=100))
    for push in pushes:
        _push(outbox, *push)
    merges = []
    monkeypatch.setattr(
        transport,
        "_round_traffic",
        lambda *args: merges.append(args) or _round_traffic(*args),
    )
    drained = outbox.drain(N, [])
    assert not merges
    expected = _merged(pushes)
    assert drained.traffic == expected
    assert Counter(drained.traffic.edge_messages.tolist()) == Counter(
        expected.edge_messages.tolist()
    )
    assert Counter(drained.traffic.edge_bits.tolist()) == Counter(
        expected.edge_bits.tolist()
    )
    # The claiming driver gets its rows back as pushed.
    for kind, edges, fields, multiplicity in pushes:
        senders, receivers, got_fields, got_multiplicity = drained.take(kind)
        assert np.array_equal(senders, SRC[edges])
        assert np.array_equal(receivers, DST[edges])
        assert np.array_equal(got_fields, fields)
        assert np.array_equal(got_multiplicity, multiplicity)


def test_control_mail_takes_the_merge(monkeypatch):
    rng = np.random.default_rng(0)
    outbox = BulkOutbox(BandwidthPolicy(n=N, messages_per_edge=100))
    walk = (KIND_WALK, *_walk_rows(rng))
    _push(outbox, *walk)
    merges = []
    monkeypatch.setattr(
        transport,
        "_round_traffic",
        lambda *args: merges.append(args) or _round_traffic(*args),
    )
    control = [Message(sender=0, receiver=1, kind="done", fields=(3,))]
    drained = outbox.drain(N, control)
    assert drained.traffic == _merged([walk], control)
    assert len(merges) == 1


def _counting_kinds(monkeypatch, **simulator_kwargs) -> tuple[set, set]:
    """Run a small protocol on the fast path; return the kinds drained
    without a merge and with one."""
    fast, merged = set(), set()
    priced_round = transport._priced_round
    round_traffic = transport._round_traffic

    def spy_priced(batches, n):
        result = priced_round(batches, n)
        if result is not None:
            fast.update(batches)
        return result

    def spy_merge(kinds, *args):
        merged.update(kinds)
        return round_traffic(kinds, *args)

    monkeypatch.setattr(transport, "_priced_round", spy_priced)
    monkeypatch.setattr(transport, "_round_traffic", spy_merge)
    graph = erdos_renyi_graph(16, 0.3, seed=2, ensure_connected=True)
    config = ProtocolConfig(length=20, walks_per_source=4)
    result = Simulator(
        graph,
        make_protocol_factory(config),
        seed=5,
        vectorized=True,
        **simulator_kwargs,
    ).run()
    assert result.fast_path
    return fast, merged


def test_fault_free_counting_skips_the_merge(monkeypatch):
    fast, merged = _counting_kinds(monkeypatch)
    assert {KIND_WALK, KIND_TERM} <= fast
    assert KIND_WALK not in merged


def test_a_fault_plan_takes_the_merge(monkeypatch):
    plan = FaultPlan.from_drop_rate(0.05, seed=3)
    fast, merged = _counting_kinds(monkeypatch, faults=plan)
    assert KIND_WALK in merged
    assert KIND_WALK not in fast and KIND_TERM not in fast


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
def test_an_overloaded_edge_raises_the_merge_message(also_term):
    """Edges 3 and 9 both carry 5 messages against a limit of 4: the
    priced drain must name the same edge, in the same words, as the
    merge of the same rows pushed unpriced."""
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
        outbox = BulkOutbox(BandwidthPolicy(n=N, messages_per_edge=4))
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
