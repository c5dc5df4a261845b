"""Unit tests for the fault-injection subsystem (congest.faults).

The load-bearing property is the determinism contract: fault decisions
are a stateless hash of ``(seed, round, edge, kind, index)``, so the
per-message and bulk code paths - fed the same traffic in different
containers - must reach identical decisions.
"""

import numpy as np
import pytest

from repro.congest.errors import FaultInjectionError
from repro.congest.faults import (
    _SALT_AMOUNT,
    _SALT_DELAY,
    _SALT_DROP,
    _SALT_DUP,
    CrashWindow,
    EdgeFaultRates,
    FaultPlan,
    FaultRuntime,
    _edge_base,
    _edge_base_array,
    _uniform_one,
    _uniforms_array,
    kind_code,
)
from repro.congest.message import Message
from repro.congest.node import EdgeIndex
from repro.congest.transport import BandwidthPolicy, BulkOutbox

#: Node ids stay below N; the edge budget never binds.
N = 8
POLICY = BandwidthPolicy(n=N, messages_per_edge=10**6)
#: Every ordered pair of distinct nodes is an edge.
EDGES = EdgeIndex(
    tuple(range(N)),
    [np.array([v for v in range(N) if v != u]) for u in range(N)],
)


def _msg(sender, receiver, kind="walk", fields=(1, 2)):
    return Message(sender=sender, receiver=receiver, kind=kind, fields=fields)


def _round(runtime, round_number, control=(), bulk=()):
    """One round through the fault pass: the ``control`` messages, and
    bulk rows ``(kind, senders, receivers, fields, multiplicity)``
    pushed in order (a kind pushed twice is one batch, as on the fast
    path).  Returns the delivered messages and the delivered round."""
    outbox = BulkOutbox(POLICY, EDGES)
    for kind, senders, receivers, fields, multiplicity in bulk:
        outbox.push_rows(
            kind,
            np.array(senders),
            np.array(receivers),
            np.array(fields),
            np.array(multiplicity),
        )
    control = list(control)
    return runtime.deliver(round_number, control, outbox.drain(N, control))


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultPlan(delay_rate=2.0)

    def test_max_delay_positive(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(max_delay=0)

    def test_crash_window_shape(self):
        with pytest.raises(FaultInjectionError):
            CrashWindow(node=0, start=0)  # round 0 has no deliveries
        with pytest.raises(FaultInjectionError):
            CrashWindow(node=0, start=5, end=5)
        with pytest.raises(FaultInjectionError):
            CrashWindow(node=-1, start=1)

    def test_crash_window_coverage(self):
        window = CrashWindow(node=3, start=4, end=7)
        assert [window.covers(r) for r in range(3, 8)] == [
            False, True, True, True, False,
        ]
        forever = CrashWindow(node=3, start=4)
        assert forever.covers(10**9)

    def test_is_trivial(self):
        assert FaultPlan().is_trivial
        assert not FaultPlan(drop_rate=0.1).is_trivial
        assert not FaultPlan(crashes=(CrashWindow(node=0, start=1),)).is_trivial
        assert not FaultPlan(
            edge_overrides={(0, 1): EdgeFaultRates(drop=0.5)}
        ).is_trivial
        assert FaultPlan(
            edge_overrides={(0, 1): EdgeFaultRates()}
        ).is_trivial

    def test_from_drop_rate_matches_legacy_knob(self):
        plan = FaultPlan.from_drop_rate(0.25, seed=7)
        assert plan.drop_rate == 0.25
        assert plan.seed == 7
        assert plan.rates_for(0, 1) == (0.25, 0.0, 0.0)

    def test_edge_overrides_take_precedence(self):
        plan = FaultPlan(
            drop_rate=0.1,
            edge_overrides={(2, 3): EdgeFaultRates(drop=0.9, delay=0.05)},
        )
        assert plan.rates_for(0, 1) == (0.1, 0.0, 0.0)
        assert plan.rates_for(2, 3) == (0.9, 0.0, 0.05)
        # Directed: the reverse edge keeps the global rates.
        assert plan.rates_for(3, 2) == (0.1, 0.0, 0.0)


class TestDeterminism:
    def test_same_plan_same_fates(self):
        plan = FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.1)
        traffic = [_msg(0, 1) for _ in range(50)] + [
            _msg(1, 0, kind="term") for _ in range(20)
        ]
        outcomes = []
        for _ in range(2):
            runtime = FaultRuntime(plan)
            delivered, _ = _round(runtime, 5, traffic)
            outcomes.append(
                ([(m.sender, m.receiver, m.kind) for m in delivered],
                 runtime.counters.summary())
            )
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_differ(self):
        traffic = [_msg(0, 1) for _ in range(200)]
        counts = set()
        for seed in (1, 2, 3):
            runtime = FaultRuntime(FaultPlan(seed=seed, drop_rate=0.5))
            counts.add(len(_round(runtime, 1, traffic)[0]))
        assert len(counts) > 1

    def test_rounds_are_independent(self):
        """Each round numbers its traffic from zero: round 2 on a
        runtime that already ran round 1 decides what a fresh runtime
        decides, and the two rounds' fates differ."""
        plan = FaultPlan(seed=9, drop_rate=0.5)
        traffic = [_msg(0, 1, fields=(i,)) for i in range(100)]
        runtime = FaultRuntime(plan)
        survivors = [
            tuple(m.fields[0] for m in _round(runtime, round_number, traffic)[0])
            for round_number in (1, 2)
        ]
        assert survivors[0] != survivors[1]
        fresh = _round(FaultRuntime(plan), 2, traffic)[0]
        assert tuple(m.fields[0] for m in fresh) == survivors[1]

    def test_bulk_matches_per_message(self):
        """The same traffic expressed as bulk rows and as individual
        messages must face identical per-index decisions."""
        plan = FaultPlan(seed=13, drop_rate=0.3, duplicate_rate=0.1)
        count = 40

        as_messages = FaultRuntime(plan)
        delivered, _ = _round(
            as_messages, 3, [_msg(0, 1, fields=(7, 7)) for _ in range(count)]
        )

        as_bulk = FaultRuntime(plan)
        _, rows = _round(
            as_bulk, 3, bulk=[("walk", [0], [1], [[7, 7]], [count])]
        )
        assert rows.inboxes["walk"].multiplicity.tolist() == [len(delivered)]
        assert (
            as_messages.counters.summary() == as_bulk.counters.summary()
        )

    def test_control_then_bulk_index_composition(self):
        """Bulk rows occupy the indices *after* the round's control
        messages of the same (edge, kind)."""
        plan = FaultPlan(seed=21, drop_rate=0.4)
        total = 30
        split = 10

        whole = FaultRuntime(plan)
        _round(whole, 2, [_msg(0, 1) for _ in range(total)])

        composed = FaultRuntime(plan)
        _round(
            composed,
            2,
            [_msg(0, 1) for _ in range(split)],
            bulk=[("walk", [0], [1], [[1, 2]], [total - split])],
        )
        assert (
            whole.counters.summary() == composed.counters.summary()
        )

    def test_index_counters_carry_per_edge_and_kind(self):
        """Indices continue from control into bulk per (edge, kind) for
        every key at once: control messages on some edges and kinds,
        then two pushes of one bulk kind over overlapping and new edges,
        take the indices that all of it sent as messages, in the same
        order, would."""
        plan = FaultPlan(seed=5, drop_rate=0.35, duplicate_rate=0.2)
        edges = [(0, 1), (1, 0), (2, 1), (0, 3), (3, 2)]
        control = [
            _msg(s, r, kind) for s, r in edges[:3] for kind in ("walk", "deg")
        ] * 2
        bulk = [(edges[i % 5], 1 + i % 3) for i in range(12)]
        whole = FaultRuntime(plan)
        flat = control + [
            _msg(s, r, "walk", fields=(i,))
            for i, ((s, r), copies) in enumerate(bulk)
            for _ in range(copies)
        ]
        delivered, _ = _round(whole, 4, flat)

        composed = FaultRuntime(plan)
        pushes = [
            (
                "walk",
                [s for (s, _), _ in part],
                [r for (_, r), _ in part],
                [[i] for i in indices],
                [c for _, c in part],
            )
            for part, indices in (
                (bulk[:7], range(7)),
                (bulk[7:], range(7, 12)),
            )
        ]
        first, rows = _round(composed, 4, control, bulk=pushes)
        assert first == delivered[: len(first)]
        copies = [0] * len(bulk)
        inbox = rows.inboxes["walk"]
        for row, count in zip(inbox.fields[:, 0], inbox.multiplicity):
            copies[row] += count
        arrived = [m.fields[0] for m in delivered[len(first):]]
        assert copies == [arrived.count(i) for i in range(len(bulk))]
        assert whole.counters.summary() == composed.counters.summary()


class TestAsyncFateTwin:
    """``async_fate`` keeps its own pure-int hash and its own copy of
    the drop > delay > duplicate priority; it must decide, message by
    message, what the batched fate core (``FaultRuntime.deliver``)
    decides for the same traffic."""

    PLAN = FaultPlan(
        seed=31,
        drop_rate=0.2,
        duplicate_rate=0.2,
        delay_rate=0.2,
        max_delay=4,
        edge_overrides={
            (2, 5): EdgeFaultRates(drop=0.1, duplicate=0.3, delay=0.25)
        },
    )

    @pytest.mark.parametrize("edge", [(0, 1), (2, 5)])
    @pytest.mark.parametrize("kind", ["walk", "ack"])
    def test_matches_filter_messages(self, edge, kind):
        sender, receiver = edge
        round_number, count = 7, 300
        batched = FaultRuntime(self.PLAN)
        delivered, _ = _round(
            batched,
            round_number,
            [_msg(sender, receiver, kind, fields=(i,)) for i in range(count)],
        )
        copies = [0] * count
        for message in delivered:
            copies[message.fields[0]] += 1
        slips = [0] * count
        for slip in range(1, self.PLAN.max_delay + 1):
            matured, _ = _round(batched, round_number + slip)
            for message in matured:
                slips[message.fields[0]] = slip
        expected = [
            (copies[i] == 0 and not slips[i], copies[i] == 2, slips[i])
            for i in range(count)
        ]
        one_by_one = FaultRuntime(self.PLAN)
        observed = [
            one_by_one.async_fate(round_number, sender, receiver, kind)
            for _ in range(count)
        ]
        assert observed == expected
        assert one_by_one.counters.summary() == batched.counters.summary()
        summary = batched.counters.summary()
        assert summary["dropped"] and summary["duplicated"]
        assert summary["delayed"]


_MAX64 = (1 << 64) - 1
_HASH_BASES = [0, 1, _MAX64] + [
    int(v)
    for v in np.random.default_rng(0x5EED).integers(
        0, _MAX64, size=5, dtype=np.uint64, endpoint=True
    )
]


class TestHashTwins:
    """The pure-int scalar hash (one message at a time, async executor)
    and the array hash (bulk and batched fates) are one function."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "salt", [_SALT_DROP, _SALT_DUP, _SALT_DELAY, _SALT_AMOUNT]
    )
    @pytest.mark.parametrize("base", _HASH_BASES)
    def test_uniform_one_matches_array(self, base, salt):
        indices = np.array([0, 1, 2, 63, 1000, 2**40, 2**62], dtype=np.int64)
        shared = _uniforms_array(np.uint64(base), salt, indices)
        per_message = _uniforms_array(
            np.full(len(indices), base, dtype=np.uint64), salt, indices
        )
        scalar = [_uniform_one(base, salt, int(i)) for i in indices]
        assert shared.tolist() == scalar
        assert per_message.tolist() == scalar

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", _HASH_BASES)
    def test_edge_base_matches_array(self, seed):
        senders = np.array([0, 3, 9999, 2**31], dtype=np.int64)
        receivers = np.array([1, 0, 12, 7], dtype=np.int64)
        codes = np.array(
            [kind_code(kind) for kind in ("walk", "ack", "term", "done")],
            dtype=np.uint64,
        )
        for round_number in (0, 1, 5000):
            array = _edge_base_array(
                seed, round_number, senders, receivers, codes
            )
            scalar = [
                _edge_base(seed, round_number, int(s), int(r), int(c))
                for s, r, c in zip(senders, receivers, codes)
            ]
            assert [int(v) for v in array] == scalar


class TestFilterSemantics:
    def test_zero_rate_plan_is_identity(self):
        runtime = FaultRuntime(FaultPlan())
        traffic = [_msg(0, 1, fields=(i,)) for i in range(10)]
        assert _round(runtime, 1, traffic)[0] == traffic
        assert runtime.counters.summary()["dropped"] == 0

    def test_duplicates_arrive_adjacent(self):
        runtime = FaultRuntime(FaultPlan(seed=5, duplicate_rate=0.5))
        delivered, _ = _round(
            runtime, 1, [_msg(0, 1, fields=(i,)) for i in range(40)]
        )
        dup_count = runtime.counters.duplicated
        assert dup_count > 0
        assert len(delivered) == 40 + dup_count
        # Every repeated payload is directly after its original.
        payloads = [m.fields[0] for m in delivered]
        for i in range(1, len(payloads)):
            assert payloads[i] >= payloads[i - 1]

    def test_delay_redelivers_later(self):
        runtime = FaultRuntime(
            FaultPlan(seed=3, delay_rate=0.5, max_delay=2)
        )
        delivered, _ = _round(
            runtime, 1, [_msg(0, 1, fields=(i,)) for i in range(40)]
        )
        delayed = runtime.counters.delayed
        assert delayed > 0
        assert len(delivered) == 40 - delayed
        assert runtime.has_pending_delayed
        recovered = []
        for later in (2, 3):
            messages, bulk = _round(runtime, later)
            recovered.extend(messages)
            assert not bulk
        assert len(recovered) == delayed
        assert not runtime.has_pending_delayed

    def test_crash_drops_inbound(self):
        plan = FaultPlan(crashes=(CrashWindow(node=1, start=2, end=4),))
        runtime = FaultRuntime(plan)
        assert runtime.crashed(1) == frozenset()
        assert runtime.crashed(2) == frozenset({1})
        delivered, _ = _round(
            runtime, 2, [_msg(0, 1), _msg(0, 2), _msg(2, 1)]
        )
        assert [(m.sender, m.receiver) for m in delivered] == [(0, 2)]
        assert runtime.counters.crash_dropped == 2
        assert runtime.counters.crash_node_rounds == 1

    def test_delayed_message_lost_to_crash(self):
        plan = FaultPlan(
            seed=3,
            delay_rate=0.9,
            max_delay=1,
            crashes=(CrashWindow(node=1, start=2, end=3),),
        )
        runtime = FaultRuntime(plan)
        _round(runtime, 1, [_msg(0, 1) for _ in range(20)])
        delayed = runtime.counters.delayed
        assert delayed > 0
        messages, _ = _round(runtime, 2)  # node 1 is down in round 2
        assert messages == []
        assert runtime.counters.crash_dropped == delayed

    @staticmethod
    def _matured_rows(runtime, rounds):
        """Each later round's matured bulk ``walk`` rows, expanded to
        one row index per copy (payload column 0 is the row index)."""
        matured = []
        for round_number in rounds:
            _, rows = _round(runtime, round_number)
            inbox = rows.inboxes.get("walk")
            matured.append(
                []
                if inbox is None
                else np.repeat(inbox.fields[:, 0], inbox.multiplicity).tolist()
            )
        return matured

    def test_delayed_bulk_rows_mature_like_messages(self):
        """Rows laid out edge by edge mature in the order the same
        traffic sent as messages does, round by round."""
        plan = FaultPlan(
            seed=17, drop_rate=0.1, duplicate_rate=0.1, delay_rate=0.4,
            max_delay=3,
        )
        edges = [(0, 1)] * 3 + [(2, 1)] * 2 + [(1, 0)] * 2 + [(3, 2)]
        copies = 3
        as_messages = FaultRuntime(plan)
        _round(
            as_messages,
            1,
            [
                _msg(s, r, fields=(i, 9))
                for i, (s, r) in enumerate(edges)
                for _ in range(copies)
            ],
        )
        as_bulk = FaultRuntime(plan)
        _round(
            as_bulk,
            1,
            bulk=[
                (
                    "walk",
                    [s for s, _ in edges],
                    [r for _, r in edges],
                    [[i, 9] for i in range(len(edges))],
                    [copies] * len(edges),
                )
            ],
        )
        later = range(2, 2 + plan.max_delay)
        expected = [
            [m.fields[0] for m in _round(as_messages, r)[0]] for r in later
        ]
        assert self._matured_rows(as_bulk, later) == expected
        assert sum(map(len, expected)) == as_bulk.counters.delayed > 0
        assert as_messages.counters.summary() == as_bulk.counters.summary()
        assert not as_bulk.has_pending_delayed

    def test_delayed_bulk_rows_group_by_edge(self):
        """Rows of one edge that are not adjacent mature together: edges
        in order of first appearance among the kind's rows, rows in row
        order within an edge."""
        plan = FaultPlan(seed=2, delay_rate=0.6, max_delay=2)
        edges = [(0, 1), (2, 1), (0, 1), (2, 1), (0, 1)]
        runtime = FaultRuntime(plan)
        _round(
            runtime,
            1,
            bulk=[
                (
                    "walk",
                    [s for s, _ in edges],
                    [r for _, r in edges],
                    [[i] for i in range(len(edges))],
                    [4] * len(edges),
                )
            ],
        )
        edge_first = {0: 0, 2: 0, 4: 0, 1: 1, 3: 1}
        matured = self._matured_rows(runtime, (2, 3))
        assert sum(map(len, matured)) == runtime.counters.delayed > 0
        for rows in matured:
            assert rows == sorted(rows, key=lambda i: (edge_first[i], i))
        assert any(rows != sorted(rows) for rows in matured)

    def test_delayed_bulk_rows_lost_to_crash(self):
        plan = FaultPlan(
            seed=3,
            delay_rate=0.9,
            max_delay=1,
            crashes=(CrashWindow(node=1, start=2, end=3),),
        )
        runtime = FaultRuntime(plan)
        _round(runtime, 1, bulk=[("walk", [0, 2], [1, 3], [[5], [6]], [8, 8])])
        delayed = runtime.counters.delayed
        _, rows = _round(runtime, 2)  # node 1 is down in round 2
        inbox = rows.inboxes["walk"]
        assert EDGES.dst[inbox.edges].tolist() == [3]
        assert runtime.counters.crash_dropped == delayed - int(
            inbox.multiplicity.sum()
        ) > 0

    def test_latest_crash_end(self):
        runtime = FaultRuntime(
            FaultPlan(
                crashes=(
                    CrashWindow(node=0, start=1, end=5),
                    CrashWindow(node=1, start=2, end=9),
                )
            )
        )
        assert runtime.latest_crash_end() == 9
        forever = FaultRuntime(
            FaultPlan(crashes=(CrashWindow(node=0, start=1),))
        )
        assert forever.latest_crash_end() is None
