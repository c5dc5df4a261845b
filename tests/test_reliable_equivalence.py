"""Cross-loop equivalence of the *vectorized* reliable path.

The fast path's reliable machinery (array ARQ acceptance through
``LinkTable.accept_rows`` in the walk engine - its ``receive_rows``
hook for ``term`` and ``done`` rows and its walk-row dedup - and in the
exchange driver, block seq assignment in ``sequence_walk_rows``, the
table-wide flushes, the exchange driver's column rows, and
``FaultRuntime.deliver``, which decides aggregate rows and control
messages in one fault pass)
must reproduce the per-message loop byte for byte.  The fixed-seed
checks in ``test_failure_injection.py`` pin a handful of schedules;
this file adds the boundary cases those seeds happen to miss, plus a
hypothesis sweep over random small plans that hunts edge-grouping
regressions.
"""

import collections
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.congest.errors import ProtocolError
from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.reliable import KIND_ACK, AckRows, InLink, LinkTable
from repro.congest.scheduler import Simulator
from repro.congest.transport import BandwidthPolicy, RoundOutbox
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exchange_engine import ExchangeEngine
from repro.core.parameters import WalkParameters
from repro.core.protocol import (
    KIND_EXCHANGE,
    PHASE_DONE,
    PHASE_SETUP,
    SETUP_SLACK,
    ProtocolConfig,
    RWBCNodeProgram,
    make_protocol_factory,
)
from repro.core.termination import KIND_DONE, KIND_TERM
from repro.core.walk_engine import CountingWalkEngine
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, path_graph

PARAMS = WalkParameters(length=20, walks_per_source=6)


def _launch_round(n):
    return 2 * SETUP_SLACK * n


def _run_both_loops(graph, plan, seed=3, parameters=PARAMS):
    slow = estimate_rwbc_distributed(
        graph, parameters, seed=seed, faults=plan, vectorized=False
    )
    fast = estimate_rwbc_distributed(
        graph, parameters, seed=seed, faults=plan, vectorized=True
    )
    return slow, fast


def _assert_identical(slow, fast):
    assert slow.betweenness == fast.betweenness
    assert slow.total_rounds == fast.total_rounds
    assert slow.phase_rounds == fast.phase_rounds
    assert slow.metrics.total_messages == fast.metrics.total_messages
    assert slow.metrics.total_bits == fast.metrics.total_bits
    # Per-round bits pin when each message went out, not only how many.
    assert slow.metrics.bits_per_round == fast.metrics.bits_per_round
    assert slow.metrics.faults == fast.metrics.faults
    assert slow.recovery == fast.recovery
    for node in slow.counts:
        assert (slow.counts[node] == fast.counts[node]).all()


class TestBoundaryEquivalence:
    """Hand-picked schedules at the edges of the vectorized dedup."""

    def test_crash_through_launch_round(self):
        """A node crashed through the 30 rounds before the walk launch
        loses that stretch's mail (its peers' ARQ retransmits it) and
        recovers in the launch round itself, so it launches with every
        other node."""
        n = 8
        graph = cycle_graph(n)
        launch = _launch_round(n)
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            crashes=(CrashWindow(node=2, start=launch - 30, end=launch),),
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["crash_node_rounds"] == 30

    def test_duplicate_storm(self):
        """Heavy duplication floods the dedup with intra-round repeats
        of the same (edge, seq) - the first-wins tie-break the batch
        acceptance must replicate exactly."""
        graph = erdos_renyi_graph(9, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(seed=13, duplicate_rate=0.4, drop_rate=0.05)
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["duplicated"] > 0
        assert slow.recovery["duplicates_rejected"] > 0

    def test_max_delay_slips(self):
        """Long delay slips re-order seqs across rounds, so tokens
        arrive ahead of their predecessors and park in the selective-ack
        mask (the out-of-window branch of the array acceptance)."""
        graph = erdos_renyi_graph(9, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(
            seed=17, delay_rate=0.25, max_delay=7, drop_rate=0.05
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["delayed"] > 0

    def test_receive_hole_wider_than_63_seqs(self, monkeypatch):
        """A crash window in counting, on a wide walk budget, leaves a
        receive hole of more than 63 seqs on some edge: the sender
        retransmits due seqs ascending, skipping the ones it resent in
        the last few rounds, so later seqs overtake them.  The unbounded
        ``InLink.mask`` must handle such windows the same on both
        loops."""
        n = 8
        launch = _launch_round(n)
        parameters = WalkParameters(length=20, walks_per_source=30)
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            crashes=(
                CrashWindow(node=1, start=launch + 5, end=launch + 65),
            ),
        )

        def run(vectorized):
            return estimate_rwbc_distributed(
                cycle_graph(n), parameters, seed=3, faults=plan,
                walk_budget=32, vectorized=vectorized,
            )

        slow = run(vectorized=False)
        widest = [0]
        accept = InLink.accept

        def tracked(link, seq):
            fresh = accept(link, seq)
            widest[0] = max(widest[0], link.mask.bit_length())
            return fresh

        monkeypatch.setattr(InLink, "accept", tracked)
        fast = run(vectorized=True)
        assert widest[0] > 63
        _assert_identical(slow, fast)

    def test_late_duplicates_past_counting(self):
        """Delay slips far longer than the exchange phase land duplicate
        walk tokens at nodes already exchanging or finished.  The
        per-message loop acks them in the receiver's own flush; the
        fast path dedups them after that flush (or without stepping a
        finished node) and must send the same acks itself."""
        graph = erdos_renyi_graph(6, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(
            seed=15, duplicate_rate=0.3, delay_rate=0.3, max_delay=30
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)


class TestTimerWakesAndAckRows:
    """On the fast path a reliable setup node sleeps until its channel
    or its next milestone needs it, and acks are bulk rows applied
    before the node pass; both must leave the run byte-identical."""

    def test_crash_through_the_announcement_round(self):
        """A node down across round ``SETUP_SLACK * n`` wakes after it
        and announces late, as in the per-message loop."""
        n = 8
        announce = SETUP_SLACK * n
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            crashes=(
                CrashWindow(node=3, start=announce - 4, end=announce + 9),
            ),
        )
        slow, fast = _run_both_loops(cycle_graph(n), plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["crash_node_rounds"] == 13

    @pytest.mark.parametrize("overlap", [0, 1], ids=["ends-on", "covers"])
    def test_crash_ending_on_a_retransmit_due_round(
        self, monkeypatch, overlap
    ):
        """A first run finds a setup node sleeping from round ``r`` to
        its channel's retransmit round ``due``; a crash from ``r + 1``
        then ends on ``due`` (the node is back exactly when its wake
        fires) or covers it (the scheduler re-arms the wake until the
        node is back)."""
        n = 8
        graph = cycle_graph(n)
        lossy = FaultPlan(seed=5, drop_rate=0.1)
        sleeps = []
        next_wake = RWBCNodeProgram.next_wake

        def spy(program, round_number):
            wake = next_wake(program, round_number)
            if (
                program.phase == PHASE_SETUP
                and wake is not None
                and wake > round_number + 2
                and wake == program._channel.wake_round(round_number)
            ):
                sleeps.append((program.node_id, round_number, wake))
            return wake

        monkeypatch.setattr(RWBCNodeProgram, "next_wake", spy)
        estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=lossy, vectorized=True
        )
        monkeypatch.undo()
        node, slept, due = sleeps[0]
        plan = FaultPlan(
            seed=5,
            drop_rate=0.1,
            crashes=(
                CrashWindow(node=node, start=slept + 1, end=due + overlap),
            ),
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)

    def test_delayed_and_duplicated_acks_reach_a_halted_node(
        self, monkeypatch
    ):
        """Acks delayed and duplicated past their receiver's finish
        land on a halted node: the per-message loop wakes it to take
        them in, the fast path applies the rows without a step."""
        graph = erdos_renyi_graph(6, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(
            seed=12, duplicate_rate=0.3, delay_rate=0.3, max_delay=30
        )
        slow = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=False
        )
        receive_rows = AckRows.receive_rows
        finished = {}
        finish = RWBCNodeProgram._finish
        late = collections.Counter()

        def finish_spy(program, round_number):
            finish(program, round_number)
            finished[program.node_id] = program

        def receive_spy(driver, round_number, claimed):
            ids, _, multiplicity = claimed[KIND_ACK]
            receivers = driver._edges.dst[ids]
            for node, copies in zip(receivers.tolist(), multiplicity.tolist()):
                program = finished.get(node)
                if program is not None and program.phase == PHASE_DONE:
                    late[copies] += 1
            receive_rows(driver, round_number, claimed)

        monkeypatch.setattr(AckRows, "receive_rows", receive_spy)
        monkeypatch.setattr(RWBCNodeProgram, "_finish", finish_spy)
        fast = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=True
        )
        assert late[1] and late[2]
        assert slow.metrics.faults["delayed"] > 0
        _assert_identical(slow, fast)

    def test_late_launch_replays_early_terms(self, monkeypatch):
        """A node down through the launch round launches on recovery,
        after its tree children: their term reports reach it while it
        is still in setup, and its late launch replays them and reports
        the subtree total to its parent in that same round.  Only the
        per-message loop supports a late launch (the estimator rejects
        such plans): the fast path's engine launches every node at once
        and refuses the plan with a structured error instead."""
        n = 8
        config = ProtocolConfig(
            length=PARAMS.length, walks_per_source=PARAMS.walks_per_source
        )
        launch = 2 * SETUP_SLACK * n
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            crashes=(CrashWindow(node=3, start=launch - 3, end=launch + 41),),
        )
        replays = []
        launch_counting = RWBCNodeProgram._launch_counting

        def spy(program, ctx, round_number):
            early = list(program._early_terms)
            launch_counting(program, ctx, round_number)
            if early:
                parent = program._tree.parent
                channel = program._channel
                slot = channel.first_slot + channel.neighbors.index(parent)
                reported = [
                    first_sent
                    for kind, _, _, first_sent in channel.table.unacked_rows(
                        slot
                    )
                    if kind == KIND_TERM
                ]
                replays.append((program.node_id, round_number, reported))

        def simulate(vectorized):
            return Simulator(
                path_graph(n),
                make_protocol_factory(config),
                policy=BandwidthPolicy(n=n, messages_per_edge=6),
                seed=3,
                faults=plan,
                vectorized=vectorized,
                max_rounds=20_000,
            ).run()

        monkeypatch.setattr(RWBCNodeProgram, "_launch_counting", spy)
        simulate(vectorized=False)
        ((node, launched, reported),) = replays
        assert node == 3 and launched > launch
        assert reported == [launched]
        with pytest.raises(ProtocolError, match="7/8 nodes registered"):
            simulate(vectorized=True)


class TestExchangeDriver:
    """The reliable exchange on the fast path runs in the exchange
    driver: columns travel as ARQ-sequenced bulk rows, and exchange
    nodes are stepped only for control mail."""

    def test_phase_markers_span_the_exchange(self):
        """The exchange phase starts in the round a node switches to it,
        so it lasts at least the ``n`` rounds its columns take."""
        n = 10
        graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
        slow, fast = _run_both_loops(graph, FaultPlan(seed=21, drop_rate=0.08))
        _assert_identical(slow, fast)
        assert fast.phase_rounds["exchange"] >= n

    def test_crash_inside_exchange(self):
        """A crash window placed inside node 0's exchange, from a first
        run's phase markers: the run is the same up to the window, so
        node 0 is exchanging when it goes down.  The driver skips the
        crashed node's step, as the per-message loop skips its round."""
        n = 10
        graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
        first = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=FaultPlan(seed=21, drop_rate=0.08)
        )
        switch = first.phase_rounds["setup"] + first.phase_rounds["counting"]
        plan = FaultPlan(
            seed=21,
            drop_rate=0.08,
            crashes=(CrashWindow(node=0, start=switch + 2, end=switch + 8),),
        )
        slow, fast = _run_both_loops(graph, plan)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["crash_node_rounds"] == 6
        assert fast.phase_rounds["setup"] + fast.phase_rounds["counting"] == (
            switch
        )

    def test_delay_slips_land_after_finish(self, monkeypatch):
        """Delayed column rows reach nodes that have already finished:
        the driver must accept them as duplicates and owe the acks."""
        graph = erdos_renyi_graph(9, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(seed=3, delay_rate=0.2, max_delay=6, drop_rate=0.05)
        slow = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=False
        )
        late_rounds = []
        accept = ExchangeEngine._accept

        def spy(driver, rows):
            late = accept(driver, rows)
            if len(late):
                late_rounds.append(late)
            return late

        monkeypatch.setattr(ExchangeEngine, "_accept", spy)
        fast = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=True
        )
        assert late_rounds
        _assert_identical(slow, fast)

    def test_both_drivers_settle_one_halted_node(self, monkeypatch):
        """A duplicate column row and a duplicate walk row reach a
        halted node in the same round: each driver settles it through
        the one ``LinkTable.settle`` rule - the first runs the flush the
        node's woken handler would have run, the second owes only the
        acks that flush did not send."""
        graph = erdos_renyi_graph(6, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(
            seed=6, duplicate_rate=0.3, delay_rate=0.3, max_delay=30
        )
        slow = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=False
        )
        settled = collections.Counter()
        settle = LinkTable.settle

        def spy(table, slots, round_number):
            for node in set(table.owners[slots].tolist()):
                settled[node, round_number] += 1
            return settle(table, slots, round_number)

        monkeypatch.setattr(LinkTable, "settle", spy)
        fast = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=True
        )
        assert max(settled.values()) == 2
        _assert_identical(slow, fast)

    def test_late_done_rows_reach_finished_nodes(self, monkeypatch):
        """Delayed copies of the done flood reach nodes that have
        already finished.  The per-message loop steps the halted node
        to ack them; the walk engine accepts the rows before the node
        pass and settles the node through ``LinkTable.settle`` without
        a step, sending the same acks."""
        graph = erdos_renyi_graph(6, 0.5, seed=2, ensure_connected=True)
        plan = FaultPlan(
            seed=5, drop_rate=0.05, delay_rate=0.3, duplicate_rate=0.1,
            max_delay=8,
        )
        slow = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=False
        )
        late = []
        receive_rows = CountingWalkEngine.receive_rows

        def spy(engine, round_number, claimed):
            for kind in (KIND_TERM, KIND_DONE):
                if kind in claimed:
                    late.extend(
                        node
                        for node in engine._edges.dst[claimed[kind][0]].tolist()
                        if engine._programs[node].phase == PHASE_DONE
                    )
            receive_rows(engine, round_number, claimed)

        monkeypatch.setattr(CountingWalkEngine, "receive_rows", spy)
        fast = estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=True
        )
        assert late
        _assert_identical(slow, fast)

    def test_columns_are_never_messages_on_the_fast_path(self, monkeypatch):
        """On the fast path exchange columns and acks travel as bulk
        rows; the per-message loop builds a message for each."""
        graph = erdos_renyi_graph(10, 0.45, seed=10, ensure_connected=True)
        plan = FaultPlan(seed=7, drop_rate=0.1)
        built = collections.Counter()
        push = RoundOutbox.push

        def spy(outbox, message):
            built[message.kind] += 1
            push(outbox, message)

        monkeypatch.setattr(RoundOutbox, "push", spy)
        estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=True
        )
        assert built[KIND_EXCHANGE] == 0
        assert built[KIND_ACK] == 0
        built.clear()
        estimate_rwbc_distributed(
            graph, PARAMS, seed=3, faults=plan, vectorized=False
        )
        assert built[KIND_EXCHANGE] > 0
        assert built[KIND_ACK] > 0

    def test_no_neighbor_matrices_on_the_fast_path(self, monkeypatch):
        """The driver finishes nodes on views into the count tensor, so
        no program allocates its ``(degree, 2, n)`` neighbor matrix;
        the per-message loop stores the columns it receives in one."""
        n = 10
        graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
        plan = FaultPlan(seed=7, drop_rate=0.1)
        finished = []
        finish = RWBCNodeProgram._finish

        def spy(program, round_number):
            finish(program, round_number)
            finished.append(program)

        monkeypatch.setattr(RWBCNodeProgram, "_finish", spy)
        for vectorized in (True, False):
            finished.clear()
            estimate_rwbc_distributed(
                graph, PARAMS, seed=3, faults=plan, vectorized=vectorized
            )
            assert len(finished) == n
            matrices = [p._neighbor_matrix is None for p in finished]
            assert all(matrices) if vectorized else not any(matrices)


@st.composite
def fault_plans(draw):
    """A random small-graph chaos schedule: rates in the protocol's
    survivable range plus an optional pre-launch crash window."""
    n = draw(st.integers(min_value=6, max_value=14))
    rates = {
        "drop_rate": draw(
            st.floats(0.0, 0.12, allow_nan=False, allow_infinity=False)
        ),
        "duplicate_rate": draw(
            st.floats(0.0, 0.2, allow_nan=False, allow_infinity=False)
        ),
        "delay_rate": draw(
            st.floats(0.0, 0.15, allow_nan=False, allow_infinity=False)
        ),
    }
    crashes = ()
    if draw(st.booleans()):
        launch = _launch_round(n)
        span = draw(st.integers(min_value=1, max_value=40))
        start = draw(st.integers(min_value=1, max_value=launch - span))
        crashes = (
            CrashWindow(
                node=draw(st.integers(min_value=0, max_value=n - 1)),
                start=start,
                end=start + span,
            ),
        )
    plan = FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        max_delay=draw(st.integers(min_value=1, max_value=6)),
        crashes=crashes,
        **rates,
    )
    return n, plan


#: Tier-1 keeps the sweep short.  Selecting a profile through
#: ``HYPOTHESIS_PROFILE`` (the scheduled CI job uses ``nightly``, see
#: ``tests/conftest.py``) hands the example count to that profile.
SWEEP_EXAMPLES = (
    settings.default.max_examples
    if os.environ.get("HYPOTHESIS_PROFILE")
    else 15
)


@given(case=fault_plans())
@example(
    # A duplicate walk token reaching a node already in the exchange
    # phase: the per-message loop acks it in that round's flush; the
    # fast path dedups it after the node has flushed, so the walk
    # engine must send that ack itself.
    case=(
        6,
        FaultPlan(
            seed=17480039,
            drop_rate=0.03125,
            delay_rate=0.051419101017703965,
            max_delay=6,
        ),
    )
)
@example(
    # Node 0 down from round 2 until just past the parent announcement
    # (round 6n = 36) misses the whole flood and announces on recovery
    # from a stale flood state.  The flood must keep running until
    # launch so the node still learns the leader; otherwise it keeps a
    # stale one and the loops disagree.
    case=(
        6,
        FaultPlan(
            seed=0,
            max_delay=1,
            crashes=(CrashWindow(node=0, start=2, end=37),),
        ),
    )
)
@example(
    # The same with node 2 back exactly at the announcement; with a
    # stale leader here the run never terminates.
    case=(
        6,
        FaultPlan(
            seed=0,
            max_delay=1,
            crashes=(CrashWindow(node=2, start=2, end=36),),
        ),
    )
)
@settings(
    max_examples=SWEEP_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_plans_byte_identical_across_loops(case):
    """Any survivable small plan: both loops agree byte for byte on
    estimates, fault counters, and recovery stats."""
    n, plan = case
    graph = erdos_renyi_graph(n, 0.45, seed=n, ensure_connected=True)
    if plan.is_trivial:
        # Trivial plans skip reliable mode entirely; nothing to compare
        # beyond what the fault-free equivalence suite already pins.
        return
    slow, fast = _run_both_loops(graph, plan, seed=1)
    _assert_identical(slow, fast)
