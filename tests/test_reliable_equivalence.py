"""Cross-loop equivalence of the *vectorized* reliable path.

The fast path's reliable machinery (per-row ARQ acceptance through
``ReliableChannel.accept`` in ``walk_engine._dedup_claimed``, block seq
assignment in ``_emit_reliable``, and ``FaultRuntime.filter_bulk`` over
aggregate rows, which shares its fate core with ``filter_messages``)
must reproduce the per-message loop byte for byte.  The fixed-seed
checks in ``test_failure_injection.py`` pin a handful of schedules;
this file adds the boundary cases those seeds happen to miss, plus a
hypothesis sweep over random small plans that hunts edge-grouping
regressions.
"""

import os

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.reliable import InLink
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig
from repro.graphs.generators import cycle_graph, erdos_renyi_graph

PARAMS = WalkParameters(length=20, walks_per_source=6)
#: Walk launch round of the stretched reliable setup; crash windows
#: must end at or before it (estimator enforces this).
SETUP_SLACK = ProtocolConfig(
    length=PARAMS.length, walks_per_source=PARAMS.walks_per_source
).setup_slack


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
    assert slow.metrics.faults == fast.metrics.faults
    assert slow.recovery == fast.recovery
    for node in slow.counts:
        assert (slow.counts[node] == fast.counts[node]).all()


class TestBoundaryEquivalence:
    """Hand-picked schedules at the edges of the vectorized dedup."""

    def test_crash_through_launch_round(self):
        """A node crashed until the walk launch round misses the
        launch milestone: every token sent to it sits unacked (the
        engine's setup-phase ineligibility path) until it recovers,
        performs the missed launch, and drains the retransmissions."""
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
