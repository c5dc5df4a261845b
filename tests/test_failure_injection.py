"""Failure-injection tests: lossy channels, with and without recovery.

The CONGEST model assumes reliable synchronous channels.  The first half
of this file documents how the *plain* protocols depend on that
assumption: lost walk tokens stall the monotone death counter, so the
RWBC protocol fails detectably instead of returning silently corrupted
values.  The second half exercises the fault-tolerant mode: under a
:class:`FaultPlan` the reliable layer restores exactly-once delivery,
the protocol completes, and both scheduler loops produce byte-identical
results for the same seeds.
"""

import numpy as np
import pytest

from repro.congest.errors import (
    ConfigError,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.primitives.bfs import make_bfs_factory
from repro.congest.scheduler import Simulator
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exact import rwbc_exact
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, path_graph
from repro.graphs.properties import bfs_distances


class TestDropRateConfig:
    def test_invalid_rates(self):
        with pytest.raises(ConfigError):
            Simulator(path_graph(3), make_bfs_factory(0), drop_rate=1.0)
        with pytest.raises(ConfigError):
            Simulator(path_graph(3), make_bfs_factory(0), drop_rate=-0.1)

    def test_zero_rate_is_default_behaviour(self):
        graph = cycle_graph(6)
        lossless = Simulator(
            graph, make_bfs_factory(0), seed=1, drop_rate=0.0
        ).run()
        default = Simulator(graph, make_bfs_factory(0), seed=1).run()
        for node in graph.nodes():
            assert (
                lossless.program(node).distance
                == default.program(node).distance
            )


class TestLossyBFS:
    def test_total_loss_leaves_nodes_unreached(self):
        """With every message dropped, only the root knows anything."""
        graph = path_graph(5)
        result = Simulator(
            graph, make_bfs_factory(0), seed=0, drop_rate=0.999999
        ).run()
        # Statistically all messages are gone; distance None downstream.
        unreached = [
            v for v in graph.nodes() if result.program(v).distance is None
        ]
        assert len(unreached) >= 3

    def test_light_loss_can_inflate_distances(self):
        """Lost wave fronts mean later (longer) paths win: distances are
        upper bounds, never underestimates."""
        graph = erdos_renyi_graph(20, 0.25, seed=3, ensure_connected=True)
        exact = bfs_distances(graph, 0)
        result = Simulator(
            graph, make_bfs_factory(0), seed=3, drop_rate=0.3
        ).run()
        for node in graph.nodes():
            got = result.program(node).distance
            if got is not None:
                assert got >= exact[node]


class TestLossyRWBCProtocol:
    def test_fails_detectably_not_silently(self):
        """Without the reliable layer, loss breaks the protocol
        *loudly*: either a dropped control message trips a protocol
        invariant, or dropped walk tokens starve the termination
        detector until the round limit - never a silent wrong answer."""
        graph = cycle_graph(8)
        config = ProtocolConfig(length=40, walks_per_source=10)
        simulator = Simulator(
            graph,
            make_protocol_factory(config),
            seed=2,
            drop_rate=0.2,
            max_rounds=2000,
        )
        with pytest.raises((ProtocolError, RoundLimitExceeded)):
            simulator.run()

    def test_reproducible_drops(self):
        graph = path_graph(6)
        runs = []
        for _ in range(2):
            result = Simulator(
                graph, make_bfs_factory(0), seed=9, drop_rate=0.5
            ).run()
            runs.append(
                tuple(result.program(v).distance for v in graph.nodes())
            )
        assert runs[0] == runs[1]


def _run_both_loops(graph, plan, seed=3, parameters=None):
    """Run the reliable protocol on both scheduler loops; return
    (slow, fast) results."""
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
    assert slow.metrics.faults == fast.metrics.faults
    assert slow.recovery == fast.recovery
    for node in slow.counts:
        assert (slow.counts[node] == fast.counts[node]).all()


class TestReliableProtocol:
    """The fault-tolerant mode: completion and cross-loop equivalence."""

    PARAMS = WalkParameters(length=20, walks_per_source=6)

    def test_completes_under_drops_both_loops_identical(self):
        graph = cycle_graph(8)
        plan = FaultPlan(seed=7, drop_rate=0.1)
        slow, fast = _run_both_loops(graph, plan, parameters=self.PARAMS)
        _assert_identical(slow, fast)
        assert fast.fallback_reasons == ()  # drops did not force fallback
        assert slow.metrics.faults["dropped"] > 0
        assert slow.recovery["retransmissions"] > 0

    def test_duplicates_and_delays_both_loops_identical(self):
        graph = erdos_renyi_graph(10, 0.4, seed=1, ensure_connected=True)
        plan = FaultPlan(
            seed=11, drop_rate=0.08, duplicate_rate=0.05, delay_rate=0.05
        )
        slow, fast = _run_both_loops(graph, plan, parameters=self.PARAMS)
        _assert_identical(slow, fast)
        faults = slow.metrics.faults
        assert faults["duplicated"] > 0
        assert faults["delayed"] > 0
        assert slow.recovery["duplicates_rejected"] > 0

    def test_crash_recover_both_loops_identical(self):
        graph = erdos_renyi_graph(10, 0.4, seed=1, ensure_connected=True)
        # One crash in setup, one during counting; the launch round
        # (2 * SETUP_SLACK * n = 120) stays uncovered.
        plan = FaultPlan(
            seed=11,
            drop_rate=0.1,
            crashes=(
                CrashWindow(node=2, start=10, end=25),
                CrashWindow(node=5, start=130, end=145),
            ),
        )
        slow, fast = _run_both_loops(graph, plan, parameters=self.PARAMS)
        _assert_identical(slow, fast)
        assert slow.metrics.faults["crash_node_rounds"] == 30

    def test_zero_rate_plan_is_a_noop(self):
        """A trivial plan must not change a single byte of the run."""
        graph = cycle_graph(8)
        free = estimate_rwbc_distributed(
            graph, self.PARAMS, seed=3
        )
        trivial = estimate_rwbc_distributed(
            graph, self.PARAMS, seed=3, faults=FaultPlan()
        )
        assert trivial.betweenness == free.betweenness
        assert trivial.total_rounds == free.total_rounds
        assert trivial.recovery is None  # trivial plan stays non-reliable

    def test_fault_schedule_independent_of_protocol_seed(self):
        """The same plan injects the same schedule under different
        protocol seeds (stateless-hash contract, end to end)."""
        graph = cycle_graph(8)
        plan = FaultPlan(seed=7, drop_rate=0.1)
        runs = [
            estimate_rwbc_distributed(
                graph, self.PARAMS, seed=s, faults=plan
            )
            for s in (3, 4)
        ]
        assert runs[0].betweenness != runs[1].betweenness
        # Setup traffic (seed-independent deterministic flood) faces the
        # identical fault schedule, so the stretched setup length agrees.
        assert (
            runs[0].phase_rounds["setup"] == runs[1].phase_rounds["setup"]
        )


class TestChaosSmoke:
    """End-to-end: heavy faults, the answer stays an honest estimate."""

    def test_estimates_survive_chaos(self):
        graph = erdos_renyi_graph(12, 0.4, seed=1, ensure_connected=True)
        parameters = WalkParameters(length=24, walks_per_source=10)
        plan = FaultPlan(
            seed=11,
            drop_rate=0.15,
            crashes=(CrashWindow(node=2, start=150, end=170),),
        )
        free = estimate_rwbc_distributed(graph, parameters, seed=5)
        chaos = estimate_rwbc_distributed(
            graph, parameters, seed=5, faults=plan
        )
        assert chaos.fallback_reasons == ()
        nodes = sorted(graph.nodes())
        f = np.array([free.betweenness[v] for v in nodes])
        c = np.array([chaos.betweenness[v] for v in nodes])
        e = np.array([rwbc_exact(graph)[v] for v in nodes])
        # Faults perturb walk timing (hence trajectories), but the
        # chaos run must stay an unbiased estimate: as close to the
        # exact values as ordinary sampling noise allows.
        free_error = np.abs(f - e).max()
        chaos_error = np.abs(c - e).max()
        assert chaos_error <= max(2.5 * free_error, 0.15)
        assert np.corrcoef(c, e)[0, 1] > 0.9
