"""Failure-injection tests: lossy channels, with and without recovery.

The CONGEST model assumes reliable synchronous channels.  The first half
of this file documents how a protocol with no recovery (BFS) depends on
that assumption, and where the RWBC protocol's recovery comes from: a
non-trivial :class:`FaultPlan` on the synchronous scheduler marks every
node's links lossy, which turns the protocol's ARQ on.  The second half
exercises that fault-tolerant mode: the reliable layer restores
exactly-once delivery, the protocol completes, and both scheduler loops
produce byte-identical results for the same seeds.
"""

import numpy as np
import pytest

from repro.congest.asynchronous import AsyncSimulator
from repro.congest.errors import ConfigError
from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.primitives.bfs import make_bfs_factory
from repro.congest.scheduler import Simulator
from repro.congest.transport import BandwidthPolicy
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exact import rwbc_exact
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, path_graph
from repro.graphs.properties import bfs_distances


def _drops(rate: float, seed: int) -> FaultPlan:
    """I.i.d. loss at ``rate``, on the plan seed these tests have
    always used for a run seeded ``seed``."""
    return FaultPlan.from_drop_rate(rate, seed=seed ^ 0xD509)


class TestDropRateConfig:
    def test_invalid_rates(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_drop_rate(1.0)
        with pytest.raises(ConfigError):
            FaultPlan.from_drop_rate(-0.1)

    def test_zero_rate_is_default_behaviour(self):
        graph = cycle_graph(6)
        lossless = Simulator(
            graph, make_bfs_factory(0), seed=1, faults=_drops(0.0, 1)
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
            graph, make_bfs_factory(0), seed=0, faults=_drops(0.999999, 0)
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
            graph, make_bfs_factory(0), seed=3, faults=_drops(0.3, 3)
        ).run()
        for node in graph.nodes():
            got = result.program(node).distance
            if got is not None:
                assert got >= exact[node]


class TestLossyRWBCProtocol:
    """Recovery follows the links: the run's plan, not a protocol
    option, decides whether the RWBC protocol runs its ARQ."""

    CONFIG = ProtocolConfig(length=12, walks_per_source=4)

    def _sync(self, graph, faults, vectorized):
        return Simulator(
            graph,
            make_protocol_factory(self.CONFIG),
            policy=BandwidthPolicy(n=graph.num_nodes, messages_per_edge=6),
            seed=2,
            faults=faults,
            vectorized=vectorized,
        ).run()

    def test_a_lossy_plan_turns_recovery_on(self):
        graph = cycle_graph(8)
        plan = FaultPlan(seed=4, drop_rate=1e-12)
        slow = self._sync(graph, plan, vectorized=False)
        fast = self._sync(graph, plan, vectorized=True)
        for result in (slow, fast):
            for program in result.programs.values():
                assert program.info.lossy
                assert program._channel is not None
        assert fast.fast_path and not slow.fast_path
        for node in graph.nodes():
            assert (
                fast.program(node).betweenness
                == slow.program(node).betweenness
            )

    def test_fault_free_links_run_without_recovery(self):
        graph = cycle_graph(8)
        fast = self._sync(graph, FaultPlan(), vectorized=True)
        for program in fast.programs.values():
            assert not program.info.lossy
            assert program._channel is None
            assert program._setup_engine is not None

    def test_the_async_synchronizer_masks_the_plan(self):
        """The asynchronous executor recovers below the round
        abstraction, so the protocol never sees lossy links."""
        graph = cycle_graph(8)
        result = AsyncSimulator(
            graph,
            make_protocol_factory(self.CONFIG),
            seed=2,
            faults=FaultPlan(seed=4, drop_rate=0.1),
        ).run()
        assert result.metrics.faults["dropped"] > 0
        for program in result.programs.values():
            assert not program.info.lossy
            assert program._channel is None
            assert program.betweenness is not None

    def test_the_estimator_reports_the_recovering_layer(self):
        """Recovery stats come from whichever layer recovered: the
        protocol's channels on the synchronous loop, the synchronizer's
        transport under the async executor."""
        graph = cycle_graph(8)
        plan = FaultPlan(seed=4, drop_rate=0.1)
        parameters = WalkParameters(length=12, walks_per_source=4)
        sync = estimate_rwbc_distributed(graph, parameters, seed=2, faults=plan)
        assert set(sync.recovery) == {
            "retransmissions", "acks_sent", "duplicates_rejected",
        }
        assert sync.recovery["retransmissions"] > 0
        assert sync.recovery["acks_sent"] > 0
        async_run = estimate_rwbc_distributed(
            graph, parameters, seed=2, faults=plan, executor="async"
        )
        assert async_run.recovery == async_run.metrics.recovery_summary()
        assert async_run.recovery["retransmissions"] > 0
        for clean in (
            estimate_rwbc_distributed(graph, parameters, seed=2),
            estimate_rwbc_distributed(
                graph, parameters, seed=2, executor="async"
            ),
        ):
            assert clean.recovery is None

    def test_reproducible_drops(self):
        graph = path_graph(6)
        runs = []
        for _ in range(2):
            result = Simulator(
                graph, make_bfs_factory(0), seed=9, faults=_drops(0.5, 9)
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
