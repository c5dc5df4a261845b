"""Fault-tolerant asynchronous execution: the synchronizer masks faults.

The headline statement of the async recovery layer: a run under message
drops, duplicates, delays, and a crash-recover window produces outputs
**identical** to the fault-free *synchronous* run of the same seed - the
retransmit/ack/dedup transport plus the canonical inbox ordering hide
every fault below the round abstraction.  These tests pin that claim for
the primitives and the full RWBC estimator, pin run-level determinism
(same seed + same plan => same outputs, message totals, and recovery
stats) the way ``test_reliable_equivalence.py`` does for the synchronous
reliable mode, and exercise the structured failure taxonomy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.asynchronous import AsyncSimulator, run_async
from repro.congest.errors import (
    ConfigError,
    FaultInjectionError,
    RoundLimitExceeded,
    UnrecoverableLossError,
)
from repro.congest.faults import CrashWindow, FaultPlan
from repro.congest.primitives.bfs import make_bfs_factory
from repro.congest.primitives.convergecast import ConvergecastSumProgram
from repro.congest.primitives.leader import LeaderElectionProgram
from repro.congest.scheduler import run_program
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)

#: The full fault menu: 10% drops, duplicates, delays, and one
#: crash-recover window - the ISSUE's acceptance scenario.
PLAN = FaultPlan(
    seed=11,
    drop_rate=0.1,
    duplicate_rate=0.05,
    delay_rate=0.05,
    crashes=(CrashWindow(node=2, start=5, end=12),),
)
PARAMS = WalkParameters(length=20, walks_per_source=6)


class TestPrimitivesMatchSynchronousReference:
    def test_bfs_distances(self):
        graph = grid_graph(3, 3)
        sync = run_program(graph, make_bfs_factory(0))
        lossy = run_async(
            graph, make_bfs_factory(0), seed=3, max_delay=6.0, faults=PLAN
        )
        for node in graph.nodes():
            assert (
                lossy.program(node).distance == sync.program(node).distance
            )
        # The plan really injected something.
        assert lossy.metrics.faults["dropped"] > 0
        assert lossy.metrics.retransmissions > 0
        assert lossy.metrics.crash_recoveries == 1

    def test_leader_election(self):
        graph = cycle_graph(9)
        sync = run_program(graph, LeaderElectionProgram, seed=4)
        lossy = run_async(
            graph, LeaderElectionProgram, seed=4, max_delay=4.0, faults=PLAN
        )
        for node in graph.nodes():
            assert (
                lossy.program(node).state.leader_id
                == sync.program(node).state.leader_id
            )

    def test_convergecast_sum(self):
        graph = erdos_renyi_graph(12, 0.3, seed=2, ensure_connected=True)
        election = run_program(graph, LeaderElectionProgram, seed=2)
        children = {
            v: election.program(v).state.children for v in graph.nodes()
        }
        parent = {
            v: election.program(v).state.parent for v in graph.nodes()
        }
        leader = election.program(0).state.leader_id

        def factory(info, rng):
            return ConvergecastSumProgram(
                info, rng, children, parent, local_value=info.node_id
            )

        lossy = run_async(
            graph, factory, seed=2, max_delay=8.0, faults=PLAN
        )
        assert lossy.program(leader).total == sum(graph.nodes())
        for node in graph.nodes():
            if node != leader:
                assert lossy.program(node).total is None


class TestEstimatorMatchesSynchronousReference:
    def test_bit_for_bit_betweenness(self):
        """The acceptance scenario: async + 10% drops + dups + delays +
        one crash-recover window == fault-free synchronous reference."""
        graph = cycle_graph(8)
        sync = estimate_rwbc_distributed(graph, PARAMS, seed=7)
        lossy = estimate_rwbc_distributed(
            graph,
            PARAMS,
            seed=7,
            executor="async",
            max_delay=6.0,
            faults=PLAN,
        )
        assert lossy.target == sync.target
        for node in graph.nodes():
            assert lossy.betweenness[node] == sync.betweenness[node]
            assert np.array_equal(lossy.counts[node], sync.counts[node])
        # Marker-derived phases agree; only trailing drain rounds differ.
        for phase in ("setup", "counting", "exchange"):
            assert lossy.phase_rounds[phase] == sync.phase_rounds[phase]
        assert lossy.recovery["retransmissions"] > 0
        assert lossy.recovery["crash_recoveries"] == 1
        assert lossy.metrics.faults["dropped"] > 0

    def test_fault_free_async_also_matches(self):
        graph = cycle_graph(8)
        sync = estimate_rwbc_distributed(graph, PARAMS, seed=7)
        clean = estimate_rwbc_distributed(
            graph, PARAMS, seed=7, executor="async", max_delay=6.0
        )
        assert clean.betweenness == sync.betweenness
        assert clean.recovery is None
        assert clean.metrics.retransmissions == 0

    def test_rerun_is_deterministic(self):
        """Same seed + same plan reproduces outputs AND observables:
        betweenness, message totals, per-round series, fault and
        recovery counters - all of it."""
        graph = cycle_graph(8)
        runs = [
            estimate_rwbc_distributed(
                graph,
                PARAMS,
                seed=7,
                executor="async",
                max_delay=6.0,
                faults=PLAN,
            )
            for _ in range(2)
        ]
        first, second = runs
        assert first.betweenness == second.betweenness
        assert first.metrics.summary() == second.metrics.summary()
        assert first.metrics.faults == second.metrics.faults
        assert (
            first.metrics.messages_per_round
            == second.metrics.messages_per_round
        )
        assert first.metrics.bits_per_round == second.metrics.bits_per_round
        assert first.recovery == second.recovery

    def test_per_round_series_shape(self):
        graph = cycle_graph(8)
        result = estimate_rwbc_distributed(
            graph,
            PARAMS,
            seed=7,
            executor="async",
            max_delay=6.0,
            faults=PLAN,
        )
        metrics = result.metrics
        assert len(metrics.messages_per_round) == metrics.rounds
        assert len(metrics.bits_per_round) == metrics.rounds
        assert sum(metrics.messages_per_round) == metrics.total_messages
        assert sum(metrics.bits_per_round) == metrics.total_bits


class TestDeterminismSweep:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plan_seed=st.integers(0, 2**32 - 1),
        drop=st.floats(0.0, 0.15),
        dup=st.floats(0.0, 0.15),
        delay=st.floats(0.0, 0.15),
        crash=st.booleans(),
        seed=st.integers(0, 100),
    )
    def test_random_plans_mask_and_reproduce(
        self, plan_seed, drop, dup, delay, crash, seed
    ):
        graph = grid_graph(3, 3)
        crashes = (
            (CrashWindow(node=4, start=3, end=9),) if crash else ()
        )
        plan = FaultPlan(
            seed=plan_seed,
            drop_rate=drop,
            duplicate_rate=dup,
            delay_rate=delay,
            crashes=crashes,
        )
        sync = run_program(graph, make_bfs_factory(0))
        runs = [
            run_async(
                graph,
                make_bfs_factory(0),
                seed=seed,
                max_delay=5.0,
                faults=plan,
            )
            for _ in range(2)
        ]
        for node in graph.nodes():
            assert (
                runs[0].program(node).distance
                == sync.program(node).distance
            )
        assert runs[0].metrics.summary() == runs[1].metrics.summary()
        assert runs[0].metrics.faults == runs[1].metrics.faults


class TestFailureTaxonomy:
    def test_round_limit_carries_partial_metrics(self):
        with pytest.raises(RoundLimitExceeded) as excinfo:
            run_async(
                path_graph(6), make_bfs_factory(0), seed=1, max_rounds=2
            )
        error = excinfo.value
        assert not isinstance(error, UnrecoverableLossError)
        assert error.metrics is not None
        assert error.metrics.rounds_completed > 2
        assert error.context["max_rounds"] == 2
        assert error.context["virtual_time"] > 0

    def test_round_limit_under_faults_is_unrecoverable_loss(self):
        plan = FaultPlan(seed=5, drop_rate=0.1)
        with pytest.raises(UnrecoverableLossError) as excinfo:
            run_async(
                path_graph(6),
                make_bfs_factory(0),
                seed=1,
                max_rounds=2,
                faults=plan,
            )
        error = excinfo.value
        assert error.metrics is not None
        assert error.metrics.faults  # counters snapshotted before raise
        assert error.context["rounds_completed"] > 2

    def test_retransmit_exhaustion_names_the_edge(self):
        """A crash window far longer than the retransmit budget: the
        sender gives up and the error says exactly where and when."""
        plan = FaultPlan(
            seed=5, crashes=(CrashWindow(node=1, start=1, end=200),)
        )
        with pytest.raises(UnrecoverableLossError) as excinfo:
            run_async(
                path_graph(3),
                make_bfs_factory(0),
                seed=1,
                max_delay=4.0,
                faults=plan,
                max_retransmits=2,
            )
        context = excinfo.value.context
        assert context["retransmits"] == 2
        assert 1 in context["edge"]
        assert context["virtual_time"] > 0
        assert excinfo.value.metrics is not None

    def test_sync_round_limit_context_matches_taxonomy(self):
        """The synchronous loops populate the same structured context."""
        plan = FaultPlan(seed=5, drop_rate=0.1)
        with pytest.raises(UnrecoverableLossError) as excinfo:
            estimate_rwbc_distributed(
                cycle_graph(8), PARAMS, seed=3, faults=plan, max_rounds=5
            )
        error = excinfo.value
        assert error.context["max_rounds"] == 5
        assert error.context["faults"] is not None
        assert error.metrics is not None

    def test_fault_injection_error_is_config_error(self):
        assert issubclass(FaultInjectionError, ConfigError)
        assert issubclass(UnrecoverableLossError, RoundLimitExceeded)


class TestConfigValidation:
    def test_crash_stop_rejected(self):
        plan = FaultPlan(
            seed=5, crashes=(CrashWindow(node=1, start=1, end=None),)
        )
        with pytest.raises(FaultInjectionError):
            AsyncSimulator(path_graph(4), make_bfs_factory(0), faults=plan)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError):
            estimate_rwbc_distributed(
                cycle_graph(6), PARAMS, seed=1, executor="threads"
            )

    def test_sharded_executor_removed(self):
        with pytest.raises(ConfigError, match="expected 'sync' or 'async'"):
            estimate_rwbc_distributed(
                cycle_graph(6), PARAMS, seed=1, executor="sharded"
            )
        with pytest.raises(TypeError, match="num_shards"):
            estimate_rwbc_distributed(
                cycle_graph(6), PARAMS, seed=1, num_shards=2
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"record_messages": True},
            {"vectorized": True},
        ],
        ids=["record_messages", "vectorized"],
    )
    def test_async_incompatible_options_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            estimate_rwbc_distributed(
                cycle_graph(6), PARAMS, seed=1, executor="async", **kwargs
            )

    def test_async_tracer_rejected(self):
        from repro.congest.trace import Tracer

        with pytest.raises(ConfigError):
            estimate_rwbc_distributed(
                cycle_graph(6),
                PARAMS,
                seed=1,
                executor="async",
                tracer=Tracer(),
            )
