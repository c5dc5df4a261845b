"""Sharded-executor equivalence and lifecycle tests.

The correctness bar for :mod:`repro.congest.sharded` is the repo's
established one: a seeded sharded run must be *byte-identical* to the
single-process fast-path run - same betweenness values, same count
tensors, same deterministic complexity counters - for every shard
count, graph family, and fault profile.  The second half checks the
failure contract: a dying worker surfaces as a structured
:class:`~repro.congest.errors.ShardExecutionError` immediately (no
hang) and the run's worker processes and shared memory are reclaimed
on every exit path.
"""

import multiprocessing

import numpy as np
import pytest

from repro.congest.errors import ConfigError, ShardExecutionError
from repro.congest.faults import CrashWindow, FaultPlan
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    random_tree,
    star_graph,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded executor requires the fork start method",
)


def _assert_identical(base, sharded):
    assert sharded.betweenness == base.betweenness
    assert sharded.target == base.target
    assert sharded.total_rounds == base.total_rounds
    assert sharded.phase_rounds == base.phase_rounds
    assert sharded.edge_betweenness == base.edge_betweenness
    assert sharded.metrics.total_messages == base.metrics.total_messages
    assert sharded.metrics.total_bits == base.metrics.total_bits
    assert (
        sharded.metrics.max_messages_per_edge_round
        == base.metrics.max_messages_per_edge_round
    )
    assert sharded.recovery == base.recovery
    for node in base.counts:
        assert np.array_equal(sharded.counts[node], base.counts[node])


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "graph",
        [
            erdos_renyi_graph(24, 0.25, seed=3),
            cycle_graph(14),
            grid_graph(4, 4),
            random_tree(20, seed=5),
        ],
        ids=["er", "cycle", "grid", "tree"],
    )
    def test_byte_identical_to_fast_path(self, graph, shards):
        parameters = WalkParameters(length=30, walks_per_source=4)
        base = estimate_rwbc_distributed(graph, parameters, seed=11)
        sharded = estimate_rwbc_distributed(
            graph,
            parameters,
            seed=11,
            executor="sharded",
            num_shards=shards,
        )
        assert not sharded.fallback_reasons
        _assert_identical(base, sharded)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_byte_identical_under_loss(self, shards):
        """Reliable mode (ARQ, dedup, retransmission) is parent-side;
        the sharded kernel must reproduce it byte for byte."""
        graph = cycle_graph(10)
        parameters = WalkParameters(length=24, walks_per_source=4)
        plan = FaultPlan(drop_rate=0.08, duplicate_rate=0.04, seed=5)
        base = estimate_rwbc_distributed(
            graph, parameters, seed=11, faults=plan
        )
        sharded = estimate_rwbc_distributed(
            graph,
            parameters,
            seed=11,
            faults=plan,
            executor="sharded",
            num_shards=shards,
        )
        assert sharded.recovery["retransmissions"] > 0
        _assert_identical(base, sharded)

    def test_byte_identical_under_crash_window(self):
        graph = cycle_graph(10)
        parameters = WalkParameters(length=24, walks_per_source=4)
        plan = FaultPlan(
            drop_rate=0.05,
            seed=5,
            crashes=(CrashWindow(node=3, start=8, end=14),),
        )
        base = estimate_rwbc_distributed(
            graph, parameters, seed=11, faults=plan
        )
        sharded = estimate_rwbc_distributed(
            graph,
            parameters,
            seed=11,
            faults=plan,
            executor="sharded",
            num_shards=2,
        )
        _assert_identical(base, sharded)

    @pytest.mark.parametrize("alpha", [None, 0.85], ids=["absorbing", "damped"])
    def test_star_matches_both_loops(self, alpha):
        """Degree-1 leaves draw no ports; the hub's stream lives in
        shard 0 and the leaves split across both workers."""
        graph = star_graph(12)
        parameters = WalkParameters(length=40, walks_per_source=6)
        runs = [
            estimate_rwbc_distributed(
                graph, parameters, seed=11, survival_alpha=alpha, **options
            )
            for options in (
                {"vectorized": False},
                {},
                {"executor": "sharded", "num_shards": 2},
            )
        ]
        assert not runs[2].fallback_reasons
        for run in runs[1:]:
            _assert_identical(runs[0], run)

    def test_single_shard_is_the_degenerate_case(self):
        """num_shards=1 still runs the worker machinery (one process)."""
        graph = erdos_renyi_graph(16, 0.3, seed=1)
        parameters = WalkParameters(length=16, walks_per_source=2)
        base = estimate_rwbc_distributed(graph, parameters, seed=2)
        sharded = estimate_rwbc_distributed(
            graph, parameters, seed=2, executor="sharded", num_shards=1
        )
        _assert_identical(base, sharded)


class TestShardedConfig:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError, match="unknown executor"):
            estimate_rwbc_distributed(cycle_graph(6), executor="mpi")

    def test_num_shards_requires_sharded_executor(self):
        with pytest.raises(ConfigError, match="num_shards is only valid"):
            estimate_rwbc_distributed(cycle_graph(6), num_shards=2)

    def test_record_messages_rejected(self):
        with pytest.raises(ConfigError, match="record_messages"):
            estimate_rwbc_distributed(
                cycle_graph(6), executor="sharded", record_messages=True
            )

    def test_vectorized_false_rejected(self):
        with pytest.raises(ConfigError, match="vectorized"):
            estimate_rwbc_distributed(
                cycle_graph(6), executor="sharded", vectorized=False
            )

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            estimate_rwbc_distributed(
                cycle_graph(6), executor="sharded", num_shards=7
            )

    def test_defaults_to_two_shards(self):
        graph = cycle_graph(8)
        parameters = WalkParameters(length=8, walks_per_source=1)
        base = estimate_rwbc_distributed(graph, parameters, seed=1)
        sharded = estimate_rwbc_distributed(
            graph, parameters, seed=1, executor="sharded"
        )
        _assert_identical(base, sharded)


class TestShardCrashSafety:
    def test_worker_exception_surfaces_structured(self, monkeypatch):
        """A worker that raises mid-kernel must produce a
        ShardExecutionError with shard context - not a hang, not a
        silent wrong answer.  The kernel is patched before the workers
        fork, so the failure happens inside the child process."""
        import repro.congest.sharded as sharded_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected shard failure")

        monkeypatch.setattr(sharded_mod, "counting_round_kernel", boom)
        with pytest.raises(ShardExecutionError) as excinfo:
            estimate_rwbc_distributed(
                cycle_graph(8),
                WalkParameters(length=8, walks_per_source=1),
                seed=3,
                executor="sharded",
                num_shards=2,
            )
        context = excinfo.value.context
        assert context["num_shards"] == 2
        assert context["shard"] in (0, 1)
        assert "injected shard failure" in context["detail"]
        # Cleanup ran on the error path: no orphaned workers.
        assert multiprocessing.active_children() == []

    def test_workers_and_shm_reclaimed_after_success(self):
        import glob

        before = set(glob.glob("/dev/shm/psm_*"))
        estimate_rwbc_distributed(
            cycle_graph(10),
            WalkParameters(length=8, walks_per_source=1),
            seed=3,
            executor="sharded",
            num_shards=4,
        )
        assert multiprocessing.active_children() == []
        assert set(glob.glob("/dev/shm/psm_*")) <= before
