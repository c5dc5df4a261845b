"""Perf gate: the vectorized fast path on a *faulty* run.

Fault-free, the fast path wins ~6.5x at n = 100 (see
``test_bench_batched_engine``); this benchmark times the same contest
under a 10% drop plan, where every walk token rides the per-edge ARQ.
Before the reliable path was vectorized the gap here collapsed to
~1.15x; this file is the regression gate that keeps it from collapsing
again.

The CI ``perf-gate`` job runs this module and fails the build when the
fast loop is not at least ``MIN_SPEEDUP`` times faster than the
per-message loop on the identical seeded run.  A wall-clock *ratio*
(both loops timed in the same process on the same machine) is stable
on noisy CI runners where absolute times are not.  The measured
timings are written to ``BENCH_reliable.json`` (path overridable via
``$BENCH_RELIABLE_JSON``) and uploaded as a CI artifact so the perf
trajectory is tracked across PRs.

Equivalence is asserted before timing is trusted: estimates, fault
counters, and recovery stats must be byte-identical across the loops.
"""

import json
import os
import time

import pytest

from repro.congest.faults import FaultPlan
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.graphs.generators import erdos_renyi_graph

N = 100
DROP_RATE = 0.10
#: Heavier than the paper schedule's (300, 27) at n = 100 on purpose:
#: a longer counting phase makes the measured ratio reflect the
#: vectorized hot path.  The stretched reliable setup is no shared
#: floor any more: the per-message loop steps every node in each of
#: its rounds, while the fast loop steps a setup node only for mail, a
#: due retransmission or a milestone, and takes acks as bulk rows
#: without a step.  On the fast loop the exchange columns also travel
#: as bulk rows, through the exchange driver.
LENGTH, WALKS = 600, 54
#: The gate: fast loop must beat the per-message loop by this factor.
MIN_SPEEDUP = 2.0


def _run(vectorized):
    graph = erdos_renyi_graph(
        N, min(0.5, 8.0 / N), seed=N, ensure_connected=True
    )
    params = WalkParameters(length=LENGTH, walks_per_source=WALKS)
    plan = FaultPlan(seed=7, drop_rate=DROP_RATE)
    start = time.perf_counter()
    result = estimate_rwbc_distributed(
        graph, params, seed=1, faults=plan, vectorized=vectorized
    )
    return result, time.perf_counter() - start


def compare_faulty_engines():
    fast, fast_seconds = _run(vectorized=True)
    slow, slow_seconds = _run(vectorized=False)
    assert fast.betweenness == slow.betweenness
    assert fast.metrics.rounds == slow.metrics.rounds
    assert fast.metrics.total_messages == slow.metrics.total_messages
    assert fast.metrics.faults == slow.metrics.faults
    assert fast.recovery == slow.recovery
    return {
        "n": N,
        "drop_rate": DROP_RATE,
        "length": LENGTH,
        "walks_per_source": WALKS,
        "rounds": fast.metrics.rounds,
        "dropped": fast.metrics.faults["dropped"],
        "retransmissions": fast.recovery["retransmissions"],
        "fast_seconds": fast_seconds,
        "slow_seconds": slow_seconds,
        "speedup": slow_seconds / fast_seconds,
        "min_speedup": MIN_SPEEDUP,
    }


def collect_rows():
    """E21 table for ``repro.experiments.generate`` (one timed contest)."""
    return [compare_faulty_engines()]


@pytest.mark.benchmark(group="reliable-engine")
def test_reliable_engine_speedup(benchmark):
    row = benchmark.pedantic(
        compare_faulty_engines, rounds=1, iterations=1
    )
    benchmark.extra_info.update(row)
    out_path = os.environ.get("BENCH_RELIABLE_JSON", "BENCH_reliable.json")
    with open(out_path, "w") as handle:
        json.dump(row, handle, indent=2, sort_keys=True)
    print(
        f"reliable n={row['n']} drop={row['drop_rate']:.0%}: "
        f"fast={row['fast_seconds']:.2f}s slow={row['slow_seconds']:.2f}s "
        f"speedup={row['speedup']:.2f}x (gate {MIN_SPEEDUP:.1f}x, "
        f"{row['dropped']} drops, {row['retransmissions']} retransmits)"
    )
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"faulty-run fast path regressed: {row['speedup']:.2f}x < "
        f"{MIN_SPEEDUP:.1f}x over the per-message loop "
        f"(fast {row['fast_seconds']:.2f}s, slow {row['slow_seconds']:.2f}s)"
    )
