"""Telemetry overhead guard.

The acceptance budget is < 10% wall-clock overhead for a fully
observed fault-free fast-path run at n = 100 (measured ~8.5% on the
reference machine, dominated by the per-round histogram folds).  A CI
assert at exactly 10% would flake on shared runners, so the pinned
regression bound is looser; blowing through it means a real
regression (e.g. spans on a per-message hot path), not noise.
"""

import statistics
import time

from repro.core.estimator import estimate_rwbc_distributed
from repro.experiments.workloads import make_workload
from repro.obs import Telemetry

REGRESSION_BOUND = 0.35
#: Alternating bare/observed pairs; the bound applies to the median of
#: their observed/bare wall ratios.
PAIRS = 11


def _pair_ratios(pairs, bare, observed):
    """Observed/bare wall ratio of each of ``pairs`` back-to-back runs.
    Which side goes first alternates from pair to pair, so host drift
    inside a pair hits both sides alike."""
    ratios = []
    for pair in range(pairs):
        walls = {}
        for fn in (bare, observed) if pair % 2 == 0 else (observed, bare):
            start = time.perf_counter()
            fn()
            walls[fn] = time.perf_counter() - start
        ratios.append(walls[observed] / walls[bare])
    return ratios


def test_observed_run_overhead_bounded():
    graph = make_workload("er", 60, seed=0).graph

    def bare():
        estimate_rwbc_distributed(graph, seed=0)

    def observed():
        estimate_rwbc_distributed(graph, seed=0, telemetry=Telemetry())

    bare()  # warm caches before timing
    observed()
    ratios = _pair_ratios(PAIRS, bare, observed)
    overhead = statistics.median(ratios) - 1.0
    assert overhead < REGRESSION_BOUND, (
        f"telemetry overhead {overhead:.1%} (median of {PAIRS} pairs) "
        f"exceeds the {REGRESSION_BOUND:.0%} regression bound; per-pair "
        f"ratios {[round(r, 3) for r in sorted(ratios)]}"
    )
