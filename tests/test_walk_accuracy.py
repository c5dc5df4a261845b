"""Accuracy gate for the walk randomness: a change to how nodes draw
their next hops (or thin damped walks) may move individual estimates,
but not the panel's accuracy against the exact oracle.

Each panel runs the distributed estimator for protocol seeds 1-12 on
one fixed graph and scores every run against :func:`rwbc_exact`: plain
Spearman rank correlation and mean relative error.  The bounds are the
panel medians measured with per-node ``np.random.Generator`` streams
(before the counter-based hash), widened by twice the measured
interquartile range, so a fresh draw of the walks passes and a biased
one does not:

=========  ===========================  ===========================
panel      Spearman quartiles           mean rel. error quartiles
=========  ===========================  ===========================
er-lossy   0.970 / 0.973 / 0.977        0.782 / 0.799 / 0.813
ba-hubs    0.978 / 0.979 / 0.981        1.134 / 1.138 / 1.141
=========  ===========================  ===========================

The graphs are those of the benchmark's ``er-lossy`` workload (run
fault-free here) and ``ba-hubs`` workload.
"""

import numpy as np
import pytest

from repro.analysis.error import mean_relative_error
from repro.analysis.ranking import spearman_rho
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exact import rwbc_exact
from repro.core.parameters import WalkParameters
from repro.graphs import generators

SEEDS = range(1, 13)


def _er_lossy_graph():
    n = 60
    p = max(generators.connectivity_threshold_p(n, margin=2.0), 8.0 / n)
    return generators.erdos_renyi_graph(n, p, seed=0, ensure_connected=True)


def _ba_hubs_graph():
    return generators.barabasi_albert_graph(400, 3, seed=0)


#: panel -> (graph constructor, (l, K), (rho q1, median, q3), (err q1, median, q3))
PANELS = {
    "er-lossy": (
        _er_lossy_graph, (30, 24),
        (0.970, 0.973, 0.977), (0.782, 0.799, 0.813),
    ),
    "ba-hubs": (
        _ba_hubs_graph, (20, 35),
        (0.978, 0.979, 0.981), (1.134, 1.138, 1.141),
    ),
}


@pytest.mark.parametrize("panel", sorted(PANELS))
def test_panel_accuracy_holds(panel):
    build, (length, walks), rho_q, err_q = PANELS[panel]
    graph = build()
    exact = rwbc_exact(graph)
    parameters = WalkParameters(length=length, walks_per_source=walks)
    rhos, errors = [], []
    for seed in SEEDS:
        estimate = estimate_rwbc_distributed(graph, parameters, seed=seed)
        rhos.append(spearman_rho(estimate.betweenness, exact))
        errors.append(mean_relative_error(estimate.betweenness, exact))
    rho_floor = rho_q[1] - 2 * (rho_q[2] - rho_q[0])
    err_ceiling = err_q[1] + 2 * (err_q[2] - err_q[0])
    assert float(np.median(rhos)) >= rho_floor, (panel, rhos)
    assert float(np.median(errors)) <= err_ceiling, (panel, errors)
