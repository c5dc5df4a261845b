"""E6 - Lemmas 2-3 / Theorem 5: O(n log n) total rounds.

Paper claim: the counting phase takes O(Kn + l) rounds, the exchange
phase O(n), for O(n log n) total with K = O(log n), l = O(n).  We sweep n
with the theorem's parameter schedules and check:

* exchange rounds are exactly n + ecc(leader) + 2: each node sends its
  n columns from the round after the done wave reaches it (Lemma 3's
  n rounds, tight by design), and the wave takes ecc(leader) rounds
  to reach the deepest node,
* total rounds fit c * n log2 n with a stable coefficient, and
* counting rounds stay within a modest multiple of K*n + l.
"""

import math

from repro.analysis.fitting import fit_nlogn, fit_power_law
from repro.core.parameters import WalkParameters
from repro.experiments.report import render_records
from repro.experiments.runner import distributed_run_row
from repro.experiments.workloads import make_workload

SIZES = (12, 20, 32, 48)


def collect_rows():
    rows = []
    for n in SIZES:
        workload = make_workload("er", n, seed=5)
        params = WalkParameters(
            length=3 * workload.n,
            walks_per_source=max(4, int(2 * math.log2(workload.n))),
        )
        row = distributed_run_row(
            workload.graph, params, seed=5, label=workload.name
        )
        row["Kn+l"] = params.walks_per_source * workload.n + params.length
        rows.append(row)
    return rows


def test_thm5_round_scaling(once):
    rows = once(collect_rows)
    columns = [
        "workload",
        "n",
        "K",
        "l",
        "rounds_setup",
        "rounds_counting",
        "rounds_exchange",
        "leader_ecc",
        "rounds",
        "Kn+l",
    ]
    print(render_records("E6 / Theorem 5: rounds vs n log n", rows, columns))

    for row in rows:
        # Lemma 3: n column rounds per node, paced by the done wave.
        assert row["rounds_exchange"] == row["n"] + row["leader_ecc"] + 2
        # Setup (leader election bounded by n, +2 bookkeeping rounds).
        assert row["rounds_setup"] == row["n"] + 2
        # Lemma 2 shape: counting rounds within a constant of Kn + l.
        assert row["rounds_counting"] <= 10 * row["Kn+l"]

    ns = [row["n"] for row in rows]
    rounds = [row["rounds"] for row in rows]
    nlogn = fit_nlogn(ns, rounds)
    power = fit_power_law(ns, rounds)
    print(
        f"n log n coefficient: {nlogn.coefficient:.2f} "
        f"(max residual {nlogn.max_relative_residual:.2%}); "
        f"power-law exponent: {power.exponent:.2f}"
    )
    # Theorem 5 shape: close to n log n - the fitted free exponent stays
    # well below quadratic and the n log n model explains the data.
    assert power.exponent < 1.7
    assert nlogn.max_relative_residual < 0.5
