"""E12 - ablation: the Algorithm 1 line 6 congestion policies.

The paper's "send a random walk to v randomly" is ambiguous; DESIGN.md
note 4 spells out the two readings we implement.  Claimed/expected shape:
BATCH coalesces identical tokens into counted messages, so on
congestion-prone topologies (hubs, small-diameter dense graphs) it
finishes the counting phase in no more rounds than QUEUE at equal edge
budget, without changing the estimates' quality class.

That is a claim about the distribution over protocol seeds, not about
every seed.  For one queue state BATCH sends at least the tokens QUEUE
sends, but the two policies do not run the same walks: each node routes
the tokens that reach it with its own port stream, in arrival order, so
once BATCH delivers a token earlier the nodes draw different ports and
the walks - and with them the counting phase - diverge.  On ``ba-20``
with seed 12 BATCH needs one round more than QUEUE.  The test therefore
asserts the shape over a panel of seeds.
"""

import math
import statistics

from repro.core.parameters import WalkParameters
from repro.core.walk_manager import TransportPolicy
from repro.experiments.report import render_records
from repro.experiments.runner import distributed_run_row
from repro.experiments.workloads import make_workload
from repro.graphs.generators import star_graph

#: Protocol seeds of the panel (seed 12 is the single seed the
#: ablation used to run).
SEEDS = range(10, 21)


def collect_rows():
    rows = []
    cases = [
        ("star-12", star_graph(12)),
        ("ba-20", make_workload("ba", 20, seed=12).graph),
        ("er-20", make_workload("er", 20, seed=12).graph),
    ]
    for label, graph in cases:
        n = graph.num_nodes
        params = WalkParameters(
            length=3 * n, walks_per_source=max(8, int(4 * math.log2(n)))
        )
        for seed in SEEDS:
            for policy in (TransportPolicy.QUEUE, TransportPolicy.BATCH):
                row = distributed_run_row(
                    graph,
                    params,
                    seed=seed,
                    label=label,
                    policy=policy,
                    walk_budget=2,
                )
                row["seed"] = seed
                rows.append(row)
    return rows


def _median(rows, column):
    return statistics.median(row[column] for row in rows)


def test_transport_ablation(once):
    rows = once(collect_rows)
    panel = {}
    for row in rows:
        panel.setdefault(row["workload"], {}).setdefault(
            row["policy"], []
        ).append(row)
    columns = [
        "workload",
        "policy",
        "rounds_counting",
        "rounds",
        "total_messages",
        "mean_rel",
    ]
    medians = [
        {"workload": label, "policy": policy}
        | {column: _median(runs, column) for column in columns[2:]}
        for label, case in panel.items()
        for policy, runs in case.items()
    ]
    print(
        render_records(
            f"E12 / transport policy ablation (median over seeds "
            f"{SEEDS.start}-{SEEDS.stop - 1})",
            medians,
            columns,
        )
    )
    for label, case in panel.items():
        queue, batch = case["queue"], case["batch"]
        # Batching does not extend the counting phase...
        assert _median(batch, "rounds_counting") <= _median(
            queue, "rounds_counting"
        ), label
        # ...and sends no more messages.
        assert _median(batch, "total_messages") <= _median(
            queue, "total_messages"
        ), label
        # Both policies deliver the same quality class (Monte-Carlo noise
        # at log-scale K is large on small-value nodes; the point is that
        # batching does not degrade it).
        assert _median(queue, "mean_rel") < 1.0, label
        assert _median(batch, "mean_rel") < 1.0, label
        queue_rel = _median(queue, "mean_rel")
        assert _median(batch, "mean_rel") < 2.5 * queue_rel + 0.05, label
    # Where batching matters most: the star hub serializes QUEUE traffic.
    star = panel["star-12"]
    assert _median(star["batch"], "rounds_counting") < _median(
        star["queue"], "rounds_counting"
    )
