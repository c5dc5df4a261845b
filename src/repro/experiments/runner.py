"""Single-experiment runners producing flat record dicts.

Each function returns one table row (a plain dict of scalars) so the
benchmarks can both assert on it and print it via
:mod:`repro.experiments.report`.
"""

from __future__ import annotations

from repro.analysis.error import compare_centrality
from repro.analysis.ranking import kendall_tau, spearman_rho, top_k_overlap
from repro.baselines.alpha_cfbc import alpha_current_flow_betweenness
from repro.baselines.brandes import shortest_path_betweenness
from repro.baselines.flow_betweenness import flow_betweenness
from repro.baselines.pagerank import pagerank_power_iteration
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.exact import rwbc_exact
from repro.core.montecarlo import estimate_rwbc_montecarlo
from repro.core.parameters import WalkParameters
from repro.core.walk_engine import TransportPolicy
from repro.graphs.graph import Graph
from repro.graphs.properties import bfs_distances


def accuracy_row(
    graph: Graph,
    parameters: WalkParameters,
    seed: int = 0,
    label: str = "",
) -> dict:
    """Centralized Monte-Carlo accuracy against the exact solver."""
    exact = rwbc_exact(graph)
    result = estimate_rwbc_montecarlo(graph, parameters, seed=seed)
    errors = compare_centrality(result.betweenness, exact)
    return {
        "workload": label,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "l": parameters.length,
        "K": parameters.walks_per_source,
        "survival": result.survival_fraction,
        "tau": kendall_tau(result.betweenness, exact),
        **errors.as_dict(),
    }


def distributed_run_row(
    graph: Graph,
    parameters: WalkParameters,
    seed: int = 0,
    label: str = "",
    policy: TransportPolicy = TransportPolicy.QUEUE,
    walk_budget: int = 2,
) -> dict:
    """Full CONGEST protocol run: accuracy plus the complexity counters."""
    exact = rwbc_exact(graph)
    result = estimate_rwbc_distributed(
        graph,
        parameters,
        seed=seed,
        policy=policy,
        walk_budget=walk_budget,
    )
    errors = compare_centrality(result.betweenness, exact)
    summary = result.metrics.summary()
    return {
        "workload": label,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "l": parameters.length,
        "K": parameters.walks_per_source,
        "policy": policy.value,
        "rounds": result.total_rounds,
        "rounds_setup": result.phase_rounds["setup"],
        "rounds_counting": result.phase_rounds["counting"],
        "rounds_exchange": result.phase_rounds["exchange"],
        # Depth of the done wave: the exchange's rounds past n + 2.
        "leader_ecc": max(bfs_distances(graph, result.target).values()),
        "max_msgs_edge": summary["max_messages_per_edge_round"],
        "max_bits_edge": summary["max_bits_per_edge_round"],
        "max_msg_bits": summary["max_message_bits"],
        "total_messages": summary["total_messages"],
        "mean_rel": errors.mean_relative,
        "max_abs": errors.max_absolute,
        "tau": kendall_tau(result.betweenness, exact),
    }


def related_measures_row(graph: Graph, label: str = "", top_k: int = 3) -> dict:
    """E11: how the measure landscape correlates with exact RWBC."""
    rwbc = rwbc_exact(graph)
    spbc = shortest_path_betweenness(graph)
    fbc = flow_betweenness(graph)
    pagerank = pagerank_power_iteration(graph)
    alpha_half = alpha_current_flow_betweenness(graph, alpha=0.5)
    alpha_high = alpha_current_flow_betweenness(graph, alpha=0.99)
    return {
        "workload": label,
        "n": graph.num_nodes,
        "tau_spbc": kendall_tau(rwbc, spbc),
        "tau_flow": kendall_tau(rwbc, fbc),
        "tau_pagerank": kendall_tau(rwbc, pagerank),
        "tau_alpha0.5": kendall_tau(rwbc, alpha_half),
        "tau_alpha0.99": kendall_tau(rwbc, alpha_high),
        "rho_spbc": spearman_rho(rwbc, spbc),
        "topk_spbc": top_k_overlap(rwbc, spbc, top_k),
    }
