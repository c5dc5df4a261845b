"""The paper's primary contribution: distributed RWBC estimation.

Public surface:

* :func:`rwbc_exact` / :func:`rwbc_exact_pairs` - Newman's exact values;
* :func:`estimate_rwbc_montecarlo` - centralized sampling estimator;
* :func:`estimate_rwbc_distributed` - the full CONGEST protocol
  (Algorithms 1 and 2 plus the setup the paper assumes);
* :mod:`repro.core.parameters` - the Theorem 1/3 ``(l, K)`` schedules.
"""

from repro.core.adaptive import AdaptiveResult, adaptive_montecarlo
from repro.core.bias import SplitEstimate, split_estimate_rwbc
from repro.core.incremental import IncrementalRWBC
from repro.core.edge_betweenness import (
    edge_current_flow_betweenness,
    girvan_newman_current_flow,
)
from repro.core.estimator import (
    default_max_rounds,
    estimate_alpha_cfbc_distributed,
    estimate_rwbc_distributed,
)
from repro.core.exact import rwbc_exact, rwbc_exact_array, rwbc_exact_pairs
from repro.core.flow_math import (
    betweenness_from_raw_flow,
    node_raw_flow,
    pair_sum_all,
    pair_sum_excluding,
)
from repro.core.montecarlo import (
    MonteCarloResult,
    betweenness_from_counts,
    estimate_rwbc_montecarlo,
)
from repro.core.parameters import (
    WalkParameters,
    alpha_length,
    chernoff_failure_bound,
    default_length,
    default_parameters,
    default_walks,
    walks_for_concentration,
)
from repro.core.protocol import ProtocolConfig, RWBCNodeProgram
from repro.core.trivial import TrivialResult, trivial_collect_all
from repro.core.result import DistributedRWBCResult
from repro.core.walk_engine import TransportPolicy
from repro.core.walk_manager import WalkManager

__all__ = [
    "AdaptiveResult",
    "DistributedRWBCResult",
    "IncrementalRWBC",
    "adaptive_montecarlo",
    "MonteCarloResult",
    "SplitEstimate",
    "split_estimate_rwbc",
    "ProtocolConfig",
    "RWBCNodeProgram",
    "TransportPolicy",
    "WalkManager",
    "WalkParameters",
    "alpha_length",
    "betweenness_from_counts",
    "betweenness_from_raw_flow",
    "chernoff_failure_bound",
    "estimate_alpha_cfbc_distributed",
    "default_length",
    "default_max_rounds",
    "default_parameters",
    "default_walks",
    "edge_current_flow_betweenness",
    "estimate_rwbc_distributed",
    "girvan_newman_current_flow",
    "estimate_rwbc_montecarlo",
    "node_raw_flow",
    "pair_sum_all",
    "pair_sum_excluding",
    "rwbc_exact",
    "rwbc_exact_array",
    "rwbc_exact_pairs",
    "TrivialResult",
    "trivial_collect_all",
    "walks_for_concentration",
]
