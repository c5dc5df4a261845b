"""Result records for distributed runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.congest.metrics import RunMetrics
from repro.core.parameters import WalkParameters
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class DistributedRWBCResult:
    """Output of one distributed protocol run.

    Attributes
    ----------
    betweenness:
        Node label -> estimated RWBC.
    target:
        The elected absorbing node (in original labels).
    parameters:
        The ``(l, K)`` used.
    metrics:
        Round/message/bit accounting from the simulator.
    phase_rounds:
        Rounds spent in each protocol phase - the observable of the
        Lemma 2 / Lemma 3 / Theorem 5 experiments.
    counts:
        Node label -> its raw ``xi`` count vector (by source id in the
        relabeled 0..n-1 space).  The cells are the narrowest unsigned
        type that holds ``K * (l + 1)`` - ``uint8``, ``uint16`` or
        ``uint32``, and ``int64`` from ``2**32`` (see
        :func:`~repro.core.walk_engine.count_dtype`) - so convert before
        signed or summing arithmetic.  Outside split mode each vector
        is a view into the run's one count tensor, not a copy.
    betweenness_debiased, noise_floor:
        Present only for split-sampling runs: the noise-floor-corrected
        estimates and the measured floor itself (see repro.core.bias).
    edge_betweenness:
        ``(u, v) -> estimated edge current-flow betweenness`` for every
        edge, a free by-product of the exchange phase (each endpoint
        computes it locally; the result averages the two, which are
        equal up to float noise).
    """

    betweenness: dict
    target: object
    parameters: WalkParameters
    metrics: RunMetrics
    phase_rounds: dict[str, int]
    counts: dict
    betweenness_debiased: dict | None = None
    noise_floor: dict | None = None
    edge_betweenness: dict | None = None
    # Full per-round message log (relabeled node ids); populated only
    # when the run was started with record_messages=True.
    message_log: list = None
    # Aggregate ARQ accounting (retransmissions, acks_sent,
    # duplicates_rejected summed over all nodes); None on non-reliable
    # runs.  Injected-fault counts live in metrics.faults.
    recovery: dict | None = None
    # Why the scheduler fell back to per-message dispatch (empty when
    # the vectorized fast path ran).
    fallback_reasons: tuple = ()
    # The repro.obs.Telemetry the run was observed with (spans +
    # instruments), when the caller passed one; None otherwise.  Pure
    # observation - never part of the estimate.
    telemetry: object | None = None

    def as_array(self, graph: Graph) -> np.ndarray:
        """Estimates in the graph's canonical node order."""
        return np.array(
            [self.betweenness[node] for node in graph.canonical_order()]
        )

    @property
    def total_rounds(self) -> int:
        return self.metrics.rounds
