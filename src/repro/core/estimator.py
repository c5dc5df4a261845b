"""High-level entry points: one call from graph to betweenness.

``estimate_rwbc_distributed`` runs the faithful CONGEST protocol;
``estimate_rwbc_montecarlo`` (re-exported) runs the same sampling
centrally; ``rwbc_exact`` (re-exported) is the matrix solver.  All three
share conventions, so their outputs are directly comparable.
"""

from __future__ import annotations

from repro.congest.asynchronous import AsyncSimulator
from repro.congest.errors import ConfigError, FaultInjectionError
from repro.congest.faults import FaultPlan
from repro.congest.scheduler import Simulator
from repro.congest.transport import BandwidthPolicy
from repro.core.montecarlo import estimate_rwbc_montecarlo
from repro.core.exact import rwbc_exact
from repro.core.parameters import WalkParameters, default_parameters
from repro.core.protocol import SETUP_SLACK, ProtocolConfig, make_protocol_factory
from repro.core.result import DistributedRWBCResult
from repro.core.walk_engine import TransportPolicy
from repro.graphs.graph import Graph, GraphError

__all__ = [
    "estimate_alpha_cfbc_distributed",
    "estimate_rwbc_distributed",
    "estimate_rwbc_montecarlo",
    "rwbc_exact",
    "default_max_rounds",
]


def default_max_rounds(
    n: int,
    parameters: WalkParameters,
    reliable: bool = False,
) -> int:
    """A generous round limit: setup + congestion-inflated counting +
    exchange, with slack.  Exceeding it indicates a protocol bug, not a
    slow run.  Reliable (fault-tolerant) runs get a stretched setup
    (``2 * SETUP_SLACK * n`` rounds before launch) and an extra latency
    factor for retransmission round-trips."""
    counting_bound = 40 * (
        parameters.walks_per_source * n + parameters.length
    )
    base = 1000 + 4 * n + counting_bound
    if reliable:
        return 8 * base + 16 * SETUP_SLACK * n
    return base


def estimate_rwbc_distributed(
    graph: Graph,
    parameters: WalkParameters | None = None,
    seed: int | None = None,
    policy: TransportPolicy = TransportPolicy.QUEUE,
    walk_budget: int = 2,
    bandwidth: BandwidthPolicy | None = None,
    include_endpoints: bool = True,
    normalized: bool = True,
    count_initial: bool = True,
    max_rounds: int | None = None,
    record_messages: bool = False,
    survival_alpha: float | None = None,
    split_sampling: bool = False,
    vectorized: bool | None = None,
    faults: FaultPlan | None = None,
    executor: str = "sync",
    max_delay: float = 10.0,
    telemetry=None,
    tracer=None,
) -> DistributedRWBCResult:
    """Run the paper's full distributed algorithm on the CONGEST simulator.

    The graph may use any hashable labels; it is relabeled to ``0..n-1``
    internally and results are mapped back.

    Parameters
    ----------
    graph:
        Connected graph with n >= 2.
    parameters:
        ``(l, K)``; defaults to the Theorem 1/3 schedules.
    seed:
        Master seed (drives node ranks, hence the random target, and all
        walk randomness).
    policy, walk_budget:
        Walk transport behaviour (experiment E12 compares policies).
    bandwidth:
        CONGEST constants; default allows walk_budget + control messages.
    include_endpoints, normalized, count_initial:
        Semantics switches shared with the other engines.
    record_messages:
        Keep the full message log (for cut-bit analyses).
    vectorized:
        Fast-path selection, forwarded to :class:`Simulator`: ``None``
        auto-selects the vectorized scheduler loop (the default; it
        falls back to per-message dispatch when ``record_messages`` is
        set), ``False`` forces per-message dispatch, ``True`` requires
        the fast path.  Same seed, same result either way.
    faults:
        Optional :class:`~repro.congest.faults.FaultPlan`.  A non-trivial
        plan switches the protocol to *reliable* mode: sequence-numbered
        walk tokens with ack/retransmit recovery, a loss-tolerant
        termination convergecast, and a stretched flood-based setup -
        the run completes with the same statistical guarantees despite
        the injected drops, duplicates, delays, and crash-recover
        windows.  Crash windows must end (no crash-stop: a node that
        never returns can never launch or certify its walks) and must
        not cover the launch round ``2 * SETUP_SLACK * n``.
    executor:
        ``"sync"`` (default) runs the lock-step round scheduler;
        ``"async"`` runs the same protocol on the event-driven
        asynchronous executor under the fault-tolerant alpha
        synchronizer (:mod:`repro.congest.asynchronous`).  The
        synchronizer masks all faults below the round abstraction, so
        the *protocol-level* reliable mode stays off and the result
        matches the fault-free synchronous run of the same seed bit for
        bit - with or without a ``faults`` plan.  Under ``"async"``,
        ``record_messages``, ``tracer``, and ``vectorized=True`` are
        rejected (the event executor has no message log, tracer taps,
        or vectorized loop), ``result.metrics`` is an
        :class:`~repro.congest.asynchronous.AsyncMetrics`, and
        ``result.recovery`` reports the synchronizer's transport
        recovery (retransmissions, timeouts, duplicate rejections,
        crash recoveries) instead of protocol-level channel stats.
    max_delay:
        Asynchronous executor only: message-delay bound in virtual time
        (delays are uniform in ``[1, max_delay]``).
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  The run then records
        wall-clock spans, a per-round wall series, and instrument
        histograms/counters; the populated object rides back on
        ``result.telemetry``, and ``repro.obs.export`` can serialize it
        (``repro observe run`` does exactly this).  Observation-only:
        telemetry-on and telemetry-off runs are byte-identical.
    tracer:
        Optional :class:`~repro.congest.trace.Tracer`; records per-
        message ``deliver`` events on either execution loop (a tracer
        no longer forces per-message dispatch).
    """
    if graph.num_nodes < 2:
        raise GraphError("need at least 2 nodes")
    relabeled, mapping = graph.relabeled()
    inverse = {index: node for node, index in mapping.items()}
    n = relabeled.num_nodes
    if parameters is None:
        parameters = default_parameters(n)
    if executor not in ("sync", "async"):
        raise ConfigError(
            f"unknown executor {executor!r}: expected 'sync' or 'async'"
        )
    lossy = faults is not None and not faults.is_trivial
    # Under the async executor the synchronizer's transport handles all
    # loss below the round abstraction; the protocol itself runs in its
    # plain (non-reliable) shape and never observes a fault.
    reliable = lossy and executor != "async"
    if executor == "async":
        if record_messages:
            raise ConfigError(
                "record_messages is not supported by the async executor"
            )
        if tracer is not None:
            raise ConfigError(
                "tracer taps are not supported by the async executor"
            )
        if vectorized:
            raise ConfigError(
                "the async executor is event-driven per message; "
                "vectorized=True cannot be honored"
            )
    config = ProtocolConfig(
        length=parameters.length,
        walks_per_source=parameters.walks_per_source,
        policy=policy,
        walk_budget=walk_budget,
        count_initial=count_initial,
        include_endpoints=include_endpoints,
        normalized=normalized,
        survival_alpha=survival_alpha,
        split_sampling=split_sampling,
        reliable=reliable,
        instruments=(
            telemetry.instruments if telemetry is not None else None
        ),
    )
    if reliable:
        _validate_crash_windows(faults, n)
    if bandwidth is None:
        # Reliable mode needs two extra per-edge slots: one for the ack
        # and one so token retransmissions plus control retransmissions
        # fit alongside the fresh traffic of a congested round.
        extra = 4 if reliable else 2
        bandwidth = BandwidthPolicy(n=n, messages_per_edge=walk_budget + extra)
    if executor == "async":
        simulator = AsyncSimulator(
            relabeled,
            make_protocol_factory(config),
            policy=bandwidth,
            seed=seed,
            max_delay=max_delay,
            max_rounds=max_rounds
            or default_max_rounds(n, parameters, lossy),
            faults=faults,
            telemetry=telemetry,
        )
    else:
        simulator = Simulator(
            relabeled,
            make_protocol_factory(config),
            policy=bandwidth,
            seed=seed,
            max_rounds=max_rounds
            or default_max_rounds(n, parameters, reliable),
            record_messages=record_messages,
            vectorized=vectorized,
            faults=faults,
            telemetry=telemetry,
            tracer=tracer,
        )
    result = simulator.run()

    programs = result.programs
    any_program = programs[0]
    phase_rounds = _phase_breakdown(programs, result.metrics.rounds)
    betweenness = {
        inverse[index]: programs[index].betweenness for index in range(n)
    }
    counts = {inverse[index]: programs[index].counts for index in range(n)}
    edge_values: dict = {}
    for index in range(n):
        for neighbor, value in programs[index].edge_betweenness.items():
            key = (inverse[min(index, neighbor)], inverse[max(index, neighbor)])
            # Both endpoints computed the same quantity; average to fold
            # float noise.
            edge_values[key] = edge_values.get(key, 0.0) + value / 2.0
    debiased = None
    floor = None
    if split_sampling:
        debiased = {
            inverse[index]: programs[index].betweenness_debiased
            for index in range(n)
        }
        floor = {
            inverse[index]: programs[index].noise_floor
            for index in range(n)
        }
    recovery = None
    if reliable:
        recovery = {"retransmissions": 0, "acks_sent": 0,
                    "duplicates_rejected": 0}
        for index in range(n):
            stats = programs[index]._channel.stats
            recovery["retransmissions"] += stats.retransmissions
            recovery["acks_sent"] += stats.acks_sent
            recovery["duplicates_rejected"] += stats.duplicates_rejected
    elif executor == "async" and lossy:
        # Recovery happened in the synchronizer's transport, not in the
        # protocol; report its counters in the same slot.
        recovery = result.metrics.recovery_summary()
    if executor == "async":
        message_log = None
        fallback_reasons = ("async executor (event-driven per-message)",)
    else:
        message_log = result.message_log
        fallback_reasons = result.fallback_reasons
    return DistributedRWBCResult(
        betweenness=betweenness,
        target=inverse[any_program.target],
        parameters=parameters,
        metrics=result.metrics,
        phase_rounds=phase_rounds,
        counts=counts,
        betweenness_debiased=debiased,
        noise_floor=floor,
        edge_betweenness=edge_values,
        message_log=message_log,
        recovery=recovery,
        fallback_reasons=fallback_reasons,
        telemetry=telemetry,
    )


def _validate_crash_windows(plan: FaultPlan, n: int) -> None:
    """Reject crash schedules the protocol cannot survive.

    The counting phase launches globally at round ``2 * SETUP_SLACK * n``
    from the frozen flood tree.  A node crashed *through* that round
    launches late on recovery (the per-message path supports this), but
    the vectorized engine requires all ``n`` nodes at its one-shot
    finalization, and a node that never recovers can never launch its
    walks or certify their deaths - the expected global death count is
    then unreachable.  Both shapes are configuration errors, caught here
    rather than as a round-limit timeout deep into the run.
    """
    launch_round = 2 * SETUP_SLACK * n
    for window in plan.crashes:
        if window.end is None:
            raise FaultInjectionError(
                f"crash-stop window on node {window.node} never ends: the "
                "protocol needs every node back to count its walk deaths "
                "(use a finite end for crash-recover)"
            )
        if window.covers(launch_round):
            raise FaultInjectionError(
                f"crash window [{window.start}, {window.end}) on node "
                f"{window.node} covers the counting launch round "
                f"{launch_round}; shift the window"
            )


def estimate_alpha_cfbc_distributed(
    graph: Graph,
    alpha: float = 0.8,
    walks_per_source: int | None = None,
    epsilon: float = 0.01,
    seed: int | None = None,
    **kwargs,
) -> DistributedRWBCResult:
    """Distributed alpha-current-flow betweenness (section II-C).

    Runs the same protocol machinery as :func:`estimate_rwbc_distributed`
    in damped mode: no absorbing target, hops survive with probability
    ``alpha``, walks truncated at ``O(log(1/epsilon) / (1 - alpha))``
    hops - realizing the section's ``O(log n / (1 - alpha))`` round
    claim on the simulator.  Output convention matches
    :func:`repro.baselines.alpha_cfbc.alpha_current_flow_betweenness`.
    """
    from repro.core.parameters import alpha_length, default_walks

    if graph.num_nodes < 2:
        raise GraphError("need at least 2 nodes")
    if walks_per_source is None:
        walks_per_source = default_walks(graph.num_nodes)
    parameters = WalkParameters(
        length=alpha_length(alpha, epsilon),
        walks_per_source=walks_per_source,
    )
    return estimate_rwbc_distributed(
        graph,
        parameters,
        seed=seed,
        survival_alpha=alpha,
        **kwargs,
    )


def _phase_breakdown(programs, total_rounds: int) -> dict[str, int]:
    """Split the run into setup / counting / exchange round counts,
    read network-wide: setup ends at the launch round, counting at the
    root's detection (the first round any node relays ``done``), and
    the exchange at the last node's finish.  Fault-free the three sum
    to ``total_rounds``; reliable runs add trailing drain rounds."""
    markers = [
        (p.counting_start_round, p.exchange_start_round, p.finish_round)
        for p in programs.values()
    ]
    if any(None in marks for marks in markers):
        raise GraphError("protocol finished without phase markers")
    launches, detections, finishes = zip(*markers)
    launch, detection = min(launches), min(detections)
    return {
        "setup": launch,
        "counting": detection - launch,
        "exchange": max(finishes) - detection,
        "total": total_rounds,
    }
