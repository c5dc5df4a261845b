"""The synchronous round scheduler: the heart of the CONGEST simulator.

Execution model (section III-A of the paper):

* time advances in discrete rounds;
* a message sent in round ``r`` is delivered at the start of round
  ``r + 1``;
* per round, each directed edge carries at most a constant number of
  messages of ``O(log n)`` bits each (enforced by the transport).

The simulation ends when every node program has halted and no messages
are in flight, or fails with :class:`RoundLimitExceeded`.  One round
loop implements this for every synchronous run; per-message dispatch
and the vectorized fast path are its two modes (see
:meth:`Simulator._run_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.congest.errors import (
    ConfigError,
    FaultInjectionError,
    ProtocolError,
    RoundLimitExceeded,
    UnrecoverableLossError,
)
from repro.congest.faults import FaultPlan, FaultRuntime
from repro.congest.message import Message
from repro.congest.metrics import RunMetrics
from repro.congest.node import (
    EdgeIndex,
    LazyGenerator,
    NodeInfo,
    NodeProgram,
    RoundContext,
    SharedFastPathState,
    VectorizedProgram,
    seed_entropy,
)
from repro.congest.trace import NullTracer, Tracer
from repro.congest.transport import BandwidthPolicy, BulkOutbox, RoundOutbox
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected
from repro.obs.spans import NULL_PROFILER

ProgramFactory = Callable[[NodeInfo, LazyGenerator], NodeProgram]


@dataclass
class SimulationResult:
    """Everything observable after a run."""

    programs: Mapping[int, NodeProgram]
    metrics: RunMetrics
    tracer: Tracer | NullTracer
    # Each round's delivered messages, kept by per-message dispatch
    # when ``record_messages`` is set; empty otherwise.
    message_log: list[list[Message]] = field(default_factory=list)
    # True when the round loop ran in fast-path mode (drivers and
    # aggregate per-edge traffic) rather than per-message dispatch.
    fast_path: bool = False
    # Why the fast path was not used (empty on fast-path runs): the
    # human-readable reasons from eligibility selection, so callers can
    # tell an intentional per-message run from a silent degradation.
    fallback_reasons: tuple[str, ...] = ()

    def program(self, node_id: int) -> NodeProgram:
        return self.programs[node_id]


class Simulator:
    """Drives one distributed algorithm over one graph.

    Parameters
    ----------
    graph:
        The communication topology.  Node labels must be integers (real
        CONGEST identifiers are ``O(log n)``-bit strings; ints model that
        directly).  Use :meth:`Graph.relabeled` for other label types.
    program_factory:
        Callable building a :class:`NodeProgram` from ``(NodeInfo, rng)``.
    policy:
        Bandwidth constants; defaults to ``BandwidthPolicy(n=graph.n)``.
    seed:
        Master seed; each node gets an independent child generator
        (:class:`~repro.congest.node.LazyGenerator`, built on first
        use), so runs are reproducible and node randomness is private
        (public randomness would change the lower-bound setting).
    max_rounds:
        Safety limit; exceeding it raises :class:`RoundLimitExceeded`.
    record_messages:
        Keep the full per-round message log (needed for cut-bit counting
        in the lower-bound experiments; memory-heavy otherwise).
    tracer:
        Optional :class:`Tracer` for debugging.  Both dispatch modes
        emit the same ``deliver`` events (the fast path expands its
        aggregate rows into per-message events at delivery time), so a
        tracer does not force per-message dispatch; event *order*
        within a round may differ between the modes.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When set, the run
        records phase/kernel wall-clock spans, a per-round wall series,
        and instrument histograms (per-edge bits/messages, plus ARQ and
        fault counters when those layers are active).  Telemetry is
        observation-only: it never affects protocol decisions, round
        counts, randomness, or fast-path eligibility, so telemetry-on
        and telemetry-off runs are byte-identical (pinned by
        ``tests/test_obs_neutrality.py``).
    require_connected:
        Reject disconnected topologies up front (random walk betweenness
        is undefined across components).
    faults:
        A :class:`~repro.congest.faults.FaultPlan` - seeded per-edge
        drop/duplicate/delay schedules and per-node crash windows
        (``FaultPlan.from_drop_rate(p)`` for plain i.i.d. loss).
        Applied by the round loop at delivery time, in either dispatch
        mode; injected-fault counts land in ``metrics.faults``.  The
        CONGEST model assumes reliable synchronous channels, so a
        non-trivial plan sets every node's ``NodeInfo.lossy``: a
        protocol that can recover (the RWBC protocol's per-edge ARQ)
        turns its recovery on, and one that cannot (e.g. BFS) sees the
        losses - a run that cannot terminate surfaces as
        :class:`UnrecoverableLossError` at the round limit.
    vectorized:
        Dispatch-mode selection for the one round loop.  ``None``
        (default) auto-selects: the fast path runs when every program
        is a :class:`VectorizedProgram` and nothing demands
        per-message fidelity (``record_messages`` forces per-message
        dispatch; tracers, telemetry, and fault injection do *not* -
        the fast path emits the same trace events and applies the same
        seeded fault schedule on its aggregate arrays).  ``False``
        always dispatches per message; ``True`` requires the fast path
        and raises :class:`ConfigError` when it is unavailable.  Both
        modes produce identical results for the same seed and fault
        plan (tested equivalence, see ``tests/test_walks_batched.py``
        and ``tests/test_failure_injection.py``).
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: ProgramFactory,
        policy: BandwidthPolicy | None = None,
        seed: int | None = None,
        max_rounds: int = 1_000_000,
        record_messages: bool = False,
        tracer: Tracer | None = None,
        require_connected: bool = True,
        faults: FaultPlan | None = None,
        vectorized: bool | None = None,
        telemetry=None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ConfigError("cannot simulate the empty graph")
        for node in graph.nodes():
            if not isinstance(node, int) or isinstance(node, bool):
                raise ConfigError(
                    f"node labels must be ints, got {node!r}; "
                    "use Graph.relabeled() first"
                )
        if require_connected and not is_connected(graph):
            raise ConfigError("graph must be connected")
        if max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if faults is None:
            faults = FaultPlan()
        for window in faults.crashes:
            if not graph.has_node(window.node):
                raise FaultInjectionError(
                    f"crash window names node {window.node}, which is not "
                    "in the graph"
                )
        self.faults = faults
        self.graph = graph
        self.policy = policy or BandwidthPolicy(n=graph.num_nodes)
        self.max_rounds = max_rounds
        self.record_messages = record_messages
        # Explicit None check: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else NullTracer()
        self._seed = seed
        self._factory = program_factory
        self.vectorized = vectorized
        self.telemetry = telemetry
        self._profiler = (
            telemetry.profiler if telemetry is not None else NULL_PROFILER
        )
        self._instruments = (
            telemetry.instruments if telemetry is not None else None
        )

    def _build_programs(self) -> dict[int, NodeProgram]:
        # One child generator per node, in canonical order, so results do
        # not depend on Python dict iteration order; each is built only
        # if its program draws from it.
        entropy = seed_entropy(self._seed)
        lossy = not self.faults.is_trivial
        programs: dict[int, NodeProgram] = {}
        for index, node in enumerate(self.graph.canonical_order()):
            info = NodeInfo(
                node_id=node,
                neighbors=tuple(sorted(self.graph.neighbors(node))),
                n=self.graph.num_nodes,
                lossy=lossy,
            )
            programs[node] = self._factory(info, LazyGenerator(entropy, index))
        return programs

    def _bulk_reasons_against(self, programs: dict[int, NodeProgram]):
        """Why the fast path cannot run (empty list = eligible)."""
        reasons = []
        if not all(
            isinstance(p, VectorizedProgram) for p in programs.values()
        ):
            reasons.append("not every program is a VectorizedProgram")
        if self.record_messages:
            reasons.append("record_messages needs materialized messages")
        # Neither tracers, telemetry, nor fault injection appear here:
        # the fast path expands its aggregate rows into the same
        # ``deliver`` trace events, records the same spans/instruments,
        # and applies the same seeded FaultPlan (see FaultRuntime), so
        # observed and faulty runs keep the speedup.
        return reasons

    def run(self) -> SimulationResult:
        """Execute rounds until global termination.

        Returns
        -------
        SimulationResult
            Final programs (read their attributes for outputs), metrics,
            and optionally the full message log.

        Raises
        ------
        RoundLimitExceeded
            If termination is not reached within ``max_rounds``.
        """
        programs = self._build_programs()
        if self.vectorized is False:
            fallback_reasons: tuple[str, ...] = ("vectorized=False requested",)
        else:
            fallback_reasons = tuple(self._bulk_reasons_against(programs))
            if fallback_reasons and self.vectorized is True:
                raise ConfigError(
                    "vectorized=True but the fast path is unavailable: "
                    + "; ".join(fallback_reasons)
                )
        return self._run_rounds(programs, fallback_reasons)

    def _run_rounds(
        self,
        programs: dict[int, NodeProgram],
        fallback_reasons: tuple[str, ...],
    ) -> SimulationResult:
        """The round loop, in one of two dispatch modes.

        Both modes deliver, fault-filter, trace and account a round the
        same way, and give each stepped node the same
        ``on_round(ctx, inbox)`` call with its control messages.

        * **Fast path** (no ``fallback_reasons``): idle nodes are
          skipped outright (safe by the :class:`VectorizedProgram`
          ``bulk_idle`` / ``next_wake`` contract).  Heavy traffic moves
          as aggregate per-edge counts (:class:`BulkOutbox`) between
          cross-node *drivers* that cooperating programs register
          through ``ctx.shared`` (see :class:`SharedFastPathState`): a
          driver claims whole message kinds and processes them
          network-wide once per round instead of node by node, over the
          run's directed-edge arrays (``shared.edges``).  A bulk kind
          that no driver claims is a :class:`ProtocolError`.
        * **Per-message dispatch**: ``ctx.shared`` is None, so no driver
          registers and every message is a node's.  Every node that is
          neither crashed nor halted without mail is stepped every
          round, in canonical order; ``bulk_idle`` and ``next_wake`` are
          never consulted.  With ``record_messages`` each round's
          delivered messages are appended to the message log.

        Bandwidth limits are enforced on the merged control + bulk load
        of every edge, and :class:`RunMetrics` folds in the merged
        :class:`~repro.congest.transport.RoundTraffic` of each round.
        """
        fast = not fallback_reasons
        n = self.graph.num_nodes
        metrics = RunMetrics(instruments=self._instruments)
        profiler = self._profiler
        message_log: list[list[Message]] = []
        order = self.graph.canonical_order()
        # The run's directed edges: the one name of an edge for the
        # transport's loads, the fault pass and the drivers.
        edges = EdgeIndex(
            order,
            [
                np.array(programs[node].neighbors, dtype=np.int64)
                for node in order
            ],
        )
        outbox = RoundOutbox(self.policy)
        bulk_outbox = BulkOutbox(self.policy, edges)
        fault_rt = None if self.faults.is_trivial else FaultRuntime(self.faults)
        shared = None
        if fast:
            shared = SharedFastPathState(edges, bulk_outbox)
            shared.fault_runtime = fault_rt
            shared.profiler = profiler
            shared.instruments = self._instruments
        # Registered drivers, in run order (aliases ``shared.drivers``,
        # which only grows); none in per-message mode.
        drivers: list[object] = shared.drivers if fast else []
        # O(1) global-termination accounting: every halt/unhalt
        # transition bumps this counter through the program's halt sink,
        # so the loop never scans all n programs per round.
        halted_total = sum(program.halted for program in programs.values())

        def _note_halt(delta: int) -> None:
            nonlocal halted_total
            halted_total += delta

        for program in programs.values():
            program._halt_sink = _note_halt
        # One context per node, reused across rounds (only the round
        # number changes); constructing ~n of these per round would be
        # measurable overhead at scale.
        contexts = {
            node: RoundContext(
                node, programs[node].neighbors, outbox, 0, shared
            )
            for node in order
        }
        claimed_kinds: dict[str, object] = {}  # kind -> claiming driver
        # Drivers that take their claimed rows before the node pass, and
        # drivers with work right after it.
        early_drivers: list[object] = []
        pass_drivers: list[object] = []
        known_drivers = 0

        def refresh_claims() -> None:
            nonlocal known_drivers
            claimed_kinds.clear()
            for driver in drivers:
                for kind in getattr(driver, "claimed_kinds", ()):
                    if kind in claimed_kinds:
                        raise ConfigError(
                            "two fast-path drivers claim message kind "
                            f"{kind!r}"
                        )
                    claimed_kinds[kind] = driver
            early_drivers[:] = [
                driver for driver in drivers if hasattr(driver, "receive_rows")
            ]
            pass_drivers[:] = [
                driver for driver in drivers if hasattr(driver, "after_nodes")
            ]
            known_drivers = len(drivers)

        def finish_node_pass(round_number: int, stepped: list[int]) -> None:
            """Run the drivers' ``after_nodes`` hooks, then, on the fast
            path, file the stepped nodes' calendar wakes."""
            if known_drivers != len(drivers):
                refresh_claims()
            for driver in pass_drivers:
                driver.after_nodes(round_number, outbox)
            if not fast:
                return
            for node in stepped:
                program = programs[node]
                if not program.halted:
                    wake = program.next_wake(round_number)
                    if wake is not None:
                        schedule_wake(node, wake)

        # Fast-path wake calendar: ``calendar[r]`` lists nodes that asked
        # (via ``next_wake``) to be stepped in round ``r`` even without
        # mail; ``wake_round`` is the authoritative per-node target so
        # stale calendar entries (superseded by an earlier wake) are
        # skipped.
        calendar: dict[int, list[int]] = {}
        wake_round: dict[int, int] = {}

        def schedule_wake(node: int, target: int) -> None:
            current = wake_round.get(node)
            if current is not None and current <= target:
                return
            wake_round[node] = target
            calendar.setdefault(target, []).append(node)

        # Round 0: on_start, no deliveries.
        for node in order:
            programs[node].on_start(contexts[node])
        finish_node_pass(0, list(order))
        in_flight = outbox.drain()
        bulk_in_flight = bulk_outbox.drain(n, in_flight)

        round_number = 0
        while True:
            all_halted = halted_total == n
            pending_delayed = (
                fault_rt is not None and fault_rt.has_pending_delayed
            )
            if (
                all_halted
                and not in_flight
                and not bulk_in_flight
                and not pending_delayed
            ):
                break
            round_number += 1
            profiler.round_tick(round_number)
            if round_number > self.max_rounds:
                error_cls = (
                    UnrecoverableLossError
                    if fault_rt is not None
                    else RoundLimitExceeded
                )
                raise error_cls(
                    f"no termination after {self.max_rounds} rounds "
                    f"({sum(p.halted for p in programs.values())}/"
                    f"{len(programs)} nodes halted, "
                    f"{len(in_flight) + bulk_in_flight.total_messages} "
                    "messages in flight)",
                    context={
                        "round": round_number,
                        "max_rounds": self.max_rounds,
                        "halted": sum(
                            p.halted for p in programs.values()
                        ),
                        "nodes": len(programs),
                        "in_flight": len(in_flight)
                        + bulk_in_flight.total_messages,
                        "faults": (
                            fault_rt.counters.summary()
                            if fault_rt is not None
                            else None
                        ),
                    },
                    metrics=metrics,
                )
            crashed_now: frozenset[int] = frozenset()
            if fault_rt is not None:
                with profiler.span("faults.filter"):
                    # One fault pass over the round's control messages
                    # and bulk rows, plus the delayed traffic maturing
                    # now; the round is accounted from what it delivers.
                    crashed_now = fault_rt.crashed(round_number)
                    in_flight, bulk_in_flight = fault_rt.deliver(
                        round_number, in_flight, bulk_in_flight
                    )
                if self._instruments is not None:
                    self._instruments.record_fault_counters(
                        round_number, fault_rt.counters.snapshot()
                    )
            with profiler.span("deliver"):
                # The round's one traffic merge (of what the fault pass
                # delivered, on a faulty run) is delivery work.
                metrics.record_round_aggregate(bulk_in_flight.traffic)
                if self.record_messages:
                    message_log.append(in_flight)
                if not isinstance(self.tracer, NullTracer):
                    # Expand this round's deliveries into per-message trace
                    # events (bulk rows kind-major after the control
                    # messages; equivalence tests compare sorted streams).
                    # Done before the claim pass so driver traffic is
                    # traced too.
                    for message in in_flight:
                        self.tracer.record(
                            round_number,
                            message.receiver,
                            "deliver",
                            message.kind,
                            message.sender,
                        )
                    bulk_in_flight.trace_into(self.tracer, round_number)
                # Every bulk kind goes to the driver claiming it, whole: at
                # end of round, and first before the node pass to a driver
                # with ``receive_rows``.  Node programs see control
                # messages only.
                claimed_traffic: dict[int, dict[str, tuple]] = {}
                if bulk_in_flight:
                    for kind, driver in claimed_kinds.items():
                        data = bulk_in_flight.take(kind)
                        if data is not None:
                            claimed_traffic.setdefault(id(driver), {})[
                                kind
                            ] = data
                    if bulk_in_flight:
                        raise ProtocolError(
                            f"bulk {bulk_in_flight.kinds[0]!r} rows arrived in "
                            f"round {round_number} but no fast-path driver "
                            "claims the kind; bulk traffic must go driver to "
                            "driver"
                        )
                for driver in early_drivers:
                    rows = claimed_traffic.get(id(driver))
                    if rows:
                        driver.receive_rows(round_number, rows)
                inboxes: dict[int, list[Message]] = {}
                for message in in_flight:
                    inboxes.setdefault(message.receiver, []).append(message)
            with profiler.span("nodes"):
                if fast:
                    # Step exactly the nodes with mail plus the ones
                    # whose wake round arrived; everything else provably
                    # has nothing to do this round (the ``next_wake`` /
                    # ``bulk_idle`` contract), so per-round cost tracks
                    # the active set instead of n.
                    step_set = set(inboxes)
                    for node in calendar.pop(round_number, ()):
                        if wake_round.get(node) == round_number:
                            del wake_round[node]
                            step_set.add(node)
                    step_order = sorted(step_set)
                else:
                    step_order = order
                stepped: list[int] = []
                for node in step_order:
                    if node in crashed_now:
                        # Down: executes nothing, sends nothing, loses
                        # this round's mail.  The fast path re-arms it so
                        # it is re-examined right after it recovers.
                        if fast:
                            schedule_wake(node, round_number + 1)
                        continue
                    program = programs[node]
                    inbox = inboxes.get(node)
                    if program.halted:
                        if inbox is None:
                            continue
                        program.unhalt()
                    elif inbox is None and fast and program.bulk_idle:
                        continue
                    ctx = contexts[node]
                    ctx.round_number = round_number
                    program.on_round(ctx, inbox or [])
                    stepped.append(node)
                finish_node_pass(round_number, stepped)
            with profiler.span("drivers"):
                for driver in drivers:
                    driver.end_round(
                        round_number,
                        claimed_traffic.get(id(driver), {}),
                        outbox,
                        bulk_outbox,
                    )
            in_flight = outbox.drain()
            bulk_in_flight = bulk_outbox.drain(n, in_flight)

        profiler.run_finished()
        if fault_rt is not None:
            metrics.faults = fault_rt.counters.summary()
        return SimulationResult(
            programs=programs,
            metrics=metrics,
            tracer=self.tracer,
            message_log=message_log,
            fast_path=fast,
            fallback_reasons=fallback_reasons,
        )


def run_program(
    graph: Graph,
    program_factory: ProgramFactory,
    seed: int | None = None,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(graph, program_factory, seed=seed, **kwargs).run()
