"""The node-program API: what one CONGEST node can see and do.

A distributed algorithm is expressed as a :class:`NodeProgram` subclass.
The simulator instantiates one program per node and drives the synchronous
round structure; the program only ever sees its own identifier, its
neighborhood, and the messages delivered to it.  Global knowledge (``n``
for this paper's algorithm, per its Algorithm 1 input line) is passed
explicitly through :class:`NodeInfo` so that what each node "knows" is
auditable.
"""

from __future__ import annotations

import abc
import secrets
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.obs.spans import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.transport import BulkOutbox, RoundOutbox


@dataclass(frozen=True)
class NodeInfo:
    """Static knowledge available to one node.

    Attributes
    ----------
    node_id:
        This node's unique ``O(log n)``-bit identifier (an int).
    neighbors:
        Sorted tuple of neighbor identifiers (the local ports).
    n:
        Number of nodes in the network.  The paper's Algorithm 1 takes
        ``n`` as input, so it is part of each node's initial knowledge.
    """

    node_id: int
    neighbors: tuple[int, ...]
    n: int

    @property
    def degree(self) -> int:
        return len(self.neighbors)


def seed_entropy(seed) -> int:
    """The entropy ``np.random.SeedSequence(seed)`` would hold, without
    building one for the common cases: a non-negative int is its own
    entropy, and ``None`` draws 128 fresh bits from the OS, as
    ``SeedSequence()`` does."""
    if seed is None:
        return secrets.randbits(128)
    if isinstance(seed, int) and seed >= 0:
        return seed
    return int(np.random.SeedSequence(seed).entropy)


class LazyGenerator:
    """A node's private generator, built on first use.

    It is ``Generator(PCG64(SeedSequence(entropy, spawn_key=(index,))))``,
    the same generator as ``default_rng(seed).spawn(n)[index]``, and it
    stands in for one: any generator attribute read through this object
    builds it once and forwards.  A program that draws nothing (the
    RWBC protocol hashes its walks and ranks from :attr:`entropy`
    instead) never pays for a ``SeedSequence`` or a ``Generator``.
    """

    __slots__ = ("entropy", "index", "_generator")

    def __init__(self, entropy: int, index: int) -> None:
        self.entropy = entropy
        self.index = index
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(
                np.random.PCG64(
                    np.random.SeedSequence(
                        self.entropy, spawn_key=(self.index,)
                    )
                )
            )
        return self._generator

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.generator, name)


class RoundContext:
    """Per-round capability handle passed to :meth:`NodeProgram.on_round`.

    Provides message sending (checked against the CONGEST limits by the
    transport) and the current round number.  ``shared`` is the run's
    :class:`SharedFastPathState` on the scheduler's fast path and
    ``None`` on the per-message loop and the asynchronous executor;
    either way a node program receives only control messages.
    """

    __slots__ = ("_node_id", "_neighbors", "_outbox", "round_number", "shared")

    def __init__(
        self,
        node_id: int,
        neighbors: tuple[int, ...],
        outbox: "RoundOutbox",
        round_number: int,
        shared: "SharedFastPathState | None" = None,
    ) -> None:
        self._node_id = node_id
        self._neighbors = frozenset(neighbors)
        self._outbox = outbox
        self.round_number = round_number
        self.shared = shared

    def send(self, neighbor: int, kind: str, *fields: int) -> None:
        """Queue a message to ``neighbor`` for delivery next round.

        Raises
        ------
        ProtocolError
            If ``neighbor`` is not adjacent to this node.
        CongestViolation
            If the message or the edge's round budget exceeds the model
            limits (raised by the transport).
        """
        if neighbor not in self._neighbors:
            raise ProtocolError(
                f"node {self._node_id} tried to send to non-neighbor "
                f"{neighbor}"
            )
        message = Message(
            sender=self._node_id,
            receiver=neighbor,
            kind=kind,
            fields=tuple(fields),
        )
        self._outbox.push(message)

    def broadcast(self, kind: str, *fields: int) -> None:
        """Send the same message to every neighbor (one per edge)."""
        for neighbor in sorted(self._neighbors):
            self.send(neighbor, kind, *fields)

    def send_fields(
        self, neighbor: int, kind: str, fields: tuple[int, ...]
    ) -> None:
        """:meth:`send` with the payload as one tuple, under the same
        checks: the sink the reliability layer's flush sends through
        (:data:`~repro.congest.reliable.Sink`)."""
        if neighbor not in self._neighbors:
            raise ProtocolError(
                f"node {self._node_id} tried to send to non-neighbor "
                f"{neighbor}"
            )
        self._outbox.push(Message(self._node_id, neighbor, kind, fields))


class EdgeIndex:
    """The run's directed edges as flat arrays, built once per fast-path run.

    Edge ids ascend node-major over the graph's canonical order, and
    each node's edges follow its ports - the ``info.neighbors`` order -
    so edge ``offsets[i] + j`` is ``order[i] -> neighbors[j]``.  A
    driver that pushes whole-network rows in edge order therefore
    pushes them in exactly the order a sorted per-node loop of
    ``broadcast`` calls would have sent them.  With the protocol's
    ``0 .. n-1`` labels a node's canonical position is its label.
    """

    __slots__ = ("offsets", "degrees", "src", "dst")

    def __init__(
        self, order: tuple[int, ...], neighbor_arrays: list[np.ndarray]
    ) -> None:
        degrees = np.array([len(a) for a in neighbor_arrays], dtype=np.int64)
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        self.offsets = offsets
        self.degrees = degrees
        self.src = np.repeat(np.array(order, dtype=np.int64), degrees)
        self.dst = np.concatenate(neighbor_arrays)

    @property
    def n(self) -> int:
        return len(self.degrees)


class SharedFastPathState:
    """Per-run coordination space for cooperating fast-path programs.

    The scheduler creates one instance per vectorized run and exposes it
    as ``ctx.shared`` on every node's :class:`RoundContext`.  Programs
    that want to batch work *across* nodes store a common engine object
    in :attr:`slots` and register it as a *driver*.  Bulk traffic goes
    from driver to driver only: drivers push rows into
    :attr:`bulk_outbox`, node programs never do, and no node inbox ever
    holds a bulk row.

    * a driver declares ``claimed_kinds`` (a set of message-kind tags);
      the scheduler hands in-flight bulk traffic of those kinds to the
      driver whole - one set of arrays for the entire network per
      round - and raises :class:`~repro.congest.errors.ProtocolError`
      for a bulk kind that no driver claims;
    * after all per-node calls of a round, the scheduler invokes
      ``driver.end_round(round_number, claimed, outbox, bulk_outbox)``
      exactly once, where ``claimed`` maps each claimed kind to its
      ``(senders, receivers, fields, multiplicity)`` arrays;
    * a driver that defines ``receive_rows(round_number, claimed)``
      gets its claimed traffic there instead, right after the claim
      pass and before any node or driver runs (its ``end_round`` then
      sees an empty map).  The ARQ's ack transport
      (:class:`~repro.congest.reliable.AckRows`) applies acks this way,
      so no node is stepped for one;
    * a driver that defines ``after_nodes(round_number, outbox)`` runs
      it right after the node pass, before the stepped nodes'
      ``next_wake`` queries and before any ``end_round``.  The ARQ's
      driver runs the flushes the round's node handlers asked for
      there, as one batch.

    This is purely a performance transformation: a driver must produce
    byte-identical traffic and randomness to its per-node counterpart
    (the walk engine's equivalence is pinned by tests).
    """

    def __init__(self, edges: EdgeIndex, bulk_outbox: "BulkOutbox") -> None:
        self.slots: dict[str, object] = {}
        self.drivers: list[object] = []
        # How many drivers at the end of ``drivers`` registered ``last``.
        self._trailing = 0
        # The run's directed edges (see EdgeIndex); every driver that
        # ships or reads whole-network per-edge arrays uses this one.
        self.edges = edges
        # The run's aggregate outbox, the one the scheduler hands every
        # driver's ``end_round``; a driver that ships rows before its
        # first ``end_round`` (the setup engine, in round 0) reads it
        # here.
        self.bulk_outbox = bulk_outbox
        # The run's FaultRuntime (None on fault-free runs).  Drivers
        # consult it for the crashed-node set so they can suppress a
        # down node's emissions exactly as the per-node loop does by
        # skipping the node outright.
        self.fault_runtime: object | None = None
        # Telemetry handles (observation-only; see repro.obs).  The
        # scheduler installs the run's SpanProfiler so drivers can wrap
        # their hot kernels in spans, and the InstrumentSet (None when
        # telemetry is off) for histogram/counter observations.  Neither
        # may ever influence protocol behavior or randomness.
        self.profiler: object = NULL_PROFILER
        self.instruments: object | None = None
        # Wake requests drained by the scheduler after the driver pass:
        # a driver (or a program called *from* a driver, outside the
        # per-node loop) that changes a node's phase can no longer rely
        # on the scheduler's post-step ``next_wake`` query, so it files
        # the node's next calendar round here instead.
        self.wake_requests: list[tuple[int, int]] = []

    def register_driver(self, driver: object, last: bool = False) -> None:
        """Register a cross-node driver; drivers run in registration
        order after each round's per-node calls, except that ``last``
        drivers run after all others - a transport that ships what the
        other drivers send (the ARQ's ack rows) registers that way."""
        if last:
            self.drivers.append(driver)
            self._trailing += 1
        else:
            self.drivers.insert(len(self.drivers) - self._trailing, driver)

    def request_wake(self, node: int, round_number: int) -> None:
        """Ask the scheduler to step ``node`` at ``round_number`` even
        if no mail arrives for it (see :meth:`VectorizedProgram.next_wake`)."""
        self.wake_requests.append((node, round_number))


class NodeProgram(abc.ABC):
    """Base class for per-node distributed programs.

    Lifecycle::

        program = MyProgram(info, rng)     # framework constructs
        program.on_start(ctx)              # round 0, no inbox
        while not all halted:
            program.on_round(ctx, inbox)   # rounds 1, 2, ...

    A program signals local completion with :meth:`halt`; the simulation
    stops when every program has halted and no messages are in flight.
    A halted node's ``on_round`` is still invoked if messages arrive for
    it (a real network cannot refuse delivery), which un-halts it.
    """

    def __init__(self, info: NodeInfo, rng: np.random.Generator) -> None:
        # The simulators pass a LazyGenerator: the node's own generator,
        # built the first time the program draws from it.
        self.info = info
        self.rng = rng
        self._halted = False
        # Optional observer called with +1/-1 on halt/unhalt transitions;
        # the fast-path scheduler installs one so global termination is
        # an O(1) counter check instead of an O(n) scan per round.
        self._halt_sink = None

    # -- framework hooks -------------------------------------------------
    def on_start(self, ctx: RoundContext) -> None:
        """Called once before the first communication round."""

    @abc.abstractmethod
    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """Called each round with the messages delivered this round."""

    # -- helpers ----------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.info.node_id

    @property
    def degree(self) -> int:
        return self.info.degree

    @property
    def neighbors(self) -> tuple[int, ...]:
        return self.info.neighbors

    def halt(self) -> None:
        """Mark this node locally done for termination accounting."""
        if not self._halted:
            self._halted = True
            if self._halt_sink is not None:
                self._halt_sink(1)

    def unhalt(self) -> None:
        if self._halted:
            self._halted = False
            if self._halt_sink is not None:
                self._halt_sink(-1)

    @property
    def halted(self) -> bool:
        return self._halted


class VectorizedProgram(NodeProgram):
    """Opt-in capability: a program the scheduler may run in aggregate.

    When *every* program of a simulation subclasses this (and nothing
    forces per-message fidelity - only ``record_messages`` does; tracers,
    telemetry and fault plans all run on the fast path), the scheduler
    switches to its fast path.  It calls the same :meth:`on_round` as
    the per-message loop, with the node's control messages only, and
    steps a node only when mail or a calendar wake calls for it.
    Aggregate array traffic runs between cross-node drivers registered
    through ``ctx.shared`` (:class:`SharedFastPathState`) and never
    reaches a node.  Semantics, round counts, and bandwidth accounting
    are identical to per-message dispatch - the equivalence is tested,
    not assumed (``tests/test_walks_batched.py``).

    Contract:

    * :attr:`bulk_idle` may return True only when a round with an empty
      inbox would be a no-op (no pending sends, no timer-driven state
      change) - the scheduler then skips the call entirely;
    * :meth:`next_wake` names the calendar rounds that are not no-ops.
      A wake may come early (the step is then a no-op), never late;
      what a driver applies without stepping the node (ack rows, see
      :class:`SharedFastPathState`) may only postpone the node's work.
    """

    @property
    def bulk_idle(self) -> bool:
        """True when an empty round would not change this node's state."""
        return False

    def next_wake(self, round_number: int) -> int | None:
        """Earliest future round this program must be stepped even if no
        mail arrives for it (``None`` = only mail wakes it).

        Queried by the fast-path scheduler after every step (and once
        after ``on_start``).  The returned round must be strictly greater
        than ``round_number``.  The default preserves the historical
        semantics exactly: a non-``bulk_idle`` program runs every round,
        an idle one only when mail arrives.  Programs with calendar-
        driven phases (e.g. "do nothing until round ``n``") override
        this so the scheduler's per-round work is proportional to the
        set of *active* nodes, not ``n`` - the difference between
        O(rounds * n) and O(total work) at large ``n``.

        Contract: between ``round_number`` and the returned wake round,
        an empty (mail-less) step of this program must be a no-op, for
        the same reason ``bulk_idle`` skipping is safe.  A state change
        driven from *outside* the per-node loop (a driver switching the
        program's phase) must be paired with a
        :meth:`SharedFastPathState.request_wake` call when the new phase
        needs calendar wakes."""
        return None if self.bulk_idle else round_number + 1
