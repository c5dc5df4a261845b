"""Bandwidth-enforcing transport between nodes.

The transport collects the messages queued during one round and delivers
them at the start of the next, enforcing the CONGEST limits:

* every single message must fit in ``bits_per_message`` bits, and
* at most ``messages_per_edge`` messages may use one directed edge per
  round.

Violations raise :class:`~repro.congest.errors.CongestViolation`
rather than silently dropping traffic: an oversized message at send
time, attributing the bug to the offending program, and an edge over
its round budget when the round closes (:meth:`BulkOutbox.drain`),
naming the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import CongestViolation, ConfigError
from repro.congest.message import Message, message_bits_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex


@dataclass(frozen=True)
class BandwidthPolicy:
    """The model constants of one simulation.

    Attributes
    ----------
    n:
        Network size; the ``log n`` in the model's ``O(log n)`` budget.
    log_factor:
        ``c`` in the per-message budget ``c * ceil(log2 n)`` bits.
    messages_per_edge:
        Maximum messages per directed edge per round (the model's "constant
        number of messages").
    """

    n: int
    log_factor: int = 8
    messages_per_edge: int = 4

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("BandwidthPolicy requires n >= 1")
        if self.log_factor < 1:
            raise ConfigError("BandwidthPolicy requires log_factor >= 1")
        if self.messages_per_edge < 1:
            raise ConfigError("BandwidthPolicy requires messages_per_edge >= 1")

    @property
    def bits_per_message(self) -> int:
        """The ``O(log n)`` per-message budget.

        The floor of 48 bits keeps small-n simulations workable: leader
        ranks span ``[0, n^3)`` (3 log n bits) and ride with an id and a
        distance, which exceeds ``8 log2 n`` for n < ~10.  The floor is a
        constant, so the asymptotic budget is unchanged.
        """
        return max(48, self.log_factor * math.ceil(math.log2(max(2, self.n))))


class RoundOutbox:
    """Accumulates one round's outgoing control messages.  Each must fit
    the per-message budget; the per-edge budget they share with the
    round's bulk rows is checked when :meth:`BulkOutbox.drain` closes
    the round."""

    def __init__(self, policy: BandwidthPolicy) -> None:
        # The policy is frozen: read its derived bit limit once.
        self._bit_limit = policy.bits_per_message
        self._messages: list[Message] = []

    def push(self, message: Message) -> None:
        """Accept a message or raise :class:`CongestViolation`."""
        limit = self._bit_limit
        if message.bits > limit:
            raise CongestViolation(
                f"message {message!r} is {message.bits} bits, exceeding the "
                f"per-message budget of {limit} bits"
            )
        self._messages.append(message)

    def drain(self) -> list[Message]:
        """Remove and return all queued messages."""
        messages = self._messages
        self._messages = []
        return messages

    def __len__(self) -> int:
        return len(self._messages)


# ---------------------------------------------------------------------------
# Aggregate (fast-path) transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BulkKindInbox:
    """The aggregated rows of one message kind in one round, network
    wide: row ``i`` stands for ``multiplicity[i]`` identical messages
    of ``row_bits[i]`` bits each on the directed edge whose
    :class:`~repro.congest.node.EdgeIndex` id is ``edges[i]``, the
    row's only name (its endpoints are that index's ``src`` and
    ``dst`` at the id)."""

    edges: np.ndarray
    # (groups, field_count) integer matrix; None for priced traffic
    # pushed without a payload (:meth:`BulkOutbox.push_priced`), which
    # only its claiming driver ever takes.
    fields: np.ndarray | None
    multiplicity: np.ndarray  # identical copies per row
    row_bits: np.ndarray

    def select(
        self, rows: np.ndarray, multiplicity: np.ndarray
    ) -> "BulkKindInbox":
        """The rows at ``rows`` (indices or a mask), now carrying
        ``multiplicity`` copies each."""
        return BulkKindInbox(
            edges=self.edges[rows],
            fields=None if self.fields is None else self.fields[rows],
            multiplicity=multiplicity,
            row_bits=self.row_bits[rows],
        )

    @staticmethod
    def concat(parts: list["BulkKindInbox"]) -> "BulkKindInbox":
        """One kind's rows from several batches, in batch order."""
        if len(parts) == 1:
            return parts[0]
        return BulkKindInbox(
            *(
                None if getattr(parts[0], name) is None
                else np.concatenate([getattr(part, name) for part in parts])
                for name in ("edges", "fields", "multiplicity", "row_bits")
            )
        )


@dataclass(frozen=True)
class RoundTraffic:
    """One round's merged accounting (bulk + control), for RunMetrics.

    ``edge_messages`` / ``edge_bits`` are the per-directed-edge loads
    behind the maxima (one entry per edge that carried traffic, order
    unspecified).  They ride along for telemetry - RunMetrics folds them
    into histograms when instruments are attached - and are excluded
    from equality so traffic comparisons stay by-the-numbers.
    """

    total_messages: int = 0
    total_bits: int = 0
    max_edge_messages: int = 0
    max_edge_bits: int = 0
    max_message_bits: int = 0
    edge_messages: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )
    edge_bits: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )


_NO_TRAFFIC = RoundTraffic()
_NO_ROWS = np.zeros(0, dtype=np.int64)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class BulkRound:
    """One round's drained traffic, in flight to the next round: the
    aggregate rows of each kind (``inboxes``) and the control messages
    that shared the round's edges, over the run's
    :class:`~repro.congest.node.EdgeIndex` (``edges``).

    ``traffic`` is the merged :class:`RoundTraffic` the scheduler folds
    into :class:`~repro.congest.metrics.RunMetrics` at delivery time -
    the same totals and per-edge maxima that materializing every
    message would have produced.  It is computed on first read: a
    faulty round is replaced by what its fault pass delivers
    (:meth:`~repro.congest.faults.FaultRuntime.deliver`), and only that
    replacement is ever accounted.  ``peak`` is the costliest row's
    bits when the pushes already know it (0: not known), and ``copies``
    whether a row may stand for several messages.  Every round takes the
    one per-edge load rule: messages and bits summed by edge id.
    """

    def __init__(
        self,
        inboxes: dict[str, BulkKindInbox],
        control: list[Message],
        edges: "EdgeIndex",
        peak: int = 0,
        copies: bool = True,
    ) -> None:
        self.inboxes = inboxes
        self._control = control
        self.edges = edges
        self._peak = peak
        self._copies = copies
        self._traffic: RoundTraffic | None = None
        # The first half of the round's one load rule, all the drain's
        # budget check needs: the rows' edge ids and message counts
        # (each kind's rows, then the control messages), and per-edge
        # message loads.  Rows whose ids strictly ascend are their own
        # loads (``_used`` None); otherwise the loads are summed by id,
        # over the edges ``_used``.
        ids = [inbox.edges for inbox in inboxes.values()]
        messages = [inbox.multiplicity for inbox in inboxes.values()]
        #: The control messages' edge ids, in order.
        self.control_edges = _NO_ROWS
        if control:
            count = len(control)
            self.control_edges = edges.ids(
                np.fromiter((m.sender for m in control), np.int64, count),
                np.fromiter((m.receiver for m in control), np.int64, count),
            )
            ids.append(self.control_edges)
            messages.append(np.ones(count, dtype=np.int64))
        self._ids = self._messages = self._edge_messages = _NO_ROWS
        self._used = None
        if not ids:
            self._traffic = _NO_TRAFFIC
        else:
            self._ids = ids = _joined(ids)
            self._messages = self._edge_messages = messages = _joined(messages)
            if not (ids[1:] > ids[:-1]).all():
                counts = np.bincount(ids, weights=messages)
                self._used = counts.nonzero()[0]
                self._edge_messages = counts[self._used].astype(np.int64)
        # Distinct edges, one message each.
        self._single = self._used is None and not copies

    def __bool__(self) -> bool:
        return bool(self.inboxes)

    @property
    def kinds(self) -> tuple[str, ...]:
        """The message kinds still in this round (not yet taken)."""
        return tuple(self.inboxes)

    @property
    def total_messages(self) -> int:
        return sum(
            int(inbox.multiplicity.sum()) for inbox in self.inboxes.values()
        )

    def enforce(self, limit: int) -> None:
        """Raise :class:`CongestViolation` when an edge carries more
        than ``limit`` messages; the first row on a most loaded edge
        names it."""
        if self._single:
            return
        load = int(self._edge_messages.max())
        if load > limit:
            ids = self._ids
            loads = np.bincount(ids, weights=self._messages)[ids]
            edge = ids[int(np.argmax(loads))]
            raise CongestViolation(
                f"edge ({self.edges.src[edge]} -> {self.edges.dst[edge]}) "
                f"carries {load} messages this round (limit {limit})"
            )

    @property
    def traffic(self) -> RoundTraffic:
        """The round's accounting, no enforcement: the bit half of the
        load rule finishes what the constructor started."""
        if self._traffic is None:
            self._traffic = self._round_traffic()
        return self._traffic

    def _round_traffic(self) -> RoundTraffic:
        inboxes = self.inboxes.values()
        bits = [
            inbox.multiplicity * inbox.row_bits if self._copies
            else inbox.row_bits
            for inbox in inboxes
        ]
        peak = self._peak or max(
            (int(inbox.row_bits.max()) for inbox in inboxes), default=0
        )
        if self._control:
            control = self._control
            control_bits = np.fromiter(
                (m.bits for m in control), np.int64, len(control)
            )
            bits.append(control_bits)
            peak = max(peak, int(control_bits.max()))
        bits = edge_bits = _joined(bits)
        if self._used is not None:
            edge_bits = np.bincount(self._ids, weights=bits)[self._used]
            edge_bits = edge_bits.astype(np.int64)
        # Distinct edges of one message each need no reductions but the
        # total bits.
        single = self._single
        return RoundTraffic(
            total_messages=len(bits) if single else int(self._messages.sum()),
            total_bits=int(bits.sum()),
            max_edge_messages=1 if single else int(self._edge_messages.max()),
            max_edge_bits=peak if single else int(edge_bits.max()),
            max_message_bits=peak,
            edge_messages=self._edge_messages,
            edge_bits=edge_bits,
        )

    def take(
        self, kind: str
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray] | None:
        """Remove one kind's traffic wholesale and return it as
        ``(edges, fields, multiplicity)`` arrays, ``edges`` the rows'
        edge ids.

        Every bulk kind belongs to the fast-path driver that claims it:
        the scheduler hands each claimed kind to its driver whole, and
        no node program ever sees a bulk row.  Accounting is unaffected:
        ``traffic`` is fixed before the first row leaves.  ``fields`` is
        None for priced traffic pushed without a payload
        (:meth:`BulkOutbox.push_priced`)."""
        inbox = self.inboxes.get(kind)
        if inbox is None:
            return None
        self.traffic  # account the round before it shrinks
        del self.inboxes[kind]
        return inbox.edges, inbox.fields, inbox.multiplicity

    def trace_into(self, tracer, round_number: int) -> None:
        """Emit one ``deliver`` trace event per materialized message of
        this round's bulk traffic - the same ``(round, receiver,
        "deliver", kind, sender)`` tuples a delivered ``Message``
        yields, with multiplicity expanded.  Called by the round loop
        before any driver claims traffic, so claimed kinds are traced
        too.  Event *order* differs from per-message dispatch
        (kind-major here, delivery order there); equivalence tests
        compare sorted streams."""
        src, dst = self.edges.src, self.edges.dst
        for kind, inbox in self.inboxes.items():
            for receiver, sender, copies in zip(
                dst[inbox.edges].tolist(),
                src[inbox.edges].tolist(),
                inbox.multiplicity.tolist(),
            ):
                for _ in range(copies):
                    tracer.record(
                        round_number, receiver, "deliver", kind, sender
                    )


class BulkOutbox:
    """Fast-path counterpart of :class:`RoundOutbox`.

    Fast-path drivers (never node programs; the handle lives on
    :class:`~repro.congest.node.SharedFastPathState`) push whole arrays
    of counted messages over the run's
    :class:`~repro.congest.node.EdgeIndex` (``edges``); limits are
    checked vectorized - the per-message bit budget at push time, the
    per-edge message budget at :meth:`drain` (jointly with the round's
    control messages, since both share each edge's capacity).  The
    charged quantities are exactly those of the materialized messages:
    same per-field integer bit costs, same per-edge counts.
    """

    def __init__(self, policy: BandwidthPolicy, edges: "EdgeIndex") -> None:
        self._policy = policy
        # The policy is frozen: read its derived bit limit once.
        self._bit_limit = policy.bits_per_message
        self._edges = edges
        self._batches: dict[str, list[BulkKindInbox]] = {}
        # The round's costliest row so far, and whether a push gave
        # its rows copies.
        self._peak = 0
        self._copies = False
        # Rows pushed without copies share views of one read-only array
        # of ones.
        self._ones = np.ones(0, dtype=np.int64)

    def push_rows(
        self,
        kind: str,
        senders: np.ndarray,
        receivers: np.ndarray,
        fields: np.ndarray,
        multiplicity: np.ndarray | None = None,
    ) -> None:
        """Queue aggregate sends from *many* senders at once, addressed
        by label (row ``i`` travels ``senders[i] -> receivers[i]``): the
        rows are priced from their fields and named by their edge ids
        (:meth:`EdgeIndex.ids <repro.congest.node.EdgeIndex.ids>`), then
        pushed as :meth:`push_priced` pushes them.  Fast-path drivers
        hold their rows' ids and push them with :meth:`push_priced`."""
        if len(receivers) == 0:
            return
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        fields = np.asarray(fields, dtype=np.int64)
        if fields.ndim != 2 or fields.shape[0] != len(receivers):
            raise ConfigError(
                "bulk fields must be (len(receivers), f), got "
                f"{fields.shape} for {len(receivers)} receivers"
            )
        if multiplicity is not None:
            multiplicity = np.asarray(multiplicity, dtype=np.int64)
        self.push_priced(
            kind,
            self._edges.ids(senders, receivers),
            message_bits_array(fields),
            fields,
            multiplicity,
        )

    def push_priced(
        self,
        kind: str,
        edges: np.ndarray,
        row_bits: np.ndarray,
        fields: np.ndarray | None = None,
        multiplicity: np.ndarray | None = None,
    ) -> None:
        """Queue rows on the directed edges whose ids
        (:class:`~repro.congest.node.EdgeIndex` numbering) are
        ``edges``, at bit costs ``row_bits`` - a driver prices them with
        :func:`~repro.congest.message.message_bits_array`, or looks them
        up in tables built once.  ``fields`` is the payload the claiming
        driver reads next round (None: no payload; the driver reads
        what it needs elsewhere) and ``multiplicity`` the identical
        copies per row (None: one).  The per-message budget is enforced
        here; accounting is that of materialized messages with those
        bit costs."""
        if len(edges) == 0:
            return
        row_bits = np.asarray(row_bits, dtype=np.int64)
        peak = int(row_bits.max())
        if peak > self._bit_limit:
            worst = int(np.argmax(row_bits))
            raise CongestViolation(
                f"bulk {kind!r} message from node "
                f"{int(self._edges.src[edges[worst]])} is "
                f"{peak} bits, exceeding the per-message budget of "
                f"{self._bit_limit} bits"
            )
        self._peak = max(self._peak, peak)
        if multiplicity is None:
            if len(self._ones) < len(edges):
                self._ones = np.ones(len(edges), dtype=np.int64)
                self._ones.flags.writeable = False
            multiplicity = self._ones[:len(edges)]
        else:
            self._copies = True
        self._batches.setdefault(kind, []).append(
            BulkKindInbox(edges, fields, multiplicity, row_bits)
        )

    def drain(self, n: int, control_messages: list[Message]) -> BulkRound:
        """Close the round: enforce the per-edge budget that bulk rows
        and the round's control messages share, and hand back the
        in-flight :class:`BulkRound` (``n`` is the network size, which
        the outbox's edge index already knows).

        Every round sums each edge's messages by id
        (:meth:`BulkRound.enforce`); the bit half waits until the
        round's traffic is read, so a round that the fault pass
        replaces never finishes it."""
        batches, self._batches = self._batches, {}
        bulk = BulkRound(
            {
                kind: BulkKindInbox.concat(parts)
                for kind, parts in batches.items()
            },
            control_messages,
            self._edges,
            self._peak,
            self._copies,
        )
        self._peak, self._copies = 0, False
        bulk.enforce(self._policy.messages_per_edge)
        return bulk
