"""Bandwidth-enforcing transport between nodes.

The transport collects the messages queued during one round and delivers
them at the start of the next, enforcing the CONGEST limits:

* every single message must fit in ``bits_per_message`` bits, and
* at most ``messages_per_edge`` messages may use one directed edge per
  round.

Violations raise :class:`~repro.congest.errors.CongestViolation`
immediately at send time, attributing the bug to the offending program
rather than silently dropping traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.congest.errors import CongestViolation, ConfigError
from repro.congest.message import TAG_BITS, Message, int_bits_array


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
    """Accumulates one round's outgoing messages under the bandwidth policy."""

    def __init__(self, policy: BandwidthPolicy) -> None:
        self._policy = policy
        # The policy is frozen: read its derived bit limit once.
        self._bit_limit = policy.bits_per_message
        self._messages: list[Message] = []
        self._edge_counts: dict[tuple[int, int], int] = {}

    def push(self, message: Message) -> None:
        """Accept a message or raise :class:`CongestViolation`."""
        limit = self._bit_limit
        if message.bits > limit:
            raise CongestViolation(
                f"message {message!r} is {message.bits} bits, exceeding the "
                f"per-message budget of {limit} bits"
            )
        edge = (message.sender, message.receiver)
        used = self._edge_counts.get(edge, 0)
        if used >= self._policy.messages_per_edge:
            raise CongestViolation(
                f"edge {edge} already carries {used} messages this round "
                f"(limit {self._policy.messages_per_edge})"
            )
        self._edge_counts[edge] = used + 1
        self._messages.append(message)

    def drain(self) -> list[Message]:
        """Remove and return all queued messages."""
        messages = self._messages
        self._messages = []
        self._edge_counts = {}
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
    ``senders[i] -> receivers[i]`` of ``row_bits[i]`` bits each."""

    senders: np.ndarray
    receivers: np.ndarray
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
            senders=self.senders[rows],
            receivers=self.receivers[rows],
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
                np.concatenate([getattr(part, name) for part in parts])
                for name in (
                    "senders", "receivers", "fields", "multiplicity",
                    "row_bits",
                )
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


@dataclass
class _KindBatch:
    """Accumulated same-kind records of one round (pre-concatenation)."""

    senders: list[np.ndarray] = field(default_factory=list)
    receivers: list[np.ndarray] = field(default_factory=list)
    fields: list[np.ndarray] = field(default_factory=list)
    multiplicity: list[np.ndarray] = field(default_factory=list)
    row_bits: list[np.ndarray] = field(default_factory=list)
    # Set by :meth:`BulkOutbox.push_priced`: rows whose bits the caller
    # priced, each its own edge's only row unless ``edges`` names the
    # rows' directed-edge ids, and the costliest row's bits, taken once
    # by the budget check.
    priced: bool = False
    edges: np.ndarray | None = None
    peak: int = 0


class BulkRound:
    """One round's drained traffic, in flight to the next round: the
    aggregate rows of each kind (``inboxes``) and the control messages
    that shared the round's edges.

    ``traffic`` is the merged :class:`RoundTraffic` the scheduler folds
    into :class:`~repro.congest.metrics.RunMetrics` at delivery time -
    the same totals and per-edge maxima that materializing every
    message would have produced.  It is computed on first read: a
    faulty round is replaced by what its fault pass delivers
    (:meth:`~repro.congest.faults.FaultRuntime.deliver`), and only that
    replacement is ever accounted.
    """

    def __init__(
        self,
        inboxes: dict[str, BulkKindInbox],
        control: list[Message],
        n: int,
        traffic: RoundTraffic | None = None,
        loads: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        self.inboxes = inboxes
        self._control = control
        self.n = n
        self._traffic = traffic
        # The drain's budget check (see _edge_loads), reused by the merge.
        self._loads = loads

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

    @property
    def traffic(self) -> RoundTraffic:
        if self._traffic is None:
            self._traffic = _round_traffic(
                self.inboxes, self._control, self.n, self._loads
            )
        return self._traffic

    def take(
        self, kind: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Remove one kind's traffic wholesale and return it as
        ``(senders, receivers, fields, multiplicity)`` arrays.

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
        return inbox.senders, inbox.receivers, inbox.fields, inbox.multiplicity

    def trace_into(self, tracer, round_number: int) -> None:
        """Emit one ``deliver`` trace event per materialized message of
        this round's bulk traffic - the same ``(round, receiver,
        "deliver", kind, sender)`` tuples a delivered ``Message``
        yields, with multiplicity expanded.  Called by the round loop
        before any driver claims traffic, so claimed kinds are traced
        too.  Event *order* differs from per-message dispatch
        (kind-major here, delivery order there); equivalence tests
        compare sorted streams."""
        for kind, inbox in self.inboxes.items():
            for receiver, sender, copies in zip(
                inbox.receivers.tolist(),
                inbox.senders.tolist(),
                inbox.multiplicity.tolist(),
            ):
                for _ in range(copies):
                    tracer.record(
                        round_number, receiver, "deliver", kind, sender
                    )


def _edge_loads(
    inboxes: dict[str, BulkKindInbox], control: list[Message], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's sender and receiver (bulk rows kind by kind, then the
    control messages), its index into the per-edge loads, and every
    loaded edge's message count.  This is all the per-edge budget check
    needs; :func:`_round_traffic` finishes the merge from it.  The round
    must carry some traffic.

    An edge's code is ``sender * n + receiver`` when every label lies in
    ``0..n-1``; other int labels (``Simulator`` takes any) are coded
    over their ranks among the round's labels, so no two edges share a
    code."""
    senders = [inbox.senders for inbox in inboxes.values()]
    receivers = [inbox.receivers for inbox in inboxes.values()]
    messages = [inbox.multiplicity for inbox in inboxes.values()]
    if control:
        senders.append(np.array([m.sender for m in control], np.int64))
        receivers.append(np.array([m.receiver for m in control], np.int64))
        messages.append(np.ones(len(control), dtype=np.int64))
    senders = np.concatenate(senders)
    receivers = np.concatenate(receivers)
    codes = senders * n + receivers
    labels = np.concatenate([senders, receivers])
    if labels.min() < 0 or labels.max() >= n:
        labels, ranks = np.unique(labels, return_inverse=True)
        codes = ranks[: len(senders)] * len(labels) + ranks[len(senders):]
    _, inverse = np.unique(codes, return_inverse=True)
    edge_messages = np.bincount(inverse, weights=np.concatenate(messages))
    return senders, receivers, inverse, edge_messages.astype(np.int64)


def _round_traffic(
    inboxes: dict[str, BulkKindInbox],
    control: list[Message],
    n: int,
    loads: tuple[np.ndarray, ...] | None = None,
) -> RoundTraffic:
    """One round's merged bulk + control accounting, no enforcement;
    ``loads`` is the round's :func:`_edge_loads`, when already known."""
    if not inboxes and not control:
        return _NO_TRAFFIC
    _, _, inverse, edge_messages = loads or _edge_loads(inboxes, control, n)
    bits = [inbox.multiplicity * inbox.row_bits for inbox in inboxes.values()]
    peak = max((int(inbox.row_bits.max()) for inbox in inboxes.values()),
               default=0)
    if control:
        control_bits = np.array([m.bits for m in control], dtype=np.int64)
        bits.append(control_bits)
        peak = max(peak, int(control_bits.max()))
    bits = np.concatenate(bits)
    edge_bits = np.bincount(inverse, weights=bits).astype(np.int64)
    return RoundTraffic(
        total_messages=int(edge_messages.sum()),
        total_bits=int(bits.sum()),
        max_edge_messages=int(edge_messages.max()),
        max_edge_bits=int(edge_bits.max()),
        max_message_bits=peak,
        edge_messages=edge_messages,
        edge_bits=edge_bits,
    )


class BulkOutbox:
    """Fast-path counterpart of :class:`RoundOutbox`.

    Fast-path drivers (never node programs; the handle lives on
    :class:`~repro.congest.node.SharedFastPathState`) push whole arrays
    of counted messages; limits are checked
    vectorized - the per-message bit budget at push time, the per-edge
    message budget at :meth:`drain` (jointly with the round's control
    messages, since both share each edge's capacity).  The charged
    quantities are exactly those of the materialized messages: same
    per-field integer bit costs, same per-edge counts.
    """

    def __init__(self, policy: BandwidthPolicy) -> None:
        self._policy = policy
        # The policy is frozen: read its derived bit limit once.
        self._bit_limit = policy.bits_per_message
        self._batches: dict[str, _KindBatch] = {}

    def push_rows(
        self,
        kind: str,
        senders: np.ndarray,
        receivers: np.ndarray,
        fields: np.ndarray,
        multiplicity: np.ndarray | None = None,
    ) -> None:
        """Queue aggregate sends from *many* senders at once (row ``i``
        travels ``senders[i] -> receivers[i]``).  This is how a fast-path
        driver ships one whole round of network traffic in a single
        call."""
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
        if multiplicity is None:
            multiplicity = np.ones(len(receivers), dtype=np.int64)
        else:
            multiplicity = np.asarray(multiplicity, dtype=np.int64)
        row_bits = TAG_BITS + int_bits_array(fields).sum(axis=1)
        self._check_budget(kind, senders, row_bits)
        batch = self._batches.setdefault(kind, _KindBatch())
        batch.senders.append(senders)
        batch.receivers.append(receivers)
        batch.fields.append(fields)
        batch.multiplicity.append(multiplicity)
        batch.row_bits.append(row_bits)

    def _check_budget(
        self, kind: str, senders: np.ndarray, row_bits: np.ndarray
    ) -> int:
        """Return the costliest row's bits; raise
        :class:`CongestViolation` for that row when it exceeds the
        per-message budget."""
        peak = int(row_bits.max())
        limit = self._bit_limit
        if peak > limit:
            worst = int(np.argmax(row_bits))
            raise CongestViolation(
                f"bulk {kind!r} message from node {int(senders[worst])} is "
                f"{peak} bits, exceeding the per-message budget of "
                f"{limit} bits"
            )
        return peak

    def push_priced(
        self,
        kind: str,
        senders: np.ndarray,
        receivers: np.ndarray,
        row_bits: np.ndarray,
        edges: np.ndarray | None = None,
        fields: np.ndarray | None = None,
        multiplicity: np.ndarray | None = None,
    ) -> None:
        """Queue rows whose bit costs the caller has already priced - a
        fast-path driver that can price a whole phase, or look its
        rows' costs up in tables, skips pricing a fields matrix every
        round.  The per-message budget is enforced here, exactly as in
        :meth:`push_rows`, and this must be the kind's only push of the
        round.

        Without ``edges`` the rows lie on *distinct* directed edges, one
        message each.  With ``edges`` - the rows' directed-edge ids
        (:class:`~repro.congest.node.EdgeIndex` numbering) - rows may
        share an edge.  ``fields`` is the payload the claiming driver
        reads next round (None: no payload; the driver reads what it
        needs elsewhere) and ``multiplicity`` the identical copies per
        row.  Accounting is that of materialized messages with those bit
        costs; :meth:`drain` reads each edge's load straight off the rows
        when only priced pushes share the round."""
        if len(receivers) == 0:
            return
        peak = self._check_budget(kind, senders, row_bits)
        if multiplicity is None:
            multiplicity = np.ones(len(senders), dtype=np.int64)
        self._batches[kind] = _KindBatch(
            senders=[senders],
            receivers=[receivers],
            fields=[] if fields is None else [fields],
            multiplicity=[multiplicity],
            row_bits=[np.asarray(row_bits, dtype=np.int64)],
            priced=True,
            edges=edges,
            peak=peak,
        )

    def drain(self, n: int, control_messages: list[Message]) -> BulkRound:
        """Close the round: enforce the per-edge budget that bulk rows
        and the round's control messages share, and hand back the
        in-flight :class:`BulkRound`.

        A round without bulk rows checks nothing here
        (:meth:`RoundOutbox.push` held each edge's control mail to the
        budget).  A round of priced pushes alone reduces its loads over
        the rows' edge ids and accounts itself at once.  Every other
        round, and a priced round over the budget (to name the edge),
        counts each ``(sender, receiver)`` edge's messages
        (:func:`_edge_loads`); the merge's bit half waits until the
        round's traffic is read, so a round that the fault pass
        replaces never finishes it."""
        batches, self._batches = self._batches, {}
        if not batches:
            return BulkRound({}, control_messages, n)
        if not control_messages and all(
            batch.priced for batch in batches.values()
        ):
            priced = _priced_round(batches, n)
            if (
                priced is not None
                and priced.traffic.max_edge_messages
                <= self._policy.messages_per_edge
            ):
                return priced
        inboxes = {
            kind: BulkKindInbox(
                senders=np.concatenate(batch.senders),
                receivers=np.concatenate(batch.receivers),
                fields=np.concatenate(batch.fields) if batch.fields else None,
                multiplicity=np.concatenate(batch.multiplicity),
                row_bits=np.concatenate(batch.row_bits),
            )
            for kind, batch in batches.items()
        }
        loads = _edge_loads(inboxes, control_messages, n)
        senders, receivers, inverse, edge_messages = loads
        load = int(edge_messages.max())
        if load > self._policy.messages_per_edge:
            # The first row on a most loaded edge names it.
            over = int(np.argmax(edge_messages[inverse]))
            raise CongestViolation(
                f"edge ({senders[over]} -> {receivers[over]}) carries "
                f"{load} messages this round "
                f"(limit {self._policy.messages_per_edge})"
            )
        return BulkRound(inboxes, control_messages, n, loads=loads)


def _priced_round(batches: dict[str, _KindBatch], n: int) -> BulkRound | None:
    """A round of priced pushes only, accounted without merging rows:
    a lone push on distinct edges makes each row its edge's load, and
    pushes tagged with edge ids sum their loads by id.  None when a
    push without edge ids shares the round."""
    inboxes = {
        kind: BulkKindInbox(
            senders=batch.senders[0],
            receivers=batch.receivers[0],
            fields=batch.fields[0] if batch.fields else None,
            multiplicity=batch.multiplicity[0],
            row_bits=batch.row_bits[0],
        )
        for kind, batch in batches.items()
    }
    peak = max(batch.peak for batch in batches.values())
    untagged = [batch.edges is None for batch in batches.values()]
    if untagged == [True]:
        # One push on distinct edges: each row is its edge's load.
        (inbox,) = inboxes.values()
        traffic = RoundTraffic(
            total_messages=len(inbox.row_bits),
            total_bits=int(inbox.row_bits.sum()),
            max_edge_messages=1,
            max_edge_bits=peak,
            max_message_bits=peak,
            edge_messages=inbox.multiplicity,
            edge_bits=inbox.row_bits,
        )
        return BulkRound(inboxes, [], n, traffic)
    if any(untagged):
        return None
    edges = np.concatenate([batch.edges for batch in batches.values()])
    messages = np.concatenate(
        [inbox.multiplicity for inbox in inboxes.values()]
    )
    bits = messages * np.concatenate(
        [inbox.row_bits for inbox in inboxes.values()]
    )
    # Loads by edge id; every used edge carries a message.
    edge_messages = np.bincount(edges, weights=messages)
    used = edge_messages.nonzero()[0]
    edge_messages = edge_messages[used].astype(np.int64)
    edge_bits = np.bincount(edges, weights=bits)[used].astype(np.int64)
    traffic = RoundTraffic(
        total_messages=int(edge_messages.sum()),
        total_bits=int(edge_bits.sum()),
        max_edge_messages=int(edge_messages.max()),
        max_edge_bits=int(edge_bits.max()),
        max_message_bits=peak,
        edge_messages=edge_messages,
        edge_bits=edge_bits,
    )
    return BulkRound(inboxes, [], n, traffic)
