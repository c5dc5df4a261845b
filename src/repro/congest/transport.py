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

from typing import TYPE_CHECKING

from repro.congest.errors import CongestViolation, ConfigError
from repro.congest.message import TAG_BITS, Message, int_bits_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.faults import FaultRuntime


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
    wide; the receivers ride alongside in :class:`BulkRound`."""

    senders: np.ndarray
    # (groups, field_count) integer matrix; None for priced traffic
    # pushed without a payload (:meth:`BulkOutbox.push_priced`), which
    # only its claiming driver ever takes.
    fields: np.ndarray | None
    multiplicity: np.ndarray  # identical copies per row


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
    """One round's drained aggregate traffic, in flight to next round.

    Holds concatenated per-kind arrays plus the merged
    :class:`RoundTraffic` numbers the scheduler folds into
    :class:`~repro.congest.metrics.RunMetrics` at delivery time - the
    same totals and per-edge maxima that materializing every message
    would have produced.
    """

    def __init__(
        self,
        kinds: dict[str, BulkKindInbox],
        receivers_by_kind: dict[str, np.ndarray],
        row_bits_by_kind: dict[str, np.ndarray],
        traffic: RoundTraffic,
    ) -> None:
        self._kinds = kinds
        self._receivers = receivers_by_kind
        self._row_bits = row_bits_by_kind
        self.traffic = traffic

    def __bool__(self) -> bool:
        return bool(self._kinds)

    @property
    def kinds(self) -> tuple[str, ...]:
        """The message kinds still in this round (not yet taken)."""
        return tuple(self._kinds)

    @property
    def total_messages(self) -> int:
        return sum(
            int(batch.multiplicity.sum()) for batch in self._kinds.values()
        )

    def take(
        self, kind: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Remove one kind's traffic wholesale and return it as
        ``(senders, receivers, fields, multiplicity)`` arrays.

        Every bulk kind belongs to the fast-path driver that claims it:
        the scheduler hands each claimed kind to its driver whole, and
        no node program ever sees a bulk row.  Accounting is unaffected
        (``traffic`` was fixed at drain time).  ``fields`` is None for
        priced traffic pushed without a payload
        (:meth:`BulkOutbox.push_priced`)."""
        batch = self._kinds.pop(kind, None)
        if batch is None:
            return None
        receivers = self._receivers.pop(kind)
        self._row_bits.pop(kind)
        return batch.senders, receivers, batch.fields, batch.multiplicity

    def apply_faults(
        self,
        runtime: "FaultRuntime",
        round_number: int,
        n: int,
        control_messages: list[Message],
    ) -> tuple[list[Message], "BulkRound"]:
        """Run this round's aggregate traffic through the fault plan.

        ``control_messages`` must already be fault-filtered (the
        scheduler does that first; per-edge fault indices continue from
        control into bulk, fixing the canonical order).  Filters every
        kind's rows, folds in traffic *delayed into* this round, and
        recomputes the delivered :class:`RoundTraffic` - so RunMetrics
        counts what actually arrived.  Returns the final control list
        (matured delayed messages appended) and the replacement round.

        No budget enforcement here: senders respected the CONGEST cap
        at drain time; duplication and delay are *adversary* actions,
        and their pile-ups at delivery are the adversary's, not the
        program's.
        """
        kinds: dict[str, BulkKindInbox] = {}
        receivers_by_kind: dict[str, np.ndarray] = {}
        row_bits_by_kind: dict[str, np.ndarray] = {}
        for kind, batch in self._kinds.items():
            receivers = self._receivers[kind]
            new_mult = runtime.filter_bulk(
                round_number,
                kind,
                batch.senders,
                receivers,
                batch.fields,
                batch.multiplicity,
            )
            keep = new_mult > 0
            if keep.any():
                kinds[kind] = BulkKindInbox(
                    senders=batch.senders[keep],
                    fields=batch.fields[keep],
                    multiplicity=new_mult[keep],
                )
                receivers_by_kind[kind] = receivers[keep]
                row_bits_by_kind[kind] = self._row_bits[kind][keep]
        matured_messages, matured_bulk = runtime.take_delayed(round_number)
        for kind, rows in matured_bulk.items():
            senders = np.array([r[0] for r in rows], dtype=np.int64)
            receivers = np.array([r[1] for r in rows], dtype=np.int64)
            fields = np.array([r[2] for r in rows], dtype=np.int64)
            if fields.ndim == 1:  # all-empty payloads
                fields = fields.reshape(len(rows), 0)
            multiplicity = np.array([r[3] for r in rows], dtype=np.int64)
            row_bits = TAG_BITS + int_bits_array(fields).sum(axis=1)
            if kind in kinds:
                old = kinds[kind]
                kinds[kind] = BulkKindInbox(
                    senders=np.concatenate((old.senders, senders)),
                    fields=np.concatenate((old.fields, fields)),
                    multiplicity=np.concatenate(
                        (old.multiplicity, multiplicity)
                    ),
                )
                receivers_by_kind[kind] = np.concatenate(
                    (receivers_by_kind[kind], receivers)
                )
                row_bits_by_kind[kind] = np.concatenate(
                    (row_bits_by_kind[kind], row_bits)
                )
            else:
                kinds[kind] = BulkKindInbox(
                    senders=senders,
                    fields=fields,
                    multiplicity=multiplicity,
                )
                receivers_by_kind[kind] = receivers
                row_bits_by_kind[kind] = row_bits
        control = control_messages + matured_messages
        traffic = RoundTraffic()
        if kinds or control:
            traffic, _, _ = _round_traffic(
                kinds, receivers_by_kind, row_bits_by_kind, control, n
            )
        return control, BulkRound(
            kinds, receivers_by_kind, row_bits_by_kind, traffic
        )

    def trace_into(self, tracer, round_number: int) -> None:
        """Emit one ``deliver`` trace event per materialized message of
        this round's bulk traffic - the same ``(round, receiver,
        "deliver", kind, sender)`` tuples a delivered ``Message``
        yields, with multiplicity expanded.  Called by the round loop
        before any driver claims traffic, so claimed kinds are traced
        too.  Event *order* differs from per-message dispatch
        (kind-major here, delivery order there); equivalence tests
        compare sorted streams."""
        for kind, batch in self._kinds.items():
            receivers = self._receivers[kind]
            senders = batch.senders
            multiplicity = batch.multiplicity
            for i in range(len(receivers)):
                receiver = int(receivers[i])
                sender = int(senders[i])
                for _ in range(int(multiplicity[i])):
                    tracer.record(
                        round_number, receiver, "deliver", kind, sender
                    )


def _round_traffic(
    kinds: dict[str, BulkKindInbox],
    receivers_by_kind: dict[str, np.ndarray],
    row_bits_by_kind: dict[str, np.ndarray],
    control_messages: list[Message],
    n: int,
) -> tuple[RoundTraffic, np.ndarray, np.ndarray]:
    """One round's merged bulk + control accounting, no enforcement.

    Returns the :class:`RoundTraffic` plus the directed-edge code
    (``sender * n + receiver``) of every row and each row's index into
    ``traffic.edge_messages``, so :meth:`BulkOutbox.drain` can name an
    overloaded edge.  The round must carry some traffic."""
    edge_codes_parts: list[np.ndarray] = []
    edge_messages_parts: list[np.ndarray] = []
    edge_bits_parts: list[np.ndarray] = []
    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    for kind, batch in kinds.items():
        receivers = receivers_by_kind[kind]
        row_bits = row_bits_by_kind[kind]
        edge_codes_parts.append(batch.senders * n + receivers)
        edge_messages_parts.append(batch.multiplicity)
        edge_bits_parts.append(batch.multiplicity * row_bits)
        total_messages += int(batch.multiplicity.sum())
        total_bits += int((batch.multiplicity * row_bits).sum())
        max_message_bits = max(max_message_bits, int(row_bits.max()))
    if control_messages:
        codes = np.array(
            [m.sender * n + m.receiver for m in control_messages],
            dtype=np.int64,
        )
        bits = np.array([m.bits for m in control_messages], dtype=np.int64)
        edge_codes_parts.append(codes)
        edge_messages_parts.append(np.ones(len(codes), dtype=np.int64))
        edge_bits_parts.append(bits)
        total_messages += len(control_messages)
        total_bits += int(bits.sum())
        max_message_bits = max(max_message_bits, int(bits.max()))
    codes = np.concatenate(edge_codes_parts)
    _, inverse = np.unique(codes, return_inverse=True)
    edge_messages = np.bincount(
        inverse, weights=np.concatenate(edge_messages_parts)
    )
    edge_bits = np.bincount(inverse, weights=np.concatenate(edge_bits_parts))
    traffic = RoundTraffic(
        total_messages=total_messages,
        total_bits=total_bits,
        max_edge_messages=int(edge_messages.max()),
        max_edge_bits=int(edge_bits.max()),
        max_message_bits=max_message_bits,
        edge_messages=edge_messages.astype(np.int64),
        edge_bits=edge_bits.astype(np.int64),
    )
    return traffic, codes, inverse


_EMPTY_ROUND = BulkRound({}, {}, {}, RoundTraffic())


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
        """Close the round: merge accounting with the round's control
        messages, enforce the shared per-edge budget, and hand back the
        in-flight :class:`BulkRound`.

        A round of priced pushes alone skips the merge: its loads reduce
        over the rows' edge ids.  Every other round, and a priced round
        over the per-edge budget (to name the edge), merges the rows by
        ``(sender, receiver)``."""
        batches, self._batches = self._batches, {}
        if not batches and not control_messages:
            return _EMPTY_ROUND
        if not control_messages and all(
            batch.priced for batch in batches.values()
        ):
            priced = _priced_round(batches)
            if (
                priced is not None
                and priced.traffic.max_edge_messages
                <= self._policy.messages_per_edge
            ):
                return priced
        kinds: dict[str, BulkKindInbox] = {}
        receivers_by_kind: dict[str, np.ndarray] = {}
        row_bits_by_kind: dict[str, np.ndarray] = {}
        for kind, batch in batches.items():
            kinds[kind] = BulkKindInbox(
                senders=np.concatenate(batch.senders),
                fields=np.concatenate(batch.fields) if batch.fields else None,
                multiplicity=np.concatenate(batch.multiplicity),
            )
            receivers_by_kind[kind] = np.concatenate(batch.receivers)
            row_bits_by_kind[kind] = np.concatenate(batch.row_bits)
        traffic, codes, inverse = _round_traffic(
            kinds, receivers_by_kind, row_bits_by_kind, control_messages, n
        )
        if traffic.max_edge_messages > self._policy.messages_per_edge:
            over = int(codes[np.argmax(traffic.edge_messages[inverse])])
            raise CongestViolation(
                f"edge ({over // n} -> {over % n}) carries "
                f"{traffic.max_edge_messages} messages this round "
                f"(limit {self._policy.messages_per_edge})"
            )
        return BulkRound(kinds, receivers_by_kind, row_bits_by_kind, traffic)


def _priced_round(batches: dict[str, _KindBatch]) -> BulkRound | None:
    """A round of priced pushes only, accounted without merging rows:
    a lone push on distinct edges makes each row its edge's load, and
    pushes tagged with edge ids sum their loads by id.  None when a
    push without edge ids shares the round."""
    kinds: dict[str, BulkKindInbox] = {}
    receivers_by_kind: dict[str, np.ndarray] = {}
    row_bits_by_kind: dict[str, np.ndarray] = {}
    for kind, batch in batches.items():
        kinds[kind] = BulkKindInbox(
            senders=batch.senders[0],
            fields=batch.fields[0] if batch.fields else None,
            multiplicity=batch.multiplicity[0],
        )
        receivers_by_kind[kind] = batch.receivers[0]
        row_bits_by_kind[kind] = batch.row_bits[0]
    peak = max(batch.peak for batch in batches.values())
    untagged = [batch.edges is None for batch in batches.values()]
    if untagged == [True]:
        # One push on distinct edges: each row is its edge's load.
        ((kind, row_bits),) = row_bits_by_kind.items()
        traffic = RoundTraffic(
            total_messages=len(row_bits),
            total_bits=int(row_bits.sum()),
            max_edge_messages=1,
            max_edge_bits=peak,
            max_message_bits=peak,
            edge_messages=kinds[kind].multiplicity,
            edge_bits=row_bits,
        )
        return BulkRound(kinds, receivers_by_kind, row_bits_by_kind, traffic)
    if any(untagged):
        return None
    edges = np.concatenate([batch.edges for batch in batches.values()])
    messages = np.concatenate([inbox.multiplicity for inbox in kinds.values()])
    row_bits = np.concatenate(list(row_bits_by_kind.values()))
    bits = messages * row_bits
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
    return BulkRound(kinds, receivers_by_kind, row_bits_by_kind, traffic)
