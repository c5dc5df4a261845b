"""Deterministic fault injection for the CONGEST simulator.

A :class:`FaultPlan` is a *seeded schedule* of link and node failures:

* per-edge message **drops** (the classic lossy-link model),
* per-edge message **duplication** (at-least-once links),
* per-edge message **delays** (a message slips 1..``max_delay`` rounds),
* per-node **crash windows** (crash-stop / crash-recover: during
  ``[start, end)`` the node executes no rounds and every message to it
  is lost; it resumes with its memory intact - the standard
  omission-crash model with stable storage).

The plan replaces the simulator's old bare ``drop_rate`` float (kept as
the :meth:`FaultPlan.from_drop_rate` convenience constructor).

Determinism contract
--------------------
Every per-message fault decision is a *pure hash* of
``(plan.seed, round, sender, receiver, kind, index)`` where ``index``
is the message's position among the round's messages on that directed
edge and kind, counted from zero in canonical delivery order (control
messages in outbox push order first, then each bulk kind's rows in row
order).  There
is no sequential RNG stream to keep aligned, so the per-message loop
and the vectorized fast path - which materialize the very same traffic
in different containers - reach *identical* decisions, and a plan's
schedule is independent of the protocol seed (one fault schedule can be
replayed against many protocol seeds).

:class:`FaultRuntime` is the per-run applicator: the scheduler creates
one per simulation and hands it each round's in-flight traffic, in one
call, on both execution paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.congest.errors import FaultInjectionError
from repro.congest.message import Message
from repro.congest.splitmix import GOLDEN, MASK64, _mix64_array, _mix64_int
from repro.congest.transport import BulkKindInbox, BulkRound

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex

# Decision salts: one independent hash family per fault type.
_SALT_DROP = 0xD1
_SALT_DUP = 0xD2
_SALT_DELAY = 0xD3
_SALT_AMOUNT = 0xD4


@lru_cache(maxsize=None)
def kind_code(kind: str) -> int:
    """Stable 64-bit code for a message kind (platform-independent)."""
    digest = hashlib.sha256(kind.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _edge_base(
    seed: int, round_number: int, sender: int, receiver: int, code: int
) -> int:
    """Scalar hash chain shared by every message of one (edge, kind)."""
    h = seed & MASK64
    for part in (round_number, sender, receiver, code):
        h = _mix64_int(h ^ ((part * GOLDEN) & MASK64))
    return h


def _edge_base_array(
    seed: int,
    round_number: int,
    senders: np.ndarray,
    receivers: np.ndarray,
    codes: np.ndarray,
) -> np.ndarray:
    """:func:`_edge_base` for arrays of edges (one uint64 per edge).

    The seed/round prefix of the chain is shared by every edge of the
    round, so it is folded once in scalar math; the remaining three
    links vectorize.  Bit-identical to the scalar chain.
    """
    prefix = _mix64_int((seed & MASK64) ^ ((round_number * GOLDEN) & MASK64))
    golden = np.uint64(GOLDEN)
    h = _mix64_array(
        np.uint64(prefix) ^ (senders.astype(np.uint64) * golden)
    )
    h = _mix64_array(h ^ (receivers.astype(np.uint64) * golden))
    return _mix64_array(h ^ (codes.astype(np.uint64) * golden))


def _uniform_one(base: int, salt: int, index: int) -> float:
    """Scalar :func:`_uniforms_array` for a single message index (pure Python
    ints; bit-identical to the vectorized draw mod 2**64).  The
    asynchronous executor decides fates one in-flight message at a
    time, where a one-element numpy round trip would dominate."""
    key = (
        (base ^ (((index + 1) * GOLDEN) & MASK64))
        + ((salt * 0x2545F4914F6CDD1D) & MASK64)
    ) & MASK64
    return (_mix64_int(key) >> 11) * 2.0**-53


def _uniforms_array(
    bases: np.ndarray, salt: int, indices: np.ndarray
) -> np.ndarray:
    """Uniform [0, 1) draw per message, from the stateless hash.

    ``bases`` is each message's edge-hash base (an array, or one
    ``np.uint64`` shared by every index), so one call covers every
    (edge, kind) group of a round at once."""
    keys = (
        bases
        ^ ((indices.astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN))
    ) + np.uint64(salt * 0x2545F4914F6CDD1D & MASK64)
    return (_mix64_array(keys) >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class EdgeFaultRates:
    """Per-directed-edge override of the plan's global rates."""

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("delay", self.delay),
        ):
            if not 0.0 <= value < 1.0:
                raise FaultInjectionError(
                    f"edge {name} rate must be in [0, 1), got {value}"
                )


@dataclass(frozen=True)
class CrashWindow:
    """One node's crash interval: rounds ``[start, end)``.

    ``end=None`` models crash-stop (the node never recovers); a finite
    ``end`` models crash-recover with stable memory - on recovery the
    node resumes exactly where it stopped, but everything sent to it
    while down is gone.
    """

    node: int
    start: int
    end: int | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultInjectionError("crash node id must be >= 0")
        if self.start < 1:
            raise FaultInjectionError(
                "crash windows start at round >= 1 (round 0 has no "
                "deliveries to lose)"
            )
        if self.end is not None and self.end <= self.start:
            raise FaultInjectionError(
                f"crash window end {self.end} must exceed start {self.start}"
            )

    def covers(self, round_number: int) -> bool:
        if round_number < self.start:
            return False
        return self.end is None or round_number < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic failure schedule for one simulation.

    Attributes
    ----------
    seed:
        Hash seed of every per-message decision.  Two runs with the
        same plan see the same faults, whatever their protocol seeds.
    drop_rate, duplicate_rate, delay_rate:
        Global per-message probabilities (mutually exclusive, applied
        in that priority order).
    max_delay:
        Delayed messages slip a uniform 1..``max_delay`` rounds.
    edge_overrides:
        ``(sender, receiver) -> EdgeFaultRates`` overriding the global
        rates on specific directed edges.
    crashes:
        Crash-stop / crash-recover windows (see :class:`CrashWindow`).
    """

    seed: int = 0xD509
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    edge_overrides: Mapping[tuple[int, int], EdgeFaultRates] = field(
        default_factory=dict
    )
    crashes: tuple[CrashWindow, ...] = ()

    def __post_init__(self) -> None:
        for name, value in (
            ("drop_rate", self.drop_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("delay_rate", self.delay_rate),
        ):
            if not 0.0 <= value < 1.0:
                raise FaultInjectionError(
                    f"{name} must be in [0, 1), got {value}"
                )
        if self.max_delay < 1:
            raise FaultInjectionError("max_delay must be >= 1")
        for key, rates in self.edge_overrides.items():
            if not isinstance(rates, EdgeFaultRates):
                raise FaultInjectionError(
                    f"edge override for {key} must be an EdgeFaultRates"
                )
        for window in self.crashes:
            if not isinstance(window, CrashWindow):
                raise FaultInjectionError(
                    f"crash entry {window!r} must be a CrashWindow"
                )

    @classmethod
    def from_drop_rate(cls, rate: float, seed: int = 0xD509) -> "FaultPlan":
        """The legacy knob: uniform i.i.d. message loss, nothing else."""
        return cls(seed=seed, drop_rate=rate)

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects nothing (a no-op schedule)."""
        if self.drop_rate or self.duplicate_rate or self.delay_rate:
            return False
        if self.crashes:
            return False
        return all(
            rates.drop == rates.duplicate == rates.delay == 0.0
            for rates in self.edge_overrides.values()
        )

    def rates_for(
        self, sender: int, receiver: int
    ) -> tuple[float, float, float]:
        """Effective ``(drop, duplicate, delay)`` rates of one edge."""
        override = self.edge_overrides.get((sender, receiver))
        if override is not None:
            return (override.drop, override.duplicate, override.delay)
        return (self.drop_rate, self.duplicate_rate, self.delay_rate)

    def describe(self) -> str:
        parts = []
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}(<= {self.max_delay}r)")
        if self.edge_overrides:
            parts.append(f"{len(self.edge_overrides)} edge overrides")
        for window in self.crashes:
            end = "∞" if window.end is None else window.end
            parts.append(f"crash(v{window.node}@[{window.start},{end}))")
        return ", ".join(parts) if parts else "trivial"


@dataclass
class FaultCounters:
    """What the runtime actually injected, surfaced via RunMetrics."""

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    crash_dropped: int = 0
    crash_node_rounds: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "crash_dropped": self.crash_dropped,
            "crash_node_rounds": self.crash_node_rounds,
        }

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy for per-round delta accounting (the
        scheduler's telemetry hook diffs consecutive snapshots to
        attribute injections to rounds).  Same keys as :meth:`summary`."""
        return self.summary()


#: No delayed copies: empty ``(rows, slips, counts)`` arrays.
_NO_DELAYS = (np.zeros(0, dtype=np.int64),) * 3


def _claim_indices(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's first fate index: rows take the next ``counts[i]``
    indices of their key in row order, from zero.  One stable sort
    groups the rows by key and a segmented cumsum numbers them inside
    each group."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    ordered = counts[order]
    before = np.cumsum(ordered) - ordered
    starts = np.empty(len(order), dtype=np.int64)
    starts[order] = before - before[first][np.cumsum(first) - 1]
    return starts


class FaultRuntime:
    """Applies one :class:`FaultPlan` to one simulation run.

    Each synchronous round the scheduler reads :meth:`crashed` (the
    nodes down this round) and hands the round's in-flight traffic to
    :meth:`deliver`, which decides every message's fate in one call of
    the fate core, :meth:`_decide_rows`, and appends the traffic delayed
    into the round (delivered after the fresh traffic, in both loops).
    The asynchronous executor decides one message at a time instead
    (:meth:`async_fate`).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        self._uniform_rates = not plan.edge_overrides
        # All rates zero everywhere (crash-only or crash-free plans):
        # no per-message hash is ever evaluated during the run, so
        # fate indices are never needed and whole rounds can skip fate
        # processing outright.
        self._all_rates_zero = (
            plan.drop_rate == 0.0
            and plan.duplicate_rate == 0.0
            and plan.delay_rate == 0.0
            and all(
                rates.drop == rates.duplicate == rates.delay == 0.0
                for rates in plan.edge_overrides.values()
            )
        )
        # Asynchronous-executor fate counters: one running index per
        # (round, sender, receiver, kind) across the whole run (the
        # event loop has no per-round reset point; see async_fate).
        self._async_indices: dict[tuple[int, int, int, int], int] = {}
        # The kinds the synchronous rounds carried, numbered on first
        # sight, and their hash codes by number.
        self._kinds: dict[str, int] = {}
        self._codes = np.zeros(0, dtype=np.uint64)
        # Delayed traffic by maturity round: control messages, and each
        # bulk kind's rows as one batch per round that delayed them.
        self._delayed_messages: dict[int, list[Message]] = {}
        self._delayed_bulk: dict[int, dict[str, list[BulkKindInbox]]] = {}
        self._crash_cache: dict[int, frozenset[int]] = {}
        self._down_array_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Crash windows
    # ------------------------------------------------------------------
    def crashed(self, round_number: int) -> frozenset[int]:
        """Nodes down during ``round_number``."""
        cached = self._crash_cache.get(round_number)
        if cached is None:
            cached = frozenset(
                w.node for w in self.plan.crashes if w.covers(round_number)
            )
            self._crash_cache[round_number] = cached
        return cached

    def _down_array(self, round_number: int) -> np.ndarray:
        """The round's crashed set as a sorted int64 array (cached)."""
        cached = self._down_array_cache.get(round_number)
        if cached is None:
            cached = np.fromiter(
                sorted(self.crashed(round_number)), dtype=np.int64
            )
            self._down_array_cache[round_number] = cached
        return cached

    # ------------------------------------------------------------------
    # Asynchronous (event-driven) application
    # ------------------------------------------------------------------
    def async_fate(
        self, round_number: int, sender: int, receiver: int, kind: str
    ) -> tuple[bool, bool, int]:
        """Fate of one asynchronously transmitted message.

        Returns ``(dropped, duplicated, delay_rounds)`` - the same
        mutually exclusive outcomes, priorities, and hash family as
        :meth:`_batched_fates`, evaluated one message at a time.
        ``round_number`` is the simulated round the message belongs to
        (its synchronizer round tag; 0 for untagged control traffic such
        as acks), and the per-``(round, edge, kind)`` index
        auto-increments across the run, so every transmission -
        including each retransmission of the same payload - faces an
        independent draw.  Counters are bumped here; crash losses are
        *not* decided here (the executor applies crash windows at
        delivery time, in virtual time).
        """
        drop, dup, delay = self.plan.rates_for(sender, receiver)
        if drop == dup == delay == 0.0:
            return (False, False, 0)
        code = kind_code(kind)
        key = (round_number, sender, receiver, code)
        index = self._async_indices.get(key, 0)
        self._async_indices[key] = index + 1
        base = _edge_base(self.plan.seed, round_number, sender, receiver, code)
        if drop > 0.0 and _uniform_one(base, _SALT_DROP, index) < drop:
            self.counters.dropped += 1
            return (True, False, 0)
        if delay > 0.0 and _uniform_one(base, _SALT_DELAY, index) < delay:
            amount = (
                int(
                    _uniform_one(base, _SALT_AMOUNT, index)
                    * self.plan.max_delay
                )
                + 1
            )
            self.counters.delayed += 1
            return (False, False, amount)
        if dup > 0.0 and _uniform_one(base, _SALT_DUP, index) < dup:
            self.counters.duplicated += 1
            return (False, True, 0)
        return (False, False, 0)

    # ------------------------------------------------------------------
    # Per-round application
    # ------------------------------------------------------------------
    def _kind(self, kind: str) -> int:
        """The kind's number in this run (assigned on first sight)."""
        number = self._kinds.get(kind)
        if number is None:
            number = self._kinds[kind] = len(self._kinds)
            self._codes = np.append(self._codes, np.uint64(kind_code(kind)))
        return number

    def deliver(
        self, round_number: int, control: list[Message], bulk: BulkRound
    ) -> tuple[list[Message], BulkRound]:
        """Apply the plan to one round's in-flight traffic: the control
        messages and the drained :class:`BulkRound`.  Returns what the
        round delivers, as the control list and the replacement round.

        Every fate is decided in one :meth:`_decide_rows` call over the
        canonical order: control messages in push order, then each bulk
        kind's rows in row order.  Messages to crashed nodes are lost; a
        duplicate arrives right after its original (a bulk row gains a
        copy); a delayed message re-queues.  Traffic maturing this round
        follows the fresh traffic: messages in the order they were
        delayed, and each kind's rows after that kind's fresh rows, in
        the order their batches were delayed.  Within one batch rows are
        grouped by edge, edges in order of first appearance among the
        kind's rows, rows in row order.  Matured traffic already had
        its fate and is delivered unless its receiver is down now.

        No budget enforcement here: senders respected the CONGEST cap
        at drain time; duplication and delay are *adversary* actions,
        and their pile-ups at delivery are the adversary's, not the
        program's.
        """
        down = self.crashed(round_number)
        self.counters.crash_node_rounds += len(down)
        inboxes = bulk.inboxes
        count = len(control)
        delivered: list[Message] = []
        kept: dict[str, BulkKindInbox] = {}
        if control or inboxes:
            columns = [
                (
                    inbox.edges,
                    np.full(len(inbox.edges), self._kind(kind), np.int64),
                    inbox.multiplicity,
                )
                for kind, inbox in inboxes.items()
            ]
            if control:
                columns.insert(0, (
                    bulk.control_edges,
                    np.fromiter(
                        (self._kind(m.kind) for m in control), np.int64, count
                    ),
                    np.ones(count, dtype=np.int64),
                ))
            copies, (rows, slips, counts) = self._decide_rows(
                round_number,
                bulk.edges,
                *(np.concatenate(column) for column in zip(*columns)),
            )
            for message, copy_count in zip(control, copies[:count].tolist()):
                delivered.extend([message] * copy_count)
            split = int(np.searchsorted(rows, count))
            for row, slip in zip(rows[:split].tolist(), slips[:split].tolist()):
                self._delayed_messages.setdefault(
                    round_number + slip, []
                ).append(control[row])
            low = count
            for kind, inbox in inboxes.items():
                high = low + len(inbox.edges)
                first, last = np.searchsorted(rows, (low, high))
                if last > first:
                    self._delay_rows(
                        round_number,
                        kind,
                        inbox,
                        rows[first:last] - low,
                        slips[first:last],
                        counts[first:last],
                    )
                mine = copies[low:high]
                keep = mine > 0
                if keep.any():
                    kept[kind] = inbox.select(keep, mine[keep])
                low = high
        matured = self._delayed_messages.pop(round_number, [])
        arrived = [m for m in matured if m.receiver not in down]
        self.counters.crash_dropped += len(matured) - len(arrived)
        delivered += arrived
        for kind, batches in self._delayed_bulk.pop(round_number, {}).items():
            rows = BulkKindInbox.concat(batches)
            if down:
                lost = np.isin(
                    bulk.edges.dst[rows.edges], self._down_array(round_number)
                )
                if lost.any():
                    self.counters.crash_dropped += int(
                        rows.multiplicity[lost].sum()
                    )
                    if lost.all():
                        continue
                    rows = rows.select(~lost, rows.multiplicity[~lost])
            kept[kind] = (
                BulkKindInbox.concat([kept[kind], rows])
                if kind in kept
                else rows
            )
        return delivered, BulkRound(kept, delivered, bulk.edges)

    def _delay_rows(
        self,
        round_number: int,
        kind: str,
        inbox: BulkKindInbox,
        rows: np.ndarray,
        slips: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Queue one kind's delayed rows (``counts[i]`` copies of row
        ``rows[i]`` slip ``slips[i]`` rounds; ascending by row, then
        slip) as one batch per maturity round, grouped by edge id, edges
        in order of first appearance among the kind's live rows."""
        live = np.flatnonzero(inbox.multiplicity > 0)
        _, first, inverse = np.unique(
            inbox.edges[live], return_index=True, return_inverse=True
        )
        edge_first = np.zeros(len(inbox.edges), dtype=np.int64)
        edge_first[live] = live[first][inverse]
        order = np.argsort(edge_first[rows], kind="stable")
        rows, slips, counts = rows[order], slips[order], counts[order]
        for slip in sorted(set(slips.tolist())):
            mine = slips == slip
            self._delayed_bulk.setdefault(round_number + slip, {}).setdefault(
                kind, []
            ).append(inbox.select(rows[mine], counts[mine]))

    def _batched_fates(
        self,
        bases: np.ndarray,
        indices: np.ndarray,
        drop,
        dup,
        delay,
        have_drop: bool,
        have_dup: bool,
        have_delay: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round's fates for many (edge, kind) groups at once.

        ``bases`` carries each message's edge-hash base and ``indices``
        its canonical index; the rates are scalars (uniform plans) or
        per-message arrays (edge overrides).  Returns ``(dropped,
        duplicated, delay_rounds)`` arrays.  The outcomes are mutually
        exclusive, in priority order drop, delay, duplicate, each drawn
        from its own salted uniform; a positive ``delay_rounds[i]``
        means message ``i`` is removed now and re-delivered that many
        rounds later.  A rate whose ``have_*`` flag is off is never
        drawn, and a zero rate inside a per-message array compares its
        uniforms against 0.0, so it never fires either.
        """
        count = len(indices)
        if have_drop:
            dropped = _uniforms_array(bases, _SALT_DROP, indices) < drop
        else:
            dropped = np.zeros(count, dtype=bool)
        survivors = ~dropped
        delay_rounds = np.zeros(count, dtype=np.int64)
        if have_delay:
            slipped = (
                _uniforms_array(bases, _SALT_DELAY, indices) < delay
            ) & survivors
            if slipped.any():
                amounts = (
                    _uniforms_array(bases, _SALT_AMOUNT, indices)
                    * self.plan.max_delay
                ).astype(np.int64) + 1
                delay_rounds[slipped] = amounts[slipped]
                survivors &= ~slipped
        if have_dup:
            duplicated = (
                _uniforms_array(bases, _SALT_DUP, indices) < dup
            ) & survivors
        else:
            duplicated = np.zeros(count, dtype=bool)
        return dropped, duplicated, delay_rounds

    def _decide_rows(
        self,
        round_number: int,
        edges: "EdgeIndex",
        ids: np.ndarray,
        kinds: np.ndarray,
        multiplicity: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The round's fates for its rows, in canonical order.

        Row ``i`` stands for ``multiplicity[i]`` identical messages of
        the kind numbered ``kinds[i]`` (see :meth:`_kind`) on the edge
        ``ids[i]`` of ``edges``.  Rows to crashed receivers are lost
        whole.  Every other row takes the next ``multiplicity[i]``
        consecutive indices of its (edge id, kind), in row order from
        zero - exactly the positions the per-message loop assigns to the
        same traffic - and one batched hash of each row's sender,
        receiver and kind code decides every message.

        Returns each row's delivered copies (0 removes the row; a
        duplicated message adds one) and the delayed copies as arrays
        ``(rows, slips, counts)``, ascending by row then slip.  The
        caller re-queues the delayed copies; the counters are bumped
        here.
        """
        copies = multiplicity.astype(np.int64, copy=True)
        if self.crashed(round_number):
            lost = np.isin(edges.dst[ids], self._down_array(round_number))
            if lost.any():
                self.counters.crash_dropped += int(copies[lost].sum())
                copies[lost] = 0
        if self._all_rates_zero:
            # Crash-only plan: no per-message hash is ever evaluated, so
            # no fate index is needed; the crash loss above is the
            # plan's whole effect.
            return copies, _NO_DELAYS
        rows = np.flatnonzero(copies)
        if not len(rows):
            return copies, _NO_DELAYS
        row_counts = copies[rows]
        row_ids = ids[rows]
        row_senders = edges.src[row_ids]
        row_receivers = edges.dst[row_ids]
        if self._uniform_rates:
            drop = self.plan.drop_rate
            dup = self.plan.duplicate_rate
            delay = self.plan.delay_rate
            have_drop, have_dup, have_delay = drop > 0.0, dup > 0.0, delay > 0.0
        else:
            row_rates = np.array(
                [
                    self.plan.rates_for(s, r)
                    for s, r in zip(
                        row_senders.tolist(), row_receivers.tolist()
                    )
                ],
                dtype=np.float64,
            )
            have_drop, have_dup, have_delay = row_rates.any(axis=0).tolist()
        if not (have_drop or have_dup or have_delay):
            return copies, _NO_DELAYS
        # One entry per message: row j covers messages ``bounds[j] ..
        # bounds[j + 1] - 1``, at consecutive indices from its start.
        bounds = np.cumsum(row_counts) - row_counts
        row_kinds = kinds[rows]
        starts = _claim_indices(
            row_ids * len(self._kinds) + row_kinds, row_counts
        )
        message_index = np.arange(int(row_counts.sum())) + np.repeat(
            starts - bounds, row_counts
        )
        bases = np.repeat(
            _edge_base_array(
                self.plan.seed, round_number, row_senders, row_receivers,
                self._codes[row_kinds],
            ),
            row_counts,
        )
        if not self._uniform_rates:
            drop, dup, delay = np.repeat(row_rates, row_counts, axis=0).T
        dropped, duplicated, delay_rounds = self._batched_fates(
            bases, message_index, drop, dup, delay,
            have_drop, have_dup, have_delay,
        )
        slipped = delay_rounds > 0
        copies[rows] = (
            row_counts
            + np.add.reduceat(duplicated.astype(np.int64), bounds)
            - np.add.reduceat((dropped | slipped).astype(np.int64), bounds)
        )
        self.counters.dropped += int(np.count_nonzero(dropped))
        self.counters.duplicated += int(np.count_nonzero(duplicated))
        if not slipped.any():
            return copies, _NO_DELAYS
        self.counters.delayed += int(np.count_nonzero(slipped))
        span = self.plan.max_delay + 1
        pairs, counts = np.unique(
            np.repeat(rows, row_counts)[slipped] * span
            + delay_rounds[slipped],
            return_counts=True,
        )
        return copies, (pairs // span, pairs % span, counts)

    @property
    def has_pending_delayed(self) -> bool:
        """True while delayed traffic is still waiting to mature (the
        scheduler must not declare global termination before then)."""
        return bool(self._delayed_messages) or bool(self._delayed_bulk)

    def latest_crash_end(self) -> int | None:
        """Last round any crash window covers (None = a crash-stop
        window never ends)."""
        latest = 0
        for window in self.plan.crashes:
            if window.end is None:
                return None
            latest = max(latest, window.end)
        return latest
