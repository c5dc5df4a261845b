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
edge and kind, counted in canonical delivery order (control messages in
outbox push order first, then aggregate bulk rows in row order).  There
is no sequential RNG stream to keep aligned, so the per-message loop
and the vectorized fast path - which materialize the very same traffic
in different containers - reach *identical* decisions, and a plan's
schedule is independent of the protocol seed (one fault schedule can be
replayed against many protocol seeds).

:class:`FaultRuntime` is the per-run applicator: the scheduler creates
one per simulation and funnels each round's in-flight traffic through
it on both execution paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.congest.errors import FaultInjectionError
from repro.congest.message import Message

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
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


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer for 1-d uint64 arrays.
    Elementwise ufuncs on arrays wrap silently (only numpy *scalar*
    arithmetic warns on overflow), so no ``errstate`` guard is needed."""
    z = values + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix64_int(value: int) -> int:
    """Scalar splitmix64 finalizer in pure Python ints (identical to
    :func:`_mix64_array` mod 2**64, without numpy scalar overhead)."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _edge_base(
    seed: int, round_number: int, sender: int, receiver: int, code: int
) -> int:
    """Scalar hash chain shared by every message of one (edge, kind)."""
    h = seed & _MASK64
    for part in (round_number, sender, receiver, code):
        h = _mix64_int(h ^ ((part * _GOLDEN) & _MASK64))
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
    prefix = _mix64_int((seed & _MASK64) ^ ((round_number * _GOLDEN) & _MASK64))
    golden = np.uint64(_GOLDEN)
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
        (base ^ (((index + 1) * _GOLDEN) & _MASK64))
        + ((salt * 0x2545F4914F6CDD1D) & _MASK64)
    ) & _MASK64
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
        ^ ((indices.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN))
    ) + np.uint64(salt * 0x2545F4914F6CDD1D & _MASK64)
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


#: One delayed bulk row awaiting maturity: (sender, receiver, fields, count).
_DelayedRow = tuple[int, int, tuple[int, ...], int]


class FaultRuntime:
    """Applies one :class:`FaultPlan` to one simulation run.

    The scheduler calls, in order, once per round:

    1. :meth:`crashed` - the nodes down this round;
    2. :meth:`begin_round` - reset the per-(edge, kind) index counters;
    3. :meth:`filter_messages` on the round's control messages, then
       (fast path only) :meth:`filter_bulk` per bulk kind.  Both are
       thin wrappers of one fate core, :meth:`_decide_rows`, whose
       index counters carry across the calls, fixing the canonical
       control-then-bulk order;
    4. :meth:`take_delayed` - traffic delayed in earlier rounds that
       matures now (delivered after the fresh traffic, in both loops).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        self._uniform_rates = not plan.edge_overrides
        # All rates zero everywhere (crash-only or crash-free plans):
        # no per-message hash is ever evaluated during the run, so the
        # per-edge fate index counters are never read and whole rounds
        # can skip fate processing outright.
        self._all_rates_zero = (
            plan.drop_rate == 0.0
            and plan.duplicate_rate == 0.0
            and plan.delay_rate == 0.0
            and all(
                rates.drop == rates.duplicate == rates.delay == 0.0
                for rates in plan.edge_overrides.values()
            )
        )
        # This round's next fate index per (sender, receiver) key, per
        # kind code, as (senders, receivers, next indices); see
        # _claim_indices.
        self._indices: dict[int, tuple[np.ndarray, ...]] = {}
        # Asynchronous-executor fate counters: one running index per
        # (round, sender, receiver, kind) across the whole run (the
        # event loop has no per-round reset point; see async_fate).
        self._async_indices: dict[tuple[int, int, int, int], int] = {}
        self._delayed_messages: dict[int, list[Message]] = {}
        self._delayed_bulk: dict[int, dict[str, list[_DelayedRow]]] = {}
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

    def note_crash_rounds(self, count: int) -> None:
        """Scheduler hook: ``count`` node-rounds were lost to crashes."""
        self.counters.crash_node_rounds += count

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
    def begin_round(self, round_number: int) -> None:
        self._indices = {}
        self._round = round_number

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
        senders: np.ndarray,
        receivers: np.ndarray,
        codes: np.ndarray,
        multiplicity: np.ndarray,
    ) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """The round's fates for a batch of rows, in canonical order.

        Row ``i`` stands for ``multiplicity[i]`` identical messages of
        kind code ``codes[i]`` on edge ``(senders[i], receivers[i])``.
        Rows to crashed receivers are lost whole.  Every other row takes
        the next ``multiplicity[i]`` consecutive indices of its (edge,
        kind), in row order, continuing the counters of earlier calls
        this round - exactly the positions the per-message loop assigns
        to the same traffic - and one batched hash decides every message.

        Returns each row's delivered copies (0 removes the row; a
        duplicated message adds one) and the delayed ``(row, slip,
        count)`` triples, ascending by row then slip.  The caller
        re-queues the delayed copies; the counters are bumped here.
        """
        copies = multiplicity.astype(np.int64, copy=True)
        if self.crashed(round_number):
            lost = np.isin(receivers, self._down_array(round_number))
            if lost.any():
                self.counters.crash_dropped += int(copies[lost].sum())
                copies[lost] = 0
        if self._all_rates_zero:
            # Crash-only plan: no per-message hash is ever evaluated, so
            # the per-(edge, kind) index counters are never read and need
            # not advance; the crash loss above is the plan's whole effect.
            return copies, []
        rows = np.flatnonzero(copies)
        if not len(rows):
            return copies, []
        row_counts = copies[rows]
        row_senders = senders[rows]
        row_receivers = receivers[rows]
        row_codes = codes[rows]
        starts = self._claim_indices(
            row_senders, row_receivers, row_codes, row_counts
        )
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
            return copies, []
        # One entry per message: row j covers messages ``bounds[j] ..
        # bounds[j + 1] - 1``, at consecutive indices from its start.
        bounds = np.cumsum(row_counts) - row_counts
        message_index = np.arange(int(row_counts.sum())) + np.repeat(
            starts - bounds, row_counts
        )
        bases = np.repeat(
            _edge_base_array(
                self.plan.seed, self._round, row_senders, row_receivers,
                row_codes,
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
            return copies, []
        self.counters.delayed += int(np.count_nonzero(slipped))
        span = self.plan.max_delay + 1
        pairs, pair_counts = np.unique(
            np.repeat(rows, row_counts)[slipped] * span
            + delay_rounds[slipped],
            return_counts=True,
        )
        delayed = [
            (pair // span, pair % span, count)
            for pair, count in zip(pairs.tolist(), pair_counts.tolist())
        ]
        return copies, delayed

    def _claim_indices(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        codes: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Each row's first fate index: rows take the next ``counts[i]``
        indices of their ``(sender, receiver, code)`` key in row order,
        continuing this round's counters.  One stable sort groups the
        rows by key and a segmented cumsum numbers them inside each
        group; the counters are kept per code as the keys' arrays, and
        a code seen earlier in the round is looked up once per key."""
        order = np.lexsort((receivers, senders, codes))
        keys = (codes[order], senders[order], receivers[order])
        first = np.zeros(len(order), dtype=bool)
        for column in keys:
            first[1:] |= column[1:] != column[:-1]
        first[0] = True
        firsts = np.flatnonzero(first)
        ordered = counts[order]
        before = np.cumsum(ordered) - ordered
        group_codes, group_senders, group_receivers = (
            column[firsts] for column in keys
        )
        ends = np.add.reduceat(ordered, firsts)
        bases = np.zeros(len(firsts), dtype=np.int64)
        code_starts = np.flatnonzero(
            np.append(True, group_codes[1:] != group_codes[:-1])
        )
        for lo, hi in zip(code_starts, [*code_starts[1:], len(firsts)]):
            code, mine = int(group_codes[lo]), slice(lo, hi)
            held = self._indices.get(code)
            pairs = (group_senders[mine], group_receivers[mine])
            if held is not None:
                # The code came earlier this round: carry its counters.
                counters = dict(
                    zip(zip(*(c.tolist() for c in held[:2])), held[2].tolist())
                )
                edges = list(zip(*(c.tolist() for c in pairs)))
                bases[mine] = [counters.get(edge, 0) for edge in edges]
                ends[mine] += bases[mine]
                counters.update(zip(edges, ends[mine].tolist()))
                held = tuple(
                    np.array(column)
                    for column in zip(
                        *((*edge, end) for edge, end in counters.items())
                    )
                )
            else:
                held = (*pairs, ends[mine])
            self._indices[code] = held
        starts = np.empty(len(order), dtype=np.int64)
        starts[order] = (bases - before[firsts])[np.cumsum(first) - 1] + before
        return starts

    def filter_messages(
        self, round_number: int, messages: list[Message]
    ) -> list[Message]:
        """Apply the plan to one round's materialized messages.

        Call :meth:`begin_round` first.  Messages to crashed nodes are
        lost; the rest face the drop/delay/duplicate hash.  Duplicates
        are delivered immediately after their original, and delayed
        messages re-queue in message order.
        """
        if not messages:
            return []
        count = len(messages)
        copies, delayed = self._decide_rows(
            round_number,
            np.fromiter((m.sender for m in messages), np.int64, count),
            np.fromiter((m.receiver for m in messages), np.int64, count),
            np.fromiter(
                (kind_code(m.kind) for m in messages), np.uint64, count
            ),
            np.ones(count, dtype=np.int64),
        )
        delivered: list[Message] = []
        append = delivered.append
        for message, n in zip(messages, copies.tolist()):
            if n:
                append(message)
                if n == 2:
                    append(message)
        for row, slip, _ in delayed:
            self._delayed_messages.setdefault(
                round_number + slip, []
            ).append(messages[row])
        return delivered

    def filter_bulk(
        self,
        round_number: int,
        kind: str,
        senders: np.ndarray,
        receivers: np.ndarray,
        fields: np.ndarray,
        multiplicity: np.ndarray,
    ) -> np.ndarray:
        """Apply the plan to one kind's aggregate rows; returns the new
        per-row multiplicities (0 removes the row).

        Each row stands for ``multiplicity[i]`` identical messages,
        occupying consecutive indices in its edge's canonical order -
        exactly the positions the per-message loop assigns to the same
        traffic - so decisions agree bit-for-bit across the loops.
        Delayed copies re-queue grouped by edge, edges in order of first
        appearance, rows in row order and slips ascending within a row.
        """
        copies, delayed = self._decide_rows(
            round_number,
            senders,
            receivers,
            np.full(len(senders), kind_code(kind), dtype=np.uint64),
            multiplicity,
        )
        if delayed:
            live = np.flatnonzero(multiplicity > 0)
            edge_keys = (senders[live].astype(np.int64) << np.int64(32)) | (
                receivers[live]
            )
            _, first, inverse = np.unique(
                edge_keys, return_index=True, return_inverse=True
            )
            edge_first = np.zeros(len(senders), dtype=np.int64)
            edge_first[live] = live[first][inverse]
            edge_first_list = edge_first.tolist()
            delayed.sort(key=lambda triple: edge_first_list[triple[0]])
            queued = self._delayed_bulk
            for row, slip, count in delayed:
                queued.setdefault(round_number + slip, {}).setdefault(
                    kind, []
                ).append(
                    (
                        int(senders[row]),
                        int(receivers[row]),
                        tuple(int(x) for x in fields[row]),
                        count,
                    )
                )
        return copies

    def take_delayed(
        self, round_number: int
    ) -> tuple[list[Message], dict[str, list[_DelayedRow]]]:
        """Matured delayed traffic for this round.

        Delayed messages are delivered unconditionally (they already
        had their one fault) - unless their receiver is down *now*, in
        which case they are lost to the crash.
        """
        messages = self._delayed_messages.pop(round_number, [])
        bulk = self._delayed_bulk.pop(round_number, {})
        down = self.crashed(round_number)
        if down:
            kept_messages = []
            for message in messages:
                if message.receiver in down:
                    self.counters.crash_dropped += 1
                else:
                    kept_messages.append(message)
            messages = kept_messages
            kept_bulk: dict[str, list[_DelayedRow]] = {}
            for kind, rows in bulk.items():
                kept_rows = []
                for sender, receiver, fields, count in rows:
                    if receiver in down:
                        self.counters.crash_dropped += count
                    else:
                        kept_rows.append((sender, receiver, fields, count))
                if kept_rows:
                    kept_bulk[kind] = kept_rows
            bulk = kept_bulk
        return messages, bulk

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
