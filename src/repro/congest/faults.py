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
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.congest.errors import FaultInjectionError
from repro.congest.message import Message

if TYPE_CHECKING:  # pragma: no cover
    pass

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
       (fast path only) :meth:`filter_bulk` per bulk kind - index
       counters carry across the two calls, fixing the canonical
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
        self._indices: dict[tuple[int, int, int], int] = {}
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
        :meth:`_fates`, evaluated one message at a time.  ``round_number``
        is the simulated round the message belongs to (its synchronizer
        round tag; 0 for untagged control traffic such as acks), and the
        per-``(round, edge, kind)`` index auto-increments across the
        run, so every transmission - including each retransmission of
        the same payload - faces an independent draw.  Counters are
        bumped here; crash losses are *not* decided here (the executor
        applies crash windows at delivery time, in virtual time).
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

    def _fates(
        self,
        sender: int,
        receiver: int,
        kind: str,
        count: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide ``count`` consecutive messages of one (edge, kind).

        Returns ``(dropped, duplicated, delay_rounds)`` arrays; a
        positive ``delay_rounds[i]`` means message ``i`` is removed now
        and re-delivered that many rounds later.  Advances the edge's
        index counter, so control and bulk calls compose.
        """
        code = kind_code(kind)
        key = (sender, receiver, code)
        start = self._indices.get(key, 0)
        self._indices[key] = start + count
        drop, dup, delay = self.plan.rates_for(sender, receiver)
        indices = np.arange(start, start + count, dtype=np.int64)
        dropped = np.zeros(count, dtype=bool)
        duplicated = np.zeros(count, dtype=bool)
        delay_rounds = np.zeros(count, dtype=np.int64)
        if drop == dup == delay == 0.0:
            return dropped, duplicated, delay_rounds
        base = np.uint64(
            _edge_base(self.plan.seed, self._round, sender, receiver, code)
        )
        if drop > 0.0:
            dropped = _uniforms_array(base, _SALT_DROP, indices) < drop
        survivors = ~dropped
        if delay > 0.0:
            slipped = (
                _uniforms_array(base, _SALT_DELAY, indices) < delay
            ) & survivors
            if slipped.any():
                amounts = (
                    _uniforms_array(base, _SALT_AMOUNT, indices)
                    * self.plan.max_delay
                ).astype(np.int64) + 1
                delay_rounds[slipped] = amounts[slipped]
                survivors &= ~slipped
        if dup > 0.0:
            duplicated = (
                _uniforms_array(base, _SALT_DUP, indices) < dup
            ) & survivors
        return dropped, duplicated, delay_rounds

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
        per-message arrays (edge overrides).  Message for message this
        evaluates exactly the draws a per-group :meth:`_fates` call
        would - a zero rate compares every uniform against 0.0, which is
        the same ``False`` the per-group path gets without drawing.
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

    def filter_messages(
        self, round_number: int, messages: list[Message]
    ) -> list[Message]:
        """Apply the plan to one round's materialized messages.

        Call :meth:`begin_round` first.  Messages to crashed nodes are
        lost; the rest face the drop/delay/duplicate hash.  Duplicates
        are delivered immediately after their original.
        """
        if not messages:
            return []
        down = self.crashed(round_number)
        if down:
            live: list[Message] = []
            for message in messages:
                if message.receiver in down:
                    self.counters.crash_dropped += 1
                else:
                    live.append(message)
        else:
            live = messages
        if not live:
            return []
        if self._all_rates_zero:
            # Crash-only plan: nothing left to decide, and no counter
            # to advance (no hash is ever evaluated under zero rates).
            return list(live)
        # One pass assigns every message its canonical index within its
        # (edge, kind) group - composing with the per-edge counters -
        # then a single batched hash decides the whole round.
        count = len(live)
        senders = np.empty(count, dtype=np.int64)
        receivers = np.empty(count, dtype=np.int64)
        codes = np.empty(count, dtype=np.uint64)
        indices = np.empty(count, dtype=np.int64)
        next_index: dict[tuple[int, int, int], int] = {}
        edge_counters = self._indices
        for position, message in enumerate(live):
            sender = message.sender
            receiver = message.receiver
            code = kind_code(message.kind)
            senders[position] = sender
            receivers[position] = receiver
            codes[position] = code
            key = (sender, receiver, code)
            index = next_index.get(key)
            if index is None:
                index = edge_counters.get(key, 0)
            indices[position] = index
            next_index[key] = index + 1
        edge_counters.update(next_index)
        if self._uniform_rates:
            drop = self.plan.drop_rate
            dup = self.plan.duplicate_rate
            delay = self.plan.delay_rate
            have_drop, have_dup, have_delay = (
                drop > 0.0, dup > 0.0, delay > 0.0
            )
        else:
            drop = np.empty(count, dtype=np.float64)
            dup = np.empty(count, dtype=np.float64)
            delay = np.empty(count, dtype=np.float64)
            rate_cache: dict[tuple[int, int], tuple] = {}
            for position, message in enumerate(live):
                edge = (message.sender, message.receiver)
                rates = rate_cache.get(edge)
                if rates is None:
                    rates = self.plan.rates_for(*edge)
                    rate_cache[edge] = rates
                drop[position], dup[position], delay[position] = rates
            have_drop = bool(drop.any())
            have_dup = bool(dup.any())
            have_delay = bool(delay.any())
        bases = _edge_base_array(
            self.plan.seed, self._round, senders, receivers, codes
        )
        dropped, duplicated, delay_rounds = self._batched_fates(
            bases, indices, drop, dup, delay,
            have_drop, have_dup, have_delay,
        )
        dropped_list = dropped.tolist()
        duplicated_list = duplicated.tolist()
        slips = delay_rounds.tolist()
        delivered: list[Message] = []
        append = delivered.append
        delayed = self._delayed_messages
        n_dropped = n_duplicated = n_delayed = 0
        for position, message in enumerate(live):
            if dropped_list[position]:
                n_dropped += 1
                continue
            slip = slips[position]
            if slip:
                n_delayed += 1
                delayed.setdefault(round_number + slip, []).append(message)
                continue
            append(message)
            if duplicated_list[position]:
                n_duplicated += 1
                append(message)
        self.counters.dropped += n_dropped
        self.counters.duplicated += n_duplicated
        self.counters.delayed += n_delayed
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
        """
        down = self.crashed(round_number)
        new_mult = multiplicity.astype(np.int64, copy=True)
        if down:
            lost = np.isin(receivers, self._down_array(round_number))
            if lost.any():
                self.counters.crash_dropped += int(new_mult[lost].sum())
                new_mult[lost] = 0
        if self._all_rates_zero:
            # Quiescent round of a crash-only plan: with zero rates
            # everywhere no per-message hash is ever evaluated, so the
            # per-edge fate index counters are never read and advancing
            # them is a no-op (they reset each round anyway); the crash
            # zeroing above is the plan's entire effect on bulk rows.
            return new_mult
        active = new_mult > 0
        if not active.any():
            return new_mult
        # Group the active rows by directed edge, edges ordered by first
        # appearance in row order and rows kept in row order within each
        # edge - the exact iteration order of the per-row dict walk this
        # replaces, which the delayed-row re-queue order depends on.
        rows = np.nonzero(active)[0]
        row_senders = senders[rows].astype(np.int64, copy=False)
        row_receivers = receivers[rows].astype(np.int64, copy=False)
        edge_keys = (row_senders << np.int64(32)) | row_receivers
        unique_keys, first_pos, inverse = np.unique(
            edge_keys, return_index=True, return_inverse=True
        )
        n_edges = len(unique_keys)
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(n_edges, dtype=np.int64)
        rank[appearance] = np.arange(n_edges, dtype=np.int64)
        row_rank = rank[inverse]
        order = np.argsort(row_rank, kind="stable")
        grouped_rows = rows[order]
        grouped_counts = new_mult[grouped_rows]
        edge_senders = row_senders[first_pos[appearance]]
        edge_receivers = row_receivers[first_pos[appearance]]
        edge_sizes = np.bincount(row_rank, minlength=n_edges)
        edge_row_starts = np.empty(n_edges, dtype=np.int64)
        edge_row_starts[0] = 0
        np.cumsum(edge_sizes[:-1], out=edge_row_starts[1:])
        edge_totals = np.add.reduceat(grouped_counts, edge_row_starts)
        code = kind_code(kind)
        # Advance each edge's fate counter (composing with this round's
        # control traffic of the same kind, which was filtered first).
        starts = np.empty(n_edges, dtype=np.int64)
        edge_counters = self._indices
        senders_list = edge_senders.tolist()
        receivers_list = edge_receivers.tolist()
        for j, total in enumerate(edge_totals.tolist()):
            key = (senders_list[j], receivers_list[j], code)
            start = edge_counters.get(key, 0)
            starts[j] = start
            edge_counters[key] = start + total
        if self._uniform_rates:
            drop = self.plan.drop_rate
            dup = self.plan.duplicate_rate
            delay = self.plan.delay_rate
            have_drop, have_dup, have_delay = (
                drop > 0.0, dup > 0.0, delay > 0.0
            )
            drop_pm = drop
            dup_pm = dup
            delay_pm = delay
        else:
            edge_drop = np.empty(n_edges, dtype=np.float64)
            edge_dup = np.empty(n_edges, dtype=np.float64)
            edge_delay = np.empty(n_edges, dtype=np.float64)
            for j in range(n_edges):
                edge_drop[j], edge_dup[j], edge_delay[j] = (
                    self.plan.rates_for(senders_list[j], receivers_list[j])
                )
            have_drop = bool(edge_drop.any())
            have_dup = bool(edge_dup.any())
            have_delay = bool(edge_delay.any())
        if not (have_drop or have_dup or have_delay):
            return new_mult
        # Expand to one entry per message: each row i contributes
        # ``grouped_counts[i]`` consecutive indices of its edge.
        message_row = np.repeat(
            np.arange(len(grouped_rows), dtype=np.int64), grouped_counts
        )
        row_bounds = np.empty(len(grouped_rows) + 1, dtype=np.int64)
        row_bounds[0] = 0
        np.cumsum(grouped_counts, out=row_bounds[1:])
        total_messages = int(row_bounds[-1])
        message_edge = np.repeat(
            np.arange(n_edges, dtype=np.int64), edge_totals
        )
        edge_offsets = np.empty(n_edges, dtype=np.int64)
        edge_offsets[0] = 0
        np.cumsum(edge_totals[:-1], out=edge_offsets[1:])
        message_index = (
            np.arange(total_messages, dtype=np.int64)
            - edge_offsets[message_edge]
            + starts[message_edge]
        )
        edge_bases = _edge_base_array(
            self.plan.seed, self._round, edge_senders, edge_receivers,
            np.full(n_edges, code, dtype=np.uint64),
        )
        bases = edge_bases[message_edge]
        if not self._uniform_rates:
            drop_pm = edge_drop[message_edge]
            dup_pm = edge_dup[message_edge]
            delay_pm = edge_delay[message_edge]
        dropped, duplicated, delay_rounds = self._batched_fates(
            bases, message_index, drop_pm, dup_pm, delay_pm,
            have_drop, have_dup, have_delay,
        )
        slipped = delay_rounds > 0
        starts_of_rows = row_bounds[:-1]
        dropped_per_row = np.add.reduceat(
            dropped.astype(np.int64), starts_of_rows
        )
        duplicated_per_row = np.add.reduceat(
            duplicated.astype(np.int64), starts_of_rows
        )
        slipped_per_row = np.add.reduceat(
            slipped.astype(np.int64), starts_of_rows
        )
        new_mult[grouped_rows] = (
            grouped_counts
            - dropped_per_row
            - slipped_per_row
            + duplicated_per_row
        )
        self.counters.dropped += int(dropped_per_row.sum())
        self.counters.duplicated += int(duplicated_per_row.sum())
        n_slipped = int(slipped_per_row.sum())
        if n_slipped:
            self.counters.delayed += n_slipped
            # Re-queue delayed copies grouped as (row, slip) pairs; the
            # ascending composite key reproduces the per-row walk's
            # append order (edges by first appearance, rows in row
            # order, slips ascending within a row).
            span = self.plan.max_delay + 1
            slip_keys = (
                message_row[slipped] * span + delay_rounds[slipped]
            )
            pair_keys, pair_counts = np.unique(
                slip_keys, return_counts=True
            )
            delayed = self._delayed_bulk
            for pair, count in zip(
                pair_keys.tolist(), pair_counts.tolist()
            ):
                row = int(grouped_rows[pair // span])
                slip = pair % span
                delayed.setdefault(round_number + slip, {}).setdefault(
                    kind, []
                ).append(
                    (
                        int(senders[row]),
                        int(receivers[row]),
                        tuple(int(x) for x in fields[row]),
                        count,
                    )
                )
        return new_mult

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
