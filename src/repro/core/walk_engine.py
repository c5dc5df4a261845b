"""Network-wide walk engine: the counting phase as one batched kernel.

On the scheduler's fast path, every node's :class:`RWBCNodeProgram`
registers its :class:`~repro.core.walk_manager.WalkManager` with one
shared :class:`CountingWalkEngine` (a fast-path *driver*, see
:class:`~repro.congest.node.SharedFastPathState`).  The engine claims
the walk message kinds, so each round the scheduler hands it the entire
network's in-flight walk traffic as four flat arrays; the engine then
runs the whole round - visit counting, absorption/expiry/thinning,
next-hop sampling, per-edge budgeted emission, and the death-counter
convergecast sends - with one pass of vectorized kernels instead of
``n`` per-node calls.  Both bookends of the phase are network-wide too:
the engine launches every node's walks (Algorithm 1 line 3) in one
routing pass, and on fault-free runs it also claims the ``term`` kind
and runs the death-count convergecast as arrays, so nodes are stepped
only for the ``done`` wave.

One kernel, two slices.  The counting round's rule lives once, in this
module's functions, and both scheduler loops run it:

* :func:`~repro.walks.batched.aggregate_network_groups` canonicalizes
  the arrivals, :func:`counting_round_kernel` thins or absorbs, tallies,
  expires and routes them (through :func:`route_entries`, which the
  launch uses too, with the groups of :func:`launch_groups`), the routed
  groups join the tails of per-edge FIFO queues (:class:`EdgeQueues`),
  and :meth:`EdgeQueues.take` decides which tokens each edge sends.
  The engine runs them over the whole network; each per-message
  :class:`~repro.core.walk_manager.WalkManager` runs them on its
  one-node slice (node 0, its ports as edge ids, its count slab as a
  one-node tensor);
* randomness stays attributed: each node's segment is thinned and
  routed from *that node's own generator*, through a
  :class:`~repro.walks.streams.PortStreams` that reads each stream
  ahead (damped mode reads nothing ahead, because the binomial thinning
  shares the generator).  Per-node streams are independent, so serving
  many nodes in one pass consumes what serving them one by one would;
* routing emits its rows edge-major, each edge's in canonical group
  order, and they join that edge's queue at the tail; emission reads
  only each queue's head - at most ``budget`` rows per edge - so which
  token moves when under the bandwidth budget is the same on either
  slice, and a round costs the tokens it moves, not the backlog;
* emission ships the same per-message fields the per-message path
  sends.  On fault-free runs the engine prices them from tables built
  once (:func:`walk_bit_tables`) and pushes them tagged with their
  edge ids (:meth:`BulkOutbox.push_priced`), as it does the
  convergecast's ``term`` rows, chosen by the same
  :func:`~repro.core.termination.report_due` rule each per-node counter
  applies; the drain then sums each edge's load by id.  Faulty and
  reliable runs ship through :meth:`BulkOutbox.push_rows`.  Either way
  the bits and counts charged are those of the materialized messages.

What the slices do not share is how traffic moves: the per-message
loop materializes :class:`~repro.congest.message.Message` objects (for
the message log, the CONGEST audit and the asynchronous executor), and
the engine ships aggregate rows.  The tested guarantee
(``tests/test_walks_batched.py``, ``tests/test_counting_bookends.py``):
same seed in, identical tallies, estimates, round counts, and traffic
accounting out.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import TAG_BITS, Message, int_bits_array
from repro.obs.spans import NULL_PROFILER
from repro.core.termination import KIND_TERM, DeathCounterLogic, report_due
from repro.walks.batched import aggregate_network_groups
from repro.walks.streams import DEFAULT_READ_AHEAD, PortStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex, NodeProgram, RoundContext
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.walk_manager import WalkManager

KIND_WALK = "walk"
KIND_WALK_BATCH = "walkb"

#: Claimed traffic of one kind: (senders, receivers, fields, multiplicity).
ClaimedKind = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.zeros(0, dtype=np.int64)


def count_dtype(walks_per_source: int, length: int) -> type[np.integer]:
    """The visit counters' cell type.  A walk makes at most ``l + 1``
    visits, so no cell ``xi_v[s]`` (one half, or both summed) exceeds
    ``K * (l + 1)``: ``uint32`` holds it below ``2**32``, ``int64``
    past that."""
    if walks_per_source * (length + 1) < 1 << 32:
        return np.uint32
    return np.int64


class TransportPolicy(enum.Enum):
    """How queued walk tokens map onto messages."""

    QUEUE = "queue"
    BATCH = "batch"


def launch_groups(
    walks_per_source: int, split_sampling: bool
) -> tuple[np.ndarray, np.ndarray]:
    """A launching node's token groups, as ``(halves, counts)``: its
    ``K`` walks as one half-0 group, or in split mode a half-0 group
    then a half-1 group.  The order is part of the random-stream
    contract: routing draws the groups' ports in this order."""
    if split_sampling:
        halves = np.array([0, 1], dtype=np.int64)
        counts = np.array(
            [(walks_per_source + 1) // 2, walks_per_source // 2],
            dtype=np.int64,
        )
    else:
        halves = np.zeros(1, dtype=np.int64)
        counts = np.array([walks_per_source], dtype=np.int64)
    return halves, counts


def counting_round_kernel(
    nodes: np.ndarray,
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
    rngs,
    alpha: float | None,
    absorbing_target: int,
    count_tensor: np.ndarray,
    degrees: np.ndarray,
    offsets: np.ndarray,
    max_degree: int,
    seq_start: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One round of Algorithm 1 lines 7-15 over a canonical group array.

    The node-local half of the counting round: thin (damped mode) or
    absorb (absorbing mode), tally visits into ``count_tensor``, expire
    zero-remaining tokens, and sample next hops into queue rows.
    ``rngs`` is the run's
    :class:`~repro.walks.streams.PortStreams`: ``rngs[node]`` is the
    node's generator (damped thinning draws from it) and
    ``rngs.ports`` serves every node's next hops in one pass, from the
    same raw per-node streams, read ahead.  The kernel is a pure
    function of its inputs plus those per-node streams.

    ``nodes`` must be sorted ascending (the canonical order from
    :func:`~repro.walks.batched.aggregate_network_groups`).  ``degrees``
    and ``max_degree`` go unread (the streams carry the degrees they map
    with, and routing counts by sorting); they stay in the parameter
    list because the benchmark's layer probe (``bench/probes.py``) wraps
    this function by its exact signature.  Returns
    ``(entries, death_nodes, death_counts, next_seq)``: queue rows
    ``(edge id, seq, source, remaining_here, half, count)`` in
    :func:`route_entries` order, the
    death deltas to fold into the convergecast (unaggregated pairs; the
    caller ``np.add.at``s them), and the advanced sequence counter.
    """
    death_node_parts: list[np.ndarray] = []
    death_count_parts: list[np.ndarray] = []
    if alpha is not None:
        # Damped mode: per node, one binomial over its canonical
        # segment, drawn from the node's own generator.
        starts, ends = _segments(nodes)
        survivors = np.empty_like(counts)
        for i in range(len(starts)):
            a, b = starts[i], ends[i]
            survivors[a:b] = rngs[int(nodes[a])].binomial(
                counts[a:b], alpha
            )
        death_node_parts.append(nodes)
        death_count_parts.append(counts - survivors)
        alive = survivors > 0
        if not alive.all():
            nodes = nodes[alive]
            sources = sources[alive]
            remainings = remainings[alive]
            halves = halves[alive]
            counts = survivors[alive]
        else:
            counts = survivors
    else:
        # Absorbing mode: arrivals at t die without counting the
        # visit (Eq. 3's removed row).
        absorbed = nodes == absorbing_target
        if absorbed.any():
            death_node_parts.append(
                np.array([absorbing_target], dtype=np.int64)
            )
            death_count_parts.append(
                np.array([int(counts[absorbed].sum())], dtype=np.int64)
            )
            keep = ~absorbed
            nodes = nodes[keep]
            sources = sources[keep]
            remainings = remainings[keep]
            halves = halves[keep]
            counts = counts[keep]
    if len(nodes):
        np.add.at(
            count_tensor,
            (nodes, halves, sources),
            counts.astype(count_tensor.dtype, copy=False),
        )
        expired = remainings == 0
        if expired.any():
            death_node_parts.append(nodes[expired])
            death_count_parts.append(counts[expired])
            live = ~expired
            nodes = nodes[live]
            sources = sources[live]
            remainings = remainings[live]
            halves = halves[live]
            counts = counts[live]
    if len(nodes):
        entries, seq_start = route_entries(
            nodes, sources, remainings, halves, counts, rngs, offsets,
            seq_start,
        )
    else:
        entries = np.empty((0, 6), dtype=np.int64)
    if death_node_parts:
        death_nodes = np.concatenate(death_node_parts)
        death_counts = np.concatenate(death_count_parts)
    else:
        death_nodes = _EMPTY
        death_counts = _EMPTY
    return entries, death_nodes, death_counts, seq_start


def route_entries(
    nodes: np.ndarray,
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
    rngs: PortStreams,
    offsets: np.ndarray,
    seq_start: int,
) -> tuple[np.ndarray, int]:
    """Sample next hops for a non-empty node-sorted group array and
    build its queue rows; returns ``(entries, next_seq)``.

    Each node's tokens take the next ports of that node's own stream, in
    segment order.  The draws, expansion, counting, and entry building
    are each one batch over the whole array.  The rows come out in
    (edge, group) order: edge-major, and on each edge the groups in
    ascending segment order, which is that edge's FIFO order, so
    :meth:`EdgeQueues.append` takes them as they are.  Both the counting
    round's survivors and the launch route through here."""
    groups = len(nodes)
    starts, _ = _segments(nodes)
    draws = rngs.ports(nodes[starts], np.add.reduceat(counts, starts))
    # Count tokens per (edge, group) cell with one sort of the tokens'
    # cell keys: ascending keys are edge-major, groups ascending within
    # an edge.
    group_base = offsets[nodes] * groups + np.arange(groups, dtype=np.int64)
    keys = np.repeat(group_base, counts) + draws * groups
    keys.sort()
    starts, ends = _segments(keys)
    cells = keys[starts]
    edge = cells // groups
    group_of = cells - edge * groups
    entries = np.empty((len(cells), 6), dtype=np.int64)
    entries[:, 0] = edge
    entries[:, 1] = np.arange(
        seq_start, seq_start + len(cells), dtype=np.int64
    )
    entries[:, 2] = sources[group_of]
    entries[:, 3] = remainings[group_of]
    entries[:, 4] = halves[group_of]
    entries[:, 5] = ends - starts
    return entries, seq_start + len(cells)


def walk_bit_tables(n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """A walk message's bit cost, split by field, for runs of ``n``
    nodes and walk length ``length``: ``heads[half, source]`` is
    ``TAG_BITS + bits(source) + bits(half)``, and ``hops[r]`` is
    ``bits(r)`` for every hop count ``0 <= r <= length``.  A ``walk``
    row ``(source, remaining - 1, half)`` costs ``heads[half, source]
    + hops[remaining - 1]``, the :func:`~repro.congest.message.int_bits`
    sum a materialized message charges; a ``walkb`` row adds
    ``bits(count)``."""
    heads = (
        TAG_BITS
        + int_bits_array(np.arange(2))[:, None]
        + int_bits_array(np.arange(n))[None, :]
    )
    return heads, int_bits_array(np.arange(length + 1))


class EdgeQueues:
    """Per-directed-edge FIFO queues of pending token groups.

    A queued group is one row ``(edge id, seq, source, remaining_here,
    half, count)`` of a row store, and each edge's rows form one chain
    through a ``next`` column, head first.  Row ``e`` is edge ``e``'s
    sentinel: its ``next`` is the edge's head, and an empty edge's tail
    is its sentinel, so appending to any edge is one link write.  Row
    ``num_edges`` is the null row that ends every chain; it links to
    itself and holds no tokens, so walking past a chain's end needs no
    mask either.

    :meth:`take` reads only the first ``budget`` rows of each non-empty
    edge, so a round costs what it sends, not the backlog.  Rows a take
    empties stay in the store, dead, until an append finds it full:
    then it is compacted when dead rows outnumber live ones, and grown
    (2x) otherwise.  Rows are appended past every existing row and
    compaction keeps their order, so along each chain the row index
    ascends.

    The engine keeps one instance over the network's directed edges;
    each :class:`~repro.core.walk_manager.WalkManager` keeps one over
    its ports.
    """

    def __init__(self, num_edges: int) -> None:
        self.num_edges = num_edges
        self._null = num_edges
        self._base = num_edges + 1
        capacity = self._base + 16
        self._rows = np.zeros((capacity, 6), dtype=np.int64)
        self._next = np.full(capacity, self._null, dtype=np.int64)
        self._tail = np.arange(num_edges, dtype=np.int64)
        self._lengths = np.zeros(num_edges, dtype=np.int64)
        self._size = self._base
        #: Live rows and the tokens they hold.
        self.rows = 0
        self.tokens = 0

    def append(self, entries: np.ndarray) -> None:
        """Queue rows at the tails of their edges.  The rows come
        edge-major, each edge's in FIFO order, as :func:`route_entries`
        builds them."""
        if not len(entries):
            return
        self._reserve(len(entries))
        lo = self._size
        self._size = lo + len(entries)
        self._rows[lo:self._size] = entries
        self._link(lo, self._size)
        self.rows += len(entries)
        self.tokens += int(entries[:, 5].sum())

    def take(
        self, budget: int | np.ndarray, policy: TransportPolicy
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dequeue this round's sendable tokens under the per-edge budget
        (the CONGEST constraint of Algorithm 1).

        ``budget`` is one slot count for every edge, or an array of one
        per edge; an edge with zero or fewer slots sends nothing.  QUEUE
        charges a slot per *token* and splits the first row that does
        not fit, so the rest of it stays at the head; BATCH charges a
        slot per *row* and sends up to ``budget`` whole rows.  Both read
        at most ``budget`` rows per edge, as one ``(active edges x
        budget)`` matrix.

        Returns ``(sent, taken)``: the sending rows as they stood before
        the take, in (edge, FIFO) order, and how many tokens each
        sends."""
        active = np.flatnonzero(self._lengths)
        if isinstance(budget, np.ndarray):
            slots = budget[active]
            open_edges = slots > 0
            active = active[open_edges]
            slots = slots[open_edges]
            width = int(slots.max()) if len(active) else 0
        else:
            slots = budget
            width = budget if len(active) else 0
        if width <= 0:
            return self._rows[:0], _EMPTY
        # Either policy sends at most one row per slot, and no edge more
        # rows than it holds.
        width = min(width, int(self._lengths[active].max()))
        nxt = self._next
        counts = self._rows[:, 5]
        # Slot by slot down every active chain at once: ``chain[:, j]``
        # is each edge's ``j``-th row (the null row past its end).
        chain = np.empty((len(active), width + 1), dtype=np.int64)
        take = np.empty((len(active), width), dtype=np.int64)
        emptied = np.zeros(len(active), dtype=np.int64)
        left = slots
        row = nxt[active]
        for slot in range(width):
            chain[:, slot] = row
            count = counts[row]
            if policy is TransportPolicy.QUEUE:
                sends = np.minimum(count, left)
                left = left - sends
            elif isinstance(slots, np.ndarray):
                sends = np.where(slot < slots, count, 0)
            else:
                sends = count
            take[:, slot] = sends
            # The rows a take empties are a prefix of each chain.
            emptied += (sends == count) & (count > 0)
            row = nxt[row]
        chain[:, width] = row
        new_heads = chain.ravel()[
            np.arange(0, chain.size, width + 1) + emptied
        ]
        nxt[active] = new_heads
        self._lengths[active] -= emptied
        drained = active[new_heads == self._null]
        self._tail[drained] = drained
        flat_take = take.ravel()
        sending = np.flatnonzero(flat_take)
        sent_rows = chain[:, :width].ravel()[sending]
        taken = flat_take[sending]
        sent = np.take(self._rows, sent_rows, axis=0)
        counts[sent_rows] -= taken
        self.rows -= int(emptied.sum())
        self.tokens -= int(taken.sum())
        return sent, taken

    def _link(self, lo: int, hi: int) -> None:
        """Chain rows ``lo:hi`` (edge-major, FIFO within an edge) onto
        their edges' tails."""
        edges = self._rows[lo:hi, 0]
        firsts, ends = _segments(edges)
        first_edges = edges[firsts]
        firsts += lo
        ends += lo
        self._next[lo:hi] = np.arange(lo + 1, hi + 1, dtype=np.int64)
        self._next[ends - 1] = self._null
        self._next[self._tail[first_edges]] = firsts
        self._tail[first_edges] = ends - 1
        self._lengths[first_edges] += ends - firsts

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows: compact when dead rows
        outnumber live ones, grow 2x when that is not enough."""
        capacity = len(self._next)
        if self._size + extra <= capacity:
            return
        if self._size - self._base - self.rows > self.rows:
            self._compact()
            if self._size + extra <= capacity:
                return
        capacity = max(2 * capacity, self._size + extra)
        rows = np.zeros((capacity, 6), dtype=np.int64)
        rows[: self._size] = self._rows[: self._size]
        nxt = np.full(capacity, self._null, dtype=np.int64)
        nxt[: self._size] = self._next[: self._size]
        self._rows, self._next = rows, nxt

    def _compact(self) -> None:
        """Drop the dead rows, keeping the live ones in store order, and
        renumber every link.  A take unlinks each row it empties, so no
        chain passes through a dead row."""
        base = self._base
        live = base + np.flatnonzero(self._rows[base:self._size, 5])
        renumber = np.arange(self._size, dtype=np.int64)
        renumber[live] = np.arange(base, base + len(live), dtype=np.int64)
        self._size = base + len(live)
        self._rows[base:self._size] = self._rows[live]
        self._next[base:self._size] = renumber[self._next[live]]
        self._next[: self.num_edges] = renumber[self._next[: self.num_edges]]
        self._tail = renumber[self._tail]


class CountingWalkEngine:
    """One counting phase for the whole network, as a fast-path driver.

    Lifecycle: the first node to finish setup creates the engine in
    ``ctx.shared`` and registers it as a driver; every node then builds
    its manager over its view of the engine's count tensor, calls
    :meth:`register`, and :meth:`touch` each counting round it is woken
    for control mail.  The scheduler calls :meth:`end_round` once per
    round after the per-node loop; on its first call the engine launches
    every node's walks and takes over all walk movement from there.

    ``convergecast``: run the termination convergecast as arrays and
    claim its ``term`` rows (fault-free, non-reliable runs).  Otherwise
    each node's :class:`DeathCounterLogic` reports, and ``term`` travels
    as control mail the node folds in itself.
    """

    def __init__(
        self,
        edges: EdgeIndex,
        convergecast: bool,
        walks_per_source: int,
        length: int,
    ) -> None:
        n = edges.n
        self.n = n
        self.claimed_kinds = frozenset(
            {KIND_WALK, KIND_WALK_BATCH}
            | ({KIND_TERM} if convergecast else set())
        )
        self._convergecast = convergecast
        # xi tensors and per-node aggregates; managers hold views into
        # ``counts`` so both access paths see the same numbers.  The
        # cells are stored half-first, ``[half, node, source]``, and
        # ``counts`` is the ``(n, 2, n)`` view ``[node, half, source]``:
        # outside split mode nothing writes half 1, so its pages are
        # never made resident.
        self.counts = np.zeros(
            (2, n, n), dtype=count_dtype(walks_per_source, length)
        ).transpose(1, 0, 2)
        self.held = np.zeros(n, dtype=np.int64)
        self.deaths = np.zeros(n, dtype=np.int64)
        self._round_deaths = np.zeros(n, dtype=np.int64)
        self._programs: dict[int, NodeProgram] = {}
        self._managers: dict[int, WalkManager] = {}
        self._counters: dict[int, DeathCounterLogic] = {}
        self._contexts: dict[int, RoundContext] = {}
        self._rngs: dict[int, np.random.Generator] = {}
        self._streams: PortStreams | None = None
        self._touched: set[int] = set()
        # Reliable-mode state: per-node ARQ channels, fresh walk tokens
        # that arrived as control retransmissions this round, nodes
        # that left the counting phase this round (the engine owes them
        # one last flush), and the run's FaultRuntime for the crashed
        # set.  All stay empty/None on fault-free runs.
        self._channels: dict[int, object] = {}
        self._reliable = False
        self._control_arrivals: list[tuple[int, int, int, int, int]] = []
        self._transitioned: set[int] = set()
        self._fault_runtime = None
        # Telemetry (observation-only; installed from ctx.shared at
        # register time).  Spans time the engine's kernels; instruments
        # count emitted walk messages.  Never read back by the protocol.
        self._profiler = NULL_PROFILER
        self._instruments = None
        # Every directed edge's FIFO queue of pending token groups.
        self._queues = EdgeQueues(len(edges.dst))
        self._seq = 0
        self._finalized = False
        # The run's directed edges (``SharedFastPathState.edges``): edge
        # ``offsets[v] + port`` is ``v -> neighbors[port]``.
        self._offsets = edges.offsets
        self._targets = edges.dst
        self._degrees = edges.degrees
        self._edge_src = edges.src
        self._max_degree = int(edges.degrees.max())
        self._policy: TransportPolicy = TransportPolicy.QUEUE
        self._budget = 1
        # ``convergecast`` mode prices walk and ``term`` rows itself
        # (:func:`walk_bit_tables`, filled at finalize) and tags them
        # with their edge ids, so the outbox's drain reads each edge's
        # load off the rows instead of merging them.
        self._head_bits = self._hop_bits = _EMPTY
        self._parent_edge = _EMPTY
        self._alpha: float | None = None
        self._absorbing_target = -1
        # Array convergecast (``convergecast`` mode): per node, the
        # children's summed reports, the last total it reported, its
        # latest report its parent has heard, whether the done wave
        # stopped it, and its tree parent (-1 at the root).  Local
        # deaths are ``deaths``.  Filled at finalize.
        self._child_sum = np.zeros(n, dtype=np.int64)
        self._last_reported = np.full(n, -1, dtype=np.int64)
        self._heard = np.zeros(n, dtype=np.int64)
        self._stopped = np.zeros(n, dtype=bool)
        self._parent = np.full(n, -1, dtype=np.int64)
        self._root = -1
        self._expected_total = 0

    # ------------------------------------------------------------------
    # Per-node hooks (called from the node programs)
    # ------------------------------------------------------------------
    def register(
        self,
        program: "NodeProgram",
        manager: WalkManager,
        counter: DeathCounterLogic,
        ctx: "RoundContext",
        channel=None,
    ) -> None:
        """Adopt one node.  The manager must tally into
        ``counts[node]`` (pass it as ``half_counts``); the engine
        launches its walks at the first :meth:`end_round`.

        ``channel`` is the node's
        :class:`~repro.congest.reliable.ReliableChannel` when the
        protocol runs in reliable mode; the engine then performs the
        node's walk-token dedup, acking, flushing, and
        retransmission-aware emission while the node is counting."""
        node = manager.node_id
        if node in self._managers:
            raise ProtocolError(
                f"node {node} registered twice with the walk engine"
            )
        manager.attach_engine(self)
        self._programs[node] = program
        self._managers[node] = manager
        self._counters[node] = counter
        self._contexts[node] = ctx
        self._rngs[node] = manager.rng
        self._channels[node] = channel
        if channel is not None:
            self._reliable = True
        shared = ctx.shared
        if shared is not None:
            if self._fault_runtime is None:
                self._fault_runtime = shared.fault_runtime
            self._profiler = shared.profiler
            self._instruments = shared.instruments

    def touch(self, node: int) -> None:
        """Mark a node as active this round (it ran for control mail),
        so the post-round pass considers its termination reporting."""
        self._touched.add(node)

    def stop_reporting(self, node: int) -> None:
        """The done wave reached ``node``: its counter stops reporting."""
        self._stopped[node] = True

    def deliver_control_walk(
        self, node: int, kind: str, payload: tuple[int, ...]
    ) -> None:
        """Buffer a fresh walk token that arrived as an ordinary control
        message (an ARQ retransmission - fresh emission always travels
        in bulk).  The node's round handler already ran it through the
        channel; the engine folds it into this round's canonical
        grouped receive alongside the claimed bulk arrivals."""
        if kind == KIND_WALK:
            source, remaining, half = payload
            count = 1
        else:
            source, remaining, half, count = payload
        self._control_arrivals.append((node, source, remaining, half, count))

    def note_transition(self, node: int) -> None:
        """A counting node switched to the exchange phase during this
        round's calls; the engine still owes its channel this round's
        flush (from next round the node flushes inline)."""
        self._transitioned.add(node)

    # ------------------------------------------------------------------
    # Driver hook (called by the scheduler, once per round)
    # ------------------------------------------------------------------
    def end_round(
        self,
        round_number: int,
        claimed: dict[str, ClaimedKind],
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> None:
        launch_round = not self._finalized
        if launch_round:
            self._finalize()
        profiler = self._profiler
        term = claimed.pop(KIND_TERM, None) if self._convergecast else None
        crashed = (
            self._fault_runtime.crashed(round_number)
            if self._fault_runtime is not None
            else frozenset()
        )
        if self._reliable and claimed:
            with profiler.span("engine.dedup"):
                claimed = self._dedup_claimed(claimed, round_number, outbox)
        if claimed or self._control_arrivals:
            dead = self._process_arrivals(claimed)
        else:
            dead = ()
        if self._convergecast:
            if launch_round or term is not None or len(dead):
                with profiler.span("engine.post_round"):
                    self._convergecast_round(
                        round_number, bulk_outbox, term, dead
                    )
        elif self._touched or len(dead):
            with profiler.span("engine.post_round"):
                self._post_round(round_number, outbox, dead)
        retransmits = None
        if self._reliable:
            with profiler.span("engine.arq_flush"):
                retransmits = self._flush_channels(
                    round_number, outbox, crashed
                )
        if self._queues.rows:
            with profiler.span("engine.emit"):
                self._emit(bulk_outbox, round_number, retransmits, crashed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """First end_round (the launch round): launch every node's
        walks and set up the convergecast."""
        if len(self._managers) != self.n:
            raise ProtocolError(
                f"walk engine started with {len(self._managers)}/{self.n} "
                "nodes registered"
            )
        first = self._managers[0]
        self._policy = first.policy
        self._budget = first.walk_budget
        self._alpha = first.survival_alpha
        self._absorbing_target = first.target
        # Damped thinning draws from the same generators between
        # routing calls, so that mode may not read ahead.
        self._streams = PortStreams(
            self._rngs,
            self._degrees,
            DEFAULT_READ_AHEAD if self._alpha is None else 0,
        )
        self._launch(first)
        if self._convergecast:
            for node, counter in self._counters.items():
                if counter.parent is None:
                    self._root = node
                else:
                    self._parent[node] = counter.parent
            self._expected_total = self._counters[0].expected_total
            self._head_bits, self._hop_bits = walk_bit_tables(
                self.n, first.length
            )
            # Each node's edge to its tree parent (the root has none).
            uplinks = np.flatnonzero(
                self._targets == self._parent[self._edge_src]
            )
            self._parent_edge = np.full(self.n, -1, dtype=np.int64)
            self._parent_edge[self._edge_src[uplinks]] = uplinks
        else:
            # Every node launched this round, so every node's counter
            # owes its first report.
            self._touched.update(range(self.n))
        self._finalized = True

    def _launch(self, manager: WalkManager) -> None:
        """Algorithm 1 line 3 for the whole network, in one routing pass.

        Every launching node (all of them in damped mode; all but the
        absorbing target otherwise) contributes its :func:`launch_groups`
        at ``remaining = l``.  A launch skips thinning and expiry
        (``l >= 1``), counts the start visit only under
        ``count_initial``, and routes through :func:`route_entries` - as
        ``WalkManager.launch`` does for one node - so its ports, and
        each edge's FIFO order, are the per-node launch's."""
        launchers = np.arange(self.n, dtype=np.int64)
        if self._alpha is None:
            launchers = launchers[launchers != self._absorbing_target]
        group_halves, group_counts = launch_groups(
            manager.walks_per_source, manager.split_sampling
        )
        nodes = np.repeat(launchers, len(group_halves))
        halves = np.tile(group_halves, len(launchers))
        counts = np.tile(group_counts, len(launchers))
        if manager.count_initial:
            # (node, half) pairs are distinct: no np.add.at needed.
            self.counts[nodes, halves, nodes] += counts.astype(
                self.counts.dtype
            )
        entries, self._seq = route_entries(
            nodes,
            nodes,
            np.full(len(nodes), manager.length, dtype=np.int64),
            halves,
            counts,
            self._streams,
            self._offsets,
            0,
        )
        np.add.at(self.held, self._edge_src[entries[:, 0]], entries[:, 5])
        self._queues.append(entries)

    def _dedup_claimed(
        self,
        claimed: dict[str, ClaimedKind],
        round_number: int,
        outbox: "RoundOutbox",
    ) -> dict[str, ClaimedKind]:
        """Reliable mode: run every claimed walk row through the
        receiver's ARQ before counting.

        Each row goes through :meth:`ReliableChannel.accept
        <repro.congest.reliable.ReliableChannel.accept>`, the call the
        per-message loop makes for each token message: a first-seen seq
        is fresh (kept, multiplicity one - fault duplication cannot
        double a token), a repeat is rejected, and every copy past the
        fresh one counts as a rejected duplicate.  A receiver still in
        setup leaves the row unaccepted and unacked, so the sender
        retransmits it past the launch round.  Within a round the final
        receive windows do not depend on arrival order, so the slow
        path's arrival order and this row order agree byte for byte.

        A receiver past counting flushes in its own round handler,
        which ran before this pass; its accepts here are settled by
        :meth:`_settle_late_accepts` instead."""
        out: dict[str, ClaimedKind] = {}
        channels = self._channels
        transitioned = self._transitioned
        late: dict[int, set[int]] = {}
        for kind, (senders, receivers, fields, multiplicity) in (
            claimed.items()
        ):
            recv_list = receivers.tolist()
            phase_of = {
                node: self._programs[node].phase for node in set(recv_list)
            }
            keep = np.zeros(len(recv_list), dtype=bool)
            for row, (sender, node, seq, copies) in enumerate(
                zip(
                    senders.tolist(),
                    recv_list,
                    fields[:, -1].tolist(),
                    multiplicity.tolist(),
                )
            ):
                phase = phase_of[node]
                if phase == "setup":
                    # Crashed through the launch round: no accept, no
                    # ack; the sender retries later.
                    continue
                if channels[node].accept(sender, seq, copies):
                    if phase != "counting":
                        raise ProtocolError(
                            f"fresh walk token arrived during {phase} at "
                            f"node {node}: recovery lost a death"
                        )
                    keep[row] = True
                elif phase != "counting" and node not in transitioned:
                    late.setdefault(node, set()).add(sender)
            if keep.any():
                out[kind] = (
                    senders[keep],
                    receivers[keep],
                    fields[keep],
                    np.ones(int(keep.sum()), dtype=np.int64),
                )
        if late:
            self._settle_late_accepts(late, round_number, outbox)
        return out

    def _settle_late_accepts(
        self,
        late: dict[int, set[int]],
        round_number: int,
        outbox: "RoundOutbox",
    ) -> None:
        """Owe what the per-message loop's handler would have sent for
        token rows that reached exchange/done receivers (necessarily
        duplicates: a fresh one raised above).  There the receiver runs
        the rows through its channel and then flushes, so every touched
        link ends the round acked.  A receiver that already flushed
        this round gets just those acks; a halted one the scheduler did
        not step (it had no control mail) gets the flush its woken
        handler would have run."""
        channels = self._channels
        for node in sorted(late):
            channel = channels[node]
            if channel.flushed_round == round_number:
                for sender in sorted(late[node]):
                    channel.ack_late(sender, round_number, outbox.push)
            else:
                channel.flush(round_number, outbox.push)

    def _process_arrivals(
        self, claimed: dict[str, ClaimedKind]
    ) -> np.ndarray:
        """One round of Algorithm 1 lines 7-15 for the whole network.

        Returns the nodes whose death count changed this round."""
        parts: list[tuple[np.ndarray, ...]] = []
        walk = claimed.get(KIND_WALK)
        if walk is not None:
            _, receivers, fields, multiplicity = walk
            parts.append(
                (receivers, fields[:, 0], fields[:, 1], fields[:, 2],
                 multiplicity)
            )
        batch = claimed.get(KIND_WALK_BATCH)
        if batch is not None:
            _, receivers, fields, multiplicity = batch
            parts.append(
                (receivers, fields[:, 0], fields[:, 1], fields[:, 2],
                 fields[:, 3] * multiplicity)
            )
        if self._control_arrivals:
            # Retransmitted tokens delivered as control mail this round;
            # they join the same canonical grouping, so where a token
            # arrived from is invisible to the random stream.
            control = np.array(self._control_arrivals, dtype=np.int64)
            self._control_arrivals = []
            parts.append(
                (control[:, 0], control[:, 1], control[:, 2],
                 control[:, 3], control[:, 4])
            )
        if not parts:
            return self._round_deaths[:0]
        if len(parts) == 1:
            raw = parts[0]
        else:
            raw = tuple(
                np.concatenate([part[i] for part in parts]) for i in range(5)
            )
        profiler = self._profiler
        with profiler.span("engine.aggregate"):
            nodes, sources, remainings, halves, counts = (
                aggregate_network_groups(*raw)
            )
        with profiler.span("engine.kernel"):
            entries, death_nodes, death_counts, self._seq = (
                counting_round_kernel(
                    nodes,
                    sources,
                    remainings,
                    halves,
                    counts,
                    self._streams,
                    self._alpha,
                    self._absorbing_target,
                    self.counts,
                    self._degrees,
                    self._offsets,
                    self._max_degree,
                    self._seq,
                )
            )
        deaths = self._round_deaths
        if len(death_nodes):
            np.add.at(deaths, death_nodes, death_counts)
        if len(entries):
            # Routed tokens are held at the edge's source until they
            # drain through the budgeted outbox - same per-node totals
            # as the pre-routing tally, just grouped by edge.
            np.add.at(
                self.held, self._edge_src[entries[:, 0]], entries[:, 5]
            )
            self._queues.append(entries)
        return np.nonzero(deaths)[0]

    def _post_round(
        self,
        round_number: int,
        outbox: "RoundOutbox",
        dead: np.ndarray | tuple,
    ) -> None:
        """The non-walk tail of each node's counting round: fold this
        round's deaths into the convergecast, send changed subtree
        totals, and let the root start the done wave on detection."""
        post = self._touched
        if len(dead):
            post = post | {int(node) for node in dead}
        for node in sorted(post):
            counter = self._counters[node]
            delta = int(self._round_deaths[node])
            if delta:
                self._round_deaths[node] = 0
                self.deaths[node] += delta
                counter.record_deaths(delta)
            if counter.stopped:
                continue
            if counter.parent is None:
                if counter.root_detects_completion:
                    done_round = round_number + self.n + 2
                    self._programs[node]._begin_done_wave(
                        self._contexts[node], done_round
                    )
            else:
                total = counter.pop_report()
                if total is not None:
                    if self._reliable:
                        # Sequenced and shipped by this round's flush,
                        # exactly like the slow path's queue-then-flush.
                        self._channels[node].queue_latest(
                            counter.parent, KIND_TERM, (total,)
                        )
                    else:
                        outbox.push(
                            Message(
                                sender=node,
                                receiver=counter.parent,
                                kind=KIND_TERM,
                                fields=(total,),
                            )
                        )
        self._touched = set()

    def _convergecast_round(
        self,
        round_number: int,
        bulk_outbox: "BulkOutbox",
        term: ClaimedKind | None,
        dead: np.ndarray | tuple,
    ) -> None:
        """:meth:`_post_round` for every node at once (``convergecast``
        mode): fold this round's ``term`` rows and deaths into the
        subtree totals, ship every due report (:func:`report_due`) as
        one priced push - the same fields, bits and edges as the
        per-node ``term`` messages - and let the root start the done
        wave on detection, in the same round as the per-node pass.

        The per-node pass examines only the nodes whose totals moved;
        every other node has nothing due, so examining all of them
        reports the same nodes."""
        if term is not None:
            senders, receivers, fields, _ = term
            strangers = np.flatnonzero(self._parent[senders] != receivers)
            if len(strangers):
                bad = strangers[0]
                raise ProtocolError(
                    f"termination report from non-child {int(senders[bad])} "
                    f"at node {int(receivers[bad])}"
                )
            # Monotone: a child's latest report replaces its earlier one.
            heard = np.maximum(self._heard[senders], fields[:, 0])
            np.add.at(self._child_sum, receivers, heard - self._heard[senders])
            self._heard[senders] = heard
        if len(dead):
            self.deaths[dead] += self._round_deaths[dead]
            self._round_deaths[dead] = 0
        total = self.deaths + self._child_sum
        reporters = np.flatnonzero(
            report_due(total, self._last_reported, self._stopped, self._parent)
        )
        if len(reporters):
            totals = total[reporters]
            self._last_reported[reporters] = totals
            bulk_outbox.push_priced(
                KIND_TERM,
                reporters,
                self._parent[reporters],
                TAG_BITS + int_bits_array(totals),
                edges=self._parent_edge[reporters],
                fields=totals[:, None],
            )
        root = self._root
        if not self._stopped[root] and total[root] >= self._expected_total:
            self._programs[root]._begin_done_wave(
                self._contexts[root], round_number + self.n + 2
            )

    def _flush_channels(
        self,
        round_number: int,
        outbox: "RoundOutbox",
        crashed: frozenset,
    ) -> dict[int, int]:
        """Run the per-round ARQ flush for every node the engine owns
        this round: counting nodes plus the ones that left counting
        during this round's calls.  (Setup/exchange/done nodes flush
        inline in their own handlers; a crashed node flushes nothing,
        same as the per-message loop skipping it.)  Returns the fresh
        token budget debits as an edge-id -> retransmit-count map for
        :meth:`_emit`."""
        retransmits: dict[int, int] = {}
        offsets = self._offsets
        for node in sorted(self._channels):
            if node in crashed:
                continue
            if (
                self._programs[node].phase != "counting"
                and node not in self._transitioned
            ):
                continue
            channel = self._channels[node]
            sent = channel.flush(round_number, outbox.push)
            if sent:
                neighbors = self._managers[node].neighbors
                for neighbor, count in sent.items():
                    retransmits[offsets[node] + neighbors.index(neighbor)] = (
                        count
                    )
        self._transitioned = set()
        return retransmits

    def _emit(
        self,
        bulk_outbox: "BulkOutbox",
        round_number: int = 0,
        retransmits: dict[int, int] | None = None,
        crashed: frozenset = frozenset(),
    ) -> None:
        """Dequeue every edge's sendable tokens under the per-edge
        budget (:meth:`EdgeQueues.take`, the rule
        :meth:`WalkManager.emit_round` applies to one node's edges) and
        ship the whole round as one aggregate push.

        Under faults the budget becomes per edge: ``retransmits`` debits
        slots the ARQ flush already spent, and edges out of a crashed
        node get zero (the per-message loop skips the node outright, so
        its queues just wait).  In reliable mode every shipped token
        needs its own seq, so QUEUE groups expand to one row per token
        and each row is sequenced through the sender's channel in the
        same per-edge FIFO order the per-message loop sends in."""
        budget: int | np.ndarray = self._budget
        if retransmits or crashed:
            budget = np.full(len(self._targets), self._budget, dtype=np.int64)
            if retransmits:
                for edge_id, spent in retransmits.items():
                    budget[edge_id] = max(0, self._budget - spent)
            if crashed:
                budget[np.isin(self._edge_src, np.array(sorted(crashed)))] = 0
        sent, taken = self._queues.take(budget, self._policy)
        if not len(sent):
            return
        edge_ids = sent[:, 0]
        senders = self._edge_src[edge_ids]
        np.subtract.at(self.held, senders, taken)
        batch = self._policy is TransportPolicy.BATCH
        if self._instruments is not None:
            # Same message-count convention as WalkManager.send_round:
            # QUEUE ships one message per token, BATCH one per group.
            self._instruments.bump_round(
                "walk_sends",
                round_number,
                len(sent) if batch else int(taken.sum()),
            )
        if self._reliable:
            self._emit_reliable(
                bulk_outbox, round_number, sent, taken, senders
            )
            return
        fields = np.empty((len(sent), 4 if batch else 3), dtype=np.int64)
        fields[:, 0] = sent[:, 2]
        fields[:, 1] = sent[:, 3] - 1
        fields[:, 2] = sent[:, 4]
        if batch:
            fields[:, 3] = taken
        kind = KIND_WALK_BATCH if batch else KIND_WALK
        multiplicity = None if batch else taken
        if not self._convergecast:
            bulk_outbox.push_rows(
                kind, senders, self._targets[edge_ids], fields, multiplicity
            )
            return
        row_bits = (
            self._head_bits[fields[:, 2], fields[:, 0]]
            + self._hop_bits[fields[:, 1]]
        )
        if batch:
            row_bits += int_bits_array(taken)
        bulk_outbox.push_priced(
            kind,
            senders,
            self._targets[edge_ids],
            row_bits,
            edges=edge_ids,
            fields=fields,
            multiplicity=multiplicity,
        )

    def _emit_reliable(
        self,
        bulk_outbox: "BulkOutbox",
        round_number: int,
        sent: np.ndarray,
        taken: np.ndarray,
        senders: np.ndarray,
    ) -> None:
        """Ship this round's emitted tokens with per-token sequencing.

        Rows arrive in (edge, FIFO) order, so walking them in
        order assigns each directed edge the same consecutive seqs the
        per-message loop's ``send_round`` would (it also sends
        head-of-queue first).  QUEUE groups expand to multiplicity-one
        rows because each token message carries a distinct seq."""
        targets = self._targets[sent[:, 0]]
        channels = self._channels
        if self._policy is TransportPolicy.QUEUE:
            row_senders = np.repeat(senders, taken)
            row_targets = np.repeat(targets, taken)
            row_edges = np.repeat(sent[:, 0], taken)
            fields = np.empty((len(row_senders), 4), dtype=np.int64)
            fields[:, 0] = np.repeat(sent[:, 2], taken)
            fields[:, 1] = np.repeat(sent[:, 3] - 1, taken)
            fields[:, 2] = np.repeat(sent[:, 4], taken)
            rows_t = list(map(tuple, fields[:, :3].tolist()))
            starts, ends = _segments(row_edges)
            seq_col = fields[:, 3]
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                start_seq = channels[int(row_senders[lo])].register_block(
                    int(row_targets[lo]),
                    KIND_WALK,
                    rows_t[lo:hi],
                    round_number,
                )
                seq_col[lo:hi] = np.arange(
                    start_seq, start_seq + (hi - lo)
                )
            bulk_outbox.push_rows(KIND_WALK, row_senders, row_targets, fields)
        else:
            fields = np.empty((len(sent), 5), dtype=np.int64)
            fields[:, 0] = sent[:, 2]
            fields[:, 1] = sent[:, 3] - 1
            fields[:, 2] = sent[:, 4]
            fields[:, 3] = taken
            rows_t = list(map(tuple, fields[:, :4].tolist()))
            starts, ends = _segments(sent[:, 0])
            seq_col = fields[:, 4]
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                start_seq = channels[int(senders[lo])].register_block(
                    int(targets[lo]),
                    KIND_WALK_BATCH,
                    rows_t[lo:hi],
                    round_number,
                )
                seq_col[lo:hi] = np.arange(
                    start_seq, start_seq + (hi - lo)
                )
            bulk_outbox.push_rows(
                KIND_WALK_BATCH, senders, targets, fields
            )


def _segments(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end index pairs of the equal-value runs of a non-empty
    array (sorted, or at least with each value in one run)."""
    boundary = np.empty(len(nodes), dtype=bool)
    boundary[0] = True
    np.not_equal(nodes[1:], nodes[:-1], out=boundary[1:])
    starts = boundary.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = len(nodes)
    return starts, ends
