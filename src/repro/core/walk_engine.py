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
* randomness stays attributed, as counter-based streams: node ``v``
  holds a 64-bit key, :func:`walk_key` of the run's seed entropy, the
  node and the walk domain tag :data:`WALK_STREAM` (so no node reads
  another's bits, and the fault filter's hash, keyed by the fault
  plan's seed, never meets them), plus one int64 counter.  Its ``j``-th
  draw is ``_mix64(key_v + j * GOLDEN)``
  (:mod:`repro.congest.splitmix`).  Damped thinning takes one draw per
  token (:func:`thin_groups`), then routing one per token at nodes of
  degree two or more (:func:`walk_ports`, Lemire's rule on the high 32
  bits; a rejected draw is skipped for the next counter value), each
  node's tokens in canonical group order.  A draw is a function of its
  key and counter only, so serving many nodes in one pass gives what
  serving them one by one would;
* routing emits its rows edge-major, each edge's in canonical group
  order, and they join that edge's queue at the tail; emission reads
  only each queue's head - at most ``budget`` rows per edge - so which
  token moves when under the bandwidth budget is the same on either
  slice, and a round costs the tokens it moves, not the backlog;
* the walk message format lives here once: :func:`walk_rows` encodes
  what :meth:`EdgeQueues.take` dequeues as message rows (kind, edge id,
  fields, copies), :func:`sequence_walk_rows` gives each row its ARQ
  seq in reliable mode, and :func:`walk_groups` decodes arriving rows -
  claimed bulk rows and stacked per-message payloads alike - back into
  token groups.

What the slices do not share is how a round's rows travel.  The
per-message loop sends each row as ``copies``
:class:`~repro.congest.message.Message` objects (for the message log,
the CONGEST audit and the asynchronous executor).  The engine pushes
every row of the round at once: on fault-free runs priced from tables
built once (:func:`walk_bit_tables`) and tagged with their edge ids
(:meth:`BulkOutbox.push_priced`), as it does the convergecast's
``term`` rows, chosen by the same
:func:`~repro.core.termination.report_due` rule each per-node counter
applies; on faulty and reliable runs through
:meth:`BulkOutbox.push_rows`.  Either way the bits and counts charged
are those of the materialized messages.  The tested guarantee
(``tests/test_walks_batched.py``, ``tests/test_counting_bookends.py``):
same seed in, identical tallies, estimates, round counts, and traffic
accounting out.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ConfigError, ProtocolError
from repro.congest.message import TAG_BITS, Message, int_bits_array
from repro.congest.splitmix import GOLDEN, _mix64_array, stream_key
from repro.obs.spans import NULL_PROFILER
from repro.core.termination import KIND_TERM, DeathCounterLogic, report_due
from repro.walks.batched import aggregate_network_groups

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex, NodeProgram, RoundContext
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.walk_manager import WalkManager

KIND_WALK = "walk"
KIND_WALK_BATCH = "walkb"
WALK_KINDS = frozenset({KIND_WALK, KIND_WALK_BATCH})
# The walk kinds in a fixed order, for shipping ARQ sends as rows.
_WALK_ROWS = (KIND_WALK, KIND_WALK_BATCH)

#: Claimed traffic of one kind: (senders, receivers, fields, multiplicity).
ClaimedKind = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.zeros(0, dtype=np.int64)

#: Domain tag of the walk streams' keys (ASCII ``WALK``).
WALK_STREAM = 0x57414C4B

#: A run's walk streams: every node's key (uint64) and its next counter
#: value (int64, advanced in place as the node draws).
WalkStreams = tuple[np.ndarray, np.ndarray]

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_STEP = np.uint64(GOLDEN)


def count_dtype(walks_per_source: int, length: int) -> type[np.integer]:
    """The visit counters' cell type: the narrowest unsigned type that
    holds ``K * (l + 1)``.  A walk makes at most ``l + 1`` visits, so no
    cell ``xi_v[s]`` (one half, or both summed) exceeds that bound:
    ``uint8`` holds it up to 255, ``uint16`` up to 65535, ``uint32``
    below ``2**32``, and ``int64`` past that."""
    bound = walks_per_source * (length + 1)
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


#: Where :func:`available_memory` reads the host's ``MemAvailable``.
MEMINFO = "/proc/meminfo"


def available_memory() -> int | None:
    """The host's ``MemAvailable`` in bytes, or None when
    :data:`MEMINFO` cannot be read or does not report it."""
    try:
        with open(MEMINFO) as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def check_tensor_fits(n: int, dtype: type[np.integer], halves: int) -> None:
    """Refuse a count tensor the host cannot hold.  ``halves`` of its
    ``(n, n)`` halves become resident (half 1 only in split mode); if
    their bytes exceed :func:`available_memory`, raise
    :class:`ConfigError` instead of letting the allocation be killed."""
    cell = np.dtype(dtype)
    estimate = halves * n * n * cell.itemsize
    limit = available_memory()
    if limit is not None and estimate > limit:
        raise ConfigError(
            f"the count tensor for n={n} needs about {estimate} bytes of "
            f"{cell.name} cells, more than the {limit} bytes available",
            context={
                "n": n,
                "cell_type": cell.name,
                "estimate_bytes": estimate,
                "limit_bytes": limit,
            },
        )


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


def walk_key(entropy: int, node: int) -> int:
    """``node``'s walk-stream key in a run seeded with ``entropy``."""
    return stream_key(entropy, WALK_STREAM, node)


def _draw(
    streams: WalkStreams, nodes: np.ndarray, needs: np.ndarray
) -> np.ndarray:
    """The next ``needs[i]`` hashes of each distinct node ``nodes[i]``'s
    stream, concatenated in that order, and advance the counters: draw
    ``j`` of the stream keyed ``k`` is ``_mix64(k + j * GOLDEN)``."""
    keys, counters = streams
    first = counters[nodes]
    counters[nodes] = first + needs
    # Each token's counter, mod 2**64: its node's first counter, less
    # the node's offset in the concatenation, plus the token's position.
    ends = np.cumsum(needs)
    steps = np.arange(int(needs.sum()), dtype=np.uint64) + np.repeat(
        (first - (ends - needs)).astype(np.uint64), needs
    )
    return _mix64_array(np.repeat(keys[nodes], needs) + steps * _STEP)


def walk_ports(
    streams: WalkStreams,
    degrees: np.ndarray,
    nodes: np.ndarray,
    needs: np.ndarray,
) -> np.ndarray:
    """Next hops for ``needs[i]`` tokens at the distinct ``nodes[i]``,
    concatenated in that order.

    A draw's high 32 bits ``u`` map to the port ``(u * d) >> 32`` of a
    degree-``d`` node (Lemire's rule), rejected when ``(u * d) mod
    2**32 < (2**32 - d) mod d``; a rejected draw is skipped and the
    token takes the next counter value, so the ports are exactly
    uniform.  A degree-1 node has one port and draws nothing.  Degrees
    must be below ``2**32``."""
    node_degrees = degrees[nodes]
    routed = node_degrees > 1
    if not routed.all():
        ports = np.zeros(int(needs.sum()), dtype=np.int64)
        if routed.any():
            ports[np.repeat(routed, needs)] = walk_ports(
                streams, degrees, nodes[routed], needs[routed]
            )
        return ports
    node_degrees = node_degrees.astype(np.uint64)
    m = (_draw(streams, nodes, needs) >> _SHIFT32) * np.repeat(
        node_degrees, needs
    )
    ports = (m >> _SHIFT32).astype(np.int64)
    thresholds = (np.uint64(1 << 32) - node_degrees) % node_degrees
    rejected = np.flatnonzero((m & _LOW32) < np.repeat(thresholds, needs))
    if len(rejected):
        # Each segment keeps its accepted ports in order, then takes
        # its shortfall from the node's next counter values.
        segment = np.repeat(np.arange(len(nodes)), needs)
        keep = np.ones(len(ports), dtype=bool)
        keep[rejected] = False
        short = np.bincount(segment[rejected], minlength=len(nodes))
        refill = np.flatnonzero(short)
        more = walk_ports(streams, degrees, nodes[refill], short[refill])
        owner = np.concatenate(
            (segment[keep], np.repeat(refill, short[refill]))
        )
        ports = np.concatenate((ports[keep], more))[
            np.argsort(owner, kind="stable")
        ]
    return ports


def thin_groups(
    streams: WalkStreams,
    nodes: np.ndarray,
    counts: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Damped mode: how many of each node-sorted group's ``counts``
    tokens survive their hop.  Each token survives with probability
    ``alpha``, on one draw of its node's stream: ``u < alpha``, with
    ``u`` the draw's top 53 bits as a float in ``[0, 1)``.  A node's
    tokens draw in group order."""
    starts, _ = _segments(nodes)
    draws = _draw(streams, nodes[starts], np.add.reduceat(counts, starts))
    alive = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53 < alpha
    return np.add.reduceat(alive, np.cumsum(counts) - counts, dtype=np.int64)


def counting_round_kernel(
    nodes: np.ndarray,
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
    rngs: WalkStreams,
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
    ``rngs`` is the run's walk streams (:data:`WalkStreams`): damped
    thinning (:func:`thin_groups`) and routing (:func:`walk_ports`, at
    ``degrees``) both draw from each node's own stream, and advance its
    counter.  The kernel is a pure function of its inputs plus those
    counters.

    ``nodes`` must be sorted ascending (the canonical order from
    :func:`~repro.walks.batched.aggregate_network_groups`).
    ``max_degree`` goes unread (routing counts by sorting); it stays in
    the parameter list, as does the name ``rngs``, because the
    benchmark's layer probe (``bench/probes.py``) wraps this function by
    its exact signature.  Returns ``(entries, death_nodes,
    death_counts, next_seq)``: queue rows ``(edge id, seq, source,
    remaining_here, half, count)`` in :func:`route_entries` order, the
    death deltas to fold into the convergecast (unaggregated pairs; the
    caller ``np.add.at``s them), and the advanced sequence counter.
    """
    death_node_parts: list[np.ndarray] = []
    death_count_parts: list[np.ndarray] = []
    if alpha is not None:
        survivors = thin_groups(rngs, nodes, counts, alpha)
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
            nodes, sources, remainings, halves, counts, rngs, degrees,
            offsets, seq_start,
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
    streams: WalkStreams,
    degrees: np.ndarray,
    offsets: np.ndarray,
    seq_start: int,
) -> tuple[np.ndarray, int]:
    """Sample next hops for a non-empty node-sorted group array and
    build its queue rows; returns ``(entries, next_seq)``.

    Each node's tokens take the next ports of that node's own stream
    (:func:`walk_ports`), in segment order.  The draws, expansion,
    counting, and entry building are each one batch over the whole
    array.  The rows come out in (edge, group) order: edge-major, and on
    each edge the groups in ascending segment order, which is that
    edge's FIFO order, so :meth:`EdgeQueues.append` takes them as they
    are.  Both the counting round's survivors and the launch route
    through here."""
    groups = len(nodes)
    starts, _ = _segments(nodes)
    draws = walk_ports(
        streams, degrees, nodes[starts], np.add.reduceat(counts, starts)
    )
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


def walk_rows(
    sent: np.ndarray,
    taken: np.ndarray,
    policy: TransportPolicy,
    sequenced: bool,
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Encode one round's dequeued tokens (:meth:`EdgeQueues.take`'s
    ``(sent, taken)``) as walk message rows.

    Returns ``(kind, edges, fields, copies)``: row ``i`` travels on edge
    ``edges[i]`` as ``copies[i]`` identical messages with payload
    ``fields[i]`` = ``(source, remaining - 1, half[, count][, seq])``.
    A ``walk`` message carries one token and a ``walkb`` message
    ``count`` of them.  ``sequenced`` rows (reliable mode) end in a seq
    column, left for :func:`sequence_walk_rows` to fill; since every
    message then needs a seq of its own, a QUEUE row of ``k`` tokens
    expands into ``k`` rows.  Rows keep the take's (edge, FIFO) order,
    and ``copies.sum()`` is the number of messages sent."""
    batch = policy is TransportPolicy.BATCH
    if batch or sequenced:
        if not batch:
            sent = np.repeat(sent, taken, axis=0)
        copies = np.ones(len(sent), dtype=np.int64)
    else:
        copies = taken
    fields = np.empty((len(sent), 3 + batch + sequenced), dtype=np.int64)
    fields[:, :3] = sent[:, 2:5]
    fields[:, 1] -= 1
    if batch:
        fields[:, 3] = taken
    kind = KIND_WALK_BATCH if batch else KIND_WALK
    return kind, sent[:, 0], fields, copies


def sequence_walk_rows(
    kind: str,
    edges: np.ndarray,
    fields: np.ndarray,
    round_number: int,
    table,
) -> None:
    """Fill the seq column of sequenced :func:`walk_rows` output in
    place through :meth:`LinkTable.register_rows
    <repro.congest.reliable.LinkTable.register_rows>`, so each edge's
    rows take consecutive seqs in FIFO order.  ``edges`` are the
    sending slots of ``table``."""
    fields[:, -1] = table.register_rows(
        edges, kind, fields[:, :-1], round_number
    )


def walk_groups(
    kind: str, fields: np.ndarray, copies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode walk message rows of one kind into token groups
    ``(sources, remainings, halves, counts)``: row ``i`` stands for
    ``copies[i]`` identical messages, and a trailing seq column, if
    any, is ignored.  The inverse of :func:`walk_rows`."""
    counts = copies
    if kind == KIND_WALK_BATCH:
        counts = fields[:, 3] * copies
    return fields[:, 0], fields[:, 1], fields[:, 2], counts


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
    as control mail the node folds in itself.  ``split_sampling``: both
    halves of the count tensor will be written, which
    :func:`check_tensor_fits` counts before it is allocated.
    """

    def __init__(
        self,
        edges: EdgeIndex,
        convergecast: bool,
        walks_per_source: int,
        length: int,
        split_sampling: bool,
    ) -> None:
        n = edges.n
        self.n = n
        self.claimed_kinds = WALK_KINDS | (
            {KIND_TERM} if convergecast else set()
        )
        self._convergecast = convergecast
        # xi tensors and per-node aggregates; managers hold views into
        # ``counts`` so both access paths see the same numbers.  The
        # cells are stored half-first, ``[half, node, source]``, and
        # ``counts`` is the ``(n, 2, n)`` view ``[node, half, source]``:
        # outside split mode nothing writes half 1, so its pages are
        # never made resident.
        dtype = count_dtype(walks_per_source, length)
        check_tensor_fits(n, dtype, 2 if split_sampling else 1)
        self.counts = np.zeros((2, n, n), dtype=dtype).transpose(1, 0, 2)
        self.held = np.zeros(n, dtype=np.int64)
        self.deaths = np.zeros(n, dtype=np.int64)
        self._round_deaths = np.zeros(n, dtype=np.int64)
        self._programs: dict[int, NodeProgram] = {}
        self._managers: dict[int, WalkManager] = {}
        self._counters: dict[int, DeathCounterLogic] = {}
        self._contexts: dict[int, RoundContext] = {}
        # Every node's walk stream: its key (filled at register) and
        # its next counter value.
        self._streams: WalkStreams = (
            np.zeros(n, dtype=np.uint64),
            np.zeros(n, dtype=np.int64),
        )
        self._touched: set[int] = set()
        # Reliable-mode state: the run's shared ARQ table (a
        # repro.congest.reliable.LinkTable), per-node channel views,
        # nodes that left the counting phase this round (the engine owes
        # them one last flush), and the run's FaultRuntime for the
        # crashed set.  All stay empty/None on fault-free runs.
        self._table = None
        self._channels: dict[int, object] = {}
        self._reliable = False
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
        retransmission-aware emission while the node is counting, on
        the channels' shared table."""
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
        self._streams[0][node] = manager.walk_key
        self._channels[node] = channel
        if channel is not None:
            self._reliable = True
            self._table = channel.table
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

    def note_transition(self, node: int) -> None:
        """A counting node switched to the exchange phase during this
        round's calls; the engine still owes its channel this round's
        flush (from next round the exchange driver flushes it)."""
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
                claimed = self._dedup_claimed(
                    claimed, round_number, outbox, bulk_outbox
                )
        if claimed:
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
                    round_number, crashed, outbox, bulk_outbox
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
            self._degrees,
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
        bulk_outbox: "BulkOutbox",
    ) -> dict[str, ClaimedKind]:
        """Reliable mode: run every claimed walk row through the
        receiver's ARQ before counting.

        Each kind's rows go through :meth:`LinkTable.accept_rows
        <repro.congest.reliable.LinkTable.accept_rows>`, the rule the
        per-message loop applies to each token message: a first-seen
        seq is fresh (kept, multiplicity one - fault duplication cannot
        double a token), a repeat is rejected, and every copy past the
        fresh one counts as a rejected duplicate.  A receiver still in
        setup leaves the row unaccepted and unacked, so the sender
        retransmits it past the launch round.  Within a round the final
        receive windows do not depend on arrival order, so the slow
        path's arrival order and this row order agree byte for byte.

        A receiver past counting was flushed before this pass (by the
        exchange driver, or by its own handler once done), or nobody
        steps it; its accepts here are settled through
        :meth:`LinkTable.settle
        <repro.congest.reliable.LinkTable.settle>` instead."""
        out: dict[str, ClaimedKind] = {}
        table = self._table
        programs = self._programs
        transitioned = np.zeros(self.n, dtype=bool)
        transitioned[list(self._transitioned)] = True
        late: list[np.ndarray] = []
        for kind, (senders, receivers, fields, multiplicity) in (
            claimed.items()
        ):
            nodes = np.flatnonzero(np.bincount(receivers))
            phase = np.empty(self.n, dtype=object)
            phase[nodes] = [programs[node].phase for node in nodes.tolist()]
            phase = phase[receivers]
            # Crashed through the launch round: no accept, no ack; the
            # sender retries later.
            rows = np.flatnonzero(phase != "setup")
            slots = table.slots(receivers[rows], senders[rows])
            fresh = table.accept_rows(
                slots, fields[rows, -1], multiplicity[rows]
            )
            past = phase[rows] != "counting"
            lost = np.flatnonzero(fresh & past)
            if len(lost):
                row = rows[lost[0]]
                raise ProtocolError(
                    f"fresh walk token arrived during {phase[row]} at node "
                    f"{int(receivers[row])}: recovery lost a death"
                )
            late.append(slots[past & ~transitioned[receivers[rows]]])
            keep = rows[fresh]
            if len(keep):
                out[kind] = (
                    senders[keep],
                    receivers[keep],
                    fields[keep],
                    np.ones(len(keep), dtype=np.int64),
                )
        late_slots = np.concatenate(late) if late else _EMPTY
        if len(late_slots):
            sends = table.settle(late_slots, round_number)
            table.ship(sends, outbox, bulk_outbox, _WALK_ROWS)
        return out

    def _process_arrivals(
        self, claimed: dict[str, ClaimedKind]
    ) -> np.ndarray:
        """One round of Algorithm 1 lines 7-15 for the whole network.

        Returns the nodes whose death count changed this round."""
        parts: list[tuple[np.ndarray, ...]] = [
            (receivers, *walk_groups(kind, fields, multiplicity))
            for kind, (_, receivers, fields, multiplicity) in claimed.items()
        ]
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
                    self._programs[node]._begin_done_wave(
                        self._contexts[node], round_number
                    )
            else:
                total = counter.pop_report()
                if total is not None:
                    if self._reliable:
                        # Sequenced and shipped by this round's flush,
                        # exactly like the slow path's queue-then-flush.
                        self._channels[node].queue(
                            counter.parent, KIND_TERM, (total,), latest=True
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
                self._contexts[root], round_number
            )

    def _flush_channels(
        self,
        round_number: int,
        crashed: frozenset,
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> np.ndarray | None:
        """Run the per-round ARQ flush (:meth:`LinkTable.flush
        <repro.congest.reliable.LinkTable.flush>`) for every node the
        engine owns this round: counting nodes plus the ones that left
        counting during this round's calls.  (Setup and done nodes flush
        in their own handlers, exchange nodes in the exchange driver; a
        crashed node flushes nothing, same as the per-message loop
        skipping it.)  Returns the token retransmissions per edge, the
        fresh budget debits for :meth:`_emit`, or None if there were
        none."""
        programs = self._programs
        nodes = [
            node
            for node in range(self.n)
            if node not in crashed
            and (
                programs[node].phase == "counting"
                or node in self._transitioned
            )
        ]
        self._transitioned = set()
        if not nodes:
            return None
        debits, sends, _ = self._table.flush(np.array(nodes), round_number)
        self._table.ship(sends, outbox, bulk_outbox, _WALK_ROWS)
        return debits

    def _emit(
        self,
        bulk_outbox: "BulkOutbox",
        round_number: int,
        retransmits: np.ndarray | None,
        crashed: frozenset,
    ) -> None:
        """Dequeue every edge's sendable tokens under the per-edge
        budget (:meth:`EdgeQueues.take`, the rule each
        :class:`~repro.core.walk_manager.WalkManager` applies to its own
        ports), encode them with :func:`walk_rows` - sequenced through
        the shared ARQ table by :func:`sequence_walk_rows` in reliable
        mode - and ship the whole round as one aggregate push.

        Under faults the budget becomes per edge: ``retransmits`` debits
        slots the ARQ flush already spent, and edges out of a crashed
        node get zero (the per-message loop skips the node outright, so
        its queues just wait)."""
        budget: int | np.ndarray = self._budget
        if retransmits is not None or crashed:
            budget = np.full(len(self._targets), self._budget, dtype=np.int64)
            if retransmits is not None:
                budget = np.maximum(budget - retransmits, 0)
            if crashed:
                budget[np.isin(self._edge_src, np.array(sorted(crashed)))] = 0
        sent, taken = self._queues.take(budget, self._policy)
        if not len(sent):
            return
        senders = self._edge_src[sent[:, 0]]
        np.subtract.at(self.held, senders, taken)
        kind, edges, fields, copies = walk_rows(
            sent, taken, self._policy, self._reliable
        )
        if self._instruments is not None:
            self._instruments.bump_round(
                "walk_sends", round_number, int(copies.sum())
            )
        receivers = self._targets[edges]
        if self._reliable:
            # Sequenced QUEUE rows are one per token: re-read the senders.
            senders = self._edge_src[edges]
            sequence_walk_rows(kind, edges, fields, round_number, self._table)
        if not self._convergecast:
            bulk_outbox.push_rows(kind, senders, receivers, fields, copies)
            return
        row_bits = (
            self._head_bits[fields[:, 2], fields[:, 0]]
            + self._hop_bits[fields[:, 1]]
        )
        if kind == KIND_WALK_BATCH:
            row_bits += int_bits_array(fields[:, 3])
        bulk_outbox.push_priced(
            kind,
            senders,
            receivers,
            row_bits,
            edges=edges,
            fields=fields,
            multiplicity=copies,
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
