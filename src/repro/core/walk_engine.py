"""Network-wide walk engine: the counting phase as one batched kernel.

On the scheduler's fast path, every node's :class:`RWBCNodeProgram`
registers its :class:`~repro.core.walk_manager.WalkManager` with one
shared :class:`CountingWalkEngine` (a fast-path *driver*, see
:class:`~repro.congest.node.SharedFastPathState`).  The engine claims
the walk message kinds, so each round the scheduler hands it the entire
network's in-flight walk traffic as flat arrays, and it runs the round
for every node at once.  It also launches every node's walks (Algorithm
1 line 3) in one routing pass and, on both link models, claims ``term``
and ``done``, runs the convergecast as arrays and sends the done wave,
so no node is stepped for either kind.

One kernel, two slices.  The counting round's rule lives once, in this
module's functions, and both scheduler loops run it; the engine runs
them over the whole network, each per-message
:class:`~repro.core.walk_manager.WalkManager` on its one-node slice
(node 0, its ports as edge ids, its count slab as a one-node tensor).
A round is a fixed handful of array passes over that round's groups,
whatever the backlog:

* :func:`~repro.walks.batched.aggregate_network_groups` sorts the
  arrivals once, into canonical (node, source, remaining, half) order;
* :func:`counting_round_kernel` finds the node runs of that order once
  and reuses them: thinning or absorption, the visit tally (one sum per
  (node, source) run), expiry, each node's deaths, and next hops
  (:func:`route_entries`, which the launch uses too, with the groups of
  :func:`launch_groups`) - a dropped group keeps its place with zero
  tokens instead of being filtered out;
* routing sorts the tokens once, edge-major with each edge's groups in
  canonical order, and hands its edge runs to :meth:`EdgeQueues.append`,
  which links them onto per-edge FIFO queues and keeps each edge's
  token total; :meth:`EdgeQueues.take` reads only each queue's head -
  at most ``budget`` rows per edge - so which token moves when is the
  same on either slice;
* randomness is counter-based: node ``v`` holds a 64-bit key,
  :func:`walk_key` of the run's seed entropy, the node and the walk
  domain tag :data:`WALK_STREAM` (so no node reads another's bits, and
  the fault filter's hash never meets them), plus one int64 counter.
  Its ``j``-th draw is ``_mix64(key_v + j * GOLDEN)``
  (:mod:`repro.congest.splitmix`).  Damped thinning takes one draw per
  token (:func:`thin_groups`), then routing one per token at nodes of
  degree two or more (:func:`walk_ports`, Lemire's rule on the high 32
  bits; a rejected draw is skipped for the next counter value), each
  node's tokens in canonical group order.  That order is the stream
  contract: a draw depends on its key and counter only, so serving many
  nodes in one pass gives what serving them one by one would;
* the walk message format lives here once: :func:`walk_rows` encodes
  what :meth:`EdgeQueues.take` dequeues as message rows,
  :func:`sequence_walk_rows` gives each row its ARQ seq in reliable
  mode, and :func:`walk_groups` decodes arriving rows back into token
  groups.

What the slices do not share is how a round's rows travel.  The
per-message loop sends each row as ``copies``
:class:`~repro.congest.message.Message` objects (for the message log,
the CONGEST audit and the asynchronous executor).  The engine pushes
every row of the round at once: fault-free, priced from tables built
once (:func:`walk_bit_tables`) and tagged with their edge ids
(:meth:`BulkOutbox.push_priced`), as are the ``term`` and ``done``
rows; on lossy links sequenced through the ARQ table (which also
queues ``term`` and ``done`` as control) and pushed with
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
from repro.congest.message import TAG_BITS, int_bits_array
from repro.congest.splitmix import GOLDEN, _mix64_array, stream_key
from repro.obs.spans import NULL_PROFILER
from repro.core.termination import KIND_DONE, KIND_TERM, report_due
from repro.walks.batched import aggregate_network_groups

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import EdgeIndex, NodeProgram
    from repro.congest.reliable import LinkTable
    from repro.congest.transport import BulkOutbox, RoundOutbox
    from repro.core.walk_manager import WalkManager

KIND_WALK = "walk"
KIND_WALK_BATCH = "walkb"
WALK_KINDS = frozenset({KIND_WALK, KIND_WALK_BATCH})
#: The counting phase's control kinds, claimed by the engine as rows.
CONTROL_KINDS = (KIND_TERM, KIND_DONE)
#: The engine's kinds in a fixed order, for shipping ARQ sends as rows.
ROW_KINDS = (KIND_WALK, KIND_WALK_BATCH) + CONTROL_KINDS

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
_TWO32 = np.uint64(1 << 32)
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
    streams: WalkStreams,
    nodes: np.ndarray,
    needs: np.ndarray,
    advance: np.ndarray,
) -> np.ndarray:
    """The next ``needs[i]`` hashes of each distinct node ``nodes[i]``'s
    stream, concatenated in that order, and advance each counter by
    ``advance[i]`` (its ``needs[i]``, or 0 for a node whose draws go
    unused): draw ``j`` of the stream keyed ``k`` is ``_mix64(k + j *
    GOLDEN)``."""
    keys, counters = streams
    first = counters[nodes]
    counters[nodes] = first + advance
    # Each token's stream position, mod 2**64: its node's first
    # counter, less the node's offset in the concatenation, plus the
    # token's position.
    ends = needs.cumsum()
    bases = keys[nodes] + (first - ends + needs).astype(np.uint64) * _STEP
    return _mix64_array(
        bases.repeat(needs)
        + np.arange(int(ends[-1]), dtype=np.uint64) * _STEP
    )


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
    uniform.  A degree-1 node has one port and draws nothing: the rule
    gives it port 0 and no rejection whatever the hash, so its tokens
    ride the same pass and only its counter stays put.  Degrees must be
    below ``2**32``."""
    node_degrees = degrees[nodes]
    draws = _draw(streams, nodes, needs, needs * (node_degrees > 1))
    owner = np.arange(len(nodes)).repeat(needs)
    node_degrees = node_degrees.astype(np.uint64)
    m = (draws >> _SHIFT32) * node_degrees[owner]
    ports = (m >> _SHIFT32).astype(np.int64)
    thresholds = (_TWO32 - node_degrees) % node_degrees
    rejected = ((m & _LOW32) < thresholds[owner]).nonzero()[0]
    if len(rejected):
        # Each node keeps its accepted ports in order, then takes its
        # shortfall from its next counter values.
        keep = np.ones(len(ports), dtype=bool)
        keep[rejected] = False
        short = np.bincount(owner[rejected], minlength=len(nodes))
        refill = short.nonzero()[0]
        more = walk_ports(streams, degrees, nodes[refill], short[refill])
        owner = np.concatenate((owner[keep], refill.repeat(short[refill])))
        ports = np.concatenate((ports[keep], more))[
            owner.argsort(kind="stable")
        ]
    return ports


def thin_groups(
    streams: WalkStreams,
    heads: np.ndarray,
    arrived: np.ndarray,
    counts: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Damped mode: how many of each node-sorted group's ``counts``
    tokens survive their hop.  ``heads`` are the distinct nodes in
    order and ``arrived`` their tokens.  Each token survives with
    probability ``alpha``, on one draw of its node's stream: ``u <
    alpha``, with ``u`` the draw's top 53 bits as a float in ``[0,
    1)``.  A node's tokens draw in group order."""
    draws = _draw(streams, heads, arrived, arrived)
    alive = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53 < alpha
    return np.add.reduceat(alive, counts.cumsum() - counts, dtype=np.int64)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
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
    :func:`~repro.walks.batched.aggregate_network_groups`); its node
    runs are found once and serve every pass, since a group that is
    absorbed, thinned out or expired keeps its place with zero tokens.
    ``count_tensor`` is the ``(nodes, 2, n)`` view of a C-contiguous
    ``(2, nodes, n)`` array (the engine's tensor, or a manager's slab as
    ``half_counts[None]``).  ``max_degree`` goes unread and the streams
    keep the name ``rngs``: the benchmark's layer probe
    (``bench/probes.py``) wraps this function by its parameter list.

    Returns ``(entries, firsts, death_nodes, death_counts, next_seq)``:
    queue rows ``(edge id, seq, source, remaining_here, half, count)``
    and their edge runs' first rows, as :func:`route_entries` builds
    them for :meth:`EdgeQueues.append`; each distinct node of the round,
    ascending, with the tokens that died there (absorbed, thinned out or
    expired; zero where none did); and the advanced sequence counter.
    """
    starts = _run_starts(nodes)
    heads = nodes[starts]
    arrived = np.add.reduceat(counts, starts)
    if alpha is not None:
        visits = thin_groups(rngs, heads, arrived, counts, alpha)
    else:
        # Absorbing mode: arrivals at t die without counting the visit
        # (Eq. 3's removed row).
        visits = counts * (nodes != absorbing_target)
    # Tally: in canonical order a (node, source) cell's groups are
    # adjacent when every half is 0, so one sum per run and one write
    # per cell add the visits; a round with half-1 groups sorts first.
    cells_by_half = count_tensor.transpose(1, 0, 2)
    _, rows, n = cells_by_half.shape
    cells = nodes * n + sources
    tally = visits
    if halves.any():
        cells += halves * (rows * n)
        order = cells.argsort(kind="stable")
        cells, tally = cells[order], visits[order]
    runs = _run_starts(cells)
    flat = cells_by_half.reshape(-1)
    flat[cells[runs]] += np.add.reduceat(tally, runs).astype(flat.dtype)
    live = visits * (remainings > 0)
    needs = np.add.reduceat(live, starts)
    if needs.any():
        entries, firsts, seq_start = route_entries(
            nodes, sources, remainings, halves, live, heads, needs, rngs,
            degrees, offsets, seq_start,
        )
    else:
        entries, firsts = np.empty((0, 6), dtype=np.int64), _EMPTY
    return entries, firsts, heads, arrived - needs, seq_start


def route_entries(
    nodes: np.ndarray,
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
    heads: np.ndarray,
    needs: np.ndarray,
    streams: WalkStreams,
    degrees: np.ndarray,
    offsets: np.ndarray,
    seq_start: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sample next hops for a node-sorted group array and build its
    queue rows; returns ``(entries, firsts, next_seq)``.

    ``counts`` are the tokens each group routes (zero for a group that
    routes none), ``heads`` the array's distinct nodes in order and
    ``needs`` their routed tokens, at least one in all.  Each node's
    tokens take the next ports of that node's own stream
    (:func:`walk_ports`), in group order.  The rows come out in (edge,
    group) order: edge-major, and on each edge the groups in ascending
    order, which is that edge's FIFO order; ``firsts`` indexes each
    edge's first row, so :meth:`EdgeQueues.append` takes them as they
    are.  Both the counting round's survivors and the launch route
    through here."""
    groups = len(nodes)
    # Count tokens per (edge, group) cell with one sort of the tokens'
    # cell keys, ``edge << shift | group``: ascending keys are
    # edge-major, groups ascending within an edge.
    shift = groups.bit_length()
    keys = (
        (offsets[nodes] << shift) + np.arange(groups, dtype=np.int64)
    ).repeat(counts) + (walk_ports(streams, degrees, heads, needs) << shift)
    keys.sort()
    starts = _run_starts(keys)
    cells = keys[starts]
    edge = cells >> shift
    group_of = cells & ((1 << shift) - 1)
    entries = np.empty((len(cells), 6), dtype=np.int64)
    entries[:, 0] = edge
    entries[:, 1] = np.arange(
        seq_start, seq_start + len(cells), dtype=np.int64
    )
    entries[:, 2] = sources[group_of]
    entries[:, 3] = remainings[group_of]
    entries[:, 4] = halves[group_of]
    entries[:-1, 5] = starts[1:]
    entries[-1, 5] = len(keys)
    entries[:, 5] -= starts
    return entries, _run_starts(edge), seq_start + len(cells)


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
    edge, so a round costs what it sends, not the backlog.
    :attr:`edge_tokens` holds each edge's queued tokens, updated by the
    same index writes that link and unlink rows; the engine's per-node
    held counts are sums of it.  Rows a take empties stay in the store,
    dead, until an append finds it full: then it is compacted when dead
    rows outnumber live ones, and grown (2x) otherwise.  Rows are appended past every existing row and
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
        self.edge_tokens = np.zeros(num_edges, dtype=np.int64)
        self._size = self._base
        #: Live rows.
        self.rows = 0

    def append(self, entries: np.ndarray, firsts: np.ndarray) -> None:
        """Queue rows at the tails of their edges.  The rows come
        edge-major, each edge's in FIFO order, and ``firsts`` indexes
        each edge's first row, as :func:`route_entries` builds them."""
        size = len(entries)
        if not size:
            return
        self._reserve(size)
        lo = self._size
        hi = self._size = lo + size
        self._rows[lo:hi] = entries
        edges = entries[:, 0][firsts]
        tails = np.empty_like(firsts)
        tails[:-1] = firsts[1:]
        tails[-1] = size
        tails += lo - 1
        nxt = self._next
        nxt[lo:hi] = np.arange(lo + 1, hi + 1, dtype=np.int64)
        nxt[tails] = self._null
        nxt[self._tail[edges]] = firsts + lo
        self._tail[edges] = tails
        self.edge_tokens[edges] += np.add.reduceat(entries[:, 5], firsts)
        self.rows += size

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
        tokens = self.edge_tokens
        active = tokens.nonzero()[0]
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
        # rows than it holds tokens.
        width = min(width, int(tokens[active].max()))
        queue = policy is TransportPolicy.QUEUE
        per_edge = isinstance(slots, np.ndarray)
        nxt = self._next
        counts = self._rows[:, 5]
        # Slot by slot down every active chain at once: ``chain[:, j]``
        # is each edge's ``j``-th row (the null row past its end), one
        # column past the rows read, for the new heads.
        chain = np.empty((len(active), width + 1), dtype=np.int64)
        take = np.empty((len(active), width), dtype=np.int64)
        left = slots
        row = chain[:, 0] = nxt[active]
        for slot in range(width):
            count = counts[row]
            if queue:
                sends = np.minimum(count, left)
                left = left - sends
            elif per_edge:
                sends = count * (slot < slots)
            else:
                sends = count
            take[:, slot] = sends
            row = chain[:, slot + 1] = nxt[row]
        flat_take = take.ravel()
        sending = flat_take.nonzero()[0]
        sent_rows = chain[:, :width].ravel()[sending]
        taken = flat_take[sending]
        sent = self._rows.take(sent_rows, axis=0)
        rest = counts[sent_rows] - taken
        counts[sent_rows] = rest
        # The rows a take empties are a prefix of each chain.
        emptied = sending[rest == 0]
        new_heads = chain.ravel()[
            np.arange(0, chain.size, width + 1)
            + np.bincount(emptied // width, minlength=len(active))
        ]
        nxt[active] = new_heads
        if queue:
            tokens[active] -= slots - left
        else:
            tokens[active] -= np.add.reduce(take, axis=1)
        drained = active[new_heads == self._null]
        self._tail[drained] = drained
        self.rows -= len(emptied)
        return sent, taken

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
        live = base + self._rows[base:self._size, 5].nonzero()[0]
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
    its manager over its view of the engine's count tensor and calls
    :meth:`register`.  The scheduler calls :meth:`end_round` once per
    round after the per-node loop; on its first call the engine launches
    every node's walks and takes over all walk movement from there.

    ``table``: the run's ARQ table (a
    :class:`~repro.congest.reliable.LinkTable`) on lossy links, None on
    fault-free ones.  On lossy links the engine dedups, acks and
    sequences walk tokens through the table, accepts ``term`` and
    ``done`` rows, queues reports and the done wave as control, and
    flushes the counting nodes' channels.  ``split_sampling``: both
    halves of the count tensor will be written, which
    :func:`check_tensor_fits` counts before it is allocated.
    ``fault_runtime`` names the crashed nodes.
    """

    def __init__(
        self,
        edges: EdgeIndex,
        table: "LinkTable | None",
        walks_per_source: int,
        length: int,
        split_sampling: bool,
        fault_runtime=None,
        profiler=NULL_PROFILER,
        instruments=None,
    ) -> None:
        n = edges.n
        self.n = n
        self._table = table
        self._reliable = table is not None
        self.claimed_kinds = WALK_KINDS | set(CONTROL_KINDS)
        # xi tensors and per-node aggregates; managers hold views into
        # ``counts`` so both access paths see the same numbers.  The
        # cells are stored half-first, ``[half, node, source]``, and
        # ``counts`` is the ``(n, 2, n)`` view ``[node, half, source]``:
        # outside split mode nothing writes half 1, so its pages are
        # never made resident.
        dtype = count_dtype(walks_per_source, length)
        check_tensor_fits(n, dtype, 2 if split_sampling else 1)
        self.counts = np.zeros((2, n, n), dtype=dtype).transpose(1, 0, 2)
        self.deaths = np.zeros(n, dtype=np.int64)
        self._programs: dict[int, NodeProgram] = {}
        # Every node's walk stream: its key (filled at register) and
        # its next counter value.
        self._streams: WalkStreams = (
            np.zeros(n, dtype=np.uint64),
            np.zeros(n, dtype=np.int64),
        )
        self._fault_runtime = fault_runtime
        # Telemetry (observation-only): spans time the engine's kernels;
        # instruments count emitted walk messages.  Never read back by
        # the protocol.
        self._profiler = profiler
        self._instruments = instruments
        # Every directed edge's FIFO queue of pending token groups.
        self._queues = EdgeQueues(len(edges.dst))
        self._seq = 0
        self._finalized = False
        # The run's directed edges (``SharedFastPathState.edges``, the
        # LinkTable's slots): edge ``offsets[v] + port`` is ``v ->
        # neighbors[port]``.
        self._offsets = edges.offsets
        self._targets = edges.dst
        self._degrees = edges.degrees
        self._edge_src = edges.src
        self._max_degree = int(edges.degrees.max())
        self._policy: TransportPolicy = TransportPolicy.QUEUE
        self._budget = 1
        # Fault-free, the engine prices walk, ``term`` and ``done`` rows
        # itself (:func:`walk_bit_tables` and a ``term`` row's bits by
        # its total, filled at finalize) and tags them with their edge
        # ids, so the outbox's drain reads each edge's load off the rows
        # instead of merging them.
        self._head_bits = self._hop_bits = self._term_bits = _EMPTY
        self._alpha: float | None = None
        self._absorbing_target = -1
        # The convergecast: per node, the children's summed reports, the
        # last total it reported, its latest report its parent has
        # heard, whether it left counting, its tree parent (-1 at the
        # root) and the edges to and from it.  Local deaths are
        # ``deaths``.
        self._child_sum = np.zeros(n, dtype=np.int64)
        self._last_reported = np.full(n, -1, dtype=np.int64)
        self._heard = np.zeros(n, dtype=np.int64)
        self._stopped = np.zeros(n, dtype=bool)
        self._parent = np.full(n, -1, dtype=np.int64)
        self._parent_edge = np.full(n, -1, dtype=np.int64)
        self._child_edge = np.full(n, -1, dtype=np.int64)
        self._expected_total = 0

    # ------------------------------------------------------------------
    # Per-node hook (called from the node programs)
    # ------------------------------------------------------------------
    def register(
        self, program: "NodeProgram", manager: WalkManager, parent: int | None
    ) -> None:
        """Adopt one node, whose tree parent is ``parent`` (None at the
        root).  The manager must tally into ``counts[node]`` (pass it as
        ``half_counts``); the engine launches its walks at the first
        :meth:`end_round`."""
        node = manager.node_id
        if node in self._programs:
            raise ProtocolError(
                f"node {node} registered twice with the walk engine"
            )
        manager.attach_engine(self)
        self._programs[node] = program
        self._streams[0][node] = manager.walk_key
        self._parent[node] = -1 if parent is None else parent

    # ------------------------------------------------------------------
    # Driver hooks (called by the scheduler, once per round)
    # ------------------------------------------------------------------
    def receive_rows(
        self, round_number: int, claimed: dict[str, ClaimedKind]
    ) -> None:
        """Lossy links: run this round's ``term`` and ``done`` rows
        through the receive windows before the node pass, as handlers
        would, so every flush of the round acks them.  A row's
        multiplicity becomes its fresh copies (0 for a duplicate)."""
        if not self._reliable:
            return
        table = self._table
        for kind in CONTROL_KINDS:
            rows = claimed.get(kind)
            if rows is not None:
                senders, receivers, fields, multiplicity = rows
                fresh = table.accept_rows(
                    table.slots(receivers, senders), fields[:, -1],
                    multiplicity,
                )
                claimed[kind] = (
                    senders, receivers, fields, fresh.astype(np.int64)
                )

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
        term = claimed.pop(KIND_TERM, None)
        done = claimed.pop(KIND_DONE, None)
        # The nodes that leave counting this round: first, ascending,
        # the counting receivers of a fresh ``done``.
        stopping = np.zeros(self.n, dtype=bool)
        if done is not None:
            _, receivers, _, fresh = done
            stopping[receivers[fresh > 0]] = True
            stopping &= ~self._stopped
            self._leave_counting(np.flatnonzero(stopping), round_number)
        crashed = (
            self._fault_runtime.crashed(round_number)
            if self._fault_runtime is not None
            else frozenset()
        )
        if self._reliable and (claimed or term or done):
            with profiler.span("engine.dedup"):
                claimed = self._dedup(
                    claimed, (term, done), stopping, round_number, outbox,
                    bulk_outbox,
                )
        moved = self._process_arrivals(claimed) if claimed else _EMPTY
        if launch_round:
            # No node has reported yet, so every total is due.
            moved = np.arange(self.n, dtype=np.int64)
        if term or len(moved) or done is not None:
            with profiler.span("engine.post_round"):
                self._convergecast_round(
                    round_number, bulk_outbox, term, moved, stopping
                )
        retransmits = None
        if self._reliable:
            with profiler.span("engine.arq_flush"):
                retransmits = self._flush_channels(
                    round_number, crashed, stopping, outbox, bulk_outbox
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
        if len(self._programs) != self.n:
            raise ProtocolError(
                f"walk engine started with {len(self._programs)}/{self.n} "
                "nodes registered"
            )
        first = self._programs[0]._walks
        self._policy = first.policy
        self._budget = first.walk_budget
        self._alpha = first.survival_alpha
        self._absorbing_target = first.target
        self._launch(first)
        # In damped mode every node launches K walks; in absorbing mode
        # the target sits out.
        launchers = self.n if self._alpha is not None else self.n - 1
        self._expected_total = launchers * first.walks_per_source
        # Each node's edge to its tree parent, and that parent's edge
        # back to it (the root has neither).
        uplinks = np.flatnonzero(
            self._targets == self._parent[self._edge_src]
        )
        self._parent_edge[self._edge_src[uplinks]] = uplinks
        downlinks = np.flatnonzero(
            self._edge_src == self._parent[self._targets]
        )
        self._child_edge[self._targets[downlinks]] = downlinks
        if not self._reliable:
            self._head_bits, self._hop_bits = walk_bit_tables(
                self.n, first.length
            )
            self._term_bits = TAG_BITS + int_bits_array(
                np.arange(self._expected_total + 1)
            )
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
        entries, firsts, self._seq = route_entries(
            nodes, nodes, np.full(len(nodes), manager.length), halves,
            counts, launchers, np.full(len(launchers), sum(group_counts)),
            self._streams, self._degrees, self._offsets, 0,
        )
        self._queues.append(entries, firsts)

    def _dedup(
        self,
        claimed: dict[str, ClaimedKind],
        control: tuple[ClaimedKind | None, ...],
        stopping: np.ndarray,
        round_number: int,
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> dict[str, ClaimedKind]:
        """Lossy links: run every claimed walk row through the
        receiver's ARQ before counting, and settle the late rows.

        Each walk kind's rows go through :meth:`LinkTable.accept_rows
        <repro.congest.reliable.LinkTable.accept_rows>`, the rule the
        per-message loop applies to each token message: a first-seen
        seq is fresh (kept, multiplicity one - fault duplication cannot
        double a token), a repeat is rejected, and every copy past the
        fresh one counts as a rejected duplicate.  Within a round the
        final receive windows do not depend on arrival order, so the
        slow path's arrival order and this row order agree byte for
        byte.

        A row is late when its receiver left counting before this round
        (the exchange driver flushed it, or nobody steps it once done).
        Late walk rows and late ``control`` rows (``term`` and ``done``,
        accepted in :meth:`receive_rows`) are settled in one
        :meth:`LinkTable.settle
        <repro.congest.reliable.LinkTable.settle>`."""
        out: dict[str, ClaimedKind] = {}
        table = self._table
        stopped = self._stopped
        late: list[np.ndarray] = []
        for rows in control:
            if rows is not None:
                senders, receivers = rows[0], rows[1]
                mine = stopped[receivers] & ~stopping[receivers]
                if mine.any():
                    late.append(table.slots(receivers[mine], senders[mine]))
        for kind, (senders, receivers, fields, multiplicity) in (
            claimed.items()
        ):
            slots = table.slots(receivers, senders)
            fresh = table.accept_rows(slots, fields[:, -1], multiplicity)
            past = stopped[receivers]
            lost = np.flatnonzero(fresh & past)
            if len(lost):
                node = int(receivers[lost[0]])
                raise ProtocolError(
                    "fresh walk token arrived during "
                    f"{self._programs[node].phase} at node {node}: "
                    "recovery lost a death"
                )
            late.append(slots[past & ~stopping[receivers]])
            keep = np.flatnonzero(fresh)
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
            table.ship(sends, outbox, bulk_outbox, ROW_KINDS)
        return out

    def _process_arrivals(
        self, claimed: dict[str, ClaimedKind]
    ) -> np.ndarray:
        """One round of Algorithm 1 lines 7-15 for the whole network.

        Returns the nodes whose death count changed this round,
        ascending."""
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
            entries, firsts, heads, node_deaths, self._seq = (
                counting_round_kernel(
                    nodes, sources, remainings, halves, counts,
                    self._streams, self._alpha, self._absorbing_target,
                    self.counts, self._degrees, self._offsets,
                    self._max_degree, self._seq,
                )
            )
        self.deaths[heads] += node_deaths
        self._queues.append(entries, firsts)
        return heads[node_deaths > 0]

    @property
    def held(self) -> np.ndarray:
        """Tokens queued on each node's out-edges."""
        tokens = self._queues.edge_tokens
        return np.bincount(self._edge_src, tokens, self.n).astype(np.int64)

    def held_walks(self, node: int) -> int:
        """Tokens queued on ``node``'s own out-edges."""
        start, end = self._offsets[node:node + 2]
        return int(self._queues.edge_tokens[start:end].sum())

    def _leave_counting(self, nodes: np.ndarray, round_number: int) -> None:
        """Move ``nodes`` (ascending) into the exchange phase."""
        self._stopped[nodes] = True
        programs = self._programs
        for node in nodes.tolist():
            programs[node]._enter_exchange(round_number)

    def _convergecast_round(
        self,
        round_number: int,
        bulk_outbox: "BulkOutbox",
        term: ClaimedKind | None,
        moved: np.ndarray,
        stopping: np.ndarray,
    ) -> None:
        """Each node's :class:`~repro.core.termination.DeathCounterLogic`
        round at once: fold this round's fresh ``term`` rows into the
        subtree totals, report every due total (:func:`report_due`), let
        a complete root start the done wave, and relay ``done`` from
        every node in ``stopping``.  A total moves only at ``moved``
        (the nodes whose deaths rose this round, ascending; every node
        in the launch round) and at the parents of children whose
        report rose, so only those nodes are examined: as in the
        per-node counters, no other node has anything due.  A round
        that only relays ``done`` skips the fold and the report pass.

        Reports and the wave carry the per-node messages' fields, bits
        and edges: priced pushes fault-free, and on lossy links control
        queued with one :meth:`LinkTable.queue_rows
        <repro.congest.reliable.LinkTable.queue_rows>` call per kind.
        Under loss the wave floods every edge (an ``adopt`` may still be
        in flight, so the tree is not a safe overlay)."""
        if term is not None:
            marks = np.zeros(self.n, dtype=bool)
            marks[moved] = True
            marks[self._fold_reports(term)] = True
            moved = marks.nonzero()[0]
        if len(moved):
            total = self.deaths[moved] + self._child_sum[moved]
            stopped = self._stopped[moved]
            parents = self._parent[moved]
            due = report_due(
                total, self._last_reported[moved], stopped, parents
            )
            reporters = moved[due]
            if len(reporters):
                totals = total[due]
                self._last_reported[reporters] = totals
                edges = self._parent_edge[reporters]
                if self._reliable:
                    self._table.queue_rows(
                        edges, KIND_TERM, totals[:, None], latest=True
                    )
                else:
                    bulk_outbox.push_priced(
                        KIND_TERM,
                        reporters,
                        parents[due],
                        self._term_bits[totals],
                        edges=edges,
                        fields=totals[:, None],
                    )
            complete = moved[
                (parents < 0) & ~stopped & (total >= self._expected_total)
            ]
            if len(complete):
                stopping[complete] = True
                self._leave_counting(complete, round_number)
        if not stopping.any():
            return
        if self._reliable:
            slots = np.flatnonzero(stopping[self._edge_src])
            self._table.queue_rows(
                slots,
                KIND_DONE,
                np.zeros((len(slots), 0), dtype=np.int64),
                latest=True,
            )
            return
        children = np.flatnonzero(
            stopping[self._parent] & (self._parent >= 0)
        )
        bulk_outbox.push_priced(
            KIND_DONE,
            self._parent[children],
            children,
            np.full(len(children), TAG_BITS, dtype=np.int64),
            edges=self._child_edge[children],
        )

    def _fold_reports(self, term: ClaimedKind) -> np.ndarray:
        """Fold fresh ``term`` rows into the children's summed reports
        and return the parents whose sum rose.  Monotone: a child's
        largest report of the round counts, by how far it exceeds the
        one its parent last heard."""
        senders, receivers, fields, fresh = term
        strangers = (self._parent[senders] != receivers).nonzero()[0]
        if len(strangers):
            bad = strangers[0]
            raise ProtocolError(
                f"termination report from non-child {int(senders[bad])} "
                f"at node {int(receivers[bad])}"
            )
        reports = fields[:, 0]
        if not fresh.all():
            rows = fresh.nonzero()[0]
            senders, reports = senders[rows], reports[rows]
        if not (senders[1:] > senders[:-1]).all():
            # Keep each child's largest report: the last of its run
            # once sorted by child, then report.
            order = np.lexsort((reports, senders))
            last = np.empty(len(order), dtype=bool)
            last[-1:] = True
            np.not_equal(
                senders[order[1:]], senders[order[:-1]], out=last[:-1]
            )
            senders, reports = senders[order[last]], reports[order[last]]
        rise = reports - self._heard[senders]
        up = rise > 0
        senders, rise = senders[up], rise[up]
        self._heard[senders] += rise
        sums = np.bincount(
            self._parent[senders], weights=rise, minlength=self.n
        )
        raised = sums.nonzero()[0]
        self._child_sum[raised] += sums[raised].astype(np.int64)
        return raised

    def _flush_channels(
        self,
        round_number: int,
        crashed: frozenset,
        stopping: np.ndarray,
        outbox: "RoundOutbox",
        bulk_outbox: "BulkOutbox",
    ) -> np.ndarray | None:
        """Run the per-round ARQ flush (:meth:`LinkTable.flush
        <repro.congest.reliable.LinkTable.flush>`) for every node the
        engine owns this round: counting nodes plus the ones that left
        counting this round.  (Setup and done nodes flush in their own
        handlers or through a settle, exchange nodes in the exchange
        driver; a crashed node flushes nothing, same as the per-message
        loop skipping it.)  Returns the token retransmissions per edge,
        the fresh budget debits for :meth:`_emit`, or None if there were
        none."""
        owned = ~self._stopped | stopping
        if crashed:
            owned[list(crashed)] = False
        nodes = np.flatnonzero(owned)
        if not len(nodes):
            return None
        debits, sends, _ = self._table.flush(nodes, round_number)
        self._table.ship(sends, outbox, bulk_outbox, ROW_KINDS)
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
        kind, edges, fields, copies = walk_rows(
            sent, taken, self._policy, self._reliable
        )
        if self._instruments is not None:
            self._instruments.bump_round(
                "walk_sends", round_number, int(copies.sum())
            )
        senders = self._edge_src[edges]
        receivers = self._targets[edges]
        if self._reliable:
            sequence_walk_rows(kind, edges, fields, round_number, self._table)
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


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each equal-value run of a non-empty array starts (the
    array sorted, or at least with each value in one run)."""
    boundary = np.empty(len(values), dtype=bool)
    boundary[0] = True
    np.not_equal(values[1:], values[:-1], out=boundary[1:])
    return boundary.nonzero()[0]
