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

Equivalence with per-node processing is by construction, not luck:

* arrivals are canonicalized network-wide by
  :func:`~repro.walks.batched.aggregate_network_groups`, whose per-node
  segments are exactly the canonical group order
  :func:`~repro.walks.batched.aggregate_groups` yields node-by-node;
* randomness stays attributed: each node's segment is thinned/routed
  from *that node's own generator*, and each node's stream is the same
  raw uint32 sequence :meth:`WalkManager.receive_group_arrays` reads,
  only read ahead: :class:`~repro.walks.streams.PortStreams` maps it to
  the same ports ``rng.integers`` would, for every node in one array
  pass (damped mode reads nothing ahead, because the binomial thinning
  shares the generator) - and since the generators are independent,
  the cross-node interleaving is immaterial;
* the launch routes each node's launch groups
  (:func:`~repro.core.walk_manager.launch_groups`, in that order)
  through the same :func:`route_entries` the arrivals use, from the same
  per-node streams ``WalkManager.launch`` draws from; every launch
  happens in one round, so no node's stream is read out of turn;
* the pending-token table is ordered by (edge, arrival sequence), each
  edge's rows in canonical group order - the per-node FIFO order - and
  the engine's segmented-cumsum emission takes tokens per edge in
  exactly the slow path's head-of-queue/budget-splitting order, so
  which token moves when under the bandwidth budget is bit-identical;
* emission ships the same per-message fields through
  :meth:`BulkOutbox.push_rows`, which charges the same bits and counts
  the per-message path would; so do the convergecast's ``term`` rows,
  chosen by the same :func:`~repro.core.termination.report_due` rule
  each per-node counter applies.

The tested guarantee (``tests/test_walks_batched.py``,
``tests/test_counting_bookends.py``): same seed in, identical tallies,
estimates, round counts, and traffic accounting out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.congest.reliable import InLinkFlatState
from repro.obs.spans import NULL_PROFILER
from repro.core.termination import KIND_TERM, DeathCounterLogic, report_due
from repro.core.walk_manager import (
    KIND_WALK,
    KIND_WALK_BATCH,
    TransportPolicy,
    WalkManager,
    launch_groups,
    sequence_block,
)
from repro.walks.batched import aggregate_network_groups
from repro.walks.streams import DEFAULT_READ_AHEAD, PortStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.congest.node import BulkRoundContext, EdgeIndex, NodeProgram
    from repro.congest.transport import BulkOutbox, RoundOutbox

#: Claimed traffic of one kind: (senders, receivers, fields, multiplicity).
ClaimedKind = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.zeros(0, dtype=np.int64)


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
    zero-remaining tokens, and sample next hops into pending-table
    entries.  ``rngs`` is the run's
    :class:`~repro.walks.streams.PortStreams`: ``rngs[node]`` is the
    node's generator (damped thinning draws from it) and
    ``rngs.ports`` serves every node's next hops in one pass, from the
    same raw per-node streams, read ahead.  The kernel is a pure
    function of its inputs plus those per-node streams.

    ``nodes`` must be sorted ascending (the canonical order from
    :func:`~repro.walks.batched.aggregate_network_groups`).  ``degrees``
    goes unread (the streams carry the degrees they map with); it stays
    in the parameter list because the benchmark's layer probe
    (``bench/probes.py``) wraps this function by its exact signature.
    Returns
    ``(entries, death_nodes, death_counts, next_seq)``: pending-table
    rows ``(edge id, seq, source, remaining_here, half, count)``, the
    death deltas to fold into the convergecast (unaggregated pairs; the
    caller ``np.add.at``s them), and the advanced sequence counter.
    """
    death_node_parts: list[np.ndarray] = []
    death_count_parts: list[np.ndarray] = []
    if alpha is not None:
        # Damped mode: per node, one binomial over its canonical
        # segment - the same single thin_groups call the slow path
        # makes with the same generator.
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
        np.add.at(count_tensor, (nodes, halves, sources), counts)
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
            max_degree, seq_start,
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
    max_degree: int,
    seq_start: int,
) -> tuple[np.ndarray, int]:
    """Sample next hops for a non-empty node-sorted group array and
    build its pending-table rows; returns ``(entries, next_seq)``.

    Each node's tokens take the next ports of that node's own stream, in
    segment order - the same ports
    :func:`~repro.walks.batched.route_groups` draws.  The draws,
    expansion, histogramming, and entry building are each one batch over
    the whole array.  Both the counting round's survivors and the
    launch route through here."""
    groups = len(nodes)
    token_group = np.repeat(np.arange(groups, dtype=np.int64), counts)
    starts, _ = _segments(nodes)
    draws = rngs.ports(nodes[starts], np.add.reduceat(counts, starts))
    # Histogram tokens into (group, chosen port) cells.  Ascending cell
    # index is group-major: for any fixed edge, groups enter the pending
    # table in ascending segment order - the same per-edge FIFO order
    # the per-node path produces.
    flat = np.bincount(
        token_group * max_degree + draws, minlength=groups * max_degree
    )
    cells = np.nonzero(flat)[0]
    group_of = cells // max_degree
    port = cells - group_of * max_degree
    entries = np.empty((len(cells), 6), dtype=np.int64)
    entries[:, 0] = offsets[nodes[group_of]] + port
    entries[:, 1] = np.arange(
        seq_start, seq_start + len(cells), dtype=np.int64
    )
    entries[:, 2] = sources[group_of]
    entries[:, 3] = remainings[group_of]
    entries[:, 4] = halves[group_of]
    entries[:, 5] = flat[cells]
    return entries, seq_start + len(cells)


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

    def __init__(self, edges: EdgeIndex, convergecast: bool) -> None:
        n = edges.n
        self.n = n
        self.claimed_kinds = frozenset(
            {KIND_WALK, KIND_WALK_BATCH}
            | ({KIND_TERM} if convergecast else set())
        )
        self._convergecast = convergecast
        # xi tensors and per-node aggregates; managers hold views into
        # ``counts`` so both access paths see the same numbers.
        self.counts = np.zeros((n, 2, n), dtype=np.int64)
        self.held = np.zeros(n, dtype=np.int64)
        self.deaths = np.zeros(n, dtype=np.int64)
        self._round_deaths = np.zeros(n, dtype=np.int64)
        self._programs: dict[int, NodeProgram] = {}
        self._managers: dict[int, WalkManager] = {}
        self._counters: dict[int, DeathCounterLogic] = {}
        self._contexts: dict[int, BulkRoundContext] = {}
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
        # Reliable fast path: directed-edge lookup ((s << 32) | t ->
        # edge id) and the flat numpy mirror of the InLink cursors used
        # for array-level dedup.  Built at finalize in reliable mode.
        self._edge_index: dict[int, int] | None = None
        self._in_state: InLinkFlatState | None = None
        self._control_arrivals: list[tuple[int, int, int, int, int]] = []
        self._transitioned: set[int] = set()
        self._fault_runtime = None
        # Telemetry (observation-only; installed from ctx.shared at
        # register time).  Spans time the engine's kernels; instruments
        # count emitted walk messages.  Never read back by the protocol.
        self._profiler = NULL_PROFILER
        self._instruments = None
        # Pending-token table, one row per queued group:
        # (edge id, arrival seq, source, remaining_here, half, count).
        # Rows with equal edge id in ascending seq order ARE that
        # directed edge's FIFO queue; ``_emit`` keeps it that way.
        self._pending = np.empty((0, 6), dtype=np.int64)
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
        ctx: "BulkRoundContext",
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
        shared = getattr(ctx, "shared", None)
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
            with profiler.span("engine.arrivals"):
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
        if len(self._pending):
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
        else:
            # Every node launched this round, so every node's counter
            # owes its first report.
            self._touched.update(range(self.n))
        if self._reliable:
            self._edge_index = {
                (int(s) << 32) | int(t): edge
                for edge, (s, t) in enumerate(
                    zip(self._edge_src, self._targets)
                )
            }
            self._in_state = InLinkFlatState(len(self._targets))
        self._finalized = True

    def _launch(self, manager: WalkManager) -> None:
        """Algorithm 1 line 3 for the whole network, in one routing pass.

        Every launching node (all of them in damped mode; all but the
        absorbing target otherwise) contributes its
        :func:`~repro.core.walk_manager.launch_groups` at ``remaining =
        l``.  A launch skips thinning and expiry (``l >= 1``), counts the
        start visit only under ``count_initial``, and routes through
        :func:`route_entries` from the streams ``WalkManager.launch``
        would have drawn from - so its ports, and each edge's FIFO
        order, are the per-node launch's."""
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
            self.counts[nodes, halves, nodes] += counts
        entries, self._seq = route_entries(
            nodes,
            nodes,
            np.full(len(nodes), manager.length, dtype=np.int64),
            halves,
            counts,
            self._streams,
            self._offsets,
            self._max_degree,
            0,
        )
        np.add.at(self.held, self._edge_src[entries[:, 0]], entries[:, 5])
        self._pending = entries

    def _dedup_claimed(
        self,
        claimed: dict[str, ClaimedKind],
        round_number: int,
        outbox: "RoundOutbox",
    ) -> dict[str, ClaimedKind]:
        """Reliable mode: run every claimed walk row through the
        receiver's ARQ before counting.

        Mirrors, row by row, what the per-message loop does with each
        token message: a first-seen seq is fresh (kept, multiplicity
        one - fault duplication cannot double a token), a repeat is
        rejected, and a receiver still in setup leaves the row unacked
        so the sender retransmits it past the launch round.  InLink
        state updates here are order-independent within a round, so the
        slow path's arrival order and this row order agree byte for
        byte.

        A receiver past counting flushes in its own round handler,
        which ran before this pass; its accepts here are settled by
        :meth:`_settle_late_accepts` instead."""
        out: dict[str, ClaimedKind] = {}
        flat = self._in_state
        channels = self._channels
        late: dict[int, set[int]] = {}
        for kind, (senders, receivers, fields, multiplicity) in (
            claimed.items()
        ):
            rows = len(receivers)
            keep = np.zeros(rows, dtype=bool)
            seqs = fields[:, -1]
            recv_list = receivers.tolist()
            send_list = senders.tolist()
            phase_of = {
                node: self._programs[node].phase for node in set(recv_list)
            }
            # Receivers still in setup (crashed through the launch
            # round): no accept, no ack; the sender retries later.
            eligible = np.fromiter(
                (phase_of[node] != "setup" for node in recv_list),
                dtype=bool, count=rows,
            )
            if not eligible.any():
                continue
            positions = np.nonzero(eligible)[0]
            e_senders = senders[positions]
            e_receivers = receivers[positions]
            e_seqs = seqs[positions]
            edge_keys = (e_senders << np.int64(32)) | e_receivers
            # A repeat of an (edge, seq) already seen earlier in this
            # batch is a duplicate; the stable sort keeps the earliest
            # row first in each run.
            sort_order = np.lexsort(
                (np.arange(len(positions)), e_seqs, edge_keys)
            )
            sorted_keys = edge_keys[sort_order]
            sorted_seqs = e_seqs[sort_order]
            repeat = np.zeros(len(positions), dtype=bool)
            repeat[1:] = (sorted_keys[1:] == sorted_keys[:-1]) & (
                sorted_seqs[1:] == sorted_seqs[:-1]
            )
            intra_dup = np.zeros(len(positions), dtype=bool)
            intra_dup[sort_order] = repeat
            unique_keys, first_pos, inverse = np.unique(
                edge_keys, return_index=True, return_inverse=True
            )
            links = [
                channels[node].inn[sender]
                for sender, node in zip(
                    e_senders[first_pos].tolist(),
                    e_receivers[first_pos].tolist(),
                )
            ]
            edge_index = self._edge_index
            edge_ids = [edge_index[key] for key in unique_keys.tolist()]
            # Every touched edge ends the round owing an ack; tell the
            # receiver's channel so its flush visits the edge.
            for sender, node in zip(
                e_senders[first_pos].tolist(),
                e_receivers[first_pos].tolist(),
            ):
                channels[node].mark_active(sender)
            flat.pull(edge_ids, links)
            edge_id_arr = np.fromiter(
                edge_ids, dtype=np.int64, count=len(edge_ids)
            )
            row_edge = edge_id_arr[inverse]
            offsets = e_seqs - flat.cum[row_edge] - 1
            # Rows the uint64 mirror cannot decide (link mask wider
            # than 63 bits, or a seq more than 62 ahead of the cursor)
            # fall back to per-row accepts after the array pass.
            narrow = ~flat.wide[row_edge] & (offsets <= 62)
            in_window = narrow & (offsets >= 0)
            already = np.zeros(len(positions), dtype=bool)
            already[in_window] = (
                (
                    flat.mask[row_edge[in_window]]
                    >> offsets[in_window].astype(np.uint64)
                )
                & np.uint64(1)
            ).astype(bool)
            fresh = in_window & ~already & ~intra_dup
            if fresh.any():
                accepted_edge = inverse[fresh]
                bits = (
                    np.uint64(1) << offsets[fresh].astype(np.uint64)
                )
                acc_order = np.argsort(accepted_edge, kind="stable")
                acc_edges = accepted_edge[acc_order]
                acc_bits = bits[acc_order]
                seg_starts, _ = _segments(acc_edges)
                merged = np.bitwise_or.reduceat(acc_bits, seg_starts)
                touched = edge_id_arr[acc_edges[seg_starts]]
                mask = flat.mask[touched] | merged
                # The run of trailing ones is the contiguous prefix the
                # cursor slides past; its length is the exponent of the
                # lowest zero bit.
                lowest_zero = (mask + np.uint64(1)) & ~mask
                _, exponents = np.frexp(lowest_zero.astype(np.float64))
                advance = (exponents - 1).astype(np.int64)
                flat.cum[touched] += advance
                flat.mask[touched] = mask >> advance.astype(np.uint64)
                keep[positions[fresh]] = True
            # Write the advanced cursors back (and owe the acks every
            # accept - fresh or duplicate - owes).  Wide edges were
            # never mirrored; their rows settle through the fallback.
            pushable = [
                j for j in range(len(edge_ids))
                if not flat.wide[edge_ids[j]]
            ]
            if len(pushable) == len(edge_ids):
                flat.push(edge_ids, links)
            else:
                flat.push(
                    [edge_ids[j] for j in pushable],
                    [links[j] for j in pushable],
                )
            overflow = eligible.copy()
            overflow[positions] = ~narrow
            for row in np.nonzero(overflow)[0].tolist():
                node = recv_list[row]
                link = channels[node].inn[send_list[row]]
                if link.accept(int(seqs[row])):
                    keep[row] = True
            past_counting = {
                node for node, phase in phase_of.items()
                if phase not in ("setup", "counting")
                and node not in self._transitioned
            }
            if past_counting:
                for sender, node in zip(send_list, recv_list):
                    if node in past_counting:
                        late.setdefault(node, set()).add(sender)
            if keep.any():
                bad = keep & np.fromiter(
                    (phase_of[node] != "counting" for node in recv_list),
                    dtype=bool, count=rows,
                )
                if bad.any():
                    row = int(np.nonzero(bad)[0][0])
                    node = recv_list[row]
                    raise ProtocolError(
                        "fresh walk token arrived during "
                        f"{phase_of[node]} at node {node}: recovery "
                        "lost a death"
                    )
            # Every eligible row charges the receiver's dup counter its
            # full multiplicity, minus one when the row survived.
            rejected_copies = np.where(
                eligible, multiplicity - keep.astype(np.int64), 0
            )
            per_receiver = np.bincount(
                receivers, weights=rejected_copies, minlength=self.n
            ).astype(np.int64)
            for node in np.nonzero(per_receiver)[0].tolist():
                channels[node].stats.duplicates_rejected += int(
                    per_receiver[node]
                )
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
        nodes, sources, remainings, halves, counts = (
            aggregate_network_groups(*raw)
        )
        entries, death_nodes, death_counts, self._seq = counting_round_kernel(
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
            if len(self._pending):
                self._pending = np.concatenate((self._pending, entries))
            else:
                self._pending = entries
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
        one ``push_rows`` - the same fields, bits and edges as the
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
            bulk_outbox.push_rows(
                KIND_TERM, reporters, self._parent[reporters], totals[:, None]
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
        budget (same head-splitting / whole-group rules as
        :meth:`WalkManager.emit_round`) and ship the whole round as one
        aggregate push.

        QUEUE charges the budget per *token* and may split the group at
        the queue head; BATCH charges it per *group message*.  Both are
        computed for all edges at once: order the pending table by
        (edge, seq) and a segmented cumulative sum yields each group's
        take under its edge's budget - exactly the decisions the
        per-edge head-of-queue loop would make.

        Under faults the budget becomes per edge: ``retransmits`` debits
        slots the ARQ flush already spent, and edges out of a crashed
        node get zero (the per-message loop skips the node outright, so
        its queues just wait).  In reliable mode every shipped token
        needs its own seq, so QUEUE groups expand to one row per token
        and each row is sequenced through the sender's channel in the
        same per-edge FIFO order the slow path sends in."""
        pending = self._pending
        # The table is kept rows, already in (edge, seq) order, followed
        # by this round's kernel rows, whose seqs exceed every kept seq
        # on their edge and ascend within it.  So a stable sort on the
        # edge alone yields (edge, seq) order, and the kept rows enter it
        # as one presorted run.
        order = np.argsort(pending[:, 0], kind="stable")
        pending = pending[order]
        edges = pending[:, 0]
        counts = pending[:, 5]
        starts, ends = _segments(edges)
        lengths = ends - starts
        budget: int | np.ndarray = self._budget
        if retransmits or crashed:
            edge_budget = np.full(
                len(self._targets), self._budget, dtype=np.int64
            )
            if retransmits:
                for edge_id, spent in retransmits.items():
                    edge_budget[edge_id] = max(0, self._budget - spent)
            if crashed:
                edge_budget[
                    np.isin(self._edge_src, np.array(sorted(crashed)))
                ] = 0
            budget = edge_budget[edges]
        if self._policy is TransportPolicy.QUEUE:
            prior = np.cumsum(counts) - counts
            prior_within = prior - np.repeat(prior[starts], lengths)
            take = np.clip(budget - prior_within, 0, counts)
        else:
            rank = np.arange(len(edges), dtype=np.int64) - np.repeat(
                starts, lengths
            )
            take = np.where(rank < budget, counts, 0)
        sendable = take > 0
        sent = pending[sendable]
        taken = take[sendable]
        edge_ids = sent[:, 0]
        senders = self._edge_src[edge_ids]
        np.subtract.at(self.held, senders, taken)
        if self._instruments is not None:
            # Same message-count convention as WalkManager.send_round:
            # QUEUE ships one message per token, BATCH one per group.
            sent_messages = (
                int(taken.sum())
                if self._policy is TransportPolicy.QUEUE
                else len(sent)
            )
            if sent_messages:
                self._instruments.bump_round(
                    "walk_sends", round_number, sent_messages
                )
        if self._reliable:
            self._emit_reliable(
                bulk_outbox, round_number, sent, taken, senders
            )
        elif self._policy is TransportPolicy.QUEUE:
            fields = np.empty((len(sent), 3), dtype=np.int64)
            fields[:, 0] = sent[:, 2]
            fields[:, 1] = sent[:, 3] - 1
            fields[:, 2] = sent[:, 4]
            bulk_outbox.push_rows(
                KIND_WALK,
                senders,
                self._targets[edge_ids],
                fields,
                taken,
            )
        else:
            fields = np.empty((len(sent), 4), dtype=np.int64)
            fields[:, 0] = sent[:, 2]
            fields[:, 1] = sent[:, 3] - 1
            fields[:, 2] = sent[:, 4]
            fields[:, 3] = taken
            bulk_outbox.push_rows(
                KIND_WALK_BATCH,
                senders,
                self._targets[edge_ids],
                fields,
            )
        left = counts - take
        waiting = left > 0
        if waiting.any():
            kept = pending[waiting]
            kept[:, 5] = left[waiting]
            self._pending = kept
        else:
            self._pending = pending[:0]

    def _emit_reliable(
        self,
        bulk_outbox: "BulkOutbox",
        round_number: int,
        sent: np.ndarray,
        taken: np.ndarray,
        senders: np.ndarray,
    ) -> None:
        """Ship this round's emitted tokens with per-token sequencing.

        Rows arrive sorted by (edge, arrival seq), so walking them in
        order assigns each directed edge the same consecutive seqs the
        per-message loop's ``send_round`` would (it also sends
        head-of-queue first).  QUEUE groups expand to multiplicity-one
        rows because each token message carries a distinct seq."""
        if not len(sent):
            return
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
                start_seq = sequence_block(
                    channels[int(row_senders[lo])],
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
                start_seq = sequence_block(
                    channels[int(senders[lo])],
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
    """Start/end index pairs of the equal-node runs of a sorted array."""
    boundary = np.empty(len(nodes), dtype=bool)
    boundary[0] = True
    np.not_equal(nodes[1:], nodes[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    ends = np.append(starts[1:], len(nodes))
    return starts, ends
