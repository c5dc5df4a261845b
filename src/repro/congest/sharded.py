"""Multi-process sharded execution of the counting walk engine.

The counting phase is the run's hot loop, and its per-round work - the
:func:`~repro.core.walk_engine.counting_round_kernel` over the canonical
group arrays - factors cleanly by node: every kernel effect (thinning,
visit tallies, expiry, next-hop draws) reads and writes state owned by
the group's node.  :class:`ShardedWalkEngine` exploits that by
partitioning the node id space into ``num_shards`` contiguous ranges
(the prefix-distribution idiom of rank-partitioned betweenness codes)
and running each range's kernel slice in its own forked worker process,
with the shared count tensor in POSIX shared memory so visit tallies
land in place without serialization.

Per round the parent still runs everything order-sensitive or
network-global - claimed-traffic dedup, canonical aggregation, the
pending-table merge, termination reporting, budgeted emission - and
fans only the kernel out:

1. split the canonical arrays at the shard bounds (they are sorted by
   node, so each shard's groups form one contiguous slice),
2. ship each non-empty slice down that worker's pipe,
3. collect ``(entries, death_nodes, death_counts)`` replies in shard
   order and merge.

**Determinism.**  Byte-identity with the single-process fast path holds
structurally, not statistically:

* Every node's stream (its generator plus its read-ahead buffer) is
  consumed in exactly one worker (forked at finalize, after the launch
  draws), and the kernel reads it in the same canonical per-node
  segment order as the single-process call, so every node sees the
  same raw uint32 sequence and draws the same ports.
* Concatenating the shard replies in shard order reproduces the exact
  global entry row order (shards own ascending node ranges, and the
  kernel emits cells group-major).
* Sequence numbers are worker-local counters (each starts at the
  parent's post-launch value).  Two workers reuse the same values, but
  a sequence number is only ever *compared* within one directed edge's
  FIFO, and each edge is owned by its source node's single shard, where
  the counter is strictly increasing - so the emission's stable sort by
  edge orders every queue exactly as the single-process engine does.
* Death deltas are returned as unaggregated pairs and folded with
  ``np.add.at``; addition commutes, so the convergecast totals match.

Reliable (lossy) runs work unchanged: ARQ dedup, acking, and
retransmission all happen in the parent before/after the kernel.

**Lifecycle.**  Workers are daemonic and are reaped by :meth:`close`,
which the scheduler calls on every exit path.  A worker that dies or
raises surfaces as :class:`~repro.congest.errors.ShardExecutionError`
with the shard index and remote traceback - never a hang.  The shared
segment is unlinked at close but stays mapped in the parent, so count
views held by node programs remain valid for the result's lifetime.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.congest.errors import ConfigError, ShardExecutionError
from repro.core.walk_engine import CountingWalkEngine, counting_round_kernel
from repro.walks.streams import PortStreams

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from repro.congest.node import EdgeIndex


def _shard_worker(
    conn: "Connection",
    counts: np.ndarray,
    streams: PortStreams,
    alpha: float | None,
    absorbing_target: int,
    degrees: np.ndarray,
    offsets: np.ndarray,
    max_degree: int,
    seq_start: int,
) -> None:
    """Worker main loop: run kernel slices until told to stop.

    Forked from the parent at engine finalize, so ``counts`` is the
    parent's shared-memory mapping (writes are visible immediately) and
    ``streams`` is a copy of the parent's per-node streams in their
    exact post-launch state; the worker only ever reads its own nodes'.
    Any failure is reported up the pipe as a formatted traceback; the
    parent turns it into a
    :class:`~repro.congest.errors.ShardExecutionError`.
    """
    seq = seq_start
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, nodes, sources, remainings, halves, group_counts = message
            entries, death_nodes, death_counts, seq = counting_round_kernel(
                nodes,
                sources,
                remainings,
                halves,
                group_counts,
                streams,
                alpha,
                absorbing_target,
                counts,
                degrees,
                offsets,
                max_degree,
                seq,
            )
            conn.send(("ok", entries, death_nodes, death_counts))
    except (EOFError, KeyboardInterrupt):
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class ShardedWalkEngine(CountingWalkEngine):
    """A :class:`CountingWalkEngine` whose kernel runs across processes.

    Drop-in replacement selected by ``Simulator(num_shards=...)``
    through the protocol's engine hook; everything outside
    :meth:`_run_kernel` - registration, finalize, claimed-traffic
    handling, termination, emission - is inherited verbatim.
    """

    def __init__(
        self, edges: EdgeIndex, num_shards: int, convergecast: bool
    ) -> None:
        n = edges.n
        if num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if num_shards > n:
            raise ConfigError(
                f"num_shards={num_shards} exceeds the {n} nodes available"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "the sharded executor needs the 'fork' start method "
                "(workers must inherit post-launch generator state); "
                "it is unavailable on this platform"
            )
        super().__init__(edges, convergecast)
        self.num_shards = num_shards
        # Re-home the count tensor in a POSIX shared-memory segment so
        # worker tallies land in the parent's view without copies.
        # tmpfs pages are zero on first touch, matching np.zeros.
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, n * 2 * n) * 8
        )
        self.counts = np.ndarray(
            (n, 2, n), dtype=np.int64, buffer=self._shm.buf
        )
        # Contiguous node ranges; the canonical arrays are node-sorted,
        # so each shard's slice is one searchsorted window.
        self._bounds = np.linspace(0, n, num_shards + 1).astype(np.int64)
        self._conns: list["Connection"] = []
        self._procs: list[multiprocessing.Process] = []
        self._round_number = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        super()._finalize()
        # Fork now: the walks are launched and every node stream sits in
        # its exact post-launch state, which the workers must inherit
        # (and the parent must stop consuming).
        ctx = multiprocessing.get_context("fork")
        for shard in range(self.num_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    self.counts,
                    self._streams,
                    self._alpha,
                    self._absorbing_target,
                    self._degrees,
                    self._offsets,
                    self._max_degree,
                    self._seq,
                ),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def close(self) -> None:
        """Reap workers and unlink the shared segment (idempotent).

        Called by the scheduler on every exit path.  The segment stays
        *mapped* in this process - node programs hold live views into
        the count tensor - and is freed with the last mapping.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Kernel fan-out
    # ------------------------------------------------------------------
    def end_round(self, round_number, claimed, outbox, bulk_outbox) -> None:
        self._round_number = round_number
        super().end_round(round_number, claimed, outbox, bulk_outbox)

    def _run_kernel(
        self,
        nodes: np.ndarray,
        sources: np.ndarray,
        remainings: np.ndarray,
        halves: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        cut = np.searchsorted(nodes, self._bounds)
        active: list[int] = []
        for shard in range(self.num_shards):
            lo, hi = int(cut[shard]), int(cut[shard + 1])
            if lo == hi:
                continue
            try:
                self._conns[shard].send(
                    (
                        "step",
                        nodes[lo:hi],
                        sources[lo:hi],
                        remainings[lo:hi],
                        halves[lo:hi],
                        counts[lo:hi],
                    )
                )
            except (BrokenPipeError, OSError) as exc:
                raise self._worker_error(shard, repr(exc)) from exc
            active.append(shard)
        entry_parts: list[np.ndarray] = []
        death_node_parts: list[np.ndarray] = []
        death_count_parts: list[np.ndarray] = []
        instruments = self._instruments
        for shard in active:
            try:
                reply = self._conns[shard].recv()
            except (EOFError, OSError) as exc:
                raise self._worker_error(shard, repr(exc)) from exc
            if reply[0] != "ok":
                raise self._worker_error(shard, reply[1])
            _, entries, death_nodes, death_counts = reply
            entry_parts.append(entries)
            death_node_parts.append(death_nodes)
            death_count_parts.append(death_counts)
            if instruments is not None:
                # Per-shard load counters, same sparse round-counter
                # schema as the engine's own telemetry.
                instruments.bump_round(
                    f"shard{shard}_groups",
                    self._round_number,
                    int(cut[shard + 1] - cut[shard]),
                )
                instruments.bump_round(
                    f"shard{shard}_entries",
                    self._round_number,
                    len(entries),
                )
        if not entry_parts:
            empty = np.zeros(0, dtype=np.int64)
            return np.empty((0, 6), dtype=np.int64), empty, empty, self._seq
        # Shards own ascending node ranges and the kernel emits cells
        # group-major, so shard-order concatenation IS the global
        # canonical entry order of the single-process kernel.
        return (
            np.concatenate(entry_parts),
            np.concatenate(death_node_parts),
            np.concatenate(death_count_parts),
            self._seq,
        )

    def _worker_error(self, shard: int, detail: str) -> ShardExecutionError:
        proc = self._procs[shard]
        exitcode = proc.exitcode if not proc.is_alive() else None
        return ShardExecutionError(
            f"shard {shard}/{self.num_shards} worker failed during round "
            f"{self._round_number}: {detail.strip().splitlines()[-1]}",
            context={
                "shard": shard,
                "num_shards": self.num_shards,
                "round": self._round_number,
                "exitcode": exitcode,
                "detail": detail,
            },
        )
