"""Per-node next-hop streams, read ahead and mapped in one array pass.

Every node of Algorithm 1 forwards each token it holds to a uniformly
random neighbour, using only its own randomness.  The simulator keeps
that as one ``np.random.Generator`` per node, and a node's ports are
what ``rng.integers(0, degree, size=k)`` would draw.

For ``2 <= d < 2**32`` that call is a deterministic function of the
generator's raw ``next_uint32`` stream: each raw value ``u`` becomes
``m = u * d``; the port is ``m >> 32``; the value is rejected (skipped)
when ``m mod 2**32 < (2**32 - d) mod d`` (Lemire's rule).  ``d == 1``
consumes nothing.  ``rng.integers(0, 2**32, size=B, dtype=np.uint32)``
reads the same raw stream.

:class:`PortStreams` uses that to serve a whole round of next-hop draws
for many nodes at once: it reads a block of raw values ahead from each
node's own generator, gathers every active node's next ``need`` values
with one fancy index, and maps them all in one pass.  The ports are
byte-identical to the per-node ``integers`` calls, so read-ahead is
invisible to everything downstream; only the number of generator calls
changes (it grows with refills, not with rounds times nodes).  The
vectorized engine holds one stream set for the whole network; each
per-message :class:`~repro.core.walk_manager.WalkManager` holds a
one-node set over its own generator.  Both route through the same
:func:`~repro.core.walk_engine.route_entries`.

Two cases take an exact per-node path instead of the block gather: a
node whose ``need`` exceeds the block (it drains its buffer, then draws
the rest from its generator), and a node whose segment contains a
rejected value (it redraws only the shortfall).  With ``read_ahead=0``
every node takes the first path, so each round reads exactly the values
it maps - the mode for damped walks, where the generator also serves
``binomial`` in between and nothing may be read ahead.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

__all__ = ["DEFAULT_READ_AHEAD", "PortStreams", "lemire_ports"]

#: Largest block of raw values read ahead per refill, per node (uint32,
#: so at most 1 KiB a node).
DEFAULT_READ_AHEAD = 256

#: A node's first read-ahead block; each refill doubles it, up to the
#: stream's ``read_ahead``.
_FIRST_BLOCK = 16

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def lemire_ports(
    raw: np.ndarray, degree, threshold
) -> tuple[np.ndarray, np.ndarray]:
    """Map raw uint32 draws to ports in ``[0, degree)``.

    ``degree`` and ``threshold`` (``(2**32 - degree) % degree``) are
    uint64 scalars or per-value arrays.  Returns ``(ports, rejected)``;
    a rejected value yields no port and the stream moves on to the next.
    """
    m = raw.astype(np.uint64) * degree
    return (m >> _SHIFT32).astype(np.int64), (m & _LOW32) < threshold


class PortStreams:
    """Next-hop ports from each node's own generator, many nodes at once.

    ``streams[node]`` is still the node's generator (damped mode draws
    its ``binomial`` from it); drawing from it directly is only
    consistent with :meth:`ports` when ``read_ahead`` is 0.

    Buffers are uint32 segments of one flat pool.  A node's read-ahead
    block starts small and doubles with each refill, up to
    ``read_ahead``, so memory follows each node's demand: a node that
    routes a dozen tokens a run never holds hundreds.

    Each node's stream is consumed in order and only by :meth:`ports`.
    """

    def __init__(
        self,
        rngs: Mapping[int, np.random.Generator],
        degrees: np.ndarray,
        read_ahead: int = DEFAULT_READ_AHEAD,
    ) -> None:
        n = len(degrees)
        self._rngs = [rngs[node] for node in range(n)]
        self._degrees = np.asarray(degrees, dtype=np.uint64)
        self._threshold = (np.uint64(1 << 32) - self._degrees) % np.maximum(
            self._degrees, np.uint64(1)
        )
        self.read_ahead = read_ahead
        # Each node's unread values are ``_pool[_pos[node]:_stop[node]]``;
        # refills append a new segment at ``_used`` and leave the old one
        # as garbage until the pool is compacted.
        self._pos = np.zeros(n, dtype=np.int64)
        self._stop = np.zeros(n, dtype=np.int64)
        self._block = np.zeros(n, dtype=np.int64)
        self._pool = np.empty(0, dtype=np.uint32)
        self._used = 0
        #: Generator calls made so far (refills plus direct draws).
        self.generator_calls = 0

    def __getitem__(self, node: int) -> np.random.Generator:
        return self._rngs[node]

    def unread(self, node: int) -> np.ndarray:
        """The raw values read ahead from ``node``'s generator and not
        yet mapped, in stream order."""
        return self._pool[self._pos[node]:self._stop[node]].copy()

    def ports(self, nodes: np.ndarray, needs: np.ndarray) -> np.ndarray:
        """Ports for ``needs[i]`` tokens at ``nodes[i]``, concatenated in
        that order; equal to ``rngs[node].integers(0, degree, need)``
        per node.  ``nodes`` must be distinct and every degree below
        ``2**32``."""
        degrees = self._degrees[nodes]
        routed = degrees > 1
        if routed.all():
            routed_tokens = None
        else:
            # Degree-1 nodes have one port and draw nothing.
            routed_tokens = np.repeat(routed, needs)
            nodes, needs, degrees = nodes[routed], needs[routed], degrees[routed]
        ports, rejected = lemire_ports(
            self._raw(nodes, needs, int(needs.sum())),
            np.repeat(degrees, needs),
            np.repeat(self._threshold[nodes], needs),
        )
        if rejected.any():
            self._redraw_rejected(nodes, needs, ports, rejected)
        if routed_tokens is None:
            return ports
        out = np.zeros(len(routed_tokens), dtype=np.int64)
        out[routed_tokens] = ports
        return out

    def _raw(
        self, nodes: np.ndarray, needs: np.ndarray, draws: int
    ) -> np.ndarray:
        """The next ``needs[i]`` raw values of each node, concatenated."""
        buffered = needs <= self.read_ahead
        if buffered.all():
            return self._gather(nodes, needs, draws)
        raw = np.empty(draws, dtype=np.uint32)
        if buffered.any():
            b_needs = needs[buffered]
            raw[np.repeat(buffered, needs)] = self._gather(
                nodes[buffered], b_needs, int(b_needs.sum())
            )
        direct = ~buffered
        raw[np.repeat(direct, needs)] = np.concatenate(
            [
                self._take(node, need)
                for node, need in zip(
                    nodes[direct].tolist(), needs[direct].tolist()
                )
            ]
        )
        return raw

    def _gather(
        self, nodes: np.ndarray, needs: np.ndarray, draws: int
    ) -> np.ndarray:
        """Block path: refill the nodes that run short, then read every
        node's segment with one fancy index."""
        short = needs > self._stop[nodes] - self._pos[nodes]
        if short.any():
            for node, need in zip(
                nodes[short].tolist(), needs[short].tolist()
            ):
                self._refill(node, need)
        pos = self._pos[nodes]
        ends = np.cumsum(needs)
        index = np.arange(draws, dtype=np.int64) + np.repeat(
            pos - (ends - needs), needs
        )
        self._pos[nodes] = pos + needs
        return self._pool[index]

    def _refill(self, node: int, need: int) -> None:
        """Read the node's next block ahead, after its unread values."""
        block = min(
            self.read_ahead,
            max(need, 2 * int(self._block[node]), _FIRST_BLOCK),
        )
        self._block[node] = block
        left = int(self._stop[node] - self._pos[node])
        start = self._reserve(left + block)
        pool, pos = self._pool, int(self._pos[node])
        pool[start:start + left] = pool[pos:pos + left]
        pool[start + left:start + left + block] = self._rngs[node].integers(
            0, 1 << 32, size=block, dtype=np.uint32
        )
        self.generator_calls += 1
        self._pos[node] = start
        self._stop[node] = start + left + block

    def _reserve(self, size: int) -> int:
        """Start of ``size`` free pool slots; when the pool is full, copy
        the unread values of every node to the front of a new pool
        twice their size, so appends stay amortized O(1)."""
        if self._used + size > len(self._pool):
            live = self._stop - self._pos
            ends = np.cumsum(live)
            total = int(ends[-1])
            pool = np.empty(max(2 * (total + size), 1024), dtype=np.uint32)
            # Slice copies, not a gather: an int64 index would take twice
            # the memory of the values it moves.
            for pos, stop, end in zip(
                self._pos.tolist(), self._stop.tolist(), ends.tolist()
            ):
                pool[end - (stop - pos):end] = self._pool[pos:stop]
            self._pool = pool
            self._pos = ends - live
            self._stop = ends
            self._used = total
        start = self._used
        self._used += size
        return start

    def _take(self, node: int, count: int) -> np.ndarray:
        """Exact path: the node's next ``count`` raw values, buffered
        ones first, the rest straight from its generator (nothing read
        ahead)."""
        pos = int(self._pos[node])
        head = min(count, int(self._stop[node]) - pos)
        if head:
            self._pos[node] = pos + head
            if head == count:
                return self._pool[pos:pos + head]
        self.generator_calls += 1
        tail = self._rngs[node].integers(
            0, 1 << 32, size=count - head, dtype=np.uint32
        )
        if head:
            return np.concatenate((self._pool[pos:pos + head], tail))
        return tail

    def _redraw_rejected(
        self,
        nodes: np.ndarray,
        needs: np.ndarray,
        ports: np.ndarray,
        rejected: np.ndarray,
    ) -> None:
        """Exact path for segments with rejections: keep the accepted
        ports in order and draw only the shortfall, until full."""
        ends = np.cumsum(needs)
        owner = np.searchsorted(ends, np.nonzero(rejected)[0], side="right")
        for i in np.unique(owner).tolist():
            node, need = int(nodes[i]), int(needs[i])
            lo, hi = int(ends[i]) - need, int(ends[i])
            kept = [ports[lo:hi][~rejected[lo:hi]]]
            missing = need - len(kept[0])
            while missing:
                more, bad = lemire_ports(
                    self._take(node, missing),
                    self._degrees[node],
                    self._threshold[node],
                )
                kept.append(more[~bad])
                missing -= len(kept[-1])
            ports[lo:hi] = np.concatenate(kept)
