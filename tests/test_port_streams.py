"""Unit tests of :class:`repro.walks.streams.PortStreams`.

The reference is ``np.random.Generator.integers`` itself, not the old
kernel: every case draws the same ports on a fresh copy of each node's
generator and checks both the values and the stream position.  The
position check replays the ports plus the values still read ahead on a
fresh copy, then compares the next raw uint32 of both generators.  This
pins the installed NumPy's bounded-integer algorithm (Lemire's rule on
the ``next_uint32`` stream); an upgrade that changes it fails here.
"""

import copy

import numpy as np
import pytest

from repro.walks.streams import DEFAULT_READ_AHEAD, PortStreams, lemire_ports

#: 2**31 + 1 has threshold 2**31 - 1: about half of all raw values are
#: rejected, so the redraw path runs on nearly every segment.
DEGREES = [1, 2, 3, 7, 66, 2**31 + 1]


def _fresh(seed):
    return np.random.default_rng(seed)


def _streams(degrees, read_ahead, seed=7):
    rngs = {node: _fresh([seed, node]) for node in range(len(degrees))}
    return PortStreams(rngs, np.array(degrees, dtype=np.int64), read_ahead)


class _Reference:
    """Per-node ``integers`` calls on fresh generators, plus the total
    each node has drawn so far."""

    def __init__(self, degrees, seed=7):
        self.degrees = degrees
        self.seed = seed
        self.rngs = [_fresh([seed, node]) for node in range(len(degrees))]
        self.drawn = [0] * len(degrees)

    def ports(self, nodes, needs):
        parts = [np.zeros(0, dtype=np.int64)]
        for node, need in zip(nodes.tolist(), needs.tolist()):
            parts.append(
                self.rngs[node].integers(0, self.degrees[node], size=need)
            )
            self.drawn[node] += need
        return np.concatenate(parts)

    def assert_same_position(self, streams):
        """Replay the node's draws and its unread values on a fresh
        copy; the next raw value must match the stream's generator."""
        for node, degree in enumerate(self.degrees):
            replay = _fresh([self.seed, node])
            replay.integers(0, degree, size=self.drawn[node])
            unread = streams.unread(node)
            assert np.array_equal(
                replay.integers(0, 1 << 32, size=len(unread), dtype=np.uint32),
                unread,
            )
            probe = copy.deepcopy(streams[node])
            assert replay.integers(0, 1 << 32, dtype=np.uint32) == (
                probe.integers(0, 1 << 32, dtype=np.uint32)
            )


def _check(streams, reference, nodes, needs):
    nodes = np.asarray(nodes, dtype=np.int64)
    needs = np.asarray(needs, dtype=np.int64)
    got = streams.ports(nodes, needs)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference.ports(nodes, needs))


@pytest.mark.parametrize("read_ahead", [0, 5, DEFAULT_READ_AHEAD])
@pytest.mark.parametrize("degree", DEGREES)
def test_single_node_matches_integers(degree, read_ahead):
    streams = _streams([degree], read_ahead)
    reference = _Reference([degree])
    for need in [0, 1, 3, 0, 17, 2, read_ahead + 9, 4]:
        _check(streams, reference, [0], [need])
    reference.assert_same_position(streams)


@pytest.mark.parametrize("read_ahead", [0, 8])
def test_many_nodes_one_pass(read_ahead):
    rng = np.random.default_rng(3)
    streams = _streams(DEGREES, read_ahead)
    reference = _Reference(DEGREES)
    for _ in range(400):
        nodes = np.sort(
            rng.choice(len(DEGREES), size=rng.integers(1, 7), replace=False)
        )
        needs = rng.integers(0, 3 * max(read_ahead, 4), size=len(nodes))
        _check(streams, reference, nodes, needs)
    reference.assert_same_position(streams)


def test_need_exactly_the_remaining_buffer():
    block = 16
    streams = _streams([3, 7], block)
    reference = _Reference([3, 7])
    _check(streams, reference, [0, 1], [5, 1])
    assert len(streams.unread(0)) == block - 5
    _check(streams, reference, [0, 1], [block - 5, block - 1])
    assert len(streams.unread(0)) == 0
    assert len(streams.unread(1)) == 0
    reference.assert_same_position(streams)
    _check(streams, reference, [0, 1], [1, 1])
    reference.assert_same_position(streams)


def test_need_larger_than_the_block_drains_then_draws_directly():
    block = 8
    streams = _streams([66], block)
    reference = _Reference([66])
    _check(streams, reference, [0], [3])
    assert len(streams.unread(0)) == block - 3
    _check(streams, reference, [0], [block * 5])
    # Nothing is read ahead past a direct draw.
    assert len(streams.unread(0)) == 0
    reference.assert_same_position(streams)


def test_read_ahead_zero_reads_exactly_what_it_maps():
    streams = _streams([3, 66], 0)
    reference = _Reference([3, 66])
    for needs in ([4, 9], [0, 1], [30, 2]):
        _check(streams, reference, [0, 1], needs)
        # No value is ever held back, so the generator itself sits at
        # the reference position after every call.
        reference.assert_same_position(streams)


def test_degree_one_consumes_nothing():
    streams = _streams([1, 2], 4)
    reference = _Reference([1, 2])
    _check(streams, reference, [0, 1], [50, 3])
    assert streams.generator_calls == 1
    assert len(streams.unread(0)) == 0
    reference.assert_same_position(streams)


def test_generator_calls_grow_with_refills_not_calls():
    block = 64
    streams = _streams([5], block)
    reference = _Reference([5])
    for _ in range(100):
        _check(streams, reference, [0], [4])
    # Blocks ramp 16, 32, then 64 per refill: 16 + 32 + 6 * 64 >= 400
    # draws takes 8 refills, not 100 calls.
    assert streams.generator_calls == 8
    reference.assert_same_position(streams)


def test_read_ahead_follows_demand():
    """A node that draws a few ports holds a small block, not a full
    ``read_ahead`` one."""
    streams = _streams([3, 3], DEFAULT_READ_AHEAD)
    reference = _Reference([3, 3])
    _check(streams, reference, [0, 1], [2, 40])
    assert len(streams.unread(0)) == 16 - 2
    assert len(streams.unread(1)) == 40 - 40
    _check(streams, reference, [1], [1])
    assert len(streams.unread(1)) == 80 - 1
    reference.assert_same_position(streams)


def test_rejections_are_skipped_like_numpy():
    degree = 2**31 + 1
    threshold = np.uint64((2**32 - degree) % degree)
    raw = _fresh(1).integers(0, 1 << 32, size=64, dtype=np.uint32)
    ports, rejected = lemire_ports(raw, np.uint64(degree), threshold)
    assert 0 < rejected.sum() < len(raw)
    expected = _fresh(1).integers(0, degree, size=int((~rejected).sum()))
    assert np.array_equal(ports[~rejected], expected)
