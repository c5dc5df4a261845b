"""The one splitmix64 hash behind every stateless random decision.

Two layers draw their randomness from counters instead of sequential
generators: the fault filter (:mod:`repro.congest.faults`), which hashes
``(plan seed, round, edge, kind, index)`` per message, and the walk
streams (:mod:`repro.core.walk_engine`), where node ``v``'s ``j``-th
draw is ``_mix64(key_v + j * GOLDEN)``.  A value depends only on its
key and counter, never on how many draws other nodes (or other
messages) made before it, so a network-wide array pass and a one-node
call reach the same values.

:func:`_mix64_array` is the array form; :func:`_mix64_int` its pure-int
twin, for callers that hash one value at a time (the asynchronous
executor's fault fates, the per-node stream keys), where a one-element
numpy round trip would dominate.  The twins are pinned to each other by
tests.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
#: The splitmix64 increment (2**64 / golden ratio): consecutive counter
#: values of a stream are this far apart.
GOLDEN = 0x9E3779B97F4A7C15


_GOLDEN = np.uint64(GOLDEN)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_FACTORS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer for 1-d uint64 arrays.
    Elementwise ufuncs on arrays wrap silently (only numpy *scalar*
    arithmetic warns on overflow), so no ``errstate`` guard is needed."""
    z = values + _GOLDEN
    z ^= z >> _SHIFTS[0]
    z *= _FACTORS[0]
    z ^= z >> _SHIFTS[1]
    z *= _FACTORS[1]
    z ^= z >> _SHIFTS[2]
    return z


def _mix64_int(value: int) -> int:
    """Scalar splitmix64 finalizer in pure Python ints (identical to
    :func:`_mix64_array` mod 2**64, without numpy scalar overhead)."""
    z = (value + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_key(entropy: int, tag: int, index: int) -> int:
    """The 64-bit key of stream ``index`` in domain ``tag`` of a run
    seeded with ``entropy`` (a non-negative int of any width, folded in
    64 bits at a time).  Different tags give unrelated keys for the
    same index, so one domain's draws say nothing about another's."""
    h = _mix64_int(tag & MASK64)
    while True:
        h = _mix64_int(h ^ (entropy & MASK64))
        entropy >>= 64
        if not entropy:
            break
    return _mix64_int(h ^ ((index * GOLDEN) & MASK64))
