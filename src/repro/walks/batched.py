"""Vectorized batched-walk kernel: advance many walk tokens at once.

The counting phase of the paper's Algorithm 1 moves `O(nK)` walk tokens
simultaneously, one hop per round.  Executing each token as its own
Python object (and each hop as its own `rng` call) makes the simulation
cost `O(tokens)` Python dispatches per round; Das Sarma et al.'s
distributed random-walk framework (arXiv:1302.4544) observes that the
whole per-round step is a single *batched* primitive: every token
resident at a node advances by one i.i.d. uniform step, so all of a
node's tokens can be routed with one vectorized draw over its CSR
adjacency row.

This module holds that primitive's group algebra and its centralized
form:

* **group algebra** - in-flight tokens are represented as *groups*
  ``(node, source, remaining, half) -> count`` held in parallel numpy
  arrays.  :func:`aggregate_network_groups` canonicalizes any multiset
  of groups (deterministically, independent of arrival order), which is
  why the randomness a node consumes depends only on what arrived, not
  on how it was delivered;
* **token arrays** - :func:`step_tokens` is the fully centralized
  variant used by the Monte-Carlo engine (`repro.walks.simulate`), where
  no per-node bookkeeping is needed at all.

The counting round built on the groups - thinning, visit tallies,
expiry, next-hop sampling and budgeted emission - is one kernel in
:mod:`repro.core.walk_engine`.  The CONGEST scheduler's fast path runs
it over the whole network; each per-node
`repro.core.walk_manager.WalkManager` runs it on its one-node slice.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "aggregate_network_groups",
    "csr_arrays",
    "step_tokens",
]


def csr_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Compressed adjacency ``(offsets, targets)`` in canonical index
    space: node ``i``'s neighbors are ``targets[offsets[i]:offsets[i+1]]``,
    sorted ascending."""
    order = graph.canonical_order()
    index = {node: i for i, node in enumerate(order)}
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    targets_list: list[int] = []
    for i, node in enumerate(order):
        neighbor_indices = sorted(index[v] for v in graph.neighbors(node))
        targets_list.extend(neighbor_indices)
        offsets[i + 1] = len(targets_list)
    return offsets, np.array(targets_list, dtype=np.int64)


def aggregate_network_groups(
    nodes: np.ndarray,
    sources: np.ndarray,
    remainings: np.ndarray,
    halves: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge token groups with identical ``(node, source, remaining,
    half)``, across every node at once.

    The result is sorted by that tuple - the *canonical order*, which
    is the load-bearing property: each node's segment is its groups
    sorted by ``(source, remaining, half)`` whatever the order they
    arrived in, and the kernel draws the node's randomness in that
    order.  A one-node call (all ``nodes`` equal) canonicalizes a
    single node's arrivals.
    """
    if len(nodes) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (empty, empty.copy(), empty.copy(), empty.copy(),
                empty.copy())
    source_base = int(sources.max()) + 1
    remaining_base = int(remainings.max()) + 1
    key = (
        (nodes * source_base + sources) * remaining_base + remainings
    ) * 2 + halves
    # The key is injective over the tuple, so every index in a run of
    # equal keys carries the same tuple and any sort yields the same
    # groups and sums.
    order = key.argsort()
    sorted_key = key[order]
    boundary = np.empty(len(sorted_key), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
    starts = boundary.nonzero()[0]
    merged = np.add.reduceat(counts[order], starts)
    first = order[starts]
    return (
        nodes[first],
        sources[first],
        remainings[first],
        halves[first],
        merged.astype(np.int64, copy=False),
    )


def step_tokens(
    rng: np.random.Generator,
    offsets: np.ndarray,
    targets: np.ndarray,
    degrees: np.ndarray,
    current: np.ndarray,
) -> np.ndarray:
    """Advance a flat token array by one uniform step each (centralized
    form: one draw for the whole network, used by the Monte-Carlo
    engine where no per-node randomness attribution is needed)."""
    steps = rng.integers(0, degrees[current])
    return targets[offsets[current] + steps]
