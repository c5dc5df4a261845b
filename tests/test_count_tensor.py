"""The visit-count tensor: its cell type and its signed read-out.

Every counter ``xi_v[s]`` is bounded by ``K * (l + 1)``, so the counts
are stored in :func:`~repro.core.walk_engine.count_dtype` cells -
``uint32`` below ``2**32`` - by both scheduler loops.  Unsigned cells
make one read-out fragile: the split-mode noise floor subtracts half 1
from half 0, which is negative in some cells.  Both loops would wrap
the same way, so the cross-loop equivalence tests cannot see it; the
floor is recomputed here from int64 copies of the halves instead.
"""

import numpy as np
import pytest

from repro.congest.scheduler import Simulator
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.flow_math import betweenness_from_raw_flow, node_raw_flow
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.walk_engine import count_dtype
from repro.graphs.generators import erdos_renyi_graph

LOOPS = {"fast": True, "per-message": False}


class TestCountDtype:
    def test_uint32_up_to_the_bound(self):
        # K * (l + 1) = 2**32 - 1 = 3 * 1431655765.
        assert count_dtype(3, 1431655764) is np.uint32
        assert count_dtype(1, 2**32 - 2) is np.uint32

    def test_int64_from_the_bound(self):
        # K * (l + 1) = 2**32.
        assert count_dtype(2**16, 2**16 - 1) is np.int64
        assert count_dtype(1, 2**32 - 1) is np.int64

    @pytest.mark.parametrize("vectorized", LOOPS.values(), ids=LOOPS)
    def test_result_counts_use_it(self, vectorized):
        graph = erdos_renyi_graph(12, 0.3, seed=2, ensure_connected=True)
        params = WalkParameters(length=15, walks_per_source=4)
        result = estimate_rwbc_distributed(
            graph, params, seed=5, vectorized=vectorized
        )
        expected = count_dtype(params.walks_per_source, params.length)
        assert {counts.dtype for counts in result.counts.values()} == {
            np.dtype(expected)
        }


@pytest.mark.parametrize("vectorized", LOOPS.values(), ids=LOOPS)
def test_split_noise_floor_is_signed(vectorized):
    graph = erdos_renyi_graph(14, 0.3, seed=4, ensure_connected=True)
    n = graph.num_nodes
    config = ProtocolConfig(length=20, walks_per_source=6, split_sampling=True)
    result = Simulator(
        graph, make_protocol_factory(config), seed=9, vectorized=vectorized
    ).run()
    assert result.fast_path == vectorized
    programs = [result.program(node) for node in range(n)]
    if vectorized:
        halves = programs[0]._engine.counts.astype(np.int64)
    else:
        halves = np.stack(
            [program._walks.half_counts for program in programs]
        ).astype(np.int64)
    noise = halves[:, 0] - halves[:, 1]
    # The case an unsigned difference would wrap.
    assert (noise < 0).any()
    degrees = [program.degree for program in programs]
    pairs = 0.5 * (n - 1) * (n - 2)
    for node, program in enumerate(programs):
        raw = node_raw_flow(
            noise[node] / (2.0 * degrees[node]),
            (
                noise[neighbor] / (2.0 * degrees[neighbor])
                for neighbor in program.neighbors
            ),
            node,
        )
        floor = betweenness_from_raw_flow(
            raw,
            n,
            scale=float(config.walks_per_source // 2),
            include_endpoints=False,
            normalized=False,
        )
        if config.normalized:
            floor /= (
                0.5 * n * (n - 1) if config.include_endpoints else pairs
            )
        assert program.noise_floor == floor
