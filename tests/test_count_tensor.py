"""The visit-count tensor: its cell type, its signed read-out, and the
refusal of a tensor the host cannot hold.

Every counter ``xi_v[s]`` is bounded by ``K * (l + 1)``, so the counts
are stored in :func:`~repro.core.walk_engine.count_dtype` cells - the
narrowest unsigned type that holds the bound - by both scheduler loops.
A cell type too narrow for its counts would wrap the same way on both
loops, so the cross-loop equivalence tests cannot see it; the wide-cell
oracle below reruns each mode with ``int64`` cells instead.  Unsigned
cells also make one read-out fragile: the split-mode noise floor
subtracts half 1 from half 0, which is negative in some cells, so the
floor is recomputed here from int64 copies of the halves.
"""

import sys

import numpy as np
import pytest

from repro.congest.errors import ConfigError
from repro.congest.scheduler import Simulator
from repro.core import walk_engine
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.flow_math import betweenness_from_raw_flow, node_raw_flow
from repro.core.parameters import WalkParameters
from repro.core.protocol import ProtocolConfig, make_protocol_factory
from repro.core.walk_engine import count_dtype
from repro.graphs.generators import erdos_renyi_graph, star_graph

LOOPS = {"fast": True, "per-message": False}


class TestCountDtype:
    def test_uint8_up_to_255(self):
        assert count_dtype(5, 50) is np.uint8  # K * (l + 1) = 255
        assert count_dtype(1, 1) is np.uint8

    def test_uint16_from_256_to_65535(self):
        assert count_dtype(2, 127) is np.uint16  # 256
        assert count_dtype(5, 13106) is np.uint16  # 65535

    def test_uint32_from_65536(self):
        assert count_dtype(2, 32767) is np.uint32  # 65536

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


#: One star, one seed: damped walks keep revisiting the hub, so cells
#: pass 127 and use the top bit of a uint8 cell.  Each mode runs at
#: ``K * (l + 1)`` = 255, the largest bound kept in uint8 cells, except
#: split sampling, which needs an even K and runs at 254.
WIDE_CELL_MODES = {
    "plain": (5, 50, {}),
    "split": (2, 126, {"split_sampling": True}),
    "damped": (5, 50, {"survival_alpha": 0.99}),
}


def _widen_cells(monkeypatch) -> None:
    """Make every module that imported ``count_dtype`` allocate int64."""
    modules = [
        module
        for module in list(sys.modules.values())
        if getattr(module, "count_dtype", None) is count_dtype
    ]
    assert walk_engine in modules
    for module in modules:
        monkeypatch.setattr(
            module, "count_dtype", lambda walks, length: np.int64
        )


@pytest.mark.parametrize("vectorized", LOOPS.values(), ids=LOOPS)
@pytest.mark.parametrize("mode", WIDE_CELL_MODES)
def test_narrow_cells_match_int64_cells(monkeypatch, mode, vectorized):
    walks, length, options = WIDE_CELL_MODES[mode]
    graph = star_graph(5)
    params = WalkParameters(length=length, walks_per_source=walks)

    def run():
        return estimate_rwbc_distributed(
            graph, params, seed=9, vectorized=vectorized, **options
        )

    narrow = run()
    _widen_cells(monkeypatch)
    wide = run()
    assert {c.dtype for c in narrow.counts.values()} == {np.dtype(np.uint8)}
    assert {c.dtype for c in wide.counts.values()} == {np.dtype(np.int64)}
    for node in graph.nodes():
        assert np.array_equal(narrow.counts[node], wide.counts[node])
    assert narrow.betweenness == wide.betweenness
    assert narrow.betweenness_debiased == wide.betweenness_debiased
    assert narrow.edge_betweenness == wide.edge_betweenness
    assert narrow.total_rounds == wide.total_rounds
    if mode == "damped":
        assert max(int(c.max()) for c in narrow.counts.values()) > 127


class TestTensorRefusal:
    """The fast path refuses a count tensor larger than ``MemAvailable``
    before allocating it.  The limit reader is patched; nothing large is
    allocated."""

    GRAPH = erdos_renyi_graph(40, 0.2, seed=1, ensure_connected=True)
    PARAMS = WalkParameters(length=10, walks_per_source=2)  # uint8 cells

    def _run(self, **options):
        return estimate_rwbc_distributed(
            self.GRAPH, self.PARAMS, seed=5, vectorized=True, **options
        )

    def test_refuses_a_tensor_over_the_limit(self, monkeypatch):
        monkeypatch.setattr(walk_engine, "available_memory", lambda: 1599)
        with pytest.raises(ConfigError) as raised:
            self._run()
        assert raised.value.context == {
            "n": 40,
            "cell_type": "uint8",
            "estimate_bytes": 1600,
            "limit_bytes": 1599,
        }

    def test_split_mode_counts_both_halves(self, monkeypatch):
        monkeypatch.setattr(walk_engine, "available_memory", lambda: 1600)
        assert self._run().fallback_reasons == ()
        with pytest.raises(ConfigError) as raised:
            self._run(split_sampling=True)
        assert raised.value.context["estimate_bytes"] == 3200

    def test_reads_mem_available(self, monkeypatch, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(
            "MemTotal:       8000 kB\nMemAvailable:   2048 kB\n"
        )
        monkeypatch.setattr(walk_engine, "MEMINFO", str(meminfo))
        assert walk_engine.available_memory() == 2048 * 1024

    def test_unreadable_limit_skips_the_check(self, monkeypatch, tmp_path):
        monkeypatch.setattr(walk_engine, "MEMINFO", str(tmp_path / "none"))
        assert walk_engine.available_memory() is None
        assert self._run().fallback_reasons == ()
