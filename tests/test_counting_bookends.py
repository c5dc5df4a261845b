"""The counting phase's two bookends on the fast path.

:class:`~repro.core.walk_engine.CountingWalkEngine` launches every
node's walks in one routing pass (Algorithm 1 line 3), and on both link
models it runs the death-count convergecast as arrays and sends the done
wave, claiming the ``term`` and ``done`` rows.  Both must leave every
observable exactly as the
per-message loop produces it: the per-round message and bit series, the
per-edge histograms, the trace stream, the phase boundaries (the done
round among them) and the estimates.  The report rule both paths apply
is :func:`~repro.core.termination.report_due`; its unit tests pin the
parts of it the two loops cannot tell apart.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.congest.faults import FaultPlan
from repro.congest.scheduler import Simulator
from repro.congest.trace import Tracer
from repro.congest.transport import BandwidthPolicy
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.core.protocol import (
    ProtocolConfig,
    RWBCNodeProgram,
    make_protocol_factory,
)
from repro.core.termination import (
    KIND_DONE,
    KIND_TERM,
    DeathCounterLogic,
    report_due,
)
from repro.core.walk_manager import TransportPolicy, WalkManager
from repro.graphs.generators import (
    complete_bipartite_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.obs import Telemetry

PARAMS = WalkParameters(length=9, walks_per_source=4)

GRAPHS = {
    "star": star_graph(9),
    "path": path_graph(10),
    "grid": grid_graph(3, 4),
    "k34": complete_bipartite_graph(3, 4),
}

MODES = {
    "absorbing": {},
    "damped": {"survival_alpha": 0.7},
    "split": {"split_sampling": True},
    "no-initial": {"count_initial": False},
    "batch": {"policy": TransportPolicy.BATCH},
    "budget1": {"walk_budget": 1},
    "budget3": {"walk_budget": 3},
}

# Reliable-mode shapes: lossy, duplicating and delaying links.
RELIABLE_PARAMS = WalkParameters(length=12, walks_per_source=4)

RELIABLE_GRAPHS = {
    "er": erdos_renyi_graph(14, 0.3, seed=3, ensure_connected=True),
    "star": star_graph(9),
    "grid": grid_graph(3, 4),
}

RELIABLE_MODES = {
    "batch": {"policy": TransportPolicy.BATCH},
    "split": {"split_sampling": True},
    "damped": {"survival_alpha": 0.7},
    "batch-split-damped": {
        "policy": TransportPolicy.BATCH,
        "split_sampling": True,
        "survival_alpha": 0.7,
    },
}


def _run(graph, vectorized, seed=7, params=PARAMS, **kwargs):
    tracer = Tracer()
    telemetry = Telemetry()
    result = estimate_rwbc_distributed(
        graph,
        params,
        seed=seed,
        vectorized=vectorized,
        tracer=tracer,
        telemetry=telemetry,
        **kwargs,
    )
    return result, tracer, telemetry


def _assert_identical(slow, fast):
    (s, s_tracer, s_tel) = slow
    (f, f_tracer, f_tel) = fast
    assert f.fallback_reasons == ()
    assert f.target == s.target
    assert f.phase_rounds == s.phase_rounds
    # The done round: where counting ends and the exchange starts.
    done = f.phase_rounds["setup"] + f.phase_rounds["counting"]
    assert done == s.phase_rounds["setup"] + s.phase_rounds["counting"]
    assert f.betweenness == s.betweenness
    assert f.betweenness_debiased == s.betweenness_debiased
    assert f.edge_betweenness == s.edge_betweenness
    for node in s.counts:
        assert np.array_equal(f.counts[node], s.counts[node])
    assert f.recovery == s.recovery
    ms, mf = s.metrics, f.metrics
    assert mf.messages_per_round == ms.messages_per_round
    assert mf.bits_per_round == ms.bits_per_round
    assert mf.max_messages_per_edge_round == ms.max_messages_per_edge_round
    assert mf.max_bits_per_edge_round == ms.max_bits_per_edge_round
    for name in ("bits_per_edge_round", "messages_per_edge_round"):
        hs, hf = s_tel.instruments.hist(name), f_tel.instruments.hist(name)
        assert np.array_equal(hf.buckets, hs.buckets)
        assert (hf.count, hf.total, hf.max) == (hs.count, hs.total, hs.max)
    assert sorted(f_tracer.events) == sorted(s_tracer.events)


class TestLoopsAgree:
    @pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
    @pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS)
    def test_fault_free(self, graph, mode):
        _assert_identical(
            _run(graph, vectorized=False, **mode),
            _run(graph, vectorized=True, **mode),
        )

    def test_lossy_reliable(self):
        # Reliable mode: the engine accepts the term and done rows
        # through the ARQ and queues reports and the wave as control.
        plan = FaultPlan(drop_rate=0.1, duplicate_rate=0.05, seed=4)
        graph = GRAPHS["star"]
        _assert_identical(
            _run(graph, vectorized=False, faults=plan),
            _run(graph, vectorized=True, faults=plan),
        )

    @pytest.mark.parametrize(
        "mode", RELIABLE_MODES.values(), ids=RELIABLE_MODES
    )
    @pytest.mark.parametrize(
        "graph", RELIABLE_GRAPHS.values(), ids=RELIABLE_GRAPHS
    )
    def test_lossy_reliable_shapes(self, graph, mode):
        # Every shape of reliable emission: BATCH rows carry a count and
        # a seq each, split rows a half bit, and damped thinning shares
        # the generator with routing.  Drops, duplicates and delays all
        # reach the ARQ.
        plan = FaultPlan(
            seed=5,
            drop_rate=0.1,
            duplicate_rate=0.05,
            delay_rate=0.05,
            max_delay=3,
        )
        _assert_identical(
            _run(graph, vectorized=False, params=RELIABLE_PARAMS,
                 faults=plan, **mode),
            _run(graph, vectorized=True, params=RELIABLE_PARAMS,
                 faults=plan, **mode),
        )


#: Link models of the fast-path spy tests: fault-free, and lossy links
#: without crashes (drops, duplicates and delays).
LINKS = {
    "fault-free": None,
    "lossy": FaultPlan(
        seed=5, drop_rate=0.1, duplicate_rate=0.05, delay_rate=0.05,
        max_delay=3,
    ),
}


def _simulate(graph, config, vectorized, seed=7, faults=None):
    slack = 2 if faults is None else 4
    return Simulator(
        graph,
        make_protocol_factory(config),
        policy=BandwidthPolicy(
            n=graph.num_nodes, messages_per_edge=config.walk_budget + slack
        ),
        seed=seed,
        vectorized=vectorized,
        faults=faults,
    ).run()


class TestEngineOwnsTheBookends:
    def test_fast_path_never_launches_per_node(self, monkeypatch):
        def refuse(self):
            raise AssertionError("per-node launch on the fast path")

        monkeypatch.setattr(WalkManager, "launch", refuse)
        config = ProtocolConfig(length=9, walks_per_source=4)
        for faults in LINKS.values():
            result = _simulate(
                GRAPHS["grid"], config, vectorized=True, faults=faults
            )
            assert result.fast_path
            engine = result.program(0)._engine
            assert {KIND_TERM, KIND_DONE} <= engine.claimed_kinds

    @pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS)
    def test_nodes_step_only_for_the_done_wave(self, graph, monkeypatch):
        """The engine runs the convergecast and relays the done wave, so
        on either link model no node is stepped while it counts: the
        only per-node call of the phase is the wave's entry into the
        exchange, once for every node."""
        stepped: list[int] = []
        entered: list[int] = []
        counting_round = RWBCNodeProgram._counting_round_engine
        enter_exchange = RWBCNodeProgram._enter_exchange

        def counting(self, ctx, inbox):
            stepped.append(self.node_id)
            return counting_round(self, ctx, inbox)

        def enter(self, round_number):
            entered.append(self.node_id)
            return enter_exchange(self, round_number)

        monkeypatch.setattr(
            RWBCNodeProgram, "_counting_round_engine", counting
        )
        monkeypatch.setattr(RWBCNodeProgram, "_enter_exchange", enter)
        config = ProtocolConfig(length=9, walks_per_source=4)
        for faults in LINKS.values():
            entered.clear()
            result = _simulate(graph, config, vectorized=True, faults=faults)
            assert result.fast_path
            assert sorted(entered) == list(range(graph.num_nodes))
            starts = {
                program.exchange_start_round
                for program in result.programs.values()
            }
            assert len(starts) > 1  # the wave took rounds to spread
        assert stepped == []

    @pytest.mark.parametrize("faults", LINKS.values(), ids=LINKS)
    def test_fast_path_builds_no_death_counter(self, faults, monkeypatch):
        built: list[int] = []
        original = DeathCounterLogic.__init__

        def counter(self, node_id, *args, **kwargs):
            built.append(node_id)
            original(self, node_id, *args, **kwargs)

        monkeypatch.setattr(DeathCounterLogic, "__init__", counter)
        config = ProtocolConfig(length=9, walks_per_source=4)
        graph = GRAPHS["k34"]
        result = _simulate(graph, config, vectorized=True, faults=faults)
        assert result.fast_path and built == []
        _simulate(graph, config, vectorized=False, faults=faults)
        assert sorted(built) == list(range(graph.num_nodes))

    def test_manager_tallies_into_the_engine_tensor(self):
        config = ProtocolConfig(length=9, walks_per_source=4)
        result = _simulate(GRAPHS["k34"], config, vectorized=True)
        engine = result.program(0)._engine
        for program in result.programs.values():
            assert np.shares_memory(program._walks.half_counts, engine.counts)
            # Outside split mode the node's counts are a view, not a
            # copy, and nothing writes half 1.
            assert np.shares_memory(program.counts, engine.counts)
        assert not engine.counts[:, 1].any()


class TestReportRule:
    def test_array_rule(self):
        total = np.array([5, 5, 5, 5, 4, 0])
        last = np.array([4, 5, 4, 4, 5, -1])
        stopped = np.array([False, False, True, False, False, False])
        parent = np.array([1, 2, 3, -1, 0, 4])
        assert report_due(total, last, stopped, parent).tolist() == [
            True, False, False, False, False, True,
        ]

    def test_counter_reports_each_change_once(self):
        counter = DeathCounterLogic(3, parent=1, children=(), expected_total=9)
        assert counter.pop_report() == 0
        assert counter.pop_report() is None
        counter.record_deaths(2)
        assert counter.pop_report() == 2
        assert counter.pop_report() is None

    def test_stopped_counter_never_reports(self):
        counter = DeathCounterLogic(3, parent=1, children=(), expected_total=9)
        counter.record_deaths(2)
        counter.stop()
        assert counter.pop_report() is None

    def test_root_never_reports(self):
        counter = DeathCounterLogic(0, parent=None, children=(1,),
                                    expected_total=9)
        counter.record_deaths(4)
        assert counter.pop_report() is None


def test_import_skips_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part
    )
    code = (
        "import sys, repro; "
        "print(any(m.split('.')[0] == 'networkx' for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
