"""Tests for the declarative scenario matrix (repro.experiments.scenarios)."""

import pytest

from repro.congest.faults import FaultPlan
from repro.experiments.scenarios import (
    FAULT_PROFILES,
    SUITES,
    Scenario,
    make_fault_plan,
    run_suite,
    scenario_row,
    suite_scenarios,
    values_checksum,
)
from repro.graphs.graph import GraphError


class TestRegistry:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_names_unique(self, suite):
        names = [scenario.name for scenario in SUITES[suite]]
        assert len(names) == len(set(names))

    def test_smoke_covers_the_matrix(self):
        smoke = SUITES["smoke"]
        assert {s.executor for s in smoke} == {
            "sync", "per-message", "async",
        }
        assert {s.faults for s in smoke} == {"none", "lossy", "chaos"}
        assert {s.variant for s in smoke} == {"distributed", "weighted",
                                              "edges"}
        assert any(s.dataset for s in smoke)

    def test_suite_lookup_and_filter(self):
        assert suite_scenarios("smoke") == SUITES["smoke"]
        only = suite_scenarios("smoke", only=["async"])
        assert {s.name for s in only} == {"cycle8-async",
                                          "cycle8-async-lossy"}
        with pytest.raises(GraphError, match="unknown suite"):
            suite_scenarios("nope")
        with pytest.raises(GraphError, match="matches"):
            suite_scenarios("smoke", only=["zzz"])


class TestScenarioValidation:
    def test_needs_one_graph_source(self):
        with pytest.raises(GraphError):
            Scenario("x", family="er", dataset="karate")
        with pytest.raises(GraphError):
            Scenario("x")

    def test_unknown_fields_rejected(self):
        with pytest.raises(GraphError, match="variant"):
            Scenario("x", family="er", variant="quantum")
        with pytest.raises(GraphError, match="executor"):
            Scenario("x", family="er", executor="mpi")
        with pytest.raises(GraphError, match="unknown executor 'sharded'"):
            Scenario("x", family="er", executor="sharded")
        with pytest.raises(GraphError, match="fault profile"):
            Scenario("x", family="er", faults="meteor")

    def test_grid_point_inlines_fault_profile(self):
        point = Scenario("x", family="cycle", faults="chaos").grid_point()
        assert point["faults"] == FAULT_PROFILES["chaos"]
        assert point["fault_profile"] == "chaos"


class TestFaultProfiles:
    def test_none_is_faultfree(self):
        assert make_fault_plan(FAULT_PROFILES["none"]) is None
        assert make_fault_plan(None) is None

    def test_lossy(self):
        plan = make_fault_plan(FAULT_PROFILES["lossy"])
        assert isinstance(plan, FaultPlan)
        assert plan.drop_rate == 0.1
        assert not plan.crashes

    def test_chaos_has_crash_window(self):
        plan = make_fault_plan(FAULT_PROFILES["chaos"])
        assert plan.duplicate_rate > 0 and plan.delay_rate > 0
        (window,) = plan.crashes
        assert window.end == window.start + 6

    def test_unknown_key_rejected(self):
        with pytest.raises(GraphError, match="unknown fault profile keys"):
            make_fault_plan({"drop": 0.1, "meteors": 1.0})


class TestRows:
    def test_distributed_row_deterministic(self):
        point = Scenario(
            "tiny", family="cycle", n=8, length=20, walks=4
        ).grid_point()
        a = scenario_row(**point)
        b = scenario_row(**point)
        # Everything but the wall clock is seeded-reproducible.
        a.pop("wall_s"), b.pop("wall_s")
        assert a == b
        assert a["rounds"] > 0
        assert a["messages"] > 0
        assert a["bits"] > 0
        assert a["retransmissions"] == 0
        assert a["fast_path"] is True

    def test_faulty_row_recovers(self):
        point = Scenario(
            "tiny-lossy", family="cycle", n=8, length=20, walks=4,
            faults="lossy",
        ).grid_point()
        row = scenario_row(**point)
        assert row["retransmissions"] > 0

    def test_oracle_rows(self):
        weighted = scenario_row(
            **Scenario("w", family="cycle", n=8, variant="weighted")
            .grid_point()
        )
        edges = scenario_row(
            **Scenario("e", family="cycle", n=8, variant="edges")
            .grid_point()
        )
        for row in (weighted, edges):
            assert "rounds" not in row
            assert row["wall_s"] >= 0
            assert row["checksum"]
        assert weighted["checksum"] != edges["checksum"]

    def test_run_suite_echoes_config(self):
        rows = run_suite(
            [Scenario("tiny", family="cycle", n=8, length=20, walks=4,
                      faults="lossy")]
        )
        (row,) = rows
        # The sweep layer echoes every grid-point field, nested dicts
        # included, so rows are self-describing.
        assert row["faults"] == {"drop": 0.1}
        assert row["fault_profile"] == "lossy"
        assert row["scenario"] == "tiny"

    def test_run_suite_rejects_duplicates(self):
        scenario = Scenario("dup", family="cycle", n=8)
        with pytest.raises(GraphError, match="duplicate"):
            run_suite([scenario, scenario])


class TestChecksum:
    def test_order_independent(self):
        assert values_checksum({"a": 1.0, "b": 2.0}) == values_checksum(
            {"b": 2.0, "a": 1.0}
        )

    def test_value_sensitive(self):
        assert values_checksum({"a": 1.0}) != values_checksum({"a": 1.1})

    def test_rounding_absorbs_noise(self):
        assert values_checksum({"a": 0.1}) == values_checksum(
            {"a": 0.1 + 1e-12}
        )
