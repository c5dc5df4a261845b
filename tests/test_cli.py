"""Tests for the command-line interface."""

import contextlib

import pytest

from repro.cli import main
from repro.experiments.scenarios import SUITES
from repro.graphs.generators import path_graph
from repro.graphs.io import write_edge_list


class TestExact:
    def test_family(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "exact RWBC" in out
        assert "n=8" in out

    def test_dataset(self, capsys):
        assert main(["exact", "--dataset", "florentine", "--top", "3"]) == 0
        out = capsys.readouterr().out
        # Medici top the betweenness ranking.
        assert "Medici" in out.splitlines()[1]

    def test_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        write_edge_list(path_graph(4), path)
        assert main(["exact", "--edge-list", str(path)]) == 0
        assert "n=4" in capsys.readouterr().out

    def test_top_limits_output(self, capsys):
        main(["exact", "--family", "cycle", "--n", "10", "--top", "2"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_no_endpoints(self, capsys):
        main(["exact", "--family", "path", "--n", "3", "--no-endpoints"])
        out = capsys.readouterr().out
        assert "0.000000" in out  # path ends score 0 in nx convention


class TestEstimate:
    def test_montecarlo(self, capsys):
        code = main(
            [
                "estimate",
                "--family",
                "cycle",
                "--n",
                "8",
                "--engine",
                "montecarlo",
                "--length",
                "40",
                "--walks",
                "20",
            ]
        )
        assert code == 0
        assert "montecarlo RWBC" in capsys.readouterr().out

    def test_distributed(self, capsys):
        code = main(
            [
                "estimate",
                "--family",
                "path",
                "--n",
                "6",
                "--length",
                "30",
                "--walks",
                "10",
                "--policy",
                "batch",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distributed RWBC" in out
        assert "rounds=" in out


class TestOtherCommands:
    def test_compare(self, capsys):
        assert main(["compare", "--family", "star", "--n", "6"]) == 0
        out = capsys.readouterr().out
        for column in ("rwbc", "spbc", "pagerank", "alpha_cfbc"):
            assert column in out

    def test_diameter(self, capsys):
        assert main(["diameter", "--family", "path", "--n", "7"]) == 0
        assert "diameter=6" in capsys.readouterr().out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "karate" in out
        assert "er" in out


class TestEdgesAndCommunities:
    def test_edges(self, capsys):
        assert main(["edges", "--family", "barbell", "--n", "10", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "edge current-flow betweenness" in out
        assert len(out.strip().splitlines()) == 4

    def test_communities_caveman(self, capsys):
        assert main(["communities", "--family", "caveman", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "2 communities" in out
        assert "size 5" in out

    def test_communities_karate(self, capsys):
        assert main(["communities", "--dataset", "karate", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "size 17" in out

    def test_communities_invalid_k(self, capsys):
        assert main(["communities", "--family", "path", "--n", "3", "--k", "9"]) == 2


class TestObserve:
    def _run_artifact(self, tmp_path, *extra):
        path = tmp_path / "run.jsonl"
        code = main(
            [
                "observe",
                "run",
                "--graph",
                "er",
                "--n",
                "20",
                "--length",
                "15",
                "--walks",
                "4",
                "--seed",
                "5",
                "--out",
                str(path),
                *extra,
            ]
        )
        assert code == 0
        return path

    def test_run_writes_artifact(self, tmp_path, capsys):
        path = self._run_artifact(tmp_path)
        out = capsys.readouterr().out
        assert "observed run" in out
        assert path.exists()

    def test_run_artifact_validates(self, tmp_path, capsys):
        from repro.obs.export import read_artifact

        path = self._run_artifact(tmp_path)
        artifact = read_artifact(path)
        assert artifact.header["meta"]["graph"] == "er"
        assert artifact.header["meta"]["n"] == 20
        assert artifact.spans

    def test_report(self, tmp_path, capsys):
        path = self._run_artifact(tmp_path)
        capsys.readouterr()
        assert main(["observe", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "counting" in out
        assert "spans" in out

    def test_diff(self, tmp_path, capsys):
        path = self._run_artifact(tmp_path)
        capsys.readouterr()
        assert main(["observe", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out

    def test_trace_and_slow(self, tmp_path, capsys):
        from repro.obs.export import read_artifact

        path = self._run_artifact(tmp_path, "--slow", "--trace")
        artifact = read_artifact(path)
        assert artifact.trace_summary is not None
        assert artifact.trace

    def test_missing_artifact_is_error(self, tmp_path, capsys):
        assert main(["observe", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_artifact_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "header", "schema": "other/1"}\n')
        assert main(["observe", "report", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_observe(self, tmp_path, capsys):
        from repro.obs.export import read_artifact

        path = tmp_path / "chaos.jsonl"
        code = main(
            [
                "chaos",
                "--family",
                "er",
                "--n",
                "20",
                "--length",
                "15",
                "--walks",
                "4",
                "--drop",
                "0.05",
                "--observe",
                str(path),
            ]
        )
        assert code == 0
        artifact = read_artifact(path)
        assert "faults" in artifact.header["meta"]
        totals = artifact.summary["metrics"]
        assert totals.get("faults_dropped", 0) > 0
        assert "retransmissions" in {
            name for name in artifact.series
        }


@contextlib.contextmanager
def smoke_suite(*names):
    """Narrow the smoke suite to the named scenarios, so a test can
    append a whole-suite entry (``--only`` may not append) in seconds."""
    scenarios = tuple(s for s in SUITES["smoke"] if s.name in names)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(SUITES, "smoke", scenarios)
        yield


class TestSweep:
    def run_sweep(self, tmp_path, *extra):
        path = tmp_path / "BENCH_test.json"
        with smoke_suite("er30-edges"):
            code = main(
                [
                    "sweep",
                    "--suite",
                    "smoke",
                    "--out",
                    str(path),
                    "--sha",
                    "test",
                    *extra,
                ]
            )
        return code, path

    def test_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "er30-sync" in out

    def test_run_appends_trajectory(self, tmp_path, capsys):
        code, path = self.run_sweep(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "er30-edges" in out
        assert "appended entry" in out
        from repro.obs.trajectory import load_trajectory

        data = load_trajectory(path)
        assert data["suite"] == "smoke"
        assert len(data["entries"]) == 1
        assert data["entries"][0]["sha"] == "test"

    def test_check_passes_on_identical_rerun(self, tmp_path, capsys):
        self.run_sweep(tmp_path)
        code, path = self.run_sweep(tmp_path, "--check")
        assert code == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_check_fails_on_metric_change(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_test.json"
        with smoke_suite("cycle8-async"):
            code = main(
                ["sweep", "--suite", "smoke", "--out", str(path),
                 "--sha", "test"]
            )
        assert code == 0
        data = json.loads(path.read_text())
        for name in data["entries"][-1]["scenarios"]:
            data["entries"][-1]["scenarios"][name]["messages"] += 1
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(
            ["sweep", "--suite", "smoke", "--only", "cycle8-async",
             "--out", str(path), "--check", "--no-append"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression(s)" in captured.err
        # --no-append left the mutated file as it was.
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_check_notes_checksum_drift_without_failing(
        self, tmp_path, capsys
    ):
        import json

        _, path = self.run_sweep(tmp_path)
        data = json.loads(path.read_text())
        row = data["entries"][-1]["scenarios"]["er30-edges"]
        fresh = row["checksum"]
        row["checksum"] = "0" * len(fresh)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code, _ = self.run_sweep(tmp_path, "--check", "--no-append")
        assert code == 0
        out = capsys.readouterr().out
        assert (
            f"# NOTE checksum drift er30-edges: {'0' * len(fresh)} -> {fresh}"
            in out
        )
        assert "no regressions" in out

    def test_only_checks_just_the_scenarios_that_ran(self, tmp_path, capsys):
        import json

        _, path = self.run_sweep(tmp_path)
        data = json.loads(path.read_text())
        scenarios = data["entries"][-1]["scenarios"]
        scenarios["not-run"] = dict(scenarios["er30-edges"])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(
            ["sweep", "--suite", "smoke", "--only", "er30-edges",
             "--out", str(path), "--check", "--no-append"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "disappeared" not in out
        # A full run still reports the scenario it no longer produces.
        code, _ = self.run_sweep(tmp_path, "--check", "--no-append")
        assert code == 1
        out = capsys.readouterr().out
        assert "# REGRESSION not-run.scenario" in out
        assert "scenario disappeared" in out

    def test_only_without_no_append_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "BENCH_test.json"
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["sweep", "--suite", "smoke", "--only", "er30-edges",
                 "--out", str(path)]
            )
        assert exit_info.value.code == 2
        assert "--no-append" in capsys.readouterr().err
        assert not path.exists()

    def test_unknown_suite(self, capsys):
        assert main(["sweep", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_trend_renders(self, tmp_path, capsys):
        _, path = self.run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["observe", "trend", str(path)]) == 0
        out = capsys.readouterr().out
        assert "suite smoke" in out
        assert "er30-edges" in out

    def test_trend_scenario_filter(self, tmp_path, capsys):
        _, path = self.run_sweep(tmp_path)
        capsys.readouterr()
        assert main(
            ["observe", "trend", str(path), "--scenario", "nope"]
        ) == 0
        assert "not found" in capsys.readouterr().out

    def test_trend_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["observe", "trend", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_no_source(self, capsys):
        assert main(["exact"]) == 0 or True  # default --n without family
        # Explicit: no family/dataset/edge-list -> error exit 2.
        code = main(["exact"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_two_sources(self, capsys):
        code = main(
            ["exact", "--family", "cycle", "--dataset", "karate"]
        )
        assert code == 2

    def test_unknown_dataset(self, capsys):
        assert main(["exact", "--dataset", "nope"]) == 2

    def test_unknown_family(self, capsys):
        assert main(["exact", "--family", "nope"]) == 2

    def test_simulator_error_is_one_line(self, capsys):
        """A crash window from round 0 is a FaultInjectionError: one
        ``error:`` line and exit 2, not a traceback."""
        code = main(
            [
                "chaos", "--family", "cycle", "--n", "10", "--drop", "0.15",
                "--crash", "3", "--crash-start", "0", "--crash-span", "8",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: crash windows start at round >= 1")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["estimate", "--executor", "sharded"], "invalid choice"),
            (["estimate", "--shards", "2"], "unrecognized arguments"),
            (["chaos", "--executor", "sharded"], "invalid choice"),
            (["chaos", "--shards", "2"], "unrecognized arguments"),
        ],
        ids=["estimate-executor", "estimate-shards", "chaos-executor",
             "chaos-shards"],
    )
    def test_removed_sharded_options_are_argparse_errors(
        self, argv, complaint, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--family", "path", "--n", "6"])
        assert excinfo.value.code == 2
        assert complaint in capsys.readouterr().err


class TestDatasets:
    def test_counts(self):
        from repro.graphs.datasets import (
            florentine_families,
            karate_club,
            les_miserables,
        )

        assert karate_club().num_nodes == 34
        assert karate_club().num_edges == 78
        assert florentine_families().num_nodes == 15
        assert les_miserables().num_nodes == 77

    def test_loader(self):
        from repro.graphs.datasets import load_dataset
        from repro.graphs.graph import GraphError

        assert load_dataset("karate").num_nodes == 34
        with pytest.raises(GraphError):
            load_dataset("missing")

    def test_karate_leaders_top_betweenness(self):
        """The club's two real-world leaders top the RWBC ranking."""
        from repro.core.exact import rwbc_exact
        from repro.graphs.datasets import karate_club

        values = rwbc_exact(karate_club())
        top2 = sorted(values, key=lambda v: -values[v])[:2]
        assert set(top2) == {0, 33}
