"""Tests for the committed perf-trajectory layer (repro.obs.trajectory)."""

import json
import subprocess

import pytest

from repro.obs.export import SchemaError
from repro.obs.trajectory import (
    TRAJECTORY_SCHEMA,
    append_entry,
    checksum_drift,
    compare_entries,
    git_sha,
    load_trajectory,
    machine_fingerprint,
    new_entry,
    validate_trajectory,
    write_trajectory,
)


def rows():
    return [
        {
            "scenario": "er30-sync",
            "n": 30,
            "m": 104,
            "variant": "distributed",
            "executor": "sync",
            "fault_profile": "none",
            "fast_path": True,
            "rounds": 193,
            "messages": 15454,
            "bits": 331821,
            "retransmissions": 0,
            "wall_s": 0.21,
            "checksum": "abc123",
            "faults": {},
        },
        {
            "scenario": "er30-edges",
            "n": 30,
            "m": 104,
            "variant": "edges",
            "executor": "sync",
            "fault_profile": "none",
            "wall_s": 0.001,
            "checksum": "def456",
        },
    ]


def entry(**overrides):
    built = new_entry(rows(), sha="deadbee", date="2026-08-07T00:00:00+00:00")
    built.update(overrides)
    return built


class TestEntry:
    def test_new_entry_shape(self):
        built = entry()
        assert built["sha"] == "deadbee"
        assert set(built["scenarios"]) == {"er30-sync", "er30-edges"}
        sync = built["scenarios"]["er30-sync"]
        assert sync["rounds"] == 193
        assert sync["wall_s"] == 0.21
        # Config echoes that are not metrics stay out of the entry.
        assert "faults" not in sync
        # Oracle rows only carry what they measured.
        assert "rounds" not in built["scenarios"]["er30-edges"]

    def test_defaults_filled(self):
        built = new_entry(rows())
        assert built["sha"]
        assert built["date"]
        assert built["machine"] == machine_fingerprint()

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            new_entry([])

    def test_rejects_nameless_row(self):
        with pytest.raises(SchemaError):
            new_entry([{"rounds": 1}])

    def test_rejects_duplicate_scenario(self):
        with pytest.raises(SchemaError):
            new_entry([{"scenario": "a"}, {"scenario": "a"}])

    def test_machine_fingerprint_keys(self):
        fingerprint = machine_fingerprint()
        assert {"system", "machine", "python", "cpus"} <= set(fingerprint)

    def test_git_sha_is_string(self):
        assert isinstance(git_sha(), str)

    def test_git_sha_marks_a_dirty_tree(self, tmp_path, monkeypatch):
        """HEAD labels a clean tree; uncommitted changes to a tracked
        file add ``-dirty``, and an untracked file does not."""
        monkeypatch.chdir(tmp_path)
        assert git_sha() == "unknown"

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "one")
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
        assert git_sha(short=False) == head
        assert head.startswith(git_sha())
        (tmp_path / "untracked.txt").write_text("new\n")
        assert git_sha(short=False) == head
        (tmp_path / "tracked.txt").write_text("two\n")
        assert git_sha(short=False) == f"{head}-dirty"
        assert git_sha().endswith("-dirty")


class TestFileRoundTrip:
    def test_append_creates_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        data = append_entry(path, entry(), suite="test")
        assert data["schema"] == TRAJECTORY_SCHEMA
        assert len(data["entries"]) == 1
        data = append_entry(path, entry(sha="cafe"), suite="test")
        assert len(data["entries"]) == 2
        loaded = load_trajectory(path)
        assert [e["sha"] for e in loaded["entries"]] == ["deadbee", "cafe"]

    def test_suite_mismatch_refused(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        append_entry(path, entry(), suite="smoke")
        with pytest.raises(SchemaError, match="tracks suite"):
            append_entry(path, entry(), suite="full")

    def test_rejects_other_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"schema": "rwbc.trajectory/999", "suite": "x",
                 "entries": []}
            )
        )
        with pytest.raises(SchemaError, match="unsupported schema"):
            load_trajectory(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_trajectory(path)

    def test_rejects_missing_fields(self, tmp_path):
        broken = entry()
        del broken["machine"]
        with pytest.raises(SchemaError, match="missing 'machine'"):
            validate_trajectory(
                {"schema": TRAJECTORY_SCHEMA, "suite": "x",
                 "entries": [broken]}
            )

    def test_rejects_entry_without_scenarios(self):
        with pytest.raises(SchemaError, match="no scenarios"):
            validate_trajectory(
                {"schema": TRAJECTORY_SCHEMA, "suite": "x",
                 "entries": [entry(scenarios={})]}
            )

    def test_write_validates(self, tmp_path):
        with pytest.raises(SchemaError):
            write_trajectory(tmp_path / "x.json", {"schema": "nope"})


class TestCompare:
    def test_identical_entries_pass(self):
        assert compare_entries(entry(), entry()) == []

    def test_checksum_drift_is_noted_not_gated(self):
        assert checksum_drift(entry(), entry()) == []
        changed = entry()
        changed["scenarios"]["er30-sync"]["checksum"] = "fff000"
        del changed["scenarios"]["er30-edges"]["checksum"]
        assert checksum_drift(entry(), changed) == [
            ("er30-sync", "abc123", "fff000")
        ]
        found = compare_entries(entry(), changed)
        assert "checksum" not in {r.metric for r in found}

    def test_deterministic_change_is_regression(self):
        changed = entry()
        changed["scenarios"]["er30-sync"]["messages"] += 1
        found = compare_entries(entry(), changed)
        assert [(r.scenario, r.metric) for r in found] == [
            ("er30-sync", "messages")
        ]
        # Direction does not matter: *any* change must be deliberate.
        found = compare_entries(changed, entry())
        assert [(r.scenario, r.metric) for r in found] == [
            ("er30-sync", "messages")
        ]

    def test_disappeared_scenario_is_regression(self):
        shrunk = entry()
        del shrunk["scenarios"]["er30-edges"]
        found = compare_entries(entry(), shrunk)
        assert [(r.scenario, r.metric) for r in found] == [
            ("er30-edges", "scenario")
        ]

    def test_new_scenario_is_fine(self):
        grown = entry()
        grown["scenarios"]["extra"] = {"rounds": 1}
        assert compare_entries(entry(), grown) == []

    def test_wall_regression_same_machine(self):
        slow = entry()
        slow["scenarios"]["er30-sync"]["wall_s"] = 10.0
        found = compare_entries(entry(), slow, wall_ratio=2.0)
        assert [(r.scenario, r.metric) for r in found] == [
            ("er30-sync", "wall_s")
        ]

    def test_wall_within_band_passes(self):
        slightly = entry()
        slightly["scenarios"]["er30-sync"]["wall_s"] = 0.21 * 1.5
        assert compare_entries(entry(), slightly, wall_ratio=2.0) == []

    def test_wall_skipped_across_machines(self):
        slow = entry(machine={"system": "Other", "machine": "arm64",
                              "python": "3.99", "cpus": 2})
        slow["scenarios"]["er30-sync"]["wall_s"] = 10.0
        assert compare_entries(entry(), slow) == []
        # ... unless the caller insists.
        found = compare_entries(entry(), slow, wall_clock="always")
        assert [(r.scenario, r.metric) for r in found] == [
            ("er30-sync", "wall_s")
        ]

    def test_tiny_wall_jitter_below_floor_passes(self):
        # er30-edges records ~1ms; a 5x blowup there is timer noise and
        # must stay under the absolute floor even though the ratio trips.
        noisy = entry()
        noisy["scenarios"]["er30-edges"]["wall_s"] = 0.005
        assert compare_entries(entry(), noisy, wall_ratio=2.0) == []
        # With the floor disabled the same jitter gates again.
        found = compare_entries(entry(), noisy, wall_ratio=2.0, wall_floor=0.0)
        assert [(r.scenario, r.metric) for r in found] == [
            ("er30-edges", "wall_s")
        ]

    def test_wall_off(self):
        slow = entry()
        slow["scenarios"]["er30-sync"]["wall_s"] = 10.0
        assert compare_entries(entry(), slow, wall_clock="off") == []

    def test_bad_wall_clock_mode(self):
        with pytest.raises(SchemaError):
            compare_entries(entry(), entry(), wall_clock="sometimes")


class TestCommittedTrajectory:
    """The repo-root BENCH_smoke.json must stay loadable and covering."""

    def test_committed_file_valid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_smoke.json"
        data = load_trajectory(path)
        assert data["suite"] == "smoke"
        assert len(data["entries"]) >= 1
        latest = data["entries"][-1]["scenarios"]
        executors = {row.get("executor") for row in latest.values()}
        profiles = {row.get("fault_profile") for row in latest.values()}
        assert {"sync", "per-message", "async"} <= executors
        assert {"none", "lossy", "chaos"} <= profiles
        assert any(row.get("fast_path") for row in latest.values())
