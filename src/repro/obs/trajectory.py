"""Committed performance trajectories: append / load / validate / compare.

A *trajectory file* (``BENCH_<suite>.json`` at the repo root) is the
durable record of one scenario suite's performance across PRs: a JSON
document with a versioned schema tag and one *entry* per recorded run,
keyed by git SHA and UTC date and stamped with a machine fingerprint.
Each entry maps scenario names to their metric rows as produced by
:mod:`repro.experiments.scenarios`.

Two metric classes are compared very differently:

* **Deterministic counters** (:data:`EXACT_METRICS`: rounds, messages,
  bits, retransmissions) are seeded and machine-independent, so any
  change at all between the committed entry and a fresh run is a
  reportable difference - CI diffs them exactly.
* **Wall clock** (``wall_s``) is machine-specific, so it is only
  compared as a ratio band (fail when ``current > ratio * previous``),
  and by default only between entries whose machine fingerprints match
  (a laptop baseline must not gate a CI runner).

Other row fields (``checksum``, graph shape, configuration echoes) ride
along for triage but are never gated on.  A changed ``checksum`` is
still reported (:func:`checksum_drift`), as a note: estimates are
floats, so BLAS differences across machines can move it, but on one
machine it shows whether a change kept every estimate byte-identical.

The schema (:data:`TRAJECTORY_SCHEMA`) is versioned like the observe
artifact schema; readers reject other versions via the shared
:class:`~repro.obs.export.SchemaError`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone

from repro.obs.export import SchemaError

__all__ = [
    "EXACT_METRICS",
    "TRAJECTORY_SCHEMA",
    "WALL_METRIC",
    "Regression",
    "append_entry",
    "checksum_drift",
    "compare_entries",
    "git_sha",
    "load_trajectory",
    "machine_fingerprint",
    "new_entry",
    "validate_trajectory",
    "write_trajectory",
]

#: Current trajectory schema; bump the integer on breaking changes.
TRAJECTORY_SCHEMA = "rwbc.trajectory/1"

#: Seeded, machine-independent counters: compared exactly.
EXACT_METRICS = ("rounds", "messages", "bits", "retransmissions")

#: Machine-local timing: compared as a ratio band.
WALL_METRIC = "wall_s"

#: Default wall-clock regression band (current vs previous entry).
DEFAULT_WALL_RATIO = 2.0

#: Minimum absolute wall-clock growth (seconds) before the ratio band
#: applies.  Sub-millisecond scenarios jitter by 5-10x between runs on
#: the same machine; a ratio alone would gate on pure timer noise.
DEFAULT_WALL_FLOOR = 0.1


def machine_fingerprint() -> dict:
    """A small stable identity for the measuring machine."""
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def git_sha(short: bool = True) -> str:
    """The repo's current commit SHA, or ``"unknown"`` outside git.

    A working tree whose tracked files differ from HEAD gives
    ``"<sha>-dirty"``: an entry recorded there describes code that no
    commit holds."""

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", *(["--short"] if short else []), "HEAD")
    if not sha:
        return "unknown"
    if git("status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    return sha


def new_entry(
    rows: list[dict],
    sha: str | None = None,
    date: str | None = None,
    machine: dict | None = None,
) -> dict:
    """Build one trajectory entry from scenario sweep rows."""
    if not rows:
        raise SchemaError("a trajectory entry needs at least one scenario row")
    scenarios: dict[str, dict] = {}
    for row in rows:
        name = row.get("scenario")
        if not name:
            raise SchemaError(f"scenario row without a name: {row!r}")
        if name in scenarios:
            raise SchemaError(f"duplicate scenario {name!r} in entry")
        kept = {
            key: row[key]
            for key in (
                *EXACT_METRICS,
                WALL_METRIC,
                "checksum",
                "n",
                "m",
                "fast_path",
                "variant",
                "executor",
                "fault_profile",
            )
            if key in row and row[key] is not None
        }
        scenarios[name] = kept
    return {
        "sha": sha or git_sha(),
        "date": date
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine or machine_fingerprint(),
        "scenarios": scenarios,
    }


def validate_trajectory(data, source: str = "trajectory") -> dict:
    """Structural validation; returns ``data`` or raises SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: trajectory must be a JSON object")
    schema = data.get("schema", "")
    if schema != TRAJECTORY_SCHEMA:
        raise SchemaError(
            f"{source}: unsupported schema {schema!r} "
            f"(expected {TRAJECTORY_SCHEMA!r})"
        )
    if not isinstance(data.get("suite"), str) or not data["suite"]:
        raise SchemaError(f"{source}: missing suite name")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise SchemaError(f"{source}: entries must be a list")
    for index, entry in enumerate(entries):
        label = f"{source}: entry {index}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{label} is not an object")
        for key in ("sha", "date", "machine", "scenarios"):
            if key not in entry:
                raise SchemaError(f"{label} is missing {key!r}")
        if not isinstance(entry["scenarios"], dict) or not entry["scenarios"]:
            raise SchemaError(f"{label} has no scenarios")
        for name, metrics in entry["scenarios"].items():
            if not isinstance(metrics, dict):
                raise SchemaError(f"{label}: scenario {name!r} is not a dict")
    return data


def load_trajectory(path) -> dict:
    """Read and validate a trajectory file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise SchemaError(f"{path}: not valid JSON: {error}") from error
    return validate_trajectory(data, source=str(path))


def write_trajectory(path, data: dict) -> None:
    """Write a validated trajectory document (stable key order)."""
    validate_trajectory(data, source=str(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def append_entry(path, entry: dict, suite: str) -> dict:
    """Append one entry to ``path``, creating the file if absent.

    Returns the full updated trajectory document.  Appending to a file
    recorded for a different suite is refused - one file tracks one
    scenario matrix.
    """
    if os.path.exists(path):
        data = load_trajectory(path)
        if data["suite"] != suite:
            raise SchemaError(
                f"{path} tracks suite {data['suite']!r}, not {suite!r}"
            )
    else:
        data = {"schema": TRAJECTORY_SCHEMA, "suite": suite, "entries": []}
    data["entries"].append(entry)
    write_trajectory(path, data)
    return data


@dataclass(frozen=True)
class Regression:
    """One gated difference between two trajectory entries."""

    scenario: str
    metric: str
    previous: float | int | None
    current: float | int | None
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.scenario}.{self.metric}: {self.previous} -> "
            f"{self.current} ({self.detail})"
        )


def compare_entries(
    previous: dict,
    current: dict,
    wall_ratio: float = DEFAULT_WALL_RATIO,
    wall_clock: str = "same-machine",
    wall_floor: float = DEFAULT_WALL_FLOOR,
) -> list[Regression]:
    """Gated diff of two entries; an empty list means no regression.

    Deterministic metrics (:data:`EXACT_METRICS`) must match exactly in
    every scenario present in both entries - *any* change, improvement
    included, is reported, because a silent change to a deterministic
    counter means the protocol's complexity shape moved and the
    committed trajectory must be updated deliberately.  A scenario that
    disappears from ``current`` is a regression; new scenarios are not.

    ``wall_clock`` selects the timing gate: ``"same-machine"`` (the
    default) applies the ``wall_ratio`` band only when both entries
    carry identical machine fingerprints, ``"always"`` applies it
    unconditionally, ``"off"`` skips it.  Even inside the band, the
    wall clock must have grown by at least ``wall_floor`` seconds in
    absolute terms - a ratio on a sub-millisecond scenario is timer
    noise, not a regression.
    """
    if wall_clock not in ("same-machine", "always", "off"):
        raise SchemaError(
            f"wall_clock must be same-machine/always/off, got {wall_clock!r}"
        )
    check_wall = wall_clock == "always" or (
        wall_clock == "same-machine"
        and previous.get("machine") == current.get("machine")
    )
    regressions: list[Regression] = []
    for name, old in previous["scenarios"].items():
        new = current["scenarios"].get(name)
        if new is None:
            regressions.append(
                Regression(name, "scenario", 1, 0, "scenario disappeared")
            )
            continue
        for metric in EXACT_METRICS:
            if metric not in old and metric not in new:
                continue
            if old.get(metric) != new.get(metric):
                regressions.append(
                    Regression(
                        name,
                        metric,
                        old.get(metric),
                        new.get(metric),
                        "deterministic metric changed",
                    )
                )
        if check_wall and WALL_METRIC in old and WALL_METRIC in new:
            old_wall = float(old[WALL_METRIC])
            new_wall = float(new[WALL_METRIC])
            if (
                old_wall > 0
                and new_wall > wall_ratio * old_wall
                and new_wall - old_wall > wall_floor
            ):
                regressions.append(
                    Regression(
                        name,
                        WALL_METRIC,
                        old_wall,
                        new_wall,
                        f"slower than {wall_ratio:g}x the previous entry",
                    )
                )
    return regressions


def checksum_drift(
    previous: dict, current: dict
) -> list[tuple[str, str, str]]:
    """``(scenario, old, new)`` for every scenario in both entries whose
    ``checksum`` changed.  Informational only: never a regression."""
    drift = []
    for name, old in previous["scenarios"].items():
        new = current["scenarios"].get(name)
        if new is None or "checksum" not in old or "checksum" not in new:
            continue
        if old["checksum"] != new["checksum"]:
            drift.append((name, old["checksum"], new["checksum"]))
    return drift
