"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import compare
import probes
import run

from repro import estimate_rwbc_distributed
from repro.congest.transport import BulkOutbox
from repro.core import walk_engine
from repro.core.parameters import WalkParameters
from repro.experiments.scenarios import FAULT_PROFILES, make_fault_plan
from repro.experiments.workloads import make_workload
from repro.obs import Telemetry

SPEC = run.load_spec()
TINY = child.Workload("tree", 20, min_spearman=0.0)


def _names(key: str) -> set[str]:
    return {metric["name"] for metric in SPEC[key]}


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(child.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_reports_every_metric(trace, key):
    result = run.run_workload(TINY, seed=0, seconds=0.1, trace=trace)
    assert result["correct"], result["errors"]
    assert result["attempted"] == (2 if trace else 1)
    assert set(result["metrics"]) == _names(key)
    missing = [
        name for name, entry in result["metrics"].items() if entry["value"] is None
    ]
    assert missing == []


def _run(graph, params, **kwargs):
    return estimate_rwbc_distributed(graph, params, seed=5, **kwargs)


@pytest.mark.parametrize("name", list(child.WORKLOADS))
def test_inputs_are_the_repo_workloads(name):
    """The child builds its inputs without importing repro.experiments;
    they must still be make_workload's graph and the lossy profile."""
    workload = child.WORKLOADS[name]
    graph, _, plan = child.build_inputs(workload)
    reference = make_workload(workload.family, workload.n, seed=0)
    assert sorted(graph.edges()) == sorted(reference.graph.edges())
    if workload.drop:
        assert workload.drop == FAULT_PROFILES["lossy"]["drop"]
        small = make_workload(workload.family, 16).graph
        params = WalkParameters(length=8, walks_per_source=2)
        ours = _run(small, params, faults=plan)
        theirs = _run(
            small, params, faults=make_fault_plan(FAULT_PROFILES["lossy"])
        )
        assert ours.betweenness == theirs.betweenness
        assert ours.metrics.faults == theirs.metrics.faults


@pytest.mark.parametrize("drop", [0.0, 0.1])
def test_probes_are_byte_neutral(drop):
    workload = child.Workload("er", 24, length=12, drop=drop)
    graph, params, plan = child.build_inputs(workload)
    plain = _run(graph, params, faults=plan)
    with probes.Probes() as probed:
        traced = _run(graph, params, faults=plan, telemetry=Telemetry())
    assert traced.betweenness == plain.betweenness
    assert traced.total_rounds == plain.total_rounds
    assert traced.metrics.total_bits == plain.metrics.total_bits
    assert probed.stats["walk_engine.kernel"].calls > 0
    assert probed.notes == []


def test_probes_restore_the_originals():
    kernel = walk_engine.counting_round_kernel
    end_round = vars(walk_engine.CountingWalkEngine)["end_round"]
    push_rows = vars(BulkOutbox)["push_rows"]
    with probes.Probes():
        assert walk_engine.counting_round_kernel is not kernel
    assert walk_engine.counting_round_kernel is kernel
    assert vars(walk_engine.CountingWalkEngine)["end_round"] is end_round
    assert vars(BulkOutbox)["push_rows"] is push_rows


def test_missing_or_reshaped_probe_target_reports_null():
    targets = tuple(
        dataclasses.replace(target, attr="no_such_kernel")
        if target.name == "walk_engine.kernel"
        else dataclasses.replace(target, params=("nodes",))
        if target.name == "transport.drain"
        else target
        for target in probes.TARGETS
    ) + (probes.Target("gone", "repro.no_such_module", "f", ()),)
    graph = make_workload("tree", 20).graph
    params = WalkParameters(length=30, walks_per_source=4)
    with probes.Probes(targets) as probed:
        result = _run(graph, params, telemetry=Telemetry())
    layers = probes.layer_metrics(result, result.telemetry, probed, 1.0, 20)
    assert probed.stats["walk_engine.kernel"] is None
    assert probed.stats["transport.drain"] is None
    assert probed.stats["gone"] is None
    assert len(probed.notes) == 3
    assert layers["walk_engine.kernel_s"] is None
    assert layers["walk_engine.kernel_us_per_group"] is None
    assert layers["transport.drain_s"] is None
    assert layers["walk_engine.aggregate_s"] is not None
    assert isinstance(layers["unattributed_s"], float)


def _entry(samples):
    return run.summarize(samples)


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "worse"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", "better"),
        ([1.0, 1.01, 0.99, 1.0], [1.05, 1.06, 1.04, 1.05], "lower", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "higher", "worse"),
        # Spread wider than the bound: never "unchanged" ...
        ([0.5, 1.0, 1.5, 1.0], [1.02, 0.52, 1.52, 1.02], "lower", "unresolved"),
        # ... nor "worse", even when the medians moved past the bound ...
        ([0.5, 1.0, 1.5, 1.0], [0.7, 1.2, 1.7, 1.2], "lower", "unresolved"),
        # ... but "better" when every B sample beats every A sample.
        ([2.0, 3.0, 4.0, 3.0], [0.5, 1.0, 1.5, 1.0], "lower", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    verdict, _, _ = compare.verdict(_entry(a), _entry(b), better, 0.1)
    assert verdict == expected


@pytest.mark.parametrize(
    "b, expected",
    [
        ([1000, 1010, 990], "unchanged"),
        ([1000, 1011, 990], "worse"),  # same median, larger mean
        ([1001, 1010, 990], "worse"),  # 0.1%: far inside any band
        ([999, 1010, 990], "better"),
    ],
)
def test_compare_counters_exactly_at_the_same_seed(b, expected):
    verdict, _ = compare.exact_verdict(_entry([1000, 1010, 990]), _entry(b), "lower")
    assert verdict == expected


def _result_file(path: Path, wall: list[float], bits=(1.0, 1.0, 1.0), seed=0) -> Path:
    metrics = {
        metric["name"]: {**_entry([1.0, 1.0, 1.0]), "unit": metric["unit"]}
        for metric in SPEC["end_to_end"]
    }
    metrics["wall_s"] = {**_entry(wall), "unit": "s"}
    metrics["bits"] = {**_entry(list(bits)), "unit": "bits"}
    path.write_text(
        json.dumps(
            {
                "sha": path.stem,
                "seed": seed,
                "machine": {"cpus": 2},
                "workloads": {"tree-paper": {"end_to_end": metrics}},
            }
        )
    )
    return path


def test_compare_exit_code(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", [1.0, 1.0, 1.0])
    same = _result_file(tmp_path / "b.json", [1.01, 1.0, 1.01])
    slow = _result_file(tmp_path / "c.json", [1.5, 1.5, 1.5])
    more_bits = _result_file(tmp_path / "d.json", [1.0] * 3, bits=(1.0, 1.02, 1.0))
    other_seed = _result_file(
        tmp_path / "e.json", [1.0] * 3, bits=(1.0, 1.02, 1.0), seed=1
    )
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
    assert compare.main([str(base), str(more_bits)]) == 1
    # Different seed panels: the counters are banded like timings.
    assert compare.main([str(base), str(other_seed)]) == 0
    assert "tree-paper   wall_s" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    measure: the command exits non-zero and prints no result."""
    root = Path(run.__file__).resolve().parents[1]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        root / "bench",
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload",
            "tree-paper",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
