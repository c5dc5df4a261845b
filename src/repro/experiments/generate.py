"""Regenerate experiment tables outside pytest.

``python -m repro.experiments.generate [E1 E5 ...]`` loads the benchmark
modules (the single source of truth for each experiment's workload and
parameters), runs their collectors, and prints the same tables the
benchmarks print - no pytest harness required.  With no arguments it
lists the registry.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.experiments.report import render_records
from repro.graphs.graph import GraphError

BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

# experiment id -> (benchmark file, collector attribute).
REGISTRY: dict[str, tuple[str, str]] = {
    "E1": ("test_bench_fig1.py", "build_fig1_table"),
    "E2": ("test_bench_thm1_walklength.py", "collect_rows"),
    "E3": ("test_bench_thm2_error.py", "collect_rows"),
    "E4": ("test_bench_thm3_K.py", "collect_rows"),
    "E5": ("test_bench_thm4_congest.py", "collect_rows"),
    "E6": ("test_bench_thm5_rounds.py", "collect_rows"),
    "E7": ("test_bench_lemma4_construction.py", "collect"),
    "E8": ("test_bench_thm6_lowerbound.py", "collect_rows"),
    "E9": ("test_bench_trivial_crossover.py", "collect_rows"),
    "E10": ("test_bench_oracle_agreement.py", "collect_rows"),
    "E11": ("test_bench_related_measures.py", "collect_rows"),
    "E12": ("test_bench_transport_ablation.py", "collect_rows"),
    "E13": ("test_bench_alpha_distributed.py", "collect"),
    "E15": ("test_bench_accuracy_scaling.py", "collect_rows"),
    "E16": ("test_bench_synchronizer.py", "collect_rows"),
    "E17": ("test_bench_scale.py", "collect_rows"),
    "E18": ("test_bench_dispersion.py", "collect_rows"),
    "E19": ("test_bench_count_initial.py", "collect_rows"),
    "E20": ("test_bench_batched_engine.py", "collect_rows"),
    "E21": ("test_bench_reliable_engine.py", "collect_rows"),
    "E24": ("test_bench_memory_ladder.py", "collect_rows"),
}


def load_collector(experiment_id: str):
    """Import the benchmark module for ``experiment_id`` and return its
    collector callable."""
    try:
        filename, attribute = REGISTRY[experiment_id]
    except KeyError:
        raise GraphError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(REGISTRY)}"
        ) from None
    path = BENCH_DIR / filename
    if not path.exists():
        raise GraphError(f"benchmark file missing: {path}")
    spec = importlib.util.spec_from_file_location(
        f"bench_{experiment_id}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, attribute)


def run_experiment(experiment_id: str) -> str:
    """Run one experiment's collector and render its output as text."""
    collector = load_collector(experiment_id)
    result = collector()
    return _render(experiment_id, result)


def _render(experiment_id: str, result) -> str:
    if isinstance(result, list) and result and isinstance(result[0], dict):
        return render_records(experiment_id, result)
    if isinstance(result, tuple):
        blocks = []
        for index, part in enumerate(result):
            if isinstance(part, list) and part and isinstance(part[0], dict):
                blocks.append(
                    render_records(f"{experiment_id}[{index}]", part)
                )
            else:
                blocks.append(f"{experiment_id}[{index}]: {part!r}")
        return "\n".join(blocks)
    return f"{experiment_id}: {result!r}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.experiments.generate E1 [E5 ...]")
        print(f"known experiments: {' '.join(sorted(REGISTRY))}")
        return 0
    for experiment_id in argv:
        try:
            print(run_experiment(experiment_id))
        except GraphError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
