"""The repository benchmark: one command, every metric by name and unit,
every output checked against the exact oracle.

Driver form - one workload, one measurement window, last stdout line is
the JSON result::

    python3 bench/run.py --workload tree-paper --seed 0 --seconds 25 --trace 0

Full form - every workload, untraced then traced, one result file for
``compare.py``::

    python3 bench/run.py --seed 0 --out bench/results/NAME.json

A window runs operations back to back, one child process at a time
(``child.py``), until ``--seconds`` have passed.  The inputs of a run
with seed ``S`` are a panel of ``PANEL`` protocol seeds,
``1000 * S + 1 .. 1000 * S + PANEL``; operation ``i`` uses panel entry
``i mod PANEL``, so a long window repeats inputs instead of adding new
ones.  With ``--trace 0`` an operation is one untraced call and the
result holds the end-to-end metrics; with ``--trace 1`` it is the
untraced call and a traced call of the same seed, and the result holds
the per-layer metrics.  A metric's value is the median
over the panel seeds of its median over that seed's operations, so
every seed weighs the same however many operations the window fitted;
rounds, bits and accuracy then repeat exactly for one ``--seed``.
End-to-end timings are rescaled to the reference host speed
(``child.calibrate``).  An operation fails on an exception, a timeout,
leaving the vectorized fast path, a rank agreement with the oracle
below the workload's floor, or a traced output that differs from the
untraced one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import child
from child import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
#: Hard limit on one workload run, children included: each child's
#: timeout is what is left of it.
BUDGET_S = 170.0
#: Runs with different seeds S draw protocol seeds from disjoint ranges
#: SEED_STRIDE * S + 1 .. SEED_STRIDE * S + PANEL.
SEED_STRIDE = 1000
#: Distinct protocol seeds per run: fewer than the operations the
#: slowest workload fits in the default window on a busy 2-core host.
PANEL = 6


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(Path(path).read_text())


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``.

    Raises :class:`ImportError` when ``src/`` is absent or the package
    comes from anywhere else: the benchmark measures this checkout."""
    src = str(child.SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if Path(repro.__file__).resolve().parents[1] != child.SRC:
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def run_child(workload: Workload, seed: int, mode: str, timeout: float) -> dict:
    """One child operation: its JSON record, or ``{"error": reason}``.

    The child runs in its own session so a timeout kills it together
    with any process it started."""
    proc = subprocess.Popen(
        [
            sys.executable,
            str(Path(child.__file__).resolve()),
            child.encode(workload),
            str(seed),
            mode,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return {"error": f"{mode} seed {seed}: timed out"}
        raise
    if proc.returncode != 0:
        lines = err.strip().splitlines() or ["no output"]
        return {"error": f"{mode} seed {seed}: exit {proc.returncode}: {lines[-1]}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"{mode} seed {seed}: no result record"}


class Oracle:
    """Exact RWBC of a workload's graph, solved once per run."""

    def __init__(self, workload: Workload) -> None:
        from repro.core.exact import rwbc_exact

        graph, _, _ = child.build_inputs(workload)
        self.order = graph.canonical_order()
        start = time.perf_counter()
        self.exact = rwbc_exact(graph)
        self.solve_s = time.perf_counter() - start

    def check(self, record: dict, workload: Workload) -> str | None:
        """Why ``record`` is wrong, or ``None``; adds ``spearman`` and
        ``mean_rel_err`` to a record that has estimates to score."""
        from repro.analysis.error import mean_relative_error
        from repro.analysis.ranking import spearman_rho

        if "error" in record:
            return record["error"]
        tag = f"{record['mode']} seed {record['seed']}"
        if record["fallback_reasons"]:
            return f"{tag}: left the fast path: {record['fallback_reasons']}"
        values = record["betweenness"]
        if len(values) != len(self.order) or not all(
            math.isfinite(value) for value in values
        ):
            return f"{tag}: estimates missing or not finite"
        estimate = dict(zip(self.order, values))
        record["spearman"] = spearman_rho(estimate, self.exact)
        record["mean_rel_err"] = mean_relative_error(estimate, self.exact)
        if record["spearman"] < workload.min_spearman:
            return (
                f"{tag}: spearman {record['spearman']:.3f} below the "
                f"floor {workload.min_spearman}"
            )
        return None


def _same_output(a: dict, b: dict) -> bool:
    """Byte-identical runs: every estimate (JSON floats round-trip
    exactly), the round count and the bit count agree."""
    return all(a[key] == b[key] for key in ("betweenness", "rounds", "bits"))


def _at_reference(record: dict, key: str) -> float:
    """A child's timing rescaled to the reference host speed."""
    return record[key] * child.CALIB_REF_S / record["calib_s"]


def _end_to_end(record: dict) -> dict:
    wall = _at_reference(record, "wall_s")
    return {
        "wall_s": wall,
        "visits_per_s": record["visits"] / wall,
        "setup_s": _at_reference(record, "setup_s"),
        "peak_rss_mb": record["peak_rss_mb"],
        "rounds": record["rounds"],
        "bits": record["bits"],
        "spearman": record["spearman"],
        "mean_rel_err": record["mean_rel_err"],
    }


def _per_layer(plain: dict, traced: dict, oracle: Oracle) -> dict:
    """Layer seconds are raw; ``trace.overhead`` compares the two calls'
    reference-speed walls, so host drift between them cancels."""
    return {
        **traced["layers"],
        "graphs.build_s": traced["build_s"],
        "oracle.solve_s": oracle.solve_s,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead": _at_reference(traced, "wall_s")
        / _at_reference(plain, "wall_s"),
        "host.slowdown": traced["calib_s"] / child.CALIB_REF_S,
    }


def _median(values: list) -> float | None:
    kept = [value for value in values if value is not None]
    return statistics.median(kept) if kept else None


def summarize(values: list) -> dict:
    """Median, quartiles and sample count of the non-``None`` values."""
    kept = [value for value in values if value is not None]
    if not kept:
        return {"value": None, "q1": None, "q3": None, "n": 0, "samples": []}
    q1, q3 = (
        statistics.quantiles(kept, n=4)[::2] if len(kept) > 1 else (kept[0],) * 2
    )
    return {
        "value": statistics.median(kept),
        "q1": q1,
        "q3": q3,
        "n": len(kept),
        "samples": kept,
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> dict:
    """Run one measurement window; see the module docstring."""
    deadline = time.monotonic() + BUDGET_S
    oracle = Oracle(workload)
    modes = ("plain", "traced") if trace else ("plain",)
    window_end = time.monotonic() + seconds
    # metric -> protocol seed -> one value per operation of that seed
    samples: dict[str, dict[int, list]] = {}
    attempted = failed = 0
    errors: list[str] = []
    notes: set[str] = set()
    operation = 0
    while True:
        protocol_seed = SEED_STRIDE * seed + operation % PANEL + 1
        operation += 1
        started = time.monotonic()
        records = {}
        for mode in modes:
            attempted += 1
            record = run_child(
                workload, protocol_seed, mode, deadline - time.monotonic()
            )
            problem = oracle.check(record, workload)
            if problem is None and mode != "plain":
                notes.update(record["notes"])
                if not _same_output(record, records["plain"]):
                    problem = (
                        f"{mode} seed {protocol_seed}: output differs "
                        "from the untraced run"
                    )
            if problem is not None:
                failed += 1
                errors.append(problem)
                break
            records[mode] = record
        else:
            sample = (
                _per_layer(records["plain"], records["traced"], oracle)
                if trace
                else _end_to_end(records["plain"])
            )
            for name, value in sample.items():
                samples.setdefault(name, {}).setdefault(protocol_seed, []).append(
                    value
                )
        # Start another operation only if it is expected to end, like
        # the last one took, no more than half an operation past the
        # window: a run then lasts about --seconds, slow operations
        # included.
        now = time.monotonic()
        if now + (now - started) / 2 >= window_end or now >= deadline:
            break
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: summarize([_median(values) for values in by_seed.values()])
            for name, by_seed in samples.items()
        },
        "errors": errors,
        "notes": sorted(notes),
    }


def metric(result: dict, name: str) -> dict:
    """``run_workload``'s summary of one metric (empty when no
    operation produced it)."""
    return result["metrics"].get(name) or summarize([])


def report(name: str, result: dict, metric_specs: list[dict]) -> None:
    """Print every metric by name with its unit, median and quartiles."""
    for spec in metric_specs:
        entry = metric(result, spec["name"])
        if entry["value"] is None:
            print(f"{name}  {spec['name']} = n/a")
            continue
        print(
            f"{name}  {spec['name']} = {entry['value']:.6g} {spec['unit']}"
            f"  (median of {entry['n']}; q1 {entry['q1']:.6g},"
            f" q3 {entry['q3']:.6g})"
        )
    for error in result["errors"]:
        print(f"{name}  FAILED {error}")
    for note in result["notes"]:
        print(f"{name}  note: {note}")
    print(
        f"{name}  correct={result['correct']} attempted={result['attempted']}"
        f" failed={result['failed']}"
    )


def machine() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_all(spec: dict, seed: int, seconds: float, out: Path) -> int:
    """Every workload, untraced then traced, into one result file."""
    document = {
        "schema": "rwbc.bench/1",
        "sha": _git_sha(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    failed = 0
    for name, workload in WORKLOADS.items():
        entry = {"attempted": 0, "failed": 0, "errors": [], "notes": []}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload, seed, seconds, trace)
            report(name, result, spec[key])
            entry[key] = {
                item["name"]: {**metric(result, item["name"]), "unit": item["unit"]}
                for item in spec[key]
            }
            for field in ("attempted", "failed", "errors", "notes"):
                entry[field] += result[field]
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        failed += entry["failed"]
        document["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if (args.workload is None) == (args.out is None):
        parser.error("give exactly one of --workload and --out")
    try:
        spec = load_spec()
        import_repro()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.out is not None:
        return run_all(spec, args.seed, seconds, args.out)
    trace = bool(args.trace)
    result = run_workload(WORKLOADS[args.workload], args.seed, seconds, trace)
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    report(args.workload, result, metric_specs)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    item["name"]: {
                        "value": metric(result, item["name"])["value"],
                        "unit": item["unit"],
                    }
                    for item in metric_specs
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
