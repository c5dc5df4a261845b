"""One benchmark operation in a fresh interpreter.

``python bench/child.py SPEC SEED MODE`` imports ``repro`` from the
checkout's ``src/``, builds the workload graph, makes exactly one
``estimate_rwbc_distributed`` call, and prints one JSON record on
stdout.  A fresh process per call is what isolates ``peak_rss_mb``
(this process's peak resident set) and ``setup_s`` (first statement of
this script to graph built: mostly the import of ``repro``).

``SPEC`` is a :class:`Workload` as JSON, ``SEED`` the protocol seed, and
``MODE`` one of:

* ``plain``  - tracing off; the end-to-end measurement;
* ``traced`` - ``repro.obs.Telemetry`` plus the outside-in probes of
  ``probes.py``; the per-layer measurement.

This module imports nothing from ``repro`` at import time, so the
parent can read :data:`WORKLOADS` without paying for (or needing) the
package.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"

MODES = ("plain", "traced")

#: Seconds :func:`calibrate` takes on the reference host (a quiet 2-vCPU
#: x86-64 VM, the one the committed results come from).  End-to-end
#: timings are scaled by ``CALIB_REF_S / calib_s``: reported at the
#: reference speed.
CALIB_REF_S = 0.08


def calibrate() -> float:
    """Time a fixed mix of NumPy kernels and interpreter work.

    On a shared host the speed drifts by 10-30% over tens of seconds as
    co-tenants come and go, and this loop slows with it (a correlation
    of 0.8 with the call's wall time, measured over 100 operations).  It
    is the benchmark's own code and runs before the call, so a change to
    the program does not move it.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    table: dict[int, int] = {}
    for _ in range(180):
        values = rng.integers(0, 1000, size=20_000)
        np.bincount(values)
        np.sort(values)
        for j in range(2_000):
            table[j & 255] = table.get(j & 255, 0) + j
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a fixed graph and the protocol's ``(l, K)``.

    ``length``/``walks`` left as ``None`` take the paper's Theorem 1/3
    schedules (``l = 3n``, ``K = ceil(4 log2 n)``).  The graph is built
    from seed 0 and never from the run seed: the run seed drives the
    protocol's randomness (target election and walks), so every run of
    a workload measures the same instance.
    """

    family: str
    n: int
    length: int | None = None
    walks: int | None = None
    #: Message drop rate of the fault plan (0 = fault-free).
    drop: float = 0.0
    #: Floor on rank agreement with the exact oracle; a run below it
    #: counts as failed (its output is wrong, not just slow).
    min_spearman: float = 0.5


# Why each workload exists is in BENCHMARK.json and README.md.  The
# non-tree workloads use a short walk length with the paper's K: on
# graphs with uneven degrees the work of a paper-length run follows the
# degree of the randomly elected target (1/deg), which made the run-to-
# run spread of wall time and bits 25-35% across seeds; short walks
# rarely reach the target, so their work does not depend on it.
WORKLOADS: dict[str, Workload] = {
    "tree-paper": Workload("tree", 80, min_spearman=0.7),
    "ba-hubs": Workload("ba", 400, length=20, min_spearman=0.9),
    "er-lossy": Workload("er", 60, length=30, drop=0.1, min_spearman=0.9),
    "tree-wide": Workload("tree", 2000, length=10, walks=1, min_spearman=0.6),
}


def build_inputs(workload: Workload):
    """``(graph, WalkParameters, FaultPlan | None)`` for one workload.

    The graphs are ``repro.experiments.workloads.make_workload``'s and
    the plan is ``FAULT_PROFILES["lossy"]``'s (the tests pin both), built
    from ``repro.graphs`` and ``repro.congest`` directly: importing
    ``repro.experiments`` loads ``scipy.stats``, 0.7 s of set-up per
    operation that would halve the operations a window fits.  Needs
    ``repro`` importable (``src/`` on ``sys.path``)."""
    from repro.congest.faults import FaultPlan
    from repro.core.parameters import (
        WalkParameters,
        default_length,
        default_walks,
    )
    from repro.graphs import generators

    n = workload.n
    if workload.family == "tree":
        graph = generators.random_tree(n, seed=0)
    elif workload.family == "ba":
        graph = generators.barabasi_albert_graph(n, 3, seed=0)
    else:
        p = max(generators.connectivity_threshold_p(n, margin=2.0), 8.0 / n)
        graph = generators.erdos_renyi_graph(n, p, seed=0, ensure_connected=True)
    params = WalkParameters(
        length=workload.length or default_length(n),
        walks_per_source=workload.walks or default_walks(n),
    )
    faults = FaultPlan.from_drop_rate(workload.drop) if workload.drop else None
    return graph, params, faults


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    Linux's ``VmHWM`` covers this process's own address space only;
    ``ru_maxrss`` survives ``exec`` and so also counts the parent that
    spawned the process (a 300 MB parent made a 14 MB child read 313
    MB).  ``ru_maxrss`` remains the fallback where ``/proc`` is absent.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def encode(workload: Workload) -> str:
    return json.dumps(asdict(workload), sort_keys=True)


def decode(text: str) -> Workload:
    return Workload(**json.loads(text))


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[2] not in MODES:
        print("usage: child.py SPEC_JSON SEED {plain,traced}", file=sys.stderr)
        return 2
    workload, seed, mode = decode(argv[0]), int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import repro

    build_start = time.perf_counter()
    graph, params, faults = build_inputs(workload)
    built = time.perf_counter()
    record = {
        "mode": mode,
        "seed": seed,
        "setup_s": built - _START,
        "build_s": built - build_start,
        # Host speed right before the call, after the program's imports
        # and before it runs.
        "calib_s": calibrate(),
    }

    kwargs: dict = {}
    probes = None
    if mode == "traced":
        from probes import Probes
        from repro.obs import Telemetry

        probes = Probes()
        kwargs["telemetry"] = Telemetry()

    with probes if probes is not None else contextlib.nullcontext():
        start = time.perf_counter()
        result = repro.estimate_rwbc_distributed(
            graph, params, seed=seed, faults=faults, **kwargs
        )
        wall = time.perf_counter() - start

    record.update(
        wall_s=wall,
        peak_rss_mb=peak_rss_mb(),
        rounds=result.total_rounds,
        bits=result.metrics.total_bits,
        visits=int(sum(int(counts.sum()) for counts in result.counts.values())),
        fallback_reasons=list(result.fallback_reasons),
        betweenness=[
            result.betweenness[node] for node in graph.canonical_order()
        ],
    )
    if probes is not None:
        from probes import layer_metrics

        record["layers"] = layer_metrics(
            result, result.telemetry, probes, wall, graph.num_nodes
        )
        record["notes"] = list(probes.notes)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
