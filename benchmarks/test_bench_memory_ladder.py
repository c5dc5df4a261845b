"""E24 - the count tensor's memory ladder.

Algorithm 1 gives every node one visit counter ``xi_v[s]`` per source,
so the simulator's count tensor is ``O(n^2)`` cells however short the
walks are.  This bench measures that constant the way a complexity
claim should be checked: peak RSS of one fast-path run on a ladder of
sizes.  The workload is a random tree with ``l = 10``, ``K = 1`` (the
``tree-wide`` benchmark workload and the full suite's ``tree10k-sync``
row): the walks are short, so the count tensor sets the memory.

Each rung runs in a fresh subprocess that reports its own ``VmHWM``
(Linux's per-process peak resident set), so no rung inherits another's
heap.  The ladder asserts:

* peak RSS at n = 5000 at most :data:`MAX_PEAK_MB`;
* the per-cell slope ``(peak_5000 - peak_2000) / (5000^2 - 2000^2)``
  at most :data:`MAX_BYTES_PER_CELL` bytes.  ``K * (l + 1)`` = 11, so
  the cells are ``uint8`` (:func:`~repro.core.walk_engine.count_dtype`),
  half 1 of the tensor is never made resident outside split mode, and
  the exchange prices each column as it is sent, with no ``n x n`` bit
  table.  Measured: 2.1-2.2 bytes per cell; ``uint32`` cells plus an
  ``n x n`` bit table measured about 6, and int64 cells with both halves
  resident and a per-node copy about 24.

The n = 10k rung is its own test, run by node id in the nightly CI
sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments.report import render_records

LENGTH, WALKS = 10, 1
LADDER = (2000, 5000)
#: Peak RSS bounds, MiB, by n.
MAX_PEAK_MB = {5000: 150, 10000: 320}
MAX_BYTES_PER_CELL = 3.0

#: One rung: build the tree, run the estimator on the fast path, and
#: print the process's peak RSS (MiB) and the run's wall time and rounds.
_RUNG = """
import json, sys, time
from repro.core.estimator import estimate_rwbc_distributed
from repro.core.parameters import WalkParameters
from repro.graphs.generators import random_tree

n, length, walks = map(int, sys.argv[1:4])
graph = random_tree(n, seed=0)
start = time.perf_counter()
result = estimate_rwbc_distributed(
    graph, WalkParameters(length=length, walks_per_source=walks), seed=1
)
wall = time.perf_counter() - start
assert result.fallback_reasons == (), result.fallback_reasons
with open("/proc/self/status") as status:
    peak = next(
        int(line.split()[1]) / 1024.0
        for line in status
        if line.startswith("VmHWM:")
    )
print(json.dumps({
    "n": n,
    "peak_mb": round(peak, 1),
    "wall_s": round(wall, 2),
    "rounds": result.total_rounds,
}))
"""


def measure(n: int) -> dict:
    """Peak RSS and wall time of one run at size ``n``, in a fresh
    interpreter that imports this checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part
    )
    out = subprocess.run(
        [sys.executable, "-c", _RUNG, str(n), str(LENGTH), str(WALKS)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def bytes_per_cell(small: dict, large: dict) -> float:
    """The ladder's slope: peak-RSS bytes per added ``(node, source)``."""
    cells = large["n"] ** 2 - small["n"] ** 2
    return (large["peak_mb"] - small["peak_mb"]) * 2**20 / cells


def collect_rows():
    """E24 table for ``repro.experiments.generate`` (the n=2000/5000 rungs)."""
    return [measure(n) for n in LADDER]


def test_memory_ladder():
    rows = collect_rows()
    small, large = rows
    slope = bytes_per_cell(small, large)
    print(render_records("E24 / count tensor memory ladder", rows))
    print(f"slope: {slope:.2f} bytes per (node, source) cell")
    assert large["peak_mb"] <= MAX_PEAK_MB[large["n"]], large
    assert slope <= MAX_BYTES_PER_CELL, rows


def test_memory_n10k():
    row = measure(10000)
    print(render_records("E24 / count tensor memory, n = 10k", [row]))
    assert row["peak_mb"] <= MAX_PEAK_MB[10000], row
