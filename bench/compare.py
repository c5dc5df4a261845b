"""Compare two benchmark result files, workload by workload.

    python bench/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change; both are
``run.py --out`` files.  For every workload and every end-to-end metric
of ``BENCHMARK.json`` it prints one verdict:

* ``worse``      - B's median is worse than A's by more than the bound;
* ``better``     - B's median is better than A's by more than the bound;
* ``unchanged``  - the medians differ by no more than the bound;
* ``unresolved`` - the quartile spread of A's or B's median is wider
  than the bound, so the bound cannot be resolved; never reported as
  unchanged.  The one exception: when every B sample is better than
  every A sample, the verdict is ``better``.

The counters in :data:`EXACT` are not banded when both files ran the
same ``--seed``: they are then a function of the code alone, so any
difference is real.  Such a metric is ``unchanged`` only when its
per-seed values are identical, and otherwise ``worse`` or ``better`` by
the sign of the change in their median (their mean breaks a tie).
BENCHMARK.json's bound for them has to cover the spread between seed
panels (``README.md``), far wider than any real change worth flagging.

A result holds one window per workload, so the spread of its median is
taken by bootstrap over the window's per-seed values.  Host drift
between the two runs is not in it; run the two sides alternately
(``README.md``).  The ``change`` column is the worsening
relative to A's median (negative is an improvement), whichever
direction the metric prefers.  Exit code 1 when any verdict is
``worse``, else 0.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Counters fixed by the protocol seed (Theorems 5 and 4).
EXACT = ("rounds", "bits")


def spread(entry: dict) -> float:
    """Quartile distance of the median, as a share of it: the quartiles
    of 1000 bootstrap medians of the samples (fixed seed, so repeatable)."""
    samples = entry["samples"]
    if len(samples) < 2:
        return 0.0
    rng = random.Random(0)
    medians = [
        statistics.median(rng.choices(samples, k=len(samples)))
        for _ in range(1000)
    ]
    q1, _, q3 = statistics.quantiles(medians, n=4)
    return (q3 - q1) / abs(entry["value"])


def verdict(
    a: dict, b: dict, better: str, bound: float
) -> tuple[str, float | None, float | None]:
    """``(verdict, change, spread)`` for one metric; ``change`` > 0 is
    worse, ``spread`` is the wider of the two medians' spreads."""
    if not a["value"] or b["value"] is None:
        return "unresolved", None, None
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    wider = max(spread(a), spread(b))
    if wider > bound:
        if better == "lower":
            separated = max(b["samples"]) < min(a["samples"])
        else:
            separated = min(b["samples"]) > max(a["samples"])
        return ("better" if separated else "unresolved"), change, wider
    if change > bound:
        return "worse", change, wider
    if change < -bound:
        return "better", change, wider
    return "unchanged", change, wider


def exact_verdict(a: dict, b: dict, better: str) -> tuple[str, float | None]:
    """``(verdict, change)`` for a counter measured on the same seeds."""
    if not a["value"] or b["value"] is None:
        return "unresolved", None
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    if sorted(a["samples"]) == sorted(b["samples"]):
        return "unchanged", change
    moved = change or sign * (
        statistics.fmean(b["samples"]) - statistics.fmean(a["samples"])
    )
    if moved > 0:
        return "worse", change
    if moved < 0:
        return "better", change
    return "unresolved", change


def compare(a_doc: dict, b_doc: dict, spec: dict) -> list[dict]:
    """One row per workload present in both files x end-to-end metric."""
    same_seed = a_doc.get("seed") == b_doc.get("seed")
    rows = []
    for workload in a_doc["workloads"]:
        if workload not in b_doc["workloads"]:
            continue
        a_metrics = a_doc["workloads"][workload]["end_to_end"]
        b_metrics = b_doc["workloads"][workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = a_metrics[name], b_metrics[name]
            bound = metric["bound"]
            if same_seed and name in EXACT:
                result, change = exact_verdict(a, b, metric["better"])
                wider = bound = None
            else:
                result, change, wider = verdict(a, b, metric["better"], bound)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": a["value"],
                    "b": b["value"],
                    "change": change,
                    "spread": wider,
                    # None: compared exactly, not banded.
                    "bound": bound,
                    "verdict": result,
                }
            )
    return rows


def _fmt(value, pattern: str) -> str:
    if value is None:
        return "n/a".rjust(len(format(0.0, pattern)))
    return format(value, pattern)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A: {args[0]}  sha {a_doc['sha']}  machine {a_doc['machine']}")
    print(f"B: {args[1]}  sha {b_doc['sha']}  machine {b_doc['machine']}")
    if a_doc["machine"].get("cpus") != b_doc["machine"].get("cpus"):
        print("warning: the two files come from machines with different cpus")
    print(
        f"{'workload':<12} {'metric':<14} {'A':>12} {'B':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    rows = compare(a_doc, b_doc, spec)
    for row in rows:
        same = "  (identical)" if row["a"] == row["b"] else ""
        bound = "exact" if row["bound"] is None else format(row["bound"], "6.0%")
        print(
            f"{row['workload']:<12} {row['metric']:<14} "
            f"{_fmt(row['a'], '12.6g')} {_fmt(row['b'], '12.6g')} "
            f"{_fmt(row['change'], '+8.2%')} {_fmt(row['spread'], '7.2%')} "
            f"{bound:>6}  {row['verdict']}{same}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} comparisons, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
