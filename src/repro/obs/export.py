"""Structured JSONL run artifacts: write, read, validate, diff.

One observed run serializes to a JSON-Lines file where every line is a
record object with a ``record`` type tag.  The schema is versioned
(:data:`SCHEMA`); readers reject artifacts from a different major
schema so downstream tooling fails loudly instead of misparsing.

Record types, in file order:

``header``
    Schema version, free-form run ``meta`` (graph family, n, m, seed,
    CLI argv, fault description), protocol parameters, target node,
    fast-path flag and fallback reasons.
``summary``
    ``RunMetrics.summary()`` numbers, the phase-round breakdown, and
    ARQ recovery totals (None on unreliable runs).
``phase``
    One per protocol phase window (setup / counting / exchange and,
    when the run outlived the first finisher, drain): inclusive round
    window plus the rounds/messages/bits/retransmits/walk-send/fault
    totals and wall-clock attributed to it.
``span``
    One per profiler span path: call count and wall seconds.
``instrument``
    One per named histogram: the :class:`~repro.obs.instruments.Log2Histogram`
    digest.
``series``
    Dense per-round integer/float series (messages, bits, wall clock,
    and every round counter), index 0 = round 1.
``trace``
    Optional: one per recorded :class:`~repro.congest.trace.TraceEvent`
    (preceded by a ``trace_summary`` record with the event/dropped
    counts).
``end``
    Terminal record carrying the count of preceding records, so a
    truncated file is detectable.

All numbers are plain Python ints/floats (numpy scalars are coerced),
so artifacts round-trip through any JSON tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SCHEMA",
    "Artifact",
    "SchemaError",
    "build_records",
    "diff_artifacts",
    "phase_windows",
    "read_artifact",
    "validate_artifact",
    "write_artifact",
]

#: Current artifact schema.  Bump the trailing integer on breaking
#: changes; readers reject any other prefix/version.
SCHEMA = "rwbc.observe/1"

#: Phases attributed in timeline order by :func:`phase_windows`.
_PHASE_ORDER = ("setup", "counting", "exchange", "drain")


class SchemaError(ValueError):
    """An artifact failed schema validation."""


def _plain(value):
    """Coerce numpy scalars/arrays (and nested containers) to JSON types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def phase_windows(phase_rounds: dict) -> list[tuple[str, int, int]]:
    """Inclusive 1-based round windows ``(name, first, last)`` per phase.

    Derived from the estimator's ``phase_rounds`` breakdown
    (setup/counting/exchange/total); rounds after the last node's
    finish - reliable-mode stragglers draining their channels - land in
    a synthetic ``drain`` phase.  Empty windows are omitted.
    """
    windows: list[tuple[str, int, int]] = []
    cursor = 0
    for name in ("setup", "counting", "exchange"):
        length = int(phase_rounds.get(name, 0))
        if length > 0:
            windows.append((name, cursor + 1, cursor + length))
        cursor += length
    total = int(phase_rounds.get("total", cursor))
    if total > cursor:
        windows.append(("drain", cursor + 1, total))
    return windows


def _window_sum(series, first: int, last: int):
    """Sum of a per-round series over the inclusive round window."""
    if not series:
        return 0
    return sum(series[first - 1 : last])


def build_records(
    result,
    meta: dict | None = None,
    tracer=None,
) -> list[dict]:
    """Serialize one :class:`~repro.core.result.DistributedRWBCResult`
    (plus its attached telemetry, if any) into artifact records."""
    metrics = result.metrics
    telemetry = getattr(result, "telemetry", None)
    profiler = telemetry.profiler if telemetry is not None else None
    instruments = telemetry.instruments if telemetry is not None else None
    rounds = metrics.rounds

    records: list[dict] = []
    records.append(
        {
            "record": "header",
            "schema": SCHEMA,
            "meta": _plain(meta or {}),
            "parameters": {
                "length": result.parameters.length,
                "walks_per_source": result.parameters.walks_per_source,
            },
            "target": _plain(result.target),
            "rounds": rounds,
            "fast_path": not result.fallback_reasons,
            "fallback_reasons": list(result.fallback_reasons),
        }
    )
    records.append(
        {
            "record": "summary",
            "metrics": _plain(metrics.summary()),
            "phase_rounds": _plain(result.phase_rounds),
            "recovery": _plain(result.recovery),
        }
    )

    wall_series = list(profiler.round_wall) if profiler is not None else []
    if len(wall_series) != rounds:
        # The wall series must line up round-for-round to be sliceable;
        # anything else (no telemetry, partial run) is reported whole
        # but not attributed per phase.
        wall_series = []
    counter_series: dict[str, list[int]] = {}
    if instruments is not None:
        counter_series = {
            name: instruments.round_series(name, rounds)
            for name in sorted(instruments.round_counters)
        }

    for name, first, last in phase_windows(result.phase_rounds):
        fault_totals = {
            counter[len("faults_") :]: _window_sum(series, first, last)
            for counter, series in counter_series.items()
            if counter.startswith("faults_")
        }
        records.append(
            {
                "record": "phase",
                "name": name,
                "start_round": first,
                "end_round": last,
                "rounds": last - first + 1,
                "messages": _window_sum(
                    metrics.messages_per_round, first, last
                ),
                "bits": _window_sum(metrics.bits_per_round, first, last),
                "wall_s": round(_window_sum(wall_series, first, last), 6),
                "retransmits": _window_sum(
                    counter_series.get("retransmissions", []), first, last
                ),
                "walk_sends": _window_sum(
                    counter_series.get("walk_sends", []), first, last
                ),
                "faults": fault_totals,
            }
        )

    if profiler is not None:
        for path, stats in sorted(
            profiler.summary().items(),
            key=lambda item: -item[1]["wall_s"],
        ):
            records.append(
                {
                    "record": "span",
                    "path": path,
                    "count": stats["count"],
                    "wall_s": round(stats["wall_s"], 6),
                }
            )

    if instruments is not None:
        for name in sorted(instruments.histograms):
            digest = instruments.histograms[name].summary()
            records.append(
                {"record": "instrument", "name": name, **_plain(digest)}
            )

    records.append(
        {
            "record": "series",
            "name": "messages_per_round",
            "values": list(metrics.messages_per_round),
        }
    )
    records.append(
        {
            "record": "series",
            "name": "bits_per_round",
            "values": list(metrics.bits_per_round),
        }
    )
    if wall_series:
        records.append(
            {
                "record": "series",
                "name": "wall_per_round",
                "values": [round(value, 6) for value in wall_series],
            }
        )
    for name, series in counter_series.items():
        records.append({"record": "series", "name": name, "values": series})

    if tracer is not None and len(tracer):
        records.append(
            {
                "record": "trace_summary",
                "events": len(tracer.events),
                "dropped": tracer.dropped,
            }
        )
        for event in tracer.events:
            records.append(
                {
                    "record": "trace",
                    "round": event.round_number,
                    "node": event.node_id,
                    "event": event.event,
                    "detail": _plain(list(event.detail)),
                }
            )

    records.append({"record": "end", "records": len(records)})
    return records


def write_artifact(
    path,
    result,
    meta: dict | None = None,
    tracer=None,
) -> int:
    """Write one run's artifact to ``path``; returns the record count."""
    records = build_records(result, meta=meta, tracer=tracer)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
    return len(records)


@dataclass
class Artifact:
    """Parsed artifact, indexed by record type."""

    header: dict
    summary: dict
    phases: list[dict] = field(default_factory=list)
    spans: dict[str, dict] = field(default_factory=dict)
    instruments: dict[str, dict] = field(default_factory=dict)
    series: dict[str, list] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)
    trace_summary: dict | None = None
    end: dict | None = None

    @property
    def rounds(self) -> int:
        return int(self.header.get("rounds", 0))


def read_artifact(path) -> Artifact:
    """Parse and validate a JSONL artifact; raises :class:`SchemaError`
    on malformed, truncated, or wrong-version input."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise SchemaError(
                    f"{path}: line {line_number} is not valid JSON: {error}"
                ) from error
            if not isinstance(record, dict) or "record" not in record:
                raise SchemaError(
                    f"{path}: line {line_number} has no 'record' tag"
                )
            records.append(record)
    return validate_artifact(records, source=str(path))


def validate_artifact(records: list[dict], source: str = "artifact") -> Artifact:
    """Structural validation of a record list; returns the parsed
    :class:`Artifact` or raises :class:`SchemaError`."""
    if not records:
        raise SchemaError(f"{source}: empty artifact")
    header = records[0]
    if header.get("record") != "header":
        raise SchemaError(f"{source}: first record must be the header")
    schema = header.get("schema", "")
    if schema != SCHEMA:
        raise SchemaError(
            f"{source}: unsupported schema {schema!r} (expected {SCHEMA!r})"
        )
    end = records[-1]
    if end.get("record") != "end":
        raise SchemaError(f"{source}: missing terminal end record (truncated?)")
    if end.get("records") != len(records) - 1:
        raise SchemaError(
            f"{source}: end record counts {end.get('records')} records, "
            f"file has {len(records) - 1}"
        )

    artifact = Artifact(header=header, summary={}, end=end)
    for record in records[1:-1]:
        kind = record["record"]
        if kind == "summary":
            artifact.summary = record
        elif kind == "phase":
            artifact.phases.append(record)
        elif kind == "span":
            artifact.spans[record["path"]] = record
        elif kind == "instrument":
            artifact.instruments[record["name"]] = record
        elif kind == "series":
            artifact.series[record["name"]] = record["values"]
        elif kind == "trace":
            artifact.trace.append(record)
        elif kind == "trace_summary":
            artifact.trace_summary = record
        else:
            raise SchemaError(f"{source}: unknown record type {kind!r}")
    if not artifact.summary:
        raise SchemaError(f"{source}: missing summary record")
    rounds = artifact.rounds
    for name in ("messages_per_round", "bits_per_round"):
        series = artifact.series.get(name)
        if series is None:
            raise SchemaError(f"{source}: missing required series {name!r}")
        if len(series) != rounds:
            raise SchemaError(
                f"{source}: series {name!r} has {len(series)} entries for "
                f"{rounds} rounds"
            )
    for phase in artifact.phases:
        if phase["end_round"] > rounds or phase["start_round"] < 1:
            raise SchemaError(
                f"{source}: phase {phase['name']!r} window "
                f"[{phase['start_round']}, {phase['end_round']}] exceeds "
                f"the run's {rounds} rounds"
            )
    return artifact


def _delta(a, b) -> list:
    return [a, b, b - a]


def diff_artifacts(a: Artifact, b: Artifact) -> dict:
    """Structured ``[a, b, b - a]`` deltas between two artifacts:
    summary metrics, per-phase totals, and span wall clock."""
    a_metrics = a.summary.get("metrics", {})
    b_metrics = b.summary.get("metrics", {})
    summary = {
        key: _delta(a_metrics.get(key, 0), b_metrics.get(key, 0))
        for key in sorted(set(a_metrics) | set(b_metrics))
    }
    a_phases = {phase["name"]: phase for phase in a.phases}
    b_phases = {phase["name"]: phase for phase in b.phases}
    phases: dict[str, dict] = {}
    for name in sorted(
        set(a_phases) | set(b_phases),
        key=lambda name: (
            _PHASE_ORDER.index(name) if name in _PHASE_ORDER else 99
        ),
    ):
        pa = a_phases.get(name, {})
        pb = b_phases.get(name, {})
        phases[name] = {
            key: _delta(pa.get(key, 0), pb.get(key, 0))
            for key in ("rounds", "messages", "bits", "retransmits", "wall_s")
        }
    spans = {
        path: {
            "wall_s": _delta(
                a.spans.get(path, {}).get("wall_s", 0.0),
                b.spans.get(path, {}).get("wall_s", 0.0),
            )
        }
        for path in sorted(set(a.spans) | set(b.spans))
    }
    return {"summary": summary, "phases": phases, "spans": spans}
