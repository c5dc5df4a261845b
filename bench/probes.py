"""Outside-in layer probes for the benchmark.

The benchmark times the program's layers without editing the program.
It has two sources:

* the spans and instruments ``repro.obs.Telemetry`` already records
  (scheduler phases, engine emit/post-round/ARQ/dedup, walk sends);
* wrappers that :class:`Probes` installs around a few public entry
  points, in the module that calls them, for the layers no span covers
  (:data:`TARGETS`).

A wrapper calls the original with the same arguments and returns its
result untouched, so a probed run is byte-identical to an unprobed one.
A target that is missing, or whose parameters no longer match the ones
recorded here, is left alone: its metrics read ``None`` and a note says
why.  A probe never fails a run, so a later change to the program can
remove or reshape a target without breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = ["TARGETS", "Probes", "Target", "layer_metrics"]

_END_ROUND = ("self", "round_number", "claimed", "outbox", "bulk_outbox")
_GROUPS = ("nodes", "sources", "remainings", "halves", "counts")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``attr`` is a module-level name or ``Class.method``; ``params`` the
    parameter names the wrapper was written against.  ``count_groups``
    adds ``len(nodes)`` per call; ``held_gauge`` samples the engine's
    held-token total after each call.
    """

    name: str
    module: str
    attr: str
    params: tuple[str, ...]
    count_groups: bool = False
    held_gauge: bool = False


TARGETS: tuple[Target, ...] = (
    Target("scheduler.run", "repro.congest.scheduler", "Simulator.run", ("self",)),
    Target(
        "walk_engine.kernel",
        "repro.core.walk_engine",
        "counting_round_kernel",
        _GROUPS + (
            "rngs", "alpha", "absorbing_target", "count_tensor", "degrees",
            "offsets", "max_degree", "seq_start",
        ),
        count_groups=True,
    ),
    Target(
        "walk_engine.aggregate",
        "repro.core.walk_engine",
        "aggregate_network_groups",
        _GROUPS,
    ),
    Target(
        "walk_engine.end_round",
        "repro.core.walk_engine",
        "CountingWalkEngine.end_round",
        _END_ROUND,
        held_gauge=True,
    ),
    Target(
        "transport.push_rows",
        "repro.congest.transport",
        "BulkOutbox.push_rows",
        ("self", "kind", "senders", "receivers", "fields", "multiplicity"),
    ),
    Target(
        "transport.drain",
        "repro.congest.transport",
        "BulkOutbox.drain",
        ("self", "n", "control_messages"),
    ),
    Target(
        "exchange.end_round",
        "repro.core.exchange_engine",
        "ExchangeEngine.end_round",
        _END_ROUND,
    ),
)


@dataclass
class ProbeStat:
    calls: int = 0
    seconds: float = 0.0
    groups: int = 0
    held: list[int] = field(default_factory=list)


class Probes:
    """Context manager that installs the :data:`TARGETS` wrappers and
    restores the originals on exit.

    After the block, :attr:`stats` maps each target name to its
    :class:`ProbeStat`, or to ``None`` when the target could not be
    probed (the reason is in :attr:`notes`).
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.stats: dict[str, ProbeStat | None] = {}
        self.notes: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probes":
        # Import every target module before patching any: a module that
        # does ``from x import f`` then binds the original, not a
        # wrapper that would outlive this block.
        modules = {}
        for target in self.targets:
            if target.module not in modules:
                try:
                    modules[target.module] = importlib.import_module(
                        target.module
                    )
                except ImportError as exc:
                    modules[target.module] = None
                    self.notes.append(f"{target.module}: not importable ({exc})")
        for target in self.targets:
            self.stats[target.name] = self._install(
                target, modules[target.module]
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for owner, name, original in reversed(self._restore):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._restore.clear()

    def _install(self, target: Target, module) -> ProbeStat | None:
        if module is None:
            return None
        *path, name = target.attr.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if not callable(original):
            self.notes.append(
                f"{target.name}: {target.module}.{target.attr} not found"
            )
            return None
        try:
            params = tuple(inspect.signature(original).parameters)
        except (TypeError, ValueError):
            params = ()
        if params != target.params:
            self.notes.append(
                f"{target.name}: signature changed to ({', '.join(params)})"
            )
            return None
        stat = ProbeStat()
        # What to put back: the owner's own entry, or None when the
        # attribute was inherited (then the wrapper is deleted again).
        self._restore.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, _wrap(original, stat, target))
        return stat


def _wrap(original, stat: ProbeStat, target: Target):
    method = target.params[:1] == ("self",)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        stat.seconds += perf_counter() - start
        stat.calls += 1
        if target.count_groups:
            nodes = args[1 if method else 0] if args else kwargs["nodes"]
            stat.groups += len(nodes)
        if target.held_gauge:
            held = getattr(args[0], "held", None)
            if isinstance(held, np.ndarray) and held.any():
                stat.held.append(int(held.sum()))
        return result

    return wrapper


def _span_seconds(summary: dict, name: str) -> float:
    """Total wall of every span whose own name (last path part) is
    ``name``; 0.0 when the span never ran."""
    return sum(
        stats["wall_s"]
        for path, stats in summary.items()
        if path.rsplit("/", 1)[-1] == name
    )


def layer_metrics(result, telemetry, probes: Probes, wall_s: float, n: int) -> dict:
    """Per-layer numbers of one traced run.

    ``result`` is the ``DistributedRWBCResult``, ``telemetry`` the
    ``repro.obs.Telemetry`` it ran with, ``probes`` the :class:`Probes`
    that were installed, ``wall_s`` the call's wall time.  Values from a
    probe that could not be installed are ``None``.
    """
    spans = telemetry.profiler.summary()
    round_wall = list(telemetry.profiler.round_wall)
    stats = probes.stats

    def probe(name: str, value):
        stat = stats.get(name)
        return None if stat is None else value(stat)

    phases = result.phase_rounds
    setup_rounds = phases["setup"]
    counting_end = setup_rounds + phases["counting"]
    walk_sends = telemetry.instruments.totals().get("walk_sends", 0)
    retransmissions = (result.recovery or {}).get("retransmissions", 0)
    held = stats.get("walk_engine.end_round")
    kernel = stats.get("walk_engine.kernel")
    drain = probe("transport.drain", lambda s: s.seconds)
    run = stats.get("scheduler.run")
    # Simulator.run outside the round loop (program construction, round
    # 0) and the estimator's work around Simulator.run (relabeling,
    # result assembly).
    outside_rounds = None if run is None else run.seconds - sum(round_wall)
    assemble = None if run is None else wall_s - run.seconds
    # The top-level layers: the scheduler's top-level spans, the drain
    # that closes every round (round 0's, microseconds, also sits in
    # outside_rounds), and the two parts above.
    named = sum(
        entry["wall_s"] for path, entry in spans.items() if "/" not in path
    ) + sum(part for part in (drain, outside_rounds, assemble) if part)
    return {
        "scheduler.round_ms.p50": float(np.percentile(round_wall, 50)) * 1e3,
        "scheduler.round_ms.p99": float(np.percentile(round_wall, 99)) * 1e3,
        "scheduler.nodes_s": _span_seconds(spans, "nodes"),
        "scheduler.deliver_s": _span_seconds(spans, "deliver"),
        "scheduler.drivers_s": _span_seconds(spans, "drivers"),
        "scheduler.outside_rounds_s": outside_rounds,
        "estimator.assemble_s": assemble,
        "phase.setup_s": sum(round_wall[:setup_rounds]),
        "phase.counting_s": sum(round_wall[setup_rounds:counting_end]),
        "phase.exchange_s": sum(round_wall[counting_end:]),
        "phase.setup_rounds": setup_rounds,
        "phase.counting_rounds": phases["counting"],
        "phase.exchange_rounds": result.total_rounds - counting_end,
        "walk_engine.aggregate_s": probe(
            "walk_engine.aggregate", lambda s: s.seconds
        ),
        "walk_engine.kernel_s": probe("walk_engine.kernel", lambda s: s.seconds),
        "walk_engine.kernel_calls": probe(
            "walk_engine.kernel", lambda s: s.calls
        ),
        "walk_engine.kernel_groups": probe(
            "walk_engine.kernel", lambda s: s.groups
        ),
        "walk_engine.kernel_us_per_group": (
            kernel.seconds / kernel.groups * 1e6
            if kernel is not None and kernel.groups
            else None
        ),
        "walk_engine.emit_s": _span_seconds(spans, "engine.emit"),
        "walk_engine.post_round_s": _span_seconds(spans, "engine.post_round"),
        "walk_engine.held_tokens.p50": _held(held, 50),
        "walk_engine.held_tokens.p99": _held(held, 99),
        "walk_engine.held_tokens.max": _held(held, 100),
        # Computed, not measured: the dense int64 (n, 2, n) tensor.
        "walk_engine.count_tensor_mb": 16 * n * n / 1e6,
        "exchange.end_round_s": probe("exchange.end_round", lambda s: s.seconds),
        "transport.push_rows_s": probe(
            "transport.push_rows", lambda s: s.seconds
        ),
        "transport.drain_s": drain,
        "faults.filter_s": _span_seconds(spans, "faults.filter"),
        "faults.dropped": result.metrics.faults.get("dropped", 0),
        "reliable.dedup_s": _span_seconds(spans, "engine.dedup"),
        "reliable.arq_flush_s": _span_seconds(spans, "engine.arq_flush"),
        "reliable.retransmissions": retransmissions,
        "reliable.goodput": (
            walk_sends / (walk_sends + retransmissions) if walk_sends else None
        ),
        # What remains is the round loop's own bookkeeping (traffic
        # accounting, claimed-kind routing, the wake calendar).
        "unattributed_s": wall_s - named,
    }


def _held(stat: ProbeStat | None, percentile: float) -> float | None:
    """Held-token percentile over the rounds that ended with tokens
    held; 0 when no round did."""
    if stat is None:
        return None
    if not stat.held:
        return 0.0
    return float(np.percentile(stat.held, percentile))
