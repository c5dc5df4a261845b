"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``exact``     exact RWBC of every node (Newman's matrix method)
``estimate``  Monte-Carlo or full distributed estimation
``compare``   all centrality measures side by side
``diameter``  distributed diameter via pipelined APSP
``chaos``     distributed estimation under injected faults
``sweep``     run a named scenario suite and append to its committed
              ``BENCH_<suite>.json`` trajectory (``--check`` gates on
              regressions against the previous entry)
``observe``   telemetry toolkit: run (record a JSONL artifact),
              report (render one), diff (compare two),
              trend (render a trajectory file's history)
``info``      available graph families and datasets

Every command takes one graph source: ``--family NAME --n N`` (synthetic,
see ``info``), ``--dataset NAME`` (bundled real networks), or
``--edge-list PATH``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.graphs.graph import Graph, GraphError
from repro.obs.export import SchemaError


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_argument_group("graph source (choose one)")
    source.add_argument("--family", help="synthetic family (see 'info')")
    source.add_argument("--n", type=int, default=30, help="size for --family")
    source.add_argument(
        "--graph-seed", type=int, default=0, help="seed for --family"
    )
    source.add_argument("--dataset", help="bundled dataset (see 'info')")
    source.add_argument("--edge-list", help="path to an edge-list file")


def _resolve_graph(args: argparse.Namespace) -> Graph:
    chosen = [
        name
        for name, value in (
            ("--family", args.family),
            ("--dataset", args.dataset),
            ("--edge-list", args.edge_list),
        )
        if value
    ]
    if len(chosen) != 1:
        raise GraphError(
            f"choose exactly one graph source, got {chosen or 'none'}"
        )
    if args.family:
        from repro.experiments.workloads import make_workload

        return make_workload(args.family, args.n, seed=args.graph_seed).graph
    if args.dataset:
        from repro.graphs.datasets import load_dataset

        return load_dataset(args.dataset)
    from repro.graphs.io import read_edge_list

    return read_edge_list(args.edge_list)


def _graph_meta(
    args: argparse.Namespace, graph: Graph, **extra
) -> dict:
    """Free-form run metadata for observe artifacts."""
    meta: dict = {
        "graph": args.family or args.dataset or args.edge_list,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "seed": getattr(args, "seed", None),
    }
    meta.update({key: value for key, value in extra.items() if value})
    return meta


def _print_centrality(values: dict, top: int | None) -> None:
    ranked = sorted(values.items(), key=lambda item: -item[1])
    if top is not None:
        ranked = ranked[:top]
    width = max(len(str(node)) for node, _ in ranked)
    for node, value in ranked:
        print(f"{str(node):>{width}}  {value:.6f}")


def _cmd_exact(args: argparse.Namespace) -> int:
    from repro.core.exact import rwbc_exact

    graph = _resolve_graph(args)
    values = rwbc_exact(graph, include_endpoints=not args.no_endpoints)
    print(f"# exact RWBC, n={graph.num_nodes} m={graph.num_edges}")
    _print_centrality(values, args.top)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.estimator import (
        estimate_rwbc_distributed,
        estimate_rwbc_montecarlo,
    )
    from repro.core.parameters import WalkParameters, default_parameters
    from repro.core.walk_manager import TransportPolicy

    graph = _resolve_graph(args)
    if args.length and args.walks:
        parameters = WalkParameters(args.length, args.walks)
    else:
        parameters = default_parameters(graph.num_nodes)
    if args.engine == "montecarlo":
        result = estimate_rwbc_montecarlo(graph, parameters, seed=args.seed)
        print(
            f"# montecarlo RWBC, n={graph.num_nodes} l={parameters.length} "
            f"K={parameters.walks_per_source} "
            f"survival={result.survival_fraction:.4f}"
        )
        _print_centrality(result.betweenness, args.top)
    else:
        result = estimate_rwbc_distributed(
            graph,
            parameters,
            seed=args.seed,
            policy=TransportPolicy(args.policy),
            executor=args.executor,
        )
        print(
            f"# distributed RWBC, n={graph.num_nodes} "
            f"l={parameters.length} K={parameters.walks_per_source} "
            f"executor={args.executor} "
            f"rounds={result.total_rounds} phases={result.phase_rounds} "
            f"target={result.target}"
        )
        _print_centrality(result.betweenness, args.top)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.congest.faults import CrashWindow, FaultPlan
    from repro.core.estimator import estimate_rwbc_distributed
    from repro.core.parameters import WalkParameters, default_parameters

    graph = _resolve_graph(args)
    if args.length and args.walks:
        parameters = WalkParameters(args.length, args.walks)
    else:
        parameters = default_parameters(graph.num_nodes)
    crashes = ()
    if args.crash is not None:
        crashes = (
            CrashWindow(
                node=args.crash,
                start=args.crash_start,
                end=args.crash_start + args.crash_span,
            ),
        )
    plan = FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.drop,
        duplicate_rate=args.dup,
        delay_rate=args.delay,
        crashes=crashes,
    )
    telemetry = None
    if args.observe:
        from repro.obs import Telemetry

        telemetry = Telemetry()
    result = estimate_rwbc_distributed(
        graph,
        parameters,
        seed=args.seed,
        faults=plan,
        executor=args.executor,
        max_delay=args.max_delay,
        telemetry=telemetry,
    )
    if args.observe:
        from repro.obs.export import write_artifact

        count = write_artifact(
            args.observe,
            result,
            meta=_graph_meta(args, graph, faults=plan.describe()),
        )
        print(f"# observe: wrote {count} records to {args.observe}")
    print(
        f"# chaos RWBC, n={graph.num_nodes} l={parameters.length} "
        f"K={parameters.walks_per_source} executor={args.executor} "
        f"faults=[{plan.describe()}]"
    )
    print(
        f"# rounds={result.total_rounds} phases={result.phase_rounds} "
        f"target={result.target}"
    )
    if args.executor == "async":
        metrics = result.metrics
        print(
            f"# async: virtual_time={metrics.virtual_time:.1f} "
            f"payloads={metrics.payload_messages} "
            f"control={metrics.control_messages}"
        )
    faults = result.metrics.faults or {}
    injected = " ".join(f"{k}={v}" for k, v in sorted(faults.items()))
    print(f"# injected: {injected or 'nothing'}")
    if result.recovery:
        recovered = " ".join(
            f"{k}={v}" for k, v in sorted(result.recovery.items())
        )
        print(f"# recovery: {recovered}")
    if args.baseline:
        baseline = estimate_rwbc_distributed(
            graph, parameters, seed=args.seed
        )
        deviation = max(
            abs(result.betweenness[node] - baseline.betweenness[node])
            for node in result.betweenness
        )
        print(
            f"# max deviation from fault-free run (same seed): "
            f"{deviation:.6f}"
        )
    _print_centrality(result.betweenness, args.top)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.experiments.scenarios import SUITES, run_suite, suite_scenarios
    from repro.obs.trajectory import (
        append_entry,
        compare_entries,
        load_trajectory,
        new_entry,
    )

    if args.list:
        for suite, scenarios in sorted(SUITES.items()):
            print(f"{suite} ({len(scenarios)} scenarios):")
            for scenario in scenarios:
                print(f"  {scenario.name}")
        return 0

    scenarios = suite_scenarios(args.suite, only=args.only or None)
    out_path = args.out or f"BENCH_{args.suite}.json"

    def report_point(index, total, point, row):
        wall = row.get("wall_s", 0.0)
        detail = (
            f"rounds={row['rounds']} messages={row['messages']}"
            if "rounds" in row
            else f"checksum={row.get('checksum', '?')}"
        )
        print(
            f"[{index + 1}/{total}] {row['scenario']}: {detail} "
            f"wall={wall:.3f}s"
        )

    rows = run_suite(scenarios, progress=report_point)
    columns = [
        "scenario", "graph", "n", "m", "variant", "executor",
        "fault_profile", "rounds", "messages", "bits", "retransmissions",
        "wall_s",
    ]
    print()
    print(format_table(rows, columns=columns))

    entry = new_entry(rows, sha=args.sha or None)
    baseline_path = args.baseline or (
        out_path if os.path.exists(out_path) else None
    )
    regressions = []
    if baseline_path:
        baseline = load_trajectory(baseline_path)
        if baseline["entries"]:
            previous = baseline["entries"][-1]
            regressions = compare_entries(
                previous,
                entry,
                wall_ratio=args.wall_ratio,
                wall_clock=args.wall_clock,
                wall_floor=args.wall_floor,
            )
            print()
            print(
                f"# compared against {baseline_path} entry "
                f"sha={previous.get('sha')} date={previous.get('date')}"
            )
            if regressions:
                for regression in regressions:
                    print(f"# REGRESSION {regression}")
            else:
                print("# no regressions")
    if args.check and regressions:
        print(
            f"error: {len(regressions)} regression(s) against the "
            f"previous trajectory entry",
            file=sys.stderr,
        )
        return 1
    if not args.no_append:
        data = append_entry(out_path, entry, suite=args.suite)
        print(
            f"# appended entry sha={entry['sha']} to {out_path} "
            f"({len(data['entries'])} entries)"
        )
    return 0


def _cmd_observe_trend(args: argparse.Namespace) -> int:
    from repro.obs.report import render_trend
    from repro.obs.trajectory import load_trajectory

    trajectory = load_trajectory(args.trajectory)
    print(render_trend(trajectory, scenario=args.scenario, last=args.last))
    return 0


def _cmd_observe_run(args: argparse.Namespace) -> int:
    from repro.core.estimator import estimate_rwbc_distributed
    from repro.core.parameters import WalkParameters, default_parameters
    from repro.core.walk_manager import TransportPolicy
    from repro.obs import Telemetry
    from repro.obs.export import write_artifact

    # ``--graph`` is the family alias of this command; fold it into the
    # shared resolver's namespace.
    args.family = args.graph
    graph = _resolve_graph(args)
    if args.length and args.walks:
        parameters = WalkParameters(args.length, args.walks)
    else:
        parameters = default_parameters(graph.num_nodes)
    telemetry = Telemetry()
    tracer = None
    if args.trace:
        from repro.congest.trace import Tracer

        tracer = Tracer(max_events=args.trace_events)
    result = estimate_rwbc_distributed(
        graph,
        parameters,
        seed=args.seed,
        policy=TransportPolicy(args.policy),
        vectorized=False if args.slow else None,
        telemetry=telemetry,
        tracer=tracer,
    )
    count = write_artifact(
        args.out,
        result,
        meta=_graph_meta(
            args,
            graph,
            length=parameters.length,
            walks_per_source=parameters.walks_per_source,
            policy=args.policy,
        ),
        tracer=tracer,
    )
    path_label = (
        "fast path" if not result.fallback_reasons else "per-message loop"
    )
    print(
        f"# observed run: n={graph.num_nodes} rounds={result.total_rounds} "
        f"[{path_label}]"
    )
    print(f"# wrote {count} records to {args.out}")
    return 0


def _cmd_observe_report(args: argparse.Namespace) -> int:
    from repro.obs.export import read_artifact
    from repro.obs.report import render_report

    print(render_report(read_artifact(args.artifact)))
    return 0


def _cmd_observe_diff(args: argparse.Namespace) -> int:
    from repro.obs.export import diff_artifacts, read_artifact
    from repro.obs.report import render_diff

    diff = diff_artifacts(read_artifact(args.a), read_artifact(args.b))
    print(render_diff(diff, label_a=args.a, label_b=args.b))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines.brandes import shortest_path_betweenness
    from repro.baselines.pagerank import pagerank_power_iteration
    from repro.baselines.alpha_cfbc import alpha_current_flow_betweenness
    from repro.core.exact import rwbc_exact
    from repro.experiments.report import format_table

    graph = _resolve_graph(args)
    rwbc = rwbc_exact(graph)
    spbc = shortest_path_betweenness(graph)
    pagerank = pagerank_power_iteration(graph)
    alpha = alpha_current_flow_betweenness(graph, alpha=0.9)
    nodes = sorted(graph.nodes(), key=lambda v: -rwbc[v])
    if args.top is not None:
        nodes = nodes[: args.top]
    records = [
        {
            "node": str(node),
            "rwbc": rwbc[node],
            "spbc": spbc[node],
            "pagerank": pagerank[node],
            "alpha_cfbc(0.9)": alpha[node],
        }
        for node in nodes
    ]
    print(f"# measures, n={graph.num_nodes} m={graph.num_edges}")
    print(format_table(records))
    return 0


def _cmd_diameter(args: argparse.Namespace) -> int:
    from repro.congest.primitives.apsp import distributed_diameter

    graph = _resolve_graph(args)
    diameter, rounds = distributed_diameter(graph, seed=args.seed)
    print(
        f"n={graph.num_nodes} m={graph.num_edges} "
        f"diameter={diameter} rounds={rounds}"
    )
    return 0


def _cmd_edges(args: argparse.Namespace) -> int:
    from repro.core.edge_betweenness import edge_current_flow_betweenness

    graph = _resolve_graph(args)
    values = edge_current_flow_betweenness(graph)
    ranked = sorted(values.items(), key=lambda item: -item[1])
    if args.top is not None:
        ranked = ranked[: args.top]
    print(f"# edge current-flow betweenness, n={graph.num_nodes}")
    for (u, v), value in ranked:
        print(f"{u} -- {v}  {value:.6f}")
    return 0


def _cmd_communities(args: argparse.Namespace) -> int:
    from repro.core.edge_betweenness import girvan_newman_current_flow

    graph = _resolve_graph(args)
    parts = girvan_newman_current_flow(graph, communities=args.k)
    print(
        f"# {len(parts)} communities via current-flow Girvan-Newman, "
        f"n={graph.num_nodes}"
    )
    for index, part in enumerate(parts):
        members = " ".join(str(node) for node in sorted(part, key=repr))
        print(f"community {index} (size {len(part)}): {members}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.experiments.workloads import FAMILIES
    from repro.graphs.datasets import DATASETS

    print("synthetic families (--family):")
    for family in FAMILIES:
        print(f"  {family}")
    print("bundled datasets (--dataset):")
    for name in sorted(DATASETS):
        graph = DATASETS[name]()
        print(f"  {name}  (n={graph.num_nodes}, m={graph.num_edges})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed random walk betweenness centrality",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    exact = commands.add_parser("exact", help="exact RWBC")
    _add_graph_arguments(exact)
    exact.add_argument("--top", type=int, help="only the top-k nodes")
    exact.add_argument(
        "--no-endpoints",
        action="store_true",
        help="networkx convention (exclude endpoint pairs)",
    )
    exact.set_defaults(handler=_cmd_exact)

    estimate = commands.add_parser("estimate", help="estimate RWBC")
    _add_graph_arguments(estimate)
    estimate.add_argument(
        "--engine",
        choices=("distributed", "montecarlo"),
        default="distributed",
    )
    estimate.add_argument("--length", type=int, help="walk length l")
    estimate.add_argument("--walks", type=int, help="walks per source K")
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument(
        "--policy", choices=("queue", "batch"), default="queue"
    )
    estimate.add_argument(
        "--executor",
        choices=("sync", "async"),
        default="sync",
        help="distributed engine only: lock-step scheduler (sync) or "
        "alpha synchronizer (async)",
    )
    estimate.add_argument("--top", type=int)
    estimate.set_defaults(handler=_cmd_estimate)

    chaos = commands.add_parser(
        "chaos", help="estimate RWBC under injected faults"
    )
    _add_graph_arguments(chaos)
    chaos.add_argument("--length", type=int, help="walk length l")
    chaos.add_argument("--walks", type=int, help="walks per source K")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--fault-seed", type=int, default=0xD509)
    chaos.add_argument(
        "--drop", type=float, default=0.1, help="per-message drop rate"
    )
    chaos.add_argument(
        "--dup", type=float, default=0.0, help="per-message duplication rate"
    )
    chaos.add_argument(
        "--delay", type=float, default=0.0, help="per-message delay rate"
    )
    chaos.add_argument(
        "--crash", type=int, help="crash-recover this node (relabeled id)"
    )
    chaos.add_argument(
        "--crash-start", type=int, default=1, help="crash window start round"
    )
    chaos.add_argument(
        "--crash-span", type=int, default=5, help="crash window length"
    )
    chaos.add_argument(
        "--executor",
        choices=("sync", "async"),
        default="sync",
        help="run the reliable sync protocol or the fault-tolerant "
        "alpha synchronizer on the event-driven async executor",
    )
    chaos.add_argument(
        "--max-delay",
        type=float,
        default=10.0,
        help="async executor: message delay bound in virtual time",
    )
    chaos.add_argument(
        "--baseline",
        action="store_true",
        help="also run fault-free and report the max estimate deviation",
    )
    chaos.add_argument("--top", type=int)
    chaos.add_argument(
        "--observe",
        metavar="PATH",
        help="record telemetry and write a JSONL observe artifact here",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    sweep = commands.add_parser(
        "sweep",
        help="run a scenario suite and track its perf trajectory",
    )
    sweep.add_argument(
        "--suite",
        default="smoke",
        help="named scenario suite (see --list); default smoke",
    )
    sweep.add_argument(
        "--out",
        help="trajectory file to append to (default BENCH_<suite>.json)",
    )
    sweep.add_argument(
        "--only",
        action="append",
        metavar="SUBSTRING",
        help="run only scenarios whose name contains SUBSTRING (repeatable)",
    )
    sweep.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the fresh run regresses against the previous "
        "trajectory entry",
    )
    sweep.add_argument(
        "--baseline",
        help="compare against the last entry of this trajectory file "
        "instead of --out",
    )
    sweep.add_argument(
        "--wall-ratio",
        type=float,
        default=2.0,
        help="wall-clock regression band (fail when slower than "
        "RATIO x previous)",
    )
    sweep.add_argument(
        "--wall-floor",
        type=float,
        default=0.1,
        help="minimum absolute wall-clock growth in seconds before the "
        "band applies (sub-floor jitter is timer noise, not regression)",
    )
    sweep.add_argument(
        "--wall-clock",
        choices=("same-machine", "always", "off"),
        default="same-machine",
        help="when to apply the wall-clock band (default: only between "
        "entries from identical machines)",
    )
    sweep.add_argument(
        "--no-append",
        action="store_true",
        help="run and compare but do not append an entry",
    )
    sweep.add_argument(
        "--sha", help="override the git SHA recorded in the entry"
    )
    sweep.add_argument(
        "--list",
        action="store_true",
        help="list suites and their scenarios, then exit",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    observe = commands.add_parser(
        "observe", help="telemetry toolkit (run / report / diff / trend)"
    )
    observe_commands = observe.add_subparsers(
        dest="observe_command", required=True
    )

    observe_run = observe_commands.add_parser(
        "run", help="run the distributed estimator with telemetry on"
    )
    observe_run.add_argument(
        "--graph", help="synthetic family (see 'info'), e.g. er"
    )
    observe_run.add_argument(
        "--n", type=int, default=30, help="size for --graph"
    )
    observe_run.add_argument(
        "--graph-seed", type=int, default=0, help="seed for --graph"
    )
    observe_run.add_argument("--dataset", help="bundled dataset (see 'info')")
    observe_run.add_argument("--edge-list", help="path to an edge-list file")
    observe_run.add_argument("--length", type=int, help="walk length l")
    observe_run.add_argument("--walks", type=int, help="walks per source K")
    observe_run.add_argument("--seed", type=int, default=0)
    observe_run.add_argument(
        "--policy", choices=("queue", "batch"), default="queue"
    )
    observe_run.add_argument(
        "--slow",
        action="store_true",
        help="force the per-message loop (vectorized=False)",
    )
    observe_run.add_argument(
        "--trace",
        action="store_true",
        help="also record per-message deliver events into the artifact",
    )
    observe_run.add_argument(
        "--trace-events",
        type=int,
        default=100_000,
        help="trace event cap (with --trace)",
    )
    observe_run.add_argument(
        "--out", required=True, help="JSONL artifact output path"
    )
    observe_run.set_defaults(handler=_cmd_observe_run)

    observe_report = observe_commands.add_parser(
        "report", help="render one artifact as a text report"
    )
    observe_report.add_argument("artifact", help="JSONL artifact path")
    observe_report.set_defaults(handler=_cmd_observe_report)

    observe_diff = observe_commands.add_parser(
        "diff", help="compare two artifacts"
    )
    observe_diff.add_argument("a", help="baseline artifact")
    observe_diff.add_argument("b", help="comparison artifact")
    observe_diff.set_defaults(handler=_cmd_observe_diff)

    observe_trend = observe_commands.add_parser(
        "trend", help="render a BENCH_<suite>.json trajectory history"
    )
    observe_trend.add_argument(
        "trajectory", help="trajectory file (e.g. BENCH_smoke.json)"
    )
    observe_trend.add_argument(
        "--scenario", help="only this scenario's history"
    )
    observe_trend.add_argument(
        "--last", type=int, help="only the most recent N entries"
    )
    observe_trend.set_defaults(handler=_cmd_observe_trend)

    compare = commands.add_parser("compare", help="measure landscape")
    _add_graph_arguments(compare)
    compare.add_argument("--top", type=int)
    compare.set_defaults(handler=_cmd_compare)

    diameter = commands.add_parser("diameter", help="distributed diameter")
    _add_graph_arguments(diameter)
    diameter.add_argument("--seed", type=int, default=0)
    diameter.set_defaults(handler=_cmd_diameter)

    edges = commands.add_parser("edges", help="edge current-flow betweenness")
    _add_graph_arguments(edges)
    edges.add_argument("--top", type=int)
    edges.set_defaults(handler=_cmd_edges)

    communities = commands.add_parser(
        "communities", help="current-flow Girvan-Newman split"
    )
    _add_graph_arguments(communities)
    communities.add_argument(
        "--k", type=int, default=2, help="number of communities"
    )
    communities.set_defaults(handler=_cmd_communities)

    info = commands.add_parser("info", help="list families and datasets")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GraphError, SchemaError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
