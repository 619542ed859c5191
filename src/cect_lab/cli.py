"""Command-line interface binding topologies, workloads, solvers, and sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from . import experiment
from .ecmp import route_ecmp
from .errors import CectLabError
from .exact import solve_exact
from .fluidsim import simulate
from .ga import GaConfig, run_cect
from .routing import (
    assemble,
    format_assignment,
    matrix_from_paths,
    parse_assignment_dump,
)
from .topology import (
    UNITS_PER_BW,
    load_topology,
    make_fat_tree,
    make_sample_topology,
    save_topology,
)
from .traffic import generate_flows, load_flows, save_flows
from .xpath import format_table, precompute_xpaths


def _write_rows(path: Path, fieldnames, rows, fmt: str) -> None:
    if fmt == "json":
        path = path.with_suffix(".json")
        path.write_text(
            json.dumps([dict(zip(fieldnames, r)) for r in rows], indent=2),
            encoding="utf-8",
        )
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(fieldnames)
            writer.writerows(rows)


def _cmd_gen_topo(args) -> int:
    if args.kind == "fat-tree":
        topo = make_fat_tree(
            args.k, args.edge_capacity, args.agg_capacity, args.core_capacity
        )
    else:
        topo = make_sample_topology(args.kind, args.capacity)
    save_topology(topo, args.out)
    print(f"wrote {topo.node_count} switches / {topo.link_count} links to {args.out}")
    return 0


def _cmd_gen_traffic(args) -> int:
    topo = load_topology(args.topo)
    mix = experiment.parse_mix(args.mix) if args.mix else None
    flows = generate_flows(topo, args.n, mix, args.plr, seed=args.seed)
    save_flows(flows, args.out)
    print(f"wrote {flows.count} flows to {args.out}")
    return 0


def _cmd_paths(args) -> int:
    topo = load_topology(args.topo)
    table = precompute_xpaths(topo, args.x, args.cap_c)
    text = format_table(table)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {table.path_count} paths to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _ga_config(args) -> GaConfig:
    return GaConfig(
        population_size=args.population_size,
        max_iterations=args.itr,
        mut_min=args.mut_min,
        mut_max=args.mut_max,
        stall_window=args.stall_window,
        mu_target=args.mu_target,
        seed=args.seed,
        penalty_weight=args.penalty,
        greedy_seed=not args.no_greedy_seed,
    )


def _cmd_solve(args) -> int:
    topo = load_topology(args.topo)
    flows = load_flows(args.flows)
    table = precompute_xpaths(topo, args.x, args.cap_c)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    stats = None
    if args.method == "cect":
        assignment, mu, stats = run_cect(flows, table, topo, _ga_config(args))
    elif args.method == "ecmp":
        assignment = route_ecmp(flows, topo, table, args.ecmp_max_paths)
    else:
        assignment, mu = solve_exact(flows, table, topo, args.budget)
    elapsed = time.perf_counter() - start

    matrix = assemble(assignment, flows, table, topo)
    (out_dir / "assignment.txt").write_text(
        format_assignment(assignment, flows, table), encoding="utf-8"
    )
    loads = {edge: units / UNITS_PER_BW for edge, units in matrix.load_units.items()}
    edge_rows = [
        (s, d, f"{loads.get((s, d), 0.0):.10g}", f"{loads.get((s, d), 0.0) / c:.10g}")
        for s, d, c in topo.sorted_links()
    ]
    _write_rows(out_dir / "edge_loads.csv", ("src", "dst", "load", "utilization"),
                edge_rows, args.format)
    if stats is not None:
        with open(out_dir / "stats.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["generation", "best_mu", "best_fitness", "mean_fitness", "mut_rate"]
            )
            for row in stats.rows:
                writer.writerow(
                    [row.generation, f"{row.best_mu:.10g}", f"{row.best_fitness:.10g}",
                     f"{row.mean_fitness:.10g}", f"{row.mut_rate:.10g}"]
                )
    print(
        f"method={args.method} flows={flows.count} mu={matrix.mu:.4f} "
        f"time={elapsed:.3f}s -> {out_dir}"
    )
    return 0


def _cmd_simulate(args) -> int:
    topo = load_topology(args.topo)
    flows = load_flows(args.flows)
    dump = parse_assignment_dump(Path(args.assignment).read_text(encoding="utf-8"))
    hops_by_flow = {fid: hops for fid, (_, hops) in dump.items()}
    labels = {fid: label for fid, (label, _) in dump.items()}
    matrix = matrix_from_paths(hops_by_flow, flows, topo)
    result = simulate(matrix, flows, topo, args.model)

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    flow_rows = [
        (f.id, f"{f.demand:.10g}", f"{result.per_flow_rate[f.id]:.10g}",
         labels.get(f.id, ""))
        for f in flows.flows
    ]
    _write_rows(out_dir / "per_flow.csv", ("id", "demand", "delivered", "label"),
                flow_rows, args.format)
    edge_rows = [
        (s, d, f"{result.link_utilization[(s, d)] * c:.10g}",
         f"{result.link_utilization[(s, d)]:.10g}")
        for s, d, c in topo.sorted_links()
    ]
    _write_rows(out_dir / "per_edge.csv", ("src", "dst", "load", "utilization"),
                edge_rows, args.format)
    summary = [(f"{result.total_delivered:.10g}", f"{result.loss_pct:.10g}",
                f"{result.mu:.10g}")]
    _write_rows(out_dir / "summary.csv", ("throughput", "loss_pct", "mu"),
                summary, args.format)
    print(
        f"throughput={result.total_delivered:.4f} loss={result.loss_pct:.2f}% "
        f"mu={result.mu:.4f} -> {out_dir}"
    )
    return 0


def _cmd_run(args) -> int:
    out = experiment.run_experiment(
        args.config, args.out_dir or "results", threads=args.threads
    )
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    failures = manifest.get("failures", [])
    print(f"sweep complete: {out} ({len(failures)} failed cells)")
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_report(args) -> int:
    written = experiment.report(args.results, args.out_dir)
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def _cmd_bench(args) -> int:
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = tuple(int(v) for v in args.flow_counts.split(","))
    points, slope = bench_mod.bench_scaling(
        k=args.k, flow_counts=counts, x=args.x,
        iterations=args.itr, seed=args.seed or 0,
    )
    bench_mod.write_scaling_csv(points, slope, out_dir / "bench_scaling.csv")
    for p in points:
        print(f"n_flows={p.n_flows:6d} pop={p.population:4d} time={p.wall_time:.3f}s")
    print(f"log-log slope: {slope:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cect-lab",
        description="Congestion-aware traffic-engineering laboratory",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed")
    common.add_argument("--out-dir", default=None, help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("gen-topo", help="write a topology file")
    p.add_argument("--kind", choices=("fat-tree", "fig2a", "fig2b"), default="fat-tree")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--edge-capacity", type=float, default=100.0)
    p.add_argument("--agg-capacity", type=float, default=100.0)
    p.add_argument("--core-capacity", type=float, default=100.0)
    p.add_argument("--capacity", type=float, default=10.0,
                   help="uniform capacity for the sample topologies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_topo)

    p = add_parser("gen-traffic", help="write a synthetic flow file")
    p.add_argument("--topo", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mix", default=None,
                   help="class mix, e.g. micro=0.4,small=0.3,medium=0.2,big=0.1")
    p.add_argument("--plr", type=float, default=0.5,
                   help="probability a flow leaves its pod")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_traffic)

    p = add_parser("paths", help="enumerate bounded-hop paths")
    p.add_argument("--topo", required=True)
    p.add_argument("--x", type=int, default=10)
    p.add_argument("--cap-c", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_paths)

    p = add_parser("solve", help="route a flow set")
    p.add_argument("--topo", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--method", choices=("cect", "ecmp", "exact"), default="cect")
    p.add_argument("--x", type=int, default=10)
    p.add_argument("--cap-c", type=int, default=50)
    p.add_argument("--population-size", type=int, default=None)
    p.add_argument("--itr", type=int, default=100)
    p.add_argument("--mut-min", type=float, default=0.02)
    p.add_argument("--mut-max", type=float, default=0.2)
    p.add_argument("--stall-window", type=int, default=10)
    p.add_argument("--mu-target", type=float, default=0.7)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--no-greedy-seed", action="store_true")
    p.add_argument("--ecmp-max-paths", type=int, default=None)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_solve)

    p = add_parser("simulate", help="evaluate a stored assignment")
    p.add_argument("--topo", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--model", choices=("maxmin", "bottleneck"), default="maxmin")
    p.set_defaults(func=_cmd_simulate)

    p = add_parser("run", help="run a config-driven sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = add_parser("report", help="aggregate a results directory")
    p.add_argument("--results", required=True)
    p.set_defaults(func=_cmd_report)

    p = add_parser("bench", help="solver wall-time scaling benchmark")
    p.add_argument("what", choices=("scaling",))
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--x", type=int, default=4)
    p.add_argument("--itr", type=int, default=20)
    p.add_argument("--flow-counts", default="250,500,1000,2000")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CectLabError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
