"""Command-line interface binding topologies, workloads, solvers, and sweeps."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import experiment
from .errors import AssignmentFormatError, CectLabError
from .exact import DEFAULT_BUDGET
from .fluidsim import simulate
from .ga import GaConfig
from .routing import (
    assemble,
    format_assignment,
    matrix_from_paths,
    parse_assignment_dump,
    validate,
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
    # only the flags given on the command line; GaConfig holds the defaults
    given = {
        "population_size": args.population_size,
        "max_iterations": args.itr,
        "mut_min": args.mut_min,
        "mut_max": args.mut_max,
        "stall_window": args.stall_window,
        "mu_target": args.mu_target,
        "seed": args.seed,
        "penalty_weight": args.penalty,
    }
    return GaConfig(**{name: value for name, value in given.items() if value is not None})


def _cmd_solve(args) -> int:
    topo = load_topology(args.topo)
    flows = load_flows(args.flows)
    table = precompute_xpaths(topo, args.x, args.cap_c)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    assignment, stats = experiment.solve(
        args.method, flows, table, topo, _ga_config(args), args.ecmp_max_paths, args.budget
    )
    elapsed = time.perf_counter() - start

    matrix = assemble(assignment, flows, table, topo)
    (out_dir / "assignment.txt").write_text(
        format_assignment(assignment, flows, table), encoding="utf-8"
    )
    loads = {edge: units / UNITS_PER_BW for edge, units in matrix.load_units.items()}
    edge_rows = [
        (s, d, loads.get((s, d), 0.0), loads.get((s, d), 0.0) / c) for s, d, c in topo.links
    ]
    experiment.write_rows(
        out_dir / "edge_loads.csv", ("src", "dst", "load", "utilization"), edge_rows
    )
    if stats is not None:
        stat_rows = [
            (row.generation, row.best_mu, row.best_fitness, row.mean_fitness, row.mut_rate)
            for row in stats.rows
        ]
        experiment.write_rows(
            out_dir / "stats.csv",
            ("generation", "best_mu", "best_fitness", "mean_fitness", "mut_rate"), stat_rows,
        )
    print(
        f"method={args.method} flows={flows.count} mu={matrix.mu:.4f} "
        f"time={elapsed:.3f}s -> {out_dir}"
    )
    return 0


def _cmd_simulate(args) -> int:
    topo = load_topology(args.topo)
    flows = load_flows(args.flows)
    try:
        dump = parse_assignment_dump(Path(args.assignment).read_text(encoding="utf-8"))
    except AssignmentFormatError as exc:
        raise CectLabError(f"{args.assignment}: {exc}") from exc
    hops_by_flow = {fid: hops for fid, (_, hops) in dump.items()}
    matrix = matrix_from_paths(hops_by_flow, flows, topo)
    # matrix_from_paths checks ends and edges only; a path that loops is caught here
    violations = validate(matrix, flows, topo)
    if violations:
        raise CectLabError(f"{args.assignment}: {violations[0]}")
    result = simulate(matrix, flows, topo, args.model)

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    # matrix_from_paths has checked that the dump routes every flow
    flow_rows = [
        (f.id, f.demand, result.per_flow_rate[f.id], dump[f.id][0]) for f in flows.flows
    ]
    experiment.write_rows(
        out_dir / "per_flow.csv", ("id", "demand", "delivered", "label"), flow_rows
    )
    edge_rows = [
        (s, d, result.link_utilization[(s, d)] * c, result.link_utilization[(s, d)])
        for s, d, c in topo.links
    ]
    experiment.write_rows(
        out_dir / "per_edge.csv", ("src", "dst", "load", "utilization"), edge_rows
    )
    summary = [(result.total_delivered, result.loss_pct, result.mu)]
    experiment.write_rows(out_dir / "summary.csv", ("throughput", "loss_pct", "mu"), summary)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cect-lab",
        description="Congestion-aware traffic-engineering laboratory",
    )
    # each flag shared by several subcommands is declared once, in a parent
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="random seed")
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=None, help="output directory")
    # paths and solve build the same table by default, so their labels agree
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--x", type=int, default=10)
    table.add_argument("--cap-c", type=int, default=50)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-topo", help="write a topology file")
    p.add_argument("--kind", choices=("fat-tree", "fig2a", "fig2b"), default="fat-tree")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--edge-capacity", type=float, default=100.0)
    p.add_argument("--agg-capacity", type=float, default=100.0)
    p.add_argument("--core-capacity", type=float, default=100.0)
    p.add_argument("--capacity", type=float, default=10.0,
                   help="uniform capacity for the sample topologies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_topo)

    p = sub.add_parser("gen-traffic", parents=[seed], help="write a synthetic flow file")
    p.add_argument("--topo", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mix", default=None,
                   help="class mix, e.g. micro=0.4,small=0.3,medium=0.2,big=0.1")
    p.add_argument("--plr", type=float, default=0.5,
                   help="probability a flow leaves its pod")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_traffic)

    p = sub.add_parser("paths", parents=[table], help="enumerate bounded-hop paths")
    p.add_argument("--topo", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_paths)

    # the GA flags have no defaults here: GaConfig holds them
    p = sub.add_parser("solve", parents=[seed, out_dir, table], help="route a flow set")
    p.add_argument("--topo", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--method", choices=("cect", "ecmp", "exact"), default="cect")
    p.add_argument("--population-size", type=int)
    p.add_argument("--itr", type=int)
    p.add_argument("--mut-min", type=float)
    p.add_argument("--mut-max", type=float)
    p.add_argument("--stall-window", type=int)
    p.add_argument("--mu-target", type=float)
    p.add_argument("--penalty", type=float)
    p.add_argument("--ecmp-max-paths", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", parents=[out_dir], help="evaluate a stored assignment")
    p.add_argument("--topo", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--model", choices=("maxmin", "bottleneck"), default="maxmin")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", parents=[out_dir], help="run a config-driven sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", parents=[out_dir], help="aggregate a results directory")
    p.add_argument("--results", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CectLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
