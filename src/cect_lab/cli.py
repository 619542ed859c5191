"""Command-line interface binding topologies, workloads, solvers, and sweeps."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import experiment
from .errors import CectLabError
from .fluidsim import simulate
from .ga import GaConfig
from .routing import (
    assemble,
    format_assignment,
    matrix_from_paths,
    parse_assignment_dump,
    validate,
)
from .topology import UNITS_PER_BW, save_topology
from .traffic import load_flows, save_flows
from .xpath import format_table, precompute_xpaths


def _config(args) -> experiment.ExperimentConfig:
    """The --config file's settings, or every setting's default without one."""
    return experiment.load_config(args.config) if args.config else experiment.ExperimentConfig()


def _seed(args) -> int | None:
    """--seed, which numpy's generators take only when it is not negative."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _cmd_gen_topo(args) -> int:
    topo = experiment.build_topology(_config(args), args.config)
    save_topology(topo, args.out)
    print(f"wrote {topo.node_count} switches / {topo.link_count} links to {args.out}")
    return 0


def _cmd_gen_traffic(args) -> int:
    cfg = _config(args)
    topo = experiment.build_topology(cfg, args.config)
    experiment.check_traffic(cfg, topo, args.config)
    flows = experiment.draw_flows(cfg, topo, args.n, _seed(args))
    save_flows(flows, args.out)
    print(f"wrote {flows.count} flows to {args.out}")
    return 0


def _cmd_paths(args) -> int:
    cfg = _config(args)
    topo = experiment.build_topology(cfg, args.config)
    table = precompute_xpaths(topo, cfg.x, cfg.cap_c)
    text = format_table(table)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {table.path_count} paths to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    cfg = _config(args)
    ga_config = GaConfig(seed=_seed(args), **cfg.ga)  # as a sweep cell builds it
    topo = experiment.build_topology(cfg, args.config)
    flows = load_flows(args.flows)
    table = precompute_xpaths(topo, cfg.x, cfg.cap_c)

    start = time.perf_counter()
    assignment, stats = experiment.solve(args.method, flows, table, topo, ga_config)
    elapsed = time.perf_counter() - start

    matrix = assemble(assignment, flows, table, topo)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)  # only now, so a failed solve leaves no directory
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
    # header only for a method without a GA trace, so no earlier run's trace stays
    stat_rows = [
        (row.generation, row.best_mu, row.best_fitness, row.mean_fitness, row.mut_rate)
        for row in (stats.rows if stats is not None else ())
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
    cfg = _config(args)
    topo = experiment.build_topology(cfg, args.config)
    flows = load_flows(args.flows)
    try:  # an error in the dump's parse, replay or validation names the dump
        dump = parse_assignment_dump(Path(args.assignment).read_text(encoding="utf-8"))
        matrix = matrix_from_paths({fid: hops for fid, (_, hops) in dump.items()}, flows, topo)
        # matrix_from_paths checks ends and edges only; a path that loops is caught here
        violations = validate(matrix, flows, topo)
        if violations:
            raise CectLabError(str(violations[0]))
    except CectLabError as exc:
        raise CectLabError(f"{args.assignment}: {exc}") from exc
    result = simulate(matrix, flows, topo, cfg.sim_model)

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    flow_rows = [
        (i, demand, result.per_flow_rate[i])
        for i, demand in enumerate(flows.demands.tolist(), start=1)
    ]
    experiment.write_rows(out_dir / "per_flow.csv", ("id", "demand", "delivered"), flow_rows)
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
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
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
    # every topology, path, traffic, GA and sim setting comes from a sweep config
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="sweep INI whose settings apply (default: every setting's default)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-topo", parents=[config], help="write a topology file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_topo)

    p = sub.add_parser("gen-traffic", parents=[seed, config], help="write a synthetic flow file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_traffic)

    p = sub.add_parser("paths", parents=[config], help="enumerate bounded-hop paths")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("solve", parents=[seed, out_dir, config], help="route a flow set")
    p.add_argument("--flows", required=True)
    p.add_argument("--method", choices=experiment.METHODS, default="cect")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", parents=[out_dir, config], help="evaluate a stored assignment")
    p.add_argument("--flows", required=True)
    p.add_argument("--assignment", required=True)
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
