"""Config-driven experiment sweeps with fully reproducible seeding.

One INI-style config file describes a sweep over flow counts, methods, and
seeds. The sweep runs workload by workload: each (flow count, seed index)
draws its flows once and routes them with every method. Every cell (one
method on one workload) derives its random streams from (master seed, flow
count, seed index), so results are identical whether workloads run
sequentially or in parallel, and a manifest records everything needed to
reproduce a run.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ecmp import route_ecmp
from .errors import CectLabError
from .exact import solve_exact
from .fluidsim import MODELS, simulate
from .ga import GaConfig, RunStats, run_cect
from .routing import RoutingAssignment, assemble, format_assignment
from .topology import Topology, make_fat_tree, make_sample_topology, load_topology, save_topology
from .traffic import (
    FlowSet,
    check_mix,
    check_topology,
    default_compression_bounds,
    compress_flows,
    generate_flows,
    save_flows,
)
from .xpath import XPathTable, check_path_bounds, feasible_rows, precompute_xpaths

RESULT_COLUMNS = (
    "method",
    "n_flows",
    "seed",
    "throughput",
    "loss_pct",
    "mu",
    "wall_time_total",
    "wall_time_per_flow",
)
# Every routing method solve() knows; report compares cect with each other one.
METHODS = ("cect", "ecmp", "shortest", "exact")


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    master_seed: int = 0
    topo_kind: str = "fat_tree"
    topo_k: int = 4
    edge_capacity: float = 100.0
    agg_capacity: float = 100.0
    core_capacity: float = 100.0
    sample_capacity: float = 10.0
    topo_file: str | None = None
    x: int = 4
    cap_c: int = 50
    mix: dict[str, float] = field(
        default_factory=lambda: {"micro": 0.5, "small": 0.3, "medium": 0.15, "big": 0.05}
    )
    plr: float = 0.7
    compress: bool = False
    n_flows_list: tuple[int, ...] = (200,)
    methods: tuple[str, ...] = ("cect", "ecmp")
    n_seeds: int = 1
    ga: dict[str, object] = field(default_factory=dict)
    sim_model: str = "maxmin"


def parse_mix(text: str) -> dict[str, float]:
    mix = {}
    for part in text.split(","):
        name, _, value = part.strip().partition("=")
        name = name.strip()
        if not value:
            raise CectLabError(f"bad class mix entry {part!r}")
        if name in mix:
            raise CectLabError(f"{name!r} is listed twice")
        mix[name] = float(value)
    return mix


def _parse_n_flows(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        pieces = [int(p) for p in text.split(":")]
        if len(pieces) != 3:
            raise CectLabError(f"flow sweep must be start:stop:step, got {text!r}")
        start, stop, step = pieces
        if step < 1:
            raise CectLabError(f"step must be >= 1, got {step}")
        counts = tuple(range(start, stop + 1, step))
    else:
        counts = tuple(int(p) for p in text.split(","))
    if min(counts, default=1) < 1:
        raise CectLabError(f"flow counts must be >= 1, got {min(counts)}")
    return counts


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# Every INI setting, by section and key: the ExperimentConfig field it sets
# and the parser of its text. [ga] keys are GaConfig fields, kept in cfg.ga.
_SETTINGS = {
    "experiment": {"seed": ("master_seed", int)},
    "topology": {
        "kind": ("topo_kind", lambda text: text.replace("-", "_")),
        "k": ("topo_k", int),
        "edge_capacity": ("edge_capacity", float),
        "agg_capacity": ("agg_capacity", float),
        "core_capacity": ("core_capacity", float),
        "capacity": ("sample_capacity", float),
        "path": ("topo_file", str),
    },
    "paths": {"x": ("x", int), "cap_c": ("cap_c", int)},
    "traffic": {
        "mix": ("mix", parse_mix),
        "plr": ("plr", float),
        "compress": ("compress", _boolean),
    },
    "sweep": {
        "n_flows": ("n_flows_list", _parse_n_flows),
        "methods": ("methods", _parse_methods),
        "seeds": ("n_seeds", int),
    },
    "ga": {
        **{key: (key, int) for key in ("population_size", "max_iterations", "stall_window")},
        **{key: (key, float) for key in ("mut_min", "mut_max", "mu_target")},
    },
    "sim": {"model": ("sim_model", str)},
}


def load_config(path) -> ExperimentConfig:
    """Read an experiment config, reporting the file and option on errors."""
    return _parse_config(_read_config(path), path)


def _read_config(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CectLabError(f"{path}: cannot read config file") from exc


def _parse_config(data: bytes, path) -> ExperimentConfig:
    """Parse and check a config; an unknown section or key is an error."""
    # a section header never holds a newline, so [DEFAULT] is a plain section
    # here, which the check below names, and no key is copied into every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="\n")
    cfg = ExperimentConfig()
    try:
        parser.read_string(data.decode("utf-8"), source=str(path))
        for section in parser.sections():
            if section not in _SETTINGS:
                raise CectLabError(f"{path}: unknown section [{section}]")
            for key, text in parser.items(section):
                if key not in _SETTINGS[section]:
                    raise CectLabError(f"{path}: [{section}] unknown key {key!r}")
                name, convert = _SETTINGS[section][key]
                try:
                    value = convert(text)
                except (ValueError, CectLabError) as exc:
                    raise CectLabError(f"{path}: [{section}] {key}: {exc}") from exc
                if section == "ga":
                    cfg.ga[name] = value
                else:
                    setattr(cfg, name, value)
    except (ValueError, configparser.Error) as exc:
        raise CectLabError(f"{path}: {exc}") from exc

    for method in cfg.methods:
        if method not in METHODS:
            raise CectLabError(f"{path}: [sweep] methods: unknown method {method!r}")
    if not cfg.n_flows_list:
        raise CectLabError(f"{path}: [sweep] n_flows: empty flow sweep")
    if not cfg.methods:
        raise CectLabError(f"{path}: [sweep] methods lists no method")
    for key, values in (("n_flows", cfg.n_flows_list), ("methods", cfg.methods)):
        # a repeated value would run its cells twice and skew report's means
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise CectLabError(f"{path}: [sweep] {key}: {repeated[0]!r} is listed twice")
    if cfg.n_seeds < 1:
        raise CectLabError(f"{path}: [sweep] seeds must be >= 1")
    if cfg.master_seed < 0:
        raise CectLabError(f"{path}: [experiment] seed must be >= 0, got {cfg.master_seed}")
    checks = {
        "traffic": lambda: check_mix(cfg.mix, cfg.plr),
        "paths": lambda: check_path_bounds(cfg.x, cfg.cap_c),
        "ga": lambda: GaConfig(**cfg.ga),
    }
    for section, check in checks.items():
        try:
            check()
        except ValueError as exc:
            raise CectLabError(f"{path}: [{section}] {exc}") from exc
    if cfg.topo_kind not in ("fat_tree", "fig2a", "fig2b", "file"):
        raise CectLabError(f"{path}: [topology] unknown kind {cfg.topo_kind!r}")
    if cfg.topo_kind == "file" and not cfg.topo_file:
        raise CectLabError(f"{path}: [topology] kind 'file' needs a path option")
    if cfg.sim_model not in MODELS:
        raise CectLabError(f"{path}: [sim] model must be one of {MODELS}, got {cfg.sim_model!r}")
    return cfg


def build_topology(cfg: ExperimentConfig, config_path) -> Topology:
    """The topology of a config whose [topology] kind and path _parse_config checked;
    a CectLabError names config_path and [topology] when its settings build none."""
    try:
        if cfg.topo_kind == "fat_tree":
            return make_fat_tree(cfg.topo_k, cfg.edge_capacity, cfg.agg_capacity, cfg.core_capacity)
        if cfg.topo_kind in ("fig2a", "fig2b"):
            return make_sample_topology(cfg.topo_kind, cfg.sample_capacity)
        return load_topology(cfg.topo_file)
    except (ValueError, CectLabError) as exc:
        raise CectLabError(f"{config_path}: [topology] {exc}") from exc


def check_traffic(cfg: ExperimentConfig, topology: Topology, config_path) -> None:
    """Raise a CectLabError naming config_path and a section unless cfg's flows can be drawn
    on topology; only a topology file can lack links or edge switches, and it is named too."""
    try:
        check_topology(topology, cfg.mix, cfg.plr)
        if cfg.compress:
            default_compression_bounds(topology)
    except ValueError as exc:
        drawable = topology.links and len(topology.edge_switches) > 1
        where = "[traffic]" if drawable else f"[topology] {cfg.topo_file}:"
        raise CectLabError(f"{config_path}: {where} {exc}") from exc


def cell_seeds(master_seed: int, n_flows: int, seed_index: int) -> tuple[int, int]:
    """Deterministic (traffic, solver) seeds for one sweep cell.

    The traffic seed depends only on the seed index, not the flow count, so
    a sweep grows each workload incrementally: the flows at one sweep point
    are a prefix of the flows at the next (each step adds new flows on top
    of the old ones instead of resampling the world).
    """
    traffic = np.random.SeedSequence(entropy=master_seed, spawn_key=(seed_index,))
    solver = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(n_flows, seed_index, 1)
    )
    return int(traffic.generate_state(1)[0]), int(solver.generate_state(1)[0])


def draw_flows(
    cfg: ExperimentConfig, topology: Topology, n_flows: int, seed: int | None
) -> FlowSet:
    """n_flows flows of the config's mix and plr, compressed when cfg.compress is set."""
    flows = generate_flows(topology, n_flows, cfg.mix, cfg.plr, seed=seed)
    if cfg.compress:
        flows = compress_flows(flows, *default_compression_bounds(topology))
    return flows


def solve(
    method: str, flows: FlowSet, table: XPathTable, topology: Topology, ga_config: GaConfig
) -> tuple[RoutingAssignment, RunStats | None]:
    """Route flows by "cect" (reads ga_config), "ecmp", "shortest" or "exact".

    "shortest" pins each flow to its first feasible label: its pair's first
    shortest path, the GA's row 0. Returns the assignment and cect's
    RunStats, or None; raises ValueError for any other method."""
    if method == "cect":
        assignment, _, stats = run_cect(flows, table, topology, ga_config)
        return assignment, stats
    if method == "ecmp":
        return route_ecmp(flows, topology, table), None
    if method == "shortest":
        return RoutingAssignment(table.pair_labels[feasible_rows(table, flows)[0]]), None
    if method == "exact":
        return solve_exact(flows, table, topology)[0], None
    raise ValueError(f"unknown method {method!r}")


def _run_workload(
    n_flows: int, seed_index: int, state: tuple[ExperimentConfig, Topology, XPathTable]
) -> tuple[FlowSet, list[tuple[tuple, str] | str]]:
    """Draw one (flow count, seed) workload, which check_traffic's pass makes safe, and route
    it with every method. Returns the flows and, per method in config order, its results.csv
    row and dump, or the text of the CectLabError that failed only that method."""
    cfg, topology, table = state
    traffic_seed, ga_seed = cell_seeds(cfg.master_seed, n_flows, seed_index)
    flows = draw_flows(cfg, topology, n_flows, traffic_seed)
    ga_config = GaConfig(seed=ga_seed, **cfg.ga)
    outcomes: list[tuple[tuple, str] | str] = []
    for method in cfg.methods:
        try:
            start = time.perf_counter()
            assignment, _ = solve(method, flows, table, topology, ga_config)
            elapsed = time.perf_counter() - start
            matrix = assemble(assignment, flows, table, topology)
            result = simulate(matrix, flows, topology, cfg.sim_model)
        except CectLabError as exc:  # recorded in the manifest; sweep continues
            outcomes.append(f"{type(exc).__name__}: {exc}")
            continue
        row = (method, n_flows, seed_index, result.total_delivered, result.loss_pct, matrix.mu,
               elapsed, elapsed / max(1, flows.count))
        outcomes.append((row, format_assignment(assignment, flows, table)))
    return flows, outcomes


# The sweep's (config, topology, table) in a pool worker, set once by the
# pool's initializer.
_POOL_STATE = None


def _init_worker(state: tuple[ExperimentConfig, Topology, XPathTable]) -> None:
    global _POOL_STATE
    _POOL_STATE = state


def _run_in_worker(workload: tuple[int, int]):
    return _run_workload(*workload, _POOL_STATE)


def write_rows(path, header, rows) -> None:
    """Write a CSV file: the header, then each row with its floats to 10 digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in row] for row in rows)


def run_experiment(config_path, out_dir, threads: int = 1) -> Path:
    """Run the sweep workload by workload and write results, dumps, and a manifest.

    Returns the output directory, which must be new or empty. Cell failures
    (a CectLabError) are recorded in the manifest and do not stop the sweep;
    the CLI maps them to a nonzero exit code. Any other exception propagates.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise CectLabError(f"{out}: output directory is not empty")
    data = _read_config(config_path)
    cfg = _parse_config(data, config_path)
    topology = build_topology(cfg, config_path)
    check_traffic(cfg, topology, config_path)
    state = (cfg, topology, precompute_xpaths(topology, cfg.x, cfg.cap_c))

    workloads = [(n, s) for n in cfg.n_flows_list for s in range(cfg.n_seeds)]
    workers = min(threads, len(workloads))  # a pool starts every worker it is given
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(state,)) as pool:
            results = list(pool.map(_run_in_worker, workloads))
    else:
        results = [_run_workload(n, s, state) for n, s in workloads]

    (out / "assignments").mkdir(parents=True, exist_ok=True)
    (out / "flows").mkdir(exist_ok=True)
    save_topology(topology, out / "topology.txt")
    rows, cells, failures = [], [], []
    for (n, s), (flows, outcomes) in zip(workloads, results):
        traffic_seed, solver_seed = cell_seeds(cfg.master_seed, n, s)
        save_flows(flows, out / "flows" / f"flows_{n}_{s}.txt")
        for method, outcome in zip(cfg.methods, outcomes):
            cell = {"method": method, "n_flows": n, "seed": s}
            cells.append({**cell, "traffic_seed": traffic_seed, "solver_seed": solver_seed})
            if isinstance(outcome, str):
                failures.append({**cell, "error": outcome})
                continue
            row, dump = outcome
            rows.append(row)
            (out / "assignments" / f"{method}_{n}_{s}.txt").write_text(dump, encoding="utf-8")
    write_rows(out / "results.csv", RESULT_COLUMNS, rows)

    manifest = {
        "config_sha256": hashlib.sha256(data).hexdigest(),
        "master_seed": cfg.master_seed,
        "methods": list(cfg.methods),
        "n_flows": list(cfg.n_flows_list),
        "seeds": cfg.n_seeds,
        "sim_model": cfg.sim_model,
        "cells": cells,
        "failures": failures,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    # the config's own bytes, so a later edit to its source cannot change the sweep
    (out / "config.ini").write_bytes(data)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator; 1.0 for equal values (0 / 0 too), inf over a zero."""
    if numerator == denominator:
        return 1.0
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def report(results_dir, out_dir=None) -> dict[str, Path]:
    """Aggregate a results directory into plot-ready summary tables.

    Writes per-metric tables (mean and stddev per method and flow count), the
    least-squares slope of log(mean wall time) in log(flow count) for each
    method with two or more flow counts and positive means, and, when cect
    ran, a ratio table of cect against each other method.
    """
    results_dir = Path(results_dir)
    results_file = results_dir / "results.csv"
    if not results_file.exists():
        raise FileNotFoundError(f"no results.csv under {results_dir}")

    metric_files = {
        "throughput": "throughput_vs_flows.csv",
        "loss_pct": "loss_vs_flows.csv",
        "mu": "mu_vs_flows.csv",
        "wall_time_total": "time_vs_flows.csv",
    }
    with open(results_file, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads "", which float() rejects
        missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{results_file}: no {missing[0]!r} column")
        try:
            rows = [{**r, "n_flows": int(r["n_flows"]), **{m: float(r[m]) for m in metric_files}}
                    for r in reader]
            bad = [(m, r[m]) for r in rows for m in metric_files if not np.isfinite(r[m])]
            if bad:  # run writes none; nan or an infinity would pass into every table
                raise ValueError("%s %r is not a finite number" % bad[0])
        except ValueError as exc:
            raise ValueError(f"{results_file}: {exc}") from exc
    if not rows:
        raise ValueError(f"{results_file} has no result rows")
    out = Path(out_dir) if out_dir else results_dir
    out.mkdir(parents=True, exist_ok=True)  # only once results.csv has passed its checks

    methods = sorted({r["method"] for r in rows})
    flow_counts = sorted({r["n_flows"] for r in rows})
    grouped: dict[tuple[str, int], list[dict]] = {}
    for r in rows:
        grouped.setdefault((r["method"], r["n_flows"]), []).append(r)

    written: dict[str, Path] = {}
    header = ["n_flows"] + [f"{m}_{stat}" for m in methods for stat in ("mean", "std")]
    for metric, filename in metric_files.items():
        table = []
        for n in flow_counts:
            row = [n]
            for m in methods:
                values = [r[metric] for r in grouped.get((m, n), [])]
                row += (float(np.mean(values)), float(np.std(values))) if values else ("", "")
            table.append(row)
        written[metric] = out / filename
        write_rows(written[metric], header, table)

    def means(method, n, metric):
        return np.mean([r[metric] for r in grouped[(method, n)]])

    # the growth exponent of wall time in the flow count, fitted on the means
    slopes = []
    for m in methods:
        counts = [n for n in flow_counts if (m, n) in grouped]
        times = [means(m, n, "wall_time_total") for n in counts]
        if len(counts) >= 2 and min(times) > 0:
            slopes.append((m, float(np.polyfit(np.log(counts), np.log(times), 1)[0])))
    written["time_slope"] = out / "time_slope.csv"
    write_rows(written["time_slope"], ("method", "loglog_slope"), slopes)

    for other in [m for m in methods if m != "cect"] if "cect" in methods else []:
        table = [
            [n, _ratio(means("cect", n, "throughput"), means(other, n, "throughput")),
             _ratio(means(other, n, "loss_pct"), means("cect", n, "loss_pct"))]
            for n in flow_counts if ("cect", n) in grouped and (other, n) in grouped
        ]
        key = f"ratio_{other}"
        written[key] = out / f"ratio_cect_vs_{other}.csv"
        write_rows(written[key],
                   ["n_flows", "throughput_ratio", f"loss_ratio_{other}_over_cect"], table)
    return written
