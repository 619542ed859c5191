"""Config-driven experiment sweeps with fully reproducible seeding.

One INI-style config file describes a sweep over flow counts, methods, and
seeds. Every cell derives its random streams from (master seed, flow count,
seed index), so results are identical whether cells run sequentially or in
parallel, and a manifest records everything needed to reproduce a run.
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
from .errors import CectLabError, ConfigError
from .exact import DEFAULT_BUDGET, solve_exact
from .fluidsim import MODELS, simulate
from .ga import GaConfig, RunStats, run_cect
from .routing import RoutingAssignment, assemble, format_assignment
from .topology import Topology, make_fat_tree, make_sample_topology, load_topology, save_topology
from .traffic import (
    FlowSet,
    check_mix,
    check_plr,
    default_compression_bounds,
    compress_flows,
    generate_flows,
    save_flows,
)
from .xpath import XPathTable, check_path_bounds, precompute_xpaths

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
# Columns excluded when comparing two runs for reproducibility.
TIMING_COLUMNS = ("wall_time_total", "wall_time_per_flow")


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
    cap_c: int | None = 50
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
    ecmp_max_paths: int | None = None


def parse_mix(text: str) -> dict[str, float]:
    mix = {}
    for part in text.split(","):
        name, _, value = part.strip().partition("=")
        if not value:
            raise ConfigError(f"bad class mix entry {part!r}")
        mix[name.strip()] = float(value)
    return mix


def _parse_n_flows(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        pieces = [int(p) for p in text.split(":")]
        if len(pieces) != 3:
            raise ConfigError(f"flow sweep must be start:stop:step, got {text!r}")
        start, stop, step = pieces
        counts = tuple(range(start, stop + 1, step))
    else:
        counts = tuple(int(p) for p in text.split(","))
    if min(counts, default=1) < 1:
        raise ConfigError(f"flow counts must be >= 1, got {min(counts)}")
    return counts


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _optional_int(text: str) -> int | None:
    return None if text in ("", "none", "None") else int(text)


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
    "paths": {"x": ("x", int), "cap_c": ("cap_c", _optional_int)},
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
        **{key: (key, float) for key in ("mut_min", "mut_max", "mu_target", "penalty_weight")},
    },
    "sim": {"model": ("sim_model", str)},
    "ecmp": {"max_paths": ("ecmp_max_paths", _optional_int)},
}


def load_config(path) -> ExperimentConfig:
    """Read an experiment config, reporting the file and option on errors."""
    return _parse_config(_read_config(path), path)


def _read_config(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file") from exc


def _parse_config(data: bytes, path) -> ExperimentConfig:
    """Parse and check a config; an unknown section or key is an error."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg = ExperimentConfig()
    try:
        parser.read_string(data.decode("utf-8"), source=str(path))
        for section in parser.sections():
            if section not in _SETTINGS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, text in parser.items(section):
                if key not in _SETTINGS[section]:
                    raise ConfigError(f"{path}: [{section}] unknown key {key!r}")
                name, convert = _SETTINGS[section][key]
                try:
                    value = convert(text)
                except (ValueError, ConfigError) as exc:
                    raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
                if section == "ga":
                    cfg.ga[name] = value
                else:
                    setattr(cfg, name, value)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for method in cfg.methods:
        if method not in ("cect", "ecmp", "exact"):
            raise ConfigError(f"{path}: unknown method {method!r}")
    if not cfg.n_flows_list:
        raise ConfigError(f"{path}: empty flow sweep")
    for key, values in (("n_flows", cfg.n_flows_list), ("methods", cfg.methods)):
        # a repeated value would run its cells twice and skew report's means
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ConfigError(f"{path}: [sweep] {key}: {repeated[0]!r} is listed twice")
    if cfg.n_seeds < 1:
        raise ConfigError(f"{path}: seeds must be >= 1")
    checks = {
        "traffic": lambda: check_mix(cfg.mix, cfg.plr),
        "paths": lambda: check_path_bounds(cfg.x, cfg.cap_c),
        "ga": lambda: GaConfig(**cfg.ga),
    }
    for section, check in checks.items():
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from exc
    if cfg.topo_kind not in ("fat_tree", "fig2a", "fig2b", "file"):
        raise ConfigError(f"{path}: [topology] unknown kind {cfg.topo_kind!r}")
    if cfg.topo_kind == "file" and not cfg.topo_file:
        raise ConfigError(f"{path}: [topology] kind 'file' needs a path option")
    if cfg.sim_model not in MODELS:
        raise ConfigError(f"{path}: [sim] model must be one of {MODELS}, got {cfg.sim_model!r}")
    if cfg.ecmp_max_paths is not None and cfg.ecmp_max_paths < 1:
        raise ConfigError(f"{path}: [ecmp] max_paths must be >= 1, got {cfg.ecmp_max_paths}")
    return cfg


def build_topology(cfg: ExperimentConfig) -> Topology:
    """The topology of a config whose [topology] kind and path _parse_config checked."""
    if cfg.topo_kind == "fat_tree":
        return make_fat_tree(
            cfg.topo_k, cfg.edge_capacity, cfg.agg_capacity, cfg.core_capacity
        )
    if cfg.topo_kind in ("fig2a", "fig2b"):
        return make_sample_topology(cfg.topo_kind, cfg.sample_capacity)
    return load_topology(cfg.topo_file)


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


def _prepare_workload(
    cfg: ExperimentConfig, topology: Topology, n_flows: int, traffic_seed: int
) -> FlowSet:
    flows = generate_flows(topology, n_flows, cfg.mix, cfg.plr, seed=traffic_seed)
    if cfg.compress:
        flows = compress_flows(flows, *default_compression_bounds(topology))
    return flows


def solve(
    method: str, flows: FlowSet, table: XPathTable, topology: Topology, ga_config: GaConfig,
    max_paths: int | None = None, budget: int = DEFAULT_BUDGET,
) -> tuple[RoutingAssignment, RunStats | None]:
    """Route flows by "cect" (reads ga_config), "ecmp" (max_paths) or "exact" (budget).

    Returns the assignment and cect's RunStats, or None; raises ValueError for
    any other method."""
    if method == "cect":
        assignment, _, stats = run_cect(flows, table, topology, ga_config)
        return assignment, stats
    if method == "ecmp":
        return route_ecmp(flows, topology, table, max_paths), None
    if method == "exact":
        return solve_exact(flows, table, topology, budget)[0], None
    raise ValueError(f"unknown method {method!r}")


# Per-process cache so parallel workers build the topology and table once.
# It holds a single config, keyed by its path and bytes, so a process keeps
# at most one path table alive and re-reads a rewritten config.
_WORKER_STATE: dict[tuple[str, bytes], tuple[ExperimentConfig, Topology, XPathTable]] = {}


def _worker_state(
    config_path: str, data: bytes
) -> tuple[ExperimentConfig, Topology, XPathTable]:
    key = (config_path, data)
    if key not in _WORKER_STATE:
        _WORKER_STATE.clear()
        cfg = _parse_config(data, config_path)
        topology = build_topology(cfg)
        try:
            check_plr(topology, cfg.plr)
        except ValueError as exc:
            raise ConfigError(f"{config_path}: [traffic] {exc}") from exc
        _WORKER_STATE[key] = (cfg, topology, precompute_xpaths(topology, cfg.x, cfg.cap_c))
    return _WORKER_STATE[key]


def _run_cell(args: tuple[str, bytes, str, int, int]) -> dict:
    config_path, data, method, n_flows, seed_index = args
    try:
        cfg, topology, table = _worker_state(config_path, data)
        traffic_seed, ga_seed = cell_seeds(cfg.master_seed, n_flows, seed_index)
        flows = _prepare_workload(cfg, topology, n_flows, traffic_seed)
        ga_config = GaConfig(seed=ga_seed, **cfg.ga)
        start = time.perf_counter()
        assignment, _ = solve(method, flows, table, topology, ga_config, cfg.ecmp_max_paths)
        elapsed = time.perf_counter() - start
        matrix = assemble(assignment, flows, table, topology)
        result = simulate(matrix, flows, topology, cfg.sim_model)
    except (CectLabError, ValueError) as exc:  # recorded in the manifest; sweep continues
        return {"_error": f"{type(exc).__name__}: {exc}", "_cell": args[2:]}
    return {
        "method": method,
        "n_flows": n_flows,
        "seed": seed_index,
        "throughput": result.total_delivered,
        "loss_pct": result.loss_pct,
        "mu": matrix.mu,
        "wall_time_total": elapsed,
        "wall_time_per_flow": elapsed / max(1, flows.count),
        "_dump": format_assignment(assignment, flows, table),
        "_flows": flows,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def run_experiment(config_path, out_dir, threads: int = 1) -> Path:
    """Execute every sweep cell and write results, dumps, and a manifest.

    Returns the output directory. Cell failures (a CectLabError or
    ValueError) are recorded in the manifest and do not stop the sweep; the
    CLI maps them to a nonzero exit code. Any other exception propagates.
    """
    config_path = str(config_path)
    data = _read_config(config_path)
    cfg, topology, table = _worker_state(config_path, data)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = [
        (config_path, data, method, n, s)
        for n in cfg.n_flows_list
        for s in range(cfg.n_seeds)
        for method in cfg.methods
    ]

    rows: list[dict] = []
    failures: list[dict] = []
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(cell) for cell in cells]

    (out / "assignments").mkdir(exist_ok=True)
    (out / "flows").mkdir(exist_ok=True)
    save_topology(topology, out / "topology.txt")
    flows_written: set[tuple[int, int]] = set()
    for outcome in outcomes:
        if "_error" in outcome:
            method, n, s = outcome["_cell"]
            failures.append(
                {"method": method, "n_flows": n, "seed": s, "error": outcome["_error"]}
            )
            continue
        key = (outcome["n_flows"], outcome["seed"])
        if key not in flows_written:
            save_flows(outcome["_flows"], out / "flows" / f"flows_{key[0]}_{key[1]}.txt")
            flows_written.add(key)
        name = f"{outcome['method']}_{outcome['n_flows']}_{outcome['seed']}.txt"
        (out / "assignments" / name).write_text(outcome.pop("_dump"), encoding="utf-8")
        outcome.pop("_flows")
        rows.append(outcome)

    rows.sort(key=lambda r: (r["n_flows"], r["seed"], cfg.methods.index(r["method"])))
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in RESULT_COLUMNS])

    manifest = {
        "config_sha256": hashlib.sha256(data).hexdigest(),
        "master_seed": cfg.master_seed,
        "methods": list(cfg.methods),
        "n_flows": list(cfg.n_flows_list),
        "seeds": cfg.n_seeds,
        "sim_model": cfg.sim_model,
        "cells": [
            {
                "method": method,
                "n_flows": n,
                "seed": s,
                "traffic_seed": cell_seeds(cfg.master_seed, n, s)[0],
                "solver_seed": cell_seeds(cfg.master_seed, n, s)[1],
            }
            for (_, _, method, n, s) in cells
        ],
        "failures": failures,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return out


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator; 1.0 for equal values (0 / 0 too), inf over a zero."""
    if numerator == denominator:
        return 1.0
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def report(results_dir, out_dir=None) -> dict[str, Path]:
    """Aggregate a results directory into plot-ready summary tables.

    Writes per-metric tables (mean and stddev per method and flow count) and
    a cect/ecmp ratio table when both methods are present.
    """
    results_dir = Path(results_dir)
    out = Path(out_dir) if out_dir else results_dir
    out.mkdir(parents=True, exist_ok=True)
    results_file = results_dir / "results.csv"
    if not results_file.exists():
        raise FileNotFoundError(f"no results.csv under {results_dir}")

    with open(results_file, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{results_file} has no result rows")

    methods = sorted({r["method"] for r in rows})
    flow_counts = sorted({int(r["n_flows"]) for r in rows})
    grouped: dict[tuple[str, int], list[dict]] = {}
    for r in rows:
        grouped.setdefault((r["method"], int(r["n_flows"])), []).append(r)

    written: dict[str, Path] = {}
    metric_files = {
        "throughput": "throughput_vs_flows.csv",
        "loss_pct": "loss_vs_flows.csv",
        "mu": "mu_vs_flows.csv",
        "wall_time_total": "time_vs_flows.csv",
    }
    for metric, filename in metric_files.items():
        path = out / filename
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["n_flows"]
            for m in methods:
                header += [f"{m}_mean", f"{m}_std"]
            writer.writerow(header)
            for n in flow_counts:
                row = [n]
                for m in methods:
                    values = [float(r[metric]) for r in grouped.get((m, n), [])]
                    if values:
                        mean, std = _mean_std(values)
                        row += [_fmt(mean), _fmt(std)]
                    else:
                        row += ["", ""]
                writer.writerow(row)
        written[metric] = path

    if {"cect", "ecmp"} <= set(methods):
        path = out / "ratio_cect_vs_ecmp.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_flows", "throughput_ratio", "loss_ratio_ecmp_over_cect"])
            for n in flow_counts:
                cect_tp = [float(r["throughput"]) for r in grouped.get(("cect", n), [])]
                ecmp_tp = [float(r["throughput"]) for r in grouped.get(("ecmp", n), [])]
                cect_loss = [float(r["loss_pct"]) for r in grouped.get(("cect", n), [])]
                ecmp_loss = [float(r["loss_pct"]) for r in grouped.get(("ecmp", n), [])]
                if not cect_tp or not ecmp_tp:
                    continue
                tp_ratio = _ratio(np.mean(cect_tp), np.mean(ecmp_tp))
                loss_ratio = _ratio(np.mean(ecmp_loss), np.mean(cect_loss))
                writer.writerow([n, _fmt(tp_ratio), _fmt(loss_ratio)])
        written["ratio"] = path
    return written
