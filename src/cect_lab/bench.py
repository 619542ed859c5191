"""Benchmarks: kernel throughput per backend, and solver wall-time scaling.

`bench kernels` times the population-fitness and water-filling kernels under
each backend that runs here (numba only when it is importable) on a
realistic fat-tree instance. `bench scaling` measures run_cect wall time
across flow counts at a fixed iteration budget, the measurement behind the
published near-N^1.5 growth claim.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .ga import GaConfig, _Instance, default_population_size, run_cect
from .topology import make_fat_tree
from .traffic import generate_flows
from .xpath import precompute_xpaths

BENCH_MIX = {"micro": 0.5, "small": 0.3, "medium": 0.15, "big": 0.05}


@dataclass(frozen=True)
class KernelTiming:
    kernel: str
    backend: str
    seconds_per_call: float
    calls: int


def _time_call(func, *args, repeats: int) -> float:
    func(*args)  # warm caches / trigger compilation outside the timing
    start = time.perf_counter()
    for _ in range(repeats):
        func(*args)
    return (time.perf_counter() - start) / repeats


def bench_kernels(
    k: int = 4, n_flows: int = 2000, x: int = 4, seed: int = 0, repeats: int = 5
) -> list[KernelTiming]:
    """Time each runnable backend of each hot kernel on one fat-tree instance."""
    topology = make_fat_tree(k)
    table = precompute_xpaths(topology, x, cap_c=50)
    flows = generate_flows(topology, n_flows, BENCH_MIX, plr=0.7, seed=seed)
    inst = _Instance(flows, table, topology)
    rng = np.random.default_rng(seed)
    n_pop = default_population_size(n_flows, topology.node_count)
    genes = inst.random_genes(n_pop, rng)
    caps_f = inst.caps.astype(np.float64)
    demands_f = np.array([f.demand for f in flows.flows])

    # flow-path CSR for the water-filling kernel: shortest path per flow
    ptr, flow_edges = kernels.csr_rows(inst.label_ptr, inst.label_edges, inst.shortest - 1)

    timings = []
    for backend, (loads_fn, fitness_fn, maxmin_fn) in kernels.IMPLEMENTATIONS.items():
        if backend == "numba" and not kernels.HAVE_NUMBA:
            continue  # the numba entries would only run as interpreted Python
        per_call = _time_call(
            loads_fn, genes, inst.label_ptr, inst.label_edges, inst.demands,
            inst.n_edges, repeats=repeats,
        )
        timings.append(KernelTiming("population_loads", backend, per_call, repeats))
        loads = loads_fn(genes, inst.label_ptr, inst.label_edges, inst.demands, inst.n_edges)
        per_call = _time_call(fitness_fn, loads, inst.caps, topology.node_count, repeats=repeats)
        timings.append(KernelTiming("fitness_mu", backend, per_call, repeats))
        per_call = _time_call(maxmin_fn, ptr, flow_edges, demands_f, caps_f, repeats=repeats)
        timings.append(KernelTiming("maxmin_rates", backend, per_call, repeats))
    return timings


@dataclass(frozen=True)
class ScalingPoint:
    n_flows: int
    population: int
    wall_time: float


def bench_scaling(
    k: int = 4,
    flow_counts: tuple[int, ...] = (250, 500, 1000, 2000),
    x: int = 4,
    iterations: int = 20,
    seed: int = 0,
) -> tuple[list[ScalingPoint], float]:
    """run_cect wall time per flow count, plus the log-log slope.

    mu_target is set far below reach so every run spends the full iteration
    budget; otherwise lightly loaded points would exit early and distort the
    fitted slope.
    """
    topology = make_fat_tree(k)
    table = precompute_xpaths(topology, x, cap_c=50)
    kernels.warmup()
    points = []
    for n in flow_counts:
        flows = generate_flows(topology, n, BENCH_MIX, plr=0.7, seed=seed)
        config = GaConfig(seed=seed, max_iterations=iterations, mu_target=1e-6)
        start = time.perf_counter()
        _, _, stats = run_cect(flows, table, topology, config)
        elapsed = time.perf_counter() - start
        points.append(ScalingPoint(n, stats.population_size, elapsed))
    slope = fit_loglog_slope(
        [p.n_flows for p in points], [p.wall_time for p in points]
    )
    return points, slope


def fit_loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    logx = np.log(np.asarray(sizes, dtype=np.float64))
    logy = np.log(np.asarray(times, dtype=np.float64))
    slope, _ = np.polyfit(logx, logy, 1)
    return float(slope)


def write_kernel_csv(timings: list[KernelTiming], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "backend", "seconds_per_call", "calls"])
        for t in timings:
            writer.writerow([t.kernel, t.backend, f"{t.seconds_per_call:.6g}", t.calls])


def write_scaling_csv(points: list[ScalingPoint], slope: float, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_flows", "population", "wall_time", "loglog_slope"])
        for p in points:
            writer.writerow([p.n_flows, p.population, f"{p.wall_time:.6g}", f"{slope:.4g}"])
