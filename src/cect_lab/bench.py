"""Solver wall-time scaling benchmark.

`bench scaling` measures run_cect wall time across flow counts at a fixed
iteration budget, the measurement behind the published near-N^1.5 growth
claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ga import GaConfig, run_cect
from .topology import make_fat_tree
from .traffic import generate_flows
from .xpath import precompute_xpaths

BENCH_MIX = {"micro": 0.5, "small": 0.3, "medium": 0.15, "big": 0.05}


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
