"""Hot numeric kernels, JIT-compiled with a pure-numpy fallback.

The genetic solver spends nearly all of its time accumulating per-edge loads
for whole populations of path assignments, and the fluid simulator in the
max-min water-filling loop. Both live here in two implementations:

* numba @njit kernels (default when numba is importable), and
* vectorized numpy equivalents.

Set CECT_LAB_BACKEND=numpy to force the fallback (CECT_LAB_BACKEND=numba
selects the JIT path explicitly). Both backends produce identical results;
`cect-lab bench kernels` compares their throughput.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .topology import UNITS_PER_BW

_ENV_FLAG = "CECT_LAB_BACKEND"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


def csr_rows(ptr: np.ndarray, data: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (row ptr, data) holding rows `rows` of CSR (ptr, data), in order."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    out_ptr = np.concatenate(([0], np.cumsum(counts)))
    flat = np.arange(out_ptr[-1], dtype=np.int64) + np.repeat(starts - out_ptr[:-1], counts)
    return out_ptr, data[flat]


def _np_population_loads(genes, label_ptr, label_edges, demands, n_edges):
    """Per-edge integer loads for each member of a population.

    genes holds 1-based path labels, one row per member, one column per
    flow; label_ptr/label_edges are the CSR edge lists of every label.
    """
    loads = np.zeros((genes.shape[0], n_edges), dtype=np.int64)
    for m, labels in enumerate(genes):
        ptr, edge_ids = csr_rows(label_ptr, label_edges, labels - 1)
        weights = np.repeat(demands, np.diff(ptr))
        loads[m] = np.bincount(edge_ids, weights=weights, minlength=n_edges).astype(np.int64)
    return loads


@njit(cache=True)
def _nb_population_loads(genes, label_ptr, label_edges, demands, n_edges):
    n_members, n_flows = genes.shape
    loads = np.zeros((n_members, n_edges), dtype=np.int64)
    for m in range(n_members):
        for f in range(n_flows):
            row = genes[m, f] - 1
            d = demands[f]
            for k in range(label_ptr[row], label_ptr[row + 1]):
                loads[m, label_edges[k]] += d
    return loads


def _np_fitness_mu(loads, cap_units, penalty):
    """Residual-capacity fitness and max utilization per population member.

    Fitness is the summed spare capacity over all edges minus penalty times
    the summed overload, reported in bandwidth units (not milli-units).
    """
    residual = cap_units[None, :] - loads
    overload = np.where(residual < 0, -residual, 0)
    fitness = (residual.sum(axis=1) - penalty * overload.sum(axis=1)) / UNITS_PER_BW
    mu = (loads / cap_units[None, :]).max(axis=1)
    return fitness.astype(np.float64), mu


@njit(cache=True)
def _nb_fitness_mu(loads, cap_units, penalty):
    n_members, n_edges = loads.shape
    fitness = np.empty(n_members, dtype=np.float64)
    mu = np.zeros(n_members, dtype=np.float64)
    for m in range(n_members):
        resid_sum = 0
        over_sum = 0
        worst = 0.0
        for e in range(n_edges):
            resid = cap_units[e] - loads[m, e]
            resid_sum += resid
            if resid < 0:
                over_sum -= resid
            ratio = loads[m, e] / cap_units[e]
            if ratio > worst:
                worst = ratio
        fitness[m] = (resid_sum - penalty * over_sum) / UNITS_PER_BW
        mu[m] = worst
    return fitness, mu


def _np_maxmin_rates(flow_ptr, flow_edges, demands, capacities):
    """Demand-capped max-min fair rates via progressive water filling.

    All unfrozen flows rise at a common rate; a flow freezes when it reaches
    its demand or an edge it crosses saturates. Event-driven: each loop
    iteration advances straight to the next freezing event.
    """
    n_flows = demands.shape[0]
    n_edges = capacities.shape[0]
    rates = np.zeros(n_flows)
    frozen = np.zeros(n_flows, dtype=bool)
    residual = capacities.astype(np.float64).copy()
    counts = np.bincount(flow_edges, minlength=n_edges).astype(np.int64)
    scale = max(capacities.max() if n_edges else 0.0, demands.max() if n_flows else 0.0)
    eps = 1e-9 * (scale if scale > 0 else 1.0)
    crossing = [flow_edges[flow_ptr[f] : flow_ptr[f + 1]] for f in range(n_flows)]

    while not frozen.all():
        active = counts > 0
        delta = np.inf
        if active.any():
            delta = (residual[active] / counts[active]).min()
        head = demands[~frozen] - rates[~frozen]
        delta = min(delta, head.min())
        delta = max(delta, 0.0)

        rates[~frozen] += delta
        residual[active] -= delta * counts[active]

        saturated = active & (residual <= eps)
        for f in np.flatnonzero(~frozen):
            if rates[f] >= demands[f] - eps or saturated[crossing[f]].any():
                frozen[f] = True
                rates[f] = min(rates[f], demands[f])
                np.subtract.at(counts, crossing[f], 1)
    return rates


@njit(cache=True)
def _nb_maxmin_rates(flow_ptr, flow_edges, demands, capacities):
    n_flows = demands.shape[0]
    n_edges = capacities.shape[0]
    rates = np.zeros(n_flows)
    frozen = np.zeros(n_flows, dtype=np.bool_)
    residual = capacities.astype(np.float64).copy()
    counts = np.zeros(n_edges, dtype=np.int64)
    for f in range(n_flows):
        for k in range(flow_ptr[f], flow_ptr[f + 1]):
            counts[flow_edges[k]] += 1
    scale = 0.0
    for e in range(n_edges):
        if capacities[e] > scale:
            scale = capacities[e]
    for f in range(n_flows):
        if demands[f] > scale:
            scale = demands[f]
    eps = 1e-9 * (scale if scale > 0 else 1.0)

    n_alive = n_flows
    while n_alive > 0:
        delta = np.inf
        for e in range(n_edges):
            if counts[e] > 0:
                inc = residual[e] / counts[e]
                if inc < delta:
                    delta = inc
        for f in range(n_flows):
            if not frozen[f]:
                inc = demands[f] - rates[f]
                if inc < delta:
                    delta = inc
        if delta < 0.0:
            delta = 0.0

        for f in range(n_flows):
            if not frozen[f]:
                rates[f] += delta
        for e in range(n_edges):
            if counts[e] > 0:
                residual[e] -= delta * counts[e]

        for f in range(n_flows):
            if frozen[f]:
                continue
            stop = rates[f] >= demands[f] - eps
            if not stop:
                for k in range(flow_ptr[f], flow_ptr[f + 1]):
                    e = flow_edges[k]
                    if counts[e] > 0 and residual[e] <= eps:
                        stop = True
                        break
            if stop:
                frozen[f] = True
                if rates[f] > demands[f]:
                    rates[f] = demands[f]
                for k in range(flow_ptr[f], flow_ptr[f + 1]):
                    counts[flow_edges[k]] -= 1
                n_alive -= 1
    return rates


def _select_backend() -> str:
    requested = os.environ.get(_ENV_FLAG, "numba").strip().lower()
    if requested not in ("numba", "numpy"):
        raise ValueError(f"{_ENV_FLAG} must be 'numba' or 'numpy', got {requested!r}")
    if requested == "numba" and not HAVE_NUMBA:
        warnings.warn("numba is not importable; falling back to the numpy backend")
        return "numpy"
    return requested


BACKEND = _select_backend()

if BACKEND == "numba":
    population_loads = _nb_population_loads
    fitness_mu = _nb_fitness_mu
    maxmin_rates = _nb_maxmin_rates
else:
    population_loads = _np_population_loads
    fitness_mu = _np_fitness_mu
    maxmin_rates = _np_maxmin_rates

IMPLEMENTATIONS = {
    "numpy": (_np_population_loads, _np_fitness_mu, _np_maxmin_rates),
    "numba": (_nb_population_loads, _nb_fitness_mu, _nb_maxmin_rates),
}


def warmup() -> None:
    """Trigger JIT compilation on toy inputs so timings exclude compile cost."""
    genes = np.ones((1, 1), dtype=np.int64)
    ptr = np.array([0, 1], dtype=np.int64)
    edges = np.array([0], dtype=np.int64)
    demands = np.array([1], dtype=np.int64)
    caps = np.array([2], dtype=np.int64)
    loads = population_loads(genes, ptr, edges, demands, 1)
    fitness_mu(loads, caps, 1)
    maxmin_rates(ptr, edges, np.array([1.0]), np.array([2.0]))
