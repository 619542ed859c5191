"""Exhaustive optimal routing over the path table, for desk-scale oracles.

Enumerates every per-flow label assignment depth-first with incremental
integer link loads, pruning branches whose running utilization already
exceeds the incumbent. Utilization comparisons are exact (integer
cross-multiplication), so tie-breaking never depends on float rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SearchBudgetExceededError
from .routing import RoutingAssignment
from .topology import Topology
from .traffic import FlowSet
from .xpath import XPathTable, feasible_csr

DEFAULT_BUDGET = 1_000_000


def _ratio_gt(load_a: int, cap_a: int, load_b: int, cap_b: int) -> bool:
    """load_a/cap_a > load_b/cap_b without division."""
    return load_a * cap_b > load_b * cap_a


def solve_exact(
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
    budget: int = DEFAULT_BUDGET,
) -> tuple[RoutingAssignment, float]:
    """Return the assignment minimizing maximum link utilization.

    Ties are broken by total hop count, then by the lexicographically
    smallest label vector, which makes the result deterministic. Raises
    NoFeasiblePathError when some flow has no candidate path, even if the
    space would also exceed the budget, and otherwise
    SearchBudgetExceededError when the assignment space is larger than
    budget.
    """
    n_flows = flowset.count
    feas_ptr, feas_labels = feasible_csr(xpath_table, flowset)
    if math.prod(np.diff(feas_ptr).tolist()) > budget:
        raise SearchBudgetExceededError(f"assignment search space exceeds budget of {budget}")

    cap_units = topology.cap_units
    demands = flowset.demand_units()
    ptr, edge_ids = xpath_table.label_edge_csr(topology)
    # slice each label's edges once: the search visits them many times
    label_edges = {
        label: edge_ids[ptr[label - 1] : ptr[label]] for label in np.unique(feas_labels).tolist()
    }
    bounds = feas_ptr.tolist()
    options = [feas_labels[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]

    loads = np.zeros(len(cap_units), dtype=np.int64)
    chosen = [0] * n_flows

    best_labels: list[int] | None = None
    best_load, best_cap = 0, 1
    best_hops = 0

    def search(level: int, max_load: int, max_cap: int, hops: int):
        nonlocal best_labels, best_load, best_cap, best_hops
        if best_labels is not None and _ratio_gt(max_load, max_cap, best_load, best_cap):
            return
        if level == n_flows:
            better = best_labels is None or _ratio_gt(
                best_load, best_cap, max_load, max_cap
            )
            if not better and not _ratio_gt(max_load, max_cap, best_load, best_cap):
                better = (hops, chosen) < (best_hops, best_labels)
            if better:
                best_labels = list(chosen)
                best_load, best_cap, best_hops = max_load, max_cap, hops
            return
        demand = demands[level]
        for label in options[level]:
            edges = label_edges[label]
            loads[edges] += demand
            new_load, new_cap = max_load, max_cap
            for e in edges:
                if _ratio_gt(int(loads[e]), int(cap_units[e]), new_load, new_cap):
                    new_load, new_cap = int(loads[e]), int(cap_units[e])
            chosen[level] = label
            search(level + 1, new_load, new_cap, hops + len(edges))
            loads[edges] -= demand

    search(0, 0, 1, 0)
    assert best_labels is not None
    return RoutingAssignment(np.array(best_labels, dtype=np.int64)), best_load / best_cap
