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
from .xpath import XPathTable, feasible_rows

DEFAULT_BUDGET = 1_000_000


def solve_exact(
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
    budget: int = DEFAULT_BUDGET,
) -> tuple[RoutingAssignment, float]:
    """Return the assignment minimizing maximum link utilization.

    Ties are broken by total hop count, then by the lexicographically
    smallest label vector, which makes the result deterministic. Raises
    CectLabError when some flow has no candidate path, even if the
    space would also exceed the budget, and otherwise
    SearchBudgetExceededError when the assignment space is larger than
    budget.
    """
    starts, lengths = feasible_rows(xpath_table, flowset)
    if math.prod(lengths.tolist()) > budget:
        raise SearchBudgetExceededError(f"assignment search space exceeds budget of {budget}")

    caps = topology.cap_units.tolist()
    demands = flowset.demand_units.tolist()
    ptr, edge_ids = xpath_table.label_edge_csr(topology)
    # each flow's candidates: a label and its path's (edge, capacity) pairs
    options = [
        [(label, [(e, caps[e]) for e in edge_ids[ptr[label - 1] : ptr[label]].tolist()])
         for label in xpath_table.pair_labels[a : a + n].tolist()]
        for a, n in zip(starts.tolist(), lengths.tolist())
    ]
    loads = [0] * len(caps)

    def place(edges, demand, top, cap):
        # add demand along edges; return the new (max load, its capacity)
        for e, c in edges:
            loads[e] += demand
            if loads[e] * cap > top * c:
                top, cap = loads[e], c
        return top, cap

    # a flow with one candidate adds the same loads, label and hops to every
    # leaf: place it here, leave its hops out of the key, branch on the others
    chosen = [candidates[0][0] for candidates in options]
    free = [flow for flow, candidates in enumerate(options) if len(candidates) > 1]
    top, cap = 0, 1
    for flow, candidates in enumerate(options):
        if len(candidates) == 1:
            top, cap = place(candidates[0][1], demands[flow], top, cap)

    # incumbent (max load, its capacity, hops, labels); capacity 0 reads as
    # infinite utilization, which the first leaf beats
    best = (1, 0, 0, None)

    def search(level: int, top: int, cap: int, hops: int):
        nonlocal best
        best_top, best_cap, best_hops, best_labels = best
        if top * best_cap > best_top * cap:
            return
        if level == len(free):
            if (top * best_cap, hops, chosen) < (best_top * cap, best_hops, best_labels):
                best = (top, cap, hops, list(chosen))
            return
        flow = free[level]
        for label, edges in options[flow]:
            chosen[flow] = label
            search(level + 1, *place(edges, demands[flow], top, cap), hops + len(edges))
            for e, _ in edges:
                loads[e] -= demands[flow]

    search(0, top, cap, 0)
    return RoutingAssignment(np.array(best[3], dtype=np.int64)), best[0] / best[1]
