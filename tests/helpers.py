"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the package's own algorithms: path
enumeration walks raw adjacency recursively, and the max-min oracle probes
feasibility on a rate grid instead of tracking bottleneck events.
"""

from __future__ import annotations

import numpy as np

from cect_lab.routing import RoutingMatrix
from cect_lab.topology import Topology
from cect_lab.traffic import Flow, FlowSet


def random_topology(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.5,
                    capacity: float = 10.0) -> Topology:
    """Random directed graph over nodes 1..n_nodes with uniform capacity."""
    links = []
    for src in range(1, n_nodes + 1):
        for dst in range(1, n_nodes + 1):
            if src != dst and rng.random() < edge_prob:
                links.append((src, dst, capacity))
    if not links:  # keep the instance non-degenerate
        links.append((1, 2, capacity))
    return Topology(nodes=tuple(range(1, n_nodes + 1)), links=tuple(links))


def brute_force_simple_paths(topology: Topology, x: int) -> set[tuple[int, ...]]:
    """All simple directed paths with 1..x edges, by naive recursion."""
    edges = {(s, d) for s, d, _ in topology.links}

    def grow(path: tuple[int, ...], acc: set[tuple[int, ...]]):
        if len(path) - 1 >= x:
            return
        for nxt in topology.nodes:
            if nxt not in path and (path[-1], nxt) in edges:
                acc.add(path + (nxt,))
                grow(path + (nxt,), acc)

    acc: set[tuple[int, ...]] = set()
    for node in topology.nodes:
        grow((node,), acc)
    return acc


def grow_xpaths(topology: Topology, x: int) -> set[tuple[int, ...]]:
    """All simple paths with 1..x edges, grown one hop per round from the edges."""
    frontier = {(src, dst) for src, dst, _ in topology.links}
    result: set[tuple[int, ...]] = set(frontier)
    for _ in range(x - 1):
        frontier = {
            hops + (nxt,)
            for hops in frontier
            for nxt in topology.out_neighbors(hops[-1])
            if nxt not in hops
        }
        result |= frontier
    return result


def make_flows(pairs_demands: list[tuple[int, int, float]]) -> FlowSet:
    """FlowSet from (src, dst, demand) triples, ids assigned in order."""
    return FlowSet(
        flows=tuple(
            Flow(id=i + 1, src=s, dst=d, demand=dem)
            for i, (s, d, dem) in enumerate(pairs_demands)
        )
    )


def edge_list_matrix(
    topology: Topology, flow_edges: list[list[tuple[int, int]]]
) -> RoutingMatrix:
    """RoutingMatrix whose row i lists flow i+1's edges exactly as given.

    Built by hand, not through the routing layer, so that tests can feed the
    validator breaches no path could produce. An edge the topology lacks
    joins the matrix's edge_keys; loads are left empty and mu is 0.
    """
    listed = {e for edges in flow_edges for e in edges}
    index = {e: i for i, e in enumerate(sorted(set(topology.edge_index()) | listed))}
    return RoutingMatrix(
        flow_ptr=np.cumsum([0] + [len(edges) for edges in flow_edges], dtype=np.int64),
        edge_ids=np.array([index[e] for edges in flow_edges for e in edges], dtype=np.int64),
        edge_keys=tuple(index),
        load_units={},
        mu=0.0,
    )


def grid_maxmin_oracle(
    flow_paths: list[list[int]],
    demands: list[float],
    capacities: list[float],
    step: float,
) -> list[float]:
    """Max-min allocation by grid probing, independent of the event solver.

    All unfrozen rates rise together in `step` increments while feasible;
    when a joint step fails, any flow whose solo increment is also
    infeasible (or that reached its demand) freezes. This is the defining
    property of max-min fairness evaluated directly on a grid.
    """
    n_flows = len(demands)
    rates = [0.0] * n_flows
    frozen = [False] * n_flows
    probe = step  # accuracy target for the freeze decision
    min_step = step / 4096

    def feasible(candidate: list[float]) -> bool:
        for e, cap in enumerate(capacities):
            load = sum(candidate[f] for f in range(n_flows) if e in flow_paths[f])
            if load > cap + 1e-12:
                return False
        return True

    while not all(frozen):
        trial = [
            min(rates[f] + step, demands[f]) if not frozen[f] else rates[f]
            for f in range(n_flows)
        ]
        if feasible(trial):
            for f in range(n_flows):
                if not frozen[f]:
                    rates[f] = trial[f]
                    if rates[f] >= demands[f] - 1e-12:
                        frozen[f] = True
            continue
        # joint growth failed: freeze flows that cannot even move alone by
        # the accuracy target; they are at their max-min level within probe
        progressed = False
        for f in range(n_flows):
            if frozen[f]:
                continue
            solo = list(rates)
            solo[f] = min(rates[f] + probe, demands[f])
            if solo[f] <= rates[f] + 1e-15 or not feasible(solo):
                frozen[f] = True
                progressed = True
        if progressed:
            step = probe  # survivors resume at full resolution
        else:
            # all survivors can still move alone: approach the event slower
            step /= 2
            if step < min_step:
                for f in range(n_flows):
                    frozen[f] = True
    return rates
