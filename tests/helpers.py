"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the package's own algorithms: path
enumeration walks raw adjacency recursively, hop distances come from a
breadth-first search, each label's hop sequence from its edges' keys (not
Topology.edge_ends), pair lookups from each label's hop sequence, and the
max-min oracle probes feasibility on a rate grid instead of tracking
bottleneck events. reference_validate, reference_uniform_crossover,
reference_compress_flows, reference_edge_switches and
reference_generate_flows are the exceptions: they keep the package's
rule-by-rule validator, its one-shot crossover, its bucket-per-pair
compression, its edge-switch method and its per-flow draw, which the fast
path, the blocked crossover, the one-sort compression,
Topology.edge_switches and the raw-word decoding of generate_flows must
agree with. label_pad and reference_loads read each label's edges in label
order, which the solver's offset genes, decoded through its rows in
pair order, must agree with; GeneCodec maps labels to those genes and back
through feasible_labels, one flow at a time. reference_feasible_csr copies
each flow's feasible_labels into one CSR, a flow at a time, and
reference_route_ecmp keeps the package's ECMP over that per-flow copy, which
route_ecmp's reading of the pair rows must agree with.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import replace

import numpy as np

from cect_lab.ecmp import fnv1a64
from cect_lab.routing import (
    RULE_BINARY_INDICATOR,
    RULE_DESTINATION_IN_DEGREE,
    RULE_FLOW_CONSERVATION,
    RULE_KNOWN_EDGE,
    RULE_LOOP_FREE,
    RULE_NO_EXIT_FROM_DESTINATION,
    RULE_NO_RETURN_TO_SOURCE,
    RULE_SOURCE_OUT_DEGREE,
    RoutingAssignment,
    RoutingMatrix,
    Violation,
    _check_rows,
)
from cect_lab.topology import Topology
from cect_lab.traffic import CLASS_FRACTION, Flow, FlowSet, check_mix, check_topology
from cect_lab.xpath import XPathTable, feasible_labels

# a per-pair cap above every pair's path count in these tests' tables: the
# table keeps every path
ALL_PATHS = 10**9


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


def reference_generate_flows(
    topology: Topology,
    n_flows: int,
    class_mix: dict[str, float],
    plr: float,
    seed: int | np.random.PCG64 | None = None,
) -> FlowSet:
    """generate_flows as a per-flow loop of scalar Generator calls, which the
    raw-word decoding must reproduce flow for flow."""
    if n_flows < 0:
        raise ValueError(f"flow count must be >= 0, got {n_flows}")
    check_mix(class_mix, plr)
    check_topology(topology, class_mix, plr)

    edge_switches = topology.edge_switches
    min_cap = float(topology.capacities.min())

    pods: dict[int, list[int]] = {}
    for sw in edge_switches:
        pods.setdefault(topology.pod_of.get(sw, 0), []).append(sw)
    # each source's (pod-local, remote) destination pools
    pools = {}
    for pod, members in pods.items():
        remote = [s for s in edge_switches if topology.pod_of.get(s, 0) != pod]
        pools.update({src: ([s for s in members if s != src], remote) for src in members})

    rng = np.random.default_rng(seed)
    classes = sorted(class_mix)
    # the draw Generator.choice(p=...) makes: one random(), then a right-side search
    cdf = np.cumsum([class_mix[c] for c in classes])
    cdf = (cdf / cdf[-1]).tolist()

    flows = []
    for fid in range(1, n_flows + 1):
        cls = classes[bisect.bisect_right(cdf, rng.random())]
        src = edge_switches[rng.integers(len(edge_switches))]
        local, remote = pools[src]
        leave = bool(remote) and (rng.random() < plr or not local)
        pool = remote if leave else local
        dst = pool[rng.integers(len(pool))]
        flows.append(
            Flow(id=fid, src=src, dst=dst, demand=CLASS_FRACTION[cls] * min_cap, cls=cls)
        )
    return FlowSet(flows=tuple(flows))


def reference_save_flows(flowset: FlowSet, path) -> None:
    """save_flows as a per-record writer, which the one %-format over the columns
    must reproduce byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in flowset.flows:
            fh.write(f"flow {f.id} {f.src} {f.dst} {float(f.demand)!r} {f.cls}\n")


def reference_edge_switches(topology: Topology) -> list[int]:
    """The edge-switch rule as Topology.edge_switches() computed it on each call.

    Pod-less topologies expose every switch. In a pod-labeled fabric, a
    pod-labeled switch is an access switch unless one of its links leaves
    its pod, as an aggregation switch's links to the core do.
    """
    if not topology.pod_of:
        return list(topology.nodes)
    pod = topology.pod_of.get
    leaving = {src for src, dst, _ in topology.links if pod(dst) != pod(src)}
    return sorted(node for node in topology.pod_of if node not in leaving)


def edge_index(topology: Topology) -> dict[tuple[int, int], int]:
    """Each edge's id, keyed by its (src, dst): its index in topology.edge_keys."""
    return {key: i for i, key in enumerate(topology.edge_keys)}


def out_neighbors(topology: Topology, node: int) -> list[int]:
    """The heads of node's out-edges, ascending."""
    return sorted(dst for src, dst, _ in topology.links if src == node)


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
            for nxt in out_neighbors(topology, hops[-1])
            if nxt not in hops
        }
        result |= frontier
    return result


def all_hops(table: XPathTable) -> list[tuple[int, ...]]:
    """Hop sequence of every label, in label order (label l is entry l-1)."""
    return hops_of(table, range(1, table.path_count + 1))


def hops_of(table: XPathTable, labels) -> list[tuple[int, ...]]:
    """Hop sequences of the given labels, in order: each label's edges' sources
    and then its last edge's destination, read from topology.edge_keys."""
    ptr, ids, keys = table.edge_ptr.tolist(), table.edge_ids.tolist(), table.topology.edge_keys
    rows = [[keys[e] for e in ids[ptr[label - 1] : ptr[label]]] for label in labels]
    return [(*(src for src, _ in edges), edges[-1][1]) for edges in rows]


def labels_by_pair(table: XPathTable) -> dict[tuple[int, int], tuple[int, ...]]:
    """Each endpoint pair's labels in label order, keyed in first-label order.

    Built from the ends of every label's hops, not from the table's pair index.
    """
    pairs: dict[tuple[int, int], list[int]] = {}
    for label, hops in enumerate(all_hops(table), 1):
        pairs.setdefault((hops[0], hops[-1]), []).append(label)
    return {pair: tuple(labels) for pair, labels in pairs.items()}


def bfs_distance(topology: Topology, src: int) -> dict[int, int]:
    """Hop distance from src to every reachable switch."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in out_neighbors(topology, node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


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
    joins the matrix's edge_keys, so that validate rejects the matrix as
    built for another topology; loads are left empty and mu is 0.
    """
    listed = {e for edges in flow_edges for e in edges}
    index = {e: i for i, e in enumerate(sorted(set(topology.edge_keys) | listed))}
    return RoutingMatrix(
        flow_ptr=np.cumsum([0] + [len(edges) for edges in flow_edges], dtype=np.int64),
        edge_ids=np.array([index[e] for edges in flow_edges for e in edges], dtype=np.int64),
        edge_keys=tuple(index),
        load_units={},
        mu=0.0,
    )


def reference_validate(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> list[Violation]:
    """The validator as it was before its simple-path fast path, kept as the
    oracle the fast path must agree with: every row takes the rule-by-rule
    check, and the list it returns is the one validate must return."""
    _check_rows(routing_matrix, flowset, topology)
    keys, ids = routing_matrix.edge_keys, routing_matrix.edge_ids
    n_keys, every = max(len(keys), 1), np.arange(1, flowset.count + 1)
    flow = np.repeat(every, np.diff(routing_matrix.flow_ptr))
    listed = (ids >= 0) & (ids < len(keys))
    found = [
        Violation(f, RULE_KNOWN_EDGE, e)
        for f, e in sorted(set(zip(flow[~listed].tolist(), ids[~listed].tolist())))
    ]

    # the distinct edges of each flow are the nonzero entries of its indicator
    entry, times = np.unique(flow[listed] * n_keys + ids[listed], return_counts=True)
    flow, ids = np.divmod(entry, n_keys)
    found += [
        Violation(int(flow[i]), RULE_BINARY_INDICATOR, keys[ids[i]], f"value {times[i]}")
        for i in np.flatnonzero(times > 1)
    ]

    # out- and in-degree of every (flow, switch) the flow's edges touch, plus
    # its source and destination even when no edge touches them
    src, dst = flowset.ends.T
    ends = np.array(keys, dtype=np.int64).reshape(-1, 2)[ids]
    nodes, pos = np.unique(np.r_[ends[:, 0], ends[:, 1], src, dst], return_inverse=True)
    touched, at = np.unique(np.r_[flow, flow, every, every] * len(nodes) + pos, return_inverse=True)
    out_deg = np.bincount(at[: len(flow)], minlength=len(touched))
    in_deg = np.bincount(at[len(flow) : 2 * len(flow)], minlength=len(touched))
    t_flow, node = touched // len(nodes), nodes[touched % len(nodes)]
    is_src, is_dst = node == src[t_flow - 1], node == dst[t_flow - 1]

    def report(rule, mask, detail, *values):
        columns = [a[mask].tolist() for a in (t_flow, node, *values)]
        found.extend(Violation(f, rule, n, detail.format(*v)) for f, n, *v in zip(*columns))

    report(RULE_NO_RETURN_TO_SOURCE, is_src & (in_deg > 0), "{} edges enter the source", in_deg)
    report(RULE_NO_EXIT_FROM_DESTINATION, is_dst & (out_deg > 0),
           "{} edges leave the destination", out_deg)
    report(RULE_SOURCE_OUT_DEGREE, is_src & (out_deg != 1), "out-degree {}", out_deg)
    report(RULE_DESTINATION_IN_DEGREE, is_dst & (in_deg != 1), "in-degree {}", in_deg)
    report(RULE_FLOW_CONSERVATION, ~is_src & ~is_dst & (in_deg != out_deg),
           "in {} != out {}", in_deg, out_deg)
    report(RULE_LOOP_FREE, in_deg > 1, "in-degree {}", in_deg)
    return sorted(found, key=lambda v: v.flow_id)


def reference_uniform_crossover(
    genes: np.ndarray, picks: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The crossover as it was before its blocks were fused: every pick is
    gathered first, every mask unpacked, and then the pairs are swapped."""
    out = genes[picks]
    half, n_genes = len(picks) // 2, genes.shape[1]
    first, second = out[:half], out[half : 2 * half]
    packed = rng.integers(0, 256, size=(half, -(-n_genes // 8)), dtype=np.uint8)
    swap = np.unpackbits(packed, axis=1, count=n_genes)
    for start in range(0, half, 8):
        a, b = first[start : start + 8], second[start : start + 8]
        diff = a ^ b
        diff *= swap[start : start + 8]
        a ^= diff
        b ^= diff
    return out


def reference_compress_flows(flowset: FlowSet, lower_bound: float, upper_bound: float) -> FlowSet:
    """compress_flows as it was before its one sort: a dict of lists per pair,
    each pair's list sorted, packed first fit with a parallel list of sums."""
    if lower_bound < 0 or (lower_bound > 0 and lower_bound > upper_bound):
        raise ValueError("bounds must satisfy 0 <= lower_bound <= upper_bound")

    small_by_pair: dict[tuple[int, int], list[Flow]] = {}
    passthrough_flows: list[Flow] = []
    for flow in flowset.flows:
        if flow.demand < lower_bound:
            small_by_pair.setdefault((flow.src, flow.dst), []).append(flow)
        else:
            passthrough_flows.append(flow)

    out_flows = [replace(f, id=new_id) for new_id, f in enumerate(passthrough_flows, start=1)]

    for pair in sorted(small_by_pair):
        group = sorted(small_by_pair[pair], key=lambda f: (-f.demand, f.id))
        bins: list[list[Flow]] = []
        sums: list[float] = []
        for flow in group:
            for i, total in enumerate(sums):
                if total + flow.demand <= upper_bound:
                    bins[i].append(flow)
                    sums[i] += flow.demand
                    break
            else:
                bins.append([flow])
                sums.append(flow.demand)
        for members in bins:
            out_flows.append(
                Flow(
                    id=len(out_flows) + 1,
                    src=pair[0],
                    dst=pair[1],
                    demand=sum(f.demand for f in members),
                    cls="custom" if len(members) > 1 else members[0].cls,
                )
            )

    return FlowSet(flows=tuple(out_flows))


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


class GeneCodec:
    """Labels to the solver's genes and back, for one (table, flows): a gene is
    the offset of its flow's label within the flow's feasible_labels row."""

    def __init__(self, table: XPathTable, flows: FlowSet):
        self.rows = [feasible_labels(table, src, dst) for src, dst in flows.ends.tolist()]
        self.ptr = np.cumsum([0, *map(len, self.rows)])
        self.flat = np.array([label for row in self.rows for label in row], dtype=np.int64)
        # the narrowest unsigned dtype that holds the longest row's offsets
        self.dtype = np.min_scalar_type(max(map(len, self.rows), default=1) - 1)

    def decode(self, genes: np.ndarray) -> np.ndarray:
        """The int64 labels that genes (one chromosome or a population) pick."""
        return self.flat[self.ptr[:-1] + genes]

    def encode(self, labels) -> np.ndarray:
        """The genes, in self.dtype, that pick labels (one chromosome or a population)."""
        labels = np.asarray(labels, dtype=np.int64)
        members = np.atleast_2d(labels).tolist()
        genes = [[row.index(label) for row, label in zip(self.rows, m)] for m in members]
        return np.array(genes, dtype=self.dtype).reshape(labels.shape)


def label_pad(table: XPathTable, topology: Topology) -> np.ndarray:
    """Padded label rows built label by label from table.label_edge_csr: row l
    holds label l's edges, then filler id n_edges; row 0 is all filler."""
    ptr, edges = table.label_edge_csr(topology)
    hops = np.diff(ptr)
    pad = np.full((len(hops) + 1, hops.max(initial=0)), len(topology.cap_units), dtype=np.int64)
    for label in range(1, len(hops) + 1):
        pad[label, : hops[label - 1]] = edges[ptr[label - 1] : ptr[label]]
    return pad


def reference_loads(pad: np.ndarray, labels, demand_units: np.ndarray, n_edges: int) -> np.ndarray:
    """Per-edge int64 loads of each row of labels: every flow's demand units
    added, in integers, at each edge of its label's row of pad (filler dropped)."""
    labels = np.atleast_2d(labels)
    loads = np.zeros((len(labels), n_edges + 1), dtype=np.int64)
    for member, row in zip(loads, labels):
        np.add.at(member, pad[row], demand_units[:, None])
    return loads[:, :n_edges]


def reference_feasible_csr(table: XPathTable, flows: FlowSet) -> tuple[np.ndarray, np.ndarray]:
    """int64 CSR (row ptr, labels) of every flow's feasible_labels, in flow
    order, copied one flow at a time."""
    rows = [feasible_labels(table, src, dst) for src, dst in flows.ends.tolist()]
    ptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    return ptr, np.array([label for row in rows for label in row], dtype=np.int64)


def reference_route_ecmp(flows: FlowSet, topology: Topology, table: XPathTable) -> RoutingAssignment:
    """Hash ECMP over reference_feasible_csr: each flow's row is compared with
    its first label's hop count, and the FNV-1a hash picks among the matches.
    Every flow needs a path in the table."""
    topology.check_edge_keys(table.topology.edge_keys, "table")
    ptr, labels = reference_feasible_csr(table, flows)
    starts = ptr[:-1]
    # rows run shortest first, so each row's minimum-hop paths are a prefix
    hops = np.diff(table.edge_ptr)[labels - 1]
    shortest = hops == np.repeat(hops[starts], np.diff(ptr))
    sizes = np.add.reduceat(shortest, starts, dtype=np.int64)
    src, dst = flows.ends.T
    ids = np.arange(1, flows.count + 1, dtype=np.int64)
    picks = (fnv1a64(src, dst, ids) % sizes.astype(np.uint64)).astype(np.int64)
    return RoutingAssignment(labels[starts + picks])
