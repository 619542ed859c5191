"""Directed capacitated switch graphs and their generators.

A topology is a sparse directed edge list over integer switch ids. Fat-tree
fabrics carry a pod index for edge and aggregation switches so that traffic
generators can control pod locality. Capacities are bandwidth units (e.g.
Mb/s); an absent edge means capacity zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyFormatError

# Loads and capacities are quantized to integer milli-units (1 Kb/s when the
# bandwidth unit is Mb/s) so that utilization comparisons are exact.
UNITS_PER_BW = 1000


def to_units(bandwidth: float) -> int:
    """Quantize a bandwidth value to integer milli-units."""
    return int(round(bandwidth * UNITS_PER_BW))


@dataclass(frozen=True)
class Topology:
    """Immutable directed capacitated graph of switches.

    Attributes:
        nodes: switch ids, sorted ascending.
        links: directed edges as (src, dst, capacity) with capacity > 0.
        pod_of: optional map switch id -> pod index for edge/aggregation
            switches of a fat-tree; core switches are absent from the map.
    """

    nodes: tuple[int, ...]
    links: tuple[tuple[int, int, float], ...]
    pod_of: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        node_set = set(self.nodes)
        seen: set[tuple[int, int]] = set()
        for src, dst, cap in self.links:
            if src == dst:
                raise TopologyFormatError(f"self-loop edge {src} -> {dst}")
            if (src, dst) in seen:
                raise TopologyFormatError(f"duplicate edge {src} -> {dst}")
            if cap <= 0:
                raise TopologyFormatError(
                    f"non-positive capacity {cap} on edge {src} -> {dst}"
                )
            if src not in node_set or dst not in node_set:
                raise TopologyFormatError(f"edge {src} -> {dst} uses unknown switch")
            seen.add((src, dst))
        n_pods = self.pod_count
        for node, pod in self.pod_of.items():
            if node not in node_set:
                raise TopologyFormatError(f"pod entry for unknown switch {node}")
            if not 0 <= pod < n_pods:
                raise TopologyFormatError(f"pod index {pod} out of range for {node}")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    @property
    def pod_count(self) -> int:
        return max(self.pod_of.values()) + 1 if self.pod_of else 0

    def out_neighbors(self, node: int) -> list[int]:
        return self._adjacency().get(node, [])

    def _adjacency(self) -> dict[int, list[int]]:
        cached = getattr(self, "_adj", None)
        if cached is None:
            cached = {}
            for src, dst, _ in sorted(self.links):
                cached.setdefault(src, []).append(dst)
            object.__setattr__(self, "_adj", cached)
        return cached

    def edge_index(self) -> dict[tuple[int, int], int]:
        """Dense edge ids in sorted (src, dst) order, for array kernels."""
        cached = getattr(self, "_edge_idx", None)
        if cached is None:
            cached = {
                (s, d): i for i, (s, d, _) in enumerate(sorted(self.links))
            }
            object.__setattr__(self, "_edge_idx", cached)
        return cached

    def check_edge_keys(self, edge_keys: tuple[tuple[int, int], ...], owner: str) -> None:
        """Raise ValueError unless edge_keys are this topology's edges in edge_index() order."""
        keys = tuple(self.edge_index())
        if keys != edge_keys:
            src, dst = min(set(keys) ^ set(edge_keys))
            raise ValueError(f"{owner} was built for another topology: edge {src} -> {dst} differs")

    def sorted_links(self) -> list[tuple[int, int, float]]:
        return sorted(self.links)

    def capacity_units(self) -> np.ndarray:
        """int64 capacities in milli-units, aligned with edge_index() order."""
        return np.array(
            [to_units(c) for _, _, c in self.sorted_links()], dtype=np.int64
        )

    def edge_switches(self) -> list[int]:
        """Switches where flows may originate or terminate.

        Pod-less topologies expose every switch. In pod-labeled fabrics the
        access tier is recovered structurally: an access switch only links to
        pod-labeled switches of its own pod, while aggregation switches also
        link to (unlabeled) core switches.
        """
        if not self.pod_of:
            return list(self.nodes)
        tier = getattr(self, "_edge_tier", None)
        if tier is None:
            tier = sorted(
                n
                for n, pod in self.pod_of.items()
                if all(self.pod_of.get(m) == pod for m in self.out_neighbors(n))
            )
            object.__setattr__(self, "_edge_tier", tier)
        return tier

    def is_strongly_connected(self) -> bool:
        if not self.nodes:
            return True
        start = self.nodes[0]
        if len(self._reachable(start, forward=True)) != self.node_count:
            return False
        return len(self._reachable(start, forward=False)) == self.node_count

    def _reachable(self, start: int, forward: bool) -> set[int]:
        if forward:
            adj = self._adjacency()
        else:
            adj = {}
            for src, dst, _ in self.links:
                adj.setdefault(dst, []).append(src)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj.get(node, []):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


def structurally_equal(a: Topology, b: Topology) -> bool:
    """True when two topologies have the same nodes, edges, and pod labels."""
    return (
        a.nodes == b.nodes
        and a.sorted_links() == b.sorted_links()
        and a.pod_of == b.pod_of
    )


@dataclass(frozen=True)
class FatTree(Topology):
    """Fat-tree fabric with per-tier switch id ranges recorded."""

    k: int = 0
    edge_ids: tuple[int, ...] = ()
    agg_ids: tuple[int, ...] = ()
    core_ids: tuple[int, ...] = ()

    def edge_switches(self) -> list[int]:
        return list(self.edge_ids)


def make_fat_tree(
    k: int,
    edge_capacity: float = 100.0,
    agg_capacity: float = 100.0,
    core_capacity: float = 100.0,
) -> FatTree:
    """Build a k-ary fat-tree switch fabric.

    The fabric has (k/2)^2 core switches and k pods of k/2 aggregation plus
    k/2 access switches each. Every access switch connects to all k/2
    aggregation switches of its pod; aggregation switch j of each pod
    connects to core switches j*k/2 .. j*k/2 + k/2 - 1. Each physical link
    is emitted as two directed edges whose capacity is the transmit rate of
    the source tier (edge_capacity for access, agg_capacity for aggregation,
    core_capacity for core switches).
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree arity must be a positive even integer, got {k}")
    if min(edge_capacity, agg_capacity, core_capacity) <= 0:
        raise ValueError("capacities must be positive")

    half = k // 2
    n_edge = k * half
    n_agg = k * half
    edge_ids = tuple(range(1, n_edge + 1))
    agg_ids = tuple(range(n_edge + 1, n_edge + n_agg + 1))
    core_ids = tuple(range(n_edge + n_agg + 1, n_edge + n_agg + half * half + 1))

    links: list[tuple[int, int, float]] = []
    pod_of: dict[int, int] = {}
    for pod in range(k):
        pod_edges = edge_ids[pod * half : (pod + 1) * half]
        pod_aggs = agg_ids[pod * half : (pod + 1) * half]
        for sw in pod_edges + pod_aggs:
            pod_of[sw] = pod
        for e in pod_edges:
            for a in pod_aggs:
                links.append((e, a, edge_capacity))
                links.append((a, e, agg_capacity))
        for j, a in enumerate(pod_aggs):
            for c in core_ids[j * half : (j + 1) * half]:
                links.append((a, c, agg_capacity))
                links.append((c, a, core_capacity))

    nodes = tuple(sorted(edge_ids + agg_ids + core_ids))
    return FatTree(
        nodes=nodes,
        links=tuple(links),
        pod_of=pod_of,
        k=k,
        edge_ids=edge_ids,
        agg_ids=agg_ids,
        core_ids=core_ids,
    )


# 3-node and 4-node reference topologies used by the golden path tests.
_SAMPLE_EDGES = {
    "fig2a": ((1, 2), (2, 1), (3, 1), (3, 2)),
    "fig2b": ((1, 2), (2, 1), (1, 3), (3, 2), (3, 4), (4, 1), (4, 3)),
}


def make_sample_topology(which: str, capacity: float = 10.0) -> Topology:
    """Build one of the small reference topologies ("fig2a" or "fig2b")."""
    if which not in _SAMPLE_EDGES:
        raise ValueError(f"unknown sample topology {which!r}")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    edges = _SAMPLE_EDGES[which]
    nodes = tuple(sorted({n for e in edges for n in e}))
    return Topology(
        nodes=nodes, links=tuple((s, d, capacity) for s, d in edges)
    )


def save_topology(topology: Topology, path) -> None:
    """Write a topology in the plain-text format read by load_topology."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# topology: one record per line\n")
        for node in topology.nodes:
            fh.write(f"node {node}\n")
        for src, dst, cap in topology.sorted_links():
            fh.write(f"edge {src} {dst} {float(cap)!r}\n")
        for node in sorted(topology.pod_of):
            fh.write(f"pod {node} {topology.pod_of[node]}\n")


def load_topology(path) -> Topology:
    """Parse a topology file.

    Format (one record per line, '#' starts a comment):
        node <id>
        edge <src> <dst> <capacity>
        pod <id> <pod-index>
    """
    nodes: list[int] = []
    links: list[tuple[int, int, float]] = []
    pod_of: dict[int, int] = {}
    seen_edges: set[tuple[int, int]] = set()

    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "node" and len(parts) == 2:
                    nodes.append(int(parts[1]))
                elif kind == "edge" and len(parts) == 4:
                    src, dst = int(parts[1]), int(parts[2])
                    cap = float(parts[3])
                    if src == dst:
                        raise TopologyFormatError(
                            f"self-loop edge {src} -> {dst}", line_no
                        )
                    if (src, dst) in seen_edges:
                        raise TopologyFormatError(
                            f"duplicate edge {src} -> {dst}", line_no
                        )
                    if cap <= 0:
                        raise TopologyFormatError(
                            f"non-positive capacity on edge {src} -> {dst}", line_no
                        )
                    seen_edges.add((src, dst))
                    links.append((src, dst, cap))
                elif kind == "pod" and len(parts) == 3:
                    pod_of[int(parts[1])] = int(parts[2])
                else:
                    raise TopologyFormatError(f"unrecognized record {line!r}", line_no)
            except ValueError as exc:
                raise TopologyFormatError(str(exc), line_no) from exc

    return Topology(
        nodes=tuple(sorted(set(nodes))), links=tuple(links), pod_of=pod_of
    )
