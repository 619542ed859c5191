"""Directed capacitated switch graphs and their generators.

A topology is a sparse directed edge list over integer switch ids. Fat-tree
fabrics carry a pod index for edge and aggregation switches so that traffic
generators can control pod locality. Capacities are bandwidth units (e.g.
Mb/s); an absent edge means capacity zero.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CectLabError

# Loads and capacities are quantized to integer milli-units (1 Kb/s when the
# bandwidth unit is Mb/s) so that utilization comparisons are exact.
UNITS_PER_BW = 1000


def to_units(bandwidth: np.ndarray) -> np.ndarray:
    """Quantize bandwidth values to int64 milli-units, rounding half to even as round() does."""
    return np.rint(bandwidth * UNITS_PER_BW).astype(np.int64)


def has_units(bandwidth):
    """Whether to_units(bandwidth) is at least 1 and fits int64 (False for NaN), a bool for
    a float and a bool array for an array."""
    units = bandwidth * UNITS_PER_BW
    return (0.5 < units) & (units < 2**63)


def id_problem(value) -> str:
    """Why value is no id (an int or a numpy integer within int64, not a bool); "" if it is."""
    if not (type(value) is int or isinstance(value, np.integer)):
        return "is not an integer"
    return "" if -(2**63) <= value < 2**63 else "does not fit in int64"


def _check_switch(node: int) -> None:
    """Raise CectLabError for an id that is not an integer within int64."""
    if problem := id_problem(node):
        raise CectLabError(f"switch id {node!r} {problem}")


def _check_link(src: int, dst: int, cap: float, seen: set) -> None:
    """Add src -> dst to seen, or raise CectLabError for a self-loop, a
    repeated edge or a capacity that to_units rounds to 0 or beyond int64."""
    if src == dst:
        raise CectLabError(f"self-loop edge {src} -> {dst}")
    if (src, dst) in seen:
        raise CectLabError(f"duplicate edge {src} -> {dst}")
    if not has_units(cap):
        message = f"capacity {cap} of edge {src} -> {dst} is not finite and > 0 in load units"
        raise CectLabError(message)
    seen.add((src, dst))


@dataclass(frozen=True)
class Topology:
    """Immutable directed capacitated graph of switches; the owner of edge ids.

    Construction sorts nodes and links, so that links[i] is edge i in every
    layer, and builds the read-only arrays below once.

    Attributes:
        nodes: integer switch ids within int64, sorted ascending.
        links: directed edges as (src, dst, capacity), sorted, each capacity
            at least 1 load unit and below 2**63 load units.
        pod_of: optional map switch id -> pod index >= 0 for edge/aggregation
            switches of a fat-tree; core switches are absent from the map.
        node_ids: int64 nodes.
        edge_keys: (src, dst) of every edge; capacities: float64 capacities;
            cap_units: int64 capacities in milli-units; edge_ends: int64
            (links, 2) positions in nodes of every edge's tail and head; all
            four in edge order.
        edge_id: int64 (n + 1, n + 1) matrix over positions: [p, q] is the id
            of edge nodes[p] -> nodes[q], or -1; position n is any non-switch.
        edge_switches: the switches where flows may originate or terminate,
            ascending. A pod-less topology exposes every switch. In a
            pod-labeled fabric, a pod-labeled switch is an access switch
            unless one of its links leaves its pod, as an aggregation
            switch's links to the core do.
    """

    nodes: tuple[int, ...]
    links: tuple[tuple[int, int, float], ...]
    pod_of: dict[int, int] = field(default_factory=dict)
    node_ids: np.ndarray = field(init=False, repr=False, compare=False)
    edge_keys: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    capacities: np.ndarray = field(init=False, repr=False, compare=False)
    cap_units: np.ndarray = field(init=False, repr=False, compare=False)
    edge_ends: np.ndarray = field(init=False, repr=False, compare=False)
    edge_id: np.ndarray = field(init=False, repr=False, compare=False)
    edge_switches: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _position: dict[int, int] = field(init=False, repr=False, compare=False)
    _low: np.uint64 = field(init=False, repr=False, compare=False)
    _table: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # before sorting, which a str among ints would break
        for node in (*self.nodes, *(end for link in self.links for end in link[:2]), *self.pod_of):
            _check_switch(node)
        nodes, links = tuple(sorted(self.nodes)), tuple(sorted(self.links))
        position = dict(zip(nodes, range(len(nodes))))
        if len(position) < len(nodes):
            repeated = next(a for a, b in zip(nodes, nodes[1:]) if a == b)
            raise CectLabError(f"switch {repeated} is listed twice")
        seen: set[tuple[int, int]] = set()
        for src, dst, cap in self.links:
            _check_link(src, dst, cap, seen)
            if src not in position or dst not in position:
                raise CectLabError(f"edge {src} -> {dst} uses unknown switch")
        for node, pod in self.pod_of.items():
            if node not in position:
                raise CectLabError(f"pod entry for unknown switch {node}")
            if id_problem(pod) or pod < 0:
                raise CectLabError(f"pod index {pod!r} out of range for {node}")

        ends = [(position[src], position[dst]) for src, dst, _ in links]
        edge_ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
        edge_id = np.full((len(nodes) + 1, len(nodes) + 1), -1, dtype=np.int64)
        edge_id[tuple(edge_ends.T)] = np.arange(len(links))
        capacities = np.array([cap for *_, cap in links], dtype=np.float64)
        arrays = dict(node_ids=np.array(nodes, dtype=np.int64), capacities=capacities,
                      cap_units=to_units(capacities), edge_ends=edge_ends, edge_id=edge_id)
        for array in arrays.values():
            array.flags.writeable = False
        # a dense position table over the id span [low, high], and one more entry, n,
        # that every offset at or beyond the span reads; a wider span keeps the dict
        low, high = (int(nodes[0]), int(nodes[-1])) if nodes else (0, -1)
        span = high - low + 1
        table = None
        if span <= 4 * len(nodes) + 64:
            table = np.full(span + 1, len(nodes), dtype=np.int64)
            table[arrays["node_ids"] - low] = np.arange(len(nodes))
            table.flags.writeable = False
        pod = self.pod_of.get
        leaving = {src for src, dst, _ in links if pod(dst) != pod(src)}
        edge_switches = tuple(sorted(set(self.pod_of) - leaving)) if self.pod_of else nodes
        built = dict(nodes=nodes, links=links, edge_keys=tuple((s, d) for s, d, _ in links),
                     edge_switches=edge_switches, _position=position,
                     _low=np.uint64(low % 2**64), _table=table, **arrays)
        for name, value in built.items():
            object.__setattr__(self, name, value)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def positions(self, ids) -> np.ndarray:
        """Each id's int64 index in nodes, node_count for a non-switch.

        An int64 array keeps its shape and, when the ids span at most 4n + 64
        values, reads the position table; other ids match as dict keys (3.0
        is switch 3, "3" and 3.7 are not).
        """
        if isinstance(ids, np.ndarray) and ids.dtype == np.int64:
            if self._table is None:
                return self.positions(ids.ravel().tolist()).reshape(ids.shape)
            # offsets wrap modulo 2**64, so an id below low lands past the span too
            offsets = ids.view(np.uint64) - self._low
            np.minimum(offsets, len(self._table) - 1, out=offsets)
            return self._table.take(offsets.view(np.int64))
        absent = itertools.repeat(len(self.nodes))
        return np.fromiter(map(self._position.get, ids, absent), dtype=np.int64)

    def check_edge_keys(self, edge_keys: tuple[tuple[int, int], ...], owner: str) -> None:
        """Raise ValueError unless edge_keys are this topology's edge_keys, naming the
        least edge one side lacks, else the first id they differ at, else their sizes."""
        if self.edge_keys != edge_keys:
            ours, differ = self.edge_keys, set(self.edge_keys) ^ set(edge_keys)
            at = next((i for i, (a, b) in enumerate(zip(ours, edge_keys)) if a != b), None)
            detail = (
                "edge {} -> {} differs".format(*min(differ)) if differ
                else f"it has {len(edge_keys)} edges, not {len(ours)}" if at is None
                else "edge id {} is {} -> {}, not {} -> {}".format(at, *edge_keys[at], *ours[at])
            )
            raise ValueError(f"{owner} was built for another topology: {detail}")


def make_fat_tree(
    k: int,
    edge_capacity: float = 100.0,
    agg_capacity: float = 100.0,
    core_capacity: float = 100.0,
) -> Topology:
    """Build a k-ary fat-tree switch fabric.

    The fabric has (k/2)^2 core switches and k pods of k/2 aggregation plus
    k/2 access switches each. Switch ids run access 1..k^2/2 (pod by pod),
    then aggregation, then core. Every access switch connects to all k/2
    aggregation switches of its pod; aggregation switch j of each pod
    connects to core switches j*k/2 .. j*k/2 + k/2 - 1. Each physical link
    is emitted as two directed edges whose capacity is the transmit rate of
    the source tier (edge_capacity for access, agg_capacity for aggregation,
    core_capacity for core switches).
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree arity must be a positive even integer, got {k}")

    half, n = k // 2, k * k // 2  # n access and n aggregation switches
    access, aggregation = tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1))
    core = tuple(range(2 * n + 1, 2 * n + half * half + 1))

    links: list[tuple[int, int, float]] = []
    pod_of: dict[int, int] = {}
    for pod in range(k):
        pod_edges = access[pod * half : (pod + 1) * half]
        pod_aggs = aggregation[pod * half : (pod + 1) * half]
        pod_of.update(dict.fromkeys(pod_edges + pod_aggs, pod))
        for e, a in itertools.product(pod_edges, pod_aggs):
            links += [(e, a, edge_capacity), (a, e, agg_capacity)]
        for j, a in enumerate(pod_aggs):
            for c in core[j * half : (j + 1) * half]:
                links += [(a, c, agg_capacity), (c, a, core_capacity)]

    return Topology(nodes=access + aggregation + core, links=tuple(links), pod_of=pod_of)


# 3-node and 4-node reference topologies used by the golden path tests.
_SAMPLE_EDGES = {
    "fig2a": ((1, 2), (2, 1), (3, 1), (3, 2)),
    "fig2b": ((1, 2), (2, 1), (1, 3), (3, 2), (3, 4), (4, 1), (4, 3)),
}


def make_sample_topology(which: str, capacity: float = 10.0) -> Topology:
    """Build one of the small reference topologies ("fig2a" or "fig2b")."""
    if which not in _SAMPLE_EDGES:
        raise ValueError(f"unknown sample topology {which!r}")
    edges = _SAMPLE_EDGES[which]
    nodes = tuple({n for e in edges for n in e})
    return Topology(nodes=nodes, links=tuple((s, d, capacity) for s, d in edges))


def save_topology(topology: Topology, path) -> None:
    """Write a topology in the plain-text format read by load_topology."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# topology: one record per line\n")
        for node in topology.nodes:
            fh.write(f"node {node}\n")
        for src, dst, cap in topology.links:
            fh.write(f"edge {src} {dst} {float(cap)!r}\n")
        for node in sorted(topology.pod_of):
            fh.write(f"pod {node} {topology.pod_of[node]}\n")


# The numbers of a topology or flow record as save_topology and save_flows write
# them: an id is ASCII digits after an optional minus, and a capacity or demand
# an ASCII decimal whose exponent alone may carry a sign.
ID = "(-?[0-9]+)"
DECIMAL = r"((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)"
_RECORD = re.compile(f"node {ID}|edge {ID} {ID} {DECIMAL}|pod {ID} {ID}")


def read_records(lines, parse, where: str = "") -> None:
    """Call parse on each stripped, non-blank line; a ValueError or CectLabError it
    raises on a bad record is raised again as a CectLabError prefixed with where and line N."""
    for line_no, line in enumerate(map(str.strip, lines), start=1):
        if line:
            try:
                parse(line)
            except (ValueError, CectLabError) as exc:
                raise CectLabError(f"{where}line {line_no}: {exc}") from exc


def load_topology(path) -> Topology:
    """Parse a topology file; a CectLabError names the file, and the line if any.

    Format (one record per line, fields one space apart, '#' starts a comment;
    ids and capacities as ID and DECIMAL read them):
        node <id>
        edge <src> <dst> <capacity>
        pod <id> <pod-index>
    """
    nodes: set[int] = set()
    links: list[tuple[int, int, float]] = []
    pod_of: dict[int, int] = {}
    seen_edges: set[tuple[int, int]] = set()

    def record(line: str) -> None:
        match = _RECORD.fullmatch(line)
        if not match:
            raise ValueError(f"unrecognized record {line!r}")
        node, src, dst, cap, pod_node, pod = match.groups()
        if node is not None:
            node = int(node)
            _check_switch(node)
            if node in nodes:
                raise ValueError(f"switch {node} is listed twice")
            nodes.add(node)
        elif src is not None:
            link = (int(src), int(dst), float(cap))
            _check_link(*link, seen_edges)
            links.append(link)
        else:
            node = int(pod_node)
            if node in pod_of:
                raise ValueError(f"pod entry for switch {node} is listed twice")
            pod_of[node] = int(pod)

    with open(path, encoding="utf-8") as fh:
        read_records((raw.split("#", 1)[0] for raw in fh), record, f"{path}: ")
    try:
        return Topology(nodes=tuple(nodes), links=tuple(links), pod_of=pod_of)
    except CectLabError as exc:
        raise CectLabError(f"{path}: {exc}") from exc
