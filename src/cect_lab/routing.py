"""Routing assignments as per-flow edge lists, with loads and validation.

An assignment is a label vector, one path label per flow in flow order.
Assembling it yields a RoutingMatrix: each flow's edges in hop order as a
CSR of edge ids (the form the path table and the kernels use), the per-link
loads, and the achieved maximum link utilization. Loads are accumulated in
integer milli-units so that comparing two routings never depends on float
summation order.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CectLabError
from .kernels import csr_rows
from .topology import Topology, read_records
from .traffic import FlowSet
from .xpath import XPathTable, format_paths

# Structural rules a flow's edge list must satisfy to form a simple
# source-to-destination path (the validator names the rule it saw broken).
RULE_NO_RETURN_TO_SOURCE = "no-return-to-source"
RULE_NO_EXIT_FROM_DESTINATION = "no-exit-from-destination"
RULE_SOURCE_OUT_DEGREE = "source-out-degree"
RULE_DESTINATION_IN_DEGREE = "destination-in-degree"
RULE_FLOW_CONSERVATION = "flow-conservation"
RULE_LOOP_FREE = "loop-free"
RULE_BINARY_INDICATOR = "binary-indicator"
RULE_KNOWN_EDGE = "known-edge"

# Link utilization at or above this level marks a hot spot. It is the GA's
# default mu_target: a run stops once its best mu is at or below it.
HOT_SPOT_THRESHOLD = 0.7


@dataclass(frozen=True, eq=False)
class RoutingAssignment:
    """Chosen path labels as an int64 array in flow order: labels[i] is flow i+1's."""

    labels: np.ndarray

    @property
    def choice(self) -> dict[int, int]:  # the labels keyed by flow id, built on each read
        return dict(enumerate(self.labels.tolist(), start=1))


@dataclass(frozen=True)
class Violation:
    """One broken structural rule, naming the flow and where it broke."""

    flow_id: int
    rule: str
    location: object
    detail: str = ""

    def __str__(self):
        msg = f"flow {self.flow_id}: {self.rule} at {self.location}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass(frozen=True, eq=False)
class RoutingMatrix:
    """Per-flow edge lists with accumulated loads.

    Row i of the CSR flow_ptr/edge_ids lists the edges flow i+1 crosses, in
    hop order, as indices into edge_keys, those of the topology the matrix
    was built for. An edge listed k times in a row stands for an indicator
    value of k, which the validator rejects. load_units maps every loaded
    edge to its load in milli-units; mu is the maximum of load / capacity.
    """

    flow_ptr: np.ndarray
    edge_ids: np.ndarray
    edge_keys: tuple[tuple[int, int], ...]
    load_units: dict[tuple[int, int], int]
    mu: float


def _matrix(
    flow_ptr: np.ndarray, edge_ids: np.ndarray, flowset: FlowSet, topology: Topology
) -> RoutingMatrix:
    """The RoutingMatrix of a per-flow edge-id CSR, with its loads and mu."""
    edge_keys = topology.edge_keys
    weights = np.repeat(flowset.demand_units, np.diff(flow_ptr))
    units = np.bincount(edge_ids, weights=weights, minlength=len(edge_keys)).astype(np.int64)
    # int64 -> float64 is exact below 2**53 and the division is correctly
    # rounded, so the largest quotient is the exact maximum, rounded once
    mu = float((units / topology.cap_units).max(initial=0.0))
    loaded = np.flatnonzero(units)
    load_units = dict(zip([edge_keys[i] for i in loaded], units[loaded].tolist()))
    return RoutingMatrix(flow_ptr, edge_ids, edge_keys, load_units, mu)


def matrix_from_paths(
    hops_by_flow: dict[int, tuple[int, ...]],
    flowset: FlowSet,
    topology: Topology,
) -> RoutingMatrix:
    """Build edge lists and loads from explicit hop sequences, one per flow id 1..N.

    A hop stands for the switch it equals (3.0 for 3, not 3.7 or "3"). Raises
    CectLabError at the first flow whose path is missing or empty, joins
    other switches, or crosses an unknown edge, in that order, and then at the
    smallest id outside 1..N that has a path."""
    paths = list(map(hops_by_flow.get, range(1, flowset.count + 1), itertools.repeat(())))
    counts = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    at = topology.positions(itertools.chain.from_iterable(paths))
    pair_ids = topology.edge_id[at[:-1], at[1:]]
    row = np.repeat(np.arange(len(paths)), counts)
    inside = row[:-1] == row[1:]  # the pair's hops belong to one path
    # each hop's switch id, 0 for a hop that is no switch and after the last
    # hop: a path of two or more hops puts such a hop into an unknown edge
    ids = np.append(np.append(topology.node_ids, 0)[at], 0)
    first = np.cumsum(counts) - counts
    ends = np.c_[ids[first], ids[first + counts - 1]]
    bad = (counts < 2) | (ends != flowset.ends).any(axis=1)
    bad[row[:-1][inside & (pair_ids < 0)]] = True
    if bad.any():
        i = int(np.argmax(bad))
        (src, dst), path = flowset.ends[i].tolist(), hops_by_flow.get(i + 1)
        if not path:
            detail = "no path assigned" if path is None else "empty path"
        elif (path[0], path[-1]) != (src, dst):
            detail = f"path {path[0]}->{path[-1]} does not match flow {src}->{dst}"
        else:
            j = int(np.argmax(pair_ids[first[i] : first[i] + counts[i] - 1] < 0))
            detail = f"path uses unknown edge {tuple(path[j : j + 2])}"
        raise CectLabError(f"flow {i + 1}: {detail}")
    if len(hops_by_flow) > flowset.count:  # every id 1..N has a path, so some other id does
        extra = min(hops_by_flow.keys() - range(1, flowset.count + 1))
        raise CectLabError(f"flow {extra}: not in the flow set")
    return _matrix(np.r_[0, np.cumsum(counts - 1)], pair_ids[inside], flowset, topology)


def check_labels(labels: np.ndarray, flowset: FlowSet, xpath_table: XPathTable) -> np.ndarray:
    """The first flowset.count labels of an int64 vector, which may route more
    flows. Raises CectLabError at the first flow, in flow order, that has
    no label, whose label is not in the table, or whose path joins other switches."""
    if len(labels) < flowset.count:
        raise CectLabError(f"flow {len(labels) + 1}: no label assigned")
    labels = labels[: flowset.count]
    ptr, ids, topology = xpath_table.edge_ptr, xpath_table.edge_ids, xpath_table.topology
    in_table = (labels >= 1) & (labels <= xpath_table.path_count)
    rows = np.where(in_table, labels, 1) - 1
    # a path runs from its first edge's tail to its last edge's head
    tails, heads = topology.node_ids[topology.edge_ends.T]
    ends = np.column_stack([tails[ids[ptr[rows]]], heads[ids[ptr[rows + 1] - 1]]])
    ok = in_table & (ends == flowset.ends).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        (src, dst), (path_src, path_dst) = flowset.ends[i].tolist(), ends[i].tolist()
        detail = (
            f"path {path_src}->{path_dst} does not match flow {src}->{dst}"
            if in_table[i] else "label not in table"
        )
        message = f"flow {i + 1}: path label {labels[i]} is not feasible ({detail})"
        raise CectLabError(message)
    return labels


def assemble(
    assignment: RoutingAssignment,
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
) -> RoutingMatrix:
    """Resolve labels to their paths' edges and accumulate per-link loads."""
    labels = check_labels(assignment.labels, flowset, xpath_table)
    flow_ptr, edge_ids = csr_rows(*xpath_table.label_edge_csr(topology), labels - 1)
    return _matrix(flow_ptr, edge_ids, flowset, topology)


def _check_rows(routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology) -> None:
    rows = len(routing_matrix.flow_ptr) - 1
    if rows != flowset.count:
        raise ValueError(f"routing has {rows} flows but the flow set has {flowset.count}")
    topology.check_edge_keys(routing_matrix.edge_keys, "routing")


def validate(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> list[Violation]:
    """Check every flow's edge list against the simple-path rules.

    Returns one Violation per broken rule, grouped by flow; an empty list
    means every flow's edges form a loop-free path from its source to its
    destination. Degrees count each distinct edge of a flow once. An edge
    id outside edge_keys breaks known-edge. Raises ValueError for a matrix
    that holds another number of flows or was built for a topology with
    other edges. A row that is a simple path passes in one array check;
    only the rows that fail it are walked edge by edge to name their rules.
    """
    _check_rows(routing_matrix, flowset, topology)
    ptr, keys, (src, dst) = routing_matrix.flow_ptr, routing_matrix.edge_keys, flowset.ends.T
    counts, n = np.diff(ptr), topology.node_count
    ids, row = routing_matrix.edge_ids[ptr[0] : ptr[-1]], np.repeat(np.arange(len(counts)), counts)
    full = np.flatnonzero(counts)
    first, last = ptr[full] - ptr[0], ptr[full + 1] - ptr[0] - 1
    # a row fails when it is empty, holds an unknown id, has other ends or a broken chain;
    # tails and heads are positions in nodes, an unknown id clipped to a known edge, if any
    bad = (counts == 0) | (not keys)
    if keys:
        known, nodes = (ids >= 0) & (ids < len(keys)), topology.node_ids
        tail, head = (a.take(ids, mode="clip") for a in topology.edge_ends.T)
        bad[full] = (nodes[tail[first]] != src[full]) | (nodes[head[last]] != dst[full])
        bad[row[~known | np.r_[False, (head[:-1] != tail[1:]) & (row[:-1] == row[1:])]]] = True
        # a row's tails and last head, keyed by row: a repeated switch sits next to itself
        key = np.sort(np.r_[row, full] * n + np.r_[tail, head[last]])
        bad[key[1:][key[1:] == key[:-1]] // n] = True
    failing = np.flatnonzero(bad)
    rows = zip(failing.tolist(), flowset.ends[failing].tolist())
    return [violation for i, ends in rows for violation in
            _flow_violations(i + 1, ends, routing_matrix.edge_ids[ptr[i] : ptr[i + 1]], keys)]


def _flow_violations(flow_id: int, ends: list[int], edge_ids, keys) -> list[Violation]:
    """Every rule that flow flow_id, with its (src, dst) ends, breaks with its edge ids, rule by
    rule, each rule's edges or switches ascending; degrees count each distinct known edge once."""
    (src, dst), edges = ends, edge_ids.tolist()
    times = Counter(e for e in edges if 0 <= e < len(keys))
    found = [Violation(flow_id, RULE_KNOWN_EDGE, e) for e in sorted(set(edges) - set(times))]
    found += [Violation(flow_id, RULE_BINARY_INDICATOR, keys[e], f"value {n}")
              for e, n in sorted(times.items()) if n > 1]
    # o[v] and i[v]: switch v's out- and in-degree over the distinct known edges
    o, i = Counter(keys[e][0] for e in times), Counter(keys[e][1] for e in times)
    found += [Violation(flow_id, rule, at, detail) for rule, at, broken, detail in (
        (RULE_NO_RETURN_TO_SOURCE, src, i[src] > 0, f"{i[src]} edges enter the source"),
        (RULE_NO_EXIT_FROM_DESTINATION, dst, o[dst] > 0, f"{o[dst]} edges leave the destination"),
        (RULE_SOURCE_OUT_DEGREE, src, o[src] != 1, f"out-degree {o[src]}"),
        (RULE_DESTINATION_IN_DEGREE, dst, i[dst] != 1, f"in-degree {i[dst]}"),
    ) if broken]
    inner = sorted((o.keys() | i.keys()) - {src, dst})
    found += [Violation(flow_id, RULE_FLOW_CONSERVATION, v, f"in {i[v]} != out {o[v]}")
              for v in inner if i[v] != o[v]]
    return found + [Violation(flow_id, RULE_LOOP_FREE, v, f"in-degree {i[v]}")
                    for v in sorted(i) if i[v] > 1]


def flow_edge_csr(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (row ptr, edge ids) of each flow's crossed edges, in flow order.

    Raises ValueError when the matrix holds another number of flows or was
    built for a topology with other edges.
    """
    _check_rows(routing_matrix, flowset, topology)
    return routing_matrix.flow_ptr, routing_matrix.edge_ids


def format_assignment(
    assignment: RoutingAssignment, flowset: FlowSet, xpath_table: XPathTable
) -> str:
    """Text dump, one `flow <id> via <label>: s1 -> ... -> sk` line per flow."""
    labels = check_labels(assignment.labels, flowset, xpath_table)
    return format_paths(xpath_table, labels, "flow %d via %d: ", 1 + np.arange(len(labels)), labels)


# A line as format_assignment writes it, the one line a dump may hold.
_LINE = re.compile("flow ([0-9]+) via ([0-9]+): (-?[0-9]+(?: -> -?[0-9]+)*)")
# The subset of _LINE that bulk reading takes: no minus sign and numbers short
# enough for int64. A text is checked by deleting these lines: unlike one match
# of a repeated group, that keeps the regex engine's memory flat.
_PLAIN_LINE = re.compile("flow [0-9]{1,18} via [0-9]{1,18}: [0-9]{1,18}(?: -> [0-9]{1,18})*\n")


def parse_assignment_dump(text: str) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Parse format_assignment output back to flow id -> (label, hops).

    Lines end at a newline only; blank lines and the whitespace around a line are skipped. A line
    that is not a _LINE, or repeats a flow id, raises CectLabError naming it. A text made only
    of _PLAIN_LINE lines is read in bulk; any other text line by line.
    """
    body = text if text.endswith("\n") else text + "\n"
    if not _PLAIN_LINE.sub("", body):
        # -1 ends each line: no plain line holds a minus sign
        spaced = body.translate(str.maketrans("flowvia:->", " " * 10)).replace("\n", " -1 ")
        numbers = np.fromstring(spaced, np.int64, sep=" ")
        ends = np.flatnonzero(numbers < 0)
        starts = np.r_[0, ends + 1][:-1]
        flat = numbers.tolist()
        hops = [tuple(flat[a + 2 : b]) for a, b in zip(starts.tolist(), ends.tolist())]
        out = dict(zip(numbers[starts].tolist(), zip(numbers[starts + 1].tolist(), hops)))
        if len(out) == len(hops):
            return out
    out = {}

    def record(line: str) -> None:
        match = _LINE.fullmatch(line)
        if not match:
            raise ValueError(f"unrecognized assignment line {line!r}")
        flow_id = int(match[1])
        if flow_id in out:
            raise ValueError(f"flow {flow_id} is listed twice")
        out[flow_id] = (int(match[2]), tuple(map(int, match[3].split(" -> "))))

    read_records(text.split("\n"), record)  # as bulk reading, not at a form feed
    return out
