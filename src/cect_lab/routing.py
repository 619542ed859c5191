"""Routing assignments as per-flow edge lists, with loads and validation.

An assignment maps every flow to one path label. Assembling it yields a
RoutingMatrix: each flow's edges in hop order as a CSR of edge ids (the form
the path table and the kernels use), the per-link loads, and the achieved
maximum link utilization. Loads are accumulated in integer milli-units so
that comparing two routings never depends on float summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssignmentFormatError, InfeasibleLabelError
from .kernels import csr_rows
from .topology import Topology
from .traffic import FlowSet
from .xpath import XPathTable

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

ALL_RULES = (
    RULE_NO_RETURN_TO_SOURCE,
    RULE_NO_EXIT_FROM_DESTINATION,
    RULE_SOURCE_OUT_DEGREE,
    RULE_DESTINATION_IN_DEGREE,
    RULE_FLOW_CONSERVATION,
    RULE_LOOP_FREE,
    RULE_BINARY_INDICATOR,
)

# Link utilization at or above this level marks a hot spot and triggers
# rerouting in the surrounding control loop.
HOT_SPOT_THRESHOLD = 0.7


@dataclass(frozen=True)
class RoutingAssignment:
    """Chosen path label per flow id."""

    choice: dict[int, int]


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
    hop order, as indices into edge_keys: the sorted edges of the topology
    the matrix was built for, numbered as its edge_index(). An edge listed k
    times in a row stands for an indicator value of k, which the validator
    rejects. load_units maps every loaded edge to its load in milli-units;
    mu is the maximum over edges of load / capacity.
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
    edge_keys = tuple(topology.edge_index())
    weights = np.repeat(flowset.demand_units(), np.diff(flow_ptr))
    units = np.bincount(edge_ids, weights=weights, minlength=len(edge_keys)).astype(np.int64)
    # int64 -> float64 is exact below 2**53 and the division is correctly
    # rounded, so the largest quotient is the exact maximum, rounded once
    mu = float((units / topology.capacity_units()).max(initial=0.0))
    loaded = np.flatnonzero(units)
    load_units = dict(zip([edge_keys[i] for i in loaded], units[loaded].tolist()))
    return RoutingMatrix(flow_ptr, edge_ids, edge_keys, load_units, mu)


def matrix_from_paths(
    hops_by_flow: dict[int, tuple[int, ...]],
    flowset: FlowSet,
    topology: Topology,
) -> RoutingMatrix:
    """Build edge lists and loads from explicit hop sequences, one per flow id."""
    edge_index = topology.edge_index()
    flow_ptr = np.zeros(flowset.count + 1, dtype=np.int64)
    ids: list[int] = []
    for flow in flowset.flows:
        hops = hops_by_flow.get(flow.id)
        if not hops:
            detail = "no path assigned" if hops is None else "empty path"
            raise InfeasibleLabelError(flow.id, -1, detail)
        if (hops[0], hops[-1]) != (flow.src, flow.dst):
            detail = f"path {hops[0]}->{hops[-1]} does not match flow {flow.src}->{flow.dst}"
            raise InfeasibleLabelError(flow.id, -1, detail)
        for edge in zip(hops[:-1], hops[1:]):
            if edge not in edge_index:
                raise InfeasibleLabelError(flow.id, -1, f"path uses unknown edge {edge}")
            ids.append(edge_index[edge])
        flow_ptr[flow.id] = len(ids)
    return _matrix(flow_ptr, np.array(ids, dtype=np.int64), flowset, topology)


def check_labels(labels: np.ndarray, flowset: FlowSet, xpath_table: XPathTable) -> None:
    """Raise InfeasibleLabelError at the first flow, in flow order, whose
    int64 label is not in the table or names a path between other switches."""
    hop_ptr, hops = xpath_table.hop_ptr, xpath_table.hops
    in_table = (labels >= 1) & (labels <= xpath_table.path_count)
    rows = np.where(in_table, labels, 1) - 1
    ends = np.column_stack([hops[hop_ptr[rows]], hops[hop_ptr[rows + 1] - 1]])
    ok = in_table & (ends == np.array(flowset.pairs(), dtype=np.int64).reshape(-1, 2)).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        flow, (src, dst) = flowset.flows[i], ends[i].tolist()
        detail = (
            f"path {src}->{dst} does not match flow {flow.src}->{flow.dst}"
            if in_table[i] else "label not in table"
        )
        raise InfeasibleLabelError(flow.id, int(labels[i]), detail)


def assemble(
    assignment: RoutingAssignment,
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
) -> RoutingMatrix:
    """Resolve labels to their paths' edges and accumulate per-link loads."""
    chosen = [assignment.choice.get(flow.id) for flow in flowset.flows]
    if None in chosen:
        raise InfeasibleLabelError(flowset.flows[chosen.index(None)].id, -1, "no label assigned")
    labels = np.array(chosen, dtype=np.int64)
    check_labels(labels, flowset, xpath_table)
    flow_ptr, edge_ids = csr_rows(*xpath_table.label_edge_csr(topology), labels - 1)
    return _matrix(flow_ptr, edge_ids, flowset, topology)


def _check_rows(routing_matrix: RoutingMatrix, flowset: FlowSet) -> None:
    rows = len(routing_matrix.flow_ptr) - 1
    if rows != flowset.count:
        raise ValueError(f"routing has {rows} flows but the flow set has {flowset.count}")


def validate(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> list[Violation]:
    """Check every flow's edge list against the simple-path rules.

    Returns one Violation per broken rule, grouped by flow; an empty list
    means every flow's edges form a loop-free path from its source to its
    destination. Degrees count each distinct edge of a flow once. An edge
    id outside edge_keys, or a key the topology lacks, breaks known-edge.
    Raises ValueError for a matrix that holds another number of flows.
    """
    _check_rows(routing_matrix, flowset)
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
    links = topology.edge_index()
    unknown = np.flatnonzero(~np.array([key in links for key in keys], dtype=bool)[ids])
    found += [Violation(int(flow[i]), RULE_KNOWN_EDGE, keys[ids[i]]) for i in unknown]
    found += [
        Violation(int(flow[i]), RULE_BINARY_INDICATOR, keys[ids[i]], f"value {times[i]}")
        for i in np.flatnonzero(times > 1)
    ]

    # out- and in-degree of every (flow, switch) the flow's edges touch, plus
    # its source and destination even when no edge touches them
    src, dst = np.array(flowset.pairs(), dtype=np.int64).reshape(-1, 2).T
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


def congestion_ok(routing_matrix: RoutingMatrix, mu_target: float = HOT_SPOT_THRESHOLD) -> bool:
    """True when the achieved max utilization stays within the target."""
    if mu_target <= 0:
        raise ValueError("mu_target must be positive")
    return routing_matrix.mu <= mu_target


def flow_edge_csr(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (row ptr, edge ids) of each flow's crossed edges, in flow order.

    Raises ValueError when the matrix holds another number of flows or was
    built for a topology with other edges.
    """
    _check_rows(routing_matrix, flowset)
    topology.check_edge_keys(routing_matrix.edge_keys, "routing")
    return routing_matrix.flow_ptr, routing_matrix.edge_ids


def format_assignment(
    assignment: RoutingAssignment, flowset: FlowSet, xpath_table: XPathTable
) -> str:
    """Text dump, one `flow <id> via <label>: s1 -> ... -> sk` line per flow."""
    labels = [assignment.choice[flow.id] for flow in flowset.flows]
    return "".join(
        f"flow {flow.id} via {label}: {' -> '.join(map(str, hops))}\n"
        for flow, label, hops in zip(flowset.flows, labels, xpath_table.hops_many(labels))
    )


def parse_assignment_dump(text: str) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Parse format_assignment output back to flow id -> (label, hops).

    Raises AssignmentFormatError naming the line of a malformed entry, an
    empty path, a hop that is not an integer, or a repeated flow id.
    """
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        parts = head.split()
        if len(parts) != 4 or parts[0] != "flow" or parts[2] != "via":
            raise AssignmentFormatError(f"unrecognized assignment line {line!r}", line_no)
        try:
            flow_id, label = int(parts[1]), int(parts[3])
        except ValueError:
            raise AssignmentFormatError(f"unrecognized assignment line {line!r}", line_no) from None
        if not tail.strip():
            raise AssignmentFormatError(f"flow {flow_id} has an empty path", line_no)
        try:
            hops = tuple(int(h) for h in tail.split("->"))
        except ValueError:
            raise AssignmentFormatError(
                f"flow {flow_id}: a hop of {tail.strip()!r} is not an integer", line_no
            ) from None
        if flow_id in out:
            raise AssignmentFormatError(f"flow {flow_id} is listed twice", line_no)
        out[flow_id] = (label, hops)
    return out
