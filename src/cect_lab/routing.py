"""Routing assignments as per-flow link indicators, with loads and validation.

An assignment maps every flow to one path label; assembling it yields the
per-flow edge indicators, per-link loads, and the achieved maximum link
utilization. Loads are accumulated in integer milli-units so that comparing
two routings never depends on float summation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleLabelError
from .topology import UNITS_PER_BW, Topology, to_units
from .traffic import FlowSet
from .xpath import XPathTable

# Structural rules a per-flow indicator must satisfy to form a simple
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


@dataclass(frozen=True)
class RoutingMatrix:
    """Per-flow edge indicators with accumulated loads.

    indicator[f][(i, j)] is 1 when flow f crosses directed edge i -> j
    (values other than 0/1 only ever appear in hand-built instances fed to
    the validator). link_load is in bandwidth units; mu is the maximum over
    edges of load / capacity.
    """

    indicator: dict[int, dict[tuple[int, int], int]]
    link_load: dict[tuple[int, int], float]
    mu: float
    load_units: dict[tuple[int, int], int] = field(default_factory=dict)

    def flow_edges(self, flow_id: int) -> list[tuple[int, int]]:
        return [e for e, v in self.indicator.get(flow_id, {}).items() if v]


def matrix_from_paths(
    hops_by_flow: dict[int, tuple[int, ...]],
    flowset: FlowSet,
    topology: Topology,
) -> RoutingMatrix:
    """Build indicators and loads from explicit hop sequences.

    mu is the smallest utilization bound the resulting loads satisfy,
    computed by exact integer comparison across edges.
    """
    indicator: dict[int, dict[tuple[int, int], int]] = {}
    load_units: dict[tuple[int, int], int] = {}

    for flow in flowset.flows:
        hops = hops_by_flow.get(flow.id)
        if hops is None:
            raise InfeasibleLabelError(flow.id, -1, "no path assigned")
        if (hops[0], hops[-1]) != (flow.src, flow.dst):
            raise InfeasibleLabelError(
                flow.id,
                -1,
                f"path {hops[0]}->{hops[-1]} does not match flow "
                f"{flow.src}->{flow.dst}",
            )
        units = to_units(flow.demand)
        indicator[flow.id] = {}
        for edge in zip(hops[:-1], hops[1:]):
            indicator[flow.id][edge] = 1
            load_units[edge] = load_units.get(edge, 0) + units

    best_load, best_cap = 0, 1
    for edge, load in sorted(load_units.items()):
        cap = to_units(topology.capacity(*edge))
        if cap <= 0:
            raise InfeasibleLabelError(-1, -1, f"path uses unknown edge {edge}")
        if load * best_cap > best_load * cap:
            best_load, best_cap = load, cap

    link_load = {e: u / UNITS_PER_BW for e, u in load_units.items()}
    return RoutingMatrix(
        indicator=indicator,
        link_load=link_load,
        mu=best_load / best_cap,
        load_units=load_units,
    )


def assemble(
    assignment: RoutingAssignment,
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
) -> RoutingMatrix:
    """Resolve labels to paths and accumulate per-link loads."""
    labels = []
    for flow in flowset.flows:
        label = assignment.choice.get(flow.id)
        if label is None:
            raise InfeasibleLabelError(flow.id, -1, "no label assigned")
        if not 1 <= label <= xpath_table.path_count:
            raise InfeasibleLabelError(flow.id, label, "label not in table")
        labels.append(label)
    hops_by_flow = dict(zip((flow.id for flow in flowset.flows), xpath_table.hops_many(labels)))
    return matrix_from_paths(hops_by_flow, flowset, topology)


def validate(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> list[Violation]:
    """Check every flow's indicator against the simple-path rules.

    Returns one Violation per broken rule; an empty list means every flow's
    edge set forms a loop-free path from its source to its destination.
    """
    known_edges = {(s, d) for s, d, _ in topology.links}
    violations: list[Violation] = []

    for flow in flowset.flows:
        entries = routing_matrix.indicator.get(flow.id, {})
        for edge, value in entries.items():
            if value not in (0, 1):
                violations.append(
                    Violation(flow.id, RULE_BINARY_INDICATOR, edge, f"value {value}")
                )
            if edge not in known_edges:
                violations.append(Violation(flow.id, RULE_KNOWN_EDGE, edge))

        edges = [e for e, v in entries.items() if v]
        in_deg: dict[int, int] = {}
        out_deg: dict[int, int] = {}
        for i, j in edges:
            out_deg[i] = out_deg.get(i, 0) + 1
            in_deg[j] = in_deg.get(j, 0) + 1

        if in_deg.get(flow.src, 0) != 0:
            violations.append(
                Violation(flow.id, RULE_NO_RETURN_TO_SOURCE, flow.src,
                          f"{in_deg.get(flow.src, 0)} edges enter the source")
            )
        if out_deg.get(flow.dst, 0) != 0:
            violations.append(
                Violation(flow.id, RULE_NO_EXIT_FROM_DESTINATION, flow.dst,
                          f"{out_deg.get(flow.dst, 0)} edges leave the destination")
            )
        if out_deg.get(flow.src, 0) != 1:
            violations.append(
                Violation(flow.id, RULE_SOURCE_OUT_DEGREE, flow.src,
                          f"out-degree {out_deg.get(flow.src, 0)}")
            )
        if in_deg.get(flow.dst, 0) != 1:
            violations.append(
                Violation(flow.id, RULE_DESTINATION_IN_DEGREE, flow.dst,
                          f"in-degree {in_deg.get(flow.dst, 0)}")
            )
        for node in set(in_deg) | set(out_deg):
            if node in (flow.src, flow.dst):
                continue
            if in_deg.get(node, 0) != out_deg.get(node, 0):
                violations.append(
                    Violation(flow.id, RULE_FLOW_CONSERVATION, node,
                              f"in {in_deg.get(node, 0)} != out {out_deg.get(node, 0)}")
                )
        for node, deg in in_deg.items():
            if deg > 1:
                violations.append(
                    Violation(flow.id, RULE_LOOP_FREE, node, f"in-degree {deg}")
                )
    return violations


def congestion_ok(routing_matrix: RoutingMatrix, mu_target: float = HOT_SPOT_THRESHOLD) -> bool:
    """True when the achieved max utilization stays within the target."""
    if mu_target <= 0:
        raise ValueError("mu_target must be positive")
    return routing_matrix.mu <= mu_target


def flow_edge_csr(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (row ptr, edge ids) of each flow's crossed edges, in flow order."""
    edge_ids = topology.edge_index()
    ptr = np.zeros(flowset.count + 1, dtype=np.int64)
    flat: list[int] = []
    for i, flow in enumerate(flowset.flows):
        for edge in routing_matrix.flow_edges(flow.id):
            flat.append(edge_ids[edge])
        ptr[i + 1] = len(flat)
    return ptr, np.array(flat, dtype=np.int64)


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
    """Parse format_assignment output back to flow id -> (label, hops)."""
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        parts = head.split()
        if len(parts) != 4 or parts[0] != "flow" or parts[2] != "via":
            raise ValueError(f"unrecognized assignment line {line!r}")
        hops = tuple(int(h) for h in tail.split("->"))
        out[int(parts[1])] = (int(parts[3]), hops)
    return out
