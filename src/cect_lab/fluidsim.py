"""Fluid-flow evaluation of routings: delivered rates, throughput, and loss.

Rates are allocated at the flow level without packet dynamics, on the
routing's per-flow edge-id CSR. The default max-min model water-fills link
capacities among path-constrained flows; the cheaper bottleneck model scales
each flow by its worst oversubscribed link and then repairs any remaining
overload in one pass. Either way, delivered rates never exceed demands and
per-link delivered load never exceeds capacity. Volume schedules allocate
among the still-active rows of the same CSR at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .routing import RoutingMatrix, flow_edge_csr
from .topology import Topology
from .traffic import FlowSet

MODELS = ("maxmin", "bottleneck")


@dataclass(frozen=True)
class SimResult:
    """Delivered rates and roll-ups for one routing under one workload.

    mu is the maximum utilization of the *offered* loads (it may exceed 1);
    link_utilization holds the post-allocation (delivered) utilizations,
    which are capped at 1 by construction.
    """

    per_flow_rate: dict[int, float]
    link_utilization: dict[tuple[int, int], float]
    mu: float
    total_offered: float
    total_delivered: float
    loss_pct: float
    model: str = "maxmin"

    def transferred(self, interval: float) -> float:
        """Data volume delivered over an interval at these rates."""
        return self.total_delivered * interval


@dataclass(frozen=True)
class ComparisonReport:
    result_a: SimResult
    result_b: SimResult
    throughput_ratio: float
    loss_ratio: float


def _ratio(numerator: float, denominator: float) -> float:
    if numerator == denominator:
        return 1.0
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def _bottleneck_rates(
    ptr: np.ndarray, edges: np.ndarray, demands: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Scale each flow by its most oversubscribed link, then repair.

    The first pass uses offered loads; the single repair pass walks edges in
    id order and rescales the flows crossing any still-overloaded edge, which
    only lowers rates, so every edge ends at or below capacity.
    """
    flow_of = np.repeat(np.arange(len(demands)), np.diff(ptr))
    offered = np.bincount(edges, weights=demands[flow_of], minlength=len(caps))
    with np.errstate(divide="ignore"):
        edge_factor = np.minimum(1.0, caps / np.where(offered > 0, offered, 1.0))
    factor = np.ones(len(demands))
    np.minimum.at(factor, flow_of, edge_factor[edges])
    rates = demands * factor

    # the flows crossing each edge, in flow order, as one stable sort
    order = np.argsort(edges, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(edges, minlength=len(caps)))]
    for e in np.flatnonzero(np.diff(bounds)):
        crossing = flow_of[order[bounds[e] : bounds[e + 1]]]
        load = sum(rates[crossing].tolist())
        if load > caps[e]:
            np.multiply.at(rates, crossing, caps[e] / load)
    return rates


def _rates(
    model: str, ptr: np.ndarray, edges: np.ndarray, demands: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if model == "maxmin":
        return kernels.maxmin_rates(ptr, edges, demands, caps)
    return _bottleneck_rates(ptr, edges, demands, caps)


def _arrays(
    routing_matrix: RoutingMatrix, flowset: FlowSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The routing's CSR (row ptr, edge ids), the demands and the capacities."""
    ptr, edges = flow_edge_csr(routing_matrix, flowset, topology)
    demands = np.array([f.demand for f in flowset.flows], dtype=np.float64)
    caps = np.array([c for _, _, c in topology.sorted_links()], dtype=np.float64)
    return ptr, edges, demands, caps


def simulate(
    routing_matrix: RoutingMatrix,
    flowset: FlowSet,
    topology: Topology,
    model: str = "maxmin",
) -> SimResult:
    """Allocate delivered rates for every flow under the chosen model.

    Raises ValueError for an unknown model, or for a routing built for other
    flows or for a topology with other edges.
    """
    ptr, edges, demands, caps = _arrays(routing_matrix, flowset, topology)
    rates = _rates(model, ptr, edges, demands, caps)
    delivered_load = np.bincount(
        edges, weights=np.repeat(rates, np.diff(ptr)), minlength=len(caps)
    )
    offered = float(demands.sum())
    delivered = float(rates.sum())
    return SimResult(
        per_flow_rate=dict(zip((f.id for f in flowset.flows), rates.tolist())),
        link_utilization=dict(zip(routing_matrix.edge_keys, (delivered_load / caps).tolist())),
        mu=routing_matrix.mu,
        total_offered=offered,
        total_delivered=delivered,
        loss_pct=0.0 if offered == 0 else 100.0 * (1.0 - delivered / offered),
        model=model,
    )


def compare(
    matrix_a: RoutingMatrix,
    matrix_b: RoutingMatrix,
    flowset: FlowSet,
    topology: Topology,
    model: str = "maxmin",
) -> ComparisonReport:
    """Side-by-side simulation of two routings for the same workload.

    throughput_ratio is a over b; loss_ratio is b over a, so both read
    "higher favors a".
    """
    result_a = simulate(matrix_a, flowset, topology, model)
    result_b = simulate(matrix_b, flowset, topology, model)
    return ComparisonReport(
        result_a=result_a,
        result_b=result_b,
        throughput_ratio=_ratio(result_a.total_delivered, result_b.total_delivered),
        loss_ratio=_ratio(result_b.loss_pct, result_a.loss_pct),
    )


@dataclass(frozen=True)
class VolumeStep:
    step: int
    transferred: float
    active_flows: int


def run_volume_schedule(
    routing_matrix: RoutingMatrix,
    flowset: FlowSet,
    topology: Topology,
    volumes: dict[int, float],
    interval: float = 1.0,
    model: str = "maxmin",
    max_steps: int = 10_000,
) -> list[VolumeStep]:
    """Step fixed intervals until every flow has shipped its volume.

    Each step allocates rates among the still-active flows, transfers
    rate x interval (clipped to the remaining volume), and retires finished
    flows so their capacity is freed for the rest. The routing's CSR is
    read once; each step gathers the active rows of it.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    ptr, edges, demands, caps = _arrays(routing_matrix, flowset, topology)
    remaining = np.array([volumes.get(f.id, 0.0) for f in flowset.flows], dtype=np.float64)
    steps: list[VolumeStep] = []
    for step in range(max_steps):
        active = np.flatnonzero(remaining > 0)
        if not active.size:
            break
        rates = _rates(model, *kernels.csr_rows(ptr, edges, active), demands[active], caps)
        shipped = np.minimum(rates * interval, remaining[active])
        left = remaining[active] - shipped
        remaining[active] = np.where(left < 1e-12, 0.0, left)
        # summed in flow order, as a running total would be
        steps.append(VolumeStep(step, sum(shipped.tolist()), int(active.size)))
    return steps
