"""Fluid-flow evaluation of routings: delivered rates, throughput, and loss.

Rates are allocated at the flow level without packet dynamics, on the
routing's per-flow edge-id CSR. The default max-min model water-fills link
capacities among path-constrained flows; the cheaper bottleneck model scales
each flow by its worst oversubscribed link under offered loads, in one
vectorized pass. Either way, delivered rates never exceed demands and
per-link delivered load never exceeds capacity, up to rounding. Volume
schedules allocate among the still-active rows of the same CSR at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .routing import RoutingMatrix, flow_edge_csr
from .topology import Topology
from .traffic import FlowSet

MODELS = ("maxmin", "bottleneck")
# run_volume_schedule's step cap: volume still left after it is an error
MAX_STEPS = 10_000


@dataclass(frozen=True)
class SimResult:
    """Delivered rates and roll-ups for one routing under one workload.

    mu is the maximum utilization of the *offered* loads (it may exceed 1);
    link_utilization holds the post-allocation (delivered) utilizations,
    which are at most 1 up to rounding.
    """

    per_flow_rate: dict[int, float]
    link_utilization: dict[tuple[int, int], float]
    mu: float
    total_delivered: float
    loss_pct: float


def _bottleneck_rates(
    ptr: np.ndarray, edges: np.ndarray, demands: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Scale each flow by its most oversubscribed link, under offered loads.

    rate_f = d_f * min over f's edges of min(1, c_e / offered_e). A scaled
    edge load is at most the sum of d_f * c_e / offered_e over the flows
    crossing it, which is c_e; a row with no edges keeps its demand.
    """
    flow_of = np.repeat(np.arange(len(demands)), np.diff(ptr))
    offered = np.bincount(edges, weights=demands[flow_of], minlength=len(caps))
    edge_factor = np.minimum(1.0, caps / np.where(offered > 0, offered, 1.0))
    factor = np.ones(len(demands))
    np.minimum.at(factor, flow_of, edge_factor[edges])
    return demands * factor


def _rates(
    model: str, ptr: np.ndarray, edges: np.ndarray, demands: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if model == "maxmin":
        return kernels.maxmin_rates(ptr, edges, demands, caps)
    return _bottleneck_rates(ptr, edges, demands, caps)


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
    ptr, edges = flow_edge_csr(routing_matrix, flowset, topology)
    demands, caps = flowset.demands, topology.capacities
    rates = _rates(model, ptr, edges, demands, caps)
    delivered_load = np.bincount(
        edges, weights=np.repeat(rates, np.diff(ptr)), minlength=len(caps)
    )
    offered = float(demands.sum())
    delivered = float(rates.sum())
    return SimResult(
        per_flow_rate=dict(enumerate(rates.tolist(), start=1)),  # FlowSet ids are 1..N
        link_utilization=dict(zip(routing_matrix.edge_keys, (delivered_load / caps).tolist())),
        mu=routing_matrix.mu,
        total_delivered=delivered,
        loss_pct=0.0 if offered == 0 else 100.0 * (1.0 - delivered / offered),
    )


@dataclass(frozen=True)
class VolumeStep:
    transferred: float


def run_volume_schedule(
    routing_matrix: RoutingMatrix,
    flowset: FlowSet,
    topology: Topology,
    volumes: dict[int, float],
    interval: float = 1.0,
    model: str = "maxmin",
) -> list[VolumeStep]:
    """Step fixed intervals until every flow has shipped its volume.

    Each step allocates rates among the still-active flows, transfers
    rate x interval (clipped to the remaining volume), and retires finished
    flows so their capacity is freed for the rest. The routing's CSR is
    read once; each step gathers the active rows of it. Raises ValueError
    naming the flow of a NaN, negative or unknown volume, or volume left after MAX_STEPS.
    """
    if not interval > 0:  # NaN fails too
        raise ValueError("interval must be positive")
    ptr, edges = flow_edge_csr(routing_matrix, flowset, topology)
    demands, caps = flowset.demands, topology.capacities
    if unknown := volumes.keys() - range(1, flowset.count + 1):
        raise ValueError(f"volume given for unknown flow {min(unknown, key=repr)!r}")
    remaining = np.array([volumes.get(i, 0.0) for i in range(1, flowset.count + 1)], np.float64)
    if not (remaining >= 0).all():  # NaN fails too
        i = int(np.argmin(remaining >= 0))
        raise ValueError(f"flow {i + 1}: volume {remaining[i]} is not a number >= 0")
    steps: list[VolumeStep] = []
    for _ in range(MAX_STEPS):
        active = np.flatnonzero(remaining > 0)
        if not active.size:
            break
        rates = _rates(model, *kernels.csr_rows(ptr, edges, active), demands[active], caps)
        shipped = np.minimum(rates * interval, remaining[active])
        left = remaining[active] - shipped
        remaining[active] = np.where(left < 1e-12, 0.0, left)
        # summed in flow order, as a running total would be
        steps.append(VolumeStep(sum(shipped.tolist())))
    if remaining.any():
        i = int(np.argmax(remaining))
        raise ValueError(f"after {MAX_STEPS} steps flow {i + 1} still has {remaining[i]} to ship")
    return steps
