"""Fluid-flow evaluation of routings: delivered rates, throughput, and loss.

Rates are allocated at the flow level without packet dynamics, on the
routing's per-flow edge-id CSR, by max-min water filling of link capacities
among path-constrained flows. Delivered rates never exceed demands and
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

# the one fluid model; the model arguments and [sim] model still name it
MODELS = ("maxmin",)
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


def simulate(
    routing_matrix: RoutingMatrix,
    flowset: FlowSet,
    topology: Topology,
    model: str = "maxmin",
) -> SimResult:
    """Allocate max-min fair delivered rates for every flow.

    Raises ValueError for a model other than maxmin, or for a routing built
    for other flows or for a topology with other edges.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    ptr, edges = flow_edge_csr(routing_matrix, flowset, topology)
    demands, caps = flowset.demands, topology.capacities
    rates = kernels.maxmin_rates(ptr, edges, demands, caps)
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
    for a model other than maxmin, naming the flow of a NaN, negative or
    unknown volume, or volume left after MAX_STEPS.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
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
        rates = kernels.maxmin_rates(*kernels.csr_rows(ptr, edges, active), demands[active], caps)
        shipped = np.minimum(rates * interval, remaining[active])
        left = remaining[active] - shipped
        remaining[active] = np.where(left < 1e-12, 0.0, left)
        # summed in flow order, as a running total would be
        steps.append(VolumeStep(sum(shipped.tolist())))
    if remaining.any():
        i = int(np.argmax(remaining))
        raise ValueError(f"after {MAX_STEPS} steps flow {i + 1} still has {remaining[i]} to ship")
    return steps
