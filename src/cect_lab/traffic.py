"""Flow workloads: synthetic generation by size class and flow-table compression.

Flow demands are expressed as a fraction of the smallest link capacity, so a
"big" flow always claims half a bottleneck link regardless of the capacity
scale. Compression merges the long tail of sub-threshold flows that share an
endpoint pair, shrinking the gene count the solver has to optimize.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .topology import Topology, has_units, id_problem, read_records, to_units

# Demand as a fraction of the minimum link capacity, per size class.
CLASS_FRACTION = {
    "micro": 0.005,
    "small": 0.02,
    "medium": 0.2,
    "big": 0.5,
}

FLOW_CLASSES = (*CLASS_FRACTION, "custom")

# 10 Kb/s when the bandwidth unit is Mb/s: the usual small-flow threshold.
DEFAULT_COMPRESS_LOWER = 0.01


def default_compression_bounds(topology: Topology) -> tuple[float, float]:
    """Small-flow threshold plus an upper bound keeping merges routable.

    The upper bound is half the smallest link capacity so a merged flow can
    always ride a single path without monopolizing it; ValueError if it is below the threshold.
    """
    check_topology(topology, {}, 0.0)
    lower, upper = DEFAULT_COMPRESS_LOWER, 0.5 * float(topology.capacities.min())
    if upper < lower:
        raise ValueError(f"compress: half the smallest capacity, {upper}, is below {lower}")
    return lower, upper


@dataclass(frozen=True)
class Flow:
    """One unidirectional demand between two switches."""

    id: int
    src: int
    dst: int
    demand: float
    cls: str = "custom"

    def __post_init__(self):
        for name, value in (("id", self.id), ("src", self.src), ("dst", self.dst)):
            if problem := id_problem(value):
                raise ValueError(f"flow {self.id!r}: {name} {value!r} {problem}")
        if self.src == self.dst:
            raise ValueError(f"flow {self.id}: src equals dst ({self.src})")
        if self.demand <= 0:
            raise ValueError(f"flow {self.id}: demand must be positive")
        if not has_units(self.demand):
            raise ValueError(
                f"flow {self.id}: demand {self.demand!r} is not finite or rounds to 0 load units"
            )
        if self.cls not in FLOW_CLASSES:
            raise ValueError(f"flow {self.id}: unknown class {self.cls!r}")


@dataclass(frozen=True)
class FlowSet:
    """Ordered flows with ids dense 1..count, and read-only arrays built once at construction.

    Attributes:
        flows: the flows, flow i+1 at index i.
        ends: int64 (count, 2) array of each flow's (src, dst).
        demands: float64 demands; demand_units: int64 demands in milli-units;
            both indexed as flows.
    """

    flows: tuple[Flow, ...]
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    demands: np.ndarray = field(init=False, repr=False, compare=False)
    demand_units: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        count, column = len(self.flows), lambda name: map(attrgetter(name), self.flows)
        # list equality compares each id with its position as flow.id != i does, in one C loop
        if (ids := list(column("id"))) != list(range(1, count + 1)):
            i = next(i for i, fid in enumerate(ids, start=1) if fid != i)
            raise ValueError(f"flow ids must be dense 1..N, got {ids[i - 1]} at {i}")
        demands = np.fromiter(column("demand"), np.float64, count)
        ends = np.column_stack([np.fromiter(column(e), np.int64, count) for e in ("src", "dst")])
        for name, array in dict(ends=ends, demands=demands, demand_units=to_units(demands)).items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def count(self) -> int:
        return len(self.flows)


def check_mix(class_mix: dict[str, float], plr: float) -> None:
    """Raise ValueError unless class_mix is a distribution over known classes and plr in [0, 1]."""
    fractions = list(class_mix.values())
    # NaN fails both comparisons
    if not (min(fractions, default=-1.0) >= 0 and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ValueError("class mix fractions must be >= 0 and sum to 1")
    unknown = set(class_mix) - set(CLASS_FRACTION)
    if unknown:
        raise ValueError(f"unknown flow classes in mix: {sorted(unknown)}")
    if not 0.0 <= plr <= 1.0:
        raise ValueError("plr must lie in [0, 1]")


def check_topology(topology: Topology, class_mix: dict[str, float], plr: float) -> None:
    """Raise ValueError unless flows can be drawn on the topology: it needs links to
    size their demands by, 2 edge switches, pods when plr > 0 lets flows leave their
    pod, and a load unit in the demand of each class that class_mix draws."""
    if not topology.links:
        raise ValueError("the topology has no links to size flow demands by")
    if (count := len(topology.edge_switches)) < 2:
        raise ValueError(f"flows need 2 edge switches, and the topology has {count}")
    if plr > 0 and not topology.pod_of:
        raise ValueError(f"plr {plr} needs a pod-labeled topology")
    min_cap = float(topology.capacities.min())
    for cls, share in class_mix.items():
        if share > 0 and not has_units(demand := CLASS_FRACTION[cls] * min_cap):
            raise ValueError(f"mix: {cls} demand {demand!r} rounds to 0 load units")


def generate_flows(
    topology: Topology,
    n_flows: int,
    class_mix: dict[str, float],
    plr: float,
    seed: int | None = None,
) -> FlowSet:
    """Draw a synthetic workload of n_flows demands.

    Sources are uniform over the topology's edge switches. With probability
    plr a flow leaves its originating pod (destination uniform over other
    pods' edge switches), otherwise it stays pod-local. Pod-less topologies
    are treated as one pod covering every switch and require plr == 0.
    Deterministic for a fixed seed.
    """
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


def compress_flows(flowset: FlowSet, lower_bound: float, upper_bound: float) -> FlowSet:
    """Merge sub-threshold flows that share a (src, dst) pair.

    Flows with demand < lower_bound are sorted once by (src, dst, -demand, id)
    and packed first fit, pair by pair, into merged flows whose demand never
    exceeds upper_bound. Larger flows pass through untouched and come first,
    renumbered in their input order, followed by the merged flows pair by
    pair. Total demand per pair is conserved exactly. lower_bound == 0
    disables merging, whatever upper_bound is.
    """
    # NaN fails both comparisons
    if not (lower_bound == 0 or 0 < lower_bound <= upper_bound):
        raise ValueError("bounds must satisfy 0 <= lower_bound <= upper_bound")

    large = (f for f in flowset.flows if f.demand >= lower_bound)
    out = [replace(f, id=new_id) for new_id, f in enumerate(large, start=1)]
    small = sorted(
        (f for f in flowset.flows if f.demand < lower_bound),
        key=lambda f: (f.src, f.dst, -f.demand, f.id),
    )
    for (src, dst), group in itertools.groupby(small, key=lambda f: (f.src, f.dst)):
        bins: list[list] = []  # [running total, members] per merged flow
        for flow in group:
            fit = next((b for b in bins if b[0] + flow.demand <= upper_bound), None)
            if fit is None:
                bins.append([flow.demand, [flow]])
            else:
                fit[0] += flow.demand
                fit[1].append(flow)
        for _, members in bins:
            cls = "custom" if len(members) > 1 else members[0].cls
            out.append(Flow(len(out) + 1, src, dst, sum(f.demand for f in members), cls))

    return FlowSet(flows=tuple(out))


def save_flows(flowset: FlowSet, path) -> None:
    """Write flows as `flow <id> <src> <dst> <demand> <class>` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in flowset.flows:
            fh.write(f"flow {f.id} {f.src} {f.dst} {float(f.demand)!r} {f.cls}\n")


def load_flows(path) -> FlowSet:
    """Parse a flow file; a CectLabError names the file and the line."""
    flows = []

    def record(line: str) -> None:
        parts = line.split()
        if len(parts) != 6 or parts[0] != "flow":
            raise ValueError(f"unrecognized record {line!r}")
        flows.append(Flow(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]), parts[5]))
        if flows[-1].id != len(flows):
            raise ValueError(f"flow id {flows[-1].id} breaks the dense order 1..N")

    with open(path, encoding="utf-8") as fh:
        read_records((raw.split("#", 1)[0] for raw in fh), record, f"{path}: ")
    return FlowSet(flows=tuple(flows))
