"""Flow workloads: synthetic generation by size class and flow-table compression.

Flow demands are expressed as a fraction of the smallest link capacity, so a
"big" flow always claims half a bottleneck link regardless of the capacity
scale. Compression merges the long tail of sub-threshold flows that share an
endpoint pair, shrinking the gene count the solver has to optimize.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .topology import DECIMAL, ID, Topology, has_units, id_problem, read_records, to_units

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
        if problem := _flow_problem(self.src, self.dst, self.demand, self.cls):
            raise ValueError(f"flow {self.id}: {problem}")


def _flow_problem(src: int, dst: int, demand: float, cls: str) -> str:
    """Why no flow joins src to dst with this demand and class; "" if one does."""
    if src == dst:
        return f"src equals dst ({src})"
    if demand <= 0:
        return "demand must be positive"
    if not has_units(demand):
        return f"demand {demand!r} is not finite or rounds to 0 load units"
    return "" if cls in FLOW_CLASSES else f"unknown class {cls!r}"


class FlowSet:
    """Ordered flows with ids dense 1..count, held as read-only columns.

    Attributes:
        ends: int64 (count, 2) array of each flow's (src, dst).
        demands: float64 demands; demand_units: int64 demands in milli-units.
        classes: uint8 codes of the flows' classes, indices into FLOW_CLASSES.
        flows: the flows as Flow records, flow i+1 at index i, built on first read.
    Flow i+1 sits at row i of every column; two sets are equal when their columns are.
    """

    def __init__(self, flows: Iterable[Flow]):
        """The set of Flow records whose ids run 1..N in order."""
        flows = tuple(flows)
        count, column = len(flows), lambda name: map(attrgetter(name), flows)
        # list equality compares each id with its position as flow.id != i does, in one C loop
        if (ids := list(column("id"))) != list(range(1, count + 1)):
            i = next(i for i, fid in enumerate(ids, start=1) if fid != i)
            raise ValueError(f"flow ids must be dense 1..N, got {ids[i - 1]} at {i}")
        ends = np.column_stack([np.fromiter(column(e), np.int64, count) for e in ("src", "dst")])
        demands = np.fromiter(column("demand"), np.float64, count)
        classes = np.fromiter(map(FLOW_CLASSES.index, column("cls")), np.uint8, count)
        self._hold(ends, demands, classes)
        vars(self)["flows"] = flows  # the records given are the ones .flows returns

    @classmethod
    def from_columns(cls, ends: np.ndarray, demands: np.ndarray, classes: np.ndarray) -> FlowSet:
        """The set of flows 1..N whose columns are these int64 (N, 2) ends, float64 demands
        and uint8 class codes, which it keeps read-only."""
        flowset = cls.__new__(cls)
        flowset._hold(ends, demands, classes)
        return flowset

    def _hold(self, ends, demands, classes) -> None:
        """Check every flow in bulk, as Flow checks one, then keep the columns read-only."""
        known = classes < len(FLOW_CLASSES)
        ok = (ends[:, 0] != ends[:, 1]) & has_units(demands) & known
        if not ok.all():
            i = int(np.argmin(ok))
            cls = FLOW_CLASSES[classes[i]] if known[i] else int(classes[i])
            problem = _flow_problem(*ends[i].tolist(), float(demands[i]), cls)
            raise ValueError(f"flow {i + 1}: {problem}")
        columns = dict(ends=ends, demands=demands, classes=classes, demand_units=to_units(demands))
        for name, array in columns.items():
            array.flags.writeable = False
            setattr(self, name, array)

    @cached_property
    def flows(self) -> tuple[Flow, ...]:
        return tuple(itertools.starmap(Flow, self._fields()))

    def _fields(self):
        """Each flow's (id, src, dst, demand, class) as Python ints, floats and strs."""
        names = map(FLOW_CLASSES.__getitem__, self.classes.tolist())
        ids, (src, dst) = range(1, self.count + 1), self.ends.T.tolist()
        return zip(ids, src, dst, self.demands.tolist(), names)

    @property
    def count(self) -> int:
        return len(self.demands)

    def __eq__(self, other):
        if not isinstance(other, FlowSet):
            return NotImplemented
        names = ("ends", "demands", "classes")
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in names)


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
    seed: int | np.random.PCG64 | None = None,
) -> FlowSet:
    """Draw a synthetic workload of n_flows demands.

    Sources are uniform over the topology's edge switches. With probability
    plr a flow leaves its originating pod (destination uniform over other
    pods' edge switches), otherwise it stays pod-local. Pod-less topologies
    are treated as one pod covering every switch and require plr == 0.
    Deterministic for a fixed seed: an int, or a np.random.PCG64 that holds no
    buffered half (a ValueError otherwise), which default_rng takes as it is.
    The draw reads whole random_raw blocks from it and leaves it past the last.

    The flows are those of a loop making, per flow, the Generator calls
    rng.random() for the class, rng.integers(len(edge_switches)) for the
    source, rng.random() < plr when the source has switches in other pods,
    and rng.integers(len(pool)) for the destination. They are decoded from
    one random_raw block of PCG64 words in that order: a double is the top
    53 bits of one word, and integers() takes 32-bit halves, the buffered
    high half of an earlier word first, then the low half of a fresh word,
    whose high half it buffers.
    """
    if n_flows < 0:
        raise ValueError(f"flow count must be >= 0, got {n_flows}")
    check_mix(class_mix, plr)
    check_topology(topology, class_mix, plr)
    bits = np.random.default_rng(seed).bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"the flow draw decodes PCG64 words, not {type(bits).__name__} ones")
    if bits.state["has_uint32"]:
        raise ValueError("the flow draw starts at a fresh PCG64 word, not at a buffered half")

    edges = np.array(topology.edge_switches, np.int64)
    pod = np.array([topology.pod_of.get(sw, 0) for sw in topology.edge_switches])
    same = pod[:, None] == pod
    # (source, leaves its pod, switch): each source's pod-local and remote destination pools
    in_pool = np.stack([same & ~np.eye(len(edges), dtype=bool), ~same], axis=1)
    sizes = in_pool.sum(axis=2, dtype=np.uint64)  # uint64, as the bounds of 64-bit products
    pools = edges[np.argsort(~in_pool, axis=2, kind="stable")]  # each pool first, in edge order

    # A flow reads its doubles and at most one fresh word for its two halves, a rejection one
    # half more. Where every pool holds 2 switches, flows start in kind 0 alone, so the table
    # holds kind 0 until a walk leaves it, then all 3 kinds, then a longer block.
    raw, more, kinds = np.empty(0, np.uint64), 3 * n_flows + 16, 1
    while True:
        raw = np.concatenate([raw, bits.random_raw(more)])
        width = len(raw) + 1
        picks, succ = _flow_table(raw, sizes, plr, kinds)
        state, starts = 0, np.empty(n_flows, np.int64)
        walk, follow = memoryview(starts), memoryview(succ)
        for i in range(n_flows):
            walk[i] = state
            state = follow[state]
        if state < len(succ) - 1:
            break
        more, kinds = (len(raw) if kinds == 3 else 0), 3

    classes = sorted(class_mix)
    # the draw Generator.choice(p=...) makes: one random(), then a right-side search
    cdf = np.cumsum([class_mix[c] for c in classes])
    cls = np.searchsorted(cdf / cdf[-1], _double(raw, starts % width), side="right")
    demand = np.array([CLASS_FRACTION[c] for c in classes]) * float(topology.capacities.min())
    codes = np.array([FLOW_CLASSES.index(c) for c in classes], np.uint8)
    pick = picks[starts]
    ends = np.column_stack([edges[pick // (2 * len(edges))], pools.ravel()[pick]])
    return FlowSet.from_columns(ends, demand[cls], codes[cls])


def _flow_table(raw, sizes, plr, kinds):
    """Where the flow that the loop draws from each start state of the raw block goes.

    State kind * W + p, with W = len(raw) + 1, has word p next to read and
    the high half of word p - kind buffered (none when kind is 0); a flow
    ends in kind 0, 1 or 2. Returns, for the states of the first `kinds`
    kinds, the flow's index in the flattened (source, leaves, position)
    pools, and its successor state, with one entry more: kinds * W, the
    successor of every flow that reads past the block or ends in a later kind.
    """
    width, remote, alone = len(raw) + 1, sizes[:, 1] > 0, sizes[:, 0] == 0
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
    picks, succs = [], []
    for kind in range(kinds):
        p = np.arange(width)
        buf = 2 * (p - kind) + 1 if kind else np.full(width, -1)
        # word p is the class's double
        src, p, buf = _integers(halves, np.full(width, len(sizes), np.uint64), p + 1, buf)
        leaves = remote[src]
        pool = 2 * src + (leaves & ((_double(raw, p) < plr) | alone[src]))
        dst, p, buf = _integers(halves, sizes.ravel()[pool], p + leaves, buf)
        picks.append(pool * len(sizes) + dst)
        succ = np.where(buf >= 0, p - buf // 2, 0) * width + p
        succs.append(np.where(p < width, np.minimum(succ, kinds * width), kinds * width))
    return np.concatenate(picks), np.append(np.concatenate(succs), kinds * width)


def _double(raw, p):
    """Generator.random() as PCG64 makes it from word p: its top 53 bits over 2**53."""
    return (raw[np.minimum(p, len(raw) - 1)] >> 11) * 2.0**-53


def _integers(halves, bounds, p, buf):
    """Generator.integers(bounds) from each state (p, buf), as numpy draws it on PCG64.

    halves holds each word's low then high 32 bits, and buf is the index in
    it of the buffered half, or negative for none. A draw reads the buffered
    half, else the low half of word p. Lemire's test (TOMACS 2019) rejects
    it with probability below bound / 2**32, and the draw then reads the
    low half of word p, or the half after the rejected one. A bound of 1
    reads nothing. Returns the values and the states after.
    """
    draws = bounds > 1
    j = np.where(buf >= 0, buf, 2 * p)
    while True:
        product = halves[np.minimum(j, len(halves) - 1)] * bounds
        leftover = product & 0xFFFFFFFF
        # numpy tests leftover < bound before it computes the threshold 2**32 % bound; a draw
        # that has run past the block stops there, its state past it
        maybe = np.flatnonzero((leftover < bounds) & (j < len(halves)))
        rejected = maybe[leftover[maybe] < 2**32 % bounds[maybe]]
        if not rejected.size:
            break
        j[rejected] = np.where(j[rejected] == buf[rejected], 2 * p[rejected], j[rejected] + 1)
    fresh = draws & (j != buf)
    # a low half read fresh buffers the high half after it; any other draw empties the buffer
    buf = np.where(draws, np.where(fresh & (j % 2 == 0), j + 1, -1), buf)
    return (product >> 32).view(np.int64), np.where(fresh, j // 2 + 1, p), buf


def compress_flows(flowset: FlowSet, lower_bound: float, upper_bound: float) -> FlowSet:
    """Merge sub-threshold flows that share a (src, dst) pair.

    Flows with demand < lower_bound are sorted once by (src, dst, -demand, id)
    and packed first fit, pair by pair, into merged flows whose demand never
    exceeds upper_bound. Larger flows pass through untouched and come first,
    renumbered in their input order, followed by the merged flows pair by
    pair. Total demand per pair is conserved exactly. lower_bound == 0
    disables merging, whatever upper_bound is. With no flow below
    lower_bound, flowset itself comes back.
    """
    # NaN fails both comparisons
    if not (lower_bound == 0 or 0 < lower_bound <= upper_bound):
        raise ValueError("bounds must satisfy 0 <= lower_bound <= upper_bound")
    if not (flowset.demands < lower_bound).any():
        return flowset  # every flow passes, so none is renumbered or rebuilt

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
    fields = tuple(itertools.chain.from_iterable(flowset._fields()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("flow %d %d %d %r %s\n" * flowset.count % fields)


_RECORD = re.compile(rf"flow {ID} {ID} {ID} {DECIMAL} (\S+)")


def load_flows(path) -> FlowSet:
    """Parse a file of save_flows records, ids and demands as ID and DECIMAL read them;
    a CectLabError names the file and the line."""
    flows = []

    def record(line: str) -> None:
        if not (match := _RECORD.fullmatch(line)):
            raise ValueError(f"unrecognized record {line!r}")
        fid, src, dst, demand, cls = match.groups()
        flows.append(Flow(int(fid), int(src), int(dst), float(demand), cls))
        if flows[-1].id != len(flows):
            raise ValueError(f"flow id {flows[-1].id} breaks the dense order 1..N")

    with open(path, encoding="utf-8") as fh:
        read_records((raw.split("#", 1)[0] for raw in fh), record, f"{path}: ")
    return FlowSet(flows=tuple(flows))
