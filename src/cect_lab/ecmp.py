"""Hash-based equal-cost multipath baseline router.

Each flow is pinned to one of its minimum-hop paths, selected by a 64-bit
FNV-1a hash of (src, dst, flow id) modulo the number of candidates. The hash
is fixed and documented so that assignments are reproducible anywhere.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import NoFeasiblePathError, UnreachableFlowError
from .routing import RoutingAssignment
from .topology import Topology
from .traffic import FlowSet
from .xpath import XPathTable, feasible_labels

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(*values) -> int | np.ndarray:
    """FNV-1a over each value as 8 little-endian two's-complement bytes.

    Values are ints or int64 arrays of one shape; arrays are hashed
    elementwise into a uint64 array, while plain ints give an int.
    """
    words = [np.atleast_1d(np.asarray(v, dtype=np.int64)).view(np.uint64) for v in values]
    digest = np.full(np.broadcast_shapes(*(w.shape for w in words)), _FNV_OFFSET, np.uint64)
    for word in words:
        for shift in range(0, 64, 8):
            digest ^= (word >> np.uint64(shift)) & np.uint64(0xFF)
            digest *= np.uint64(_FNV_PRIME)
    return digest if any(np.ndim(v) for v in values) else int(digest[0])


def bfs_distance(topology: Topology, src: int) -> dict[int, int]:
    """Hop distance from src to every reachable switch."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in topology.out_neighbors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def route_ecmp(
    flowset: FlowSet,
    topology: Topology,
    xpath_table: XPathTable,
    max_paths: int | None = None,
) -> RoutingAssignment:
    """Assign every flow to a hash-selected minimum-hop path.

    Candidates for a flow are all its shortest paths in the table, in label
    order (labels sort by hop count then hop sequence); max_paths, when set,
    keeps only the first max_paths candidates before hashing and must be >= 1.
    """
    if max_paths is not None and max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    distances: dict[int, dict[int, int]] = {}

    def dist(src: int, dst: int) -> int | None:
        if src not in distances:
            distances[src] = bfs_distance(topology, src)
        return distances[src].get(dst)

    candidates_of: dict[tuple[int, int], tuple[int, ...]] = {}
    for flow in flowset.flows:
        pair = (flow.src, flow.dst)
        if pair not in candidates_of:
            labels = feasible_labels(xpath_table, flow.src, flow.dst)
            if not labels:
                if dist(flow.src, flow.dst) is None:
                    raise UnreachableFlowError(flow.id, flow.src, flow.dst)
                if dist(flow.src, flow.dst) <= xpath_table.x:  # an end is not an edge switch
                    raise NoFeasiblePathError(flow.id, flow.src, flow.dst)
                raise ValueError(
                    f"flow {flow.id}: table hop bound {xpath_table.x} is below the "
                    f"shortest-path distance {dist(flow.src, flow.dst)}"
                )
            # labels run shortest first, so the minimum-hop paths are a prefix
            hop_counts = xpath_table.hop_counts[np.asarray(labels) - 1]
            shortest = labels[: int(np.count_nonzero(hop_counts == hop_counts[0]))]
            candidates_of[pair] = shortest if max_paths is None else shortest[:max_paths]
    candidates = [candidates_of[pair] for pair in flowset.pairs()]
    keys = np.array([(f.src, f.dst, f.id) for f in flowset.flows], dtype=np.int64).reshape(-1, 3)
    sizes = np.fromiter(map(len, candidates), dtype=np.uint64, count=len(candidates))
    picks = (fnv1a64(*keys.T) % sizes).tolist()
    return RoutingAssignment(
        choice={f.id: c[p] for f, c, p in zip(flowset.flows, candidates, picks)}
    )
