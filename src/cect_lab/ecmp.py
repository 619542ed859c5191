"""Hash-based equal-cost multipath baseline router.

Each flow is pinned to one of its minimum-hop paths, selected by a 64-bit
FNV-1a hash of (src, dst, flow id) modulo the number of candidates. The hash
is fixed and documented so that assignments are reproducible anywhere.
"""

from __future__ import annotations

import numpy as np

from .routing import RoutingAssignment
from .topology import Topology
from .traffic import FlowSet
from .xpath import XPathTable, feasible_rows

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(*values: np.ndarray) -> np.ndarray:
    """FNV-1a over each value as 8 little-endian two's-complement bytes.

    Values are int64 arrays of one shape, hashed elementwise into a uint64 array.
    A value's high bytes that are 0 in every element are not read: XOR with 0
    is the identity, so k of them multiply the digest by PRIME**k mod 2**64.
    """
    words = [np.asarray(v, dtype=np.int64).view(np.uint64) for v in values]
    digest = np.full(np.broadcast_shapes(*(w.shape for w in words)), _FNV_OFFSET, np.uint64)
    for word in words:
        used = (int(word.max(initial=0)).bit_length() + 7) // 8
        for shift in range(0, 8 * used, 8):
            digest ^= (word >> np.uint64(shift)) & np.uint64(0xFF)
            digest *= np.uint64(_FNV_PRIME)
        digest *= np.uint64(pow(_FNV_PRIME, 8 - used, 2**64))
    return digest


def route_ecmp(flowset: FlowSet, topology: Topology, xpath_table: XPathTable) -> RoutingAssignment:
    """Assign every flow to a hash-selected minimum-hop path.

    Candidates for a flow are all its shortest paths in the table, in label
    order (labels sort by hop count then hop sequence). Raises
    CectLabError naming the first flow with no path in the table, and
    ValueError when the table was built for another topology.
    """
    topology.check_edge_keys(xpath_table.topology.edge_keys, "table")
    starts, _ = feasible_rows(xpath_table, flowset)
    labels = xpath_table.pair_labels
    # rows run shortest first, so each row's minimum-hop paths are a prefix: it
    # ends at the next boundary after its start, a hop change or a row's start
    hops = np.diff(xpath_table.edge_ptr).take(labels - 1)
    boundary = np.zeros(len(labels) + 1, dtype=bool)
    np.not_equal(hops[1:], hops[:-1], out=boundary[1:-1])
    boundary[xpath_table.pair_ptr] = True
    # a start is a boundary: map each boundary to the next one, read only at starts
    at = np.flatnonzero(boundary)
    following = np.empty(len(boundary), dtype=np.int64)
    following[at[:-1]] = at[1:]
    ends = following[starts]
    src, dst = flowset.ends.T
    ids = np.arange(1, flowset.count + 1, dtype=np.int64)
    picks = (fnv1a64(src, dst, ids) % (ends - starts).astype(np.uint64)).astype(np.int64)
    return RoutingAssignment(labels[starts + picks])
