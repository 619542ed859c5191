"""Offline enumeration of bounded-hop loop-free paths.

Every simple directed path with 1..x edges between two of the topology's
edge switches (where flows start and end) is enumerated once per topology
and given a small-integer label; a genetic solver's gene picks one of its
flow's pair's labels. Labels are assigned breadth-first by path length, then by (source,
destination, hop sequence), which keeps label assignment stable across runs
and matches the published labeling of the reference topologies.

The table is a set of numpy arrays built one hop length at a time. A row
grows only along edges whose head lies within the hops it has left of an
edge switch, and each pair's cap cuts the candidates that end at one before
their rows are built, so no row is built only to be dropped. A path is one
row of edge ids, read through edge_ptr or label_edge_csr; its switches are
its edges' ends in Topology.edge_ends. Each endpoint pair's labels are one
row of a CSR over the pairs, pair_ptr/pair_labels: feasible_labels reads one
pair's row, and feasible_rows gives every flow's slice of pair_labels, the
one candidate index every solver reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CectLabError
from .kernels import csr_rows
from .topology import Topology
from .traffic import FlowSet


@dataclass(frozen=True, eq=False)
class XPathTable:
    """All retained x-paths of a topology, indexed by label and by endpoint pair.

    Label l is row l-1 of edge_ptr/edge_ids, the CSR of each path's edges in
    hop order as ids into the edge_keys of topology, the one the table was
    built from; a row's length is its path's hop count, and its switches are
    its edges' tails and then its last edge's head (topology.edge_ends).
    pair_ptr/pair_labels is the CSR of each endpoint pair's labels,
    shortest first: with n switches, row i * n + j holds the paths from
    topology.nodes[i] to topology.nodes[j], and the last row, n * n, is
    empty.
    """

    edge_ptr: np.ndarray
    edge_ids: np.ndarray
    topology: Topology
    pair_ptr: np.ndarray
    pair_labels: np.ndarray

    @property
    def path_count(self) -> int:
        return len(self.edge_ptr) - 1

    def label_edge_csr(self, topology: Topology) -> tuple[np.ndarray, np.ndarray]:
        """CSR view (row ptr, edge ids) of every path's edge list.

        Row i holds the edges of label i+1, as ids into topology.edge_keys;
        the arrays feed the load-accumulation kernels. Raises ValueError
        when topology's edges are not the ones the table was built from.
        """
        topology.check_edge_keys(self.topology.edge_keys, "table")
        return self.edge_ptr, self.edge_ids


def check_path_bounds(x: int, cap_c: int) -> None:
    """Raise ValueError unless the hop bound x and the per-pair cap cap_c are >= 1."""
    if x < 1:
        raise ValueError("hop bound x must be >= 1")
    if cap_c < 1:
        raise ValueError("per-pair cap cap_c must be >= 1")


def precompute_xpaths(topology: Topology, x: int, cap_c: int) -> XPathTable:
    """Enumerate all simple paths with at most x edges between edge switches.

    Both ends lie in topology.edge_switches, where flows start and end
    (every switch of a pod-less topology); the hops between may be any
    switch. Each (src, dst) pair keeps only its cap_c shortest paths (ties
    broken by hop sequence). Labels are dense 1..N over the retained paths,
    ordered by (length, src, dst, hop sequence).
    """
    check_path_bounds(x, cap_c)

    # switch positions in topology.nodes ascend as their ids, and edge ids as
    # (tail, head), so comparing edge-id rows orders paths as comparing their
    # switch ids does; a row's extensions follow its last switch's out-edges,
    # whose ids ascend, so each level's rows stay in lexicographic order
    n = topology.node_count
    is_end = np.bincount(topology.positions(topology.edge_switches), minlength=n) > 0
    tail, head = topology.edge_ends.T.astype(np.min_scalar_type(n * n))  # so pairs fit too
    edges, kept = np.arange(len(tail), dtype=np.int32), np.zeros(n * n, dtype=np.int64)
    # each switch's hops to the nearest edge switch, x standing for farther: a
    # row of L edges follows only edges whose head is within x - L hops of one
    near = np.where(is_end, 0, x)
    for _ in range(x - 1):
        np.minimum.at(near, tail, near[head] + 1)

    # grow paths from the edge switches, each row's source and last switch beside it
    at = src = np.flatnonzero(is_end).astype(tail.dtype)
    level, levels = np.empty((len(src), 0), dtype=np.int32), []  # levels: (edge ids, pairs)
    for length in range(1, x + 1):
        follow = edges[near[head] <= x - length]
        ptr, nxt = csr_rows(np.searchsorted(tail[follow], np.arange(n + 1)), follow, at)
        parent, to = np.repeat(np.arange(len(at), dtype=np.int32), np.diff(ptr)), head[nxt]
        # a path's switches are its edges' tails and its last head, which is
        # the new edge's tail: without self-loops, only the tails can recur
        fresh = np.ones(len(nxt), dtype=bool)
        for column in level.T:
            tails = tail[column]
            # the last level keeps only heads at edge switches, which only
            # an edge-switch tail can repeat: skip a column that holds none
            if length < x or is_end[tails].any():
                fresh &= tails[parent] != to
        # keep the paths that end at an edge switch, capped per pair before their
        # rows are built: candidates come in row order, so a stable sort by pair
        # gives (src, dst, hops), and each pair's group starts after the smaller pairs'
        done = np.flatnonzero(fresh & is_end[to])
        pair = src[parent[done]] * n + to[done]
        order, size = np.argsort(pair, kind="stable"), np.bincount(pair, minlength=n * n)
        room = np.cumsum(size) - size + cap_c - kept  # where each pair's cut ends in order
        order = order[np.arange(len(order)) < room[pair[order]]]
        kept, rows = np.minimum(kept + size, cap_c), done[order]
        grown = np.column_stack([level.take(parent[rows], axis=0), nxt[rows]])
        levels.append((grown.ravel(), pair[order]))
        if length < x:  # nothing extends the last level
            parent, at = parent[fresh], to[fresh]
            level, src = np.column_stack([level.take(parent, axis=0), nxt[fresh]]), src[parent]

    pairs = np.concatenate([p for _, p in levels])
    # labels run shortest first, so a stable sort by pair keeps that order in each row
    return XPathTable(
        edge_ptr=np.r_[0, np.cumsum(np.repeat(np.arange(1, x + 1), [len(p) for _, p in levels]))],
        edge_ids=np.concatenate([e for e, _ in levels], dtype=np.int64),
        topology=topology,
        pair_ptr=np.concatenate(([0], np.cumsum(np.bincount(pairs, minlength=n * n + 1)))),
        pair_labels=np.argsort(pairs, kind="stable") + 1,
    )


def _pair_rows(table: XPathTable, ends: np.ndarray) -> np.ndarray:
    """The pair_ptr row of each int64 (..., 2) pair of endpoint ids.

    A pair that names an id the table has no switch for gets the empty last
    row, so it can neither wrap nor clamp onto a neighbouring pair's row.
    """
    n = table.topology.node_count
    pos = table.topology.positions(ends)
    src, dst = pos[..., 0], pos[..., 1]
    return np.where((src < n) & (dst < n), src * n + dst, n * n)


def feasible_labels(table: XPathTable, src: int, dst: int) -> tuple[int, ...]:
    """Labels of every retained path from src to dst, shortest first."""
    row = _pair_rows(table, np.array([src, dst], dtype=np.int64))
    return tuple(table.pair_labels[table.pair_ptr[row] : table.pair_ptr[row + 1]].tolist())


def feasible_rows(table: XPathTable, flowset: FlowSet) -> tuple[np.ndarray, np.ndarray]:
    """Each flow's int64 (starts, lengths), in flow order: flow i's feasible labels
    are pair_labels[starts[i] : starts[i] + lengths[i]], shortest first.

    Raises CectLabError naming the first flow that has no path in the table.
    """
    rows = _pair_rows(table, flowset.ends)
    starts = table.pair_ptr[rows]
    lengths = table.pair_ptr[rows + 1] - starts
    if not lengths.all():
        i = int(np.argmin(lengths))
        src, dst = flowset.ends[i].tolist()
        message = f"flow {i + 1} ({src} -> {dst}) has no feasible path in the table"
        raise CectLabError(message)
    return starts, lengths


def format_paths(table: XPathTable, labels: np.ndarray, head: str, *fields: np.ndarray) -> str:
    """One `<head>s1 -> ... -> sk` line per label, head a %-format of one value per field.

    The text is one %-format of a template joined from one line per hop count.
    """
    ptr, ids = csr_rows(table.edge_ptr, table.edge_ids, labels - 1)
    tails, heads = table.topology.node_ids[table.topology.edge_ends.T]
    counts = np.diff(ptr)
    lines = [head + " -> ".join(["%d"] * (c + 1)) + "\n" for c in range(counts.max(initial=0) + 1)]
    # a path's switches are its first edge's tail and then every edge's head
    starts = np.column_stack([*fields, tails[ids[ptr[:-1]]]]).ravel()
    values = np.insert(heads[ids], np.repeat(ptr[:-1], len(fields) + 1), starts)
    return "".join(map(lines.__getitem__, counts.tolist())) % tuple(values.tolist())


def format_table(table: XPathTable) -> str:
    """Text dump, one `label <n>: s1 -> s2 -> ...` line per path."""
    labels = np.arange(1, table.path_count + 1)
    return format_paths(table, labels, "label %d: ", labels)
