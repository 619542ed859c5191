"""Offline enumeration of bounded-hop loop-free paths.

Every simple directed path with 1..x edges is enumerated once per topology
and given a small-integer label; the genetic solver's genes are these
labels. Labels are assigned breadth-first by path length, then by (source,
destination, hop sequence), which keeps label assignment stable across runs
and matches the published labeling of the reference topologies.

The table is a set of numpy arrays built one hop length at a time; XPath
objects are only created when a caller reads one through `paths`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .kernels import csr_rows
from .topology import Topology


@dataclass(frozen=True)
class XPath:
    """A loop-free directed path, labeled uniquely within its table."""

    label: int
    hops: tuple[int, ...]

    def __post_init__(self):
        if len(self.hops) < 2:
            raise ValueError("a path needs at least one edge")
        if len(set(self.hops)) != len(self.hops):
            raise ValueError(f"path {self.hops} revisits a switch")

    @property
    def src(self) -> int:
        return self.hops[0]

    @property
    def dst(self) -> int:
        return self.hops[-1]

    @property
    def edge_count(self) -> int:
        return len(self.hops) - 1

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.hops[:-1], self.hops[1:]))


@dataclass(frozen=True, eq=False)
class XPathTable:
    """All retained x-paths of a topology, indexed by label and by endpoint pair.

    Label l is row l-1 of every per-label array: hop_ptr/hops is the CSR of
    the switch ids along each path, hop_counts holds each path's edge
    count, and edge_ptr/edge_ids is the CSR of its edges as ids of
    edge_index() of the topology whose sorted edges are edge_keys.
    """

    x: int
    cap_c: int | None
    hop_ptr: np.ndarray
    hops: np.ndarray
    hop_counts: np.ndarray
    edge_ptr: np.ndarray
    edge_ids: np.ndarray
    edge_keys: tuple[tuple[int, int], ...]
    by_pair: dict[tuple[int, int], tuple[int, ...]]

    @property
    def paths(self) -> Mapping[int, XPath]:
        """Read-only label -> XPath view; each XPath is built when accessed."""
        return _PathView(self)

    @property
    def path_count(self) -> int:
        return len(self.hop_counts)

    def hops_many(self, labels) -> list[tuple[int, ...]]:
        """Hop sequences of many labels, gathered in one pass."""
        rows = np.asarray(labels, dtype=np.int64) - 1
        if rows.size and (rows.min() < 0 or rows.max() >= self.path_count):
            raise KeyError(f"labels must lie in 1..{self.path_count}")
        ptr, flat = csr_rows(self.hop_ptr, self.hops, rows)
        hops, bounds = flat.tolist(), ptr.tolist()
        return [tuple(hops[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    def label_edge_csr(self, topology: Topology) -> tuple[np.ndarray, np.ndarray]:
        """CSR view (row ptr, edge ids) of every path's edge list.

        Row i holds the edges of label i+1, using topology.edge_index() ids;
        the arrays feed the load-accumulation kernels. Raises ValueError
        when topology's edges are not the ones the table was built from.
        """
        topology.check_edge_keys(self.edge_keys, "table")
        return self.edge_ptr, self.edge_ids


class _PathView(Mapping):
    def __init__(self, table: XPathTable):
        self._table = table

    def __getitem__(self, label) -> XPath:
        if not isinstance(label, (int, np.integer)) or not 1 <= label <= len(self):
            raise KeyError(label)
        return XPath(label=int(label), hops=self._table.hops_many([label])[0])

    def __len__(self) -> int:
        return self._table.path_count

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self) + 1))


def _extend(level: np.ndarray, adj_ptr: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Every one-edge loop-free extension of the paths in level.

    Rows of level are node-position paths in lexicographic order; the result
    is too, because each row's extensions follow its sorted out-neighbours.
    """
    ptr, nxt = csr_rows(adj_ptr, adj, level[:, -1])
    parent = np.repeat(np.arange(len(level), dtype=np.int32), np.diff(ptr))
    # without self-loops the last switch never recurs, so skip that column
    fresh = np.logical_and.reduce([column[parent] != nxt for column in level.T[:-1]])
    return np.column_stack([level[parent[fresh]], nxt[fresh]])


def precompute_xpaths(
    topology: Topology, x: int = 10, cap_c: int | None = None
) -> XPathTable:
    """Enumerate all simple paths with at most x edges and label them.

    When cap_c is given, each (src, dst) pair keeps only its cap_c shortest
    paths (ties broken by hop sequence). Labels are dense 1..N over the
    retained paths, ordered by (length, src, dst, hop sequence).
    """
    if x < 1:
        raise ValueError("hop bound x must be >= 1")
    if cap_c is not None and cap_c < 1:
        raise ValueError("per-pair cap must be >= 1")

    # switches become dense positions in id order, so comparing positions
    # orders paths exactly as comparing switch ids does
    nodes = np.array(sorted(topology.nodes), dtype=np.int64)
    n = len(nodes)
    edge_keys = tuple(topology.edge_index())
    tail, head = np.searchsorted(nodes, np.array(edge_keys, dtype=np.int64).reshape(-1, 2)).T
    eid = np.full((n, n), -1, dtype=np.int64)  # edge id of each position pair
    eid[tail, head] = np.arange(len(edge_keys))
    adj_ptr = np.searchsorted(tail, np.arange(n + 1))  # edge ids sort by tail
    adj = head.astype(np.int32)
    kept = np.zeros(n * n, dtype=np.int64)

    level = np.column_stack([tail, head]).astype(np.int32)
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (hops, edges, pairs)
    for length in range(1, x + 1):
        if length > 1:
            level = _extend(level, adj_ptr, adj)
        # level is in hop order, so a stable sort by pair gives (src, dst, hops)
        pair = level[:, 0].astype(np.int64) * n + level[:, -1]
        order = np.argsort(pair, kind="stable")
        if cap_c is not None:
            grouped = pair[order]
            rank = np.arange(len(order)) - np.searchsorted(grouped, grouped)
            order = order[rank + kept[grouped] < cap_c]
            kept += np.bincount(pair[order], minlength=n * n)
        rows = level[order]
        levels.append((nodes[rows].ravel(), eid[rows[:, :-1], rows[:, 1:]].ravel(), pair[order]))

    hops, edge_ids, pairs = (np.concatenate(arrays) for arrays in zip(*levels))
    hop_counts = np.repeat(np.arange(1, x + 1), [len(p) for _, _, p in levels])
    edge_ptr = np.r_[0, np.cumsum(hop_counts)]

    # by_pair: group labels by pair with one stable sort, keyed in first-label order
    order = np.argsort(pairs, kind="stable")
    grouped = pairs[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    labels, bounds = (order + 1).tolist(), np.r_[starts, len(order)].tolist()
    src, dst = nodes[grouped[starts] // n].tolist(), nodes[grouped[starts] % n].tolist()
    by_pair = {
        (src[g], dst[g]): tuple(labels[bounds[g] : bounds[g + 1]])
        for g in np.argsort(order[starts]).tolist()
    }
    return XPathTable(
        x=x,
        cap_c=cap_c,
        hop_ptr=edge_ptr + np.arange(len(edge_ptr)),
        hops=hops,
        hop_counts=hop_counts,
        edge_ptr=edge_ptr,
        edge_ids=edge_ids,
        edge_keys=edge_keys,
        by_pair=by_pair,
    )


def feasible_labels(table: XPathTable, src: int, dst: int) -> tuple[int, ...]:
    """Labels of every retained path from src to dst, shortest first."""
    return table.by_pair.get((src, dst), ())


def format_table(table: XPathTable) -> str:
    """Text dump, one `label <n>: s1 -> s2 -> ...` line per path."""
    hops = table.hops_many(np.arange(1, table.path_count + 1))
    return "".join(
        f"label {label}: {' -> '.join(map(str, h))}\n" for label, h in enumerate(hops, 1)
    )
