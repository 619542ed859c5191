"""Hot numeric kernels, vectorized with numpy.

The genetic solver spends nearly all of its time accumulating per-edge loads
for whole populations of path assignments, and the fluid simulator in the
max-min water-filling loop, whose first pass reads every flow's edge row and
each later pass only the rows of the flows still rising. Both live here, one
implementation of each kernel. Every load sum bincounts demands into cells,
single edges, half labels or whole labels, and cells into edges over padded
rows (label_row_sums), not BLAS, whose threads compete.
"""

from __future__ import annotations

import numpy as np

from .topology import UNITS_PER_BW


def csr_rows(ptr: np.ndarray, data: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (row ptr, data) holding rows `rows` of CSR (ptr, data), in order."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    out_ptr = np.concatenate(([0], np.cumsum(counts)))
    flat = np.arange(out_ptr[-1], dtype=np.int64) + np.repeat(starts - out_ptr[:-1], counts)
    return out_ptr, data[flat]


def label_row_sums(edge_ids, weights, n_edges, rows=1):
    """Per-edge sums of weights at padded label-row ids, member r's offset by r * (n_edges + 1):
    a row per member, its filler bin (id n_edges) dropped; one member's row comes back 1-D."""
    sums = np.bincount(edge_ids, weights, rows * (n_edges + 1))
    return sums[:n_edges] if rows == 1 else sums.reshape(rows, -1)[:, :n_edges]


def population_loads(genes, label_ptr, cell_map, weights, n_edges, pad_index, out):
    """Per-edge integer loads for each member of a population, into out.

    genes holds 1-based label rows, one row per member, one column per flow;
    label_ptr is the rows' CSR row pointer (row r holds label_ptr[r] -
    label_ptr[r - 1] hops), which the sums do not read. Loads sum in two
    stages over cells, each cell a padded row of edge ids, filler id n_edges.
    Stage 1 bincounts each member's demands into cells: cell_map[r] holds
    label row r's cell ids (a label is its own cell if cell_map is None),
    and weights holds each flow's demand once per column of cell_map, flow
    f's at f * columns onward. Stage 2 sums each block of members' cells into
    edges with one bincount: pad_index, C-contiguous and shaped (members,
    cell width, cells), holds every cell's edge ids, member m's offset by
    m * (n_edges + 1). With pad_index None the cells are single edges,
    cell_map is the label rows' padded edge ids, and stage 1's sums are the
    loads. Every form sums integer milli-units below 2**53, so all agree
    exactly.
    """
    # edge cells are the loads, so their filler bin is dropped
    n_cells = n_edges + 1 if pad_index is None else pad_index.shape[2]
    cells = out if pad_index is None else np.empty((len(genes), n_cells))
    kept = cells.shape[1]
    # take beats fancy indexing here; one bincount per member beats one
    # over the whole population; float64 weights spare each bincount a cast
    for m, labels in enumerate(genes):
        ids = labels if cell_map is None else cell_map.take(labels, axis=0).ravel()
        cells[m] = np.bincount(ids, weights, n_cells)[:kept]
    if pad_index is not None:
        # pad_index's layout lets each member's cells repeat as whole blocks
        weights = cells[:, None].repeat(pad_index.shape[1], axis=1).ravel()
        sums = label_row_sums(pad_index[: len(genes)].ravel(), weights, n_edges, len(genes))
        np.copyto(out, sums, casting="unsafe")
    return out


def fitness_mu(loads, cap_units, penalty):
    """Residual-capacity fitness and max utilization per population member.

    Fitness is the summed spare capacity over all edges minus penalty times
    the summed overload, reported in bandwidth units (not milli-units).
    """
    mu = (loads / cap_units).max(axis=1)
    excess = loads - cap_units  # the one population-sized temporary at a time
    overload = np.maximum(excess, 0, out=excess).sum(axis=1)
    fitness = (cap_units.sum() - loads.sum(axis=1) - penalty * overload) / UNITS_PER_BW
    return fitness, mu


def maxmin_rates(flow_ptr, flow_edges, demands, capacities):
    """Demand-capped max-min fair rates via progressive water filling.

    All unfrozen flows rise at a common rate; a flow freezes when it reaches
    its demand or an edge it crosses saturates. Event-driven: each loop
    iteration advances straight to the next freezing event. The first pass
    reads every flow's edge row, each later pass only the rising flows' rows:
    ids, and row (each entry's position in ids) beside edges (its edge id).
    """
    n_flows, n_edges = demands.shape[0], capacities.shape[0]
    rates = np.zeros(n_flows)
    residual = capacities.astype(np.float64).copy()
    counts = np.bincount(flow_edges, minlength=n_edges).astype(np.int64)
    scale = max(capacities.max() if n_edges else 0.0, demands.max() if n_flows else 0.0)
    eps = 1e-9 * (scale if scale > 0 else 1.0)
    ids = np.arange(n_flows)
    row, edges = np.repeat(ids, np.diff(flow_ptr)), flow_edges

    while ids.size:
        active = counts > 0
        delta = (residual[active] / counts[active]).min() if active.any() else np.inf
        delta = max(min(delta, (demands[ids] - rates[ids]).min()), 0.0)
        rates[ids] += delta
        residual[active] -= delta * counts[active]

        saturated = active & (residual <= eps)
        blocked = np.bincount(row[saturated[edges]], minlength=ids.size) > 0
        freeze = (rates[ids] >= demands[ids] - eps) | blocked
        done = ids[freeze]
        rates[done] = np.minimum(rates[done], demands[done])
        gone = freeze[row]
        counts -= np.bincount(edges[gone], minlength=n_edges)
        # drop the frozen flows' entries; renumber the rest by position in ids
        ids, row, edges = ids[~freeze], (np.cumsum(~freeze) - 1)[row[~gone]], edges[~gone]
    return rates
