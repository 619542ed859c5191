"""Genetic routing optimizer over path chromosomes.

Each chromosome holds one gene per flow: the offset of the flow's path label
within its feasible row (the flow's slice of the table's pair_labels, from
feasible_rows, shortest first), in the narrowest unsigned dtype that holds
the longest row (uint8 unless a row holds more than 256 labels); a
population is a 2-D array with one chromosome per row. Loads decode a block
of members at a time, by one narrow add, into rows of padded edge ids, and
only the returned chromosome is decoded into labels. Generations are bred
with fitness-proportionate (roulette) selection, uniform crossover, and
multipoint mutation, each applied to the whole population in one call; the
best chromosome is carried over unchanged and never mutated. The mutation
rate switches to its high setting whenever the best fitness has stalled, to
climb out of local optima.

Fitness is the summed residual capacity over all links, minus the switch
count times the summed overload. The penalty only weighs overload against
residual capacity: an overloaded routing can still outrank one that fits,
when the routing that fits spends more capacity on longer paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kernels
from .routing import HOT_SPOT_THRESHOLD, RoutingAssignment
from .topology import Topology
from .traffic import FlowSet
from .xpath import XPathTable, feasible_rows

# genes per block of the initial draw and of each decode: a block's uniforms
# or decoded rows stay in cache
_BLOCK_GENES = 1 << 16


def default_population_size(n_flows: int, n_switches: int) -> int:
    """Population sized to the square root of flows times log2 of switches."""
    return max(2, math.ceil(math.sqrt(n_flows * math.log2(max(2, n_switches)))))


@dataclass
class GaConfig:
    """Solver knobs; defaults follow the published tuning.

    population_size None resolves to ceil(sqrt(n_flows * log2(n_switches))).
    Row 0 of the initial population is always the all-shortest-paths
    chromosome.
    """

    population_size: int | None = None
    max_iterations: int = 100
    mut_min: float = 0.02
    mut_max: float = 0.2
    stall_window: int = 10
    mu_target: float = HOT_SPOT_THRESHOLD
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.mut_min <= self.mut_max <= 1:
            raise ValueError("need 0 < mut_min <= mut_max <= 1")
        if self.population_size is not None and self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.mu_target:  # NaN fails too
            raise ValueError("mu_target must be positive")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_mu: float
    best_fitness: float
    mean_fitness: float
    mut_rate: float


@dataclass
class RunStats:
    """Per-generation trace plus the run's outcome flags."""

    rows: list[GenerationStats] = field(default_factory=list)
    feasible: bool = False
    generations: int = 0
    evaluations: int = 0


class _Instance:
    """Array views of one (flows, table, topology) problem instance: the padded
    edge rows run in table.pair_labels order, so flow f's gene g reads row base[f] + g."""

    def __init__(self, flowset: FlowSet, table: XPathTable, topology: Topology):
        self.n_flows = flowset.count
        self.block = max(1, _BLOCK_GENES // max(1, self.n_flows))  # members per block
        label_ptr, label_edges = table.label_edge_csr(topology)
        self.demands = flowset.demand_units.astype(np.float64)  # the weights of every load sum
        self.caps = topology.cap_units
        self.penalty = topology.node_count  # the overload weight of the fitness
        self.n_edges = len(self.caps)
        self.pair_labels = table.pair_labels

        starts, self.lengths = feasible_rows(table, flowset)  # each flow's feasible row
        self.gene_dtype = np.min_scalar_type(self.lengths.max(initial=1) - 1)
        self.base = (starts + 1).astype(np.min_scalar_type(table.path_count))

        # the padded rows every load sum reads: row p + 1 holds label
        # pair_labels[p]'s edges, then filler id n_edges; row 0 is all filler
        self.label_ptr, edges = kernels.csr_rows(label_ptr, label_edges, table.pair_labels - 1)
        hops = np.diff(self.label_ptr)
        width = hops.max(initial=0)
        self.label_pad = np.full((len(hops) + 1, width), self.n_edges, dtype=np.int64)
        self.label_pad[1:][np.arange(width) < hops[:, None]] = edges
        # Aggregate loads by row when the rows hold at most half the edge
        # entries of a member's shortest genes (flows share labels); else, as
        # at k=8 and k=12, loop to avoid population-by-table arrays.
        self.aggregated = 2 * len(edges) < hops[self.base - 1].sum()
        self.pad_index = np.empty(0, dtype=np.int64) if self.aggregated else None

    def labels(self, genes: np.ndarray) -> np.ndarray:
        """The int64 path labels that genes (one chromosome or a population) pick."""
        return self.pair_labels[genes + self.base - 1]

    def loads(self, genes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-edge int64 loads of each row of genes, into out if given; one
        narrow add decodes each block of members into the rows it reads."""
        out = np.empty((len(genes), self.n_edges), dtype=np.int64) if out is None else out
        step = self.block
        if self.aggregated and min(len(genes), step) * self.label_pad.size > len(self.pad_index):
            # the aggregated form's offset index, grown to a block once
            offsets = (self.n_edges + 1) * np.arange(min(len(genes), step))
            self.pad_index = (self.label_pad.T + offsets[:, None, None]).ravel()
        for first in range(0, len(genes), step):
            kernels.population_loads(genes[first : first + step] + self.base, self.label_ptr,
                                     self.label_pad, self.demands, self.n_edges, self.pad_index,
                                     out[first : first + step])
        return out

    def shift_loads(self, loads, block, members, flows, old, new) -> None:
        """Move loads[block][members] by the redrawn genes (members, flows):
        each flow's demand leaves old's edges and joins new's."""
        n, rows, width = self.n_edges, loads[block], self.label_pad.shape[1]
        base = self.base[flows]
        edges = self.label_pad.take(np.concatenate((base + new, base + old)), axis=0).reshape(2, -1)
        edges += ((n + 1) * members).repeat(width)
        weights = np.concatenate((self.demands[flows], -self.demands[flows])).repeat(width)
        shift = kernels.label_row_sums(edges.ravel(), weights, n, len(rows))
        np.add(rows, shift, out=rows, casting="unsafe")

    def random_genes(self, n_members: int, rng: np.random.Generator) -> np.ndarray:
        """n_members chromosomes of genes uniform over each flow's feasible row,
        drawn a block of rows at a time; rng fills in C order, so they equal one draw."""
        genes = np.empty((n_members, self.n_flows), dtype=self.gene_dtype)
        for start in range(0, n_members, self.block):
            block = genes[start : start + self.block]
            # the cast floors: every u * length lies in [0, length)
            np.copyto(block, rng.random(block.shape) * self.lengths, casting="unsafe")
        return genes


def roulette_select(
    fitnesses: np.ndarray | list[float], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of count members sampled (with replacement) proportionally to fitness.

    Implemented with the cumulative-probability wheel: a uniform draw picks
    the first member whose cumulative share exceeds it. Fitness values at or
    below zero are handled by shifting the whole set to be positive;
    strictly positive inputs are used as-is so published selection
    probabilities are reproduced exactly.
    """
    if count % 2 != 0:
        raise ValueError("selection count must be even")
    fit = np.asarray(fitnesses, dtype=np.float64)
    low = fit.min()
    if low <= 0:
        fit = fit - low + 1e-6 * max(1.0, float(np.abs(fit).max()))
    total = fit.sum()  # positive, unless a fitness is NaN or infinite
    if not np.isfinite(total):
        raise ValueError("fitness values must be finite")
    wheel = np.cumsum(fit / total)
    picks = np.searchsorted(wheel, rng.random(count), side="right")
    return np.minimum(picks, len(fit) - 1)


def uniform_crossover(
    genes: np.ndarray, picks: np.ndarray, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Children of the parent pairs (picks[i], picks[h + i]), h = len(picks) // 2.

    Rows i and h + i start as the pair's parents and swap genes at each
    position with probability 0.5, so together they always hold the pair's
    two genes; an odd last pick is copied as is. All masks come from one
    packed-byte draw. Each block of 8 pairs is gathered into out (which must
    not overlap genes) and swapped there while it is in cache, so that beside
    the packed masks the only temporaries are one block's masks and gene
    differences.
    """
    half, n_genes = len(picks) // 2, genes.shape[1]
    if out.shape != (len(picks), n_genes):
        raise ValueError(f"out has shape {out.shape}, not {(len(picks), n_genes)}")
    packed = rng.integers(0, 256, size=(half, -(-n_genes // 8)), dtype=np.uint8)
    if len(picks) % 2:
        out[-1] = genes[picks[-1]]
    # mode "clip" writes into out directly; the default "raise" buffers a copy
    for start in range(0, half, 8):
        stop = min(start + 8, half)
        a, b = out[start:stop], out[half + start : half + stop]
        genes.take(picks[start:stop], axis=0, out=a, mode="clip")
        genes.take(picks[half + start : half + stop], axis=0, out=b, mode="clip")
        # a branch-free swap, several times faster than a masked (where=) xor
        diff = a ^ b
        diff *= np.unpackbits(packed[start:stop], axis=1, count=n_genes)
        a ^= diff
        b ^= diff
    return out


def multipoint_mutate(
    genes: np.ndarray,
    mutation_rate: float,
    lengths: np.ndarray,
    rng: np.random.Generator,
    on_sites,
) -> None:
    """Redraw, in place, each gene of a population with probability mutation_rate.

    One binomial draw counts the redraws, whose sites are then sampled without
    replacement (the law of one coin per gene). A redraw picks an offset
    uniformly from [0, lengths[flow]), the flow's feasible row, and may keep
    the incumbent, so the realized change rate is at most the mutation rate.
    Where numpy would sample with an index over the whole population (over
    10,000 genes, a twentieth of them drawn), blocks of rows sample instead.
    on_sites is called with each block's sites as they are drawn, before they
    change: (the block's slice of rows, rows within it, flows, old genes, new
    genes).
    """
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation_rate must lie in [0, 1]")
    count = rng.binomial(genes.size, mutation_rate)
    rows, counts = max(1, len(genes)), [count]
    if genes.size > 10_000 and count > genes.size // 20:
        rows = max(1, 10_000 // genes.shape[1])
        sizes = [genes[first : first + rows].size for first in range(0, len(genes), rows)]
        counts = rng.multivariate_hypergeometric(sizes, count)
    for first, count in zip(range(0, len(genes), rows), counts):
        if not count:
            continue  # sampling no sites would draw nothing from rng
        block = genes[first : first + rows]
        sites = rng.choice(block.size, size=count, replace=False, shuffle=False)
        members, flows = np.divmod(sites, block.shape[1])
        # the cast floors: every u * length lies in [0, length)
        new = (rng.random(count) * lengths[flows]).astype(genes.dtype)
        on_sites(slice(first, first + rows), members, flows, block[members, flows], new)
        block[members, flows] = new


def run_cect(
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
    config: GaConfig | None = None,
    on_generation=None,
) -> tuple[RoutingAssignment, float, RunStats]:
    """Evolve a routing for the whole flow set.

    Stops as soon as some evaluated chromosome keeps every link at or below
    mu_target, or after max_iterations generations; either way the best
    assignment ever seen is returned together with its utilization and the
    per-generation trace. on_generation, when given, is called with
    (generation, genes, fitness, mu) after each evaluation. genes is the
    population as bred, offsets and not labels, so a hook costs no decode:
    gene g of flow f picks xpath_table.pair_labels[starts[f] + g], with
    starts from feasible_rows.
    """
    config = config or GaConfig()
    inst = _Instance(flowset, xpath_table, topology)
    n_pop = config.population_size or default_population_size(
        flowset.count, topology.node_count
    )
    rng = np.random.default_rng(config.seed)
    stats = RunStats()

    genes = inst.random_genes(n_pop, rng)
    genes[0] = 0  # each flow's shortest label
    loads = inst.loads(genes)  # the only evaluation of a whole population
    spare, spare_loads = np.empty_like(genes), np.empty_like(loads)
    half = (n_pop - 1) // 2

    best_genes = genes[0].copy()
    best = (math.inf, math.inf)  # (mu, -fitness) of best_genes: least mu, then fittest
    best_fit_ever = -math.inf
    stall = 0
    generation = 0

    while True:
        fit, mu = kernels.fitness_mu(loads, inst.caps, inst.penalty)
        stats.evaluations += n_pop

        gen_best = int(fit.argmax())
        mu_best = int(np.where(mu == mu.min(), fit, -math.inf).argmax())  # fittest of least mu
        key = (float(mu[mu_best]), -float(fit[mu_best]))
        if key < best:
            best, best_genes = key, genes[mu_best].copy()

        if fit[gen_best] > best_fit_ever:
            best_fit_ever = float(fit[gen_best])
            stall = 0
        else:
            stall += 1
        rate = config.mut_max if stall >= config.stall_window else config.mut_min

        stats.rows.append(
            GenerationStats(
                generation=generation,
                best_mu=float(mu[mu_best]),
                best_fitness=float(fit[gen_best]),
                mean_fitness=float(fit.sum() / len(fit)),
                mut_rate=rate,
            )
        )
        if on_generation is not None:
            on_generation(generation, genes, fit, mu)

        if best[0] <= config.mu_target or generation >= config.max_iterations:
            break

        # the elite passes unchanged; every other row is a child, bred in place.
        # Children i and half + i hold the genes of parents picks[i] and
        # picks[half + i], so the two loads sum to the parents': only the first
        # half is evaluated; the mutation's redrawn genes then shift their rows
        needed = n_pop - 1
        picks = roulette_select(fit, needed + (needed % 2), rng)[:needed]
        spare[0], spare_loads[0] = genes[gen_best], loads[gen_best]
        uniform_crossover(genes, picks, rng, out=spare[1:])
        first, second = spare_loads[1 : 1 + half], spare_loads[1 + half : 1 + 2 * half]
        if half:
            inst.loads(spare[1 : 1 + half], out=first)
        loads.take(picks[:half], axis=0, out=second, mode="clip")
        second += loads[picks[half : 2 * half]]
        second -= first
        if needed % 2:
            spare_loads[-1] = loads[picks[-1]]  # an odd last child is a copied parent
        multipoint_mutate(spare[1:], rate, inst.lengths, rng,
                          partial(inst.shift_loads, spare_loads[1:]))
        genes, spare = spare, genes
        loads, spare_loads = spare_loads, loads
        generation += 1

    stats.generations = generation
    stats.feasible = best[0] <= config.mu_target
    return RoutingAssignment(inst.labels(best_genes)), best[0], stats
