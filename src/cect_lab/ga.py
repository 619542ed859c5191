"""Genetic routing optimizer over path-label chromosomes.

Each chromosome holds one precomputed path label per flow, in the narrowest
unsigned dtype that fits the table's labels (uint8 up to 255, uint16 up to
65,535); a population is a 2-D array with one chromosome per row. Generations
are bred with fitness-proportionate (roulette) selection, uniform crossover,
and multipoint mutation, each applied to the whole population in one call;
the best chromosome is carried over unchanged and never mutated. The
mutation rate switches to its high setting whenever the best fitness has
stalled, to climb out of local optima.

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
from .xpath import XPathTable, feasible_csr

# genes per block of the initial draw: its uniforms and offsets stay in cache
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
    """Array views of one (flows, table, topology) problem instance."""

    def __init__(self, flowset: FlowSet, table: XPathTable, topology: Topology):
        self.n_flows = flowset.count
        self.label_ptr, self.label_edges = table.label_edge_csr(topology)
        self.demands = flowset.demand_units
        self.caps = topology.cap_units
        self.penalty = topology.node_count  # the overload weight of the fitness
        self.n_edges = len(self.caps)

        self.feas_ptr, feas_labels = feasible_csr(table, flowset)
        if table.path_count > np.iinfo(np.int32).max:
            raise ValueError("path labels do not fit int32 genes")
        self.feas_labels = feas_labels.astype(np.min_scalar_type(table.path_count))
        # feasible lists are shortest-first, so column 0 is the greedy pick
        self.shortest = self.feas_labels[self.feas_ptr[:-1]]

        # the padded label rows every load sum reads: label l's edges in row l,
        # then filler id n_edges; row 0 is all filler, so genes index it directly
        hops = np.diff(self.label_ptr)
        width = hops.max(initial=0)
        self.label_pad = np.full((len(hops) + 1, width), self.n_edges, dtype=np.int64)
        self.label_pad[1:][np.arange(width) < hops[:, None]] = self.label_edges
        # Aggregate loads by label when the table's labels hold at most half
        # the edge entries of a member's shortest genes (flows share labels);
        # else, as at k=8 and k=12, loop to avoid population-by-table arrays.
        self.weights = self.demands.astype(np.float64)
        self.aggregated = 2 * len(self.label_edges) < hops[self.shortest - 1].sum()
        self.pad_index = self.cells = self.gene_demands = None

    def loads(self, genes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-edge int64 loads of each row of genes, into out if given."""
        rows, demands, cells = len(genes), self.weights, None
        if self.aggregated:
            if self.cells is None or rows > len(self.cells):
                # the aggregated form's buffers, grown to the population once
                self.cells = np.empty(genes.shape, dtype=np.int64)
                self.gene_demands = np.tile(self.weights, (rows, 1))
                offsets = (self.n_edges + 1) * np.arange(rows)
                self.pad_index = (self.label_pad.T + offsets[:, None, None]).ravel()
            demands, cells = self.gene_demands[:rows], self.cells[:rows]
        return kernels.population_loads(genes, self.label_ptr, self.label_pad, demands,
                                        self.n_edges, self.pad_index, cells, out)

    def shift_loads(self, loads, block, members, flows, old, new) -> None:
        """Move loads[block][members] by the redrawn genes (members, flows):
        each flow's demand leaves old's edges and joins new's."""
        n, rows, width = self.n_edges, loads[block], self.label_pad.shape[1]
        edges = self.label_pad.take(np.concatenate((new, old)), axis=0).reshape(2, -1)
        edges += ((n + 1) * members).repeat(width)
        weights = np.concatenate((self.weights[flows], -self.weights[flows])).repeat(width)
        shift = kernels.label_row_sums(edges.ravel(), weights, n, len(rows))
        np.add(rows, shift, out=rows, casting="unsafe")

    def random_genes(self, n_members: int, rng: np.random.Generator) -> np.ndarray:
        """n_members chromosomes of genes (feas_labels' dtype) uniform over each flow's feasible
        labels, drawn a block of rows at a time; rng fills in C order, so they equal one draw."""
        genes = np.empty((n_members, self.n_flows), dtype=self.feas_labels.dtype)
        counts, starts = np.diff(self.feas_ptr), self.feas_ptr[:-1]
        rows = max(1, _BLOCK_GENES // max(1, self.n_flows))
        for start in range(0, n_members, rows):
            block = genes[start : start + rows]
            offsets = (rng.random(block.shape) * counts).astype(np.int64)
            offsets += starts
            np.take(self.feas_labels, offsets, out=block)
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
    feas_ptr: np.ndarray,
    feas_labels: np.ndarray,
    rng: np.random.Generator,
    on_sites=None,
) -> None:
    """Redraw, in place, each gene of a population with probability mutation_rate.

    One binomial draw counts the redraws, whose sites are then sampled without
    replacement (the law of one coin per gene). A redraw picks uniformly from
    the flow's row of the feasible CSR feas_ptr/feas_labels and may keep the
    incumbent, so the realized change rate is at most the mutation rate.
    Where numpy would sample with an index over the whole population (over
    10,000 genes, a twentieth of them drawn), blocks of rows sample instead.
    on_sites, when given, is called with each block's sites as they are drawn,
    before they change: (the block's slice of rows, rows within it, flows,
    old labels, new labels).
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
        starts = feas_ptr[flows]
        offsets = (rng.random(count) * (feas_ptr[flows + 1] - starts)).astype(np.int64)
        new = feas_labels[starts + offsets]
        if on_sites is not None:
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
    (generation, genes, fitness, mu) after each evaluation.
    """
    config = config or GaConfig()
    inst = _Instance(flowset, xpath_table, topology)
    n_pop = config.population_size or default_population_size(
        flowset.count, topology.node_count
    )
    rng = np.random.default_rng(config.seed)
    stats = RunStats()

    genes = inst.random_genes(n_pop, rng)
    genes[0] = inst.shortest
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
        multipoint_mutate(spare[1:], rate, inst.feas_ptr, inst.feas_labels, rng,
                          partial(inst.shift_loads, spare_loads[1:]))
        genes, spare = spare, genes
        loads, spare_loads = spare_loads, loads
        generation += 1

    stats.generations = generation
    stats.feasible = best[0] <= config.mu_target
    return RoutingAssignment(best_genes.astype(np.int64)), best[0], stats
