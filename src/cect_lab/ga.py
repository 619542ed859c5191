"""Genetic routing optimizer over path-label chromosomes.

Each chromosome assigns one precomputed path label per flow. Generations are
bred with fitness-proportionate (roulette) selection, uniform crossover, and
multipoint mutation; the best chromosome is carried over unchanged. The
mutation rate switches to its high setting whenever the best fitness has
stalled, to climb out of local optima.

Fitness is the summed residual capacity over all links, minus a penalty
proportional to any overload, so that routings violating capacity always
rank below routings that merely use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NoFeasiblePathError
from .routing import HOT_SPOT_THRESHOLD, RoutingAssignment, check_labels
from .topology import Topology
from .traffic import FlowSet
from .xpath import XPathTable, feasible_labels


def default_population_size(n_flows: int, n_switches: int) -> int:
    """Population sized to the square root of flows times log2 of switches."""
    return max(2, math.ceil(math.sqrt(n_flows * math.log2(max(2, n_switches)))))


@dataclass
class Chromosome:
    """One candidate routing: an array of 1-based path labels, one per flow."""

    genes: np.ndarray
    cached_fitness: float | None = None

    def copy(self) -> "Chromosome":
        return Chromosome(genes=self.genes.copy(), cached_fitness=self.cached_fitness)


@dataclass
class GaConfig:
    """Solver knobs; defaults follow the published tuning.

    population_size None resolves to ceil(sqrt(n_flows * log2(n_switches))).
    penalty_weight None resolves to the switch count. The greedy seed places
    one all-shortest-paths chromosome in the initial population.
    """

    population_size: int | None = None
    max_iterations: int = 100
    mut_min: float = 0.02
    mut_max: float = 0.2
    stall_window: int = 10
    mu_target: float = HOT_SPOT_THRESHOLD
    crossover_mix: float = 0.5
    seed: int | None = None
    penalty_weight: float | None = None
    greedy_seed: bool = True

    def __post_init__(self):
        if not 0 < self.mut_min <= self.mut_max <= 1:
            raise ValueError("need 0 < mut_min <= mut_max <= 1")
        if self.population_size is not None and self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.mu_target <= 0:
            raise ValueError("mu_target must be positive")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if not 0 < self.crossover_mix < 1:
            raise ValueError("crossover_mix must lie in (0, 1)")


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
    best_mu: float = math.inf
    best_fitness: float = -math.inf
    feasible: bool = False
    generations: int = 0
    evaluations: int = 0
    population_size: int = 0


def _feasible_csr(flowset: FlowSet, table: XPathTable) -> tuple[np.ndarray, np.ndarray]:
    """CSR (row ptr, labels) of every flow's feasible labels, in flow order."""
    ptr = np.zeros(flowset.count + 1, dtype=np.int64)
    flat: list[int] = []
    for i, flow in enumerate(flowset.flows):
        labels = feasible_labels(table, flow.src, flow.dst)
        if not labels:
            raise NoFeasiblePathError(flow.id, flow.src, flow.dst)
        flat.extend(labels)
        ptr[i + 1] = len(flat)
    return ptr, np.array(flat, dtype=np.int64)


class _Instance:
    """Array views of one (flows, table, topology) problem instance."""

    def __init__(self, flowset: FlowSet, table: XPathTable, topology: Topology):
        self.flowset = flowset
        self.table = table
        self.n_flows = flowset.count
        self.label_ptr, self.label_edges = table.label_edge_csr(topology)
        self.demands = flowset.demand_units()
        self.caps = topology.capacity_units()
        self.n_edges = len(self.caps)

        self.feas_ptr, self.feas_labels = _feasible_csr(flowset, table)
        self.feas_counts = np.diff(self.feas_ptr)
        # feasible lists are shortest-first, so column 0 is the greedy pick
        self.shortest = self.feas_labels[self.feas_ptr[:-1]]

    def evaluate(self, genes: np.ndarray, penalty: int) -> tuple[np.ndarray, np.ndarray]:
        loads = kernels.population_loads(
            genes, self.label_ptr, self.label_edges, self.demands, self.n_edges
        )
        return kernels.fitness_mu(loads, self.caps, penalty)

    def random_genes(self, n_members: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.random((n_members, self.n_flows))
        offsets = (draws * self.feas_counts).astype(np.int64)
        return self.feas_labels[self.feas_ptr[:-1] + offsets]


def _resolve_penalty(config: GaConfig | None, topology: Topology) -> int:
    if config is not None and config.penalty_weight is not None:
        return int(round(config.penalty_weight))
    return topology.node_count


def fitness(
    chromosome: Chromosome,
    flowset: FlowSet,
    xpath_table: XPathTable,
    topology: Topology,
    penalty_weight: float | None = None,
) -> float:
    """Residual-capacity fitness of one chromosome (higher is better)."""
    inst = _Instance(flowset, xpath_table, topology)
    check_labels(np.asarray(chromosome.genes, dtype=np.int64), flowset, xpath_table)
    penalty = (
        int(round(penalty_weight)) if penalty_weight is not None else topology.node_count
    )
    fit, _ = inst.evaluate(chromosome.genes.reshape(1, -1), penalty)
    chromosome.cached_fitness = float(fit[0])
    return float(fit[0])


def roulette_select(
    members: list[Chromosome],
    fitnesses: np.ndarray | list[float],
    count: int,
    rng: np.random.Generator,
) -> list[Chromosome]:
    """Sample count chromosomes (with replacement) proportionally to fitness.

    Implemented with the cumulative-probability wheel: a uniform draw picks
    the first chromosome whose cumulative share exceeds it. Fitness values
    at or below zero are handled by shifting the whole set to be positive;
    strictly positive inputs are used as-is so published selection
    probabilities are reproduced exactly.
    """
    if count % 2 != 0:
        raise ValueError("selection count must be even")
    fit = np.asarray(fitnesses, dtype=np.float64)
    if len(members) != len(fit):
        raise ValueError("one fitness per chromosome required")
    if not np.all(np.isfinite(fit)):
        raise ValueError("fitness values must be finite")

    low = fit.min()
    if low <= 0:
        fit = fit - low + 1e-6 * max(1.0, float(np.abs(fit).max()))
    total = fit.sum()
    probabilities = fit / total if total > 0 else np.full(len(fit), 1.0 / len(fit))
    wheel = np.cumsum(probabilities)
    draws = rng.random(count)
    picks = np.searchsorted(wheel, draws, side="right")
    picks = np.minimum(picks, len(members) - 1)
    return [members[i].copy() for i in picks]


def _crossover_genes(
    genes1: np.ndarray, genes2: np.ndarray, rng: np.random.Generator, mix: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    take_first = rng.random(genes1.shape[0]) < mix
    child1 = np.where(take_first, genes1, genes2)
    child2 = np.where(take_first, genes2, genes1)
    return child1, child2


def uniform_crossover(
    parent1: Chromosome,
    parent2: Chromosome,
    rng: np.random.Generator,
    mix: float = 0.5,
) -> tuple[Chromosome, Chromosome]:
    """Swap genes between two parents independently per position.

    At each position the first child inherits from the first parent with
    probability mix, otherwise the genes are exchanged; the two children
    always hold exactly the parents' genes as a multiset per position.
    """
    if parent1.genes.shape != parent2.genes.shape:
        raise ValueError("parents must have equal gene length")
    child1, child2 = _crossover_genes(parent1.genes, parent2.genes, rng, mix)
    return Chromosome(genes=child1), Chromosome(genes=child2)


def _mutate_genes(
    genes: np.ndarray,
    rate: float,
    feas_ptr: np.ndarray,
    feas_labels: np.ndarray,
    feas_counts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    mask = rng.random(genes.shape[0]) < rate
    hit = np.flatnonzero(mask)
    if hit.size == 0:
        return genes.copy()
    draws = rng.random(hit.size)
    offsets = (draws * feas_counts[hit]).astype(np.int64)
    out = genes.copy()
    out[hit] = feas_labels[feas_ptr[hit] + offsets]
    return out


def multipoint_mutate(
    chromosome: Chromosome,
    mutation_rate: float,
    xpath_table: XPathTable,
    flowset: FlowSet,
    rng: np.random.Generator,
) -> Chromosome:
    """Redraw each gene with probability mutation_rate from its feasible set.

    A redraw picks uniformly among the flow's candidate labels and may land
    on the incumbent label, so the realized change rate is at most the
    mutation rate. The result is always feasible.
    """
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation_rate must lie in [0, 1]")
    ptr, labels = _feasible_csr(flowset, xpath_table)
    genes = _mutate_genes(chromosome.genes, mutation_rate, ptr[:-1], labels, np.diff(ptr), rng)
    return Chromosome(genes=genes)


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
    penalty = _resolve_penalty(config, topology)
    n_pop = config.population_size or default_population_size(
        flowset.count, topology.node_count
    )
    rng = np.random.default_rng(config.seed)
    stats = RunStats(population_size=n_pop)

    if flowset.count == 0:
        stats.feasible = True
        stats.best_mu = 0.0
        return RoutingAssignment(choice={}), 0.0, stats

    genes = inst.random_genes(n_pop, rng)
    if config.greedy_seed:
        genes[0] = inst.shortest

    best_genes = genes[0].copy()
    best_mu = math.inf
    best_fit_at_best_mu = -math.inf
    best_fit_ever = -math.inf
    stall = 0
    generation = 0

    while True:
        fit, mu = inst.evaluate(genes, penalty)
        stats.evaluations += n_pop

        gen_best = int(np.argmax(fit))
        mu_best = int(np.argmin(mu))
        ties = np.flatnonzero(mu == mu[mu_best])
        if ties.size > 1:
            mu_best = int(ties[np.argmax(fit[ties])])
        if mu[mu_best] < best_mu or (
            mu[mu_best] == best_mu and fit[mu_best] > best_fit_at_best_mu
        ):
            best_mu = float(mu[mu_best])
            best_fit_at_best_mu = float(fit[mu_best])
            best_genes = genes[mu_best].copy()

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
                mean_fitness=float(fit.mean()),
                mut_rate=rate,
            )
        )
        if on_generation is not None:
            on_generation(generation, genes, fit, mu)

        if best_mu <= config.mu_target or generation >= config.max_iterations:
            break

        members = [Chromosome(genes=genes[i]) for i in range(n_pop)]
        needed = n_pop - 1
        sel_count = needed + (needed % 2)
        parents = (
            roulette_select(members, fit, sel_count, rng)[:needed] if needed else []
        )

        next_genes = np.empty_like(genes)
        next_genes[0] = genes[gen_best]
        out = 1
        i = 0
        while i + 1 < needed:
            child1, child2 = _crossover_genes(
                parents[i].genes, parents[i + 1].genes, rng, config.crossover_mix
            )
            next_genes[out] = _mutate_genes(
                child1, rate, inst.feas_ptr[:-1], inst.feas_labels, inst.feas_counts, rng
            )
            next_genes[out + 1] = _mutate_genes(
                child2, rate, inst.feas_ptr[:-1], inst.feas_labels, inst.feas_counts, rng
            )
            out += 2
            i += 2
        if i < needed:  # odd leftover: mutation only
            next_genes[out] = _mutate_genes(
                parents[i].genes, rate, inst.feas_ptr[:-1], inst.feas_labels,
                inst.feas_counts, rng,
            )
        genes = next_genes
        generation += 1

    stats.generations = generation
    stats.best_mu = best_mu
    stats.best_fitness = best_fit_at_best_mu
    stats.feasible = best_mu <= config.mu_target
    choice = {flow.id: int(best_genes[i]) for i, flow in enumerate(flowset.flows)}
    return RoutingAssignment(choice=choice), best_mu, stats
