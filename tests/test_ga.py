import contextlib
import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cect_lab import ga, kernels
from cect_lab.errors import CectLabError
from cect_lab.exact import solve_exact
from cect_lab.experiment import solve
from cect_lab.ga import (
    GaConfig,
    _Instance,
    default_population_size,
    multipoint_mutate,
    roulette_select,
    run_cect,
    uniform_crossover,
)
from cect_lab.routing import RoutingAssignment, assemble, validate
from cect_lab.topology import Topology, make_fat_tree, make_sample_topology
from cect_lab.traffic import FlowSet, generate_flows
from cect_lab.xpath import XPathTable, feasible_labels, feasible_rows, precompute_xpaths

from helpers import (
    ALL_PATHS,
    LOAD_FORMS,
    GeneCodec,
    label_pad,
    labels_by_pair,
    load_form,
    make_flows,
    random_topology,
    reference_loads,
    reference_uniform_crossover,
    set_load_form,
)

PUBLISHED_FITNESSES = [6.82, 1.11, 8.48, 2.57, 3.08]
PUBLISHED_SHARES = [0.309, 0.050, 0.384, 0.117, 0.140]


@pytest.fixture(scope="module")
def fig2a():
    topo = make_sample_topology("fig2a", 10.0)
    return topo, precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)


def _genes(*labels) -> np.ndarray:
    return np.array(labels, dtype=np.int64)


def _evaluate(inst, genes):
    """(fitness, mu) of each row of genes, as run_cect scores its population."""
    return kernels.fitness_mu(inst.loads(genes), inst.caps, inst.penalty)


def _fitness(flows, table, topo, *labels, penalty=None) -> float:
    """Fitness of one chromosome as run_cect evaluates it (penalty defaults
    to the switch count, which the instance holds)."""
    inst = _Instance(flows, table, topo)
    if penalty is not None:
        inst.penalty = penalty
    fit, _ = _evaluate(inst, GeneCodec(table, flows).encode(_genes(*labels)).reshape(1, -1))
    return float(fit[0])


def _no_sites(*sites) -> None:
    """An on_sites hook that watches nothing."""


def _mutate(genes, rate, table, flows, rng) -> np.ndarray:
    """A mutated copy of a population of labels (a 1-D chromosome is one
    member): its offset genes are redrawn over the instance's row lengths."""
    codec = GeneCodec(table, flows)
    population = codec.encode(np.atleast_2d(genes))
    lengths = _Instance(flows, table, table.topology).lengths
    multipoint_mutate(population, rate, lengths, rng, _no_sites)
    return codec.decode(population)


def _crossover(genes, picks, rng) -> np.ndarray:
    """uniform_crossover's children, bred into a new array."""
    return uniform_crossover(genes, picks, rng, np.empty((len(picks), genes.shape[1]), genes.dtype))


def _mask(seed, pairs, n_genes):
    """Replay of uniform_crossover's swap masks for one seed."""
    packed = np.random.default_rng(seed).integers(
        0, 256, size=(pairs, -(-n_genes // 8)), dtype=np.uint8
    )
    return np.unpackbits(packed, axis=1, count=n_genes).astype(bool)


# ---------------------------------------------------------------- fitness


def test_fitness_empty_network_is_total_capacity(fig2a):
    topo, table = fig2a
    assert _fitness(FlowSet(flows=()), table, topo) == pytest.approx(40.0)


def test_fitness_residual_accumulation(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0)])
    assert _fitness(flows, table, topo, 5) == pytest.approx(36.0)


def test_fitness_overload_penalty(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 12.0)])
    # residual sum 40-12=28, overload 2 on the direct edge, penalty weight 3
    assert _fitness(flows, table, topo, 3) == pytest.approx(22.0)
    assert _fitness(flows, table, topo, 3, penalty=10) == pytest.approx(8.0)


def test_overload_can_outrank_a_longer_path_that_fits():
    # the penalty weighs overload against residual capacity, so a direct path
    # that overloads 3 -> 2 outranks the two-hop detour that stays far below it
    topo = Topology(nodes=(1, 2, 3), links=((3, 2, 10.0), (3, 1, 100.0), (1, 2, 100.0)))
    table = precompute_xpaths(topo, x=2, cap_c=ALL_PATHS)
    flows = make_flows([(3, 2, 10.5)])
    direct, detour = feasible_labels(table, 3, 2)
    genes = GeneCodec(table, flows).encode(_genes(direct, detour).reshape(2, 1))
    fit, mu = _evaluate(_Instance(flows, table, topo), genes)
    # direct: 210 - 10.5 residual, minus 3 * 0.5 overload; detour: 210 - 2 * 10.5
    assert fit.tolist() == [198.0, 189.0]
    assert mu.tolist() == [1.05, 0.105]
    # the GA keeps the routing of least mu, not the fittest one
    assignment, best_mu, _ = run_cect(flows, table, topo, GaConfig(seed=0))
    assert assignment.labels.tolist() == [detour] and best_mu == 0.105


def test_infeasible_gene_is_rejected_by_assemble(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)])
    message = r"^flow 1: path label 4 is not feasible \(path 3->2 does not match flow 3->1\)$"
    with pytest.raises(CectLabError, match=message):
        assemble(RoutingAssignment(np.array([4])), flows, table, topo)


# ---------------------------------------------------------------- roulette


def test_roulette_reproduces_published_shares():
    rng = np.random.default_rng(0)
    picks = roulette_select(PUBLISHED_FITNESSES, 200_000, rng)
    counts = np.bincount(picks, minlength=5)
    shares = counts / counts.sum()
    for got, want in zip(shares, PUBLISHED_SHARES):
        assert abs(got - want) <= 0.005


def test_roulette_degenerate_wheel():
    rng = np.random.default_rng(1)
    picks = roulette_select([5.0, 0.0, 0.0], 2000, rng)
    winner = int(np.count_nonzero(picks == 0))
    assert winner >= 1995  # zero-fitness entries keep only a vanishing share


def test_roulette_uniform_fitness_is_uniform():
    rng = np.random.default_rng(2)
    n = 100_000
    picks = roulette_select([3.3] * 4, n, rng)
    counts = np.bincount(picks, minlength=4)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for got in counts:
        assert abs(got - n / 4) <= 3 * sigma


def test_roulette_handles_negative_fitness():
    rng = np.random.default_rng(3)
    picks = roulette_select([-5.0, -1.0, 2.0], 10_000, rng)
    counts = np.bincount(picks, minlength=3)
    assert counts[2] > counts[1] > counts[0]
    assert counts[0] >= 0  # worst entry may still be drawn: nothing is discarded


def test_roulette_requires_even_count_and_finite_fitness():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        roulette_select([1.0, 2.0], 3, rng)
    with pytest.raises(ValueError):
        roulette_select([1.0, math.inf], 2, rng)


def test_roulette_returns_requested_size():
    rng = np.random.default_rng(5)
    picks = roulette_select([1.0, 2.0, 3.0], 8, rng)
    assert len(picks) == 8
    assert picks.min() >= 0 and picks.max() <= 2


# ---------------------------------------------------------------- crossover


def test_crossover_identical_parents_identity():
    rng = np.random.default_rng(0)
    population = np.tile(_genes(1, 2, 3, 4), (5, 1))
    children = _crossover(population, np.array([0, 1, 2, 3, 4]), rng)
    assert np.array_equal(children, population)


def test_crossover_multiset_preserved_per_position():
    rng = np.random.default_rng(1)
    population = np.stack([_genes(*range(1, 101)), _genes(*range(101, 201))])
    c1, c2 = _crossover(population, np.array([0, 1]), rng)
    p1, p2 = population
    for i in range(100):
        assert {int(c1[i]), int(c2[i])} == {int(p1[i]), int(p2[i])}


def test_crossover_mask_replay():
    # pairs are (picks[i], picks[h + i]); an odd last pick is copied as is
    seed = 99
    population = np.stack([_genes(1, 1, 1, 1), _genes(2, 2, 2, 2), _genes(3, 3, 3, 3)])
    picks = np.array([0, 2, 1, 2, 0])
    children = _crossover(population, picks, np.random.default_rng(seed))
    mask = _mask(seed, 2, 4)
    parents = population[picks]
    for i in range(2):
        assert np.array_equal(children[i], np.where(mask[i], parents[2 + i], parents[i]))
        assert np.array_equal(children[2 + i], np.where(mask[i], parents[i], parents[2 + i]))
    assert np.array_equal(children[4], population[0])
    assert not np.array_equal(children[0], children[2])


@pytest.mark.parametrize("n_picks", [1, 2, 5, 16, 17, 33])
def test_crossover_matches_the_one_shot_reference(n_picks):
    # blocks of 8 pairs, gathered as they are swapped, give the children and
    # leave the stream exactly as one gather and one mask unpack did
    # in every gene dtype the solver breeds, values reduced to the dtype's range
    population = np.random.default_rng(n_picks).integers(1, 1 << 20, size=(9, 37))
    picks = np.random.default_rng(n_picks + 100).integers(0, 9, size=n_picks)
    for dtype in (np.uint8, np.uint16, np.uint32, np.int32, np.int64):
        genes = (population % min(1 << 20, np.iinfo(dtype).max + 1)).astype(dtype)
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        children = _crossover(genes, picks, rng)
        expected = reference_uniform_crossover(genes, picks, reference_rng)
        assert children.dtype == dtype
        assert np.array_equal(children, expected)
        assert rng.random() == reference_rng.random()


def test_crossover_length_mismatch():
    rng = np.random.default_rng(2)
    population = np.stack([_genes(1, 2, 3), _genes(3, 2, 1)])
    with pytest.raises(ValueError):
        uniform_crossover(population, np.array([0, 1]), rng, out=np.empty((2, 2), np.int64))
    with pytest.raises(ValueError):
        uniform_crossover(population, np.array([0, 1, 1]), rng, out=np.empty((4, 3), np.int64))


# ---------------------------------------------------------------- mutation


def test_mutate_rate_zero_identity(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0)])
    before = np.stack([_genes(3, 4, 1), _genes(5, 6, 1)])  # feasible, so they encode
    after = _mutate(before, 0.0, table, flows, np.random.default_rng(0))
    assert np.array_equal(after, before)


def test_mutate_single_candidate_unchanged(fig2a):
    topo, table = fig2a
    flows = make_flows([(1, 2, 1.0)])  # only one path exists for 1 -> 2? no: 1->2 direct only
    assert feasible_labels(table, 1, 2) == (1,)
    after = _mutate(_genes(1), 1.0, table, flows, np.random.default_rng(1))
    assert after.tolist() == [[1]]


def test_mutate_redraw_count_binomial(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)] * 100)
    genes = np.full((100, 100), 3, dtype=np.int64)
    seed, rate = 7, 0.2
    mutated = _mutate(genes, rate, table, flows, np.random.default_rng(seed))
    # replay the decision stream: one binomial count, then that many sites
    # without replacement, so the redrawn positions are directly observable
    replay = np.random.default_rng(seed)
    redraws = int(replay.binomial(genes.size, rate))
    mask = np.zeros(genes.size, dtype=bool)
    mask[replay.choice(genes.size, size=redraws, replace=False, shuffle=False)] = True
    mask = mask.reshape(genes.shape)
    sigma = math.sqrt(genes.size * rate * (1 - rate))
    assert abs(redraws - genes.size * rate) <= 3 * sigma
    changed = mutated != genes
    assert np.all(changed <= mask)  # changes only where a redraw happened
    assert mutated[~mask].tolist() == genes[~mask].tolist()
    # redraws land uniformly on the two candidates, so roughly half change
    assert abs(changed.sum() - redraws / 2) <= 3 * math.sqrt(redraws * 0.25)


def test_mutate_samples_large_populations_in_row_blocks(fig2a):
    # above 10,000 genes and a twentieth of them, the count is split over
    # blocks of rows; every gene still has the same chance to be redrawn
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)] * 100)
    genes = np.full((300, 100), 3, dtype=np.int64)
    rng = np.random.default_rng(9)
    changed = np.zeros(genes.shape)
    for _ in range(20):
        changed += _mutate(genes, 0.4, table, flows, rng) != genes
    # each redraw keeps label 3 or moves to label 5 with equal odds, so a
    # gene changes with probability 0.2, in every row and every column alike
    share = changed / 20
    assert abs(share.mean() - 0.2) <= 3 * math.sqrt(0.16 / (20 * genes.size))
    for axis, trials in ((1, 20 * 100), (0, 20 * 300)):
        sigma = math.sqrt(0.16 / trials)
        per_line = share.mean(axis=axis)
        assert np.abs(per_line - 0.2).max() <= 5 * sigma
        assert per_line.std() <= 1.3 * sigma


def test_mutate_output_feasible(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    genes = np.tile(_genes(3, 4, 1, 2), (6, 1))
    rng = np.random.default_rng(3)
    for _ in range(50):
        genes = _mutate(genes, 0.8, table, flows, rng)
        for i, flow in enumerate(flows.flows):
            assert set(genes[:, i].tolist()) <= set(feasible_labels(table, flow.src, flow.dst))


def test_mutate_validates_rate(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)])
    with pytest.raises(ValueError):
        _mutate(_genes(3), 1.5, table, flows, np.random.default_rng(0))


# ---------------------------------------------------------------- evolution


def test_fixed_point_under_identity_operators(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0)])
    pop = np.tile(_genes(3, 4), (4, 1))
    rng = np.random.default_rng(0)
    fits, _ = _evaluate(_Instance(flows, table, topo), GeneCodec(table, flows).encode(pop))
    children = _crossover(pop, roulette_select(fits, 4, rng), rng)
    children = _mutate(children, 0.0, table, flows, rng)
    assert all(np.array_equal(c, pop[0]) for c in children)


def test_random_genes_draws_one_stream_in_blocks(fig2a):
    # the population is drawn a block of rows at a time, yet it equals one
    # draw of uniforms over the whole population, floored into each row: the
    # genes are those offsets, and they pick the labels at them
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0), (2, 1, 1.0), (1, 2, 1.0)] * 1750)
    inst = _Instance(flows, table, topo)
    rows = ga._BLOCK_GENES // flows.count
    n = 2 * rows + 3
    assert 1 < rows < n and n % rows
    genes = inst.random_genes(n, np.random.default_rng(21))
    uniforms = np.random.default_rng(21).random((n, flows.count))
    starts, lengths = feasible_rows(table, flows)
    offsets = np.floor(uniforms * lengths).astype(np.int64)
    assert genes.dtype == np.uint8
    assert np.array_equal(genes, offsets)
    assert np.array_equal(GeneCodec(table, flows).decode(genes),
                          table.pair_labels[starts + offsets])


@pytest.mark.parametrize("cap_c, dtype", [(50, np.uint8), (256, np.uint8), (257, np.uint16),
                                          (326, np.uint16)])
def test_genes_widen_only_past_256_labels_a_row(cap_c, dtype):
    # a gene is an offset within its flow's row: one byte holds the offsets
    # of 256 labels. On a complete digraph of 7 switches, x=6 leaves 326
    # paths between each pair (cap_c 326 keeps them all), so only a cap_c
    # above 256 widens the genes
    nodes = tuple(range(1, 8))
    topo = Topology(nodes=nodes, links=tuple((s, d, 10.0) for s in nodes for d in nodes if s != d))
    table = precompute_xpaths(topo, x=6, cap_c=cap_c)
    flows = make_flows([(1, 2, 1.0), (3, 4, 1.0)])
    assert len(feasible_labels(table, 1, 2)) == min(326, cap_c)
    inst = _Instance(flows, table, topo)
    genes = inst.random_genes(3, np.random.default_rng(0))
    assert genes.dtype == inst.gene_dtype == dtype
    assert np.array_equal(inst.labels(genes), GeneCodec(table, flows).decode(genes))


def test_run_breeds_genes_in_the_offset_dtype_and_returns_int64_labels(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0)])
    dtypes = set()
    config = GaConfig(seed=8, max_iterations=3, population_size=5, mu_target=0.01)
    assignment, _, _ = run_cect(flows, table, topo, config,
                                on_generation=lambda g, genes, f, m: dtypes.add(genes.dtype))
    assert dtypes == {np.dtype(np.uint8)}
    assert assignment.labels.dtype == np.int64


def test_breeding_allocates_no_population_sized_array(fig2a):
    # children are gathered straight into the next generation and swapped in
    # place; beyond the swap mask (one byte per gene of half the children),
    # only small arrays (under one byte per gene in all) may be allocated, at
    # the rates the solver runs (cli solve's default mut_max of 0.2 samples
    # its sites in row blocks)
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0), (2, 1, 1.0), (1, 2, 1.0)] * 500)
    inst = _Instance(flows, table, topo)
    rng = np.random.default_rng(8)
    genes = inst.random_genes(93, rng)
    next_genes = np.empty_like(genes)
    picks = rng.integers(0, 93, size=92)
    mask_bytes = 46 * genes.shape[1]
    for rate in (0.002, 0.02, 0.2):  # the sweep's mut_min and mut_max; cli solve's mut_max
        tracemalloc.start()
        try:
            uniform_crossover(genes, picks, rng, out=next_genes[1:])
            multipoint_mutate(next_genes[1:], rate, inst.lengths, rng, _no_sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mask_bytes + genes.size, (rate, peak)


@pytest.mark.parametrize("population", [8, 7])
def test_run_breeds_with_the_public_operators(fig2a, monkeypatch, population):
    calls = {"roulette_select": 0, "uniform_crossover": 0, "multipoint_mutate": 0}

    def counting(name):
        original = getattr(ga, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ga, name, counting(name))
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0)])
    config = GaConfig(seed=7, max_iterations=4, population_size=population, mu_target=0.01)
    _, _, stats = run_cect(flows, table, topo, config)
    assert stats.generations == 4
    # one call of each operator per generation breeds the whole population
    assert calls == {"roulette_select": 4, "uniform_crossover": 4, "multipoint_mutate": 4}


def test_run_keeps_the_elite_row_unmutated(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0), (2, 1, 3.0)])
    seen = []

    def watch(gen, genes, fit, mu):
        seen.append((genes.copy(), fit.copy()))

    config = GaConfig(seed=9, max_iterations=20, population_size=9, mu_target=0.01,
                      mut_min=1.0, mut_max=1.0)
    run_cect(flows, table, topo, config, on_generation=watch)
    assert len(seen) == 21
    for (genes, fit), (next_genes, _) in zip(seen, seen[1:]):
        assert np.array_equal(next_genes[0], genes[np.argmax(fit)])


def test_run_single_flow(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 4.0)])
    assignment, mu, stats = run_cect(flows, table, topo, GaConfig(seed=0))
    assert mu == pytest.approx(0.4)
    assert stats.feasible
    matrix = assemble(assignment, flows, table, topo)
    assert validate(matrix, flows, topo) == []


def test_run_terminates_within_budget_when_infeasible(fig2a):
    topo, table = fig2a
    # one pair, demand far beyond capacity: no assignment reaches the target
    flows = make_flows([(3, 1, 30.0), (3, 1, 30.0)])
    config = GaConfig(seed=1, max_iterations=12)
    assignment, mu, stats = run_cect(flows, table, topo, config)
    assert stats.generations == 12
    assert not stats.feasible
    assert mu > config.mu_target
    assert assignment.labels.shape == (2,)


def test_run_population_invariants(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0), (1, 2, 5.0)])
    seen = []
    codec = GeneCodec(table, flows)

    def watch(gen, genes, fit, mu):
        seen.append((genes.shape, genes.copy()))
        # every gene is an offset within its flow's row, so it picks a feasible label
        assert (genes < np.diff(codec.ptr)).all()
        labels = codec.decode(genes)
        for i, flow in enumerate(flows.flows):
            feasible = feasible_labels(table, flow.src, flow.dst)
            assert all(int(label) in feasible for label in labels[:, i])

    config = GaConfig(seed=2, max_iterations=15, population_size=8, mu_target=0.01)
    run_cect(flows, table, topo, config, on_generation=watch)
    assert len(seen) == 16  # initial population plus 15 generations
    assert all(shape == (8, 4) for shape, _ in seen)


def test_run_incumbent_mu_non_increasing(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0), (2, 1, 3.0)])
    history = []

    def watch(gen, genes, fit, mu):
        history.append(float(mu.min()))

    run_cect(flows, table, topo,
             GaConfig(seed=3, max_iterations=25, mu_target=0.01), on_generation=watch)
    incumbent = np.minimum.accumulate(history)
    assert all(a >= b for a, b in zip(incumbent, incumbent[1:]))


def test_run_best_fitness_never_regresses(fig2a):
    # the elite passes into the next generation unchanged, so the
    # per-generation best fitness is non-decreasing
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0), (2, 1, 3.0)])
    _, _, stats = run_cect(
        flows, table, topo, GaConfig(seed=4, max_iterations=30, mu_target=0.01)
    )
    best = [row.best_fitness for row in stats.rows]
    assert all(b >= a - 1e-9 for a, b in zip(best, best[1:]))


def test_run_adaptive_mutation_rate_switches(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 30.0), (3, 1, 30.0)])
    config = GaConfig(seed=5, max_iterations=30, stall_window=3)
    _, _, stats = run_cect(flows, table, topo, config)
    rates = {row.mut_rate for row in stats.rows}
    assert config.mut_max in rates  # tiny search space stalls quickly


def test_run_deterministic(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0)])
    first = run_cect(flows, table, topo, GaConfig(seed=6, max_iterations=10, mu_target=0.01))
    second = run_cect(flows, table, topo, GaConfig(seed=6, max_iterations=10, mu_target=0.01))
    assert np.array_equal(first[0].labels, second[0].labels)
    assert first[1] == second[1]


def _fat_tree_case(n_flows=200, generations=8):
    topo = make_fat_tree(4, 200.0, 200.0, 100.0)
    mix = {"micro": 0.9775, "small": 0.0175, "big": 0.005}
    flows = generate_flows(topo, n_flows, mix, plr=0.95, seed=3)
    return topo, precompute_xpaths(topo, x=4, cap_c=50), flows, GaConfig(
        seed=5, max_iterations=generations, mu_target=0.01
    )


def _fig2a_case():
    topo = make_sample_topology("fig2a", 10.0)
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0), (2, 1, 3.0), (1, 2, 4.0)])
    return topo, precompute_xpaths(topo, x=3, cap_c=ALL_PATHS), flows, GaConfig(
        seed=7, max_iterations=6, mu_target=0.01
    )


@contextlib.contextmanager
def _forced_load_form(form: str):
    """Every solver instance built inside reads form's cells, whichever its rule picks."""
    init = _Instance.__init__

    def forced(self, flowset, table, topology):
        init(self, flowset, table, topology)
        set_load_form(self, form, topology)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Instance, "__init__", forced)
        yield


@pytest.mark.parametrize(
    "case, form, labels_sha, best_mu, rows_sha",
    [
        (_fat_tree_case, "halves",
         "8649af175629b53f44ce2f2a565f9ba3dc4bd13aaed7b9b6c320ee48dbd89d10",
         0.55, "5e541797f47e070953f642bb0312dcf9f33de112629a1996151b17989ac7c44a"),
        (_fig2a_case, "labels",
         "1ca8d4b659bbd2582eb0607c3d2a2a47d091a6cad8d4994819f17635c4d13dc6",
         1.1, "debf68177ab49cb4fa039efe5973108a620107d7f5cc07cb1cb5c1ae257027d5"),
        (lambda: _fat_tree_case(500, 30), "labels",
         "a57df8cbd8e08213b4734afa96a4649e2991721c29706f25a5349f303166ecba",
         0.59, "5158f1e43dafe556a09c726a505672da3e8b198d2e28e3ed91e649ef12b1cabc"),
    ],
    ids=["k4-200", "fig2a", "k4-500-aggregated"],
)
def test_run_output_is_pinned(case, form, labels_sha, best_mu, rows_sha):
    # instances run to the full budget, in the form their rule picks and then
    # in each form: the labels, best mu and every GenerationStats row must not
    # move when the load kernel or the breeding changes
    topo, table, flows, config = case()
    assert load_form(_Instance(flows, table, topo)) == form
    for forced in (contextlib.nullcontext(), *map(_forced_load_form, LOAD_FORMS)):
        with forced:
            assignment, mu, stats = run_cect(flows, table, topo, config)
        assert stats.generations == config.max_iterations
        rows = [dataclasses.astuple(row) for row in stats.rows]
        assert assignment.labels.dtype == np.int64
        assert hashlib.sha256(assignment.labels.tobytes()).hexdigest() == labels_sha
        assert mu == best_mu
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == rows_sha


@pytest.mark.parametrize(
    "case", [_fat_tree_case, _fig2a_case, lambda: _fat_tree_case(500, 30)],
    ids=["k4-200", "fig2a", "k4-500-aggregated"],
)
def test_run_output_is_the_same_in_every_gene_dtype(case, monkeypatch):
    # a table of more labels only widens the rows the genes decode into:
    # uint8 holds 255 rows, uint16 65,535, uint32 the rest. The genes stay
    # one-byte offsets, and the draws and the loads stay the same
    topo, table, flows, config = case()
    expected = run_cect(flows, table, topo, config)
    decoded = set()
    population_loads = kernels.population_loads

    def spy(rows, *args):
        decoded.add(rows.dtype)
        return population_loads(rows, *args)

    monkeypatch.setattr(kernels, "population_loads", spy)
    for count, dtype in ((255, np.uint8), (256, np.uint16), (65_535, np.uint16),
                         (65_536, np.uint32)):
        monkeypatch.setattr(XPathTable, "path_count", property(lambda self: count))
        assert _Instance(flows, table, topo).base.dtype == dtype
        decoded.clear()
        dtypes = set()
        assignment, mu, stats = run_cect(
            flows, table, topo, config, on_generation=lambda g, genes, f, m: dtypes.add(genes.dtype)
        )
        assert decoded == {np.dtype(dtype)}
        assert dtypes == {np.dtype(np.uint8)}
        assert np.array_equal(assignment.labels, expected[0].labels)
        assert assignment.labels.dtype == np.int64
        assert mu == expected[1]
        assert stats.rows == expected[2].rows


@functools.lru_cache(maxsize=None)
def _load_form_case(shared: bool, many: bool):
    """(topology, table, flows) with few labels, each shared by many flows, or
    many labels, and 2,000 flows or a few dozen. Their instances pick single
    edges (k=4, 30 flows), half labels (k=6, 2,000 flows) or whole labels."""
    if shared and not many:
        topo = make_sample_topology("fig2a", 10.0)
        flows = make_flows([(3, 1, 1.0), (3, 2, 2.5), (2, 1, 0.5), (1, 2, 4.0)] * 8)
        return topo, precompute_xpaths(topo, x=3, cap_c=ALL_PATHS), flows
    topo = make_fat_tree(6 if many and not shared else 4, 200.0, 200.0, 100.0)
    mix = {"micro": 0.9775, "small": 0.0175, "big": 0.005}
    flows = generate_flows(topo, 2000 if many else 30, mix, plr=0.95, seed=1)
    return topo, precompute_xpaths(topo, x=4, cap_c=50), flows


@functools.lru_cache(maxsize=None)
def _load_form_codec(shared: bool, many: bool) -> GeneCodec:
    """The GeneCodec of _load_form_case(shared, many)."""
    _, table, flows = _load_form_case(shared, many)
    return GeneCodec(table, flows)


def test_run_peak_memory_is_pinned():
    # the two population buffers are the solve's largest allocation: at k=6
    # (2,754 labels, summed in half-label cells) their genes are one-byte
    # offsets, decoded into uint16 rows a block at a time. The bound is 1.1 times the peak measured with
    # uint8 genes (2,065,078 bytes); uint16 genes, as labels took before,
    # peak at 2,513,578 bytes, past it
    topo, table, flows = _load_form_case(False, True)
    inst = _Instance(flows, table, topo)
    assert load_form(inst) == "halves"
    assert inst.gene_dtype == np.uint8 and inst.base.dtype == np.uint16
    config = GaConfig(seed=1, max_iterations=5, mu_target=1e-9)
    run_cect(flows, table, topo, config)  # builds the flow set's cached arrays
    tracemalloc.start()
    try:
        _, _, stats = run_cect(flows, table, topo, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.generations == 5
    assert peak < 2_272_000, peak


def test_k12_run_peak_memory_is_bounded_by_one_byte_genes():
    # solve-k12's shape: 20,000 flows on a k=12 fabric (189,072 labels, so
    # a label needs uint32), population 388. A 2-generation solve peaks at
    # 67.5 MB with one-byte genes; the bound is 1.1 times that. uint16 genes
    # peak at 84.1 MB and uint32 genes, as labels took before, at 117.3 MB.
    # The instance's build peaks at 20.3 MB (and the solve at 64.3 MB); the
    # bound is 1.1 times that. An array per feasible entry (1M of them) took
    # it to 27.1 MB
    topo = make_fat_tree(12, 200.0, 200.0, 100.0)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 20_000, {"micro": 0.9775, "small": 0.0175, "big": 0.005},
                           plr=0.95, seed=1)
    tracemalloc.start()
    try:
        inst = _Instance(flows, table, topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22_350_000, peak
    assert inst.gene_dtype == np.uint8 and inst.base.dtype == np.uint32
    assert default_population_size(flows.count, topo.node_count) == 388
    config = GaConfig(seed=1, max_iterations=2, mu_target=1e-9)
    tracemalloc.start()
    try:
        _, _, stats = run_cect(flows, table, topo, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.generations == 2
    assert peak < 74_300_000, peak


def test_aggregated_run_peak_memory_is_bounded_by_the_gene_buffers():
    # k=4 with 20,000 flows sums whole-label cells. Beside the two uint8
    # gene buffers (295 x 20,000, 11.8 MB) its buffers are members x labels
    # and members x width x labels (2 MB). The mutation's load shift at the 2%
    # rate, about 22 MB, sets the peak of 36.4 MB; a per-gene demand tile and
    # cell index (16 bytes a gene) took it to 130.8 MB
    topo = make_fat_tree(4, 200.0, 200.0, 100.0)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    mix = {"micro": 0.9775, "small": 0.0175, "big": 0.005}
    flows = generate_flows(topo, 20_000, mix, plr=0.95, seed=1)
    inst = _Instance(flows, table, topo)
    n_pop = default_population_size(flows.count, topo.node_count)
    assert load_form(inst) == "labels" and inst.gene_dtype == np.uint8 and n_pop == 295
    config = GaConfig(seed=1, max_iterations=2, mu_target=1e-9)
    tracemalloc.start()
    try:
        _, _, stats = run_cect(flows, table, topo, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.generations == 2
    assert peak < 3.5 * 2 * n_pop * flows.count, peak


@settings(max_examples=40, deadline=None)
@given(
    form=st.sampled_from(LOAD_FORMS),
    shared=st.booleans(),
    many=st.booleans(),
    population=st.integers(2, 9),
    rate=st.sampled_from([0.02, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(form="halves", shared=False, many=True, population=9, rate=0.3, seed=1)
@example(form="labels", shared=True, many=True, population=8, rate=0.3, seed=2)
@example(form="halves", shared=True, many=False, population=2, rate=0.3, seed=3)
@example(form="edges", shared=False, many=False, population=2, rate=0.3, seed=4)
@example(form="edges", shared=False, many=True, population=7, rate=0.3, seed=5)
@example(form="labels", shared=False, many=False, population=9, rate=0.02, seed=6)
def test_carried_loads_equal_a_fresh_evaluation(form, shared, many, population, rate, seed):
    # only generation 0 is evaluated whole: later loads are the elite's, the
    # first half of the children's, the second half's derived from their
    # parents', an odd last row's copied from its parent, each shifted by the
    # mutation. Population 2 has no pair, odd sizes no copied row, and with
    # 2,000 flows from population 7 on, rate 0.3 samples sites in row blocks.
    # Each case runs in each load form
    topo, table, flows = _load_form_case(shared, many)
    inst = _Instance(flows, table, topo)
    labels, pad = _load_form_codec(shared, many).decode, label_pad(table, topo)

    def check(generation, genes, fit, mu):
        # the loads of the genes' labels, summed afresh over label-order rows
        fresh = reference_loads(pad, labels(genes), flows.demand_units, inst.n_edges)
        expected_fit, expected_mu = kernels.fitness_mu(fresh, inst.caps, inst.penalty)
        assert np.array_equal(fit, expected_fit), generation
        assert np.array_equal(mu, expected_mu), generation

    config = GaConfig(population_size=population, max_iterations=5, mut_min=rate,
                      mut_max=rate, mu_target=1e-9, seed=seed)
    with _forced_load_form(form):
        assert load_form(_Instance(flows, table, topo)) == form
        _, _, stats = run_cect(flows, table, topo, config, on_generation=check)
    assert stats.generations == 5


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("population", [2, 7, 8])
def test_each_bred_generation_evaluates_half_of_its_children(monkeypatch, shared, population):
    # generation 0 evaluates every member; each bred generation only the
    # first child of each pair, in each load form, so a change back to
    # whole evaluations shows
    rows = []
    original = kernels.population_loads

    def counting(genes, *args, **kwargs):
        rows.append(len(genes))
        return original(genes, *args, **kwargs)

    monkeypatch.setattr(kernels, "population_loads", counting)
    topo, table, flows = _load_form_case(shared, False)
    config = GaConfig(population_size=population, max_iterations=6, mu_target=1e-9, seed=3)
    for form in LOAD_FORMS:
        rows.clear()
        with _forced_load_form(form):
            _, _, stats = run_cect(flows, table, topo, config)
        assert stats.generations == 6
        assert sum(rows) == population + stats.generations * ((population - 1) // 2), form


def test_run_tracks_exact_optimum_on_small_instances():
    rng = np.random.default_rng(11)
    hits, total = 0, 0
    for _ in range(20):
        topo = random_topology(rng, int(rng.integers(3, 7)), edge_prob=0.5, capacity=10.0)
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        pairs = list(labels_by_pair(table))
        if not pairs:
            continue
        flows = make_flows(
            [(*pairs[rng.integers(len(pairs))], float(rng.integers(2, 9)))
             for _ in range(int(rng.integers(1, 5)))]
        )
        try:
            _, mu_star = solve_exact(flows, table, topo, budget=100_000)
        except Exception:
            continue
        _, mu_ga, stats = run_cect(
            flows, table, topo, GaConfig(seed=int(rng.integers(1 << 31)))
        )
        total += 1
        if mu_ga <= 1.10 * mu_star + 1e-12:
            hits += 1
    assert total >= 10
    assert hits >= 0.9 * total


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 5), data=st.data())
def test_run_returns_its_routings_mu_never_above_row_0s(seed, n_nodes, data):
    # row 0 is the shortest routing and generation 0 evaluates it, so the
    # best mu seen, which run_cect returns with its routing, is at most its mu
    rng = np.random.default_rng(seed)
    links = random_topology(rng, n_nodes, edge_prob=0.6).links
    topo = Topology(nodes=tuple(range(1, n_nodes + 1)),
                    links=tuple((s, d, float(rng.uniform(0.5, 20.0))) for s, d, _ in links))
    table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
    pairs = sorted(labels_by_pair(table))
    flows = make_flows([
        (*data.draw(st.sampled_from(pairs)), data.draw(st.floats(0.01, 30.0)))
        for _ in range(data.draw(st.integers(1, 8)))
    ])
    config = GaConfig(
        population_size=data.draw(st.integers(2, 6)),
        max_iterations=data.draw(st.integers(1, 5)),
        mu_target=1e-9,  # no routing reaches it: every generation runs
        seed=seed,
    )
    assignment, mu, _ = run_cect(flows, table, topo, config)
    assert mu == assemble(assignment, flows, table, topo).mu
    shortest, _ = solve("shortest", flows, table, topo, config)
    assert mu <= assemble(shortest, flows, table, topo).mu


def test_run_no_feasible_path_names_flow(fig2a):
    topo, table = fig2a
    flows = make_flows([(1, 3, 1.0)])
    message = r"^flow 1 \(1 -> 3\) has no feasible path in the table$"
    with pytest.raises(CectLabError, match=message):
        run_cect(flows, table, topo, GaConfig(seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(mut_min=0.0)
    with pytest.raises(ValueError):
        GaConfig(mut_min=0.5, mut_max=0.2)
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(max_iterations=0)
    with pytest.raises(ValueError):
        GaConfig(mu_target=0.0)


def test_default_population_size_formula():
    assert default_population_size(2000, 20) == math.ceil(
        math.sqrt(2000 * math.log2(20))
    )
    assert default_population_size(1, 2) >= 2
