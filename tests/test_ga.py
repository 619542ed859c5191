import math

import numpy as np
import pytest

from cect_lab import ga
from cect_lab.errors import InfeasibleLabelError, NoFeasiblePathError
from cect_lab.exact import solve_exact
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
from cect_lab.topology import make_sample_topology
from cect_lab.traffic import FlowSet
from cect_lab.xpath import feasible_csr, feasible_labels, precompute_xpaths

from helpers import make_flows, random_topology

PUBLISHED_FITNESSES = [6.82, 1.11, 8.48, 2.57, 3.08]
PUBLISHED_SHARES = [0.309, 0.050, 0.384, 0.117, 0.140]


@pytest.fixture(scope="module")
def fig2a():
    topo = make_sample_topology("fig2a", 10.0)
    return topo, precompute_xpaths(topo, x=3)


def _genes(*labels) -> np.ndarray:
    return np.array(labels, dtype=np.int64)


def _fitness(flows, table, topo, *labels, penalty=None) -> float:
    """Fitness of one chromosome as run_cect evaluates it (penalty defaults
    to the switch count)."""
    fit, _ = _Instance(flows, table, topo).evaluate(
        _genes(*labels).reshape(1, -1), topo.node_count if penalty is None else penalty
    )
    return float(fit[0])


def _mutate(genes, rate, table, flows, rng) -> np.ndarray:
    return multipoint_mutate(genes, rate, *feasible_csr(table, flows), rng)


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


def test_infeasible_gene_is_rejected_by_assemble(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)])
    with pytest.raises(InfeasibleLabelError):
        assemble(RoutingAssignment({1: 4}), flows, table, topo)


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
    p = _genes(1, 2, 3, 4)
    c1, c2 = uniform_crossover(p, p, rng)
    assert np.array_equal(c1, p)
    assert np.array_equal(c2, p)


def test_crossover_multiset_preserved_per_position():
    rng = np.random.default_rng(1)
    p1 = _genes(*range(1, 101))
    p2 = _genes(*range(101, 201))
    c1, c2 = uniform_crossover(p1, p2, rng)
    for i in range(100):
        assert {int(c1[i]), int(c2[i])} == {int(p1[i]), int(p2[i])}


def test_crossover_mask_replay():
    seed = 99
    p1, p2 = _genes(1, 1, 1, 1), _genes(2, 2, 2, 2)
    c1, c2 = uniform_crossover(p1, p2, np.random.default_rng(seed))
    mask = np.random.default_rng(seed).random(4) < 0.5
    assert np.array_equal(c1, np.where(mask, p1, p2))
    assert np.array_equal(c2, np.where(mask, p2, p1))
    assert not np.array_equal(c1, c2)


def test_crossover_length_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        uniform_crossover(_genes(1, 2), _genes(1, 2, 3), rng)


# ---------------------------------------------------------------- mutation


def test_mutate_rate_zero_identity(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0)])
    before = _genes(3, 4, 1)
    after = _mutate(before, 0.0, table, flows, np.random.default_rng(0))
    assert np.array_equal(after, before)
    assert after is not before


def test_mutate_single_candidate_unchanged(fig2a):
    topo, table = fig2a
    flows = make_flows([(1, 2, 1.0)])  # only one path exists for 1 -> 2? no: 1->2 direct only
    assert feasible_labels(table, 1, 2) == (1,)
    after = _mutate(_genes(1), 1.0, table, flows, np.random.default_rng(1))
    assert after.tolist() == [1]


def test_mutate_redraw_count_binomial(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)] * 10_000)
    genes = np.full(10_000, 3, dtype=np.int64)
    seed, rate = 7, 0.2
    mutated = _mutate(genes, rate, table, flows, np.random.default_rng(seed))
    # replay the decision stream: the first block of uniforms selects the
    # redrawn positions, so the redraw count is directly observable
    mask = np.random.default_rng(seed).random(10_000) < rate
    redraws = int(mask.sum())
    sigma = math.sqrt(10_000 * rate * (1 - rate))
    assert abs(redraws - 10_000 * rate) <= 3 * sigma
    changed = mutated != genes
    assert np.all(changed <= mask)  # changes only where a redraw happened
    assert mutated[~mask].tolist() == genes[~mask].tolist()
    # redraws land uniformly on the two candidates, so roughly half change
    assert abs(changed.sum() - redraws / 2) <= 3 * math.sqrt(redraws * 0.25)


def test_mutate_output_feasible(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    genes = _genes(3, 4, 1, 2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        genes = _mutate(genes, 0.8, table, flows, rng)
        for i, flow in enumerate(flows.flows):
            assert int(genes[i]) in feasible_labels(table, flow.src, flow.dst)


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
    fits, _ = _Instance(flows, table, topo).evaluate(pop, topo.node_count)
    picks = roulette_select(fits, 4, rng)
    children = []
    for a, b in zip(picks[::2], picks[1::2]):
        c1, c2 = uniform_crossover(pop[a], pop[b], rng)
        children += [
            _mutate(c1, 0.0, table, flows, rng),
            _mutate(c2, 0.0, table, flows, rng),
        ]
    assert all(np.array_equal(c, pop[0]) for c in children)


@pytest.mark.parametrize("population", [8, 7])
def test_run_breeds_with_the_public_operators(fig2a, monkeypatch, population):
    calls = {"roulette_select": 0, "uniform_crossover": 0, "multipoint_mutate": 0}

    def counting(name):
        original = getattr(ga, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ga, name, counting(name))
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0)])
    config = GaConfig(seed=7, max_iterations=4, population_size=population, mu_target=0.01)
    _, _, stats = run_cect(flows, table, topo, config)
    bred = population - 1  # the elite is copied
    assert stats.generations == 4
    assert calls == {
        "roulette_select": 4,
        "uniform_crossover": 4 * (bred // 2),
        "multipoint_mutate": 4 * bred,
    }


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
    assert len(assignment.choice) == 2


def test_run_population_invariants(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 5.0), (1, 2, 5.0)])
    seen = []

    def watch(gen, genes, fit, mu):
        seen.append((genes.shape, genes.copy()))
        for i, flow in enumerate(flows.flows):
            feasible = feasible_labels(table, flow.src, flow.dst)
            assert all(int(g) in feasible for g in genes[:, i])

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
    assert first[0].choice == second[0].choice
    assert first[1] == second[1]


def test_run_tracks_exact_optimum_on_small_instances():
    rng = np.random.default_rng(11)
    hits, total = 0, 0
    for _ in range(20):
        topo = random_topology(rng, int(rng.integers(3, 7)), edge_prob=0.5, capacity=10.0)
        table = precompute_xpaths(topo, x=3)
        pairs = [p for p in table.by_pair if table.by_pair[p]]
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


def test_run_no_feasible_path_names_flow(fig2a):
    topo, table = fig2a
    flows = make_flows([(1, 3, 1.0)])
    with pytest.raises(NoFeasiblePathError, match="flow 1"):
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
