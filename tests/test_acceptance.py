"""Acceptance suite: one test per acceptance criterion, tolerances pinned.

Each test prints a `ACCEPTANCE <n> <name>: PASS/FAIL` line so a verbose run
reads as a checklist. Runtimes are wall-clock on the host.
"""

import csv
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cect_lab import experiment
from cect_lab.bench import bench_scaling
from cect_lab.errors import SearchBudgetExceededError
from cect_lab.exact import solve_exact
from cect_lab.ga import (
    Chromosome,
    GaConfig,
    multipoint_mutate,
    roulette_select,
    run_cect,
    uniform_crossover,
)
from cect_lab.routing import (
    ALL_RULES,
    RoutingAssignment,
    assemble,
    validate,
)
from cect_lab.topology import make_fat_tree, make_sample_topology
from cect_lab.traffic import compress_flows, generate_flows
from cect_lab.fluidsim import simulate
from cect_lab.xpath import precompute_xpaths

from helpers import edge_list_matrix, grid_maxmin_oracle, make_flows, random_topology

REPO_ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = REPO_ROOT / "configs" / "acceptance_sweep.ini"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


def test_criterion_1_golden_path_enumeration():
    with criterion(1, "golden path enumeration"):
        start = time.perf_counter()
        table_a = precompute_xpaths(make_sample_topology("fig2a"), x=3)
        assert {lab: p.hops for lab, p in table_a.paths.items()} == {
            1: (1, 2),
            2: (2, 1),
            3: (3, 1),
            4: (3, 2),
            5: (3, 2, 1),
            6: (3, 1, 2),
        }
        table_b = precompute_xpaths(make_sample_topology("fig2b"), x=3)
        published = {
            (1, 2), (2, 1), (3, 2), (3, 4), (4, 1), (4, 3),
            (1, 3, 2), (1, 3, 4), (3, 4, 1), (4, 1, 3), (4, 1, 2), (4, 3, 2),
        }
        enumerated = {p.hops for p in table_b.paths.values()}
        assert published <= enumerated
        assert time.perf_counter() - start < 1.0


def test_criterion_2_roulette_calibration():
    with criterion(2, "roulette calibration"):
        fitnesses = [6.82, 1.11, 8.48, 2.57, 3.08]
        expected = [0.309, 0.050, 0.384, 0.117, 0.140]
        rng = np.random.default_rng(20)
        members = [Chromosome(genes=np.array([i], dtype=np.int64)) for i in range(5)]
        picks = roulette_select(members, fitnesses, 1_000_000, rng)
        counts = np.bincount([int(c.genes[0]) for c in picks], minlength=5)
        shares = counts / counts.sum()
        for got, want in zip(shares, expected):
            assert abs(got - want) <= 0.005, (got, want)


def test_criterion_3_oracle_optimality_gap():
    with criterion(3, "oracle optimality gap"):
        start = time.perf_counter()
        rng = np.random.default_rng(33)
        done = 0
        within_gap = 0
        attempts = 0
        while done < 100 and attempts < 500:
            attempts += 1
            topo = random_topology(
                rng, int(rng.integers(3, 7)), edge_prob=0.5, capacity=10.0
            )
            table = precompute_xpaths(topo, x=3)
            pairs = [p for p in table.by_pair if table.by_pair[p]]
            if not pairs:
                continue
            n_flows = int(rng.integers(1, 7))
            # demands of at least 7 on capacity-10 links keep the optimum at
            # or above the default hot-spot target, so an early exit at the
            # target is itself always within the 1.10x gap
            flows = make_flows(
                [
                    (*pairs[rng.integers(len(pairs))], float(rng.integers(7, 11)))
                    for _ in range(n_flows)
                ]
            )
            try:
                _, mu_star = solve_exact(flows, table, topo, budget=200_000)
            except SearchBudgetExceededError:
                continue
            assignment, mu_ga, _ = run_cect(
                flows, table, topo, GaConfig(seed=int(rng.integers(1 << 31)))
            )
            done += 1
            if mu_ga <= 1.10 * mu_star + 1e-12:
                within_gap += 1
            matrix = assemble(assignment, flows, table, topo)
            assert validate(matrix, flows, topo) == []
        elapsed = time.perf_counter() - start
        assert done == 100
        assert within_gap >= 90, f"only {within_gap}/100 within 1.10x of optimum"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    out = experiment.run_experiment(
        SWEEP_CONFIG, tmp_path_factory.mktemp("sweep"), threads=1
    )
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return out, rows


def test_criterion_4_trend_against_ecmp(sweep_results):
    with criterion(4, "throughput and loss trend vs ECMP"):
        out, rows = sweep_results
        flow_counts = sorted({int(r["n_flows"]) for r in rows})
        assert flow_counts == list(range(200, 2001, 200))

        mean_tput = {}
        mean_loss = {}
        for method in ("cect", "ecmp"):
            for n in flow_counts:
                cell = [
                    r for r in rows if r["method"] == method and int(r["n_flows"]) == n
                ]
                assert len(cell) == 5
                mean_tput[(method, n)] = np.mean([float(r["throughput"]) for r in cell])
                mean_loss[(method, n)] = np.mean([float(r["loss_pct"]) for r in cell])

        ratios = {
            n: mean_tput[("cect", n)] / mean_tput[("ecmp", n)] for n in flow_counts
        }
        for n in flow_counts:
            assert mean_tput[("cect", n)] >= mean_tput[("ecmp", n)], n
            if n >= 1000:
                assert ratios[n] >= 1.02, (n, ratios[n])
        top_half = [n for n in flow_counts if n >= 1200]
        for a, b in zip(top_half, top_half[1:]):
            assert ratios[b] >= ratios[a], (a, ratios[a], b, ratios[b])
        for n in flow_counts:
            if mean_loss[("cect", n)] > 0 or mean_loss[("ecmp", n)] > 0:
                assert mean_loss[("cect", n)] <= mean_loss[("ecmp", n)], n

        # the aggregated ratio table must exist for every sweep point
        experiment.report(out)
        with open(out / "ratio_cect_vs_ecmp.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == len(flow_counts)


def test_criterion_5_runtime_envelope():
    with criterion(5, "runtime envelope"):
        mix = {"micro": 0.9775, "small": 0.0175, "big": 0.005}
        budgets = {4: 5.0, 6: 20.0}
        for k, budget in budgets.items():
            topo = make_fat_tree(k, 200.0, 200.0, 100.0)
            table = precompute_xpaths(topo, x=4, cap_c=50)
            flows = generate_flows(topo, 2000, mix, plr=0.95, seed=55)
            # an unreachable target forces the full iteration budget, so the
            # measurement covers a complete run rather than an early exit
            config = GaConfig(seed=5, mu_target=1e-6)
            start = time.perf_counter()
            _, _, stats = run_cect(flows, table, topo, config)
            elapsed = time.perf_counter() - start
            assert stats.generations == config.max_iterations
            assert elapsed <= budget, f"k={k}: {elapsed:.2f}s > {budget}s"
            assert elapsed / 2000 <= 0.010, f"k={k}: {elapsed / 2000 * 1e3:.2f} ms/flow"


def test_criterion_6_complexity_scaling():
    with criterion(6, "wall-time scaling in the flow count"):
        points, slope = bench_scaling(
            k=4, flow_counts=(250, 500, 1000, 2000), x=4, iterations=20, seed=66
        )
        assert all(p.wall_time > 0 for p in points)
        assert slope <= 2.0, f"log-log slope {slope:.2f}"


def test_criterion_7_constraint_suite():
    with criterion(7, "constraint and operator law suite"):
        rng = np.random.default_rng(77)
        # 10^4 table-derived assignments across random topologies: all valid
        checked = 0
        while checked < 10_000:
            topo = random_topology(rng, int(rng.integers(3, 8)), edge_prob=0.5)
            table = precompute_xpaths(topo, x=3)
            pairs = [p for p in table.by_pair if table.by_pair[p]]
            if not pairs:
                continue
            for _ in range(200):
                n_flows = int(rng.integers(1, 6))
                flows, choice = [], {}
                for fid in range(1, n_flows + 1):
                    pair = pairs[rng.integers(len(pairs))]
                    labels = table.by_pair[pair]
                    flows.append((*pair, float(rng.integers(1, 9))))
                    choice[fid] = int(labels[rng.integers(len(labels))])
                flowset = make_flows(flows)
                matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
                assert validate(matrix, flowset, topo) == []
                checked += 1
                if checked >= 10_000:
                    break

        # every constraint class rejects its hand-injected breach
        topo = make_sample_topology("fig2b", 10.0)
        flows = make_flows([(1, 2, 1.0)])

        def rules_of(edges, value=1):
            matrix = edge_list_matrix(topo, [[e for e in edges for _ in range(value)]])
            return {v.rule for v in validate(matrix, flows, topo)}

        breaches = {
            "no-return-to-source": rules_of([(1, 3), (3, 4), (4, 1), (1, 2)]),
            "no-exit-from-destination": rules_of([(1, 2), (2, 1)]),
            "source-out-degree": rules_of([(1, 2), (1, 3), (3, 2)]),
            "destination-in-degree": rules_of([(1, 3), (3, 4)]),
            "flow-conservation": rules_of([(1, 3), (3, 4), (3, 2)]),
            "loop-free": rules_of([(1, 3), (4, 3), (3, 2)]),
            "binary-indicator": rules_of([(1, 2)], value=2),
        }
        for rule, seen in breaches.items():
            assert rule in seen, f"{rule} not reported (saw {seen})"
        assert set(breaches) == set(ALL_RULES)

        # crossover multiset law
        table = precompute_xpaths(topo, x=3)
        p1 = Chromosome(genes=np.array([1, 7, 9], dtype=np.int64))
        p2 = Chromosome(genes=np.array([1, 3, 4], dtype=np.int64))
        for _ in range(300):
            c1, c2 = uniform_crossover(p1, p2, rng)
            for i in range(3):
                assert {int(c1.genes[i]), int(c2.genes[i])} == {
                    int(p1.genes[i]), int(p2.genes[i])
                }

        # mutation redraw count obeys the binomial law at 3 sigma
        n, rate, seed = 10_000, 0.2, 777
        flowset = make_flows([(3, 1, 1.0)] * n)
        tab_a = precompute_xpaths(make_sample_topology("fig2a"), x=3)
        base = Chromosome(genes=np.full(n, 3, dtype=np.int64))
        multipoint_mutate(base, rate, tab_a, flowset, np.random.default_rng(seed))
        redraws = int((np.random.default_rng(seed).random(n) < rate).sum())
        sigma = math.sqrt(n * rate * (1 - rate))
        assert abs(redraws - n * rate) <= 3 * sigma


def test_criterion_8_compression_conservation():
    with criterion(8, "flow-table compression conservation"):
        rng = np.random.default_rng(88)
        for _ in range(50):
            triples = [
                (
                    int(rng.integers(1, 5)),
                    int(rng.integers(5, 9)),
                    float(rng.uniform(0.05, 20.0)),
                )
                for _ in range(int(rng.integers(1, 80)))
            ]
            flows = make_flows(triples)
            lower = float(rng.uniform(0.5, 8.0))
            upper = float(rng.uniform(lower, 40.0))
            out, cmap = compress_flows(flows, lower, upper)
            per_pair_in: dict = {}
            for f in flows.flows:
                key = (f.src, f.dst)
                per_pair_in[key] = per_pair_in.get(key, 0.0) + f.demand
            per_pair_out: dict = {}
            for f in out.flows:
                key = (f.src, f.dst)
                per_pair_out[key] = per_pair_out.get(key, 0.0) + f.demand
            for key in per_pair_in:
                assert per_pair_out[key] == pytest.approx(
                    per_pair_in[key], rel=0, abs=1e-9
                )
            for new_id in cmap.merged:
                assert out.flows[new_id - 1].demand <= upper + 1e-9

        # small-flow heavy workload shrinks by at least half
        topo = make_fat_tree(4)
        flows = generate_flows(
            topo, 2000,
            {"micro": 0.55, "small": 0.3, "medium": 0.1, "big": 0.05},
            plr=0.6, seed=8,
        )
        micro_small = sum(1 for f in flows.flows if f.cls in ("micro", "small"))
        assert micro_small >= 0.8 * flows.count
        compressed, _ = compress_flows(flows, lower_bound=3.0, upper_bound=50.0)
        assert compressed.count <= flows.count // 2


def test_criterion_9_simulator_sanity():
    with criterion(9, "fluid simulator sanity"):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 25:
            topo = random_topology(rng, 5, edge_prob=0.6, capacity=10.0)
            table = precompute_xpaths(topo, x=3)
            pairs = [p for p in table.by_pair if table.by_pair[p]]
            if not pairs:
                continue
            n = int(rng.integers(2, 6))
            flows, choice = [], {}
            for fid in range(1, n + 1):
                pair = pairs[rng.integers(len(pairs))]
                labels = table.by_pair[pair]
                flows.append((*pair, float(rng.integers(2, 16))))
                choice[fid] = int(labels[rng.integers(len(labels))])
            flowset = make_flows(flows)
            matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
            result = simulate(matrix, flowset, topo, "maxmin")

            edge_ids = topo.edge_index()
            flow_paths = [
                [edge_ids[e] for e in table.paths[choice[f.id]].edges()]
                for f in flowset.flows
            ]
            oracle = grid_maxmin_oracle(
                flow_paths,
                [f.demand for f in flowset.flows],
                [c for _, _, c in topo.sorted_links()],
                step=0.005,
            )
            for i, f in enumerate(flowset.flows):
                assert abs(result.per_flow_rate[f.id] - oracle[i]) <= 0.01 * max(
                    1.0, f.demand
                ), (result.per_flow_rate[f.id], oracle[i])
            if matrix.mu <= 1.0:
                assert result.loss_pct == pytest.approx(0.0, abs=1e-9)
            checked += 1
