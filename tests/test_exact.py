import itertools

import numpy as np
import pytest

from cect_lab.errors import CectLabError, SearchBudgetExceededError
from cect_lab.exact import solve_exact
from cect_lab.routing import RoutingAssignment, assemble, validate
from cect_lab.topology import make_sample_topology
from cect_lab.traffic import FlowSet
from cect_lab.xpath import feasible_labels, precompute_xpaths

from helpers import ALL_PATHS, all_hops, labels_by_pair, make_flows, random_topology


@pytest.fixture(scope="module")
def fig2a():
    topo = make_sample_topology("fig2a", 10.0)
    return topo, precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)


def test_two_flows_split_across_paths(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0)])
    assignment, mu = solve_exact(flows, table, topo)
    assert mu == pytest.approx(0.6)
    assert sorted(assignment.labels.tolist()) == [3, 5]
    # riding the same path would double one link's load
    same = assemble(RoutingAssignment(np.array([3, 3])), flows, table, topo)
    assert same.mu == pytest.approx(1.2)


def test_single_flow_takes_shortest_path(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 4.0)])
    assignment, mu = solve_exact(flows, table, topo)
    assert assignment.labels.tolist() == [3]  # direct edge wins the hop tie-break
    assert mu == pytest.approx(0.4)


def test_zero_flows(fig2a):
    topo, table = fig2a
    assignment, mu = solve_exact(FlowSet(flows=()), table, topo)
    assert assignment.labels.dtype == np.int64 and assignment.labels.size == 0
    assert mu == 0.0


def test_exhaustive_against_full_enumeration():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(30):
        topo = random_topology(rng, int(rng.integers(3, 7)), edge_prob=0.5)
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        hop_counts = {label: len(hops) - 1 for label, hops in enumerate(all_hops(table), 1)}
        pairs = list(labels_by_pair(table))
        if not pairs:
            continue
        n_flows = int(rng.integers(1, 5))
        flows = make_flows(
            [
                (*pairs[rng.integers(len(pairs))], float(rng.integers(1, 10)))
                for _ in range(n_flows)
            ]
        )
        options = [
            feasible_labels(table, f.src, f.dst) for f in flows.flows
        ]
        combos = 1
        for opt in options:
            combos *= len(opt)
        if combos > 1000:
            continue
        assignment, mu = solve_exact(flows, table, topo)
        # the documented order: least mu, then fewest total hops, then the
        # smallest label vector
        best_mu, _, best_labels = min(
            (assemble(RoutingAssignment(np.array(combo)), flows, table, topo).mu,
             sum(hop_counts[label] for label in combo), list(combo))
            for combo in itertools.product(*options)
        )
        assert mu == pytest.approx(best_mu, abs=1e-12)
        assert assignment.labels.tolist() == best_labels
        checked += 1
    assert checked >= 10


def test_single_candidate_flows_do_not_deepen_the_search():
    # with x = 1 each flow's only path is its direct edge: a space of 1
    topo = make_sample_topology("fig2a", 10.0)
    table = precompute_xpaths(topo, x=1, cap_c=ALL_PATHS)
    flows = make_flows([(3, 1, 0.01)] * 1000)
    assignment, mu = solve_exact(flows, table, topo)
    assert assignment.labels.tolist() == list(feasible_labels(table, 3, 1)) * 1000
    assert mu == pytest.approx(1.0)


def test_optimum_passes_validation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        topo = random_topology(rng, 5, edge_prob=0.6)
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        pairs = sorted(labels_by_pair(table))
        if not pairs:
            continue
        flows = make_flows(
            [(*pairs[rng.integers(len(pairs))], 2.0) for _ in range(3)]
        )
        assignment, _ = solve_exact(flows, table, topo)
        matrix = assemble(assignment, flows, table, topo)
        assert validate(matrix, flows, topo) == []


def test_smaller_table_never_improves_optimum(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 6.0), (3, 1, 6.0), (3, 2, 3.0)])
    _, mu_full = solve_exact(flows, table, topo)
    capped = precompute_xpaths(topo, x=3, cap_c=1)
    _, mu_capped = solve_exact(flows, capped, topo)
    shorter = precompute_xpaths(topo, x=1, cap_c=ALL_PATHS)
    _, mu_short = solve_exact(flows, shorter, topo)
    assert mu_capped >= mu_full
    assert mu_short >= mu_full


def test_budget_error(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)] * 12)
    with pytest.raises(SearchBudgetExceededError):
        solve_exact(flows, table, topo, budget=1000)


def test_no_feasible_path_names_flow(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0), (1, 3, 1.0)])  # node 3 unreachable from 1
    message = r"^flow 2 \(1 -> 3\) has no feasible path in the table$"
    with pytest.raises(CectLabError, match=message):
        solve_exact(flows, table, topo)


def test_missing_path_reported_before_budget(fig2a):
    # twelve two-path flows exceed the budget before the flow without a path
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)] * 12 + [(1, 3, 1.0)])
    message = r"^flow 13 \(1 -> 3\) has no feasible path in the table$"
    with pytest.raises(CectLabError, match=message):
        solve_exact(flows, table, topo, budget=1000)


def test_deterministic_tie_breaking(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 1.0)])
    runs = {int(solve_exact(flows, table, topo)[0].labels[0]) for _ in range(5)}
    assert runs == {3}
