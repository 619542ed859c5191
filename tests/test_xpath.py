import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab.errors import CectLabError
from cect_lab.routing import RoutingAssignment, format_assignment
from cect_lab.topology import Topology, make_fat_tree, make_sample_topology
from cect_lab.xpath import (
    feasible_labels,
    feasible_rows,
    format_paths,
    format_table,
    precompute_xpaths,
)

from helpers import (
    ALL_PATHS,
    all_hops,
    brute_force_simple_paths,
    edge_index,
    grow_xpaths,
    hops_of,
    labels_by_pair,
    make_flows,
    random_topology,
)

# Published 3-hop labeling of the 3-node sample, label -> hops.
GOLDEN_FIG2A = {
    1: (1, 2),
    2: (2, 1),
    3: (3, 1),
    4: (3, 2),
    5: (3, 2, 1),
    6: (3, 1, 2),
}

# Published 3-hop table of the 4-node sample (known to be non-exhaustive).
GOLDEN_FIG2B_SUBSET = [
    (1, 2), (2, 1), (3, 2), (3, 4), (4, 1), (4, 3),
    (1, 3, 2), (1, 3, 4), (3, 4, 1), (4, 1, 3), (4, 1, 2), (4, 3, 2),
]


@pytest.fixture(scope="module")
def fig2a_table():
    return precompute_xpaths(make_sample_topology("fig2a"), x=3, cap_c=ALL_PATHS)


def test_fig2a_golden_labels(fig2a_table):
    assert fig2a_table.path_count == 6
    assert dict(enumerate(all_hops(fig2a_table), 1)) == GOLDEN_FIG2A


def test_fig2a_golden_dump(fig2a_table):
    assert format_table(fig2a_table).splitlines() == [
        "label 1: 1 -> 2",
        "label 2: 2 -> 1",
        "label 3: 3 -> 1",
        "label 4: 3 -> 2",
        "label 5: 3 -> 2 -> 1",
        "label 6: 3 -> 1 -> 2",
    ]


def test_fig2b_superset_of_published_table():
    table = precompute_xpaths(make_sample_topology("fig2b"), x=3, cap_c=ALL_PATHS)
    have = set(all_hops(table))
    for hops in GOLDEN_FIG2B_SUBSET:
        assert hops in have
    assert (1, 3) in have
    assert (2, 1, 3) in have
    assert len(have) > len(GOLDEN_FIG2B_SUBSET)


def test_one_hop_paths_are_the_edge_set():
    topo = make_sample_topology("fig2a")
    table = precompute_xpaths(topo, x=1, cap_c=ALL_PATHS)
    assert set(all_hops(table)) == {(s, d) for s, d, _ in topo.links}


def test_feasible_labels_fig2a(fig2a_table):
    assert feasible_labels(fig2a_table, 3, 1) == (3, 5)
    assert feasible_labels(fig2a_table, 1, 3) == ()
    assert feasible_labels(fig2a_table, 2, 2) == ()
    # ids that are not switches: the sorted lookup must not alias a neighbour
    assert feasible_labels(fig2a_table, 0, 1) == feasible_labels(fig2a_table, 3, 4) == ()


def test_feasible_labels_stable(fig2a_table):
    first = feasible_labels(fig2a_table, 3, 2)
    assert first == feasible_labels(fig2a_table, 3, 2)
    assert first == (4, 6)


def test_feasible_rows_slice_pair_labels_as_feasible_labels(fig2a_table):
    flows = make_flows([(3, 1, 1.0), (1, 2, 1.0), (3, 2, 1.0), (3, 1, 1.0)])
    starts, lengths = feasible_rows(fig2a_table, flows)
    assert starts.dtype == lengths.dtype == np.int64
    rows = [fig2a_table.pair_labels[s : s + n].tolist() for s, n in zip(starts, lengths)]
    assert rows == [[3, 5], [1], [4, 6], [3, 5]]
    assert rows == [list(feasible_labels(fig2a_table, *pair)) for pair in flows.ends.tolist()]
    starts, lengths = feasible_rows(fig2a_table, make_flows([]))
    assert starts.size == lengths.size == 0
    assert starts.dtype == lengths.dtype == np.int64


def test_feasible_rows_names_first_flow_without_path(fig2a_table):
    # 1 -> 3 and 2 -> 3 have no path: node 3 has no in-edges
    flows = make_flows([(3, 1, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    with pytest.raises(CectLabError) as raised:
        feasible_rows(fig2a_table, flows)
    assert str(raised.value) == "flow 2 (1 -> 3) has no feasible path in the table"


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes=int(rng.integers(3, 8)), edge_prob=0.4)
    x = int(rng.integers(1, 5))
    table = precompute_xpaths(topo, x=x, cap_c=ALL_PATHS)
    assert set(all_hops(table)) == brute_force_simple_paths(topo, x)


@pytest.mark.parametrize("seed", range(5))
def test_growth_construction_agrees(seed):
    rng = np.random.default_rng(100 + seed)
    topo = random_topology(rng, n_nodes=6, edge_prob=0.45)
    x = int(rng.integers(1, 5))
    table = precompute_xpaths(topo, x=x, cap_c=ALL_PATHS)
    assert set(all_hops(table)) == grow_xpaths(topo, x)


def test_monotone_in_hop_bound():
    rng = np.random.default_rng(7)
    topo = random_topology(rng, n_nodes=6, edge_prob=0.4)
    previous: set = set()
    for x in range(1, 6):
        current = set(all_hops(precompute_xpaths(topo, x=x, cap_c=ALL_PATHS)))
        assert previous <= current
        previous = current


def test_deterministic_label_assignment():
    topo = make_fat_tree(4)
    t1 = precompute_xpaths(topo, x=4, cap_c=50)
    t2 = precompute_xpaths(topo, x=4, cap_c=50)
    assert all_hops(t1) == all_hops(t2)


def test_labels_dense_and_indexed(fig2a_table):
    assert fig2a_table.path_count == 6
    pairs = itertools.product((1, 2, 3), repeat=2)
    rows = {pair: feasible_labels(fig2a_table, *pair) for pair in pairs}
    assert sorted(label for labels in rows.values() for label in labels) == list(range(1, 7))
    for pair, labels in rows.items():
        for hops in hops_of(fig2a_table, labels):
            assert (hops[0], hops[-1]) == pair


def test_per_pair_cap_keeps_shortest_first():
    topo = make_sample_topology("fig2a")
    capped = precompute_xpaths(topo, x=3, cap_c=1)
    assert set(all_hops(capped)) == {(1, 2), (2, 1), (3, 1), (3, 2)}
    full = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
    for pair in labels_by_pair(capped):
        labels = feasible_labels(capped, *pair)
        assert len(labels) == 1
        kept = hops_of(capped, labels)[0]
        shortest = hops_of(full, feasible_labels(full, *pair)[:1])[0]
        assert kept == shortest


def test_pair_lists_sorted_by_hops_then_label():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=ALL_PATHS)
    for pair in labels_by_pair(table):
        labels = feasible_labels(table, *pair)
        hops = [int(table.edge_ptr[l] - table.edge_ptr[l - 1]) for l in labels]
        assert hops == sorted(hops)
        assert list(labels) == sorted(labels)


def test_cap_bounds_pair_sizes():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=3)
    assert all(len(feasible_labels(table, *pair)) <= 3 for pair in labels_by_pair(table))


def test_rejects_bad_parameters():
    topo = make_sample_topology("fig2a")
    with pytest.raises(ValueError):
        precompute_xpaths(topo, x=0, cap_c=ALL_PATHS)
    with pytest.raises(ValueError):
        precompute_xpaths(topo, x=3, cap_c=0)


def test_xpath_invariants():
    # every path has at least one edge, visits no switch twice, and its
    # hop count is its edge count
    table = precompute_xpaths(make_fat_tree(4), x=4, cap_c=ALL_PATHS)
    for label, hops in enumerate(all_hops(table), 1):
        assert len(hops) >= 2
        assert len(set(hops)) == len(hops)
        assert table.edge_ptr[label] - table.edge_ptr[label - 1] == len(hops) - 1


def test_every_path_forms_a_valid_single_flow_route():
    # cross-module: each enumerated path, treated as a one-flow routing,
    # satisfies all structural rules of the validator
    from cect_lab.routing import RoutingAssignment, assemble, validate
    from cect_lab.traffic import Flow, FlowSet

    rng = np.random.default_rng(42)
    for _ in range(5):
        topo = random_topology(rng, 6, edge_prob=0.5)
        table = precompute_xpaths(topo, x=4, cap_c=ALL_PATHS)
        for label, hops in enumerate(all_hops(table), 1):
            flowset = FlowSet(flows=(Flow(id=1, src=hops[0], dst=hops[-1], demand=1.0),))
            matrix = assemble(RoutingAssignment(np.array([label])), flowset, table, topo)
            assert validate(matrix, flowset, topo) == []


def _table_order(hops):
    return (len(hops), hops[0], hops[-1], hops)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 6),
    edge_prob=st.floats(0.2, 0.9),
    x=st.integers(1, 4),
    cap_c=st.one_of(st.just(ALL_PATHS), st.integers(1, 5)),
    pods=st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 1), st.booleans())), max_size=6),
)
def test_table_matches_brute_force_ranking(seed, n_nodes, edge_prob, x, cap_c, pods):
    topo = random_topology(np.random.default_rng(seed), n_nodes, edge_prob)
    # pods[i] is (pod, access) for switch i+1, or None to leave it unlabeled
    # like a core switch; with any label only edge switches end paths. An
    # access switch drops its links out of its pod, so that it is an edge
    # switch with out-links and paths may run through switches that are not
    placed = {node: p for node, p in zip(topo.nodes, pods) if p is not None}
    pod_of = {node: pod for node, (pod, _) in placed.items()}
    links = tuple(
        (s, d, c) for s, d, c in topo.links
        if not (s in placed and placed[s][1]) or pod_of.get(d) == pod_of[s]
    )
    topo = Topology(nodes=topo.nodes, links=links, pod_of=pod_of)
    ends = set(topo.edge_switches)
    table = precompute_xpaths(topo, x=x, cap_c=cap_c)
    every = {p for p in brute_force_simple_paths(topo, x) if p[0] in ends and p[-1] in ends}

    # labels are dense and ordered by (length, src, dst, hop sequence)
    hops = all_hops(table)
    assert hops == sorted(set(hops), key=_table_order)

    # each pair keeps its cap_c shortest paths, in label order
    ranked: dict[tuple[int, int], list] = {}
    for path in sorted(every, key=_table_order):
        ranked.setdefault((path[0], path[-1]), []).append(path)
    expected = {pair: paths[:cap_c] for pair, paths in ranked.items()}
    pairs = itertools.product(topo.nodes, repeat=2)
    rows = {pair: feasible_labels(table, *pair) for pair in pairs}
    assert {
        pair: [hops[label - 1] for label in labels] for pair, labels in rows.items() if labels
    } == expected
    if cap_c == ALL_PATHS:
        assert set(hops) == every

    # each CSR row holds the edge ids of its path's hops
    ptr, edges = table.label_edge_csr(topo)
    ids = edge_index(topo)
    for label, path in enumerate(hops, 1):
        row = edges[ptr[label - 1] : ptr[label]].tolist()
        assert row == [ids[e] for e in zip(path[:-1], path[1:])]
        assert table.edge_ptr[label] - table.edge_ptr[label - 1] == len(path) - 1

    # both dumps write each label's hops as hops_of reads them from the edge
    # keys: the table in label order, and an assignment of one flow per label
    # in a random order
    def dump(head, labels):
        return "".join(head.format(i, label) + " -> ".join(map(str, h)) + "\n"
                       for i, label, h in zip(itertools.count(1), labels, hops_of(table, labels)))

    assert format_table(table) == dump("label {1}: ", range(1, table.path_count + 1))
    shuffled = np.random.default_rng(seed).permutation(table.path_count) + 1
    flows = make_flows([(hops[label - 1][0], hops[label - 1][-1], 1.0) for label in shuffled])
    text = format_assignment(RoutingAssignment(shuffled), flows, table)
    assert text == dump("flow {0} via {1}: ", shuffled)


@pytest.mark.parametrize("cap_c", [1, 2, ALL_PATHS])
@pytest.mark.parametrize("x", range(1, 7))
def test_switches_cut_by_distance_drop_no_kept_path(x, cap_c):
    # 1 and 2 are pod 0's edge switches and 3 its aggregation switch. From 8
    # and 9 no edge switch can be reached; 5 reaches one only in 3 hops
    # (5 -> 6 -> 7 -> 2), so a path through 3 -> 5 fits only from x = 5 on,
    # and a row that reaches 5 with fewer hops left is cut before it grows
    links = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (3, 4), (4, 2),
             (3, 5), (5, 6), (6, 7), (7, 2), (3, 8), (8, 9), (9, 8)]
    topo = Topology(nodes=tuple(range(1, 10)), links=tuple((s, d, 10.0) for s, d in links),
                    pod_of={1: 0, 2: 0, 3: 0})
    assert topo.edge_switches == (1, 2)
    every = brute_force_simple_paths(topo, x)
    ranked: dict[tuple[int, int], list] = {}
    for path in sorted(every, key=_table_order):
        if {path[0], path[-1]} <= {1, 2}:
            ranked.setdefault((path[0], path[-1]), []).append(path)
    expected = sorted((p for paths in ranked.values() for p in paths[:cap_c]), key=_table_order)
    table = precompute_xpaths(topo, x, cap_c)
    assert all_hops(table) == expected
    for pair, paths in ranked.items():
        assert hops_of(table, feasible_labels(table, *pair)) == paths[:cap_c]
    # the cut switches do lie on simple paths from an edge switch, just on
    # none that is kept
    assert any(path[0] == 1 and 8 in path for path in every) == (x >= 2)
    assert any(5 in path for path in expected) == (x >= 5 and cap_c == ALL_PATHS)


@pytest.mark.parametrize("k, count, digest", [
    (4, 208, "fba5a012118fdd1bff3060f9335e47bb0168fb847b609829b1174a6df015e3db"),
    (6, 2754, "b4f57fdb56781222d3af5b27201c075f8adcc8f144d1c7aa05a98b528ba3d318"),
    (8, 17_024, "61ae9a078b82d5bcc67bd5e86f627b2d732f5e2151d5c15995b9b7f53b2e7315"),
    (12, 189_072, "b962d7977b3fb56b7620e340898b6931419ed5bca265cc4f15c82def70cb5400"),
], ids=["k4", "k6", "k8", "k12"])
def test_fat_tree_table_dump_is_pinned(k, count, digest):
    table = precompute_xpaths(make_fat_tree(k), 4, 50)
    assert table.path_count == count
    assert hashlib.sha256(format_table(table).encode()).hexdigest() == digest


def test_fat_tree_table_build_peak_memory_is_bounded():
    # the k=12 table keeps 186,912 4-hop paths. The last hop extends rows only
    # along edges into access switches (235,872 candidates, 214,272 of them
    # simple), and only the kept paths' rows are built: the build peaks at 22,541,390
    # bytes, and the bound is 1.1 times that. Stacking every simple row of
    # 4 hops (421,632 of 471,744 extensions) before the cut peaked at 40.3 MB
    topo = make_fat_tree(12)
    tracemalloc.start()
    try:
        precompute_xpaths(topo, 4, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_795_600, peak


def test_label_edge_csr_rejects_another_topology():
    base = make_fat_tree(4)
    table = precompute_xpaths(base, x=4, cap_c=50)
    ptr, edges = table.label_edge_csr(base)
    # same edges, so same numbering: the prebuilt CSR is returned
    assert table.label_edge_csr(make_fat_tree(4, 10.0, 20.0, 30.0))[1] is edges
    # an extra access-to-access link shifts the ids of every later edge
    wider = Topology(
        nodes=base.nodes, links=base.links + ((1, 2, 100.0),), pod_of=base.pod_of
    )
    assert wider.edge_keys != base.edge_keys
    with pytest.raises(ValueError, match="edge 1 -> 2 differs"):
        table.label_edge_csr(wider)
    # a second fat-tree reuses the switch ids with other wiring
    with pytest.raises(ValueError, match="another topology"):
        table.label_edge_csr(make_fat_tree(6))
    ids = edge_index(base)
    assert edges.tolist() == [ids[e] for h in all_hops(table) for e in zip(h, h[1:])]
    assert ptr.tolist() == [0, *np.cumsum(np.diff(table.edge_ptr)).tolist()]


def test_format_paths_writes_labels_in_the_given_order(fig2a_table):
    text = format_paths(fig2a_table, np.array([6, 1, 6]), "row %d label %d: ",
                        np.array([1, 2, 3]), np.array([6, 1, 6]))
    assert text == "row 1 label 6: 3 -> 1 -> 2\nrow 2 label 1: 1 -> 2\nrow 3 label 6: 3 -> 1 -> 2\n"
    assert format_paths(fig2a_table, np.array([], dtype=np.int64), "%d: ", np.array([])) == ""


def test_endpoint_table_routes_like_the_all_pairs_table():
    # a pod-stripped copy of the fabric has every switch as an edge switch,
    # so its table holds all pairs; flows only use access-switch pairs, and
    # every solver draws by offset within a flow's feasible row, so both
    # tables must give the same routes hop for hop
    from cect_lab.ecmp import route_ecmp
    from cect_lab.exact import solve_exact
    from cect_lab.ga import GaConfig, run_cect
    from cect_lab.traffic import generate_flows

    topo = make_fat_tree(4, 200.0, 200.0, 100.0)
    flat = Topology(nodes=topo.nodes, links=topo.links, pod_of={})
    table, full = precompute_xpaths(topo, 4, 50), precompute_xpaths(flat, 4, 50)
    assert table.path_count == 208
    # the all-pairs table every fat-tree had before tables joined edge switches only
    assert hashlib.sha256(format_table(full).encode()).hexdigest() == (
        "40609fa60166ffd055f8f6fdd62d945df6bec8c8a5813b16dd30323ed1679edd"
    )
    ends = set(topo.edge_switches)
    assert set(labels_by_pair(table)) == {p for p in labels_by_pair(full) if set(p) <= ends}
    for pair, labels in labels_by_pair(table).items():
        assert feasible_labels(table, *pair) == labels
        assert hops_of(table, labels) == hops_of(full, feasible_labels(full, *pair))

    def hops(assignment, flows, tab):
        return hops_of(tab, assignment.labels)

    even = {"micro": 0.25, "small": 0.25, "medium": 0.25, "big": 0.25}
    flows = generate_flows(topo, 300, even, plr=0.7, seed=11)
    config = GaConfig(max_iterations=30, seed=5)
    ga_new, mu_new, stats_new = run_cect(flows, table, topo, config)
    ga_all, mu_all, stats_all = run_cect(flows, full, flat, config)
    assert hops(ga_new, flows, table) == hops(ga_all, flows, full)
    assert mu_new == mu_all and stats_new.rows == stats_all.rows
    assert hops(route_ecmp(flows, topo, table), flows, table) == hops(
        route_ecmp(flows, flat, full), flows, full
    )

    few = generate_flows(topo, 6, {"big": 1.0}, plr=0.5, seed=3)
    small, small_full = precompute_xpaths(topo, 4, 4), precompute_xpaths(flat, 4, 4)
    exact_new, exact_mu_new = solve_exact(few, small, topo)
    exact_all, exact_mu_all = solve_exact(few, small_full, flat)
    assert hops(exact_new, few, small) == hops(exact_all, few, small_full)
    assert exact_mu_new == exact_mu_all
