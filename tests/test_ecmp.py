import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab import experiment
from cect_lab.ecmp import fnv1a64, route_ecmp
from cect_lab.errors import CectLabError
from cect_lab.exact import solve_exact
from cect_lab.ga import GaConfig, run_cect
from cect_lab.routing import assemble, validate
from cect_lab.topology import make_fat_tree, make_sample_topology
from cect_lab.traffic import generate_flows
from cect_lab.xpath import feasible_labels, feasible_rows, precompute_xpaths

from helpers import (
    ALL_PATHS,
    bfs_distance,
    labels_by_pair,
    make_flows,
    random_topology,
    reference_route_ecmp,
)


def test_single_shortest_path_always_chosen():
    topo = make_sample_topology("fig2a", 10.0)
    table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
    flows = make_flows([(1, 2, 1.0)] * 5)
    assignment = route_ecmp(flows, topo, table)
    assert assignment.labels.tolist() == [1] * 5


def test_inter_pod_flows_take_four_hops():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 100, {"small": 1.0}, plr=1.0, seed=0)
    assignment = route_ecmp(flows, topo, table)
    assert set(np.diff(table.edge_ptr)[assignment.labels - 1].tolist()) == {4}


def test_chosen_paths_are_bfs_shortest():
    rng = np.random.default_rng(1)
    for _ in range(10):
        topo = random_topology(rng, 6, edge_prob=0.5)
        table = precompute_xpaths(topo, x=4, cap_c=ALL_PATHS)
        pairs = list(labels_by_pair(table))
        if not pairs:
            continue
        flows = make_flows(
            [(*pairs[rng.integers(len(pairs))], 1.0) for _ in range(6)]
        )
        assignment = route_ecmp(flows, topo, table)
        hop_counts = np.diff(table.edge_ptr)[assignment.labels - 1]
        for flow, hops in zip(flows.flows, hop_counts):
            assert hops == bfs_distance(topo, flow.src)[flow.dst]


def test_same_pair_different_ids_spread():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    src, dst = topo.edge_switches[0], topo.edge_switches[2]  # different pods
    flows = make_flows([(src, dst, 1.0)] * 64)
    assignment = route_ecmp(flows, topo, table)
    chosen = set(assignment.labels.tolist())
    assert len(chosen) > 1  # hash spreads across the 4 equal-cost paths
    hop_counts = {int(table.edge_ptr[l] - table.edge_ptr[l - 1]) for l in chosen}
    assert hop_counts == {4}


def test_deterministic_assignments():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 200, {"micro": 0.5, "small": 0.5}, plr=0.6, seed=3)
    a = route_ecmp(flows, topo, table)
    b = route_ecmp(flows, topo, table)
    assert np.array_equal(a.labels, b.labels)


def test_hash_is_pinned():
    # 64-bit FNV-1a over 8-byte little-endian values; fixed reference digests
    # keep the path selection reproducible across implementations
    one, two, three = (np.array([v]) for v in (1, 2, 3))
    assert fnv1a64(one, two, three).tolist() != fnv1a64(three, two, one).tolist()
    assert fnv1a64(np.array([0])).tolist() == [0xA8C7F832281A39C5]
    assert fnv1a64(one, two, three).tolist() == [0xDA2BFB225E0D1F05]


def _fnv1a64_reference(*values: int) -> int:
    digest = 0xCBF29CE484222325
    for value in values:
        for byte in int(value).to_bytes(8, "little", signed=True):
            digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


def test_array_hash_matches_bytewise_reference():
    rng = np.random.default_rng(12)
    info = np.iinfo(np.int64)
    triples = rng.integers(info.min, info.max, size=(2000, 3), endpoint=True)
    triples[:10] = [[0, 0, 0], [-1, -1, -1], [info.min, info.max, 0], [1, 2, 3],
                    [-5, 7, -9], [255, 256, -256], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 2, 2]]
    digests = fnv1a64(*triples.T)
    assert digests.dtype == np.uint64
    assert digests.tolist() == [_fnv1a64_reference(*t) for t in triples.tolist()]
    # a value's digest does not depend on the shape it is hashed in
    assert [fnv1a64(*t).item() for t in triples[:10, :, None]] == digests[:10].tolist()


def test_routes_pass_validation():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 150, {"small": 0.7, "big": 0.3}, plr=0.5, seed=4)
    assignment = route_ecmp(flows, topo, table)
    matrix = assemble(assignment, flows, table, topo)
    assert validate(matrix, flows, topo) == []


def test_shortest_pins_every_flow_to_its_first_label():
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    src, dst = topo.edge_switches[0], topo.edge_switches[2]
    flows = make_flows([(src, dst, 1.0)] * 64)
    assignment, stats = experiment.solve("shortest", flows, table, topo, GaConfig())
    assert stats is None
    assert assignment.labels.tolist() == [feasible_labels(table, src, dst)[0]] * 64
    # hash ECMP spreads the same flows over all of the pair's shortest paths
    assert len(set(route_ecmp(flows, topo, table).labels.tolist())) > 1
    message = r"^flow 2 \(1 -> 9\) has no feasible path in the table$"
    with pytest.raises(CectLabError, match=message):
        experiment.solve("shortest", make_flows([(src, dst, 1.0), (1, 9, 1.0)]), table, topo,
                         GaConfig())


def test_route_ecmp_rejects_a_table_of_another_topology():
    table = precompute_xpaths(make_fat_tree(4), x=4, cap_c=50)
    flows = make_flows([(1, 3, 1.0)])
    with pytest.raises(ValueError, match="table was built for another topology"):
        route_ecmp(flows, make_fat_tree(6), table)


SOLVERS = {
    "ecmp": lambda flows, table, topo: route_ecmp(flows, topo, table),
    "cect": lambda flows, table, topo: run_cect(flows, table, topo, GaConfig(seed=0)),
    "exact": lambda flows, table, topo: solve_exact(flows, table, topo),
}


@pytest.mark.parametrize(
    "topo, x, dst",
    [
        (make_sample_topology("fig2a"), 3, 3),  # no edge enters switch 3
        (make_fat_tree(4), 2, 3),  # another pod: 4 hops, beyond the bound
        (make_fat_tree(4), 4, 9),  # an aggregation switch, where no path ends
        (make_fat_tree(4), 4, 21),  # above every id: an unchecked lookup reads 3 -> 1
        (make_fat_tree(4), 4, 0),  # below every id: an unchecked lookup reads 2 -> 1
    ],
    ids=["unreachable", "hop-bound", "to-aggregation", "unknown-above", "unknown-below"],
)
def test_every_solver_names_the_flow_without_a_path(topo, x, dst):
    table = precompute_xpaths(topo, x=x, cap_c=ALL_PATHS)
    flows = make_flows([(1, 2, 1.0), (2, dst, 1.0)])
    for solve in SOLVERS.values():
        message = rf"^flow 2 \(2 -> {dst}\) has no feasible path in the table$"
        with pytest.raises(CectLabError, match=message):
            solve(flows, table, topo)


MIX = {"micro": 0.9775, "small": 0.0175, "big": 0.005}


@pytest.mark.parametrize(
    "k, n_flows, seed, digest",
    [
        (4, 2000, 0, "d56fe6dec5fa13f1c5e47deefbb96dabb6c881e338349bdb5fa5a49f4db7ba2a"),
        (8, 20000, 1, "030f17386fb34065e5951d016500999973d3dd4f67f3028c658e24a3ab7eb980"),
    ],
    ids=["k4-2000", "k8-20000"],
)
def test_route_ecmp_output_is_pinned(k, n_flows, seed, digest):
    # the acceptance mix on the solver-benchmark tables: ECMP's labels must
    # not move when its candidate lookup changes
    topo = make_fat_tree(k)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, n_flows, MIX, plr=0.95, seed=seed)
    assignment = route_ecmp(flows, topo, table)
    assert assignment.labels.dtype == np.int64
    assert hashlib.sha256(assignment.labels.tobytes()).hexdigest() == digest


def _check_route_ecmp_equals_the_reference(topo, table):
    # a flow on every pair with a path, each pair twice, in a random order,
    # so that the hash picks vary with the flow id
    pairs = list(labels_by_pair(table)) * 2
    order = np.random.default_rng(len(pairs)).permutation(len(pairs))
    flows = make_flows([(*pairs[i], 1.0) for i in order])
    expected = reference_route_ecmp(flows, topo, table).labels
    assert np.array_equal(route_ecmp(flows, topo, table).labels, expected)
    return flows


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 6),
    edge_prob=st.floats(0.2, 0.9),
    x=st.integers(1, 3),
    cap_c=st.one_of(st.just(ALL_PATHS), st.integers(1, 4)),
)
def test_route_ecmp_equals_the_per_flow_reference(seed, n_nodes, edge_prob, x, cap_c):
    topo = random_topology(np.random.default_rng(seed), n_nodes, edge_prob)
    _check_route_ecmp_equals_the_reference(topo, precompute_xpaths(topo, x=x, cap_c=cap_c))


@pytest.mark.parametrize("cap_c", [2, 50])
def test_route_ecmp_ends_a_whole_shortest_row_at_the_next_pair_row(cap_c):
    # a k=4 fat tree's inter-pod rows (and at cap_c 2 its in-pod rows) hold
    # only minimum-hop paths, so their prefix is the whole row. The next pair
    # row starts on other hops after some (a hop change at the row's end) and
    # on the same hops after others, where only the row's end cuts the prefix
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=cap_c)
    flows = _check_route_ecmp_equals_the_reference(topo, table)
    hops = np.append(np.diff(table.edge_ptr)[table.pair_labels - 1], 0)
    kinds = set()
    for start, length in zip(*feasible_rows(table, flows)):
        row = hops[start : start + length]
        if (row == row[0]).all():
            kinds.add(bool(hops[start + length] != row[0]))
    assert kinds == {True, False}


def test_candidate_reads_peak_memory_is_bounded():
    # solve-k12's shape: 20,000 flows on a k=12 fabric (189,072 labels), which
    # ECMP and "shortest" read as each flow's slice of the table's pair rows.
    # route_ecmp peaks at 4,858,264 bytes and "shortest" at 791,312; the bounds
    # are 1.1 times those. A per-flow copy of every candidate label (734k
    # entries) took them to 19.3 MB and 12.6 MB
    topo = make_fat_tree(12, 200.0, 200.0, 100.0)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 20_000, MIX, plr=0.95, seed=1)
    for solve, bound in (
        (lambda: route_ecmp(flows, topo, table), 5_344_100),
        (lambda: experiment.solve("shortest", flows, table, topo, GaConfig()), 870_500),
    ):
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 6),
    edge_prob=st.floats(0.2, 0.9),
    x=st.integers(1, 3),
    cap_c=st.one_of(st.just(ALL_PATHS), st.integers(1, 4)),
    n_flows=st.integers(1, 3),
)
def test_solvers_share_the_feasible_rows(seed, n_nodes, edge_prob, x, cap_c, n_flows):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes, edge_prob)
    table = precompute_xpaths(topo, x=x, cap_c=cap_c)
    reference = labels_by_pair(table)
    for pair in itertools.product((0, *topo.nodes, n_nodes + 1), repeat=2):
        assert feasible_labels(table, *pair) == reference.get(pair, ())
    pairs = list(reference)
    flows = make_flows(
        [(*pairs[rng.integers(len(pairs))], float(rng.integers(1, 9))) for _ in range(n_flows)]
    )
    starts, lengths = feasible_rows(table, flows)
    rows = [tuple(table.pair_labels[a : a + n].tolist()) for a, n in zip(starts, lengths)]
    assert rows == [reference[(f.src, f.dst)] for f in flows.flows]

    ecmp = route_ecmp(flows, topo, table)
    cect, _, _ = run_cect(flows, table, topo, GaConfig(max_iterations=3, seed=seed))
    exact, _ = solve_exact(flows, table, topo)
    matrices = {}
    for name, assignment in (("ecmp", ecmp), ("cect", cect), ("exact", exact)):
        matrices[name] = assemble(assignment, flows, table, topo)
        assert validate(matrices[name], flows, topo) == [], name
    for flow, hops in zip(flows.flows, np.diff(table.edge_ptr)[ecmp.labels - 1]):
        assert hops == bfs_distance(topo, flow.src)[flow.dst]
    assert matrices["exact"].mu <= matrices["cect"].mu
