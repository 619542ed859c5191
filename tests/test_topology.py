import pytest

from cect_lab.errors import TopologyFormatError
from cect_lab.topology import (
    Topology,
    load_topology,
    make_fat_tree,
    make_sample_topology,
    save_topology,
    structurally_equal,
)

SAMPLE_EDGE_SETS = {
    "fig2a": {(1, 2), (2, 1), (3, 1), (3, 2)},
    "fig2b": {(1, 2), (2, 1), (1, 3), (3, 2), (3, 4), (4, 1), (4, 3)},
}


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_fat_tree_node_count(k):
    topo = make_fat_tree(k)
    assert topo.node_count == 5 * k * k // 4


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_fat_tree_link_count(k):
    # k^3/4 access-agg physical links plus k^3/4 agg-core, two directions each
    topo = make_fat_tree(k)
    assert topo.link_count == k**3
    physical = {tuple(sorted((s, d))) for s, d, _ in topo.links}
    assert len(physical) == k**3 // 2


@pytest.mark.parametrize("k", [2, 4, 6])
def test_fat_tree_strongly_connected(k):
    assert make_fat_tree(k).is_strongly_connected()


def test_fat_tree_k4_matches_published_size():
    topo = make_fat_tree(4)
    assert topo.node_count == 20
    assert len(topo.core_ids) == 4
    assert len(topo.agg_ids) == 8
    assert len(topo.edge_ids) == 8


def test_fat_tree_k6_matches_published_size():
    assert make_fat_tree(6).node_count == 45


def test_fat_tree_k2_is_minimal():
    topo = make_fat_tree(2)
    assert topo.node_count == 5
    assert topo.link_count == 8


def test_fat_tree_pod_structure():
    topo = make_fat_tree(4)
    assert set(topo.pod_of) == set(topo.edge_ids) | set(topo.agg_ids)
    assert topo.pod_count == 4
    for pod in range(4):
        members = [n for n, p in topo.pod_of.items() if p == pod]
        assert len(members) == 4  # k/2 access + k/2 aggregation
    # every access switch links to all aggregation switches of its pod
    for e in topo.edge_ids:
        pod_aggs = {a for a in topo.agg_ids if topo.pod_of[a] == topo.pod_of[e]}
        assert set(topo.out_neighbors(e)) == pod_aggs


def test_fat_tree_agg_core_wiring():
    topo = make_fat_tree(4)
    half = 2
    for pod in range(4):
        pod_aggs = sorted(a for a in topo.agg_ids if topo.pod_of[a] == pod)
        for j, agg in enumerate(pod_aggs):
            cores = {n for n in topo.out_neighbors(agg) if n in topo.core_ids}
            expected = set(topo.core_ids[j * half : (j + 1) * half])
            assert cores == expected


def test_fat_tree_tier_capacities():
    topo = make_fat_tree(4, edge_capacity=10.0, agg_capacity=20.0, core_capacity=30.0)
    capacity = {(s, d): cap for s, d, cap in topo.links}
    e, a, c = topo.edge_ids[0], topo.agg_ids[0], topo.core_ids[0]
    assert capacity[e, topo.out_neighbors(e)[0]] == 10.0
    assert capacity[a, e] == 20.0  # same pod, downlink uses agg tier rate
    agg_up = [n for n in topo.out_neighbors(a) if n in topo.core_ids][0]
    assert capacity[a, agg_up] == 20.0
    agg_down = [n for n in topo.out_neighbors(c) if n in topo.agg_ids][0]
    assert capacity[c, agg_down] == 30.0


@pytest.mark.parametrize("k", [0, -2, 3, 5])
def test_fat_tree_rejects_bad_arity(k):
    with pytest.raises(ValueError):
        make_fat_tree(k)


def test_fat_tree_rejects_bad_capacity():
    with pytest.raises(ValueError):
        make_fat_tree(4, edge_capacity=0.0)


@pytest.mark.parametrize("which", ["fig2a", "fig2b"])
def test_sample_topology_edges(which):
    topo = make_sample_topology(which, 10.0)
    assert {(s, d) for s, d, _ in topo.links} == SAMPLE_EDGE_SETS[which]


def test_sample_topology_sizes():
    assert make_sample_topology("fig2a").node_count == 3
    assert make_sample_topology("fig2a").link_count == 4
    assert make_sample_topology("fig2b").node_count == 4
    assert make_sample_topology("fig2b").link_count == 7


@pytest.mark.parametrize("capacity", [1.0, 10.0, 2.5])
def test_sample_topology_uniform_capacity(capacity):
    topo = make_sample_topology("fig2a", capacity)
    assert all(c == capacity for _, _, c in topo.links)


def test_sample_topology_rejects_bad_input():
    with pytest.raises(ValueError):
        make_sample_topology("fig9z")
    with pytest.raises(ValueError):
        make_sample_topology("fig2a", 0.0)


@pytest.mark.parametrize("builder", [
    lambda: make_sample_topology("fig2a", 10.0),
    lambda: make_sample_topology("fig2b", 3.0),
    lambda: make_fat_tree(4, 10.0, 20.0, 30.0),
    lambda: make_fat_tree(4, 100.123456789, 0.1 + 0.2, 1 / 3),
])
def test_save_load_round_trip(builder, tmp_path):
    topo = builder()
    path = tmp_path / "topo.txt"
    save_topology(topo, path)
    assert structurally_equal(load_topology(path), topo)


def test_load_rejects_zero_capacity(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nnode 2\nedge 1 2 0\n")
    with pytest.raises(TopologyFormatError, match="line 3"):
        load_topology(path)


def test_load_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nedge 1 1 5\n")
    with pytest.raises(TopologyFormatError, match="self-loop"):
        load_topology(path)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nnode 2\nedge 1 2 5\nedge 1 2 7\n")
    with pytest.raises(TopologyFormatError, match="duplicate"):
        load_topology(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("switch 1\n")
    with pytest.raises(TopologyFormatError, match="line 1"):
        load_topology(path)


def test_load_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# header\n\nnode 1\nnode 2\nedge 1 2 5 # uplink\n")
    topo = load_topology(path)
    assert topo.node_count == 2
    assert topo.links == ((1, 2, 5.0),)


def test_topology_invariants_enforced():
    with pytest.raises(TopologyFormatError):
        Topology(nodes=(1, 2), links=((1, 1, 5.0),))
    with pytest.raises(TopologyFormatError):
        Topology(nodes=(1, 2), links=((1, 2, 5.0), (1, 2, 3.0)))
    with pytest.raises(TopologyFormatError):
        Topology(nodes=(1, 2), links=((1, 2, -1.0),))
    with pytest.raises(TopologyFormatError):
        Topology(nodes=(1,), links=((1, 2, 5.0),))


def test_edge_switches_structural_recovery(tmp_path):
    topo = make_fat_tree(4)
    path = tmp_path / "ft.txt"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded.edge_switches() == sorted(topo.edge_ids)


def test_edge_switches_podless_is_all_nodes():
    topo = make_sample_topology("fig2b")
    assert topo.edge_switches() == [1, 2, 3, 4]
