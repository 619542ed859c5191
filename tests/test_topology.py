import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab.errors import CectLabError
from cect_lab.topology import (
    Topology,
    load_topology,
    make_fat_tree,
    make_sample_topology,
    save_topology,
)

from helpers import bfs_distance, out_neighbors, random_topology, reference_edge_switches


def _tiers(k):
    """Access, aggregation and core switch ids of make_fat_tree(k)."""
    n = k * k // 2
    return range(1, n + 1), range(n + 1, 2 * n + 1), range(2 * n + 1, 2 * n + k * k // 4 + 1)


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
    topo = make_fat_tree(k)
    for node in topo.nodes:
        assert len(bfs_distance(topo, node)) == topo.node_count


def test_fat_tree_k4_matches_published_size():
    topo = make_fat_tree(4)
    assert topo.node_count == 20
    edge_ids, agg_ids, core_ids = _tiers(4)
    assert topo.edge_switches == tuple(edge_ids)
    assert len(edge_ids) == 8
    assert len(agg_ids) == 8
    assert len(core_ids) == 4
    assert set(topo.nodes) == {*edge_ids, *agg_ids, *core_ids}


def test_fat_tree_k6_matches_published_size():
    assert make_fat_tree(6).node_count == 45


def test_fat_tree_k2_is_minimal():
    topo = make_fat_tree(2)
    assert topo.node_count == 5
    assert topo.link_count == 8


def test_fat_tree_pod_structure():
    topo = make_fat_tree(4)
    edge_ids, agg_ids, _ = _tiers(4)
    assert set(topo.pod_of) == {*edge_ids, *agg_ids}
    assert len(set(topo.pod_of.values())) == 4
    for pod in range(4):
        members = [n for n, p in topo.pod_of.items() if p == pod]
        assert len(members) == 4  # k/2 access + k/2 aggregation
    # every access switch links to all aggregation switches of its pod
    for e in edge_ids:
        pod_aggs = {a for a in agg_ids if topo.pod_of[a] == topo.pod_of[e]}
        assert set(out_neighbors(topo, e)) == pod_aggs


def test_fat_tree_agg_core_wiring():
    topo = make_fat_tree(4)
    half = 2
    _, agg_ids, core_ids = _tiers(4)
    for pod in range(4):
        pod_aggs = sorted(a for a in agg_ids if topo.pod_of[a] == pod)
        for j, agg in enumerate(pod_aggs):
            cores = {n for n in out_neighbors(topo, agg) if n in core_ids}
            expected = set(core_ids[j * half : (j + 1) * half])
            assert cores == expected


def test_fat_tree_tier_capacities():
    topo = make_fat_tree(4, edge_capacity=10.0, agg_capacity=20.0, core_capacity=30.0)
    capacity = {(s, d): cap for s, d, cap in topo.links}
    edge_ids, agg_ids, core_ids = _tiers(4)
    e, a, c = edge_ids[0], agg_ids[0], core_ids[0]
    assert capacity[e, out_neighbors(topo, e)[0]] == 10.0
    assert capacity[a, e] == 20.0  # same pod, downlink uses agg tier rate
    agg_up = [n for n in out_neighbors(topo, a) if n in core_ids][0]
    assert capacity[a, agg_up] == 20.0
    agg_down = [n for n in out_neighbors(topo, c) if n in agg_ids][0]
    assert capacity[c, agg_down] == 30.0


@pytest.mark.parametrize("k", [0, -2, 3, 5])
def test_fat_tree_rejects_bad_arity(k):
    with pytest.raises(ValueError):
        make_fat_tree(k)


def capacity_error(capacity, edge="1 -> 2", where=""):
    """The whole message for a capacity that keeps no load unit, as a match pattern."""
    message = f"{where}capacity {capacity} of edge {edge} is not finite and > 0 in load units"
    return f"^{re.escape(message)}$"


def test_fat_tree_rejects_bad_capacity():
    with pytest.raises(CectLabError, match=capacity_error(0.0, edge="1 -> 9")):
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
    with pytest.raises(CectLabError, match=capacity_error(0.0)):
        make_sample_topology("fig2a", 0.0)


@pytest.mark.parametrize("builder", [
    lambda: make_sample_topology("fig2a", 10.0),
    lambda: make_sample_topology("fig2b", 3.0),
    lambda: make_fat_tree(4, 10.0, 20.0, 30.0),
    lambda: make_fat_tree(4, 100.123456789, 0.1 + 0.2, 1 / 3),
    lambda: make_fat_tree(4, 200, 200, 100),
])
def test_save_load_round_trip(builder, tmp_path):
    # the reload keeps every field and digit, and saving it again writes the same bytes
    topo = builder()
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_topology(topo, first)
    loaded = load_topology(first)
    assert loaded == topo
    assert loaded.edge_keys == topo.edge_keys
    assert loaded.cap_units.tolist() == topo.cap_units.tolist()
    save_topology(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("capacity", ["0", "-1", "inf", "nan", "0.0001"])
def test_load_rejects_zero_capacity(tmp_path, capacity):
    path = tmp_path / "bad.txt"
    path.write_text(f"node 1\nnode 2\nedge 1 2 {capacity}\n")
    message = capacity_error(float(capacity), where=f"{path}: line 3: ")
    if capacity in ("-1", "inf", "nan"):  # no ASCII decimal: the record grammar refuses it
        message = f"^{re.escape(f'{path}: line 3: unrecognized record')} 'edge 1 2 {capacity}'$"
    with pytest.raises(CectLabError, match=message):
        load_topology(path)
    with pytest.raises(CectLabError, match=capacity_error(float(capacity))):
        Topology(nodes=(1, 2), links=((1, 2, float(capacity)),))


def test_capacity_must_keep_a_load_unit():
    # capacities are compared in milli-units, so one that rounds to 0 units
    # would make every utilization on its edge infinite, and one too large
    # to round could not be compared at all
    for capacity in (0.0004, 0.0005, 1e306):
        with pytest.raises(CectLabError, match=capacity_error(capacity)):
            Topology(nodes=(1, 2), links=((1, 2, capacity),))
    tiny = Topology(nodes=(1, 2), links=((1, 2, 0.0006),))
    assert tiny.cap_units.tolist() == [1]
    # the largest capacity whose units fit int64, and the first that does not
    assert Topology(nodes=(1, 2), links=((1, 2, 9.2e15),)).cap_units.tolist() == [9.2e18]
    with pytest.raises(CectLabError, match=capacity_error(9.3e15)):
        Topology(nodes=(1, 2), links=((1, 2, 9.3e15),))


def test_construction_sorts_and_numbers_the_edges():
    topo = Topology(
        nodes=(30, 10, 20), links=((30, 10, 3.0), (10, 20, 1.0), (20, 30, 2.0), (10, 30, 4.0))
    )
    assert topo.nodes == (10, 20, 30)
    assert topo.links == ((10, 20, 1.0), (10, 30, 4.0), (20, 30, 2.0), (30, 10, 3.0))
    assert topo.edge_keys == ((10, 20), (10, 30), (20, 30), (30, 10))
    assert topo.cap_units.tolist() == [1000, 4000, 2000, 3000]
    # positions index nodes; 3 stands for every id that is no switch
    assert topo.positions([20, 10, 30, 40, 20.0, "20", 20.5]).tolist() == [1, 0, 2, 3, 1, 3, 3]
    expected = np.full((4, 4), -1)
    expected[[0, 0, 1, 2], [1, 2, 2, 0]] = [0, 1, 2, 3]
    assert topo.edge_id.tolist() == expected.tolist()
    # each edge's tail and head as positions in nodes, in edge order
    assert topo.edge_ends.tolist() == [[0, 1], [0, 2], [1, 2], [2, 0]]
    assert Topology(nodes=(1, 2), links=()).edge_ends.shape == (0, 2)
    for array in (topo.cap_units, topo.edge_ends, topo.edge_id):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    # the order links are given in does not matter
    assert topo == Topology(nodes=(10, 20, 30), links=topo.links[::-1])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["dense", "sparse", "negative"]),
    offsets=st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
    gap=st.integers(200, 2**62),
    base=st.integers(-(2**63), 2**63 - 1),
    probes=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6),
)
def test_int64_positions_read_as_the_dict(kind, offsets, gap, base, probes):
    # ids within 60 of each other span at most 4n + 64 values and read the
    # position table; one more id gap >= 200 beyond them makes the span too
    # wide, and the dict answers. Either way an id that is no switch reads
    # node_count, however far outside the span it lies
    offsets = sorted(offsets)
    if kind == "sparse":
        offsets.append(offsets[-1] + gap)
    top = -1 if kind == "negative" else 2**63 - 1
    low = min(base, top - offsets[-1])
    nodes = [low + offset for offset in offsets]
    topo = Topology(nodes=tuple(nodes), links=())
    assert (topo._table is None) == (kind == "sparse")
    high, span = nodes[-1], nodes[-1] - low + 1
    near = [v + d for v in nodes for d in (-1, 0, 1)]
    outside = [low - span, low - 1, high + 1, high + 2, high + span, 0]
    queries = [q for q in near + outside + probes if -(2**63) <= q < 2**63]
    queries += [-(2**63), 2**63 - 1]
    expected = [nodes.index(q) if q in nodes else len(nodes) for q in queries]
    assert topo.positions(queries).tolist() == expected
    ids = np.array(queries, dtype=np.int64)
    assert topo.positions(ids).tolist() == expected
    # an array keeps its shape
    assert topo.positions(ids[:, None]).tolist() == [[p] for p in expected]


_NOT_INTEGERS = [1.5, 1.0, True, "1", np.float64(1.0), np.True_]


@pytest.mark.parametrize("place", ["node", "link src", "link dst", "pod switch", "pod index"])
@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
def test_topology_refuses_an_id_that_is_not_an_integer(place, value):
    # 1.0 and True equal the switch 1, so they would pass the membership
    # checks and be saved as records load_topology refuses
    nodes, src, dst, pod_of = (1, 2), 1, 2, {1: 0}
    if place == "node":
        nodes = (value, 2)
    elif place == "pod switch":
        pod_of = {value: 0}
    elif place == "pod index":
        pod_of = {1: value}
    else:
        src, dst = (value, 2) if place == "link src" else (2, value)
    expected = (f"pod index {value!r} out of range for 1" if place == "pod index"
                else f"switch id {value!r} is not an integer")
    with pytest.raises(CectLabError, match=f"^{re.escape(expected)}$"):
        Topology(nodes=nodes, links=((src, dst, 10.0),), pod_of=pod_of)


def test_topology_with_numpy_integer_ids_saves_and_reloads_equal(tmp_path):
    one, two = np.int64(1), np.uint16(2)
    topo = Topology(nodes=(one, two), links=((one, two, 10.0), (2, np.int32(1), 5.0)),
                    pod_of={one: np.int8(0), two: 1})
    assert topo.edge_keys == ((1, 2), (2, 1)) and topo.node_ids.tolist() == [1, 2]
    path = tmp_path / "topology.txt"
    save_topology(topo, path)
    assert load_topology(path) == topo


@pytest.mark.parametrize("node", [2**63, -(2**63) - 1, 99999999999999999999999])
def test_switch_ids_must_fit_int64(tmp_path, node):
    with pytest.raises(CectLabError, match=f"^switch id {node} does not fit in int64$"):
        Topology(nodes=(1, node), links=())
    path = tmp_path / "big.txt"
    path.write_text(f"node 1\nedge 1 {node} 1.0\nnode {node}\n")
    message = f"^{re.escape(str(path))}: line 3: switch id {node} does not fit in int64$"
    with pytest.raises(CectLabError, match=message):
        load_topology(path)
    edge = Topology(nodes=(2**63 - 1, -(2**63)), links=((2**63 - 1, -(2**63), 1.0),))
    assert edge.edge_keys == ((2**63 - 1, -(2**63)),)


def test_load_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nedge 1 1 5\n")
    message = f"^{re.escape(str(path))}: line 2: self-loop edge 1 -> 1$"
    with pytest.raises(CectLabError, match=message):
        load_topology(path)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nnode 2\nedge 1 2 5\nedge 1 2 7\n")
    message = f"^{re.escape(str(path))}: line 4: duplicate edge 1 -> 2$"
    with pytest.raises(CectLabError, match=message):
        load_topology(path)


def test_load_rejects_repeated_pod(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\npod 1 0\npod 1 1\n")
    with pytest.raises(CectLabError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}: line 3: pod entry for switch 1 is listed twice"


def test_load_rejects_repeated_node(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nnode 2\n\nnode 1\nedge 1 2 5\n")
    with pytest.raises(CectLabError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}: line 4: switch 1 is listed twice"


@pytest.mark.parametrize("records, detail", [
    ("node 1\nnode 2\nedge 2 9 1.0\n", "edge 2 -> 9 uses unknown switch"),
    ("node 1\nnode 2\nedge 1 2 1.0\npod 7 0\n", "pod entry for unknown switch 7"),
    ("node 1\nnode 2\nedge 1 2 1.0\npod 1 -1\n", "pod index -1 out of range for 1"),
], ids=["undeclared-switch", "pod-of-unknown-switch", "negative-pod"])
def test_load_names_the_file_of_an_inconsistent_topology(tmp_path, records, detail):
    # every record parses alone; the Topology the records build breaks an invariant
    path = tmp_path / "bad.txt"
    path.write_text(records)
    with pytest.raises(CectLabError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}: {detail}"


@pytest.mark.parametrize("record", [
    "node +1", "node 2_0", "node \u0663", "node 1.0", "edge 1 2 1_0.5", "edge 2 1 +10",
    "edge 1 2 inf", "edge 1 2 nan", "edge 1 2 -5", "edge 1 2 1e+", "pod 1 +0", "pod 1 0_0",
    "edge 1  2 5", "edge 1\t2 5",
])
def test_load_refuses_a_number_that_save_topology_never_writes(tmp_path, record):
    # int() and float() read signs, underscores, non-ASCII digits, inf and nan, and
    # str.split() splits at any run of whitespace
    path = tmp_path / "bad.txt"
    path.write_text(f"node 1\nnode 2\n{record}\n", encoding="utf-8")
    with pytest.raises(CectLabError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}: line 3: unrecognized record {record!r}"


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=6, unique=True),
       capacities=st.lists(st.floats(0.0006, 9.2e15), min_size=1, max_size=5),
       pods=st.lists(st.integers(0, 2**63 - 1), max_size=6))
def test_every_topology_saved_reloads_equal(tmp_path_factory, ids, capacities, pods):
    links = tuple((ids[i], ids[i + 1], cap) for i, cap in enumerate(capacities[: len(ids) - 1]))
    topo = Topology(nodes=tuple(ids), links=links, pod_of=dict(zip(ids, pods)))
    path = tmp_path_factory.mktemp("topology") / "topology.txt"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded == topo
    assert loaded.capacities.tolist() == topo.capacities.tolist()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("switch 1\n")
    message = f"^{re.escape(str(path))}: line 1: unrecognized record 'switch 1'$"
    with pytest.raises(CectLabError, match=message):
        load_topology(path)


def test_load_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# header\n\nnode 1\nnode 2\nedge 1 2 5 # uplink\n")
    topo = load_topology(path)
    assert topo.node_count == 2
    assert topo.links == ((1, 2, 5.0),)


def test_load_names_path_and_line_after_comments_and_blanks(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n\nnode 1 # first\n   \nnode 2\nedge 1 2 x\n")
    with pytest.raises(CectLabError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}: line 6: unrecognized record 'edge 1 2 x'"
    path.write_text("node 1\n# pod 1 0\nlink 1 2 # the rest\n")
    with pytest.raises(CectLabError) as info:
        load_topology(path)
    assert str(info.value) == f"{path}: line 3: unrecognized record 'link 1 2'"


def test_topology_invariants_enforced():
    with pytest.raises(CectLabError, match="^self-loop edge 1 -> 1$"):
        Topology(nodes=(1, 2), links=((1, 1, 5.0),))
    with pytest.raises(CectLabError, match="^duplicate edge 1 -> 2$"):
        Topology(nodes=(1, 2), links=((1, 2, 5.0), (1, 2, 3.0)))
    with pytest.raises(CectLabError, match=capacity_error(-1.0)):
        Topology(nodes=(1, 2), links=((1, 2, -1.0),))
    with pytest.raises(CectLabError, match="^edge 1 -> 2 uses unknown switch$"):
        Topology(nodes=(1,), links=((1, 2, 5.0),))
    # a repeated id would count a switch twice and list it twice as an edge switch
    with pytest.raises(CectLabError, match="^switch 1 is listed twice$"):
        Topology(nodes=(1, 1, 2, 3), links=((1, 2, 5.0),), pod_of={1: 0, 2: 0})


def test_edge_switches_structural_recovery(tmp_path):
    for k in (2, 4, 6):
        expected = tuple(range(1, k * k // 2 + 1))
        topo = make_fat_tree(k)
        assert topo.edge_switches == expected
        path = tmp_path / f"ft{k}.txt"
        save_topology(topo, path)
        assert load_topology(path).edge_switches == expected
    # a switch is an access switch unless one of its own links leaves its pod:
    # 1 -> 2 stays in pod 0 while 2 -> 3 leaves it; 3 -> 1 enters pod 0
    links = ((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0))
    assert Topology(nodes=(1, 2, 3), links=links, pod_of={1: 0, 2: 0}).edge_switches == (1,)


def test_edge_switches_podless_is_all_nodes():
    topo = make_sample_topology("fig2b")
    assert topo.edge_switches == (1, 2, 3, 4)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 8),
    edge_prob=st.floats(0.1, 0.9),
    capacities=st.lists(st.floats(0.0006, 1e6), min_size=1, max_size=4),
    pods=st.none() | st.lists(st.none() | st.integers(0, 2), max_size=8),
    fat_tree=st.none() | st.sampled_from([2, 4, 6]),
)
def test_derived_arrays_match_the_tuples(seed, n_nodes, edge_prob, capacities, pods, fat_tree,
                                         tmp_path_factory):
    # pods None keeps the topology pod-less; else pods[i] labels switch i+1, None leaving it out
    rng = np.random.default_rng(seed)
    topo = make_fat_tree(fat_tree) if fat_tree else random_topology(rng, n_nodes, edge_prob)
    links = tuple((s, d, capacities[i % len(capacities)]) for i, (s, d, _) in enumerate(topo.links))
    if pods is None:
        pod_of = topo.pod_of
    else:
        pod_of = {node: pod for node, pod in zip(topo.nodes, pods) if pod is not None}
    topo = Topology(nodes=topo.nodes, links=links, pod_of=pod_of)
    path = tmp_path_factory.mktemp("topology") / "topology.txt"
    save_topology(topo, path)
    for built in (topo, load_topology(path)):
        assert built.edge_switches == tuple(reference_edge_switches(built))
        assert built.node_ids.dtype == np.int64 and built.node_ids.tolist() == list(built.nodes)
        assert built.capacities.dtype == np.float64
        assert built.capacities.tolist() == [cap for *_, cap in built.links]
        assert built.cap_units.tolist() == [int(round(cap * 1000)) for *_, cap in built.links]
        for array in (built.node_ids, built.capacities, built.cap_units, built.edge_ends,
                      built.edge_id):
            assert not array.flags.writeable
