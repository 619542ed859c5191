import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab.errors import CectLabError
from cect_lab.fluidsim import simulate
from cect_lab.routing import (
    RULE_BINARY_INDICATOR,
    RULE_DESTINATION_IN_DEGREE,
    RULE_FLOW_CONSERVATION,
    RULE_KNOWN_EDGE,
    RULE_LOOP_FREE,
    RULE_NO_EXIT_FROM_DESTINATION,
    RULE_NO_RETURN_TO_SOURCE,
    RULE_SOURCE_OUT_DEGREE,
    RoutingAssignment,
    RoutingMatrix,
    Violation,
    assemble,
    format_assignment,
    matrix_from_paths,
    parse_assignment_dump,
    validate,
)
from cect_lab.ecmp import route_ecmp
from cect_lab.topology import Topology, make_fat_tree, make_sample_topology
from cect_lab.traffic import Flow, FlowSet, generate_flows
from cect_lab.xpath import feasible_labels, precompute_xpaths

from helpers import (
    ALL_PATHS,
    brute_force_simple_paths,
    edge_index,
    edge_list_matrix,
    hops_of,
    labels_by_pair,
    make_flows,
    random_topology,
    reference_validate,
)


@pytest.fixture(scope="module")
def fig2a():
    topo = make_sample_topology("fig2a", 10.0)
    return topo, precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)


def test_assemble_single_flow_loads(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0)])
    matrix = assemble(RoutingAssignment(np.array([5])), flows, table, topo)
    assert matrix.load_units == {(3, 2): 2000, (2, 1): 2000}
    assert matrix.mu == pytest.approx(0.2)
    assert matrix.flow_ptr.tolist() == [0, 2]
    assert [matrix.edge_keys[e] for e in matrix.edge_ids] == [(3, 2), (2, 1)]


def test_assemble_empty_flowset(fig2a):
    topo, table = fig2a
    empty = RoutingAssignment(np.zeros(0, dtype=np.int64))
    matrix = assemble(empty, FlowSet(flows=()), table, topo)
    assert matrix.mu == 0.0
    assert matrix.load_units == {}


def test_assemble_linearity(fig2a):
    topo, table = fig2a
    one = assemble(RoutingAssignment(np.array([5])), make_flows([(3, 1, 2.0)]), table, topo)
    two = assemble(
        RoutingAssignment(np.array([5, 5])),
        make_flows([(3, 1, 2.0), (3, 1, 2.0)]),
        table,
        topo,
    )
    assert two.mu == pytest.approx(2 * one.mu)
    for edge, load in one.load_units.items():
        assert two.load_units[edge] == 2 * load


def test_assemble_rejects_mismatched_label(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0)])
    message = r"^flow 1: path label 4 is not feasible \(path 3->2 does not match flow 3->1\)$"
    with pytest.raises(CectLabError, match=message):
        assemble(RoutingAssignment(np.array([4])), flows, table, topo)  # 3->2 path
    message = r"^flow 1: path label 99 is not feasible \(label not in table\)$"
    with pytest.raises(CectLabError, match=message):
        assemble(RoutingAssignment(np.array([99])), flows, table, topo)
    with pytest.raises(CectLabError, match="^flow 1: no label assigned$"):
        assemble(RoutingAssignment(np.zeros(0, dtype=np.int64)), flows, table, topo)


def test_assemble_permutation_invariant(fig2a):
    topo, table = fig2a
    flows_ab = make_flows([(3, 1, 2.0), (3, 2, 4.0)])
    flows_ba = make_flows([(3, 2, 4.0), (3, 1, 2.0)])
    m_ab = assemble(RoutingAssignment(np.array([3, 4])), flows_ab, table, topo)
    m_ba = assemble(RoutingAssignment(np.array([4, 3])), flows_ba, table, topo)
    assert m_ab.load_units == m_ba.load_units
    assert m_ab.mu == m_ba.mu


def test_mu_exact_against_per_edge_sum(fig2a):
    topo, table = fig2a
    capacity = {(s, d): c for s, d, c in topo.links}
    rng = np.random.default_rng(0)
    for _ in range(50):
        flows, chosen = [], []
        for (src, dst), labels in labels_by_pair(table).items():
            for _ in range(int(rng.integers(0, 3))):
                flows.append((src, dst, float(rng.integers(1, 20)) / 4))
                chosen.append(int(labels[rng.integers(len(labels))]))
        if not flows:
            continue
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(np.array(chosen)), flowset, table, topo)
        loads: dict = {}
        for f, hops in zip(flowset.flows, hops_of(table, chosen)):
            for edge in zip(hops, hops[1:]):
                loads[edge] = loads.get(edge, 0.0) + f.demand
        expected = max(
            (load / capacity[e] for e, load in loads.items()), default=0.0
        )
        assert matrix.mu == pytest.approx(expected, abs=1e-12)


def test_validate_accepts_all_table_paths():
    rng = np.random.default_rng(3)
    for _ in range(20):
        topo = random_topology(rng, int(rng.integers(3, 8)), edge_prob=0.5)
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        pairs = sorted(labels_by_pair(table))
        if not pairs:
            continue
        flows, chosen = [], []
        for _ in range(int(rng.integers(1, 6))):
            src, dst = pairs[rng.integers(len(pairs))]
            labels = feasible_labels(table, src, dst)
            flows.append((src, dst, 1.0))
            chosen.append(int(labels[rng.integers(len(labels))]))
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(np.array(chosen)), flowset, table, topo)
        assert validate(matrix, flowset, topo) == []


def test_validate_flags_edge_into_source(fig2a):
    # fig2a plus the edge 1 -> 3 that returns to the source
    topo = Topology(nodes=(1, 2, 3), links=fig2a[0].links + ((1, 3, 10.0),))
    flows = make_flows([(3, 1, 1.0)])
    good = edge_list_matrix(topo, [[(3, 1)]])
    assert validate(good, flows, topo) == []
    bad = edge_list_matrix(topo, [[(3, 2), (2, 1), (1, 3)]])
    found = validate(bad, flows, topo)
    assert any(v.rule == RULE_NO_RETURN_TO_SOURCE and v.flow_id == 1 for v in found)


def test_validate_flags_edge_out_of_destination(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    bad = edge_list_matrix(topo, [[(3, 1), (1, 2)]])
    found = validate(bad, flows, topo)
    assert any(v.rule == RULE_NO_EXIT_FROM_DESTINATION for v in found)


def test_validate_flags_source_out_degree(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    bad = edge_list_matrix(topo, [[(3, 1), (3, 2), (2, 1)]])  # two edges leave the source
    found = validate(bad, flows, topo)
    assert any(v.rule == RULE_SOURCE_OUT_DEGREE for v in found)
    empty = edge_list_matrix(topo, [[]])
    found = validate(empty, flows, topo)
    assert any(v.rule == RULE_SOURCE_OUT_DEGREE for v in found)


def test_validate_flags_destination_in_degree(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    bad = edge_list_matrix(topo, [[(3, 2)]])
    found = validate(bad, flows, topo)
    assert any(v.rule == RULE_DESTINATION_IN_DEGREE for v in found)


def test_validate_flags_conservation_break():
    topo = make_sample_topology("fig2b", 10.0)
    flows = make_flows([(1, 2, 1.0)])
    bad = edge_list_matrix(topo, [[(1, 3), (3, 4), (3, 2)]])  # 3 forwards twice, enters once
    found = validate(bad, flows, topo)
    assert any(
        v.rule == RULE_FLOW_CONSERVATION and v.location == 3 for v in found
    )


def test_validate_flags_revisit():
    topo = make_sample_topology("fig2b", 10.0)
    flows = make_flows([(4, 2, 1.0)])
    # 4 -> 1 -> 3 with an extra entry into 3 from 4: in-degree 2 at switch 3
    bad = edge_list_matrix(topo, [[(4, 1), (1, 3), (4, 3), (3, 2)]])
    found = validate(bad, flows, topo)
    assert any(v.rule == RULE_LOOP_FREE and v.location == 3 for v in found)


def test_validate_flags_non_binary_indicator(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    matrix = edge_list_matrix(topo, [[(3, 1), (3, 1)]])  # indicator value 2
    found = validate(matrix, flows, topo)
    assert Violation(1, RULE_BINARY_INDICATOR, (3, 1), "value 2") in found


def test_validate_flags_unknown_edge_id(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 1, 1.0)])
    good = edge_list_matrix(topo, [[(3, 1)], [(3, 1)]])
    n_keys = len(good.edge_keys)
    for bad_id in (n_keys, -1):
        matrix = RoutingMatrix(
            flow_ptr=good.flow_ptr,
            edge_ids=np.array([good.edge_ids[0], bad_id]),
            edge_keys=good.edge_keys,
            load_units={},
            mu=0.0,
        )
        found = validate(matrix, flows, topo)
        assert [v.rule for v in found if v.flow_id == 1] == []
        assert any(v.rule == RULE_KNOWN_EDGE and v.location == bad_id for v in found)
        assert all(v.flow_id == 2 for v in found)


def test_validate_flags_edge_missing_from_topology(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    assert (1, 3) not in topo.edge_keys
    # a matrix over another topology's edges fails as flow_edge_csr fails it
    with pytest.raises(ValueError, match="built for another topology: edge 1 -> 3 differs"):
        validate(edge_list_matrix(topo, [[(3, 2), (2, 1), (1, 3)]]), flows, topo)
    # the same edges numbered in another order, or with one listed twice
    keys = topo.edge_keys
    for edge_keys, message in (
        (tuple(reversed(keys)), "edge id 0 is 3 -> 2, not 1 -> 2"),
        (keys + keys[:1], "it has 5 edges, not 4"),
    ):
        matrix = RoutingMatrix(np.array([0, 1]), np.array([0]), edge_keys, {}, 0.0)
        with pytest.raises(ValueError, match=f"built for another topology: {message}$"):
            validate(matrix, flows, topo)


def test_validate_rejects_matrix_of_other_flows(fig2a):
    topo, _ = fig2a
    matrix = edge_list_matrix(topo, [[(3, 1)]])
    with pytest.raises(ValueError, match="1 flows"):
        validate(matrix, make_flows([(3, 1, 1.0), (3, 1, 1.0)]), topo)


# each row edit a validator must handle; "keep" and "reverse" leave a simple
# path, the latter listed out of hop order; "loop" chains from the source to
# the destination but visits every switch twice
_ROW_EDITS = ("keep", "reverse", "drop", "duplicate", "swap", "append", "insert-unknown",
              "replace-unknown", "empty", "append-many", "loop")


def _edit_row(edges: list[int], edit: str, rng: np.random.Generator, n_keys: int,
              back: list[int]) -> list[int]:
    """edges after one edit, back being a table path from their last head to their
    first tail, if any; table rows are never empty, so every index exists."""
    i, at = int(rng.integers(len(edges))), int(rng.integers(len(edges) + 1))
    unknown = [-1, n_keys][rng.integers(2)]
    if edit == "reverse":
        return edges[::-1]
    if edit == "drop":
        return edges[:i] + edges[i + 1 :]
    if edit == "duplicate":
        return edges[:at] + [edges[i]] + edges[at:]
    if edit == "swap" and len(edges) > 1:
        i, j = sorted(rng.choice(len(edges), 2, replace=False).tolist())
        return edges[:i] + [edges[j]] + edges[i + 1 : j] + [edges[i]] + edges[j + 1 :]
    if edit == "append":
        return edges + [int(rng.integers(n_keys))]
    if edit == "insert-unknown":
        return edges[:at] + [unknown] + edges[at:]
    if edit == "replace-unknown":
        return edges[:i] + [unknown] + edges[i + 1 :]
    if edit == "empty":
        return []
    if edit == "append-many":
        return edges + rng.integers(n_keys, size=int(rng.integers(5, 16))).tolist()
    if edit == "loop" and back:
        return edges + back + edges
    return edges


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 7),
    edge_prob=st.floats(0.2, 0.9),
    x=st.integers(1, 4),
    edits=st.lists(st.sampled_from(_ROW_EDITS), max_size=10),
)
def test_validate_agrees_with_the_reference_validator(seed, n_nodes, edge_prob, x, edits):
    # table paths, each then edited: the fast path must return the same
    # violations as the rule-by-rule reference, in the same order
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes, edge_prob)
    table = precompute_xpaths(topo, x=x, cap_c=ALL_PATHS)
    by_pair = labels_by_pair(table)
    pairs = list(by_pair.items())
    label_ptr, label_edges = table.label_edge_csr(topo)

    def edges_of(label):
        return label_edges[label_ptr[label - 1] : label_ptr[label]].tolist()

    flows, chosen, backs = [], [], []
    for _ in edits:
        (src, dst), labels = pairs[rng.integers(len(pairs))]
        back = by_pair.get((dst, src))
        flows.append((src, dst, 1.0))
        chosen.append(labels[rng.integers(len(labels))])
        backs.append(edges_of(back[rng.integers(len(back))]) if back else [])
    flowset = make_flows(flows)
    matrix = assemble(RoutingAssignment(np.array(chosen, dtype=np.int64)), flowset, table, topo)
    ptr = matrix.flow_ptr.tolist()
    rows = [
        _edit_row(matrix.edge_ids[ptr[i] : ptr[i + 1]].tolist(), edit, rng,
                  len(topo.edge_keys), backs[i])
        for i, edit in enumerate(edits)
    ]
    edited = RoutingMatrix(
        flow_ptr=np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
        edge_ids=np.array([e for r in rows for e in r], dtype=np.int64),
        edge_keys=topo.edge_keys,
        load_units={},
        mu=0.0,
    )
    assert validate(edited, flowset, topo) == reference_validate(edited, flowset, topo)


def test_validate_accepts_a_simple_path_listed_out_of_hop_order():
    # the fast path wants each head to be the next tail, so this row takes the
    # general path, which must still find nothing wrong with it
    topo = make_sample_topology("fig2b", 10.0)
    flows = make_flows([(4, 2, 1.0), (4, 2, 1.0)])
    matrix = edge_list_matrix(topo, [[(4, 1), (1, 3), (3, 2)], [(3, 2), (4, 1), (1, 3)]])
    assert validate(matrix, flows, topo) == [] == reference_validate(matrix, flows, topo)


def test_validate_mixes_good_empty_long_and_unknown_rows():
    # one matrix whose rows take every way to fail before the loop check: a
    # simple path, an empty row, a row of node_count edges that returns to its
    # source, and a row holding an id beyond edge_keys
    topo = make_sample_topology("fig2b", 10.0)
    index = edge_index(topo)
    flows = make_flows([(1, 2, 1.0)] * 4)
    long_row = [index[e] for e in ((1, 3), (3, 4), (4, 1), (1, 2))]
    rows = [[index[(1, 2)]], [], long_row, [index[(1, 2)], len(topo.edge_keys) + 3]]
    assert len(long_row) == topo.node_count
    matrix = RoutingMatrix(
        flow_ptr=np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
        edge_ids=np.array([e for r in rows for e in r], dtype=np.int64),
        edge_keys=topo.edge_keys,
        load_units={},
        mu=0.0,
    )
    found = validate(matrix, flows, topo)
    assert found == reference_validate(matrix, flows, topo)
    assert sorted({v.flow_id for v in found}) == [2, 3, 4]
    assert Violation(4, RULE_KNOWN_EDGE, len(topo.edge_keys) + 3) in found
    # without links every id is unknown: there is no edge to look a switch up by
    linkless, flows = Topology(nodes=(1, 2), links=()), make_flows([(1, 2, 1.0)] * 2)
    matrix = RoutingMatrix(np.array([0, 0, 2]), np.array([0, -1]), (), {}, 0.0)
    found = validate(matrix, flows, linkless)
    assert found == reference_validate(matrix, flows, linkless)
    assert [v.rule for v in found if v.flow_id == 2][:2] == [RULE_KNOWN_EDGE, RULE_KNOWN_EDGE]


def test_validate_does_not_pad_to_a_pathological_row():
    # one row of 100,000 edges among 20,000 table paths: padding every row to
    # it would take about 16 GB, so it must take the general path unpadded
    topo = make_fat_tree(8, 200.0, 200.0, 100.0)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 20000, {"micro": 0.9775, "small": 0.0175, "big": 0.005},
                           plr=0.95, seed=5)
    matrix = assemble(route_ecmp(flows, topo, table), flows, table, topo)
    first = flows.flows[0]
    flowset = FlowSet(flows=flows.flows + (Flow(20001, first.src, first.dst, 1.0),))
    long_row = np.random.default_rng(6).integers(len(topo.edge_keys), size=100_000)
    routing = RoutingMatrix(
        flow_ptr=np.r_[matrix.flow_ptr, matrix.flow_ptr[-1] + len(long_row)],
        edge_ids=np.r_[matrix.edge_ids, long_row],
        edge_keys=matrix.edge_keys,
        load_units={},
        mu=0.0,
    )
    tracemalloc.start()
    try:
        found = validate(routing, flowset, topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    assert found and {v.flow_id for v in found} == {20001}
    assert found == reference_validate(routing, flowset, topo)


def test_replayed_revisiting_path_agrees_across_layers():
    # a dump path that crosses 1 -> 2 twice: the loads, the validator and the
    # simulator must all see two crossings of that edge
    topo = Topology(nodes=(1, 2, 3), links=((1, 2, 10.0), (2, 1, 10.0), (2, 3, 10.0)))
    flows = make_flows([(1, 3, 6.0)])
    dump = parse_assignment_dump("flow 1 via 7: 1 -> 2 -> 1 -> 2 -> 3\n")
    matrix = matrix_from_paths({fid: hops for fid, (_, hops) in dump.items()}, flows, topo)
    assert matrix.load_units == {(1, 2): 12000, (2, 1): 6000, (2, 3): 6000}
    assert matrix.mu == pytest.approx(1.2)
    found = validate(matrix, flows, topo)
    assert Violation(1, RULE_BINARY_INDICATOR, (1, 2), "value 2") in found
    assert any(v.rule == RULE_NO_RETURN_TO_SOURCE for v in found)
    result = simulate(matrix, flows, topo)
    assert result.per_flow_rate[1] == pytest.approx(5.0)
    assert result.link_utilization[(1, 2)] == pytest.approx(1.0)
    assert result.link_utilization[(2, 3)] == pytest.approx(0.5)


def test_matrix_from_paths_names_the_flow_of_a_bad_path(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 1, 1.0)])
    with pytest.raises(CectLabError, match="^flow 2: empty path$"):
        matrix_from_paths({1: (3, 1), 2: ()}, flows, topo)
    with pytest.raises(CectLabError, match="^flow 2: no path assigned$"):
        matrix_from_paths({1: (3, 1)}, flows, topo)
    with pytest.raises(CectLabError, match=r"^flow 2: path uses unknown edge \(3, 9\)$"):
        matrix_from_paths({1: (3, 1), 2: (3, 9, 1)}, flows, topo)
    with pytest.raises(CectLabError, match="^flow 1: path 3->2 does not match flow 3->1$"):
        matrix_from_paths({1: (3, 2), 2: (3, 1)}, flows, topo)


def test_violations_name_flow_and_location(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    found = validate(edge_list_matrix(topo, [[(3, 2)]]), flows, topo)
    assert all(v.flow_id == 1 for v in found)
    assert all(str(v) for v in found)


def test_assignment_dump_round_trip(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0), (1, 2, 1.0)])
    assignment = RoutingAssignment(np.array([5, 1]))
    text = format_assignment(assignment, flows, table)
    assert text.splitlines() == [
        "flow 1 via 5: 3 -> 2 -> 1",
        "flow 2 via 1: 1 -> 2",
    ]
    parsed = parse_assignment_dump(text)
    assert parsed == {1: (5, (3, 2, 1)), 2: (1, (1, 2))}


def test_label_vectors_route_their_first_flows(fig2a):
    # a vector for a longer flow set routes its first flows; a short one
    # names the first flow without a label
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0), (1, 2, 1.0), (3, 2, 1.0)])
    assignment = RoutingAssignment(np.array([5, 1, 4]))
    first_two = make_flows([(3, 1, 2.0), (1, 2, 1.0)])
    assert format_assignment(assignment, first_two, table) == format_assignment(
        RoutingAssignment(np.array([5, 1])), first_two, table
    )
    prefix = assemble(assignment, first_two, table, topo)
    assert prefix.flow_ptr.tolist() == [0, 2, 3]
    assert prefix.load_units == {(3, 2): 2000, (2, 1): 2000, (1, 2): 1000}
    for short in (assignment.labels[:2], assignment.labels[:0]):
        message = f"^flow {len(short) + 1}: no label assigned$"
        with pytest.raises(CectLabError, match=message):
            assemble(RoutingAssignment(short), flows, table, topo)
        with pytest.raises(CectLabError, match=message):
            format_assignment(RoutingAssignment(short), flows, table)
    assert assignment.choice == {1: 5, 2: 1, 3: 4}


@pytest.mark.parametrize(
    "text, line_no, what",
    [
        ("flow 1 via 5: 3 -> 2 -> 1\nflow 2 via 1: 1 -> x\n", 2, "unrecognized"),
        ("flow 1 via 5: 3 -> 2 -> 1\n\nflow 2 via 1:  \n", 3, "unrecognized"),
        ("flow 1 via 5: 3 -> 2 -> 1\nflow 1 via 1: 1 -> 2\n", 2, "listed twice"),
        ("flow 1 via 5: 3 -> 2 -> 1\nflow one via 1: 1 -> 2\n", 2, "unrecognized"),
    ],
)
def test_parse_assignment_dump_names_the_bad_line(text, line_no, what):
    with pytest.raises(CectLabError, match=f"line {line_no}: .*{what}") as info:
        parse_assignment_dump(text)
    assert str(info.value).startswith(f"line {line_no}: ")
    # the whole message, as the line-by-line reading below words it
    assert str(info.value) == _outcome(_parse_line_by_line, text)


def test_parse_assignment_dump_reads_hash_as_no_comment():
    # '#' starts a comment in topology and flow files, not in a dump
    for text, message in (
        ("flow 1 via 5: 3 -> 2 -> 1 # note\n",
         "line 1: unrecognized assignment line 'flow 1 via 5: 3 -> 2 -> 1 # note'"),
        ("flow 1 via 5: 3 -> 2 -> 1\n\n# note\n", "line 3: unrecognized assignment line '# note'"),
    ):
        with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
            parse_assignment_dump(text)


def _parse_line_by_line(text):
    """Flow id -> (label, hops) read one stripped line at a time, lines ending at
    "\\n": each non-blank line must match the grammar format_assignment writes,
    spelled here with ASCII \\d, and each flow id may appear once."""
    out = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        match = re.fullmatch(r"flow (\d+) via (\d+): (-?\d+(?: -> -?\d+)*)", line, re.ASCII)
        if match is None:
            raise CectLabError(f"line {line_no}: unrecognized assignment line {line!r}")
        flow_id, label, path = int(match[1]), int(match[2]), match[3]
        if flow_id in out:
            raise CectLabError(f"line {line_no}: flow {flow_id} is listed twice")
        out[flow_id] = (label, tuple(int(hop) for hop in path.split(" -> ")))
    return out


def _outcome(parse, text):
    try:
        return list(parse(text).items())
    except CectLabError as exc:
        return str(exc)


def test_parser_skips_blank_lines_and_the_whitespace_around_a_line():
    text = (
        "  flow 1 via 5: 3 -> 2 -> 1  \r\n"
        "\n"
        "   \t\n"
        "flow 3 via 007: 3 -> -2\r\n"
        "\tflow 4 via 4: 99999999999999999999 -> 2\n"
        "flow 5 via 5: 3 -> 2"
    )
    parsed = parse_assignment_dump(text)
    assert list(parsed.items()) == [
        (1, (5, (3, 2, 1))),
        (3, (7, (3, -2))),
        (4, (4, (99999999999999999999, 2))),
        (5, (5, (3, 2))),
    ]
    assert parsed == _parse_line_by_line(text)
    assert parse_assignment_dump("") == {} == parse_assignment_dump("\n\n")


@pytest.mark.parametrize("line", [
    "flow +3 via 7: 3 -> 2",
    "flow 1_0 via 1: 1 -> 2",
    "flow 1 via 1: \u0661 -> 2",
    "flow\t2 via 1: 1 -> 2",
    "flow 2 via 1: 3->2",
    "flow 2 via 1: 3 -> 2 # note",
    "# note",
    "flow 2",
    "flow 2 via 1: 3 -> 2\fflow 3 via 1: 3 -> 2",
], ids=["plus-sign", "underscore", "arabic-indic-digit", "tab", "arrow-without-spaces",
        "trailing-hash", "hash", "two-fields", "form-feed-inside"])
def test_parser_refuses_a_line_format_assignment_never_writes(line):
    text = f"flow 1 via 5: 3 -> 2 -> 1\n\n{line}\nflow 9 via 1: 1 -> 2\n"
    message = f"line 3: unrecognized assignment line {line!r}"
    with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
        parse_assignment_dump(text)
    assert _outcome(_parse_line_by_line, text) == message


def test_parser_names_a_bad_line_after_a_thousand_good_ones():
    good = "".join(f"flow {i} via 1: 1 -> 2\n" for i in range(1, 1001))
    for bad, what in (
        ("flow 1001 via 1: 1 -> x\n", "unrecognized assignment line 'flow 1001 via 1: 1 -> x'"),
        ("flow 7 via 1: 1 -> 2\n", "flow 7 is listed twice"),
        ("flow 1001 via 1: \n", "unrecognized assignment line 'flow 1001 via 1:'"),
    ):
        for text, line_no in ((good + bad, 1001), (good + "\n" + bad + good, 1002)):
            with pytest.raises(CectLabError, match=f"^line {line_no}: {re.escape(what)}$"):
                parse_assignment_dump(text)
    # a repeated id before a malformed line is the error, and the other way round
    with pytest.raises(CectLabError, match="^line 1000: flow 3 is listed twice$"):
        parse_assignment_dump(good[: good.index("flow 1000 ")] + "flow 3 via 1: 1 -> 2\nx\n")
    with pytest.raises(CectLabError, match="^line 1: unrecognized assignment line 'x'$"):
        parse_assignment_dump("x\n" + good + good)


_NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["007", "+5", "1_0", "١٢", "-3", "x", "", "9" * 18, "9" * 19,
                     str(2**63), str(2**70)]),
)
_SPACES = st.sampled_from([" ", " ", " ", "\t", "  ", ""])


@st.composite
def _dump_lines(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "   ", "\t", "junk", "flow 1 via 2", "flow 1 via 2:"]))
    ws = draw(_SPACES)
    hops = draw(st.lists(_NUMBERS, min_size=1, max_size=5))
    arrow = draw(st.sampled_from([" -> ", " -> ", "->", " ->\t", " - > "]))
    fid = draw(st.one_of(st.integers(1, 8).map(str), _NUMBERS))
    return f"flow{ws or ' '}{fid} via {draw(_NUMBERS)}:{ws}{arrow.join(hops)}"


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_dump_lines(), max_size=12),
    ends=st.sampled_from(["\n", "\r\n"]),
    last=st.booleans(),
)
def test_parser_agrees_with_the_line_by_line_reading(lines, ends, last):
    text = ends.join(lines) + (ends if last else "")
    assert _outcome(parse_assignment_dump, text) == _outcome(_parse_line_by_line, text)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 6),
    edge_prob=st.floats(0.2, 0.9),
    x=st.integers(1, 3),
    n_flows=st.integers(0, 12),
)
def test_dump_round_trip_reloads_bit_for_bit(seed, n_nodes, edge_prob, x, n_flows):
    rng = np.random.default_rng(seed)
    _check_dump_round_trip(rng, random_topology(rng, n_nodes, edge_prob), x, n_flows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 6),
    edge_prob=st.floats(0.2, 0.9),
    x=st.integers(1, 3),
    n_flows=st.integers(0, 12),
    data=st.data(),
)
def test_dump_round_trip_reloads_negative_and_19_digit_switch_ids(
    seed, n_nodes, edge_prob, x, n_flows, data
):
    # such ids are outside the bulk reader's lines, so the dump is read line by line
    low, high = data.draw(st.sampled_from([(-(2**63), -1), (10**18, 2**63 - 1)]))
    ids = sorted(data.draw(st.lists(st.integers(low, high), min_size=n_nodes,
                                    max_size=n_nodes, unique=True)))
    rng = np.random.default_rng(seed)
    plain = random_topology(rng, n_nodes, edge_prob)
    topo = Topology(nodes=tuple(ids),
                    links=tuple((ids[s - 1], ids[d - 1], cap) for s, d, cap in plain.links))
    _check_dump_round_trip(rng, topo, x, n_flows)


def _check_dump_round_trip(rng, topo, x, n_flows):
    """Route n_flows random flows on random feasible labels, and check that their
    dump parses back to the labels and hops, and replays to assemble's matrix."""
    table = precompute_xpaths(topo, x=x, cap_c=ALL_PATHS)
    pairs = list(labels_by_pair(table).items())
    flows, chosen = [], []
    for _ in range(n_flows):
        (src, dst), labels = pairs[rng.integers(len(pairs))]
        flows.append((src, dst, float(rng.integers(1, 2000)) / 100))
        chosen.append(labels[rng.integers(len(labels))])
    flowset, assignment = make_flows(flows), RoutingAssignment(np.array(chosen, dtype=np.int64))
    parsed = parse_assignment_dump(format_assignment(assignment, flowset, table))
    assert list(parsed) == list(range(1, n_flows + 1))
    assert np.array_equal([label for label, _ in parsed.values()], assignment.labels)
    assert [hops for _, hops in parsed.values()] == hops_of(table, chosen)
    replayed = matrix_from_paths({f: hops for f, (_, hops) in parsed.items()}, flowset, topo)
    matrix = assemble(assignment, flowset, table, topo)
    assert np.array_equal(replayed.flow_ptr, matrix.flow_ptr)
    assert np.array_equal(replayed.edge_ids, matrix.edge_ids)
    assert replayed.load_units == matrix.load_units
    assert replayed.mu == matrix.mu
    assert validate(replayed, flowset, topo) == []


def _paths_one_by_one(hops_by_flow, flowset, topology):
    """matrix_from_paths' answer read flow by flow and hop by hop: the CSR or the error."""
    ids, flow_ptr, edge_ids = edge_index(topology), [0], []
    try:
        for flow in flowset.flows:
            path = hops_by_flow.get(flow.id)
            if not path:
                detail = "no path assigned" if path is None else "empty path"
                raise CectLabError(f"flow {flow.id}: {detail}")
            if (path[0], path[-1]) != (flow.src, flow.dst):
                detail = f"path {path[0]}->{path[-1]} does not match flow {flow.src}->{flow.dst}"
                raise CectLabError(f"flow {flow.id}: {detail}")
            for edge in zip(path[:-1], path[1:]):
                if edge not in ids:
                    raise CectLabError(f"flow {flow.id}: path uses unknown edge {edge}")
                edge_ids.append(ids[edge])
            flow_ptr.append(len(edge_ids))
        for fid in sorted(hops_by_flow):
            if not 1 <= fid <= flowset.count:
                raise CectLabError(f"flow {fid}: not in the flow set")
    except CectLabError as exc:
        return str(exc)
    return flow_ptr, edge_ids


# hops that are no switch of a random topology over 1..n (n <= 5), or only equal one
_ODD_HOPS = st.sampled_from([0, -1, 9, 2**63, -(2**63) - 1, 2**70, 2.0, 2.5, "2", True])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 5), data=st.data())
def test_matrix_from_paths_agrees_with_the_flow_by_flow_reading(seed, n_nodes, data):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes, 0.6)
    paths = sorted(brute_force_simple_paths(topo, 3))
    switches = st.integers(1, n_nodes) | _ODD_HOPS
    hops_by_flow, pairs = {}, []
    for fid in range(1, data.draw(st.integers(0, 5)) + 1):
        path = data.draw(st.sampled_from(paths))
        pairs.append((path[0], path[-1], 1.0))
        kind = data.draw(st.integers(0, 9))
        if kind == 1:  # any hops at all, or none
            path = tuple(data.draw(st.lists(switches, max_size=4)))
        elif kind == 2:  # one hop replaced
            at = data.draw(st.integers(0, len(path) - 1))
            path = path[:at] + (data.draw(switches),) + path[at + 1 :]
        if kind != 3:  # else the flow has no path
            hops_by_flow[fid] = path
    for fid in data.draw(st.sets(st.sampled_from([0, len(pairs) + 1, len(pairs) + 9]))):
        hops_by_flow[fid] = (2**70,)  # an id outside 1..N, whatever its path
    flows = make_flows(pairs)
    try:
        matrix = matrix_from_paths(hops_by_flow, flows, topo)
        got = (matrix.flow_ptr.tolist(), matrix.edge_ids.tolist())
    except CectLabError as exc:
        got = str(exc)
    assert got == _paths_one_by_one(hops_by_flow, flows, topo)


def test_matrix_from_paths_names_the_lowest_bad_flow(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)] * 5)
    paths = {1: (3, 1), 2: (3, 2, 1), 3: (3, 2, 9, 1), 4: (), 5: (3, 2)}
    with pytest.raises(CectLabError, match=r"^flow 3: path uses unknown edge \(2, 9\)$"):
        matrix_from_paths(paths, flows, topo)
    # within a flow, the ends are checked before the edges
    with pytest.raises(CectLabError, match="^flow 3: path 3->9 does not match flow 3->1$"):
        matrix_from_paths({**paths, 3: (3, 9, 8, 9)}, flows, topo)
    with pytest.raises(CectLabError, match="^flow 2: no path assigned$"):
        matrix_from_paths({1: (3, 1), 4: ()}, flows, topo)
    # an id outside 1..N fails after every flow of the set, the smallest first
    good = {f: (3, 1) for f in range(1, 6)}
    assert matrix_from_paths(good, flows, topo).load_units == {(3, 1): 5000}
    with pytest.raises(CectLabError, match="^flow 2: no path assigned$"):
        matrix_from_paths({f: (3, 1) for f in (1, 3, 4, 5, 6)}, flows, topo)
    for extra, name in (({6: (3, 1)}, 6), ({0: (), 99: (1, 9)}, 0)):
        with pytest.raises(CectLabError, match=f"^flow {name}: not in the flow set$"):
            matrix_from_paths({**good, **extra}, flows, topo)
    # a topology without switches knows no edge
    with pytest.raises(CectLabError, match=r"^flow 1: path uses unknown edge \(3, 1\)$"):
        matrix_from_paths({**good, 6: (3, 1)}, flows, Topology(nodes=(), links=()))


@pytest.mark.parametrize(
    "path, what",
    [
        ((3, 2**70, 1), r"unknown edge \(3, 1180591620717411303424\)"),
        ((3, 1, -(2**70)), "path 3->-1180591620717411303424 does not match"),
        ((3, -1, 1), r"unknown edge \(3, -1\)"),
        ((3, 0, 1), r"unknown edge \(3, 0\)"),
        # 0 sorts where switch 1 stands, and (3, 1) and (1, 2) are edges
        ((3, 0, 2, 1), r"unknown edge \(3, 0\)"),
        # a hop is the switch it equals: 3.0 is switch 3, while 3.7 and "3" are none
        ((3.7, 1), r"path 3.7->1 does not match flow 3->1"),
        (("3", 1), r"path 3->1 does not match flow 3->1"),
        ((3, 2, 1.5), r"path 3->1.5 does not match"),
        ((3, "2", 1), r"unknown edge \(3, '2'\)"),
        ((3.0, 1), None),
    ],
)
def test_matrix_from_paths_rejects_hops_that_are_no_switch(fig2a, path, what):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 1, 1.0)])
    if what is None:
        assert matrix_from_paths({1: (3, 1), 2: path}, flows, topo).load_units == {(3, 1): 2000}
    else:
        # an unknown edge reads "path uses unknown edge ...", a wrong end "... flow 3->1"
        with pytest.raises(CectLabError, match=rf"^flow 2: (path uses )?{what}( flow 3->1)?$"):
            matrix_from_paths({1: (3, 1), 2: path}, flows, topo)
    # an earlier bad flow is still the one named
    with pytest.raises(CectLabError, match="^flow 1: path 3->2 does not match flow 3->1$"):
        matrix_from_paths({1: (3, 2), 2: path}, flows, topo)
