import numpy as np
import pytest

from cect_lab.errors import AssignmentFormatError, CectLabError, InfeasibleLabelError
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
    congestion_ok,
    format_assignment,
    matrix_from_paths,
    parse_assignment_dump,
    validate,
)
from cect_lab.topology import Topology, make_sample_topology
from cect_lab.traffic import FlowSet
from cect_lab.xpath import precompute_xpaths

from helpers import edge_list_matrix, make_flows, random_topology


@pytest.fixture(scope="module")
def fig2a():
    topo = make_sample_topology("fig2a", 10.0)
    return topo, precompute_xpaths(topo, x=3)


def test_assemble_single_flow_loads(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0)])
    matrix = assemble(RoutingAssignment({1: 5}), flows, table, topo)
    assert matrix.load_units == {(3, 2): 2000, (2, 1): 2000}
    assert matrix.mu == pytest.approx(0.2)
    assert matrix.flow_ptr.tolist() == [0, 2]
    assert [matrix.edge_keys[e] for e in matrix.edge_ids] == [(3, 2), (2, 1)]


def test_assemble_empty_flowset(fig2a):
    topo, table = fig2a
    matrix = assemble(RoutingAssignment({}), FlowSet(flows=()), table, topo)
    assert matrix.mu == 0.0
    assert matrix.load_units == {}


def test_assemble_linearity(fig2a):
    topo, table = fig2a
    one = assemble(RoutingAssignment({1: 5}), make_flows([(3, 1, 2.0)]), table, topo)
    two = assemble(
        RoutingAssignment({1: 5, 2: 5}),
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
    with pytest.raises(InfeasibleLabelError, match="flow 1"):
        assemble(RoutingAssignment({1: 4}), flows, table, topo)  # 3->2 path
    with pytest.raises(InfeasibleLabelError, match="flow 1"):
        assemble(RoutingAssignment({1: 99}), flows, table, topo)
    with pytest.raises(InfeasibleLabelError, match="flow 1"):
        assemble(RoutingAssignment({}), flows, table, topo)


def test_assemble_permutation_invariant(fig2a):
    topo, table = fig2a
    flows_ab = make_flows([(3, 1, 2.0), (3, 2, 4.0)])
    flows_ba = make_flows([(3, 2, 4.0), (3, 1, 2.0)])
    m_ab = assemble(RoutingAssignment({1: 3, 2: 4}), flows_ab, table, topo)
    m_ba = assemble(RoutingAssignment({1: 4, 2: 3}), flows_ba, table, topo)
    assert m_ab.load_units == m_ba.load_units
    assert m_ab.mu == m_ba.mu


def test_mu_exact_against_per_edge_sum(fig2a):
    topo, table = fig2a
    capacity = {(s, d): c for s, d, c in topo.links}
    rng = np.random.default_rng(0)
    for _ in range(50):
        flows = []
        choice = {}
        fid = 0
        for (src, dst), labels in table.by_pair.items():
            for _ in range(int(rng.integers(0, 3))):
                fid += 1
                flows.append((src, dst, float(rng.integers(1, 20)) / 4))
                choice[fid] = int(labels[rng.integers(len(labels))])
        if not flows:
            continue
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
        loads: dict = {}
        for f in flowset.flows:
            for edge in table.paths[choice[f.id]].edges():
                loads[edge] = loads.get(edge, 0.0) + f.demand
        expected = max(
            (load / capacity[e] for e, load in loads.items()), default=0.0
        )
        assert matrix.mu == pytest.approx(expected, abs=1e-12)


def test_validate_accepts_all_table_paths():
    rng = np.random.default_rng(3)
    for _ in range(20):
        topo = random_topology(rng, int(rng.integers(3, 8)), edge_prob=0.5)
        table = precompute_xpaths(topo, x=3)
        if not table.by_pair:
            continue
        pairs = sorted(table.by_pair)
        flows, choice = [], {}
        for fid in range(1, int(rng.integers(1, 6)) + 1):
            src, dst = pairs[rng.integers(len(pairs))]
            labels = table.by_pair[(src, dst)]
            flows.append((src, dst, 1.0))
            choice[fid] = int(labels[rng.integers(len(labels))])
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
        assert validate(matrix, flowset, topo) == []


def test_validate_flags_edge_into_source(fig2a):
    topo, _ = fig2a
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
    assert (1, 3) not in topo.edge_index()
    found = validate(edge_list_matrix(topo, [[(3, 2), (2, 1), (1, 3)]]), flows, topo)
    assert Violation(1, RULE_KNOWN_EDGE, (1, 3)) in found


def test_validate_rejects_matrix_of_other_flows(fig2a):
    topo, _ = fig2a
    matrix = edge_list_matrix(topo, [[(3, 1)]])
    with pytest.raises(ValueError, match="1 flows"):
        validate(matrix, make_flows([(3, 1, 1.0), (3, 1, 1.0)]), topo)


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
    for model in ("maxmin", "bottleneck"):
        result = simulate(matrix, flows, topo, model)
        assert result.per_flow_rate[1] == pytest.approx(5.0)
        assert result.link_utilization[(1, 2)] == pytest.approx(1.0)
        assert result.link_utilization[(2, 3)] == pytest.approx(0.5)


def test_matrix_from_paths_names_the_flow_of_a_bad_path(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0), (3, 1, 1.0)])
    with pytest.raises(InfeasibleLabelError, match="flow 2: .*empty path"):
        matrix_from_paths({1: (3, 1), 2: ()}, flows, topo)
    with pytest.raises(InfeasibleLabelError, match="flow 2: .*no path assigned"):
        matrix_from_paths({1: (3, 1)}, flows, topo)
    with pytest.raises(InfeasibleLabelError, match=r"flow 2: .*unknown edge \(3, 9\)"):
        matrix_from_paths({1: (3, 1), 2: (3, 9, 1)}, flows, topo)
    with pytest.raises(InfeasibleLabelError, match="flow 1: .*does not match"):
        matrix_from_paths({1: (3, 2), 2: (3, 1)}, flows, topo)


def test_violations_name_flow_and_location(fig2a):
    topo, _ = fig2a
    flows = make_flows([(3, 1, 1.0)])
    found = validate(edge_list_matrix(topo, [[(3, 2)]]), flows, topo)
    assert all(v.flow_id == 1 for v in found)
    assert all(str(v) for v in found)


def test_congestion_ok_thresholds(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0)])
    matrix = assemble(RoutingAssignment({1: 5}), flows, table, topo)  # mu 0.2
    assert congestion_ok(matrix, 0.7)
    heavy = assemble(
        RoutingAssignment({1: 3}), make_flows([(3, 1, 7.1)]), table, topo
    )  # mu 0.71
    assert not congestion_ok(heavy, 0.7)
    assert congestion_ok(matrix)  # default threshold is the hot-spot level
    with pytest.raises(ValueError):
        congestion_ok(matrix, 0.0)


def test_assignment_dump_round_trip(fig2a):
    topo, table = fig2a
    flows = make_flows([(3, 1, 2.0), (1, 2, 1.0)])
    assignment = RoutingAssignment({1: 5, 2: 1})
    text = format_assignment(assignment, flows, table)
    assert text.splitlines() == [
        "flow 1 via 5: 3 -> 2 -> 1",
        "flow 2 via 1: 1 -> 2",
    ]
    parsed = parse_assignment_dump(text)
    assert parsed == {1: (5, (3, 2, 1)), 2: (1, (1, 2))}


@pytest.mark.parametrize(
    "text, line_no, what",
    [
        ("flow 1 via 5: 3 -> 2 -> 1\nflow 2 via 1: 1 -> x\n", 2, "not an integer"),
        ("flow 1 via 5: 3 -> 2 -> 1\n\nflow 2 via 1:  \n", 3, "empty path"),
        ("flow 1 via 5: 3 -> 2 -> 1\nflow 1 via 1: 1 -> 2\n", 2, "listed twice"),
        ("flow 1 via 5: 3 -> 2 -> 1\nflow one via 1: 1 -> 2\n", 2, "unrecognized"),
    ],
)
def test_parse_assignment_dump_names_the_bad_line(text, line_no, what):
    with pytest.raises(AssignmentFormatError, match=f"line {line_no}: .*{what}") as info:
        parse_assignment_dump(text)
    assert isinstance(info.value, CectLabError)
    assert info.value.line_no == line_no
