import numpy as np
import pytest

from cect_lab.fluidsim import (
    compare,
    run_volume_schedule,
    simulate,
)
from cect_lab.routing import RoutingAssignment, assemble, matrix_from_paths
from cect_lab.topology import Topology, make_fat_tree, make_sample_topology
from cect_lab.traffic import FlowSet, generate_flows
from cect_lab.xpath import precompute_xpaths

from helpers import grid_maxmin_oracle, make_flows, random_topology


def _line_topology(capacity=10.0) -> Topology:
    return Topology(nodes=(1, 2), links=((1, 2, capacity),))


def _matrix_for(topo, flows, paths):
    return matrix_from_paths(
        {f.id: tuple(paths[i]) for i, f in enumerate(flows.flows)}, flows, topo
    )


@pytest.mark.parametrize("model", ["maxmin", "bottleneck"])
def test_underloaded_network_delivers_everything(model):
    topo = make_sample_topology("fig2a", 10.0)
    flows = make_flows([(3, 1, 4.0), (3, 2, 2.0)])
    matrix = _matrix_for(topo, flows, [(3, 1), (3, 2)])
    result = simulate(matrix, flows, topo, model)
    assert result.per_flow_rate == {1: pytest.approx(4.0), 2: pytest.approx(2.0)}
    assert result.loss_pct == pytest.approx(0.0)
    assert result.total_delivered == pytest.approx(6.0)


def test_two_flows_share_one_edge_fairly():
    topo = _line_topology(10.0)
    flows = make_flows([(1, 2, 10.0), (1, 2, 10.0)])
    matrix = _matrix_for(topo, flows, [(1, 2), (1, 2)])
    result = simulate(matrix, flows, topo, "maxmin")
    assert result.per_flow_rate[1] == pytest.approx(5.0)
    assert result.per_flow_rate[2] == pytest.approx(5.0)
    assert result.loss_pct == pytest.approx(50.0)


def test_disjoint_paths_report_offered_mu():
    topo = make_sample_topology("fig2a", 10.0)
    flows = make_flows([(3, 1, 8.0), (3, 2, 4.0)])
    matrix = _matrix_for(topo, flows, [(3, 1), (3, 2)])
    result = simulate(matrix, flows, topo)
    assert result.mu == pytest.approx(0.8)
    assert result.total_delivered == pytest.approx(12.0)
    assert result.link_utilization[(3, 1)] == pytest.approx(0.8)


def test_demand_cap_respected_in_maxmin():
    topo = _line_topology(10.0)
    flows = make_flows([(1, 2, 2.0), (1, 2, 20.0)])
    matrix = _matrix_for(topo, flows, [(1, 2), (1, 2)])
    result = simulate(matrix, flows, topo, "maxmin")
    assert result.per_flow_rate[1] == pytest.approx(2.0)  # capped at demand
    assert result.per_flow_rate[2] == pytest.approx(8.0)  # rest of the link


@pytest.mark.parametrize("model", ["maxmin", "bottleneck"])
def test_conservation_and_feasibility(model):
    rng = np.random.default_rng(0)
    for _ in range(25):
        topo = random_topology(rng, 5, edge_prob=0.6, capacity=8.0)
        table = precompute_xpaths(topo, x=3)
        pairs = [p for p in table.by_pair if table.by_pair[p]]
        if not pairs:
            continue
        flows, choice = [], {}
        for fid in range(1, int(rng.integers(1, 7)) + 1):
            pair = pairs[rng.integers(len(pairs))]
            labels = table.by_pair[pair]
            flows.append((*pair, float(rng.uniform(0.5, 12.0))))
            choice[fid] = int(labels[rng.integers(len(labels))])
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
        result = simulate(matrix, flowset, topo, model)
        assert result.total_delivered <= result.total_offered + 1e-9
        for f in flowset.flows:
            assert -1e-9 <= result.per_flow_rate[f.id] <= f.demand + 1e-9
        for edge, util in result.link_utilization.items():
            assert util <= 1.0 + 1e-6
        if result.mu <= 1.0:
            assert result.loss_pct == pytest.approx(0.0, abs=1e-9)
            assert result.total_delivered == pytest.approx(result.total_offered)


def test_maxmin_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        topo = random_topology(rng, 5, edge_prob=0.6, capacity=10.0)
        table = precompute_xpaths(topo, x=3)
        pairs = [p for p in table.by_pair if table.by_pair[p]]
        if not pairs:
            continue
        edge_ids = topo.edge_index()
        flows, choice = [], {}
        n = int(rng.integers(2, 6))
        for fid in range(1, n + 1):
            pair = pairs[rng.integers(len(pairs))]
            labels = table.by_pair[pair]
            flows.append((*pair, float(rng.integers(2, 15))))
            choice[fid] = int(labels[rng.integers(len(labels))])
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
        result = simulate(matrix, flowset, topo, "maxmin")

        flow_paths = [
            [edge_ids[e] for e in table.paths[choice[f.id]].edges()] for f in flowset.flows
        ]
        demands = [f.demand for f in flowset.flows]
        caps = [c for _, _, c in topo.sorted_links()]
        oracle = grid_maxmin_oracle(flow_paths, demands, caps, step=0.01)
        for i, f in enumerate(flowset.flows):
            scale = max(1.0, f.demand)
            assert abs(result.per_flow_rate[f.id] - oracle[i]) <= 0.01 * scale


def test_maxmin_bottlenecked_flows_cannot_grow():
    # defining property: a flow below demand sits on a saturated edge where
    # it already gets at least every peer's share
    rng = np.random.default_rng(6)
    for _ in range(15):
        topo = random_topology(rng, 5, edge_prob=0.6, capacity=10.0)
        table = precompute_xpaths(topo, x=3)
        pairs = [p for p in table.by_pair if table.by_pair[p]]
        if not pairs:
            continue
        flows, choice = [], {}
        for fid in range(1, 5):
            pair = pairs[rng.integers(len(pairs))]
            flows.append((*pair, float(rng.integers(3, 20))))
            choice[fid] = int(table.by_pair[pair][0])
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(choice), flowset, table, topo)
        result = simulate(matrix, flowset, topo, "maxmin")
        path_of = {f.id: table.paths[choice[f.id]].edges() for f in flowset.flows}
        capacity = {(s, d): c for s, d, c in topo.links}
        loads: dict = {}
        for f in flowset.flows:
            for e in path_of[f.id]:
                loads[e] = loads.get(e, 0.0) + result.per_flow_rate[f.id]
        for f in flowset.flows:
            rate = result.per_flow_rate[f.id]
            if rate >= f.demand - 1e-6:
                continue
            bottlenecks = [
                e for e in path_of[f.id]
                if loads[e] >= capacity[e] - 1e-6
            ]
            assert bottlenecks
            assert any(
                all(
                    result.per_flow_rate[g.id] <= rate + 1e-6
                    for g in flowset.flows
                    if e in path_of[g.id]
                )
                for e in bottlenecks
            )


def test_maxmin_monotone_under_added_flow():
    topo = _line_topology(12.0)
    base = make_flows([(1, 2, 8.0), (1, 2, 8.0)])
    base_matrix = _matrix_for(topo, base, [(1, 2), (1, 2)])
    before = simulate(base_matrix, base, topo, "maxmin")
    grown = make_flows([(1, 2, 8.0), (1, 2, 8.0), (1, 2, 8.0)])
    grown_matrix = _matrix_for(topo, grown, [(1, 2), (1, 2), (1, 2)])
    after = simulate(grown_matrix, grown, topo, "maxmin")
    for fid in (1, 2):
        assert after.per_flow_rate[fid] <= before.per_flow_rate[fid] + 1e-9


def test_bottleneck_repair_pass():
    # two overloads on one path: the naive scale leaves the second edge
    # oversubscribed until the repair pass rescales
    topo = Topology(nodes=(1, 2, 3), links=((1, 2, 10.0), (2, 3, 5.0)))
    flows = make_flows([(1, 3, 20.0), (1, 2, 5.0)])
    matrix = _matrix_for(topo, flows, [(1, 2, 3), (1, 2)])
    result = simulate(matrix, flows, topo, "bottleneck")
    for edge, util in result.link_utilization.items():
        assert util <= 1.0 + 1e-9


def test_compare_identical_assignments():
    topo = make_sample_topology("fig2a", 10.0)
    flows = make_flows([(3, 1, 4.0)])
    matrix = _matrix_for(topo, flows, [(3, 1)])
    report = compare(matrix, matrix, flows, topo)
    assert report.throughput_ratio == 1.0
    assert report.loss_ratio == 1.0


def test_compare_empty_flowset():
    topo = make_sample_topology("fig2a", 10.0)
    flows = FlowSet(flows=())
    matrix = _matrix_for(topo, flows, [])
    report = compare(matrix, matrix, flows, topo)
    assert report.throughput_ratio == 1.0
    assert report.loss_ratio == 1.0


def test_compare_prefers_better_routing():
    flows = make_flows([(1, 2, 10.0), (1, 2, 10.0)])
    topo2 = Topology(nodes=(1, 2, 3), links=((1, 2, 10.0), (1, 3, 10.0), (3, 2, 10.0)))
    shared = _matrix_for(topo2, flows, [(1, 2), (1, 2)])
    split = matrix_from_paths({1: (1, 2), 2: (1, 3, 2)}, flows, topo2)
    report = compare(split, shared, flows, topo2)
    assert report.throughput_ratio == pytest.approx(20.0 / 10.0)
    assert report.loss_ratio == float("inf")


def test_transferred_scales_with_interval():
    topo = _line_topology(10.0)
    flows = make_flows([(1, 2, 4.0)])
    matrix = _matrix_for(topo, flows, [(1, 2)])
    result = simulate(matrix, flows, topo)
    assert result.transferred(2.5) == pytest.approx(10.0)


def test_volume_schedule_retires_flows():
    topo = _line_topology(10.0)
    flows = make_flows([(1, 2, 10.0), (1, 2, 10.0)])
    matrix = _matrix_for(topo, flows, [(1, 2), (1, 2)])
    steps = run_volume_schedule(
        matrix, flows, topo, volumes={1: 5.0, 2: 15.0}, interval=1.0
    )
    # both run at 5/s; flow 1 retires after step 0, flow 2 then gets 10/s
    assert steps[0].transferred == pytest.approx(10.0)
    assert steps[0].active_flows == 2
    assert steps[1].active_flows == 1
    assert sum(s.transferred for s in steps) == pytest.approx(20.0)


def test_simulate_rejects_unknown_model():
    topo = _line_topology()
    flows = make_flows([(1, 2, 1.0)])
    matrix = _matrix_for(topo, flows, [(1, 2)])
    with pytest.raises(ValueError):
        simulate(matrix, flows, topo, "tcp")


def test_simulate_rejects_matrix_of_another_topology():
    flows = make_flows([(1, 2, 10.0)])
    matrix = _matrix_for(_line_topology(10.0), flows, [(1, 2)])
    topo2 = Topology(nodes=(1, 2, 3), links=((1, 2, 10.0), (1, 3, 10.0), (3, 2, 10.0)))
    with pytest.raises(ValueError, match="another topology"):
        simulate(matrix, flows, topo2)
    with pytest.raises(ValueError, match="another topology"):
        run_volume_schedule(matrix, flows, topo2, volumes={1: 5.0})
    with pytest.raises(ValueError, match="1 flows"):
        simulate(matrix, make_flows([(1, 2, 1.0), (1, 2, 1.0)]), _line_topology(10.0))


@pytest.mark.parametrize("model", ["maxmin", "bottleneck"])
def test_volume_schedule_matches_simulating_each_step(model):
    # reference: simulate the still-active flows, renumbered, at every step
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 60, {"medium": 0.5, "big": 0.5}, plr=0.8, seed=11)
    labels = {f.id: table.by_pair[(f.src, f.dst)] for f in flows.flows}
    choice = {fid: options[fid % len(options)] for fid, options in labels.items()}
    matrix = assemble(RoutingAssignment(choice), flows, table, topo)
    rng = np.random.default_rng(12)
    volumes = {f.id: f.demand * float(rng.uniform(0.5, 6.0)) for f in flows.flows}

    remaining = dict(volumes)
    expected = []
    while any(v > 0 for v in remaining.values()):
        active = [f for f in flows.flows if remaining[f.id] > 0]
        subset = make_flows([(f.src, f.dst, f.demand) for f in active])
        sub = assemble(
            RoutingAssignment({i + 1: choice[f.id] for i, f in enumerate(active)}),
            subset, table, topo,
        )
        rates = simulate(sub, subset, topo, model).per_flow_rate
        moved = 0.0
        for i, f in enumerate(active):
            shipped = min(rates[i + 1], remaining[f.id])
            left = remaining[f.id] - shipped
            remaining[f.id] = 0.0 if left < 1e-12 else left
            moved += shipped
        expected.append((moved, len(active)))

    steps = run_volume_schedule(matrix, flows, topo, volumes, 1.0, model)
    assert [s.active_flows for s in steps] == [n for _, n in expected]
    assert [s.transferred for s in steps] == pytest.approx([m for m, _ in expected], rel=1e-12)
    assert [s.step for s in steps] == list(range(len(expected)))
