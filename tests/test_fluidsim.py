import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab import experiment
from cect_lab.ecmp import route_ecmp
from cect_lab.fluidsim import SimResult, run_volume_schedule, simulate
from cect_lab.routing import RoutingAssignment, assemble, matrix_from_paths
from cect_lab.topology import Topology, make_fat_tree, make_sample_topology
from cect_lab.traffic import FlowSet, generate_flows
from cect_lab.xpath import feasible_labels, precompute_xpaths

from helpers import (
    ALL_PATHS,
    edge_index, grid_maxmin_oracle, hops_of, labels_by_pair, make_flows, random_topology
)


def _line_topology(capacity=10.0) -> Topology:
    return Topology(nodes=(1, 2), links=((1, 2, capacity),))


def _matrix_for(topo, flows, paths):
    return matrix_from_paths(
        {f.id: tuple(paths[i]) for i, f in enumerate(flows.flows)}, flows, topo
    )


@pytest.mark.parametrize("model", ["maxmin"])
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


@pytest.mark.parametrize("model", ["maxmin"])
def test_conservation_and_feasibility(model):
    rng = np.random.default_rng(0)
    for _ in range(25):
        topo = random_topology(rng, 5, edge_prob=0.6, capacity=8.0)
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        pairs = list(labels_by_pair(table))
        if not pairs:
            continue
        flows, chosen = [], []
        for _ in range(int(rng.integers(1, 7))):
            pair = pairs[rng.integers(len(pairs))]
            labels = feasible_labels(table, *pair)
            flows.append((*pair, float(rng.uniform(0.5, 12.0))))
            chosen.append(int(labels[rng.integers(len(labels))]))
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(np.array(chosen)), flowset, table, topo)
        result = simulate(matrix, flowset, topo, model)
        offered = sum(f.demand for f in flowset.flows)
        assert result.total_delivered <= offered + 1e-9
        for f in flowset.flows:
            assert -1e-9 <= result.per_flow_rate[f.id] <= f.demand + 1e-9
        for edge, util in result.link_utilization.items():
            assert util <= 1.0 + 1e-6
        if result.mu <= 1.0:
            assert result.loss_pct == pytest.approx(0.0, abs=1e-9)
            assert result.total_delivered == pytest.approx(offered)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 5), data=st.data())
def test_rates_stay_within_demands_and_capacities(seed, n_nodes, data):
    rng = np.random.default_rng(seed)
    links = random_topology(rng, n_nodes, edge_prob=0.6).links
    topo = Topology(nodes=tuple(range(1, n_nodes + 1)),
                    links=tuple((s, d, float(rng.uniform(0.5, 20.0))) for s, d, _ in links))
    table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
    pairs = labels_by_pair(table)
    flows, chosen = [], []
    for _ in range(data.draw(st.integers(0, 8))):
        pair = data.draw(st.sampled_from(sorted(pairs)))
        flows.append((*pair, data.draw(st.floats(0.01, 30.0))))
        chosen.append(data.draw(st.sampled_from(pairs[pair])))
    flowset = make_flows(flows)
    matrix = assemble(RoutingAssignment(np.array(chosen, dtype=np.int64)), flowset, table, topo)
    result = simulate(matrix, flowset, topo)

    paths = [list(zip(hops, hops[1:])) for hops in hops_of(table, chosen)]
    delivered = dict.fromkeys(topo.edge_keys, 0.0)
    for flow, path in zip(flowset.flows, paths):
        rate = result.per_flow_rate[flow.id]
        assert 0.0 <= rate <= flow.demand * (1 + 1e-9), (flow, rate)
        for edge in path:
            delivered[edge] += rate
    capacities = {(s, d): c for s, d, c in topo.links}
    for edge, capacity in capacities.items():
        assert delivered[edge] <= capacity * (1 + 1e-9), (edge, delivered[edge])
    assert result.mu == matrix.mu
    # water filling wastes nothing: a flow held below its demand crosses a full edge
    for flow, path in zip(flowset.flows, paths):
        if result.per_flow_rate[flow.id] < flow.demand - 1e-6:
            assert any(delivered[e] >= capacities[e] - 1e-6 for e in path), flow


def test_maxmin_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        topo = random_topology(rng, 5, edge_prob=0.6, capacity=10.0)
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        pairs = list(labels_by_pair(table))
        if not pairs:
            continue
        edge_ids = edge_index(topo)
        flows, chosen = [], []
        n = int(rng.integers(2, 6))
        for _ in range(n):
            pair = pairs[rng.integers(len(pairs))]
            labels = feasible_labels(table, *pair)
            flows.append((*pair, float(rng.integers(2, 15))))
            chosen.append(int(labels[rng.integers(len(labels))]))
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(np.array(chosen)), flowset, table, topo)
        result = simulate(matrix, flowset, topo, "maxmin")

        flow_paths = [
            [edge_ids[e] for e in zip(h, h[1:])]
            for h in hops_of(table, chosen)
        ]
        demands = [f.demand for f in flowset.flows]
        caps = [c for _, _, c in topo.links]
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
        table = precompute_xpaths(topo, x=3, cap_c=ALL_PATHS)
        pairs = list(labels_by_pair(table))
        if not pairs:
            continue
        flows, chosen = [], []
        for _ in range(4):
            pair = pairs[rng.integers(len(pairs))]
            flows.append((*pair, float(rng.integers(3, 20))))
            chosen.append(int(feasible_labels(table, *pair)[0]))
        flowset = make_flows(flows)
        matrix = assemble(RoutingAssignment(np.array(chosen)), flowset, table, topo)
        result = simulate(matrix, flowset, topo, "maxmin")
        path_of = {
            f.id: list(zip(h, h[1:]))
            for f, h in zip(flowset.flows, hops_of(table, chosen))
        }
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


def _report_ratios(tmp_path, cect: SimResult, ecmp: SimResult) -> tuple[float, float]:
    """experiment.report's (throughput, loss) ratios for two routings of one workload.

    The results.csv is written by hand, one row per routing.
    """
    lines = [",".join(experiment.RESULT_COLUMNS)]
    for method, r in (("cect", cect), ("ecmp", ecmp)):
        lines.append(f"{method},1,0,{r.total_delivered!r},{r.loss_pct!r},{r.mu!r},0,0")
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(experiment.report(tmp_path)["ratio_ecmp"], newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    return float(row["throughput_ratio"]), float(row["loss_ratio_ecmp_over_cect"])


def test_compare_identical_assignments(tmp_path):
    topo = make_sample_topology("fig2a", 10.0)
    flows = make_flows([(3, 1, 4.0)])
    result = simulate(_matrix_for(topo, flows, [(3, 1)]), flows, topo)
    assert _report_ratios(tmp_path, result, result) == (1.0, 1.0)


def test_compare_empty_flowset(tmp_path):
    # nothing offered: throughput and loss are 0 for both, and 0 / 0 reads 1
    topo = make_sample_topology("fig2a", 10.0)
    flows = FlowSet(flows=())
    result = simulate(_matrix_for(topo, flows, []), flows, topo)
    assert _report_ratios(tmp_path, result, result) == (1.0, 1.0)


def test_compare_prefers_better_routing(tmp_path):
    # throughput is cect over ecmp and loss ecmp over cect, so both read
    # "higher favors cect"; a lossless cect routing gives an infinite loss ratio
    flows = make_flows([(1, 2, 10.0), (1, 2, 10.0)])
    topo2 = Topology(nodes=(1, 2, 3), links=((1, 2, 10.0), (1, 3, 10.0), (3, 2, 10.0)))
    shared = simulate(_matrix_for(topo2, flows, [(1, 2), (1, 2)]), flows, topo2)
    split = simulate(matrix_from_paths({1: (1, 2), 2: (1, 3, 2)}, flows, topo2), flows, topo2)
    assert _report_ratios(tmp_path, split, shared) == (2.0, float("inf"))


def test_volume_schedule_retires_flows():
    topo = _line_topology(10.0)
    flows = make_flows([(1, 2, 10.0), (1, 2, 10.0)])
    matrix = _matrix_for(topo, flows, [(1, 2), (1, 2)])
    steps = run_volume_schedule(
        matrix, flows, topo, volumes={1: 5.0, 2: 15.0}, interval=1.0
    )
    # both run at 5/s; flow 1 retires after step 0, flow 2 then gets 10/s
    # and ships its last 10 in one step (without retirement: 10, 5, 5)
    assert [s.transferred for s in steps] == pytest.approx([10.0, 10.0])


def _k4_pair():
    """A k=4 fat tree and a flow each way between two edge switches, on table paths."""
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    src, dst = topo.edge_switches[:2]
    flows = make_flows([(src, dst, 5.0), (dst, src, 5.0)])
    chosen = np.array([feasible_labels(table, f.src, f.dst)[0] for f in flows.flows])
    return topo, flows, assemble(RoutingAssignment(chosen), flows, table, topo)


def test_volume_schedule_raises_when_max_steps_leave_volume():
    # 10,000 steps at rate 5 ship 50,000 of 1e9: no partial schedule comes back
    topo, flows, matrix = _k4_pair()
    with pytest.raises(ValueError, match=r"after 10000 steps flow 1 still has 999950000\.0 "):
        run_volume_schedule(matrix, flows, topo, volumes={1: 1e9, 2: 10.0})


@pytest.mark.parametrize("volume", [float("nan"), -1.0])
def test_volume_schedule_rejects_a_volume_that_is_nan_or_negative(volume):
    topo, flows, matrix = _k4_pair()
    with pytest.raises(ValueError, match=f"flow 2: volume {volume} "):
        run_volume_schedule(matrix, flows, topo, volumes={1: 5.0, 2: volume})


@pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
def test_volume_schedule_rejects_an_interval_that_is_not_positive(interval):
    # a NaN interval would pass "interval <= 0" and ship NaN each step
    topo, flows, matrix = _k4_pair()
    with pytest.raises(ValueError, match="interval must be positive"):
        run_volume_schedule(matrix, flows, topo, volumes={1: 5.0}, interval=interval)


def test_volume_schedule_rejects_a_volume_for_no_flow():
    topo, flows, matrix = _k4_pair()
    with pytest.raises(ValueError, match="unknown flow 3"):
        run_volume_schedule(matrix, flows, topo, volumes={1: 5.0, 3: 1.0})


@pytest.fixture(scope="module")
def ecmp_k8():
    """The k=8, 20,000-flow ECMP routing that test_route_ecmp_output_is_pinned pins."""
    topo = make_fat_tree(8)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 20000, {"micro": 0.9775, "small": 0.0175, "big": 0.005},
                           plr=0.95, seed=1)
    return topo, flows, assemble(route_ecmp(flows, topo, table), flows, table, topo)


@pytest.mark.parametrize(
    "model, rates_digest, schedule_digest",
    [
        ("maxmin", "e5c96b7b95dd4d0251e0b767e46f79872c2c78ceea9c848583356931ffc2e957",
         "b9f44ef785f16026c175de3c1c1a4f9a6b5c2c6c90185ca0542086de89825fa1"),
    ],
)
def test_simulator_output_is_pinned(ecmp_k8, model, rates_digest, schedule_digest):
    # every rate and every step's transfer, bit for bit, at a scale where the
    # water filling runs dozens of passes (mu 2.745); the schedule takes all
    # 20,000 flows, since a 2,000-flow prefix stays below capacity
    topo, flows, matrix = ecmp_k8
    result = simulate(matrix, flows, topo, model)
    assert list(result.per_flow_rate) == list(range(1, flows.count + 1))
    rates = np.array(list(result.per_flow_rate.values()))
    assert hashlib.sha256(rates.tobytes()).hexdigest() == rates_digest
    factors = np.random.default_rng(7).uniform(2.0, 30.0, flows.count)
    volumes = {f.id: f.demand * float(x) for f, x in zip(flows.flows, factors)}
    steps = run_volume_schedule(matrix, flows, topo, volumes, model=model)
    transferred = np.array([step.transferred for step in steps])
    assert hashlib.sha256(transferred.tobytes()).hexdigest() == schedule_digest


def test_simulate_rejects_unknown_model():
    topo = _line_topology()
    flows = make_flows([(1, 2, 1.0)])
    matrix = _matrix_for(topo, flows, [(1, 2)])
    # bottleneck scaling was a second model; max-min is the only one left
    for model in ("tcp", "bottleneck"):
        message = rf"model must be one of \('maxmin',\), got '{model}'"
        with pytest.raises(ValueError, match=message):
            simulate(matrix, flows, topo, model)
        with pytest.raises(ValueError, match=message):
            run_volume_schedule(matrix, flows, topo, {1: 1.0}, model=model)


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


@pytest.mark.parametrize("model", ["maxmin"])
def test_volume_schedule_matches_simulating_each_step(model):
    # reference: simulate the still-active flows, renumbered, at every step
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, 60, {"medium": 0.5, "big": 0.5}, plr=0.8, seed=11)
    options = [feasible_labels(table, f.src, f.dst) for f in flows.flows]
    chosen = np.array([labels[f.id % len(labels)] for f, labels in zip(flows.flows, options)])
    matrix = assemble(RoutingAssignment(chosen), flows, table, topo)
    rng = np.random.default_rng(12)
    volumes = {f.id: f.demand * float(rng.uniform(0.5, 6.0)) for f in flows.flows}

    remaining = dict(volumes)
    expected = []
    while any(v > 0 for v in remaining.values()):
        active = [f for f in flows.flows if remaining[f.id] > 0]
        subset = make_flows([(f.src, f.dst, f.demand) for f in active])
        sub = assemble(
            RoutingAssignment(chosen[[f.id - 1 for f in active]]), subset, table, topo
        )
        rates = simulate(sub, subset, topo, model).per_flow_rate
        moved = 0.0
        for i, f in enumerate(active):
            shipped = min(rates[i + 1], remaining[f.id])
            left = remaining[f.id] - shipped
            remaining[f.id] = 0.0 if left < 1e-12 else left
            moved += shipped
        expected.append(moved)

    steps = run_volume_schedule(matrix, flows, topo, volumes, 1.0, model)
    assert len(steps) == len(expected)
    assert [s.transferred for s in steps] == pytest.approx(expected, rel=1e-12)
