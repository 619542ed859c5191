from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab import kernels
from cect_lab.ga import _Instance
from cect_lab.routing import RoutingAssignment, assemble
from cect_lab.topology import make_fat_tree, make_sample_topology, to_units
from cect_lab.traffic import generate_flows
from cect_lab.xpath import precompute_xpaths

from helpers import edge_index, hops_of, labels_by_pair, make_flows, random_topology

ACCEPTANCE_MIX = {"micro": 0.9775, "small": 0.0175, "big": 0.005}


@pytest.fixture(scope="module")
def topology():
    return make_fat_tree(4)


@pytest.fixture(scope="module")
def problem(topology):
    table = precompute_xpaths(topology, x=4, cap_c=50)
    flows = generate_flows(
        topology, 300, {"micro": 0.4, "small": 0.3, "medium": 0.2, "big": 0.1},
        plr=0.6, seed=0,
    )
    return flows, table


@pytest.fixture(scope="module")
def instance(topology, problem):
    inst = _Instance(*problem, topology)
    assert not inst.aggregated  # the gene loop reads the padded rows
    return inst


def _label_pad(inst):
    """The padded label rows built label by label: edges, then filler ids."""
    hops = np.diff(inst.label_ptr)
    pad = np.full((len(hops) + 1, hops.max()), inst.n_edges, dtype=np.int64)
    for label in range(1, len(hops) + 1):
        pad[label, : hops[label - 1]] = inst.label_edges[
            inst.label_ptr[label - 1] : inst.label_ptr[label]
        ]
    return pad


def test_loads_match_manual_accumulation(instance):
    rng = np.random.default_rng(3)
    genes = instance.random_genes(16, rng)
    loads = kernels.population_loads(
        genes, instance.label_ptr, instance.label_pad,
        instance.demands, instance.n_edges,
    )
    for m in range(16):
        manual = np.zeros(instance.n_edges, dtype=np.int64)
        for f in range(instance.n_flows):
            label = int(genes[m, f])
            for e in instance.label_edges[
                instance.label_ptr[label - 1] : instance.label_ptr[label]
            ]:
                manual[e] += instance.demands[f]
        assert np.array_equal(loads[m], manual)


def test_backends_agree_on_loads_and_fitness(instance, topology, problem):
    # the vectorised kernels and the routing layer (which shares their CSR
    # gather) against an independent oracle: per-edge sums over each
    # label's edges, read from the path table's hop tuples, and the exact
    # maximum of load / capacity as a fraction
    rng = np.random.default_rng(1)
    genes = instance.random_genes(16, rng)
    loads = kernels.population_loads(
        genes, instance.label_ptr, instance.label_pad,
        instance.demands, instance.n_edges,
    )
    penalty = 20
    fit, mu = kernels.fitness_mu(loads, instance.caps, penalty)
    ids = edge_index(topology)
    flows, table = problem
    for m in range(16):
        expected = np.zeros(instance.n_edges, dtype=np.int64)
        for flow, label in zip(flows.flows, genes[m]):
            hops = hops_of(table, [label])[0]
            for edge in zip(hops, hops[1:]):
                expected[ids[edge]] += to_units(flow.demand)
        expected_mu = float(max(Fraction(int(l), int(c)) for l, c in zip(expected, instance.caps)))
        assert np.array_equal(loads[m], expected)
        assert mu[m] == expected_mu

        matrix = assemble(RoutingAssignment(genes[m]), flows, table, topology)
        assert matrix.load_units == {
            edge: int(expected[i]) for edge, i in ids.items() if expected[i]
        }
        assert matrix.mu == expected_mu

        residual = instance.caps - expected
        overload = np.clip(-residual, 0, None)
        assert fit[m] == pytest.approx((residual.sum() - penalty * overload.sum()) / 1000.0)


def _random_flow_csr(instance, rng):
    n = int(rng.integers(2, 40))
    ptr = np.zeros(n + 1, dtype=np.int64)
    flat = []
    for f in range(n):
        label = int(instance.feas_labels[instance.feas_ptr[rng.integers(instance.n_flows)]])
        flat.extend(
            instance.label_edges[instance.label_ptr[label - 1] : instance.label_ptr[label]]
        )
        ptr[f + 1] = len(flat)
    return ptr, np.array(flat, dtype=np.int64), rng.uniform(0.5, 60.0, size=n)


def test_maxmin_rates_certify_max_min_fairness(instance):
    rng = np.random.default_rng(2)
    caps = instance.caps.astype(np.float64) / 1000.0
    for _ in range(10):
        ptr, edges, demands = _random_flow_csr(instance, rng)
        rates = kernels.maxmin_rates(ptr, edges, demands, caps)
        tol = 1e-9 * max(caps.max(), demands.max())
        flow_of = np.repeat(np.arange(len(demands)), np.diff(ptr))
        load = np.bincount(edges, weights=rates[flow_of], minlength=len(caps))
        top_rate = np.zeros(len(caps))
        np.maximum.at(top_rate, edges, rates[flow_of])

        assert (rates <= demands).all()
        assert (load <= caps + tol).all()
        # a flow held below its demand is stopped by a full edge it shares
        # only with flows no faster than itself
        for f in np.flatnonzero(rates < demands - tol):
            crossed = edges[ptr[f] : ptr[f + 1]]
            bottleneck = (load[crossed] >= caps[crossed] - tol) & (
                rates[f] >= top_rate[crossed] - tol
            )
            assert bottleneck.any(), f"flow {f} has no bottleneck edge"


def _maxmin_freeze_loop(flow_ptr, flow_edges, demands, capacities):
    """Water filling that freezes flows one at a time, as a per-flow loop."""
    n_flows, n_edges = len(demands), len(capacities)
    rates, frozen = np.zeros(n_flows), np.zeros(n_flows, dtype=bool)
    residual = capacities.astype(np.float64).copy()
    counts = np.bincount(flow_edges, minlength=n_edges).astype(np.int64)
    scale = max(capacities.max() if n_edges else 0.0, demands.max() if n_flows else 0.0)
    eps = 1e-9 * (scale if scale > 0 else 1.0)
    crossing = [flow_edges[flow_ptr[f] : flow_ptr[f + 1]] for f in range(n_flows)]
    while not frozen.all():
        active = counts > 0
        delta = (residual[active] / counts[active]).min() if active.any() else np.inf
        delta = max(min(delta, (demands[~frozen] - rates[~frozen]).min()), 0.0)
        rates[~frozen] += delta
        residual[active] -= delta * counts[active]
        saturated = active & (residual <= eps)
        for f in np.flatnonzero(~frozen):
            if rates[f] >= demands[f] - eps or saturated[crossing[f]].any():
                frozen[f] = True
                rates[f] = min(rates[f], demands[f])
                np.subtract.at(counts, crossing[f], 1)
    return rates


def test_maxmin_rates_equal_the_per_flow_freeze_loop(instance):
    rng = np.random.default_rng(5)
    caps = instance.caps.astype(np.float64) / 1000.0
    for _ in range(10):
        ptr, edges, demands = _random_flow_csr(instance, rng)
        rates = kernels.maxmin_rates(ptr, edges, demands, caps)
        assert rates.tolist() == _maxmin_freeze_loop(ptr, edges, demands, caps).tolist()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_edges=st.integers(1, 12))
def test_maxmin_rates_equal_the_freeze_loop_on_random_csrs(data, n_edges):
    # rows may be empty or repeat an id, edges may have no capacity, and
    # demands come from a small set, so that ties freeze many flows at once;
    # tenths are inexact in binary, so a rate can round past its demand
    rows = data.draw(st.lists(st.lists(st.integers(0, n_edges - 1), max_size=5), max_size=30))
    demands = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 0.9, 2.0]),
                                 min_size=len(rows), max_size=len(rows)))
    caps = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0, 2.5]),
                              min_size=n_edges, max_size=n_edges))
    ptr = np.cumsum([0, *map(len, rows)])
    edges = np.array([e for row in rows for e in row], dtype=np.int64)
    args = ptr, edges, np.array(demands, dtype=np.float64), np.array(caps)
    assert kernels.maxmin_rates(*args).tolist() == _maxmin_freeze_loop(*args).tolist()


def test_fitness_formula_matches_reference(instance):
    rng = np.random.default_rng(4)
    genes = instance.random_genes(6, rng)
    loads = kernels.population_loads(
        genes, instance.label_ptr, instance.label_pad,
        instance.demands, instance.n_edges,
    )
    penalty = 20
    fit, mu = kernels.fitness_mu(loads, instance.caps, penalty)
    for m in range(6):
        residual = instance.caps - loads[m]
        overload = np.clip(-residual, 0, None)
        expected = (residual.sum() - penalty * overload.sum()) / 1000.0
        assert fit[m] == pytest.approx(expected)
        assert mu[m] == pytest.approx((loads[m] / instance.caps).max())


def _check_load_forms_agree(topo, table, flows, members, rng):
    inst = _Instance(flows, table, topo)
    pad = _label_pad(inst)
    assert np.array_equal(inst.label_pad, pad)
    genes = inst.random_genes(members, rng)
    # member m's block of the aggregated form's index: the padded rows'
    # columns, one after another, each id offset by m * (n_edges + 1)
    pad_index = np.concatenate(
        [column + m * (inst.n_edges + 1) for m in range(members) for column in pad.T]
    )
    # both forms read the same per-flow demands
    loop = kernels.population_loads(genes, inst.label_ptr, pad, inst.demands, inst.n_edges)
    aggregated = kernels.population_loads(
        genes, inst.label_ptr, pad, inst.demands, inst.n_edges, pad_index
    )
    assert loop.dtype == aggregated.dtype == np.int64
    assert np.array_equal(loop, aggregated)
    assert np.array_equal(inst.loads(genes), loop)
    if inst.aggregated:
        assert np.array_equal(inst.pad_index, pad_index)
    for m in range(members):
        matrix = assemble(RoutingAssignment(genes[m]), flows, table, topo)
        assert matrix.load_units == {
            edge: int(loop[m, i]) for edge, i in edge_index(topo).items() if loop[m, i]
        }
    return loop


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 7),
    n_pairs=st.integers(1, 4),
    flows_per_pair=st.integers(1, 30),
    members=st.integers(1, 12),
)
def test_aggregated_and_gene_loop_loads_agree(seed, n_nodes, n_pairs, flows_per_pair, members):
    # few pairs, many flows each: many flows share every label; x=3 rows
    # hold 1 to 3 hops, so shorter rows end in filler
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n_nodes, edge_prob=0.5)
    table = precompute_xpaths(topo, x=3, cap_c=None)
    pairs = list(labels_by_pair(table))
    chosen = [pairs[i] for i in rng.choice(len(pairs), min(n_pairs, len(pairs)), replace=False)]
    flows = make_flows(
        [(*pair, int(rng.integers(1, 4000)) / 8) for pair in chosen for _ in range(flows_per_pair)]
    )
    _check_load_forms_agree(topo, table, flows, members, rng)


@pytest.mark.parametrize("name", ["fig2a", "fig2b"])
def test_load_forms_agree_on_sample_topologies_at_x10(name):
    # x=10 leaves every simple path in, so row widths vary the most
    rng = np.random.default_rng(10)
    topo = make_sample_topology(name, 10.0)
    table = precompute_xpaths(topo, x=10, cap_c=None)
    assert len(set(np.diff(table.label_edge_csr(topo)[0]).tolist())) > 1
    pairs = list(labels_by_pair(table))
    flows = make_flows(
        [(*pairs[i], int(rng.integers(1, 4000)) / 8) for i in rng.integers(len(pairs), size=40)]
    )
    _check_load_forms_agree(topo, table, flows, 9, rng)


def test_edges_no_label_crosses_read_zero_in_both_forms():
    # at x=2 a k=4 fat tree's paths stay inside a pod, so no label crosses
    # an aggregation-core link, the last edge ids among them; flows between
    # two access switches of one pod leave pod links no feasible label crosses
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, x=2, cap_c=None)
    ptr, edges = table.label_edge_csr(topo)
    n_edges = len(topo.cap_units)
    no_label = np.setdiff1d(np.arange(n_edges), edges)
    assert no_label.size and no_label[-1] == n_edges - 1
    flows = make_flows([(1, 2, 12.5), (2, 1, 0.125)] * 30)
    loads = _check_load_forms_agree(topo, table, flows, 6, np.random.default_rng(12))
    feasible = _Instance(flows, table, topo).feas_labels
    crossed = np.unique(kernels.csr_rows(ptr, edges, feasible - 1)[1])
    assert np.setdiff1d(edges, crossed).size
    assert not loads[:, np.setdiff1d(np.arange(n_edges), crossed)].any()
    assert loads[:, crossed].all()


def test_aggregated_buffers_grow_with_the_population():
    # the offset index, the form's one population-sized buffer, is grown on
    # the first call with more rows than before, and a later, smaller call
    # reads its first rows: 3, then 7, then 5 members each equal the gene loop
    topo = make_fat_tree(4, 200.0, 200.0, 100.0)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    inst = _Instance(generate_flows(topo, 500, ACCEPTANCE_MIX, plr=0.95, seed=1), table, topo)
    assert inst.aggregated
    rng = np.random.default_rng(7)
    for rows in (3, 7, 5):
        genes = inst.random_genes(rows, rng)
        loop = kernels.population_loads(
            genes, inst.label_ptr, inst.label_pad, inst.demands, inst.n_edges
        )
        assert np.array_equal(inst.loads(genes), loop), rows
    assert len(inst.pad_index) == 7 * inst.label_pad.size


@pytest.mark.parametrize(
    "k, n_flows, aggregated",
    [
        (4, 200, False), (4, 400, False), (4, 500, True), (4, 1000, True), (4, 2000, True),
        (8, 20_000, False), (12, 20_000, False),
    ],
)
def test_instance_picks_the_load_form_by_shape(k, n_flows, aggregated):
    topo = make_fat_tree(k, 200.0, 200.0, 100.0)
    table = precompute_xpaths(topo, x=4, cap_c=50)
    flows = generate_flows(topo, n_flows, ACCEPTANCE_MIX, plr=0.95, seed=1)
    inst = _Instance(flows, table, topo)
    hops = np.diff(inst.label_ptr)
    gene_entries = hops[inst.shortest - 1].sum()
    # the rule: aggregate when the table's labels hold at most half the edge
    # entries of one member's shortest genes (gene entries per label entry at
    # k=4: 0.97 at 200 flows, 1.94 at 400, 2.43 at 500; k=8: 1.16; k=12: 0.10)
    assert (2 * hops.sum() < gene_entries) == aggregated
    assert inst.aggregated == aggregated
    # both forms read the padded rows, as the mutation deltas do
    assert np.array_equal(inst.label_pad, _label_pad(inst))
