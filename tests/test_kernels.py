from fractions import Fraction

import numpy as np
import pytest

from cect_lab import kernels
from cect_lab.ga import _Instance
from cect_lab.routing import RoutingAssignment, assemble
from cect_lab.topology import make_fat_tree, to_units
from cect_lab.traffic import generate_flows
from cect_lab.xpath import precompute_xpaths


@pytest.fixture(scope="module")
def topology():
    return make_fat_tree(4)


@pytest.fixture(scope="module")
def instance(topology):
    table = precompute_xpaths(topology, x=4, cap_c=50)
    flows = generate_flows(
        topology, 300, {"micro": 0.4, "small": 0.3, "medium": 0.2, "big": 0.1},
        plr=0.6, seed=0,
    )
    return _Instance(flows, table, topology)


def test_loads_match_manual_accumulation(instance):
    rng = np.random.default_rng(3)
    genes = instance.random_genes(16, rng)
    loads = kernels.population_loads(
        genes, instance.label_ptr, instance.label_edges,
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


def test_backends_agree_on_loads_and_fitness(instance, topology):
    # the vectorised kernels and the routing layer (which shares their CSR
    # gather) against an independent oracle: per-edge sums over each
    # label's edges, read from the path table's hop tuples, and the exact
    # maximum of load / capacity as a fraction
    rng = np.random.default_rng(1)
    genes = instance.random_genes(16, rng)
    loads = kernels.population_loads(
        genes, instance.label_ptr, instance.label_edges,
        instance.demands, instance.n_edges,
    )
    penalty = 20
    fit, mu = kernels.fitness_mu(loads, instance.caps, penalty)
    edge_index = topology.edge_index()
    for m in range(16):
        expected = np.zeros(instance.n_edges, dtype=np.int64)
        for flow, label in zip(instance.flowset.flows, genes[m]):
            for edge in instance.table.paths[int(label)].edges():
                expected[edge_index[edge]] += to_units(flow.demand)
        expected_mu = float(max(Fraction(int(l), int(c)) for l, c in zip(expected, instance.caps)))
        assert np.array_equal(loads[m], expected)
        assert mu[m] == expected_mu

        choice = {flow.id: int(g) for flow, g in zip(instance.flowset.flows, genes[m])}
        matrix = assemble(RoutingAssignment(choice), instance.flowset, instance.table, topology)
        assert matrix.load_units == {
            edge: int(expected[i]) for edge, i in edge_index.items() if expected[i]
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


def test_fitness_formula_matches_reference(instance):
    rng = np.random.default_rng(4)
    genes = instance.random_genes(6, rng)
    loads = kernels.population_loads(
        genes, instance.label_ptr, instance.label_edges,
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
