import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cect_lab.errors import CectLabError
from cect_lab.topology import Topology, has_units, make_fat_tree, make_sample_topology
from cect_lab.traffic import (
    CLASS_FRACTION,
    FLOW_CLASSES,
    Flow,
    FlowSet,
    compress_flows,
    default_compression_bounds,
    generate_flows,
    load_flows,
    save_flows,
)

from helpers import make_flows, reference_compress_flows

MIX = {"micro": 0.4, "small": 0.3, "medium": 0.2, "big": 0.1}


def test_demand_scales_with_min_capacity():
    topo = make_fat_tree(4, 100.0, 100.0, 100.0)
    flows = generate_flows(topo, 200, {"big": 1.0}, plr=0.5, seed=0)
    assert all(f.demand == 50.0 for f in flows.flows)
    topo2 = make_fat_tree(4, 40.0, 100.0, 100.0)
    flows2 = generate_flows(topo2, 50, {"micro": 1.0}, plr=0.5, seed=0)
    assert all(f.demand == pytest.approx(0.2) for f in flows2.flows)


def test_plr_zero_stays_in_pod():
    topo = make_fat_tree(4)
    flows = generate_flows(topo, 500, MIX, plr=0.0, seed=1)
    for f in flows.flows:
        assert topo.pod_of[f.src] == topo.pod_of[f.dst]


def test_plr_one_always_leaves_pod():
    topo = make_fat_tree(4)
    flows = generate_flows(topo, 500, MIX, plr=1.0, seed=1)
    for f in flows.flows:
        assert topo.pod_of[f.src] != topo.pod_of[f.dst]


def test_generation_deterministic():
    topo = make_fat_tree(4)
    a = generate_flows(topo, 2000, MIX, plr=0.5, seed=42)
    b = generate_flows(topo, 2000, MIX, plr=0.5, seed=42)
    assert a == b
    c = generate_flows(topo, 2000, MIX, plr=0.5, seed=43)
    assert a != c


def test_generation_stream_is_pinned():
    # the flows a seed draws never change, so saved sweeps and benchmark
    # inputs stay comparable; the mix holds a zero share on purpose
    mix = {"micro": 0.4, "small": 0.0, "medium": 0.35, "big": 0.25}
    digest = hashlib.sha256()
    fabrics = ((make_fat_tree(4), (0.0, 0.5, 1.0)), (make_sample_topology("fig2b"), (0.0,)))
    for topo, plrs in fabrics:
        for plr in plrs:
            for f in generate_flows(topo, 400, mix, plr, seed=3).flows:
                digest.update(f"{f.id} {f.src} {f.dst} {f.demand!r} {f.cls}\n".encode())
    assert digest.hexdigest() == "96e8594f9768fbaf29ed9bc21d74128aaf3d8c05140a9f24926adc950c3106c7"


def test_sources_are_edge_switches():
    topo = make_fat_tree(4)
    flows = generate_flows(topo, 300, MIX, plr=0.5, seed=3)
    edge = set(range(1, 9))  # the access switches of a k=4 fat-tree
    assert all(f.src in edge and f.dst in edge for f in flows.flows)


def test_class_mix_within_multinomial_bounds():
    topo = make_fat_tree(4)
    n = 4000
    flows = generate_flows(topo, n, MIX, plr=0.5, seed=5)
    for cls, frac in MIX.items():
        got = sum(1 for f in flows.flows if f.cls == cls)
        sigma = math.sqrt(n * frac * (1 - frac))
        assert abs(got - n * frac) <= 3 * sigma


def test_podless_topology_single_pool():
    topo = make_sample_topology("fig2b")
    flows = generate_flows(topo, 50, MIX, plr=0.0, seed=2)
    assert {f.src for f in flows.flows} <= {1, 2, 3, 4}
    with pytest.raises(ValueError):
        generate_flows(topo, 10, MIX, plr=0.3, seed=2)


def test_rejects_bad_mix_and_plr():
    topo = make_fat_tree(4)
    with pytest.raises(ValueError):
        generate_flows(topo, 10, {"micro": 0.6, "small": 0.6}, plr=0.5)
    with pytest.raises(ValueError):
        generate_flows(topo, 10, {"tiny": 1.0}, plr=0.5)
    with pytest.raises(ValueError):
        generate_flows(topo, 10, MIX, plr=1.5)


def test_compress_merges_below_lower_bound():
    flows = make_flows([(1, 2, 3.0), (1, 2, 3.0), (1, 2, 3.0)])
    out = compress_flows(flows, lower_bound=10.0, upper_bound=100.0)
    assert out.count == 1
    assert out.flows[0].demand == pytest.approx(9.0)
    assert (out.flows[0].src, out.flows[0].dst, out.flows[0].cls) == (1, 2, "custom")


def test_compress_splits_at_upper_bound():
    # 6+6 exceeds the cap of 10, so no two items can share a group
    flows = make_flows([(1, 2, 6.0), (1, 2, 6.0), (1, 2, 6.0)])
    out = compress_flows(flows, lower_bound=10.0, upper_bound=10.0)
    assert out.count == 3
    assert sorted(f.demand for f in out.flows) == [6.0, 6.0, 6.0]


def test_compress_zero_lower_bound_is_identity():
    flows = make_flows([(1, 2, 0.5), (2, 3, 7.0), (1, 2, 0.25)])
    out = compress_flows(flows, lower_bound=0.0, upper_bound=100.0)
    assert out == flows
    # whatever the upper bound, NaN included
    for upper in (math.nan, -1.0, 0.0, math.inf):
        assert compress_flows(flows, lower_bound=0.0, upper_bound=upper) == flows


@pytest.mark.parametrize(
    "lower, upper",
    [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan), (-0.5, 1.0), (2.0, 1.0)],
    ids=["nan-lower", "nan-upper", "nan-both", "negative-lower", "lower-above-upper"],
)
def test_compress_rejects_nan_and_disordered_bounds(lower, upper):
    # a NaN bound fails every comparison, so it would merge nothing silently
    flows = make_flows([(1, 2, 0.25), (1, 2, 0.25)])
    with pytest.raises(ValueError, match="0 <= lower_bound <= upper_bound"):
        compress_flows(flows, lower, upper)


def test_compress_passthrough_keeps_large_flows():
    flows = make_flows([(1, 2, 50.0), (1, 2, 1.0), (1, 2, 2.0)])
    out = compress_flows(flows, lower_bound=10.0, upper_bound=20.0)
    # the large flow passes first, unchanged; the two small ones merge after it
    assert out.flows[0] == flows.flows[0]
    assert [(f.id, f.demand, f.cls) for f in out.flows[1:]] == [(2, 3.0, "custom")]


@settings(max_examples=60, deadline=None)
@given(
    demands=st.lists(
        st.tuples(
            st.integers(1, 3),  # src
            st.integers(4, 6),  # dst
            st.floats(0.01, 30.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    ),
    lower=st.floats(0.1, 10.0),
)
def test_compress_conserves_pair_demand(demands, lower):
    flows = make_flows(demands)
    out = compress_flows(flows, lower_bound=lower, upper_bound=60.0)
    totals_in: dict = {}
    for f in flows.flows:
        totals_in[(f.src, f.dst)] = totals_in.get((f.src, f.dst), 0.0) + f.demand
    totals_out: dict = {}
    for f in out.flows:
        totals_out[(f.src, f.dst)] = totals_out.get((f.src, f.dst), 0.0) + f.demand
    assert set(totals_in) == set(totals_out)
    for pair in totals_in:
        assert totals_out[pair] == pytest.approx(totals_in[pair], rel=0, abs=1e-9)
    # the flows at or above lower pass first, unchanged and in order, then
    # the merged ones, none above upper
    large = [(f.src, f.dst, f.demand, f.cls) for f in flows.flows if f.demand >= lower]
    assert [(f.src, f.dst, f.demand, f.cls) for f in out.flows[: len(large)]] == large
    assert all(f.demand <= 60.0 + 1e-12 for f in out.flows[len(large):])


# few values, so demands tie and land on the bounds; 0 disables merging
_COMPRESS_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)


@settings(max_examples=600, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 4)]),
            st.sampled_from(_COMPRESS_VALUES[1:]) | st.floats(0.01, 8.0),
            st.sampled_from(FLOW_CLASSES),
        ),
        max_size=60,
    ),
    bounds=st.lists(st.sampled_from(_COMPRESS_VALUES) | st.floats(0.0, 8.0), min_size=2,
                    max_size=2).map(sorted),
)
def test_compress_matches_the_bucket_per_pair_reference(specs, bounds):
    # the one sort packs every pair's bins as the dict of sorted lists did:
    # same ids, ends, classes and bit-identical demands
    flows = FlowSet(flows=tuple(
        Flow(i, src, dst, demand, cls) for i, ((src, dst), demand, cls) in enumerate(specs, 1)
    ))
    assert compress_flows(flows, *bounds) == reference_compress_flows(flows, *bounds)


def test_compress_idempotent_when_groups_large_enough():
    flows = make_flows([(1, 2, 4.0), (1, 2, 4.0), (1, 2, 4.0), (3, 4, 3.0), (3, 4, 3.0)])
    once = compress_flows(flows, lower_bound=5.0, upper_bound=100.0)
    assert all(f.demand >= 5.0 for f in once.flows)
    twice = compress_flows(once, lower_bound=5.0, upper_bound=100.0)
    assert twice == once


def test_compress_reduces_small_heavy_workload():
    topo = make_fat_tree(4)
    flows = generate_flows(
        topo, 1000, {"micro": 0.6, "small": 0.3, "medium": 0.08, "big": 0.02},
        plr=0.5, seed=9,
    )
    lower, upper = default_compression_bounds(topo)
    out = compress_flows(flows, 2.5, upper)
    assert out.count <= flows.count // 2
    assert lower == pytest.approx(0.01)
    assert upper == pytest.approx(50.0)


def test_flow_file_round_trip(tmp_path):
    topo = make_fat_tree(4)
    flows = generate_flows(topo, 40, MIX, plr=0.5, seed=11)
    path = tmp_path / "flows.txt"
    save_flows(flows, path)
    assert load_flows(path) == flows


def test_flow_file_round_trip_keeps_every_digit(tmp_path):
    flows = make_flows([(1, 2, 0.500617283945), (2, 1, 1 / 3), (1, 3, 123456.789012345)])
    path = tmp_path / "flows.txt"
    save_flows(flows, path)
    assert load_flows(path) == flows


def test_flowset_arrays_are_built_once_and_read_only():
    flows = generate_flows(make_fat_tree(4), 300, MIX, plr=0.5, seed=4)
    arrays = {
        "demands": [f.demand for f in flows.flows],
        "demand_units": [int(round(f.demand * 1000)) for f in flows.flows],
        "ends": [[f.src, f.dst] for f in flows.flows],
    }
    for name, expected in arrays.items():
        array = getattr(flows, name)
        assert array.tolist() == expected, name
        assert not array.flags.writeable, name
    assert flows.demands.dtype == np.float64


# the least and the greatest demand that has_units admits, the floats just
# outside them, and demands whose milli-units lie on a tie (1.5 and 2.5)
_DEMAND_LIMITS = [0.0005000000000000001, 0.0005, 9223372036854774.0, 9223372036854776.0,
                  0.0015, 0.0025]


@settings(max_examples=200, deadline=None)
@given(
    demands=st.lists(
        st.sampled_from(_DEMAND_LIMITS) | st.floats(0.0005, 9.3e15) | st.floats(0.0005, 1.0),
        max_size=20,
    ),
)
def test_demand_units_round_each_demand_exactly(demands):
    admitted = [d for d in demands if has_units(d)]
    flows = make_flows([(1, 2, d) for d in admitted])
    assert flows.demand_units.dtype == np.int64
    assert flows.demand_units.tolist() == [int(round(d * 1000)) for d in admitted]
    assert flows.demands.tolist() == admitted
    assert flows.ends.shape == (len(admitted), 2)
    assert flows.ends.tolist() == [[1, 2]] * len(admitted)
    for array in (flows.ends, flows.demands, flows.demand_units):
        assert not array.flags.writeable


def test_flow_invariants():
    with pytest.raises(ValueError):
        Flow(id=1, src=2, dst=2, demand=1.0)
    # 0.0004 rounds to 0 load units
    for demand in (0.0, 0.0004, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="flow 1"):
            Flow(id=1, src=1, dst=2, demand=demand)
    with pytest.raises(ValueError):
        FlowSet(flows=(Flow(id=2, src=1, dst=2, demand=1.0),))


_NOT_INTEGERS = [1.5, 1.0, True, "1", np.float64(4.0), np.True_]


@pytest.mark.parametrize("field", ["id", "src", "dst"])
@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
def test_flow_refuses_an_id_that_is_not_an_integer(field, value):
    # a float or a bool compares equal to an int, so it would pass every
    # other check and be saved as a record load_flows refuses
    ids = dict(id=1, src=1, dst=4) | {field: value}
    with pytest.raises(ValueError, match=f": {field} {re.escape(repr(value))} is not an integer$"):
        Flow(**ids, demand=0.5)


def test_flows_with_numpy_integer_ids_save_and_reload_equal(tmp_path):
    flows = FlowSet((Flow(np.int64(1), np.int32(1), np.uint8(4), 0.5),
                     Flow(2, np.int16(4), 2, 1.25, "small")))
    assert flows.ends.tolist() == [[1, 4], [4, 2]]
    path = tmp_path / "flows.txt"
    save_flows(flows, path)
    assert load_flows(path) == flows


def test_load_flows_names_line_of_unit_less_demand(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("flow 1 1 2 1.0 custom\nflow 2 2 1 0.0004 custom\n", encoding="utf-8")
    detail = "line 2: flow 2: demand 0.0004 is not finite or rounds to 0 load units"
    with pytest.raises(CectLabError, match=f"^{re.escape(f'{path}: {detail}')}$"):
        load_flows(path)


def test_load_flows_names_line_of_unknown_class(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("flow 1 1 2 1.0 huge\n", encoding="utf-8")
    with pytest.raises(CectLabError) as info:
        load_flows(path)
    assert str(info.value) == f"{path}: line 1: flow 1: unknown class 'huge'"


def test_load_flows_names_line_of_id_out_of_order(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("flow 1 1 2 1.0 custom\n\nflow 3 2 1 1.0 custom\n", encoding="utf-8")
    detail = "line 3: flow id 3 breaks the dense order 1..N"
    with pytest.raises(CectLabError, match=f"^{re.escape(f'{path}: {detail}')}$"):
        load_flows(path)


def test_load_flows_skips_comments_and_blanks_and_names_path_and_line(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("# header\n\nflow 1 1 2 1.0 custom # first\n  \nflow 2 2 1 2.0 small\n",
                    encoding="utf-8")
    assert load_flows(path) == FlowSet(flows=(Flow(1, 1, 2, 1.0), Flow(2, 2, 1, 2.0, "small")))
    path.write_text("# header\n\nflow 1 1 2 1.0 custom\nflow 2 2 1\n", encoding="utf-8")
    with pytest.raises(CectLabError) as info:
        load_flows(path)
    assert str(info.value) == f"{path}: line 4: unrecognized record 'flow 2 2 1'"


def test_a_linkless_topology_sizes_no_flow_demands():
    topo = Topology(nodes=(1, 2), links=())
    for size in (lambda: generate_flows(topo, 3, MIX, plr=0.0, seed=1),
                 lambda: default_compression_bounds(topo)):
        with pytest.raises(ValueError, match="^the topology has no links to size flow demands by$"):
            size()


def test_flows_are_drawn_only_where_every_rule_holds():
    # switch 2's link to the pod-less switch 3 leaves its pod, so only 1 is an access switch
    links = ((1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0))
    one_end = Topology(nodes=(1, 2, 3), links=links, pod_of={1: 0, 2: 0})
    thin = make_sample_topology("fig2a", 0.1)
    for draw, message in (
        (lambda: generate_flows(one_end, 3, MIX, plr=0.0, seed=1),
         "flows need 2 edge switches, and the topology has 1"),
        (lambda: generate_flows(thin, 3, {"micro": 0.5, "big": 0.5}, plr=0.0, seed=1),
         "mix: micro demand 0.0005 rounds to 0 load units"),
        (lambda: default_compression_bounds(make_sample_topology("fig2a", 0.015)),
         "compress: half the smallest capacity, 0.0075, is below 0.01"),
    ):
        with pytest.raises(ValueError) as info:
            draw()
        assert str(info.value) == message
    # a class the mix never draws needs no load unit
    flows = generate_flows(thin, 3, {"micro": 0.0, "big": 1.0}, plr=0.0, seed=1)
    assert {f.cls for f in flows.flows} == {"big"}


def test_class_fractions_match_published_values():
    assert CLASS_FRACTION == {
        "micro": 0.005, "small": 0.02, "medium": 0.2, "big": 0.5
    }
