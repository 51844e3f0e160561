from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pcnsim import (ChannelGraph, apply_plan, edge_betweenness, make_clique, make_ring,
                    redistribute_uniform, redistribute_xi_optimized, xi_and_bounds)
from pcnsim.analytics import BOUND_REPORT_COLUMNS, bound_report_rows
from pcnsim.paths import BetweennessMap
from pcnsim.planner import MIN_CAPACITY, _apportion, load_plan_csv, plan_rows, PLAN_COLUMNS
from pcnsim.results import read_csv, write_csv

from helpers import log_uniform_capacities, oracle_apportion, random_connected_edges


def _graph_with_total(total_per_edge):
    n = len(total_per_edge) + 1
    return ChannelGraph(n, [(i, i + 1, c) for i, c in enumerate(total_per_edge)])


def test_uniform_even_split():
    plan = redistribute_uniform(_graph_with_total([40, 30, 20, 10]))
    assert plan.new_capacity == [25, 25, 25, 25]
    assert plan.total_after == 100


def test_uniform_remainder_goes_to_ascending_ids():
    plan = redistribute_uniform(_graph_with_total([40, 30, 22, 10]))
    assert plan.new_capacity == [26, 26, 25, 25]
    assert plan.total_after == 102


def test_uniform_fixed_point():
    g = _graph_with_total([12, 12, 12])
    assert redistribute_uniform(g).new_capacity == [12, 12, 12]


def test_uniform_rejects_insufficient_total():
    g = _graph_with_total([1, 1, 1])
    with pytest.raises(ValueError):
        redistribute_uniform(g)


def test_xi_optimized_two_edge_example():
    # g = {1, 4}, total 30: targets k proportional to {1, 2} -> capacities {10, 20}
    g = _graph_with_total([15, 15])
    plan = redistribute_xi_optimized(g, BetweennessMap([1.0, 4.0]))
    assert plan.new_capacity == [10, 20]
    # ratios equalize exactly here: 5^2/1 == 10^2/4
    assert (5 * 5) / 1.0 == (10 * 10) / 4.0


def test_xi_optimized_on_clique_matches_uniform():
    g = make_clique(6, 8)
    bmap = edge_betweenness(g)
    assert redistribute_xi_optimized(g, bmap).new_capacity == \
        redistribute_uniform(g).new_capacity


def test_xi_optimized_single_edge():
    g = ChannelGraph(2, [(0, 1, 14)])
    plan = redistribute_xi_optimized(g, edge_betweenness(g))
    assert plan.new_capacity == [14]


def test_xi_optimized_zero_betweenness_gets_floor():
    g = _graph_with_total([10, 10, 10])
    plan = redistribute_xi_optimized(g, BetweennessMap([2.0, 0.0, 2.0]))
    assert plan.new_capacity[1] == 2
    assert sum(plan.new_capacity) == 30


def test_xi_optimized_clamps_low_betweenness_edges_and_resolves():
    # a 10-node path (edges 0-8) with two leaves on each end node (edges
    # 9-12), every capacity 3: the leaf edges' share of the total 39 at
    # g = 13 is below the floor, so they clamp there and the path edges
    # split what is left
    edges = [(i, i + 1, 3) for i in range(9)] + [(0, 10, 3), (0, 11, 3), (9, 12, 3),
                                                  (9, 13, 3)]
    g = ChannelGraph(14, edges)
    bmap = edge_betweenness(g)
    assert bmap.values[9:] == [13.0] * 4
    share = g.total_capacity() / sum(math.sqrt(v) for v in bmap.values)
    assert share * math.sqrt(13.0) < MIN_CAPACITY
    plan = redistribute_xi_optimized(g, bmap)
    assert plan.new_capacity == [3, 3, 4, 4, 4, 4, 3, 3, 3, 2, 2, 2, 2]
    assert plan.total_before == plan.total_after == 39


def test_xi_optimized_spare_unit_goes_to_the_larger_float():
    # equal in exact arithmetic, one float bit apart: the larger value's
    # remainder is the larger, so it takes the spare unit
    g = _graph_with_total([9, 2])
    plan = redistribute_xi_optimized(g, BetweennessMap([3.5833333333333326, 3.583333333333333]))
    assert plan.new_capacity == [5, 6]


@pytest.mark.parametrize("values, message", [
    ([4.0, 4.0, 4.0], "has 3 values for 4 edges: edge 3 has no match"),
    ([4.0] * 5, "has 5 values for 4 edges: edge 4 has no match"),
    ([4.0, -1.0, 4.0, 4.0], "edge 1 has betweenness -1.0, not a finite value >= 0"),
    ([4.0, 4.0, math.inf, 4.0], "edge 2 has betweenness inf, not a finite value >= 0"),
    ([4.0, 4.0, 4.0, math.nan], "edge 3 has betweenness nan, not a finite value >= 0"),
])
def test_xi_optimized_rejects_a_bad_betweenness_map(values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        redistribute_xi_optimized(make_ring(4, 8), BetweennessMap(values))


_WEIGHT = st.one_of(st.just(0), st.integers(1, 30), st.integers(1, 10 ** 30))


@settings(max_examples=400)
@given(weights=st.lists(_WEIGHT, min_size=1, max_size=12), dominant=st.booleans(),
       extra=st.one_of(st.integers(0, 8), st.integers(0, 10 ** 6), st.integers(0, 2 ** 62)))
def test_apportion_matches_exact_batch_water_filling(weights, dominant, extra):
    if dominant:
        weights = weights + [10 ** 45]
    if not any(weights):
        weights = weights + [1]
    m = len(weights)
    total = MIN_CAPACITY * m + extra
    g = _graph_with_total([total // m + (eid < total % m) for eid in range(m)])  # in int64
    plan = _apportion(g, weights, "weights")
    caps, targets = oracle_apportion(total, weights)
    assert plan.new_capacity == caps
    assert plan.total_before == plan.total_after == sum(caps) == total
    assert min(caps) >= MIN_CAPACITY
    assert all(weights[eid] > 0 for eid in targets)
    for eid, target in targets.items():
        assert abs(caps[eid] - target) < 1


def test_plans_conserve_capacity_on_random_graphs():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randrange(5, 12)
        edges = random_connected_edges(rng, n, extra_prob=0.3,
                                       caps=tuple(log_uniform_capacities(rng, 8, 10, 5000)))
        g = ChannelGraph(n, edges)
        bmap = edge_betweenness(g)
        for plan in (redistribute_uniform(g), redistribute_xi_optimized(g, bmap)):
            assert sum(plan.new_capacity) == g.total_capacity()
            assert min(plan.new_capacity) >= 2


def test_xi_optimized_rounding_envelope_and_monotone_xi():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randrange(5, 12)
        edges = random_connected_edges(rng, n, extra_prob=0.3,
                                       caps=tuple(log_uniform_capacities(rng, 8, 10, 5000)))
        g = ChannelGraph(n, edges)
        bmap = edge_betweenness(g)
        plan = redistribute_xi_optimized(g, bmap)
        # pairwise equalization: cap_e / sqrt(g_e) agrees across unclamped
        # edges up to the +-1 unit each capacity may have been rounded by
        unclamped = [eid for eid in range(g.edge_count) if plan.new_capacity[eid] > 2]
        for i in unclamped:
            for j in unclamped:
                ri = plan.new_capacity[i] / math.sqrt(bmap.values[i])
                rj = plan.new_capacity[j] / math.sqrt(bmap.values[j])
                slack = 1 / math.sqrt(bmap.values[i]) + 1 / math.sqrt(bmap.values[j])
                assert abs(ri - rj) <= slack + 1e-9
        before = xi_and_bounds(g, bmap).xi
        after = xi_and_bounds(apply_plan(g, plan), bmap).xi
        assert after >= before - 1e-9


def test_apply_plan_and_csv_round_trip(tmp_path):
    rng = random.Random(103)
    g = ChannelGraph(5, random_connected_edges(rng, 5, caps=(20, 30, 48)))
    bmap = edge_betweenness(g)
    plan = redistribute_xi_optimized(g, bmap)
    path = tmp_path / "plan.csv"
    write_csv(path, {"strategy": plan.strategy}, PLAN_COLUMNS, plan_rows(g, bmap, plan))
    loaded = load_plan_csv(path, g)
    assert loaded == plan.new_capacity
    g2 = apply_plan(g, plan)
    assert g2.total_capacity() == g.total_capacity()
    for column in ("edge_u", "edge_v"):
        assert getattr(g2, column).tolist() == getattr(g, column).tolist()


def test_reports_on_capacities_whose_squares_pass_int64(tmp_path):
    # k = 10**10 on the first channel: k * k = 10**20 overflows int64
    caps = [2 * 10 ** 10, 6, 10]
    g = ChannelGraph(4, [(0, 1, caps[0]), (1, 2, caps[1]), (2, 3, caps[2])])
    bmap = edge_betweenness(g)
    report = xi_and_bounds(g, bmap)
    ratios = [(c // 2) * (c // 2) / b for c, b in zip(caps, bmap.values)]
    assert [report.per_edge_ratios[eid] for eid in range(3)] == ratios
    assert report.per_edge_ratios[0] == 10 ** 20 / 3.0
    assert g.total_capacity() == sum(caps)

    bounds = tmp_path / "bounds.csv"
    write_csv(bounds, {"xi": report.xi}, BOUND_REPORT_COLUMNS,
              bound_report_rows(g, bmap, report))
    _, _, rows = read_csv(bounds)
    assert [row[1] for row in rows] == [str(c // 2) for c in caps]
    assert [row[3] for row in rows] == [repr(r) for r in ratios]

    plan = redistribute_uniform(g)
    path = tmp_path / "plan.csv"
    write_csv(path, {}, PLAN_COLUMNS, plan_rows(g, bmap, plan))
    _, _, rows = read_csv(path)
    assert [row[1] for row in rows] == [str(c) for c in caps]
    assert [int(row[2]) for row in rows] == plan.new_capacity
    assert [row[4] for row in rows] == [repr((c // 2) * (c // 2) / b) for c, b
                                        in zip(plan.new_capacity, bmap.values)]
    assert load_plan_csv(path, g) == plan.new_capacity
