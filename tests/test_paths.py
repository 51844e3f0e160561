from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from pcnsim import (ChannelGraph, DagCache, Rng, edge_betweenness,
                    edge_selection_probability, make_clique, make_ring,
                    sample_shortest_path, sssp_dag)

from helpers import (brute_edge_betweenness, enumerate_shortest_paths,
                     mean_pair_distance, random_connected_edges)

PATH_GRAPH = [(0, 1, 2), (1, 2, 2)]


def test_sssp_on_path_graph():
    g = ChannelGraph(3, PATH_GRAPH)
    dag = sssp_dag(g, 0)
    assert dag.sigma == [1, 1, 1]
    assert dag.dist == [0, 1, 2]
    assert dag.preds[2] == [1]


def test_sssp_four_cycle_two_paths():
    dag = sssp_dag(make_ring(4, 2), 0)
    assert dag.sigma[2] == 2
    assert sorted(dag.preds[2]) == [1, 3]


def test_sssp_clique_unit_paths():
    dag = sssp_dag(make_clique(6, 2), 3)
    assert all(dag.sigma[v] == 1 for v in range(6) if v != 3)
    assert all(dag.dist[v] == 1 for v in range(6) if v != 3)


def test_sssp_unreachable_marked_inf():
    g = ChannelGraph(4, [(0, 1, 2), (2, 3, 2)])
    dag = sssp_dag(g, 0)
    assert dag.dist[2] == math.inf and dag.sigma[2] == 0


def test_sigma_recurrence_on_random_graphs():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randrange(5, 13)
        edges = random_connected_edges(rng, n)
        g = ChannelGraph(n, edges)
        src = rng.randrange(n)
        dag = sssp_dag(g, src)
        for w in range(n):
            if w == src or dag.sigma[w] == 0:
                continue
            assert dag.sigma[w] == sum(dag.sigma[p] for p in dag.preds[w])
            assert all(dag.dist[p] == dag.dist[w] - 1 for p in dag.preds[w])


def test_sample_clique_single_edge():
    g = make_clique(5, 2)
    dag = sssp_dag(g, 1)
    rng = Rng(0)
    for _ in range(10):
        assert sample_shortest_path(dag, 4, rng) == [1, 4]


def test_sample_rejects_bad_targets():
    g = ChannelGraph(4, [(0, 1, 2), (2, 3, 2)])
    dag = sssp_dag(g, 0)
    with pytest.raises(ValueError):
        sample_shortest_path(dag, 0, Rng(1))
    with pytest.raises(ValueError):
        sample_shortest_path(dag, 2, Rng(1))


def test_sample_four_cycle_halves():
    g = make_ring(4, 2)
    dag = sssp_dag(g, 0)
    rng = Rng(123)
    counts = Counter(tuple(sample_shortest_path(dag, 2, rng)) for _ in range(10000))
    assert set(counts) == {(0, 1, 2), (0, 3, 2)}
    # within 3 binomial standard deviations of 1/2
    sd = math.sqrt(10000 * 0.25)
    assert abs(counts[(0, 1, 2)] - 5000) <= 3 * sd


def test_sample_six_cycle_antipodal_halves():
    g = make_ring(6, 2)
    paths = enumerate_shortest_paths([(g.edge_u[i], g.edge_v[i], 0) for i in range(6)], 6, 0, 3)
    assert len(paths) == 2
    dag = sssp_dag(g, 0)
    rng = Rng(7)
    counts = Counter(tuple(sample_shortest_path(dag, 3, rng)) for _ in range(10000))
    assert set(counts) == set(paths)
    sd = math.sqrt(10000 * 0.25)
    assert abs(counts[paths[0]] - 5000) <= 3 * sd


def test_sampling_uniform_over_enumerated_paths():
    # graphs up to 12 nodes: every shortest path's frequency within 4 binomial
    # standard deviations of 1/sigma
    rng_graph = random.Random(29)
    checked_multi = 0
    for seed in range(6):
        n = rng_graph.randrange(6, 13)
        edges = random_connected_edges(rng_graph, n, extra_prob=0.35)
        g = ChannelGraph(n, edges)
        dags = {s: sssp_dag(g, s) for s in range(n)}
        best = max(((s, t) for s in range(n) for t in range(n) if s != t),
                   key=lambda st: dags[st[0]].sigma[st[1]])
        s, t = best
        sigma = dags[s].sigma[t]
        if sigma < 2:
            continue
        checked_multi += 1
        paths = enumerate_shortest_paths(edges, n, s, t)
        assert len(paths) == sigma
        draws = 100_000
        rng = Rng(1000 + seed)
        counts = Counter(tuple(sample_shortest_path(dags[s], t, rng))
                         for _ in range(draws))
        assert set(counts) <= set(paths)
        p = 1.0 / sigma
        sd = math.sqrt(draws * p * (1 - p))
        for path in paths:
            assert abs(counts[path] - draws * p) <= 4 * sd, (seed, path)
    assert checked_multi >= 3


def test_betweenness_examples():
    assert edge_betweenness(make_clique(4, 2)).values == pytest.approx([1.0] * 6)
    assert edge_betweenness(ChannelGraph(3, PATH_GRAPH)).values == pytest.approx([2.0, 2.0])
    assert edge_betweenness(make_ring(4, 2)).values == pytest.approx([2.0] * 4)


def test_betweenness_matches_brute_force():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randrange(4, 9)
        edges = random_connected_edges(rng, n, extra_prob=0.4)
        g = ChannelGraph(n, edges)
        got = edge_betweenness(g).values
        want = brute_edge_betweenness(edges, n)
        assert got == pytest.approx(want, abs=1e-9)


def test_betweenness_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    n = 10
    edges = random_connected_edges(rng, n, extra_prob=0.3)
    g = ChannelGraph(n, edges)
    gn = nx.Graph()
    gn.add_nodes_from(range(n))
    gn.add_edges_from((u, v) for u, v, _ in edges)
    want = nx.edge_betweenness_centrality(gn, normalized=False)
    got = edge_betweenness(g)
    for (u, v), value in want.items():
        assert got[g.edge_id(u, v)] == pytest.approx(value, abs=1e-9)


def test_betweenness_sum_is_total_pair_distance():
    rng = random.Random(47)
    for _ in range(6):
        n = rng.randrange(5, 11)
        edges = random_connected_edges(rng, n)
        g = ChannelGraph(n, edges)
        total = sum(edge_betweenness(g).values)
        want = mean_pair_distance(edges, n) * (n * (n - 1) / 2)
        assert total == pytest.approx(want, abs=1e-9)


def test_selection_probability_examples():
    g = make_clique(5, 2)
    bmap = edge_betweenness(g)
    for eid in range(g.edge_count):
        assert edge_selection_probability(g, bmap, eid) == pytest.approx(2 / 20)
    gp = ChannelGraph(3, PATH_GRAPH)
    bp = edge_betweenness(gp)
    assert edge_selection_probability(gp, bp, gp.edge_id(0, 1)) == pytest.approx(2 / 3)


def test_selection_probabilities_sum_to_mean_distance():
    rng = random.Random(53)
    for _ in range(5):
        n = rng.randrange(5, 11)
        edges = random_connected_edges(rng, n)
        g = ChannelGraph(n, edges)
        bmap = edge_betweenness(g)
        total = sum(edge_selection_probability(g, bmap, e) for e in range(g.edge_count))
        assert total == pytest.approx(mean_pair_distance(edges, n), abs=1e-9)


def test_sampled_edge_frequency_converges_to_selection_probability():
    rng_graph = random.Random(59)
    n = 9
    edges = random_connected_edges(rng_graph, n, extra_prob=0.3)
    g = ChannelGraph(n, edges)
    bmap = edge_betweenness(g)
    dags = {s: sssp_dag(g, s) for s in range(n)}
    rng = Rng(60)
    draws = 100_000
    counts = [0] * g.edge_count
    for _ in range(draws):
        s, t = rng.pair(n)
        path = sample_shortest_path(dags[s], t, rng)
        for a, b in zip(path, path[1:]):
            counts[g.edge_id(a, b)] += 1
    for eid in range(g.edge_count):
        p = edge_selection_probability(g, bmap, eid)
        sd = math.sqrt(draws * p * (1 - p))
        assert abs(counts[eid] - draws * p) <= 4 * sd, eid


def test_sampled_paths_are_simple_and_strictly_shortening():
    # each edge appears at most once per payment, so per round a balance can
    # only move by 0 or +-amount along its fixed orientation
    rng_graph = random.Random(61)
    edges = random_connected_edges(rng_graph, 10, extra_prob=0.3)
    g = ChannelGraph(10, edges)
    rng = Rng(8)
    for s in range(10):
        dag = sssp_dag(g, s)
        for t in range(10):
            if t == s:
                continue
            path = sample_shortest_path(dag, t, rng)
            assert len(set(path)) == len(path)
            assert len(path) - 1 == dag.dist[t]
            assert [dag.dist[v] for v in path] == list(range(len(path)))


def test_dag_cache_reuses_and_bounds_entries(monkeypatch):
    g = make_ring(12, 2)
    monkeypatch.setattr("pcnsim.paths._PER_SOURCE_MAX_NODES", 11)
    monkeypatch.setattr("pcnsim.paths._ST_PAIRS", 4)
    cache = DagCache(g)
    d0 = cache.get(0, 6)
    assert cache.get(0, 6) is d0
    for s in range(1, 6):
        cache.get(s, 6)
    assert cache.misses == 6
    assert len(cache._dags) == 4


def test_dag_cache_does_not_change_sampling():
    g = make_ring(10, 2)
    cache = DagCache(g)
    r1, r2 = Rng(99), Rng(99)
    direct = [sample_shortest_path(sssp_dag(g, 2), 7, r1) for _ in range(50)]
    cached = [sample_shortest_path(cache.get(2, 7), 7, r2) for _ in range(50)]
    assert direct == cached
