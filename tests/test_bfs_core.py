"""The CSR BFS core against the deque-BFS oracles in helpers.

``sssp_dag`` and ``edge_betweenness`` run one level-synchronous numpy BFS over
``ChannelGraph.csr``; these tests pin them to the per-node list
implementations they replaced: equal distances, path counts and predecessor
order, identical sampled paths for the same draws, and bit-identical
betweenness values.  The s–t DAGs of ``st_dag``, which ``DagCache`` builds
when it cannot hold every source, are pinned to the per-source DAGs.
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim import (ChannelGraph, Rng, SimConfig, edge_betweenness, make_ring,
                    monte_carlo, multi_amount_experiment, run_payment_process, run_seed,
                    sssp_dag)
from pcnsim.paths import DagCache, sample_shortest_path, st_dag

from helpers import (adjacency_of, bfs_dist, csr_rows, oracle_edge_betweenness,
                     oracle_sample_path, oracle_sssp_dag, random_connected_edges,
                     small_world_edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 16), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_dag_and_samples_match_oracle(n, extra, seed):
    g = ChannelGraph(n, random_connected_edges(random.Random(seed), n, extra_prob=extra))
    for s in range(n):
        got, want = sssp_dag(g, s), oracle_sssp_dag(g, s)
        assert got.dist == want.dist
        assert got.sigma == want.sigma
        assert all(type(x) is int for x in got.sigma)
        for w in range(n):
            assert got.preds[w] == want.preds[w], (s, w)
        for t in range(n):
            if t != s:
                draw = seed * 1000 + s * n + t
                assert (sample_shortest_path(got, t, Rng(draw))
                        == oracle_sample_path(want, t, Rng(draw)))


def _same_rank(dag, full):
    """Equal BFS queue positions wherever the complete DAG reaches."""
    reached = full._dist >= 0
    return np.array_equal(dag._rank[reached], full._rank[reached])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(2, 14), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_dag_to_target_depth_matches_full_dag(n, extra, seed):
    g = ChannelGraph(n, random_connected_edges(random.Random(seed), n, extra_prob=extra))
    for s in range(n):
        full, want = sssp_dag(g, s), oracle_sssp_dag(g, s)
        for t in range(n):
            dag = sssp_dag(g, s, t)
            # expanded down to t's level and no further
            assert dag._depth == want.dist[t]
            reached = dag._dist >= 0
            assert np.array_equal(reached, (full._dist >= 0) & (full._dist <= dag._depth))
            assert np.array_equal(dag._dist[reached], full._dist[reached])
            for w in reached.nonzero()[0].tolist():
                assert dag.step(w) == full.step(w), (s, t, w)
            assert dag._depth == want.dist[t]  # steps of reached nodes expand nothing
            if t != s:
                draw = seed * 1000 + s * n + t
                assert (sample_shortest_path(dag, t, Rng(draw))
                        == sample_shortest_path(full, t, Rng(draw)))
            # the views complete the DAG, and it completes to the oracle's
            assert dag.dist == want.dist and dag.sigma == want.sigma
            assert [dag.preds[w] for w in range(n)] == want.preds
            assert _same_rank(dag, full)


def test_cached_partial_dag_resumes_for_a_deeper_target():
    g = _golden_graph()
    full = sssp_dag(g, 0)
    near = next(w for w in range(g.node_count) if full.dist[w] == 2)
    far = max(range(g.node_count), key=lambda w: full.dist[w])
    cache = DagCache(g)
    dag = cache.get(0, near)
    assert dag._depth == 2 and dag._dist[far] < 0
    assert (sample_shortest_path(dag, near, Rng(1))
            == sample_shortest_path(full, near, Rng(1)))
    assert cache.get(0, far) is dag and (cache.gets, cache.misses) == (2, 1)
    for seed in range(5):
        assert (sample_shortest_path(dag, far, Rng(seed))
                == sample_shortest_path(full, far, Rng(seed)))
    assert dag._depth == full.dist[far]
    # ranks carry on from the first build across the resume
    assert dag.dist == full.dist and dag.sigma == full.sigma and _same_rank(dag, full)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 16), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_st_dag_samples_match_per_source_dag(n, extra, seed):
    edges = random_connected_edges(random.Random(seed), n, extra_prob=extra)
    g = ChannelGraph(n, edges)
    adj = adjacency_of(edges, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("pcnsim.paths._PER_SOURCE_MAX_NODES", 1)  # below n: s–t DAGs
        cache = DagCache(g)
    assert cache.kind == "s-t"
    for s in range(n):
        full, from_s = sssp_dag(g, s), bfs_dist(adj, s)
        for t in range(n):
            if t == s:
                continue
            dag = cache.get(s, t)
            assert (dag.source, dag.target) == (s, t)
            # exactly the nodes on some shortest s–t path, each with its
            # per-source step: predecessors in BFS order, sigma sums, edges
            to_t = bfs_dist(adj, t)
            assert set(dag._steps) == {v for v in range(n)
                                       if from_s[v] + to_t[v] == from_s[t]}
            for w in dag._steps:
                assert dag.step(w) == full.step(w), (s, t, w)
            draw = seed * 1000 + s * n + t
            got, want = Rng(draw), Rng(draw)
            assert sample_shortest_path(dag, t, got) == sample_shortest_path(full, t, want)
            assert got.u64() == want.u64()  # the same draws were taken
    assert cache.misses == n * (n - 1)


def test_st_dag_keeps_bfs_rank_order_where_node_ids_disagree():
    # edge 0-4 comes before 0-3 in node 0's CSR row, so the BFS from 0 ranks
    # 4 before 3 although 3 has the smaller id, and 6's predecessors are [4, 3]
    g = ChannelGraph(7, [(0, 4, 2), (0, 3, 2), (4, 6, 2), (3, 6, 2), (6, 1, 2)])
    full = sssp_dag(g, 0)
    assert full.step(6)[0] == [4, 3]
    dag = st_dag(g, 0, 1)
    assert dag.step(6) == full.step(6)
    for seed in range(8):
        assert sample_shortest_path(dag, 1, Rng(seed)) == sample_shortest_path(full, 1, Rng(seed))


def test_st_dag_sigma_past_int64_is_exact():
    k = 70
    g = _diamond_chain(k)
    full, want = sssp_dag(g, 0), oracle_sssp_dag(g, 0)
    for t in (3 * 61, 3 * 62 + 1, 3 * k):
        dag = st_dag(g, 0, t)
        assert all(dag.step(w) == full.step(w) for w in dag._steps)
    dag = st_dag(g, 0, 3 * k)
    assert dag.step(3 * k)[1][-1] == 2 ** k and len(dag._steps) == 3 * k + 1
    for seed in range(10):
        got, want_rng = Rng(seed), Rng(seed)
        assert sample_shortest_path(dag, 3 * k, got) == oracle_sample_path(want, 3 * k, want_rng)
        assert got.u64() == want_rng.u64()


def test_st_dag_rejects_bad_pairs():
    g = ChannelGraph(5, [(0, 1, 2), (1, 2, 2), (3, 4, 2)])
    with pytest.raises(ValueError, match="unreachable"):
        st_dag(g, 0, 4)
    with pytest.raises(ValueError, match="equals source"):
        st_dag(g, 1, 1)
    with pytest.raises(ValueError, match="outside"):
        st_dag(g, 0, 5)
    dag = st_dag(g, 0, 2)
    with pytest.raises(ValueError, match="paths to 2"):
        sample_shortest_path(dag, 1, Rng(0))
    with pytest.raises(ValueError, match="no shortest path"):
        dag.step(3)


def test_st_dag_cache_is_an_lru_over_pairs(monkeypatch):
    g = make_ring(12, 2)
    monkeypatch.setattr("pcnsim.paths._PER_SOURCE_MAX_NODES", 11)
    monkeypatch.setattr("pcnsim.paths._ST_PAIRS", 2)
    cache = DagCache(g)
    first = cache.get(0, 5)
    assert cache.get(0, 5) is first and cache.get(0, 6) is not first
    cache.get(1, 5)  # evicts (0, 5), the least recently used pair
    assert cache.get(0, 6) is not None and (cache.gets, cache.misses) == (5, 3)
    assert cache.get(0, 5) is not first and cache.misses == 4


def test_unreachable_nodes_match_oracle():
    g = ChannelGraph(7, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (4, 5, 2)])
    for s in (0, 4, 3):
        got, want = sssp_dag(g, s), oracle_sssp_dag(g, s)
        assert got.dist == want.dist and got.sigma == want.sigma
        assert [got.preds[w] for w in range(7)] == want.preds


def test_csr_rows_follow_adjacency_order():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(2, 30)
        edges = random_connected_edges(rng, n, extra_prob=0.3)
        rng.shuffle(edges)
        edges = [(v, u, c) if rng.random() < 0.5 else (u, v, c) for u, v, c in edges]
        g = ChannelGraph(n, edges)
        adj = adjacency_of(edges, n)
        rows = csr_rows(g)
        assert rows == [adj[v] for v in range(n)]
        indptr, _, degree, arc_edge = g.csr
        for v in range(n):
            assert degree[v] == len(rows[v]) == g.degree(v)
            for a, w in enumerate(rows[v], start=indptr[v]):
                assert arc_edge[a] == g.edge_id(v, w)


def _diamond_chain(k: int) -> ChannelGraph:
    """Junctions 0, 3, 6, ..., 3k; junction 3i joins 3i+3 via 3i+1 and 3i+2."""
    edges = []
    for i in range(k):
        j = 3 * i
        edges += [(j, j + 1, 2), (j, j + 2, 2), (j + 1, j + 3, 2), (j + 2, j + 3, 2)]
    return ChannelGraph(3 * k + 1, edges)


def test_sigma_past_int64_is_exact():
    k = 70
    g = _diamond_chain(k)
    dag, want = sssp_dag(g, 0), oracle_sssp_dag(g, 0)
    assert [dag.sigma[3 * i] for i in range(k + 1)] == [2 ** i for i in range(k + 1)]
    assert dag.sigma == want.sigma and dag.dist == want.dist
    assert type(dag.sigma[3 * k]) is int
    for seed in range(20):
        assert (sample_shortest_path(dag, 3 * k, Rng(seed))
                == oracle_sample_path(want, 3 * k, Rng(seed)))


def test_sigma_turns_to_python_ints_mid_bfs():
    # junction 3i has sigma 2**i; the level into junction 62 is the first
    # whose counts could reach 2**62
    k = 70
    g = _diamond_chain(k)
    want = oracle_sssp_dag(g, 0)
    dag = sssp_dag(g, 0, 3 * 61)
    assert dag._sigma.dtype == np.int64 and dag._depth == 2 * 61
    early = [dag.step(w) for w in range(3 * 61 + 1)]
    assert sample_shortest_path(dag, 3 * 61, Rng(3)) == oracle_sample_path(want, 3 * 61, Rng(3))
    dag.extend(3 * 62)
    assert dag._sigma.dtype == object and dag._depth == 2 * 62
    assert int(dag._sigma[3 * 62]) == 2 ** 62
    assert [dag.step(w) for w in range(3 * 61 + 1)] == early
    for seed in range(10):
        assert (sample_shortest_path(dag, 3 * k, Rng(seed))
                == oracle_sample_path(want, 3 * k, Rng(seed)))
    assert dag.sigma == want.sigma and dag.dist == want.dist
    assert _same_rank(dag, sssp_dag(g, 0))


def test_sigma_past_int64_samples_uniformly():
    # a uniform path over all 2**70 takes each diamond's two sides with
    # probability 1/2, independently of the other diamonds
    k, draws = 70, 4000
    g = _diamond_chain(k)
    dag = sssp_dag(g, 0)
    rng = Rng(70)
    upper = Counter()
    pairs = Counter()
    for _ in range(draws):
        path = sample_shortest_path(dag, 3 * k, rng)
        assert len(path) == 2 * k + 1
        sides = [path[2 * i + 1] == 3 * i + 1 for i in range(k)]
        upper.update(i for i in range(k) if sides[i])
        pairs.update(i for i in range(k - 1) if sides[i] == sides[i + 1])
    sd = (draws * 0.25) ** 0.5
    for i in range(k):
        assert abs(upper[i] - draws / 2) <= 4.5 * sd, i
    for i in range(k - 1):
        assert abs(pairs[i] - draws / 2) <= 4.5 * sd, i


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(sizes=st.lists(st.integers(1, 14), min_size=1, max_size=2),
       extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_betweenness_matches_oracle_exactly(sizes, extra, seed):
    # one or two random connected components, node ids shuffled across them
    rng = random.Random(seed)
    n = max(2, sum(sizes))
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for size in sizes:
        edges += [(label[offset + u], label[offset + v], c)
                  for u, v, c in random_connected_edges(rng, size, extra_prob=extra)]
        offset += size
    g = ChannelGraph(n, edges)
    assert edge_betweenness(g).values == oracle_edge_betweenness(g)


@pytest.mark.parametrize("n", [3, 4, 7, 10, 31, 64])
def test_betweenness_on_rings_matches_oracle_exactly(n):
    g = make_ring(n, 2)
    assert edge_betweenness(g).values == oracle_edge_betweenness(g)


def test_betweenness_past_int64_sigma_matches_oracle_exactly():
    g = _diamond_chain(70)
    assert edge_betweenness(g).values == oracle_edge_betweenness(g)


def test_dag_cache_counts_gets():
    g = _diamond_chain(3)
    cache = DagCache(g)
    for s in (0, 1, 0, 2, 0):
        cache.get(s, 9)
    assert (cache.gets, cache.misses) == (5, 3)


def _golden_graph() -> ChannelGraph:
    rng = random.Random(2024)
    n = 2000
    edges = small_world_edges(rng, n, radius=2, rewire_prob=0.2)
    return ChannelGraph(n, [(u, v, 2 * rng.randrange(2, 6)) for u, v in edges])


# (tau, failing edge, kind) of runs 0..7 at base seed 11 in attempt mode, then
# in depletion mode, amount 1, one shared DAG cache, as the per-node-list BFS
# and sampler produced them; any change to how draws are consumed shows here
_GOLDEN = [
    (118, 2994, "attempt_failed"), (140, 82, "attempt_failed"),
    (175, 1471, "attempt_failed"), (53, 626, "attempt_failed"),
    (67, 2991, "attempt_failed"), (58, 2020, "attempt_failed"),
    (73, 387, "attempt_failed"), (91, 316, "attempt_failed"),
    (22, 567, "depleted"), (47, 326, "depleted"), (33, 2773, "depleted"),
    (13, 3140, "depleted"), (33, 2991, "depleted"), (38, 2020, "depleted"),
    (23, 2628, "depleted"), (27, 3804, "depleted"),
]


def test_payment_process_golden_outcomes():
    g = _golden_graph()
    assert (g.node_count, g.edge_count) == (2000, 4000)
    cache = DagCache(g)
    got = []
    for mode in ("attempt", "depletion"):
        cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=1,
                        stop_mode=mode, max_steps=10 ** 6)
        for i in range(8):
            out = run_payment_process(g, cfg, Rng(run_seed(11, i)), cache)
            got.append((out.tau, out.failing_edge, out.failure_kind))
    assert got == _GOLDEN
    assert cache.misses == 641


def test_progress_lines_leave_outcomes_unchanged(monkeypatch, caplog):
    g = _golden_graph()
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=1,
                    stop_mode="attempt", max_steps=10 ** 6)
    quiet = run_payment_process(g, cfg, Rng(run_seed(11, 0)))
    monkeypatch.setattr("pcnsim.sim._PROGRESS_SECONDS", 1e-9)
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        loud = run_payment_process(g, cfg, Rng(run_seed(11, 0)))
    assert loud == quiet
    lines = [r.getMessage() for r in caplog.records if "payment process at" in r.getMessage()]
    assert len(lines) == quiet.tau
    assert "rounds/s" in lines[-1] and "hit ratio" in lines[-1]


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_logs_cache_work(workers, caplog):
    g = _diamond_chain(6)
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=1,
                    stop_mode="depletion", runs=6, base_seed=3)
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        outcomes = monte_carlo(cfg, graph=g, workers=workers)
    lines = [r.getMessage() for r in caplog.records if "DAG builds" in r.getMessage()]
    assert len(lines) == 1
    rounds = sum(o.tau for o in outcomes)
    assert lines[0].startswith(f"{cfg.config_id()}: 6 runs, {rounds} rounds, ")
    builds, gets = map(int, re.search(r"(\d+) DAG builds, (\d+) DAG cache gets",
                                      lines[0]).groups())
    assert gets == rounds and 1 <= builds <= g.node_count * workers


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_amount_logs_campaign_cache_work_on_st_dags(workers, caplog):
    cases = [((2, 6), [1, 2, 3], 200),
             # the smallest amount runs past the LRU's 256 pairs, the others stay below
             ((6, 12), [1, 3, 5], 600)]
    for caps, amounts, max_steps in cases:
        caplog.clear()
        _check_multi_amount_cache_work_on_st_dags(caps, amounts, max_steps, workers, caplog)


def _check_multi_amount_cache_work_on_st_dags(caps, amounts, max_steps, workers, caplog):
    # 2100 nodes: more than a cache holds per-source DAGs for, so s–t DAGs
    rng = random.Random(2100)
    n = 2100
    g = ChannelGraph(n, [(u, v, 2 * rng.randrange(*caps))
                         for u, v in small_world_edges(rng, n, radius=2, rewire_prob=0.2)])
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        campaigns = multi_amount_experiment(g, amounts, runs=4, base_seed=9,
                                            max_steps=max_steps, workers=workers)
    messages = [r.getMessage() for r in caplog.records]
    for x, outs in campaigns:
        cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                        stop_mode="attempt", max_steps=max_steps, runs=4, base_seed=9)
        assert outs == monte_carlo(cfg, graph=g, workers=1)
    per_amount = [m for m in messages if "DAG builds" in m]
    assert [m.split(":")[0] for m in per_amount] == [f"snapshot-x{x}-attempt"
                                                      for x in amounts]
    assert all(m.endswith(", s-t DAGs") for m in per_amount)
    counts = [tuple(map(int, re.search(r"(\d+) DAG builds, (\d+) DAG cache gets",
                                       m).groups())) for m in per_amount]
    # rounds each run drew at each amount; a failed attempt drew one more
    drawn = [[o.tau + (not o.censored) for o in outs] for _x, outs in campaigns]
    assert [gets for _, gets in counts] == [sum(d) for d in drawn]
    # each run goes largest amount first, and a smaller amount replays the
    # larger ones' rounds while the LRU holds them, so it builds only the
    # rounds past them: one build per distinct (run, round)
    for i in range(len(amounts)):
        # amounts ascend, so drawn[i + 1] belongs to the next larger one
        larger = drawn[i + 1] if i + 1 < len(amounts) else [0] * 4
        assert counts[i][0] == sum(d - e for d, e in zip(drawn[i], larger))
    builds, gets = sum(b for b, _ in counts), sum(c for _, c in counts)
    assert builds == sum(drawn[0])
    totals = [m for m in messages if m.startswith("all 3 configs")]
    assert totals == [f"all 3 configs: 4 runs each, {builds} s-t DAGs built, "
                      f"{gets} DAG cache gets, hit ratio {1 - builds / gets:.3f}"]


def test_dag_cache_keeps_per_source_dags_up_to_2048_nodes():
    assert DagCache(make_ring(2048, 2)).kind == "per-source"
    assert DagCache(make_ring(2049, 2)).kind == "s-t"
