"""The CSR BFS core against the deque-BFS oracles in helpers.

``ChannelGraph.hops`` and ``edge_betweenness`` run one level-synchronous
numpy BFS over ``ChannelGraph.csr``, and ``sssp_dag`` reads its DAG off a
hop row; these tests pin them to the per-node list implementations they
replaced: equal distances, path counts and predecessor order (read off each
DAG's ``step(w)``), identical sampled paths for the same draws, and
bit-identical betweenness values.  ``edge_betweenness`` runs a block of
sources per BFS level, one in each of the disjoint copies of the graph that
``Csr.copies`` builds; the block tests force blocks of 1, 2 and 3 sources
and one block of all of them.  On a 2-core host the 512-ring's betweenness
takes about 0.08 s in its default blocks of 32 sources and 3–4 s in blocks
of one.  The s–t DAGs that ``DagCache`` returns, built by ``st_dag`` or
read off a row of hop counts to the target, are pinned to the full DAGs of
``sssp_dag``.
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcnsim.paths
from pcnsim import (ChannelGraph, Rng, SimConfig, edge_betweenness, make_ring,
                    monte_carlo, multi_amount_experiment, run_payment_process, run_seed,
                    sssp_dag)
from pcnsim.paths import DagCache, _add_paths, sample_shortest_path, st_dag

from helpers import (adjacency_of, bfs_dist, csr_rows, dag_tables, oracle_edge_betweenness,
                     oracle_sample_path, oracle_sssp_dag, random_connected_edges,
                     small_world_edges)


@settings(max_examples=60)
@given(n=st.integers(2, 16), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_dag_and_samples_match_oracle(n, extra, seed):
    g = ChannelGraph(n, random_connected_edges(random.Random(seed), n, extra_prob=extra))
    for s in range(n):
        got, want = sssp_dag(g, s), oracle_sssp_dag(g, s)
        tables = dag_tables(got, n)
        assert tables.dist == want.dist
        assert tables.sigma == want.sigma
        assert all(type(x) is int for x in tables.sigma)
        for w in range(n):
            assert tables.preds[w] == want.preds[w], (s, w)
            assert got.step(w)[2] == [g.edge_id(p, w) for p in want.preds[w]], (s, w)
        for t in range(n):
            if t != s:
                draw = seed * 1000 + s * n + t
                assert (sample_shortest_path(got, t, Rng(draw))
                        == oracle_sample_path(want, t, Rng(draw)))


@settings(max_examples=60)
@given(n=st.integers(2, 16), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_row_dags_match_st_dag_and_full_dag(n, extra, seed):
    # past its first n gets the cache reads every DAG off the target's row
    g = ChannelGraph(n, random_connected_edges(random.Random(seed), n, extra_prob=extra))
    cache = DagCache(g)
    for _ in range(n):
        cache.get(0, 1)
    for s in range(n):
        full = sssp_dag(g, s)
        for t in range(n):
            if t == s:
                continue
            dag = cache.get(s, t)
            assert dag.source == s
            assert dag._steps == st_dag(g, s, t)._steps
            for w in dag._steps:
                assert dag.step(w) == full.step(w), (s, t, w)
            draw = seed * 1000 + s * n + t
            got, want = Rng(draw), Rng(draw)
            assert sample_shortest_path(dag, t, got) == sample_shortest_path(full, t, want)
            assert got.u64() == want.u64()  # the same draws were taken
    assert cache.misses == 2 * n  # the first n gets, then one row per target


@settings(max_examples=60)
@given(n=st.integers(2, 16), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_st_dag_samples_match_per_source_dag(n, extra, seed):
    edges = random_connected_edges(random.Random(seed), n, extra_prob=extra)
    g = ChannelGraph(n, edges)
    adj = adjacency_of(edges, n)
    for s in range(n):
        full, from_s = sssp_dag(g, s), bfs_dist(adj, s)
        for t in range(n):
            if t == s:
                continue
            dag = st_dag(g, s, t)
            assert dag.source == s
            # exactly the nodes on some shortest s–t path, each with its
            # full DAG's step: predecessors in BFS order, sigma sums, edges
            to_t = bfs_dist(adj, t)
            assert set(dag._steps) == {v for v in range(n)
                                       if from_s[v] + to_t[v] == from_s[t]}
            for w in dag._steps:
                assert dag.step(w) == full.step(w), (s, t, w)
            draw = seed * 1000 + s * n + t
            got, want = Rng(draw), Rng(draw)
            assert sample_shortest_path(dag, t, got) == sample_shortest_path(full, t, want)
            assert got.u64() == want.u64()  # the same draws were taken


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
    cache = DagCache(g)
    for _ in range(5):
        cache.get(0, 1)
    # st_dag, and a cache past its first n gets, which reads rows
    for build in (lambda s, t: st_dag(g, s, t), cache.get):
        with pytest.raises(ValueError, match="unreachable"):
            build(0, 4)
        with pytest.raises(ValueError, match="equals source"):
            build(1, 1)
        for s, t in ((0, 5), (-1, 2)):
            with pytest.raises(ValueError, match="outside"):
                build(s, t)
    # the DAG's inner node 1 is a target too; node 3 lies off the DAG
    dag = st_dag(g, 0, 2)
    assert sample_shortest_path(dag, 1, Rng(0)) == [0, 1]
    with pytest.raises(ValueError, match="no shortest path"):
        sample_shortest_path(dag, 3, Rng(0))
    with pytest.raises(ValueError, match="no shortest path"):
        dag.step(3)


@settings(max_examples=40)
@given(n=st.integers(3, 16), extra=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 16))
def test_st_dag_inner_nodes_sample_as_the_full_dag(n, extra, seed):
    # any node an s–t DAG holds is a valid target: its steps are the full
    # DAG's, so it gets the full DAG's path for the same draws
    g = ChannelGraph(n, random_connected_edges(random.Random(seed), n, extra_prob=extra))
    rng = random.Random(seed)
    s, t = rng.sample(range(n), 2)
    dag, full = st_dag(g, s, t), sssp_dag(g, s)
    for w in range(n):
        if w == s:
            continue
        draw = seed * 1000 + w
        if w in dag._steps:
            got, want = Rng(draw), Rng(draw)
            assert sample_shortest_path(dag, w, got) == sample_shortest_path(full, w, want)
            assert got.u64() == want.u64()
        else:
            with pytest.raises(ValueError, match="no shortest path"):
                sample_shortest_path(dag, w, Rng(draw))


def test_st_dag_cache_builds_every_get():
    # for its first n gets a cache keeps nothing
    g = make_ring(12, 2)
    cache = DagCache(g)
    first = cache.get(0, 5)
    again = cache.get(0, 5)
    assert again is not first and again._steps == first._steps
    assert (cache.gets, cache.misses) == (2, 2) and not cache._rows


def test_unreachable_nodes_match_oracle():
    g = ChannelGraph(7, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (4, 5, 2)])
    for s in (0, 4, 3):
        got, want = dag_tables(sssp_dag(g, s), 7), oracle_sssp_dag(g, s)
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
            assert degree[v] == len(rows[v])
            for a, w in enumerate(rows[v], start=indptr[v]):
                assert arc_edge[a] == g.edge_id(v, w)


@settings(max_examples=60)
@given(sizes=st.lists(st.integers(1, 10), min_size=1, max_size=3),
       isolated=st.integers(0, 3), b=st.integers(1, 4), extra=st.floats(0.0, 0.6),
       seed=st.integers(0, 2 ** 16))
def test_copies_shift_rows_and_step_each_copy_as_one_search(sizes, isolated, b, extra,
                                                             seed):
    # components and isolated nodes, ids shuffled across them
    rng = random.Random(seed)
    n = max(2, sum(sizes) + isolated)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for size in sizes:
        edges += [(label[offset + u], label[offset + v], c)
                  for u, v, c in random_connected_edges(rng, size, extra_prob=extra)]
        offset += size
    g = ChannelGraph(n, edges)
    m, csr = g.edge_count, g.csr
    union = csr.copies(b)
    assert len(union.degree) == b * n and union.indptr[-1] == b * 2 * m
    for j in range(b):
        for v in range(n):
            row, lo, hi = j * n + v, csr.indptr[v], csr.indptr[v + 1]
            assert union.degree[row] == csr.degree[v]
            arcs = slice(union.indptr[row], union.indptr[row + 1])
            assert union.indices[arcs].tolist() == (csr.indices[lo:hi] + j * n).tolist()
            assert union.arc_edge[arcs].tolist() == (csr.arc_edge[lo:hi] + j * m).tolist()
    # one search per copy, from its own source, step by step as each alone
    sources = [rng.randrange(n) for _ in range(b)]
    frontier = np.array([j * n + s for j, s in enumerate(sources)])
    dist = np.full(b * n, -1, dtype=np.intp)
    dist[frontier] = 0
    alone = []
    for s in sources:
        one = np.full(n, -1, dtype=np.intp)
        one[s] = 0
        alone.append((np.array([s]), one))
    depth = 0
    while frontier.size:
        reached, (arcs, heads, near) = union.bfs_step(frontier, dist)
        depth += 1
        dist[reached] = depth
        for j, (front, one) in enumerate(alone):
            if not front.size:
                assert not (frontier // n == j).any()
                continue
            got, (a1, h1, n1) = csr.bfs_step(front, one)
            one[got] = depth
            alone[j] = got, one
            mine = arcs // max(1, 2 * m) == j
            assert (reached[reached // n == j] - j * n).tolist() == got.tolist()
            assert (arcs[mine] - j * 2 * m).tolist() == a1.tolist()
            assert (heads[mine] - j * n).tolist() == h1.tolist()
            assert near[mine].tolist() == n1.tolist()
        frontier = reached
    assert all(not front.size for front, _ in alone)
    assert (dist.reshape(b, n) == np.array([one for _, one in alone])).all()


def _diamond_chain(k: int) -> ChannelGraph:
    """Junctions 0, 3, 6, ..., 3k; junction 3i joins 3i+3 via 3i+1 and 3i+2."""
    edges = []
    for i in range(k):
        j = 3 * i
        edges += [(j, j + 1, 2), (j, j + 2, 2), (j + 1, j + 3, 2), (j + 2, j + 3, 2)]
    return ChannelGraph(3 * k + 1, edges)


def _with_detached_path(n, extra, seed, detached):
    """A random connected graph on nodes 0..n-1 and a path on the next
    ``detached`` nodes (one isolated node when it is 1)."""
    edges = random_connected_edges(random.Random(seed), n, extra_prob=extra)
    edges += [(n + i, n + i + 1, 2) for i in range(detached - 1)]
    return ChannelGraph(n + detached, edges)


_ROW_GRAPHS = st.one_of(
    st.builds(_with_detached_path, st.integers(2, 14), st.floats(0.0, 0.6),
              st.integers(0, 2 ** 16), st.integers(1, 3)),
    st.builds(make_ring, st.integers(3, 20), st.just(2)),  # odd and even rings
    st.builds(lambda n: ChannelGraph(n, [(0, v, 2) for v in range(1, n)]),  # stars
              st.integers(2, 12)),
    st.builds(_diamond_chain, st.integers(64, 70)),  # 2**k paths end to end
)


@settings(max_examples=80)
@given(g=_ROW_GRAPHS, data=st.data())
def test_st_dag_row_is_exact_hops_to_target(g, data):
    # the row st_dag hands _rebuild: exact hops to t wherever it has an
    # entry, and an entry on every node of the DAG built from it
    n = g.node_count
    s, t = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rebuild, rows = pcnsim.paths._rebuild, []

    def spy(graph, source, hops, wants):
        rows.append(hops)
        return rebuild(graph, source, hops, wants)

    to_t = g.hops(t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pcnsim.paths, "_rebuild", spy)
        if to_t[s] < 0:
            with pytest.raises(ValueError, match=f"^target {t} unreachable from source {s}$"):
                st_dag(g, s, t)
            assert rows == []
            return
        dag = st_dag(g, s, t)
    [row] = rows
    assert len(row) == n
    assert all(h == to_t[v] for v, h in enumerate(row) if h >= 0)
    assert all(row[v] >= 0 for v in dag._steps)


def test_sigma_past_int64_is_exact():
    k = 70
    g = _diamond_chain(k)
    dag, want = sssp_dag(g, 0), oracle_sssp_dag(g, 0)
    tables = dag_tables(dag, g.node_count)
    assert [tables.sigma[3 * i] for i in range(k + 1)] == [2 ** i for i in range(k + 1)]
    assert tables.sigma == want.sigma and tables.dist == want.dist
    assert type(tables.sigma[3 * k]) is int
    for seed in range(20):
        assert (sample_shortest_path(dag, 3 * k, Rng(seed))
                == oracle_sample_path(want, 3 * k, Rng(seed)))


def test_sample_path_through_65_diamonds_draws_two_words_at_the_target():
    # 196 nodes; junction 3i has sigma 2**i, so the target draws randrange(2**65)
    # from two words, high word first, and junction 3i < 3*65 from one word
    k = 65
    g = _diamond_chain(k)
    assert g.node_count == 196
    dag = sssp_dag(g, 0)
    assert dag.step(3 * k)[1][-1] == 2 ** 65
    for seed in range(10):
        words = np.random.Generator(np.random.PCG64(seed)).integers(
            0, 1 << 64, size=k + 2, dtype=np.uint64).tolist()
        want, used = [3 * k], 0
        for i in range(k, 0, -1):
            r = words[used] << 64 | words[used + 1] if i > 64 else words[used]
            used += 2 if i > 64 else 1
            first, second = dag.step(3 * i)[0]
            want += [first if r % 2 ** i < 2 ** (i - 1) else second, 3 * (i - 1)]
        rng = Rng(seed)
        assert sample_shortest_path(dag, 3 * k, rng) == want[::-1]
        assert used == k + 1 and rng.u64() == words[used]


def test_betweenness_sigma_turns_to_python_ints_mid_bfs(monkeypatch):
    # one source per block; junction 3i has sigma 2**i from junction 0: on a
    # chain of 61 diamonds no level's counts could reach 2**62 from any
    # source, on a chain of 62 the last diamond's could
    for k, switches in ((61, False), (62, True)):
        g = _diamond_chain(k)
        n, m = g.node_count, g.edge_count
        monkeypatch.setattr("pcnsim.paths._BLOCK_BUDGET", max(n, 2 * m))
        python_ints = set()

        def spy(*args):
            sigma = _add_paths(*args)
            python_ints.add(sigma.dtype == object)
            return sigma

        monkeypatch.setattr("pcnsim.paths._add_paths", spy)
        assert edge_betweenness(g).values == oracle_edge_betweenness(g)
        assert (True in python_ints) == switches and False in python_ints
        # a DAG's counts are Python ints whatever their size
        dag, want = sssp_dag(g, 0), oracle_sssp_dag(g, 0)
        tables = dag_tables(dag, n)
        assert tables.sigma == want.sigma and tables.dist == want.dist
        assert [tables.preds[w] for w in range(3 * k + 1)] == want.preds
        for seed in range(10):
            assert (sample_shortest_path(dag, 3 * k, Rng(seed))
                    == oracle_sample_path(want, 3 * k, Rng(seed)))


@pytest.mark.parametrize("g", [make_ring(7, 2), _diamond_chain(4),
                               ChannelGraph(9, random_connected_edges(random.Random(4), 9,
                                                                      extra_prob=0.5))])
def test_betweenness_sums_paths_over_shortest_path_arcs_only(g, monkeypatch):
    # all sources in one block, so copy j searches from node j: every arc a
    # level's counts are summed over runs from a node to one of its
    # predecessors, each arc once
    n, m = g.node_count, g.edge_count
    monkeypatch.setattr("pcnsim.paths._BLOCK_BUDGET", n * max(n, 2 * m))
    summed = []

    def spy(sigma, heads, tails):
        summed.extend(zip((heads // n).tolist(), (heads % n).tolist(),
                          (tails - heads // n * n).tolist()))
        return _add_paths(sigma, heads, tails)

    monkeypatch.setattr("pcnsim.paths._add_paths", spy)
    edge_betweenness(g)
    want = [(s, w, p) for s in range(n)
            for w, preds in enumerate(oracle_sssp_dag(g, s).preds) for p in preds]
    assert sorted(summed) == sorted(want)


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


@settings(max_examples=60)
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


def _block_graphs():
    """Random connected graphs, graphs of several components with isolated
    nodes, a 512-ring and a diamond chain whose sigma passes 2**62."""
    rng = random.Random(13)
    graphs = []
    for _ in range(8):
        n = rng.randrange(2, 30)
        graphs.append(ChannelGraph(n, random_connected_edges(rng, n,
                                                             extra_prob=rng.random() * 0.6)))
    for _ in range(6):
        sizes = [rng.randrange(1, 12) for _ in range(rng.randrange(2, 4))]
        n = sum(sizes) + rng.randrange(0, 3)  # the rest stay isolated
        label = list(range(n))
        rng.shuffle(label)
        edges, offset = [], 0
        for size in sizes:
            edges += [(label[offset + u], label[offset + v], c)
                      for u, v, c in random_connected_edges(rng, size, extra_prob=0.4)]
            offset += size
        graphs.append(ChannelGraph(n, edges))
    return graphs + [make_ring(512, 2), _diamond_chain(70)]


@pytest.fixture(scope="module")
def block_cases():
    return [(g, oracle_edge_betweenness(g)) for g in _block_graphs()]


@pytest.mark.parametrize("per_block", [1, 2, 3, None])
def test_betweenness_blocks_match_oracle_exactly(block_cases, per_block, monkeypatch):
    # a budget of b·max(n, 2m) puts b sources in each block, the last one
    # holding what is left; None puts every source in one block, so in the
    # diamond chain's the sources whose counts pass 2**62 share their arrays
    # with sources whose counts stay small
    for g, want in block_cases:
        n, m = g.node_count, g.edge_count
        monkeypatch.setattr("pcnsim.paths._BLOCK_BUDGET", (per_block or n) * max(n, 2 * m))
        assert edge_betweenness(g).values == want, (n, m, per_block)


def test_betweenness_progress_lines_leave_values_unchanged(monkeypatch, caplog):
    g = make_ring(31, 2)
    quiet = edge_betweenness(g).values
    monkeypatch.setattr("pcnsim.progress._PROGRESS_SECONDS", 1e-9)  # a line per block
    monkeypatch.setattr("pcnsim.paths._BLOCK_BUDGET", 3 * 62)  # 3 sources per block
    with caplog.at_level(logging.INFO, logger="pcnsim.paths"):
        assert edge_betweenness(g).values == quiet
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 11
    assert all(line.startswith(f"edge betweenness at {3 * (i + 1)} of 31 sources, ")
               for i, line in enumerate(lines[:-1]))
    assert lines[-1].startswith("edge betweenness at 31 of 31 sources, ")
    assert all(line.endswith(" sources/s") for line in lines)


def test_dag_cache_counts_gets():
    g = _diamond_chain(3)
    cache = DagCache(g)
    for s in (0, 1, 0, 2, 0):
        cache.get(s, 9)
    assert (cache.gets, cache.misses) == (5, 5)
    for s in (0, 1, 0, 2, 0):
        cache.get(s, 9)
    # past 10 gets the first to each target builds its row, the others read it
    for s, t in ((3, 9), (0, 9), (1, 9), (0, 6), (9, 6)):
        cache.get(s, t)
    assert (cache.gets, cache.misses) == (15, 12)


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
    assert cache.misses == 1019  # every round builds its DAG: 1019 gets, below n


def test_progress_lines_leave_outcomes_unchanged(monkeypatch, caplog):
    g = _golden_graph()
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=1,
                    stop_mode="attempt", max_steps=10 ** 6)
    quiet = run_payment_process(g, cfg, Rng(run_seed(11, 0)))
    monkeypatch.setattr("pcnsim.progress._PROGRESS_SECONDS", 1e-9)
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
             # the smallest amount draws over 256 rounds in a run, the others fewer
             ((6, 12), [5, 1, 3], 600)]
    for caps, amounts, max_steps in cases:
        caplog.clear()
        _check_multi_amount_cache_work_on_st_dags(caps, amounts, max_steps, workers, caplog)


def _check_multi_amount_cache_work_on_st_dags(caps, amounts, max_steps, workers, caplog):
    # 2100 nodes: more than a cache builds rows for, so every get runs st_dag
    rng = random.Random(2100)
    n = 2100
    g = ChannelGraph(n, [(u, v, 2 * rng.randrange(*caps))
                         for u, v in small_world_edges(rng, n, radius=2, rewire_prob=0.2)])
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        campaigns = multi_amount_experiment(g, amounts, runs=4, base_seed=9,
                                            max_steps=max_steps, workers=workers)
    messages = [r.getMessage() for r in caplog.records]
    assert [x for x, _outs in campaigns] == amounts
    for x, outs in campaigns:
        cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                        stop_mode="attempt", max_steps=max_steps, runs=4, base_seed=9)
        assert outs == monte_carlo(cfg, graph=g, workers=1)
    lines = [m for m in messages if "DAG builds" in m]
    ids = ", ".join(f"snapshot-x{x}-attempt" for x in amounts)
    # one walk per run draws each round once, for every amount: the rounds
    # of the smallest amount, which stops last (a failed attempt draws one
    # more), and each round builds its s–t DAG once
    smallest = min(amounts)
    outs = dict(campaigns)[smallest]
    rounds = sum(o.tau for o in outs)
    drawn = sum(o.tau + (not o.censored) for o in outs)
    assert lines == [f"{ids}: 4 runs, {rounds} rounds, {drawn} DAG builds, "
                     f"{drawn} DAG cache gets, hit ratio 0.000"]


@pytest.mark.parametrize("n, row", [(2048, True), (2049, False)])
def test_dag_cache_builds_its_first_row_at_get_n_plus_1_up_to_2048_nodes(n, row, monkeypatch):
    built = []
    hops = ChannelGraph.hops

    def counted(g, source):
        built.append(source)
        return hops(g, source)

    monkeypatch.setattr(ChannelGraph, "hops", counted)
    cache = DagCache(make_ring(n, 2))
    for _ in range(n):
        cache.get(0, 1)
    assert built == [] and cache.misses == n
    cache.get(0, 1)
    cache.get(2, 1)
    # get n + 1 builds the row to 1 (a miss) on the smaller ring, and get
    # n + 2 reads it; on the larger one both run st_dag
    assert built == ([1] if row else []) and cache.misses == (n + 1 if row else n + 2)
