"""Shared test fixtures: independent brute-force oracles and graph generators.

Everything here is deliberately written from scratch (plain dict/BFS code) so
it stays independent of the package implementations it checks.
"""

from __future__ import annotations

import math
import random
from collections import deque
from types import SimpleNamespace

import numpy as np

from pcnsim import ChannelGraph, RunOutcome


def adjacency_of(edges, n):
    adj = {v: [] for v in range(n)}
    for u, v, _cap in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def csr_rows(g):
    """Each node's neighbours as ``g.csr`` lists them, one list per node."""
    indptr, indices = g.csr.indptr.tolist(), g.csr.indices.tolist()
    return [indices[indptr[v]:indptr[v + 1]] for v in range(g.node_count)]


def bfs_dist(adj, source):
    dist = {source: 0}
    q = deque([source])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def enumerate_shortest_paths(edges, n, s, t):
    """All shortest s→t paths as node tuples, by exhaustive DFS over BFS layers."""
    adj = adjacency_of(edges, n)
    dist = bfs_dist(adj, s)
    if t not in dist:
        return []
    target_len = dist[t]
    out = []

    def extend(path):
        v = path[-1]
        if v == t:
            out.append(tuple(path))
            return
        for w in adj[v]:
            if dist.get(w, math.inf) == dist[v] + 1 and dist[w] <= target_len:
                extend(path + [w])

    extend([s])
    return [p for p in out if len(p) - 1 == target_len]


def brute_edge_betweenness(edges, n):
    """g(e) over unordered distinct pairs by explicit path enumeration."""
    index = {}
    for eid, (u, v, _cap) in enumerate(edges):
        index[(min(u, v), max(u, v))] = eid
    values = [0.0] * len(edges)
    for s in range(n):
        for t in range(s + 1, n):
            paths = enumerate_shortest_paths(edges, n, s, t)
            if not paths:
                continue
            frac = 1.0 / len(paths)
            for path in paths:
                for a, b in zip(path, path[1:]):
                    values[index[(min(a, b), max(a, b))]] += frac
    return values


def mean_pair_distance(edges, n):
    """Average hop distance over unordered distinct reachable pairs."""
    adj = adjacency_of(edges, n)
    total = 0
    for s in range(n):
        dist = bfs_dist(adj, s)
        total += sum(d for v, d in dist.items() if v > s)
    return total / (n * (n - 1) / 2)


def random_connected_edges(rng: random.Random, n, extra_prob=0.3, caps=(2, 4, 6, 8)):
    """Random spanning tree plus extra edges; random even capacities."""
    edges = []
    seen = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        u = nodes[rng.randrange(i)]
        v = nodes[i]
        key = (min(u, v), max(u, v))
        seen.add(key)
        edges.append((key[0], key[1], rng.choice(caps)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in seen and rng.random() < extra_prob:
                seen.add((u, v))
                edges.append((u, v, rng.choice(caps)))
    return edges


def random_connected_graph(rng: random.Random, n, extra_prob=0.3, caps=(2, 4, 6, 8)):
    return ChannelGraph(n, random_connected_edges(rng, n, extra_prob, caps))


def small_world_edges(rng: random.Random, n, radius=2, rewire_prob=0.1):
    """Ring lattice with random rewiring; returns a connected simple edge set."""
    while True:
        seen = set()
        for i in range(n):
            for j in range(1, radius + 1):
                u, v = i, (i + j) % n
                key = (min(u, v), max(u, v))
                if key in seen:
                    continue
                if rng.random() < rewire_prob:
                    for _ in range(20):
                        w = rng.randrange(n)
                        cand = (min(i, w), max(i, w))
                        if w != i and cand not in seen:
                            key = cand
                            break
                seen.add(key)
        edges = sorted(seen)
        adj = adjacency_of([(u, v, 1) for u, v in edges], n)
        if len(bfs_dist(adj, 0)) == n:
            return edges


def log_uniform_capacities(rng: random.Random, count, lo=1000.0, hi=100000.0):
    caps = []
    for _ in range(count):
        c = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        caps.append(max(2, 2 * int(c / 2)))  # even, at least 2
    return caps


def oracle_sssp_dag(g, source):
    """Deque BFS with per-node predecessor lists and Python-int path counts.

    The reference for ``pcnsim.sssp_dag``: ``preds[w]`` is in queue order of
    the predecessors, and unreachable nodes have ``dist = inf``.
    """
    n = g.node_count
    adj = adjacency_of(zip(g.edge_u, g.edge_v, g.capacity), n)
    dist = [math.inf] * n
    sigma = [0] * n
    preds = [[] for _ in range(n)]
    dist[source] = 0
    sigma[source] = 1
    q = deque([source])
    while q:
        v = q.popleft()
        nd = dist[v] + 1
        for w in adj[v]:
            if dist[w] > nd:
                dist[w] = nd
                sigma[w] = sigma[v]
                preds[w] = [v]
                q.append(w)
            elif dist[w] == nd:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return SimpleNamespace(source=source, dist=dist, sigma=sigma, preds=preds)


def oracle_sample_path(dag, target, rng):
    """Backward walk choosing predecessor p with probability sigma(p)/sigma(w).

    The reference for ``pcnsim.sample_shortest_path``: it takes one
    ``rng.randrange(sigma[w])`` at every node with two or more predecessors.
    """
    path = [target]
    node = target
    while node != dag.source:
        ps = dag.preds[node]
        if len(ps) == 1:
            node = ps[0]
        else:
            r = rng.randrange(dag.sigma[node])
            acc = 0
            for p in ps:
                acc += dag.sigma[p]
                if r < acc:
                    node = p
                    break
        path.append(node)
    path.reverse()
    return path


def oracle_edge_betweenness(g):
    """Deque-BFS Brandes accumulation over per-node (neighbor, edge id) lists.

    The reference for ``pcnsim.edge_betweenness``, summing every float in the
    same order: nodes in reverse queue order, each node's predecessors in
    queue order, sources ascending.
    """
    n = g.node_count
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(zip(g.edge_u, g.edge_v)):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    acc = [0.0] * g.edge_count
    for s in range(n):
        dist = [math.inf] * n
        sigma = [0] * n
        pred_edges = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order = []
        q = deque([s])
        while q:
            v = q.popleft()
            order.append(v)
            nd = dist[v] + 1
            for w, eid in adj[v]:
                if dist[w] > nd:
                    dist[w] = nd
                    sigma[w] = sigma[v]
                    pred_edges[w] = [(v, eid)]
                    q.append(w)
                elif dist[w] == nd:
                    sigma[w] += sigma[v]
                    pred_edges[w].append((v, eid))
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v, eid in pred_edges[w]:
                c = sigma[v] * coeff
                acc[eid] += c
                delta[v] += c
    return [x / 2.0 for x in acc]


def oracle_payment_process(g, cfg, rng):
    """The generic round loop as a walk over a ``(u, v) -> edge id`` dict.

    The reference for ``pcnsim.run_payment_process``, with its own DAGs and
    sampler (``oracle_sssp_dag``, ``oracle_sample_path``), which take the same
    draws.  Balances start at ``c // 2`` on the smaller-id end.  Attempt mode
    checks the whole path before it applies any of it; depletion mode applies
    the whole round, then reports the first depleted edge on the path.  After
    every applied round each balance must lie in ``[0, c]``.
    """
    x = cfg.amount
    attempt = cfg.stop_mode == "attempt"
    caps = g.capacity.tolist()
    eidx = {(u, v): eid for eid, (u, v) in enumerate(zip(g.edge_u.tolist(),
                                                         g.edge_v.tolist()))}
    bal = [c // 2 for c in caps]
    if not attempt:
        for eid in range(g.edge_count):
            if min(bal[eid], caps[eid] - bal[eid]) < x:
                return RunOutcome(0, eid, "depleted", rng.seed)
    dags = {}
    t = 0
    while t < cfg.max_steps:
        s, dst = rng.pair(g.node_count)
        if s not in dags:
            dags[s] = oracle_sssp_dag(g, s)
        path = oracle_sample_path(dags[s], dst, rng)
        hops = list(zip(path, path[1:]))
        if attempt:
            for a, b in hops:
                if a < b:
                    eid = eidx[(a, b)]
                    payer = bal[eid]
                else:
                    eid = eidx[(b, a)]
                    payer = caps[eid] - bal[eid]
                if payer < x:
                    return RunOutcome(t, eid, "attempt_failed", rng.seed)
        failing = -1
        for a, b in hops:
            if a < b:
                eid = eidx[(a, b)]
                bal[eid] -= x
            else:
                eid = eidx[(b, a)]
                bal[eid] += x
            if failing < 0 and min(bal[eid], caps[eid] - bal[eid]) < x:
                failing = eid
        assert all(0 <= b <= c for b, c in zip(bal, caps)), (t, bal)
        t += 1
        if not attempt and failing >= 0:
            return RunOutcome(t, failing, "depleted", rng.seed)
    return RunOutcome(t, None, "step_cap_reached", rng.seed)


def oracle_clique_fast(n, capacity, cfg, rng):
    """The clique's single-edge form, one Python step per round.

    The reference for ``pcnsim.sim._clique_fast``: per chunk (128 doubling to
    2**14 rounds, clipped at max_steps) it draws the edge indices, then the
    direction bits with numpy's own ``integers``; bit 1 means the larger-id
    endpoint pays.
    """
    m = n * (n - 1) // 2
    x = cfg.amount
    attempt = cfg.stop_mode == "attempt"
    half = capacity // 2
    if not attempt and min(half, capacity - half) < x:
        return RunOutcome(0, 0, "depleted", rng.seed)
    bal = [half] * m
    t = 0
    size = 128
    while t < cfg.max_steps:
        chunk = int(min(size, cfg.max_steps - t))
        size = min(size * 2, 1 << 14)
        edges = rng.indices(m, chunk).tolist()
        dirs = rng.np.integers(0, 2, size=chunk, dtype=np.uint8).tolist()
        for eid, d in zip(edges, dirs):
            b = bal[eid]
            if d:
                payer = capacity - b
                nb = b + x
            else:
                payer = b
                nb = b - x
            if attempt and payer < x:
                return RunOutcome(t, eid, "attempt_failed", rng.seed)
            bal[eid] = nb
            t += 1
            if not attempt and min(nb, capacity - nb) < x:
                return RunOutcome(t, eid, "depleted", rng.seed)
    return RunOutcome(t, None, "step_cap_reached", rng.seed)


def misrouted_chains(n, k, max_steps, rng):
    """The chain side of ``pcnsim.run_coupled_clique`` with a pair -> chain map
    that is no bijection: the pair {0, 1} drives chain 1, so chain 0 never
    moves.  A negative control for the coupling: on the same stream its stop
    time differs from the clique's on some seeds (needs n >= 3, so m >= 2).
    """
    pos = [0] * (n * (n - 1) // 2)
    t = 0
    while t < max_steps:
        s, d = rng.pair(n)
        u, v = (s, d) if s < d else (d, s)
        chain = max(u * (2 * n - u - 1) // 2 + (v - u - 1), 1)
        pos[chain] += 1 if s < d else -1
        t += 1
        if abs(pos[chain]) == k:
            return RunOutcome(t, chain, "depleted", rng.seed)
    return RunOutcome(t, None, "step_cap_reached", rng.seed)


def oracle_independent_chains(n, k, p_select, max_steps, rng):
    """n independent chains, stepped and checked one row at a time.

    The reference for ``pcnsim.run_independent_chains``: per block (8
    doubling to 256 rows, clipped at max_steps) it draws ``random`` for the
    selections, then ``integers`` for the directions, from ``rng.np``.
    """
    gen = rng.np
    pos = np.zeros(n, dtype=np.int64)
    t = 0
    rows = 8
    while t < max_steps:
        block = int(min(rows, max_steps - t))
        rows = min(rows * 2, 256)
        selected = gen.random((block, n)) < p_select
        steps = gen.integers(0, 2, size=(block, n), dtype=np.int8).astype(np.int64) * 2 - 1
        moves = selected * steps
        for r in range(block):
            pos += moves[r]
            t += 1
            hits = np.abs(pos) >= k
            if hits.any():
                return RunOutcome(t, int(np.argmax(hits)), "depleted", rng.seed)
    return RunOutcome(t, None, "step_cap_reached", rng.seed)


def oracle_ring_fast(n, capacity, cfg, rng):
    """The ring's arc form, one round at a time from two scalar pair draws.

    The reference for ``pcnsim.sim._ring_fast``.  ``cw[i]`` is the balance
    node i can push to i+1 over edge i; edge n-1 joins n-1 and 0, and
    make_ring stores its balance at node 0, so ``cw[n-1]`` is the other side
    of it.  An antipodal pair (even n) takes one ``randrange(2)``, and r == 0
    picks the antipode's first BFS predecessor, which lies on the
    counterclockwise arc for every source but 0, because make_ring lists
    node 0's neighbours as [1, n-1].  Each round is applied, then checked in
    path order: a balance below ``lo`` (the amount in depletion mode, 0 in
    attempt mode) or above ``capacity - lo`` fails it.  Balances are Python
    ints, so the loop is exact at any capacity and amount.
    """
    x = cfg.amount
    attempt = cfg.stop_mode == "attempt"
    lo = 0 if attempt else x
    if capacity // 2 < lo:
        return RunOutcome(0, 0, "depleted", rng.seed)
    cw = np.full(n, capacity // 2, dtype=object)
    hi = capacity - lo
    t = 0
    while t < cfg.max_steps:
        s, d = rng.pair(n)
        span = d - s if d > s else d - s + n  # clockwise hops from s to d
        if 2 * span == n:
            clockwise = (rng.randrange(2) == 0) == (s == 0)
        else:
            clockwise = 2 * span < n
        # the arc's edges are first, first+1, ..., end-1 (mod n); a clockwise
        # payment crosses them in ascending order, a counterclockwise one in
        # descending order
        first, end = (s, s + span) if clockwise else (d, s + n if s < d else s)
        segs = ((first, end),) if end <= n else ((first, n), (0, end - n))
        step = -x if clockwise else x
        for a, b in segs:
            cw[a:b] += step
        failing = -1
        if clockwise:
            for a, b in segs:
                v = cw[a:b]
                if v.min() < lo:
                    failing = a + int(np.argmax(v < lo))
                    break
        else:
            for a, b in reversed(segs):
                v = cw[a:b]
                if v.max() > hi:
                    failing = b - 1 - int(np.argmax(v[::-1] > hi))
                    break
        if failing >= 0:
            if attempt:
                return RunOutcome(t, failing, "attempt_failed", rng.seed)
            return RunOutcome(t + 1, failing, "depleted", rng.seed)
        t += 1
    return RunOutcome(t, None, "step_cap_reached", rng.seed)
