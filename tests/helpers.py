"""Shared test fixtures: independent brute-force oracles and graph generators.

Everything here is deliberately written from scratch (plain dict/BFS code) so
it stays independent of the package implementations it checks.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from fractions import Fraction
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


def oracle_apportion(total, weights, floor=2):
    """Batch water-filling with exact ``Fraction`` targets.

    The reference for ``pcnsim.planner._apportion``: edge e's target is
    budget·w_e/Σw over the unclamped edges, where budget is the total less
    ``floor`` per clamped edge.  Every weight-0 edge starts clamped; each
    pass clamps every edge whose target is below the floor at once, and
    re-solves until none is.  Targets are rounded down, and the spare units
    go one each by largest fractional part, ties to the smaller edge id.
    Returns the capacities and the unclamped edges' targets.
    """
    m = len(weights)
    clamped = {e for e in range(m) if weights[e] == 0}
    while True:
        active = [e for e in range(m) if e not in clamped]
        budget = total - floor * len(clamped)
        denom = sum(weights[e] for e in active)
        targets = {e: Fraction(budget * weights[e], denom) for e in active}
        below = [e for e in active if targets[e] < floor]
        if not below:
            break
        clamped.update(below)
    caps = [floor] * m
    for e, target in targets.items():
        caps[e] = math.floor(target)
    spare = total - sum(caps)
    for e in sorted(active, key=lambda e: (-(targets[e] - caps[e]), e))[:spare]:
        caps[e] += 1
    return caps, targets


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


def dag_tables(dag, n):
    """``dist``, ``sigma`` and ``preds`` of a ``pcnsim`` DAG, read off its
    ``step(w)`` in the shape ``oracle_sssp_dag`` gives them: a node the DAG
    does not hold has dist inf, sigma 0 and no predecessors."""
    dist, sigma, preds = [math.inf] * n, [0] * n, [[] for _ in range(n)]
    dist[dag.source], sigma[dag.source] = 0, 1
    held = []
    for w in range(n):
        try:
            ps, acc, _edges = dag.step(w)
        except ValueError:
            continue
        if w != dag.source:
            preds[w], sigma[w] = list(ps), acc[-1]
            held.append(w)
    # a node lies one hop past its first predecessor: settle a level a pass
    while held:
        later = []
        for w in held:
            d = dist[preds[w][0]]
            if d == math.inf:
                later.append(w)
            else:
                dist[w] = d + 1
        assert len(later) < len(held), "a step's predecessors never reach the source"
        held = later
    return SimpleNamespace(source=dag.source, dist=dist, sigma=sigma, preds=preds)


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
    """The m-chain process of ``pcnsim.run_coupled_clique`` with a map from
    drawn edge to chain that is no bijection: edge 0 drives chain 1, so chain
    0 never moves.  It reads the clique kernel's stream (per chunk of 128
    doubling to 2**14 rounds, the edge indices, then the direction bits, bit
    1 moving the chain up), so it differs from the kernel only through the
    map.  A negative control for the coupling: its stop time differs from the
    clique's on some seeds (needs n >= 3, so m >= 2).
    """
    m = n * (n - 1) // 2
    pos = [0] * m
    t = 0
    size = 128
    while t < max_steps:
        chunk = int(min(size, max_steps - t))
        size = min(size * 2, 1 << 14)
        edges = rng.indices(m, chunk).tolist()
        dirs = rng.np.integers(0, 2, size=chunk, dtype=np.uint8).tolist()
        for eid, d in zip(edges, dirs):
            chain = max(eid, 1)
            pos[chain] += 1 if d else -1
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


def oracle_load_snapshot(doc, dropped=None):
    """The snapshot load one Python step per record, parse to giant component.

    The reference for ``giant_component(ingest_snapshot(parse_snapshot(doc)))``
    on a snapshot dict: it raises the same ValueError for the first fault,
    and appends the key of each self-loop it drops to ``dropped``, if given.
    """
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ValueError("snapshot document must have top-level 'nodes' and 'edges'")
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise ValueError("snapshot 'nodes' and 'edges' must be lists")
    node_keys = []
    seen = set()
    for rec in doc["nodes"]:
        try:
            key = rec["pub_key"]
            hash(key)
        except (TypeError, KeyError):
            raise ValueError(f"malformed node record: {rec!r}") from None
        if key not in seen:
            seen.add(key)
            node_keys.append(key)
    channels = []
    for rec in doc["edges"]:
        try:
            k1, k2, cap = rec["node1_pub"], rec["node2_pub"], rec["capacity"]
            hash((k1, k2))
        except (TypeError, KeyError):
            raise ValueError(f"malformed channel record: {rec!r}") from None
        if not (type(cap) is int or type(cap) is str and re.fullmatch("-?[0-9]+", cap)):
            raise ValueError(f"channel {k1}–{k2} has non-integer capacity {cap!r}")
        channels.append((k1, k2, int(cap)))

    index = {key: i for i, key in enumerate(node_keys)}
    merged = {}
    for k1, k2, cap in channels:
        if k1 not in index or k2 not in index:
            missing = k1 if k1 not in index else k2
            raise ValueError(f"channel references unknown node key {missing!r}")
        if cap <= 0:
            raise ValueError(f"channel {k1}–{k2} has nonpositive capacity {cap}")
        u, v = index[k1], index[k2]
        if u == v:
            if dropped is not None:
                dropped.append(k1)
            continue
        pair = (min(u, v), max(u, v))
        merged[pair] = merged.get(pair, 0) + cap
    g = ChannelGraph(len(node_keys), [(u, v, cap) for (u, v), cap in merged.items()],
                     node_keys=list(node_keys))

    adj = adjacency_of(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.capacity.tolist()),
                       g.node_count)
    seen_node = set()
    best = []
    for start in range(g.node_count):  # upward, so the first largest wins ties
        if start not in seen_node:
            comp = list(bfs_dist(adj, start))
            seen_node.update(comp)
            if len(comp) > len(best):
                best = comp
    if len(best) < 2:
        raise ValueError("largest component is a single node; no channels to keep")
    best.sort()
    remap = {old: new for new, old in enumerate(best)}
    edges = [(remap[u], remap[v], cap)
             for u, v, cap in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.capacity.tolist())
             if u in remap]
    return ChannelGraph(len(best), edges, node_keys=[node_keys[old] for old in best])


_FEATURES = {0: "data-loss-protect", 5: "upfront-shutdown-script", 7: "gossip-queries",
             9: "tlv-onion", 12: "static-remote-key", 14: "payment-addr",
             17: "multi-path-payments", 23: "anchors-zero-fee-htlc-tx",
             27: "shutdown-any-segwit", 45: "explicit-commitment-type",
             2023: "script-enforced-lease"}
_ALIASES = ["{0}", "}}, {{{0}", 'say "{0}"', "{0}}}, {{\"pub_key\": \"x\"}}, {{", "\\{0}\\"]


def lnd_decorated(doc: dict, seed: int) -> dict:
    """``doc`` with the nested fields of LND's ``describegraph`` around each
    record's own: two policy objects per channel, a feature object per
    feature bit and two address objects per node, and aliases that hold
    ``}, {``, escaped quotes and backslashes.  Fields keep LND's order, and
    the same (doc, seed) always give the same document."""
    rng = random.Random(seed)

    def policy():
        return {"time_lock_delta": rng.choice([40, 80, 144]), "min_htlc": "1000",
                "fee_base_msat": str(rng.randrange(2000)),
                "fee_rate_milli_msat": str(rng.randrange(5000)), "disabled": rng.random() < 0.1,
                "max_htlc_msat": str(rng.randrange(10 ** 6, 10 ** 10)),
                "last_update": rng.randrange(1_600_000_000, 1_700_000_000),
                "custom_records": {}}

    nodes = []
    for i, rec in enumerate(doc["nodes"]):
        bits = sorted(rng.sample(sorted(_FEATURES), rng.randrange(3, len(_FEATURES))))
        nodes.append({
            "last_update": rng.randrange(1_600_000_000, 1_700_000_000), **rec,
            "alias": rng.choice(_ALIASES).format(f"node{i}"),
            "addresses": [{"network": "tcp", "addr": f"{rng.getrandbits(32):08x}:9735"},
                          {"network": "tcp", "addr": f"{rng.getrandbits(80):020x}.onion:9735"}],
            "color": f"#{rng.getrandbits(24):06x}",
            "features": {str(bit): {"name": _FEATURES[bit], "is_required": bit % 2 == 0,
                                    "is_known": True} for bit in bits},
            "custom_records": {}})
    edges = [{"channel_id": str(rng.getrandbits(63)),
              "chan_point": f"{rng.getrandbits(256):064x}:{rng.randrange(4)}",
              "last_update": rng.randrange(1_600_000_000, 1_700_000_000), **rec,
              "node1_policy": policy(), "node2_policy": policy(), "custom_records": {}}
             for rec in doc["edges"]]
    return {"nodes": nodes, "edges": edges}
