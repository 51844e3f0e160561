"""Shortest-path DAGs, uniform shortest-path sampling, exact edge betweenness."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import ChannelGraph, Csr
from .rng import Rng

INF = math.inf

# sigma counts are int64 until a BFS level could push one to 2**62 or past
# it; from that level on they are Python ints
_SIGMA_LIMIT = 1 << 62


class _NodeView(Sequence):
    """Read-only list view of per-node values, each computed when read."""

    __slots__ = ("_n", "_get")

    def __init__(self, n: int, get):
        self._n = n
        self._get = get

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, w: int):
        if not -self._n <= w < self._n:
            raise IndexError(f"node {w} outside [0,{self._n})")
        return self._get(w % self._n)

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class ShortestPathDag:
    """Single-source BFS result on hop distances, kept as flat per-node arrays.

    The BFS runs level by level only as deep as asked: ``extend(t)`` expands
    levels until t has its distance, and a later call resumes where the last
    one stopped.  Every node found so far has its final distance, path count
    and BFS rank, since all its predecessors lie one level up.

    ``sigma[w]`` counts all distinct shortest source→w paths exactly;
    ``preds[w]`` lists exactly the neighbors of w at distance ``dist[w] - 1``,
    in BFS queue order.  Unreachable nodes carry ``dist = inf`` and
    ``sigma = 0``.  All three are read-only list views of the complete DAG
    that yield Python numbers; ``preds[w]`` is read off the graph's CSR rows
    when asked for.
    """

    __slots__ = ("source", "_csr", "_dist", "_sigma", "_rank", "_steps",
                 "_frontier", "_depth", "_ranked")

    def __init__(self, source: int, csr: Csr):
        n = len(csr.degree)
        self.source = source
        self._csr = csr
        self._dist = np.full(n, -1, dtype=np.intp)  # hops from source; -1: not found
        self._sigma = np.zeros(n, dtype=np.int64)   # object (Python ints) for huge counts
        self._rank = np.empty(n, dtype=np.intp)     # position in BFS queue order
        self._dist[source] = 0
        self._sigma[source] = 1
        self._rank[source] = 0
        self._steps: dict[int, tuple[list[int], list[int], list[int]]] = {}
        self._frontier = np.array([source], dtype=np.intp)  # the nodes at _depth
        self._depth = 0
        self._ranked = 1  # nodes found so far, so the next rank to hand out

    def extend(self, target: int | None = None, levels: list | None = None) -> None:
        """Expand BFS levels until ``target`` has a distance, or, without a
        target, until every reachable node has one.

        ``levels``, when given, gets each new level's shortest-path arcs as
        ``(heads, tails, arc positions)``.  A target that was found already,
        or a BFS that has run out of nodes, expands nothing.
        """
        csr, dist, sigma = self._csr, self._dist, self._sigma
        frontier, depth = self._frontier, self._depth
        found = []
        while frontier.size and (target is None or dist[target] < 0):
            heads, tails, arcs, frontier = csr.bfs_step(frontier, dist)
            if not heads.size:
                break
            flow = sigma[tails]
            if (sigma.dtype != object
                    and int(np.maximum.reduce(flow)) * flow.size >= _SIGMA_LIMIT):
                # every count so far is below 2**62, so Python ints hold them exactly
                sigma = self._sigma = sigma.astype(object)
                flow = sigma[tails]
            np.add.at(sigma, heads, flow)
            depth += 1
            dist[frontier] = depth
            found.append(frontier)
            if levels is not None:
                levels.append((heads, tails, arcs))
        self._frontier, self._depth = frontier, depth
        if found:
            found = np.concatenate(found) if len(found) > 1 else found[0]
            self._rank[found] = np.arange(self._ranked, self._ranked + found.size)
            self._ranked += found.size

    @property
    def dist(self) -> _NodeView:
        self.extend()
        dist = self._dist
        return _NodeView(len(dist), lambda w: INF if dist[w] < 0 else int(dist[w]))

    @property
    def sigma(self) -> _NodeView:
        self.extend()
        sigma = self._sigma
        return _NodeView(len(sigma), lambda w: int(sigma[w]))

    @property
    def preds(self) -> _NodeView:
        self.extend()
        return _NodeView(len(self._dist), lambda w: list(self.step(w)[0]))

    def _reach(self, target: int) -> None:
        """Extend the DAG to target; ValueError if source cannot reach it."""
        n = len(self._dist)
        if not 0 <= target < n:
            raise ValueError(f"target {target} outside [0,{n})")
        if self._dist[target] < 0:
            self.extend(target)
            if self._dist[target] < 0:
                raise ValueError(f"target {target} unreachable from source {self.source}")

    def step(self, w: int) -> tuple[list[int], list[int], list[int]]:
        """w's predecessors in BFS queue order, running sums of their sigma,
        and the edge that joins each of them to w.

        Remembered per node, so repeated walks through a cached DAG stay cheap.
        """
        got = self._steps.get(w)
        if got is None:
            csr = self._csr
            if self._dist[w] < 0:
                self.extend(w)
            d = self._dist[w]
            if w == self.source or d < 0:
                preds = edges = self._rank[:0]
            else:
                start, stop = csr.indptr[w], csr.indptr[w + 1]
                nbrs = csr.indices[start:stop]
                keep = self._dist[nbrs] == d - 1
                preds, edges = nbrs[keep], csr.arc_edge[start:stop][keep]
                if preds.size > 1:
                    order = np.argsort(self._rank[preds])
                    preds, edges = preds[order], edges[order]
            got = (preds.tolist(), np.add.accumulate(self._sigma[preds]).tolist(),
                   edges.tolist())
            self._steps[w] = got
        return got


def sssp_dag(g: ChannelGraph, source: int, target: int | None = None) -> ShortestPathDag:
    """The BFS DAG from source: complete, or only as deep as target's level
    when a target is given (it grows on demand; see ShortestPathDag)."""
    n = g.node_count
    if not (0 <= source < n):
        raise ValueError(f"source {source} outside [0,{n})")
    if target is not None and not (0 <= target < n):
        raise ValueError(f"target {target} outside [0,{n})")
    dag = ShortestPathDag(source, g.csr)
    dag.extend(target)
    return dag


class StDag:
    """The part of source's shortest-path DAG that holds every shortest
    source→target path, built by ``st_dag``.

    A predecessor of a node on a shortest source→target path lies on one
    too, so for each such node w ``step(w)`` equals
    ``sssp_dag(g, source).step(w)``: the same predecessors in the same BFS
    queue order, the same path counts and edges.  Only those nodes are kept.
    """

    __slots__ = ("source", "target", "_steps")

    def __init__(self, source: int, target: int,
                 steps: dict[int, tuple[list[int], list[int], list[int]]]):
        self.source = source
        self.target = target
        self._steps = steps

    def _reach(self, target: int) -> None:
        if target != self.target:
            raise ValueError(f"this DAG holds the paths to {self.target}, not to {target}")

    def step(self, w: int) -> tuple[list[int], list[int], list[int]]:
        """As ShortestPathDag.step, for a node on a shortest source→target path."""
        try:
            return self._steps[w]
        except KeyError:
            raise ValueError(f"node {w} lies on no shortest path from {self.source} "
                             f"to {self.target}") from None


def st_dag(g: ChannelGraph, source: int, target: int) -> StDag:
    """Every shortest source→target path, found by a balanced bidirectional BFS.

    Each step expands, by one whole level, the side whose frontier has the
    smaller degree sum, until a level reaches a node the other side has
    found.  The balls around source and target, of radii a and b, then meet
    for the first time, so d(s, t) = a + b, and the nodes at distance a from
    s on a shortest path are exactly those the two balls share.  The DAG's
    nodes, those with d(s, v) + d(v, t) = d(s, t), are found from that layer
    back to s over the forward distances and on to t over the backward ones.

    Path counts and predecessor order are then rebuilt level by level from
    s.  Scanning a level's nodes in BFS queue order, each along its CSR row,
    meets every node of the next level first through its lowest-ranked
    predecessor, at the position ``Csr.bfs_step`` orders it by, so the
    levels keep the full BFS's queue order.
    """
    n = g.node_count
    for v, name in ((source, "source"), (target, "target")):
        if not 0 <= v < n:
            raise ValueError(f"{name} {v} outside [0,{n})")
    if source == target:
        raise ValueError("target equals source")
    ptr, nbr = g.csr_lists
    seen = ({source: 0}, {target: 0})  # hops from source, hops to target
    fronts = [[source], [target]]
    work = [ptr[source + 1] - ptr[source], ptr[target + 1] - ptr[target]]
    radius = [0, 0]
    while True:
        side = 0 if work[0] <= work[1] else 1
        mine, other = seen[side], seen[1 - side]
        depth = radius[side] + 1
        level, degrees, met = [], 0, False
        for v in fronts[side]:
            for w in nbr[ptr[v]:ptr[v + 1]]:
                if w not in mine:
                    mine[w] = depth
                    level.append(w)
                    degrees += ptr[w + 1] - ptr[w]
                    if w in other:
                        met = True
        if not level:
            raise ValueError(f"target {target} unreachable from source {source}")
        fronts[side], work[side], radius[side] = level, degrees, depth
        if met:
            break
    hops_s, hops_t = seen
    a, d = radius[0], radius[0] + radius[1]
    layers: list = [None] * (d + 1)  # the DAG's nodes by distance from source
    # the balls share only nodes of the level just expanded, all at distance a
    layers[a] = {w for w in fronts[side] if w in other}
    for depth in range(a, 0, -1):
        layers[depth - 1] = {u for v in layers[depth] for u in nbr[ptr[v]:ptr[v + 1]]
                             if hops_s.get(u) == depth - 1}
    for depth in range(a, d):
        layers[depth + 1] = {u for v in layers[depth] for u in nbr[ptr[v]:ptr[v + 1]]
                             if hops_t.get(u) == d - depth - 1}
    edge_of = g.csr.arc_edge.item
    steps: dict[int, tuple[list[int], list[int], list[int]]] = {source: ([], [], [])}
    sigma = {source: 1}
    order = [source]
    for depth in range(1, d + 1):
        layer, found = layers[depth], []
        for p in order:
            count = sigma[p]
            for arc in range(ptr[p], ptr[p + 1]):
                w = nbr[arc]
                if w in layer:
                    got = steps.get(w)
                    if got is None:
                        steps[w] = ([p], [count], [edge_of(arc)])
                        found.append(w)
                    else:
                        got[0].append(p)
                        got[1].append(got[1][-1] + count)
                        got[2].append(edge_of(arc))
        for w in found:
            sigma[w] = steps[w][1][-1]
        order = found
    return StDag(source, target, steps)


def _level_bfs(csr: Csr, source: int):
    """Complete level-synchronous BFS from source: ``(dist, sigma, rank, levels)``.

    ``dist`` is -1 where unreachable, ``rank`` is each node's position in a
    deque BFS's queue, and ``levels[d - 1]`` holds the shortest-path arcs into
    the nodes at distance d as ``(heads, tails, arc positions)``.  sigma is
    int64, or Python ints (object) when an int64 count could reach 2**62.
    """
    dag = ShortestPathDag(source, csr)
    levels = []
    dag.extend(levels=levels)
    return dag._dist, dag._sigma, dag._rank, levels


def sample_shortest_path(dag: ShortestPathDag | StDag, target: int, rng: Rng) -> list[int]:
    """One shortest source→target path, exactly uniform over all of them.

    Walks backward from the target choosing predecessor p with probability
    sigma(p) / sigma(current); the product telescopes to 1/sigma(target), so
    every shortest path is equally likely.  Integer draws are exact, and a
    node with one predecessor takes no draw.  A per-source DAG and the s–t
    DAG of the same pair give the same path for the same draws.
    """
    if target == dag.source:
        raise ValueError("target equals source")
    dag._reach(target)
    steps = dag._steps
    path = [target]
    node = target
    src = dag.source
    while node != src:
        # runs once per hop: indexing the step measured ~5% faster here than
        # unpacking all three of its fields
        try:
            step = steps[node]
        except KeyError:
            step = dag.step(node)
        preds = step[0]
        if len(preds) == 1:
            node = preds[0]
        else:
            # acc[-1] is sigma(node): a node's count sums its predecessors'
            acc = step[1]
            node = preds[bisect_right(acc, rng.randrange(acc[-1]))]
        path.append(node)
    path.reverse()
    return path


@dataclass
class BetweennessMap:
    """Exact edge-betweenness g(e) over unordered distinct node pairs."""

    values: list[float]

    def __getitem__(self, eid: int) -> float:
        return self.values[eid]

    def __len__(self) -> int:
        return len(self.values)


def edge_betweenness(g: ChannelGraph) -> BetweennessMap:
    """Brandes-style dependency accumulation from every source.

    Each unordered pair {s,t} contributes sigma(s,t|e)/sigma(s,t) once;
    disconnected pairs contribute nothing.  Dependencies flow back level by
    level, deepest first; within a level the arcs go by descending BFS rank
    of their head, so every float is summed in the order of the sequential
    algorithm (reverse queue order, predecessors in queue order).
    """
    n = g.node_count
    csr = g.csr
    acc = np.zeros(g.edge_count)
    for s in range(n):
        _, sigma, rank, levels = _level_bfs(csr, s)
        if not levels:
            continue
        heads, tails, arcs = (np.concatenate(part) for part in zip(*levels))
        # rank grows with depth, so this also puts the deepest level first;
        # arcs tied on a head differ in tail and edge, so their order is free
        back = np.argsort(-rank[heads])
        heads, tails = heads[back], tails[back]
        sigma_heads, sigma_tails = sigma[heads], sigma[tails]
        share = np.empty(heads.size)
        delta = np.zeros(n)
        stop = 0
        for level_heads, _, _ in reversed(levels):
            start, stop = stop, stop + level_heads.size
            c = share[start:stop]
            # Python-int sigma yields Python floats, which float64 holds exactly
            np.multiply(sigma_tails[start:stop],
                        (1.0 + delta[heads[start:stop]]) / sigma_heads[start:stop],
                        out=c, casting="unsafe")
            np.add.at(delta, tails[start:stop], c)
        # an edge is a shortest-path arc at most once per source
        acc[csr.arc_edge[arcs[back]]] += share
    # every unordered pair was counted from both endpoints
    return BetweennessMap((acc / 2.0).tolist())


def edge_selection_probability(g: ChannelGraph, bmap: BetweennessMap, eid: int) -> float:
    """Probability that edge eid lies on one uniformly sampled payment path."""
    n = g.node_count
    return 2.0 * bmap.values[eid] / (n * (n - 1))


# a DagCache keeps every source's DAG on graphs of at most this many nodes,
# and the s–t DAGs of this many (s, t) pairs on larger ones
_PER_SOURCE_MAX_NODES = 2048
_ST_PAIRS = 256


class DagCache:
    """Shortest-path DAGs for the generic loop's draws; one cache per worker.

    On graphs of at most ``_PER_SOURCE_MAX_NODES`` nodes each source keeps
    one per-source DAG, built only as deep as its first target and grown
    when a later target lies deeper.  On larger graphs ``get(s, t)`` returns
    the s–t DAG (``st_dag``): a few nodes where a per-source BFS would find
    most of the graph.  An LRU keeps the last ``_ST_PAIRS`` of them by
    (s, t), so the smaller amounts of a multi-amount campaign, which replay
    a run's draws, find them again.

    Topology never changes during a campaign, so cached DAGs stay valid, and
    every kind of DAG gives the same paths for the same draws; the cache only
    trades memory for speed and cannot alter sampling.
    Not thread-safe: one instance per worker.
    """

    def __init__(self, g: ChannelGraph):
        self._g = g
        self._per_source = g.node_count <= _PER_SOURCE_MAX_NODES
        self._dags: dict = {} if self._per_source else OrderedDict()
        self.gets = 0
        self.misses = 0

    @property
    def kind(self) -> str:
        """Which DAGs a miss builds: 'per-source' or 's-t'."""
        return "per-source" if self._per_source else "s-t"

    def get(self, source: int, target: int) -> ShortestPathDag | StDag:
        """A DAG that sampling from source to target can walk: source's
        per-source DAG, or the s–t DAG."""
        self.gets += 1
        if self._per_source:
            dag = self._dags.get(source)
            if dag is None:
                self.misses += 1
                dag = self._dags[source] = sssp_dag(self._g, source, target)
            return dag
        key = (source, target)
        dag = self._dags.get(key)
        if dag is None:
            self.misses += 1
            dag = st_dag(self._g, source, target)
            if len(self._dags) >= _ST_PAIRS:
                self._dags.popitem(last=False)
            self._dags[key] = dag
        else:
            self._dags.move_to_end(key)
        return dag


def betweenness_rows(g: ChannelGraph, bmap: BetweennessMap):
    """Rows for the betweenness CSV export (see results.write_csv)."""
    n = g.node_count
    norm = 2.0 / (n * (n - 1))
    for eid, (u, v, cap) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist(),
                                          g.capacity.tolist())):
        yield eid, u, v, cap, bmap.values[eid], norm * bmap.values[eid]


BETWEENNESS_COLUMNS = ["edge_id", "u", "v", "capacity", "betweenness",
                       "selection_probability"]
