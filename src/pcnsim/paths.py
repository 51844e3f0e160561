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


def sample_shortest_path(dag: ShortestPathDag, target: int, rng: Rng) -> list[int]:
    """One shortest source→target path, exactly uniform over all of them.

    Walks backward from the target choosing predecessor p with probability
    sigma(p) / sigma(current); the product telescopes to 1/sigma(target), so
    every shortest path is equally likely.  Integer draws are exact, and a
    node with one predecessor takes no draw.
    """
    if target == dag.source:
        raise ValueError("target equals source")
    if not 0 <= target < len(dag._dist):
        raise ValueError(f"target {target} outside [0,{len(dag._dist)})")
    if dag._dist[target] < 0:
        dag.extend(target)
        if dag._dist[target] < 0:
            raise ValueError(f"target {target} unreachable from source {dag.source}")
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


class DagCache:
    """Bounded LRU cache of per-source BFS DAGs.

    Topology never changes during a campaign, so cached DAGs stay valid, and
    a DAG built only part of the way holds final values for every node it has
    reached; the cache only trades memory for speed and cannot alter sampling
    distribution.
    Not thread-safe: one instance per worker.
    """

    def __init__(self, g: ChannelGraph, max_sources: int | None = None):
        if max_sources is None:
            # every source fits comfortably on small graphs; snapshots get LRU
            max_sources = g.node_count if g.node_count <= 2048 else 256
        if max_sources < 1:
            raise ValueError("max_sources must be >= 1")
        self._g = g
        self._max = max_sources
        self._dags: OrderedDict[int, ShortestPathDag] = OrderedDict()
        self.gets = 0
        self.misses = 0

    def get(self, source: int, target: int | None = None) -> ShortestPathDag:
        """source's DAG; a new one is built only as deep as target's level
        (complete without a target), and sampling extends it when a later
        target lies deeper."""
        self.gets += 1
        dag = self._dags.get(source)
        if dag is None:
            self.misses += 1
            dag = sssp_dag(self._g, source, target)
            if len(self._dags) >= self._max:
                self._dags.popitem(last=False)
            self._dags[source] = dag
        else:
            self._dags.move_to_end(source)
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
