"""Shortest-path DAGs, uniform shortest-path sampling, exact edge betweenness."""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count

import numpy as np

from .graph import ChannelGraph
from .progress import Progress
from .rng import Rng

logger = logging.getLogger(__name__)

# a node's step in a shortest-path DAG: its predecessors, running sums of
# their path counts, and the edge from each of them
_Step = tuple[list[int], list[int], list[int]]

# edge_betweenness keeps sigma counts in int64 until a BFS level could push
# one to 2**62 or past it; from that level on they are Python ints
_SIGMA_LIMIT = 1 << 62

# edge_betweenness runs its sources in blocks of B, all B searches side by
# side in one set of arrays, with B as large as keeps B·max(n, 2m), the
# block's keys and arcs, within this budget
_BLOCK_BUDGET = 1 << 15


def _add_paths(sigma: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """``sigma[heads] += sigma[tails]`` arc by arc, for one BFS level.

    Returns sigma, first turned into Python ints (object) when an int64 count
    could reach 2**62; every count so far is below it, so they convert exactly.
    """
    flow = sigma[tails]
    if sigma.dtype != object and int(np.maximum.reduce(flow)) * flow.size >= _SIGMA_LIMIT:
        sigma = sigma.astype(object)
        flow = sigma[tails]
    np.add.at(sigma, heads, flow)
    return sigma


class ShortestPathDag:
    """Shortest paths from ``source``, held as each node's step, built by
    ``_rebuild``.

    ``step(w)`` gives w's predecessors in BFS queue order, running sums of
    their path counts (Python ints, exact at any size) and the edge that
    joins each of them to w.  ``sssp_dag`` holds every node the source
    reaches; ``st_dag`` and ``DagCache`` hold only the nodes on a shortest
    path to one target.  The predecessors of a node on a shortest path lie
    on one too, so a node held by both has the same step in each, and a
    path to it samples alike from both.
    """

    __slots__ = ("source", "_steps")

    def __init__(self, source: int, steps: dict[int, _Step]):
        self.source = source
        self._steps = steps

    def step(self, w: int) -> _Step:
        """w's predecessors, running sums of their path counts, and edges."""
        try:
            return self._steps[w]
        except KeyError:
            raise ValueError(f"node {w} lies on no shortest path from {self.source} "
                             "in this DAG") from None


def sssp_dag(g: ChannelGraph, source: int) -> ShortestPathDag:
    """The complete BFS DAG from source, read off its hop row
    (``ChannelGraph.hops``) one level of hops 1, 2, ... at a time until a
    level comes back empty."""
    return _rebuild(g, source, g.hops(source), count(1))


def _check_pair(n: int, source: int, target: int) -> None:
    for v, name in ((source, "source"), (target, "target")):
        if not 0 <= v < n:
            raise ValueError(f"{name} {v} outside [0,{n})")
    if source == target:
        raise ValueError("target equals source")


def _rebuild(g: ChannelGraph, source: int, hops, wants) -> ShortestPathDag:
    """The DAG from source whose level i, for i = 1, 2, ..., holds the
    neighbours w of level i - 1 with ``hops[w]`` equal to the i-th value of
    ``wants``; it ends with ``wants`` or at the first empty level.  Path
    counts are summed level by level, as in Brandes (2001).

    With hops from source and wants 1, 2, ... it is the full DAG
    (``sssp_dag``).  With hops to target, exact wherever not -1 and set on
    every node of a shortest source→target path, and wants d - 1, ..., 0,
    where d = hops[source], it is the s–t DAG: a neighbour w of a node at
    depth i - 1 on a shortest path is at depth i on one iff hops[w] = d - i,
    as d(source, w) <= i and d(source, w) >= d - hops[w].
    Scanning each level in BFS queue order, along CSR rows, meets every node
    of the next level first through its lowest-ranked predecessor, at the
    position ``Csr.bfs_step`` gives it, so the levels keep the full BFS's
    order.
    """
    ptr, nbr, _ = g.csr_lists
    edge_of = g.csr.arc_edge.item
    steps: dict[int, _Step] = {source: ([], [], [])}
    sigma = {source: 1}
    order = [source]
    for want in wants:
        found = []
        for p in order:
            ways = sigma[p]
            for arc in range(ptr[p], ptr[p + 1]):
                w = nbr[arc]
                if hops[w] == want:
                    got = steps.get(w)
                    if got is None:
                        steps[w] = ([p], [ways], [edge_of(arc)])
                        found.append(w)
                    else:
                        got[0].append(p)
                        got[1].append(got[1][-1] + ways)
                        got[2].append(edge_of(arc))
        if not found:
            break
        for w in found:
            sigma[w] = steps[w][1][-1]
        order = found
    return ShortestPathDag(source, steps)


def st_dag(g: ChannelGraph, source: int, target: int) -> ShortestPathDag:
    """Every shortest source→target path, found by a balanced bidirectional BFS.

    Each step expands, by one whole level, the side whose frontier has the
    smaller degree sum, until a level reaches a node the other side has
    found.  The balls around source and target, hop arrays of radii a and b
    (-1 outside), then meet for the first time, so d(s, t) = a + b, and the
    nodes at distance a from s on a shortest path are exactly those they
    share.  The target's ball is the row ``_rebuild`` reads, d(s, t) - 1
    hops down to 0: it holds the exact hops to t of every DAG node at least
    a hops from s.  The rest are traced back from the shared layer to s and
    given their hops to t, a + b - (hops from s), in the same row.
    """
    n = g.node_count
    _check_pair(n, source, target)
    ptr, nbr, degree = g.csr_lists
    balls = (array("i", [-1]) * n, array("i", [-1]) * n)  # hops from source, to target
    balls[0][source] = balls[1][target] = 0
    fronts = [[source], [target]]
    work = [degree[source], degree[target]]
    radius = [0, 0]
    while True:
        side = 0 if work[0] <= work[1] else 1
        mine, other = balls[side], balls[1 - side]
        depth = radius[side] + 1
        level, degrees, met = [], 0, False
        for v in fronts[side]:
            for w in nbr[ptr[v]:ptr[v + 1]]:
                if mine[w] < 0:
                    mine[w] = depth
                    level.append(w)
                    degrees += degree[w]
                    if other[w] >= 0:
                        met = True
        if not level:
            raise ValueError(f"target {target} unreachable from source {source}")
        fronts[side], work[side], radius[side] = level, degrees, depth
        if met:
            break
    hops_s, row = balls
    a, b = radius
    # the balls share only nodes of the level just expanded, a hops from s
    layer = [w for w in fronts[side] if other[w] >= 0]
    for at in range(a - 1, -1, -1):  # back to s: the DAG's nodes at hops `at` from s
        layer = {u for v in layer for u in nbr[ptr[v]:ptr[v + 1]] if hops_s[u] == at}
        for u in layer:
            row[u] = a + b - at
    return _rebuild(g, source, row, range(a + b - 1, -1, -1))


def sample_shortest_path(dag: ShortestPathDag, target: int, rng: Rng) -> list[int]:
    """One shortest source→target path, exactly uniform over all of them.

    Walks backward from the target choosing predecessor p with probability
    sigma(p) / sigma(current); the product telescopes to 1/sigma(target), so
    every shortest path is equally likely.  Integer draws are exact, and a
    node with one predecessor takes no draw.  Any node the DAG holds is a
    target, and every DAG that holds it gives the same path for the same
    draws; a target it does not hold is a ValueError.
    """
    if target == dag.source:
        raise ValueError("target equals source")
    dag.step(target)  # ValueError unless the DAG holds target
    steps = dag._steps
    path = [target]
    node = target
    src = dag.source
    while node != src:
        # runs once per hop: indexing the step measured ~5% faster here than
        # unpacking all three of its fields
        step = steps[node]
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
    """Brandes dependency accumulation from every source, bit for bit.

    Each unordered pair {s,t} contributes sigma(s,t|e)/sigma(s,t) once;
    disconnected pairs contribute nothing.  Sources run in blocks of B, the
    largest that keeps B·max(n, 2m) within ``_BLOCK_BUDGET``, on B disjoint
    copies of the graph (``Csr.copies``): the block's j-th source searches
    copy j, so one ``Csr.bfs_step`` per level expands every source of the
    block.  Its scan of a level's rows reads the heads' depths once, which
    finds both the next level and the level's arcs up to the level above:
    its shortest-path arcs, grouped by row in queue order, over which the
    level's path counts are summed.  Dependencies then flow back one level
    at a time, deepest first, over those arcs by descending queue position
    of their row, and each source's edge shares join the total in source
    order.  So every float is summed in the order of the sequential
    algorithm (reverse queue order, sources ascending), and the values are
    its values.

    A level costs a few tens of µs of numpy calls whatever its width, which
    a block shares: on a 2-core host a 512-node ring (B = 32) takes about
    0.08 s, where one source at a time took 3.2 s.  A line every 10 s of
    wall time (``progress._PROGRESS_SECONDS``) logs the sources done and
    their rate.
    """
    n, m = g.node_count, g.edge_count
    block = max(1, min(n, _BLOCK_BUDGET // max(n, 2 * m)))
    union = g.csr.copies(block)
    # each arc's row (its tail); its arc_edge is its flat index into the
    # block's (B, m) edge shares
    row_of = np.arange(block * n).repeat(union.degree)
    acc = np.zeros(m)
    progress = Progress(logger, "edge betweenness", "sources", total=n)
    for first in range(0, n, block):
        b = min(block, n - first)
        frontier = np.arange(b) * (n + 1) + first  # node first + j of copy j
        dist = np.full(block * n, -1, dtype=np.intp)
        dist[frontier] = 0
        sigma = np.zeros(block * n, dtype=np.int64)
        sigma[frontier] = 1
        dag = []  # (rows, preds, shares) of each level's arcs up, deepest last
        depth = 0
        while True:
            reached, (arcs, heads, near) = union.bfs_step(frontier, dist)
            if depth:
                # reversed, the level's arcs up run by descending queue
                # position of their row
                lift = (near == depth - 1).nonzero()[0][::-1]
                up = arcs[lift]
                rows, preds = row_of[up], heads[lift]
                dag.append((rows, preds, union.arc_edge[up]))
                sigma = _add_paths(sigma, rows, preds)
            if not reached.size:
                break
            depth += 1
            dist[reached] = depth
            frontier = reached
        delta = np.zeros(block * n)
        share = np.zeros(block * m)
        for rows, preds, shares in reversed(dag):
            c = np.empty(rows.size)
            # Python-int sigma yields Python floats, which float64 holds exactly
            np.multiply(sigma[preds], (1.0 + delta[rows]) / sigma[rows],
                        out=c, casting="unsafe")
            np.add.at(delta, preds, c)
            # an edge is a shortest-path arc at most once per source
            share[shares] = c
        for row in share.reshape(block, m)[:b]:
            acc += row
        progress(first + b)
    # every unordered pair was counted from both endpoints
    return BetweennessMap((acc / 2.0).tolist())


def edge_selection_probability(g: ChannelGraph, bmap: BetweennessMap, eid: int) -> float:
    """Probability that edge eid lies on one uniformly sampled payment path."""
    return _per_pair(g.node_count) * bmap.values[eid]


def _per_pair(n: int) -> float:
    """One over the n(n - 1)/2 unordered node pairs: the selection
    probability per unit of betweenness, as the betweenness CSV writes it."""
    return 2.0 / (n * (n - 1))


# a DagCache builds rows of hop counts on graphs of at most this many nodes
_ROW_MAX_NODES = 2048


class DagCache:
    """The s–t DAGs for the generic loop's draws; one cache per worker.

    ``get(s, t)`` returns the round's s–t DAG, built by ``st_dag`` for the
    cache's first n gets.  Past n gets, on graphs of at most
    ``_ROW_MAX_NODES`` nodes, each target keeps a row of hop counts to it,
    one hop-count BFS (``ChannelGraph.hops(t)``), and ``_rebuild`` reads
    every DAG to it off the row.  On larger graphs a campaign reuses too few
    rows to repay them.  A get that runs ``st_dag`` or builds a row is a
    miss.  ``st_dag``'s row is set on every DAG node and exact wherever
    set, as a full row is, so both ways give the same DAG and the cache
    cannot alter sampling.
    Not thread-safe: one instance per worker.
    """

    def __init__(self, g: ChannelGraph):
        self._g = g
        self._rows = {} if g.node_count <= _ROW_MAX_NODES else None  # target: its row
        self.gets = 0
        self.misses = 0

    def get(self, source: int, target: int) -> ShortestPathDag:
        """The DAG of every shortest source→target path."""
        self.gets += 1
        g, rows = self._g, self._rows
        if rows is None or self.gets <= g.node_count:
            self.misses += 1
            return st_dag(g, source, target)
        _check_pair(g.node_count, source, target)
        row = rows.get(target)
        if row is None:
            self.misses += 1
            row = rows[target] = g.hops(target)
        d = row[source]
        if d < 0:
            raise ValueError(f"target {target} unreachable from source {source}")
        return _rebuild(g, source, row, range(d - 1, -1, -1))


def betweenness_rows(g: ChannelGraph, bmap: BetweennessMap):
    """Rows for the betweenness CSV export (see results.write_csv)."""
    norm = _per_pair(g.node_count)
    for eid, (u, v, cap) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist(),
                                          g.capacity.tolist())):
        yield eid, u, v, cap, bmap.values[eid], norm * bmap.values[eid]


BETWEENNESS_COLUMNS = ["edge_id", "u", "v", "capacity", "betweenness",
                       "selection_probability"]
