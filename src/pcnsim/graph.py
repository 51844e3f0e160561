"""Channel-graph data model, synthetic topologies, snapshot ingestion, balances."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


class Csr(NamedTuple):
    """Compressed sparse rows of a graph's adjacency.

    Row v, ``indices[indptr[v]:indptr[v + 1]]``, lists v's neighbours by
    edge id; the arc at position a of ``indices`` runs along edge
    ``arc_edge[a]``.  ``degree`` is ``np.diff(indptr)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degree: np.ndarray
    arc_edge: np.ndarray

    def bfs_step(self, frontier: np.ndarray, dist: np.ndarray):
        """One BFS level: the arcs out of ``frontier`` to nodes with negative
        ``dist``, as ``(heads, tails, arc positions)``, and the nodes they
        reach.

        The arcs come in the order a deque BFS scans them when it pops the
        frontier in the given order, and the reached nodes in the order that
        BFS appends them to its queue: by first occurrence among the heads.
        """
        # a BFS runs one level per hop of its depth, so each call is kept to
        # few small numpy operations
        counts = self.degree[frontier]
        ends = np.add.accumulate(counts)
        arcs = np.arange(ends[-1]) + (self.indptr[frontier] - ends + counts).repeat(counts)
        heads = self.indices[arcs]
        # one index array gathers all three: cheaper than three boolean masks
        fresh = (dist[heads] < 0).nonzero()[0]
        heads, tails, arcs = heads[fresh], frontier.repeat(counts)[fresh], arcs[fresh]
        arc = np.arange(heads.size)
        first = np.empty(len(dist), dtype=np.intp)
        first[heads] = heads.size
        np.minimum.at(first, heads, arc)
        return heads, tails, arcs, heads[first[heads] == arc]


class ChannelGraph:
    """Undirected simple graph with integer per-edge capacities.

    Node ids are dense in ``[0, n)``; every edge is stored once as
    ``(u, v, capacity)`` with ``u < v``.  Instances are immutable after
    construction and safe to share read-only across simulation workers.
    """

    __slots__ = ("node_count", "edge_u", "edge_v", "capacity", "edge_index",
                 "node_keys", "_csr")

    def __init__(self, node_count: int, edges, node_keys: list[str] | None = None):
        if node_count < 2:
            raise ValueError(f"need at least 2 nodes, got {node_count}")
        self.node_count = node_count
        self.edge_u: list[int] = []
        self.edge_v: list[int] = []
        self.capacity: list[int] = []
        self.edge_index: dict[tuple[int, int], int] = {}
        edge_index = self.edge_index
        for u, v, cap in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u},{v}) outside node range [0,{node_count})")
            if cap < 1:
                raise ValueError(f"edge ({u},{v}) has nonpositive capacity {cap}")
            if u > v:
                u, v = v, u
            if (u, v) in edge_index:
                raise ValueError(f"parallel edge ({u},{v})")
            eid = len(self.edge_u)
            edge_index[(u, v)] = eid
            self.edge_u.append(u)
            self.edge_v.append(v)
            self.capacity.append(cap)
        self.node_keys = node_keys
        self._csr: Csr | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edge_u)

    def edge_id(self, a: int, b: int) -> int:
        return self.edge_index[(a, b) if a < b else (b, a)]

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edge_u[eid], self.edge_v[eid]

    def total_capacity(self) -> int:
        return sum(self.capacity)

    def degree(self, v: int) -> int:
        return int(self.csr.degree[v])

    @property
    def csr(self) -> Csr:
        """The adjacency as flat arrays, built on first use."""
        if self._csr is None:
            n, m = self.node_count, self.edge_count
            u = np.fromiter(self.edge_u, dtype=np.intp, count=m)
            v = np.fromiter(self.edge_v, dtype=np.intp, count=m)
            # arc 2e runs u -> v and arc 2e+1 runs v -> u; the keys are
            # distinct and sort by tail, then by edge id
            tails = np.stack([u, v], axis=1).ravel()
            heads = np.stack([v, u], axis=1).ravel()
            order = np.argsort(tails * (2 * m) + np.arange(2 * m))
            degree = np.bincount(tails, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(degree, out=indptr[1:])
            self._csr = Csr(indptr, heads[order], degree, order // 2)
        return self._csr

    def is_connected(self) -> bool:
        dist = np.full(self.node_count, -1, dtype=np.intp)
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            dist[frontier] = 0
            *_, frontier = self.csr.bfs_step(frontier, dist)
        return bool((dist == 0).all())

    def with_capacities(self, capacities: list[int]) -> "ChannelGraph":
        """Same topology, new per-edge capacities (used to apply plans)."""
        if len(capacities) != self.edge_count:
            raise ValueError("capacity list length != edge count")
        return ChannelGraph(
            self.node_count,
            zip(self.edge_u, self.edge_v, capacities),
            node_keys=self.node_keys,
        )


@dataclass
class BalanceState:
    """Per-run mutable balances: ``at_lo[e]`` is held by the smaller-id endpoint.

    The other side holds ``capacity[e] - at_lo[e]``, so capacity is conserved
    by construction.  Cheaply clonable; one instance per simulation worker.
    """

    graph: ChannelGraph
    at_lo: list[int]

    def pair(self, eid: int) -> tuple[int, int]:
        """(balance at smaller-id endpoint, balance at larger-id endpoint)."""
        lo = self.at_lo[eid]
        return lo, self.graph.capacity[eid] - lo

    def balance_at(self, eid: int, node: int) -> int:
        u, v = self.graph.endpoints(eid)
        if node == u:
            return self.at_lo[eid]
        if node == v:
            return self.graph.capacity[eid] - self.at_lo[eid]
        raise ValueError(f"node {node} is not an endpoint of edge {eid}")

    def b_min(self, eid: int) -> int:
        lo = self.at_lo[eid]
        return min(lo, self.graph.capacity[eid] - lo)

    def clone(self) -> "BalanceState":
        return BalanceState(self.graph, list(self.at_lo))


@dataclass
class SnapshotDocument:
    """Parsed channel-graph snapshot: node public keys plus raw channel records."""

    node_keys: list[str]
    channels: list[tuple[str, str, int]]


def make_clique(n: int, capacity: int) -> ChannelGraph:
    """Complete graph on n nodes, every edge with the same (even) capacity."""
    _check_capacity(capacity)
    if n < 2:
        raise ValueError(f"clique needs n >= 2, got {n}")
    edges = ((u, v, capacity) for u in range(n) for v in range(u + 1, n))
    return ChannelGraph(n, edges)


def make_ring(n: int, capacity: int) -> ChannelGraph:
    """Cycle graph on n nodes with uniform (even) capacity."""
    _check_capacity(capacity)
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    edges = [(i, i + 1, capacity) for i in range(n - 1)]
    edges.append((0, n - 1, capacity))
    return ChannelGraph(n, edges)


def _check_capacity(capacity: int) -> None:
    if capacity < 2 or capacity % 2 != 0:
        raise ValueError(f"capacity must be a positive even integer, got {capacity}")


def parse_snapshot(source) -> SnapshotDocument:
    """Parse an LND ``describegraph``-shaped document.

    Accepts a dict, a JSON string, or a path.  Expected shape: top-level
    ``nodes`` (objects with ``pub_key``) and ``edges`` (objects with
    ``node1_pub``, ``node2_pub``, and ``capacity`` as decimal string or int).
    Unknown fields are ignored.
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ValueError("snapshot document must have top-level 'nodes' and 'edges'")
    node_keys = []
    seen = set()
    for rec in doc["nodes"]:
        try:
            key = rec["pub_key"]
        except (TypeError, KeyError):
            raise ValueError(f"malformed node record: {rec!r}") from None
        if key in seen:
            continue
        seen.add(key)
        node_keys.append(key)
    channels = []
    for rec in doc["edges"]:
        try:
            k1, k2, cap = rec["node1_pub"], rec["node2_pub"], rec["capacity"]
        except (TypeError, KeyError):
            raise ValueError(f"malformed channel record: {rec!r}") from None
        try:
            cap_int = int(cap)
        except (TypeError, ValueError):
            raise ValueError(f"channel {k1}–{k2} has non-integer capacity {cap!r}") from None
        channels.append((k1, k2, cap_int))
    return SnapshotDocument(node_keys=node_keys, channels=channels)


def ingest_snapshot(doc: SnapshotDocument) -> ChannelGraph:
    """Build a simple ChannelGraph from a snapshot.

    Nodes are re-indexed densely in document order.  Parallel channels between
    the same endpoint pair are merged by summing capacities; self-loops are
    dropped with a warning.  The original-key ↔ dense-id map is kept on the
    returned graph (``node_keys``) so findings trace back to real nodes.
    """
    index = {key: i for i, key in enumerate(doc.node_keys)}
    merged: dict[tuple[int, int], int] = {}
    for k1, k2, cap in doc.channels:
        if k1 not in index or k2 not in index:
            missing = k1 if k1 not in index else k2
            raise ValueError(f"channel references unknown node key {missing!r}")
        if cap <= 0:
            raise ValueError(f"channel {k1}–{k2} has nonpositive capacity {cap}")
        u, v = index[k1], index[k2]
        if u == v:
            logger.warning("dropping self-loop channel on node %s", k1)
            continue
        if u > v:
            u, v = v, u
        merged[(u, v)] = merged.get((u, v), 0) + cap
    edges = ((u, v, cap) for (u, v), cap in merged.items())
    return ChannelGraph(len(doc.node_keys), edges, node_keys=list(doc.node_keys))


def giant_component(g: ChannelGraph) -> ChannelGraph:
    """Induced subgraph on the largest connected component, nodes re-indexed.

    Ties between equal-sized components break toward the one containing the
    smallest original node id.  Original ids map to new ids in ascending order.
    """
    indptr, indices = g.csr.indptr.tolist(), g.csr.indices.tolist()
    seen = [False] * g.node_count
    best: list[int] = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        comp = _component_of(indptr, indices, start, seen)
        if len(comp) > len(best):  # first-found wins ties: starts scan upward
            best = comp
    if len(best) < 2:
        raise ValueError("largest component is a single node; no channels to keep")
    best.sort()
    remap = {old: new for new, old in enumerate(best)}
    keep = set(best)
    edges = []
    for eid in range(g.edge_count):
        u, v = g.edge_u[eid], g.edge_v[eid]
        if u in keep and v in keep:
            edges.append((remap[u], remap[v], g.capacity[eid]))
    keys = [g.node_keys[old] for old in best] if g.node_keys is not None else None
    return ChannelGraph(len(best), edges, node_keys=keys)


def _component_of(indptr: list[int], indices: list[int], start: int,
                  seen: list[bool]) -> list[int]:
    comp = [start]
    seen[start] = True
    head = 0
    while head < len(comp):
        v = comp[head]
        head += 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                comp.append(w)
    return comp


def init_balances(g: ChannelGraph) -> BalanceState:
    """Perfectly balanced start: each side gets capacity/2.

    Odd capacities split floor/ceil with the floor going to the smaller node
    id, so the split is deterministic and reproducible.
    """
    return BalanceState(g, [cap // 2 for cap in g.capacity])


def write_edgelist(g: ChannelGraph, path) -> None:
    """Minimal text format: header ``n m``, then one ``u v capacity`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.node_count} {g.edge_count}\n")
        for eid in range(g.edge_count):
            fh.write(f"{g.edge_u[eid]} {g.edge_v[eid]} {g.capacity[eid]}\n")


def read_edgelist(path) -> ChannelGraph:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: first line must be 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: bad edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
    if len(edges) != m:
        raise ValueError(f"{path}: header claims {m} edges, found {len(edges)}")
    return ChannelGraph(n, edges)


def load_graph(path) -> ChannelGraph:
    """Load a graph file: ``.json`` snapshots (giant component) or edge lists."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        g = ingest_snapshot(parse_snapshot(p))
        return giant_component(g)
    return read_edgelist(p)
