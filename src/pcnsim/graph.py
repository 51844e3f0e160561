"""Channel-graph data model, synthetic topologies, snapshot ingestion."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

_MAX_NODES = 3_037_000_499  # the largest n with n * n below 2**63


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

    Node ids are dense in ``[0, n)``; edge e joins ``edge_u[e] < edge_v[e]``
    and has ``capacity[e]``, three read-only int64 arrays.  ``edges`` is an
    iterable of ``(u, v, capacity)`` triples or an ``(m, 3)`` integer array.
    Instances are immutable after construction and safe to share read-only
    across simulation workers.
    """

    __slots__ = ("node_count", "edge_u", "edge_v", "capacity", "node_keys", "_csr",
                 "_csr_lists", "_connected")

    def __init__(self, node_count: int, edges, node_keys: list[str] | None = None):
        # a node pair keys as u * n + v below, which must stay inside int64
        if not 2 <= node_count <= _MAX_NODES:
            raise ValueError(f"need between 2 and {_MAX_NODES} nodes, got {node_count}")
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            table = np.asarray(rows, dtype=np.int64)
        except OverflowError:
            raise ValueError("an edge endpoint or capacity lies outside int64") from None
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError("edges must be (u, v, capacity) triples")
        # int64 conversion would truncate 4.5 to 4 and read True as 1
        kinds = ({rows.dtype.type} if isinstance(rows, np.ndarray)
                 else set(map(type, chain.from_iterable(rows))))
        for kind in kinds:
            if issubclass(kind, (bool, np.bool_, float, np.floating)):
                raise ValueError(f"edge values must be integers, got {kind.__name__}")
        u, v, cap = table.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _reject("self-loop on node {0}", u == v, u)
        _reject(f"edge ({{0}},{{1}}) outside node range [0,{node_count})",
                (lo < 0) | (hi >= node_count), u, v)
        _reject("edge ({0},{1}) has nonpositive capacity {2}", cap < 1, u, v, cap)
        keys = np.sort(lo * node_count + hi)
        twice = (keys[1:] == keys[:-1]).nonzero()[0]
        if twice.size:
            raise ValueError("parallel edge ({},{})".format(*divmod(int(keys[twice[0]]),
                                                                   node_count)))
        self.node_count = node_count
        self.edge_u, self.edge_v, self.capacity = lo, hi, cap.copy()
        for column in (lo, hi, self.capacity):
            column.flags.writeable = False
        self.node_keys = node_keys
        self._csr: Csr | None = None
        self._csr_lists: tuple[list[int], list[int]] | None = None
        self._connected: bool | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edge_u)

    def edge_id(self, a: int, b: int) -> int:
        """Id of the edge joining a and b; KeyError if there is none."""
        csr = self.csr
        if 0 <= a < self.node_count:
            start = csr.indptr[a]
            hit = (csr.indices[start:csr.indptr[a + 1]] == b).nonzero()[0]
            if hit.size:
                return int(csr.arc_edge[start + hit[0]])
        raise KeyError((a, b))

    def total_capacity(self) -> int:
        return sum(self.capacity.tolist())

    def degree(self, v: int) -> int:
        return int(self.csr.degree[v])

    @property
    def csr(self) -> Csr:
        """The adjacency as flat arrays, built on first use."""
        if self._csr is None:
            n, m = self.node_count, self.edge_count
            # arc 2e runs u -> v and arc 2e+1 runs v -> u; the keys are
            # distinct and sort by tail, then by edge id
            tails = np.stack([self.edge_u, self.edge_v], axis=1).ravel()
            heads = np.stack([self.edge_v, self.edge_u], axis=1).ravel()
            order = np.argsort(tails * (2 * m) + np.arange(2 * m))
            degree = np.bincount(tails, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(degree, out=indptr[1:])
            self._csr = Csr(indptr, heads[order], degree, order // 2)
        return self._csr

    @property
    def csr_lists(self) -> tuple[list[int], list[int]]:
        """``csr.indptr`` and ``csr.indices`` as Python lists, built on first
        use: a search that visits a few hundred nodes runs faster over them
        than through numpy calls.  They take about 4 MB for 45k edges."""
        if self._csr_lists is None:
            self._csr_lists = (self.csr.indptr.tolist(), self.csr.indices.tolist())
        return self._csr_lists

    def is_connected(self) -> bool:
        """Whether every node reaches node 0; found by one BFS on first call."""
        if self._connected is None:
            dist = np.full(self.node_count, -1, dtype=np.intp)
            frontier = np.zeros(1, dtype=np.intp)
            while frontier.size:
                dist[frontier] = 0
                *_, frontier = self.csr.bfs_step(frontier, dist)
            self._connected = bool((dist == 0).all())
        return self._connected

    def with_capacities(self, capacities) -> "ChannelGraph":
        """Same topology, new per-edge capacities (used to apply plans)."""
        if len(capacities) != self.edge_count:
            raise ValueError("capacity list length != edge count")
        return ChannelGraph(self.node_count,
                            np.column_stack([self.edge_u, self.edge_v, capacities]),
                            node_keys=self.node_keys)


def _reject(message: str, bad: np.ndarray, *columns: np.ndarray) -> None:
    """ValueError naming the first edge that ``bad`` flags, if any."""
    if bad.any():
        first = int(bad.argmax())
        raise ValueError(message.format(*(int(c[first]) for c in columns)))


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
    u, v = np.triu_indices(n, 1)
    return ChannelGraph(n, np.column_stack([u, v, np.full(len(u), capacity)]))


def make_ring(n: int, capacity: int) -> ChannelGraph:
    """Cycle graph on n nodes with uniform (even) capacity."""
    _check_capacity(capacity)
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    # edge i joins i and i + 1; the last one joins 0 and n - 1
    u = np.append(np.arange(n - 1), 0)
    v = np.append(np.arange(1, n), n - 1)
    return ChannelGraph(n, np.column_stack([u, v, np.full(n, capacity)]))


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
            if type(cap) not in (int, str):  # int() would take true as 1 and 12.7 as 12
                raise TypeError
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
    edges = [(u, v, cap) for (u, v), cap in merged.items()]
    return ChannelGraph(len(doc.node_keys), edges, node_keys=list(doc.node_keys))


def giant_component(g: ChannelGraph) -> ChannelGraph:
    """Induced subgraph on the largest connected component, nodes re-indexed.

    Ties between equal-sized components break toward the one containing the
    smallest original node id.  Original ids map to new ids in ascending order.
    """
    indptr, indices = g.csr_lists
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
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[best] = np.arange(len(best))
    # an edge's ends share a component, so checking one end is enough
    keep = remap[g.edge_u] >= 0
    edges = np.column_stack([remap[g.edge_u[keep]], remap[g.edge_v[keep]], g.capacity[keep]])
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


def write_edgelist(g: ChannelGraph, path) -> None:
    """Minimal text format: header ``n m``, then one ``u v capacity`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.node_count} {g.edge_count}\n")
        for u, v, cap in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.capacity.tolist()):
            fh.write(f"{u} {v} {cap}\n")


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
