"""Channel-graph data model, synthetic topologies, snapshot ingestion."""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

_MAX_NODES = 3_037_000_499  # the largest n with n * n below 2**63
_INT64_MAX = 2 ** 63 - 1
_DECIMAL = re.compile("-?[0-9]+")  # a snapshot's capacity string
_DECIMALS = re.compile("-?[0-9]+(?:\n-?[0-9]+)*")  # several, one to a line
_PIECE = 1 << 20  # characters of a snapshot file read and parsed at a time
_MISSES = 2  # failed cuts after which a piece is left to json.load
_WS = re.compile("[ \t\n\r]*")  # JSON's whitespace
# a record's end, the next one's "{" and the whitespace up to its first key,
# within _CUT_SPAN characters; more whitespace only makes a piece longer
_CUT = re.compile("}[ \t\n\r]*,[ \t\n\r]*({)[ \t\n\r]*\\Z")
_CUT_SPAN = 256
# an array's "[" and its "]" or its first record's "{" and first key, and a
# text that may yet grow into them
_HEAD = re.compile('\\[[ \t\n\r]*(?:]|{[ \t\n\r]*("(?:[^"\\\\]|\\\\.)*"))')
_HEAD_START = re.compile('\\[[ \t\n\r]*(?:{[ \t\n\r]*(?:"(?:[^"\\\\]|\\\\.)*\\\\?)?)?')


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

    def copies(self, b: int) -> "Csr":
        """The disjoint union of b copies of this graph, itself a Csr.

        Row j·n + v is row v with every neighbour shifted by j·n, and its
        arcs run along edges j·m + e, where row v's run along e: for one
        search per copy, an arc's edge is its flat index into a (b, m) array.
        """
        n, arcs = len(self.degree), len(self.indices)
        shift = np.arange(b)[:, None]
        indptr = np.append((self.indptr[:-1] + shift * arcs).ravel(), b * arcs)
        return Csr(indptr, (self.indices + shift * n).ravel(), np.tile(self.degree, b),
                   (self.arc_edge + shift * (arcs // 2)).ravel())

    def bfs_step(self, frontier: np.ndarray, dist: np.ndarray):
        """One BFS level from a non-empty ``frontier`` of rows, with ``dist``
        holding each row's depth and -1 where unvisited: the rows it reaches,
        and the whole scan, every arc out of the frontier, as ``(arc
        positions, heads, dist of the heads)``.

        The scan runs row by row in frontier order, the order a deque BFS
        scans arcs when it pops the frontier in that order, and the reached
        rows come in the order that BFS appends them to its queue: by first
        occurrence among the heads of negative ``dist``.  On ``copies(b)``
        one step expands a level of b searches, one in each copy.
        """
        # a BFS runs one level per hop of its depth, so each call is kept to
        # few small numpy operations
        counts = self.degree[frontier]
        ends = np.add.accumulate(counts)
        arcs = np.arange(ends[-1]) + (self.indptr[frontier] - ends + counts).repeat(counts)
        heads = self.indices[arcs]
        near = dist[heads]
        # an index array gathers them at half the cost of a boolean mask
        fresh = heads[(near < 0).nonzero()[0]]
        arc = np.arange(fresh.size)
        first = np.empty(len(dist), dtype=np.intp)
        first[fresh] = fresh.size
        np.minimum.at(first, fresh, arc)
        return fresh[first[fresh] == arc], (arcs, heads, near)


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
        self._csr_lists: tuple[list[int], list[int], list[int]] | None = None
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
    def csr_lists(self) -> tuple[list[int], list[int], list[int]]:
        """``csr.indptr``, ``csr.indices`` and ``csr.degree`` as Python
        lists, built on first use: a search that visits a few hundred nodes
        runs faster over them than through numpy calls.  They take about
        4 MB for 45k edges."""
        if self._csr_lists is None:
            csr = self.csr
            self._csr_lists = (csr.indptr.tolist(), csr.indices.tolist(), csr.degree.tolist())
        return self._csr_lists

    def hops(self, source: int) -> list[int]:
        """Hops from source to every node, -1 where it does not reach: one
        level-synchronous BFS on ``Csr.bfs_step``, which counts no paths."""
        n = self.node_count
        if not 0 <= source < n:
            raise ValueError(f"source {source} outside [0,{n})")
        dist = np.full(n, -1, dtype=np.intp)
        dist[source] = 0
        frontier = np.array([source], dtype=np.intp)
        step = self.csr.bfs_step
        depth = 0
        while frontier.size:
            frontier, _ = step(frontier, dist)
            depth += 1
            dist[frontier] = depth
        return dist.tolist()

    def is_connected(self) -> bool:
        """Whether every node reaches node 0; found by one hop row
        (``hops(0)``) on first call."""
        if self._connected is None:
            self._connected = -1 not in self.hops(0)
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
    """Parsed channel-graph snapshot, in columns: the distinct node public
    keys in document order, and one entry per channel record in
    ``node1``, ``node2`` (its endpoint keys) and ``capacity`` (an int)."""

    node_keys: list
    node1: list
    node2: list
    capacity: list[int]


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
    """Parse an LND ``describegraph``-shaped document into columns.

    Accepts a dict or a path (a ``str`` or any ``os.PathLike``).  Expected
    shape: top-level ``nodes`` (objects with ``pub_key``) and ``edges``
    (objects with ``node1_pub``, ``node2_pub``, and ``capacity`` as int or a
    string of ASCII decimal digits, with an optional leading minus).  Unknown
    fields are ignored; a repeated node record is kept once.  A faulty
    document raises the ValueError of its first faulty record, in document
    order, nodes before channels.

    A file is read in pieces of about ``_PIECE`` characters by ``_Reader``,
    and each record shrinks to the fields read here as it is parsed, so
    neither the whole text nor a dict per record is held.  A document
    outside that plain shape, faulty ones among them, is parsed whole by
    ``json.load`` and read as a dict is: each field by one list
    comprehension, and every capacity string by one regex pass.  A document
    nested deeper than the JSON decoder follows raises a ValueError too.
    """
    if not isinstance(source, (str, os.PathLike)):
        return _parse_document(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                return _Reader(fh).document()
            except _Whole:
                fh.seek(0)
                doc = json.load(fh)
        return _parse_document(doc)
    except RecursionError:
        raise ValueError("snapshot is nested deeper than the JSON decoder follows") from None


def _parse_document(doc) -> SnapshotDocument:
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ValueError("snapshot document must have top-level 'nodes' and 'edges'")
    nodes, channels = doc["nodes"], doc["edges"]
    if not isinstance(nodes, list) or not isinstance(channels, list):
        raise ValueError("snapshot 'nodes' and 'edges' must be lists")
    try:
        node_keys = _node_keys(nodes)
    except (TypeError, KeyError):
        rec = nodes[_first_malformed(_node_keys, nodes)]
        raise ValueError(f"malformed node record: {rec!r}") from None
    # the records before the first malformed one are read, and a bad
    # capacity among them comes first
    good = len(channels)
    try:
        node1, node2, capacity = _channel_columns(channels)
    except (TypeError, KeyError):
        good = _first_malformed(_channel_columns, channels)
        node1, node2, capacity = _channel_columns(channels[:good])
    bad = _first_non_integer(capacity)
    if bad is not None:
        raise ValueError(f"channel {node1[bad]}–{node2[bad]} has non-integer capacity "
                         f"{capacity[bad]!r}")
    if good < len(channels):
        raise ValueError(f"malformed channel record: {channels[good]!r}")
    return SnapshotDocument(node_keys, node1, node2, list(map(int, capacity)))


class _Whole(Exception):
    """A document ``_Reader`` does not take, left to ``json.load``."""


class _Shrunk:
    """The last item of each record ``_shrink`` returns.  It makes the tuple
    unhashable, as the dict it replaces is, so that a record nested where a
    key belongs is no key; a tuple subclass would cost four times as much
    to build."""

    __slots__ = ()
    __hash__ = None


_SHRUNK = _Shrunk()


def _shrink(obj: dict):
    """The object hook of a piece's decoder: a channel record becomes
    ``(node1_pub, node2_pub, capacity, _SHRUNK)`` and any other object with
    a ``pub_key`` becomes ``(pub_key, _SHRUNK)`` as soon as it is parsed;
    other objects stay."""
    if "node1_pub" in obj and "node2_pub" in obj and "capacity" in obj:
        return obj["node1_pub"], obj["node2_pub"], obj["capacity"], _SHRUNK
    if "pub_key" in obj:
        return obj["pub_key"], _SHRUNK
    return obj


class _Reader:
    """Reads a snapshot file a piece at a time: the open text file, a buffer
    of what is read and not yet parsed, and a position in it.

    ``document`` walks the top-level object by hand and decodes each key,
    and each value but ``nodes`` and ``edges``, with ``raw_decode``.  The two
    arrays go in pieces: a piece runs from the current record to the last
    cut in the buffer, a ``}`` followed by ``,``, ``{`` and the first key of
    the array's first record as it is written (whitespace between), and
    ``piece + "]"``, from a ``[``, is decoded through ``_shrink``.  Cutting
    only before that key passes over the ``}, {`` between nested objects,
    such as the addresses of an LND node.  A cut inside a record leaves an
    object or a string open, so its decode fails and the previous cut is
    tried; a decode that stops before the appended ``]`` has met the array's
    own.  Where no cut fits, more is read, so a record longer than a piece
    loads too; once the whole file is read, the rest of an array is one
    piece.  ``_Whole`` is raised for any document whose result or error the
    dict path must give: invalid JSON, a BOM or trailing data, a repeated
    top-level key, ``nodes`` or ``edges`` not an array, a record the hook
    did not shrink or shrank for the other array, an unhashable key, a
    capacity neither an int nor a decimal string, and a piece whose cuts
    failed ``_MISSES`` times.
    """

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.eof = fh, "", 0, False

    def more(self, size: int) -> None:
        """Read up to ``size`` characters more, dropping the text before pos."""
        try:
            text = self.fh.read(size)
        except UnicodeDecodeError:  # json.load names the offset in the whole file
            raise _Whole from None
        self.eof = len(text) < size  # a text file reads short only at its end
        self.buf, self.pos = self.buf[self.pos:] + text, 0

    def char(self) -> str:
        """The next character that is not whitespace, where pos is left, or
        "" at the end of the file."""
        while True:
            self.pos = _WS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.more(_PIECE)

    def expect(self, char: str) -> None:
        if self.char() != char:
            raise _Whole
        self.pos += 1

    def value(self, decoder: json.JSONDecoder):
        """The value at pos, which is left after it; the read doubles while
        the value does not fit in the buffer."""
        size = _PIECE
        while True:
            try:
                value, end = decoder.raw_decode(self.buf, self.pos)
                # a number that ends with the buffer may go on in the file
                if end < len(self.buf) or self.eof:
                    self.pos = end
                    return value
            except ValueError:
                if self.eof:
                    raise _Whole from None
            self.more(size)
            size *= 2

    def head(self) -> str | None:
        """The first key, as written, of the first record of the array whose
        ``[`` is at pos; None, with pos left after the array, if it is empty."""
        size = _PIECE
        while not (head := _HEAD.match(self.buf, self.pos)):
            if self.eof or not _HEAD_START.fullmatch(self.buf, self.pos):
                raise _Whole
            self.more(size)
            size *= 2
        if head.group(1) is None:
            self.pos = head.end()
        return head.group(1)

    def cuts(self, head: str):
        """The cuts after pos before each record whose first key is written
        ``head``, last first: matches of ``_CUT`` whose group is the next
        record's ``{``."""
        end = len(self.buf)
        while (end := self.buf.rfind(head, self.pos, end)) >= 0:
            cut = _CUT.search(self.buf, max(self.pos, end - _CUT_SPAN), end)
            if cut:
                yield cut

    def pieces(self, decoder: json.JSONDecoder):
        """The records of the array whose ``[`` is at pos, a list to each
        piece, decoded by ``decoder``; pos is left after the array.

        Each piece is decoded from a ``[`` at pos: the array's own, and
        after a cut, one written in place of the ``,`` before the record."""
        head = self.head()
        if head is None:
            return
        size, misses = _PIECE, 0
        while True:
            text, start = self.buf, self.pos
            # once the whole file is read, the rest of the array is one piece
            for cut in () if self.eof else self.cuts(head):
                piece = text[start:cut.start() + 1] + "]"
                try:
                    records, end = decoder.raw_decode(piece)
                except ValueError:
                    misses += 1
                    if misses == _MISSES:
                        raise _Whole from None
                    continue
                if end < len(piece):
                    self.pos = start + end
                    yield records
                    return
                yield records
                self.buf, self.pos = "[" + text[cut.start(1):], 0
                size, misses = _PIECE, 0
                break
            else:
                # no cut fits: the array may end in the buffer, or read on
                try:
                    records, self.pos = decoder.raw_decode(text, start)
                except ValueError:
                    if self.eof:
                        raise _Whole from None
                else:
                    yield records
                    return
                self.more(size)
                size *= 2
                continue
            self.more(_PIECE)

    def document(self) -> SnapshotDocument:
        """The columns of the whole document; ``_Whole`` where the dict path
        must read it."""
        plain, shrinking = json.JSONDecoder(), json.JSONDecoder(object_hook=_shrink)
        node_keys, node1, node2, capacity = [], [], [], []
        seen = set()
        self.expect("{")
        if self.char() != "}":
            while True:
                if self.char() != '"':
                    raise _Whole
                key = self.value(plain)
                if key in seen:
                    raise _Whole
                seen.add(key)
                self.expect(":")
                if key == "nodes" or key == "edges":
                    if self.char() != "[":
                        raise _Whole
                    width = 2 if key == "nodes" else 4
                    for records in self.pieces(shrinking):
                        if (set(map(type, records)) != {tuple}
                                or set(map(len, records)) != {width}):
                            raise _Whole
                        if width == 2:
                            keys, _ = zip(*records)
                            node_keys += _hashable(keys)
                        else:
                            ends1, ends2, caps, _ = zip(*records)
                            if _first_non_integer(caps) is not None:
                                raise _Whole
                            node1 += _hashable(ends1)
                            node2 += _hashable(ends2)
                            capacity += caps
                else:
                    self.char()
                    self.value(plain)
                if self.char() != ",":
                    break
                self.pos += 1
        self.expect("}")
        if self.char() or "nodes" not in seen or "edges" not in seen:
            raise _Whole
        return SnapshotDocument(list(dict.fromkeys(node_keys)), node1, node2,
                                list(map(int, capacity)))


def _hashable(keys):
    """``keys``, if each of them is hashable; else ``_Whole``."""
    try:
        hash(tuple(keys))
    except TypeError:
        raise _Whole from None
    return keys


def _node_keys(records: list) -> list:
    """The distinct ``pub_key`` values of node records, first seen first."""
    return list(dict.fromkeys([rec["pub_key"] for rec in records]))


def _channel_columns(records: list) -> tuple[list, list, list]:
    node1 = [rec["node1_pub"] for rec in records]
    node2 = [rec["node2_pub"] for rec in records]
    capacity = [rec["capacity"] for rec in records]
    hash(tuple(node1))  # a list or an object is no key
    hash(tuple(node2))
    return node1, node2, capacity


def _first_malformed(read, records: list) -> int:
    """Index of the first record that ``read`` refuses on its own, by
    TypeError or KeyError: the one that made ``read(records)`` raise."""
    for i, rec in enumerate(records):
        try:
            read([rec])
        except (TypeError, KeyError):
            return i


def _first_non_integer(capacity: list) -> int | None:
    """Index of the first capacity that is neither an int nor a string of
    ASCII decimal digits with an optional leading minus; None if all are.

    int() would take true as 1, 12.7 as 12, and "1_000", " 12 ", "+7" or
    non-ASCII digits.
    """
    kinds = set(map(type, capacity))
    if kinds <= {int, str}:
        strings = capacity if int not in kinds else [c for c in capacity if type(c) is str]
        # one pass over the strings joined by newlines, which none may hold
        text = "\n".join(strings)
        if not strings or (_DECIMALS.fullmatch(text)
                           and text.count("\n") == len(strings) - 1):
            return None
    return next(i for i, cap in enumerate(capacity)
                if not (type(cap) is int or type(cap) is str and _DECIMAL.fullmatch(cap)))


def ingest_snapshot(doc: SnapshotDocument) -> ChannelGraph:
    """Build a simple ChannelGraph from a snapshot.

    Nodes are re-indexed densely in document order.  Parallel channels between
    the same endpoint pair are merged by summing capacities, and the merged
    edges keep the order of each pair's first channel; self-loops are dropped
    with a warning.  The original-key ↔ dense-id map is kept on the returned
    graph (``node_keys``) so findings trace back to real nodes.

    Keys become ids through one ``np.fromiter`` over the index, and one
    ``np.unique`` on ``lo·n + hi`` groups the channels of a pair.  The
    channels are checked in document order, the first fault raising: an
    unknown key, then a nonpositive capacity.  A merged capacity past int64
    raises too.
    """
    n, m = len(doc.node_keys), len(doc.node1)
    index = dict(zip(doc.node_keys, range(n)))
    u = np.fromiter(map(index.get, doc.node1, repeat(-1)), dtype=np.int64, count=m)
    v = np.fromiter(map(index.get, doc.node2, repeat(-1)), dtype=np.int64, count=m)
    try:
        cap = np.array(doc.capacity, dtype=np.int64)
    except OverflowError:  # kept exact: a sign check or ChannelGraph refuses it
        cap = np.array(doc.capacity, dtype=object)
    fault = (u < 0) | (v < 0) | (cap <= 0)
    first = int(fault.argmax()) if fault.any() else m
    for i in (u[:first] == v[:first]).nonzero()[0].tolist():
        logger.warning("dropping self-loop channel on node %s", doc.node1[i])
    if first < m:
        k1, k2 = doc.node1[first], doc.node2[first]
        if u[first] < 0 or v[first] < 0:
            missing = k1 if u[first] < 0 else k2
            raise ValueError(f"channel references unknown node key {missing!r}")
        raise ValueError(f"channel {k1}–{k2} has nonpositive capacity {doc.capacity[first]}")
    keep = u != v
    lo, hi, cap = np.minimum(u, v)[keep], np.maximum(u, v)[keep], cap[keep]
    pairs, pair = np.unique(lo * n + hi, return_inverse=True)
    # each pair's first channel, in document order: a stable sort inside
    # np.unique (return_index) costs about three times as much
    head = np.full(pairs.size, pair.size)
    np.minimum.at(head, pair, np.arange(pair.size))
    head.sort()
    # np.add.at wraps around past int64: where a pair's sum could pass it, the
    # sums are taken exact, and ChannelGraph refuses one that does
    if cap.size and int(cap.max()) * int(np.bincount(pair).max()) > _INT64_MAX:
        cap = cap.astype(object)
    total = np.zeros(pairs.size, dtype=cap.dtype)
    np.add.at(total, pair, cap)
    return ChannelGraph(n, np.column_stack([lo[head], hi[head], total[pair[head]]]),
                        node_keys=list(doc.node_keys))


def giant_component(g: ChannelGraph) -> ChannelGraph:
    """Induced subgraph on the largest connected component, nodes re-indexed.

    Ties between equal-sized components break toward the one containing the
    smallest original node id.  Original ids map to new ids in ascending
    order, and the kept edges keep their order.  Components come from
    ``_component_roots``, on the edge arrays alone.
    """
    n = g.node_count
    root = _component_roots(n, g.edge_u, g.edge_v)
    size = np.bincount(root, minlength=n)
    # a root is the smallest id of its component, so the first largest wins ties
    best = int(size.argmax())
    if size[best] < 2:
        raise ValueError("largest component is a single node; no channels to keep")
    nodes = (root == best).nonzero()[0]
    remap = np.full(n, -1, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    # an edge's ends share a component, so checking one end is enough
    keep = remap[g.edge_u] >= 0
    edges = np.column_stack([remap[g.edge_u[keep]], remap[g.edge_v[keep]], g.capacity[keep]])
    keys = [g.node_keys[old] for old in nodes.tolist()] if g.node_keys is not None else None
    return ChannelGraph(nodes.size, edges, node_keys=keys)


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each node's component, named by its smallest node id.

    Shiloach–Vishkin hooking (J. Algorithms 1982; FastSV, SIAM PP 2020):
    every node points at a smaller-or-equal id, and each round hooks every
    root onto the smallest root across its edges (``np.minimum.at``), if
    smaller, then jumps pointers until every node points at its root.
    Edges inside one tree are dropped; the rounds end when none is left.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        apart = (ru != rv).nonzero()[0]
        if not apart.size:
            return root
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(root, ru, rv)
        np.minimum.at(root, rv, ru)
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


def write_edgelist(g: ChannelGraph, path) -> None:
    """Minimal text format: header ``n m``, then one ``u v capacity`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.node_count} {g.edge_count}\n")
        for u, v, cap in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.capacity.tolist()):
            fh.write(f"{u} {v} {cap}\n")


def read_edgelist(path) -> ChannelGraph:
    """Read the format ``write_edgelist`` writes.  Blank lines and lines
    starting with ``#`` are skipped, before the header as after it."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    try:
        n, m = map(int, lines[0].split())
    except (IndexError, ValueError):
        raise ValueError(f"{path}: first line must be 'n m'") from None
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
    if len(edges) != m:
        raise ValueError(f"{path}: header claims {m} edges, found {len(edges)}")
    return ChannelGraph(n, edges)


def load_graph(path) -> ChannelGraph:
    """Load a graph file: ``.json`` snapshots, through ``parse_snapshot``,
    ``ingest_snapshot`` and ``giant_component``, or edge lists."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        g = ingest_snapshot(parse_snapshot(p))
        return giant_component(g)
    return read_edgelist(p)
