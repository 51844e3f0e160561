"""The column snapshot load against the per-record loops in helpers.

``parse_snapshot`` reads each record field with one list comprehension,
``ingest_snapshot`` maps keys to ids and merges parallel channels in numpy,
and ``giant_component`` labels components by root hooking.  These tests pin
the three to ``helpers.oracle_load_snapshot``, the scalar loops they
replaced: equal node keys, the same edges in the same order, the same
self-loops dropped, and for a document with several faults the same first
error message.
"""

from __future__ import annotations

import json
import logging
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from pcnsim import giant_component, ingest_snapshot, parse_snapshot
from pcnsim.graph import _component_roots, load_graph

from helpers import adjacency_of, bfs_dist, oracle_load_snapshot, small_world_edges

KEYS = ["A", "B", "C", "D", "E", "F", "G", 7]  # an int is a key too
CAPACITIES = st.integers(1, 10 ** 6) | st.integers(1, 10 ** 6).map(str)


class _Dropped(logging.Handler):
    """Collects the node key of each self-loop warning."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.keys = []

    def emit(self, record):
        self.keys.append(record.args[0])


def _fields(g):
    return g.node_keys, g.edge_u.tolist(), g.edge_v.tolist(), g.capacity.tolist()


def _column_load(doc):
    """The giant component's fields, or the error message, and the dropped
    self-loops' keys."""
    dropped, logger = _Dropped(), logging.getLogger("pcnsim.graph")
    logger.addHandler(dropped)
    try:
        return _fields(giant_component(ingest_snapshot(parse_snapshot(doc)))), dropped.keys
    except ValueError as err:
        return str(err), dropped.keys
    finally:
        logger.removeHandler(dropped)


def _oracle_load(doc):
    dropped = []
    try:
        return _fields(oracle_load_snapshot(doc, dropped)), dropped
    except ValueError as err:
        return str(err), dropped


def _channel(k1, k2, capacity):
    return {"node1_pub": k1, "node2_pub": k2, "capacity": capacity}


@st.composite
def documents(draw):
    """Small documents: repeated node records, parallel channels either way
    round, self-loops, int and string capacities.  One pattern of channels
    repeats over consecutive blocks of keys, so components of equal size tie
    often, and a few channels more join keys anywhere."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=2, max_size=8, unique=True))
    records = draw(st.permutations(keys + draw(st.lists(st.sampled_from(keys), max_size=4))))
    width = draw(st.integers(2, max(2, len(keys) // 2)))
    pattern = draw(st.lists(st.lists(st.integers(0, width - 1), min_size=2, max_size=2,
                                     unique=True), min_size=1, max_size=6))
    ends = [(keys[i + a], keys[i + b]) for i in range(0, len(keys), width)
            for a, b in pattern if i + max(a, b) < len(keys)]
    ends += draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(keys)), max_size=3))
    return {"nodes": [{"pub_key": k, "alias": "x"} for k in records],
            "edges": [_channel(a, b, draw(CAPACITIES)) for a, b in draw(st.permutations(ends))]}


@settings(max_examples=300)
@given(doc=documents())
def test_column_load_matches_the_scalar_loops(doc):
    assert _column_load(doc) == _oracle_load(doc)


MALFORMED_NODES = [{"key": "A"}, {"pub_key": ["A"]}, {"pub_key": {"k": 1}}, "A", None, [1]]
MALFORMED_CHANNELS = [{"node1_pub": "A", "capacity": 5}, {"node1_pub": "A", "node2_pub": "B"},
                      _channel(["A"], "B", 5), _channel("A", {"k": 1}, "x"), "edge", None]
NON_INTEGERS = [12.5, 12.0, True, None, [12], "", "-", "12x", "1_000", " 12", "12 ", "+7",
                "١٢", "12\n34", "\n", "0x1f"]
NONPOSITIVE = [0, -5, "0", "-0", "-12", str(-2 ** 64), -2 ** 70]
PAST_INT64 = [2 ** 63, str(2 ** 64), 10 ** 30]
FAULTS = ["node", "channel", "non_integer", "unknown", "nonpositive", "past_int64", "merged"]


@st.composite
def faulty_documents(draw):
    """A small document with two to four faults of these kinds at random
    places: a malformed node or channel record, a non-integer, unknown-key
    or nonpositive channel, a capacity past int64, and parallel channels
    whose sum passes it."""
    doc = draw(documents())
    nodes, edges = doc["nodes"], doc["edges"]
    keys = [rec["pub_key"] for rec in nodes]
    pick = st.sampled_from(keys)
    # a node fault comes before every channel fault, so it is drawn less often
    fault = st.sampled_from(FAULTS[1:]) | st.sampled_from(FAULTS)
    for kind in draw(st.lists(fault, min_size=2, max_size=4)):
        if kind == "node":
            nodes.insert(draw(st.integers(0, len(nodes))),
                         draw(st.sampled_from(MALFORMED_NODES)))
            continue
        k1, k2 = draw(pick), draw(pick)
        if kind == "channel":
            new = [draw(st.sampled_from(MALFORMED_CHANNELS))]
        elif kind == "non_integer":
            new = [_channel(k1, k2, draw(st.sampled_from(NON_INTEGERS)))]
        elif kind == "unknown":
            new = [_channel(*draw(st.permutations([k1, "Z"])), draw(CAPACITIES))]
        elif kind == "nonpositive":
            new = [_channel(k1, k2, draw(st.sampled_from(NONPOSITIVE)))]
        elif kind == "past_int64":
            new = [_channel(k1, k2, draw(st.sampled_from(PAST_INT64)))]
        else:  # each below 2**62, together past 2**63 - 1
            new = [_channel(*draw(st.permutations([k1, k2])), 2 ** 62 - draw(st.integers(1, 9)))
                   for _ in range(draw(st.integers(3, 5)))]
        for rec in new:
            edges.insert(draw(st.integers(0, len(edges))), rec)
    return doc


@settings(max_examples=400)
@given(doc=faulty_documents())
def test_first_fault_of_several_is_the_scalar_loops_fault(doc):
    assert _column_load(doc) == _oracle_load(doc)


def test_small_world_load_matches_the_scalar_loops(tmp_path):
    rng = random.Random(26)
    n, tail = 2000, 6
    pairs = small_world_edges(rng, n, radius=3, rewire_prob=0.2)
    channels = [(u, v, rng.randrange(2, 10 ** 7)) for u, v in pairs]
    for u, v, _cap in rng.sample(channels, 40):  # parallels, either way round
        channels.append((v, u, rng.randrange(2, 10 ** 7)) if rng.random() < 0.5
                        else (u, v, rng.randrange(2, 10 ** 7)))
    channels.append((17, 17, 500))
    channels += [(n + i, n + i + 1, 300) for i in range(tail - 1)]  # a detached path
    rng.shuffle(channels)
    keys = [f"{rng.getrandbits(64):016x}" for _ in range(n + tail + 2)]  # two isolated
    order = list(range(len(keys)))
    rng.shuffle(order)
    doc = {"nodes": [{"pub_key": keys[i]} for i in order] + [{"pub_key": keys[5]}],
           "edges": [_channel(keys[u], keys[v], cap if i % 3 else str(cap))
                     for i, (u, v, cap) in enumerate(channels)]}
    got, want = _column_load(doc), _oracle_load(doc)
    assert got == want and want[1] == [keys[17]]
    assert len(want[0][0]) == n and len(want[0][1]) == len(pairs)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(doc))
    assert _fields(load_graph(path)) == want[0]


def _oracle_roots(n, edges):
    adj = adjacency_of([(u, v, 1) for u, v in edges], n)
    roots = [-1] * n
    for start in range(n):
        if roots[start] < 0:
            for w in bfs_dist(adj, start):
                roots[w] = start
    return roots


def _roots(n, edges):
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return _component_roots(n, pairs[:, 0], pairs[:, 1]).tolist()


@settings(max_examples=200)
@given(n=st.integers(1, 30), data=st.data())
def test_component_roots_are_each_components_smallest_id(n, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    assert _roots(n, edges) == _oracle_roots(n, edges)


def test_component_roots_on_paths_and_stars_of_every_labelling():
    n = 3000
    rng = random.Random(1)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    zigzag = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    for labels in (list(range(n)), list(range(n))[::-1], shuffled, zigzag):
        path = list(zip(labels, labels[1:]))
        assert _roots(n, path) == [0] * n
        halves = path[:n // 2 - 1] + path[n // 2:]  # two paths
        assert _roots(n, halves) == _oracle_roots(n, halves)
    for center in (0, n - 1):
        star = [(center, w) for w in range(n) if w != center]
        assert _roots(n, star) == [0] * n
