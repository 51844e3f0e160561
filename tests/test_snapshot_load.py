"""The column snapshot load against the per-record loops in helpers, and a
snapshot file read in pieces against the same document parsed whole.

``parse_snapshot`` reads a dict's record fields with one list comprehension
each, ``ingest_snapshot`` maps keys to ids and merges parallel channels in
numpy, and ``giant_component`` labels components by root hooking.  These
tests pin the three to ``helpers.oracle_load_snapshot``, the scalar loops
they replaced: equal node keys, the same edges in the same order, the same
self-loops dropped, and for a document with several faults the same first
error message.  A file goes through ``graph._Reader`` a piece at a time,
and must give what ``json.load`` and the dict path give.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import os
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim import giant_component, graph, ingest_snapshot, parse_snapshot
from pcnsim.graph import _component_roots, load_graph

from helpers import (adjacency_of, bfs_dist, lnd_decorated, oracle_load_snapshot,
                     small_world_edges)

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


# --- a snapshot file read in pieces ---------------------------------------

PIECES = [1, 7, 64, 4096]


class _Obj(list):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


class _Raw(str):
    """JSON text written as it is: a number past ``int``'s 4300 digits."""


def _render(value, sep, colon):
    """``value`` as JSON text, with ``sep`` between items and ``colon``
    between a key and its value."""
    if isinstance(value, _Raw):
        return value
    if isinstance(value, _Obj):
        return "{" + sep.join(json.dumps(k) + colon + _render(v, sep, colon)
                              for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + sep.join(_render(v, sep, colon) for v in value) + "]"
    return json.dumps(value)


def _outcome(parse):
    """A parse's document, or the text of its ValueError."""
    try:
        return parse()
    except ValueError as err:
        return f"ValueError: {err}"


def _file_matches_whole(path, piece):
    """``parse_snapshot(path)`` at ``_PIECE = piece`` gives what the dict
    path gives on ``json.load`` of the file; whether it called json.load."""
    with open(path, encoding="utf-8") as fh:
        want = _outcome(lambda: parse_snapshot(json.load(fh)))
    with mock.patch.object(graph, "_PIECE", piece), \
            mock.patch.object(json, "load", wraps=json.load) as whole:
        got = _outcome(lambda: parse_snapshot(path))
    assert got == want
    return whole.called


SEPARATORS = [(",", ":"), (", ", ": "), (",\n  ", ": "), (" ,\t\r\n", " :\n")]
FIELD_KEYS = ["A", "B", "C", 7, "}, {", 'q"uo\\\\te', '"pub_key": "A"}, {"pub_key"']
ALIASES = ["x", "}, {", '}, {"pub_key": "Z"}, {', 'say "hi"', "\\\\", "}]}, {["]
ODD_CAPACITIES = [12.5, True, False, None, "12x", "-5", 0, 2 ** 70, _Raw("7" * 5000),
                  "7" * 5000]
GOOD_NODES = ["plain", "lnd", "repeated", "peers", "channel_inside"]
GOOD_CHANNELS = ["plain", "lnd", "repeated", "policy_record"]


@st.composite
def _node_records(draw, key, odd):
    kind = draw(st.sampled_from(GOOD_NODES + odd * [
        "also_channel", "keyed", "list", "number", "missing"]))
    if kind == "plain":
        return _Obj([("pub_key", key)])
    if kind == "lnd":
        return _Obj([("last_update", draw(st.integers(0, 9))), ("pub_key", key),
                     ("alias", draw(st.sampled_from(ALIASES))),
                     ("addresses", [_Obj([("network", "tcp"), ("addr", "1.2.3.4:9735")]),
                                    _Obj([("network", "tor"), ("addr", "}, {")])]),
                     ("features", _Obj([("0", _Obj([("name", "a"), ("is_known", True)])),
                                        ("5", _Obj([("name", "}, {")]))]))])
    if kind == "repeated":  # the last value of a repeated key is the one read
        return _Obj([("pub_key", "first"), ("alias", "x"), ("pub_key", key)])
    if kind == "peers":  # record-shaped objects as field values
        return _Obj([("pub_key", key), ("peers", [_Obj([("pub_key", "P")]),
                                                  _Obj([("pub_key", "Q")])])])
    if kind == "channel_inside":
        return _Obj([("pub_key", key), ("chan", _Obj([("node1_pub", "A"), ("node2_pub", "B"),
                                                      ("capacity", 5)]))])
    if kind == "also_channel":
        return _Obj([("pub_key", key), ("node1_pub", "A"), ("node2_pub", "B"),
                     ("capacity", 5)])
    if kind == "keyed":  # a record where a key belongs
        return _Obj([("pub_key", _Obj([("pub_key", key)]))])
    return {"list": [key], "number": 5, "missing": _Obj([("alias", key)])}[kind]


@st.composite
def _channel_records(draw, keys, odd):
    k1, k2 = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
    cap = draw(st.integers(1, 10 ** 6) | st.integers(1, 10 ** 6).map(str)
               | st.sampled_from(ODD_CAPACITIES if odd else [2 ** 64]))
    kind = draw(st.sampled_from(GOOD_CHANNELS + odd * ["also_node", "keyed", "list",
                                                       "missing"]))
    fields = [("node1_pub", k1), ("node2_pub", k2), ("capacity", cap)]
    if kind == "plain":
        return _Obj(fields)
    if kind == "lnd":
        policy = _Obj([("fee_base_msat", "1000"), ("disabled", False), ("custom", _Obj([]))])
        return _Obj([("channel_id", "7"), *fields, ("node1_policy", policy),
                     ("node2_policy", policy)])
    if kind == "repeated":
        return _Obj([("capacity", "x"), *fields, ("node1_pub", k2)])
    if kind == "policy_record":
        return _Obj([*fields, ("node1_policy", _Obj([("pub_key", k1)]))])
    if kind == "also_node":
        return _Obj([("pub_key", k1), *fields])
    if kind == "keyed":
        return _Obj([("node1_pub", _Obj(fields)), *fields[1:]])
    return {"list": [k1, k2, cap], "missing": _Obj(fields[:2])}[kind]


EXTRAS = [("version", 3), ("big", 12345678901234567890), ("pi", 3.25), ("none", None),
          ("text", '}, {"pub_key": "A"}], "edges": ['),
          ("more_nodes", [_Obj([("pub_key", "X")]), _Obj([("pub_key", "Y")])]),
          ("meta", _Obj([("nodes", []), ("alias", "}, {")]))]


@st.composite
def snapshot_texts(draw):
    """Snapshot text with any whitespace, extra top-level keys anywhere, the
    two arrays in either order and maybe empty, and records of every kind
    the reader must take or leave to json.load."""
    keys = draw(st.lists(st.sampled_from(FIELD_KEYS), min_size=1, max_size=4, unique=True))
    odd = draw(st.booleans())  # records the reader leaves to json.load
    nodes = [draw(_node_records(k, odd))
             for k in draw(st.lists(st.sampled_from(keys), max_size=6))]
    edges = draw(st.lists(_channel_records(keys, odd), max_size=6))
    items = draw(st.permutations([("nodes", nodes), ("edges", edges)]))
    for extra in draw(st.lists(st.sampled_from(EXTRAS), max_size=3)):
        items.insert(draw(st.integers(0, len(items))), extra)
    oddity = draw(st.sampled_from([None] * 8 + odd * ["repeat", "not_list", "trailing", "bom"]))
    if oddity == "repeat":
        items.append(items[0])
    elif oddity == "not_list":
        items[0] = ("nodes", _Obj([]))
    sep, colon = draw(st.sampled_from(SEPARATORS))
    text = draw(st.sampled_from(["", " ", "\n"])) + _render(_Obj(items), sep, colon)
    if oddity == "bom":
        return "\ufeff" + text
    return text + (" x" if oddity == "trailing" else "\n")


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    return tmp_path_factory.mktemp("pieces") / "snapshot.json"


@pytest.mark.parametrize("piece", PIECES)
@settings(max_examples=150, deadline=None)
@given(text=snapshot_texts())
def test_file_read_in_pieces_matches_the_whole_document(snapshot_file, piece, text):
    snapshot_file.write_text(text, encoding="utf-8")
    _file_matches_whole(snapshot_file, piece)


def _lines(records):
    return [_Obj([("pub_key", k)]) for k in records]


# each reads right only if a failed cut, an early "]" or a record where a
# key belongs is told apart
CORNER_CASES = {
    "array_ends_inside_piece": _Obj([("nodes", _lines("AB")), ("more", _lines(range(500))),
                                     ("edges", [])]),
    "edges_first_with_node_heads": _Obj([
        ("edges", [_Obj([("pub_key", "x"), ("node1_pub", "A"), ("node2_pub", "B"),
                         ("capacity", 5)])] * 3), ("nodes", _lines("AB"))]),
    "records_as_field_values": _Obj([("nodes", [
        _Obj([("pub_key", "A"), ("peers", _lines("PQRS"))]), *_lines("BC")]), ("edges", [])]),
    "record_as_key": _Obj([("nodes", [_Obj([("pub_key", _Obj([("pub_key", "A")]))])]),
                           ("edges", [])]),
    "record_as_endpoint": _Obj([("nodes", _lines("AB")), ("edges", [
        _Obj([("node1_pub", _Obj([("pub_key", "A")])), ("node2_pub", "B"),
              ("capacity", 5)])])]),
}


@pytest.mark.parametrize("piece", PIECES + [1 << 20])
@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_file_corner_cases_match_the_whole_document(tmp_path, name, piece):
    path = tmp_path / "snapshot.json"
    path.write_text(_render(CORNER_CASES[name], ", ", ": "), encoding="utf-8")
    _file_matches_whole(path, piece)


def test_failed_cuts_are_capped(tmp_path):
    # each "}, {" between the peers of A is a cut, and each fails: past two,
    # the piece goes to json.load, so the work stays linear in the file
    peers = [_Obj([("pub_key", i)]) for i in range(20000)]
    path = tmp_path / "snapshot.json"
    path.write_text(_render(_Obj([("nodes", [_Obj([("pub_key", "A"), ("peers", peers)]),
                                             *_lines("BC")]), ("edges", [])]), ", ", ": "))
    decodes = []

    def counted(self, text, idx=0):
        decodes.append(len(text))
        assert len(decodes) < 200, "the failed cuts are not capped"
        return raw_decode(self, text, idx)

    raw_decode = json.JSONDecoder.raw_decode
    with mock.patch.object(json.JSONDecoder, "raw_decode", counted):
        assert _file_matches_whole(path, 1 << 12)
    assert parse_snapshot(path).node_keys == ["A", "B", "C"]


@pytest.mark.parametrize("deep", ["nodes", "record"])
def test_nesting_past_the_decoder_is_a_value_error(tmp_path, deep):
    # nodes nested in a record are parsed by a piece's decoder; a nodes value
    # that is no array of records goes to json.load
    nested = "[" * 200000 + "]" * 200000
    record = '{"pub_key": "A", "x": %s}' % nested if deep == "record" else nested
    path = tmp_path / "deep.json"
    path.write_text('{"nodes": [%s], "edges": []}' % record if deep == "record"
                    else '{"nodes": %s, "edges": []}' % nested)
    with mock.patch.object(json, "load", wraps=json.load) as whole, \
            pytest.raises(ValueError) as err:
        parse_snapshot(path)
    assert str(err.value) == "snapshot is nested deeper than the JSON decoder follows"
    assert whole.called == (deep == "nodes")


class _PathLike:
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return str(self.path)


def test_parse_snapshot_takes_str_and_any_path_like(tmp_path):
    doc = {"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
           "edges": [{"node1_pub": "A", "node2_pub": "B", "capacity": 6}]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    want = parse_snapshot(doc)
    with os.scandir(tmp_path) as entries:
        (entry,) = entries
        assert parse_snapshot(entry) == want
    for source in (path, str(path), _PathLike(path)):
        assert parse_snapshot(source) == want


def _lnd_file(path, n, seed):
    rng = random.Random(seed)
    keys = [f"02{rng.getrandbits(256):064x}" for _ in range(n)]
    doc = {"nodes": [{"pub_key": k} for k in keys],
           "edges": [{"node1_pub": keys[u], "node2_pub": keys[v],
                      "capacity": str(rng.randrange(2, 10 ** 7))}
                     for u, v in small_world_edges(rng, n, radius=2, rewire_prob=0.2)]}
    doc = lnd_decorated(doc, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2 if seed % 2 else None)
    return doc


def test_lnd_shaped_file_loads_in_well_under_its_size(tmp_path):
    path = tmp_path / "lnd.json"
    doc = _lnd_file(path, 1400, seed=4)
    size = path.stat().st_size
    assert 3_000_000 < size < 3_500_000
    want = parse_snapshot(doc)
    with mock.patch.object(graph, "_PIECE", 1 << 16), \
            mock.patch.object(json, "load", side_effect=AssertionError("parsed whole")):
        tracemalloc.start()
        try:
            got = parse_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == want
    assert peak < size / 2


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("piece", PIECES[1:] + [1 << 16, 1 << 20])
def test_lnd_shaped_files_never_go_to_json_load(tmp_path, seed, piece):
    path = tmp_path / "lnd.json"
    doc = _lnd_file(path, 60 if piece < 64 else 400, seed)
    with mock.patch.object(graph, "_PIECE", piece), \
            mock.patch.object(json, "load", side_effect=AssertionError("parsed whole")):
        assert parse_snapshot(path) == parse_snapshot(doc)


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_modules():
    """perfbench's ``inputs`` and ``workloads``, left out of sys.modules."""
    with mock.patch.dict(sys.modules):
        for name in ("inputs", "workloads"):
            spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return sys.modules["inputs"], sys.modules["workloads"]


def test_perfbench_snapshots_never_go_to_json_load(tmp_path):
    inputs, workloads = _perfbench_modules()
    for workload in (workloads.SnapshotAttempt, workloads.BetweennessPlan):
        doc = inputs.describegraph(1, **workload.GRAPH)
        path = tmp_path / f"{workload.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with mock.patch.object(json, "load", side_effect=AssertionError("parsed whole")):
            assert parse_snapshot(path) == parse_snapshot(doc)
