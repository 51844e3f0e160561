from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from pcnsim import (ChannelGraph, edge_betweenness, giant_component, ingest_snapshot,
                    make_clique, make_ring, parse_snapshot, sssp_dag)
from pcnsim.graph import Csr, load_graph, read_edgelist, write_edgelist

from helpers import adjacency_of, csr_rows, random_connected_edges, random_connected_graph


def test_make_clique_k3():
    g = make_clique(3, 4)
    assert g.edge_count == 3
    assert g.capacity.tolist() == [4, 4, 4]
    assert sorted((g.edge_u[i], g.edge_v[i]) for i in range(3)) == [(0, 1), (0, 2), (1, 2)]


def test_make_clique_degrees_and_adjacency_count():
    g = make_clique(7, 6)
    assert g.csr.degree.tolist() == [6] * 7
    adj = adjacency_of(zip(g.edge_u, g.edge_v, g.capacity), 7)
    assert csr_rows(g) == [adj[v] for v in range(7)]
    assert int(g.csr.degree.sum()) == 2 * g.edge_count


def test_make_clique_large_scale():
    g = make_clique(2800, 1024)
    assert g.edge_count == 3_918_600
    assert g.csr.degree[0] == 2799
    assert g.capacity[0] == 1024


def test_make_clique_rejects_bad_input():
    with pytest.raises(ValueError):
        make_clique(1, 4)
    with pytest.raises(ValueError):
        make_clique(3, 5)
    with pytest.raises(ValueError):
        make_clique(3, 0)


def test_make_ring_basic():
    g = make_ring(4, 2)
    got = sorted((g.edge_u[i], g.edge_v[i]) for i in range(g.edge_count))
    assert got == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.csr.degree.tolist() == [2] * 4


def test_make_ring_large_scale():
    g = make_ring(4096, 3040)
    assert g.edge_count == 4096
    assert set(g.capacity) == {3040}


def test_make_ring_rejects_two_nodes():
    with pytest.raises(ValueError):
        make_ring(2, 2)


def test_graph_rejects_malformed_edges():
    with pytest.raises(ValueError):
        ChannelGraph(3, [(0, 0, 4)])
    with pytest.raises(ValueError):
        ChannelGraph(3, [(0, 1, 4), (1, 0, 4)])
    with pytest.raises(ValueError):
        ChannelGraph(3, [(0, 5, 4)])
    with pytest.raises(ValueError):
        ChannelGraph(3, [(0, 1, 0)])


def _doc(nodes, channels):
    return {
        "nodes": [{"pub_key": k} for k in nodes],
        "edges": [{"node1_pub": a, "node2_pub": b, "capacity": str(c)}
                  for a, b, c in channels],
    }


def test_ingest_merges_parallel_channels():
    doc = parse_snapshot(_doc(["A", "B"], [("A", "B", 100), ("B", "A", 50)]))
    g = ingest_snapshot(doc)
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.capacity.tolist() == [150]


def test_ingest_drops_self_loop_with_warning(caplog):
    doc = parse_snapshot(_doc(["A", "B"], [("A", "A", 10), ("A", "B", 5)]))
    with caplog.at_level("WARNING"):
        g = ingest_snapshot(doc)
    assert g.edge_count == 1
    assert any("self-loop" in rec.message for rec in caplog.records)


def test_ingest_minimal_document():
    g = ingest_snapshot(parse_snapshot(_doc(["A", "B"], [("A", "B", 7)])))
    assert (g.node_count, g.edge_count) == (2, 1)
    assert g.node_keys == ["A", "B"]


def test_ingest_rejects_unknown_key_and_bad_capacity():
    with pytest.raises(ValueError):
        ingest_snapshot(parse_snapshot(_doc(["A", "B"], [("A", "C", 5)])))
    with pytest.raises(ValueError):
        ingest_snapshot(parse_snapshot(_doc(["A", "B"], [("A", "B", 0)])))


def test_parse_snapshot_rejects_malformed():
    with pytest.raises(ValueError):
        parse_snapshot({"nodes": []})
    with pytest.raises(ValueError):
        parse_snapshot({"nodes": [{"no_key": 1}], "edges": []})
    with pytest.raises(ValueError):
        parse_snapshot(_doc(["A", "B"], [("A", "B", "12x")]))


@pytest.mark.parametrize("capacity", [12.7, 12.0, True, False,
                                      "1_000", " 12 ", "+7", "\u0661\u0662"])
def test_parse_snapshot_rejects_float_and_bool_capacity(capacity):
    doc = {"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
           "edges": [{"node1_pub": "A", "node2_pub": "B", "capacity": capacity}]}
    with pytest.raises(ValueError, match="non-integer capacity") as err:
        parse_snapshot(doc)
    assert "\n" not in str(err.value)
    for fine in (12, "12"):
        doc["edges"][0]["capacity"] = fine
        parsed = parse_snapshot(doc)
        assert (parsed.node1, parsed.node2, parsed.capacity) == (["A"], ["B"], [12])
    # a negative capacity parses, and ingest refuses it
    doc["edges"][0]["capacity"] = "-12"
    with pytest.raises(ValueError, match="nonpositive capacity -12"):
        ingest_snapshot(parse_snapshot(doc))


@pytest.mark.parametrize("edges", [[(0, 1, 4.5)], [(0, 1, True)], [(0.0, 1, 4)],
                                   np.array([[0, 1, 4.0]]), np.ones((1, 3), dtype=bool)])
def test_graph_rejects_float_and_bool_edge_values(edges):
    with pytest.raises(ValueError, match="edge values must be integers") as err:
        ChannelGraph(2, edges)
    assert "\n" not in str(err.value)


def test_giant_component_identity_on_connected():
    g = make_ring(5, 4)
    gc = giant_component(g)
    assert gc.node_count == 5
    assert gc.edge_count == 5


def test_giant_component_picks_larger():
    edges = [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2),  # 5-node path
             (5, 6, 2), (6, 7, 2)]                         # 3-node path
    g = ChannelGraph(8, edges)
    gc = giant_component(g)
    assert gc.node_count == 5
    assert gc.edge_count == 4
    assert gc.is_connected()


def test_giant_component_tie_breaks_toward_smallest_id():
    # two 3-node components; the one holding node 0 wins, ids stay in order
    edges = [(1, 3, 2), (3, 5, 4), (0, 2, 6), (2, 4, 8), (0, 4, 10)]
    gc = giant_component(ChannelGraph(7, edges, node_keys=list("abcdefg")))
    assert gc.node_keys == ["a", "c", "e"]
    assert sorted(zip(gc.edge_u, gc.edge_v, gc.capacity)) == [(0, 1, 6), (0, 2, 10),
                                                             (1, 2, 8)]


def test_giant_component_idempotent_after_ingest():
    doc = parse_snapshot(_doc(
        ["A", "B", "C", "D", "E"],
        [("A", "B", 10), ("B", "C", 10), ("D", "E", 10)],
    ))
    once = giant_component(ingest_snapshot(doc))
    twice = giant_component(once)
    assert twice.node_count == once.node_count
    assert twice.capacity.tolist() == once.capacity.tolist()
    assert twice.node_keys == once.node_keys == ["A", "B", "C"]


def test_giant_component_rejects_edgeless_graph():
    g = ChannelGraph(3, [])
    with pytest.raises(ValueError, match="single node"):
        giant_component(g)


def test_adjacency_handshake_on_random_graphs():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(4, 12)
        edges = random_connected_edges(rng, n)
        g = ChannelGraph(n, edges)
        adj = adjacency_of(edges, n)
        assert csr_rows(g) == [adj[v] for v in range(n)]
        assert g.csr.degree.tolist() == [len(adj[v]) for v in range(n)]
        assert int(g.csr.degree.sum()) == 2 * g.edge_count


def test_edgelist_round_trip(tmp_path):
    rng = random.Random(5)
    g = random_connected_graph(rng, 8)
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    back = read_edgelist(path)
    assert back.node_count == g.node_count
    for column in ("edge_u", "edge_v", "capacity"):
        assert getattr(back, column).tolist() == getattr(g, column).tolist()


def test_load_graph_snapshot_takes_giant_component(tmp_path):
    doc = _doc(["A", "B", "C", "D"], [("A", "B", 6), ("B", "C", 6), ("D", "D", 4)])
    p = tmp_path / "snap.json"
    p.write_text(json.dumps(doc))
    g = load_graph(p)
    assert g.node_count == 3
    assert g.edge_count == 2


def test_snapshot_duplicate_node_record_is_kept_once():
    doc = _doc(["A", "B", "A", "C"], [("A", "B", 6), ("B", "C", 4)])
    assert parse_snapshot(doc).node_keys == ["A", "B", "C"]
    g = ingest_snapshot(parse_snapshot(doc))
    assert (g.node_count, g.edge_count) == (3, 2)


def test_edgelist_skips_comment_and_blank_lines_after_the_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("3 2\n\n# first channel\n0 1 4\n   \n1 2 6\n# end\n")
    g = read_edgelist(path)
    assert g.node_count == 3
    assert (g.edge_u.tolist(), g.edge_v.tolist(), g.capacity.tolist()) == ([0, 1], [1, 2],
                                                                           [4, 6])


def test_edgelist_skips_comment_and_blank_lines_before_the_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a path\n\n   \n3 2\n0 1 4\n1 2 6\n")
    g = read_edgelist(path)
    assert (g.node_count, g.capacity.tolist()) == (3, [4, 6])


@pytest.mark.parametrize("text", ["", "# only a comment\n", "x 2\n0 1 4\n1 2 4\n",
                                  "3\n0 1 4\n", "# ring\n3 2 1\n0 1 4\n1 2 4\n",
                                  "3 2.0\n0 1 4\n1 2 4\n"])
def test_edgelist_header_that_is_not_two_integers_is_refused(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: first line must be 'n m'$"):
        read_edgelist(path)


def test_edges_are_read_only_int64_arrays():
    g = ChannelGraph(4, [(2, 1, 5), (0, 3, 7), (3, 1, 9)])
    for column in (g.edge_u, g.edge_v, g.capacity):
        assert column.dtype == np.int64 and not column.flags.writeable
    assert g.edge_u.tolist() == [1, 0, 1] and g.edge_v.tolist() == [2, 3, 3]
    with pytest.raises(ValueError, match="read-only"):
        g.capacity[0] = 1


def test_edge_id_reads_either_direction_and_rejects_non_edges():
    g = make_ring(5, 2)
    assert [g.edge_id(i, (i + 1) % 5) for i in range(5)] == [0, 1, 2, 3, 4]
    assert g.edge_id(4, 0) == g.edge_id(0, 4) == 4
    for a, b in ((0, 2), (1, 1), (-1, 0), (5, 0), (0, 7)):
        with pytest.raises(KeyError):
            g.edge_id(a, b)


@pytest.mark.parametrize("edge", [(0, 1, 2 ** 63), (0, 2 ** 64, 4), (-2 ** 63 - 1, 1, 4)])
def test_edge_outside_int64_is_one_line_value_error(tmp_path, edge):
    with pytest.raises(ValueError, match="outside int64") as err:
        ChannelGraph(3, [(1, 2, 4), edge])
    assert "\n" not in str(err.value)
    path = tmp_path / "g.edges"
    path.write_text("3 2\n1 2 4\n{} {} {}\n".format(*edge))
    with pytest.raises(ValueError, match="outside int64"):
        read_edgelist(path)


def test_snapshot_capacity_outside_int64_is_value_error():
    too_big = _doc(["A", "B"], [("A", "B", 2 ** 63)])
    merged_too_big = _doc(["A", "B"], [("A", "B", 2 ** 62), ("B", "A", 2 ** 62)])
    for doc in (too_big, merged_too_big):
        with pytest.raises(ValueError, match="outside int64"):
            ingest_snapshot(parse_snapshot(doc))


def test_merged_capacity_past_int64_is_refused_even_when_the_sum_wraps():
    # three sum to -2**62 - 3 in wrapping int64 arithmetic, five to 2**62 - 5
    for count in (3, 5):
        doc = _doc(["A", "B"], [("A", "B", 2 ** 62 - 1)] * count)
        with pytest.raises(ValueError, match="outside int64"):
            ingest_snapshot(parse_snapshot(doc))


def test_merged_capacity_of_exactly_int64_max_is_kept():
    g = ingest_snapshot(parse_snapshot(_doc(["A", "B"], [("A", "B", 2 ** 62),
                                                         ("B", "A", 2 ** 62 - 1)])))
    assert g.capacity.tolist() == [2 ** 63 - 1]


def test_node_count_bounds():
    with pytest.raises(ValueError, match="got 1"):
        ChannelGraph(1, [])
    with pytest.raises(ValueError, match="nodes, got 3037000500"):
        ChannelGraph(3_037_000_500, [(0, 1, 2)])


def test_is_connected_is_found_once(monkeypatch):
    g = ChannelGraph(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])
    split = ChannelGraph(4, [(0, 1, 2), (2, 3, 2)])
    assert g._connected is None  # nothing is computed before the first call
    assert g.is_connected() and not split.is_connected()

    def no_bfs(*_args):
        raise AssertionError("is_connected ran a second BFS")

    monkeypatch.setattr(type(g.csr), "bfs_step", no_bfs)
    assert g.is_connected() and not split.is_connected()


def test_every_bfs_runs_on_bfs_step(monkeypatch):
    # one BFS step serves the full DAGs (and so the rows), betweenness and the
    # connectivity check: with it broken, each of them fails
    g = make_ring(6, 2)

    def broken_step(*_args):
        raise RuntimeError("bfs_step was called")

    monkeypatch.setattr(Csr, "bfs_step", broken_step)
    for search in (lambda: edge_betweenness(g), lambda: sssp_dag(g, 0), g.is_connected):
        with pytest.raises(RuntimeError, match="bfs_step was called"):
            search()
