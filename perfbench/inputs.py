"""Seeded inputs for the benchmark: LND ``describegraph`` snapshot documents.

The generator is written independently so the benchmark never imports the test
helpers.  The same (seed, parameters) always give byte-identical files: only
``random.Random`` draws decide the content.
"""

from __future__ import annotations

import json
import math
import random


def _pub_key(rng: random.Random) -> str:
    """A 33-byte compressed-public-key-shaped hex string (66 characters)."""
    return rng.choice(("02", "03")) + f"{rng.getrandbits(256):064x}"


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def describegraph(seed: int, nodes: int, radius: int, rewire: float,
                  cap_lo: int, cap_hi: int, parallel: int, detached: int) -> dict:
    """A small-world channel graph in LND ``describegraph`` shape.

    The main component is a ring lattice (each node linked to its ``radius``
    nearest neighbours on either side) whose edges are rewired to a uniform
    random endpoint with probability ``rewire`` (Watts-Strogatz), so it has
    ``nodes * radius`` channels.  Capacities are log-uniform in
    ``[cap_lo, cap_hi]`` satoshis.  On top of that the document carries what
    ingestion must clean up: ``parallel`` duplicate channels over existing
    pairs (merged by capacity sum), one self-loop (dropped), and a detached
    path of ``detached`` nodes (cut away with the giant component).
    """
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    for i in range(nodes):
        for j in range(1, radius + 1):
            u, v = i, (i + j) % nodes
            if rng.random() < rewire:
                for _ in range(20):
                    w = rng.randrange(nodes)
                    if w != i and (min(i, w), max(i, w)) not in pairs:
                        u, v = i, w
                        break
            pairs.add((min(u, v), max(u, v)))
    channels = [(u, v, _log_uniform(rng, cap_lo, cap_hi)) for u, v in sorted(pairs)]
    for u, v, _cap in rng.sample(channels, parallel):
        channels.append((u, v, _log_uniform(rng, cap_lo, cap_hi)))
    loop = rng.randrange(nodes)
    channels.append((loop, loop, _log_uniform(rng, cap_lo, cap_hi)))
    channels.extend((nodes + i, nodes + i + 1, _log_uniform(rng, cap_lo, cap_hi))
                    for i in range(detached - 1))
    rng.shuffle(channels)

    total = nodes + detached
    keys = [_pub_key(rng) for _ in range(total)]
    order = list(range(total))
    rng.shuffle(order)
    return {
        "nodes": [{"pub_key": keys[i], "alias": f"node{i}", "addresses": []}
                  for i in order],
        "edges": [{"channel_id": str(1000000 + cid), "chan_point": f"{cid:064x}:0",
                   "node1_pub": keys[u], "node2_pub": keys[v], "capacity": str(cap),
                   "last_update": 0}
                  for cid, (u, v, cap) in enumerate(channels)],
    }


def write_snapshot(path, seed: int, **params) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(describegraph(seed, **params), fh)
