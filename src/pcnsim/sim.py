"""Payment process, birth-and-death chain processes, and Monte Carlo campaigns."""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analytics import ring_edge_probability
from .graph import ChannelGraph, load_graph
from .paths import DagCache, sample_shortest_path
from .progress import Progress
from .rng import Rng, chunk_sizes, next_size, run_seed, word_limit

logger = logging.getLogger(__name__)

STOP_MODES = ("depletion", "attempt")

DEPLETED = "depleted"
ATTEMPT_FAILED = "attempt_failed"
STEP_CAP = "step_cap_reached"

_CLIQUE_CHUNK = 1 << 14  # largest chunk of rounds the clique kernel and its chain process draw
_RING_WORDS = (512, 1 << 13)  # first and largest block of raw words the ring kernel decodes
_SAFE_ROUNDS = 16  # fewest rounds the ring kernel applies unchecked, most it takes one at a time
_RING_BATCH = 32  # rounds the ring kernel checks at once near the band
_RING_BLOCK = 1 << 14  # most rounds x edges in one of the ring kernel's exact blocks
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce
_NEAR_ROWS = 8  # fewest rows the independent chains search at once


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign point; fully determines its outcome list."""

    topology: str
    nodes: Optional[int] = None
    balance: Optional[int] = None          # per-side balance k; capacity is 2k
    snapshot_path: Optional[str] = None
    amount: int = 1
    stop_mode: str = "depletion"
    max_steps: int = 10 ** 12
    base_seed: int = 0
    runs: int = 1
    p_select: Optional[float] = None       # independent-chains selection probability

    def __post_init__(self):
        spec = _TOPOLOGY.get(self.topology)
        if spec is None:
            raise ValueError(f"unknown topology {self.topology!r}; valid: {TOPOLOGIES}")
        if self.stop_mode not in STOP_MODES:
            raise ValueError(f"unknown stop_mode {self.stop_mode!r}; valid: {STOP_MODES}")
        if self.amount < 1:
            raise ValueError("amount must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0 <= self.base_seed < 1 << 64:  # run_seed reads it mod 2**64
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        if spec.kernel is not None:
            if self.nodes is None or self.balance is None:
                raise ValueError(f"{self.topology} topology needs nodes and balance")
            if self.balance < 1:
                raise ValueError("balance must be >= 1")
            least = spec.min_nodes
            if self.topology == "independent" and self.p_select is None:
                least = 3  # the default p_select is the n-ring's edge probability
            if self.nodes < least:
                raise ValueError(f"{self.topology} needs n >= {least}, got {self.nodes}")
        check_reads(self.topology, [f.name for f in fields(self)
                                    if getattr(self, f.name) != f.default])
        if self.p_select is not None and not 0.0 < self.p_select <= 1.0:
            raise ValueError("p_select must be in (0, 1]")

    def config_id(self) -> str:
        parts = [self.topology]
        if self.nodes is not None:
            parts.append(f"n{self.nodes}")
        if self.balance is not None:
            parts.append(f"k{self.balance}")
        parts.append(f"x{self.amount}")
        parts.append(self.stop_mode)
        return "-".join(parts)

    def as_dict(self) -> dict:
        """The fields that are set, snapshot_path as ``snapshot``."""
        d = {key: value for key, value in asdict(self).items() if value is not None}
        if self.snapshot_path is not None:
            d["snapshot"] = d.pop("snapshot_path")
        return d


def check_reads(topology: str, names: list[str]) -> None:
    """ValueError if the topology's run never reads a SimConfig field of ``names``."""
    for name in names:
        if name in _TOPOLOGY[topology].ignores:
            readers = "/".join(t for t, s in _TOPOLOGY.items() if name not in s.ignores)
            name = "snapshot" if name == "snapshot_path" else name
            raise ValueError(f"topology {topology} takes no {name}; {name} applies "
                             f"to the {readers} topology only")


@dataclass(frozen=True)
class RunOutcome:
    """Result of one run: rounds survived, what stopped it, and its seed."""

    tau: int
    failing_edge: Optional[int]
    failure_kind: str
    seed_used: int

    @property
    def censored(self) -> bool:
        return self.failure_kind == STEP_CAP


class _Ledger:
    """One run's outcome at every point of its grid, by the one stop rule.

    The points (amounts on a graph, balances k on a kernel's topology) share
    one walk, as no draw reads a balance.  A point of amount x stops at the
    first round that takes some end of an edge (or chain) to a net payout of
    u moves of x with x·(u + d) > room, room being the end's balance before
    the run; so u passes the band K = room // x - d.  d is 1 in depletion
    mode, where the failing round is applied and counts, and 0 in attempt
    mode, where it is refused: after t whole rounds, tau is t + d.  K < 0
    (depletion mode only) stops the point before round 0, at t = -1.
    Points stop in ``order``, narrowest band first, each checked again on
    the round that stopped the last, so each gets its own failing edge.
    ``limits`` holds each point's band, or on a graph its amount, by the
    caller's index, and ``limit`` the next point's (None once all stopped).
    """

    def __init__(self, cfg: SimConfig, seed: int, order: list[int]):
        self.d, self.kind = (1, DEPLETED) if cfg.stop_mode == "depletion" else (0, ATTEMPT_FAILED)
        self.seed, self.order, self.limits = seed, order, []
        self.done: list = [None] * len(order)
        self.stopped = 0

    @property
    def limit(self) -> Optional[int]:
        return self.limits[self.order[self.stopped]] if self.stopped < len(self.order) else None

    def stop(self, t: int, edge: int) -> Optional[int]:
        """Stop the next point on ``edge`` after t whole rounds; the new limit."""
        self.done[self.order[self.stopped]] = RunOutcome(t + self.d, edge, self.kind, self.seed)
        self.stopped += 1
        return self.limit

    def close(self, t: int) -> list[RunOutcome]:
        """Every point's outcome, those still running censored at round t."""
        return [o or RunOutcome(t, None, STEP_CAP, self.seed) for o in self.done]

    @classmethod
    def of_kernel(cls, cfg: SimConfig, ks: list[int], seed: int) -> _Ledger:
        """A kernel's ledger over its ascending ``ks``: every end starts at k."""
        run = cls(cfg, seed, list(range(len(ks))))
        run.limits = [k // cfg.amount - run.d for k in ks]
        while (band := run.limit) is not None and band < 0:
            run.stop(-1, 0)
        return run


def _first_exit(state: np.ndarray, ids: np.ndarray, steps: np.ndarray, lo: int,
                hi: int) -> int:
    """Index of the first event of a chunk that takes its chain outside [lo, hi].

    Event i adds ``steps[i]`` to ``state[ids[i]]``; every chain starts the
    chunk inside the range.  A count bound first sets aside the chains that
    cannot leave, in O(C) for C events however many chains there are: one
    ``bincount`` of the ids modulo a power of two of at least 2C buckets
    counts each bucket's events, which bounds those of every chain in it
    (exactly, when no two chains share a bucket).  A chain with c such
    events moves at most c·max|step| either way, so if that keeps it inside
    the range, it stays there.  Only the other, "hot", events are sorted by
    the keys (chain id, event index), packed into an int64 (so chain ids
    stay below 2**(63 - C.bit_length())): that groups them by chain in event
    order, and a running sum per group gives each hot chain's level after
    each of its events.  The smallest violating event index is the answer,
    read off the key, so it indexes the whole chunk.  When no event leaves
    the range, returns -1 and applies the chunk to ``state``, hot and cold
    events alike, with one scatter; otherwise ``state`` is left as it was.
    """
    size = len(ids)
    ids = ids.astype(np.intp)
    bucket = ids & ((1 << (2 * size - 1).bit_length()) - 1)
    start = state[ids]
    reach = np.bincount(bucket)[bucket] * int(_MAX(np.abs(steps)))
    hot = (start - reach < lo) | (start + reach > hi)
    if hot.any():
        shift = size.bit_length()
        keys = np.sort((ids << shift | np.arange(size))[hot])
        order = keys & ((1 << shift) - 1)
        chain = keys >> shift
        moved = steps[order]
        ends = np.empty(len(keys) + 1, dtype=bool)  # where each chain's events start, and the end
        ends[0] = ends[-1] = True
        np.not_equal(chain[1:], chain[:-1], out=ends[1:-1])
        ends = np.flatnonzero(ends)
        heads = ends[:-1]
        run = np.cumsum(moved)
        # less the sum before each group's first event: a running sum per chain
        run -= np.repeat(run[heads] - moved[heads], ends[1:] - heads)
        level = state[chain] + run
        out = (level < lo) | (level > hi)
        if out.any():
            return int(order[out].min())
    np.add.at(state, ids, steps)
    return -1


def build_graph(cfg: SimConfig) -> ChannelGraph:
    """The snapshot topology's graph; the other topologies run graph-free kernels."""
    if cfg.snapshot_path is None:
        raise ValueError(f"{cfg.topology} topology needs snapshot_path, or a graph "
                         f"passed to monte_carlo")
    return load_graph(cfg.snapshot_path)


def run_payment_process(g: ChannelGraph, cfg: SimConfig, rng: Rng,
                        dag_cache: DagCache | None = None) -> RunOutcome:
    """Execute the random payment process on g until the stop condition.

    Per round: a distinct (source, destination) pair is drawn uniformly, a
    shortest path between them is drawn uniformly, and a payment of
    ``cfg.amount`` moves that amount along every path edge toward the
    destination, until a hop fails by ``_Ledger``'s rule; the failing edge
    is the first such edge on the path.  The one-amount case of ``_walk``.
    """
    return _walk(g, [cfg.amount], cfg, rng, dag_cache)[0]


def _walk(g: ChannelGraph, amounts: list[int], cfg: SimConfig, rng: Rng,
          dag_cache: DagCache | None = None) -> list[RunOutcome]:
    """run_payment_process at every amount at once, outcomes in the order of
    ``amounts``; cfg gives the stop mode and step cap.

    The amounts share one net flow f per edge, out of its smaller-id end,
    until they stop by ``_Ledger``'s rule: a hop out of that end (room
    c // 2) fails x iff x·(f + d) > room, one out of the other (room
    c - c // 2) iff x·(d - f) > room.  The largest running amount has the
    narrowest band, so each path edge stops the largest ones it bounds.
    """
    run = _Ledger(cfg, rng.seed, sorted(range(len(amounts)), key=lambda i: -amounts[i]))
    run.limits = amounts
    d, x = run.d, run.limit
    while x is not None and d * x > g.capacity.min() // 2:
        x = run.stop(-1, int(np.argmax(g.capacity // 2 < x)))
    # the net flow over each edge this run has paid over; the others hold
    # c // 2 at their smaller-id end, so a run costs what its rounds touch
    flow: dict[int, int] = {}
    cap = g.capacity.item
    cache = dag_cache if dag_cache is not None else DagCache(g)
    t = 0
    progress = Progress(logger, "payment process", seed=rng.seed, detail=lambda: (
        f", {len(amounts) - run.stopped} of {len(amounts)} amounts running, "
        f"DAG cache hit ratio {1 - cache.misses / cache.gets:.3f}"))
    while x is not None and t < cfg.max_steps:
        s, dst = rng.pair(g.node_count)
        dag = cache.get(s, dst)
        path = sample_shortest_path(dag, dst, rng)
        step = dag.step
        for a, b in zip(path, path[1:]):
            preds, _, edges = step(b)
            eid = edges[preds.index(a)]
            c = cap(eid)
            if a < b:
                f = flow.get(eid, 0) + 1
                room, u = c // 2, f + d
            else:
                f = flow.get(eid, 0) - 1
                room, u = c - c // 2, d - f
            while x * u > room:
                if (x := run.stop(t, eid)) is None:
                    return run.done
            flow[eid] = f
        t += 1
        progress(t)
    return run.close(t)


def _clique_fast(cfg: SimConfig, ks: list[int], rng: Rng) -> list[RunOutcome]:
    """Payment process on a clique of uniform per-side balance k, at every k
    of ``ks`` (see ``_Topology``), via its single-edge form.

    On a clique the drawn shortest path is exactly the edge {u,v}, so drawing
    a distinct pair plus orientation is the same as drawing a uniform edge and
    direction, in distribution; the tests compare the two forms' mean stop
    times.  Each chunk draws its edges, then its direction bits, and goes
    through _first_exit whole, and again for each band it breaks; only the
    rounds on edges whose count could pass the band within the chunk are
    sorted.  At unit amount in depletion mode it is ``run_bdc_process``,
    one chain per edge.
    """
    m = cfg.nodes * (cfg.nodes - 1) // 2
    run = _Ledger.of_kernel(cfg, ks, rng.seed)
    if (band := run.limit) is None:
        return run.done
    dev = np.zeros(m, dtype=np.int64)
    t = 0
    progress = Progress(logger, "clique process", seed=rng.seed)
    for chunk in chunk_sizes(128, _CLIQUE_CHUNK, cfg.max_steps):
        edges = rng.indices(m, chunk)
        steps = rng.bits(chunk).astype(np.int64) * 2 - 1  # +1: the larger-id endpoint pays
        while (at := _first_exit(dev, edges, steps, -band, band)) >= 0:
            if (band := run.stop(t + at, int(edges[at]))) is None:
                return run.done
        t += chunk
        progress(t)
    return run.close(t)


def _ring_rounds(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
    """The arcs of the rounds a block of raw words holds, read as ``Rng.pair``
    and ``randrange(2)`` read words they accept: ``(first, split, wrap,
    clockwise, nxt)``.

    Round j crosses edges first[j], ..., split[j] - 1, then 0, ...,
    wrap[j] - 1 (none unless its arc passes edge n - 1), and its draws end
    before word nxt[j].  Every word is decoded as if a round started there:
    s = w[i] % n, the destination from w[i + 1] % (n - 1), and, for an
    antipodal pair, the tie-break bit r from w[i + 2], which sends the round
    clockwise iff r is 0 from source 0 or 1 from any other source (see
    ``_ring_fast``).  The real rounds start at word 0 and follow
    nxt[i] = i + 2 + antipodal[i].  A round the block holds only in part is
    left out.
    """
    every = (w % np.uint64(n)).astype(np.int64)
    t = (w[1:] % np.uint64(n - 1)).astype(np.int64)
    span = t + (t >= every[:-1]) - every[:-1]
    span[span < 0] += n
    starts, cur = [], 0
    for a in np.flatnonzero(2 * span == n).tolist():
        if a < cur or (a - cur) % 2:
            continue  # not a round start
        if a + 2 == len(w):  # the tie-break word is past the block
            starts.append(np.arange(cur, a, 2))
            cur = len(w)
            break
        starts.append(np.arange(cur, a + 1, 2))
        cur = a + 3
    starts.append(np.arange(cur, len(w) - 1, 2))
    at = np.concatenate(starts)
    s, span = every[at], span[at]
    tie = 2 * span == n
    clockwise = 2 * span < n
    clockwise[tie] = ((w[at[tie] + 2] & np.uint64(1)) == 0) == (s[tie] == 0)
    first = np.where(clockwise, s, (s + span) % n)
    end = first + np.where(clockwise, span, n - span)
    split = np.minimum(end, n)
    return first, split, end - split, clockwise, at + 2 + tie


def _first_on_arc(out: np.ndarray, first: int, end: int, clockwise: bool, n: int) -> int:
    """The first of the edges ``out`` along a round's arc over edges first,
    ..., end - 1 (mod n): counting up from first for a clockwise payment,
    down from end - 1 otherwise."""
    return int(out[np.argmin((out - first if clockwise else end - 1 - out) % n)])


def _ring_levels(dev: np.ndarray, hot: np.ndarray, first: np.ndarray, split: np.ndarray,
                 wrap: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The exact block of a batch of ring rounds: row i, column c is
    ``|dev[hot[c]]|`` once round i is applied, where round i adds steps[i] to
    edges first[i], ..., split[i] - 1 and 0, ..., wrap[i] - 1."""
    cover = (hot >= first[:, None]) & (hot < split[:, None])
    cover |= hot < wrap[:, None]
    level = np.cumsum(cover * steps[:, None], axis=0)
    level += dev[hot]
    return np.abs(level, out=level)


def _ring_fast(cfg: SimConfig, ks: list[int], rng: Rng) -> list[RunOutcome]:
    """Payment process on a ring of uniform per-side balance k, at every k of
    ``ks`` (see ``_Topology``), a block of rounds at a time.

    Every shortest path on a ring is an arc, so a round adds ±1 to a run of
    ``dev``, where ``dev[i]`` counts the moves by which the balance node i can
    push to i+1 over edge i has left k.  Edge n-1 joins n-1 and 0, and
    make_ring stores its balance at node 0, so ``dev[n-1]`` is the other side
    of it.  The draws are those of run_payment_process, so outcomes are
    identical: an antipodal pair (even n) takes one ``randrange(2)``, and
    r == 0 picks the antipode's first BFS predecessor, which lies on the
    counterclockwise arc for every source but 0, because make_ring lists
    node 0's neighbours as [1, n-1].

    Each block of raw words (sizes from ``_RING_WORDS``) is decoded whole by
    ``_ring_rounds`` when every word is below the cut that ``randrange(n)`` and
    ``randrange(n - 1)`` share.  A block that holds a word at or past it goes
    back to ``rng``, and one round is drawn by ``Rng.pair`` (and
    ``randrange(2)`` for a tie) and decoded by ``_ring_rounds`` from the values
    its draws accepted, so one rejection rule (``Rng.randrange``'s) serves the
    kernel.  A round moves a count by at most 1, so while the smallest slack to
    the band is h, none of the next h rounds can fail: when h >=
    ``_SAFE_ROUNDS`` they are applied together, through one difference array
    over their runs' ends.  Otherwise the next ``_RING_BATCH`` rounds form a
    batch near the band.  One ``bincount`` of its runs' ends, split by sign,
    gives each edge how many +1 runs (plus) and -1 runs (minus) cover it, and
    an edge is hot iff dev + plus or dev - minus is past the band; no other
    edge can leave it during the batch.  A batch with no hot edge goes through
    the same kind of difference array.  Otherwise ``_ring_levels`` gives every
    hot edge's |count| after each round of the batch: the first row past the
    band is the stop round, its first hot edge past the band in path order
    (``_first_on_arc``) is the failing edge, and the next balance's band is
    checked on the same block from that row on (a larger band has fewer hot
    edges, so the block is still exact for it).  Only the edges within R of the
    band can leave it within R rounds; a batch of R rounds with more than
    ``_RING_BLOCK`` / R of them goes one round at a time instead, for at most
    ``_SAFE_ROUNDS`` rounds, with one slice update per run, and the rounds past
    the first h check the runs they updated; a failing one's edge is
    ``_first_on_arc``'s too.  The words a run does not use go back to ``rng``,
    so the stream ends where the scalar draws of the largest k end it.
    Progress is logged once per block.
    """
    n = cfg.nodes
    run = _Ledger.of_kernel(cfg, ks, rng.seed)
    band = run.limit
    dev = np.zeros(n, dtype=np.int64)
    max_steps = cfg.max_steps
    # n >= 3, so n or n - 1 is no power of two and the cut is below 2**64
    cut = np.uint64(min(word_limit(n), word_limit(n - 1)))
    t = 0
    size, top = _RING_WORDS
    left = np.zeros(0, dtype=np.uint64)  # words the last block's rounds did not use
    progress = Progress(logger, "ring process", seed=rng.seed)
    while band is not None and t < max_steps:
        w = rng.words(len(left) + size, left)
        size = next_size(size, top)
        if _MAX(w) >= cut:  # a word randrange may reject: one round of scalar draws
            rng.words(0, w)
            src, dst = rng.pair(n)
            tie = [rng.randrange(2)] if 2 * ((dst - src) % n) == n else []
            w = np.array([src, dst - (dst > src)] + tie, dtype=np.uint64)
        first, split, wrap, clockwise, nxt = _ring_rounds(w, n)
        rounds = min(len(first), max_steps - t)
        steps = np.where(clockwise, -1, 1)
        keys = None  # the runs' ends, once a batch counts them
        j = 0
        while j < rounds:
            h = min(band + int(_MIN(dev)), band - int(_MAX(dev)))
            stop = min(j + (h if h >= _SAFE_ROUNDS else _RING_BATCH), rounds)
            near = h < stop - j
            # an edge can leave the band within the batch only if it is closer to it
            # than the batch has rounds (every edge, when the band is that narrow);
            # a batch with more of them than an exact block holds goes a round at a time
            if not near or (stop - j) * (n if band < stop - j else np.count_nonzero(
                    np.abs(dev) > band - (stop - j))) <= _RING_BLOCK:
                if keys is None:
                    # round j's runs start at first and 0 and end at split and wrap; a +1
                    # round counts its starts at p and its ends at n + 1 + p, a -1 round's
                    # swapped, and a batch near the band counts a -1 round's 2n + 2 further on
                    up = clockwise * (n + 1)
                    keys = np.stack((first + up, up, split + n + 1 - up, wrap + n + 1 - up),
                                    axis=1).ravel()
                    signed = keys + np.repeat(clockwise * (2 * n + 2), 4)
                if near:
                    # the +1 runs' starts and ends, then the -1 runs' ends and starts: how
                    # many +1 runs cover each edge, and less how many -1 runs do
                    ends = np.bincount(signed[4 * j:4 * stop],
                                       minlength=4 * n + 4).reshape(2, 2, -1)
                    plus, less = np.cumsum(ends[:, 0, :n] - ends[:, 1, :n], axis=1)
                    hot = np.flatnonzero((dev + plus > band) | (dev + less < -band))
                    if len(hot):
                        level = _ring_levels(dev, hot, first[j:stop], split[j:stop], wrap[j:stop],
                                             steps[j:stop])
                        row = 0
                        while (past := level[row:] > band).any():
                            row += int(past.argmax()) // len(hot)
                            i = j + row
                            edge = _first_on_arc(hot[level[row] > band], first[i],
                                                 split[i] + wrap[i], clockwise[i], n)
                            if (band := run.stop(t + i, edge)) is None:
                                rng.words(0, w[nxt[i]:])
                                return run.done
                    dev += plus + less
                else:
                    ends = np.bincount(keys[4 * j:4 * stop], minlength=2 * n + 2)
                    dev += np.cumsum(ends[:n] - ends[n + 1:2 * n + 1])
                j = stop
                continue
            stop = min(j + _SAFE_ROUNDS, rounds)
            for i, a, b, e, step in zip(range(j, stop), first[j:stop].tolist(),
                                        split[j:stop].tolist(), wrap[j:stop].tolist(),
                                        steps[j:stop].tolist()):
                v = dev[a:b]  # the arc's edges up to n - 1, then any past it
                v += step
                if e:
                    u = dev[:e]
                    u += step
                if i < j + h:
                    continue
                if (_MIN(v) < -band or e and _MIN(u) < -band) if step < 0 else \
                        (_MAX(v) > band or e and _MAX(u) > band):
                    # only this round's arc can be past the band
                    while len(out := np.flatnonzero(np.abs(dev) > band)):
                        edge = _first_on_arc(out, a, b + e, step < 0, n)
                        if (band := run.stop(t + i, edge)) is None:
                            rng.words(0, w[nxt[i]:])
                            return run.done
            j = stop
        t += rounds
        left = w[nxt[rounds - 1]:]
        progress(t)
    rng.words(0, left)
    return run.close(t)


def run_bdc_process(m: int, k: int, max_steps: int, rng: Rng) -> RunOutcome:
    """Multiple birth-and-death chains: each round one uniform chain moves ±1.

    All m chains start at 0; returns the iteration count at the first time
    some chain reaches ±k.  Each chunk draws chain ids, then move bits, in
    ``_clique_fast``'s order, so this loop is the clique kernel's reference.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    pos = [0] * m
    t = 0
    progress = Progress(logger, "bdc process", seed=rng.seed)
    for chunk in chunk_sizes(128, _CLIQUE_CHUNK, max_steps):
        chains = rng.indices(m, chunk).tolist()
        moves = rng.bits(chunk).tolist()
        for e, up in zip(chains, moves):
            p = pos[e] + 1 if up else pos[e] - 1
            pos[e] = p
            t += 1
            if p == k or p == -k:
                return RunOutcome(t, e, DEPLETED, rng.seed)
        progress(t)
    return RunOutcome(t, None, STEP_CAP, rng.seed)


def run_coupled_clique(n: int, k: int, max_steps: int, rng: Rng) -> tuple[RunOutcome, RunOutcome]:
    """The clique kernel's outcome and the m-chain process's, both on rng's seed.

    ``_clique_fast`` at unit amount in depletion mode, and ``run_bdc_process``
    with chain e for edge e, m = n(n-1)/2: the coupling forces the same stop
    round and edge, so any difference is a fault in the kernel.
    """
    cfg = SimConfig(topology="clique", nodes=n, balance=k, max_steps=max_steps)
    clique = _clique_fast(cfg, [k], rng)[0]
    return clique, run_bdc_process(n * (n - 1) // 2, k, max_steps, Rng(rng.seed))


def _selection_cut(p: float) -> int:
    """The raw words w for which ``random() < p`` are exactly those below this.

    ``random()`` is (w >> 11)·2**-53, and p·2**53 is exact, so the top 53
    bits must be below ceil(p·2**53); for p = 1 the cut is 2**64, every word.
    """
    return math.ceil(p * 2.0 ** 53) << 11


def run_independent_chains(n: int, k: int, p_select: float, max_steps: int,
                           rng: Rng) -> RunOutcome:
    """n independent chains; each round every chain moves ±1 with prob p_select,
    until one reaches ±k: the one-balance case of ``_chains_walk``.

    Unlike the ring these updates are fully independent across chains; the
    expected number of moving chains per round matches the ring when
    p_select = ring_edge_probability(n).
    """
    cfg = SimConfig(topology="independent", nodes=n, balance=k, p_select=p_select,
                    max_steps=max_steps)
    return _chains_walk(cfg, [k], rng)[0]


def _chains_walk(cfg: SimConfig, ks: list[int], rng: Rng) -> list[RunOutcome]:
    """run_independent_chains at every k of ``ks`` (see ``_Topology``).

    The stream is that of drawing each block of rows as ``random``
    selections, then ``integers(0, 2, int8)`` directions (bit 1: up), read
    from PCG64's raw words.  A block's block·n selection words come first,
    one per chain and row, and are compared as integers with
    ``_selection_cut(p_select)``.  A fork of the stream reads them a window
    of rows at a time, only as far as the run gets.  The stream itself skips
    them with ``advance`` and draws the block's directions whole with
    ``rng.bits``; every draw reads whole raw words, so a run leaves the
    stream where drawing whole blocks leaves it.  Each window is summed at
    once; only chains close enough to pass their band within the window get
    a row-by-row running sum.
    """
    n = cfg.nodes
    bitgen = rng.np.bit_generator
    # without p_select, each chain moves as often as an edge of the n-ring
    cut = _selection_cut(cfg.p_select or ring_edge_probability(n))
    below = np.uint64(cut) if cut < 1 << 64 else None  # None: p_select = 1, all move
    fork = np.random.PCG64(0)  # its seed is never used: each block sets its state
    pos = np.zeros(n, dtype=np.int64)
    run = _Ledger.of_kernel(cfg, ks, rng.seed)
    band = run.limit  # every k >= 1 = d·x
    t = 0
    dist = np.zeros(n, dtype=np.int64)  # |pos|
    top = 0  # max |pos|
    progress = Progress(logger, "independent chains", seed=rng.seed)
    for block in chunk_sizes(8, 256, cfg.max_steps):
        fork.state = bitgen.state  # reads the block's selection words as windows come
        bitgen.advance(block * n)  # past them
        steps = rng.bits(block * n).view(np.int8).reshape(block, n)
        steps *= 2
        steps -= 1
        r = 0
        while r < block:
            # a row moves a chain by at most 1, so over the next w rows only
            # chains within w of passing their band can; their running sums are exact
            w = min(block - r, max(band + 1 - top, _NEAR_ROWS))
            rows = steps[r:r + w]
            if below is not None:
                rows = rows * (fork.random_raw(w * n).reshape(w, n) < below)
            near = np.flatnonzero(dist > band - w)
            if len(near):
                level = np.abs(pos[near] + np.cumsum(rows[:, near], axis=0))
                while (path := level > band).any():
                    i = int(np.argmax(path.any(axis=1)))
                    if (band := run.stop(t + r + i, int(near[np.argmax(path[i])]))) is None:
                        return run.done
            pos += rows.sum(axis=0, dtype=np.int16)
            r += w
            dist = np.abs(pos)
            top = int(dist.max())
        t += block
        progress(t)
    return run.close(t)


class _Topology(NamedTuple):
    """A kernel ``(cfg, ks, rng)`` runs one graph-free replica at each k of the
    ascending ``ks``, as one walk of each edge's (or chain's) change from k in
    moves of the amount (exact at any k and amount, as a count never passes
    the rounds run); each k stops by ``_Ledger``'s rule (``_Ledger.of_kernel``)."""

    min_nodes: Optional[int]  # fewest cfg.nodes; None: the graph sets n
    kernel: Optional[Callable]  # None: needs a graph
    ignores: tuple[str, ...]  # SimConfig fields its run never reads, so must leave unset


# The one dispatch point for topologies; a snapshot's graph comes from build_graph.
_TOPOLOGY = {
    "clique": _Topology(2, _clique_fast, ("snapshot_path", "p_select")),
    "ring": _Topology(3, _ring_fast, ("snapshot_path", "p_select")),
    "snapshot": _Topology(None, None, ("nodes", "balance", "p_select")),
    "independent": _Topology(1, _chains_walk, ("snapshot_path", "amount", "stop_mode")),
}
TOPOLOGIES = tuple(_TOPOLOGY)
SWEEP_TOPOLOGIES = tuple(name for name, spec in _TOPOLOGY.items() if spec.kernel is not None)


def _run_single(graph: Optional[ChannelGraph], cfg: SimConfig, run_index: int,
                cache: DagCache | None = None) -> RunOutcome:
    rng = Rng(run_seed(cfg.base_seed, run_index))
    if graph is not None:
        return run_payment_process(graph, cfg, rng, cache)
    return _TOPOLOGY[cfg.topology].kernel(cfg, [cfg.balance], rng)[0]


def _run_index(graph: Optional[ChannelGraph], cfg: SimConfig, points: list[int],
               cache: DagCache | None, run_index: int) -> tuple[list[RunOutcome], int, int]:
    """run_index at every point, and the DAG builds and cache gets it took."""
    builds, gets = (cache.misses, cache.gets) if graph is not None else (0, 0)
    if len(points) == 1:  # a single run, as perfbench's trace counts runs
        outcomes = [_run_single(graph, cfg, run_index, cache)]
    else:
        rng = Rng(run_seed(cfg.base_seed, run_index))
        outcomes = (_walk(graph, points, cfg, rng, cache) if graph is not None
                    else _TOPOLOGY[cfg.topology].kernel(cfg, points, rng))
    if graph is None:
        return outcomes, 0, 0
    return outcomes, cache.misses - builds, cache.gets - gets


_worker_args: tuple = ()  # set in pool workers only, never in the calling process


def _worker_init(graph, cfg, points):
    global _worker_args
    _worker_args = (graph, cfg, points, DagCache(graph) if graph is not None else None)


def _worker_run(run_index: int) -> tuple[list[RunOutcome], int, int]:
    return _run_index(*_worker_args, run_index)


def _campaign(graph: Optional[ChannelGraph], cfg: SimConfig, points: list[int],
              workers: int) -> list[list[RunOutcome]]:
    """Each point's outcomes in run order: cfg at each amount of ``points`` on
    a graph, or at each balance of the ascending ``points`` without one.

    Run-major, with one process pool: a run index is one walk over every
    point, by ``_walk`` on one DAG cache per pool worker or by the
    topology's kernel; a one-point grid, cfg's own point, is one run of cfg.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if graph is not None and not graph.is_connected():
        raise ValueError("graph must be connected (only .json snapshots are cut to "
                         "their giant component when loaded)")
    runs = cfg.runs
    workers = min(workers, runs)  # more would fork workers that get no run
    pooled = workers > 1
    if pooled:
        import multiprocessing  # only a pool needs it, so importing pcnsim skips it
    if pooled and "fork" not in multiprocessing.get_all_start_methods():
        logger.warning("fork unavailable; running sequentially")
        pooled = False
    if pooled:
        chunksize = max(1, runs // (workers * 4))
        with multiprocessing.get_context("fork").Pool(
                workers, initializer=_worker_init, initargs=(graph, cfg, points)) as pool:
            done = pool.map(_worker_run, range(runs), chunksize)
    else:
        cache = DagCache(graph) if graph is not None else None
        done = [_run_index(graph, cfg, points, cache, i) for i in range(runs)]
    if graph is not None:
        builds, gets = sum(run[1] for run in done), sum(run[2] for run in done)
        # the smallest amount runs longest, so its rounds are the walks' rounds
        rounds = sum(max(o.tau for o in run) for run, _b, _g in done)
        logger.info("%s: %d runs, %d rounds, %d DAG builds, %d DAG cache gets, "
                    "hit ratio %.3f",
                    ", ".join(replace(cfg, amount=x).config_id() for x in points),
                    runs, rounds, builds, gets, 1 - builds / gets if gets else 0.0)
    return [list(outcomes) for outcomes in zip(*(run for run, _b, _g in done))]


def monte_carlo(cfg: SimConfig, graph: Optional[ChannelGraph] = None,
                workers: int = 1) -> list[RunOutcome]:
    """Run cfg.runs independent replicas; outcome i uses run_seed(base_seed, i).

    Results are ordered by run index and bit-identical for a fixed config at
    every worker count: each run's stream depends only on (base_seed, index).
    Topologies with a graph-free kernel build no graph; a caller's graph
    runs the generic payment process under ``topology="snapshot"`` only,
    in place of the snapshot file, so cfg then needs no ``snapshot_path``.
    """
    if _TOPOLOGY[cfg.topology].kernel is not None:
        if graph is not None:
            raise ValueError(f"topology {cfg.topology} takes no graph; a caller's graph "
                             f'runs under topology="snapshot"')
    elif graph is None:
        graph = build_graph(cfg)
    point = cfg.amount if graph is not None else cfg.balance
    return _campaign(graph, cfg, [point], workers)[0]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated outcomes at one swept per-side balance value."""

    balance: int
    outcomes: list[RunOutcome] = field(repr=False)
    p_fail_within_horizon: Optional[float] = None


def check_sweep(cfg: SimConfig, k_from: int, k_to: int, k_step: int,
                horizon: Optional[int] = None) -> None:
    """ValueError unless capacity_sweep can run this topology, balance range
    and horizon; the kernels take every balance past cfg's."""
    if cfg.topology not in SWEEP_TOPOLOGIES:
        raise ValueError(f"a sweep needs a graph-free topology "
                         f"({', '.join(SWEEP_TOPOLOGIES)}), got {cfg.topology}")
    if k_from > k_to or k_step <= 0:
        raise ValueError("need k_from <= k_to and k_step > 0")
    if horizon is not None and not 0 <= horizon <= cfg.max_steps:
        raise ValueError(f"horizon must be in [0, max_steps], got {horizon}")


def capacity_sweep(cfg: SimConfig, k_from: int, k_to: int, k_step: int,
                   runs_per_point: int, workers: int = 1,
                   horizon: Optional[int] = None) -> list[SweepPoint]:
    """cfg's kernel at each balance in [k_from, k_to] stepping k_step, as one
    campaign: each run index is one walk over the whole grid, in one pool.

    The same per-run seeds are reused at every point (common random numbers),
    which makes the mean's growth in k a pathwise property for the chain
    topologies.  ``horizon`` adds an empirical Prob{tau <= horizon} per point.
    """
    check_sweep(cfg, k_from, k_to, k_step, horizon)
    ks = list(range(k_from, k_to + 1, k_step))
    runs = _campaign(None, replace(cfg, balance=k_from, runs=runs_per_point), ks, workers)
    return [SweepPoint(k, outcomes, None if horizon is None else sum(
        not o.censored and o.tau <= horizon for o in outcomes) / len(outcomes))
        for k, outcomes in zip(ks, runs)]


def multi_amount_experiment(graph: ChannelGraph, amounts: list[int], runs: int,
                            base_seed: int, stop_mode: str = "attempt",
                            max_steps: int = 10 ** 12,
                            workers: int = 1) -> list[tuple[int, list[RunOutcome]]]:
    """One campaign per amount on the same graph, outcomes by amount in the
    order of ``amounts``; they equal one monte_carlo call per amount.

    Per-run seeds are shared across amounts, so each run index is one walk
    that serves every amount (``_walk``) and builds each round's DAG once.
    """
    if not amounts:
        raise ValueError("amounts must be nonempty")
    # the smallest amount, so that SimConfig checks every amount is at least 1
    cfg = SimConfig(topology="snapshot", amount=min(amounts), stop_mode=stop_mode,
                    max_steps=max_steps, base_seed=base_seed, runs=runs)
    return list(zip(amounts, _campaign(graph, cfg, amounts, workers)))
