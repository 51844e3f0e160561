"""Payment process, birth-and-death chain processes, and Monte Carlo campaigns."""

from __future__ import annotations

import logging
import math
import multiprocessing
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

_CHUNK = 1 << 14
_RING_WORDS = (512, 1 << 13)  # first and largest block of raw words the ring kernel decodes
_SAFE_ROUNDS = 16  # fewest rounds the ring kernel applies at once without checks
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce
_NEAR_ROWS = 8  # fewest rows the independent chains search at once
_INT64_MAX = 2 ** 63 - 1


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
        if spec.kernel is None:
            if self.snapshot_path is None:
                raise ValueError(f"{self.topology} topology needs snapshot_path")
        else:
            if self.nodes is None or self.balance is None:
                raise ValueError(f"{self.topology} topology needs nodes and balance")
            if self.balance < 1:
                raise ValueError("balance must be >= 1")
            least = spec.min_nodes
            if self.topology == "independent" and self.p_select is None:
                least = 3  # the default p_select is the n-ring's edge probability
            if self.nodes < least:
                raise ValueError(f"{self.topology} needs n >= {least}, got {self.nodes}")
        for f in fields(self):
            if f.name in spec.ignores and getattr(self, f.name) != f.default:
                name = "snapshot" if f.name == "snapshot_path" else f.name
                readers = [t for t, s in _TOPOLOGY.items() if f.name not in s.ignores]
                raise ValueError(f"topology {self.topology} takes no {name}; {name} applies "
                                 f"to the {'/'.join(readers)} topology only")
        if self.p_select is not None and not 0.0 < self.p_select <= 1.0:
            raise ValueError("p_select must be in (0, 1]")
        # a kernel holds each edge's (or chain's) change from k in int64, and
        # the round that fails takes it to k - lo + amount (see _stop_range)
        if spec.kernel is not None:
            lo = _stop_range(self)[0]
            if self.balance + self.amount - lo > _INT64_MAX:
                need = "balance + amount" if lo == 0 else "balance"
                raise ValueError(f"the {self.topology} kernel holds balances in int64: "
                                 f"{self.stop_mode} mode needs {need} <= 2**63 - 1")

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


def _stop_range(cfg: SimConfig) -> tuple[int, int, str]:
    """``(lo, spent, kind)`` for cfg's stop mode: a round fails as ``kind``
    when it takes the balance at an edge's smaller-id end outside
    ``[lo, c - lo]``, and tau counts it iff ``spent``.  The run ends there, so
    a kernel may apply the round before checking it.  An edge whose
    smaller-id end starts below ``lo`` is depleted before the first round."""
    if cfg.stop_mode == "attempt":
        return 0, 0, ATTEMPT_FAILED
    return cfg.amount, 1, DEPLETED


def _first_exit(state: np.ndarray, ids: np.ndarray, steps: np.ndarray, lo: int,
                hi: int) -> int:
    """Index of the first event of a chunk that takes its chain outside [lo, hi].

    Event i adds ``steps[i]`` to ``state[ids[i]]``; every chain starts the
    chunk inside the range.  One sort of the keys (chain id, event index),
    packed into a uint64 (so chain ids stay below 2**(64 - C.bit_length())),
    groups the events by chain in event order, so a running sum per group
    gives each chain's level after each of its events, in O(C log C) for C
    events however many chains there are; the smallest violating event
    index is the answer.  When no event leaves the range, returns -1 and
    applies the chunk to ``state``; otherwise ``state`` is left as it was.
    The sums wrap modulo 2**64, so a level is exact wherever it fits int64,
    as every level up to its chain's first exit does in the kernels.
    """
    shift = np.uint64(len(ids).bit_length())
    keys = np.sort(ids.astype(np.uint64) << shift | np.arange(len(ids), dtype=np.uint64))
    order = (keys & ((np.uint64(1) << shift) - np.uint64(1))).astype(np.intp)
    chain = (keys >> shift).astype(np.intp)
    moved = steps[order]
    heads = np.flatnonzero(np.concatenate(([True], chain[1:] != chain[:-1])))
    run = np.cumsum(moved)
    # less the sum before each group's first event: a running sum per chain
    run -= np.repeat(run[heads] - moved[heads], np.diff(heads, append=len(chain)))
    level = state[chain] + run
    out = (level < lo) | (level > hi)
    if out.any():
        return int(order[out].min())
    tails = np.append(heads[1:], len(chain)) - 1
    state[chain[tails]] = level[tails]
    return -1


def build_graph(cfg: SimConfig) -> ChannelGraph:
    """The snapshot topology's graph; the other topologies run graph-free kernels."""
    return load_graph(cfg.snapshot_path)


def run_payment_process(g: ChannelGraph, cfg: SimConfig, rng: Rng,
                        dag_cache: DagCache | None = None) -> RunOutcome:
    """Execute the random payment process on g until the stop condition.

    Per round: a distinct (source, destination) pair is drawn uniformly, a
    shortest path between them is drawn uniformly, and a payment of
    ``cfg.amount`` moves that amount along every path edge toward the
    destination.  In depletion mode the round is applied and the run stops
    once some edge is left with b_min below the amount; in attempt mode an
    infeasible drawn path is not applied and ends the run.  Either way the
    failing edge is the first such edge on the path.  This is the
    one-amount case of ``_walk``.
    """
    return _walk(g, [cfg.amount], cfg, rng, dag_cache)[0]


def _walk(g: ChannelGraph, amounts: list[int], cfg: SimConfig, rng: Rng,
          dag_cache: DagCache | None = None) -> list[RunOutcome]:
    """run_payment_process at every amount at once, outcomes in the order of
    ``amounts``; cfg gives the stop mode and step cap.

    No draw reads a balance, so the amounts share one net flow f per edge
    (payments out of its smaller-id end) until they stop.  An amount x
    survives a hop iff x·u <= room, from the hop's new f: paying out of the
    smaller-id end, room = c // 2 and u = f + d, else room = c - c // 2 and
    u = d - f, where d is 1 in depletion mode and 0 in attempt mode.  So the
    amounts still running are always the smallest, and each path edge stops
    the largest of them that it bounds.
    """
    _lo, d, kind = _stop_range(cfg)  # d: 1 in depletion mode, where the failing round counts
    order = sorted(range(len(amounts)), key=amounts.__getitem__)
    xs = [amounts[i] for i in order]
    done: list = [None] * len(amounts)
    alive = len(xs)  # xs[:alive] are still running
    capacity = g.capacity
    # an edge's smaller-id end holds c // 2, which is below x iff c < 2x
    while d and alive and 2 * xs[alive - 1] > capacity.min():
        alive -= 1
        done[order[alive]] = RunOutcome(0, int(np.argmax(capacity < 2 * xs[alive])),
                                        DEPLETED, rng.seed)
    # the net flow over each edge this run has paid over; the others hold
    # c // 2 at their smaller-id end, so a run costs what its rounds touch
    flow: dict[int, int] = {}
    cap = capacity.item
    cache = dag_cache if dag_cache is not None else DagCache(g)
    t = 0
    progress = Progress(logger, "payment process", seed=rng.seed, detail=lambda: (
        f", {alive} of {len(xs)} amounts running"
        + (f", DAG cache hit ratio {1 - cache.misses / cache.gets:.3f}"
           if cache.kind == "per-source" else "")))
    while alive and t < cfg.max_steps:
        s, dst = rng.pair(g.node_count)
        dag = cache.get(s, dst)
        path = sample_shortest_path(dag, dst, rng)  # either raises if dst is unreachable
        # sampling remembered each path node's step, so step(b) is a lookup
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
            while alive and xs[alive - 1] * u > room:
                alive -= 1
                done[order[alive]] = RunOutcome(t + d, eid, kind, rng.seed)
            if not alive:
                return done
            flow[eid] = f
        t += 1
        progress(t)
    for i in order[:alive]:
        done[i] = RunOutcome(t, None, STEP_CAP, rng.seed)
    return done


def _clique_fast(n: int, ks: list[int], cfg: SimConfig, rng: Rng) -> list[RunOutcome]:
    """Payment process on a clique of uniform per-side balance k, at every k
    of ``ks`` (see ``_Topology``), via its single-edge form.

    On a clique the drawn shortest path is exactly the edge {u,v}, so drawing
    a distinct pair plus orientation is the same as drawing a uniform edge and
    direction, in distribution; the tests compare the two forms' mean stop
    times.  Each chunk draws its edges, then its direction bits, and goes
    through _first_exit whole, and again for each band it breaks.
    """
    m = n * (n - 1) // 2
    x = cfg.amount
    lo, spent, kind = _stop_range(cfg)
    done = [RunOutcome(0, 0, DEPLETED, rng.seed) for k in ks if k < lo]
    if len(done) == len(ks):
        return done
    band = ks[len(done)] - lo
    dev = np.zeros(m, dtype=np.int64)
    sides = np.array([-x, x], dtype=np.int64)  # each direction bit's step (2x may pass int64)
    t = 0
    progress = Progress(logger, "clique process", seed=rng.seed)
    for chunk in chunk_sizes(128, _CHUNK, cfg.max_steps):
        edges = rng.indices(m, chunk)
        dirs = rng.bits(chunk)  # 1: the larger-id endpoint pays the smaller-id one
        steps = sides.take(dirs)
        while (at := _first_exit(dev, edges, steps, -band, band)) >= 0:
            done.append(RunOutcome(t + at + spent, int(edges[at]), kind, rng.seed))
            if len(done) == len(ks):
                return done
            band = ks[len(done)] - lo
        t += chunk
        progress(t)
    return done + [RunOutcome(t, None, STEP_CAP, rng.seed)] * (len(ks) - len(done))


def _ring_rounds(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                np.ndarray]:
    """The rounds a block of raw words holds, read as ``Rng.pair`` and
    ``randrange(2)`` read them: ``(s, span, r, nxt)``.

    Round j pays from s[j] to (s[j] + span[j]) % n, an antipodal round with
    tie-break draw r[j] (0 for the others), and its draws end before word
    nxt[j].  The block is read only up to its first word that
    ``randrange(n)`` or ``randrange(n - 1)`` could reject.  Every word is
    decoded as if a round started there: s = w[i] % n, the destination from
    w[i + 1] % (n - 1), and, for an antipodal pair, the tie-break bit from
    w[i + 2].  The real rounds start at word 0 and follow
    nxt[i] = i + 2 + antipodal[i].  A round the block holds only in part is
    left out.
    """
    # n >= 3, so n or n - 1 is no power of two and the cut is below 2**64
    bad = w >= np.uint64(min(word_limit(n), word_limit(n - 1)))
    if bad.any():
        w = w[:bad.argmax()]
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
    tie = 2 * span[at] == n
    r = np.zeros(len(at), dtype=np.int64)
    r[tie] = w[at[tie] + 2] & np.uint64(1)
    return every[at], span[at], r, at + 2 + tie


def _ring_arcs(s: np.ndarray, span: np.ndarray, r: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arcs of the rounds from s[j] to (s[j] + span[j]) % n, each as two
    runs of edges: ``(first, split, wrap, clockwise)``.

    Round j crosses edges first[j], ..., split[j] - 1, then 0, ...,
    wrap[j] - 1 (none unless its arc passes edge n - 1).  An antipodal round
    goes clockwise iff its tie-break draw r[j] is 0 from source 0 or 1 from
    any other source (see ``_ring_fast``).
    """
    clockwise = np.where(2 * span == n, (r == 0) == (s == 0), 2 * span < n)
    first = np.where(clockwise, s, (s + span) % n)
    end = first + np.where(clockwise, span, n - span)
    split = np.minimum(end, n)
    return first, split, end - split, clockwise


def _ring_fast(n: int, ks: list[int], cfg: SimConfig, rng: Rng) -> list[RunOutcome]:
    """Payment process on a ring of uniform per-side balance k, at every k of
    ``ks`` (see ``_Topology``), a block of rounds at a time.

    Every shortest path on a ring is an arc, so a round adds ±x to a run of
    ``dev``, where ``dev[i]`` is how far the balance node i can push to i+1
    over edge i has moved from k.  Edge n-1 joins n-1 and 0, and make_ring
    stores its balance at node 0, so ``dev[n-1]`` is the other side of it.
    The draws are those of run_payment_process, so outcomes are identical:
    an antipodal pair (even n) takes one ``randrange(2)``, and r == 0 picks
    the antipode's first BFS predecessor, which lies on the counterclockwise
    arc for every source but 0, because make_ring lists node 0's neighbours
    as [1, n-1].

    Each block of raw words (sizes from ``_RING_WORDS``) is decoded at once
    by ``_ring_rounds``, up to its first word that ``randrange`` could
    reject.  When that word falls in the block's first round, the block goes
    back to ``rng`` and that one round is drawn by ``Rng.pair`` (and
    ``randrange(2)`` for a tie) instead.  Every arc is two runs of edges
    (``_ring_arcs``).  A round moves a balance by at most x, so while the
    smallest slack to the band is h·x, none of the next h rounds can fail:
    when h >= ``_SAFE_ROUNDS`` they are applied together, through one
    difference array over their runs' ends.  Otherwise the next
    ``_SAFE_ROUNDS`` rounds go one at a time, one slice update per run,
    and those past the first h check each run they updated; a failing
    round's first edge past the band, in path order, is the failing edge.
    The words a run does not use go back to ``rng``, so the stream ends
    where the scalar draws of the largest k end it.  Progress is logged
    once per block.
    """
    x = cfg.amount
    lo, spent, kind = _stop_range(cfg)
    done = [RunOutcome(0, 0, DEPLETED, rng.seed) for k in ks if k < lo]
    if len(done) == len(ks):
        return done
    band = ks[len(done)] - lo
    dev = np.zeros(n, dtype=np.int64)
    max_steps = cfg.max_steps
    t = 0
    size, top = _RING_WORDS
    left = np.zeros(0, dtype=np.uint64)  # words the last block's rounds did not use
    progress = Progress(logger, "ring process", seed=rng.seed)
    while t < max_steps:
        w = rng.words(len(left) + size, left)
        size = next_size(size, top)
        s, span, r, nxt = _ring_rounds(w, n)
        if not len(s):  # the block's first round holds a word randrange may reject
            rng.words(0, w)
            src, dst = rng.pair(n)
            d = (dst - src) % n
            s, span, nxt = np.array([src]), np.array([d]), np.zeros(1, dtype=np.int64)
            r, w = np.array([rng.randrange(2) if 2 * d == n else 0]), w[:0]
        first, split, wrap, clockwise = _ring_arcs(s, span, r, n)
        rounds = min(len(s), max_steps - t)
        steps = np.where(clockwise, -x, x)
        keys = None  # the runs' ends, once a block of safe rounds needs them
        j = 0
        while j < rounds:
            h = min(band + int(_MIN(dev)), band - int(_MAX(dev))) // x
            if h >= _SAFE_ROUNDS:
                if keys is None:
                    # round j's runs start at first and 0 and end at split and wrap;
                    # ups count at p and downs at n + 1 + p, a clockwise round's swapped
                    up = clockwise * (n + 1)
                    down = n + 1 - up
                    keys = np.stack((first + up, up, split + down, wrap + down), axis=1).ravel()
                stop = min(j + h, rounds)
                ends = np.bincount(keys[4 * j:4 * stop], minlength=2 * n + 2)
                moved = np.cumsum(ends[:n] - ends[n + 1:2 * n + 1])
                moved *= x
                dev += moved
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
                    # a clockwise payment crosses edges a, ..., b + e - 1 (mod n) and
                    # lowers them, a counterclockwise one raises them from b + e - 1 down
                    hops = np.arange(b - a + e)
                    path = (a + hops if step < 0 else b + e - 1 - hops) % n
                    reach = -dev[path] if step < 0 else dev[path]  # moved the payment's way
                    while _MAX(reach) > band:
                        done.append(RunOutcome(t + i + spent, int(path[np.argmax(reach > band)]),
                                               kind, rng.seed))
                        if len(done) == len(ks):
                            rng.words(0, w[nxt[i]:])
                            return done
                        band = ks[len(done)] - lo
            j = stop
        t += rounds
        left = w[nxt[rounds - 1]:]
        progress(t)
    rng.words(0, left)
    return done + [RunOutcome(t, None, STEP_CAP, rng.seed)] * (len(ks) - len(done))


def run_bdc_process(m: int, k: int, max_steps: int, rng: Rng) -> RunOutcome:
    """Multiple birth-and-death chains: each round one uniform chain moves ±1.

    All m chains start at 0; returns the iteration count at the first time
    some chain reaches ±k.  Each chunk draws its move bits, then, when m > 1,
    its chain indices.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    pos = [0] * m
    t = 0
    progress = Progress(logger, "bdc process", seed=rng.seed)
    for chunk in chunk_sizes(128, _CHUNK, max_steps):
        moves = rng.bits(chunk).tolist()
        chains = rng.indices(m, chunk).tolist() if m > 1 else [0] * chunk
        for e, up in zip(chains, moves):
            p = pos[e] + 1 if up else pos[e] - 1
            pos[e] = p
            t += 1
            if p == k or p == -k:
                return RunOutcome(t, e, DEPLETED, rng.seed)
        progress(t)
    return RunOutcome(t, None, STEP_CAP, rng.seed)


def run_coupled_clique(n: int, k: int, max_steps: int, rng: Rng) -> tuple[RunOutcome, RunOutcome]:
    """Run the clique payment process and the m-chain process on one stream.

    Both processes consume the same (source, destination) draws: the payment
    process updates edge balances on K_n; the chain process updates chain
    f({u,v}) by +1 when the pair follows the fixed orientation (smaller id →
    larger id) and −1 otherwise.  The coupling forces identical stop times.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    m = n * (n - 1) // 2
    capacity = 2 * k
    bal = [k] * m          # process 1: balance at smaller-id endpoint
    pos = [0] * m          # process 2: chain positions
    tau1 = tau2 = None
    edge1 = edge2 = None
    t = 0
    while (tau1 is None or tau2 is None) and t < max_steps:
        s, d = rng.pair(n)
        u, v = (s, d) if s < d else (d, s)
        eid = u * (2 * n - u - 1) // 2 + (v - u - 1)
        forward = s < d  # follows the fixed orientation u -> v
        t += 1
        if tau1 is None:
            b = bal[eid] + (-1 if forward else 1)
            bal[eid] = b
            if b == 0 or b == capacity:
                tau1, edge1 = t, eid
        if tau2 is None:
            p = pos[eid] + (1 if forward else -1)
            pos[eid] = p
            if p == k or p == -k:
                tau2, edge2 = t, eid
    out1 = (RunOutcome(tau1, edge1, DEPLETED, rng.seed) if tau1 is not None
            else RunOutcome(t, None, STEP_CAP, rng.seed))
    out2 = (RunOutcome(tau2, edge2, DEPLETED, rng.seed) if tau2 is not None
            else RunOutcome(t, None, STEP_CAP, rng.seed))
    return out1, out2


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
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if not (0.0 < p_select <= 1.0):
        raise ValueError("p_select must be in (0, 1]")
    return _chains_walk(n, [k], p_select, max_steps, rng)[0]


def _chains_walk(n: int, ks: list[int], p_select: float, max_steps: int,
                 rng: Rng) -> list[RunOutcome]:
    """run_independent_chains at every k of ``ks`` (see ``_Topology``).

    The stream is that of drawing each block of rows as ``random``
    selections, then ``integers(0, 2, int8)`` directions (bit 1: up), read
    from PCG64's raw words.  A block's block·n selection words come first,
    one per chain and row, and are compared as integers with
    ``_selection_cut(p_select)``.  A fork of the stream reads them a window
    of rows at a time, only as far as the run gets.  The stream itself skips
    them with ``advance``, which drops the buffered 32-bit half-word, so
    that is put back, and draws the block's directions whole with
    ``rng.bits``; a run leaves the stream where drawing whole blocks leaves
    it.  Each window is summed at once; only chains close enough to ±k to
    reach it within the window get a row-by-row running sum.
    """
    bitgen = rng.np.bit_generator
    cut = _selection_cut(p_select)
    below = np.uint64(cut) if cut < 1 << 64 else None  # None: p_select = 1, all move
    fork = np.random.PCG64(0)  # its seed is never used: each block sets its state
    pos = np.zeros(n, dtype=np.int64)
    done: list[RunOutcome] = []
    k = ks[0]
    t = 0
    dist = np.zeros(n, dtype=np.int64)  # |pos|
    top = 0  # max |pos|
    progress = Progress(logger, "independent chains", seed=rng.seed)
    for block in chunk_sizes(8, 256, max_steps):
        start = bitgen.state
        fork.state = start  # reads the block's selection words as windows come
        bitgen.advance(block * n)  # past them, dropping the buffered half-word
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = start["has_uint32"], start["uinteger"]
        bitgen.state = state
        steps = rng.bits(block * n).view(np.int8).reshape(block, n)
        steps *= 2
        steps -= 1
        r = 0
        while r < block:
            # a row moves a chain by at most 1, so over the next w rows only
            # chains within w of ±k can reach it; their running sums are exact
            w = min(block - r, max(k - top, _NEAR_ROWS))
            rows = steps[r:r + w]
            if below is not None:
                rows = rows * (fork.random_raw(w * n).reshape(w, n) < below)
            near = np.flatnonzero(dist >= k - w)
            if len(near):
                level = np.abs(pos[near] + np.cumsum(rows[:, near], axis=0))
                while (path := level >= k).any():
                    i = int(np.argmax(path.any(axis=1)))
                    done.append(RunOutcome(t + r + i + 1, int(near[np.argmax(path[i])]),
                                           DEPLETED, rng.seed))
                    if len(done) == len(ks):
                        return done
                    k = ks[len(done)]
            pos += rows.sum(axis=0, dtype=np.int16)
            r += w
            dist = np.abs(pos)
            top = int(dist.max())
        t += block
        progress(t)
    return done + [RunOutcome(t, None, STEP_CAP, rng.seed)] * (len(ks) - len(done))


class _Topology(NamedTuple):
    """A kernel ``(cfg, ks, rng)`` runs one graph-free replica at each k of
    the ascending ``ks``.  No draw reads k, so they share one walk of each
    edge's (or chain's) change, and k stops at the first round that takes a
    change past k - lo (``_stop_range``; k - 1 for the chains), or before
    round 0 on edge 0 if k < lo.  A round that stops the smallest running k
    is checked again for the next, so each k gets its own failing edge."""

    min_nodes: Optional[int]  # fewest cfg.nodes; None: the graph sets n
    kernel: Optional[Callable]  # None: needs a graph
    takes_graph: bool  # whether a caller's graph may replace the kernel
    ignores: tuple[str, ...]  # SimConfig fields its run never reads, so must leave unset


# The one dispatch point for topologies; a snapshot's graph comes from build_graph.
_TOPOLOGY = {
    "clique": _Topology(2, lambda c, ks, rng: _clique_fast(c.nodes, ks, c, rng), True,
                        ("snapshot_path", "p_select")),
    "ring": _Topology(3, lambda c, ks, rng: _ring_fast(c.nodes, ks, c, rng), True,
                      ("snapshot_path", "p_select")),
    "snapshot": _Topology(None, None, True, ("nodes", "balance", "p_select")),
    # without p_select, each chain moves as often as an edge of the n-ring
    "independent": _Topology(1, lambda c, ks, rng: _chains_walk(
        c.nodes, ks, c.p_select or ring_edge_probability(c.nodes), c.max_steps, rng), False,
        ("snapshot_path", "amount", "stop_mode")),
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
        raise ValueError("graph must be connected (take the giant component first)")
    runs = cfg.runs
    pooled = workers > 1 and runs > 1
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
                    "hit ratio %.3f, %s DAGs",
                    ", ".join(replace(cfg, amount=x).config_id() for x in points),
                    runs, rounds, builds, gets, 1 - builds / gets if gets else 0.0,
                    DagCache(graph).kind)
    return [list(outcomes) for outcomes in zip(*(run for run, _b, _g in done))]


def monte_carlo(cfg: SimConfig, graph: Optional[ChannelGraph] = None,
                workers: int = 1) -> list[RunOutcome]:
    """Run cfg.runs independent replicas; outcome i uses run_seed(base_seed, i).

    Results are ordered by run index and bit-identical for a fixed config at
    every worker count: each run's stream depends only on (base_seed, index).
    Without ``graph``, topologies with a graph-free kernel build no graph; a
    caller's graph always runs the generic payment process.
    """
    spec = _TOPOLOGY[cfg.topology]
    if graph is None:
        if spec.kernel is None:
            graph = build_graph(cfg)
    elif not spec.takes_graph:
        raise ValueError(f"{cfg.topology} topology takes no graph")
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
    and horizon."""
    if cfg.topology not in SWEEP_TOPOLOGIES:
        raise ValueError(f"a sweep needs a graph-free topology "
                         f"({', '.join(SWEEP_TOPOLOGIES)}), got {cfg.topology}")
    if k_from > k_to or k_step <= 0:
        raise ValueError("need k_from <= k_to and k_step > 0")
    replace(cfg, balance=k_to)  # SimConfig's checks at the largest balance
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
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=min(amounts),
                    stop_mode=stop_mode, max_steps=max_steps, base_seed=base_seed, runs=runs)
    return list(zip(amounts, _campaign(graph, cfg, amounts, workers)))
