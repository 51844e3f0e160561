"""Payment process, birth-and-death chain processes, and Monte Carlo campaigns."""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analytics import ring_edge_probability
from .graph import ChannelGraph, load_graph
from .paths import DagCache, sample_shortest_path
from .rng import Rng, chunk_sizes, run_seed

logger = logging.getLogger(__name__)

STOP_MODES = ("depletion", "attempt")

DEPLETED = "depleted"
ATTEMPT_FAILED = "attempt_failed"
STEP_CAP = "step_cap_reached"

_CHUNK = 1 << 14
_PROGRESS_SECONDS = 10.0
_CLOCK_EVERY = 1 << 12  # ring rounds between reads of the progress clock
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
        if self.p_select is not None:
            if self.topology != "independent":
                raise ValueError(f"p_select applies to the independent topology only, "
                                 f"not {self.topology}")
            if not 0.0 < self.p_select <= 1.0:
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
        d = {
            "topology": self.topology,
            "amount": self.amount,
            "stop_mode": self.stop_mode,
            "max_steps": self.max_steps,
            "base_seed": self.base_seed,
            "runs": self.runs,
        }
        if self.nodes is not None:
            d["nodes"] = self.nodes
        if self.balance is not None:
            d["balance"] = self.balance
        if self.snapshot_path is not None:
            d["snapshot"] = self.snapshot_path
        if self.p_select is not None:
            d["p_select"] = self.p_select
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


class _Progress:
    """Logs a process's round count every ``_PROGRESS_SECONDS`` of wall time.

    Each call reads the clock once, so kernels call it once per chunk or per
    fixed round count.  ``detail`` returns extra text for the line.
    """

    def __init__(self, what: str, seed: int, detail=None):
        self.what, self.seed, self.detail = what, seed, detail
        self.started = time.monotonic()
        self.due = self.started + _PROGRESS_SECONDS

    def __call__(self, t: int) -> None:
        now = time.monotonic()
        if now >= self.due:
            logger.info("%s at %d rounds, %.1f rounds/s%s (seed %d)", self.what, t,
                        t / (now - self.started), self.detail() if self.detail else "",
                        self.seed)
            self.due = now + _PROGRESS_SECONDS


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
    failing edge is the first such edge on the path.
    """
    x = cfg.amount
    lo, spent, kind = _stop_range(cfg)
    capacity = g.capacity
    # an edge's smaller-id end holds c // 2, which is below lo iff c < 2 lo
    if lo and 2 * lo > capacity.min():
        return RunOutcome(0, int(np.argmax(capacity < 2 * lo)), DEPLETED, rng.seed)
    # the balance at the smaller-id end of each edge this run has paid over;
    # the others still hold c // 2, so a run costs what its rounds touch
    bal: dict[int, int] = {}
    cap = capacity.item
    cache = dag_cache if dag_cache is not None else DagCache(g)
    n = g.node_count
    max_steps = cfg.max_steps
    t = 0
    progress = _Progress("payment process", rng.seed, lambda: ", DAG cache hit ratio "
                         f"{1 - cache.misses / cache.gets:.3f}")
    while t < max_steps:
        s, dst = rng.pair(n)
        dag = cache.get(s, dst)
        path = sample_shortest_path(dag, dst, rng)  # either raises if dst is unreachable
        # sampling remembered each path node's step, so step(b) is a lookup;
        # paying from the smaller-id end can only take its balance below lo,
        # paying toward it only above c - lo; a failing round ends the run,
        # so the edges after it need no update
        step = dag.step
        for a, b in zip(path, path[1:]):
            preds, _, edges = step(b)
            eid = edges[preds.index(a)]
            old = bal.get(eid)
            if old is None:
                old = cap(eid) // 2
            if a < b:
                nb = old - x
                ok = nb >= lo
            else:
                nb = old + x
                ok = nb <= cap(eid) - lo
            if not ok:
                return RunOutcome(t + spent, eid, kind, rng.seed)
            bal[eid] = nb
        t += 1
        progress(t)
    return RunOutcome(t, None, STEP_CAP, rng.seed)


def _clique_fast(n: int, capacity: int, cfg: SimConfig, rng: Rng) -> RunOutcome:
    """Payment process on a uniform-capacity clique via its single-edge form.

    On a clique the drawn shortest path is exactly the edge {u,v}, so drawing
    a distinct pair plus orientation is the same as drawing a uniform edge and
    direction; run_coupled_clique verifies the two forms stop together.  Each
    chunk draws its edges, then its direction bits, and goes through
    _first_exit whole.
    """
    m = n * (n - 1) // 2
    x = cfg.amount
    lo, spent, kind = _stop_range(cfg)
    half = capacity // 2
    if half < lo:
        return RunOutcome(0, 0, DEPLETED, rng.seed)
    bal = np.full(m, half, dtype=np.int64)  # the balance at each smaller-id end
    t = 0
    progress = _Progress("clique process", rng.seed)
    for chunk in chunk_sizes(128, _CHUNK, cfg.max_steps):
        edges = rng.indices(m, chunk)
        dirs = rng.bits(chunk)  # 1: the larger-id endpoint pays the smaller-id one
        at = _first_exit(bal, edges, dirs.astype(np.int64) * (2 * x) - x, lo, capacity - lo)
        if at >= 0:
            return RunOutcome(t + at + spent, int(edges[at]), kind, rng.seed)
        t += chunk
        progress(t)
    return RunOutcome(t, None, STEP_CAP, rng.seed)


def _ring_fast(n: int, capacity: int, cfg: SimConfig, rng: Rng) -> RunOutcome:
    """Payment process on a uniform-capacity ring, one arc per round.

    Every shortest path on a ring is an arc, so a round is one or two slice
    updates of ``cw``, where ``cw[i]`` is the balance node i can push to i+1
    over edge i.  Edge n-1 joins n-1 and 0, and make_ring stores its balance
    at node 0, so ``cw[n-1]`` is the other side of it.  The draws are those of
    run_payment_process, so outcomes are identical: an antipodal pair (even n)
    takes one ``randrange(2)``, and r == 0 picks the antipode's first BFS
    predecessor, which lies on the counterclockwise arc for every source but
    0, because make_ring lists node 0's neighbours as [1, n-1].
    """
    x = cfg.amount
    lo, spent, kind = _stop_range(cfg)
    half = capacity // 2
    if half < lo:
        return RunOutcome(0, 0, DEPLETED, rng.seed)
    cw = np.full(n, half, dtype=np.int64)
    hi = capacity - lo  # even capacity: cw[n-1], a larger-id end, has the same range
    max_steps = cfg.max_steps
    t = 0
    progress = _Progress("ring process", rng.seed)
    next_clock = _CLOCK_EVERY
    while t < max_steps:
        s, d = rng.pair(n)
        span = d - s if d > s else d - s + n  # clockwise hops from s to d
        if 2 * span == n:
            clockwise = (rng.randrange(2) == 0) == (s == 0)
        else:
            clockwise = 2 * span < n
        # the arc's edges are first, first+1, ..., end-1 (mod n); a clockwise
        # payment crosses them in ascending order, a counterclockwise one in
        # descending order
        first, end = (s, s + span) if clockwise else (d, s + n if s < d else s)
        segs = ((first, end),) if end <= n else ((first, n), (0, end - n))
        step = -x if clockwise else x
        for a, b in segs:
            cw[a:b] += step
        failing = -1
        if clockwise:
            for a, b in segs:
                v = cw[a:b]
                if v.min() < lo:
                    failing = a + int(np.argmax(v < lo))
                    break
        else:
            for a, b in reversed(segs):
                v = cw[a:b]
                if v.max() > hi:
                    failing = b - 1 - int(np.argmax(v[::-1] > hi))
                    break
        if failing >= 0:
            return RunOutcome(t + spent, failing, kind, rng.seed)
        t += 1
        if t >= next_clock:
            progress(t)
            next_clock += _CLOCK_EVERY
    return RunOutcome(t, None, STEP_CAP, rng.seed)


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
    progress = _Progress("bdc process", rng.seed)
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


def run_coupled_clique(n: int, k: int, max_steps: int, rng: Rng,
                       corrupt_map: bool = False) -> tuple[RunOutcome, RunOutcome]:
    """Run the clique payment process and the m-chain process on one stream.

    Both processes consume the same (source, destination) draws: the payment
    process updates edge balances on K_n; the chain process updates chain
    f({u,v}) by +1 when the pair follows the fixed orientation (smaller id →
    larger id) and −1 otherwise.  The coupling forces identical stop times.

    ``corrupt_map`` is a negative-control hook.  Relabeling chains with any
    bijection would still satisfy the coupling, so the hook makes f
    non-bijective instead: pair 0 drives chain 1 and chain 0 starves, which
    makes the stop times disagree on a constant fraction of seeds (needs
    n >= 3 so that m >= 2).
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
            ce = 1 % m if corrupt_map and eid == 0 else eid
            p = pos[ce] + (1 if forward else -1)
            pos[ce] = p
            if p == k or p == -k:
                tau2, edge2 = t, ce
    out1 = (RunOutcome(tau1, edge1, DEPLETED, rng.seed) if tau1 is not None
            else RunOutcome(t, None, STEP_CAP, rng.seed))
    out2 = (RunOutcome(tau2, edge2, DEPLETED, rng.seed) if tau2 is not None
            else RunOutcome(t, None, STEP_CAP, rng.seed))
    return out1, out2


def run_independent_chains(n: int, k: int, p_select: float, max_steps: int,
                           rng: Rng) -> RunOutcome:
    """n independent chains; each round every chain moves ±1 with prob p_select.

    Unlike the ring these updates are fully independent across chains; the
    expected number of moving chains per round matches the ring when
    p_select = ring_edge_probability(n).  Each block of rows draws its
    selections (``random``), then its directions (``integers``), and is
    summed a window of rows at a time; only chains close enough to ±k to
    reach it within the window get a row-by-row running sum.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if not (0.0 < p_select <= 1.0):
        raise ValueError("p_select must be in (0, 1]")
    gen = rng.np
    pos = np.zeros(n, dtype=np.int64)
    t = 0
    dist = np.zeros(n, dtype=np.int64)  # |pos|
    top = 0  # max |pos|
    progress = _Progress("independent chains", rng.seed)
    for block in chunk_sizes(8, 256, max_steps):
        selected = gen.random((block, n)) < p_select
        moves = gen.integers(0, 2, size=(block, n), dtype=np.int8)
        moves *= 2
        moves -= 1
        moves *= selected
        r = 0
        while r < block:
            # a row moves a chain by at most 1, so over the next w rows only
            # chains within w of ±k can reach it; their running sums are exact
            w = min(block - r, max(k - top, _NEAR_ROWS))
            rows = moves[r:r + w]
            near = np.flatnonzero(dist >= k - w)
            if len(near):
                path = np.abs(pos[near] + np.cumsum(rows[:, near], axis=0)) >= k
                if path.any():
                    i = int(np.argmax(path.any(axis=1)))
                    return RunOutcome(t + r + i + 1, int(near[np.argmax(path[i])]),
                                      DEPLETED, rng.seed)
            pos += rows.sum(axis=0, dtype=np.int16)
            r += w
            dist = np.abs(pos)
            top = int(dist.max())
        t += block
        progress(t)
    return RunOutcome(t, None, STEP_CAP, rng.seed)


class _Topology(NamedTuple):
    min_nodes: Optional[int]  # fewest cfg.nodes; None: the graph sets n
    kernel: Optional[Callable]  # (cfg, rng) -> one graph-free replica; None: needs a graph
    takes_graph: bool  # whether a caller's graph may replace the kernel


# The one dispatch point for topologies; a snapshot's graph comes from build_graph.
_TOPOLOGY = {
    "clique": _Topology(2, lambda c, rng: _clique_fast(c.nodes, 2 * c.balance, c, rng), True),
    "ring": _Topology(3, lambda c, rng: _ring_fast(c.nodes, 2 * c.balance, c, rng), True),
    "snapshot": _Topology(None, None, True),
    # without p_select, each chain moves as often as an edge of the n-ring
    "independent": _Topology(1, lambda c, rng: run_independent_chains(
        c.nodes, c.balance, c.p_select or ring_edge_probability(c.nodes), c.max_steps, rng),
        False),
}
TOPOLOGIES = tuple(_TOPOLOGY)
SWEEP_TOPOLOGIES = tuple(name for name, spec in _TOPOLOGY.items() if spec.kernel is not None)


def _run_single(graph: Optional[ChannelGraph], cfg: SimConfig, run_index: int,
                cache: DagCache | None = None) -> RunOutcome:
    rng = Rng(run_seed(cfg.base_seed, run_index))
    if graph is not None:
        return run_payment_process(graph, cfg, rng, cache)
    return _TOPOLOGY[cfg.topology].kernel(cfg, rng)


def _counted_runs(graph: Optional[ChannelGraph], cfgs: list[SimConfig],
                  cache: DagCache | None, run_index: int) -> list[tuple[RunOutcome, int, int]]:
    """Run run_index of every config on one DAG cache, each with the DAG
    builds and cache gets it took, in the order of cfgs.

    The largest amount runs first.  It stops no later than the others, so
    each smaller amount replays its rounds while an LRU of s–t DAGs still
    holds them, and builds only the rounds past them.
    """
    done: list = [None] * len(cfgs)
    for i in sorted(range(len(cfgs)), key=lambda i: -cfgs[i].amount):
        if cache is None:
            done[i] = (_run_single(graph, cfgs[i], run_index), 0, 0)
            continue
        builds, gets = cache.misses, cache.gets
        outcome = _run_single(graph, cfgs[i], run_index, cache)
        done[i] = (outcome, cache.misses - builds, cache.gets - gets)
    return done


_worker_args: tuple = ()  # set in pool workers only, never in the calling process


def _worker_init(graph, cfgs):
    global _worker_args
    _worker_args = (graph, cfgs, DagCache(graph) if graph is not None else None)


def _worker_run(run_index: int) -> list[tuple[RunOutcome, int, int]]:
    return _counted_runs(*_worker_args, run_index)


def _campaign(graph: Optional[ChannelGraph], cfgs: list[SimConfig],
              workers: int) -> list[list[RunOutcome]]:
    """Each config's outcomes in run order; the configs share runs and base_seed.

    Run-major: each run index goes through all configs before the next one
    starts, on one DAG cache (one per pool worker).  Configs that replay the
    same seeds then draw the same pairs while their DAGs are still cached.
    """
    if graph is not None and not graph.is_connected():
        raise ValueError("graph must be connected (take the giant component first)")
    runs = cfgs[0].runs
    pooled = workers > 1 and runs > 1
    if pooled and "fork" not in multiprocessing.get_all_start_methods():
        logger.warning("fork unavailable; running sequentially")
        pooled = False
    if pooled:
        chunksize = max(1, runs // (workers * 4))
        with multiprocessing.get_context("fork").Pool(
                workers, initializer=_worker_init, initargs=(graph, cfgs)) as pool:
            done = pool.map(_worker_run, range(runs), chunksize)
    else:
        cache = DagCache(graph) if graph is not None else None
        done = [_counted_runs(graph, cfgs, cache, i) for i in range(runs)]
    kind = DagCache(graph).kind if graph is not None else None  # what every cache builds
    campaigns = []
    for cfg, counted in zip(cfgs, zip(*done)):
        outcomes = [outcome for outcome, _builds, _gets in counted]
        if graph is not None:
            builds, gets = sum(c[1] for c in counted), sum(c[2] for c in counted)
            logger.info("%s: %d runs, %d rounds, %d DAG builds, %d DAG cache gets, "
                        "hit ratio %.3f, %s DAGs", cfg.config_id(), len(outcomes),
                        sum(o.tau for o in outcomes), builds, gets,
                        1 - builds / gets if gets else 0.0, kind)
        campaigns.append(outcomes)
    if graph is not None and len(cfgs) > 1:
        # each config reuses the DAGs of the larger amounts run before it, so
        # only the totals tell what the campaign cost
        builds = sum(c[1] for run in done for c in run)
        gets = sum(c[2] for run in done for c in run)
        logger.info("all %d configs: %d runs each, %d %s DAGs built, %d DAG cache gets, "
                    "hit ratio %.3f", len(cfgs), runs, builds, kind, gets,
                    1 - builds / gets if gets else 0.0)
    return campaigns


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
    return _campaign(graph, [cfg], workers)[0]


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
    if horizon is not None and not 0 <= horizon <= cfg.max_steps:
        raise ValueError(f"horizon must be in [0, max_steps], got {horizon}")


def capacity_sweep(cfg: SimConfig, k_from: int, k_to: int, k_step: int,
                   runs_per_point: int, workers: int = 1,
                   horizon: Optional[int] = None) -> list[SweepPoint]:
    """monte_carlo at each balance in [k_from, k_to] stepping k_step.

    The same per-run seeds are reused at every point (common random numbers),
    which makes the mean's growth in k a pathwise property for the chain
    topologies.  ``horizon`` adds an empirical Prob{tau <= horizon} per point.
    """
    check_sweep(cfg, k_from, k_to, k_step, horizon)
    points = []
    for k in range(k_from, k_to + 1, k_step):
        point_cfg = replace(cfg, balance=k, runs=runs_per_point)
        outcomes = monte_carlo(point_cfg, workers=workers)
        p_h = None
        if horizon is not None:
            hit = sum(1 for o in outcomes if not o.censored and o.tau <= horizon)
            p_h = hit / len(outcomes)
        points.append(SweepPoint(k, outcomes, p_h))
    return points


def multi_amount_experiment(graph: ChannelGraph, amounts: list[int], runs: int,
                            base_seed: int, stop_mode: str = "attempt",
                            max_steps: int = 10 ** 12,
                            workers: int = 1) -> list[tuple[int, list[RunOutcome]]]:
    """One campaign per amount on the same graph, outcomes by amount.

    Per-run seeds are shared across amounts, so a larger amount replays the
    same draw sequence and can only stop earlier.  Each run goes through all
    amounts, largest first, before the next run starts, so each smaller
    amount finds the run's DAGs in the cache; the outcomes equal one
    monte_carlo call per amount.
    """
    if not amounts:
        raise ValueError("amounts must be nonempty")
    cfgs = [SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                      stop_mode=stop_mode, max_steps=max_steps, base_seed=base_seed,
                      runs=runs) for x in amounts]
    return list(zip(amounts, _campaign(graph, cfgs, workers)))
