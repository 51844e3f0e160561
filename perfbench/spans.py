"""Span tracing for the benchmark's traced run.

Wrappers are installed on pcnsim names at the place where each is looked up
(module globals and class attributes), so pcnsim's own calls go through them
too; nothing in pcnsim changes.  Each span records its name, parent span,
operation id, start, end and an optional count.  Spans stay in memory and
are written out once the run ends.  A span's self time is its duration minus
the durations of its direct children; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import time

# span fields
NAME, PARENT, OP, START, END, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops: list[int] = [0]
        self._next_op = 1
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0

    def wrap(self, name, fn, label=None, count=None, new_op=False):
        """Wrap fn in a span; ``label(args)`` refines the name, ``count(args,
        result)`` attaches a count, ``new_op`` starts a new operation id."""
        spans, stack, ops, clock = self.spans, self._stack, self._ops, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                ops.append(self._next_op)
                self._next_op += 1
            rec = [label(args) if label else name, stack[-1] if stack else -1,
                   ops[-1], 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if new_op:
                    ops.pop()
            if count is not None:
                rec[COUNT] = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A root span (set-up or campaign); yields its index.  GC pauses are
        summed from ``gc.callbacks`` while it is open."""
        index = len(self.spans)
        rec = [name, -1, self._ops[-1], 0.0, 0.0, 0]
        self.spans.append(rec)
        self._stack.append(index)
        gc.callbacks.append(self._on_gc)
        rec[START] = time.perf_counter()
        try:
            yield index
        finally:
            rec[END] = time.perf_counter()
            gc.callbacks.remove(self._on_gc)
            self._stack.pop()

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def _hops(_args, path) -> int:
    return len(path) - 1


def _tau(_args, outcome) -> int:
    return outcome.tau


def _file_size(args, _result) -> int:
    return os.path.getsize(args[0])


@contextlib.contextmanager
def installed(tracer: Tracer, pcnsim):
    """Wrap the traced pcnsim names for the duration of the block."""
    graph, paths, sim = pcnsim.graph, pcnsim.paths, pcnsim.sim
    analytics, planner, results, rng = (pcnsim.analytics, pcnsim.planner,
                                        pcnsim.results, pcnsim.rng)
    targets = [
        (rng.Rng, "pair", "rng.pair", {}),
        (rng.Rng, "randrange", "rng.randrange", {}),
        (rng.Rng, "indices", "rng.indices", {"count": lambda a, _r: a[2]}),
        (rng.Rng, "bits", "rng.bits", {}),
        (graph, "load_graph", "graph.load_graph", {}),
        (graph, "parse_snapshot", "graph.parse", {}),
        (graph, "ingest_snapshot", "graph.ingest", {}),
        (graph, "giant_component", "graph.giant", {}),
        (graph.ChannelGraph, "is_connected", "graph.is_connected", {}),
        (sim, "build_graph", "graph.build", {}),
        (paths, "sssp_dag", "paths.sssp_dag", {}),
        (paths.DagCache, "get", "paths.dag_cache.get", {}),
        (sim, "sample_shortest_path", "paths.sample", {"count": _hops}),
        (paths, "edge_betweenness", "paths.betweenness",
         {"count": lambda a, _r: a[0].node_count}),
        (sim, "monte_carlo", "sim.monte_carlo",
         {"label": lambda a: f"sim.monte_carlo[{a[0].topology}]"}),
        (sim, "_run_single", "sim.run",
         {"label": lambda a: f"sim.run[{a[1].topology}]", "count": _tau, "new_op": True}),
        (sim, "run_payment_process", "sim.round_loop", {"count": _tau}),
        (sim, "run_independent_chains", "sim.independent", {"count": _tau}),
        (sim, "capacity_sweep", "sim.capacity_sweep", {}),
        (sim, "multi_amount_experiment", "sim.multi_amount", {}),
        (analytics, "xi_and_bounds", "analytics.xi", {}),
        (planner, "redistribute_uniform", "planner.uniform", {}),
        (planner, "redistribute_xi_optimized", "planner.xi", {}),
        (planner, "apply_plan", "planner.apply", {}),
        (results, "aggregate", "results.aggregate", {}),
        (results, "write_csv", "results.write_csv", {"count": _file_size}),
        (results, "write_outcomes_csv", "results.write_outcomes", {}),
        (results, "write_aggregates_csv", "results.write_aggregates", {}),
        (results, "write_sweep_csv", "results.write_sweep", {}),
    ]
    saved = []
    try:
        for owner, attr, name, opts in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, **opts))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def by_name(spans: list[list], root: int) -> dict[str, dict]:
    """calls / self_s / count totals per span name, over the subtree of root."""
    own = self_times(spans)
    inside = [False] * len(spans)
    inside[root] = True
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if i != root:
            if s[PARENT] < 0 or not inside[s[PARENT]]:
                continue
            inside[i] = True
        row = table.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["self_s"] += own[i]
        row["count"] += s[COUNT]
    return table


LAYERS = ("rng", "graph", "paths", "sim", "analytics", "planner", "results")


def per_layer(tracer: Tracer, setup_root: int, campaign_root: int, censored: int,
              untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of the traced run, by its BENCHMARK.json name."""
    spans = tracer.spans
    setup, camp = by_name(spans, setup_root), by_name(spans, campaign_root)

    def get(name, key="self_s", table=camp):
        return table.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    gets, builds = get("paths.dag_cache.get", "calls"), get("paths.sssp_dag", "calls")
    campaign_s = spans[campaign_root][END] - spans[campaign_root][START]
    metrics = {
        "graph.parse_s": get("graph.parse", table=setup),
        "graph.ingest_s": get("graph.ingest", table=setup),
        "graph.giant_s": get("graph.giant", table=setup),
        "graph.build_s": get("graph.build"),
        "graph.is_connected_s": get("graph.is_connected"),
        "rng.pair.calls": get("rng.pair", "calls"),
        "rng.pair.self_s": get("rng.pair"),
        "rng.randrange.calls": get("rng.randrange", "calls"),
        "rng.indices.draws": get("rng.indices", "count"),
        "rng.indices.self_s": get("rng.indices"),
        "rng.bits.self_s": get("rng.bits"),
        "paths.dag_cache.gets": gets,
        "paths.dag_cache.misses": builds,
        "paths.dag_cache.hit_ratio": ratio(gets - builds, gets),
        "paths.sssp_dag.calls": builds,
        "paths.sssp_dag.self_s": get("paths.sssp_dag"),
        "paths.sssp_dag.us_per_call": 1e6 * ratio(get("paths.sssp_dag"), builds),
        "paths.sample.calls": get("paths.sample", "calls"),
        "paths.sample.self_s": get("paths.sample"),
        "paths.sample.mean_hops": ratio(get("paths.sample", "count"),
                                        get("paths.sample", "calls")),
        "paths.betweenness.self_s": get("paths.betweenness"),
        "paths.betweenness.sources_per_s": ratio(get("paths.betweenness", "count"),
                                                 get("paths.betweenness")),
        "sim.rounds": sum(row["count"] for name, row in camp.items()
                          if name.startswith("sim.run[")),
        "sim.censored_runs": censored,
        "sim.round_loop.self_s": get("sim.round_loop"),
        "sim.clique.self_s": get("sim.monte_carlo[clique]") + get("sim.run[clique]"),
        "sim.independent.self_s": get("sim.independent"),
        "sim.independent.us_per_round": 1e6 * ratio(get("sim.independent"),
                                                    get("sim.independent", "count")),
        "analytics.xi.self_s": get("analytics.xi"),
        "planner.uniform.self_s": get("planner.uniform"),
        "planner.xi.self_s": get("planner.xi"),
        "results.aggregate.self_s": get("results.aggregate"),
        "results.write.self_s": sum(row["self_s"] for name, row in camp.items()
                                    if name.startswith("results.write")),
        "results.bytes_written": get("results.write_csv", "count"),
        "py.gc.collections": tracer.gc_collections,
        "py.gc.pause_s": tracer.gc_pause_s,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(row["self_s"] for name, row in camp.items()
                                               if name.split(".", 1)[0] == layer)
    metrics["trace.root_self_s"] = get("campaign")
    metrics["trace.campaign_s"] = campaign_s
    metrics["trace.untraced_campaign_s"] = untraced_s
    metrics["trace.overhead_s"] = campaign_s - untraced_s
    metrics["trace.spans"] = len(spans)
    return metrics
