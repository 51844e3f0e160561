"""The benchmark's traced run wraps pcnsim names by string, so a rename or a
retype of one of them fails here, in the test suite, before it breaks
``perfbench/run.py --trace 1``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pcnsim
from pcnsim import Rng, SimConfig, make_ring

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _campaigns():
    # looked up at call time, as the benchmark does, so the wrappers see them
    sim = pcnsim.sim
    g = make_ring(8, 4).with_capacities([6, 9, 4, 8, 7, 5, 10, 6])
    got = [sim.monte_carlo(SimConfig(topology=topology, nodes=6, balance=2, runs=2,
                                     base_seed=1, max_steps=50))
           for topology in ("clique", "ring", "independent")]
    got.append(sim.monte_carlo(SimConfig(topology="snapshot", snapshot_path="<in-memory>",
                                         runs=2, base_seed=1, max_steps=50), graph=g))
    # a one-point grid runs the independent chains through their kernel's
    # walk, so the wrapped one-balance form is called directly
    got.append([sim.run_independent_chains(6, 2, 0.5, 50, Rng(1))])
    sweep = sim.capacity_sweep(SimConfig(topology="ring", nodes=5, balance=1, base_seed=1),
                               1, 3, 2, runs_per_point=2)
    got.append([p.outcomes for p in sweep])
    got.append(sim.multi_amount_experiment(g, [2, 1], runs=2, base_seed=1, max_steps=50))
    # no campaign builds a full DAG (the cache's rows are hop rows), so the
    # wrapped name is called directly
    got.append(pcnsim.paths.sssp_dag(g, 0)._steps)
    return got


def test_traced_names_still_wrap_and_leave_outcomes_unchanged():
    spans = _spans_module()
    plain = _campaigns()
    tracer = spans.Tracer()
    with spans.installed(tracer, pcnsim), tracer.root("campaign") as root:
        traced = _campaigns()
    assert traced == plain
    table = spans.by_name(tracer.spans, root)
    for name in ("sim.monte_carlo[clique]", "sim.run[clique]", "sim.run[ring]",
                 "sim.run[independent]", "sim.run[snapshot]", "sim.round_loop",
                 "sim.independent", "sim.capacity_sweep", "sim.multi_amount",
                 "paths.dag_cache.get", "paths.sssp_dag", "paths.sample", "rng.pair",
                 "rng.indices", "rng.bits", "graph.is_connected"):
        assert table[name]["calls"] > 0, name
    # the counts read off the wrapped runs' results are their taus; the
    # multi-point sweep and the multi-amount walk are not wrapped names
    runs = [o for outcomes in plain[:4] for o in outcomes]
    assert sum(row["count"] for name, row in table.items()
               if name.startswith("sim.run[")) == sum(o.tau for o in runs)
    metrics = spans.per_layer(tracer, root, root, 0, 0.0)
    assert metrics["sim.rounds"] == sum(o.tau for o in runs)
