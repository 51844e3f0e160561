"""The four benchmark workloads.

Each workload writes its seeded inputs, sets up (the timed part users pay
before the first campaign call), runs its campaign through pcnsim's public
API with ``workers=1`` and writes the outputs through pcnsim's ``results``
writers (the timed part), checks invariants on every operation, and names the
README recipe whose rows must equal the library rows.  A campaign takes its
simulation base seed as an argument, so the benchmark can repeat it on fresh
seeds; its inputs (the snapshot files) come from the workload seed alone.

pcnsim is reached through module attributes at call time (``pcnsim.sim.
monte_carlo``, not a name imported once), so the traced run's wrappers see
the benchmark's own calls as well as pcnsim's internal ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import inputs

STEP_CAP = "step_cap_reached"
DEPLETED = "depleted"


@dataclass
class Result:
    """What one campaign produced: output files, outcomes by group, checks."""

    files: list[str] = field(default_factory=list)
    groups: list[tuple[str, int, list]] = field(default_factory=list)  # (label, k, outcomes)
    passes: int = 0  # betweenness-and-plan passes
    data: dict = field(default_factory=dict)  # what failures() needs besides outcomes

    @property
    def outcomes(self) -> list:
        return [o for _label, _k, outs in self.groups for o in outs]

    @property
    def rounds(self) -> int:
        return sum(o.tau for o in self.outcomes)


def _meta(name: str, seed: int) -> dict:
    return {"benchmark_workload": name, "seed": seed}


def _write_nodemap(pcnsim, g, path, meta) -> None:
    pcnsim.results.write_csv(path, meta, ["node_id", "pub_key"],
                             ((i, key) for i, key in enumerate(g.node_keys)))


def depletion_failures(label: str, k: int, outcomes) -> list[str]:
    """Amount-1 depletion: every chain starts k steps from the boundary."""
    return [f"{label}: run {i} tau={o.tau} kind={o.failure_kind} (need depleted, tau >= {k})"
            for i, o in enumerate(outcomes)
            if o.failure_kind != DEPLETED or o.tau < k]


def capped_failures(label: str, max_steps: int, outcomes) -> list[str]:
    """Step-capped runs: 0 <= tau <= max_steps, censored exactly at the cap."""
    return [f"{label}: run {i} tau={o.tau} kind={o.failure_kind} (max_steps {max_steps})"
            for i, o in enumerate(outcomes)
            if not 0 <= o.tau <= max_steps
            or (o.failure_kind == STEP_CAP) != (o.tau == max_steps)]


class Workload:
    name = ""

    def __init__(self, pcnsim, seed: int, workdir: Path):
        self.pcnsim = pcnsim
        self.seed = seed
        self.indir = workdir / "inputs"
        self.indir.mkdir(parents=True, exist_ok=True)

    def make_inputs(self) -> None:
        """Write the seeded input files (untimed)."""

    def setup(self):
        """Timed set-up before the first campaign call; returns campaign state."""
        return None

    def campaign(self, state, out: Path, seed: int) -> Result:
        """One campaign with simulation base seed ``seed``, outputs under ``out``."""
        raise NotImplementedError

    def failures(self, result: Result) -> list[str]:
        """One message per operation whose invariant check failed."""
        raise NotImplementedError

    def cli_recipes(self, out: Path) -> list[tuple[list[str], list[str]]]:
        """README recipes as (argv, output file names) to compare with the library."""
        raise NotImplementedError

    def parity_reference(self, state, workdir: Path) -> tuple[Path, Result | None]:
        """Where the library rows for the CLI recipes are, and the campaign that
        wrote them when it ran only for the parity check."""
        return workdir / "out", None


class ChainKernels(Workload):
    """Clique fast path plus independent chains: rng chunk draws and graph-free kernels."""

    name = "chain_kernels"
    CLIQUE = {"nodes": 200, "balance": 16, "runs": 4}
    SWEEP = {"nodes": 4096, "k_from": 20, "k_to": 60, "k_step": 20, "runs_per_point": 3}

    def setup(self):
        sim = self.pcnsim.sim
        clique = sim.SimConfig(topology="clique", nodes=self.CLIQUE["nodes"],
                               balance=self.CLIQUE["balance"], runs=self.CLIQUE["runs"])
        indep = sim.SimConfig(topology="independent", nodes=self.SWEEP["nodes"],
                              balance=self.SWEEP["k_from"], runs=self.SWEEP["runs_per_point"])
        return clique, indep

    def campaign(self, state, out, seed):
        sim, results = self.pcnsim.sim, self.pcnsim.results
        clique, indep = (replace(cfg, base_seed=seed) for cfg in state)
        meta = _meta(self.name, seed)
        outcomes = sim.monte_carlo(clique, workers=1)
        results.aggregate(outcomes, config_id=clique.config_id())  # the summary the CLI prints
        results.write_outcomes_csv(outcomes, out / "clique.csv", meta)
        s = self.SWEEP
        points = sim.capacity_sweep(indep, s["k_from"], s["k_to"], s["k_step"],
                                    s["runs_per_point"], workers=1)
        results.write_sweep_csv(points, out / "independent_sweep.csv", meta)
        groups = [("clique", clique.balance, outcomes)]
        groups += [(f"independent k={p.balance}", p.balance, p.outcomes) for p in points]
        return Result(files=["clique.csv", "independent_sweep.csv"], groups=groups)

    def failures(self, result):
        return [msg for label, k, outs in result.groups
                for msg in depletion_failures(label, k, outs)]

    def cli_recipes(self, out):
        c, s, seed = self.CLIQUE, self.SWEEP, str(self.seed)
        return [
            (["simulate", "--topology", "clique", "--nodes", str(c["nodes"]),
              "--balance", str(c["balance"]), "--runs", str(c["runs"]), "--seed", seed,
              "--workers", "1", "--out", str(out / "clique.csv")], ["clique.csv"]),
            (["sweep", "--topology", "independent", "--nodes", str(s["nodes"]),
              "--k-from", str(s["k_from"]), "--k-to", str(s["k_to"]),
              "--k-step", str(s["k_step"]), "--runs-per-point", str(s["runs_per_point"]),
              "--seed", seed, "--workers", "1", "--out", str(out / "independent_sweep.csv")],
             ["independent_sweep.csv"]),
        ]


class RingSweep(Workload):
    """Generic round loop on a ring whose DAG cache holds every source."""

    name = "ring_sweep"
    SWEEP = {"nodes": 512, "k_from": 8, "k_to": 16, "k_step": 8, "runs_per_point": 16}

    def setup(self):
        s = self.SWEEP
        return self.pcnsim.sim.SimConfig(topology="ring", nodes=s["nodes"],
                                         balance=s["k_from"], runs=s["runs_per_point"])

    def campaign(self, cfg, out, seed):
        sim, results = self.pcnsim.sim, self.pcnsim.results
        s = self.SWEEP
        points = sim.capacity_sweep(replace(cfg, base_seed=seed), s["k_from"], s["k_to"],
                                    s["k_step"], s["runs_per_point"], workers=1)
        results.write_sweep_csv(points, out / "ring_sweep.csv", _meta(self.name, seed))
        return Result(files=["ring_sweep.csv"],
                      groups=[(f"ring k={p.balance}", p.balance, p.outcomes) for p in points])

    def failures(self, result):
        return [msg for label, k, outs in result.groups
                for msg in depletion_failures(label, k, outs)]

    def cli_recipes(self, out):
        s = self.SWEEP
        return [(["sweep", "--topology", "ring", "--nodes", str(s["nodes"]),
                  "--k-from", str(s["k_from"]), "--k-to", str(s["k_to"]),
                  "--k-step", str(s["k_step"]), "--runs-per-point", str(s["runs_per_point"]),
                  "--seed", str(self.seed), "--workers", "1",
                  "--out", str(out / "ring_sweep.csv")], ["ring_sweep.csv"])]


class SnapshotAttempt(Workload):
    """Attempt-mode multi-amount campaign on a 15k-node snapshot: cache misses."""

    name = "snapshot_attempt"
    GRAPH = {"nodes": 15000, "radius": 3, "rewire": 0.2, "cap_lo": 20_000,
             "cap_hi": 5_000_000, "parallel": 40, "detached": 6}
    # amount * max_steps stays below the smallest per-side balance (cap_lo / 2),
    # so no payment can fail: every run is censored at max_steps and the round
    # count of a campaign is fixed
    CAMPAIGN = {"amounts": (500, 1000), "runs": 2, "max_steps": 3}
    # the CLI prints a summary per amount, which needs an uncensored run
    # (results.aggregate raises otherwise), so the parity recipe uses amounts
    # that usually fail within two rounds; all 8 runs of one survive both
    # rounds with a chance near 1e-6
    PARITY = {"amounts": (30_000, 60_000), "runs": 8, "max_steps": 2}

    def make_inputs(self):
        self.snapshot = self.indir / "snapshot.json"
        inputs.write_snapshot(self.snapshot, self.seed, **self.GRAPH)

    def setup(self):
        return self.pcnsim.graph.load_graph(self.snapshot)

    def campaign(self, g, out, seed, spec=CAMPAIGN):
        sim, results = self.pcnsim.sim, self.pcnsim.results
        meta = _meta(self.name, seed)
        campaigns = sim.multi_amount_experiment(g, list(spec["amounts"]), spec["runs"], seed,
                                                stop_mode="attempt",
                                                max_steps=spec["max_steps"], workers=1)
        files, groups, aggregates = [], [], []
        for x, outcomes in campaigns:
            if not all(o.censored for o in outcomes):  # moments need an uncensored run
                aggregates.append(results.aggregate(outcomes, config_id=f"x{x}"))
            files.append(f"campaign-x{x}.csv")
            results.write_outcomes_csv(outcomes, out / files[-1], dict(meta, amount=x))
            groups.append((f"amount {x}", x, outcomes))
        results.write_aggregates_csv(aggregates, out / "campaign.csv", meta)
        _write_nodemap(self.pcnsim, g, out / "campaign.nodemap.csv", meta)
        return Result(files=files + ["campaign.csv", "campaign.nodemap.csv"], groups=groups,
                      data={"max_steps": spec["max_steps"]})

    def failures(self, result):
        return [msg for label, _x, outs in result.groups
                for msg in capped_failures(label, result.data["max_steps"], outs)]

    def cli_recipes(self, out):
        spec = self.PARITY
        files = [f"campaign-x{x}.csv" for x in spec["amounts"]]
        return [(["simulate", "--snapshot", str(self.snapshot),
                  "--amounts", ",".join(str(x) for x in spec["amounts"]),
                  "--runs", str(spec["runs"]), "--max-steps", str(spec["max_steps"]),
                  "--stop", "attempt", "--seed", str(self.seed), "--workers", "1",
                  "--out", str(out / "campaign.csv")],
                 files + ["campaign.csv", "campaign.nodemap.csv"])]

    def parity_reference(self, g, workdir):
        out = workdir / "parity"
        out.mkdir(exist_ok=True)
        return out, self.campaign(g, out, self.seed, self.PARITY)


class BetweennessPlan(Workload):
    """Exact edge betweenness, xi report and both capacity plans on a snapshot."""

    name = "betweenness_plan"
    GRAPH = {"nodes": 700, "radius": 3, "rewire": 0.2, "cap_lo": 20_000,
             "cap_hi": 5_000_000, "parallel": 10, "detached": 4}
    # a short attempt-mode run on the xi plan, as `simulate --plan` would do
    PLAN_RUNS = 8
    PLAN_MAX_STEPS = 8

    def make_inputs(self):
        self.snapshot = self.indir / "graph.json"
        inputs.write_snapshot(self.snapshot, self.seed, **self.GRAPH)

    def setup(self):
        return self.pcnsim.graph.load_graph(self.snapshot)

    def campaign(self, g, out, seed):
        paths, analytics, planner = self.pcnsim.paths, self.pcnsim.analytics, self.pcnsim.planner
        results, sim = self.pcnsim.results, self.pcnsim.sim
        meta = _meta(self.name, seed)
        bmap = paths.edge_betweenness(g)
        report = analytics.xi_and_bounds(g, bmap)
        results.write_csv(out / "betw.csv", meta, paths.BETWEENNESS_COLUMNS,
                          paths.betweenness_rows(g, bmap))
        results.write_csv(out / "betw.bounds.csv", dict(meta, xi=report.xi),
                          analytics.BOUND_REPORT_COLUMNS,
                          analytics.bound_report_rows(g, bmap, report))
        _write_nodemap(self.pcnsim, g, out / "betw.nodemap.csv", meta)
        uniform = planner.redistribute_uniform(g)
        optimized = planner.redistribute_xi_optimized(g, bmap)
        results.write_csv(out / "uniform.csv", meta, planner.PLAN_COLUMNS,
                          planner.plan_rows(g, bmap, uniform))
        results.write_csv(out / "optimized.csv", meta, planner.PLAN_COLUMNS,
                          planner.plan_rows(g, bmap, optimized))
        cfg = sim.SimConfig(topology="snapshot", snapshot_path=str(out / "optimized.csv"),
                            amount=1, stop_mode="attempt", max_steps=self.PLAN_MAX_STEPS,
                            runs=self.PLAN_RUNS, base_seed=seed)
        outcomes = sim.monte_carlo(cfg, graph=planner.apply_plan(g, optimized), workers=1)
        results.write_outcomes_csv(outcomes, out / "optimized_runs.csv", meta)
        return Result(files=["betw.csv", "betw.bounds.csv", "betw.nodemap.csv", "uniform.csv",
                             "optimized.csv", "optimized_runs.csv"],
                      groups=[("xi plan", 0, outcomes)], passes=1,
                      data={"graph": g, "bmap": bmap, "plans": (uniform, optimized)})

    def failures(self, result):
        g, bmap = result.data["graph"], result.data["bmap"]
        total = sum(g.capacity)
        # an edge is the unique shortest path between its endpoints, so g(e) >= 1
        problems = [f"edge {eid} has g(e) = {v!r} < 1" for eid, v in enumerate(bmap.values)
                    if not v >= 1.0]
        problems += [f"{plan.strategy} plan total {sum(plan.new_capacity)} != {total}"
                     for plan in result.data["plans"] if sum(plan.new_capacity) != total]
        # the betweenness-and-plan pass is one operation, so it fails at most once
        return problems[:1] + [msg for label, _k, outs in result.groups
                               for msg in capped_failures(label, self.PLAN_MAX_STEPS, outs)]

    def cli_recipes(self, out):
        return [(["betweenness", "--snapshot", str(self.snapshot),
                  "--out", str(out / "betw.csv")],
                 ["betw.csv", "betw.bounds.csv", "betw.nodemap.csv"])]


WORKLOADS = {w.name: w for w in (ChainKernels, RingSweep, SnapshotAttempt, BetweennessPlan)}
