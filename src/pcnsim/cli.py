"""Command-line interface: reproducible campaign recipes over the toolkit.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 property-check
failure (couple-check).  Every command echoes its fully resolved configuration
before running and embeds the same echo in file outputs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .analytics import (bound_report_rows, BOUND_REPORT_COLUMNS, fit_residual,
                        fit_scale, xi_and_bounds)
from .graph import ChannelGraph, load_graph
from .paths import BETWEENNESS_COLUMNS, betweenness_rows, edge_betweenness
from .planner import (PLAN_COLUMNS, apply_plan, load_plan_csv, plan_rows,
                      redistribute_uniform, redistribute_xi_optimized)
from .results import (Aggregate, summarize, write_aggregates_csv, write_csv,
                      write_outcomes_csv, write_sweep_csv)
from .rng import PRNG_ID, Rng, run_seed
from .sim import (SimConfig, STOP_MODES, TOPOLOGIES, capacity_sweep,
                  monte_carlo, multi_amount_experiment, run_coupled_clique)

logger = logging.getLogger(__name__)

ENV_SEED = "PCN_SIM_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PROPERTY = 3


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# recipe keys, their parsers, and a short description (also the file schema)
_KEY_SPECS: dict[str, tuple] = {
    "topology": (str, "clique | ring | snapshot | independent"),
    "nodes": (int, "node count for synthetic topologies / chain count"),
    "balance": (int, "per-side balance k (capacity 2k)"),
    "capacity": (int, "capacity value; per-side k unless capacity_is_total"),
    "capacity_is_total": (lambda s: s.lower() in ("1", "true", "yes"),
                          "read 'capacity' as total c(e) = 2k"),
    "snapshot": (str, "LND describegraph JSON path"),
    "graph": (str, "graph file path (.json snapshot or edge list)"),
    "plan": (str, "capacity plan CSV to apply to the loaded graph"),
    "amount": (int, "payment amount per round"),
    "amounts": (str, "comma-separated amounts for a multi-amount campaign"),
    "stop": (str, "depletion | attempt"),
    "runs": (int, "Monte Carlo replicas"),
    "seed": (int, "base seed (env PCN_SIM_SEED is the fallback)"),
    "max_steps": (int, "step cap per run"),
    "workers": (int, "parallel replicas; 1 = sequential"),
    "out": (str, "output file path"),
    "k_from": (int, "sweep start balance"),
    "k_to": (int, "sweep end balance (inclusive)"),
    "k_step": (int, "sweep step"),
    "runs_per_point": (int, "replicas per sweep point"),
    "horizon": (int, "optional horizon H for Prob{tau <= H} sweep column"),
    "p_select": (float, "independent-chains selection probability"),
    "strategy": (str, "uniform | xi"),
    "model": (str, "fit model: upper | lower"),
    "points": (str, "fit input CSV with columns n,mean_tau"),
    "seeds": (int, "number of seeds for couple-check"),
}


def read_recipe_file(path) -> dict:
    """Flat ``key = value`` document; '#' comments; unknown keys rejected."""
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_SPECS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(sorted(_KEY_SPECS))}"
            )
        parse = _KEY_SPECS[key][0]
        try:
            values[key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def resolve_recipe(args: argparse.Namespace) -> dict:
    """Precedence: flags > config file > environment (seed only) > defaults."""
    recipe: dict = {}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            recipe["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}")
    config_path = getattr(args, "config", None)
    if config_path:
        recipe.update(read_recipe_file(config_path))
    for key in _KEY_SPECS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            recipe[key] = flag_value
    return recipe


def _resolved_balance(recipe: dict) -> int | None:
    """Apply the capacity convention: 'capacity' means per-side k unless
    capacity_is_total is set."""
    if recipe.get("balance") is not None:
        return recipe["balance"]
    cap = recipe.get("capacity")
    if cap is None:
        return None
    if recipe.get("capacity_is_total"):
        if cap % 2 != 0:
            raise ConfigError(f"total capacity must be even, got {cap}")
        return cap // 2
    return cap


def echo_config(resolved: dict) -> None:
    for key in sorted(resolved):
        print(f"{key} = {resolved[key]}")


def base_meta(resolved: dict) -> dict:
    meta = dict(resolved)
    meta["prng_id"] = PRNG_ID
    meta["tool_version"] = __version__
    return meta


def _load_cmd_graph(recipe: dict) -> ChannelGraph:
    path = recipe.get("graph") or recipe.get("snapshot")
    if not path:
        raise ConfigError("a graph is required: pass --graph or --snapshot")
    try:
        g = load_graph(path)
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"cannot load graph {path}: {exc}") from exc
    if recipe.get("plan"):
        try:
            g = g.with_capacities(load_plan_csv(recipe["plan"], g))
        except ValueError as exc:
            raise ConfigError(f"plan {recipe['plan']}: {exc}") from exc
    return g


def _write_nodemap(g: ChannelGraph, out: str, meta: dict) -> None:
    if g.node_keys is None:
        return
    path = Path(out).with_suffix(".nodemap.csv")
    write_csv(path, meta, ["node_id", "pub_key"],
              ((i, key) for i, key in enumerate(g.node_keys)))
    print(f"node map written to {path}")


def _summary_line(agg: Aggregate) -> str:
    """Campaign summary; runs that were all censored have no moments to print."""
    if not agg.count:
        return f"count=0 censored={agg.censored_count}"
    return (f"count={agg.count} min={agg.min} max={agg.max} "
            f"mean={agg.mean:.4g} std={agg.std:.4g} censored={agg.censored_count}")


def cmd_simulate(args) -> int:
    recipe = resolve_recipe(args)
    topology = recipe.get("topology")
    if topology is None and (recipe.get("snapshot") or recipe.get("graph")):
        topology = "snapshot"
    if topology is None:
        raise ConfigError(f"topology is required; valid values: {', '.join(TOPOLOGIES)}")
    if topology not in TOPOLOGIES:
        raise ConfigError(f"unknown topology {topology!r}; valid values: {', '.join(TOPOLOGIES)}")
    if topology != "snapshot":
        given = [key for key in ("graph", "snapshot", "plan") if recipe.get(key)]
        if given:
            raise ConfigError(f"topology {topology} takes no {', '.join(given)} "
                              "(snapshot topology only)")
    balance = _resolved_balance(recipe)
    stop = recipe.get("stop", "attempt" if topology == "snapshot" else "depletion")
    if stop not in STOP_MODES:
        raise ConfigError(f"unknown stop mode {stop!r}; valid values: {', '.join(STOP_MODES)}")
    amounts = None
    if recipe.get("amounts"):
        try:
            amounts = [int(x) for x in str(recipe["amounts"]).split(",") if x.strip()]
        except ValueError:
            raise ConfigError(f"bad amounts list: {recipe['amounts']!r}")
        if any(x < 1 for x in amounts):
            raise ConfigError("amounts must be >= 1")
    common = dict(
        amount=recipe.get("amount", 1),
        stop_mode=stop,
        max_steps=recipe.get("max_steps", 10 ** 12),
        base_seed=recipe.get("seed", 0),
        runs=recipe.get("runs", 1),
    )
    graph = _load_cmd_graph(recipe) if topology == "snapshot" else None
    try:
        if topology == "snapshot":
            cfg = SimConfig(topology="snapshot",
                            snapshot_path=recipe.get("graph") or recipe.get("snapshot"),
                            **common)
        else:
            cfg = SimConfig(topology=topology, nodes=recipe.get("nodes"),
                            balance=balance, p_select=recipe.get("p_select"),
                            **common)
    except ValueError as exc:
        raise ConfigError(str(exc))
    workers = recipe.get("workers", os.cpu_count() or 1)
    # worker count never enters the echo/metadata: outputs are identical at any N
    resolved = dict(cfg.as_dict(), command="simulate")
    if amounts:
        resolved["amounts"] = ",".join(str(x) for x in amounts)
    echo_config(resolved)
    meta = base_meta(resolved)
    out = recipe.get("out")

    if amounts:
        if graph is None:
            raise ConfigError("a multi-amount campaign needs a snapshot or graph file")
        campaigns = multi_amount_experiment(graph, amounts, cfg.runs, cfg.base_seed,
                                            stop_mode=cfg.stop_mode,
                                            max_steps=cfg.max_steps, workers=workers)
        aggregates = []
        for x, outcomes in campaigns:
            agg = summarize(outcomes, config_id=f"x{x}")
            aggregates.append(agg)
            print(f"amount {x}: {_summary_line(agg)}")
            if out:
                stem = Path(out)
                per_amount = stem.with_name(f"{stem.stem}-x{x}{stem.suffix or '.csv'}")
                write_outcomes_csv(outcomes, per_amount, dict(meta, amount=x))
                print(f"outcomes written to {per_amount}")
        if out:
            write_aggregates_csv(aggregates, out, meta)
            _write_nodemap(graph, out, meta)
            print(f"summary written to {out}")
        return EXIT_OK

    outcomes = monte_carlo(cfg, graph=graph, workers=workers)
    agg = summarize(outcomes, config_id=cfg.config_id())
    print(f"{agg.config_id}: {_summary_line(agg)}")
    if out:
        write_outcomes_csv(outcomes, out, meta)
        if graph is not None:
            _write_nodemap(graph, out, meta)
        print(f"outcomes written to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    recipe = resolve_recipe(args)
    topology = recipe.get("topology")
    if topology not in ("clique", "ring", "independent"):
        raise ConfigError("sweep topology must be clique, ring, or independent")
    for key in ("nodes", "k_from", "k_to"):
        if recipe.get(key) is None:
            raise ConfigError(f"sweep requires {key}")
    k_step = recipe.get("k_step", 1)
    runs_per_point = recipe.get("runs_per_point", recipe.get("runs", 10))
    horizon = recipe.get("horizon")
    try:
        cfg = SimConfig(topology=topology, nodes=recipe["nodes"], balance=recipe["k_from"],
                        amount=recipe.get("amount", 1),
                        stop_mode=recipe.get("stop", "depletion"),
                        max_steps=recipe.get("max_steps", 10 ** 12),
                        base_seed=recipe.get("seed", 0), runs=runs_per_point,
                        p_select=recipe.get("p_select"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    workers = recipe.get("workers", os.cpu_count() or 1)
    resolved = dict(cfg.as_dict(), command="sweep",
                    k_from=recipe["k_from"], k_to=recipe["k_to"], k_step=k_step,
                    runs_per_point=runs_per_point)
    resolved.pop("balance", None)
    if horizon is not None:
        resolved["horizon"] = horizon
    echo_config(resolved)
    try:
        points = capacity_sweep(cfg, recipe["k_from"], recipe["k_to"], k_step,
                                runs_per_point, workers=workers, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(str(exc))
    for point in points:
        agg = summarize(point.outcomes, config_id=str(point.balance))
        if agg.count:
            line = (f"k={point.balance}: min={agg.min} mean={agg.mean:.4g} max={agg.max} "
                    f"std={agg.std:.4g} censored={agg.censored_count}")
        else:
            line = f"k={point.balance}: censored={agg.censored_count}"
        if point.p_fail_within_horizon is not None:
            line += f" p_fail<=H={point.p_fail_within_horizon:.4g}"
        print(line)
    out = recipe.get("out")
    if out:
        write_sweep_csv(points, out, base_meta(resolved), horizon=horizon)
        print(f"sweep written to {out}")
    return EXIT_OK


def cmd_betweenness(args) -> int:
    recipe = resolve_recipe(args)
    g = _load_cmd_graph(recipe)
    resolved = {"command": "betweenness", "nodes": g.node_count,
                "edges": g.edge_count, "graph": recipe.get("graph") or recipe.get("snapshot")}
    echo_config(resolved)
    bmap = edge_betweenness(g)
    report = xi_and_bounds(g, bmap)
    print(f"xi = {report.xi!r} at edge {report.argmin_edge}")
    print(f"bounds (unit constants): [{report.lower_bound_value!r}, {report.upper_bound_value!r}]")
    print(f"bounds (proof constants): [{report.proof_lower!r}, {report.proof_upper!r}]")
    for warning in report.warnings:
        print(f"warning: {warning}")
    out = recipe.get("out")
    if out:
        meta = base_meta(resolved)
        write_csv(out, meta, BETWEENNESS_COLUMNS, betweenness_rows(g, bmap))
        print(f"betweenness written to {out}")
        report_meta = dict(meta, xi=report.xi, lower_bound=report.lower_bound_value,
                           upper_bound=report.upper_bound_value,
                           warnings="; ".join(report.warnings))
        report_path = Path(out).with_suffix(".bounds.csv")
        write_csv(report_path, report_meta, BOUND_REPORT_COLUMNS,
                  bound_report_rows(g, bmap, report))
        print(f"bound report written to {report_path}")
        _write_nodemap(g, out, meta)
    return EXIT_OK


def cmd_redistribute(args) -> int:
    recipe = resolve_recipe(args)
    strategy = recipe.get("strategy")
    if strategy not in ("uniform", "xi"):
        raise ConfigError("strategy must be 'uniform' or 'xi'")
    g = _load_cmd_graph(recipe)
    resolved = {"command": "redistribute", "strategy": strategy,
                "nodes": g.node_count, "edges": g.edge_count,
                "graph": recipe.get("graph") or recipe.get("snapshot")}
    echo_config(resolved)
    bmap = edge_betweenness(g)
    plan = (redistribute_uniform(g) if strategy == "uniform"
            else redistribute_xi_optimized(g, bmap))
    print(f"total capacity before = {plan.total_before}, after = {plan.total_after} "
          f"(conserved: {plan.total_before == plan.total_after})")
    xi_before = xi_and_bounds(g, bmap).xi
    xi_after = xi_and_bounds(apply_plan(g, plan), bmap).xi
    print(f"xi before = {xi_before!r}, after = {xi_after!r}")
    out = recipe.get("out")
    if out:
        meta = base_meta(dict(resolved, total_before=plan.total_before,
                              total_after=plan.total_after,
                              conserved=plan.total_before == plan.total_after))
        write_csv(out, meta, PLAN_COLUMNS, plan_rows(g, bmap, plan))
        print(f"plan written to {out}")
        _write_nodemap(g, out, meta)
    return EXIT_OK


def cmd_couple_check(args) -> int:
    recipe = resolve_recipe(args)
    nodes = recipe.get("nodes")
    balance = _resolved_balance(recipe)
    if nodes is None or balance is None:
        raise ConfigError("couple-check requires --nodes and --balance")
    if nodes < 2 or balance < 1:
        raise ConfigError("couple-check needs nodes >= 2 and balance >= 1")
    seeds = recipe.get("seeds", 100)
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    base_seed = recipe.get("seed", 0)
    max_steps = recipe.get("max_steps", 10 ** 12)
    corrupt = bool(getattr(args, "corrupt_map", False))
    resolved = {"command": "couple-check", "nodes": nodes, "balance": balance,
                "seeds": seeds, "seed": base_seed}
    echo_config(resolved)
    mismatches = 0
    for i in range(seeds):
        rng = Rng(run_seed(base_seed, i))
        out1, out2 = run_coupled_clique(nodes, balance, max_steps, rng,
                                        corrupt_map=corrupt)
        if out1.tau != out2.tau:
            mismatches += 1
            print(f"seed index {i}: tau1={out1.tau} != tau2={out2.tau}")
    if mismatches:
        print(f"FAIL: {mismatches}/{seeds} coupled runs disagreed")
        return EXIT_PROPERTY
    print(f"PASS: tau1 == tau2 in all {seeds} coupled runs")
    return EXIT_OK


def cmd_fit(args) -> int:
    recipe = resolve_recipe(args)
    points_path = recipe.get("points")
    model = recipe.get("model")
    balance = _resolved_balance(recipe)
    if not points_path or model is None or balance is None:
        raise ConfigError("fit requires --points, --model, and --balance")
    if model not in ("upper", "lower"):
        raise ConfigError("model must be 'upper' or 'lower'")
    points = []
    try:
        with open(points_path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line or line.lower().startswith("n,"):
                    continue
                n_str, _, y_str = line.partition(",")
                points.append((int(n_str), float(y_str)))
    except OSError as exc:
        raise RuntimeError(f"cannot read points file {points_path}: {exc}") from exc
    except ValueError:
        raise ConfigError(f"points file rows must be 'n,mean_tau' ({points_path})")
    resolved = {"command": "fit", "model": model, "balance": balance,
                "points": points_path, "n_points": len(points)}
    echo_config(resolved)
    try:
        p = fit_scale(points, model, balance)
    except ValueError as exc:
        raise ConfigError(str(exc))
    residual = fit_residual(points, model, balance, p)
    print(f"p = {p!r}")
    print(f"sum squared residual = {residual!r}")
    return EXIT_OK


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key=value recipe file")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--max-steps", dest="max_steps", type=int)
    parser.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcnsim",
                     description="Payment-channel network failure-time simulator")
    parser.add_argument("--version", action="version", version=f"pcnsim {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    p.add_argument("--topology", choices=TOPOLOGIES)
    p.add_argument("--nodes", type=int)
    p.add_argument("--balance", type=int, help="per-side balance k (capacity 2k)")
    p.add_argument("--capacity", type=int,
                   help="capacity value; read as per-side k unless --capacity-is-total")
    p.add_argument("--capacity-is-total", dest="capacity_is_total",
                   action="store_const", const=True)
    p.add_argument("--snapshot", help="LND describegraph JSON")
    p.add_argument("--graph", help="graph file (.json snapshot or edge list)")
    p.add_argument("--plan", help="capacity plan CSV to apply before simulating")
    p.add_argument("--amount", type=int)
    p.add_argument("--amounts", help="comma-separated amounts (multi-amount campaign)")
    p.add_argument("--stop", choices=STOP_MODES)
    p.add_argument("--runs", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--p-select", dest="p_select", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="failure time vs capacity sweep")
    p.add_argument("--topology", choices=("clique", "ring", "independent"))
    p.add_argument("--nodes", type=int)
    p.add_argument("--k-from", dest="k_from", type=int)
    p.add_argument("--k-to", dest="k_to", type=int)
    p.add_argument("--k-step", dest="k_step", type=int)
    p.add_argument("--runs-per-point", dest="runs_per_point", type=int)
    p.add_argument("--amount", type=int)
    p.add_argument("--stop", choices=STOP_MODES)
    p.add_argument("--horizon", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--p-select", dest="p_select", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("betweenness", help="exact edge betweenness and xi bounds")
    p.add_argument("--graph")
    p.add_argument("--snapshot")
    p.add_argument("--plan")
    _add_common(p)
    p.set_defaults(func=cmd_betweenness)

    p = sub.add_parser("redistribute", help="capacity redistribution plans")
    p.add_argument("--graph")
    p.add_argument("--snapshot")
    p.add_argument("--strategy", choices=("uniform", "xi"))
    _add_common(p)
    p.set_defaults(func=cmd_redistribute)

    p = sub.add_parser("couple-check", help="verify the clique/chain coupling")
    p.add_argument("--nodes", type=int)
    p.add_argument("--balance", type=int)
    p.add_argument("--capacity", type=int)
    p.add_argument("--capacity-is-total", dest="capacity_is_total",
                   action="store_const", const=True)
    p.add_argument("--seeds", type=int, help="number of seeds to check")
    p.add_argument("--corrupt-map", dest="corrupt_map", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    _add_common(p)
    p.set_defaults(func=cmd_couple_check)

    p = sub.add_parser("fit", help="least-squares scale constant for bound models")
    p.add_argument("--points", help="CSV with columns n,mean_tau")
    p.add_argument("--model", choices=("upper", "lower"))
    p.add_argument("--balance", type=int)
    p.add_argument("--capacity", type=int)
    p.add_argument("--capacity-is-total", dest="capacity_is_total",
                   action="store_const", const=True)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors, --version, --help
        return 0 if exc.code in (0, None) else exc.code
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
