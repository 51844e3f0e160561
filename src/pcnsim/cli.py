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
from typing import Callable

from . import __version__
from .analytics import (bound_report_rows, BOUND_REPORT_COLUMNS, fit_residual,
                        fit_scale, xi_and_bounds)
from .graph import ChannelGraph, load_graph
from .paths import BETWEENNESS_COLUMNS, betweenness_rows, edge_betweenness
from .planner import (PLAN_COLUMNS, apply_plan, load_plan_csv, plan_rows,
                      redistribute_uniform, redistribute_xi_optimized)
from .results import (Aggregate, aggregate, write_aggregates_csv, write_csv,
                      write_outcomes_csv, write_sweep_csv)
from .rng import PRNG_ID, Rng, run_seed
from .sim import (SimConfig, STOP_MODES, SWEEP_TOPOLOGIES, TOPOLOGIES, capacity_sweep,
                  check_sweep, monte_carlo, multi_amount_experiment, run_coupled_clique)

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


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return value in ("1", "true", "yes")


@dataclass(frozen=True)
class Option:
    """One recipe key: flag ``--key-with-dashes`` and config-file key ``key``."""

    parse: Callable
    help: str
    commands: tuple[str, ...]
    choices: tuple | None = None
    default: object = None  # CLI-only defaults; SimConfig's fields hold the rest


_CAMPAIGN = ("simulate", "sweep")
_SEEDED = ("simulate", "sweep", "couple-check")
_GRAPH = ("simulate", "betweenness", "redistribute")
_BALANCE = ("simulate", "couple-check", "fit")

# every recipe key, the commands that take it, and its file/flag schema
OPTIONS: dict[str, Option] = {
    "topology": Option(str, "process to simulate (sweep: all but snapshot)", _CAMPAIGN,
                       TOPOLOGIES),
    "nodes": Option(int, "node count for synthetic topologies / chain count",
                    ("simulate", "sweep", "couple-check")),
    "balance": Option(int, "per-side balance k (capacity 2k)", _BALANCE),
    "capacity": Option(int, "capacity value; per-side k unless --capacity-is-total",
                       _BALANCE),
    "capacity_is_total": Option(_parse_bool, "read --capacity as total c(e) = 2k",
                                _BALANCE),
    "snapshot": Option(str, "LND describegraph JSON path", _GRAPH),
    "graph": Option(str, "graph file path (.json snapshot or edge list)", _GRAPH),
    "plan": Option(str, "capacity plan CSV to apply to the loaded graph",
                   ("simulate", "betweenness")),
    "amount": Option(int, "payment amount per round", _CAMPAIGN),
    "amounts": Option(str, "comma-separated amounts (multi-amount campaign)",
                      ("simulate",)),
    "stop": Option(str, "stop mode", _CAMPAIGN, STOP_MODES),
    "runs": Option(int, "Monte Carlo replicas", ("simulate",)),
    "seed": Option(int, f"base seed (env {ENV_SEED} is the fallback)", _SEEDED),
    "max_steps": Option(int, "step cap per run", _SEEDED),
    "workers": Option(int, "parallel replicas; 1 = sequential", _CAMPAIGN,
                      default=os.cpu_count() or 1),
    "out": Option(str, "output file path", ("simulate", "sweep", "betweenness", "redistribute")),
    "k_from": Option(int, "sweep start balance", ("sweep",)),
    "k_to": Option(int, "sweep end balance (inclusive)", ("sweep",)),
    "k_step": Option(int, "sweep step", ("sweep",), default=1),
    "runs_per_point": Option(int, "replicas per sweep point", ("sweep",), default=10),
    "horizon": Option(int, "horizon H for a Prob{tau <= H} sweep column", ("sweep",)),
    "p_select": Option(float, "independent-chains selection probability", _CAMPAIGN),
    "strategy": Option(str, "capacity plan", ("redistribute",), ("uniform", "xi")),
    "model": Option(str, "fit bound model", ("fit",), ("upper", "lower")),
    "points": Option(str, "fit input CSV with columns n,mean_tau", ("fit",)),
    "seeds": Option(int, "number of seeds to check", ("couple-check",), default=100),
}


def _command_keys(command: str) -> list[str]:
    return [key for key, option in OPTIONS.items() if command in option.commands]


def read_recipe_file(path, command: str) -> dict:
    """Flat ``key = value`` document; '#' comments; keys the command has no
    flag for are rejected."""
    keys = _command_keys(command)
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}; "
                              f"valid keys: {', '.join(sorted(keys))}")
        option = OPTIONS[key]
        try:
            values[key] = option.parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if option.choices and values[key] not in option.choices:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}; "
                              f"valid values: {', '.join(option.choices)}")
    return values


def resolve_recipe(args: argparse.Namespace) -> dict:
    """Precedence: flags > config file > environment (seed only) > defaults."""
    keys = _command_keys(args.cmd)
    recipe = {key: OPTIONS[key].default for key in keys if OPTIONS[key].default is not None}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None and "seed" in keys:
        try:
            recipe["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}")
    if args.config:
        recipe.update(read_recipe_file(args.config, args.cmd))
    for key in keys:
        flag_value = getattr(args, key)
        if flag_value is not None:
            recipe[key] = flag_value
    return recipe


def _sim_fields(recipe: dict, *keys: str) -> dict:
    """SimConfig keyword arguments for the given recipe keys that are set;
    SimConfig's field defaults stand for the rest."""
    names = {"seed": "base_seed", "stop": "stop_mode"}
    return {names.get(key, key): recipe[key] for key in keys if key in recipe}


def _resolved_balance(recipe: dict) -> int | None:
    """Apply the capacity convention: 'capacity' means per-side k unless
    capacity_is_total is set.  Both name k, so giving both is an error."""
    cap = recipe.get("capacity")
    if recipe.get("balance") is not None:
        if cap is not None:
            raise ConfigError("pass either balance or capacity, not both")
        return recipe["balance"]
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


def _graph_path(recipe: dict) -> str:
    if recipe.get("graph") and recipe.get("snapshot"):
        raise ConfigError("pass either graph or snapshot, not both")
    path = recipe.get("graph") or recipe.get("snapshot")
    if not path:
        raise ConfigError("a graph is required: pass --graph or --snapshot")
    return path


def _load_cmd_graph(recipe: dict) -> ChannelGraph:
    path = _graph_path(recipe)
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


def _at_least_one(recipe: dict, key: str) -> int:
    if recipe[key] < 1:
        raise ConfigError(f"{key} must be >= 1, got {recipe[key]}")
    return recipe[key]


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
    if topology == "snapshot":
        # the graph file fixes every capacity (SimConfig refuses nodes and balance)
        if recipe.get("capacity") is not None:
            raise ConfigError("a snapshot takes no capacity (its graph file sets them)")
    else:
        given = [key for key in ("graph", "plan") if recipe.get(key)]
        if given:
            raise ConfigError(f"topology {topology} takes no {', '.join(given)} "
                              "(snapshot topology only)")
        if recipe.get("amounts") is not None:
            raise ConfigError("a multi-amount campaign needs a snapshot or graph file")
    balance = _resolved_balance(recipe)
    stop = recipe.get("stop", "attempt" if topology == "snapshot" else "depletion")
    amounts = None
    if recipe.get("amounts") is not None:
        try:
            amounts = [int(x) for x in str(recipe["amounts"]).split(",") if x.strip()]
        except ValueError:
            raise ConfigError(f"bad amounts list: {recipe['amounts']!r}")
        if not amounts:
            raise ConfigError(f"amounts list has no amount: {recipe['amounts']!r}")
        if any(x < 1 for x in amounts):
            raise ConfigError("amounts must be >= 1")
        if len(set(amounts)) < len(amounts):
            # each amount writes its own -x<amount> file
            raise ConfigError(f"amounts must be distinct, got {recipe['amounts']}")
        if recipe.get("amount") is not None:
            raise ConfigError("pass either amount or amounts, not both")
    try:
        cfg = SimConfig(topology=topology, balance=balance, stop_mode=stop,
                        snapshot_path=_graph_path(recipe) if topology == "snapshot"
                        else recipe.get("snapshot") or None,
                        **_sim_fields(recipe, "nodes", "amount", "max_steps", "seed", "runs",
                                      "p_select"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    workers = _at_least_one(recipe, "workers")
    graph = _load_cmd_graph(recipe) if topology == "snapshot" else None
    # worker count never enters the echo/metadata: outputs are identical at any N
    resolved = dict(cfg.as_dict(), command="simulate")
    if amounts:
        # no run uses cfg.amount; each per-amount file names its own amount
        del resolved["amount"]
        resolved["amounts"] = ",".join(str(x) for x in amounts)
    echo_config(resolved)
    meta = base_meta(resolved)
    out = recipe.get("out")

    if amounts:
        campaigns = multi_amount_experiment(graph, amounts, cfg.runs, cfg.base_seed,
                                            stop_mode=cfg.stop_mode,
                                            max_steps=cfg.max_steps, workers=workers)
        aggregates = []
        for x, outcomes in campaigns:
            agg = aggregate(outcomes, config_id=f"x{x}")
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
    agg = aggregate(outcomes, config_id=cfg.config_id())
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
    if topology not in SWEEP_TOPOLOGIES:
        raise ConfigError(f"sweep topology must be one of {', '.join(SWEEP_TOPOLOGIES)}")
    for key in ("nodes", "k_from", "k_to"):
        if recipe.get(key) is None:
            raise ConfigError(f"sweep requires {key}")
    k_step, runs_per_point = recipe["k_step"], recipe["runs_per_point"]
    horizon = recipe.get("horizon")
    try:
        cfg = SimConfig(topology=topology, nodes=recipe["nodes"], balance=recipe["k_from"],
                        runs=runs_per_point,
                        **_sim_fields(recipe, "amount", "stop", "max_steps", "seed",
                                      "p_select"))
        check_sweep(cfg, recipe["k_from"], recipe["k_to"], k_step, horizon)
    except ValueError as exc:
        raise ConfigError(str(exc))
    workers = _at_least_one(recipe, "workers")
    resolved = dict(cfg.as_dict(), command="sweep",
                    k_from=recipe["k_from"], k_to=recipe["k_to"], k_step=k_step,
                    runs_per_point=runs_per_point)
    resolved.pop("balance", None)
    if horizon is not None:
        resolved["horizon"] = horizon
    echo_config(resolved)
    points = capacity_sweep(cfg, recipe["k_from"], recipe["k_to"], k_step, runs_per_point,
                            workers=workers, horizon=horizon)
    for point in points:
        agg = aggregate(point.outcomes, config_id=str(point.balance))
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
                "edges": g.edge_count, "graph": _graph_path(recipe)}
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
                "nodes": g.node_count, "edges": g.edge_count, "graph": _graph_path(recipe)}
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
    seeds = _at_least_one(recipe, "seeds")
    try:
        cfg = SimConfig(topology="clique", nodes=nodes, balance=balance,
                        **_sim_fields(recipe, "max_steps", "seed"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    resolved = {"command": "couple-check", "nodes": nodes, "balance": balance,
                "seeds": seeds, "seed": cfg.base_seed}
    echo_config(resolved)
    mismatches = 0
    for i in range(seeds):
        rng = Rng(run_seed(cfg.base_seed, i))
        out1, out2 = run_coupled_clique(nodes, balance, cfg.max_steps, rng)
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


_COMMANDS = {
    "simulate": (cmd_simulate, "run a Monte Carlo campaign"),
    "sweep": (cmd_sweep, "failure time vs capacity sweep"),
    "betweenness": (cmd_betweenness, "exact edge betweenness and xi bounds"),
    "redistribute": (cmd_redistribute, "capacity redistribution plans"),
    "couple-check": (cmd_couple_check, "verify the clique/chain coupling"),
    "fit": (cmd_fit, "least-squares scale constant for bound models"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcnsim",
                     description="Payment-channel network failure-time simulator")
    parser.add_argument("--version", action="version", version=f"pcnsim {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for command, (func, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key = value recipe file")
        for key in _command_keys(command):
            option = OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if option.parse is _parse_bool:
                p.add_argument(flag, dest=key, action="store_const", const=True,
                               help=option.help)
            else:
                p.add_argument(flag, dest=key, type=option.parse, choices=option.choices,
                               help=option.help)
        p.set_defaults(func=func)
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
    except MemoryError as exc:  # a list's carries no message, numpy's names the array
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
