from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pcnsim.cli
from pcnsim import (ChannelGraph, Rng, edge_betweenness, make_ring, redistribute_uniform,
                    redistribute_xi_optimized, run_coupled_clique, run_seed)
from pcnsim.cli import main
from pcnsim.graph import load_graph, write_edgelist
from pcnsim.planner import plan_rows
from pcnsim.results import read_csv, read_outcomes_csv

from helpers import log_uniform_capacities, misrouted_chains, small_world_edges


def run_cli(*argv):
    return main(list(argv))


def test_simulate_clique_writes_outcomes(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = run_cli("simulate", "--topology", "clique", "--nodes", "100",
                   "--balance", "16", "--runs", "10", "--seed", "7",
                   "--max-steps", "100000", "--workers", "1", "--out", str(out))
    assert code == 0
    outcomes, meta = read_outcomes_csv(out)
    assert len(outcomes) == 10
    assert meta["topology"] == "clique"
    assert meta["base_seed"] == "7"
    assert "prng_id" in meta and "tool_version" in meta
    echoed = capsys.readouterr().out
    assert "topology = clique" in echoed
    assert "base_seed = 7" in echoed


def test_simulate_invalid_topology_lists_valid_values(capsys):
    code = run_cli("simulate", "--topology", "torus", "--nodes", "5", "--balance", "2")
    assert code == 1
    err = capsys.readouterr().err
    assert "clique" in err and "ring" in err


def test_simulate_missing_topology_is_config_error(capsys):
    code = run_cli("simulate", "--nodes", "5", "--balance", "2")
    assert code == 1
    assert "topology" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(
        "topology = clique\n"
        "nodes = 6\n"
        "balance = 2\n"
        "runs = 3\n"
        "seed = 11\n"
    )
    out = tmp_path / "a.csv"
    code = run_cli("simulate", "--config", str(recipe), "--runs", "2",
                   "--workers", "1", "--out", str(out))
    assert code == 0
    outcomes, meta = read_outcomes_csv(out)
    assert len(outcomes) == 2      # flag beat the file
    assert meta["base_seed"] == "11"


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text("topologie = clique\n")
    code = run_cli("simulate", "--config", str(recipe))
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PCN_SIM_SEED", "4242")
    out = tmp_path / "env.csv"
    code = run_cli("simulate", "--topology", "clique", "--nodes", "5",
                   "--balance", "2", "--runs", "2", "--workers", "1",
                   "--out", str(out))
    assert code == 0
    _, meta = read_outcomes_csv(out)
    assert meta["base_seed"] == "4242"


def test_flag_overrides_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("PCN_SIM_SEED", "4242")
    out = tmp_path / "env2.csv"
    run_cli("simulate", "--topology", "clique", "--nodes", "5", "--balance", "2",
            "--runs", "2", "--seed", "1", "--workers", "1", "--out", str(out))
    _, meta = read_outcomes_csv(out)
    assert meta["base_seed"] == "1"


def test_capacity_convention_flag(tmp_path):
    out_k = tmp_path / "k.csv"
    out_total = tmp_path / "t.csv"
    run_cli("simulate", "--topology", "clique", "--nodes", "4", "--capacity", "8",
            "--runs", "2", "--seed", "3", "--workers", "1", "--out", str(out_k))
    run_cli("simulate", "--topology", "clique", "--nodes", "4", "--capacity", "8",
            "--capacity-is-total", "--runs", "2", "--seed", "3", "--workers", "1",
            "--out", str(out_total))
    _, meta_k = read_outcomes_csv(out_k)
    _, meta_total = read_outcomes_csv(out_total)
    assert meta_k["balance"] == "8"      # capacity read as per-side k
    assert meta_total["balance"] == "4"  # total 8 -> k = 4


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "clique", "--nodes", "5", "--runs", "2", "--workers", "1"],
    ["couple-check", "--nodes", "5", "--seeds", "2"],
    ["fit", "--points", "POINTS", "--model", "lower"],
])
@pytest.mark.parametrize("where", ["flags", "file"])
def test_balance_with_capacity_is_config_error(tmp_path, capsys, argv, where):
    # both name the per-side balance, so the run would silently drop one
    points = tmp_path / "means.csv"
    points.write_text("n,mean_tau\n10,5.0\n")
    argv = [str(points) if arg == "POINTS" else arg for arg in argv]
    if where == "flags":
        argv += ["--balance", "4", "--capacity", "10"]
    else:
        config = tmp_path / "recipe.cfg"
        config.write_text("balance = 4\n")
        argv += ["--config", str(config), "--capacity", "10"]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "either balance or capacity" in err


def test_snapshot_simulation_with_nodemap(tmp_path):
    doc = {
        "nodes": [{"pub_key": k} for k in "ABCDE"],
        "edges": [
            {"node1_pub": "A", "node2_pub": "B", "capacity": "1000"},
            {"node1_pub": "B", "node2_pub": "C", "capacity": "1000"},
            {"node1_pub": "C", "node2_pub": "A", "capacity": "600"},
            {"node1_pub": "D", "node2_pub": "E", "capacity": "400"},
        ],
    }
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps(doc))
    out = tmp_path / "snap_runs.csv"
    code = run_cli("simulate", "--snapshot", str(snap), "--amount", "100",
                   "--runs", "5", "--stop", "attempt", "--seed", "2",
                   "--workers", "1", "--out", str(out))
    assert code == 0
    outcomes, meta = read_outcomes_csv(out)
    assert len(outcomes) == 5
    assert meta["stop_mode"] == "attempt"
    nodemap = out.with_suffix(".nodemap.csv")
    _, columns, rows = read_csv(nodemap)
    assert columns == ["node_id", "pub_key"]
    assert [r[1] for r in rows] == ["A", "B", "C"]  # giant component only


def test_multi_amount_campaign_files(tmp_path):
    doc = {
        "nodes": [{"pub_key": k} for k in "ABC"],
        "edges": [
            {"node1_pub": "A", "node2_pub": "B", "capacity": "2000"},
            {"node1_pub": "B", "node2_pub": "C", "capacity": "2000"},
            {"node1_pub": "C", "node2_pub": "A", "capacity": "2000"},
        ],
    }
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps(doc))
    out = tmp_path / "camp.csv"
    code = run_cli("simulate", "--snapshot", str(snap), "--amounts", "10,100",
                   "--runs", "4", "--seed", "6", "--workers", "1", "--out", str(out))
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns[0] == "config_id"
    assert [r[0] for r in rows] == ["x10", "x100"]
    for x in (10, 100):
        outcomes, _ = read_outcomes_csv(tmp_path / f"camp-x{x}.csv")
        assert len(outcomes) == 4


@pytest.mark.parametrize("workers", ["1", "2"])
def test_multi_amount_keeps_the_callers_order(tmp_path, capsys, workers):
    gpath = tmp_path / "g.edges"
    write_edgelist(make_ring(9, 6).with_capacities([12, 14, 9, 20, 16, 11, 13, 18, 15]), gpath)
    common = ["--graph", str(gpath), "--runs", "6", "--seed", "4", "--max-steps", "400",
              "--workers", workers]
    out = tmp_path / "camp.csv"
    assert run_cli("simulate", *common, "--amounts", "7,1,3", "--out", str(out)) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith(("amount ", "outcomes written to "))]
    assert [line.split(":")[0] for line in printed[0::2]] == ["amount 7", "amount 1",
                                                               "amount 3"]
    assert printed[1::2] == [f"outcomes written to {tmp_path / f'camp-x{x}.csv'}"
                             for x in (7, 1, 3)]
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["x7", "x1", "x3"]
    taus = []
    for x in (7, 1, 3):
        alone = tmp_path / f"alone-x{x}.csv"
        assert run_cli("simulate", *common, "--amount", str(x), "--out", str(alone)) == 0
        meta, _, got = read_csv(tmp_path / f"camp-x{x}.csv")
        assert meta["amount"] == str(x) and got == read_csv(alone)[2]
        taus.append([int(r[2]) for r in got])
    assert taus[0] != taus[1] != taus[2]


def test_betweenness_command(tmp_path, capsys):
    g = make_ring(4, 6)
    gpath = tmp_path / "ring.edges"
    write_edgelist(g, gpath)
    out = tmp_path / "betw.csv"
    code = run_cli("betweenness", "--graph", str(gpath), "--out", str(out))
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["edge_id", "u", "v", "capacity", "betweenness",
                       "selection_probability"]
    assert all(float(r[4]) == pytest.approx(2.0) for r in rows)
    assert all(float(r[5]) == pytest.approx(1 / 3) for r in rows)
    bounds = out.with_suffix(".bounds.csv")
    meta, bcolumns, brows = read_csv(bounds)
    assert bcolumns == ["edge_id", "k", "g", "ratio"]
    assert float(meta["xi"]) == pytest.approx(9 / 2)
    assert "xi =" in capsys.readouterr().out


def test_redistribute_uniform_command(tmp_path, capsys):
    g = make_ring(4, 2)
    g = g.with_capacities([40, 30, 20, 10])
    gpath = tmp_path / "g.edges"
    write_edgelist(g, gpath)
    out = tmp_path / "plan.csv"
    code = run_cli("redistribute", "--graph", str(gpath), "--strategy", "uniform",
                   "--out", str(out))
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["edge_id", "old_capacity", "new_capacity", "betweenness",
                       "new_ratio"]
    assert [int(r[2]) for r in rows] == [25, 25, 25, 25]
    assert meta["conserved"] == "True"
    assert "conserved: True" in capsys.readouterr().out


def test_redistribute_xi_command(tmp_path):
    g = make_ring(5, 8)
    gpath = tmp_path / "g.edges"
    write_edgelist(g, gpath)
    out = tmp_path / "plan.csv"
    code = run_cli("redistribute", "--graph", str(gpath), "--strategy", "xi",
                   "--out", str(out))
    assert code == 0
    meta, _, rows = read_csv(out)
    assert sum(int(r[2]) for r in rows) == 40
    # simulate with the plan applied
    out2 = tmp_path / "runs.csv"
    code = run_cli("simulate", "--graph", str(gpath), "--plan", str(out),
                   "--runs", "3", "--seed", "1", "--workers", "1", "--out", str(out2))
    assert code == 0


@pytest.mark.parametrize("strategy", ["uniform", "xi"])
def test_redistribute_without_channels_is_one_error_line(tmp_path, capsys, strategy):
    gpath = tmp_path / "empty.edges"
    gpath.write_text("2 0\n")
    assert run_cli("redistribute", "--strategy", strategy, "--graph", str(gpath)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the graph has no channels to redistribute"]


@pytest.mark.parametrize("n", [5, 8, 64, 100, 512])
def test_redistribute_xi_keeps_floor_capacity_rings_at_the_floor(tmp_path, capsys, n):
    gpath = tmp_path / "ring.edges"
    write_edgelist(make_ring(n, 2), gpath)
    out = tmp_path / "plan.csv"
    assert run_cli("redistribute", "--graph", str(gpath), "--strategy", "xi",
                   "--out", str(out)) == 0
    _, _, rows = read_csv(out)
    assert [r[2] for r in rows] == ["2"] * n
    xi_line = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("xi before = "))
    before, after = xi_line[len("xi before = "):].split(", after = ")
    assert before == after


@pytest.mark.parametrize("strategy", ["uniform", "xi"])
def test_redistribute_writes_the_library_plan_rows(tmp_path, strategy):
    rng = random.Random(31)
    edges = small_world_edges(rng, 80, radius=3)
    caps = log_uniform_capacities(rng, len(edges), 20_000, 5_000_000)
    gpath = tmp_path / "sw.edges"
    write_edgelist(ChannelGraph(80, [(u, v, c) for (u, v), c in zip(edges, caps)]), gpath)
    out = tmp_path / "plan.csv"
    assert run_cli("redistribute", "--graph", str(gpath), "--strategy", strategy,
                   "--out", str(out)) == 0
    g = load_graph(gpath)
    bmap = edge_betweenness(g)
    plan = redistribute_uniform(g) if strategy == "uniform" else \
        redistribute_xi_optimized(g, bmap)
    _, _, rows = read_csv(out)
    assert rows == [["%s" % value for value in row] for row in plan_rows(g, bmap, plan)]
    runs = tmp_path / "runs.csv"
    assert run_cli("simulate", "--graph", str(gpath), "--plan", str(out), "--amount", "1000",
                   "--stop", "attempt", "--runs", "2", "--max-steps", "50", "--seed", "1",
                   "--workers", "1", "--out", str(runs)) == 0
    assert len(read_outcomes_csv(runs)[0]) == 2


def test_betweenness_warnings_go_to_stderr_once(tmp_path):
    # every edge of a 5-ring with capacity 2 sits below the capacity floor
    gpath = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 2), gpath)
    src = str(Path(pcnsim.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "pcnsim.cli", "betweenness", "--graph",
                           str(gpath)], capture_output=True, text=True, env=env, check=False,
                          timeout=60)
    assert done.returncode == 0
    assert "xi = " in done.stdout and "k_e <=" not in done.stdout
    assert done.stderr.splitlines() == [
        "WARNING pcnsim.analytics: 5 edge(s) have k_e <= 2.0*sqrt(ln n) ~ 2.537; "
        "bounds assume larger capacities"]


def test_redistribute_requires_strategy(capsys):
    assert run_cli("redistribute", "--graph", "whatever.edges") == 1


def test_missing_graph_file_is_runtime_error(tmp_path, capsys):
    code = run_cli("betweenness", "--graph", str(tmp_path / "nope.edges"))
    assert code == 2
    assert "cannot load graph" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("snap.json", json.dumps({"nodes": [{"pub_key": k} for k in "ABC"],
                              "edges": [{"node1_pub": "A", "node2_pub": "B",
                                         "capacity": str(2 ** 63)},
                                        {"node1_pub": "B", "node2_pub": "C",
                                         "capacity": "10"}]})),
    ("g.edges", "3 2\n0 1 10\n1 18446744073709551616 10\n"),
])
def test_graph_value_outside_int64_is_runtime_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli("simulate", "--snapshot", str(path), "--runs", "1", "--workers", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load graph {path}: ") and "outside int64" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("capacity", [12.7, True])
def test_snapshot_capacity_that_is_no_integer_is_runtime_error(tmp_path, capsys, capacity):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps({"nodes": [{"pub_key": k} for k in "AB"],
                                "edges": [{"node1_pub": "A", "node2_pub": "B",
                                           "capacity": capacity}]}))
    assert run_cli("simulate", "--snapshot", str(path), "--runs", "1", "--workers", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load graph {path}: ") and "non-integer capacity" in err
    assert err.count("\n") == 1


def test_env_seed_is_not_read_by_commands_without_a_seed(tmp_path, monkeypatch, capsys):
    gpath = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 4), gpath)
    monkeypatch.setenv("PCN_SIM_SEED", "not-a-number")
    assert run_cli("betweenness", "--graph", str(gpath)) == 0
    assert run_cli("couple-check", "--nodes", "4", "--balance", "2", "--seeds", "2") == 1
    assert "PCN_SIM_SEED must be an integer" in capsys.readouterr().err


def test_couple_check_pass_and_corrupt(capsys, monkeypatch):
    assert run_cli("couple-check", "--nodes", "10", "--balance", "4",
                   "--seeds", "20", "--seed", "3") == 0
    assert "PASS" in capsys.readouterr().out

    def misrouted(n, k, max_steps, rng):
        # the clique's outcome against a chain process with a broken pair map
        clique, _ = run_coupled_clique(n, k, max_steps, Rng(rng.seed))
        return clique, misrouted_chains(n, k, max_steps, rng)

    monkeypatch.setattr(pcnsim.cli, "run_coupled_clique", misrouted)
    assert run_cli("couple-check", "--nodes", "3", "--balance", "2",
                   "--seeds", "60", "--seed", "3") == 3
    assert "FAIL" in capsys.readouterr().out


def test_couple_check_fails_on_the_right_round_at_the_wrong_edge(capsys, monkeypatch):
    def wrong_edge(n, k, max_steps, rng):
        clique, chains = run_coupled_clique(n, k, max_steps, rng)
        return replace(clique, failing_edge=clique.failing_edge ^ 1), chains

    monkeypatch.setattr(pcnsim.cli, "run_coupled_clique", wrong_edge)
    assert run_cli("couple-check", "--nodes", "10", "--balance", "4",
                   "--seeds", "3", "--seed", "0") == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL: 3/3 coupled runs disagreed"
    for i, line in enumerate(lines[-4:-1]):
        clique, chains = run_coupled_clique(10, 4, 10 ** 12, Rng(run_seed(0, i)))
        assert line == (f"seed index {i}: tau1={clique.tau} "
                        f"edge1={clique.failing_edge ^ 1} != tau2={chains.tau} "
                        f"edge2={chains.failing_edge}")


@pytest.mark.parametrize("argv", [("--nodes", "1", "--balance", "2"),
                                  ("--nodes", "5", "--balance", "0")])
def test_couple_check_too_small_is_config_error(argv, capsys):
    assert run_cli("couple-check", *argv) == 1
    captured = capsys.readouterr()
    assert "config error: couple-check needs nodes >= 2" in captured.err
    assert captured.out == ""


def test_couple_check_rejects_nonpositive_seeds(capsys):
    for seeds in ("-3", "0"):
        assert run_cli("couple-check", "--nodes", "4", "--balance", "2",
                       "--seeds", seeds) == 1
        captured = capsys.readouterr()
        assert f"seeds must be >= 1, got {seeds}" in captured.err
        assert "PASS" not in captured.out


def test_simulate_rejects_graph_inputs_for_synthetic_topology(tmp_path, capsys):
    edges = tmp_path / "r5.txt"
    write_edgelist(make_ring(5, 4), edges)
    code = run_cli("simulate", "--topology", "ring", "--nodes", "5", "--balance", "2",
                   "--graph", str(edges), "--plan", str(tmp_path / "nonexistent.csv"))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "config error: topology ring takes no graph, plan (snapshot topology only)"]
    assert captured.out == ""
    assert run_cli("simulate", "--topology", "clique", "--nodes", "5", "--balance", "2",
                   "--snapshot", str(tmp_path / "snap.json")) == 1
    assert "topology clique takes no snapshot" in capsys.readouterr().err


def test_fit_command_recovers_constant(tmp_path, capsys):
    k = 16
    points = tmp_path / "points.csv"
    lines = ["n,mean_tau"]
    for n in (50, 100, 200):
        lines.append(f"{n},{0.031 * k * k * n * n}")
    points.write_text("\n".join(lines) + "\n")
    code = run_cli("fit", "--points", str(points), "--model", "upper",
                   "--balance", str(k))
    assert code == 0
    out = capsys.readouterr().out
    p_line = next(line for line in out.splitlines() if line.startswith("p = "))
    assert float(p_line.split("=")[1]) == pytest.approx(0.031)


def test_fit_single_point(tmp_path, capsys):
    points = tmp_path / "p.csv"
    points.write_text("20,8000\n")
    assert run_cli("fit", "--points", str(points), "--model", "lower",
                   "--balance", "4") == 0
    out = capsys.readouterr().out
    p_line = next(line for line in out.splitlines() if line.startswith("p = "))
    want = 8000 / (16 * 400 / math.log(20))
    assert float(p_line.split("=")[1]) == pytest.approx(want)


@pytest.mark.parametrize("k", ["-16", "0"])
def test_fit_refuses_a_balance_below_one_before_the_echo(tmp_path, capsys, k):
    points = tmp_path / "p.csv"
    points.write_text("20,8000\n")
    assert run_cli("fit", "--points", str(points), "--model", "upper", "--balance", k) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: fit needs balance >= 1\n"


def test_fit_requires_model(tmp_path):
    points = tmp_path / "p.csv"
    points.write_text("20,8000\n")
    assert run_cli("fit", "--points", str(points), "--balance", "4") == 1


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--topology", "clique", "--nodes", "4", "--k-from", "2",
                   "--k-to", "2", "--runs-per-point", "3", "--seed", "5",
                   "--workers", "1", "--out", str(out))
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["capacity", "min", "mean", "max", "std", "censored"]
    assert len(rows) == 1 and rows[0][0] == "2"


def test_sweep_with_horizon_column(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--topology", "independent", "--nodes", "3",
                   "--k-from", "1", "--k-to", "2", "--k-step", "1",
                   "--runs-per-point", "5", "--p-select", "0.5", "--seed", "5",
                   "--horizon", "100", "--workers", "1", "--out", str(out))
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns[-1] == "p_fail_within_100"
    assert len(rows) == 2


def test_simulate_independent_topology(tmp_path):
    out = tmp_path / "indep.csv"
    code = run_cli("simulate", "--topology", "independent", "--nodes", "16",
                   "--balance", "3", "--runs", "4", "--seed", "9",
                   "--workers", "1", "--out", str(out))
    assert code == 0
    outcomes, _ = read_outcomes_csv(out)
    assert len(outcomes) == 4
    assert all(o.failure_kind == "depleted" for o in outcomes)


def test_version_flag():
    assert run_cli("--version") == 0


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "ring", "--nodes", "2", "--balance", "3"],
    ["simulate", "--topology", "clique", "--nodes", "1", "--balance", "3"],
    ["sweep", "--topology", "ring", "--nodes", "2", "--k-from", "1", "--k-to", "2"],
    ["sweep", "--topology", "independent", "--nodes", "0", "--k-from", "1", "--k-to", "2"],
])
def test_too_few_nodes_is_config_error(argv, capsys):
    assert run_cli(*argv, "--workers", "1") == 1
    assert "needs n >=" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "ring", "--nodes", "5", "--balance", "2", "--runs", "2"],
    ["sweep", "--topology", "ring", "--nodes", "5", "--k-from", "1", "--k-to", "2"],
])
def test_workers_below_one_is_config_error(argv, workers, capsys):
    assert run_cli(*argv, "--workers", workers) == 1
    captured = capsys.readouterr()
    assert f"workers must be >= 1, got {workers}" in captured.err
    assert captured.out == ""  # rejected before the config echo


def test_bad_amounts_are_config_errors(tmp_path, capsys):
    g = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 8), g)
    assert run_cli("simulate", "--graph", str(g), "--amount", "0", "--workers", "1") == 1
    assert run_cli("simulate", "--graph", str(g), "--amounts", "3,0", "--workers", "1") == 1
    assert "amount" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "ring", "--nodes", "6", "--balance", "2"],
    ["simulate", "--topology", "clique", "--nodes", "6", "--balance", "2"],
    ["sweep", "--topology", "ring", "--nodes", "6", "--k-from", "1", "--k-to", "2"],
])
def test_p_select_outside_independent_chains_is_config_error(argv, capsys):
    assert run_cli(*argv, "--p-select", "0.3", "--workers", "1") == 1
    out, err = capsys.readouterr()
    assert out == "" and "p_select applies to the independent topology only" in err


@pytest.mark.parametrize("extra", [["--balance", "3"], ["--capacity", "6"], ["--nodes", "5"],
                                   ["--p-select", "0.5"]])
def test_snapshot_rejects_synthetic_topology_options(tmp_path, capsys, extra):
    g = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 8), g)
    assert run_cli("simulate", "--graph", str(g), *extra, "--workers", "1") == 1
    out, err = capsys.readouterr()
    assert out == "" and extra[0][2:].replace("-", "_") in err


def test_amounts_without_a_graph_fail_before_the_echo(capsys):
    code = run_cli("simulate", "--topology", "ring", "--nodes", "6", "--balance", "2",
                   "--amounts", "1,2", "--workers", "1")
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "multi-amount campaign needs a snapshot or graph file" in err


@pytest.mark.parametrize("extra, message", [
    (["--amounts", "1,3", "--amount", "7"], "either amount or amounts"),
    (["--amounts", "5,2,5"], "amounts must be distinct"),
    (["--amounts", "1,3", "--config", "CONFIG"], "either amount or amounts"),
    (["--amounts", ","], "amounts list has no amount"),
    (["--amounts", ""], "amounts list has no amount"),
])
def test_amounts_with_an_amount_or_twice_the_same_are_config_errors(tmp_path, capsys,
                                                                   extra, message):
    g = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 8), g)
    config = tmp_path / "recipe.cfg"
    config.write_text("amount = 7\n")
    extra = [str(config) if arg == "CONFIG" else arg for arg in extra]
    assert run_cli("simulate", "--graph", str(g), *extra, "--workers", "1") == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_amounts_echo_and_metadata_carry_no_single_amount(tmp_path, capsys):
    g = tmp_path / "ring.edges"
    write_edgelist(make_ring(7, 8), g)
    common = ["--graph", str(g), "--runs", "4", "--seed", "5", "--workers", "1"]
    out = tmp_path / "camp.csv"
    assert run_cli("simulate", *common, "--amounts", "1,3", "--out", str(out)) == 0
    echo = capsys.readouterr().out.splitlines()
    assert "amounts = 1,3" in echo and not any(line.startswith("amount =") for line in echo)
    meta, _, _ = read_csv(out)
    assert meta["amounts"] == "1,3" and "amount" not in meta
    for x in (1, 3):
        single = tmp_path / f"single-x{x}.csv"
        assert run_cli("simulate", *common, "--amount", str(x), "--out", str(single)) == 0
        per_meta, columns, rows = read_csv(tmp_path / f"camp-x{x}.csv")
        assert per_meta["amount"] == str(x)
        assert (columns, rows) == read_csv(single)[1:]


def test_simulate_all_censored_prints_censored_summary(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = run_cli("simulate", "--topology", "ring", "--nodes", "8", "--balance", "50",
                   "--runs", "3", "--max-steps", "2", "--seed", "1", "--workers", "1",
                   "--out", str(out))
    assert code == 0
    assert "ring-n8-k50-x1-depletion: count=0 censored=3\n" in capsys.readouterr().out
    outcomes, _ = read_outcomes_csv(out)
    assert [o.tau for o in outcomes] == [2, 2, 2] and all(o.censored for o in outcomes)


def test_sweep_all_censored_point_has_empty_moments(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--topology", "ring", "--nodes", "6", "--k-from", "1",
                   "--k-to", "40", "--k-step", "39", "--runs-per-point", "3",
                   "--max-steps", "3", "--seed", "2", "--workers", "1", "--out", str(out))
    assert code == 0
    assert "k=40: censored=3\n" in capsys.readouterr().out
    _, _, rows = read_csv(out)
    assert rows[0][0] == "1" and rows[0][1] == "1" and rows[0][5] == "0"
    assert rows[1] == ["40", "", "", "", "", "3"]


def test_multi_amount_all_censored_amount_has_empty_moments(tmp_path, capsys):
    g = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 40), g)
    out = tmp_path / "camp.csv"
    code = run_cli("simulate", "--graph", str(g), "--amounts", "1,21", "--runs", "2",
                   "--max-steps", "2", "--seed", "3", "--workers", "1", "--out", str(out))
    assert code == 0
    assert "amount 1: count=0 censored=2\n" in capsys.readouterr().out
    _, _, rows = read_csv(out)
    assert rows[0] == ["x1", "0", "", "", "", "", "2"]
    assert rows[1] == ["x21", "2", "0", "0", "0.0", "0.0", "0"]  # no one can pay 21


def _plan_for(tmp_path, capacities):
    """A ring-5 edge list and a uniform plan CSV written for it."""
    gpath = tmp_path / "g.edges"
    write_edgelist(make_ring(5, 8).with_capacities(capacities), gpath)
    plan = tmp_path / "plan.csv"
    assert run_cli("redistribute", "--graph", str(gpath), "--strategy", "uniform",
                   "--out", str(plan)) == 0
    return gpath, plan


@pytest.mark.parametrize("new_id, message", [("7", "edge ids are not exactly 0..4"),
                                              ("3", "edge_id 3 appears twice")])
def test_plan_with_edge_ids_not_0_to_m_is_config_error(tmp_path, capsys, new_id, message):
    gpath, plan = _plan_for(tmp_path, [8, 8, 8, 8, 8])
    lines = plan.read_text().splitlines()
    last = lines[-1].split(",")
    lines[-1] = ",".join([new_id] + last[1:])  # edge 4 renumbered
    plan.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli("simulate", "--graph", str(gpath), "--plan", str(plan),
                   "--runs", "2", "--workers", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_plan_made_for_another_graph_is_config_error(tmp_path, capsys):
    _, plan = _plan_for(tmp_path, [8, 10, 6, 8, 8])
    other = tmp_path / "other.edges"
    write_edgelist(make_ring(5, 8), other)  # same edge count, other capacities
    capsys.readouterr()
    code = run_cli("simulate", "--graph", str(other), "--plan", str(plan),
                   "--runs", "2", "--workers", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "plan is for another graph: edge 1" in err


def test_plan_without_a_required_column_is_config_error(tmp_path, capsys):
    gpath, plan = _plan_for(tmp_path, [8, 8, 8, 8, 8])
    text = plan.read_text()
    assert text.count("old_capacity") == 1  # the header's column name
    plan.write_text(text.replace("old_capacity", "capacity_before"))
    capsys.readouterr()
    code = run_cli("simulate", "--graph", str(gpath), "--plan", str(plan),
                   "--runs", "2", "--workers", "1")
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: plan {plan}: no old_capacity column: a plan needs "
        "edge_id, old_capacity, new_capacity\n")


def test_disconnected_edge_list_says_only_snapshots_are_cut(tmp_path, capsys):
    gpath = tmp_path / "split.edges"
    gpath.write_text("4 2\n0 1 8\n2 3 8\n")
    code = run_cli("simulate", "--graph", str(gpath), "--runs", "2", "--workers", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: graph must be connected")
    assert "only .json snapshots are cut to their giant component" in err


def test_verbose_leaves_outputs_and_echo_unchanged(tmp_path, capsys, caplog):
    gpath = tmp_path / "g.edges"
    write_edgelist(make_ring(9, 6), gpath)
    runs = {}
    for flag in ([], ["-v"]):
        out = tmp_path / f"runs{len(flag)}.csv"
        caplog.clear()
        with caplog.at_level("INFO", logger="pcnsim"):
            assert run_cli(*flag, "simulate", "--graph", str(gpath), "--runs", "4",
                           "--seed", "5", "--workers", "1", "--out", str(out)) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        runs[bool(flag)] = (stdout, out.read_bytes(), caplog.text)
    assert runs[True][:2] == runs[False][:2]
    assert "4 runs" in runs[True][2] and "DAG builds" in runs[True][2]


@pytest.mark.parametrize("argv,line", [
    (["simulate", "--topology", "clique", "--nodes", "12", "--balance", "5", "--runs", "3"],
     "clique process at "),
    (["sweep", "--topology", "independent", "--nodes", "64", "--k-from", "4", "--k-to", "8",
      "--k-step", "4", "--runs-per-point", "2"], "independent chains at "),
])
def test_verbose_kernel_progress_leaves_outputs_unchanged(tmp_path, capsys, caplog,
                                                          monkeypatch, argv, line):
    monkeypatch.setattr("pcnsim.progress._PROGRESS_SECONDS", 1e-9)  # a line per chunk
    runs = {}
    for flag in ([], ["-v"]):
        out = tmp_path / f"out{len(flag)}.csv"
        caplog.clear()
        with caplog.at_level("INFO", logger="pcnsim"):
            assert run_cli(*flag, *argv, "--seed", "5", "--workers", "1",
                           "--out", str(out)) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        runs[bool(flag)] = (stdout, out.read_bytes(), caplog.text)
    assert runs[True][:2] == runs[False][:2]
    assert line in runs[True][2]


def test_verbose_betweenness_progress_leaves_outputs_unchanged(tmp_path, capsys, caplog,
                                                               monkeypatch):
    gpath = tmp_path / "ring.edges"
    write_edgelist(make_ring(40, 6), gpath)
    runs = {}
    for flag in ([], ["-v"]):
        if flag:
            monkeypatch.setattr("pcnsim.progress._PROGRESS_SECONDS", 1e-9)  # a line per block
            monkeypatch.setattr("pcnsim.paths._BLOCK_BUDGET", 8 * 80)  # 8 sources per block
        out = tmp_path / f"betw{len(flag)}.csv"
        caplog.clear()
        with caplog.at_level("INFO", logger="pcnsim"):
            assert run_cli(*flag, "betweenness", "--graph", str(gpath), "--out", str(out)) == 0
        stdout = capsys.readouterr().out.replace(str(out.with_suffix("")), "OUT")
        runs[bool(flag)] = (stdout, out.read_bytes(),
                            out.with_suffix(".bounds.csv").read_bytes(), caplog.text)
    assert runs[True][:3] == runs[False][:3]
    assert "edge betweenness at " not in runs[False][3]
    assert runs[True][3].count("edge betweenness at ") == 5
    assert "at 40 of 40 sources, " in runs[True][3]


@pytest.mark.parametrize("command,line", [("simulate", "horizon = 7"),
                                          ("simulate", "strategy = xi"),
                                          ("sweep", "runs = 5"),
                                          ("fit", "seeds = 3"),
                                          ("fit", "out = fit.csv"),
                                          ("fit", "seed = 3"),
                                          ("betweenness", "max_steps = 9"),
                                          ("redistribute", "seed = 1"),
                                          ("couple-check", "out = c.csv")])
def test_config_key_without_a_flag_for_the_command_is_rejected(tmp_path, capsys,
                                                               command, line):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(line + "\n")
    assert run_cli(command, "--config", str(recipe)) == 1
    captured = capsys.readouterr()
    key = line.split()[0]
    assert f"unknown key {key!r} for {command}; valid keys: " in captured.err
    # one key each command does take
    listed = {"simulate": "max_steps", "sweep": "max_steps", "fit": "points",
              "betweenness": "out", "redistribute": "out", "couple-check": "seed"}[command]
    assert listed in captured.err.split("valid keys: ")[1] and captured.out == ""


def test_config_key_given_twice_is_config_error(tmp_path, capsys):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text("topology = clique\nnodes = 4\nbalance = 2\nseed = 1\n"
                      "# the seed again\nseed = 2\n")
    assert run_cli("simulate", "--config", str(recipe), "--runs", "1", "--workers", "1") == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {recipe}:6: key 'seed' is already set on line 4\n"
    assert captured.out == ""


@pytest.mark.parametrize("spelling,balance", [("1", "4"), ("TRUE", "4"), ("Yes", "4"),
                                              ("0", "8"), ("false", "8"), ("NO", "8")])
def test_config_bool_spellings(tmp_path, spelling, balance):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(f"topology = clique\nnodes = 4\ncapacity = 8\n"
                      f"capacity_is_total = {spelling}\nruns = 2\n")
    out = tmp_path / "runs.csv"
    assert run_cli("simulate", "--config", str(recipe), "--workers", "1",
                   "--out", str(out)) == 0
    _, meta = read_outcomes_csv(out)
    assert meta["balance"] == balance


@pytest.mark.parametrize("spelling", ["ture", "on", "2", ""])
def test_config_bool_typo_is_config_error(tmp_path, capsys, spelling):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(f"topology = clique\nnodes = 4\ncapacity = 8\n"
                      f"capacity_is_total = {spelling}\n")
    assert run_cli("simulate", "--config", str(recipe), "--workers", "1") == 1
    captured = capsys.readouterr()
    assert f"bad value for capacity_is_total: {spelling!r}" in captured.err
    assert captured.out == ""


def test_config_value_outside_choices_is_config_error(tmp_path, capsys):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text("topology = clique\nnodes = 4\nbalance = 2\nstop = halt\n")
    assert run_cli("simulate", "--config", str(recipe)) == 1
    err = capsys.readouterr().err
    assert "bad value for stop: 'halt'; valid values: depletion, attempt" in err


def test_couple_check_rejects_zero_max_steps(capsys):
    assert run_cli("couple-check", "--nodes", "4", "--balance", "2", "--seeds", "3",
                   "--max-steps", "0") == 1
    captured = capsys.readouterr()
    assert "config error: max_steps must be >= 1" in captured.err
    assert "PASS" not in captured.out


def test_sweep_rejects_negative_horizon(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--topology", "ring", "--nodes", "5", "--k-from", "1",
                   "--k-to", "2", "--horizon", "-3", "--runs-per-point", "2",
                   "--workers", "1", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "horizon must be in [0, max_steps], got -3" in captured.err
    assert captured.out == ""  # rejected before the config echo
    assert not out.exists()


def test_sweep_rejects_snapshot_topology(capsys):
    assert run_cli("sweep", "--topology", "snapshot", "--nodes", "5", "--k-from", "1",
                   "--k-to", "2", "--workers", "1") == 1
    captured = capsys.readouterr()
    assert "sweep topology must be one of clique, ring, independent" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (("--horizon", "11", "--max-steps", "10"), "horizon must be in [0, max_steps], got 11"),
    (("--k-from", "3", "--k-to", "2"), "need k_from <= k_to and k_step > 0"),
])
def test_sweep_rejects_bad_range_before_the_echo(capsys, argv, message):
    assert run_cli("sweep", "--topology", "ring", "--nodes", "5", "--k-from", "1",
                   "--k-to", "2", "--runs-per-point", "2", "--workers", "1", *argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("command,size", [
    ("simulate", ["--balance", "3", "--runs", "3"]),
    ("sweep", ["--k-from", "1", "--k-to", "3", "--runs-per-point", "3"])])
@pytest.mark.parametrize("extra,name", [(["--amount", "7"], "amount"),
                                        (["--stop", "attempt"], "stop_mode"),
                                        (["--amount", "1"], "amount"),
                                        (["--stop", "depletion"], "stop_mode"),
                                        (["--config", "amount = 1"], "amount")])
def test_independent_chains_refuse_amount_and_stop_mode(tmp_path, capsys, command, size, extra,
                                                        name):
    # the chains move by one and stop at depletion whatever these say, so they
    # refuse them even at those defaults, by flag or by config file
    if extra[0] == "--config":
        recipe = tmp_path / "recipe.conf"
        recipe.write_text(extra[1] + "\n")
        extra = ["--config", str(recipe)]
    assert run_cli(command, "--topology", "independent", "--nodes", "16", *size,
                   "--seed", "1", "--workers", "1", *extra) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"config error: topology independent takes no {name};" in err


@pytest.mark.parametrize("argv", [["simulate"], ["betweenness"],
                                  ["redistribute", "--strategy", "xi"]])
def test_graph_with_snapshot_is_config_error(tmp_path, capsys, argv):
    g = tmp_path / "ring.edges"
    write_edgelist(make_ring(5, 8), g)
    assert run_cli(*argv, "--graph", str(g), "--snapshot", str(g)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: pass either graph or snapshot, not both\n"


def test_amount_past_int64_runs(tmp_path, capsys):
    # the kernels count moves of the amount, so they take any amount; no
    # balance of 3 can pay this one, so every run fails on its first round
    out = tmp_path / "o.csv"
    assert run_cli("simulate", "--topology", "clique", "--nodes", "5", "--balance", "3",
                   "--amount", str(10 ** 23), "--stop", "attempt", "--runs", "2",
                   "--workers", "1", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [(tau, kind) for _run, _seed, tau, kind, _edge in rows] == [("0", "attempt_failed")] * 2


@pytest.mark.parametrize("callee,argv", [
    ("monte_carlo", ["simulate", "--topology", "clique", "--nodes", "5", "--balance", "2"]),
    ("run_coupled_clique", ["couple-check", "--nodes", "5", "--balance", "2"])])
@pytest.mark.parametrize("error,line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 22.4 GiB"), "error: out of memory: Unable to allocate "
                                                 "22.4 GiB\n")])
def test_out_of_memory_is_runtime_error(capsys, monkeypatch, callee, argv, error, line):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(pcnsim.cli, callee, exhausted)
    assert run_cli(*argv, "--workers" if callee == "monte_carlo" else "--seeds", "1") == 2
    assert capsys.readouterr().err == line


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    recipe = tmp_path / "bad.cfg"
    recipe.write_bytes(b"topology = clique\n\xff\n")
    assert run_cli("simulate", "--config", str(recipe)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"config error: cannot read config file {recipe}: 'utf-8' codec")


@pytest.mark.parametrize("argv", [
    ["simulate", "--amount", "10", "--runs", "2", "--seed", "1", "--workers", "1"],
    ["betweenness"],
    ["redistribute", "--strategy", "uniform"],
])
def test_node_key_its_node_map_row_cannot_hold_is_refused_before_any_output(
        tmp_path, capsys, argv):
    # written as is, the row of key 'a,b' would read back as 3 fields and
    # that of 'c\nd' as two rows
    snap, out = tmp_path / "snap.json", tmp_path / "runs.csv"
    for bad in ("a,b", "c\nd", "c\rd"):
        keys = ["x", bad, "y"]
        snap.write_text(json.dumps({
            "nodes": [{"pub_key": k} for k in keys],
            "edges": [{"node1_pub": u, "node2_pub": v, "capacity": "1000"}
                      for u, v in zip(keys, keys[1:] + keys[:1])]}))
        assert run_cli(*argv, "--snapshot", str(snap), "--out", str(out)) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == (f"error: cannot load graph {snap}: node key {bad!r} holds a comma, "
                       "CR or LF, which a node-map CSV row cannot hold\n")
        assert list(tmp_path.iterdir()) == [snap]
        # without an out path nothing is written, so nothing is refused
        assert run_cli(*argv, "--snapshot", str(snap)) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [snap]


_NODES_AB = [{"pub_key": "A"}, {"pub_key": "B"}]


@pytest.mark.parametrize("name, text, argv, code, line", [
    ("s.json", {"nodes": 5, "edges": []}, ["simulate", "--snapshot"], 2,
     "error: cannot load graph {path}: snapshot 'nodes' and 'edges' must be lists"),
    ("s.json", {"nodes": [{"pub_key": ["A"]}], "edges": []}, ["simulate", "--snapshot"], 2,
     "error: cannot load graph {path}: malformed node record: {{'pub_key': ['A']}}"),
    ("s.json", {"nodes": _NODES_AB, "edges": [{"node1_pub": ["A"], "node2_pub": "B",
                                                "capacity": 5}]},
     ["simulate", "--snapshot"], 2, "error: cannot load graph {path}: malformed channel record"),
    ("s.json", '{"nodes": ' + "[" * 200000, ["simulate", "--snapshot"], 2,
     "error: cannot load graph {path}: snapshot is nested deeper than the JSON decoder follows"),
    ("plan.csv", "edge_id,old_capacity,new_capacity\n0,10\n",
     ["betweenness", "--graph", "{graph}", "--plan"], 1,
     "config error: plan {path}: row '0,10' has 2 fields, the header 3"),
    ("p.csv", "3,nan\n4,inf\n", ["fit", "--model", "upper", "--balance", "4", "--points"], 1,
     "config error: every mean_tau must be finite"),
    ("p.csv", "n,mean_tau\n3,1.5\n4\n", ["fit", "--model", "upper", "--balance", "4",
                                           "--points"], 1,
     "config error: points file rows must be 'n,mean_tau' ({path})"),
    ("bad.edges", "3\n0 1 4\n", ["betweenness", "--graph"], 2,
     "error: cannot load graph {path}: {path}: first line must be 'n m'"),
    ("bad.edges", "3 2\n0 1 4\n1 2\n", ["betweenness", "--graph"], 2,
     "error: cannot load graph {path}: {path}: bad edge line '1 2'"),
    ("bad.edges", "3 2\n0 1 4\n# 1 2 4\n", ["betweenness", "--graph"], 2,
     "error: cannot load graph {path}: {path}: header claims 2 edges, found 1"),
    ("r.cfg", "topology = clique\n\n# nodes next\nnodes 5\n", ["simulate", "--config"], 1,
     "config error: {path}:4: expected 'key = value', got 'nodes 5'"),
    ("bad.edges", "# ring\nx 2\n0 1 4\n1 2 4\n", ["betweenness", "--graph"], 2,
     "error: cannot load graph {path}: {path}: first line must be 'n m'\n"),
])
def test_malformed_input_ends_in_one_line(tmp_path, capsys, name, text, argv, code, line):
    path = tmp_path / name
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    graph = tmp_path / "g.edges"
    write_edgelist(make_ring(3, 10), graph)
    argv = [a.format(graph=graph) for a in argv]
    assert run_cli(*argv, str(path)) == code
    err = capsys.readouterr().err
    assert err.startswith(line.format(path=path))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, code, line", [
    (["simulate", "--topology", "clique", "--nodes", "5", "--capacity", "5",
      "--capacity-is-total"], 1, "config error: total capacity must be even, got 5"),
    (["betweenness"], 1, "config error: a graph is required: pass --graph or --snapshot"),
    (["sweep", "--topology", "clique", "--nodes", "5", "--k-from", "2"], 1,
     "config error: sweep requires k_to"),
    (["couple-check", "--nodes", "5"], 1,
     "config error: couple-check requires --nodes and --balance"),
    (["fit", "--model", "upper", "--balance", "4", "--points", "{tmp}/nope.csv"], 2,
     "error: cannot read points file {tmp}/nope.csv: "),
])
def test_missing_or_unreadable_input_ends_in_one_line(tmp_path, capsys, argv, code, line):
    assert run_cli(*[a.format(tmp=tmp_path) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(line.format(tmp=tmp_path))
    assert err.count("\n") == 1 and "Traceback" not in err


def test_recipe_file_with_blank_and_comment_lines_runs(tmp_path, capsys):
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text("# a clique campaign\ntopology = clique\n\nnodes = 5  # small\n"
                      "balance = 2\n   \nruns = 2\n")
    assert run_cli("simulate", "--config", str(recipe), "--seed", "3", "--workers", "1") == 0
    echoed = capsys.readouterr().out
    assert "nodes = 5" in echoed and "runs = 2" in echoed


def test_snapshot_path_named_like_json_text_loads(tmp_path, monkeypatch, capsys):
    # a path is read as a path, not as JSON text, though it starts with "{"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{lnd}.json").write_text(json.dumps(
        {"nodes": [{"pub_key": k} for k in "ABC"],
         "edges": [{"node1_pub": a, "node2_pub": b, "capacity": 6} for a, b in ("AB", "BC")]}))
    g = load_graph("{lnd}.json")
    assert (g.node_count, g.edge_count, g.node_keys) == (3, 2, ["A", "B", "C"])
    assert run_cli("betweenness", "--snapshot", "{lnd}.json") == 0
    out = capsys.readouterr().out
    assert "graph = {lnd}.json" in out and "edges = 2" in out


_WRITERS = [
    ["simulate", "--topology", "ring", "--nodes", "8", "--balance", "2", "--runs", "2"],
    ["simulate", "--graph", "{graph}", "--runs", "2"],
    ["simulate", "--graph", "{graph}", "--amounts", "1,2", "--runs", "2"],
    ["sweep", "--topology", "ring", "--nodes", "8", "--k-from", "2", "--k-to", "4"],
    ["betweenness", "--graph", "{graph}"],
    ["redistribute", "--graph", "{graph}", "--strategy", "uniform"],
]


@pytest.mark.parametrize("argv", _WRITERS)
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_out_path_that_cannot_be_written_is_refused_before_the_echo(tmp_path, capsys,
                                                                        argv, where):
    graph = tmp_path / "g.edges"
    write_edgelist(make_ring(5, 8), graph)
    out = tmp_path / "nope" / "b.csv" if where == "missing directory" else tmp_path
    assert run_cli(*[a.format(graph=graph) for a in argv], "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_an_out_write_that_fails_at_write_time_is_a_runtime_error(tmp_path, capsys,
                                                                  monkeypatch):
    def full(*_args):
        raise OSError("cannot write b.csv: [Errno 28] No space left on device")

    monkeypatch.setattr(pcnsim.cli, "write_outcomes_csv", full)
    assert run_cli(*_WRITERS[0], "--out", str(tmp_path / "b.csv")) == 2
    captured = capsys.readouterr()
    assert "count=" in captured.out  # the runs ran; only the write failed
    assert captured.err == "error: cannot write b.csv: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("text, message", [
    ("2,5.0\n", "all n must be >= 3"),
    ("3,5.0\n4,nan\n", "every mean_tau must be finite"),
])
def test_fit_refuses_bad_points_before_the_echo(tmp_path, capsys, text, message):
    points = tmp_path / "p.csv"
    points.write_text(text)
    assert run_cli("fit", "--points", str(points), "--model", "upper", "--balance", "4") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {message}\n"


_SEED_COMMANDS = {
    "simulate": (["simulate", "--topology", "ring", "--nodes", "8", "--balance", "2",
                  "--runs", "1", "--workers", "1"], "base_seed = {seed}"),
    "sweep": (["sweep", "--topology", "ring", "--nodes", "8", "--k-from", "2", "--k-to", "3",
               "--runs-per-point", "1", "--workers", "1"], "base_seed = {seed}"),
    "couple-check": (["couple-check", "--nodes", "4", "--balance", "2", "--seeds", "2"],
                     "seed = {seed}"),
}


def _seed_from(source, seed, tmp_path, monkeypatch):
    """The extra argv that gives ``seed`` by flag, config file or environment."""
    if source == "flag":
        return ["--seed", seed]
    if source == "file":
        recipe = tmp_path / "seed.cfg"
        recipe.write_text(f"seed = {seed}\n")
        return ["--config", str(recipe)]
    monkeypatch.setenv("PCN_SIM_SEED", seed)
    return []


@pytest.mark.parametrize("command", list(_SEED_COMMANDS))
@pytest.mark.parametrize("source", ["flag", "file", "env"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "-7"])
def test_a_base_seed_outside_64_bits_is_refused_before_the_echo(tmp_path, capsys, monkeypatch,
                                                                 command, source, seed):
    argv, _line = _SEED_COMMANDS[command]
    assert run_cli(*argv, *_seed_from(source, seed, tmp_path, monkeypatch)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: base_seed must be in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("command", list(_SEED_COMMANDS))
@pytest.mark.parametrize("source", ["flag", "file", "env"])
@pytest.mark.parametrize("seed", ["0", str(2 ** 64 - 1)])
def test_a_base_seed_at_either_end_of_64_bits_runs(tmp_path, capsys, monkeypatch, command,
                                                    source, seed):
    argv, line = _SEED_COMMANDS[command]
    assert run_cli(*argv, *_seed_from(source, seed, tmp_path, monkeypatch)) == 0
    assert line.format(seed=seed) in capsys.readouterr().out.splitlines()
