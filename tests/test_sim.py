from __future__ import annotations

import json
import logging
import multiprocessing
import os
import random
import re
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcnsim.sim
from pcnsim import (ChannelGraph, Rng, SimConfig, make_clique,
                    make_ring, monte_carlo, multi_amount_experiment,
                    run_bdc_process, run_coupled_clique, run_independent_chains,
                    run_payment_process, run_seed)
from pcnsim.paths import DagCache
from pcnsim.rng import word_limit
from pcnsim.sim import (STEP_CAP, TOPOLOGIES, _clique_fast, _ring_fast, build_graph,
                        capacity_sweep)

from helpers import (misrouted_chains, oracle_clique_fast, oracle_independent_chains,
                     oracle_payment_process, oracle_ring_fast, random_connected_edges)


def test_ring3_unit_balance_always_fails_first_round():
    cfg = SimConfig(topology="ring", nodes=3, balance=1, runs=25, base_seed=4)
    for out in monte_carlo(cfg):
        assert out.tau == 1
        assert out.failure_kind == "depleted"
        assert out.failing_edge is not None


def test_two_node_clique_first_payment_depletes():
    for seed in range(10):
        rng = Rng(seed)
        cfg = SimConfig(topology="clique", nodes=2, balance=1, runs=1, base_seed=0)
        out = _clique_fast(cfg, [1], rng)[0]
        assert out.tau == 1 and out.failure_kind == "depleted"
    out = run_payment_process(make_clique(2, 2), cfg, Rng(5))
    assert out.tau == 1


def test_depleted_at_start_returns_zero():
    g = ChannelGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    cfg = SimConfig(topology="ring", nodes=3, balance=1, amount=5, runs=1)
    out = run_payment_process(g, cfg, Rng(0))
    assert out.tau == 0 and out.failure_kind == "depleted"


def test_bdc_trivial_cases():
    assert run_bdc_process(1, 1, 10 ** 6, Rng(1)).tau == 1
    assert run_bdc_process(3, 1, 10 ** 6, Rng(2)).tau == 1
    with pytest.raises(ValueError):
        run_bdc_process(0, 1, 10, Rng(1))


def test_bdc_single_chain_mean_near_k_squared():
    taus = [run_bdc_process(1, 10, 10 ** 9, Rng(run_seed(77, i))).tau
            for i in range(10_000)]
    mean = statistics.mean(taus)
    assert abs(mean - 100) <= 5  # closed-form mean 100 within 5%


def test_coupled_clique_trivial_and_exact():
    out1, out2 = run_coupled_clique(2, 1, 10 ** 6, Rng(0))
    assert out1.tau == out2.tau == 1
    for i in range(100):
        o1, o2 = run_coupled_clique(10, 4, 10 ** 9, Rng(run_seed(9, i)))
        assert o1.tau == o2.tau
        assert o1.failing_edge == o2.failing_edge


def test_coupled_clique_corrupt_map_detected():
    # a chain process whose pair -> chain map is no bijection, on the same
    # draws, must stop at another time than the clique on some seeds
    mismatch = 0
    for i in range(80):
        clique, chains = run_coupled_clique(3, 2, 10 ** 7, Rng(run_seed(13, i)))
        assert clique.tau == chains.tau
        mismatch += clique.tau != misrouted_chains(3, 2, 10 ** 7, Rng(run_seed(13, i))).tau
    assert mismatch > 0


def test_independent_chains_trivial_and_small_mean():
    assert run_independent_chains(1, 1, 1.0, 10 ** 6, Rng(3)).tau == 1
    taus = [run_independent_chains(2, 1, 0.5, 10 ** 6, Rng(run_seed(21, i))).tau
            for i in range(10_000)]
    # absorbing-chain expectation: one round survives iff no chain is
    # selected, so tau is geometric with success 3/4 and mean 4/3
    assert abs(statistics.mean(taus) - 4 / 3) <= 0.05 * (4 / 3)


def test_independent_chains_validation():
    with pytest.raises(ValueError):
        run_independent_chains(2, 1, 0.0, 10, Rng(1))
    with pytest.raises(ValueError):
        run_independent_chains(2, 1, 1.5, 10, Rng(1))


def _snapshot_file(tmp_path, edges):
    keys = [f"K{i}" for i in range(1 + max(max(u, v) for u, v, _ in edges))]
    doc = {"nodes": [{"pub_key": k} for k in keys],
           "edges": [{"node1_pub": keys[u], "node2_pub": keys[v], "capacity": str(c)}
                     for u, v, c in edges]}
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_monte_carlo_deterministic_and_worker_invariant(tmp_path):
    edges = random_connected_edges(random.Random(5), 8, extra_prob=0.3, caps=(4, 6, 8))
    snapshot = _snapshot_file(tmp_path, edges)
    campaigns = []
    for topology in TOPOLOGIES:
        size = ({"snapshot_path": snapshot} if topology == "snapshot"
                else {"nodes": 8, "balance": 4})
        campaigns.append((SimConfig(topology=topology, runs=12, base_seed=31, **size), None))
    # a caller's graph in place of the snapshot file
    campaigns.append((SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=12,
                                base_seed=31), ChannelGraph(8, edges)))
    for cfg, graph in campaigns:
        a = monte_carlo(cfg, graph)
        b = monte_carlo(cfg, graph)
        c = monte_carlo(cfg, graph, workers=2)
        assert a == b == c, (cfg.topology, graph)
        assert [o.seed_used for o in a] == [run_seed(31, i) for i in range(12)]


def test_monte_carlo_without_fork_warns_once_and_runs_sequentially(monkeypatch, caplog):
    cfg = SimConfig(topology="ring", nodes=8, balance=4, runs=6, base_seed=5)
    want = monte_carlo(cfg)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.delitem(multiprocessing.context._concrete_contexts, "fork")
    with caplog.at_level(logging.WARNING, logger="pcnsim.sim"):
        got = monte_carlo(cfg, workers=2)
    assert got == want
    assert [r.getMessage() for r in caplog.records] == ["fork unavailable; running sequentially"]


def test_monte_carlo_order_statistics():
    cfg = SimConfig(topology="clique", nodes=20, balance=4, runs=10, base_seed=5)
    taus = [o.tau for o in monte_carlo(cfg)]
    assert min(taus) <= statistics.mean(taus) <= max(taus)


def test_step_cap_reported_as_censored():
    cfg = SimConfig(topology="clique", nodes=30, balance=64, runs=3, base_seed=1,
                    max_steps=50)
    outs = monte_carlo(cfg)
    assert all(o.failure_kind == STEP_CAP and o.tau == 50 and o.failing_edge is None
               for o in outs)


def test_attempt_mode_never_stops_before_depletion_mode():
    rng = random.Random(67)
    edges = random_connected_edges(rng, 8, extra_prob=0.3, caps=(4, 6))
    g = ChannelGraph(8, edges)
    for i in range(15):
        dep = SimConfig(topology="ring", nodes=8, balance=2, runs=1, base_seed=100 + i)
        att = SimConfig(topology="ring", nodes=8, balance=2, runs=1, base_seed=100 + i,
                        stop_mode="attempt")
        tau_d = run_payment_process(g, dep, Rng(run_seed(100 + i, 0))).tau
        tau_a = run_payment_process(g, att, Rng(run_seed(100 + i, 0))).tau
        assert tau_a >= tau_d


def test_clique_fast_path_matches_generic_distribution():
    fast = [o.tau for o in monte_carlo(
        SimConfig(topology="clique", nodes=6, balance=3, runs=4000, base_seed=2))]
    slow = [o.tau for o in monte_carlo(
        SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=4000, base_seed=777),
        graph=make_clique(6, 6))]
    mf, ms = statistics.mean(fast), statistics.mean(slow)
    sd = statistics.pstdev(fast + slow)
    z = (mf - ms) / (sd * (2 / 4000) ** 0.5)
    assert abs(z) < 4.5


def test_attempt_mode_on_clique_fast_and_generic():
    cfg_f = SimConfig(topology="clique", nodes=5, balance=2, amount=2, runs=400,
                      base_seed=3, stop_mode="attempt")
    cfg_g = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=2, runs=400,
                      base_seed=813, stop_mode="attempt")
    mf = statistics.mean(o.tau for o in monte_carlo(cfg_f))
    mg = statistics.mean(o.tau for o in monte_carlo(cfg_g, graph=make_clique(5, 4)))
    assert mf > 0 and mg > 0
    assert abs(mf - mg) / max(mf, mg) < 0.25


def test_monte_carlo_rejects_disconnected_graph():
    g = ChannelGraph(4, [(0, 1, 4), (2, 3, 4)])
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=1)
    with pytest.raises(ValueError, match="connected"):
        monte_carlo(cfg, graph=g)


def test_a_callers_graph_needs_no_snapshot_path():
    g = make_ring(6, 4)
    cfg = SimConfig(topology="snapshot", runs=5, base_seed=3)
    assert cfg.as_dict() == {"topology": "snapshot", "amount": 1, "stop_mode": "depletion",
                             "max_steps": 10 ** 12, "base_seed": 3, "runs": 5}
    assert (monte_carlo(cfg, graph=g)
            == monte_carlo(replace(cfg, snapshot_path="<in-memory>"), graph=g))


def test_a_snapshot_campaign_without_a_graph_or_a_path_names_both():
    cfg = SimConfig(topology="snapshot", runs=1)
    with pytest.raises(ValueError, match="needs snapshot_path, or a graph passed to "
                                         "monte_carlo"):
        monte_carlo(cfg)
    with pytest.raises(ValueError, match="needs snapshot_path"):
        build_graph(cfg)


@pytest.mark.parametrize("seed", [-1, 0, 2 ** 64 - 1, 2 ** 64])
def test_sim_config_takes_a_base_seed_in_64_bits_only(seed):
    if 0 <= seed < 2 ** 64:
        assert SimConfig(topology="ring", nodes=8, balance=2, base_seed=seed).base_seed == seed
        return
    with pytest.raises(ValueError, match=r"base_seed must be in \[0, 2\*\*64\)"):
        SimConfig(topology="ring", nodes=8, balance=2, base_seed=seed)


def test_payment_process_on_disconnected_graph_raises():
    # thick channels: no run depletes before it draws a pair across the gap
    g = ChannelGraph(4, [(0, 1, 1000), (2, 3, 1000)])
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>")
    for seed in range(5):
        with pytest.raises(ValueError, match="unreachable"):
            run_payment_process(g, cfg, Rng(seed))


def test_build_graph_shapes(tmp_path):
    # a 4-node path plus a detached edge: the snapshot keeps the giant component
    keys = list("ABCDEF")
    doc = {"nodes": [{"pub_key": k} for k in keys],
           "edges": [{"node1_pub": a, "node2_pub": b, "capacity": "6"}
                     for a, b in ("AB", "BC", "CD", "EF")]}
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(doc))
    g = build_graph(SimConfig(topology="snapshot", snapshot_path=str(path)))
    assert (g.node_count, g.edge_count) == (4, 3)
    assert g.node_keys == list("ABCD")


def test_sim_config_validation():
    with pytest.raises(ValueError, match="topology"):
        SimConfig(topology="torus", nodes=4, balance=2)
    with pytest.raises(ValueError, match="stop_mode"):
        SimConfig(topology="ring", nodes=4, balance=2, stop_mode="halt")
    with pytest.raises(ValueError, match="amount"):
        SimConfig(topology="ring", nodes=4, balance=2, amount=0)
    with pytest.raises(ValueError, match="nodes and balance"):
        SimConfig(topology="clique")


def test_capacity_sweep_rows_and_monotone_mean():
    cfg = SimConfig(topology="independent", nodes=4, balance=1, runs=1, base_seed=9,
                    p_select=0.5)
    points = capacity_sweep(cfg, 2, 10, 2, runs_per_point=40)
    assert [p.balance for p in points] == [2, 4, 6, 8, 10]
    means = [statistics.mean(o.tau for o in p.outcomes) for p in points]
    assert means == sorted(means)  # pathwise via shared per-run seeds


def test_capacity_sweep_single_point_and_horizon():
    cfg = SimConfig(topology="clique", nodes=4, balance=1, runs=1, base_seed=9)
    points = capacity_sweep(cfg, 3, 3, 1, runs_per_point=30, horizon=50)
    assert len(points) == 1
    assert 0.0 <= points[0].p_fail_within_horizon <= 1.0


def test_capacity_sweep_grid_matches_appendix_configuration():
    ks = list(range(10, 3031, 10))
    assert len(ks) == 303  # 10 -> 3030 in increments of 10
    cfg = SimConfig(topology="independent", nodes=2, balance=1, runs=1, base_seed=1,
                    p_select=1.0, max_steps=8)
    points = capacity_sweep(cfg, 10, 3030, 10, runs_per_point=1)
    assert len(points) == 303
    assert points[0].balance == 10 and points[-1].balance == 3030


@pytest.mark.parametrize("cfg", [
    SimConfig(topology="ring", nodes=9, balance=1, base_seed=3),
    SimConfig(topology="clique", nodes=6, balance=1, amount=2, stop_mode="attempt",
              base_seed=3),
    SimConfig(topology="independent", nodes=8, balance=1, max_steps=300, base_seed=3),
])
def test_capacity_sweep_is_one_campaign_at_any_worker_count(cfg, monkeypatch):
    fork, pools = multiprocessing.get_context("fork"), []

    class Counting:
        def Pool(self, *args, **kwargs):
            pools.append(args)
            return fork.Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Counting())
    alone = capacity_sweep(cfg, 1, 9, 2, runs_per_point=6, workers=1)
    assert pools == []
    pooled = capacity_sweep(cfg, 1, 9, 2, runs_per_point=6, workers=2)
    assert len(pools) == 1  # one pool serves all 5 points
    assert [p.balance for p in pooled] == [1, 3, 5, 7, 9]
    assert pooled == alone
    for point in pooled:
        assert point.outcomes == monte_carlo(replace(cfg, balance=point.balance, runs=6))
    assert len({tuple(o.tau for o in p.outcomes) for p in pooled}) > 1


def test_campaign_starts_at_most_one_process_per_run(monkeypatch):
    asked = []

    class InProcess:
        """A pool that runs its work in this process and starts none."""

        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return [func(item) for item in items]

    g = make_clique(5, 6)
    cfgs = [(SimConfig(topology="ring", nodes=8, balance=4, runs=2, base_seed=5), None),
            (SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=2,
                       base_seed=5), g)]
    want = [monte_carlo(cfg, graph) for cfg, graph in cfgs]
    monkeypatch.setattr(pcnsim.sim, "_worker_args", ())  # the initializer sets it here
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=InProcess))
    assert [monte_carlo(cfg, graph, workers=8) for cfg, graph in cfgs] == want
    assert multi_amount_experiment(g, [1, 2], runs=2, base_seed=5, workers=8) == [
        (x, monte_carlo(replace(cfgs[1][0], amount=x, stop_mode="attempt"), g)) for x in (1, 2)]
    assert asked == [2, 2, 2]


def test_import_pcnsim_leaves_multiprocessing_unloaded():
    # only a pooled campaign imports it, so a fresh interpreter has not
    src = str(Path(pcnsim.sim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", "import sys, pcnsim; "
                           "print('multiprocessing' in sys.modules)"],
                          capture_output=True, text=True, env=env, check=True, timeout=60)
    assert done.stdout == "False\n"


def test_multi_amount_equals_plain_monte_carlo_for_unit_amount():
    g = make_clique(5, 6)
    got = multi_amount_experiment(g, [1], runs=6, base_seed=44)
    assert len(got) == 1 and got[0][0] == 1
    plain = monte_carlo(
        SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=6, base_seed=44,
                  stop_mode="attempt"),
        graph=g)
    assert got[0][1] == plain


def test_multi_amount_larger_amount_stops_no_later():
    rng = random.Random(71)
    g = ChannelGraph(10, random_connected_edges(rng, 10, extra_prob=0.25,
                                                caps=(40, 60, 100)))
    campaigns = multi_amount_experiment(g, [1, 4, 10], runs=10, base_seed=55)
    by_amount = {x: [o.tau for o in outs] for x, outs in campaigns}
    for i in range(10):
        assert by_amount[1][i] >= by_amount[4][i] >= by_amount[10][i]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["attempt", "depletion"])
def test_multi_amount_equals_per_amount_monte_carlo(workers, mode, caplog):
    g = ChannelGraph(40, random_connected_edges(random.Random(72), 40, extra_prob=0.08,
                                                caps=(24, 40, 60)))
    amounts = [1, 3, 7]
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        campaigns = multi_amount_experiment(g, amounts, runs=8, base_seed=56,
                                            stop_mode=mode, workers=workers)
        lines = [r.getMessage() for r in caplog.records if "DAG builds" in r.getMessage()]
        caplog.clear()
        for x, outs in campaigns:
            cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                            stop_mode=mode, runs=8, base_seed=56)
            assert outs == monte_carlo(cfg, graph=g, workers=1)
    alone = [r.getMessage() for r in caplog.records if "DAG builds" in r.getMessage()]
    taus = [[o.tau for o in outs] for _x, outs in campaigns]
    assert taus[0] != taus[1] != taus[2]  # the amounts stop at different rounds
    assert len(lines) == 1
    assert lines[0].startswith(", ".join(f"snapshot-x{x}-{mode}" for x in amounts) + ": ")

    def work(line):
        return [int(v) for v in re.search(r"(\d+) rounds, (\d+) DAG builds, (\d+) DAG cache gets",
                                          line).groups()]

    # one walk per run draws the rounds of the smallest amount, which stops
    # last, and no others; each pool worker builds its own DAGs
    rounds, builds, gets = work(lines[0])
    smallest = work(alone[0])
    assert [rounds, gets] == [smallest[0], smallest[2]]
    assert smallest[1] <= builds <= workers * smallest[1]
    assert workers > 1 or builds == smallest[1]


@pytest.mark.parametrize("workers", [0, -2])
def test_campaigns_reject_workers_below_one(workers):
    g = make_clique(4, 6)
    cfg = SimConfig(topology="ring", nodes=5, balance=2, runs=2)
    on_graph = SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=2)
    for campaign in (lambda: monte_carlo(cfg, workers=workers),
                     lambda: monte_carlo(on_graph, graph=g, workers=workers),
                     lambda: capacity_sweep(cfg, 1, 3, 1, runs_per_point=2, workers=workers),
                     lambda: multi_amount_experiment(g, [1, 2], runs=2, base_seed=0,
                                                     workers=workers)):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            campaign()


def test_multi_amount_requires_amounts():
    with pytest.raises(ValueError):
        multi_amount_experiment(make_clique(3, 4), [], runs=1, base_seed=0)


@settings(max_examples=200)
@given(n=st.integers(2, 9), graph_seed=st.integers(0, 2 ** 32 - 1),
       amounts=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       mode=st.sampled_from(["depletion", "attempt"]), st_dags=st.booleans(),
       max_steps=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_multi_amount_walk_equals_oracle_per_amount_property(n, graph_seed, amounts, mode,
                                                            st_dags, max_steps, seed):
    # amounts come unsorted and repeated, many above half the smallest
    # capacity (2..9, odd ones too), so some stop before the first round,
    # each on its own edge; several amounts can stop in one round, on
    # different edges of its path; short caps censor the others
    g = ChannelGraph(n, random_connected_edges(random.Random(graph_seed), n, extra_prob=0.4,
                                               caps=(2, 3, 4, 5, 7, 8, 9)))
    with pytest.MonkeyPatch.context() as mp:
        if st_dags:  # no rows: every round runs st_dag
            mp.setattr("pcnsim.paths._ROW_MAX_NODES", 1)
        campaigns = multi_amount_experiment(g, amounts, runs=2, base_seed=seed,
                                            stop_mode=mode, max_steps=max_steps)
    assert [x for x, _outs in campaigns] == amounts
    for x, outs in campaigns:
        cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                        stop_mode=mode, max_steps=max_steps)
        assert outs == [oracle_payment_process(g, cfg, Rng(run_seed(seed, i)))
                        for i in range(2)]


@pytest.mark.parametrize("st_dags", [False, True])
def test_walk_progress_lines_report_the_amounts_running(st_dags, monkeypatch, caplog):
    g = ChannelGraph(40, random_connected_edges(random.Random(72), 40, extra_prob=0.08,
                                                caps=(24, 40, 60)))
    amounts = [7, 1, 3]
    monkeypatch.setattr("pcnsim.progress._PROGRESS_SECONDS", 0)  # a line per round
    if st_dags:
        monkeypatch.setattr("pcnsim.paths._ROW_MAX_NODES", 1)
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        campaigns = multi_amount_experiment(g, amounts, runs=1, base_seed=56)
    taus = [outs[0].tau for _x, outs in campaigns]
    assert len(set(taus)) == 3 and not any(outs[0].censored for _x, outs in campaigns)
    lines = [r.getMessage() for r in caplog.records if "payment process at" in r.getMessage()]
    # in attempt mode an amount with tau t fails in round t + 1, so the
    # lines after rounds 1..t count it; the round that stops the last amount
    # logs nothing
    assert len(lines) == max(taus)
    seed = campaigns[0][1][0].seed_used
    ratio = r"0\.000" if st_dags else r"\d\.\d{3}"  # without rows every get builds
    for t, line in enumerate(lines, 1):
        running = sum(t <= tau for tau in taus)
        assert re.fullmatch(rf"payment process at {t} rounds, \d+\.\d rounds/s, "
                            rf"{running} of 3 amounts running, DAG cache hit ratio "
                            rf"{ratio} \(seed {seed}\)",
                            line), line


class ScriptedRng(Rng):
    """An Rng whose pair draws come from a fixed script; the graphs it serves
    have one shortest path per pair, so nothing else is drawn."""

    def __init__(self, pairs):
        super().__init__(0)
        self._pairs = list(pairs)

    def pair(self, n):
        return self._pairs.pop(0)

    def randrange(self, bound):
        raise AssertionError(f"unexpected randrange({bound})")


def _ring_words(n, pairs, bits=()):
    """Raw words that ``Rng.pair(n)`` reads as ``pairs``, each antipodal pair
    followed by its tie-break word from ``bits``."""
    words, bits = [], list(bits)
    for s, d in pairs:
        words += [s, d if d < s else d - 1]
        if 2 * ((d - s) % n) == n:
            words.append(bits.pop(0))
    assert not bits
    return words


def _scripted(words, seed=0):
    """An Rng whose stream starts with ``words``, then goes on with Rng(seed)'s."""
    rng = Rng(seed)
    rng.words(0, np.array(words, dtype=np.uint64))
    return rng


def _ring_all(n, k, words, amount=1, stop_mode="depletion", max_steps=10 ** 12, seed=0):
    """The ring kernel, its one-round oracle and the generic loop on one
    stream; all three must agree on the outcome and on where the stream ends."""
    cfg = SimConfig(topology="ring", nodes=n, balance=k, amount=amount,
                    stop_mode=stop_mode, max_steps=max_steps)
    runs = [(run, _scripted(words, seed)) for run in
            (lambda n, c, cfg, rng: _ring_fast(cfg, [c // 2], rng)[0], oracle_ring_fast,
             lambda n, c, cfg, rng: run_payment_process(make_ring(n, c), cfg, rng))]
    outs = [(run(n, 2 * k, cfg, rng), rng.u64()) for run, rng in runs]
    assert outs[0] == outs[1] == outs[2]
    return outs[0][0]


def _ring_both(n, k, pairs, bits=(), amount=1, stop_mode="depletion"):
    return _ring_all(n, k, _ring_words(n, pairs, bits), amount, stop_mode, len(pairs))


def test_ring_kernel_antipodal_tie_break_follows_bfs_order():
    # k=1: the first round depletes every edge it crosses, so the failing
    # edge is the first edge of the drawn path
    n = 8
    for stop_mode, amount in (("depletion", 1), ("attempt", 2)):
        run = lambda pair, bit: _ring_both(n, 1, [pair], [bit], amount, stop_mode)
        assert run((0, 4), 0).failing_edge == 0        # from 0, r=0 is clockwise
        assert run((0, 4), 1).failing_edge == n - 1
        assert run((3, 7), 0).failing_edge == 2        # elsewhere, counterclockwise
        assert run((3, 7), 1).failing_edge == 3
        assert run((7, 3), 0).failing_edge == 6
        assert run((7, 3), 1).failing_edge == 7


def test_ring_kernel_wrapping_arcs_report_first_failure_in_path_order():
    n = 8
    # clockwise 0->2 leaves edges 0 and 1 at 1; clockwise 7->2 wraps past 0
    # and depletes edges 0 and 1, edge 0 first
    out = _ring_both(n, 2, [(0, 2), (7, 2)])
    assert (out.tau, out.failing_edge, out.failure_kind) == (2, 0, "depleted")
    # counterclockwise 1->7 raises edges 0 and 7; the antipodal 2->6 with
    # r=0 goes counterclockwise over edges 1, 0, 7, 6 and overfills 0 first
    out = _ring_both(n, 2, [(1, 7), (2, 6)], [0])
    assert (out.tau, out.failing_edge) == (2, 0)
    # attempt mode: after two payments 1->0->7, node 1 cannot pay over edge 0
    out = _ring_both(n, 2, [(1, 7), (1, 7), (1, 6)], amount=1, stop_mode="attempt")
    assert (out.tau, out.failing_edge, out.failure_kind) == (2, 0, "attempt_failed")


def test_ring_kernel_step_cap():
    out = _ring_both(9, 50, [(0, 3), (5, 1), (8, 2)])
    assert (out.tau, out.failing_edge, out.failure_kind) == (3, None, STEP_CAP)


_TOP = 2 ** 64 - 1  # randrange(n) rejects it unless n is a power of two


def test_ring_kernel_passes_over_rejected_words():
    # n=3: randrange(3) rejects 2**64 - 1, so the pair is (1, 0), which
    # crosses edge 0 counterclockwise; read as a source, the word would be 0
    out = _ring_all(3, 1, [_TOP, 1, 0], max_steps=1)
    assert (out.tau, out.failing_edge) == (1, 0)
    # n=6: randrange(6) rejects the top four words and randrange(5) the top
    # one, as sources, destinations and around an antipodal tie word
    top = [_TOP - i for i in range(4)]
    words = [top[0], 2, _TOP, 4, top[3], 0, top[1], top[2], 3, _TOP, 0, 1]
    _ring_all(6, 3, words * 40, seed=7)
    _ring_all(6, 3, words * 40, stop_mode="attempt", seed=7)
    for cap in range(1, 12):
        _ring_all(6, 40, words * 4, max_steps=cap)


# rounds that leave every balance as it was: two in four words, and three
# in seven words, the first of them antipodal with tie word 0
_ROUND_TRIP = [(0, 1), (1, 0)]
_ODD_TRIP = ([(0, 4), (3, 0), (4, 3)], [0])


@pytest.mark.parametrize("offset", [-4, -3, -2, -1, 0, 1])
@pytest.mark.parametrize("bit, want", [(0, 2), (1, 3)])
def test_ring_kernel_antipodal_tie_at_a_block_edge(offset, bit, want):
    # two antipodal rounds 3 -> 7 whose first starts `offset` words from the
    # end of the first block: its destination or tie word may be in the next
    # block; with k=2 the second one fails on the first edge of its arc
    n, start = 8, pcnsim.sim._RING_WORDS[0] + offset
    pairs, bits = [], []
    if start % 2:
        pairs, bits = list(_ODD_TRIP[0]), list(_ODD_TRIP[1])
    pairs += _ROUND_TRIP * ((start - len(_ring_words(n, pairs, bits))) // 4)
    if len(_ring_words(n, pairs, bits)) < start:
        pairs.append((0, 1))  # a lone round leaves edge 0 at 1, which k=2 allows
    assert len(_ring_words(n, pairs, bits)) == start
    words = _ring_words(n, pairs + [(3, 7), (3, 7)], bits + [bit, bit])
    out = _ring_all(n, 2, words)
    assert (out.tau, out.failing_edge) == (len(pairs) + 2, want)


def _clean_pairs(start):
    """Pairs whose words fill ``start`` (even) words and leave every balance
    as it was, but for a lone last round 0 -> 1 when start is 2 mod 4."""
    return _ROUND_TRIP * (start // 4) + [(0, 1)] * (start % 4 // 2)


_FIRST_WORDS = pcnsim.sim._RING_WORDS[0]


@pytest.mark.parametrize("start, script", [
    (_FIRST_WORDS - 2, [5, _TOP, 2]),     # the first block's last word, a destination
    (_FIRST_WORDS, [_TOP, 5, 2]),          # the second block's first round, a source
    (500, [_TOP, _TOP - 1, 5, _TOP, 2]),  # mid-block: two sources, then a destination
])
@pytest.mark.parametrize("k, stop_mode", [(2, "depletion"), (1, "attempt")])
def test_ring_kernel_rejected_word_at_a_block_edge(start, script, k, stop_mode):
    # n=7: randrange(7) rejects the top two words and randrange(6) the top
    # four; the round holding them draws 5 -> 2, and the run goes on from
    # a seeded stream until it fails
    pairs = _clean_pairs(start)
    assert len(_ring_words(7, pairs)) == start
    out = _ring_all(7, k, _ring_words(7, pairs) + script, stop_mode=stop_mode)
    assert out.tau > len(pairs)


@pytest.mark.parametrize("start", [100, _FIRST_WORDS - 2])
def test_ring_kernel_tie_word_past_the_cut_is_a_tie_bit(start):
    # n=8: randrange(7) rejects the top word, but as a tie word it is bit 1,
    # so each antipodal round 3 -> 7 goes clockwise, and with k=2 the second
    # one fails on edge 3, the first of its arc
    pairs = _clean_pairs(start)
    words = _ring_words(8, pairs + [(3, 7), (3, 7)], [_TOP, _TOP])
    assert words[start + 2] == words[start + 5] == _TOP
    out = _ring_all(8, 2, words)
    assert (out.tau, out.failing_edge) == (len(pairs) + 2, 3)


def _rejectable_stream(n, seed, rounds, marks, loose):
    """Raw words of ``rounds`` scripted rounds on the n-ring, each followed
    by its way back so that runs last, except a share ``loose`` of them and
    every antipodal one, with a word that ``randrange`` rejects put before
    the source or destination of each round whose words cover one of the
    word positions ``marks``."""
    rnd = random.Random(seed)
    bounds = [b for b in (n, n - 1) if word_limit(b) < 2 ** 64]
    words = []
    for _ in range(rounds):
        s, d = rnd.sample(range(n), 2)
        tie = 2 * ((d - s) % n) == n
        for pair in [(s, d)] if tie or rnd.random() < loose else [(s, d), (d, s)]:
            draws = _ring_words(n, [pair], [rnd.getrandbits(64)] if tie else [])
            if any(len(words) <= mark < len(words) + len(draws) for mark in marks):
                bound = rnd.choice(bounds)
                draws.insert(0 if bound == n else 1, rnd.randrange(word_limit(bound), 2 ** 64))
            words += draws
    return words


@settings(max_examples=80)
@given(n=st.integers(3, 40), k=st.integers(1, 6),
       stop_mode=st.sampled_from(["depletion", "attempt"]),
       cap=st.one_of(st.just(10 ** 12), st.integers(1, 400)),
       rounds=st.integers(1, 300), loose=st.sampled_from([0.0, 0.05, 0.3]),
       seed=st.integers(0, 2 ** 32),
       marks=st.lists(st.one_of(st.integers(0, 900),
                                st.integers(_FIRST_WORDS - 6, _FIRST_WORDS + 6)),
                      max_size=6))
def test_ring_kernel_matches_on_streams_with_rejected_words(n, k, stop_mode, cap, rounds,
                                                             loose, seed, marks):
    # the kernel, its one-round oracle and the generic loop agree on the
    # outcome and on where the stream ends, with rejected words anywhere,
    # at the first block's edge too
    out = _ring_all(n, k, _rejectable_stream(n, seed, rounds, marks, loose),
                    stop_mode=stop_mode, max_steps=cap, seed=seed)
    assert out.tau <= cap


@pytest.mark.parametrize("k", [20, 5])
@pytest.mark.parametrize("stop_mode", ["depletion", "attempt"])
def test_ring_kernel_fails_on_the_round_after_the_safe_ones(k, stop_mode):
    # every round pays 0 -> 1 over edge 0 (all words are 0), which may fall
    # to 1 in depletion mode and to 0 in attempt mode, so the first k - 1 or
    # k rounds are safe: with k=20 they go in one safe block and the next
    # batch finds edge 0 hot, with k=5 they open a batch near the band whose
    # exact block stops at the round after them, which fails
    out = _ring_all(5, k, [0] * (4 * k), stop_mode=stop_mode)
    assert (out.tau, out.failing_edge) == (k, 0)


_FIRST_ROUNDS = pcnsim.sim._RING_WORDS[0] // 2  # the first block on an odd ring


@pytest.mark.parametrize("k, cap", [(5, 7), (5, 13), (100, 50), (100, 130), (100, 777),
                                    (64, _FIRST_ROUNDS), (64, _FIRST_ROUNDS + 1)])
def test_ring_kernel_step_cap_inside_a_block(k, cap):
    # k=5 runs batches near the band, k=100 mostly safe blocks, and the last
    # two caps end at the first block of words' end and just past it
    for seed in range(3):
        out = _ring_all(9, k, [], max_steps=cap, seed=seed)
        assert out.tau <= cap


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 16, 64, 512])
def test_ring_kernel_matches_generic_loop(n):
    cases = [(k, x, mode, cap) for k in (1, 2, 4) for x in (1, 2, 3)
             for mode in ("depletion", "attempt") for cap in (10 ** 9, 7)]
    seeds = 12 if n < 100 else 3
    for k, x, mode, cap in cases:
        g = make_ring(n, 2 * k)
        cache = DagCache(g)
        cfg = SimConfig(topology="ring", nodes=n, balance=k, amount=x,
                        stop_mode=mode, max_steps=cap)
        generic = [run_payment_process(g, cfg, Rng(run_seed(n, i)), cache)
                   for i in range(seeds)]
        fast = [_ring_fast(cfg, [k], Rng(run_seed(n, i)))[0] for i in range(seeds)]
        assert fast == generic, (k, x, mode, cap)


def _batch_probe(monkeypatch):
    """Counts of the ring kernel's batches: ``counted`` went through its
    difference array (one ``bincount`` each), and ``hot`` of those built an
    exact block of levels (``_ring_levels``) for their hot edges."""
    seen = {"counted": 0, "hot": 0}
    bincount, levels = np.bincount, pcnsim.sim._ring_levels

    def counted(*args, **kw):
        seen["counted"] += 1
        return bincount(*args, **kw)

    def hot(*args):
        seen["hot"] += 1
        return levels(*args)

    monkeypatch.setattr(pcnsim.sim.np, "bincount", counted)
    monkeypatch.setattr(pcnsim.sim, "_ring_levels", hot)
    return seen


def _ring_kernel_equals_oracle(n, ks):
    for k in ks:
        for x in (1, 3):
            for mode in ("depletion", "attempt"):
                cfg = SimConfig(topology="ring", nodes=n, balance=k, amount=x,
                                stop_mode=mode)
                for i in range(2):
                    rngs = Rng(run_seed(k, i)), Rng(run_seed(k, i))
                    assert (_ring_fast(cfg, [k], rngs[0])[0]
                            == oracle_ring_fast(n, 2 * k, cfg, rngs[1])), (k, x, mode, i)
                    assert rngs[0].u64() == rngs[1].u64()


@pytest.mark.parametrize("n", [9, 64, 100, 513])
def test_ring_kernel_safe_blocks_match_the_oracle(n, monkeypatch):
    seen = _batch_probe(monkeypatch)
    _ring_kernel_equals_oracle(n, (50, 64))
    assert seen["counted"] > seen["hot"]  # the runs applied batches with no hot edge


@pytest.mark.parametrize("n", [9, 64, 511])
def test_ring_kernel_hot_batches_match_the_oracle(n, monkeypatch):
    # k <= 16 starts every run near the band; up to 512 edges, a whole ring
    # fits an exact block of _RING_BATCH rounds
    seen = _batch_probe(monkeypatch)
    _ring_kernel_equals_oracle(n, (2, 5, 8, 16))
    assert seen["hot"]  # the runs found hot edges and searched their exact blocks


_SCRIPT_WORDS = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 64 - 8, 2 ** 64 - 1),
                          st.integers(0, 40))


@settings(max_examples=150)
@given(n=st.integers(3, 40), k=st.one_of(st.integers(1, 5), st.integers(6, 60)),
       x=st.integers(1, 3), mode=st.sampled_from(["depletion", "attempt"]),
       max_steps=st.one_of(st.integers(1, 400), st.integers(401, 3000)),
       script=st.lists(_SCRIPT_WORDS, max_size=40), seed=st.integers(0, 2 ** 64 - 1))
def test_ring_kernel_equals_generic_property(n, k, x, mode, max_steps, script, seed):
    # a script of small or rejectable words, then a seeded stream; large k
    # and long runs reach blocks of safe rounds, and small k the generic loop
    # checks too
    cfg = SimConfig(topology="ring", nodes=n, balance=k, amount=x, stop_mode=mode,
                    max_steps=max_steps)
    rngs = [_scripted(script, seed) for _ in range(3)]
    fast = _ring_fast(cfg, [k], rngs[0])[0]
    assert fast == oracle_ring_fast(n, 2 * k, cfg, rngs[1])
    assert rngs[0].u64() == rngs[1].u64()
    if k <= 5 and max_steps <= 400:
        assert fast == run_payment_process(make_ring(n, 2 * k), cfg, rngs[2])


def test_monte_carlo_kernel_topologies_build_no_graph(monkeypatch):
    def no_graph(cfg):
        raise AssertionError(f"built a graph for {cfg.topology}")

    monkeypatch.setattr(pcnsim.sim, "build_graph", no_graph)
    for topology in ("clique", "ring", "independent"):
        cfg = SimConfig(topology=topology, nodes=6, balance=2, runs=3, base_seed=8)
        assert len(monte_carlo(cfg)) == 3


def test_monte_carlo_caller_ring_graph_runs_generic_loop():
    # one thin channel: the uniform ring kernel would never see it
    g = ChannelGraph(6, [(i, (i + 1) % 6, 2 if i == 3 else 40) for i in range(6)])
    ring = SimConfig(topology="ring", nodes=6, balance=20, runs=8, base_seed=12)
    for topology in ("clique", "ring"):
        # a kernel topology's config would label the graph's runs with its n and k
        with pytest.raises(ValueError, match='takes no graph; .* topology="snapshot"'):
            monte_carlo(replace(ring, topology=topology), graph=g)
    uniform = monte_carlo(ring)
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", runs=8, base_seed=12)
    outs = monte_carlo(cfg, graph=g)
    assert outs == [run_payment_process(g, cfg, Rng(run_seed(12, i))) for i in range(8)]
    assert outs != uniform
    assert {o.failing_edge for o in outs} == {g.edge_id(3, 4)}


def test_monte_carlo_rejects_graph_for_independent_chains():
    cfg = SimConfig(topology="independent", nodes=6, balance=2, runs=1)
    with pytest.raises(ValueError, match="no graph"):
        monte_carlo(cfg, graph=make_ring(6, 4))


def test_sim_config_rejects_too_few_nodes():
    for topology, too_small in (("clique", 1), ("ring", 2), ("independent", 0)):
        with pytest.raises(ValueError, match=f"{topology} needs n >= {too_small + 1}"):
            SimConfig(topology=topology, nodes=too_small, balance=2, p_select=0.5)
    SimConfig(topology="independent", nodes=1, balance=2, p_select=0.5)
    # without p_select, independent chains take the n-ring's edge probability
    with pytest.raises(ValueError, match="independent needs n >= 3"):
        SimConfig(topology="independent", nodes=2, balance=2)


# a value other than the default for each field a topology may not need
_SETTINGS = {"nodes": 6, "balance": 2, "snapshot_path": "g.json", "amount": 2,
             "stop_mode": "attempt", "p_select": 0.5}
_KERNEL_READS = {"nodes", "balance", "amount", "stop_mode"}
_READS = {"clique": _KERNEL_READS, "ring": _KERNEL_READS,
          "independent": {"nodes", "balance", "p_select"},
          "snapshot": {"snapshot_path", "amount", "stop_mode"}}


def test_sim_config_takes_exactly_the_fields_its_run_reads():
    assert set(_READS) == set(TOPOLOGIES)
    for topology, reads in _READS.items():
        needed = {key: _SETTINGS[key] for key in ("nodes", "balance", "snapshot_path")
                  if key in reads}
        SimConfig(topology=topology, **needed)
        for key, value in _SETTINGS.items():
            cfg = dict(needed, **{key: value})
            if key in reads:
                assert getattr(SimConfig(topology=topology, **cfg), key) == value
            else:
                name = "snapshot" if key == "snapshot_path" else key
                with pytest.raises(ValueError, match=f"topology {topology} takes no {name};"):
                    SimConfig(topology=topology, **cfg)
    # the default amount and stop mode are what the chains run
    SimConfig(topology="independent", nodes=4, balance=2, amount=1, stop_mode="depletion")


_BIG = 2 ** 63 - 1  # int64's largest value


@pytest.mark.parametrize("topology,kernel,oracle,n", [
    ("ring", _ring_fast, oracle_ring_fast, 5), ("clique", _clique_fast, oracle_clique_fast, 4)])
@pytest.mark.parametrize("mode,k,x", [
    ("attempt", _BIG - 2 ** 61, 2 ** 61), ("attempt", _BIG - 2 ** 60 - 1, 2 ** 60 + 1),
    ("depletion", _BIG, 2 ** 61), ("depletion", _BIG, 2 ** 62 + 5),
    ("attempt", 3 * 2 ** 61, 2 ** 61), ("depletion", _BIG + 1, 2 ** 61)])
def test_kernels_are_exact_at_the_largest_balances_they_take(topology, kernel, oracle, n,
                                                             mode, k, x):
    # balance + amount (attempt) or balance (depletion) at 2**63 - 1 and at
    # 2**63, each run failing within a few rounds, against the Python-int oracles
    cfg = SimConfig(topology=topology, nodes=n, balance=k, amount=x, stop_mode=mode,
                    max_steps=10 ** 6)
    outs = [kernel(cfg, [k], Rng(run_seed(6, i)))[0] for i in range(40)]
    assert outs == [oracle(n, 2 * k, cfg, Rng(run_seed(6, i))) for i in range(40)]
    assert not any(o.censored for o in outs)


@pytest.mark.parametrize("topology", ["ring", "clique", "independent"])
def test_kernels_are_exact_past_int64(topology):
    # a kernel counts moves of the amount, and a count never passes the rounds
    # run, so any balance and amount are exact; the caps are small, as a band
    # this wide takes a unit amount some k**2 rounds to reach
    if topology == "independent":
        outs = [run_independent_chains(64, 2 ** 70, 0.5, 300, Rng(run_seed(7, i)))
                for i in range(5)]
        assert outs == [oracle_independent_chains(64, 2 ** 70, 0.5, 300, Rng(run_seed(7, i)))
                        for i in range(5)]
        assert all(o.censored and o.tau == 300 for o in outs)
    else:
        n, kernel, oracle = {"ring": (5, _ring_fast, oracle_ring_fast),
                             "clique": (4, _clique_fast, oracle_clique_fast)}[topology]
        for mode in ("depletion", "attempt"):
            for k, x, cap in [(2 ** 70 + 3, 2 ** 68 + 1, 1000), (2 ** 64 + 5, 2 ** 63, 1000),
                              (2 ** 63 + 9, 2 ** 61, 1000), (5, 2 ** 80, 1000),
                              (2 ** 70, 1, 300)]:
                cfg = SimConfig(topology=topology, nodes=n, balance=k, amount=x,
                                stop_mode=mode, max_steps=cap)
                outs = [kernel(cfg, [k], Rng(run_seed(7, i)))[0] for i in range(40)]
                assert outs == [oracle(n, 2 * k, cfg, Rng(run_seed(7, i)))
                                for i in range(40)], (mode, k, x)
                if x > k:  # no balance pays the amount
                    assert {o.tau for o in outs} == {0}
                elif x == 1:  # no count reaches the band
                    assert all(o.censored and o.tau == cap for o in outs)
                else:
                    assert not any(o.censored for o in outs)
    points = capacity_sweep(SimConfig(topology=topology, nodes=5, balance=1, max_steps=200),
                            2 ** 64, 2 ** 66, 2 ** 64, runs_per_point=2)
    assert [p.balance for p in points] == [2 ** 64, 2 ** 65, 3 * 2 ** 64, 2 ** 66]
    assert all(o.censored and o.tau == 200 for p in points for o in p.outcomes)


@pytest.mark.parametrize("topology", ["ring", "clique"])
def test_amount_past_int64_that_no_balance_pays_depletes_at_round_zero(topology):
    cfg = SimConfig(topology=topology, nodes=5, balance=3, amount=10 ** 23, runs=2)
    assert [(o.tau, o.failure_kind) for o in monte_carlo(cfg)] == [(0, "depleted")] * 2


def test_capacity_sweep_rejects_topologies_without_a_kernel():
    # the swept balance means nothing to a snapshot, whose graph fixes capacities
    cfg = SimConfig(topology="snapshot", snapshot_path="missing.json")
    with pytest.raises(ValueError, match="graph-free topology"):
        capacity_sweep(cfg, 1, 3, 1, runs_per_point=2)


@pytest.mark.parametrize("horizon", [-1, 101])
def test_capacity_sweep_rejects_horizon_outside_0_to_max_steps(horizon):
    cfg = SimConfig(topology="ring", nodes=5, balance=1, max_steps=100)
    with pytest.raises(ValueError, match="horizon must be in"):
        capacity_sweep(cfg, 1, 2, 1, runs_per_point=2, horizon=horizon)


@settings(max_examples=200)
@given(n=st.integers(2, 9), graph_seed=st.integers(0, 2 ** 32 - 1),
       x=st.integers(1, 3), mode=st.sampled_from(["depletion", "attempt"]),
       max_steps=st.integers(1, 60), seed=st.integers(0, 2 ** 64 - 1))
def test_payment_process_equals_oracle_property(n, graph_seed, x, mode, max_steps, seed):
    # capacities mix odd and even values, so the floor-to-smaller-id split of
    # an odd capacity decides some outcomes; short caps end runs mid-way
    edges = random_connected_edges(random.Random(graph_seed), n, extra_prob=0.4,
                                   caps=(2, 3, 4, 5, 7, 8, 9))
    g = ChannelGraph(n, edges)
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                    stop_mode=mode, max_steps=max_steps)
    assert run_payment_process(g, cfg, Rng(seed)) == oracle_payment_process(g, cfg, Rng(seed))


@settings(max_examples=120)
@given(n=st.integers(2, 9), graph_seed=st.integers(0, 2 ** 32 - 1),
       x=st.integers(1, 3), mode=st.sampled_from(["depletion", "attempt"]),
       max_steps=st.integers(1, 60), seed=st.integers(0, 2 ** 64 - 1))
def test_payment_process_on_st_dags_equals_oracle_property(n, graph_seed, x, mode,
                                                           max_steps, seed):
    # a cache that builds no rows samples every round from st_dag
    edges = random_connected_edges(random.Random(graph_seed), n, extra_prob=0.4,
                                   caps=(2, 3, 4, 5, 7, 8, 9))
    g = ChannelGraph(n, edges)
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=x,
                    stop_mode=mode, max_steps=max_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("pcnsim.paths._ROW_MAX_NODES", 1)
        cache = DagCache(g)
    assert (run_payment_process(g, cfg, Rng(seed), cache)
            == oracle_payment_process(g, cfg, Rng(seed)))
    assert cache.misses == cache.gets


@pytest.mark.parametrize("mode, pairs, want", [
    # node 0 holds 4 of edge 0 and pays 2 away, gets it back, then pays until
    # it cannot (attempt) or holds less than 2 (depletion)
    ("attempt", [(0, 2), (2, 0), (0, 1), (0, 1), (0, 1)], (4, 0, "attempt_failed")),
    ("depletion", [(0, 2), (2, 0), (0, 1), (0, 1)], (4, 0, "depleted")),
])
def test_payment_process_on_st_dags_pays_an_edge_both_ways(mode, pairs, want, monkeypatch):
    g = ChannelGraph(3, [(0, 1, 8), (1, 2, 12)])
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=2,
                    stop_mode=mode, max_steps=len(pairs))
    monkeypatch.setattr("pcnsim.paths._ROW_MAX_NODES", 1)
    out = run_payment_process(g, cfg, ScriptedRng(pairs), DagCache(g))
    assert (out.tau, out.failing_edge, out.failure_kind) == want
    assert oracle_payment_process(g, cfg, ScriptedRng(pairs)) == out


def test_payment_process_depleted_before_the_first_round_names_the_smallest_edge(
        monkeypatch):
    # edges 1 and 2 start below amount 2 at their smaller-id end; no pair is drawn
    g = ChannelGraph(3, [(0, 1, 8), (1, 2, 3), (0, 2, 2)])
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=2)
    monkeypatch.setattr("pcnsim.paths._ROW_MAX_NODES", 1)
    out = run_payment_process(g, cfg, ScriptedRng([]), DagCache(g))
    assert (out.tau, out.failing_edge, out.failure_kind) == (0, 1, "depleted")
    assert oracle_payment_process(g, cfg, ScriptedRng([])) == out
    attempt = replace(cfg, stop_mode="attempt", max_steps=1)
    assert run_payment_process(g, attempt, ScriptedRng([(0, 1)])).tau == 1


@pytest.mark.parametrize("pairs, want", [
    # node 0 holds the floor of capacity 3 (one unit), node 1 the other two
    ([(0, 1), (0, 1)], (1, 0, "attempt_failed")),
    ([(1, 0), (1, 0), (1, 0)], (2, 0, "attempt_failed")),
])
def test_odd_capacity_floor_goes_to_smaller_id(pairs, want):
    g = ChannelGraph(3, [(0, 1, 3), (1, 2, 8)])
    cfg = SimConfig(topology="snapshot", snapshot_path="<in-memory>", amount=1,
                    stop_mode="attempt", max_steps=len(pairs))
    out = run_payment_process(g, cfg, ScriptedRng(pairs))
    assert (out.tau, out.failing_edge, out.failure_kind) == want
    assert oracle_payment_process(g, cfg, ScriptedRng(pairs)) == out
