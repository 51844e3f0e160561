from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pcnsim import (ChannelGraph, Rng, chernoff_lower, chernoff_upper,
                    clique_failure_window, edge_betweenness, edge_selection_probability,
                    expected_hitting_time, fit_scale, hitting_tail_bound, make_clique,
                    make_ring, reflection_sandwich, ring_edge_probability,
                    ring_edge_probability_exact, run_bdc_process, run_seed, xi_and_bounds)
from pcnsim.analytics import fit_residual
from pcnsim.paths import BetweennessMap

from helpers import brute_edge_betweenness, enumerate_shortest_paths, mean_pair_distance


def test_expected_hitting_time_values():
    assert expected_hitting_time(3, 0) == 9
    assert expected_hitting_time(5, 5) == 0
    assert expected_hitting_time(10, 6) == 64
    with pytest.raises(ValueError):
        expected_hitting_time(4, 5)


def test_expected_hitting_time_symmetric_in_start():
    for k in (3, 7, 12):
        for j in range(k + 1):
            assert expected_hitting_time(k, j) == expected_hitting_time(k, -j)


def test_hitting_time_simulated_mean_from_interior_start():
    # chain started at j=6 with boundary 10: mean within 3% of 100 - 36
    k, j, runs = 10, 6, 50_000
    total = 0
    for i in range(runs):
        rng = Rng(run_seed(1006, i))
        pos = j
        t = 0
        while abs(pos) < k:
            pos += 1 if rng.randrange(2) else -1
            t += 1
        total += t
    want = expected_hitting_time(k, j)
    assert want == 64
    assert abs(total / runs - want) <= 0.03 * want


def test_hitting_tail_bound_values():
    assert hitting_tail_bound(30, 10) == pytest.approx(4 * math.exp(-15))
    assert hitting_tail_bound(30, 10) == pytest.approx(1.224e-6, rel=1e-3)
    assert hitting_tail_bound(1, 10 ** 6) == 1.0
    with pytest.raises(ValueError):
        hitting_tail_bound(0, 5)


def test_hitting_tail_bound_monotone():
    ts = [1, 10, 100, 1000]
    vals = [hitting_tail_bound(40, t) for t in ts]
    assert vals == sorted(vals)
    ks = [10, 20, 40, 80]
    vals = [hitting_tail_bound(k, 50) for k in ks]
    assert vals == sorted(vals, reverse=True)


def test_hitting_tail_bound_dominates_simulation():
    # non-clamped point: k=20, t=30 -> bound ~ 0.434
    k, t, chains = 20, 30, 20000
    gen = np.random.Generator(np.random.PCG64(5))
    steps = gen.integers(0, 2, size=(chains, t), dtype=np.int8).astype(np.int32) * 2 - 1
    hit = np.max(np.abs(np.cumsum(steps, axis=1)), axis=1) >= k
    assert float(np.mean(hit)) <= hitting_tail_bound(k, t)


def test_reflection_sandwich_unit_step():
    lo, hi, observed = reflection_sandwich(1, 1, 1000, seed=3)
    assert lo == 1.0 and observed == 1.0 and hi == 2.0


def test_reflection_sandwich_vacuous_when_k_large():
    lo, hi, observed = reflection_sandwich(100, 10, 1000, seed=4)
    assert lo == 0.0 and observed == 0.0 and hi == 0.0


def test_reflection_sandwich_ordering():
    lo, hi, observed = reflection_sandwich(5, 50, 100_000, seed=9)
    se = 3 * math.sqrt(0.25 / 100_000)
    assert lo <= observed  # pathwise on shared samples
    assert observed <= hi + se


def test_chernoff_values_and_validation():
    assert chernoff_lower(10, 0.5) == pytest.approx(math.exp(-1.25))
    assert chernoff_lower(10, 0.5) == pytest.approx(0.2865, abs=1e-4)
    assert chernoff_upper(10, 0.5) == pytest.approx(math.exp(-10 / 12))
    assert chernoff_lower(10, 1e-9) == pytest.approx(1.0)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            chernoff_lower(10, bad)
    with pytest.raises(ValueError):
        chernoff_upper(0, 0.5)


def test_chernoff_dominates_binomial_tails():
    n, p, delta = 1000, 0.5, 0.2
    mu = n * p
    gen = np.random.Generator(np.random.PCG64(11))
    samples = gen.binomial(n, p, size=200_000)
    lower_emp = float(np.mean(samples <= (1 - delta) * mu))
    upper_emp = float(np.mean(samples >= (1 + delta) * mu))
    assert lower_emp <= chernoff_lower(mu, delta)
    assert upper_emp <= chernoff_upper(mu, delta)


def test_xi_and_bounds_two_edge_example():
    # edges with (k, g) = (5, 1) and (4, 4): ratios {25, 4}, xi = 4
    g = ChannelGraph(3, [(0, 1, 10), (1, 2, 8)])
    bmap = BetweennessMap([1.0, 4.0])
    report = xi_and_bounds(g, bmap)
    assert report.per_edge_ratios == {0: 25.0, 1: 4.0}
    assert report.xi == 4.0
    assert report.argmin_edge == 1
    n = 3
    assert report.lower_bound_value == pytest.approx(4 * n * n / math.log(n))
    assert report.upper_bound_value == pytest.approx(4 * n * n * math.log(n))
    assert report.lower_bound_value <= report.upper_bound_value
    assert report.proof_lower == pytest.approx(n * (n - 1) * 4 / (54 * math.log(n)))
    assert report.proof_upper == pytest.approx(4 * n * (n - 1) * 4 * math.log(n))


def test_xi_single_edge_graph():
    g = ChannelGraph(2, [(0, 1, 6)])
    report = xi_and_bounds(g, edge_betweenness(g))
    assert report.xi == 9.0


def test_xi_clique_reduces_to_uniform_ratio():
    g = make_clique(6, 8)
    report = xi_and_bounds(g, edge_betweenness(g))
    assert report.xi == pytest.approx(16.0)
    assert all(r == pytest.approx(16.0) for r in report.per_edge_ratios.values())


def test_xi_scales_quadratically_with_capacity():
    rng = random.Random(71)
    g = ChannelGraph(5, [(0, 1, 4), (1, 2, 8), (2, 3, 6), (3, 4, 10), (0, 4, 4),
                         (1, 3, 12)])
    bmap = edge_betweenness(g)
    base = xi_and_bounds(g, bmap)
    scaled = xi_and_bounds(g.with_capacities([3 * c for c in g.capacity]), bmap)
    assert scaled.xi == pytest.approx(9 * base.xi)
    assert scaled.argmin_edge == base.argmin_edge
    for eid, r in base.per_edge_ratios.items():
        assert scaled.per_edge_ratios[eid] == pytest.approx(9 * r)


def test_xi_zero_betweenness_edge_excluded_with_warning():
    g = ChannelGraph(3, [(0, 1, 10), (1, 2, 8)])
    report = xi_and_bounds(g, BetweennessMap([0.0, 4.0]))
    assert report.per_edge_ratios[0] == math.inf
    assert report.xi == 4.0
    assert any("zero betweenness" in w for w in report.warnings)


def test_xi_capacity_floor_warning():
    g = make_clique(20, 2)  # k=1 is below 2*sqrt(ln 20)
    report = xi_and_bounds(g, edge_betweenness(g))
    assert any("sqrt(ln n)" in w for w in report.warnings)


def test_clique_failure_window_shape():
    lo, hi = clique_failure_window(100, 16)
    m = 100 * 99 // 2
    assert lo == pytest.approx(m * 256 / (27 * math.log(100)))
    assert hi == pytest.approx(4 * m * 256)
    assert lo < hi


def test_ring_edge_probability_values():
    assert ring_edge_probability(4096) == pytest.approx(2047 * 2048 / (4096 * 4095))
    assert abs(ring_edge_probability(4096) - 0.24994) < 1e-5
    assert ring_edge_probability(4) == pytest.approx(1 / 6)
    assert ring_edge_probability(10 ** 6) == pytest.approx(0.25, abs=1e-5)
    with pytest.raises(ValueError):
        ring_edge_probability(2)


def test_ring_edge_selection_probability_exact_values():
    # the exact per-edge probability, from exact betweenness: the closed form
    # for odd n, and n/(4(n-1)) for even n, which counts the antipodal pairs
    # that ring_edge_probability leaves out
    for n in [*range(3, 65), 512]:
        g = make_ring(n, 2)
        bmap = edge_betweenness(g)
        want = ring_edge_probability_exact(n)
        for eid in range(n):
            assert edge_selection_probability(g, bmap, eid) == pytest.approx(want, rel=1e-12)


def test_ring_edge_probability_exact_is_the_pair_and_path_average():
    # every ordered pair of distinct nodes, and each of its shortest paths
    # with an equal share, as exact fractions
    for n in range(3, 13):
        edges = list(zip(range(n), [(i + 1) % n for i in range(n)], [2] * n))
        crossed = [Fraction(0)] * n
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                paths = enumerate_shortest_paths(edges, n, s, t)
                for path in paths:
                    for a, b in zip(path, path[1:]):
                        eid = min(a, b) if {a, b} != {0, n - 1} else n - 1
                        crossed[eid] += Fraction(1, len(paths) * n * (n - 1))
        assert len(set(crossed)) == 1
        assert ring_edge_probability_exact(n) == float(crossed[0])
        assert crossed[0] == (Fraction(n + 1, 4 * n) if n % 2 else Fraction(n, 4 * (n - 1)))
        if n % 2:
            assert ring_edge_probability_exact(n) == pytest.approx(ring_edge_probability(n))
    with pytest.raises(ValueError):
        ring_edge_probability_exact(2)


def test_ring_edge_probability_exact_for_odd_n():
    # for odd rings the formula equals the normalized betweenness and the
    # per-edge sum recovers the mean pair distance (no antipodal pairs)
    for n in (5, 7, 9, 11):
        g = make_ring(n, 2)
        edges = [(g.edge_u[i], g.edge_v[i], 0) for i in range(n)]
        brute = brute_edge_betweenness(edges, n)
        p_formula = ring_edge_probability(n)
        for eid in range(n):
            assert 2 * brute[eid] / (n * (n - 1)) == pytest.approx(p_formula, abs=1e-12)
        assert n * p_formula == pytest.approx(mean_pair_distance(edges, n), abs=1e-12)


def test_fit_scale_recovers_exact_constant():
    k = 16
    for model in ("upper", "lower"):
        points = []
        for n in (50, 100, 150):
            f = k * k * n * n / (math.log(n) if model == "lower" else 1.0)
            points.append((n, 7.0 * f))
        assert fit_scale(points, model, k) == pytest.approx(7.0)


def test_fit_scale_single_point():
    k = 4
    n, y = 20, 12345.0
    assert fit_scale([(n, y)], "upper", k) == pytest.approx(y / (k * k * n * n))


def test_fit_scale_residual_is_global_minimum():
    rng = random.Random(83)
    k = 8
    points = [(n, k * k * n * n * 0.003 * (1 + rng.uniform(-0.2, 0.2)))
              for n in (30, 60, 90, 120)]
    for model in ("upper", "lower"):
        p = fit_scale(points, model, k)
        base = fit_residual(points, model, k, p)
        assert fit_residual(points, model, k, 1.01 * p) >= base
        assert fit_residual(points, model, k, 0.99 * p) >= base


def test_fit_scale_validation():
    with pytest.raises(ValueError):
        fit_scale([], "upper", 4)
    with pytest.raises(ValueError):
        fit_scale([(2, 1.0)], "upper", 4)
    with pytest.raises(ValueError):
        fit_scale([(10, 1.0)], "middle", 4)
