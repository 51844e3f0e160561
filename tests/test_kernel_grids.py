"""The ring, clique and chain kernels walk a grid of balances in one run.

No draw reads a balance, so one walk over an ascending grid must give every
balance the outcome of its own run, failing edge included, and leave the
stream where the run at the largest balance leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcnsim.sim
from pcnsim import Rng, SimConfig
from pcnsim.sim import _TOPOLOGY, _chains_walk, _clique_fast, _ring_fast

from helpers import oracle_clique_fast, oracle_independent_chains, oracle_ring_fast

_FAR = 10 ** 12
_MODES = st.sampled_from(["depletion", "attempt"])


def _grids(top):
    # ascending balances, often next to each other, so that one round of an
    # amount above 1 stops several, and often below the amount
    return st.one_of(st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True),
                     st.lists(st.integers(1, top), min_size=1, max_size=6,
                              unique=True)).map(sorted)


def _left(rng):
    """Where a run left the stream: the next raw words, buffered ones first."""
    return [rng.u64() for _ in range(3)]


def _check_walk(walk, oracle, ks, seed):
    """``walk(ks, rng)`` against ``walk([k], rng)`` and ``oracle(k, rng)`` at
    each k; the walk must leave the stream where both leave it at the last k."""
    rng = Rng(seed)
    got = walk(ks, rng)
    assert len(got) == len(ks)
    for k, out in zip(ks, got):
        alone, twin = Rng(seed), Rng(seed)
        assert out == walk([k], alone)[0] == oracle(k, twin), k
    assert _left(rng) == _left(alone) == _left(twin)
    return got


def _cfg(topology, n, ks, x, mode, cap):
    return SimConfig(topology=topology, nodes=n, balance=ks[0], amount=x, stop_mode=mode,
                     max_steps=cap)


@settings(max_examples=200)
@given(n=st.integers(3, 24), ks=_grids(40), x=st.integers(1, 3), mode=_MODES,
       cap=st.one_of(st.integers(1, 300), st.integers(301, 1500)),
       seed=st.integers(0, 2 ** 64 - 1))
def test_ring_walk_equals_one_run_per_balance_property(n, ks, x, mode, cap, seed):
    cfg = _cfg("ring", n, ks, x, mode, cap)
    _check_walk(lambda ks, rng: _ring_fast(cfg, ks, rng),
                lambda k, rng: oracle_ring_fast(n, 2 * k, cfg, rng), ks, seed)


@pytest.mark.parametrize("batch, block", [(1, 1), (1, 2 ** 30), (32, 1), (32, 2 ** 30)])
@settings(max_examples=100)
@given(n=st.integers(3, 40),
       ks=st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True).map(sorted),
       x=st.integers(1, 3), mode=_MODES, cap=st.integers(1, 3000),
       seed=st.integers(0, 2 ** 64 - 1))
def test_ring_batches_equal_the_oracle_property(batch, block, n, ks, x, mode, cap, seed):
    # batches of one round or of 32, and exact blocks that hold at most one
    # level or every one: each path of the kernel near the band, on odd and
    # even rings (antipodal ties) and grids of balances an amount apart
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pcnsim.sim, "_RING_BATCH", batch)
        patch.setattr(pcnsim.sim, "_RING_BLOCK", block)
        cfg = _cfg("ring", n, ks, x, mode, cap)
        _check_walk(lambda ks, rng: _ring_fast(cfg, ks, rng),
                    lambda k, rng: oracle_ring_fast(n, 2 * k, cfg, rng), ks, seed)


@settings(max_examples=200)
@given(n=st.integers(2, 30), ks=_grids(12), x=st.integers(1, 4), mode=_MODES,
       cap=st.one_of(st.just(_FAR), st.integers(1, 3000)), seed=st.integers(0, 2 ** 32))
def test_clique_walk_equals_one_run_per_balance_property(n, ks, x, mode, cap, seed):
    cfg = _cfg("clique", n, ks, x, mode, cap)
    _check_walk(lambda ks, rng: _clique_fast(cfg, ks, rng),
                lambda k, rng: oracle_clique_fast(n, 2 * k, cfg, rng), ks, seed)


@settings(max_examples=200)
@given(n=st.integers(1, 60), ks=_grids(14), p=st.sampled_from([1.0, 0.5, 0.25, 0.05]),
       cap=st.one_of(st.just(_FAR), st.integers(1, 700)), seed=st.integers(0, 2 ** 32))
def test_chains_walk_equals_one_run_per_balance_property(n, ks, p, cap, seed):
    cfg = SimConfig(topology="independent", nodes=n, balance=ks[0], p_select=p, max_steps=cap)
    _check_walk(lambda ks, rng: _chains_walk(cfg, ks, rng),
                lambda k, rng: oracle_independent_chains(n, k, p, cap, rng), ks, seed)


@settings(max_examples=300)
@given(topology=st.sampled_from(["ring", "clique", "independent"]), n=st.integers(3, 20),
       k=st.one_of(st.integers(1, 12), st.integers(13, 80)), x=st.integers(1, 5), mode=_MODES,
       cap=st.one_of(st.integers(1, 300), st.integers(301, 1500)),
       seed=st.integers(0, 2 ** 64 - 1))
def test_kernels_read_a_balance_only_through_its_band_property(topology, n, k, x, mode,
                                                               cap, seed):
    # a kernel stops balance k once a change passes k - lo, with lo the
    # amount in depletion mode and 0 in attempt mode, and it changes in
    # steps of x, so k runs as lo + K·x does, K = (k - lo) // x; below lo
    # (K < 0) both deplete before round 0
    if topology == "independent":
        x, mode = 1, "depletion"  # the chains' only amount and stop mode
    lo = x if mode == "depletion" else 0
    low = lo + (k - lo) // x * x
    kernel = _TOPOLOGY[topology].kernel
    cfg = _cfg(topology, n, [k], x, mode, cap)
    out = kernel(cfg, [k], Rng(seed))[0]
    assert out == kernel(cfg, [low], Rng(seed))[0]
    if k < lo:
        assert (out.tau, out.failing_edge, out.failure_kind) == (0, 0, "depleted")


@pytest.mark.parametrize("mode", ["depletion", "attempt"])
def test_one_ring_round_stops_every_balance_it_takes_past_its_band(mode):
    # every word 0 draws the pair (0, 1) on a 5-ring, so every round pays 3
    # out of node 0 over edge 0.  Depletion: lo = 3, so balances 1 and 2 stop
    # before the first round, and round t stops the balances whose band
    # k - 3 is below 3t.  Attempt: round t fails, uncounted, for the balances
    # below 3t.  Either way one round stops up to three balances.
    ks = [1, 2, 3, 4, 5, 6, 8, 9]
    want = [(0, 0), (0, 0), (1, 0), (1, 0), (1, 0), (2, 0), (2, 0), (3, 0)]
    cfg = SimConfig(topology="ring", nodes=5, balance=1, amount=3, stop_mode=mode)

    def zeros():
        rng = Rng(0)
        rng.words(0, np.zeros(64, dtype=np.uint64))
        return rng

    outs = _ring_fast(cfg, ks, zeros())
    assert [(o.tau, o.failing_edge) for o in outs] == want
    assert outs == [_ring_fast(cfg, [k], zeros())[0] for k in ks]
