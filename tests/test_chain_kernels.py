"""Chunk-vectorized chain kernels against their scalar oracles.

The clique fast path and the independent chains must give the same outcome,
draw for draw, as the one-round-at-a-time loops in ``helpers``; the golden
outcomes below were recorded with those loops as the package's own kernels,
and with the multi birth-and-death-chain process as it still is.
"""

from __future__ import annotations

import copy
import logging
import pickle
from itertools import accumulate, takewhile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim import (Rng, SimConfig, run_bdc_process, run_independent_chains,
                    run_seed)
from pcnsim.analytics import ring_edge_probability
from pcnsim.rng import chunk_sizes, word_limit
from pcnsim.sim import _RING_WORDS, _clique_fast, _first_exit, _ring_fast, _selection_cut

from helpers import oracle_clique_fast, oracle_independent_chains

_FAR = 10 ** 12


def _clique(n, k, x=1, mode="depletion", cap=_FAR):
    return SimConfig(topology="clique", nodes=n, balance=k, amount=x, stop_mode=mode,
                     max_steps=cap)


def _caps():
    # no cap, or one that can end a run inside any of the first chunks
    return st.one_of(st.just(_FAR), st.integers(1, 3000))


@settings(max_examples=150)
@given(n=st.integers(2, 40), k=st.integers(1, 8), x=st.integers(1, 4),
       mode=st.sampled_from(["depletion", "attempt"]), cap=_caps(),
       seed=st.integers(0, 2 ** 32))
def test_clique_matches_scalar_oracle(n, k, x, mode, cap, seed):
    cfg = _clique(n, k, x, mode, cap)
    assert _clique_fast(n, [k], cfg, Rng(seed))[0] == oracle_clique_fast(n, 2 * k, cfg,
                                                                         Rng(seed))


@settings(max_examples=120)
@given(n=st.integers(1, 200), k=st.integers(1, 14),
       p=st.sampled_from([1.0, 0.5, 0.25, 0.05, 0.01]),
       cap=st.one_of(st.just(_FAR), st.integers(1, 700)), seed=st.integers(0, 2 ** 32))
def test_independent_chains_match_scalar_oracle(n, k, p, cap, seed):
    assert (run_independent_chains(n, k, p, cap, Rng(seed))
            == oracle_independent_chains(n, k, p, cap, Rng(seed)))


@pytest.mark.parametrize("n,k", [(200, 16), (2000, 3)])
def test_clique_large_runs_match_scalar_oracle(n, k):
    for mode in ("depletion", "attempt"):
        cfg = _clique(n, k, 1, mode)
        for i in range(2):
            rng = Rng(run_seed(5, i))
            assert _clique_fast(n, [k], cfg, rng)[0] == oracle_clique_fast(
                n, 2 * k, cfg, Rng(run_seed(5, i)))


def test_independent_chains_large_k_matches_scalar_oracle():
    # 0.25 is dyadic; the default p of the 4096-ring is not
    for p in (0.25, ring_edge_probability(4096)):
        for n, k in ((4096, 20), (512, 60)):
            assert (run_independent_chains(n, k, p, _FAR, Rng(run_seed(8, n)))
                    == oracle_independent_chains(n, k, p, _FAR, Rng(run_seed(8, n))))


def _stream(rng):
    return rng.np.bit_generator.state


@settings(max_examples=80)
@given(n=st.integers(1, 70), k=st.integers(1, 6),
       p=st.sampled_from([1.0, 0.3, 0.05, ring_edge_probability(70)]),
       cap=st.one_of(st.just(_FAR), st.integers(1, 300)), seed=st.integers(0, 2 ** 32))
def test_independent_chains_carry_a_buffered_half_word(n, k, p, cap, seed):
    # one uint8 draw leaves the high half of a 32-bit draw buffered in PCG64;
    # the chains skip their selection words with advance, which drops it, so
    # they must put it back before drawing directions, and leave the stream
    # where whole-block draws leave it, censored or not
    rng, twin = Rng(seed), Rng(seed)
    for r in (rng, twin):
        r.np.integers(0, 2, size=1, dtype=np.uint8)
    assert _stream(rng)["has_uint32"] == 1
    assert (run_independent_chains(n, k, p, cap, rng)
            == oracle_independent_chains(n, k, p, cap, twin))
    assert _stream(rng) == _stream(twin)


@pytest.mark.parametrize("p", [0.25, 0.05, ring_edge_probability(4096), 1e-300,
                               1 - 2.0 ** -53, 1.0])
def test_selection_cut_is_numpys_random_below_p(p):
    # random() is (w >> 11) * 2**-53 for a raw word w; the cut must be the
    # first word it does not select, which no sampled run could pin down
    cut = _selection_cut(p)
    assert 0 < cut <= 2 ** 64
    assert (cut - 1 >> 11) * 2.0 ** -53 < p
    if cut < 2 ** 64:
        assert not (cut >> 11) * 2.0 ** -53 < p
    else:
        assert p == 1.0


# Outcomes of the one-round-at-a-time kernels, with run_seed(61/62/63, i) for
# the i-th case of each list.
_GOLDEN_CLIQUE = [
    ((2, 1, 1, "depletion", _FAR), (1, 0, "depleted")),
    ((5, 3, 1, "attempt", _FAR), (27, 7, "attempt_failed")),
    ((12, 4, 2, "depletion", _FAR), (16, 26, "depleted")),
    ((30, 6, 3, "attempt", _FAR), (285, 431, "attempt_failed")),
    ((60, 8, 1, "depletion", 5000), (5000, None, "step_cap_reached")),
    ((200, 16, 1, "depletion", _FAR), (208391, 2593, "depleted")),
    ((200, 16, 1, "attempt", _FAR), (294638, 5988, "attempt_failed")),
    ((700, 5, 2, "attempt", _FAR), (7107, 34659, "attempt_failed")),
]
_GOLDEN_BDC = [
    ((1, 1, _FAR), (1, 0, "depleted")),
    ((1, 25, _FAR), (1999, 0, "depleted")),
    ((3, 7, _FAR), (68, 2, "depleted")),
    ((7, 12, 333), (333, None, "step_cap_reached")),
    ((100, 9, _FAR), (969, 12, "depleted")),
    ((1000, 20, _FAR), (26781, 372, "depleted")),
]
_GOLDEN_INDEPENDENT = [
    ((1, 3, 1.0, _FAR), (9, 0, "depleted")),
    ((5, 4, 0.5, _FAR), (14, 1, "depleted")),
    ((64, 10, 0.05, _FAR), (300, 33, "depleted")),
    ((300, 6, 0.3, 77), (13, 15, "depleted")),
    ((50, 30, 0.2, 37), (37, None, "step_cap_reached")),
    ((4096, 20, 0.25, _FAR), (110, 1234, "depleted")),
]


def _triple(out):
    return out.tau, out.failing_edge, out.failure_kind


def test_golden_outcomes():
    got = [_triple(_clique_fast(n, [k], _clique(n, k, x, mode, cap), Rng(run_seed(61, i)))[0])
           for i, ((n, k, x, mode, cap), _) in enumerate(_GOLDEN_CLIQUE)]
    assert got == [want for _, want in _GOLDEN_CLIQUE]
    got = [_triple(run_bdc_process(m, k, cap, Rng(run_seed(62, i))))
           for i, ((m, k, cap), _) in enumerate(_GOLDEN_BDC)]
    assert got == [want for _, want in _GOLDEN_BDC]
    got = [_triple(run_independent_chains(n, k, p, cap, Rng(run_seed(63, i))))
           for i, ((n, k, p, cap), _) in enumerate(_GOLDEN_INDEPENDENT)]
    assert got == [want for _, want in _GOLDEN_INDEPENDENT]


def _scalar_first_exit(state, ids, steps, lo, hi):
    for i, (c, s) in enumerate(zip(ids, steps)):
        state[c] += s
        if not lo <= state[c] <= hi:
            return i
    return -1


def _check_first_exit(state, ids, steps, lo, hi):
    """_first_exit agrees with a scalar walk, and changes state only when the
    chunk runs to its end."""
    state = np.array(state, dtype=np.int64)
    ids, steps = np.array(ids, dtype=np.uint64), np.array(steps, dtype=np.int64)
    walked = state.copy()
    want = _scalar_first_exit(walked, ids.tolist(), steps.tolist(), lo, hi)
    before = state.copy()
    got = _first_exit(state, ids, steps, lo, hi)
    assert got == want
    assert (state == (walked if want < 0 else before)).all()
    return got


def test_first_exit_on_first_and_last_event():
    assert _check_first_exit([5, 9, 5], [1, 0, 2], [1, 1, 1], 1, 9) == 0
    assert _check_first_exit([5, 5, 5], [0, 1, 2, 1, 0, 1], [1, 1, -1, 1, -1, 1], 1, 7) == 5
    assert _check_first_exit([5, 5, 5], [0, 1, 2, 1, 0, 1], [1, 1, -1, 1, -1, -1], 1, 7) == -1


def test_first_exit_two_chains_leave_in_one_chunk():
    # chain 4 leaves at event 3, chain 0 (smaller id, sorted first) at event 5
    ids = [4, 0, 2, 4, 3, 0, 4]
    steps = [2, -2, 2, 2, -2, -2, 2]
    assert _check_first_exit([3, 3, 3, 3, 4], ids, steps, 1, 7) == 3


def test_first_exit_one_chain_hit_many_times():
    # chain 2 swings between 6 and 7 for 299 hits, interleaved with hits on
    # chains 0 and 1 that swing between 0 and 1; its 300th hit (+7) leaves,
    # and only the order of its own steps decides where
    walk = np.ones(300, dtype=np.int64)
    walk[1::2] = -1
    walk[-1] = 7
    ids = np.empty(600, dtype=np.int64)
    ids[0::2] = 2
    ids[1::2] = np.arange(300) % 2
    steps = np.empty(600, dtype=np.int64)
    steps[0::2] = walk
    steps[1::2] = np.where(np.arange(300) // 2 % 2, -1, 1)
    assert _check_first_exit([0, 0, 6, 0], ids, steps, -12, 12) == 598
    assert _check_first_exit([0, 0, 6, 0], ids[:-2], steps[:-2], -12, 12) == -1


@settings(max_examples=200)
@given(chains=st.integers(1, 6), size=st.integers(1, 400), width=st.integers(0, 6),
       reach=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_first_exit_matches_scalar_walk(chains, size, width, reach, seed):
    rng = np.random.default_rng(seed)
    lo, hi = -width * reach, width * reach
    state = rng.integers(lo, hi + 1, chains)
    ids = rng.integers(0, chains, size)
    steps = rng.choice([-reach, reach], size)
    _check_first_exit(state, ids, steps, lo, hi)


def test_clique_attempt_failure_is_not_applied():
    # n=2 has one edge, whose balance walks on {0, 1, 2} from 1; the first
    # payment its payer cannot make ends the run, and tau counts only the
    # rounds before it
    cfg = _clique(2, 1, 1, "attempt")
    for seed in range(20):
        # indices(1, ...) draws nothing
        dirs = Rng(seed).np.integers(0, 2, size=128, dtype=np.uint8).tolist()
        bal = 1
        for tau, d in enumerate(dirs):
            if not 0 <= bal + (1 if d else -1) <= 2:
                break
            bal += 1 if d else -1
        out = _clique_fast(2, [1], cfg, Rng(seed))[0]
        assert (out.tau, out.failing_edge, out.failure_kind) == (tau, 0, "attempt_failed")


@pytest.mark.parametrize("m", [2, 4, 1024])
def test_bdc_runs_for_power_of_two_chain_counts(m):
    out = run_bdc_process(m, 6, _FAR, Rng(run_seed(4, m)))
    assert out.failure_kind == "depleted" and 0 <= out.failing_edge < m and out.tau >= 6
    assert out == run_bdc_process(m, 6, _FAR, Rng(run_seed(4, m)))


@pytest.mark.parametrize("bound", [2, 8, 1 << 20, 1 << 63])
def test_indices_for_power_of_two_bound_are_words_mod_bound(bound):
    for count in (1, 100, 5000):
        words = np.random.Generator(np.random.PCG64(77)).integers(
            0, 1 << 64, size=count + 16, dtype=np.uint64)
        got = Rng(77).indices(bound, count)
        assert got.tolist() == (words[:count] % np.uint64(bound)).tolist()


def test_indices_for_other_bounds_reject_high_words():
    bound = 3 * (1 << 62)  # rejects words >= 3 * 2**62, a quarter of them
    words = np.random.Generator(np.random.PCG64(9)).integers(
        0, 1 << 64, size=2000, dtype=np.uint64).tolist()
    kept, used, passes = [], 0, 0
    while len(kept) < 1000:  # each pass draws 16 more words than it still needs
        need = 1000 - len(kept)
        kept += [w for w in words[used:used + need + 16] if w < bound][:need]
        used += need + 16
        passes += 1
    assert passes > 1
    assert Rng(9).indices(bound, 1000).tolist() == kept


def _randrange_reference(words, bound):
    """Exactly uniform in [0, bound) from an iterator of raw words: the fewest
    words whose 2**(64·count) values cover the bound, read high word first,
    drawn again while at or past the largest multiple of bound they hold."""
    count = -(-(bound - 1).bit_length() // 64)
    limit = (1 << 64 * count) // bound * bound
    while True:
        r = int.from_bytes(b"".join(next(words).to_bytes(8, "big") for _ in range(count)),
                           "big")
        if r < limit:
            return r % bound


@pytest.mark.parametrize("bound", [2 ** 64 + 1, 3 * 2 ** 64, 2 ** 128 + 5])
def test_randrange_past_two_to_the_64_is_multiword_rejection(bound):
    # six all-ones words head the stream; two or three of them are at or
    # past each bound's limit, so the first draws are rejected
    top = [2 ** 64 - 1] * 6
    for seed in range(4):
        stream = top + np.random.Generator(np.random.PCG64(seed)).integers(
            0, 1 << 64, size=2000, dtype=np.uint64).tolist()
        rng = Rng(seed)
        rng.words(0, np.array(top, dtype=np.uint64))
        words = iter(stream)
        got = [rng.randrange(bound) for _ in range(300)]
        assert got == [_randrange_reference(words, bound) for _ in range(300)]
        assert rng.u64() == next(words)  # the same words consumed
        assert got[0] == _randrange_reference(iter(stream[6:]), bound)


def test_chunk_sizes():
    assert list(zip(range(10), chunk_sizes(128, 1 << 14, _FAR))) == [
        (i, min(128 << i, 1 << 14)) for i in range(10)]
    assert list(chunk_sizes(8, 256, 1000)) == [8, 16, 32, 64, 128, 256, 256, 240]
    assert list(chunk_sizes(128, 1 << 14, 100)) == [100]
    assert list(chunk_sizes(8, 256, 0)) == []


def test_rng_buffer_refills_keep_the_stream():
    rng = Rng(21)
    got = [rng.u64() for _ in range(64 + 128 + 256 + 5)]
    words = np.random.Generator(np.random.PCG64(21)).integers(
        0, 1 << 64, size=len(got), dtype=np.uint64).tolist()
    assert got == words


@pytest.mark.parametrize("seed", range(5))
def test_refill_and_indices_read_raw_words_and_keep_a_held_half_word(seed):
    # the scalar buffer and indices read PCG64's raw words, as numpy's
    # full-range uint64 draw does, and leave a held 32-bit half-word alone
    rng, twin = Rng(seed), np.random.Generator(np.random.PCG64(seed))
    for gen in (rng.np, twin):
        gen.integers(0, 1 << 32, dtype=np.uint32)  # holds the word's high half
    assert _stream(rng)["has_uint32"] == 1
    words = twin.bit_generator.random_raw(64 + 100 + 16)
    assert [rng.u64() for _ in range(64)] == words[:64].tolist()  # the first refill
    raw = words[64:]
    kept = raw[raw < np.uint64(word_limit(7))][:100]
    assert rng.indices(7, 100).tolist() == (kept % np.uint64(7)).tolist()
    assert _stream(rng) == twin.bit_generator.state
    assert rng.np.integers(0, 1 << 32, dtype=np.uint32) == twin.integers(0, 1 << 32,
                                                                        dtype=np.uint32)


def test_rng_copies_go_on_with_the_same_stream():
    def drawn(rng):
        return [rng.u64() for _ in range(300)] + rng.indices(7, 50).tolist()

    rng, want = Rng(33), Rng(33)
    for r in (rng, want):
        [r.u64() for _ in range(100)]  # part way into the second buffer
    copies = [pickle.loads(pickle.dumps(rng)), copy.deepcopy(rng)]
    expected = drawn(want)
    assert [drawn(c) for c in copies] == [expected] * 2


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32),
       calls=st.lists(st.tuples(st.sampled_from(["u64", "words"]), st.integers(0, 700),
                                st.integers(0, 700)), min_size=1, max_size=8))
def test_words_read_the_stream_buffered_words_first(seed, calls):
    # scalar draws and blocks of words, each block putting back its last
    # `back` words, read the stream in order, across buffer refills
    rng = Rng(seed)
    stream = np.random.Generator(np.random.PCG64(seed)).integers(
        0, 1 << 64, size=20000, dtype=np.uint64).tolist()
    at = 0
    for how, count, back in calls:
        if how == "u64":
            got = [rng.u64() for _ in range(count)]
        else:
            got = rng.words(count).tolist()
            back = min(back, count)
            rng.words(0, np.array(got[count - back:], dtype=np.uint64))
            got, count = got[:count - back], count - back
        assert got == stream[at:at + count]
        at += count
    assert rng.words(5).tolist() == stream[at:at + 5]


def test_words_put_back_come_first_and_go_on_in_a_copy():
    rng, stream = Rng(8), Rng(8)
    want = [stream.u64() for _ in range(20)]
    head = rng.words(10)
    assert head.dtype == np.uint64 and head.tolist() == want[:10]
    assert rng.words(6, head[6:]).tolist() == want[6:12]  # four put back, two new
    rng.words(0, np.array(want[9:12], dtype=np.uint64))
    for held in (pickle.loads(pickle.dumps(rng)), copy.deepcopy(rng)):
        assert [held.u64() for _ in range(11)] == want[9:20]


_COUNTS = st.one_of(st.integers(0, 9), st.integers(0, 5000))


@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32),
       calls=st.lists(st.tuples(_COUNTS, st.integers(0, 3),
                                st.sampled_from([None, "pickle", "deepcopy"])),
                      min_size=1, max_size=8))
def test_bits_are_numpys_uint8_integers(seed, calls):
    # each call takes bits, then `halves` 32-bit draws that may leave a
    # half-word buffered or take it, and maybe goes on in a copy of the Rng
    rng, twin = Rng(seed), np.random.Generator(np.random.PCG64(seed))
    for count, halves, copier in calls:
        got = rng.bits(count)
        assert got.dtype == np.uint8
        assert got.tolist() == twin.integers(0, 2, size=count, dtype=np.uint8).tolist()
        assert _stream(rng) == twin.bit_generator.state
        assert rng.np.random() == twin.random()
        assert (rng.np.integers(0, 1 << 32, size=halves, dtype=np.uint32).tolist()
                == twin.integers(0, 1 << 32, size=halves, dtype=np.uint32).tolist())
        if copier == "pickle":
            rng = pickle.loads(pickle.dumps(rng))
        elif copier == "deepcopy":
            rng = copy.deepcopy(rng)


def test_bits_go_on_from_a_held_half_word_in_a_copy():
    rng, twin = Rng(12), np.random.Generator(np.random.PCG64(12))
    for gen in (rng.np, twin):
        gen.integers(0, 2, size=3, dtype=np.uint8)  # holds the word's high half
    assert _stream(rng)["has_uint32"] == 1
    want = [twin.integers(0, 2, size=c, dtype=np.uint8).tolist() for c in (3, 13, 0, 4096)]
    for held in (pickle.loads(pickle.dumps(rng)), copy.deepcopy(rng)):
        assert [held.bits(c).tolist() for c in (3, 13, 0, 4096)] == want
        assert _stream(held) == twin.bit_generator.state


def _progress_lines(caplog, what):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith(what)]


@pytest.mark.parametrize("what,run", [
    ("clique process", lambda: _clique_fast(20, [8], _clique(20, 8), Rng(3))[0]),
    ("bdc process", lambda: run_bdc_process(50, 12, _FAR, Rng(3))),
    ("independent chains", lambda: run_independent_chains(64, 9, 0.1, _FAR, Rng(3))),
    ("ring process", lambda: _ring_fast(41, [30], SimConfig(topology="ring", nodes=41,
                                                             balance=30), Rng(3))[0]),
])
def test_kernel_progress_lines_leave_outcomes_unchanged(monkeypatch, caplog, what, run):
    quiet = run()
    monkeypatch.setattr("pcnsim.progress._PROGRESS_SECONDS", 1e-9)
    with caplog.at_level(logging.INFO, logger="pcnsim.sim"):
        loud = run()
    assert loud == quiet
    lines = _progress_lines(caplog, what)
    # one line per chunk the run got through; on an odd ring a block of
    # raw words holds half as many rounds
    start, cap = {"independent chains": (8, 256),
                  "ring process": tuple(size // 2 for size in _RING_WORDS)}.get(
        what, (128, 1 << 14))
    ends = accumulate(chunk_sizes(start, cap, _FAR))
    assert len(lines) == len(list(takewhile(lambda end: end < quiet.tau, ends)))
    assert lines and "rounds/s" in lines[-1] and f"(seed {quiet.seed_used})" in lines[-1]
