"""Seedable random streams with a documented derivation, so runs replay exactly.

Every simulation run owns one `Rng` built from a 64-bit seed.  Campaign seeds
are derived as ``run_seed(base_seed, run_index)``; the derivation and the
bit-generator identifier below are echoed into every output file.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Recorded in output metadata; bump if the stream derivation ever changes.
PRNG_ID = "pcg64+splitmix64-run-derivation"

_MASK64 = (1 << 64) - 1
_WORD = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 1 << 15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def next_size(size: int, cap: int) -> int:
    """The chunk size after ``size``: double it, but never past ``cap``."""
    return min(size * 2, cap)


def chunk_sizes(first: int, cap: int, total: int) -> Iterator[int]:
    """Chunk sizes first, 2·first, 4·first, … up to cap, then cap.

    Every chunked draw loop takes its sizes from here or from ``next_size``,
    so short runs stay cheap and the sizes, which fix how a stream is cut,
    follow one rule.  The last size is clipped so that the sizes sum to
    ``total``.
    """
    size = first
    while total > 0:
        chunk = min(size, total)
        yield chunk
        total -= chunk
        size = next_size(size, cap)


def word_limit(bound: int) -> int:
    """Integer draws in [0, bound) reject the raw words at or past this, and
    take the others mod bound; 2**64 when bound divides 2**64."""
    return _WORD - _WORD % bound


def run_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed = mix of (base_seed, run_index); deterministic and stable."""
    if run_index < 0:
        raise ValueError("run_index must be nonnegative")
    return _mix64((base_seed + _GOLDEN * (run_index + 1)) & _MASK64)


class Rng:
    """Buffered wrapper over numpy's PCG64 for fast exact scalar draws.

    Every draw reads PCG64's raw 64-bit words.  Scalar draws (``u64``,
    ``randrange``, ``pair``) take whole words, in order, from an internal
    buffer, which keeps per-draw cost near list-iteration speed;
    ``words`` returns a block of them as an array, buffered words first, and
    can put back the ones its caller did not use.  ``indices`` takes whole
    words too, and ``bits`` takes the bytes of the 32-bit halves numpy
    splits words into.  Integer draws are rejection sampled, so they are
    exactly uniform (no modulo bias).  The underlying
    :class:`numpy.random.Generator` is exposed as ``.np`` for vectorized use;
    mixing scalar and vector draws is fine, the stream stays deterministic for
    a fixed call sequence.
    """

    __slots__ = ("seed", "np", "_buf", "_pos", "_size")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.np = np.random.Generator(np.random.PCG64(self.seed))
        self._buf: list[int] = []
        self._pos = 0
        self._size = 64  # grows geometrically; keeps short-lived streams cheap

    def _refill(self) -> None:
        self._buf = self.np.bit_generator.random_raw(self._size).tolist()
        self._size = next_size(self._size, _CHUNK)
        self._pos = 0

    def u64(self) -> int:
        if self._pos >= len(self._buf):
            self._refill()
        v = self._buf[self._pos]
        self._pos += 1
        return v

    def randrange(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        if bound > _WORD:
            return self._randrange_wide(bound)
        limit = word_limit(bound)
        while True:
            r = self.u64()
            if r < limit:
                return r % bound

    def _randrange_wide(self, bound: int) -> int:
        """randrange for bounds past 2**64: rejection over several words."""
        span, words = _WORD * _WORD, 2
        while span < bound:
            span *= _WORD
            words += 1
        limit = span - span % bound
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.u64()
            if r < limit:
                return r % bound

    def words(self, count: int, back: np.ndarray | None = None) -> np.ndarray:
        """The next ``count`` raw words as uint64, buffered words first.

        ``back``, if given, holds words an earlier call returned that its
        caller did not use; they go back to the head of the buffer first, so
        they are the first words returned (and ``words(0, back)`` only puts
        them back).  Every later scalar draw or ``words`` call reads the
        stream as if those words had never been taken.
        """
        if back is not None and len(back):
            self._buf = back.tolist() + self._buf[self._pos:]
            self._pos = 0
        held = self._buf[self._pos:self._pos + count]
        self._pos += len(held)
        fresh = self.np.bit_generator.random_raw(count - len(held))
        if not held:
            return fresh
        return np.concatenate((np.array(held, dtype=np.uint64), fresh))

    def pair(self, n: int) -> tuple[int, int]:
        """Ordered pair of distinct indices in [0, n), uniform over all n(n-1)."""
        s = self.randrange(n)
        t = self.randrange(n - 1)
        if t >= s:
            t += 1
        return s, t

    def indices(self, bound: int, count: int) -> np.ndarray:
        """`count` exactly-uniform integers in [0, bound), drawn vectorized.

        Each pass draws 16 words more than it still needs and drops the
        words it does not use.  When bound divides 2**64 no word is rejected.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return np.zeros(count, dtype=np.uint64)
        limit = word_limit(bound)
        limit = np.uint64(limit) if limit < _WORD else None
        ubound = np.uint64(bound)
        parts: list[np.ndarray] = []
        need = count
        while need > 0:
            raw = self.np.bit_generator.random_raw(need + 16)
            kept = (raw if limit is None else raw[raw < limit])[:need] % ubound
            parts.append(kept)
            need -= len(kept)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint64)

    def bits(self, count: int) -> np.ndarray:
        """`count` independent fair bits, as uint8: exactly
        ``self.np.integers(0, 2, size=count, dtype=np.uint8)``, stream included.

        numpy draws those from 32-bit halves of PCG64's raw words, low half
        first, taking a half it holds buffered (``has_uint32``, ``uinteger``)
        before any new word; each half gives four bytes, low byte first, and
        bit i is the top bit of byte i.  So the bits are the top bits of the
        buffered half's bytes, if one is held, then of the little-endian bytes
        of ``random_raw`` words.  A word whose high half goes unused leaves it
        buffered for the next 32-bit draw, as numpy does.
        """
        bitgen = self.np.bit_generator
        state = bitgen.state
        halves = -(-count // 4)  # the 32-bit draws numpy makes
        held = min(state["has_uint32"], halves)
        words = bitgen.random_raw((halves - held + 1) // 2)
        raw = words.astype("<u8", copy=False).view(np.uint8)
        if held:
            half = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
            raw = np.concatenate((half, raw))
        if held or len(words):
            state = bitgen.state
            state["has_uint32"] = (halves - held) % 2
            if len(words):  # numpy keeps the last word's high half, used or not
                state["uinteger"] = int(words[-1] >> np.uint64(32))
            bitgen.state = state
        return raw[:count] >> 7
