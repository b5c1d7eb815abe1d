"""Deterministic randomness for sampling-based solvers and instance generation.

The generator is splitmix64: 64 bits of state, one add-and-mix step per
output word (constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
0x94D049BB133111EB, shifts 30/27/31). It is seedable, portable, and its
output stream for a given seed is a compatibility promise of this package:
regression tests pin known-answer vectors, so the stream will not change
across versions. Bounded draws use rejection sampling, which keeps them
exactly uniform, and fixed-size subsets come from a partial Fisher-Yates
shuffle, which makes every m-element subset exactly equally likely.
``sample_masks`` streams many subsets: it draws them BLOCK at a time with
numpy, holds one block, and yields exactly what the scalar sampler would.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import BLOCK, _is_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy operands of the block form; every one is an explicit uint64 so that
# no operation is promoted to int64 or float64 on any numpy version.
_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U_ONE = np.uint64(1)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _reject_from(bound: int) -> int:
    """Largest multiple of ``bound`` that fits in 64 bits: a draw at or above
    it is rejected, so the remainder mod ``bound`` is exactly uniform."""
    return _MASK64 + 1 - (_MASK64 + 1) % bound


class SplitMix64:
    """splitmix64 stream; state is a single 64-bit word."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not (_is_int(seed) and 0 <= seed <= _MASK64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection; no modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        threshold = _reject_from(bound)
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % bound

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        if high < low:
            raise ValueError("empty range")
        return low + self.randrange(high - low + 1)


def sample_positions(n: int, m: int, rng: SplitMix64) -> list[int]:
    """m distinct positions from {0..n-1}, uniform over all m-subsets.

    Partial Fisher-Yates: after i swaps the prefix idx[:i] is a uniform
    i-permutation, so the returned prefix hits every m-subset with equal
    probability.
    """
    if not 0 <= m <= n:
        raise ValueError(f"cannot sample {m} of {n} positions")
    idx = list(range(n))
    for i in range(m):
        j = i + rng.randrange(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:m]


def sample_mask(n: int, m: int, rng: SplitMix64) -> int:
    """Uniform size-m subset of {0..n-1} as a bitmask."""
    out = 0
    for p in sample_positions(n, m, rng):
        out |= 1 << p
    return out


def _mask_block(n: int, m: int, count: int, state: int) -> list[int] | None:
    """``count`` size-m masks over n <= 64 drawn from ``state``, or None.

    Output t of the stream is mix(state + t*gamma), so all count*m draws are
    one uint64 expression. None when any draw would be rejected by
    ``randrange``: the caller then redraws the block with the scalar code.
    """
    z = np.arange(1, count * m + 1, dtype=np.uint64)
    z *= _U_GAMMA
    z += np.uint64(state)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    draws = z.reshape(count, m)
    bounds = range(n, n - m, -1)  # randrange(n - i) for the i-th swap
    for top, bound in zip(draws.max(axis=0).tolist(), bounds):
        if top >= _reject_from(bound):
            return None
    draws %= np.array(bounds, dtype=np.uint64)
    idx = np.empty((count, n), dtype=np.uint8)
    idx[:] = np.arange(n, dtype=np.uint8)
    rows = np.arange(count)
    for i in range(m):
        j = draws[:, i].astype(np.intp) + i
        picked = idx[rows, j]
        idx[rows, j] = idx[:, i]
        idx[:, i] = picked
    bits = np.left_shift(_U_ONE, idx[:, :m].astype(np.uint64))
    return np.bitwise_or.reduce(bits, axis=1).tolist()


def sample_masks(n: int, m: int, count: int, rng: SplitMix64) -> Iterator[int]:
    """``sample_mask(n, m, rng)`` ``count`` times, as a stream.

    The arguments are checked at the call. For n <= 64 the masks are drawn
    BLOCK at a time by ``_mask_block`` as they are taken; a block that meets
    a rejection is redrawn by the scalar code from the same state, and
    larger grounds always use it. Once every mask is taken, ``rng`` is where
    ``count`` scalar calls would leave it.
    """
    if not 0 <= m <= n:
        raise ValueError(f"cannot sample {m} of {n} positions")
    if not (_is_int(count) and count >= 0):
        raise ValueError(f"count must be an integer >= 0, got {count!r}")
    return _mask_stream(n, m, count, rng)


def _mask_stream(n: int, m: int, count: int, rng: SplitMix64) -> Iterator[int]:
    for start in range(0, count, BLOCK):
        size = min(BLOCK, count - start)
        block = _mask_block(n, m, size, rng.state) if n <= 64 else None
        if block is None:
            block = [sample_mask(n, m, rng) for _ in range(size)]
        else:
            rng.state = (rng.state + size * m * _GAMMA) & _MASK64
        yield from block
