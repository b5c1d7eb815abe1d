"""Deterministic randomness for sampling-based solvers and instance generation.

The generator is splitmix64: 64 bits of state, one add-and-mix step per
output word (constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
0x94D049BB133111EB, shifts 30/27/31). It is seedable, portable, and its
output stream for a given seed is a compatibility promise of this package:
regression tests pin known-answer vectors, so the stream will not change
across versions. Bounded draws use rejection sampling, which keeps them
exactly uniform, and fixed-size subsets come from a partial Fisher-Yates
shuffle, which makes every m-element subset exactly equally likely.
``sample_blocks`` streams many subsets of a universe, given as runs of
(size, count), a block of masks at a time, every block drawn with numpy:
uint64 arrays when every element is below 64, lists of ints otherwise. A
block may span runs, one block is held, and each mask is built from its
elements' bits, so no position is mapped to an element afterwards.
``sample_masks`` yields its one-run stream over {0..n-1} as ints. Either
stream is exactly what the scalar sampler would yield.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import BLOCK, _as_block, _element_bits, _elements, _is_int, ints_of

# A seed is the generator's whole state: a plain int in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy operands of the block form; every one is an explicit uint64 so that
# no operation is promoted to int64 or float64 on any numpy version.
_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _reject_from(bound: int) -> int:
    """Largest multiple of ``bound`` that fits in 64 bits: a draw at or above
    it is rejected, so the remainder mod ``bound`` is exactly uniform."""
    return _MASK64 + 1 - (_MASK64 + 1) % bound


def check_seed(seed, error: type[ValueError] = ValueError) -> int:
    """``seed`` if it is a valid seed, else raise ``error`` with the one text.

    Every entry point checks seeds here and picks only the exception type.
    """
    if not (_is_int(seed) and 0 <= seed < SEED_LIMIT):
        raise error(f"seed must be an unsigned 64-bit integer in [0, 2^64), got {seed!r}")
    return seed


class SplitMix64:
    """splitmix64 stream; state is a single 64-bit word."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = check_seed(seed)

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
    _check_size(n, m)
    idx = list(range(n))
    for i in range(m):
        j = i + rng.randrange(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:m]


def sample_mask(n: int, m: int, rng: SplitMix64) -> int:
    """Uniform size-m subset of {0..n-1} as a bitmask."""
    return _scalar_mask(range(n), m, rng)


def _check_size(n: int, m) -> None:
    """The one size check of the samplers: an int (not a bool) in [0, n]."""
    if not _is_int(m):
        raise ValueError(f"size must be an integer, got {m!r}")
    if not 0 <= m <= n:
        raise ValueError(f"cannot sample {m} of {n} positions")


def _mask_block(bits: np.ndarray, runs: list[tuple[int, int]], state: int) -> np.ndarray | None:
    """The masks of ``runs`` over the r elements whose bits are ``bits``
    (``core._element_bits``) drawn from ``state``, as an array, or None.

    ``runs`` holds (size m, count) pairs in stream order, at most BLOCK
    masks in all, none of count 0. Output t of the stream is
    mix(state + t*gamma), so every draw of the block is one uint64
    expression. Mask t's m draws, then zeros, fill column t of the draw
    grid, and position i of every mask is row i of ``idx``, uint8 when
    r <= 256 and uint16 above. A zero draw swaps position i with itself, so
    swap i touches only the masks from the first run longer than i onward.
    Each taken position adds its element's bit. None when any draw would be
    rejected by ``randrange``: the caller then redraws the block with the
    scalar code.
    """
    r = len(bits)
    width = max(m for m, _ in runs)
    count = sum(c for _, c in runs)
    z = np.arange(1, sum(m * c for m, c in runs) + 1, dtype=np.uint64)
    z *= _U_GAMMA
    z += np.uint64(state)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    draws = np.zeros((width, count), dtype=np.uint64)
    first = []  # first[i]: the first mask of the first run longer than i
    start = drawn = 0
    for m, c in runs:
        first += [start] * (m - len(first))
        draws[:m, start : start + c] = z[drawn : drawn + m * c].reshape(c, m).T
        start += c
        drawn += m * c
    position = np.uint8 if r <= 256 else np.uint16
    idx = np.empty((r, count), dtype=position)
    idx[:] = np.arange(r, dtype=position)[:, None]
    flat = idx.reshape(-1)
    columns = np.arange(count)
    for i, lo in enumerate(first):
        bound = r - i  # randrange(r - i) for the i-th swap
        col = draws[i, lo:]
        if int(col.max()) >= _reject_from(bound):
            return None
        j = (col % np.uint64(bound)).astype(np.intp)
        j += i
        j *= count
        j += columns[lo:]  # flat index of row i + draw, column t
        picked = flat[j]
        flat[j] = idx[i, lo:]
        idx[i, lo:] = picked
    taken = np.arange(width)[:, None] < np.repeat([m for m, _ in runs], [c for _, c in runs])
    picked = np.where(taken, bits[idx[:width]], bits.dtype.type(0))
    return picked.sum(axis=0)  # distinct bits: the sum is the OR


def _checked_runs(n: int, runs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    runs = list(runs)
    for m, count in runs:
        _check_size(n, m)
        if not (_is_int(count) and count >= 0):
            raise ValueError(f"count must be an integer >= 0, got {count!r}")
    return runs


def sample_blocks(
    universe: int, runs: Iterable[tuple[int, int]], rng: SplitMix64
) -> Iterator[np.ndarray | list[int]]:
    """For each (m, count) of ``runs`` in order, ``count`` uniform m-subsets
    of the elements of ``universe``, as one stream of blocks of at most
    BLOCK masks.

    Position i of the scalar sampler stands for the i-th smallest element,
    so the masks are ``sample_mask(r, m, rng)`` with each position replaced
    by its element. The runs are checked at the call. Each block is drawn
    by ``_mask_block`` when it is taken and may span runs. It holds BLOCK
    masks, or 2^20 // r when that is fewer, so that its r positions per
    mask stay near 2 MiB. A block that meets a rejection is redrawn by the
    scalar code from the same state. A block is a uint64 array when every
    element is below 64, else a list of ints. Once every block is taken,
    ``rng`` is where the scalar calls would leave it.
    """
    elems = _elements(universe)
    return _block_stream(elems, _checked_runs(len(elems), runs), rng)


def sample_masks(n: int, m: int, count: int, rng: SplitMix64) -> Iterator[int]:
    """``sample_mask(n, m, rng)`` ``count`` times, as a stream of ints:
    ``sample_blocks`` over {0..n-1}, with its checks at the call."""
    return ints_of(sample_blocks((1 << n) - 1, [(m, count)], rng))


def _blocks(runs: list[tuple[int, int]], size: int) -> Iterator[list[tuple[int, int]]]:
    """``runs`` cut into blocks of ``size`` masks (the last may be shorter),
    each a list of runs with no count 0."""
    block, room = [], size
    for m, count in runs:
        while count:
            take = min(count, room)
            block.append((m, take))
            count -= take
            room -= take
            if not room:
                yield block
                block, room = [], size
    if block:
        yield block


def _scalar_mask(elems: Sequence[int], m: int, rng: SplitMix64) -> int:
    """A uniform m-subset of ``elems`` as a bitmask: ``sample_positions``
    over len(elems) positions, position p standing for ``elems[p]``."""
    out = 0
    for p in sample_positions(len(elems), m, rng):
        out |= 1 << elems[p]
    return out


def _block_stream(
    elems: Sequence[int], runs: list[tuple[int, int]], rng: SplitMix64
) -> Iterator[np.ndarray | list[int]]:
    bits = _element_bits(elems)
    for block in _blocks(runs, min(BLOCK, (1 << 20) // max(len(elems), 1))):
        masks = _mask_block(bits, block, rng.state)
        if masks is None:
            masks = [_scalar_mask(elems, m, rng) for m, count in block for _ in range(count)]
            masks = np.array(masks, dtype=bits.dtype)
        else:
            rng.state = (rng.state + sum(m * c for m, c in block) * _GAMMA) & _MASK64
        yield _as_block(masks)
