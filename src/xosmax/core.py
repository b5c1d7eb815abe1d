"""Core types for XOS set-function maximization in the value-oracle model.

An XOS (max-of-additive) function over a ground set V = {0, ..., n-1} is

    f(X) = max_i  sum_{v in X} w_i(v),        i = 1..k,

the pointwise maximum of k additive functions. The number k is the width of
the representation. Algorithms in this package interact with f only through
a :class:`CountingOracle`, whose call counter is the complexity measure of
record.

Conventions used throughout the package:

* Subsets are plain ``int`` bitmasks of any length at every API boundary.
  Bit ``v`` set means element ``v`` is in the subset. Inside the query path
  the producers (``subset_blocks``, ``rng.sample_blocks``) build every
  block from a table of element bits (``_element_bits``) by one route at
  every ground size. A block over elements below 64 is one 1-D
  ``np.uint64`` array from the producer to the table that answers it, and
  only the reported maximizer becomes an int; a larger one is a list of
  ints. Ground sizes are limited to
  1 <= n <= MAX_GROUND_SIZE, and :class:`GroundSet` alone checks that bound,
  which masks are subsets and which ints are elements: ``validate_subset``
  one mask at a time, ``validate_element`` one element,
  ``validate_block`` one list or array at a time.
* A value source (``XosRepresentation``, a hidden family) exposes only
  ``evaluate(mask)``, plus ``_values`` on a uint64 array when n <= 64,
  plus per-element ``columns``, their ``_peaks``, the per-component
  weights of its ``components`` and, when n <= 64, ``_byte_rows`` when it
  has cached sums. A :class:`CountingOracle` picks which of them answers
  its queries once, when it is built, and
  ``CountingOracle.evaluate_many`` is the one route that answers a block.
* An adaptive query for a set plus one element is
  ``CountingOracle.evaluate_plus(base, u)``, one counted query. On an
  explicit representation the oracle answers it, and ``evaluate``, from
  the component sums of the last set it answered, moved to the asked set
  by one of three routes: one step for one added element; a walk of
  min(|diff|, |set|) elements, over the symmetric difference or over the
  set from the empty one; or, when n <= 64 and that walk is longer than
  the ground's ceil(n/8) bytes, one row of sums per nonzero byte of the
  set (``_byte_rows``). Other value functions get the mask
  ``base | 1 << u``.
  A greedy additive closure is one ``CountingOracle.grow`` call, the
  elements that improve a set one ``CountingOracle.improving`` call and
  the n singleton values one ``CountingOracle.singletons`` call, each
  counted as one query per scanned element. On an explicit representation
  they compute no value: ``grow`` decides every step from argmax sets of
  components, ``improving`` compares each weight with the gap between
  f(X) and its component's sum, and ``singletons`` copies the cached
  singleton values; elsewhere each asks ``evaluate_plus`` element by
  element.
* A solver run makes fewer than MAX_QUERIES oracle queries. Each solver
  call keeps one :class:`Run`, whose ``phase`` alone checks that bound.
* Function values are exact integers constrained to the signed 64-bit range.
  A weight outside [-2^63, 2^63 - 1], or a component whose positive weights
  sum above 2^63 - 1 or whose negative weights sum below -2^63, is refused
  with :class:`ValueOverflowError` when the component is built. After that
  no subset sum can leave the range, so no evaluation checks or wraps one.
* The canonical enumeration order of subsets is ascending cardinality, then
  ascending numeric mask value (``subset_blocks``). Argmax scans keep the
  first maximizer: ``first_max`` over (mask, value) pairs, or ``best_of``
  over blocks of masks that do not depend on earlier answers, each asked
  through ``CountingOracle.evaluate_many``. So every tie-break in the
  package is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, gt, sub
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Subsets are Python ints, so nothing ties n to a machine word. The cap bounds
# the work a document can ask for: the hidden families allocate O(n) per
# sampled subset and HardGeneralInstance.representation() is O(n^2).
MAX_GROUND_SIZE = 4096

# Queries whose masks do not depend on earlier answers go to the oracle in
# batches of at most BLOCK masks, so a search holds O(BLOCK) masks and values
# however many queries it makes.
BLOCK = 1024

# Fewer than MAX_QUERIES oracle queries per solver run. Exact maximization
# needs exponentially many queries already at width 3, so a run that would
# reach the limit is refused before it starts the phase that would cross it.
MAX_QUERIES = 1 << 21

# numpy operands of the array route; each is an explicit uint64 so that no
# shift or mask is promoted to int64 or float64 on any numpy version.
_U_ONE = np.uint64(1)
_U56 = np.uint64(56)
_U_BYTE_SUM = np.uint64(0x0101010101010101)
# The SWAR masks of ``bit_counts``: every other bit, every other bit pair,
# and the low nibble of each byte.
_U_ODD = np.uint64(0x5555555555555555)
_U_PAIRS = np.uint64(0x3333333333333333)
_U_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_U_TWO = np.uint64(2)
_U_FOUR = np.uint64(4)
# Turns bytes of 0s and 1s into the ASCII digits that ``int(..., 2)`` reads.
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


class ValueOverflowError(OverflowError):
    """A value, weight or component's positive or negative weight sum lies
    outside the signed 64-bit range."""


class InstanceFormatError(ValueError):
    """An instance description (JSON or dict) is malformed."""


class CapExceededError(RuntimeError):
    """A run would exceed a fixed work bound: MAX_QUERIES or a table cap."""


def _is_int(v) -> bool:
    """True for a plain int; a bool is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_value(v: int, what: str = "value") -> int:
    """Validate that ``v`` is a plain int inside the signed 64-bit range."""
    if not _is_int(v):
        raise InstanceFormatError(f"{what} must be an integer, got {type(v).__name__}")
    if not INT64_MIN <= v <= INT64_MAX:
        raise ValueOverflowError(f"{what} {v} outside signed 64-bit range")
    return v


# ---------------------------------------------------------------------------
# Subset helpers (subsets are plain int bitmasks)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for v in elements:
        m |= 1 << v
    return m


def bit_counts(masks: np.ndarray) -> np.ndarray:
    """The number of set bits of each mask of a uint64 array, as int64.

    The 64-bit SWAR popcount, since numpy 1.24 has no ``bitwise_count``:
    each bit pair, then each nibble, then each byte holds its own count, and
    multiplying by 0x0101010101010101 sums the eight byte counts into the
    top byte. Every operand is uint64, so no step is promoted on any numpy
    version; the input is read in place, whatever its strides.
    """
    x = np.asarray(masks, dtype=np.uint64)
    x = x - ((x >> _U_ONE) & _U_ODD)
    x = (x & _U_PAIRS) + ((x >> _U_TWO) & _U_PAIRS)
    x = (x + (x >> _U_FOUR)) & _U_NIBBLES
    return ((x * _U_BYTE_SUM) >> _U56).astype(np.int64)


def _elements(universe: int) -> Sequence[int]:
    """The elements of ``universe`` in ascending order; a range when it is {0..r-1}."""
    if universe & (universe + 1) == 0:
        return range(universe.bit_length())
    return elements_of(universe)


def _element_bits(elems: Sequence[int]) -> np.ndarray:
    """1 << v for each element v of ``elems`` (ascending), the table block
    producers build masks from: uint64 when every element is below 64, else
    an object array of ints."""
    if elems and elems[-1] >= 64:
        return np.array([1 << v for v in elems], dtype=object)
    return _U_ONE << np.array(elems, dtype=np.uint64)


def _as_block(masks: np.ndarray) -> np.ndarray | list[int]:
    """A block as producers yield it: uint64 as it is, ints as a list."""
    return masks if masks.dtype == np.uint64 else masks.tolist()


@lru_cache(maxsize=64)
def _binomials(top: int, r: int) -> np.ndarray:
    """C(p, i) at [i, p] for 0 <= i <= top and 0 <= p <= r, read-only. Row
    i is the running sum of row i-1 (C(p, i) = sum_{q<p} C(q, i-1)). The
    largest entry is C(r, min(top, r // 2)); CapExceededError when it
    passes int64, which needs r > 66."""
    if math.comb(r, min(top, r // 2)) > INT64_MAX:
        raise CapExceededError(f"subsets of up to {top} of {r} elements cannot be ranked in int64")
    table = np.zeros((top + 1, r + 1), dtype=np.int64)
    table[0] = 1
    for i in range(1, top + 1):
        table[i, 1:] = np.cumsum(table[i - 1, :-1])
    table.flags.writeable = False
    return table


def _unrank(binom: np.ndarray, bits: np.ndarray, c: int, lo: int, out: np.ndarray) -> None:
    """Fill ``out`` with the c-subsets of colex ranks lo, lo+1, ... as masks.

    Position p stands for the element bit ``bits[p]``, and row i of
    ``binom`` holds C(p, i) for every position p. Colex order of c-subsets
    is ascending mask order. The subset of rank R has as its largest
    position the last p with C(p, c) <= R, and the rest is the (c-1)-subset
    of rank R - C(p, c): one ``searchsorted`` per element, and C(p, 1) = p
    needs none.
    """
    rank = np.arange(lo, lo + len(out), dtype=np.int64)
    out[:] = 0
    for i in range(c, 1, -1):
        row = binom[i]
        p = row.searchsorted(rank, side="right") - 1
        rank -= row[p]
        out |= bits[p]
    if c:
        out |= bits[rank]


def subset_blocks(universe: int, cap: int, least: int = 0) -> Iterator[np.ndarray | list[int]]:
    """The subsets of ``universe`` with ``least`` to ``cap`` elements, in
    canonical order, at most BLOCK masks a block.

    With the default ``least`` the empty set comes first. Size class c is
    the c-subsets of colex ranks 0 .. C(r, c)-1, each unranked on its own
    (``_unrank``) from the element bits (``_element_bits``), so a block may
    span size classes and only one block is held, however large a class is.
    A block is a uint64 array when every element is below 64, else a list
    of ints. The first block raises CapExceededError when the binomials up
    to size min(cap, r) pass int64 (``_binomials``).
    """
    elems = _elements(universe)
    r = len(elems)
    top = min(cap, r)
    binom = _binomials(top, r)
    rows = binom[:, :r]
    bits = _element_bits(elems)
    out, fill = np.empty(BLOCK, dtype=bits.dtype), 0
    for c in range(least, top + 1):
        lo, total = 0, int(binom[c, r])
        while lo < total:
            hi = min(total, lo + BLOCK - fill)
            _unrank(rows, bits, c, lo, out[fill : fill + hi - lo])
            fill += hi - lo
            lo = hi
            if fill == BLOCK:
                yield _as_block(out)
                out, fill = np.empty(BLOCK, dtype=bits.dtype), 0
    if fill:
        yield _as_block(out[:fill])


def ints_of(blocks: Iterable[np.ndarray | list[int]]) -> Iterator[int]:
    """The masks of ``blocks``, one at a time, as plain ints."""
    for block in blocks:
        yield from block.tolist() if isinstance(block, np.ndarray) else block


def first_max(candidates: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The first (mask, value) pair with the largest value.

    Later ties never replace the kept pair, which is every solver's
    tie-break. With no candidates the result is (0, 0), the empty set.
    """
    it = iter(candidates)
    best = next(it, (0, 0))
    for cand in it:
        if cand[1] > best[1]:
            best = cand
    return best


def best_of(
    oracle: "CountingOracle", blocks: Iterable[np.ndarray | list[int]]
) -> tuple[int, int]:
    """``first_max`` of the (mask, oracle value) pairs of ``blocks`` in order.

    For queries that do not depend on earlier answers: each nonempty block,
    a uint64 array or a list of ints, is one ``evaluate_many`` call, so a
    search holds one block however many it asks. A block's first maximizer
    is found by ``argmax`` on an array of values, or ``max`` and
    ``list.index`` on a list, and a later block replaces the kept pair only
    when it is strictly larger. The pair is returned as plain ints; no
    blocks give (0, 0).
    """
    best = None
    for block in blocks:
        values = oracle.evaluate_many(block)
        if isinstance(values, np.ndarray):
            i = int(values.argmax())
        else:
            i = values.index(max(values))
        if best is None or values[i] > best[1]:
            best = block[i], values[i]
    return (0, 0) if best is None else (int(best[0]), int(best[1]))


@dataclass(frozen=True)
class GroundSet:
    """Ground set {0, ..., n-1}; the one check of 1 <= n <= MAX_GROUND_SIZE."""

    n: int

    def __post_init__(self) -> None:
        if not _is_int(self.n):
            raise InstanceFormatError("ground size must be an integer")
        if not 1 <= self.n <= MAX_GROUND_SIZE:
            raise InstanceFormatError(
                f"ground size must be in [1, {MAX_GROUND_SIZE}], got {self.n}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def validate_subset(self, mask: int) -> int:
        """The one mask rule: an int (not a bool) with no bit outside {0..n-1}."""
        if isinstance(mask, bool) or not isinstance(mask, int):
            raise TypeError("subset must be an int bitmask")
        if mask < 0 or mask >> self.n:
            raise ValueError(f"mask {mask:#x} is not a subset of a ground set of size {self.n}")
        return mask

    def validate_element(self, u: int) -> int:
        """The one element rule: an int (not a bool) in {0..n-1}.

        It raises ``validate_subset``'s error types: TypeError for anything
        but an int, ValueError for an int outside the ground set.
        """
        if isinstance(u, bool) or not isinstance(u, int):
            raise TypeError("element must be an int")
        if not 0 <= u < self.n:
            raise ValueError(f"element {u} is not in a ground set of size {self.n}")
        return u

    def validate_block(self, masks: list[int] | np.ndarray) -> None:
        """``validate_subset`` for every mask in ``masks``, in one test of the block.

        A 1-D uint64 array passes when no mask has a bit at or above n (any
        array does when n >= 64); otherwise its first such mask raises
        ``validate_subset``'s error. Any other array raises TypeError. A
        list of plain ints with min >= 0 and max below 2^n passes at once.
        Any other list, the empty one included, is checked mask by mask, so
        its first invalid mask raises ``validate_subset``'s error.
        """
        if isinstance(masks, np.ndarray):
            if masks.dtype != np.uint64 or masks.ndim != 1:
                raise TypeError(
                    f"a block of masks must be a 1-D uint64 array, got {masks.ndim}-D {masks.dtype}"
                )
            if self.n < 64:
                outside = masks >> np.uint64(self.n)
                if outside.any():
                    self.validate_subset(int(masks[np.flatnonzero(outside)[0]]))
            return
        if not (set(map(type, masks)) == {int} and min(masks) >= 0 and not max(masks) >> self.n):
            for m in masks:
                self.validate_subset(m)


# ---------------------------------------------------------------------------
# Functions


@dataclass(frozen=True)
class AdditiveFunction:
    """Additive set function given by one weight per element.

    Built only when every weight is an int64 and so are the sum of its
    positive weights and the sum of its negative ones; every subset sum lies
    between those two, so none can leave int64.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise InstanceFormatError("additive function needs at least one weight")
        for w in self.weights:
            check_value(w, "weight")
        positive = self.positive_part_sum()
        check_value(positive, "component's positive weight sum")
        check_value(sum(self.weights) - positive, "component's negative weight sum")

    @property
    def n(self) -> int:
        return len(self.weights)

    def evaluate(self, mask: int) -> int:
        """Sum of weights over the set bits of ``mask``, a subset of {0..n-1}."""
        s = 0
        w = self.weights
        m = mask
        while m:
            low = m & -m
            s += w[low.bit_length() - 1]
            m ^= low
        return s

    def positive_part_sum(self) -> int:
        """sum_v max(w(v), 0); the maximum of this additive function over all subsets."""
        return sum(w for w in self.weights if w > 0)


@dataclass(frozen=True)
class XosRepresentation:
    """Explicit max-of-additive representation: f(X) = max_i components[i](X).

    Immutable and safe to share across threads. ``evaluate`` is white-box
    (uncounted); wrap in a :class:`CountingOracle` for query accounting.
    """

    ground: GroundSet
    components: tuple[AdditiveFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise InstanceFormatError("representation needs at least one component")
        for comp in self.components:
            if comp.n != self.ground.n:
                raise InstanceFormatError(
                    f"component has {comp.n} weights for ground size {self.ground.n}"
                )

    @classmethod
    def from_weights(cls, weights: Iterable[Iterable[int]]) -> "XosRepresentation":
        rows = [tuple(row) for row in weights]
        if not rows:
            raise InstanceFormatError("weight matrix is empty")
        return cls(GroundSet(len(rows[0])), tuple(AdditiveFunction(r) for r in rows))

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def width(self) -> int:
        return len(self.components)

    def evaluate(self, mask: int) -> int:
        """f(mask) = max over components. f(empty) = 0 since every sum is 0.

        A mask that is not a plain int, or has a bit outside the ground set,
        raises ``GroundSet.validate_subset``'s error; then each component
        sums the set bits of ``mask``. A counted oracle answers from
        cached component sums instead, moved by ``columns`` or, for a mask
        far from the cached one when n <= 64, by ``_byte_rows``
        (``CountingOracle._rebase``).
        """
        if type(mask) is not int or mask >> self.ground.n:
            self.ground.validate_subset(mask)  # raises unless an int subclass inside the ground
        return max(comp.evaluate(mask) for comp in self.components)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Element v's k weights, one per component, at index v; built once."""
        return tuple(zip(*(comp.weights for comp in self.components)))

    @cached_property
    def _peaks(self) -> tuple[list[int], tuple[int, ...]]:
        """(f({v}) for each v, as a list; for each v, the bitmask of the
        components whose weight attains f({v})), built on the first
        ``CountingOracle.singletons`` or ``grow``."""
        singles = list(map(max, self.columns))
        peaks = tuple(
            sum(1 << i for i, w in enumerate(col) if w == top)
            for col, top in zip(self.columns, singles)
        )
        return singles, peaks

    @cached_property
    def _byte_tables(self) -> list[np.ndarray] | None:
        """Per-byte subset-sum tables for ``_values``, ``_byte_rows`` and
        ``classify.materialize``, built once.

        Table b holds, for each value x of mask bits 8b..8b+7, every
        component's sum over those bits: shape (2^bits, k), int64. None
        when n > 64. Every partial sum of a table lookup is a subset sum,
        which ``AdditiveFunction`` keeps inside int64, so nothing can wrap.
        """
        if self.n > 64:
            return None
        columns = np.array(self.columns, dtype=np.int64)
        tables = []
        for lo in range(0, self.n, 8):
            rows = columns[lo : lo + 8]
            table = np.zeros((1 << len(rows), self.width), dtype=np.int64)
            for bit, row in enumerate(rows):
                table[1 << bit : 2 << bit] = table[: 1 << bit] + row
            tables.append(table)
        return tables

    @cached_property
    def _byte_rows(self) -> list[list[list[int]]] | None:
        """``_byte_tables`` as plain ints, for ``CountingOracle._rebase``:
        row x of entry b holds every component's sum over the bits x of
        mask byte b. Built once, on the first query far from the cached
        set; None when n > 64."""
        tables = self._byte_tables
        return None if tables is None else [t.tolist() for t in tables]

    def _values(self, masks: np.ndarray) -> np.ndarray:
        """``evaluate`` of each mask of a checked uint64 array, n <= 64, in
        one numpy pass: each mask sums one table row per byte, and each
        row's maximum is its value."""
        tables = self._byte_tables
        words = np.ascontiguousarray(masks, dtype="<u8")
        mask_bytes = words.view(np.uint8).reshape(len(words), 8)
        sums = tables[0][mask_bytes[:, 0]]
        for b in range(1, len(tables)):
            sums += tables[b][mask_bytes[:, b]]
        return sums.max(axis=1)

    def singleton_value(self, v: int) -> int:
        return max(comp.weights[v] for comp in self.components)

    def exact_maximum(self) -> int:
        """max_X f(X) = max_i sum_v max(w_i(v), 0), exact and O(k n)."""
        return max(comp.positive_part_sum() for comp in self.components)

    def to_json_dict(self) -> dict:
        return {
            "type": "explicit",
            "n": self.n,
            "weights": [list(comp.weights) for comp in self.components],
        }


class CountingOracle:
    """Value oracle wrapper that counts every query: each ``evaluate`` and
    ``evaluate_plus`` call, each mask of an ``evaluate_many`` block, each
    element a ``grow`` or ``improving`` call scans, and n per
    ``singletons`` call.

    The counter is the query-complexity measure reported by all solvers.
    ``peek`` evaluates without counting and exists for verification and
    tests only; library algorithms never call it. Instances are cheap and
    single-threaded; use one oracle per trial.

    Which code answers a query is decided once, here. The oracle keeps the
    value function's owner when the function is that object's own bound
    ``evaluate``, the owner is on the same ground set, and this class does
    not override ``evaluate``. An owner is a value source: ``evaluate(mask)``,
    plus ``_values`` (a checked uint64 array to an int64 array of values)
    when n <= 64, plus per-element ``columns``, ``_peaks``, the weights of
    its ``components`` and ``_byte_rows`` (an ``XosRepresentation``) when
    it has cached sums.
    With ``columns`` the oracle keeps the k component sums of the last set it
    answered: ``evaluate`` and ``evaluate_plus`` move them to the asked set
    (``_rebase``): one added element in one step, otherwise element by
    element in O(k) each over min(|diff|, |set|) elements, or, when n <= 64
    and that walk is longer than ceil(n/8), from the owner's ``_byte_rows``
    in O(k) per nonzero byte of the set. ``grow`` decides each step from
    the argmax sets of those sums and of the singletons
    (``_peaks``) when its ``base_val`` is f(base) and its ``singles`` is the
    list of the owner's singleton values; otherwise ``grow`` asks
    ``evaluate_plus`` once per scanned element. ``improving`` moves the
    sums to its base once and compares weights with gaps, and
    ``singletons`` copies the owner's singleton values; without cached
    sums both ask ``evaluate_plus`` once per element. With no owner (a
    closure, another bound method, an overriding class such as a tracing
    one) every query goes through ``self.evaluate``.
    """

    __slots__ = ("ground", "calls", "_func", "_owner", "_values", "_columns", "_far", "_base",
                 "_sums")

    def __init__(self, ground: GroundSet, func: Callable[[int], int]):
        self.ground = ground
        self.calls = 0
        self._func = func
        owner = getattr(func, "__self__", None)
        if (type(self).evaluate is not CountingOracle.evaluate
                or func != getattr(owner, "evaluate", None)
                or getattr(owner, "ground", None) != ground):
            owner = None
        self._owner = owner
        self._values = getattr(owner, "_values", None) if ground.n <= 64 else None
        self._columns = columns = getattr(owner, "columns", None)
        # Element walks longer than this take the byte rows; none can be
        # longer than n, so above 64 elements every walk stays a walk.
        self._far = -(-ground.n // 8) if ground.n <= 64 else ground.n
        self._base = 0
        self._sums = None if columns is None else [0] * len(columns[0])

    @classmethod
    def for_representation(cls, rep: XosRepresentation) -> "CountingOracle":
        return cls(rep.ground, rep.evaluate)

    @property
    def n(self) -> int:
        return self.ground.n

    def evaluate(self, mask: int) -> int:
        self.ground.validate_subset(mask)
        self.calls += 1
        if self._columns is None:
            return self._func(mask)
        if mask != self._base:
            self._rebase(mask)
        return max(self._sums)

    def evaluate_plus(self, base: int, u: int) -> int:
        """f(base | 1 << u) as exactly one counted query; ``u`` may be in ``base``.

        ``base`` must pass ``GroundSet.validate_subset`` and ``u``
        ``GroundSet.validate_element``; either error is raised before
        anything is counted. With cached component sums (see the class) the
        answer is the largest of ``base``'s k sums, each plus u's weight in
        that component: O(k) once the cache sits on ``base``. Otherwise the
        owner's ``evaluate`` gets the mask, or ``self.evaluate`` when there
        is no owner.
        """
        ground = self.ground
        n = ground.n
        if type(base) is not int or base >> n:
            ground.validate_subset(base)
        if type(u) is not int or not 0 <= u < n:
            ground.validate_element(u)
        columns = self._columns
        if columns is None:
            if self._owner is None:
                return self.evaluate(base | 1 << u)
            self.calls += 1
            return self._func(base | 1 << u)
        self.calls += 1
        if base != self._base:
            self._rebase(base)
        if base >> u & 1:
            return max(self._sums)
        return max(map(add, self._sums, columns[u]))

    def _rebase(self, mask: int) -> None:
        """Move the cached sums to ``mask``, by one of three routes.

        One added element is one step. Otherwise the element walk takes
        min(|diff|, |mask|) steps: over the symmetric difference diff, or
        over ``mask`` from the empty set. When n <= 64 and that is more
        steps than the ground has bytes, ceil(n/8), the sums are instead
        the owner's ``_byte_rows`` of ``mask``'s nonzero bytes added from
        zeros; each partial sum is a subset sum, so it stays exact.
        """
        columns = self._columns
        diff = mask ^ self._base
        if diff & mask == diff and not diff & (diff - 1):
            sums = list(map(add, self._sums, columns[diff.bit_length() - 1]))
        else:
            sums = self._sums
            if diff.bit_count() > mask.bit_count():
                sums, diff = [0] * len(sums), mask
            if diff.bit_count() > self._far:
                sums = [0] * len(sums)
                for rows, x in zip(self._owner._byte_rows, mask.to_bytes(8, "little")):
                    if x:
                        sums = list(map(add, sums, rows[x]))
            else:
                for v in iter_bits(diff):
                    sums = list(map(add if mask >> v & 1 else sub, sums, columns[v]))
        self._base = mask
        self._sums = sums

    def grow(self, base: int, base_val: int, universe: int, singles) -> tuple[int, int]:
        """Greedy additive closure of ``base`` inside ``universe``: scan the
        elements of ``universe`` outside ``base`` in ascending order and add
        u when f(X + u) = f(X) + ``singles[u]``, X and f(X) (starting at
        ``base_val``) being the set and value grown so far.

        Each scanned element is one counted query, so ``calls`` grows by
        the number of elements of ``universe`` outside ``base``. ``base``
        and ``universe`` must pass ``GroundSet.validate_subset``; either
        error is raised before anything is counted. Returns (X, f(X)), or
        (``base``, ``base_val``) when nothing is added.

        With cached component sums (see the class), ``base_val`` equal to
        f(``base``) and ``singles`` the list of the owner's singleton
        values, each step is decided from argmax sets with no value
        computed: f(X + u) = max_i (s_i + w_i(u)) <= f(X) + f({u}), with
        equality iff some component attains both, so u is added exactly
        when A, the components attaining f(X), meets those attaining
        f({u}), and the new A is their intersection. So the closure of a
        singleton is the intersection of the cliques of the components that
        attain every added singleton, which is what makes the width-2
        solver exact. Any other oracle or input asks ``evaluate_plus(X, u)``
        for each u in turn.
        """
        ground = self.ground
        ground.validate_subset(base)
        ground.validate_subset(universe)
        scan = universe & ~base
        if self._columns is not None:
            if base != self._base:
                self._rebase(base)
            sums = self._sums
            values, peaks = self._owner._peaks
            top = max(sums)
            if base_val == top and type(singles) is list and singles == values:
                self.calls += scan.bit_count()
                argmax = sum(1 << i for i, s in enumerate(sums) if s == top)
                grown = base
                for u in iter_bits(scan):
                    if argmax & peaks[u]:
                        argmax &= peaks[u]
                        grown |= 1 << u
                        top += values[u]
                return (grown, top) if grown != base else (base, base_val)
        for u in iter_bits(scan):
            t = self.evaluate_plus(base, u)
            if t == base_val + singles[u]:
                base |= 1 << u
                base_val = t
        return base, base_val

    def singletons(self) -> list[int]:
        """[f({v}) for v in 0..n-1] as n counted queries, in a new list.

        With cached component sums (see the class) it is a copy of the
        owner's singleton values (``_peaks``); otherwise it asks
        ``evaluate_plus(0, v)`` for each v in ascending order.
        """
        if self._columns is None:
            return [self.evaluate_plus(0, v) for v in range(self.ground.n)]
        self.calls += self.ground.n
        return self._owner._peaks[0].copy()

    def improving(self, base: int, base_val: int, universe: int) -> int:
        """The mask of the elements u of ``universe`` outside ``base`` with
        f(base + u) > ``base_val``.

        Each element of ``universe`` outside ``base`` is one counted query,
        so ``calls`` grows by their number. ``base`` and ``universe`` must
        pass ``GroundSet.validate_subset``; either error is raised before
        anything is counted.

        With cached component sums s_i at ``base`` (see the class) no value
        is computed: for u outside ``base``, f(base + u) = max_i (s_i +
        w_i(u)), which exceeds ``base_val`` exactly when some component
        weighs u more than the gap ``base_val`` - s_i. When fewer than
        k n / 16 elements are scanned, each is tested against the k gaps;
        otherwise each component compares all n of its weights with its gap
        in one pass (``bytes(map(gt, ...))``, read back as a bitmask). A
        weight there costs about a sixteenth of one scanned element's test,
        hence the bound. Either way nothing is kept between calls. Any
        other oracle asks ``evaluate_plus(base, u)`` for each u in
        ascending order.
        """
        ground = self.ground
        ground.validate_subset(base)
        ground.validate_subset(universe)
        scan = universe & ~base
        if self._columns is None:
            gain = 0
            for u in iter_bits(scan):
                if self.evaluate_plus(base, u) > base_val:
                    gain |= 1 << u
            return gain
        self.calls += scan.bit_count()
        if base != self._base:
            self._rebase(base)
        gaps = [base_val - s for s in self._sums]
        if scan.bit_count() * 16 < ground.n * len(gaps):
            columns = self._columns
            return mask_of(u for u in iter_bits(scan) if any(map(gt, columns[u], gaps)))
        gain = 0
        for gap, comp in zip(gaps, self._owner.components):
            bits = bytes(map(gt, comp.weights, repeat(gap))).translate(_BIT_CHARS)
            gain |= int(bits[::-1], 2)
        return gain & scan

    def evaluate_many(self, masks: list[int] | np.ndarray) -> list[int] | np.ndarray:
        """``[self.evaluate(m) for m in masks]``: same values, same count.

        ``masks`` is a list of ints or a 1-D uint64 array.
        ``GroundSet.validate_block`` checks it first, so its first invalid
        mask raises ``evaluate``'s error before any of the block is counted.
        Then an array goes whole to the owner's ``_values`` when it has one,
        and is answered by an int64 array; any other block is answered by a
        list, mask by mask as plain ints: by the owner's ``evaluate``,
        counted in one step, or with no owner by ``self.evaluate``.
        """
        self.ground.validate_block(masks)
        if isinstance(masks, np.ndarray):
            if self._values is not None:
                self.calls += len(masks)
                return self._values(masks)
            masks = masks.tolist()
        if self._owner is None:
            return [self.evaluate(m) for m in masks]
        self.calls += len(masks)
        return list(map(self._func, masks))

    def peek(self, mask: int) -> int:
        """Uncounted evaluation; verification only."""
        self.ground.validate_subset(mask)
        return self._func(mask)


@dataclass(frozen=True)
class SolveReport:
    """Result of one solver run.

    ``oracle_calls`` counts only the calls made by that run. ``seed`` is set
    for randomized solvers, ``budget_override`` echoes a per-round sample
    budget override when one was supplied.
    """

    algorithm: str
    output: int
    value: int
    oracle_calls: int
    seed: int | None = None
    budget_override: int | None = None


class Run:
    """One solver call's ledger: its query count, limit check and report.

    ``spent`` counts the oracle's calls since the run began, so an oracle
    that has already answered other queries is charged only for this run's.
    ``echo`` holds the report fields a solver echoes (``seed``,
    ``budget_override``).
    """

    __slots__ = ("oracle", "algorithm", "start", "echo")

    def __init__(self, oracle: CountingOracle, algorithm: str, **echo):
        self.oracle = oracle
        self.algorithm = algorithm
        self.start = oracle.calls
        self.echo = echo

    @property
    def spent(self) -> int:
        return self.oracle.calls - self.start

    def fits(self, count: int) -> bool:
        """True when ``count`` more queries keep the run below MAX_QUERIES."""
        return self.spent + count < MAX_QUERIES

    def phase(self, count: int, what: str) -> None:
        """Raise CapExceededError unless ``count`` more queries fit.

        ``count`` is the exact worst case of the phase ``what`` (or a lower
        bound on what the run must still query). Solvers call this before
        the phase's first query, so a refused run stops at once; the message
        names the algorithm and the phase.
        """
        if not self.fits(count):
            shown = count if count < 1 << 64 else f"~2^{count.bit_length() - 1}"
            raise CapExceededError(
                f"{self.algorithm} {what}: up to {shown} more queries after {self.spent} "
                f"would reach the limit of {MAX_QUERIES} per run"
            )

    def report(self, best: tuple[int, int] = (0, 0)) -> SolveReport:
        """The run's SolveReport for the (mask, value) pair ``best``."""
        return SolveReport(self.algorithm, *best, self.spent, **self.echo)


# ---------------------------------------------------------------------------
# Explicit instance format


def parse_explicit(doc: dict) -> XosRepresentation:
    """Parse {"type": "explicit", "n": ..., "weights": [[...], ...]}.

    ``GroundSet`` rejects an out-of-range n, ``AdditiveFunction`` a
    non-integer or out-of-range weight or weight sum, and
    ``XosRepresentation`` a row whose length is not n.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be an object")
    if doc.get("type") != "explicit":
        raise InstanceFormatError(f"not an explicit instance: type={doc.get('type')!r}")
    ground = GroundSet(doc.get("n"))
    weights = doc.get("weights")
    if not isinstance(weights, list) or not weights:
        raise InstanceFormatError("explicit instance needs a nonempty 'weights' list")
    for idx, row in enumerate(weights):
        if not isinstance(row, list):
            raise InstanceFormatError(f"weights row {idx} must be a list")
    return XosRepresentation(ground, tuple(AdditiveFunction(row) for row in weights))
