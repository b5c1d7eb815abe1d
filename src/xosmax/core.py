"""Core types for XOS set-function maximization in the value-oracle model.

An XOS (max-of-additive) function over a ground set V = {0, ..., n-1} is

    f(X) = max_i  sum_{v in X} w_i(v),        i = 1..k,

the pointwise maximum of k additive functions. The number k is the width of
the representation. Algorithms in this package interact with f only through
a :class:`CountingOracle`, whose call counter is the complexity measure of
record.

Conventions used throughout the package:

* Subsets are plain ``int`` bitmasks of any length. Bit ``v`` set means
  element ``v`` is in the subset. Ground sizes are limited to
  1 <= n <= MAX_GROUND_SIZE, and :class:`GroundSet` alone checks that bound.
* A solver run makes fewer than MAX_QUERIES oracle queries. Each solver
  call keeps one :class:`Run`, whose ``phase`` alone checks that bound.
* Function values are exact integers constrained to the signed 64-bit range.
  Arithmetic is checked: a weight or an evaluated component sum outside
  [-2^63, 2^63 - 1] raises :class:`ValueOverflowError`, never wraps.
* The canonical enumeration order of subsets is ascending cardinality, then
  ascending numeric mask value. Argmax scans keep the first maximizer, so
  every tie-break in the package is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from operator import getitem
from typing import Callable, Iterable, Iterator

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

# XosRepresentation.evaluate packs a byte table row's k sums, each plus
# 2^63, into one int, one lane each; a lane holds the sum of up to 8 of them.
_LANE_BITS = 72
_LANE_MASK = (1 << _LANE_BITS) - 1


class ValueOverflowError(OverflowError):
    """A value or component sum left the signed 64-bit range."""


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


def _translate(sub: int, elems: tuple[int, ...]) -> int:
    """Map a mask over positions to a mask over ``elems[position]``."""
    actual = 0
    m = sub
    while m:
        low = m & -m
        actual |= 1 << elems[low.bit_length() - 1]
        m ^= low
    return actual


def lift(masks: Iterable[int], universe: int) -> Iterable[int]:
    """Masks over positions {0..r-1} as masks over the r elements of ``universe``.

    Position i stands for the i-th smallest element of ``universe``, and the
    order of ``masks`` is kept. When ``universe`` is {0..r-1} the positions
    are the elements and ``masks`` itself is returned.
    """
    if universe & (universe + 1) == 0:  # {0..r-1}
        return masks
    return map(_translate, masks, repeat(elements_of(universe)))


def masks_of_card(n: int, c: int) -> Iterator[int]:
    """All c-element subsets of {0..n-1} in ascending numeric mask order."""
    if c < 0 or c > n:
        return
    if c == 0:
        yield 0
        return
    x = (1 << c) - 1
    limit = 1 << n
    while x < limit:
        yield x
        # Gosper's hack: next mask with the same popcount.
        u = x & -x
        v = x + u
        x = v | (((x ^ v) // u) >> 2)


def iter_masks_by_card(n: int, max_card: int | None = None) -> Iterator[int]:
    """Subsets of {0..n-1} in canonical order: ascending cardinality, then mask.

    ``max_card`` truncates the enumeration; the empty set is always first.
    """
    top = n if max_card is None else min(max_card, n)
    for c in range(top + 1):
        yield from masks_of_card(n, c)


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


def evaluated(oracle: "CountingOracle", masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(mask, oracle value) pairs in the order of ``masks``.

    For queries that do not depend on earlier answers: masks are taken
    BLOCK at a time and each block is one ``evaluate_many`` call, so at
    most one block is held however long ``masks`` is.
    """
    it = iter(masks)
    while block := list(islice(it, BLOCK)):
        yield from zip(block, oracle.evaluate_many(block))


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
        if isinstance(mask, bool) or not isinstance(mask, int):
            raise TypeError("subset must be an int bitmask")
        if mask < 0 or mask >> self.n:
            raise ValueError(f"mask {mask:#x} is not a subset of a ground set of size {self.n}")
        return mask


# ---------------------------------------------------------------------------
# Functions


@dataclass(frozen=True)
class AdditiveFunction:
    """Additive set function given by one weight per element."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise InstanceFormatError("additive function needs at least one weight")
        for w in self.weights:
            check_value(w, "weight")

    @property
    def n(self) -> int:
        return len(self.weights)

    def evaluate(self, mask: int) -> int:
        """Sum of weights over the set bits of ``mask`` (checked)."""
        s = 0
        w = self.weights
        m = mask
        while m:
            low = m & -m
            s += w[low.bit_length() - 1]
            m ^= low
        if not INT64_MIN <= s <= INT64_MAX:
            raise ValueOverflowError(f"component sum {s} outside signed 64-bit range")
        return s

    def positive_part_sum(self) -> int:
        """sum_v max(w(v), 0); the maximum of this additive function over all subsets."""
        s = sum(w for w in self.weights if w > 0)
        if s > INT64_MAX:
            raise ValueOverflowError("positive part sum outside signed 64-bit range")
        return s


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

        With byte tables, one packed row per mask byte is summed and the
        largest lane, less the offsets, is the value; an out-of-ground mask
        raises ``GroundSet.validate_subset``'s error. Otherwise each
        component sums the set bits of ``mask`` (checked).
        """
        packed = self._packed_tables
        if packed is None:
            return max(comp.evaluate(mask) for comp in self.components)
        rows, lanes, offset = packed
        if mask >> self.ground.n:  # negative, or bits outside the ground set
            self.ground.validate_subset(mask)  # raises
        total = sum(map(getitem, rows, mask.to_bytes(len(rows), "little")))
        return max([total >> s & _LANE_MASK for s in lanes]) - offset

    def _tables_fit(self) -> bool:
        """True when n <= 64 and no component has a subset sum outside int64
        (its positive weights sum above INT64_MAX or its negative ones below
        INT64_MIN): the condition for byte tables, packed or not."""
        if self.n > 64:
            return False
        for comp in self.components:
            w = comp.weights
            if sum(x for x in w if x > 0) > INT64_MAX or sum(x for x in w if x < 0) < INT64_MIN:
                return False
        return True

    @cached_property
    def _byte_tables(self) -> list[np.ndarray] | None:
        """Per-byte subset-sum tables for ``evaluate_many`` and
        ``classify.materialize``, built once.

        Table b holds, for each value x of mask bits 8b..8b+7, every
        component's sum over those bits: shape (2^bits, k), int64. None
        unless ``_tables_fit``; every partial sum of a table lookup is a
        subset sum, so otherwise nothing can wrap.
        """
        if not self._tables_fit():
            return None
        columns = np.array([comp.weights for comp in self.components], dtype=np.int64).T
        tables = []
        for lo in range(0, self.n, 8):
            rows = columns[lo : lo + 8]
            table = np.zeros((1 << len(rows), self.width), dtype=np.int64)
            for bit, row in enumerate(rows):
                table[1 << bit : 2 << bit] = table[: 1 << bit] + row
            tables.append(table)
        return tables

    @cached_property
    def _packed_tables(self) -> tuple[list[list[int]], range, int] | None:
        """The byte tables with each row packed into one int, for ``evaluate``.

        Entry i of a row, plus 2^63 so that it is nonnegative, fills lane i,
        bits [72i, 72i + 72). A mask's sum over its ceil(n/8) bytes holds at
        most 8 entries per lane, each below 2^64, so no lane carries into the
        next, and each lane less ceil(n/8)·2^63 is that component's sum.
        Returns (rows per byte, lane shifts, that offset); None unless
        ``_tables_fit``. Built in plain ints, so no dtype can wrap.
        """
        if not self._tables_fit():
            return None
        lanes = range(0, _LANE_BITS * self.width, _LANE_BITS)
        empty = sum(1 << (63 + s) for s in lanes)
        # Each element's k weights shifted into their lanes. The int of a
        # negative weight is negative, but ints add exactly and every lane of
        # a row or of a query's total lies in [0, 2^72), so the base-2^72
        # digits of the result are still the lanes.
        columns = [
            sum(w << s for w, s in zip(column, lanes))
            for column in zip(*(comp.weights for comp in self.components))
        ]
        rows = []
        for lo in range(0, self.n, 8):
            table = [empty]
            for column in columns[lo : lo + 8]:
                table += [row + column for row in table]
            rows.append(table)
        return rows, lanes, len(rows) << 63

    def evaluate_many(self, masks: list[int]) -> list[int]:
        """``[self.evaluate(m) for m in masks]``, in one numpy pass when n <= 64.

        Sums one table row per mask byte, then takes each row's maximum. A
        mask outside the ground set raises ``GroundSet.validate_subset``'s
        error for the first such mask, as ``evaluate`` does; one array test
        per call finds it. Representations without byte tables run
        ``evaluate``, which raises ``ValueOverflowError`` on a sum outside
        int64.
        """
        tables = self._byte_tables
        if tables is None:
            return [self.evaluate(m) for m in masks]
        if not masks:
            return []
        try:
            if self.n < 64:
                # int64 holds every valid mask and a negative one exactly,
                # and a mask outside the ground set keeps bits above n - 1.
                arr = np.array(masks, dtype="<i8")
                inside = not (arr >> self.n).any()
            else:
                # Some NumPy releases wrap a negative int to uint64 instead
                # of raising, so the list is tested first.
                inside = min(masks) >= 0
                arr = np.array(masks, dtype="<u8") if inside else None
        except OverflowError:  # an int too wide for the dtype
            inside = False
        if not inside:
            for m in masks:
                self.ground.validate_subset(m)  # raises at the first mask outside
        mask_bytes = arr.view(np.uint8).reshape(len(masks), 8)
        sums = tables[0][mask_bytes[:, 0]]
        for b in range(1, len(tables)):
            sums += tables[b][mask_bytes[:, b]]
        return sums.max(axis=1).tolist()

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
    """Value oracle wrapper that counts every ``evaluate`` call.

    The counter is the query-complexity measure reported by all solvers.
    ``peek`` evaluates without counting and exists for verification and
    tests only; library algorithms never call it. Instances are cheap and
    single-threaded; use one oracle per trial.
    """

    __slots__ = ("ground", "calls", "_func")

    def __init__(self, ground: GroundSet, func: Callable[[int], int]):
        self.ground = ground
        self.calls = 0
        self._func = func

    @classmethod
    def for_representation(cls, rep: XosRepresentation) -> "CountingOracle":
        return cls(rep.ground, rep.evaluate)

    @property
    def n(self) -> int:
        return self.ground.n

    def evaluate(self, mask: int) -> int:
        self.ground.validate_subset(mask)
        self.calls += 1
        return self._func(mask)

    def evaluate_many(self, masks: list[int]) -> list[int]:
        """``[self.evaluate(m) for m in masks]``: same checks, same count.

        When the value function is the bound ``evaluate`` of an owner that
        also has an ``evaluate_many``, the batch goes there in one call; any
        other value function is called mask by mask through ``evaluate``. An
        invalid mask raises the error ``evaluate`` raises; the masks before
        it may or may not have been counted.
        """
        owner = getattr(self._func, "__self__", None)
        if self._func != getattr(owner, "evaluate", None) or not hasattr(owner, "evaluate_many"):
            return [self.evaluate(m) for m in masks]
        validate = self.ground.validate_subset
        for m in masks:
            validate(m)
        self.calls += len(masks)
        return owner.evaluate_many(masks)

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
    non-integer or out-of-range weight, and ``XosRepresentation`` a row
    whose length is not n.
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
