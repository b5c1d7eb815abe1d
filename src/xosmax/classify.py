"""Set-function class membership checks on dense value tables.

A :class:`DenseFunction` is the full table of 2^n values (n <= 16). Checks
test the defining inequality of each class exhaustively and return a
violating witness on failure:

* normalized:  f(empty) = 0
* monotone:    X subset of Y  =>  f(X) <= f(Y)
* additive:    f(X) = sum of singleton values over X, checked as
               f(X) = f(X - u) + f({u}) for u the lowest element of X
* submodular:  f(X) + f(Y) >= f(X | Y) + f(X & Y) for all pairs
* subadditive: f(X) + f(Y) >= f(X | Y) for all pairs

The table's dtype carries its exactness: int64 when every |value| < 2^62,
so any sum or difference of two entries is exact, and otherwise a numpy
object array of Python ints. A representation's table is combined from its
per-byte subset-sum tables, one component at a time, so it holds O(2^n)
values whatever the width; a hidden family's table is its ``_values`` on
every mask, one numpy pass. Every check has one vectorized implementation,
exact on either dtype. Fast routes decide the two pair classes:
submodularity through diminishing marginals in O(n^2 2^n), subadditivity
through a walk over the rows X in O(3^n) that stops at the first failing
row. A table built from a representation records that it is a max of
additive functions; when it is also monotone it is subadditive, which
``check_monotone`` decides in O(n 2^n), so only the tables that fail
monotonicity, or were built any other way, take the walk. The walk's lowest
eight levels run as one vectorized block per node, in bounded chunks, so at
n = 16 the walk makes 256 Python-level visits, not 65536. A failure's
witness is still the pair scans': the submodular route hands a failure to
the scan, and the subadditive walk, blocks included, tests the rows in
ascending order, so it finds the scan's first failing row, whose first Y
one vectorized row gives. The 4^n pair scans (vectorized per row) remain the
reference the routes are tested against.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Union

import numpy as np

from .core import CapExceededError, InstanceFormatError, XosRepresentation, _is_int, check_value
from .hardness import _HiddenFamily

MATERIALIZE_CAP = 16

# Pair scans and routes add or subtract two table entries; staying within
# +-2^62 keeps those int64 results exact.
_SAFE_SUM_BOUND = 1 << 62

Witness = Union[tuple[int, ...], None]


class DenseFunction:
    """Value table over all subsets of {0..n-1}, indexed by bitmask.

    ``_max_of_additive`` is True only on a table built from a representation,
    a max of additive functions that are 0 at the empty set, which
    ``check_subadditive`` may then decide by monotonicity. Tables built from
    values, a callable or a hidden family never set it.
    """

    __slots__ = ("n", "values", "_max_of_additive")

    def __init__(self, n: int, values) -> None:
        _check_size(n, "dense tables support")
        vals = list(values)
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {len(vals)}")
        if not all(type(v) is int for v in vals):
            vals = [check_value(v) for v in vals]  # raises at the first bad value
        try:
            table = np.array(vals, dtype=np.int64)
        except OverflowError:  # a plain int outside int64
            for v in vals:
                check_value(v)  # raises at the first such int
        self.n = n
        self.values = _exact_table(table)
        self._max_of_additive = False

    def __getitem__(self, mask: int) -> int:
        return int(self.values[mask])

    def __len__(self) -> int:
        return len(self.values)

    def max_value(self) -> int:
        return int(self.values.max())


def _check_size(n, supports: str) -> None:
    """``GroundSet``'s integer rule for ``n``, then the table cap."""
    if not _is_int(n):
        raise InstanceFormatError("ground size must be an integer")
    if not 1 <= n <= MATERIALIZE_CAP:
        raise CapExceededError(f"{supports} 1 <= n <= {MATERIALIZE_CAP}, got {n}")


def _exact_table(table: np.ndarray) -> np.ndarray:
    """The dtype rule for a table of int64-range values: int64 when every
    |value| < 2^62, otherwise an object array of Python ints."""
    if table.max() >= _SAFE_SUM_BOUND or table.min() <= -_SAFE_SUM_BOUND:
        return table.astype(object)
    return table.astype(np.int64, copy=False)


def materialize(
    source: Union[XosRepresentation, _HiddenFamily, Callable[[int], int]],
    n: int | None = None,
) -> DenseFunction:
    """Build the dense table for a representation, a hidden family, or a
    callable and ``n``.

    Representations are read from their byte tables and hidden families from
    their ``_values`` on every mask, in one numpy pass; a callable is called
    once per mask, 2^n calls (pass ``oracle.evaluate, oracle.n`` to count
    them). Anything else, a ``CountingOracle`` included, raises TypeError.
    ``n`` must be a plain int (InstanceFormatError) within the cap
    (CapExceededError), checked before any evaluation or allocation.
    """
    if isinstance(source, (XosRepresentation, _HiddenFamily)):
        n = source.n
    elif not callable(source):
        raise TypeError(f"cannot materialize {type(source).__name__}")
    elif n is None:
        raise ValueError("materialize(callable) needs the ground size n")
    _check_size(n, "materialize supports")
    if isinstance(source, XosRepresentation):
        return _dense_from_representation(source)
    if isinstance(source, _HiddenFamily):
        return _dense(n, source._values(np.arange(1 << n, dtype=np.uint64)))
    return DenseFunction(n, [source(mask) for mask in range(1 << n)])


def _dense(n: int, table: np.ndarray, max_of_additive: bool = False) -> DenseFunction:
    """A DenseFunction over an int64 ``table`` of 2^n values, which need no
    per-value check."""
    out = DenseFunction.__new__(DenseFunction)
    out.n = n
    out.values = _exact_table(table)
    out._max_of_additive = max_of_additive
    return out


def _dense_from_representation(rep: XosRepresentation) -> DenseFunction:
    """Max of the per-component subset sums, read from ``rep._byte_tables``
    (n <= MATERIALIZE_CAP, so the tables exist and every sum is an int64)."""
    tables = rep._byte_tables
    table = None
    for i in range(rep.width):
        sums = tables[0][:, i]
        for byte in tables[1:]:  # each byte's bits lie above all bits in sums
            sums = (byte[:, i, None] + sums).ravel()
        table = sums if table is None else np.maximum(table, sums)
    return _dense(rep.n, table, max_of_additive=True)


# ---------------------------------------------------------------------------
# Class checks (defining inequalities, exhaustive)


def check_normalized(f: DenseFunction) -> tuple[bool, Witness]:
    if f[0] != 0:
        return False, (0,)
    return True, None


def check_monotone(f: DenseFunction) -> tuple[bool, Witness]:
    """f(X) <= f(X + v) for every X and v outside X (equivalent by chaining)."""
    vals = f.values
    idx = np.arange(len(vals))
    for v in range(f.n):
        bit = 1 << v
        without = idx[(idx & bit) == 0]
        bad = np.nonzero(vals[without] > vals[without | bit])[0]
        if bad.size:
            x = int(without[bad[0]])
            return False, (x, x | bit)
    return True, None


def check_additive(f: DenseFunction) -> tuple[bool, Witness]:
    """f(empty) = 0 and f(X) = f(X - u) + f({u}) for u the lowest element of X.

    By induction on X this is f(X) = sum of singleton values over X, and the
    first X that breaks the recurrence is the first that breaks the sum.
    """
    vals = f.values
    xs = np.arange(len(vals))
    low = xs & -xs  # 0 at X = empty, where the test reads f(empty) = 2 f(empty)
    bad = np.nonzero(vals != vals[xs ^ low] + vals[low])[0]
    if bad.size:
        return False, (int(bad[0]),)
    return True, None


def _pair_scan(f: DenseFunction, submodular: bool) -> tuple[bool, Witness]:
    """First (X, Y) violating the pair inequality, scanning X then Y ascending."""
    size = len(f)
    ys = np.arange(size)
    for x in range(size):
        bad = _row_violations(f.values, x, ys, submodular)
        if bad.size:
            return False, (x, int(bad[0]))
    return True, None


def _row_violations(vals: np.ndarray, x: int, ys: np.ndarray, submodular: bool) -> np.ndarray:
    """Ascending Y with f(x) + f(Y) < f(x | Y) (+ f(x & Y) if submodular)."""
    rhs = vals[x | ys]
    if submodular:
        rhs = rhs + vals[x & ys]
    return np.nonzero(vals[x] + vals < rhs)[0]


def _marginals_diminish(f: DenseFunction) -> bool:
    """f(X+u+v) - f(X+v) <= f(X+u) - f(X) for all X and u < v: O(n^2 2^n).

    d_u = f(X+u) - f(X) is 0 wherever X holds u, so only X without u and v
    constrain it. This is equivalent to submodularity.
    """
    vals = f.values
    idx = np.arange(len(vals))
    for u in range(f.n):
        d_u = vals[idx | (1 << u)] - vals
        for v in range(u + 1, f.n):
            halves = d_u.reshape(-1, 2, 1 << v)
            if (halves[:, 1] > halves[:, 0]).any():
                return False
    return True


# The walk's lowest _LEAF levels run as one vectorized block per node. A
# block holds at most _BLOCK_BUDGET expanded entries (256 KiB as int64) at a
# time, so its memory does not grow with n.
_LEAF = 8
_BLOCK_BUDGET = 1 << 15


@cache  # built on first use: an import allocates no arrays
def _digit_indices() -> list[tuple[np.ndarray, np.ndarray]]:
    """For each digit d < _LEAF, two arrays over the 3^d ternary indices t of
    the digits below d (digit j of t is 0: j not in Z, 1: j in Z, 2: j in L):
    the row {d} | L and the table column {d} | Z | L."""
    rows = cols = np.zeros(1, dtype=np.intp)
    out = []
    for d in range(_LEAF):
        bit = 1 << d
        out.append((bit | rows, bit | cols))
        rows = np.concatenate([rows, rows, rows | bit])
        cols = np.concatenate([cols, cols | bit, cols | bit])
    return out


def _first_block_row(m: np.ndarray, g: np.ndarray, leaf: int) -> int | None:
    """First nonempty L below 2^leaf (ascending) whose row x | L fails, given
    node x's m and g, or None.

    Each of the R = len(m) / 2^leaf leading rows of m and g holds the subsets
    of [0, leaf) in its low bits. Those bits of m are expanded into ternary
    digits one at a time, from bit 0 up: digit 2 (j in L) is the min of the
    two halves, so m becomes the min over W inside x | L. Row x | L fails at
    an entry iff f(x | L) + m < g, with g read at the column where every bit
    of Z | L is set. After digit d only the new entries, the rows whose L has
    top bit d, are tested, so the first failing row is found in ascending
    order. The R rows go in chunks of at most _BLOCK_BUDGET expanded entries;
    once one chunk finds a failing row, later ones test only smaller rows.
    """
    size = 1 << leaf
    m, g = m.reshape(-1, size), g.reshape(-1, size)
    f_rows = g[0]  # f(x | L) at column L
    step = _BLOCK_BUDGET // 3**leaf
    best = size
    for start in range(0, len(m), step):
        mc, gc = m[start:start + step], g[start:start + step]
        for d, (rows, cols) in enumerate(_digit_indices()[:leaf]):
            if 1 << d >= best:
                break
            halves = mc.reshape(len(mc), size >> d + 1, 2, 3**d)
            low = np.minimum(halves[:, :, 0], halves[:, :, 1])
            gap = gc.reshape(len(gc), size >> d + 1, 2 << d)[..., cols]
            gap -= low  # exact: |values| < 2^62, or Python ints
            bad = gap.max(axis=(0, 1)) > f_rows[rows]
            if bad.any():
                best = min(best, int(rows[bad].min()))
                break
            if d + 1 < leaf:
                mc = np.concatenate([halves, low[:, :, None]], axis=2)
        if best == 1:  # row x itself passed, so no smaller row is left
            break
    return None if best == size else best


def _first_subadditive_row(f: DenseFunction) -> int | None:
    """First X (ascending) with f(X) + f(Y) < f(X | Y) for some Y, in O(3^n).

    Write Y = W | Z with W inside X and Z outside it. Row X fails iff
    f(X) + m_X(Z) < g_X(Z) for some Z outside X, where m_X(Z) is the min of
    f(Z | W) over W inside X and g_X(Z) = f(X | Z); both are indexed by the
    subsets of the elements outside X. A child of X adds one element b below
    X's lowest: its m is the min of the two b-halves of X's m, and its g the
    half with b set. A preorder walk with b ascending visits X in ascending
    order, so the first row it flags is the pair scan's first failing row.

    The walk visits only the root and the nodes X whose lowest element is at
    least _LEAF. The rows X | L with L inside [0, l), l = min(lowest, _LEAF),
    are the part of X's subtree below l: one ascending range of rows, whose L
    are the l low bits of X's m and g. :func:`_first_block_row` tests them as
    one block, in the walk's order, before the children b in [l, lowest).
    """

    def visit(x: int, low: int, m: np.ndarray, g: np.ndarray) -> int | None:
        if (g[0] + m < g).any():  # g[0] = f(x)
            return x
        leaf = min(low, _LEAF)
        hit = _first_block_row(m, g, leaf)
        if hit is not None:
            return x | hit
        for b in range(leaf, low):
            half = 1 << b
            m2 = m.reshape(-1, 2 * half)
            g2 = g.reshape(-1, 2 * half)
            hit = visit(
                x | half, b,
                np.minimum(m2[:, :half], m2[:, half:]).ravel(),
                g2[:, half:].ravel(),
            )
            if hit is not None:
                return hit
        return None

    return visit(0, f.n, f.values, f.values)


def check_submodular(f: DenseFunction) -> tuple[bool, Witness]:
    """f(X) + f(Y) >= f(X | Y) + f(X & Y), all 4^n pairs.

    The diminishing-marginals route decides a pass; a failure is handed to
    the pair scan for its witness.
    """
    if _marginals_diminish(f):
        return True, None
    return _pair_scan(f, submodular=True)


def check_subadditive(f: DenseFunction) -> tuple[bool, Witness]:
    """f(X) + f(Y) >= f(X | Y), all 4^n pairs.

    A monotone max of additive functions a_i, each 0 at the empty set, is
    subadditive: with a_j a component that attains f(X | Y),

        f(X | Y) = a_j(X) + a_j(Y - X) <= f(X) + f(Y - X) <= f(X) + f(Y),

    the last step by monotonicity, whatever the weights' signs. So a table
    built from a representation passes once ``check_monotone`` does, in
    O(n 2^n). Every other table, and every failure, takes the O(3^n) row
    walk, which finds the pair scan's first failing row; one vectorized row
    gives its first Y.
    """
    if f._max_of_additive and check_monotone(f)[0]:
        return True, None
    x = _first_subadditive_row(f)
    if x is None:
        return True, None
    bad = _row_violations(f.values, x, np.arange(len(f)), submodular=False)
    return False, (x, int(bad[0]))


_CHECKS: dict[str, Callable[[DenseFunction], tuple[bool, Witness]]] = {
    "normalized": check_normalized,
    "monotone": check_monotone,
    "additive": check_additive,
    "submodular": check_submodular,
    "subadditive": check_subadditive,
}
CLASS_NAMES = tuple(_CHECKS)


def check_class(f: DenseFunction, cls: str) -> tuple[bool, Witness]:
    """Dispatch to one of normalized/monotone/additive/submodular/subadditive."""
    try:
        fn = _CHECKS[cls]
    except KeyError:
        raise ValueError(f"unknown class {cls!r}; expected one of {CLASS_NAMES}") from None
    return fn(f)


def check_star_condition(rep: XosRepresentation) -> tuple[bool, Witness]:
    """Every weight w_i(v) equals the singleton value f({v}) or is nonpositive.

    Under this condition some maximizer is additive over one component's
    clique, so the best maximal clique is exact. Witness is (element,
    component index) for the first weight that is positive yet short of the
    singleton value, scanning elements then components in ascending order.
    """
    for v in range(rep.n):
        fv = rep.singleton_value(v)
        for i, comp in enumerate(rep.components):
            w = comp.weights[v]
            if w != fv and w > 0:
                return False, (v, i)
    return True, None
