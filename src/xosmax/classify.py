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
exact on either dtype. A failing pair class returns the first pair (X, Y)
of the 4^n scan over X, then Y, ascending: its route finds the scan's
first failing row X*, and one vectorized row gives X*'s first Y.

Submodularity is diminishing marginals: with d_a(T) = f(T + a) - f(T),
d_u(S + v) <= d_u(S) for all u < v and S without both, in O(n^2 2^n) on
slices of the table. X* is the least L + a (a not in L) with
d_a(T) > d_a(L) for some T containing L but not a: that fails at
(L + a, T), and if X* fails at Y, a step B -> B + a of the chain from
X* & Y up to X* has d_a(B | Y - X*) > d_a(B), so row B + a, inside X*,
fails and is X*. The first marginal violation fails at row S + u, so
X* < 2^c with c its bit length, and only a < c and L inside [0, c) count:
per a one max over T's bits from c up, then one superset max over the
c - 1 low bits, find X* in O(c 2^n + c^2 2^c).

Subadditivity takes a walk over the rows X in O(3^n) that stops at X*. A
table built from a representation f = max_i a_i, each a_i additive with
a_i(empty) = 0 and weights of any sign, may carry a certificate of
subadditivity, decided in O(k 2^n) while the table is built: every set U
has a component a_j that attains f(U) and has no negative weight on U. Then

    f(X | Y) = a_j(X) + a_j(Y) - a_j(X & Y) <= a_j(X) + a_j(Y) <= f(X) + f(Y)

with a_j the certified component of X | Y. Every monotone such table holds
it: were a_j(v) < 0 for an attaining a_j and some v in U, then
f(U - v) >= a_j(U) - a_j(v) > f(U). A certified table passes at once; every
other table, and every failure, takes the walk. The walk's lowest
eight levels run as one vectorized block per node, in bounded chunks, so at
n = 16 the walk makes 256 Python-level visits, not 65536; a block expands
both the minima and the table values it compares them with one bit at a
time, by slicing halves, so it gathers at no index array. The walk,
blocks included, tests the rows in ascending order, so it finds X*. The
tests check every route against the 4^n pair scans.
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

    ``_certified`` is True only on a table built from a representation
    max_i a_i in which every set U has a component that attains f(U) and
    has no negative weight on U; such a table is subadditive (see the
    module docstring), so ``check_subadditive`` passes it at once. Tables
    built from values, a callable or a hidden family never set it.
    """

    __slots__ = ("n", "values", "_certified")

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
        self._certified = False

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


def _dense(n: int, table: np.ndarray, certified: bool = False) -> DenseFunction:
    """A DenseFunction over an int64 ``table`` of 2^n values, which need no
    per-value check."""
    out = DenseFunction.__new__(DenseFunction)
    out.n = n
    out.values = _exact_table(table)
    out._certified = certified
    return out


def _dense_from_representation(rep: XosRepresentation) -> DenseFunction:
    """Max of the per-component subset sums, read from ``rep._byte_tables``
    (n <= MATERIALIZE_CAP, so the tables exist and every sum is an int64).
    It is certified iff at every mask a component with no negative weight
    there (``free``) exists (``held``) and the best of their sums (``best``,
    defined where ``held``) is the table's value."""
    tables = rep._byte_tables
    masks = np.arange(1 << rep.n)
    table = best = held = None
    for i, comp in enumerate(rep.components):
        sums = tables[0][:, i]
        for byte in tables[1:]:  # each byte's bits lie above all bits in sums
            sums = (byte[:, i, None] + sums).ravel()
        free = (masks & sum(1 << v for v, w in enumerate(comp.weights) if w < 0)) == 0
        if table is None:
            table, best, held = sums, sums, free
        else:
            table = np.maximum(table, sums)
            best = np.where(free & (~held | (sums > best)), sums, best)
            held = held | free
    return _dense(rep.n, table, certified=bool(held.all() and np.array_equal(best, table)))


# ---------------------------------------------------------------------------
# Class checks (defining inequalities, exhaustive)


def check_normalized(f: DenseFunction) -> tuple[bool, Witness]:
    if f[0] != 0:
        return False, (0,)
    return True, None


def check_monotone(f: DenseFunction) -> tuple[bool, Witness]:
    """f(X) <= f(X + v) for every X and v outside X (equivalent by chaining)."""
    vals = f.values
    for v in range(f.n):
        halves = vals.reshape(-1, 2, 1 << v)
        bad = halves[:, 0] > halves[:, 1]
        if bad.any():
            x = _with_bit(int(bad.argmax()), v)
            return False, (x, x | 1 << v)
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


def _row_violations(vals: np.ndarray, x: int, ys: np.ndarray, submodular: bool) -> np.ndarray:
    """Ascending Y with f(x) + f(Y) < f(x | Y) (+ f(x & Y) if submodular)."""
    rhs = vals[x | ys]
    if submodular:
        rhs = rhs + vals[x & ys]
    return np.nonzero(vals[x] + vals < rhs)[0]


def _marginals(vals: np.ndarray, a: int) -> np.ndarray:
    """d_a(T) = f(T + a) - f(T) at the T without a, ascending, from slices:
    index k is T with bit a dropped, T = _with_bit(k, a)."""
    halves = vals.reshape(-1, 2, 1 << a)
    return (halves[:, 1] - halves[:, 0]).ravel()


def _with_bit(k, a):
    """k (an int or an int array) with a 0 inserted at bit a."""
    low = (1 << a) - 1
    return (k & ~low) << 1 | k & low


def _marginal_failure(f: DenseFunction) -> int | None:
    """Row S + u for the first u < v, and least S, with d_u(S + v) > d_u(S),
    or None if every marginal diminishes: O(n^2 2^n)."""
    for u in range(f.n - 1):
        d = _marginals(f.values, u)
        for v in range(u + 1, f.n):  # bit v of T is bit v - 1 of d's index
            halves = d.reshape(-1, 2, 1 << v - 1)
            bad = halves[:, 1] > halves[:, 0]
            if bad.any():
                return _with_bit(_with_bit(int(bad.argmax()), v - 1), u) | 1 << u
    return None


# The walk's lowest _LEAF levels run as one vectorized block per node. A
# block holds at most _BLOCK_BUDGET expanded entries (256 KiB as int64) at a
# time, so its memory does not grow with n.
_LEAF = 8
_BLOCK_BUDGET = 1 << 15


@cache  # built on first use: an import allocates no arrays
def _digit_indices() -> list[np.ndarray]:
    """For each digit d < _LEAF, the row {d} | L at each of the 3^d ternary
    indices t of the digits below d (digit j of t is 0: j not in Z, 1: j in
    Z, 2: j in L)."""
    rows = np.zeros(1, dtype=np.intp)
    out = []
    for d in range(_LEAF):
        bit = 1 << d
        out.append(bit | rows)
        rows = np.concatenate([rows, rows, rows | bit])
    return out


def _first_block_row(m: np.ndarray, g: np.ndarray, leaf: int) -> int | None:
    """First nonempty L below 2^leaf (ascending) whose row x | L fails, given
    node x's m and g, or None.

    Each of the R = len(m) / 2^leaf leading rows of m and g holds the subsets
    of [0, leaf) in its low bits. Those bits of both are expanded into
    ternary digits one at a time, from bit 0 up: digit 2 (j in L) of m is the
    min of the two halves, so m becomes the min over W inside x | L, and
    digits 1 and 2 of g are both its half with bit j set, so g is read where
    every bit of Z | L is set. Row x | L fails at an entry iff
    f(x | L) + m < g. After digit d only the new entries, the rows whose L
    has top bit d, are tested, so the first failing row is found in
    ascending order. The R rows go in chunks of at most _BLOCK_BUDGET
    expanded entries; once one chunk finds a failing row, later ones test
    only smaller rows. Each digit writes its expansions into one of two
    buffers that every chunk reuses: expansions allocated afresh per digit
    can make the C allocator hand their pages back to the system and fault
    them in again at every chunk. Only the minima and gaps, a third of an
    expansion each, are allocated per digit.
    """
    size = 1 << leaf
    m, g = m.reshape(-1, size), g.reshape(-1, size)
    f_rows = g[0]  # f(x | L) at column L
    step = _BLOCK_BUDGET // 3**leaf
    # digit leaf - 2 writes the largest expansions, 2 * 3^(leaf - 1) per row
    buffers = np.empty((2, 2, 2 * min(len(m), step) * 3**(leaf - 1)), dtype=m.dtype)
    best = size
    for start in range(0, len(m), step):
        mc, gc = m[start:start + step], g[start:start + step]
        for d, rows in enumerate(_digit_indices()[:leaf]):
            if 1 << d >= best:
                break
            halves = mc.reshape(-1, 2, 3**d)
            ghalves = gc.reshape(-1, 2, 3**d)
            low = np.minimum(halves[:, 0], halves[:, 1])
            gap = ghalves[:, 1] - low  # exact: |values| < 2^62, or Python ints
            bad = gap.max(axis=0) > f_rows[rows]
            if bad.any():
                best = min(best, int(rows[bad].min()))
                break
            if d + 1 < leaf:
                out_m, out_g = buffers[d & 1, :, :3 * low.size].reshape(2, -1, 3, 3**d)
                mc = np.concatenate([halves, low[:, None]], axis=1, out=out_m)
                gc = np.concatenate([ghalves, ghalves[:, 1:]], axis=1, out=out_g)
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

    Diminishing marginals decide the verdict. A failure's first row X* is
    the least L + a (a not in L) with ``top[a, L]``, the max of d_a(T) over
    T containing L but not a, above ``own[a, L]`` = d_a(L), and lies below
    2^c, c the bit length of the marginal route's failing row; the module
    docstring proves both. Only a < c and L below 2^c are kept, so X* takes
    O(c 2^n + c^2 2^c); one vectorized row gives its first Y.
    """
    vals = f.values
    bound = _marginal_failure(f)
    if bound is None:
        return True, None
    c = bound.bit_length()
    width = 1 << c - 1
    top = np.empty((c, width), dtype=vals.dtype)
    own = np.empty_like(top)
    for a in range(c):
        d = _marginals(vals, a).reshape(-1, width)  # a row per T's bits from c up
        top[a], own[a] = d.max(axis=0), d[0]
    for j in range(c - 1):  # superset max over L's bits
        halves = top.reshape(c, -1, 2, 1 << j)
        np.maximum(halves[:, :, 0], halves[:, :, 1], out=halves[:, :, 0])
    a, k = np.nonzero(top > own)
    x = int((_with_bit(k, a) | 1 << a).min())
    bad = _row_violations(vals, x, np.arange(len(f)), submodular=True)
    return False, (x, int(bad[0]))


def check_subadditive(f: DenseFunction) -> tuple[bool, Witness]:
    """f(X) + f(Y) >= f(X | Y), all 4^n pairs.

    A table built from a representation max_i a_i in which every set U has
    a component a_j that attains f(U) and has no negative weight on U passes
    at once: with a_j that component of X | Y,

        f(X | Y) = a_j(X) + a_j(Y) - a_j(X & Y) <= a_j(X) + a_j(Y) <= f(X) + f(Y).

    Every monotone such table holds this certificate, since an attaining a_j
    with a_j(v) < 0 on some v in U would give f(U - v) > f(U). Every other
    table, and every failure, takes the O(3^n) row walk, which finds the
    pair scan's first failing row; one vectorized row gives its first Y.
    """
    if f._certified:
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
