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
values whatever the width. Every check has one vectorized implementation,
exact on either dtype. Fast routes decide the two pair classes:
submodularity through diminishing marginals in O(n^2 2^n), subadditivity
through a walk over the rows X in O(3^n) that stops at the first failing
row. A failure's witness is still the pair scans': the submodular route
hands a failure to the scan, and the subadditive walk finds the scan's first
failing row, whose first Y one vectorized row gives. The 4^n pair scans
(vectorized per row) remain the reference the routes are tested against.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .core import CapExceededError, XosRepresentation, check_value

MATERIALIZE_CAP = 16

# Pair scans and routes add or subtract two table entries; staying within
# +-2^62 keeps those int64 results exact.
_SAFE_SUM_BOUND = 1 << 62

Witness = Union[tuple[int, ...], None]


class DenseFunction:
    """Value table over all subsets of {0..n-1}, indexed by bitmask."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        if not 1 <= n <= MATERIALIZE_CAP:
            raise CapExceededError(f"dense tables support 1 <= n <= {MATERIALIZE_CAP}, got {n}")
        vals = list(values)
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {len(vals)}")
        table = None
        if all(type(v) is int for v in vals):
            try:
                table = np.array(vals, dtype=np.int64)
            except OverflowError:
                pass
        if table is None:  # the first bad value raises check_value's error
            for v in vals:
                check_value(v)
            table = np.array(vals, dtype=np.int64)
        self.n = n
        self.values = _exact_table(table)

    def __getitem__(self, mask: int) -> int:
        return int(self.values[mask])

    def __len__(self) -> int:
        return len(self.values)

    def max_value(self) -> int:
        return int(self.values.max())


def _exact_table(table: np.ndarray) -> np.ndarray:
    """The dtype rule for a table of int64-range values: int64 when every
    |value| < 2^62, otherwise an object array of Python ints."""
    if table.max() >= _SAFE_SUM_BOUND or table.min() <= -_SAFE_SUM_BOUND:
        return table.astype(object)
    return table.astype(np.int64, copy=False)


def materialize(
    source: Union[XosRepresentation, Callable[[int], int]],
    n: int | None = None,
) -> DenseFunction:
    """Build the dense table for a representation, or a callable and ``n``.

    Representations are read from their byte tables; a callable is called
    once per mask, 2^n calls (pass ``oracle.evaluate, oracle.n`` to count
    them). Anything else, a ``CountingOracle`` included, raises TypeError.
    The cap is checked before any evaluation.
    """
    if isinstance(source, XosRepresentation):
        n = source.n
    elif not callable(source):
        raise TypeError(f"cannot materialize {type(source).__name__}")
    elif n is None:
        raise ValueError("materialize(callable) needs the ground size n")
    if not 1 <= n <= MATERIALIZE_CAP:
        raise CapExceededError(f"materialize supports 1 <= n <= {MATERIALIZE_CAP}, got {n}")
    if isinstance(source, XosRepresentation):
        return _dense_from_representation(source)
    return DenseFunction(n, [source(mask) for mask in range(1 << n)])


def _dense_from_representation(rep: XosRepresentation) -> DenseFunction:
    """Max of the per-component subset sums, read from ``rep._byte_tables``.

    A component whose subset sums leave int64 has no byte tables and raises,
    as ``rep.evaluate`` does on the mask that reaches that sum.
    """
    tables = rep._byte_tables
    if tables is None:
        for comp in rep.components:
            check_value(sum(w for w in comp.weights if w < 0), "component sum")
            check_value(sum(w for w in comp.weights if w > 0), "component sum")
    table = None
    for i in range(rep.width):
        sums = tables[0][:, i]
        for byte in tables[1:]:  # each byte's bits lie above all bits in sums
            sums = (byte[:, i, None] + sums).ravel()
        table = sums if table is None else np.maximum(table, sums)
    out = DenseFunction.__new__(DenseFunction)
    out.n = rep.n
    out.values = _exact_table(table)
    return out


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


def _first_subadditive_row(f: DenseFunction) -> int | None:
    """First X (ascending) with f(X) + f(Y) < f(X | Y) for some Y, in O(3^n).

    Write Y = W | Z with W inside X and Z outside it. Row X fails iff
    f(X) + m_X(Z) < g_X(Z) for some Z outside X, where m_X(Z) is the min of
    f(Z | W) over W inside X and g_X(Z) = f(X | Z); both are indexed by the
    subsets of the elements outside X. A child of X adds one element b below
    X's lowest: its m is the min of the two b-halves of X's m, and its g the
    half with b set. A preorder walk with b ascending visits X in ascending
    order, so the first row it flags is the pair scan's first failing row.
    """

    def visit(x: int, low: int, m: np.ndarray, g: np.ndarray) -> int | None:
        if (g[0] + m < g).any():  # g[0] = f(x)
            return x
        for b in range(low):
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

    The O(3^n) row walk finds the pair scan's first failing row, and one
    vectorized row gives its first Y.
    """
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
