"""Property checks with hypothesis on explicit representations.

Weights are drawn near both ends of int64, so some draws (about one in
seven) are refused at construction and the rest reach close to the edges;
every accepted representation must give the same values on each of its
query routes. Closure growth draws small weights instead, so that many
components tie, and its argmax route must grow what the query loop grows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xosmax import CountingOracle, ValueOverflowError, XosRepresentation, materialize
from xosmax.core import INT64_MAX, INT64_MIN

# Each weight near an edge lands at most 3n from it, toward zero, so a
# handful of small weights beside it decides whether its row's sum fits.
_EDGES = (INT64_MAX, INT64_MIN, (INT64_MAX + 1) // 2, INT64_MIN // 2)

# Tier-1 stays deterministic: the same examples on every run, no database.
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _weight_rows(draw):
    n = draw(st.integers(1, 70))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        for _ in range(draw(st.integers(0, 2))):
            edge = draw(st.sampled_from(_EDGES))
            inward = draw(st.integers(0, 3 * n))
            row[draw(st.integers(0, n - 1))] = edge - inward if edge > 0 else edge + inward
        rows.append(row)
    return rows


def _fits(row: list[int]) -> bool:
    return (sum(w for w in row if w > 0) <= INT64_MAX
            and sum(w for w in row if w < 0) >= INT64_MIN)


@_SETTINGS
@given(rows=_weight_rows(), data=st.data())
def test_construction_and_every_route_agree(rows, data):
    n = len(rows[0])
    if not all(map(_fits, rows)):
        with pytest.raises(ValueOverflowError, match="weight sum -?[0-9]+ outside signed 64-bit"):
            XosRepresentation.from_weights(rows)
        return
    rep = XosRepresentation.from_weights(rows)
    full = (1 << n) - 1
    masks = [0, full] + data.draw(st.lists(st.integers(0, full), max_size=30))
    single = CountingOracle.for_representation(rep)  # cached component sums
    batch = CountingOracle.for_representation(rep)  # numpy tables on arrays, n <= 64
    bit_loop = CountingOracle(rep.ground, lambda m: max(c.evaluate(m) for c in rep.components))
    values = [single.evaluate(m) for m in masks]
    block = np.array(masks, dtype=np.uint64) if n <= 64 else masks
    assert list(map(int, batch.evaluate_many(block))) == values
    assert bit_loop.evaluate_many(masks) == values
    assert single.calls == batch.calls == bit_loop.calls == len(masks)
    assert all(INT64_MIN <= v <= INT64_MAX for v in values)
    # evaluate_plus from cached sums: bases that grow by one element, move
    # by many, shrink or stay, and elements drawn inside them too.
    plus = CountingOracle.for_representation(rep)
    base = 0
    for step, other, u in data.draw(st.lists(
        st.tuples(st.sampled_from(["one", "many", "shrink", "inside"]),
                  st.integers(0, full), st.integers(0, n - 1)), max_size=30)):
        if step == "one":
            base |= 1 << other % n
        elif step == "many":
            base ^= other
        elif step == "shrink":
            base &= other
        elif base:
            u = (base & -base).bit_length() - 1
        got = plus.evaluate_plus(base, u)
        assert got == bit_loop.evaluate_plus(base, u) == single.evaluate(base | 1 << u)
    assert plus.calls == bit_loop.calls - len(masks) == single.calls - len(masks)
    if n <= 12:
        assert rep.exact_maximum() == materialize(rep).max_value()


@st.composite
def _growth_cases(draw):
    """Weights in -2..2, so argmax ties are common; n crosses 64."""
    n = draw(st.integers(1, 70))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=6))
    full = (1 << n) - 1
    return rows, draw(st.integers(0, full)), draw(st.integers(0, full)), draw(st.integers(0, n - 1))


@_SETTINGS
@given(case=_growth_cases(), delta=st.sampled_from([-1, 1]))
def test_grow_argmax_route_equals_the_loop(case, delta):
    # grow on the representation's own oracle (argmax sets) against an
    # oracle with no owner (one evaluate_plus per scanned element): the
    # same closure, value and calls, also from a cache left on another set,
    # and when base_val is off by one, one singleton value is changed or
    # the singleton values come as a tuple (each of those takes the loop).
    rows, base, universe, v = case
    rep = XosRepresentation.from_weights(rows)
    singles = [rep.singleton_value(u) for u in range(rep.n)]
    changed = singles.copy()
    changed[v] += delta
    f_base = rep.evaluate(base)
    scanned = (universe & ~base).bit_count()
    for base_val, values in ((f_base, singles), (f_base + delta, singles), (f_base, changed),
                             (f_base, tuple(singles))):
        cached = CountingOracle.for_representation(rep)
        loop = CountingOracle(rep.ground, lambda m: rep.evaluate(m))
        assert cached.evaluate(universe) == loop.evaluate(universe)
        got = cached.grow(base, base_val, universe, values)
        assert got == loop.grow(base, base_val, universe, values)
        assert cached.calls == loop.calls == 1 + scanned
        assert got[0] & ~(base | universe) == 0
