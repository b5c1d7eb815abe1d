"""Property checks with hypothesis on explicit representations.

Weights are drawn near both ends of int64, so some draws (about one in
seven) are refused at construction and the rest reach close to the edges;
every accepted representation must give the same values on each of its
query routes.
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
