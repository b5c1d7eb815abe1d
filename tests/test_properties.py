"""Property checks with hypothesis on explicit representations.

Weights are drawn near both ends of int64, so some draws (about one in
seven) are refused at construction and the rest reach close to the edges;
every accepted representation must give the same values on each of its
query routes. Closure growth draws small weights instead, so that many
components tie, and its argmax route must grow what the query loop grows.
The improving elements of a set and the singleton values must be what
the query loop finds, at thresholds that tie and at weights near the int64
edges. The subadditivity check of a representation's table, certified or
walked, must agree with the row walk and the pair scan on small tables of
weights of both signs, and every monotone one must be certified. The
submodularity check must give the pair scan's witness on those tables, on
raw and perturbed budget-additive value tables, and on their object twins
near 2^62. In the value oracle model a solver sees only f's values, so a
solver's report must not depend on which representation of f the oracle
answers from.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xosmax import (
    CountingOracle,
    DenseFunction,
    ValueOverflowError,
    XosRepresentation,
    check_monotone,
    check_subadditive,
    check_submodular,
    materialize,
)
from xosmax.cli import SOLVERS, UsageError, _solver
from xosmax.core import INT64_MAX, INT64_MIN
from xosmax.instances import InstanceHandle

from helpers import _pair_scan, recording_oracle, scale_to_edge

# Each weight near an edge lands at most 3n from it, toward zero, so a
# handful of small weights beside it decides whether its row's sum fits.
_EDGES = (INT64_MAX, INT64_MIN, (INT64_MAX + 1) // 2, INT64_MIN // 2)

# Tier-1 stays deterministic: the same examples on every run, no database.
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _weight_rows(draw, widths=4):
    n = draw(st.integers(1, 70))
    rows = []
    for _ in range(draw(st.integers(1, widths))):
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


@st.composite
def _improving_cases(draw):
    """``_weight_rows`` of widths 1-5 (weights -3..3, so thresholds tie
    often, with up to two per row near an int64 edge; n 1-70), without the
    rows whose sums leave int64. A base, a universe and a set the cache
    starts on."""
    rows = draw(_weight_rows(5))
    n = len(rows[0])
    rows = [row for row in rows if _fits(row)] or [[0] * n]
    full = (1 << n) - 1
    return rows, *(draw(st.integers(0, full)) for _ in range(3))


@_SETTINGS
@given(case=_improving_cases())
def test_improving_and_singletons_equal_the_loop(case):
    # improving and singletons on the representation's own oracle (weights
    # against gaps, and cached singletons) against an oracle with no owner (one
    # evaluate_plus per element): the same mask, values and calls, also
    # when base_val is off by one, when the universe holds all of base and
    # when it holds one element, which the explicit route tests alone once
    # k n >= 16.
    rows, base, universe, start = case
    rep = XosRepresentation.from_weights(rows)
    singles = [rep.evaluate(1 << v) for v in range(rep.n)]
    f_base = rep.evaluate(base)
    for base_val in (f_base - 1, f_base, f_base + 1):
        for scope in (universe, universe | base, universe & -universe):
            cached = CountingOracle.for_representation(rep)
            loop = CountingOracle(rep.ground, lambda m: rep.evaluate(m))
            assert cached.evaluate(start) == loop.evaluate(start)
            want = sum(1 << u for u in range(rep.n) if (scope & ~base) >> u & 1
                       and rep.evaluate(base | 1 << u) > base_val)
            assert cached.improving(base, base_val, scope) == loop.improving(base, base_val, scope) == want
            assert cached.calls == loop.calls == 1 + (scope & ~base).bit_count()
            assert cached.singletons() == loop.singletons() == singles
            assert cached.calls == loop.calls == 1 + (scope & ~base).bit_count() + rep.n


@st.composite
def _small_tables(draw):
    """Weights in -3..3, or 0..3 so that many tables are monotone; n <= 10."""
    n = draw(st.integers(1, 10))
    low = draw(st.sampled_from([-3, 0]))
    return draw(st.lists(st.lists(st.integers(low, 3), min_size=n, max_size=n), min_size=1, max_size=4))


@_SETTINGS
@given(rows=_small_tables())
def test_certificate_route_agrees_with_the_walk_and_the_scan(rows):
    # The representation's table may pass by its certificate; its copy built
    # from values takes the row walk, and the pair scan is the reference.
    # Monotone implies the certificate, so no monotone table walks.
    rep_table = materialize(XosRepresentation.from_weights(rows))
    values = DenseFunction(rep_table.n, rep_table.values.tolist())
    got = check_subadditive(rep_table)
    assert got == check_subadditive(values) == _pair_scan(values, submodular=False)
    assert rep_table._certified or not check_monotone(rep_table)[0]


@st.composite
def _value_tables(draw):
    """Raw values in -4..4, or a budget-additive (so submodular) table with
    up to three values moved by -3..3, so that the first failing row falls
    early, late or nowhere; n <= 8."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-4, 4), min_size=1 << n, max_size=1 << n))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    budget = draw(st.integers(0, 4 * n))
    values = [min(budget, sum(w for v, w in enumerate(weights) if m >> v & 1))
              for m in range(1 << n)]
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.integers(0, (1 << n) - 1))] += draw(st.integers(-3, 3))
    return values


@_SETTINGS
@given(rows=_small_tables(), values=_value_tables())
def test_submodular_route_gives_the_pair_scans_witness(rows, values):
    # A positive factor keeps every pair inequality, so the object twin near
    # 2^62 must give the same verdict and witness.
    rep_table = materialize(XosRepresentation.from_weights(rows))
    for f in (rep_table, DenseFunction(len(values).bit_length() - 1, values)):
        got = check_submodular(f)
        assert got == _pair_scan(f, submodular=True)
        if f.values.any():
            edge = scale_to_edge(f)
            assert edge.values.dtype == object
            assert check_submodular(edge) == _pair_scan(edge, submodular=True) == got


@st.composite
def _two_representations(draw):
    """Weight rows of an explicit f (n 1-10, width 1-4, weights -3..3, so
    argmax sets tie often) and of another representation of the same f: its
    components permuted, one of them duplicated, or a component added that
    one of them dominates pointwise."""
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=1, max_size=4))
    transform = draw(st.sampled_from(["permute", "duplicate", "dominated"]))
    source = rows[draw(st.integers(0, len(rows) - 1))]
    where = draw(st.integers(0, len(rows)))
    if transform == "permute":
        other = draw(st.permutations(rows))
    elif transform == "duplicate":
        other = rows[:where] + [source] + rows[where:]
    else:
        cut = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        other = rows[:where] + [[w - c for w, c in zip(source, cut)]] + rows[where:]
    return rows, list(other)


@settings(_SETTINGS, max_examples=100)
@given(case=_two_representations(), seed=st.integers(0, (1 << 64) - 1))
def test_reports_depend_on_the_function_alone(case, seed):
    # Every solver that runs on explicit input, on two representations of
    # one f: the representation's own oracle (byte tables, cached sums and
    # argmax sets) gives equal (output, value, calls), and an ownerless
    # oracle asks equal transcripts, which for sample are its seeded draws.
    reps = [XosRepresentation.from_weights(rows) for rows in case]
    assert materialize(reps[0]).values.tolist() == materialize(reps[1]).values.tolist()
    handle = InstanceHandle("explicit", explicit=reps[0])
    ran = 0
    for algo, solve in SOLVERS.items():
        try:
            args = _solver(handle, algo, epsilon=Fraction(1, 2))
        except UsageError:  # probe runs on needles only
            continue
        ran += 1
        owner, transcripts = [], []
        for rep in reps:
            oracle = CountingOracle.for_representation(rep)
            report = solve(oracle, seed, args)
            assert report.oracle_calls == oracle.calls
            owner.append((report.output, report.value, report.oracle_calls))
            recorder, seen = recording_oracle(rep)
            assert solve(recorder, seed, args) == report, algo
            transcripts.append(seen)
        assert owner[0] == owner[1], algo
        assert transcripts[0] == transcripts[1], algo
    assert ran == len(SOLVERS) - 1
