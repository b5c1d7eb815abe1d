"""Batched query path: block draws, evaluate_many and evaluated.

Each batched route is compared with the scalar code it replaces: the same
masks, the same final generator state, the same values, the same call
counts and the same errors.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from xosmax import (
    CountingOracle,
    ValueOverflowError,
    XosRepresentation,
    random_explicit,
    solve_brute_force,
)
from xosmax.algorithms import SamplingParams, solve_random_sampling
from xosmax.cli import SOLVERS, _solver
from xosmax.core import BLOCK, INT64_MAX, INT64_MIN, evaluated, first_max
from xosmax.hardness import NeedleInstance, uniform_size_probe
from xosmax.instances import InstanceHandle
from xosmax.rng import SplitMix64, sample_mask, sample_masks, sample_positions

from helpers import maximizer_indices

_MASK64 = (1 << 64) - 1
_INV_GAMMA = pow(0x9E3779B97F4A7C15, -1, 1 << 64)


def _draws_between(before: int, after: int) -> int:
    """Draws a splitmix64 stream made to go from state ``before`` to ``after``."""
    return ((after - before) * _INV_GAMMA) & _MASK64


@pytest.mark.parametrize("n", [1, 24, 63, 64, 65])
def test_sample_masks_matches_scalar_draws(n):
    for m in sorted({0, 1, n}):
        for count in (0, 1, 1023, 1024, 1025):
            seed = (n * 1_000_003 + m * 10_007 + count) & _MASK64
            scalar, batched = SplitMix64(seed), SplitMix64(seed)
            expected = [sample_mask(n, m, scalar) for _ in range(count)]
            assert list(sample_masks(n, m, count, batched)) == expected, (n, m, count)
            assert batched.state == scalar.state, (n, m, count)


def test_sample_masks_redraws_a_block_with_a_rejection():
    # The 9th word of this stream is 2^64 - 1. In a (24, 6) stream it is the
    # third draw of the second mask, randrange(22), whose rejection
    # threshold it exceeds, so 5 masks take 31 draws instead of 30.
    seed = 4586561260770644227
    g = SplitMix64(seed)
    assert [g.next_u64() for _ in range(9)][-1] == _MASK64
    scalar, batched = SplitMix64(seed), SplitMix64(seed)
    expected = [sample_mask(24, 6, scalar) for _ in range(5)]
    assert _draws_between(seed, scalar.state) == 31
    assert list(sample_masks(24, 6, 5, batched)) == expected
    assert batched.state == scalar.state


def test_sample_masks_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        sample_masks(4, 5, 3, SplitMix64(0))
    with pytest.raises(ValueError):
        sample_masks(4, -1, 3, SplitMix64(0))


@pytest.mark.parametrize("count", [-1, True, 1.5, "3"])
def test_sample_masks_checks_count_at_the_call(count):
    # The call raises before any mask is taken or any draw is made.
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="count must be an integer >= 0"):
        sample_masks(24, 6, count, rng)
    assert rng.state == 5


def _edge_rows(n: int) -> list[list[int]]:
    """Rows whose positive weights sum to exactly INT64_MAX, or negative
    ones to exactly INT64_MIN: the widest a table may be and stay batched."""
    top = [INT64_MAX - (n - 1)] + [1] * (n - 1)
    bottom = [INT64_MIN + (n - 1)] + [-1] * (n - 1)
    mixed = [INT64_MAX // n if v % 2 else INT64_MIN // n for v in range(n)]
    return [top, bottom, mixed]


def _random_masks(n: int, count: int, seed: int) -> list[int]:
    g = SplitMix64(seed)
    full = (1 << n) - 1
    masks = [0, full]
    for _ in range(count):
        m = 0
        for _ in range(-(-n // 64)):
            m = (m << 64) | g.next_u64()
        masks.append(m & full)
    return masks


def _bit_loop(rep: XosRepresentation, mask: int) -> int:
    """The reference: each component's checked sum over the set bits."""
    return max(comp.evaluate(mask) for comp in rep.components)


def _table_reps(n: int) -> list[XosRepresentation]:
    """Random representations of widths 1-4, and ones whose lanes reach the
    ends of int64: ``_edge_rows``, and alternating top and bottom rows with
    the wide weight first and last, so that a carry or borrow between
    lanes would change a neighbour's sum."""
    edge = _edge_rows(n)
    top, bottom, _ = edge
    reps = [random_explicit(n, k, -(1 << 40), 1 << 40, seed=n + k) for k in range(1, 5)]
    reps += [
        XosRepresentation.from_weights(rows)
        for rows in (edge[:1], edge[:2], edge, [bottom],
                     [top, bottom, top[::-1], bottom[::-1]], [bottom[::-1], top])
    ]
    return reps


_TABLE_SIZES = [1, 8, 9, 13, 63, 64, 65, 200]


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_evaluate_many_agrees_with_evaluate(n):
    masks = _random_masks(n, 300, seed=n)
    for rep in _table_reps(n):
        # n <= 64 takes the table route; wider grounds take evaluate.
        assert (rep._byte_tables is None) == (n > 64)
        batched = CountingOracle.for_representation(rep)
        scalar = CountingOracle.for_representation(rep)
        expected = [_bit_loop(rep, m) for m in masks]
        assert batched.evaluate_many(masks) == expected
        assert [scalar.evaluate(m) for m in masks] == expected
        assert batched.calls == scalar.calls == len(masks)
        assert batched.evaluate_many([]) == []
        assert batched.calls == len(masks)


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_single_queries_read_the_packed_tables(n):
    # Every single-element and co-single-element mask, plus random ones:
    # each byte's table is read with one bit set and with all but one.
    full = (1 << n) - 1
    masks = _random_masks(n, 100, seed=n + 1)
    masks += [1 << v for v in range(n)] + [full ^ (1 << v) for v in range(n)]
    for rep in _table_reps(n):
        assert (rep._packed_tables is None) == (n > 64)
        assert [rep.evaluate(m) for m in masks] == [_bit_loop(rep, m) for m in masks]
    edge = XosRepresentation.from_weights(_edge_rows(n)[:2])
    assert edge.evaluate(full) == INT64_MAX
    assert XosRepresentation.from_weights(_edge_rows(n)[1:2]).evaluate(full) == INT64_MIN


@pytest.mark.parametrize("n", [13, 64])
@pytest.mark.parametrize("bad", [lambda n: -1, lambda n: 1 << n, lambda n: (1 << 64) | 1],
                         ids=["negative", "bit-n", "bit-64"])
def test_single_queries_reject_masks_outside_the_ground(n, bad):
    # A byte lookup reads only the low ceil(n/8) bytes of a mask, so the
    # table route checks the mask first instead of ignoring the rest.
    rep = random_explicit(n, 3, -5, 5, seed=n)
    assert rep._packed_tables is not None
    with pytest.raises(ValueError, match="is not a subset of a ground set"):
        rep.evaluate(bad(n))
    assert rep.evaluate(True) == rep.evaluate(1)


@pytest.mark.parametrize("n", [13, 16, 64])
def test_evaluate_many_rejects_masks_outside_the_ground(n):
    # The byte tables read only the low ceil(n/8) bytes of a mask, so the
    # batch tests the masks as evaluate does instead of reading part of one.
    rep = random_explicit(n, 2, 1, 9, 0)
    assert rep._byte_tables is not None
    bads = [-1, 1 << n, (1 << 64) | 1] + ([1 << 40, (1 << 40) | 1] if n < 40 else [])
    for bad in bads:
        with pytest.raises(ValueError) as scalar_exc:
            rep.evaluate(bad)
        for masks in ([bad], [1, bad]):
            with pytest.raises(ValueError) as batch_exc:
                rep.evaluate_many(masks)
            assert type(batch_exc.value) is type(scalar_exc.value), (bad, masks)
            assert str(batch_exc.value) == str(scalar_exc.value), (bad, masks)
    full = (1 << n) - 1
    assert rep.evaluate_many([0, 1, full]) == [rep.evaluate(m) for m in (0, 1, full)]


def test_evaluate_many_overflow_raises_like_evaluate():
    rep = XosRepresentation.from_weights([[2**62, 2**62]])
    assert rep._byte_tables is None
    with pytest.raises(ValueOverflowError):
        CountingOracle.for_representation(rep).evaluate(0b11)
    with pytest.raises(ValueOverflowError):
        CountingOracle.for_representation(rep).evaluate_many([0b01, 0b11])
    assert CountingOracle.for_representation(rep).evaluate_many([0b01, 0b10]) == [2**62, 2**62]
    # One past the widest batched rows: the top row's sum is INT64_MAX + 1
    # and the bottom row's INT64_MIN - 1, so neither has tables.
    top, bottom, _ = _edge_rows(64)
    for row, delta in ((top, 1), (bottom, -1)):
        rep = XosRepresentation.from_weights([[row[0] + delta, *row[1:]]])
        assert rep._packed_tables is None
        with pytest.raises(ValueOverflowError):
            rep.evaluate((1 << 64) - 1)
        assert rep.evaluate((1 << 64) - 2) == 63 * delta


def test_evaluate_many_closure_counts_the_same():
    rep = random_explicit(12, 3, -9, 9, seed=3)
    seen = []

    def value(mask):
        seen.append(mask)
        return rep.evaluate(mask)

    oracle = CountingOracle(rep.ground, value)
    masks = _random_masks(12, 50, seed=4)
    assert oracle.evaluate_many(masks) == [rep.evaluate(m) for m in masks]
    assert oracle.calls == len(masks)
    assert seen == masks
    # A bound method other than evaluate never reaches the owner's batch.
    class Owner:
        def evaluate(self, mask):
            raise AssertionError("evaluate is not the value function")

        def evaluate_many(self, masks):
            raise AssertionError("the batch must not reach the owner")

        def maximizer_indices(self, mask):
            return maximizer_indices(rep, mask)

    owner = Owner()
    other = CountingOracle(rep.ground, owner.maximizer_indices)
    assert other.evaluate_many(masks) == [owner.maximizer_indices(m) for m in masks]
    assert other.calls == len(masks)


@pytest.mark.parametrize(
    "bad, error", [(True, TypeError), (-1, ValueError), (1 << 10, ValueError)]
)
def test_evaluate_many_rejects_masks_like_evaluate(bad, error):
    rep = random_explicit(10, 2, -5, 5, seed=1)
    closure = CountingOracle(rep.ground, lambda m: rep.evaluate(m))
    for oracle in (CountingOracle.for_representation(rep), closure):
        with pytest.raises(error) as scalar_exc:
            oracle.evaluate(bad)
        with pytest.raises(error) as batch_exc:
            oracle.evaluate_many([1, bad])
        assert str(batch_exc.value) == str(scalar_exc.value)


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(2)])
@pytest.mark.parametrize(
    "args", [(16, 2, -10, 30, 1, True), (16, 3, -20, 30, 2), (14, 1, -5, 9, 3)]
)
def test_solvers_report_the_same_on_tables_and_on_the_bit_loop(args, epsilon):
    # The closure oracle has no evaluate_many owner and no tables, so every
    # query it answers runs the bit loop. The last two instances drop
    # singletons below retained elements, so core.lift translates masks.
    rep = random_explicit(*args)
    retained = sum(1 << v for v in range(rep.n) if rep.singleton_value(v) > 0)
    assert (retained & (retained + 1) == 0) == (len(args) == 6)
    handle = InstanceHandle("explicit", explicit=rep)
    algorithms = [a for a in SOLVERS if a != "probe"]  # probe runs on needles only
    for algo in algorithms:
        reports = []
        for oracle in (CountingOracle.for_representation(rep),
                       CountingOracle(rep.ground, lambda m: _bit_loop(rep, m))):
            reports.append(SOLVERS[algo](oracle, 7, _solver(handle, algo, epsilon=epsilon)))
            assert oracle.calls == reports[-1].oracle_calls
        assert reports[0] == reports[1], algo


def test_evaluated_hands_out_blocks_in_order():
    class Recorder:
        def __init__(self):
            self.blocks = []

        def evaluate_many(self, masks):
            self.blocks.append(len(masks))
            return [2 * m for m in masks]

    oracle = Recorder()
    pairs = list(evaluated(oracle, iter(range(2 * BLOCK + 452))))
    assert pairs == [(m, 2 * m) for m in range(2 * BLOCK + 452)]
    assert oracle.blocks == [BLOCK, BLOCK, 452]
    assert list(evaluated(oracle, [])) == []


def test_sampling_solver_matches_a_scalar_reference():
    # Weights drop some singletons, so sampled positions are translated to
    # the retained elements; the reference is the per-query loop.
    n, per_round = 30, 1500
    rep = random_explicit(n, 3, -40, 60, seed=8)
    params = SamplingParams(1, seed=77, sample_budget_override=per_round)
    report = solve_random_sampling(CountingOracle.for_representation(rep), params)

    oracle = CountingOracle.for_representation(rep)
    elems = [v for v in range(n) if oracle.evaluate(1 << v) > 0]
    assert len(elems) < n
    rounds, rest = divmod(report.oracle_calls - n, per_round)
    assert rounds > 1 and rest == 0
    rng = SplitMix64(77)

    def reference():
        for m in range(1, rounds + 1):
            for _ in range(per_round):
                mask = sum(1 << elems[p] for p in sample_positions(len(elems), m, rng))
                yield mask, oracle.evaluate(mask)

    assert (report.output, report.value) == first_max(reference())
    assert oracle.calls == report.oracle_calls


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_query_path_memory_stays_bounded():
    rep = random_explicit(16, 3, -20, 40, seed=5)
    needle = NeedleInstance(24, 12, 6, 9)
    brute = _peak_bytes(lambda: solve_brute_force(CountingOracle.for_representation(rep)))
    probe = _peak_bytes(lambda: uniform_size_probe(needle.oracle(), 6, 20000, 3))
    assert brute < 1 << 20, brute
    assert probe < 1 << 20, probe


def test_sample_masks_holds_one_block():
    # 300000 masks as one list would take about 11 MiB; the stream holds one
    # block of BLOCK masks however many are taken.
    def take():
        for _ in sample_masks(24, 6, 300_000, SplitMix64(11)):
            pass

    peak = _peak_bytes(take)
    assert peak < 1 << 20, peak
