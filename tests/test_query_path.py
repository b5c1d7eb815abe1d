"""Batched query path: block draws, block enumeration, the one block route
``CountingOracle.evaluate_many``, and best_of.

Each batched route is compared with the scalar code it replaces: the same
masks, the same final generator state, the same values, the same call
counts and the same errors. Over elements below 64 the blocks are uint64
arrays, answered by the owner's ``_values`` (byte tables or bit counts)
and compared with the int route that lists, closures and grounds above 64
elements take.
"""

from __future__ import annotations

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from xosmax import (
    CountingOracle,
    GroundSet,
    ValueOverflowError,
    XosRepresentation,
    random_explicit,
    solve_brute_force,
)
from xosmax.algorithms import (
    EnumParams,
    SamplingParams,
    enumerate_maximal_cliques,
    solve_enum_small_sets,
    solve_exact_2xos,
    solve_exact_star,
    solve_k_minus_1,
    solve_random_sampling,
)
from xosmax.cli import SOLVERS, _solver
from xosmax.core import (
    BLOCK,
    INT64_MAX,
    INT64_MIN,
    CapExceededError,
    _element_bits,
    best_of,
    bit_counts,
    first_max,
    ints_of,
    subset_blocks,
)
from xosmax.hardness import (
    HardGeneralInstance,
    HardKxosInstance,
    NeedleInstance,
    uniform_size_probe,
)
from xosmax.instances import InstanceHandle
from xosmax.rng import (
    SplitMix64,
    _mask_block,
    sample_blocks,
    sample_mask,
    sample_masks,
    sample_positions,
)

from helpers import (
    bits_of,
    grow_loop,
    masks_of_card,
    maximizer_indices,
    random_star_representation,
    recording_oracle,
)

_MASK64 = (1 << 64) - 1
_INV_GAMMA = pow(0x9E3779B97F4A7C15, -1, 1 << 64)
# The 9th word of this seed's stream is 2^64 - 1, which randrange rejects
# for every bound but a power of two.
_REJECTED = 4586561260770644227


def _draws_between(before: int, after: int) -> int:
    """Draws a splitmix64 stream made to go from state ``before`` to ``after``."""
    return ((after - before) * _INV_GAMMA) & _MASK64


@pytest.mark.parametrize("n", [1, 24, 63, 64, 65, 128, 1000, 4096])
def test_sample_masks_matches_scalar_draws(n):
    # Above 128 elements a size-n mask takes n scalar draws, so size 7
    # stands in for it. At 4096 elements a block holds 256 masks, so the
    # counts end inside, on and past a block boundary there too.
    for m in sorted({0, 1, min(n, 7), n if n <= 128 else 7}):
        for count in (0, 1, 1023, 1024, 1025):
            for seed in ((n * 1_000_003 + m * 10_007 + count) & _MASK64, _REJECTED):
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
    # Over 128 elements the same draw is the fourth of the second mask,
    # randrange(125), and the redrawn block is a list of ints.
    assert _mask_block(_element_bits(range(128)), [(7, 5)], seed) is None
    scalar, batched = SplitMix64(seed), SplitMix64(seed)
    expected = [sample_mask(128, 7, scalar) for _ in range(5)]
    assert list(sample_blocks((1 << 128) - 1, [(7, 5)], batched)) == [expected]
    assert batched.state == scalar.state


def _scalar_runs(n: int, runs: list[tuple[int, int]], rng: SplitMix64) -> list[int]:
    """The reference: one ``sample_mask`` call per mask, run after run."""
    return [sample_mask(n, m, rng) for m, count in runs for _ in range(count)]


@pytest.mark.parametrize("n", [22, 63, 64, 65, 128, 1000, 4096])
def test_mask_runs_match_scalar_draws(n):
    # Sizes up and down, runs of count 0 and of size 0 between them, and
    # runs longer than a block, so blocks start and end inside runs. Sizes
    # stop at 128, which keeps the scalar reference quick on wide grounds.
    full = (1 << n) - 1
    top = min(n, 128)
    runs = [(3, 700), (top, 5), (0, 40), (1, 0), (top // 2, 1500), (2, 1), (0, 0), (top - 1, 300),
            (1, 24)]
    for seed in (n, _MASK64 - n, _REJECTED):
        scalar, batched = SplitMix64(seed), SplitMix64(seed)
        expected = _scalar_runs(n, runs, scalar)
        assert list(ints_of(sample_blocks(full, runs, batched))) == expected, seed
        assert batched.state == scalar.state, seed
    for runs in ([(0, 5)], [(0, 3), (4, 0)], []):
        rng = SplitMix64(n)
        assert list(ints_of(sample_blocks(full, runs, rng))) == [0] * sum(c for _, c in runs)
        assert rng.state == n


def test_mask_runs_redraw_a_block_that_crosses_a_round():
    # The 9th word of this stream is 2^64 - 1. After the first run's 2 masks
    # of 3 draws it is the third draw of the first size-6 mask, randrange(22),
    # so the first block, which spans three runs, meets a rejection and is
    # redrawn by the scalar code; the second block is drawn in one piece.
    seed = 4586561260770644227
    runs = [(3, 2), (6, 5), (4, 1500)]
    first_block = [(3, 2), (6, 5), (4, BLOCK - 7)]
    assert _mask_block(_element_bits(range(24)), first_block, seed) is None
    scalar, batched = SplitMix64(seed), SplitMix64(seed)
    expected = _scalar_runs(24, runs, scalar)
    assert _draws_between(seed, scalar.state) == 6 + 31 + 4 * 1500
    assert list(ints_of(sample_blocks((1 << 24) - 1, runs, batched))) == expected
    assert batched.state == scalar.state


def test_mask_runs_check_every_run_at_the_call():
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="cannot sample 25 of 24 positions"):
        sample_blocks((1 << 24) - 1, [(3, 10), (25, 1)], rng)
    with pytest.raises(ValueError, match="count must be an integer >= 0"):
        sample_blocks((1 << 24) - 1, [(3, 10), (4, -1)], rng)
    assert rng.state == 5


def test_sample_masks_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        sample_masks(4, 5, 3, SplitMix64(0))
    with pytest.raises(ValueError):
        sample_masks(4, -1, 3, SplitMix64(0))


@pytest.mark.parametrize("n", [10, 70])
@pytest.mark.parametrize("m", [True, False, 1.5, 2.0, "3", np.int64(3)])
def test_samplers_check_the_size_at_the_call(n, m):
    # A size that is not a plain int fails when called, before any draw, on
    # the block route (n <= 64) and the scalar one alike.
    rng = SplitMix64(5)
    calls = [lambda: sample_masks(n, m, 3, rng),
             lambda: sample_blocks((1 << n) - 1, [(2, 1), (m, 2)], rng),
             lambda: sample_mask(n, m, rng), lambda: sample_positions(n, m, rng)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"size must be an integer, got {m!r}")):
            call()
        assert rng.state == 5


@pytest.mark.parametrize("count", [-1, True, 1.5, "3"])
def test_sample_masks_checks_count_at_the_call(count):
    # The call raises before any mask is taken or any draw is made.
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="count must be an integer >= 0"):
        sample_masks(24, 6, count, rng)
    assert rng.state == 5


def _edge_rows(n: int) -> list[list[int]]:
    """Rows whose positive weights sum to exactly INT64_MAX, or negative
    ones to exactly INT64_MIN: the widest components that may be built."""
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
    """The reference: each component's sum over the set bits."""
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
        # A uint64 array over n <= 64 takes the table route; lists, and
        # every block of a wider ground, take evaluate mask by mask.
        assert (rep._byte_tables is None) == (n > 64)
        batched = CountingOracle.for_representation(rep)
        scalar = CountingOracle.for_representation(rep)
        expected = [_bit_loop(rep, m) for m in masks]
        assert batched.evaluate_many(masks) == expected
        assert [scalar.evaluate(m) for m in masks] == expected
        assert batched.calls == scalar.calls == len(masks)
        assert batched.evaluate_many([]) == []
        assert batched.calls == len(masks)
        if n <= 64:
            got = batched.evaluate_many(np.array(masks, dtype=np.uint64))
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.tolist() == expected
            assert batched.evaluate_many(np.array([], dtype=np.uint64)).tolist() == []
            assert batched.calls == 2 * len(masks)


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_single_queries_read_the_packed_tables(n):
    # Every single-element and co-single-element mask, plus random ones,
    # asked one at a time of a counted oracle: its cached component sums
    # move from each mask to the next, by one element, by many, or from
    # the empty set, and must give the bit loop's value every time.
    full = (1 << n) - 1
    masks = _random_masks(n, 100, seed=n + 1)
    masks += [1 << v for v in range(n)] + [full ^ (1 << v) for v in range(n)]
    for rep in _table_reps(n):
        oracle = CountingOracle.for_representation(rep)
        assert [oracle.evaluate(m) for m in masks] == [_bit_loop(rep, m) for m in masks]
        assert oracle.calls == len(masks)
    edge = CountingOracle.for_representation(XosRepresentation.from_weights(_edge_rows(n)[:2]))
    assert edge.evaluate(full) == INT64_MAX
    bottom = XosRepresentation.from_weights(_edge_rows(n)[1:2])
    assert CountingOracle.for_representation(bottom).evaluate(full) == INT64_MIN


_ROUTE_SIZES = [1, 7, 8, 9, 63, 64, 65, 70]


def _walking(rep: XosRepresentation) -> CountingOracle:
    """The representation's oracle with the byte rows switched off: every
    move of its cached sums longer than one added element walks elements."""
    oracle = CountingOracle.for_representation(rep)
    oracle._far = rep.n
    return oracle


def _step_to(oracle: CountingOracle, base: int) -> None:
    """Move ``oracle``'s cached sums from the empty set to ``base`` one
    added element at a time, so no byte row is read on the way."""
    grown = 0
    for v in range(base.bit_length()):
        if base >> v & 1:
            grown |= 1 << v
            oracle.evaluate(grown)


@pytest.mark.parametrize("n", _ROUTE_SIZES)
def test_far_queries_agree_on_byte_rows_element_walk_and_bit_loop(n):
    # Unrelated masks asked in turn move the cached sums far each time: by
    # the byte rows (n <= 64), by the element walk, and by the bit loop.
    masks = _random_masks(n, 200, seed=n + 2)
    full = (1 << n) - 1
    for rep in _table_reps(n):
        rows, walk = CountingOracle.for_representation(rep), _walking(rep)
        expected = [_bit_loop(rep, m) for m in masks]
        assert [rows.evaluate(m) for m in masks] == expected
        assert [walk.evaluate(m) for m in masks] == expected
        assert rows.calls == walk.calls == len(masks)
        if n > 64:
            assert rep._byte_rows is None
        else:
            assert rep._byte_rows == [t.tolist() for t in rep._byte_tables]
            assert {type(w) for table in rep._byte_rows for row in table for w in row} == {int}
    top, bottom, _ = _edge_rows(n)
    for rows in ([top, bottom], [bottom, top]):
        oracle = CountingOracle.for_representation(XosRepresentation.from_weights(rows))
        assert [oracle.evaluate(m) for m in (full, 0, full, 1, full)] == [INT64_MAX, 0, INT64_MAX,
                                                                          max(top[0], bottom[0]),
                                                                          INT64_MAX]
    oracle = CountingOracle.for_representation(XosRepresentation.from_weights([bottom]))
    assert [oracle.evaluate(m) for m in (full, 0, full)] == [INT64_MIN, 0, INT64_MIN]


@pytest.mark.parametrize("n", _ROUTE_SIZES)
def test_byte_rows_start_past_one_step_per_byte(n):
    # A walk of ceil(n/8) steps stays a walk and one of ceil(n/8) + 1 steps
    # reads the byte rows, whether it would walk from the empty set (the
    # cache sits on the complement of the mask) or over the symmetric
    # difference (the mask drops elements from the cached full set); the
    # rows exist only for grounds of at most 64 elements.
    far = -(-n // 8)
    full = (1 << n) - 1
    weights = random_explicit(n, 3, -(1 << 40), 1 << 40, seed=n).components
    for steps in (far, far + 1):
        spread = sum(1 << (i * n // steps) for i in range(steps)) if steps <= n else None
        cases = []
        if spread is not None and steps < n:
            cases.append((full & ~spread, spread))  # from the empty set
        if 2 * steps <= n:
            cases.append((full, full & ~spread))  # over the symmetric difference
        for base, mask in cases:
            rep = XosRepresentation(GroundSet(n), weights)
            oracle = CountingOracle.for_representation(rep)
            _step_to(oracle, base)
            assert "_byte_rows" not in rep.__dict__
            assert oracle.evaluate(mask) == _bit_loop(rep, mask) == _walking(rep).evaluate(mask)
            assert ("_byte_rows" in rep.__dict__) == (steps > far and n <= 64), (steps, base, mask)
            assert oracle.calls == base.bit_count() + 1
    if n == 1:
        rep = XosRepresentation(GroundSet(1), weights)
        oracle = CountingOracle.for_representation(rep)
        assert [oracle.evaluate(m) for m in (1, 0, 1, 1, 0)] == [_bit_loop(rep, m)
                                                                 for m in (1, 0, 1, 1, 0)]
        assert "_byte_rows" not in rep.__dict__


@pytest.mark.parametrize("n", [9, 40, 64, 70])
def test_plus_and_grow_from_a_cache_left_on_an_unrelated_set(n):
    # Before each evaluate_plus and each grow the cache is left on an
    # unrelated set, so the query first moves it far: the byte rows, the
    # element walk and a closure oracle (no cached sums) agree on values,
    # closures and calls.
    rep = random_explicit(n, 4, -3, 5, seed=n)
    singles = [rep.singleton_value(v) for v in range(n)]
    rng = random.Random(f"unrelated/{n}")
    oracles = (CountingOracle.for_representation(rep), _walking(rep),
               CountingOracle(rep.ground, lambda m: _bit_loop(rep, m)))
    for _ in range(40):
        unrelated, base, universe = (rng.getrandbits(n) for _ in range(3))
        u = rng.randrange(n)
        plus, grown = set(), set()
        for oracle in oracles:
            oracle.evaluate(unrelated)
            plus.add(oracle.evaluate_plus(base, u))
            oracle.evaluate(unrelated)
            grown.add(oracle.grow(base, rep.evaluate(base), universe, singles))
        assert plus == {_bit_loop(rep, base | 1 << u)}
        assert len(grown) == 1
    calls = {oracle.calls for oracle in oracles}
    assert len(calls) == 1


@pytest.mark.parametrize("n", [13, 64])
def test_a_bad_mask_is_refused_before_any_byte_row(n):
    # The byte rows read the low eight bytes of a mask, so every counted
    # route checks the mask first: nothing is counted and no row is built.
    rep = random_explicit(n, 3, -5, 5, seed=n)
    singles = [rep.singleton_value(v) for v in range(n)]
    oracle = CountingOracle.for_representation(rep)
    _step_to(oracle, (1 << n) - 1)
    routes = (oracle.evaluate, lambda m: oracle.evaluate_plus(m, 0),
              lambda m: oracle.grow(m, 0, 1, singles), lambda m: oracle.grow(0, 0, m, singles))
    for bad in (-1, 1 << n, (1 << 64) | 0xFF, -(1 << 64), True, 1.5):
        for route in routes:
            with pytest.raises((TypeError, ValueError)):
                route(bad)
    assert oracle.calls == n
    assert "_byte_rows" not in rep.__dict__ and "_byte_tables" not in rep.__dict__


@pytest.mark.parametrize("n", [13, 64])
@pytest.mark.parametrize("bad", [lambda n: -1, lambda n: 1 << n, lambda n: (1 << 64) | 1],
                         ids=["negative", "bit-n", "bit-64"])
def test_single_queries_reject_masks_outside_the_ground(n, bad):
    # The cached sums read one weight column per element of a mask, so the
    # counted route checks the mask first instead of indexing past the
    # ground, and counts nothing.
    rep = random_explicit(n, 3, -5, 5, seed=n)
    oracle = CountingOracle.for_representation(rep)
    for route in (oracle.evaluate, lambda m: oracle.evaluate_plus(m, 0)):
        with pytest.raises(ValueError, match="is not a subset of a ground set"):
            route(bad(n))
        with pytest.raises(TypeError, match="subset must be an int bitmask"):
            route(True)
    assert oracle.calls == 0


@pytest.mark.parametrize("n", [13, 16, 64])
def test_evaluate_many_rejects_masks_outside_the_ground(n):
    # The byte tables read only the low ceil(n/8) bytes of a mask, so the
    # counted batch tests the masks as evaluate does before any route reads
    # one, and counts nothing.
    rep = random_explicit(n, 2, 1, 9, 0)
    assert rep._byte_tables is not None
    oracle = CountingOracle.for_representation(rep)
    bads = [-1, 1 << n, (1 << 64) | 1] + ([1 << 40, (1 << 40) | 1] if n < 40 else [])
    for bad in bads:
        with pytest.raises(ValueError) as scalar_exc:
            rep.evaluate(bad)
        for masks in ([bad], [1, bad]):
            with pytest.raises(ValueError) as batch_exc:
                oracle.evaluate_many(masks)
            assert type(batch_exc.value) is type(scalar_exc.value), (bad, masks)
            assert str(batch_exc.value) == str(scalar_exc.value), (bad, masks)
    assert oracle.calls == 0
    full = (1 << n) - 1
    expected = [rep.evaluate(m) for m in (0, 1, full)]
    assert oracle.evaluate_many([0, 1, full]) == expected
    assert oracle.evaluate_many(np.array([0, 1, full], dtype=np.uint64)).tolist() == expected


def test_evaluate_many_overflow_raises_like_evaluate():
    # Weights whose subset sums could leave int64 never reach a query
    # route: the representation is refused when built, naming the sum.
    with pytest.raises(ValueOverflowError, match=f"positive weight sum {1 << 63} outside"):
        XosRepresentation.from_weights([[2**62, 2**62]])
    # One past the widest rows: the top row's sum is INT64_MAX + 1 and the
    # bottom row's INT64_MIN - 1.
    top, bottom, _ = _edge_rows(64)
    for row, delta, sign in ((top, 1, "positive"), (bottom, -1, "negative")):
        edge = (INT64_MAX if delta > 0 else INT64_MIN) + delta
        with pytest.raises(ValueOverflowError, match=f"{sign} weight sum {edge} outside"):
            XosRepresentation.from_weights([[row[0] + delta, *row[1:]]])
    # The rows themselves are kept, and every route gives the edge sums.
    full = (1 << 64) - 1
    masks = [full, full - 1, 1, 0]
    for row, edge in ((top, INT64_MAX), (bottom, INT64_MIN)):
        rep = XosRepresentation.from_weights([row])
        expected = [edge, edge - row[0], row[0], 0]
        assert [rep.evaluate(m) for m in masks] == expected
        assert rep._values(np.array(masks, dtype=np.uint64)).tolist() == expected
        assert [_bit_loop(rep, m) for m in masks] == expected
        assert CountingOracle.for_representation(rep).evaluate_many(masks) == expected


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
        ground = rep.ground

        def evaluate(self, mask):
            raise AssertionError("evaluate is not the value function")

        def _values(self, masks):
            raise AssertionError("the batch must not reach the owner")

        def maximizer_indices(self, mask):
            return maximizer_indices(rep, mask)

    owner = Owner()
    other = CountingOracle(rep.ground, owner.maximizer_indices)
    assert other.evaluate_many(masks) == [owner.maximizer_indices(m) for m in masks]
    assert other.calls == len(masks)
    array = np.array(masks, dtype=np.uint64)
    assert other.evaluate_many(array) == [owner.maximizer_indices(m) for m in masks]
    assert other.calls == 2 * len(masks)


@pytest.mark.parametrize(
    "bad, error", [(True, TypeError), (-1, ValueError), (1 << 10, ValueError)]
)
def test_evaluate_many_rejects_masks_like_evaluate(bad, error):
    # Every route, owner, closure, overriding class and hidden family,
    # checks the whole block first, so a failed block counts nothing.
    rep = random_explicit(10, 2, -5, 5, seed=1)
    closure = CountingOracle(rep.ground, lambda m: rep.evaluate(m))
    hidden = (NeedleInstance(10, 5, 2, 4).oracle(), HardGeneralInstance(10, 2, 4).oracle())
    for oracle in (CountingOracle.for_representation(rep), closure,
                   _Watched(rep.ground, rep.evaluate), *hidden):
        with pytest.raises(error) as scalar_exc:
            oracle.evaluate(bad)
        with pytest.raises(error) as batch_exc:
            oracle.evaluate_many([1, 3, bad])
        assert str(batch_exc.value) == str(scalar_exc.value)
        assert oracle.calls == 0


def _plus_queries(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    """(base, u) pairs whose bases move by one element, by many, shrink, or
    stay, with u drawn from the ground and sometimes already in the base."""
    rng = random.Random(f"plus/{n}/{seed}")
    base, pairs = 0, []
    for _ in range(count):
        step = rng.randrange(5)
        if step == 0:
            base |= 1 << rng.randrange(n)
        elif step == 1:
            base ^= rng.getrandbits(n)
        elif step == 2:
            base &= rng.getrandbits(n)
        u = rng.randrange(n)
        if step == 3 and base:
            u = rng.choice([v for v in range(n) if base >> v & 1])
        pairs.append((base, u))
    return pairs


@pytest.mark.parametrize("n", [13, 64, 65])
def test_evaluate_plus_checks_base_and_element_first(n):
    # A base that validate_subset refuses, or an element that
    # validate_element refuses, raises that rule's error, type and message,
    # before anything is counted, on the cached, direct and overriding routes.
    rep = random_explicit(n, 3, -9, 9, seed=n)

    def oracles():
        return [CountingOracle.for_representation(rep), NeedleInstance(n, 5, 2, n).oracle(),
                CountingOracle(rep.ground, lambda m: rep.evaluate(m)),
                _Watched(rep.ground, rep.evaluate)]

    bad_masks = (True, False, 1.5, "3", np.int64(3), -1, 1 << n, (1 << 70) | 1)
    bad_elements = (True, False, 1.5, "3", np.int64(3), -1, n, 1 << 64)
    cases = [(m, rep.ground.validate_subset, (m, 0)) for m in bad_masks]
    cases += [(u, rep.ground.validate_element, (1, u)) for u in bad_elements]
    for bad, rule, args in cases:
        with pytest.raises((TypeError, ValueError)) as want:
            rule(bad)
        for oracle in oracles():
            with pytest.raises(type(want.value)) as got:
                oracle.evaluate_plus(*args)
            assert str(got.value) == str(want.value), (bad, oracle)
            assert oracle.calls == 0
    assert str(want.value) == f"element {1 << 64} is not in a ground set of size {n}"
    for oracle in oracles():
        assert oracle.evaluate_plus(0, n - 1) == oracle.evaluate_plus(1 << (n - 1), n - 1)
        assert oracle.calls == 2


def test_evaluate_plus_hands_overriding_classes_and_closures_each_mask():
    # An oracle class that overrides evaluate, and a closure value function,
    # see every evaluate_plus query as the mask base | 1 << u, in order;
    # the cached route gives the same values, and every route counts one
    # call per query.
    for n in (20, 70):
        rep = random_explicit(n, 3, -9, 9, seed=n)
        pairs = _plus_queries(n, 300, seed=1)
        masks = [base | 1 << u for base, u in pairs]
        seen = []
        closure = CountingOracle(rep.ground, lambda m: seen.append(m) or _bit_loop(rep, m))
        watched = _Watched(rep.ground, rep.evaluate)
        cached = CountingOracle.for_representation(rep)
        expected = [_bit_loop(rep, m) for m in masks]
        for oracle in (cached, watched, closure):
            assert [oracle.evaluate_plus(base, u) for base, u in pairs] == expected
            assert oracle.calls == len(pairs)
        assert watched.seen == seen == masks


def test_grow_decides_from_argmax_sets_only_when_its_inputs_match(monkeypatch):
    # With cached sums, base_val = f(base) and singles the owner's list of
    # singleton values, grow asks no evaluate_plus at all. Each failed
    # precondition, a closure and a hidden family ask one evaluate_plus per
    # element of universe outside base, in ascending order. Every route
    # counts the same calls, and on one function gives the same closure.
    n = 70
    rep = random_explicit(n, 4, -2, 3, seed=5)
    needle = NeedleInstance(n, 5, 2, 3)
    singles = [rep.singleton_value(v) for v in range(n)]
    changed = singles.copy()
    changed[40] += 1
    base, universe = 0b1001, (1 << n) - 1 - (1 << 20)
    scan = [v for v in range(n) if (universe & ~base) >> v & 1]
    asked = []
    plus = CountingOracle.evaluate_plus
    monkeypatch.setattr(CountingOracle, "evaluate_plus",
                        lambda self, b, u: asked.append(u) or plus(self, b, u))

    def grown(oracle, base_val, singles):
        asked.clear()
        got = oracle.grow(base, base_val, universe, singles)
        assert oracle.calls == len(scan)
        return got, asked.copy()

    cached = CountingOracle.for_representation
    closure = CountingOracle(rep.ground, lambda m: rep.evaluate(m))
    f_base = rep.evaluate(base)
    want = grow_loop(closure, base, f_base, universe, singles)
    assert want[0] != base and want[0] != universe
    assert grown(cached(rep), f_base, singles) == (want, [])
    assert grown(cached(rep), f_base, tuple(singles)) == (want, scan)
    for oracle in (closure, _Watched(rep.ground, rep.evaluate)):
        oracle.calls = 0
        assert grown(oracle, f_base, singles) == (want, scan)
    for base_val, values in ((f_base + 1, singles), (f_base - 1, singles), (f_base, changed)):
        loop = CountingOracle(rep.ground, lambda m: rep.evaluate(m))
        assert grown(cached(rep), base_val, values) == grown(loop, base_val, values)
        assert asked == scan
    assert grown(needle.oracle(), 0, [needle.evaluate(1 << v) for v in range(n)])[1] == scan


@pytest.mark.parametrize("n", [13, 64, 65])
def test_grow_checks_base_and_universe_before_counting(n):
    # A base or universe that validate_subset refuses raises its error, type
    # and message, with calls unchanged, on the argmax and loop routes, even
    # when the universe's stray bit lies above elements that would be scanned.
    rep = random_explicit(n, 3, -9, 9, seed=n)
    singles = [rep.singleton_value(v) for v in range(n)]
    bad = (True, 1.5, np.int64(3), -1, 1 << n, (1 << n) | 1, (1 << 70) | 1)
    for oracle in (CountingOracle.for_representation(rep), NeedleInstance(n, 5, 2, n).oracle(),
                   CountingOracle(rep.ground, lambda m: rep.evaluate(m))):
        oracle.evaluate(0)
        for mask in bad:
            with pytest.raises((TypeError, ValueError)) as want:
                rep.ground.validate_subset(mask)
            for args in ((mask, 0, 1, singles), (1, singles[0], mask, singles)):
                with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                    oracle.grow(*args)
                assert oracle.calls == 1, (mask, oracle)


@pytest.mark.parametrize("universe", [(1 << 70) - 1 - (1 << 20), sum(1 << v for v in range(0, 70, 9))],
                         ids=["rows", "elements"])
def test_improving_and_singletons_read_cached_sums_only_on_the_explicit_route(monkeypatch, universe):
    # With cached sums, improving and singletons ask no evaluate_plus at
    # all. A closure, a class overriding evaluate and a hidden family ask
    # one per scanned element, in ascending order, with the same base. Every
    # route counts the same calls, and on one function gives the same answer.
    # The first universe scans 67 elements, so the explicit route compares
    # whole weight rows; the second meets the base and scans 7 of 70 (fewer
    # than k n / 16 at k = 4), so each scanned element is tested alone.
    n = 70
    rep = random_explicit(n, 4, -2, 3, seed=5)
    needle = NeedleInstance(n, 5, 2, 3)
    singles = [rep.singleton_value(v) for v in range(n)]
    base = 0b1001 | 1 << 66
    scan = [v for v in range(n) if (universe & ~base) >> v & 1]
    asked = []
    plus = CountingOracle.evaluate_plus
    monkeypatch.setattr(CountingOracle, "evaluate_plus",
                        lambda self, b, u: asked.append((b, u)) or plus(self, b, u))

    def answers(oracle, source, base_val):
        asked.clear()
        gain = oracle.improving(base, base_val, universe)
        assert oracle.calls == len(scan)
        improving_asked = asked.copy()
        asked.clear()
        assert oracle.singletons() == [source.evaluate(1 << v) for v in range(n)]
        assert oracle.calls == len(scan) + n
        return gain, improving_asked, asked.copy()

    f_base = rep.evaluate(base)
    want = sum(1 << u for u in scan if rep.evaluate(base | 1 << u) > f_base)
    assert want and want != universe & ~base
    loop_asks = [(base, u) for u in scan], [(0, v) for v in range(n)]
    assert answers(CountingOracle.for_representation(rep), rep, f_base) == (want, [], [])
    for oracle in (CountingOracle(rep.ground, lambda m: rep.evaluate(m)),
                   _Watched(rep.ground, rep.evaluate)):
        assert answers(oracle, rep, f_base) == (want, *loop_asks)
    f_needle = needle.evaluate(base)
    got = answers(needle.oracle(), needle, f_needle)
    assert got[0] == sum(1 << u for u in scan if needle.evaluate(base | 1 << u) > f_needle)
    assert got[1:] == loop_asks
    # The returned singleton values are the caller's own list.
    oracle = CountingOracle.for_representation(rep)
    got = oracle.singletons()
    got[0] += 1
    got.append(7)
    assert rep._peaks[0] == singles
    assert oracle.singletons() == singles


@pytest.mark.parametrize("n", [13, 64, 65])
def test_improving_checks_base_and_universe_before_counting(n):
    # A base or universe that validate_subset refuses raises its error, type
    # and message, with calls unchanged, on the cached-sum, hidden, closure
    # and overriding routes, even when the stray bit lies above elements
    # that would be scanned.
    rep = random_explicit(n, 3, -9, 9, seed=n)
    bad = (True, 1.5, np.int64(3), -1, 1 << n, (1 << n) | 1, (1 << 70) | 1)
    for oracle in (CountingOracle.for_representation(rep), NeedleInstance(n, 5, 2, n).oracle(),
                   CountingOracle(rep.ground, lambda m: rep.evaluate(m)),
                   _Watched(rep.ground, rep.evaluate)):
        oracle.evaluate(0)
        for mask in bad:
            with pytest.raises((TypeError, ValueError)) as want:
                rep.ground.validate_subset(mask)
            for args in ((mask, 0, 1), (1, 0, mask)):
                with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                    oracle.improving(*args)
                assert oracle.calls == 1, (mask, oracle)


@pytest.mark.parametrize("n", [13, 64, 65, 200])
def test_one_mask_rule_on_every_route(n):
    # Single on the representation, single and batched through owner and
    # closure oracles, explicit and hidden, below 64 elements and above: a mask
    # that GroundSet.validate_subset refuses raises its error, type and
    # message, before anything is counted; a mask it accepts gets one value.
    rep = random_explicit(n, 3, -9, 9, seed=n)
    hidden = [NeedleInstance(n, 5, 2, n)] + ([HardGeneralInstance(n, 2, n)] if n % 2 == 0 else [])

    def oracles():
        owners = [CountingOracle(owner.ground, owner.evaluate) for owner in (rep, *hidden)]
        return owners + [CountingOracle(rep.ground, lambda m: rep.evaluate(m))]

    for mask in (True, 1.5, "3", np.int64(3), -1, 1 << n, (1 << 64) | 1):
        try:
            rep.ground.validate_subset(mask)
        except (TypeError, ValueError) as exc:
            routes = [(rep.evaluate, None)]
            for oracle in oracles():
                routes += [(oracle.evaluate, oracle),
                           (lambda m, o=oracle: o.evaluate_many([1, m]), oracle)]
            for route, oracle in routes:
                with pytest.raises(type(exc)) as got:
                    route(mask)
                assert str(got.value) == str(exc), (mask, route)
                assert oracle is None or oracle.calls == 0
            continue
        # Bit 64 inside a ground of 65 or more.
        value = _bit_loop(rep, mask)
        assert rep.evaluate(mask) == value
        explicit = CountingOracle.for_representation(rep)
        assert explicit.evaluate_many([1, mask]) == [rep.evaluate(1), value]
        for oracle in oracles():
            assert oracle.evaluate_many([1, mask]) == [oracle.evaluate(1), oracle.evaluate(mask)]
            assert oracle.calls == 4
    # An oracle on a smaller ground than its owner's keeps its own rule.
    narrow = CountingOracle(GroundSet(n - 1), rep.evaluate)
    with pytest.raises(ValueError, match=f"not a subset of a ground set of size {n - 1}$"):
        narrow.evaluate_many([1, 1 << (n - 1)])
    assert narrow.calls == 0


class _Watched(CountingOracle):
    """Overrides evaluate, as a tracing oracle does: sees every mask."""

    __slots__ = ("seen",)

    def __init__(self, ground, func):
        super().__init__(ground, func)
        self.seen = []

    def evaluate(self, mask):
        self.seen.append(mask)
        return super().evaluate(mask)


def test_hidden_owners_answer_blocks_like_the_per_mask_loop():
    for hidden in (NeedleInstance(24, 12, 3, 9), HardGeneralInstance(24, 3, 9),
                   HardGeneralInstance(24, 3, 9, remark=True)):
        # Random masks, their parts inside the planted set, and the empty set.
        masks = _random_masks(24, 300, seed=6)
        masks += [hidden.planted & m for m in masks]
        batched, scalar = hidden.oracle(), hidden.oracle()
        expected = [scalar.evaluate(m) for m in masks]
        assert len(set(expected)) > 1
        assert batched.evaluate_many(masks) == expected
        assert batched.calls == scalar.calls == len(masks)
        watched = _Watched(hidden.ground, hidden.evaluate)
        assert watched.evaluate_many(masks) == expected
        assert watched.seen == masks and watched.calls == len(masks)


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(2)])
@pytest.mark.parametrize(
    "args", [(16, 2, -10, 30, 1, True), (16, 3, -20, 30, 2), (14, 1, -5, 9, 3)]
)
def test_solvers_report_the_same_on_tables_and_on_the_bit_loop(args, epsilon):
    # The closure oracle has no owner, so no tables and no cached sums:
    # every query it answers runs the bit loop. The last two instances drop
    # singletons below retained elements, so sampled and enumerated
    # positions stand for other elements.
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


def _sparse_rep(n: int, k: int) -> XosRepresentation:
    """Width k, weights in [-40, 60], with at most 12 elements spread over
    the ground kept by the singleton scan (all others are nonpositive in
    every row), so star's rounds stay small at any n."""
    rng = random.Random(f"sparse/{n}/{k}")
    kept = set(range(0, n, max(1, n // 12)))
    rows = [[rng.randint(-40, 60) if v in kept else -rng.randint(0, 40) for v in range(n)]
            for _ in range(k)]
    return XosRepresentation.from_weights(rows)


_ADAPTIVE = {
    "exact2": solve_exact_2xos,
    "kminus1": solve_k_minus_1,
    "star": solve_exact_star,
    "cliques": enumerate_maximal_cliques,
}


def _adaptive_outcome(solve, oracle):
    """(report or clique family, calls), or the refusal's message and calls."""
    try:
        got = solve(oracle)
    except CapExceededError as exc:
        got = str(exc)
    return got, oracle.calls


@pytest.mark.parametrize("n", [5, 40, 63, 64, 65, 200])
def test_adaptive_solvers_report_the_same_from_cached_sums_and_the_bit_loop(n):
    # The representation's oracle answers set-plus-one queries from cached
    # component sums; the closure runs the bit loop on every mask. Outputs,
    # values and calls must be equal, also when a mask passes bit 64.
    for k in range(1, 5):
        dense = random_explicit(n, k, -40, 60, seed=n + k)
        cases = [(dense, name) for name in ("exact2", "kminus1")]
        cases += [(_sparse_rep(n, k), name) for name in _ADAPTIVE]
        for rep, name in cases:
            cached = CountingOracle.for_representation(rep)
            closure = CountingOracle(rep.ground, lambda m: _bit_loop(rep, m))
            got = _adaptive_outcome(_ADAPTIVE[name], cached)
            assert got == _adaptive_outcome(_ADAPTIVE[name], closure), (k, name)
            assert not isinstance(got[0], str), (k, name)
    hidden = HardKxosInstance(3, 4, 1, 0)
    explicit = hidden.representation()
    for name, solve in _ADAPTIVE.items():
        for fast, slow in ((hidden.oracle(), CountingOracle(hidden.ground, lambda m: hidden.evaluate(m))),
                           (CountingOracle.for_representation(explicit),
                            CountingOracle(hidden.ground, lambda m: _bit_loop(explicit, m)))):
            assert _adaptive_outcome(solve, fast) == _adaptive_outcome(solve, slow), name


def test_exact2_is_exact_at_4000_elements():
    # Width 2 at the ground-size cap's order: growth, expansion and the
    # final evaluations all ask masks thousands of bits wide.
    rep = random_explicit(4000, 2, -40, 60, seed=11)
    oracle = CountingOracle.for_representation(rep)
    report = solve_exact_2xos(oracle)
    assert report.value == rep.exact_maximum() == _bit_loop(rep, report.output)
    assert report.oracle_calls == oracle.calls <= 6 * 4000 + 10


def test_best_of_hands_out_blocks_in_order():
    class Recorder:
        def __init__(self, value, array):
            self.value = value
            self.array = array
            self.blocks = []

        def evaluate_many(self, masks):
            self.blocks.append(masks)
            values = [self.value(m) for m in ints_of([masks])]
            return np.array(values, dtype=np.int64) if self.array else values

    count = 2 * BLOCK + 452

    def best(value, masks=range(count)):
        """best_of over ``masks`` cut into BLOCK-mask blocks, as lists and
        as uint64 arrays, checked against first_max of the pairs."""
        results = []
        for array in (False, True):
            blocks = [list(masks[lo : lo + BLOCK]) for lo in range(0, len(masks), BLOCK)]
            if array:
                blocks = [np.array(b, dtype=np.uint64) for b in blocks]
            oracle = Recorder(value, array)
            got = best_of(oracle, iter(blocks))
            assert got == first_max((m, value(m)) for m in masks)
            assert type(got[0]) is int and type(got[1]) is int
            results.append((got, [list(ints_of([b])) for b in oracle.blocks]))
        assert results[0] == results[1]
        return results[0]

    got, blocks = best(lambda m: 2 * m)
    assert got == (count - 1, 2 * (count - 1))
    assert [len(b) for b in blocks] == [BLOCK, BLOCK, 452]
    assert [m for b in blocks for m in b] == list(range(count))
    # A tie across block boundaries: the first of the tied masks wins.
    tied = {BLOCK - 1, BLOCK, 2 * BLOCK + 3}
    assert best(lambda m: 5 if m in tied else m % 5)[0] == (BLOCK - 1, 5)
    # A tie inside a block: the first of the tied masks wins there too.
    tied = {BLOCK + 7, BLOCK + 9, 2 * BLOCK - 1}
    assert best(lambda m: 5 if m in tied else m % 5)[0] == (BLOCK + 7, 5)
    # All values negative: the largest still wins, here in the second block.
    assert best(lambda m: -abs(m - 1500) - 1)[0] == (1500, -1)
    # No blocks.
    assert best(lambda m: 2 * m, [])[0] == (0, 0)


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


@pytest.mark.parametrize(
    "low, per_round", [(-40, 1500), (1, 40), (-40, 40)], ids=["dropped-1500", "all-40", "dropped-40"]
)
def test_sampling_solver_queries_the_scalar_sequence(low, per_round):
    # Every query, singletons first, equals the per-query scalar loop. With
    # low < 0 ("dropped" in the id) some singletons are dropped and positions
    # stand for other elements; 1500 per round makes a block straddle
    # rounds and 40 puts many rounds in one block.
    n = 30
    rep = random_explicit(n, 3, low, 60, seed=8)
    oracle, seen = recording_oracle(rep)
    report = solve_random_sampling(oracle, SamplingParams(1, seed=77, sample_budget_override=per_round))
    elems = [v for v in range(n) if rep.evaluate(1 << v) > 0]
    assert (len(elems) < n) == (low < 0)
    rounds, rest = divmod(report.oracle_calls - n, per_round)
    assert rounds > 1 and rest == 0
    rng = SplitMix64(77)
    expected = [1 << v for v in range(n)] + [
        sum(1 << elems[p] for p in sample_positions(len(elems), m, rng))
        for m in range(1, rounds + 1)
        for _ in range(per_round)
    ]
    assert seen == expected
    assert report.oracle_calls == oracle.calls == len(expected)


class _LoopGrowth(CountingOracle):
    """Grows every closure with ``helpers.grow_loop``."""

    __slots__ = ()

    def grow(self, base, base_val, universe, singles):
        return grow_loop(self, base, base_val, universe, singles)


@pytest.mark.parametrize("name", ["exact2", "kminus1", "star"])
def test_closure_growth_asks_the_reference_loop_transcript(name):
    # On a closure oracle grow asks the same masks, in the same order, as
    # the reference loop; on the representation's own oracle the argmax
    # route gives the same report.
    solve = _ADAPTIVE[name]
    reps = [random_explicit(40, 2, -5, 9, seed=1), random_explicit(30, 3, -4, 9, seed=2),
            random_star_representation(14, 3, seed=3), random_explicit(12, 5, -2, 3, seed=4),
            HardKxosInstance(3, 3, 1, 0).representation()]
    for rep in reps:
        oracle, seen = recording_oracle(rep)
        report = solve(oracle)
        loop_seen = []
        loop = _LoopGrowth(rep.ground, lambda m: loop_seen.append(m) or rep.evaluate(m))
        assert solve(loop) == report
        assert seen == loop_seen and len(seen) == report.oracle_calls
        assert solve(CountingOracle.for_representation(rep)) == report


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_query_path_memory_stays_bounded():
    # At n=20 the largest size class holds C(20,10) = 184756 masks, 1.4 MB
    # as uint64, so an enumerator that built a whole class would fail here.
    rep = random_explicit(16, 3, -20, 40, seed=5)
    rep20 = random_explicit(20, 3, -20, 40, seed=5)
    needle = NeedleInstance(24, 12, 6, 9)
    brute = _peak_bytes(lambda: solve_brute_force(CountingOracle.for_representation(rep)))
    brute20 = _peak_bytes(lambda: solve_brute_force(CountingOracle.for_representation(rep20)))
    probe = _peak_bytes(lambda: uniform_size_probe(needle.oracle(), 6, 20000, 3))
    assert brute < 1 << 20, brute
    assert brute20 < 1 << 20, brute20
    assert probe < 1 << 20, probe


def test_sample_masks_holds_one_block():
    # 300000 masks as one list would take about 11 MiB; the stream holds one
    # block of BLOCK masks however many are taken. Over 4096 elements a
    # block of 1024 masks would hold 4M uint16 positions, about 10 MiB in
    # all; it is cut to 256 masks.
    def take(n, m, count):
        for _ in sample_masks(n, m, count, SplitMix64(11)):
            pass

    peak = _peak_bytes(lambda: take(24, 6, 300_000))
    assert peak < 1 << 20, peak
    wide = _peak_bytes(lambda: take(4096, 7, 5000))
    assert wide < 4 << 20, wide


def test_mask_runs_hold_one_block():
    # 13 rounds of 25000 masks, one stream: as one list they would take about
    # 12 MiB; the stream holds one block, which may span two rounds.
    def take():
        runs = [(m, 25_000) for m in range(1, 14)]
        for _ in ints_of(sample_blocks((1 << 24) - 1, runs, SplitMix64(11))):
            pass

    peak = _peak_bytes(take)
    assert peak < 1 << 20, peak


def _universe(n: int, r: int) -> int:
    """r of the n elements, always the last (bit n-1), the rest seeded."""
    rest = random.Random(f"universe/{n}/{r}").sample(range(n - 1), r - 1)
    return sum(1 << v for v in rest) | 1 << (n - 1)


def _lift(masks, universe: int):
    """Masks over positions {0..r-1} as masks over the r elements of
    ``universe``, position i standing for its i-th smallest element."""
    elems = bits_of(universe)
    for m in masks:
        out = 0
        while m:
            out |= 1 << elems[(m & -m).bit_length() - 1]
            m &= m - 1
        yield out


def _checked_masks(blocks, n: int):
    """The masks of ``blocks`` as ints, after checking that every block but
    the last is full, and that blocks are arrays exactly when every element
    is below 64."""
    size = BLOCK
    for b in blocks:
        assert size == BLOCK and 0 < len(b) <= BLOCK
        size = len(b)
        if n <= 64:
            assert isinstance(b, np.ndarray) and b.dtype == np.uint64 and b.ndim == 1
            yield from b.tolist()
        else:
            assert type(b) is list
            yield from b


# (n, r, cap); at (40, 23, 4) the sizes <= 3 fill exactly two blocks, and at
# (11, 11, 5) the sizes <= 5 exactly one, so a size class ends on a block
# boundary.
@pytest.mark.parametrize(
    "n, r, cap", [(30, 30, 3), (40, 30, 3), (64, 64, 2), (20, 10, 4), (64, 64, 0),
                  (40, 23, 4), (11, 11, 5), (70, 40, 2), (200, 100, 2), (128, 70, 4),
                  (4096, 300, 2)]
)
def test_subset_blocks_match_the_scalar_enumeration(n, r, cap):
    # Streamed against the lifted Gosper enumeration, with the largest size
    # class alone (least = top) compared as it goes by.
    universe = _universe(n, r)
    assert universe.bit_count() == r
    top = min(cap, r)
    every = _checked_masks(subset_blocks(universe, cap), n)
    largest = _checked_masks(subset_blocks(universe, top, top), n)
    for c in range(top + 1):
        for want in _lift(masks_of_card(r, c), universe):
            assert next(every) == want
            if c == top:
                assert next(largest) == want
    assert next(every, None) is None and next(largest, None) is None


def test_subset_blocks_refuse_ranks_past_int64():
    # C(66, 33) < 2^63 <= C(67, 33) and C(4096, 6) < 2^63 <= C(4096, 7): a
    # size class whose binomials pass int64 is refused at the first block,
    # before any mask is made. A solver's phase check refuses such a run
    # first.
    for universe, cap in (((1 << 67) - 1, 33), ((1 << 4096) - 1, 7)):
        with pytest.raises(CapExceededError, match="cannot be ranked in int64"):
            next(subset_blocks(universe, cap, cap))
    first = next(subset_blocks((1 << 66) - 1, 33, 33))
    assert first == list(itertools.islice(masks_of_card(66, 33), BLOCK))
    assert len(next(subset_blocks((1 << 4096) - 1, 6, 6))) == BLOCK
    oracle = CountingOracle.for_representation(XosRepresentation.from_weights([[1] * 4096]))
    with pytest.raises(CapExceededError, match="enum subsets of size <= 7"):
        solve_enum_small_sets(oracle, EnumParams(Fraction(1, 7)))
    assert oracle.calls == 4096


def test_popcount_matches_int_bit_count():
    words = [0, (1 << 64) - 1, *(1 << v for v in range(64))]
    g = SplitMix64(12)
    words += [g.next_u64() for _ in range(3000)]
    words += [w >> (w % 64) for w in words[66:]]  # sparse high bytes too
    words += [0x5555555555555555, 0xAAAAAAAAAAAAAAAA]  # every other bit
    arr = np.array(words, dtype=np.uint64)
    got = bit_counts(arr)
    assert got.dtype == np.int64
    assert got.tolist() == [w.bit_count() for w in words]
    # a strided view is read in place, and an empty array gives an empty count
    assert bit_counts(arr[::3]).tolist() == [w.bit_count() for w in words[::3]]
    empty = bit_counts(arr[:0])
    assert empty.dtype == np.int64 and empty.size == 0


def _hidden_families() -> list:
    return [
        NeedleInstance(24, 12, 6, 9), NeedleInstance(64, 40, 3, 2),
        HardGeneralInstance(22, 3, 5), HardGeneralInstance(64, 4, 6),
        HardGeneralInstance(22, 3, 5, remark=True), HardGeneralInstance(64, 4, 6, remark=True),
        HardKxosInstance(3, 4, 1, 8), HardKxosInstance(3, 7, 2, 1), HardKxosInstance(4, 2, 1, 3),
    ]


@pytest.mark.parametrize("family", _hidden_families(), ids=lambda f: f"{f.kind}{f.n}")
def test_hidden_array_batches_match_evaluate(family):
    n = family.n
    masks = _random_masks(n, 500, seed=n)
    masks += [family.planted & m for m in masks] + [family.planted]
    masks += [1 << v for v in range(n)]
    if isinstance(family, HardKxosInstance):
        masks += [b | family.planted for b in family.blocks] + [s for s in family.s_masks]
    expected = [family.evaluate(m) for m in masks]
    assert len(set(expected)) > 1
    oracle = family.oracle()
    got = oracle.evaluate_many(np.array(masks, dtype=np.uint64))
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == expected
    assert oracle.evaluate_many(masks) == expected
    assert oracle.calls == 2 * len(masks)
    # f(empty) is 0, except tau in the remark variant.
    assert got[0] == expected[0] == (family.tau if getattr(family, "remark", False) else 0)


@pytest.mark.parametrize("n", [13, 63, 64])
def test_mask_rule_on_arrays(n):
    # A uint64 array is tested whole: the first mask with a bit at or above
    # n raises validate_subset's ValueError, any other array a TypeError,
    # and nothing is counted, on every route.
    rep = random_explicit(n, 3, -9, 9, seed=n)
    hidden = NeedleInstance(n, 5, 2, n)

    class Overriding(CountingOracle):
        def evaluate(self, mask):
            return super().evaluate(mask)

    def oracles():
        return [CountingOracle.for_representation(rep), hidden.oracle(),
                CountingOracle(rep.ground, lambda m: rep.evaluate(m)),
                Overriding(rep.ground, rep.evaluate)]

    full = (1 << n) - 1
    good = np.array([0, 1, full], dtype=np.uint64)
    for oracle in oracles():
        assert list(oracle.evaluate_many(good)) == [oracle.peek(int(m)) for m in good]
        assert oracle.calls == 3
    if n < 64:
        bads = [1 << n, (1 << 64) - 1, 1 << 63]
        for first, second in ((bads[0], bads[1]), (bads[2], bads[0])):
            block = np.array([1, 3, first, second], dtype=np.uint64)
            with pytest.raises(ValueError) as want:
                rep.ground.validate_subset(first)
            for oracle in oracles():
                with pytest.raises(ValueError) as got:
                    oracle.evaluate_many(block)
                assert str(got.value) == str(want.value)
                assert oracle.calls == 0
    for bad in (np.array([1, 2], dtype=np.int64), np.array([1.0, 2.0]),
                np.array([[1, 2]], dtype=np.uint64), np.array([1, 2], dtype=np.uint32)):
        for oracle in oracles():
            with pytest.raises(TypeError, match="1-D uint64 array"):
                oracle.evaluate_many(bad)
            assert oracle.calls == 0


def _dropping_rep(n: int, keep_top: bool = True) -> XosRepresentation:
    """Width 3, weights in [-40, 60]; every fourth element has no positive
    weight, so it is dropped, and the last element is kept or dropped."""
    rng = random.Random(f"dropping/{n}")
    rows = [[rng.randint(-40, 60) for _ in range(n)] for _ in range(3)]
    for v in range(0, n, 4):
        for row in rows:
            row[v] = -rng.randint(0, 40)
    for i, row in enumerate(rows):
        row[n - 1] = 45 if keep_top and i == 1 else -5
    return XosRepresentation.from_weights(rows)



def _non_adaptive_runs(n: int):
    """(name, solver on an oracle) of every non-adaptive solver that fits n."""
    runs = [
        ("enum-1/2", lambda o: solve_enum_small_sets(o, EnumParams(Fraction(1, 2)))),
        ("sample-1-200", lambda o: solve_random_sampling(o, SamplingParams(1, 3, 200))),
        ("sample-1/2-40-hp", lambda o: solve_random_sampling(o, SamplingParams("1/2", 4, 40, True))),
        ("sample-rejected", lambda o: solve_random_sampling(o, SamplingParams(1, _REJECTED, 300))),
        ("sample-2", lambda o: solve_random_sampling(o, SamplingParams(2, 5))),
    ]
    if n <= 16:
        runs.append(("brute", solve_brute_force))
    return runs


@pytest.mark.parametrize("n, top", [(1, True), (8, True), (30, True), (63, True), (64, True),
                                    (64, False), (65, True), (70, True)])
def test_array_route_reports_equal_the_int_route(n, top):
    # The representation answers blocks from its tables (arrays when every
    # element is below 64); a closure oracle takes the int route, mask by
    # mask. Reports and counts must be equal, and the reported pair ints.
    rep = _dropping_rep(n, top) if n > 1 else XosRepresentation.from_weights([[-3]])
    assert ((rep.singleton_value(n - 1) > 0) == top) or n == 1
    for name, solve in _non_adaptive_runs(n):
        table = CountingOracle.for_representation(rep)
        closure = CountingOracle(rep.ground, lambda m: _bit_loop(rep, m))
        got, want = solve(table), solve(closure)
        assert got == want, (name, got, want)
        assert table.calls == closure.calls == got.oracle_calls, name
        assert type(got.output) is int and type(got.value) is int, name
    for needle in (NeedleInstance(n, max(1, n // 2), 1, n),) if n > 1 else ():
        for seed in (3, _REJECTED):
            batched, closure = needle.oracle(), CountingOracle(needle.ground, lambda m: needle.evaluate(m))
            got = uniform_size_probe(batched, 2, 3000, seed)
            assert got == uniform_size_probe(closure, 2, 3000, seed)
            assert type(got.output) is int and type(got.value) is int


# hard_kxos(3,4,1) is left out: at n=20 sample's fallback asks 2^20 masks.
@pytest.mark.parametrize("family", [f for f in _hidden_families() if f.n != 20],
                         ids=lambda f: f"{f.kind}{f.n}")
def test_hidden_array_route_reports_equal_the_int_route(family):
    for name, solve in _non_adaptive_runs(family.n):
        batched = family.oracle()
        closure = CountingOracle(family.ground, lambda m: family.evaluate(m))
        got, want = solve(batched), solve(closure)
        assert got == want and batched.calls == closure.calls, name
        assert type(got.output) is int and type(got.value) is int, name


def _star_rep(n: int) -> XosRepresentation:
    """Width 2 under the star condition: element v peaks on row v mod 2 and is
    nonpositive elsewhere; every fourth element is nonpositive in both rows."""
    rng = random.Random(f"star/{n}")
    rows = [[-rng.randint(0, 30) for _ in range(n)] for _ in range(2)]
    for v in range(n):
        if v % 4:
            rows[v % 2][v] = rng.randint(1, 50)
    rows[(n - 1) % 2][n - 1] = 7
    return XosRepresentation.from_weights(rows)


@pytest.mark.parametrize("n", [8, 30, 64])
def test_no_mask_is_translated_below_64_elements(n):
    # With singletons dropped, every solver over elements below 64 runs on
    # a retained set that is not {0..r-1}, and its masks are built from the
    # element bits (core._element_bits) at every ground size.
    rep = _dropping_rep(n)
    retained = sum(1 << v for v in range(n) if rep.singleton_value(v) > 0)
    assert retained & (retained + 1)  # not {0..r-1}
    for name, solve in _non_adaptive_runs(n):
        report = solve(CountingOracle.for_representation(rep))
        assert report.oracle_calls > n, name
    # sample's exhaustive fallback: r <= 6 retained elements, rho below the threshold.
    small = XosRepresentation.from_weights([[5 if v in (1, 3, 4, 6) else -1 for v in range(n)]])
    report = solve_random_sampling(CountingOracle.for_representation(small), SamplingParams(1, 0))
    assert report.oracle_calls == n + 16 and report.value == 20
    if n > 16:
        with pytest.raises(CapExceededError):
            solve_brute_force(CountingOracle.for_representation(rep))
    star = _star_rep(n)
    want = max(sum(w for w in row if w > 0) for row in (c.weights for c in star.components))
    assert solve_exact_star(CountingOracle.for_representation(star)).value == want
    needle = NeedleInstance(n, n // 2, 2, n)
    assert uniform_size_probe(needle.oracle(), 2, 2000, _REJECTED).oracle_calls == 2000
