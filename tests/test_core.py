"""Bitmask utilities, checked arithmetic, oracle accounting, parsing."""

from __future__ import annotations

from itertools import combinations

import pytest

import xosmax
from xosmax import (
    AdditiveFunction,
    CountingOracle,
    GroundSet,
    InstanceFormatError,
    ValueOverflowError,
    XosRepresentation,
    elements_of,
    load_instance,
    mask_of,
    parse_explicit,
)
from xosmax.classify import materialize
from xosmax.core import (
    INT64_MAX,
    INT64_MIN,
    MAX_QUERIES,
    CapExceededError,
    Run,
    check_value,
    first_max,
    ints_of,
    subset_blocks,
)

from helpers import (
    canonical_masks,
    clique_of,
    masks_of_card,
    maximizer_indices,
    random_rep,
    rep_as_lists,
)


def test_every_export_is_an_attribute():
    # A name left in __all__ after its object is removed would break
    # ``from xosmax import *`` and mislead readers of the API.
    assert len(set(xosmax.__all__)) == len(xosmax.__all__)
    assert [name for name in xosmax.__all__ if not hasattr(xosmax, name)] == []


def test_mask_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert elements_of(0b100101) == (0, 2, 5)
    assert elements_of(0) == ()
    assert mask_of([]) == 0


def test_masks_of_card_matches_itertools():
    # The test-side scalar enumeration that subset_blocks is checked against.
    n = 6
    for c in range(n + 1):
        expect = sorted(sum(1 << v for v in combo) for combo in combinations(range(n), c))
        assert list(masks_of_card(n, c)) == expect


def test_canonical_order():
    n = 5
    assert list(ints_of(subset_blocks((1 << n) - 1, n))) == canonical_masks(n)
    # truncated at a cardinality cap
    assert list(ints_of(subset_blocks(0b111, 1))) == [0, 1, 2, 4]


def test_first_max_keeps_first_of_tied_maxima():
    assert first_max([(1, 3), (2, 5), (4, 5), (8, 5), (16, 4)]) == (2, 5)
    assert first_max(iter([(6, -2), (5, -2)])) == (6, -2)
    assert first_max([]) == (0, 0)


def test_check_value_rejects_non_integers():
    with pytest.raises(InstanceFormatError):
        check_value(True, "w")
    with pytest.raises(InstanceFormatError):
        check_value(1.5, "w")
    check_value(INT64_MAX, "w")
    check_value(INT64_MIN, "w")
    with pytest.raises(ValueOverflowError):
        check_value(INT64_MAX + 1, "w")
    with pytest.raises(ValueOverflowError):
        check_value(INT64_MIN - 1, "w")


def test_additive_function_and_overflow():
    g = AdditiveFunction((3, -1, 2))
    assert g.evaluate(0) == 0
    assert g.evaluate(0b111) == 4
    assert g.positive_part_sum() == 5
    # A component whose subset sums could leave int64 is refused when built,
    # with the sum in the message; one whose sums reach the edges exactly
    # is kept, and every subset sum lies between them.
    with pytest.raises(ValueOverflowError, match=f"positive weight sum {INT64_MAX + 1} outside"):
        AdditiveFunction((INT64_MAX, 1))
    with pytest.raises(ValueOverflowError, match=f"negative weight sum {INT64_MIN - 1} outside"):
        AdditiveFunction((INT64_MIN, -1, INT64_MAX))
    big = AdditiveFunction((INT64_MAX - 1, 1, INT64_MIN + 1, -1))
    assert big.evaluate(0b0011) == big.positive_part_sum() == INT64_MAX
    assert big.evaluate(0b1100) == INT64_MIN
    assert big.evaluate(0b1111) == -1


def test_representation_basics():
    rep = XosRepresentation.from_weights([[3, -1, 2], [1, 2, -5]])
    assert rep.n == 3
    assert rep.width == 2
    assert rep.evaluate(0) == 0
    assert rep.evaluate(0b101) == 5
    assert rep.evaluate(0b010) == 2
    assert maximizer_indices(rep, 0b010) == {1}
    assert maximizer_indices(rep, 0b001) == {0}
    assert rep.singleton_value(2) == 2
    # component 0 attains the singleton value on 0 and 2, component 1 on 1
    assert clique_of(rep, 0) == 0b101
    assert clique_of(rep, 1) == 0b010


def test_from_weights_rejects_bad_shapes():
    with pytest.raises(InstanceFormatError):
        XosRepresentation.from_weights([])
    with pytest.raises(InstanceFormatError):
        XosRepresentation.from_weights([[1, 2], [3]])
    with pytest.raises(InstanceFormatError):
        XosRepresentation.from_weights([[]])


def test_exact_maximum_three_routes_agree():
    # positive-part identity vs dense table vs counted brute enumeration
    for seed in range(40):
        rep = random_rep(n=8, k=3, seed=seed)
        rows = rep_as_lists(rep)
        identity = rep.exact_maximum()
        table = materialize(rep).max_value()
        counted = max(
            max(sum(row[v] for v in range(8) if (mask >> v) & 1) for row in rows)
            for mask in range(1 << 8)
        )
        assert identity == table == counted


def test_counting_oracle_counts_and_validates():
    rep = XosRepresentation.from_weights([[3, -1, 2], [1, 2, -5]])
    oracle = CountingOracle.for_representation(rep)
    assert oracle.calls == 0
    assert oracle.evaluate(0b101) == 5
    assert oracle.evaluate(0) == 0
    assert oracle.calls == 2
    assert oracle.peek(0b101) == 5
    assert oracle.calls == 2
    with pytest.raises(ValueError):
        oracle.evaluate(1 << 3)
    with pytest.raises(ValueError):
        oracle.evaluate(-1)
    with pytest.raises(TypeError):
        oracle.evaluate(True)


def test_ground_set_bounds():
    with pytest.raises(InstanceFormatError):
        GroundSet(0)
    with pytest.raises(InstanceFormatError):
        GroundSet(4097)
    g = GroundSet(4096)
    assert g.full_mask == (1 << 4096) - 1


def test_parse_explicit_roundtrip():
    doc = {"type": "explicit", "n": 3, "weights": [[3, -1, 2], [1, 2, -5]]}
    rep = parse_explicit(doc)
    assert rep.to_json_dict() == doc
    same = load_instance('{"type": "explicit", "n": 3, "weights": [[3,-1,2],[1,2,-5]]}').explicit
    assert same.to_json_dict() == doc


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "explicit", "n": 0, "weights": [[]]},
        {"type": "explicit", "n": 4097, "weights": [[0] * 4097]},
        {"type": "explicit", "n": 2, "weights": []},
        {"type": "explicit", "n": 2, "weights": [[1]]},
        {"type": "explicit", "n": 2, "weights": [[1, 2], [3]]},
        {"type": "explicit", "n": 2, "weights": [[1, True]]},
        {"type": "explicit", "n": 2, "weights": [[1, 2.5]]},
        {"type": "explicit", "n": 2, "weights": [[1, INT64_MAX + 1]]},
        {"type": "explicit", "n": "2", "weights": [[1, 2]]},
        {"type": "needle", "n": 2, "weights": [[1, 2]]},
        "not a dict",
    ],
)
def test_parse_explicit_rejects(doc):
    with pytest.raises((InstanceFormatError, ValueOverflowError)):
        parse_explicit(doc)


def test_evaluate_first_maximizer_tie():
    rep = XosRepresentation.from_weights([[1, 1], [1, 1], [2, 0]])
    # on {0} components 0,1 give 1, component 2 gives 2
    assert maximizer_indices(rep, 0b01) == {2}
    assert maximizer_indices(rep, 0b10) == {0, 1}


def test_run_phase_boundary():
    # a run may total 2^21 - 1 queries; a phase that would make it 2^21 is refused.
    # The counter is set by hand: the run charges only calls made since it began.
    assert MAX_QUERIES == 1 << 21
    oracle = CountingOracle(GroundSet(1), lambda mask: 0)
    oracle.calls = 7
    run = Run(oracle, "kminus1")
    run.phase(MAX_QUERIES - 1, "one phase")
    oracle.calls = 7 + MAX_QUERIES - 11
    run.phase(10, "last phase")
    oracle.calls = 7 + MAX_QUERIES - 10
    with pytest.raises(CapExceededError) as info:
        run.phase(10, "bridges")
    assert str(info.value) == (
        f"kminus1 bridges: up to 10 more queries after {MAX_QUERIES - 10} "
        f"would reach the limit of {MAX_QUERIES} per run"
    )
    with pytest.raises(CapExceededError, match=r"brute exhaustive search: up to ~2\^4096 more"):
        Run(oracle, "brute").phase(1 << 4096, "exhaustive search")
