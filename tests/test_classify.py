"""Dense materialization and set-function class checks with witnesses."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from xosmax import (
    AdditiveFunction,
    CapExceededError,
    CountingOracle,
    DenseFunction,
    HardGeneralInstance,
    HardKxosInstance,
    InstanceFormatError,
    NeedleInstance,
    ValueOverflowError,
    XosRepresentation,
    check_additive,
    check_class,
    check_monotone,
    check_normalized,
    check_star_condition,
    check_subadditive,
    check_submodular,
    materialize,
)
from xosmax.classify import _BLOCK_BUDGET, _LEAF, _SAFE_SUM_BOUND, _pair_scan
from xosmax.core import INT64_MAX, INT64_MIN
from xosmax.rng import SplitMix64

from helpers import (
    bits_of,
    check_submodular_marginal,
    random_rep,
    random_star_representation,
    ref_rep_value,
    rep_as_lists,
)

EXAMPLE = XosRepresentation.from_weights([[3, -1, 2], [1, 2, -5]])


def dense_from(values):
    n = (len(values) - 1).bit_length()
    return DenseFunction(n, list(values))


def test_materialize_additive_table():
    f = materialize(XosRepresentation.from_weights([[1, 1]]))
    assert list(f[m] for m in range(4)) == [0, 1, 1, 2]


def test_materialize_matches_direct_evaluation():
    for seed in range(15):
        rep = random_rep(n=7, k=3, seed=seed)
        f = materialize(rep)
        rows = rep_as_lists(rep)
        for mask in range(1 << 7):
            assert f[mask] == ref_rep_value(rows, mask)


@pytest.mark.parametrize("n", [9, 13, 16])
def test_materialize_reads_every_byte_table(n):
    # n > 8 spreads each mask over two byte tables; widths 1-4 combine them
    # per component. The last row set sums to INT64_MAX exactly, so the
    # table keeps byte tables and ends up object dtype.
    edge = [[INT64_MAX - (n - 1)] + [1] * (n - 1), [INT64_MIN + (n - 1)] + [-1] * (n - 1)]
    reps = [random_rep(n, k, seed=n * 10 + k, low=-1000, high=1000) for k in range(1, 5)]
    reps.append(XosRepresentation.from_weights(edge))
    for rep in reps:
        assert rep._byte_tables is not None
        f = materialize(rep)
        rows = rep_as_lists(rep)
        assert [f[mask] for mask in range(1 << n)] == [
            ref_rep_value(rows, mask) for mask in range(1 << n)
        ]
        wide = rep is reps[-1]
        assert f.values.dtype == (object if wide else np.int64)


def test_materialize_from_oracle_and_callable():
    rep = EXAMPLE
    oracle = CountingOracle.for_representation(rep)
    via_oracle = materialize(oracle.evaluate, oracle.n)
    assert oracle.calls == 8
    via_callable = materialize(rep.evaluate, 3)
    via_rep = materialize(rep)
    assert [via_oracle[m] for m in range(8)] == [via_rep[m] for m in range(8)]
    # an oracle itself is not a source; its bound evaluate is
    with pytest.raises(TypeError, match="cannot materialize CountingOracle"):
        materialize(oracle)
    assert oracle.calls == 8
    assert [via_callable[m] for m in range(8)] == [via_rep[m] for m in range(8)]


def test_materialize_cap():
    with pytest.raises(CapExceededError):
        materialize(lambda m: 0, 17)
    with pytest.raises(CapExceededError):
        materialize(lambda m: 0, 0)
    with pytest.raises(ValueError):
        materialize(lambda m: 0)  # callable needs an explicit n
    # the cap bounds every source before any evaluation
    wide = XosRepresentation.from_weights([[1] * 17])
    with pytest.raises(CapExceededError):
        materialize(wide)
    oracle = CountingOracle.for_representation(wide)
    with pytest.raises(CapExceededError):
        materialize(oracle.evaluate, oracle.n)
    assert oracle.calls == 0


@pytest.mark.parametrize("n", [True, 2.0, np.int64(3)], ids=["bool", "float", "int64"])
def test_dense_tables_refuse_a_ground_size_that_is_not_an_int(n):
    # GroundSet's rule: a bool, a float or a numpy integer is refused
    # before any table is built or any value asked.
    oracle = CountingOracle.for_representation(EXAMPLE)
    with pytest.raises(InstanceFormatError, match="^ground size must be an integer$"):
        materialize(oracle.evaluate, n)
    assert oracle.calls == 0
    with pytest.raises(InstanceFormatError, match="^ground size must be an integer$"):
        DenseFunction(n, [0, 1])


def test_materialize_component_overflow():
    # a component with a subset sum outside int64 is refused when the
    # representation is built, whether or not it would be the maximal one
    # at that subset, so materialize never meets one
    half = 1 << 62
    for weights, sum_text in (
        ([[1, 1], [half, half]], f"positive weight sum {1 << 63}"),
        ([[0, 0], [-half, -half - 1]], f"negative weight sum {-(1 << 63) - 1}"),  # max 0
        ([[0, 0, 0], [-half, 5, -half - 1]], f"negative weight sum {-(1 << 63) - 1}"),
    ):
        with pytest.raises(ValueOverflowError, match=f"{sum_text} outside signed 64-bit range"):
            XosRepresentation.from_weights(weights)
    # every component at the edge, both ways, but inside the range
    rep = XosRepresentation.from_weights([[INT64_MIN + 1, -1], [INT64_MAX - 1, 1]])
    f = materialize(rep)
    assert [f[m] for m in range(4)] == [0, INT64_MAX - 1, 1, INT64_MAX]
    assert [f[m] for m in range(4)] == [rep.evaluate(m) for m in range(4)]
    assert rep._values(np.arange(4, dtype=np.uint64)).tolist() == [f[m] for m in range(4)]
    assert [comp.evaluate(3) for comp in rep.components] == [INT64_MIN, INT64_MAX]


def test_materialize_large_weights_with_small_sums():
    # sum |w| > INT64_MAX, yet every subset sum fits: the table is exact
    rep = XosRepresentation.from_weights([[1 << 62, -(1 << 62), (1 << 62) - 1], [1, 1, 1]])
    f = materialize(rep)
    assert f.values.dtype == object
    assert [f[m] for m in range(8)] == [rep.evaluate(m) for m in range(8)]
    assert f.max_value() == INT64_MAX
    # the same with a max table below 2^62 in absolute value: int64 again
    edge = (1 << 62) - 1
    rep = XosRepresentation.from_weights([[edge, -edge, -edge], [0, 0, 0]])
    f = materialize(rep)
    assert f.values.dtype == np.int64
    assert [f[m] for m in range(8)] == [rep.evaluate(m) for m in range(8)]


def test_check_normalized():
    ok, _ = check_normalized(materialize(EXAMPLE))
    assert ok
    shifted = materialize(lambda m: m.bit_count() + 1, 3)
    ok, witness = check_normalized(shifted)
    assert not ok and witness == (0,)


def test_check_monotone_and_witness():
    cover = materialize(lambda m: min(m.bit_count(), 2), 4)
    assert check_monotone(cover)[0]
    ok, witness = check_monotone(materialize(EXAMPLE))
    assert not ok
    x, y = witness
    f = materialize(EXAMPLE)
    assert x | y == y and y & ~x != 0 and (y ^ x).bit_count() == 1
    assert f[x] > f[y]


def test_check_additive_exact():
    g = AdditiveFunction((3, -2, 0, 5))
    f = materialize(lambda m: g.evaluate(m), 4)
    assert check_additive(f)[0]
    ok, witness = check_additive(materialize(EXAMPLE))
    assert not ok
    (mask,) = witness
    singles = sum(EXAMPLE.evaluate(1 << v) for v in range(3) if (mask >> v) & 1)
    assert EXAMPLE.evaluate(mask) != singles


def _first_non_additive(f: DenseFunction):
    """First mask whose value is not the sum of its singleton values."""
    for mask in range(len(f)):
        if f[mask] != sum(f[1 << v] for v in bits_of(mask)):
            return (mask,)
    return None


@pytest.mark.parametrize("n", [9, 13])
def test_check_additive_witness_matches_a_scan(n):
    g = SplitMix64(n)
    small = [g.randrange(2001) - 1000 for _ in range(n)]
    # |values| reach 2^62, so this table is object dtype.
    wide = [1 << 62, -(1 << 62), 1 << 61, -(1 << 61)] + small[4:]
    full = (1 << n) - 1
    for weights in (small, wide):
        additive = [sum(weights[v] for v in bits_of(mask)) for mask in range(1 << n)]
        shifted = [v + 1 for v in additive]  # f(empty) = 1
        at_full = additive[:full] + [additive[full] + 1]
        poked = list(additive)
        for _ in range(3):
            poked[g.randrange(1 << n)] -= 1
        for values in (additive, shifted, at_full, poked):
            f = DenseFunction(n, values)
            assert f.values.dtype == (object if weights is wide else np.int64)
            expected = _first_non_additive(f)
            assert check_additive(f) == (expected is None, expected)
        assert _first_non_additive(DenseFunction(n, at_full)) == (full,)


def test_check_submodular_on_coverage():
    # rank-style coverage function: submodular, monotone
    cover = materialize(lambda m: min(m.bit_count(), 3), 5)
    assert check_submodular(cover)[0]
    ok, witness = check_submodular(materialize(EXAMPLE))
    assert not ok
    x, y = witness
    f = materialize(EXAMPLE)
    assert f[x] + f[y] < f[x | y] + f[x & y]


def test_check_subadditive():
    assert check_subadditive(materialize(EXAMPLE))[0]
    square = materialize(lambda m: m.bit_count() ** 2, 4)
    ok, witness = check_subadditive(square)
    assert not ok
    x, y = witness
    assert x & y == 0
    assert square[x] + square[y] < square[x | y]


def test_xos_representations_are_normalized():
    for seed in range(20):
        f = materialize(random_rep(n=6, k=3, seed=seed))
        assert check_normalized(f)[0]


def test_nonnegative_xos_is_monotone_and_subadditive():
    # with negative weights subadditivity can fail on overlapping pairs
    # (f(X) + f(X) < f(X) whenever f(X) < 0), so the hierarchy claim is
    # asserted for nonnegative weights only. The table built from values
    # makes no max-of-additive claim, so its subadditive check takes the walk.
    for seed in range(20):
        rep_table = materialize(random_rep(n=6, k=3, seed=seed, low=0, high=8))
        for f in (rep_table, DenseFunction(6, rep_table.values.tolist())):
            assert check_monotone(f)[0]
            assert check_subadditive(f)[0]


def test_monotone_table_from_values_that_is_not_subadditive_fails():
    # f = 0 on sets of at most one element and 1 above is monotone, yet
    # f({0}) + f({1}) = 0 < 1 = f({0,1}). Only a max of additive functions
    # passes by monotonicity, so a table built from values or from a
    # callable must still fail, with the pair scan's witness.
    n = 4
    for f in (DenseFunction(n, [int(m.bit_count() > 1) for m in range(1 << n)]),
              materialize(lambda m: int(m.bit_count() > 1), n)):
        assert check_monotone(f) == (True, None)
        assert check_subadditive(f) == _pair_scan(f, submodular=False) == (False, (1, 2))


def test_monotone_object_table_at_the_cap_passes_quickly():
    # Width 1 at n = 16 with values up to 30 * 2^58, held as Python ints:
    # the monotone route decides it in O(n 2^n), where the row walk over the
    # object table took seconds.
    n = 16
    f = materialize(XosRepresentation.from_weights([[(v % 5) << 58 for v in range(n)]]))
    assert f.values.dtype == object
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        assert check_subadditive(f) == (True, None)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.5, elapsed


def _hidden_families():
    """Every hidden family at each of its ground sizes up to 12."""
    families = []
    for n_hat in range(1, 13):
        s = (n_hat + 1) // 2
        families.append(NeedleInstance(n_hat, s, (s + 1) // 2, n_hat))
    for n in range(4, 13, 2):
        for tau in (1, (n - 1) // 2):
            for remark in (False, True):
                families.append(HardGeneralInstance(n, tau, n + tau, remark=remark))
    for k, nt, a in ((3, 2, 1), (3, 3, 1), (3, 3, 2)):
        families.append(HardKxosInstance(k, nt, a, nt + a))
    return families


def test_hidden_family_tables_match_the_per_mask_tables():
    families = _hidden_families()
    assert {f.kind for f in families} == {"needle", "hard_general", "hard_general_remark", "hard_kxos"}
    assert max(f.n for f in families) == 12
    for family in families:
        one_pass = materialize(family)
        per_mask = materialize(family.evaluate, family.n)
        assert one_pass.values.dtype == per_mask.values.dtype == np.int64
        assert np.array_equal(one_pass.values, per_mask.values), family
        # neither is built from a representation, so neither claims to be
        # a max of additive functions
        assert not one_pass._max_of_additive and not per_mask._max_of_additive


def test_hidden_family_over_the_cap_is_refused_before_any_array(monkeypatch):
    for family in (NeedleInstance(17, 6, 3, 0), HardGeneralInstance(18, 2, 0),
                   HardKxosInstance(3, 4, 1, 0)):
        assert family.n > 16
        calls = []
        monkeypatch.setattr(type(family), "_values", lambda self, masks: calls.append(masks))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                materialize(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 1 << 16, peak  # a 2^17-mask array alone is 1 MiB


def test_check_class_dispatch():
    f = materialize(EXAMPLE)
    assert check_class(f, "subadditive")[0]
    assert not check_class(f, "monotone")[0]
    with pytest.raises(ValueError):
        check_class(f, "supermodular")


def test_marginal_route_agrees_with_pairwise():
    rng = SplitMix64(31337)
    for _ in range(60):
        values = [rng.randint(-20, 20) for _ in range(1 << 5)]
        f = dense_from(values)
        fast, w_fast = check_submodular(f)
        slow, w_slow = check_submodular_marginal(f)
        assert fast == slow
        if not fast:
            x, y = w_fast
            assert f[x] + f[y] < f[x | y] + f[x & y]
        if not slow:
            x, xu, xv = w_slow
            assert f[xu] + f[xv] < f[xu | xv] + f[x]
    # budget-additive min(B, sum w) with w >= 0 is submodular, so both
    # routes must also agree on a pass
    for _ in range(20):
        weights = [rng.randint(0, 6) for _ in range(5)]
        budget = rng.randint(0, 20)
        f = dense_from(
            [min(budget, sum(w for v, w in enumerate(weights) if (m >> v) & 1))
             for m in range(1 << 5)]
        )
        assert check_submodular(f) == (True, None)
        assert check_submodular_marginal(f) == (True, None)


def test_huge_values_use_exact_arithmetic():
    # beyond the int64-safe range the table holds plain integers
    big = 1 << 62
    f = dense_from([0, big, 5, big + 5])
    assert f.values.dtype == object
    assert check_additive(f)[0]
    assert check_submodular(f)[0]
    assert check_subadditive(f)[0]
    g = dense_from([0, big, 5, big - 1])
    assert not check_additive(g)[0]
    assert not check_monotone(g)[0]
    # scaling by 2^61 keeps every pair inequality, so the checks on the
    # object tables must return the same witnesses as on the int64 originals
    rng = SplitMix64(2024)
    for _ in range(10):
        values = [rng.randint(-3, 3) for _ in range(1 << 4)]
        small = dense_from(values)
        scaled = dense_from([v << 61 for v in values])
        assert small.values.dtype != object and scaled.values.dtype == object
        assert check_submodular(scaled) == check_submodular(small)
        assert check_subadditive(scaled) == check_subadditive(small)


def test_additive_hierarchy():
    # nonnegative additive passes everything
    rng = SplitMix64(99)
    for _ in range(10):
        g = AdditiveFunction(tuple(rng.randint(0, 9) for _ in range(6)))
        f = materialize(lambda m: g.evaluate(m), 6)
        for cls in ("normalized", "monotone", "additive", "submodular", "subadditive"):
            assert check_class(f, cls)[0], cls


def test_star_condition_check():
    ok, _ = check_star_condition(XosRepresentation.from_weights([[5, 0, -3], [-2, 4, 6]]))
    assert ok
    ok, witness = check_star_condition(EXAMPLE)
    assert not ok
    assert witness == (0, 1)  # component 1 gives element 0 weight 1: positive, not 3
    for seed in range(20):
        assert check_star_condition(random_star_representation(8, 3, seed))[0]


def test_dense_function_validation():
    with pytest.raises(ValueError):
        DenseFunction(3, [0] * 7)
    with pytest.raises(CapExceededError):
        DenseFunction(20, [0])
    # a bad entry anywhere falls back to the per-value check, so the first
    # one raises that check's exception and message
    with pytest.raises(InstanceFormatError, match="value must be an integer, got bool"):
        DenseFunction(2, [0, 1, True, 2])
    with pytest.raises(InstanceFormatError, match="value must be an integer, got float"):
        DenseFunction(2, [0, 1.0, 1 << 63, 2])
    with pytest.raises(ValueOverflowError, match=f"value {1 << 63} outside signed 64-bit range"):
        DenseFunction(2, [0, 1 << 63, 1.0, 2])
    with pytest.raises(ValueOverflowError):
        DenseFunction(1, [0, -(1 << 63) - 1])
    edge = DenseFunction(1, [-(1 << 63), (1 << 63) - 1])
    assert edge[0] == -(1 << 63) and edge[1] == (1 << 63) - 1


def _cross_validation_tables():
    """(kind, table) pairs, n = 1..8, for the routes-versus-scan comparison."""
    rng = SplitMix64(4242)
    tables = []
    for i in range(300):
        n = 1 + i % 8
        kind = ("xos", "budget", "late", "mixed", "shifted")[i % 5]
        size = 1 << n
        if kind == "mixed":
            values = [rng.randint(-8, 8) for _ in range(size)]
        elif kind in ("budget", "late"):
            weights = [rng.randint(0, 6) for _ in range(n)]
            budget = rng.randint(0, 4 * n)
            values = [min(budget, sum(w for v, w in enumerate(weights) if (m >> v) & 1))
                      for m in range(size)]
            if kind == "late":
                # every row below V minus its top element is a subset of it,
                # so lowering that one value can only break rows from it on
                values[(size >> 1) - 1] = 0
        else:
            rep = random_rep(n=n, k=1 + i % 3, seed=i, low=0, high=8)
            values = [rep.evaluate(m) for m in range(size)]
            if kind == "shifted":
                shift = rng.randint(-4, 3)
                values = [v + (shift if shift < 0 else shift + 1) for v in values]
        tables.append((kind, dense_from(values)))
    return tables


def test_dense_dtype_rule():
    # int64 exactly when every |value| < 2^62, on every construction path
    below = _SAFE_SUM_BOUND - 1
    for values, dtype in (
        ([0, below, -below, 0], np.int64),
        ([0, _SAFE_SUM_BOUND, 0, 0], object),
        ([0, 0, -_SAFE_SUM_BOUND, 0], object),
        ([INT64_MIN, 0, 0, INT64_MAX], object),
    ):
        f = dense_from(values)
        assert f.values.dtype == dtype, values
        assert [f[m] for m in range(4)] == values
        g = materialize(XosRepresentation.from_weights([values[1:3]]))
        wide = max(abs(g[m]) for m in range(4)) >= _SAFE_SUM_BOUND
        assert (g.values.dtype == object) == wide, values


def _scale_to_edge(f):
    """f times the positive factor that puts its max |value| in [2^62, 2^63)."""
    values = [int(v) for v in f.values]
    top = max(abs(v) for v in values)
    factor = -(-_SAFE_SUM_BOUND // top)
    return dense_from([v * factor for v in values])


def test_routes_match_pair_scans():
    seen = set()
    for kind, f in _cross_validation_tables():
        assert f.values.dtype != object
        edge = _scale_to_edge(f) if f.values.any() else None
        if edge is not None:
            assert edge.values.dtype == object
            assert _SAFE_SUM_BOUND <= max(abs(v) for v in edge.values) < 1 << 63
        for check, submodular in ((check_submodular, True), (check_subadditive, False)):
            got = check(f)
            assert got == _pair_scan(f, submodular=submodular), (kind, f.n, check.__name__)
            # a positive factor keeps every pair inequality and its direction
            if edge is not None:
                assert check(edge) == got, (kind, f.n, check.__name__, "scaled")
                seen.add((kind, check.__name__, got[0], "scaled"))
            seen.add((kind, check.__name__, got[0]))
            if kind == "late" and not got[0]:
                assert got[1][0] >= (len(f) >> 1) - 1
            # budget-additive is submodular, nonnegative XOS subadditive
            if kind == "budget" or (kind == "xos" and not submodular):
                assert got == (True, None)
    # both verdicts of both checks occur on the late, mixed and shifted
    # tables, unscaled and scaled
    for kind in ("late", "mixed", "shifted"):
        for name in ("check_submodular", "check_subadditive"):
            for ok in (True, False):
                assert {(kind, name, ok), (kind, name, ok, "scaled")} <= seen, (kind, name, ok)


# The subadditive walk runs its lowest _LEAF levels as one block per node, in
# chunks of _CHUNK leading rows; the root block has 2^(n - _LEAF) of them.
_CHUNK = _BLOCK_BUDGET // 3**_LEAF
_DELTA = 4


def _planted(n, rng, plants):
    """A table whose first subadditivity failure is planted: (X0, H) for the
    plant with the smallest X0, the pair scan's first pair.

    The base is U(S) + a(S) with U(S) the max of u_v over S and a additive,
    u, a >= 0. For nonempty X and Y its slack f(X) + f(Y) - f(X | Y) is
    min(U(X), U(Y)) + a(X & Y) >= 0, so it is subadditive. u_v is light
    (< _DELTA) on the elements of every H and heavy elsewhere. Raising f(X0 | H) by _DELTA breaks only pairs that
    cover X0 | H; with every light element above every X0, row X0 is the
    first such row and Y = H its only failing Y.
    """
    light = 0
    for x0, h in plants:
        light |= h
    assert all(x0 and h and x0.bit_length() <= (light & -light).bit_length() - 1
               for x0, h in plants)
    u = np.array([rng.randint(0, _DELTA - 1) if light >> v & 1 else rng.randint(_DELTA, 40)
                  for v in range(n)])
    a = np.array([rng.randint(0, 9) for _ in range(n)])
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    values = (member * u).max(axis=1) + member @ a
    for x0, h in plants:
        values[x0 | h] += _DELTA
    x0, h = min(plants)
    return DenseFunction(n, values.tolist()), (x0, h)


def _bits(rng, low, high):
    """A random nonempty mask over the elements low..high-1."""
    return (1 + rng.randrange((1 << (high - low)) - 1)) << low


def _block_plants(n, rng):
    """Plants that put the first failing row past the first block, on a
    block's top digit, and, where the root block has more than one chunk,
    in a later chunk only."""
    top = 1 << _LEAF - 1
    plants = [
        # on the root block's top digit
        [(top | rng.randrange(top), _bits(rng, _LEAF, n))],
        [(top, 1 << n - 1)],
        # two failing rows on one digit of one chunk
        [(0b1001, 1 << _LEAF), (0b1100, 1 << _LEAF)],
    ]
    if n >= _LEAF + 2:
        # just past the root block: x = {_LEAF}, L below _LEAF
        plants.append([(1 << _LEAF | _bits(rng, 0, _LEAF), _bits(rng, _LEAF + 1, n))])
    if n >= _LEAF + 3:
        # node x = {_LEAF + 1}, on its block's top digit, and its row x itself
        x = 1 << _LEAF + 1
        plants.append([(x | top | rng.randrange(top), _bits(rng, _LEAF + 2, n))])
        plants.append([(x, _bits(rng, _LEAF + 2, n))])
    if 1 << n - _LEAF > _CHUNK > 1:
        # a row whose only failing Y lies in the root block's row _CHUNK is
        # found by the second chunk only; the first (Y in block row 1) finds
        # a larger row X1 before it, or a smaller one the second must keep
        late = _CHUNK << _LEAF
        for x0, x1 in ((0b110, 0b100001), (0b1001, 0b1100), (0b11, top | 0b11)):
            plants.append([(x0, late)])
            plants.append([(x0, late), (x1, 1 << _LEAF)])
            plants.append([(x0, 1 << _LEAF), (x1, late)])
    return plants


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_subadditive_blocks_match_pair_scan(n):
    # Past n = _LEAF the walk has several nodes, each with its block, and at
    # n = 12 the root block has more than one chunk; the walk must still find
    # the scan's first pair. A positive factor keeps every pair inequality,
    # so the scaled object twin must find it too.
    if n == 12:
        assert 1 << n - _LEAF > _CHUNK > 1  # the later-chunk plants run
    rng = SplitMix64(900 + n)
    tables = [(plant, *_planted(n, rng, plant)) for plant in _block_plants(n, rng)]
    for k in (1, 3):
        rep = random_rep(n=n, k=k, seed=n * 10 + k, low=0, high=8)
        # the representation's table passes by monotonicity; its copy built
        # from values makes no max-of-additive claim, so the walk decides it
        rep_table = materialize(rep)
        tables.append(("xos", rep_table, None))
        tables.append(("xos", DenseFunction(n, rep_table.values.tolist()), None))
    # budget-additive, then 0 at V minus its top element: every earlier row
    # is a subset of it, so it is the first failing row, with Y = {top}
    late = [min(n // 2, m.bit_count()) for m in range(1 << n)]
    late[(1 << n - 1) - 1] = 0
    tables.append(("late", DenseFunction(n, late), ((1 << n - 1) - 1, 1 << n - 1)))
    tables.append(("mixed", DenseFunction(n, [rng.randint(-8, 8) for _ in range(1 << n)]), None))
    for label, f, planted in tables:
        got = check_subadditive(f)
        assert got == _pair_scan(f, submodular=False), (label, n)
        if planted is not None:
            assert got == (False, planted), (label, n)
        elif label == "xos":
            assert got == (True, None)
        assert check_subadditive(_scale_to_edge(f)) == got, (label, n, "scaled")


@pytest.mark.parametrize("n", [13, 14])
def test_subadditive_route_memory_is_bounded(n):
    # The block route holds one bounded chunk at a time, so its transient
    # memory does not grow with the block (2^5 and 2^6 rows at the root here).
    # The table is built from values, so the walk runs, not the monotone route.
    rep = XosRepresentation.from_weights([[v % 7 + 1 for v in range(n)]])
    f = DenseFunction(n, materialize(rep).values.tolist())
    tracemalloc.start()
    try:
        assert check_subadditive(f) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_subadditive_failure_at_row_1_exits_early():
    # f({0}) < 0 fails at row 1 with Y = {0}; the planted table fails at row
    # 1 too, but only with a Y in the last chunk of the root block.
    n = 16
    rng = SplitMix64(16)
    mixed = XosRepresentation.from_weights(
        [[-1000] + [rng.randint(-1000, 1000) for _ in range(n - 1)] for _ in range(2)]
    )
    last = (((1 << n - _LEAF) - 1) // _CHUNK * _CHUNK) << _LEAF
    planted, witness = _planted(n, rng, [(1, last)])
    for f, expected in ((materialize(mixed), (1, 1)), (planted, witness)):
        assert _pair_scan(f, submodular=False) == (False, expected)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            assert check_subadditive(f) == (False, expected)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.1, elapsed
