"""Hidden instance families: closed forms, planted optima, serialization."""

from __future__ import annotations

import json
import time

import pytest

from xosmax import (
    MAX_QUERIES,
    CapExceededError,
    HardGeneralInstance,
    HardKxosInstance,
    InstanceFormatError,
    NeedleInstance,
    instance_from_dict,
    parse_hidden,
    uniform_size_probe,
)

from helpers import ref_brute_max, ref_rep_value, rep_as_lists


# ---------------------------------------------------------------------------
# needle


def test_needle_value_counts():
    inst = NeedleInstance(6, 3, 2, seed=11)
    # exactly the subsets of the planted 3-set with at least 2 elements pay:
    # C(3,2) + C(3,3) = 4 of the 64 subsets
    hits = [m for m in range(1 << 6) if inst.evaluate(m) == 1]
    assert len(hits) == 4
    assert all(inst.evaluate(m) in (0, 1) for m in range(1 << 6))
    planted, val = inst.planted_optimum()
    assert val == 1
    assert inst.evaluate(planted) == 1
    assert all(m & ~planted == 0 for m in hits)


def test_needle_brute_equals_planted():
    for seed in range(10):
        inst = NeedleInstance(10, 5, 3, seed=seed)
        opt, _ = ref_brute_max(inst.evaluate, 10)
        assert opt == inst.planted_optimum()[1] == 1


def test_needle_param_validation():
    with pytest.raises(InstanceFormatError):
        NeedleInstance(6, 7, 2, seed=0)  # s > n
    with pytest.raises(InstanceFormatError):
        NeedleInstance(6, 3, 4, seed=0)  # t > s
    with pytest.raises(InstanceFormatError):
        NeedleInstance(6, 3, 0, seed=0)
    with pytest.raises(InstanceFormatError):
        NeedleInstance(4097, 3, 2, seed=0)
    assert NeedleInstance(4096, 3, 2, seed=0).n == 4096


def test_probe_counts_and_zero_queries():
    inst = NeedleInstance(12, 6, 3, seed=2)
    report = uniform_size_probe(inst.oracle(), 3, 40, seed=5)
    assert report.oracle_calls == 40
    assert report.algorithm == "probe"
    empty = uniform_size_probe(inst.oracle(), 3, 0, seed=5)
    assert (empty.output, empty.value, empty.oracle_calls) == (0, 0, 0)


def test_probe_refuses_the_query_limit_before_any_query():
    oracle = NeedleInstance(12, 6, 3, seed=2).oracle()
    with pytest.raises(CapExceededError, match="probe queries"):
        uniform_size_probe(oracle, 3, MAX_QUERIES, seed=5)
    assert oracle.calls == 0


@pytest.mark.parametrize("seed", [True, 1.5, -1])
def test_probe_rejects_a_bad_seed_before_any_query(seed):
    oracle = NeedleInstance(12, 6, 3, seed=2).oracle()
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        uniform_size_probe(oracle, 3, 40, seed=seed)
    assert oracle.calls == 0


def test_probe_finds_needle_when_it_cannot_miss():
    # s = n makes every size-t draw a subset of the planted set
    inst = NeedleInstance(5, 5, 2, seed=1)
    report = uniform_size_probe(inst.oracle(), 2, 1, seed=0)
    assert report.value == 1


# ---------------------------------------------------------------------------
# hard_general


def test_hard_general_closed_form_values():
    inst = HardGeneralInstance(8, 2, seed=7)
    S = inst.planted
    assert S.bit_count() == 4
    assert inst.evaluate(0) == 0
    assert inst.evaluate(S) == 4
    v = S & -S
    assert inst.evaluate(v) == 2  # singleton in S: max(1, tau) = tau
    out = (~S) & 0xFF
    assert inst.evaluate(out & -out) == 2  # singleton outside: max(-8, tau)
    full = 0xFF
    assert inst.evaluate(full) == 2  # 4 - 8*4 < tau
    assert inst.planted_optimum() == (S, 4)


def test_hard_general_brute_equals_planted():
    for seed in range(12):
        inst = HardGeneralInstance(8, 2, seed=seed)
        opt, arg = ref_brute_max(inst.evaluate, 8)
        assert opt == 4
        assert arg == inst.planted


def test_hard_general_matches_representation():
    for n, tau, seed in ((6, 2, 0), (8, 3, 1), (10, 4, 5)):
        inst = HardGeneralInstance(n, tau, seed=seed)
        rep = inst.representation()
        assert rep.width == n + 1
        rows = rep_as_lists(rep)
        for mask in range(1 << n):
            want = inst.evaluate(mask)
            if mask == 0:
                assert want == 0
            else:
                assert want == ref_rep_value(rows, mask)


def test_hard_general_remark_variant():
    inst = HardGeneralInstance(8, 2, seed=3, remark=True)
    assert inst.evaluate(0) == 2  # not normalized: the floor applies everywhere
    assert inst.kind == "hard_general_remark"
    assert inst.width is None
    with pytest.raises(InstanceFormatError):
        inst.representation()
    # away from the empty set the two variants agree
    std = HardGeneralInstance(8, 2, seed=3)
    for mask in range(1, 1 << 8):
        assert inst.evaluate(mask) == std.evaluate(mask)


def test_hard_general_param_validation():
    with pytest.raises(InstanceFormatError):
        HardGeneralInstance(7, 2, seed=0)  # odd n
    with pytest.raises(InstanceFormatError):
        HardGeneralInstance(8, 0, seed=0)  # tau < 1
    with pytest.raises(InstanceFormatError):
        HardGeneralInstance(8, 4, seed=0)  # 2*tau >= n


# ---------------------------------------------------------------------------
# hard_kxos


def test_kxos_structure_and_planted_numbers():
    inst = HardKxosInstance(3, 4, 1, seed=1)
    assert inst.n == 4 + 16
    assert inst.width == 3
    assert [b.bit_count() for b in inst.blocks] == [4, 16]
    assert [s.bit_count() for s in inst.s_masks] == [3, 12]
    assert inst.planted_value() == 72
    assert inst.planted_is_optimal
    planted, val = inst.planted_optimum()
    assert val == 72
    assert inst.evaluate(planted) == 72
    # each full block achieves its component maximum
    assert inst.evaluate(inst.blocks[0]) == 64
    assert inst.evaluate(inst.blocks[1]) == 64


def test_kxos_closed_form_matches_representation_exhaustively():
    # k=3, n_tilde=3 gives n=12 and k=4, n_tilde=2 gives n=14: small enough
    # to compare on every subset; the second has two differently weighted
    # S-blocks in its last component
    for k, n_tilde, a in ((3, 3, 1), (4, 2, 1)):
        inst = HardKxosInstance(k, n_tilde, a, seed=9)
        rep = inst.representation()
        rows = rep_as_lists(rep)
        assert rep.width == k
        for mask in range(1 << inst.n):
            assert inst.evaluate(mask) == ref_rep_value(rows, mask)
        assert inst.evaluate(0) == 0


def test_kxos_regime_flag_and_planted_rejection():
    bad = HardKxosInstance(3, 3, 1, seed=0)  # (k-1)(nt-a)^2 = 8 < 9
    assert not bad.planted_is_optimal
    with pytest.raises(ValueError):
        bad.planted_optimum()
    boundary = HardKxosInstance(5, 2, 1, seed=0)  # 4*1 = 4 = nt^2: tie allowed
    assert boundary.planted_is_optimal
    assert boundary.planted_optimum()[1] == 32 == 2**5


def test_kxos_out_of_regime_brute_maximum_is_component_max():
    inst = HardKxosInstance(3, 3, 1, seed=4)
    opt, _ = ref_brute_max(inst.evaluate, 12)
    assert opt == 27  # n_tilde^k beats the planted 2*4*3 = 24
    assert inst.planted_value() == 24


def test_kxos_param_validation():
    with pytest.raises(InstanceFormatError):
        HardKxosInstance(2, 4, 1, seed=0)  # k < 3
    with pytest.raises(InstanceFormatError):
        HardKxosInstance(3, 4, 4, seed=0)  # a >= n_tilde
    with pytest.raises(InstanceFormatError):
        HardKxosInstance(3, 64, 1, seed=0)  # 64 + 4096 = 4160 > 4096 elements
    with pytest.raises(InstanceFormatError):
        HardKxosInstance(20, 2, 1, seed=0)  # weights blow past 64 bits
    assert HardKxosInstance(3, 63, 1, seed=0).n == 63 + 63**2


@pytest.mark.parametrize(
    "params",
    [
        {"k": 10**9, "n_tilde": 2, "a": 1},
        {"k": 200000, "n_tilde": 2, "a": 1},
        {"k": 3, "n_tilde": 1 << 100000, "a": 1},
    ],
)
def test_kxos_huge_params_rejected_before_block_arithmetic(params):
    doc = {"type": "hard_kxos", "params": params, "seed": 0}
    start = time.perf_counter()
    with pytest.raises(InstanceFormatError, match="64-bit"):
        parse_hidden(doc)
    assert time.perf_counter() - start < 0.5


def test_families_share_one_ground_set():
    for inst in (
        NeedleInstance(12, 6, 3, seed=1),
        HardGeneralInstance(10, 2, seed=1),
        HardKxosInstance(3, 4, 1, seed=1),
    ):
        assert inst.oracle().ground is inst.ground
        assert inst.ground.n == inst.n
        if inst.width is not None:
            assert inst.representation().ground is inst.ground
    assert HardKxosInstance(4, 3, 1, seed=0).n == 3 + 9 + 27
    # GroundSet bounds n for every family
    for bad in (0, -2, 4098):
        with pytest.raises(InstanceFormatError, match="ground size"):
            HardGeneralInstance(bad, 1, seed=0)
    with pytest.raises(InstanceFormatError, match="ground size"):
        NeedleInstance(0, 1, 1, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: NeedleInstance(bad, 3, 2, seed=0),
        lambda bad: NeedleInstance(6, 3, bad, seed=0),
        lambda bad: HardGeneralInstance(8, bad, seed=0),
        lambda bad: HardGeneralInstance(bad, 2, seed=0, remark=True),
        lambda bad: HardKxosInstance(3, bad, 1, seed=0),
        lambda bad: HardKxosInstance(3, 4, bad, seed=0),
    ],
)
@pytest.mark.parametrize("bad", [6.0, True, "6", None])
def test_family_params_must_be_plain_ints(make, bad):
    with pytest.raises(InstanceFormatError, match="must be an integer"):
        make(bad)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "inst",
    [
        NeedleInstance(10, 5, 3, seed=77),
        HardGeneralInstance(8, 2, seed=77),
        HardGeneralInstance(8, 2, seed=77, remark=True),
        HardKxosInstance(3, 4, 1, seed=77),
    ],
)
def test_hidden_roundtrip_preserves_values(inst):
    doc = inst.to_json_dict()
    again = parse_hidden(json.loads(json.dumps(doc)))
    assert again.to_json_dict() == doc
    for mask in (0, 1, 0b1011, (1 << inst.n) - 1):
        assert again.evaluate(mask) == inst.evaluate(mask)


def test_hidden_documents_do_not_leak_planted_sets():
    inst = NeedleInstance(24, 12, 6, seed=123)
    text = json.dumps(inst.to_json_dict())
    assert "planted" not in text
    assert str(inst.planted) not in text.replace("123", "")


def test_parse_hidden_rejections():
    with pytest.raises(InstanceFormatError):
        parse_hidden({"type": "mystery", "params": {}, "seed": 0})
    with pytest.raises(InstanceFormatError):
        parse_hidden({"type": "needle", "params": {"n_hat": 6, "s": 3}, "seed": 0})
    with pytest.raises(InstanceFormatError):
        parse_hidden(
            {"type": "needle", "params": {"n_hat": 6, "s": 3, "t": 2, "x": 1}, "seed": 0}
        )
    with pytest.raises(InstanceFormatError):
        parse_hidden({"type": "needle", "params": {"n_hat": 6, "s": 3, "t": 2}, "seed": -1})
    with pytest.raises(InstanceFormatError):
        parse_hidden({"type": "hard_kxos", "params": {"k": 3, "n_tilde": 4, "a": True}, "seed": 0})


def test_planted_optimum_dispatcher():
    # a loaded document reaches the family's own planted_optimum
    inst = HardGeneralInstance(8, 2, seed=1)
    assert instance_from_dict(inst.to_json_dict()).planted() == inst.planted_optimum()
