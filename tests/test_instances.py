"""Instance documents: loading, dumping, optimum provenance, generation."""

from __future__ import annotations

import json

import pytest

from xosmax import (
    InstanceFormatError,
    dump_instance,
    instance_from_dict,
    load_instance,
    random_explicit,
)

from helpers import ref_brute_max, ref_rep_value, rep_as_lists

EXPLICIT_DOC = {"type": "explicit", "n": 3, "weights": [[3, -1, 2], [1, 2, -5]]}


def test_explicit_handle_basics():
    h = instance_from_dict(EXPLICIT_DOC)
    assert h.kind == "explicit"
    assert (h.n, h.width) == (3, 2)
    oracle = h.oracle()
    assert oracle.evaluate(0b101) == 5
    assert h.oracle().calls == 0  # fresh oracle per call
    assert h.planted() is None
    assert h.exact_optimum(cap=20) == (5, "brute")


def test_hidden_handle_provenance():
    needle = instance_from_dict(
        {"type": "needle", "params": {"n_hat": 24, "s": 12, "t": 6}, "seed": 1}
    )
    assert needle.exact_optimum(cap=20) == (1, "planted")
    hg = instance_from_dict(
        {"type": "hard_general", "params": {"n": 8, "tau": 2}, "seed": 1}
    )
    assert hg.exact_optimum(cap=20) == (4, "planted")
    # out-of-regime planted set: the O(kn) identity over its representation
    kx = instance_from_dict(
        {"type": "hard_kxos", "params": {"k": 3, "n_tilde": 3, "a": 1}, "seed": 1}
    )
    assert kx.planted() is None
    assert kx.exact_optimum(cap=20) == (27, "brute")
    assert kx.exact_optimum(cap=10) == (27, "brute")


def test_hard_kxos_identity_optimum_matches_scan():
    # n=12 and (k-1)(n_tilde-a)^2 < n_tilde^2: the planted set is not optimal
    for seed in range(5):
        h = instance_from_dict(
            {"type": "hard_kxos", "params": {"k": 3, "n_tilde": 3, "a": 1}, "seed": seed}
        )
        assert h.n == 12 and h.planted() is None
        want, _ = ref_brute_max(h.hidden.evaluate, h.n)
        assert h.exact_optimum(cap=0) == (want, "brute")


def test_remark_variant_optimum_is_planted():
    h = instance_from_dict(
        {"type": "hard_general_remark", "params": {"n": 8, "tau": 2}, "seed": 5}
    )
    # planted value still applies (the variant only changes the empty set)
    opt, source = h.exact_optimum(cap=20)
    assert (opt, source) == (4, "planted")


def test_dump_load_roundtrip(tmp_path):
    h = instance_from_dict(EXPLICIT_DOC)
    text = dump_instance(h)
    assert json.loads(text) == EXPLICIT_DOC
    path = tmp_path / "inst.json"
    path.write_text(text)
    again = load_instance(path)
    assert again.explicit.to_json_dict() == EXPLICIT_DOC
    from_string = load_instance(text)
    assert from_string.explicit.to_json_dict() == EXPLICIT_DOC
    from_dict = load_instance(EXPLICIT_DOC)
    assert from_dict.explicit.to_json_dict() == EXPLICIT_DOC


def test_load_missing_file():
    with pytest.raises(InstanceFormatError):
        load_instance("no/such/file.json")


def test_load_long_json_text(tmp_path):
    # JSON text longer than a file name may be is still read as JSON
    doc = {"type": "explicit", "n": 60, "weights": [[v % 7 for v in range(60)]] * 2}
    text = "  " + json.dumps(doc)
    assert len(text) > 255
    assert load_instance(text).explicit.to_json_dict() == doc
    # a Path is always a file, whatever its name looks like
    with pytest.raises(InstanceFormatError, match="not found"):
        load_instance(tmp_path / "{}")


def test_instance_from_dict_rejects_unknown_type():
    with pytest.raises(InstanceFormatError):
        instance_from_dict({"type": "wavelet", "params": {}, "seed": 0})
    with pytest.raises(InstanceFormatError):
        instance_from_dict([1, 2, 3])


def test_random_explicit_shape_and_determinism():
    a = random_explicit(6, 3, -8, 8, seed=42)
    b = random_explicit(6, 3, -8, 8, seed=42)
    assert rep_as_lists(a) == rep_as_lists(b)
    assert a.n == 6 and a.width == 3
    assert all(-8 <= w <= 8 for row in rep_as_lists(a) for w in row)
    c = random_explicit(6, 3, -8, 8, seed=43)
    assert rep_as_lists(c) != rep_as_lists(a)


def test_random_explicit_positive_singletons():
    for seed in range(30):
        rep = random_explicit(8, 2, -8, 8, seed=seed, positive_singletons=True)
        rows = rep_as_lists(rep)
        for v in range(8):
            assert max(row[v] for row in rows) > 0


def test_random_explicit_validation():
    with pytest.raises(InstanceFormatError):
        random_explicit(4, 0, -1, 1, seed=0)
    with pytest.raises(InstanceFormatError):
        random_explicit(4, 2, 5, 4, seed=0)
    with pytest.raises(InstanceFormatError):
        random_explicit(4, 2, -5, -1, seed=0, positive_singletons=True)


def test_exact_optimum_agrees_with_reference():
    for seed in range(20):
        rep = random_explicit(8, 3, -8, 8, seed=seed)
        h = instance_from_dict(rep.to_json_dict())
        opt, source = h.exact_optimum(cap=20)
        want, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 8)
        assert source == "brute"
        assert opt == want
