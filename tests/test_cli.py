"""Command-line interface: pipelines, formats, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from xosmax import SamplingParams, SplitMix64, cli, solve_random_sampling
from xosmax.cli import (
    ALGORITHMS,
    CSV_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    main,
    records_to_csv,
    run_suite,
    run_trial,
)
from xosmax.instances import InstanceHandle, instance_from_dict

EXPLICIT_DOC = {"type": "explicit", "n": 3, "weights": [[3, -1, 2], [1, 2, -5]]}
NEEDLE_DOC = {"type": "needle", "params": {"n_hat": 8, "s": 4, "t": 2}, "seed": 3}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "xosmax.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


@pytest.fixture()
def inst_path(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(EXPLICIT_DOC))
    return str(p)


def test_gen_solve_pipeline(tmp_path):
    out = tmp_path / "gen.json"
    r = run_cli("gen", "explicit", "--weights", "3,-1,2;1,2,-5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text()) == EXPLICIT_DOC
    s = run_cli("solve", "--algo", "exact2", "--instance", str(out))
    assert s.returncode == 0, s.stderr
    rec = json.loads(s.stdout.splitlines()[0])
    assert rec["value"] == 5
    assert rec["opt"] == 5
    assert rec["ratio"] == 1.0
    assert rec["opt_source"] == "brute"
    assert rec["calls"] <= 6 * 3 + 10


def test_gen_hidden_families(tmp_path):
    for args, kind, params in [
        (["needle", "--nhat", "10", "--s", "5", "--t", "3", "--seed", "4"], "needle",
         {"n_hat": 10, "s": 5, "t": 3}),
        (["hard-general", "--n", "8", "--tau", "2", "--seed", "4"], "hard_general",
         {"n": 8, "tau": 2}),
        (["hard-general", "--n", "8", "--tau", "2", "--seed", "4", "--remark"],
         "hard_general_remark", {"n": 8, "tau": 2}),
        (["hard-kxos", "--k", "3", "--ntilde", "4", "--a", "1", "--seed", "4"], "hard_kxos",
         {"k": 3, "n_tilde": 4, "a": 1}),
    ]:
        out = tmp_path / f"{kind}.json"
        r = run_cli("gen", *args, "--out", str(out))
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        assert doc["type"] == kind
        assert "planted" not in out.read_text()
        # params in document order, byte for byte
        want = {"type": kind, "params": params, "seed": 4}
        assert out.read_text() == json.dumps(want, indent=2) + "\n"


def test_gen_solve_kminus1_past_a_machine_word(tmp_path):
    # hard_kxos(3, 20, 1) has 20 + 400 = 420 elements; the planted optimum
    # is 2 * 19^2 * 20 = 14440 and kminus1 returns one block's 20^3 = 8000,
    # past the best ratio 504/343 that n <= 63 allowed.
    out = tmp_path / "kxos.json"
    r = run_cli("gen", "hard-kxos", "--k", "3", "--ntilde", "20", "--a", "1", "--seed", "5",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "n=420" in r.stderr
    s = run_cli("solve", "--algo", "kminus1", "--instance", str(out))
    assert s.returncode == 0, s.stderr
    rec = json.loads(s.stdout.splitlines()[0])
    assert rec["opt_source"] == "planted"
    assert rec["opt"] == 14440
    assert 2 * rec["value"] >= rec["opt"]
    assert Fraction(rec["opt"], rec["value"]) > Fraction(504, 343)


def test_solve_csv_format(inst_path):
    r = run_cli("solve", "--algo", "brute", "--instance", inst_path, "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[2] == "brute"
    assert cells[5] == "5" and cells[6] == "5"
    assert cells[9] == "0"  # ms column stays 0 without --record-timing


def test_solve_trials_and_seeds(inst_path):
    r = run_cli("solve", "--algo", "sample", "--instance", inst_path,
                "--epsilon", "1/2", "--trials", "3", "--seed", "41")
    assert r.returncode == 0
    recs = [json.loads(line) for line in r.stdout.splitlines()]
    assert [rec["trial"] for rec in recs] == [0, 1, 2]
    assert [rec["seed"] for rec in recs] == [41, 42, 43]


def test_solve_missing_epsilon_is_usage_error(inst_path):
    r = run_cli("solve", "--algo", "enum", "--instance", inst_path)
    assert r.returncode == 2
    assert "epsilon" in r.stderr


def test_solve_rejects_negative_trials(inst_path):
    r = run_cli("solve", "--algo", "exact2", "--instance", inst_path, "--trials", "-1")
    assert r.returncode == 2
    assert "trials" in r.stderr
    assert r.stdout == ""


def test_exit_code_bad_args(inst_path):
    assert run_cli("solve", "--algo", "nonsense", "--instance", inst_path).returncode == 2
    assert run_cli("nonsense-command").returncode == 2
    assert run_cli("solve", "--algo", "enum", "--instance", inst_path,
                   "--epsilon", "0").returncode == 2


def test_exit_code_instance_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "explicit", "n": 2, "weights": [[1]]}')
    r = run_cli("solve", "--algo", "exact2", "--instance", str(bad))
    assert r.returncode == 3
    assert "instance error" in r.stderr
    missing = run_cli("solve", "--algo", "exact2", "--instance", str(tmp_path / "nope.json"))
    assert missing.returncode == 3


def test_exit_code_cap_exceeded(tmp_path):
    doc = {"type": "needle", "params": {"n_hat": 24, "s": 12, "t": 6}, "seed": 0}
    p = tmp_path / "needle.json"
    p.write_text(json.dumps(doc))
    r = run_cli("solve", "--algo", "brute", "--instance", str(p))
    assert r.returncode == 4
    v = run_cli("verify", "--instance", str(p))
    assert v.returncode == 4


def test_brute_over_cap_exits_4_at_once(tmp_path):
    # the cap is a constant: no flag raises it, so an n=21 brute run ends at once
    p = tmp_path / "n21.json"
    p.write_text(json.dumps({"type": "explicit", "n": 21, "weights": [[1] * 21]}))
    t0 = time.perf_counter()
    assert main(["solve", "--algo", "brute", "--instance", str(p)]) == 4
    assert time.perf_counter() - t0 < 1.0
    for command in (["solve", "--algo", "brute", "--instance", str(p)],
                    ["bench", "--config", str(p)]):
        assert main([*command, "--brute-cap", "30"]) == 2


def test_solve_flags_reach_the_solver(tmp_path, inst_path):
    needle = tmp_path / "needle.json"
    needle.write_text(json.dumps(NEEDLE_DOC))
    r = run_cli("solve", "--algo", "probe", "--instance", str(needle), "--queries", "7")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["calls"] == 7

    r = run_cli("solve", "--algo", "sample", "--instance", inst_path, "--epsilon", "1/2",
                "--budget-override", "3", "--high-probability", "--seed", "11")
    assert r.returncode == 0, r.stderr
    rec = json.loads(r.stdout)
    params = SamplingParams("1/2", seed=11, sample_budget_override=3, high_probability=True)
    report = solve_random_sampling(instance_from_dict(EXPLICIT_DOC).oracle(), params)
    assert (rec["value"], rec["calls"]) == (report.value, report.oracle_calls)
    assert rec["budget_override"] == 3


def test_verify_over_cap_builds_no_representation(tmp_path, monkeypatch):
    # hard_general's representation is O(n^2); the materialize cap must stop
    # verify before it is built.
    p = tmp_path / "hg.json"
    p.write_text(json.dumps({"type": "hard_general", "params": {"n": 2000, "tau": 7}, "seed": 0}))
    built = []
    monkeypatch.setattr(InstanceHandle, "representation", lambda self: built.append(self))
    assert main(["verify", "--instance", str(p)]) == 4
    assert built == []


def test_huge_kxos_exits_3_quickly(tmp_path):
    p = tmp_path / "kxos.json"
    p.write_text(json.dumps(
        {"type": "hard_kxos", "params": {"k": 10**9, "n_tilde": 2, "a": 1}, "seed": 0}
    ))
    v = run_cli("verify", "--instance", str(p))
    assert v.returncode == 3
    assert "64-bit" in v.stderr
    g = run_cli("gen", "hard-kxos", "--k", str(10**9), "--ntilde", "2", "--a", "1",
                "--seed", "0")
    assert g.returncode == 3


def _bench_config(tmp_path, **fields):
    cfg = {"instance": EXPLICIT_DOC, "algorithm": "exact2", "trials": 2, **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("case", ["solve_seed", "bench_seed", "config_base_seed", "gen_seed"])
def test_seed_outside_u64_is_usage_error(tmp_path, inst_path, case):
    if case == "solve_seed":
        r = run_cli("solve", "--algo", "exact2", "--instance", inst_path, "--seed", "-1")
    elif case == "gen_seed":
        r = run_cli("gen", "needle", "--nhat", "10", "--s", "5", "--t", "3", "--seed", "-1")
    elif case == "bench_seed":
        r = run_cli("bench", "--config", _bench_config(tmp_path), "--seed", "-1")
    else:
        r = run_cli("bench", "--config", _bench_config(tmp_path, base_seed=(1 << 64) + 4))
    assert r.returncode == 2, r.stderr
    assert "seed must be an unsigned 64-bit integer in [0, 2^64)" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("entry", ["cli_flag", "document", "library"])
def test_one_seed_message_at_every_entry(tmp_path, inst_path, capsys, entry):
    # rng.check_seed owns the text; each entry point keeps its exit code or type
    text = "seed must be an unsigned 64-bit integer in [0, 2^64), got -1"
    if entry == "library":
        with pytest.raises(ValueError) as info:
            SamplingParams(1, seed=-1)
        assert str(info.value) == text
        return
    if entry == "cli_flag":
        argv, code = ["solve", "--algo", "exact2", "--instance", inst_path, "--seed", "-1"], 2
    else:
        p = tmp_path / "needle.json"
        p.write_text(json.dumps(dict(NEEDLE_DOC, seed=-1)))
        argv, code = ["solve", "--algo", "exact2", "--instance", str(p)], 3
    assert main(argv) == code
    assert capsys.readouterr().err.rstrip("\n").endswith(text)


@pytest.mark.parametrize(
    "doc,algo,extra,phase",
    [
        ({"type": "hard_general", "params": {"n": 64, "tau": 4}, "seed": 1}, "star", [],
         "star round 3"),
        ({"type": "hard_general", "params": {"n": 1000, "tau": 7}, "seed": 1}, "enum",
         ["--epsilon", "1/3"], "enum subsets of size <= 3"),
        ({"type": "hard_general", "params": {"n": 200, "tau": 5}, "seed": 1}, "kminus1", [],
         "kminus1 expansions and bridges"),
    ],
    ids=["star-n64", "enum-n1000", "kminus1-n200"],
)
def test_runs_past_the_query_limit_exit_4_at_once(tmp_path, capsys, doc, algo, extra, phase):
    # each phase's worst case would cross MAX_QUERIES: refused at once, phase named
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["solve", "--algo", algo, "--instance", str(p), *extra]) == 4
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert f"cap exceeded: {phase}:" in err and "limit of 2097152" in err


@pytest.mark.parametrize(
    "algorithm,key,value",
    [("sample", "budget_override", "40"), ("sample", "high_probability", "no"),
     ("probe", "queries", "10")],
)
def test_bench_rejects_mistyped_params(tmp_path, algorithm, key, value):
    instance = NEEDLE_DOC if algorithm == "probe" else EXPLICIT_DOC
    params = {"epsilon": "1/2", key: value}
    cfg = _bench_config(tmp_path, instance=instance, algorithm=algorithm, params=params)
    r = run_cli("bench", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert key in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_bench_rejects_unknown_params(tmp_path):
    params = {"epsilon": "1/2", "budget-override": 1}
    cfg = _bench_config(tmp_path, algorithm="sample", params=params)
    r = run_cli("bench", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert "'budget-override'" in r.stderr
    assert "accepted: epsilon, budget_override, high_probability, queries" in r.stderr
    assert r.stdout == ""


def test_main_reuses_one_parser(tmp_path, inst_path):
    # consecutive in-process calls share the parser; no option leaks across
    out = tmp_path / "out.txt"
    assert main(["solve", "--algo", "exact2", "--instance", inst_path, "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    parser = cli._parser()
    assert main(["solve", "--algo", "exact2", "--instance", inst_path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == 5
    assert main(["verify", "--instance", inst_path, "--out", str(out)]) == 0
    assert cli._parser() is parser
    assert main(["solve", "--algo", "nope", "--instance", inst_path]) == 2


def test_probe_requires_needle(inst_path):
    r = run_cli("solve", "--algo", "probe", "--instance", inst_path)
    assert r.returncode == 2


def test_bench_byte_identical_replay(tmp_path, inst_path):
    cfg = {
        "instance": EXPLICIT_DOC,
        "algorithm": "sample",
        "trials": 6,
        "base_seed": 7,
        "params": {"epsilon": "1/2"},
        "format": "csv",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("bench", "--config", str(cfg_path), "--out", str(out1)).returncode == 0
    assert run_cli("bench", "--config", str(cfg_path), "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == ",".join(CSV_COLUMNS)


def test_bench_zero_trials_header_only(tmp_path):
    cfg = {"instance": EXPLICIT_DOC, "algorithm": "exact2", "trials": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r = run_cli("bench", "--config", str(cfg_path))
    assert r.returncode == 0
    assert r.stdout == ",".join(CSV_COLUMNS) + "\n"


def test_bench_instance_by_relative_path(tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps(EXPLICIT_DOC))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"instance": "inst.json", "algorithm": "exact2", "trials": 1}
    ))
    r = run_cli("bench", "--config", str(cfg_path))
    assert r.returncode == 0
    assert r.stdout.splitlines()[1].split(",")[5] == "5"


def test_bench_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instance": EXPLICIT_DOC, "algorithm": "exact2"}))
    assert run_cli("bench", "--config", str(cfg_path)).returncode == 2
    cfg_path.write_text("{nope")
    assert run_cli("bench", "--config", str(cfg_path)).returncode == 2
    assert run_cli("bench", "--config", str(tmp_path / "missing.json")).returncode == 2


def test_verify_output_shape(inst_path):
    r = run_cli("verify", "--instance", inst_path)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {"normalized", "monotone", "additive", "submodular",
                        "subadditive", "star_condition"}
    assert doc["normalized"] == {"ok": True, "witness": None}
    assert doc["monotone"]["ok"] is False
    assert doc["monotone"]["witness"] == [4, 6]
    assert doc["star_condition"]["ok"] is False
    assert "monotone: FAIL" in r.stderr


def test_verify_hidden_without_representation(tmp_path):
    remark = {"type": "hard_general_remark", "params": {"n": 8, "tau": 2}, "seed": 3}
    outs = {}
    for doc in (NEEDLE_DOC, remark):
        p = tmp_path / f"{doc['type']}.json"
        p.write_text(json.dumps(doc))
        r = run_cli("verify", "--instance", str(p))
        assert r.returncode == 0, r.stderr
        outs[doc["type"]] = out = json.loads(r.stdout)
        assert out["star_condition"] is None
        assert "star condition: not applicable" in r.stderr
    # the remark variant's floor applies at the empty set too
    assert outs["hard_general_remark"]["normalized"] == {"ok": False, "witness": [0]}
    out = outs["needle"]
    assert out["normalized"]["ok"] is True
    # the threshold function is not monotone: adding an element outside the
    # planted set drops the value from 1 to 0
    assert out["monotone"]["ok"] is False


def test_verify_hidden_with_representation(tmp_path):
    doc = {"type": "hard_general", "params": {"n": 8, "tau": 2}, "seed": 3}
    p = tmp_path / "hg.json"
    p.write_text(json.dumps(doc))
    r = run_cli("verify", "--instance", str(p))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["star_condition"] is not None
    assert out["subadditive"]["ok"] is True


def test_verify_width_one_at_cap(tmp_path):
    # n = 16 is the materialize cap; a nonnegative width-1 table passes every
    # check. At n = 14 with weights shifted by 58 the table's values reach
    # 26 * 2^58 > 2^62, so it is held as Python ints and the same routes run.
    for n, shift in ((16, 0), (14, 58)):
        doc = {"type": "explicit", "n": n, "weights": [[(v % 5) << shift for v in range(n)]]}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "verify.json"
        assert main(["verify", "--instance", str(p), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result == {name: {"ok": True, "witness": None} for name in result}
        assert len(result) == 6


def test_record_timing_changes_only_ms(inst_path):
    plain = run_cli("solve", "--algo", "exact2", "--instance", inst_path, "--format", "csv")
    timed = run_cli("solve", "--algo", "exact2", "--instance", inst_path, "--format", "csv",
                    "--record-timing")
    row_plain = plain.stdout.strip().splitlines()[1].split(",")
    row_timed = timed.stdout.strip().splitlines()[1].split(",")
    assert row_plain[:9] == row_timed[:9]
    assert row_plain[9] == "0"
    int(row_timed[9])  # parses as an integer


# ---------------------------------------------------------------------------
# in-process harness API


def test_run_trial_record_fields():
    # every solver the CLI dispatches; probe runs on a needle instance
    explicit = instance_from_dict(EXPLICIT_DOC)
    needle = instance_from_dict(NEEDLE_DOC)
    for algo in ALGORITHMS:
        handle = needle if algo == "probe" else explicit
        rec = run_trial(handle, algo, trial=3, seed=9, epsilon="1/3", queries=20)
        assert isinstance(rec, TrialRecord)
        assert (rec.trial, rec.seed, rec.algo) == (3, 9, algo)
        assert rec.wall_time_ms >= 0
        if algo == "probe":
            assert (rec.n, rec.k) == (8, None)
            assert (rec.opt, rec.opt_source, rec.calls) == (1, "planted", 20)
            assert rec.value in (0, 1)
        else:
            assert (rec.n, rec.k) == (3, 2)
            assert (rec.value, rec.opt, rec.ratio) == (5, 5, 1.0)
            assert rec.opt_source == "brute"


def test_run_suite_and_csv_shape():
    cfg = ExperimentConfig.from_dict(
        {
            "instance": EXPLICIT_DOC,
            "algorithm": "sample",
            "trials": 4,
            "base_seed": (1 << 64) - 2,
            "params": {"epsilon": "1/2"},
        }
    )
    records = run_suite(cfg)
    assert [r.trial for r in records] == [0, 1, 2, 3]
    # the per-trial seed wraps around the 64-bit boundary
    assert [r.seed for r in records] == [(1 << 64) - 2, (1 << 64) - 1, 0, 1]
    text = records_to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert all(line.split(",")[9] == "0" for line in lines[1:])


def test_ratio_of_zero_value():
    # all-negative instance: solvers return the empty set at value 0; a
    # zero optimum gives ratio 1
    doc = {"type": "explicit", "n": 2, "weights": [[-1, -2]]}
    rec = run_trial(instance_from_dict(doc), "exact2")
    assert (rec.value, rec.opt, rec.ratio) == (0, 0, 1.0)
