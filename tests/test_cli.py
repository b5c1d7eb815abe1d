"""Command-line interface: pipelines, formats, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from xosmax import (
    CapExceededError,
    SamplingParams,
    SplitMix64,
    algorithms,
    classify,
    cli,
    random_explicit,
    solve_brute_force,
    solve_random_sampling,
    uniform_size_probe,
)
from xosmax.cli import (
    ALGORITHMS,
    CSV_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    UsageError,
    main,
    records_to_csv,
    records_to_json_lines,
    run_suite,
    run_trial,
    summarize,
)
from xosmax.instances import InstanceHandle, instance_from_dict

from helpers import SOLVER_NAMES

EXPLICIT_DOC = {"type": "explicit", "n": 3, "weights": [[3, -1, 2], [1, 2, -5]]}
NEEDLE_DOC = {"type": "needle", "params": {"n_hat": 8, "s": 4, "t": 2}, "seed": 3}
N21_DOC = {"type": "explicit", "n": 21, "weights": [[1] * 21]}
UNKNOWN_ALGORITHM = (
    "algorithm must be one of enum, sample, exact2, kminus1, star, brute, probe, got "
)


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


def test_the_cli_runs_with_docstrings_stripped():
    # gen's help strings come from the family docstrings, which -OO removes
    r = subprocess.run([sys.executable, "-OO", "-m", "xosmax.cli", "gen", "needle", "--nhat", "8",
                        "--s", "4", "--t", "2"], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["type"] == "needle"


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


def test_solve_forwards_only_the_flags_given(inst_path, monkeypatch):
    # solve builds the params of the equivalent bench config: an unset flag,
    # --high-probability included, is left to the solver's default
    configs = []
    monkeypatch.setattr(cli, "run_suite", lambda config: configs.append(config) or [])
    assert main(["solve", "--algo", "sample", "--epsilon", "1/2", "--instance", inst_path]) == 0
    assert main(["solve", "--algo", "sample", "--epsilon", "1/2", "--high-probability",
                 "--instance", inst_path]) == 0
    assert [c.params for c in configs] == [
        {"epsilon": "1/2"}, {"epsilon": "1/2", "high_probability": True}
    ]


def test_verify_over_cap_builds_no_representation(tmp_path, monkeypatch):
    # hard_general's representation is O(n^2); the materialize cap must stop
    # verify before it is built.
    p = tmp_path / "hg.json"
    p.write_text(json.dumps({"type": "hard_general", "params": {"n": 2000, "tau": 7}, "seed": 0}))
    built = []
    monkeypatch.setattr(InstanceHandle, "representation", lambda self: built.append(self))
    assert main(["verify", "--instance", str(p)]) == 4
    assert built == []


@pytest.mark.parametrize("low", [0, -3], ids=["monotone", "mixed"])
def test_verify_decides_monotonicity_once_per_table(tmp_path, monkeypatch, capsys, low):
    # Only the monotone class check decides monotonicity: the subadditive
    # check of a representation's table reads its certificate instead, so a
    # monotone table (certified) passes without the row walk and a
    # non-subadditive one (never certified) walks the rows once.
    rows = [[low + (v * 7 + i) % 5 for v in range(9)] for i in range(3)]
    p = tmp_path / "rep.json"
    p.write_text(json.dumps({"type": "explicit", "n": 9, "weights": rows}))
    decided, walked = [], []
    verdict, walk = classify.check_monotone, classify._first_subadditive_row
    monkeypatch.setitem(classify._CHECKS, "monotone", lambda f: decided.append(f) or verdict(f))
    monkeypatch.setattr(classify, "_first_subadditive_row", lambda f: walked.append(f) or walk(f))
    assert main(["verify", "--instance", str(p)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(decided) == 1 and len(walked) == (low != 0)
    assert result["monotone"]["ok"] == (low == 0) and result["subadditive"]["ok"] == (low == 0)


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
        ({"type": "hard_general", "params": {"n": 1000, "tau": 7}, "seed": 1}, "kminus1", [],
         "kminus1 expansions and bridges"),
        # brute's and probe's counts are known before any trial: zero trials refuse them too
        (N21_DOC, "brute", ["--trials", "0"], "brute exhaustive search"),
        (NEEDLE_DOC, "probe", ["--queries", "4194304", "--trials", "0"], "probe queries"),
    ],
    ids=["star-n64", "enum-n1000", "kminus1-n200", "kminus1-n1000", "brute-n21-0-trials",
         "probe-0-trials"],
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
    "doc,extra,call",
    [(N21_DOC, ["--algo", "brute"], solve_brute_force),
     (NEEDLE_DOC, ["--algo", "probe", "--queries", "4194304"],
      lambda oracle: uniform_size_probe(oracle, 2, 4194304, 0))],
    ids=["brute-n21", "probe"],
)
def test_a_refused_run_prints_the_same_at_0_and_1_trials(tmp_path, capsys, doc, extra, call):
    # the same bytes at 0 and 1 trials, and the text the library solver raises
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(doc))
    outputs = []
    for trials in ("0", "1"):
        assert main(["solve", *extra, "--instance", str(p), "--trials", trials]) == 4
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    oracle = instance_from_dict(doc).oracle()
    with pytest.raises(CapExceededError) as refused:
        call(oracle)
    assert outputs[0].out == "" and outputs[0].err == f"cap exceeded: {refused.value}\n"
    assert oracle.calls == 0


@pytest.mark.parametrize("weights, sign, total", [
    ([[-(1 << 62)] * 3, [1, 1, 1]], "negative", -3 << 62),
    ([[1 << 62, 1 << 62, 1], [1, 1, 1]], "positive", (1 << 63) + 1),
], ids=["negative", "positive"])
def test_overflow_capable_weights_exit_3_at_load(tmp_path, capsys, weights, sign, total):
    # A component whose subset sums could leave int64 is refused when the
    # instance loads: every solver and verify print the same line and exit
    # 3, at 0 trials as at 1, whichever solver would have reached the sum.
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({"type": "explicit", "n": 3, "weights": weights}))
    want = f"instance error: component's {sign} weight sum {total} outside signed 64-bit range\n"
    commands = [["verify"]] + [
        ["solve", "--algo", algo, "--epsilon", "1", "--trials", trials]
        for algo in ALGORITHMS if algo != "probe" for trials in ("0", "1")
    ]
    for command in commands:
        assert main([*command, "--instance", str(p)]) == 3, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", want), command


def test_sampling_schedule_work_is_bounded(tmp_path, capsys):
    # r^(p+q) and its exact p-th root: a p near 10^5 costs a few powers, a
    # tiny epsilon is refused on a lower bound, and terms too large exit 2
    p = tmp_path / "inst.json"
    rep = random_explicit(26, 3, 1, 8, 5, positive_singletons=True)
    p.write_text(json.dumps(rep.to_json_dict()))
    argv = ["solve", "--algo", "sample", "--instance", str(p), "--seed", "3", "--format", "csv"]
    assert main([*argv, "--epsilon", "1"]) == 0
    want = capsys.readouterr().out
    for epsilon, code in (("100001/100000", 0), ("1/10000000", 4),
                          (f"{10**400 + 1}/{10**399}", 2), ("1000001/1000000", 2)):
        t0 = time.perf_counter()
        assert main([*argv, "--epsilon", epsilon]) == code
        assert time.perf_counter() - t0 < 1.0, epsilon
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out == want
        else:
            assert captured.out == ""
            assert captured.err.startswith({2: "error: ", 4: "cap exceeded: sample rounds: "}[code])
            assert captured.err.count("\n") == 1


def test_sampling_schedule_is_computed_once_per_suite(tmp_path, capsys, monkeypatch):
    # ceil(r^(1/eps + 1)) depends on r and epsilon alone, so a 3-trial suite
    # at a large-p epsilon takes its root once, not once per trial.
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(random_explicit(26, 3, 1, 8, 5, positive_singletons=True).to_json_dict()))
    argv = ["solve", "--algo", "sample", "--instance", str(p), "--seed", "3", "--format", "csv",
            "--trials", "3"]
    assert main([*argv, "--epsilon", "1"]) == 0
    want = capsys.readouterr().out
    roots = []

    def counted(n, d):
        roots.append((n, d))
        return ceil_root(n, d)

    ceil_root = algorithms._ceil_root
    monkeypatch.setattr(algorithms, "_ceil_root", counted)
    algorithms._per_round.cache_clear()
    assert main([*argv, "--epsilon", "100001/100000"]) == 0
    assert capsys.readouterr().out == want
    assert len(roots) == 1 and roots[0][1] == 100001


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


@pytest.mark.parametrize(
    "config,message",
    [
        ([], "config must be a JSON object"),
        ({"instance": 5}, "config field 'instance' must be a document or file path"),
        ({"params": []}, "config field 'params' must be an object"),
        ({"format": "xml"}, "config field 'format' must be 'json' or 'csv'"),
        ({"trials": "2"}, "trials must be a nonnegative integer"),
        ({"algorithm": "nope"}, UNKNOWN_ALGORITHM + "'nope'"),
        ({"algorithm": ["exact2"]}, UNKNOWN_ALGORITHM + "['exact2']"),
        ({"algorithm": {}}, UNKNOWN_ALGORITHM + "{}"),
        (("--algo", "sample"), "sample needs --epsilon (an exact rational like 1/3)"),
        # the options are checked once, when the config is built, so a suite
        # of zero trials refuses what a suite of one refuses
        (("--algo", "enum", "--trials", "0"), "enum needs --epsilon (an exact rational like 1/3)"),
        ({"instance": NEEDLE_DOC, "algorithm": "probe", "trials": 0, "params": {"queries": "10"}},
         "queries must be an integer >= 0, got '10'"),
        ({"algorithm": "probe", "trials": 0}, "probe runs on needle instances only"),
        ({"algorithm": "sample", "trials": 0, "params": {"epsilon": "0"}},
         "epsilon must be positive, got 0"),
    ],
    ids=["not-an-object", "instance", "params", "format", "trials", "algorithm",
         "algorithm-list", "algorithm-object",
         "solve-sample-without-epsilon", "solve-enum-0-trials-without-epsilon",
         "probe-0-trials-string-queries", "probe-0-trials-explicit", "sample-0-trials-epsilon-0"],
)
def test_suite_checks_exit_2_before_any_output(tmp_path, inst_path, capsys, config, message):
    if isinstance(config, tuple):
        argv = ["solve", *config, "--instance", inst_path]
    elif isinstance(config, dict):
        argv = ["bench", "--config", _bench_config(tmp_path, **config)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["bench", "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_run_trial_gives_the_one_unknown_algorithm_message():
    with pytest.raises(UsageError) as info:
        run_trial(instance_from_dict(EXPLICIT_DOC), "nope")
    assert str(info.value) == UNKNOWN_ALGORITHM + "'nope'"


def test_bench_seed_replaces_a_bad_base_seed(tmp_path, capsys):
    # --seed replaces base_seed before the config checks it
    cfg = _bench_config(tmp_path, base_seed=-1, format="json")
    assert main(["bench", "--config", cfg, "--seed", "5"]) == 0
    assert [json.loads(line)["seed"] for line in capsys.readouterr().out.splitlines()] == [5, 6]


@pytest.mark.parametrize("command", ["gen", "solve", "bench", "verify"])
def test_unwritable_out_is_usage_error(tmp_path, inst_path, capsys, command):
    out = tmp_path / "no" / "such" / "x.json"
    argv = {
        "gen": ["gen", "explicit", "--weights", "3,-1,2;1,2,-5"],
        "solve": ["solve", "--algo", "exact2", "--instance", inst_path],
        "bench": ["bench", "--config", _bench_config(tmp_path)],
        "verify": ["verify", "--instance", inst_path],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {out}: " in captured.err
    assert not out.parent.exists()


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
        assert rec.ms >= 0
        if algo == "probe":
            assert (rec.n, rec.k) == (8, None)
            assert (rec.opt, rec.opt_source, rec.calls) == (1, "planted", 20)
            assert rec.value in (0, 1)
        else:
            assert (rec.n, rec.k) == (3, 2)
            assert (rec.value, rec.opt, rec.ratio) == (5, 5, 1.0)
            assert rec.opt_source == "brute"


def test_trials_reach_a_wrapper_in_each_solver_name(monkeypatch):
    # a dispatch that bound the solver functions at import would bypass the
    # wrappers and fail here
    assert set(SOLVER_NAMES) == set(ALGORITHMS)
    seen = []

    def wrap(algo, solver):
        def wrapped(*args, **kwargs):
            seen.append(algo)
            return solver(*args, **kwargs)
        return wrapped

    for algo, name in SOLVER_NAMES.items():
        monkeypatch.setattr(cli, name, wrap(algo, getattr(cli, name)))
    explicit = instance_from_dict(EXPLICIT_DOC)
    needle = instance_from_dict(NEEDLE_DOC)
    params = {"epsilon": "1/3", "queries": 20}
    for algo in ALGORITHMS:
        handle = needle if algo == "probe" else explicit
        assert run_trial(handle, algo, seed=9, **params).algo == algo
        assert len(run_suite(ExperimentConfig(handle, algo, 2, params=params))) == 2
    assert seen == [algo for algo in ALGORITHMS for _ in range(3)]


def test_summary_when_every_ratio_is_infinite():
    # probe with one query misses the planted set on seeds 0 and 1
    config = ExperimentConfig(
        instance_from_dict(NEEDLE_DOC), "probe", 2, base_seed=0, params={"queries": 1}
    )
    lines = summarize(run_suite(config)).splitlines()
    assert lines[:4] == [
        "2 trial(s) of probe on n=8",
        "  calls: min=1 median=1.0 max=1",
        "  ratio (opt/value): all 2 infinite",
        "  optimum hit rate: 0/2",
    ]


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


def test_serialized_bytes_of_a_missed_needle():
    # probe with one query: seed 4 finds the planted set, seed 5 misses it
    config = ExperimentConfig(
        instance_from_dict(NEEDLE_DOC), "probe", 2, base_seed=4, params={"queries": 1}
    )
    hit, miss = (replace(r, ms=1.23456) for r in run_suite(config))
    assert (hit.value, miss.value, miss.opt) == (1, 0, 1)
    assert records_to_csv([miss]).splitlines()[1] == "1,5,probe,8,,0,1,inf,1,0"
    assert records_to_csv([miss], record_timing=True).splitlines()[1] == "1,5,probe,8,,0,1,inf,1,1"
    assert records_to_json_lines([miss]) == (
        '{"trial": 1, "seed": 5, "algo": "probe", "n": 8, "k": null, "value": 0, "opt": 1, '
        '"ratio": "inf", "calls": 1, "ms": 1.235, "opt_source": "planted", '
        '"budget_override": null}\n'
    )
    assert "mean=1.0000 max=1.0000 (+1 infinite)" in summarize([hit, miss])
