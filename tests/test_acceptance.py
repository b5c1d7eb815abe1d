"""Acceptance gate: nine numbered criteria, one verdict line each.

Each test prints ``ACCEPTANCE <n>: PASS/FAIL - <detail>`` (collected into
the terminal summary by conftest) and fails if its criterion fails.
Optimum references use two independent exhaustive routes wherever feasible:
the vectorized dense table (a full 2^n evaluation) and the positive-part
identity max_X f(X) = max_i sum_v max(w_i(v), 0); the unit suite pins both
against counted per-mask brute force on small corpora.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from xosmax import (
    CountingOracle,
    EnumParams,
    HardGeneralInstance,
    HardKxosInstance,
    NeedleInstance,
    SamplingParams,
    check_class,
    enumerate_maximal_cliques,
    materialize,
    random_explicit,
    solve_enum_small_sets,
    solve_exact_2xos,
    solve_exact_star,
    solve_k_minus_1,
    solve_random_sampling,
    uniform_size_probe,
)
from xosmax.classify import CLASS_NAMES, DenseFunction, check_submodular
from xosmax.cli import ExperimentConfig, records_to_csv, run_suite
from xosmax.rng import SplitMix64, sample_mask

from conftest import record_criterion
from helpers import (
    check_submodular_marginal,
    clique_of_rep,
    inclusion_maximal,
    random_star_representation,
)

AVG = statistics.fmean


def oracle_for(rep) -> CountingOracle:
    return CountingOracle.for_representation(rep)


def reference_opt(rep) -> int:
    """Exhaustive table maximum, cross-checked against the identity route."""
    table_max = materialize(rep).max_value()
    assert table_max == rep.exact_maximum(), "exhaustive and identity optima diverge"
    return table_max


def test_criterion_1_exact_width2_solver():
    """1000 seeded 2-XOS instances, n=12, weights in [-8, 8]: the width-2
    solver must equal the exhaustive optimum every time within 6n+10 calls,
    all inside 10 seconds."""
    t0 = time.perf_counter()
    n, cap = 12, 6 * 12 + 10
    mismatches = 0
    over_budget = 0
    max_calls = 0
    for seed in range(1000):
        rep = random_explicit(n, 2, -8, 8, seed=seed)
        report = solve_exact_2xos(oracle_for(rep))
        opt = reference_opt(rep)
        if report.value != opt:
            mismatches += 1
        if report.oracle_calls > cap:
            over_budget += 1
        max_calls = max(max_calls, report.oracle_calls)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and over_budget == 0 and elapsed < 10.0
    record_criterion(
        1,
        ok,
        f"1000/1000 exact, max calls {max_calls} <= {cap}, {elapsed:.1f}s < 10s"
        if ok
        else f"{mismatches} mismatches, {over_budget} over budget, {elapsed:.1f}s",
    )


def test_criterion_2_k_minus_1_approximation():
    """500 instances per width k in {2,3,4,5}, n=10: (k-1)*value >= OPT for
    k >= 3, exact for k=2, calls <= C*k^2*n with C = 2 (measured once at
    a worst observed calls/(k^2*n) of 1.02, pinned here), inside 30 s."""
    t0 = time.perf_counter()
    n = 10
    pinned_c = 2
    ratio_violations = 0
    call_violations = 0
    worst_call_ratio = 0.0
    for k in (2, 3, 4, 5):
        for i in range(500):
            rep = random_explicit(n, k, -8, 8, seed=10_000 * k + i)
            report = solve_k_minus_1(oracle_for(rep))
            opt = reference_opt(rep)
            exact_needed = k == 2
            if exact_needed:
                if report.value != opt:
                    ratio_violations += 1
            elif (k - 1) * report.value < opt:
                ratio_violations += 1
            if report.oracle_calls > pinned_c * k * k * n:
                call_violations += 1
            worst_call_ratio = max(worst_call_ratio, report.oracle_calls / (k * k * n))
    elapsed = time.perf_counter() - t0
    ok = ratio_violations == 0 and call_violations == 0 and elapsed < 30.0
    record_criterion(
        2,
        ok,
        f"2000/2000 within ratio, calls <= {pinned_c}*k^2*n "
        f"(worst calls/k^2n = {worst_call_ratio:.2f}), {elapsed:.1f}s < 30s"
        if ok
        else f"{ratio_violations} ratio violations, {call_violations} call violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_enum_epsilon_n_approximation():
    """epsilon = 1/3 on an n=12 corpus: 4 * value >= OPT in exact rational
    arithmetic, and the query count is exactly sum_{i<=3} C(12,i) = 299
    plus the 12 preprocessing queries. The corpus keeps every singleton
    positive so the retained set is the full ground set and the count is
    deterministic."""
    eps = Fraction(1, 3)
    n = 12
    expected_calls = n + sum(math.comb(n, i) for i in range(4))
    ratio_violations = 0
    call_mismatches = 0
    for i in range(200):
        rep = random_explicit(n, 3, -8, 8, seed=30_000 + i, positive_singletons=True)
        report = solve_enum_small_sets(oracle_for(rep), EnumParams(eps))
        opt = reference_opt(rep)
        if eps * n * report.value < opt:
            ratio_violations += 1
        if report.oracle_calls != expected_calls:
            call_mismatches += 1
    ok = ratio_violations == 0 and call_mismatches == 0
    record_criterion(
        3,
        ok,
        f"200/200 with 4*value >= OPT, every run exactly {expected_calls} calls"
        if ok
        else f"{ratio_violations} ratio violations, {call_mismatches} bad call counts",
    )


def test_criterion_4_sampling_expectation_and_high_probability():
    """On one fixed 2-XOS n=12 instance with known OPT: over 200 seeded runs
    with epsilon=1 and default budgets, mean value >= OPT/rho - 3*stderr
    with rho = 12/ln 12; with the high-probability budget, value >= OPT/rho
    on a 1 - 1/12 - 0.05 fraction of runs.

    At n=12, rho ~ 4.83 sits below the documented fallback threshold
    2e/(e-2) ~ 7.57, so the solver exhausts the retained subsets and both
    clauses hold with value = OPT on every run; a supplementary n=26 run
    (rho ~ 7.98) exercises the genuine sampling path against the same bound.
    """
    n = 12
    rep = random_explicit(n, 2, -8, 8, seed=2024, positive_singletons=True)
    opt = reference_opt(rep)
    rho = n / math.log(n)
    target = opt / rho

    values = [
        solve_random_sampling(oracle_for(rep), SamplingParams(1, seed=s)).value
        for s in range(200)
    ]
    mean = AVG(values)
    stderr = statistics.stdev(values) / math.sqrt(len(values)) if len(set(values)) > 1 else 0.0
    mean_ok = mean >= target - 3 * stderr

    hp_values = [
        solve_random_sampling(
            oracle_for(rep), SamplingParams(1, seed=s, high_probability=True)
        ).value
        for s in range(200)
    ]
    freq = sum(1 for v in hp_values if v >= target) / len(hp_values)
    freq_ok = freq >= 1 - 1 / n - 0.05

    # supplementary: genuine sampling path (no fallback) at n=26
    n2 = 26
    rep2 = random_explicit(n2, 3, -8, 8, seed=7, positive_singletons=True)
    opt2 = rep2.exact_maximum()
    rho2 = n2 / math.log(n2)
    vals2 = [
        solve_random_sampling(oracle_for(rep2), SamplingParams(1, seed=s)).value
        for s in range(50)
    ]
    stderr2 = statistics.stdev(vals2) / math.sqrt(len(vals2)) if len(set(vals2)) > 1 else 0.0
    sampled_ok = AVG(vals2) >= opt2 / rho2 - 3 * stderr2

    ok = mean_ok and freq_ok and sampled_ok
    record_criterion(
        4,
        ok,
        f"mean {mean:.2f} >= {target:.2f}, hp frequency {freq:.3f} >= "
        f"{1 - 1 / n - 0.05:.3f}; sampled-path mean {AVG(vals2):.1f} >= "
        f"{opt2 / rho2:.1f} (OPT {opt2}, rho {rho2:.2f})"
        if ok
        else f"mean_ok={mean_ok} freq_ok={freq_ok} sampled_ok={sampled_ok}",
    )


def test_criterion_5_hardness_instance_fidelity():
    """hard_general(n=8, tau=2): exhaustive optimum is exactly 4 = n/2 for
    50 seeds. hard_kxos(k=3, n_tilde=4, a=1): planted optimum exactly 72,
    per-component maxima exactly 64 = n_tilde^k, for 20 seeds. The n=20
    ground set blocks a full 2^20 scan within budget, so the sanctioned
    substitute runs instead: closed form vs materialized representation on
    1e5 random subsets per seed, plus the identity maximum over the
    representation (which covers all subsets) pinned to 72."""
    general_bad = 0
    for seed in range(50):
        inst = HardGeneralInstance(8, 2, seed=seed)
        table = materialize(inst.evaluate, 8)
        if table.max_value() != 4 or inst.planted_optimum() != (inst.planted, 4):
            general_bad += 1

    kxos_bad = 0
    diffs = 0
    for seed in range(20):
        inst = HardKxosInstance(3, 4, 1, seed=seed)
        rep = inst.representation()
        comps = rep.components
        block_maxima = [c.positive_part_sum() for c in comps[:-1]]
        planted_max = comps[-1].positive_part_sum()
        if not (
            block_maxima == [64, 64]
            and planted_max == 72
            and inst.planted_value() == 72
            and inst.evaluate(inst.planted) == 72
            and rep.exact_maximum() == 72
        ):
            kxos_bad += 1
        rng = SplitMix64(seed + 500)
        masks = np.array([rng.randrange(1 << 20) for _ in range(100_000)], dtype=np.int64)
        bits = (masks[:, None] >> np.arange(20)) & 1
        w = np.array([c.weights for c in comps], dtype=np.int64)
        rep_vals = (bits @ w.T).max(axis=1)
        closed = np.array([inst.evaluate(int(m)) for m in masks], dtype=np.int64)
        diffs += int(np.count_nonzero(rep_vals != closed))

    ok = general_bad == 0 and kxos_bad == 0 and diffs == 0
    record_criterion(
        5,
        ok,
        "50/50 hard_general optima = 4; 20/20 hard_kxos planted = 72, "
        "component maxima = 64, 2e6 sampled closed-form values match the "
        "representation"
        if ok
        else f"{general_bad} hard_general bad, {kxos_bad} hard_kxos bad, {diffs} diffs",
    )


def test_criterion_6_needle_query_direction():
    """needle(n_hat=24, s=12, t=6), 1000 uniform queries per seed over 1000
    seeds: the success frequency must stay below P*(1/2)^t + 3*stderr. With
    P = 1000 that bound exceeds 1, making the literal inequality vacuous,
    so a non-vacuous per-query direction is asserted too: the per-query hit
    rate is below (1/2)^t + 3*stderr, which the planted structure beats by
    half an order of magnitude. Both are also checked two-sided against
    their exact values: a query hits with p = C(12,6)/C(24,6) = 924/134596,
    and a seed succeeds with 1 - (1 - p)^1000; each measurement must lie
    within 4 standard errors of its target."""
    inst = NeedleInstance(24, 12, 6, seed=424242)
    P = 1000
    successes = 0
    for seed in range(1000):
        report = uniform_size_probe(inst.oracle(), 6, P, seed=seed)
        if report.value == 1:
            successes += 1
    freq = successes / 1000
    bound = P * 0.5**6
    stderr = math.sqrt(max(bound * (1 - bound), 0.0) / 1000)
    literal_ok = freq <= bound + 3 * stderr

    draws = 200_000
    rng = SplitMix64(99)
    hits = sum(1 for _ in range(draws) if inst.evaluate(sample_mask(24, 6, rng)) == 1)
    rate = hits / draws
    rate_bound = 0.5**6
    rate_stderr = math.sqrt(rate * (1 - rate) / draws)
    per_query_ok = rate <= rate_bound + 3 * rate_stderr

    hit = Fraction(math.comb(12, 6), math.comb(24, 6))
    assert hit == Fraction(924, 134596)
    success = 1 - (1 - hit) ** P
    rate_sigma = math.sqrt(float(hit * (1 - hit)) / draws)
    freq_sigma = math.sqrt(float(success * (1 - success)) / 1000)
    exact_rate_ok = abs(rate - float(hit)) <= 4 * rate_sigma
    exact_freq_ok = abs(freq - float(success)) <= 4 * freq_sigma

    ok = literal_ok and per_query_ok and exact_rate_ok and exact_freq_ok
    record_criterion(
        6,
        ok,
        f"success frequency {freq:.3f} <= {bound:.3f} (vacuously wide), "
        f"exact {float(success):.5f}; "
        f"per-query rate {rate:.5f} <= {rate_bound:.5f}, exact {float(hit):.5f}"
        if ok
        else f"literal_ok={literal_ok} per_query_ok={per_query_ok} "
        f"exact_rate_ok={exact_rate_ok} exact_freq_ok={exact_freq_ok} freq={freq} rate={rate}",
    )


def test_criterion_7_maximal_cliques_and_star():
    """300 3-XOS instances (n=9, positive singletons so nothing is dropped
    in preprocessing): enumeration is set-equal to the inclusion-maximal
    white-box cliques. 300 star-condition instances (n=10, k=3, built by
    construction): the clique solver matches the exhaustive optimum."""
    clique_bad = 0
    for i in range(300):
        rep = random_explicit(9, 3, -8, 8, seed=70_000 + i, positive_singletons=True)
        got = set(enumerate_maximal_cliques(oracle_for(rep)))
        want = inclusion_maximal(clique_of_rep(rep, j) for j in range(3))
        if got != want:
            clique_bad += 1

    star_bad = 0
    for i in range(300):
        rep = random_star_representation(10, 3, seed=80_000 + i)
        report = solve_exact_star(oracle_for(rep))
        if report.value != reference_opt(rep):
            star_bad += 1

    ok = clique_bad == 0 and star_bad == 0
    record_criterion(
        7,
        ok,
        "300/300 clique families set-equal, 300/300 star instances exact"
        if ok
        else f"{clique_bad} clique mismatches, {star_bad} star mismatches",
    )


def test_criterion_8_classifier_sanity():
    """200 nonnegative additive functions (n=8) pass all five class checks;
    the submodularity verdict agrees with the independent marginal-gain
    route on 200 random dense functions (n=6), and every returned witness
    violates its own inequality."""
    additive_bad = 0
    for seed in range(200):
        f = materialize(random_explicit(8, 1, 0, 8, seed=seed))
        for cls in CLASS_NAMES:
            if not check_class(f, cls)[0]:
                additive_bad += 1

    disagreements = 0
    bad_witnesses = 0
    rng = SplitMix64(314159)
    for _ in range(200):
        f = DenseFunction(6, [rng.randint(-32, 32) for _ in range(1 << 6)])
        pair_ok, pair_w = check_submodular(f)
        marg_ok, marg_w = check_submodular_marginal(f)
        if pair_ok != marg_ok:
            disagreements += 1
        if not pair_ok:
            x, y = pair_w
            if f[x] + f[y] >= f[x | y] + f[x & y]:
                bad_witnesses += 1
        if not marg_ok:
            x, xu, xv = marg_w
            if f[xu] + f[xv] >= f[xu | xv] + f[x]:
                bad_witnesses += 1

    ok = additive_bad == 0 and disagreements == 0 and bad_witnesses == 0
    record_criterion(
        8,
        ok,
        "200/200 nonneg additive pass all five checks; 200/200 submodular "
        "verdicts agree across both routes"
        if ok
        else f"{additive_bad} additive failures, {disagreements} disagreements, "
        f"{bad_witnesses} invalid witnesses",
    )


def test_criterion_9_byte_identical_replay(tmp_path):
    """Any bench suite replayed with the same base_seed produces
    byte-identical CSV, both through the in-process API and the CLI.

    n = 22 keeps the retained set above the exhaustive-fallback cap so the
    genuinely seeded sampling path runs; a per-round budget override keeps
    the four passes quick. A deterministic algorithm would replay
    identically even with broken seeding, which is why this uses sample."""
    doc = {
        "instance": {"type": "hard_general", "params": {"n": 22, "tau": 3}, "seed": 5},
        "algorithm": "sample",
        "trials": 25,
        "base_seed": 99,
        "params": {"epsilon": "1/2", "budget_override": 40},
        "format": "csv",
    }
    config = ExperimentConfig.from_dict(doc)
    csv_a = records_to_csv(run_suite(config))
    csv_b = records_to_csv(run_suite(config))
    in_process_ok = csv_a == csv_b and len(csv_a.splitlines()) == 26

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "xosmax.cli", "bench", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    cli_ok = outs[0] == outs[1] and outs[0] == csv_a.encode()

    ok = in_process_ok and cli_ok
    record_criterion(
        9,
        ok,
        "25-trial suite replayed byte-identically in-process and via the CLI"
        if ok
        else f"in_process_ok={in_process_ok} cli_ok={cli_ok}",
    )
