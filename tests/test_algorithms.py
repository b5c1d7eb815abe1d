"""Solver behavior on worked examples, random corpora, and query budgets."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import pytest

from xosmax import (
    CapExceededError,
    CountingOracle,
    EnumParams,
    SamplingParams,
    MAX_GROUND_SIZE,
    MAX_QUERIES,
    NeedleInstance,
    XosRepresentation,
    enumerate_maximal_cliques,
    preprocess,
    random_explicit,
    solve_brute_force,
    solve_enum_small_sets,
    solve_exact_2xos,
    solve_exact_star,
    solve_k_minus_1,
    solve_random_sampling,
    uniform_size_probe,
)
from xosmax import core
from xosmax.algorithms import (
    RHO_FALLBACK_THRESHOLD,
    _ceil_root,
    _grow_from,
    _sampling_schedule,
    _scan_singletons,
    as_fraction,
)

from helpers import (
    clique_of,
    clique_of_rep,
    inclusion_maximal,
    random_rep,
    random_star_representation,
    ref_brute_max,
    ref_rep_value,
    rep_as_lists,
)

EXAMPLE = XosRepresentation.from_weights([[3, -1, 2], [1, 2, -5]])


def oracle_for(rep: XosRepresentation) -> CountingOracle:
    return CountingOracle.for_representation(rep)


def check_report(rep, report):
    """Reported value must equal f(output), recomputed outside the oracle."""
    assert report.value == ref_rep_value(rep_as_lists(rep), report.output)


def grow_clique(oracle: CountingOracle, start: int, universe: int) -> int:
    """The solvers' additive closure of {start} inside ``universe``."""
    _, singles = _scan_singletons(oracle)
    return _grow_from(oracle, 1 << start, singles[start], universe, singles)[0]


# ---------------------------------------------------------------------------
# preprocess / additive closures


def test_preprocess_keeps_strictly_positive_singletons():
    assert preprocess(oracle_for(EXAMPLE)) == 0b111
    assert preprocess(oracle_for(XosRepresentation.from_weights([[0, 5]]))) == 0b10
    assert preprocess(oracle_for(XosRepresentation.from_weights([[-1], [-2]]))) == 0


def test_preprocess_costs_exactly_n():
    oracle = oracle_for(EXAMPLE)
    preprocess(oracle)
    assert oracle.calls == 3


def test_grow_clique_examples():
    assert grow_clique(oracle_for(EXAMPLE), 0, 0b111) == 0b101
    assert grow_clique(oracle_for(EXAMPLE), 1, 0b111) == 0b010
    width1 = XosRepresentation.from_weights([[4, 7, 1]])
    assert grow_clique(oracle_for(width1), 2, 0b111) == 0b111


def test_grown_sets_are_additive():
    for seed in range(30):
        rep = random_rep(n=8, k=3, seed=seed, positive_singletons=True)
        oracle = oracle_for(rep)
        universe = preprocess(oracle)
        rows = rep_as_lists(rep)
        for start in range(8):
            g = grow_clique(oracle, start, universe)
            singles = sum(max(row[v] for row in rows) for v in range(8) if (g >> v) & 1)
            assert ref_rep_value(rows, g) == singles


# ---------------------------------------------------------------------------
# enumeration solver


def test_enum_example():
    report = solve_enum_small_sets(oracle_for(EXAMPLE), EnumParams(Fraction(1, 3)))
    assert report.value == 5
    assert report.output == 0b101


def test_enum_cap_one_returns_best_singleton():
    rep = XosRepresentation.from_weights([[3, -1, 2], [1, 2, -5]])
    report = solve_enum_small_sets(oracle_for(rep), EnumParams(1))
    assert report.value == 3
    assert report.output == 0b001


def test_enum_query_count_is_exact():
    # n + sum_{i<=cap} C(r, i) with r = retained size
    rep = random_rep(n=10, k=3, seed=4, positive_singletons=True)
    oracle = oracle_for(rep)
    report = solve_enum_small_sets(oracle, EnumParams(Fraction(1, 2)))
    assert report.oracle_calls == 10 + (1 + 10 + 45)
    assert oracle.calls == report.oracle_calls


def test_enum_guarantee_on_corpus():
    eps = Fraction(1, 3)
    for seed in range(50):
        rep = random_rep(n=9, k=3, seed=seed)
        report = solve_enum_small_sets(oracle_for(rep), EnumParams(eps))
        opt, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 9)
        assert eps * 9 * report.value >= opt
        check_report(rep, report)


def test_as_fraction_rejects_floats_and_nonpositive():
    assert as_fraction("2/5") == Fraction(2, 5)
    assert as_fraction(2) == 2
    with pytest.raises(ValueError):
        as_fraction(0.5)
    with pytest.raises(ValueError):
        as_fraction(0)
    with pytest.raises(ValueError):
        as_fraction("-1/3")
    with pytest.raises(ValueError):
        as_fraction("junk")


# ---------------------------------------------------------------------------
# sampling solver


@pytest.mark.parametrize("seed", [True, 1.5, -1, 1 << 64, "7"])
def test_sampling_params_check_the_seed_at_construction(seed):
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        SamplingParams(1, seed=seed)


def test_ceil_root_exactness():
    assert _ceil_root(27, 3) == 3
    assert _ceil_root(28, 3) == 4
    assert _ceil_root(1, 5) == 1
    assert _ceil_root(676, 1) == 676
    for n in (2, 63, 64, 65, 10**12 + 7):
        for d in (2, 3, 7):
            t = _ceil_root(n, d)
            assert t**d >= n and (t - 1) ** d < n


def test_sampling_single_element_fallback():
    rep = XosRepresentation.from_weights([[7]])
    report = solve_random_sampling(oracle_for(rep), SamplingParams(Fraction(1, 2)))
    assert report.output == 0b1
    assert report.value == 7


def test_sampling_fallback_is_exhaustive_below_threshold():
    # rho = eps*r/ln r stays below the threshold for these sizes, so the
    # solver enumerates and must match brute force exactly
    for seed in range(20):
        rep = random_rep(n=8, k=3, seed=seed)
        report = solve_random_sampling(oracle_for(rep), SamplingParams(1, seed=seed))
        opt, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 8)
        assert report.value == opt
        check_report(rep, report)


def test_sampling_is_deterministic_per_seed():
    rep = random_rep(n=26, k=3, seed=3, positive_singletons=True)
    params = SamplingParams(1, seed=99, sample_budget_override=40)
    r1 = solve_random_sampling(oracle_for(rep), params)
    r2 = solve_random_sampling(oracle_for(rep), params)
    assert r1 == r2


def test_sampling_budget_override_and_call_count():
    # rho = 26/ln 26 ~ 7.98 clears the fallback threshold, so the genuine
    # sampling path runs: rounds = ceil(2 ln 26) = 7, override samples each
    rep = random_rep(n=26, k=3, seed=5, positive_singletons=True)
    oracle = oracle_for(rep)
    report = solve_random_sampling(oracle, SamplingParams(1, seed=1, sample_budget_override=11))
    assert report.budget_override == 11
    assert report.oracle_calls == 26 + 7 * 11
    check_report(rep, report)


def test_sampling_high_probability_multiplies_budget():
    rep = random_rep(n=26, k=3, seed=5, positive_singletons=True)
    oracle = oracle_for(rep)
    report = solve_random_sampling(
        oracle, SamplingParams(1, seed=1, sample_budget_override=2, high_probability=True)
    )
    # ceil(2*eps*r) = 52-fold budget on top of the override
    assert report.oracle_calls == 26 + 7 * 2 * 52


def test_fallback_threshold_value():
    assert 7.56 < RHO_FALLBACK_THRESHOLD < 7.58


def test_sampling_schedule_floats_are_exact_up_to_cap():
    # The fallback test (p/q)*r/ln(r) < 2e/(e-2) and the round count
    # ceil(2*ln(r)*q/p) are float expressions; against 60-digit decimals they
    # must decide the same for every ground size the package accepts.
    pairs = [(p, q) for p in range(1, 13) for q in range(1, 13) if math.gcd(p, q) == 1]
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(1).exp()
        threshold = 2 * e / (e - 2)
        # ln(r) = ln(d) + ln(r/d) for the least factor d: one ln per prime
        log = [Decimal(0), Decimal(0)]
        for r in range(2, MAX_GROUND_SIZE + 1):
            d = next((d for d in range(2, math.isqrt(r) + 1) if r % d == 0), None)
            log.append(log[d] + log[r // d] if d else Decimal(r).ln())
        mismatches = []
        for r in range(2, MAX_GROUND_SIZE + 1):
            # fallback iff p*r < q*threshold*ln(r); rounds - 1 < 2q*ln(r)/p < rounds
            below = [q * threshold * log[r] for q in range(13)]
            twice = [2 * q * log[r] for q in range(13)]
            for p, q in pairs:
                fallback, rounds = _sampling_schedule(r, p, q)
                if fallback != (p * r < below[q]) or not p * (rounds - 1) < twice[q] < p * rounds:
                    mismatches.append((r, p, q))
    assert mismatches == []


# ---------------------------------------------------------------------------
# width-2 exact solver


def test_exact2_example():
    report = solve_exact_2xos(oracle_for(EXAMPLE))
    assert report.value == 5
    assert report.output == 0b101


def test_exact2_additive_equal_components():
    rep = XosRepresentation.from_weights([[1, 1, 1], [1, 1, 1]])
    report = solve_exact_2xos(oracle_for(rep))
    assert report.output == 0b111
    assert report.value == 3


def test_exact2_empty_retained():
    rep = XosRepresentation.from_weights([[-1, -2], [-3, -1]])
    report = solve_exact_2xos(oracle_for(rep))
    assert (report.output, report.value) == (0, 0)
    assert report.oracle_calls == 2


NONPOSITIVE_SINGLETONS = [
    XosRepresentation.from_weights([[-1, -2], [-3, -1]]),
    XosRepresentation.from_weights([[0, 0, 0]]),
    XosRepresentation.from_weights([[-(v % 3) for v in range(70)], [-(v % 5) for v in range(70)]]),
]


@pytest.mark.parametrize("rep", NONPOSITIVE_SINGLETONS, ids=lambda rep: f"n{rep.n}")
def test_no_retained_element_gives_empty_set(rep):
    # nothing survives preprocessing; only enum queries past it (the empty set)
    solvers = {
        "enum": lambda o: solve_enum_small_sets(o, EnumParams("1/2")),
        "sample": lambda o: solve_random_sampling(o, SamplingParams("1/2", seed=3)),
        "exact2": solve_exact_2xos,
        "kminus1": solve_k_minus_1,
        "star": solve_exact_star,
    }
    for name, solver in solvers.items():
        report = solver(oracle_for(rep))
        assert (report.algorithm, report.output, report.value) == (name, 0, 0)
        assert report.oracle_calls == rep.n + (name == "enum"), name
    oracle = oracle_for(rep)
    assert enumerate_maximal_cliques(oracle) == ()
    assert oracle.calls == rep.n


def test_exact2_matches_brute_on_corpus():
    for seed in range(150):
        rep = random_rep(n=10, k=2, seed=seed)
        oracle = oracle_for(rep)
        report = solve_exact_2xos(oracle)
        opt, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 10)
        assert report.value == opt, f"seed {seed}"
        assert report.oracle_calls <= 6 * 10 + 10
        check_report(rep, report)


def test_exact2_past_a_machine_word():
    n = 1000
    for seed in range(2):
        rep = random_explicit(n, 2, -8, 8, seed)
        report = solve_exact_2xos(oracle_for(rep))
        identity = max(sum(max(w, 0) for w in row) for row in rep_as_lists(rep))
        assert report.value == identity, f"seed {seed}"
        assert report.oracle_calls <= 6 * n + 10
        check_report(rep, report)


# ---------------------------------------------------------------------------
# (k-1)-approximation


def test_kminus1_width1_returns_everything():
    rep = XosRepresentation.from_weights([[4, 7, 1]])
    report = solve_k_minus_1(oracle_for(rep))
    assert report.output == 0b111
    assert report.value == 12


def test_kminus1_exact_for_width2():
    for seed in range(60):
        rep = random_rep(n=9, k=2, seed=seed)
        report = solve_k_minus_1(oracle_for(rep))
        opt, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 9)
        assert report.value == opt, f"seed {seed}"


def test_kminus1_ratio_and_calls_on_corpus():
    for k in (3, 4):
        for seed in range(40):
            rep = random_rep(n=9, k=k, seed=1000 * k + seed)
            oracle = oracle_for(rep)
            report = solve_k_minus_1(oracle)
            opt, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 9)
            assert (k - 1) * report.value >= opt
            assert report.oracle_calls <= 2 * k * k * 9 + 10
            check_report(rep, report)


# ---------------------------------------------------------------------------
# maximal cliques and the star solver


def test_enumerate_maximal_cliques_example():
    assert set(enumerate_maximal_cliques(oracle_for(EXAMPLE))) == {0b101, 0b010}


def test_enumerate_maximal_cliques_width1():
    rep = XosRepresentation.from_weights([[4, 7, 1]])
    assert set(enumerate_maximal_cliques(oracle_for(rep))) == {0b111}


def test_enumerate_matches_whitebox_cliques():
    for seed in range(60):
        rep = random_rep(n=8, k=3, seed=seed, positive_singletons=True)
        got = set(enumerate_maximal_cliques(oracle_for(rep)))
        want = inclusion_maximal(clique_of_rep(rep, i) for i in range(3))
        assert got == want, f"seed {seed}"


def test_clique_of_agrees_with_reference():
    for seed in range(20):
        rep = random_rep(n=7, k=3, seed=seed)
        for i in range(3):
            assert clique_of(rep, i) == clique_of_rep(rep, i)


def test_star_example():
    rep = XosRepresentation.from_weights([[5, 0, -3], [-2, 4, 6]])
    report = solve_exact_star(oracle_for(rep))
    assert report.value == 10
    assert report.output == 0b110


def test_star_exact_on_constructed_instances():
    for seed in range(60):
        rep = random_star_representation(n=9, k=3, seed=seed)
        report = solve_exact_star(oracle_for(rep))
        opt, _ = ref_brute_max(lambda m: ref_rep_value(rep_as_lists(rep), m), 9)
        assert report.value == opt, f"seed {seed}"
        check_report(rep, report)


# ---------------------------------------------------------------------------
# brute force


def test_brute_example_and_tie_break():
    report = solve_brute_force(oracle_for(EXAMPLE))
    assert (report.value, report.output) == (5, 0b101)
    assert report.oracle_calls == 8


def test_brute_all_negative_returns_empty():
    rep = XosRepresentation.from_weights([[-1, -2], [-3, -1]])
    report = solve_brute_force(oracle_for(rep))
    assert (report.output, report.value) == (0, 0)


def test_brute_cap():
    # 2^21 subsets reach MAX_QUERIES: refused before the first query
    oracle = oracle_for(random_rep(n=21, k=2, seed=0))
    with pytest.raises(CapExceededError, match="brute exhaustive search"):
        solve_brute_force(oracle)
    assert oracle.calls == 0


def test_reports_are_deterministic():
    rep = random_rep(n=9, k=3, seed=17)
    for solver in (solve_exact_2xos, solve_k_minus_1, solve_exact_star):
        assert solver(oracle_for(rep)) == solver(oracle_for(rep))
    p = SamplingParams(Fraction(1, 2), seed=5)
    assert solve_random_sampling(oracle_for(rep), p) == solve_random_sampling(oracle_for(rep), p)


# ---------------------------------------------------------------------------
# the query limit: each phase's count bounds what the phase queries


@pytest.fixture()
def phases(monkeypatch):
    """(spent, count, "algo phase") of every limit check the solvers make."""
    seen = []
    phase = core.Run.phase

    def record(run, count, what):
        seen.append((run.spent, count, f"{run.algorithm} {what}"))
        phase(run, count, what)

    monkeypatch.setattr(core.Run, "phase", record)
    return seen


def bound_corpus():
    """The corpora above, dropped singletons included, and a sampled path at n=26."""
    yield from (random_rep(n=9, k=3, seed=seed) for seed in range(20))
    yield from (random_rep(n=10, k=2, seed=seed) for seed in range(20))
    yield from (random_rep(n=9, k=4, seed=4000 + seed) for seed in range(10))
    yield from (random_star_representation(n=9, k=3, seed=seed) for seed in range(10))
    yield random_rep(n=26, k=3, seed=5, positive_singletons=True)
    yield EXAMPLE
    yield from NONPOSITIVE_SINGLETONS


def assert_phases_bound(phases, calls):
    """Every phase ends within its count: the next one starts (and the run
    ends) at most ``count`` queries after the phase's own start."""
    ends = [spent for spent, _, _ in phases[1:]] + [calls]
    for (spent, count, what), end in zip(phases, ends):
        assert spent <= end <= spent + count, what
    assert calls < MAX_QUERIES


def test_phase_counts_bound_every_run(phases):
    for rep in bound_corpus():
        n = rep.n
        r = sum(max(row[v] for row in rep_as_lists(rep)) > 0 for v in range(n))

        phases.clear()
        calls = solve_enum_small_sets(oracle_for(rep), EnumParams(Fraction(1, 3))).oracle_calls
        count = sum(math.comb(r, i) for i in range(min(3, r) + 1))
        assert [p[:2] for p in phases] == [(n, count)]
        assert calls == n + count

        phases.clear()
        calls = solve_random_sampling(oracle_for(rep), SamplingParams(1, seed=3)).oracle_calls
        if phases:  # the sampled path: n=26 clears the fallback threshold
            assert [p[0] for p in phases] == [n] and n == 26
            assert calls == n + phases[0][1]
        else:
            assert calls == n + (1 << r) * (r > 0)

        phases.clear()
        if n <= 20:
            calls = solve_brute_force(oracle_for(rep)).oracle_calls
            assert phases == [(0, 1 << n, "brute exhaustive search")]
            assert calls == 1 << n
        else:
            oracle = oracle_for(rep)
            with pytest.raises(CapExceededError):
                solve_brute_force(oracle)
            assert oracle.calls == 0

        phases.clear()
        assert solve_exact_2xos(oracle_for(rep)).oracle_calls <= 6 * n + 10
        assert phases == []

        for solver in (solve_k_minus_1, solve_exact_star):
            phases.clear()
            calls = solver(oracle_for(rep)).oracle_calls
            assert phases == [] or phases[0][0] == n
            assert calls <= n + sum(count for _, count, _ in phases)
            assert_phases_bound(phases, calls)


def test_a_used_oracle_charges_each_run_only_its_own_queries():
    # An oracle that has already answered MAX_QUERIES + 5 queries: each run
    # is counted, and limited, by the queries it makes itself.
    used = MAX_QUERIES + 5
    rep = random_rep(n=10, k=3, seed=7)
    sampled = random_rep(n=26, k=3, seed=5, positive_singletons=True)  # past the fallback
    needle = NeedleInstance(n_hat=30, s=10, t=3, seed=2)
    on_rep = partial(oracle_for, rep)
    cases = [
        (on_rep, lambda o: solve_enum_small_sets(o, EnumParams(Fraction(1, 3)))),
        (on_rep, lambda o: solve_random_sampling(o, SamplingParams(Fraction(1, 2), seed=5))),
        (partial(oracle_for, sampled), lambda o: solve_random_sampling(o, SamplingParams(1, seed=3))),
        (on_rep, solve_exact_2xos),
        (on_rep, solve_k_minus_1),
        (on_rep, solve_exact_star),
        (on_rep, solve_brute_force),
        (needle.oracle, lambda o: uniform_size_probe(o, needle.t, 500, seed=1)),
    ]
    for make, solve in cases:
        oracle = make()
        oracle.calls = used
        report = solve(oracle)
        assert oracle.calls - used == report.oracle_calls > 0
        assert report == solve(make())

    oracle, fresh = on_rep(), on_rep()
    oracle.calls = used
    assert enumerate_maximal_cliques(oracle) == enumerate_maximal_cliques(fresh)
    assert oracle.calls - used == fresh.calls > 0
