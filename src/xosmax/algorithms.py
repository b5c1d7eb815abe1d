"""Query-efficient maximization of XOS functions given by a value oracle.

Solvers. Query counts are exact worst cases that include the solver's own
preprocessing; r <= n is the number of elements the singleton scan keeps.

========================  ===================================  ==========================================
solver                    guarantee                            queries (the phase the limit can refuse)
========================  ===================================  ==========================================
solve_enum_small_sets     (eps*n)-approximation                n + sum_{i<=min(cap,r)} C(r,i),
                                                               cap = ceil(1/eps) (enumeration)
solve_random_sampling     rho-approximation in expectation,    n + min(rounds,r)*per_round (rounds), or
                          rho = eps*n/ln(n)                    n + 2^r exhaustively below the threshold
solve_exact_2xos          exact when the oracle is 2-XOS       <= 6n+10 (never refused)
solve_k_minus_1           (k-1)-approximation, width k         n + (r-1) per closure (each closure)
                          unknown; exact when 2-XOS            + sum_V (r-|V|+1) (expansions)
                                                               + sum_pairs (1+r-|union|) (bridges)
solve_exact_star          exact when singleton weights are     n + sum_c C(r,c)*(r-c+[c>1]) over the
                          peaked-or-nonpositive (star cond.)   rounds c it runs (each round)
solve_brute_force         exact, any oracle                    2^n (the whole search)
========================  ===================================  ==========================================

A solver run makes fewer than ``core.MAX_QUERIES`` = 2^21 queries. Before a
phase's first query it checks the queries spent so far plus the phase's
count above, and raises CapExceededError when they would reach the limit;
expansions and bridges are one phase. For sampling, rounds =
ceil(2 ln(r)/eps) and per_round = ceil(r^(1/eps+1)) or the override, times
ceil(2*eps*r) with high_probability. Exact maximization needs
exponentially many queries already at width 3, so large grounds meet the
limit where an unbounded search would not finish.

All solvers except brute force start by querying the n singleton values and
retaining only elements with strictly positive value; dropped elements can
never help a maximizer because removing one never lowers the max-of-sums.
The retained singleton values are cached, so additivity tests of the form
f(X + u) = f(X) + f(u) cost one query each. An empty retained set yields
(empty set, 0).

Determinism: every tie is broken by keeping the first maximizer in a fixed
scan order (canonical subset order for enumeration; ascending element index
for growth scans; family discovery order for clique candidates), so reports
are bit-identical across runs given the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .core import (
    MAX_QUERIES,
    CountingOracle,
    SolveReport,
    _is_int,
    check_queries,
    evaluated,
    first_max,
    iter_bits,
    iter_masks_by_card,
    lift,
    masks_of_card,
)
# sample_positions stays a name of this module: perfbench --trace 1 wraps it here.
from .rng import SplitMix64, check_seed, sample_masks, sample_positions  # noqa: F401

# Below this approximation factor the sampling analysis needs more samples
# than brute force would cost, so the solver enumerates instead.
RHO_FALLBACK_THRESHOLD = 2 * math.e / (math.e - 2)


def as_fraction(eps: Fraction | int | str) -> Fraction:
    """Coerce an exact rational epsilon; floats are rejected on purpose."""
    if isinstance(eps, Fraction):
        f = eps
    elif _is_int(eps):
        f = Fraction(eps)
    elif isinstance(eps, str):
        try:
            f = Fraction(eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"epsilon must be a rational like '1/3', got {eps!r}") from exc
    else:
        raise ValueError("epsilon must be an exact rational (int, Fraction, or 'p/q' string)")
    if f <= 0:
        raise ValueError(f"epsilon must be positive, got {f}")
    return f


@dataclass(frozen=True)
class EnumParams:
    """Parameters for solve_enum_small_sets; cap = ceil(1/epsilon)."""

    epsilon: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))

    @property
    def size_cap(self) -> int:
        # ceil(q/p) for epsilon = p/q
        return -(-self.epsilon.denominator // self.epsilon.numerator)


@dataclass(frozen=True)
class SamplingParams:
    """Parameters for solve_random_sampling.

    ``sample_budget_override`` replaces the per-round default of
    ceil(n^(1/epsilon + 1)) samples; overrides are for desk-scale runs and
    void the expectation guarantee, so they are echoed in the report.
    ``high_probability`` multiplies the per-round budget by ceil(2*epsilon*n),
    which upgrades the expectation guarantee to probability >= 1 - 1/n.
    """

    epsilon: Fraction
    seed: int = 0
    sample_budget_override: int | None = None
    high_probability: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        check_seed(self.seed)  # before any query
        budget = self.sample_budget_override
        if budget is not None and not (_is_int(budget) and budget >= 1):
            raise ValueError(f"sample_budget_override must be an integer >= 1, got {budget!r}")
        if not isinstance(self.high_probability, bool):
            raise ValueError(f"high_probability must be true or false, got {self.high_probability!r}")


# ---------------------------------------------------------------------------
# Preprocessing and clique growth


def _scan_singletons(oracle: CountingOracle) -> tuple[int, list[int]]:
    """Query all n singletons (exactly n calls); keep strictly positive ones."""
    n = oracle.n
    singles = [0] * n
    retained = 0
    for v in range(n):
        val = oracle.evaluate(1 << v)
        singles[v] = val
        if val > 0:
            retained |= 1 << v
    return retained, singles


def preprocess(oracle: CountingOracle) -> int:
    """Return the mask of elements with f({v}) > 0, using exactly n queries.

    Discarding an element with nonpositive singleton value never hurts: in a
    max-of-sums, removing it from any set drops the value by at most f({v}).
    All solvers below run on the retained set and treat dropped elements as
    absent.
    """
    return _scan_singletons(oracle)[0]


def _grow_from(
    oracle: CountingOracle,
    cur: int,
    cur_val: int,
    universe: int,
    singles,
) -> tuple[int, int]:
    """Greedy additive closure: add u when f(X + u) = f(X) + f(u).

    Scans ascending element index; one query per scanned element. The
    running value needs no extra queries because a passed test pins it. For
    an XOS oracle the closure of a singleton is the intersection of the
    cliques of all components that attain every accepted singleton, which is
    what makes the width-2 solver exact.
    """
    for u in iter_bits(universe & ~cur):
        t = oracle.evaluate(cur | (1 << u))
        if t == cur_val + singles[u]:
            cur |= 1 << u
            cur_val = t
    return cur, cur_val


def _expand_improving(
    oracle: CountingOracle, base: int, base_val: int, universe: int
) -> tuple[int, int]:
    """Adjoin every v outside ``base`` with f(base + v) > f(base), then evaluate."""
    out = base
    for v in iter_bits(universe & ~base):
        if oracle.evaluate(base | (1 << v)) > base_val:
            out |= 1 << v
    if out == base:
        return base, base_val
    return out, oracle.evaluate(out)


def _exhaustive(oracle: CountingOracle, retained: int, cap: int) -> tuple[int, int]:
    """First maximizer over the subsets of ``retained`` of size <= cap.

    Every subset, the empty set included, is evaluated exactly once, in
    canonical order.
    """
    masks = iter_masks_by_card(retained.bit_count(), cap)
    return first_max(evaluated(oracle, lift(masks, retained)))


def _empty_report(algorithm: str, oracle: CountingOracle, start_calls: int, **extra) -> SolveReport:
    return SolveReport(algorithm, 0, 0, oracle.calls - start_calls, **extra)


# ---------------------------------------------------------------------------
# Solvers


def solve_enum_small_sets(oracle: CountingOracle, params: EnumParams) -> SolveReport:
    """Enumerate all subsets of the retained set up to size ceil(1/epsilon).

    Returns a set whose value is within a factor epsilon*n of the optimum:
    a maximizer X* of size > cap contains a subset of size cap whose best
    component sum is at least (cap/|X*|) * f(X*). Queries: n preprocessing
    plus sum_{i=0}^{min(cap, n)} C(n, i) over the retained size; every
    enumerated subset (including the empty set and singletons) is evaluated
    through the oracle exactly once.
    """
    start_calls = oracle.calls
    retained, _ = _scan_singletons(oracle)
    r = retained.bit_count()
    top = min(params.size_cap, r)
    count = term = 1
    for i in range(top):  # count = sum_{i<=top} C(r, i), term = C(r, i+1)
        term = term * (r - i) // (i + 1)
        count += term
    check_queries(oracle.calls - start_calls, count, f"enum subsets of size <= {top}")
    best_mask, best_val = _exhaustive(oracle, retained, top)
    return SolveReport("enum", best_mask, best_val, oracle.calls - start_calls)


def _ceil_root(n: int, d: int) -> int:
    """Smallest integer t >= 1 with t**d >= n, for n >= 1 (exact, no floats)."""
    if d == 1 or n <= 1:
        return n if d == 1 else 1
    t = 1 << -(-n.bit_length() // d)  # 2^ceil(bits/d) >= n^(1/d)
    while True:
        nt = ((d - 1) * t + n // t ** (d - 1)) // d
        if nt >= t:
            break
        t = nt
    if t ** d < n:
        t += 1
    return t


def _sampling_schedule(r: int, p: int, q: int) -> tuple[bool, int]:
    """(rho < RHO_FALLBACK_THRESHOLD, ceil(2 ln(r)/epsilon)) for r >= 2
    retained elements, epsilon = p/q and rho = epsilon*r/ln(r)."""
    log_r = math.log(r)
    return (p * r) / (q * log_r) < RHO_FALLBACK_THRESHOLD, math.ceil(2 * log_r * q / p)


def solve_random_sampling(oracle: CountingOracle, params: SamplingParams) -> SolveReport:
    """Uniform fixed-size sampling; rho-approximation in expectation.

    For rho = epsilon*n/ln(n) >= 2e/(e-2), sampling ceil(n^(1/epsilon + 1))
    uniform subsets of each size m = 1..ceil(2 ln(n)/epsilon) and keeping the
    best hits, in expectation, a value >= OPT/rho. Below that threshold (or
    when only one element survives preprocessing) the analysis is void and n
    is bounded by a constant, so the solver enumerates the 2^r retained
    subsets instead, provided n + 2^r stays below MAX_QUERIES (r <= 20 for
    every ground size); otherwise the sampling rounds run anyway with the
    guarantee void. The rounds cost min(rounds, r) * per_round queries and
    are refused when that would reach the limit.

    Deterministic given ``params.seed``: samples come from a splitmix64
    stream via partial Fisher-Yates, so replays are bit-identical.
    """
    start_calls = oracle.calls
    retained, _ = _scan_singletons(oracle)
    r = retained.bit_count()
    extra = {"seed": params.seed, "budget_override": params.sample_budget_override}
    if r == 0:
        return _empty_report("sample", oracle, start_calls, **extra)

    eps = params.epsilon
    p, q = eps.numerator, eps.denominator
    fallback, rounds = (True, 0) if r == 1 else _sampling_schedule(r, p, q)
    if fallback and oracle.calls - start_calls + (1 << r) < MAX_QUERIES:
        best_mask, best_val = _exhaustive(oracle, retained, r)
        return SolveReport("sample", best_mask, best_val, oracle.calls - start_calls, **extra)
    # Past here a fallback set is too large to enumerate; sample anyway (guarantee void).

    if params.sample_budget_override is not None:
        per_round = params.sample_budget_override
    else:
        per_round = _ceil_root(r ** (p + q), p)  # ceil(r^(1/eps + 1)), exact
    if params.high_probability:
        per_round *= -((-2 * p * r) // q)  # ceil(2*epsilon*r)
    rounds = min(rounds, r)
    check_queries(oracle.calls - start_calls, rounds * per_round, "sample rounds")

    rng = SplitMix64(params.seed)
    draws = chain.from_iterable(sample_masks(r, m, per_round, rng) for m in range(1, rounds + 1))
    best_mask, best_val = first_max(evaluated(oracle, lift(draws, retained)))
    return SolveReport("sample", best_mask, best_val, oracle.calls - start_calls, **extra)


def solve_exact_2xos(oracle: CountingOracle) -> SolveReport:
    """Exact maximizer for width-2 oracles in at most 6n + 10 queries.

    Grows the additive closure V1 from the smallest retained element; if it
    covers everything, it is optimal. Otherwise grows V2 from the smallest
    element outside V1 (the two closures cover the retained set when the
    oracle is 2-XOS), expands each closure by all elements that strictly
    improve it, and returns the better expansion: a maximizer restricted to
    one component's clique extends the closure only through improving
    elements.
    """
    start_calls = oracle.calls
    retained, singles = _scan_singletons(oracle)
    if retained == 0:
        return _empty_report("exact2", oracle, start_calls)
    v1 = (retained & -retained).bit_length() - 1
    V1, val1 = _grow_from(oracle, 1 << v1, singles[v1], retained, singles)
    if V1 == retained:
        return SolveReport("exact2", V1, val1, oracle.calls - start_calls)
    rest = retained & ~V1
    v2 = (rest & -rest).bit_length() - 1
    V2, val2 = _grow_from(oracle, 1 << v2, singles[v2], retained, singles)
    Y1, y1 = _expand_improving(oracle, V1, val1, retained)
    Y2, y2 = _expand_improving(oracle, V2, val2, retained)
    if y2 > y1:
        return SolveReport("exact2", Y2, y2, oracle.calls - start_calls)
    return SolveReport("exact2", Y1, y1, oracle.calls - start_calls)


def solve_k_minus_1(oracle: CountingOracle) -> SolveReport:
    """(k-1)-approximation for any width-k oracle; k is not an input.

    Repeatedly grows additive closures from the smallest uncovered element
    until they cover the retained set (at most k closures for a width-k
    oracle, since each closure absorbs a full component clique). Candidates
    are the closures, their improving expansions, and every closure-pair
    union with one extra element; the best candidate is within a factor
    (k-1): a maximizer splits across component cliques, and either one
    clique carries a (k-1) share or two cliques plus a bridge element do.
    Exact for 2-XOS oracles (the pair family then contains the same
    candidates as the width-2 solver). Each closure costs at most r - 1
    queries, each expansion of V at most r - |V| + 1 and each closure pair
    1 + r - |union|; the limit is checked before each closure and once
    before the expansions and bridges.

    Candidate order is fixed (closures, then expansions, then pairs in
    lexicographic order with the extra element ascending); the first
    maximizer wins.
    """
    start_calls = oracle.calls
    retained, singles = _scan_singletons(oracle)
    r = retained.bit_count()
    cliques: list[tuple[int, int]] = []
    covered = 0
    while covered != retained:
        check_queries(oracle.calls - start_calls, r - 1, f"kminus1 closure {len(cliques) + 1}")
        rest = retained & ~covered
        v = (rest & -rest).bit_length() - 1
        V, val = _grow_from(oracle, 1 << v, singles[v], retained, singles)
        cliques.append((V, val))
        covered |= V
    masks = [V for V, _ in cliques]
    count = sum(r - V.bit_count() + 1 for V in masks) + sum(
        1 + r - (masks[i] | masks[j]).bit_count()
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    )
    check_queries(oracle.calls - start_calls, count, "kminus1 expansions and bridges")

    def candidates():
        yield from cliques
        for V, val in cliques:
            yield _expand_improving(oracle, V, val, retained)
        for i in range(len(cliques)):
            for j in range(i + 1, len(cliques)):
                union = cliques[i][0] | cliques[j][0]
                # The union is queried once and ranks at its lowest element,
                # where the scan first reaches it; elsewhere a tie would
                # pick a different set.
                low = union & -union
                for v in iter_bits(retained):
                    bit = 1 << v
                    if bit == low:
                        yield union, oracle.evaluate(union)
                    elif not union & bit:
                        z = union | bit
                        yield z, oracle.evaluate(z)

    best_mask, best_val = first_max(candidates())
    return SolveReport("kminus1", best_mask, best_val, oracle.calls - start_calls)


def _maximal_cliques(oracle: CountingOracle, algorithm: str) -> tuple[tuple[int, int], ...]:
    """Shared core of enumerate_maximal_cliques / solve_exact_star.

    Scans the singletons, then round c tests every retained c-subset X for
    additivity (f(X) = sum of singleton values; free for c = 1) and grows
    the additive closure of each additive X. Every closure is a maximal clique, and once
    the family size equals the round number the family is complete: a
    missing clique would contain, for each found clique, an element outside
    it, and those fingerprint elements form an additive set of size at most
    the family size whose closure would have been found in an earlier round.
    Round c costs at most C(r, c) * (r - c + [c > 1]) queries and is refused
    before it starts when that would reach the limit.
    """
    start_calls = oracle.calls
    retained, singles = _scan_singletons(oracle)
    r = retained.bit_count()
    found: list[tuple[int, int]] = []
    seen: set[int] = set()
    for card in range(1, r + 1):
        count = math.comb(r, card) * (r - card + (card > 1))
        check_queries(oracle.calls - start_calls, count, f"{algorithm} round {card}")
        for actual in lift(masks_of_card(r, card), retained):
            ssum = sum(singles[v] for v in iter_bits(actual))
            if card > 1 and oracle.evaluate(actual) != ssum:
                continue
            clique, cval = _grow_from(oracle, actual, ssum, retained, singles)
            if clique not in seen:
                seen.add(clique)
                found.append((clique, cval))
        if len(found) == card:
            break
        # For a non-XOS oracle the size condition may never fire; stop once
        # rounds exceed the retained size and return what was found.
    return tuple(found)


def enumerate_maximal_cliques(oracle: CountingOracle) -> tuple[int, ...]:
    """All maximal cliques of an XOS oracle, in discovery order.

    A clique is a set on which f is additive (a subset of one component's
    singleton-maximizer set); maximal cliques are the inclusion-maximal
    additive closures. The family-size stop condition fires after at most k
    rounds for width k, so the cost is n + sum_{c<=k} C(r,c)*(r-c+[c>1]).
    Includes its own preprocessing (n queries); behavior for non-XOS oracles
    is undefined but terminating.
    """
    return tuple(mask for mask, _ in _maximal_cliques(oracle, "cliques"))


def solve_exact_star(oracle: CountingOracle) -> SolveReport:
    """Best maximal clique; exact under the star condition.

    Star condition: every per-component singleton weight either equals the
    function's singleton value or is nonpositive. Then some maximizer is a
    clique, every maximal clique's value is its additive singleton sum, and
    the best maximal clique is an exact maximizer.
    """
    start_calls = oracle.calls
    best_mask, best_val = first_max(_maximal_cliques(oracle, "star"))
    return SolveReport("star", best_mask, best_val, oracle.calls - start_calls)


def solve_brute_force(oracle: CountingOracle) -> SolveReport:
    """Exact maximizer by evaluating all 2^n subsets in canonical order.

    2^n queries, refused with CapExceededError before the first one when
    2^n reaches MAX_QUERIES, that is for n > 20. No preprocessing: the
    all-negative instance returns the empty set at value 0 because the empty
    set comes first in canonical order.
    """
    n = oracle.n
    check_queries(0, 1 << n, "brute exhaustive search")
    start_calls = oracle.calls
    best_mask, best_val = _exhaustive(oracle, oracle.ground.full_mask, n)
    return SolveReport("brute", best_mask, best_val, oracle.calls - start_calls)
