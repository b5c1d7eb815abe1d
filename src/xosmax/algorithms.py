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
                          unknown; exact when 2-XOS            + sum_V (r-|V|+1)
                                                               + sum_pairs (1+r-|union|) (the
                                                               expansions and bridges, checked
                                                               after each closure)
solve_exact_star          exact when singleton weights are     n + sum_c C(r,c)*(r-c+[c>1]) over the
                          peaked-or-nonpositive (star cond.)   rounds c it runs (each round)
solve_brute_force         exact, any oracle                    2^n (the whole search)
========================  ===================================  ==========================================

A solver run makes fewer than ``core.MAX_QUERIES`` = 2^21 queries. Each
solver call keeps one ``core.Run``; before a phase's first query,
``Run.phase`` checks the queries spent so far plus the phase's count above
and raises CapExceededError when they would reach the limit. Expansions and
bridges are one phase, checked after each closure against the closures
found so far, so ``kminus1`` on ``hard_general`` n=1000 stops after 64
closures (64,936 queries). For sampling, rounds =
ceil(2 ln(r)/eps) and per_round = ceil(r^(1/eps+1)) or the override, times
ceil(2*eps*r) with high_probability. Exact maximization needs
exponentially many queries already at width 3, so large grounds meet the
limit where an unbounded search would not finish.

All solvers except brute force start by querying the n singleton values and
retaining only elements with strictly positive value; dropped elements can
never help a maximizer because removing one never lowers the max-of-sums.
The retained singleton values are cached, so additivity tests of the form
f(X + u) = f(X) + f(u) cost one query each. The singleton scan is one
``CountingOracle.singletons`` call (n queries), closure growth one
``CountingOracle.grow`` call per closure and each improving expansion
one ``CountingOracle.improving`` call, each counting one query per scanned
element. On an explicit representation none of them computes a value:
the singletons are cached, growth decides each test from the components
attaining f(X) and f({u}), and expansion finds the elements some component
weighs above f(X) minus its sum. ``kminus1``'s bridges are
one ``CountingOracle.evaluate_plus`` call each. An empty retained set
yields (empty set, 0).

Determinism: every tie is broken by keeping the first maximizer in a fixed
scan order (canonical subset order for enumeration; ascending element index
for growth scans; family discovery order for clique candidates), so reports
are bit-identical across runs given the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .core import (
    CountingOracle,
    Run,
    SolveReport,
    _is_int,
    best_of,
    first_max,
    iter_bits,
    mask_of,
    subset_blocks,
)
# sample_positions stays a name of this module: perfbench --trace 1 wraps it here.
from .rng import SplitMix64, check_seed, sample_blocks, sample_positions  # noqa: F401

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
    Epsilon = p/q needs p <= 2^17, so the exact p-th root of r^(p+q) costs
    a few powers of at most 33p bits each (``solve_random_sampling``), and
    q <= 2^53, so the schedule's floats are exact and finite.
    """

    epsilon: Fraction
    seed: int = 0
    sample_budget_override: int | None = None
    high_probability: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if self.epsilon.numerator > 1 << 17 or self.epsilon.denominator > 1 << 53:
            raise ValueError("sampling needs epsilon = p/q with p <= 2^17 and q <= 2^53")
        check_seed(self.seed)  # before any query
        budget = self.sample_budget_override
        if budget is not None and not (_is_int(budget) and budget >= 1):
            raise ValueError(f"sample_budget_override must be an integer >= 1, got {budget!r}")
        if not isinstance(self.high_probability, bool):
            raise ValueError(f"high_probability must be true or false, got {self.high_probability!r}")


# ---------------------------------------------------------------------------
# Preprocessing and expansions


def _scan_singletons(oracle: CountingOracle) -> tuple[int, list[int]]:
    """Query all n singletons in one ``CountingOracle.singletons`` call
    (exactly n queries); keep the strictly positive ones."""
    singles = oracle.singletons()
    return mask_of(v for v, val in enumerate(singles) if val > 0), singles


def preprocess(oracle: CountingOracle) -> int:
    """Return the mask of elements with f({v}) > 0, using exactly n queries.

    Discarding an element with nonpositive singleton value never hurts: in a
    max-of-sums, removing it from any set drops the value by at most f({v}).
    All solvers below run on the retained set and treat dropped elements as
    absent.
    """
    return _scan_singletons(oracle)[0]


def _expand_improving(
    oracle: CountingOracle, base: int, base_val: int, universe: int
) -> tuple[int, int]:
    """Adjoin every v of ``universe`` outside ``base`` with f(base + v) >
    f(base), found by one ``CountingOracle.improving`` call (one query per
    scanned element), then evaluate the union."""
    gain = oracle.improving(base, base_val, universe)
    if not gain:
        return base, base_val
    out = base | gain
    return out, oracle.evaluate(out)


def _exhaustive(oracle: CountingOracle, retained: int, cap: int) -> tuple[int, int]:
    """First maximizer over the subsets of ``retained`` of size <= cap.

    Every subset, the empty set included, is evaluated exactly once, in
    canonical order.
    """
    return best_of(oracle, subset_blocks(retained, cap))


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
    run = Run(oracle, "enum")
    retained, _ = _scan_singletons(oracle)
    r = retained.bit_count()
    top = min(params.size_cap, r)
    count = term = 1
    for i in range(top):  # count = sum_{i<=top} C(r, i), term = C(r, i+1)
        term = term * (r - i) // (i + 1)
        count += term
    run.phase(count, f"subsets of size <= {top}")
    return run.report(_exhaustive(oracle, retained, top))


def _ceil_root(n: int, d: int) -> int:
    """Smallest integer t >= 1 with t**d >= n, for n >= 1 and log2(n)/d
    below 1000, so that 2^(log2(n)/d) is a float (exact).

    Integer Newton steps fall from a start above the root to the floor root,
    and one exact comparison rounds up. The start is a float estimate raised
    by 2^-30 (its relative error is below 2^-40), so a large d costs two or
    three exact powers.
    """
    if d == 1 or n <= 1:
        return n if d == 1 else 1
    t = int(2 ** (math.log2(n) / d) * (1 + 2**-30)) + 1
    while True:
        power = t ** (d - 1)
        nt = ((d - 1) * t + n // power) // d
        if nt >= t:  # t is the floor root
            return t if power * t >= n else t + 1
        t = nt


@lru_cache(maxsize=16)
def _per_round(r: int, p: int, q: int) -> int:
    """ceil(r^(1/eps + 1)) for epsilon = p/q, exact.

    Cached: it depends on nothing else, and at a large p its powers cost
    far more than a trial's queries, which a suite would pay per trial.
    """
    return _ceil_root(r ** (p + q), p)


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
    are refused when that would reach the limit. Without an override, a
    per_round whose lower bound r^(1 + q//p), for epsilon = p/q, already
    reaches it is refused on that bound before r^(p+q) is formed; past that
    bound r^(p+q) and each power ``_ceil_root`` takes have under 33p bits.

    Deterministic given ``params.seed``: samples come from a splitmix64
    stream via partial Fisher-Yates, so replays are bit-identical.
    """
    run = Run(oracle, "sample", seed=params.seed, budget_override=params.sample_budget_override)
    retained, _ = _scan_singletons(oracle)
    r = retained.bit_count()
    if r == 0:
        return run.report()

    eps = params.epsilon
    p, q = eps.numerator, eps.denominator
    fallback, rounds = (True, 0) if r == 1 else _sampling_schedule(r, p, q)
    if fallback and run.fits(1 << r):
        return run.report(_exhaustive(oracle, retained, r))
    # Past here a fallback set is too large to enumerate; sample anyway (guarantee void).

    rounds = min(rounds, r)
    if params.sample_budget_override is not None:
        per_round = params.sample_budget_override
    else:
        # r^(1 + q//p) <= r^(1/eps + 1) and r^21 >= MAX_QUERIES: when this lower
        # bound already fails the phase below, r^(p+q) is never formed
        per_round = r ** min(1 + q // p, 21)
        if run.fits(rounds * per_round):
            per_round = _per_round(r, p, q)
    if params.high_probability:
        per_round *= -((-2 * p * r) // q)  # ceil(2*epsilon*r)
    run.phase(rounds * per_round, "rounds")

    rng = SplitMix64(params.seed)
    draws = sample_blocks(retained, [(m, per_round) for m in range(1, rounds + 1)], rng)
    return run.report(best_of(oracle, draws))


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
    run = Run(oracle, "exact2")
    retained, singles = _scan_singletons(oracle)
    if retained == 0:
        return run.report()
    v1 = (retained & -retained).bit_length() - 1
    V1, val1 = oracle.grow(1 << v1, singles[v1], retained, singles)
    if V1 == retained:
        return run.report((V1, val1))
    rest = retained & ~V1
    v2 = (rest & -rest).bit_length() - 1
    V2, val2 = oracle.grow(1 << v2, singles[v2], retained, singles)
    Y1 = _expand_improving(oracle, V1, val1, retained)
    Y2 = _expand_improving(oracle, V2, val2, retained)
    return run.report(first_max((Y1, Y2)))


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
    1 + r - |union|. The limit is checked before each closure, and after
    each closure against the expansions and bridges of the closures found so
    far: more closures only add to that count, so a run that will be
    refused stops before it pays for the closures still to come.

    Candidate order is fixed (closures, then expansions, then pairs in
    lexicographic order with the extra element ascending); the first
    maximizer wins.
    """
    run = Run(oracle, "kminus1")
    retained, singles = _scan_singletons(oracle)
    r = retained.bit_count()
    cliques: list[tuple[int, int]] = []
    covered = 0
    count = 0  # expansions and bridges of the closures found so far
    while covered != retained:
        run.phase(r - 1, f"closure {len(cliques) + 1}")
        rest = retained & ~covered
        v = (rest & -rest).bit_length() - 1
        V, val = oracle.grow(1 << v, singles[v], retained, singles)
        count += r - V.bit_count() + 1 + sum(1 + r - (V | U).bit_count() for U, _ in cliques)
        cliques.append((V, val))
        covered |= V
        run.phase(count, "expansions and bridges")

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
                        yield union | bit, oracle.evaluate_plus(union, v)

    return run.report(first_max(candidates()))


def _maximal_cliques(run: Run) -> tuple[tuple[int, int], ...]:
    """Shared core of enumerate_maximal_cliques / solve_exact_star.

    Scans the singletons, then round c tests every retained c-subset X for
    additivity (f(X) = sum of singleton values; free for c = 1), one
    ``subset_blocks`` block per ``evaluate_many`` call, and grows the
    additive closure of each additive X of the block in canonical order.
    Every closure is a maximal clique, and once the family size equals the
    round number the family is complete: a missing clique would contain,
    for each found clique, an element outside it, and those fingerprint
    elements form an additive set of size at most the family size whose
    closure would have been found in an earlier round.
    Round c costs at most C(r, c) * (r - c + [c > 1]) queries and is refused
    before it starts when that would reach the limit.
    """
    oracle = run.oracle
    retained, singles = _scan_singletons(oracle)
    r = retained.bit_count()
    found: list[tuple[int, int]] = []
    seen: set[int] = set()
    for card in range(1, r + 1):
        count = math.comb(r, card) * (r - card + (card > 1))
        run.phase(count, f"round {card}")
        for block in subset_blocks(retained, card, card):
            masks = block.tolist() if isinstance(block, np.ndarray) else block
            sums = [sum(singles[v] for v in iter_bits(m)) for m in masks]
            if card > 1:
                values = oracle.evaluate_many(block)
                if isinstance(values, np.ndarray):
                    values = values.tolist()
                additive = [(m, s) for m, s, val in zip(masks, sums, values) if val == s]
            else:
                additive = zip(masks, sums)
            for actual, ssum in additive:
                clique, cval = oracle.grow(actual, ssum, retained, singles)
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
    return tuple(mask for mask, _ in _maximal_cliques(Run(oracle, "cliques")))


def solve_exact_star(oracle: CountingOracle) -> SolveReport:
    """Best maximal clique; exact under the star condition.

    Star condition: every per-component singleton weight either equals the
    function's singleton value or is nonpositive. Then some maximizer is a
    clique, every maximal clique's value is its additive singleton sum, and
    the best maximal clique is an exact maximizer.
    """
    run = Run(oracle, "star")
    return run.report(first_max(_maximal_cliques(run)))


def solve_brute_force(oracle: CountingOracle) -> SolveReport:
    """Exact maximizer by evaluating all 2^n subsets in canonical order.

    2^n queries, refused with CapExceededError before the first one when
    2^n reaches MAX_QUERIES, that is for n > 20. No preprocessing: the
    all-negative instance returns the empty set at value 0 because the empty
    set comes first in canonical order.
    """
    run = Run(oracle, "brute")
    brute_phase(run, oracle.n)
    return run.report(_exhaustive(oracle, oracle.ground.full_mask, oracle.n))


def brute_phase(run: Run, n: int) -> None:
    """Brute force's one limit check: all 2^n subsets, before the first query."""
    run.phase(1 << n, "exhaustive search")
