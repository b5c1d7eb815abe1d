"""Shared test utilities: independent reference routes and corpus builders.

The reference implementations here deliberately avoid the package's own
enumeration and evaluation helpers (itertools.combinations instead of bit
tricks, direct row sums instead of AdditiveFunction) so that agreement
between a solver and a reference is evidence, not tautology.

Three white-box routes only tests use live here too and do read the
package's values: ``maximizer_indices`` and ``clique_of`` on a
representation, and ``check_submodular_marginal`` on a dense table, the
pure-Python second route to the submodular verdict.
"""

from __future__ import annotations

from itertools import combinations

from xosmax import XosRepresentation, random_explicit
from xosmax.classify import DenseFunction, Witness
from xosmax.rng import SplitMix64

# The cli name each algorithm's trial calls; perfbench captures every
# SolveReport by putting a wrapper in that name's place.
SOLVER_NAMES = {
    "enum": "solve_enum_small_sets",
    "sample": "solve_random_sampling",
    "exact2": "solve_exact_2xos",
    "kminus1": "solve_k_minus_1",
    "star": "solve_exact_star",
    "brute": "solve_brute_force",
    "probe": "uniform_size_probe",
}


def bits_of(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def ref_rep_value(weights: list[list[int]], mask: int) -> int:
    """Max-of-row-sums evaluated directly from a weight matrix."""
    members = bits_of(mask)
    return max(sum(row[v] for v in members) for row in weights)


def canonical_masks(n: int) -> list[int]:
    """All subset masks ordered by cardinality, then numeric value,
    built from itertools rather than the package's own enumerators."""
    out = []
    for c in range(n + 1):
        masks = [sum(1 << v for v in combo) for combo in combinations(range(n), c)]
        out.extend(sorted(masks))
    return out


def ref_brute_max(evaluate, n: int) -> tuple[int, int]:
    """(best value, first canonical maximizer) by exhaustive evaluation."""
    best_mask = 0
    best_val = evaluate(0)
    for mask in canonical_masks(n):
        v = evaluate(mask)
        if v > best_val:
            best_mask, best_val = mask, v
    return best_val, best_mask


def rep_as_lists(rep: XosRepresentation) -> list[list[int]]:
    return [list(c.weights) for c in rep.components]


def random_rep(n: int, k: int, seed: int, low: int = -8, high: int = 8,
               positive_singletons: bool = False) -> XosRepresentation:
    return random_explicit(n, k, low, high, seed, positive_singletons=positive_singletons)


def random_star_representation(n: int, k: int, seed: int) -> XosRepresentation:
    """Random representation satisfying the star condition by construction:
    element v has a positive peak value c_v carried by at least one
    component; every other weight for v is either c_v again or negative."""
    rng = SplitMix64(seed)
    cols: list[list[int]] = []
    for _ in range(n):
        peak = 1 + rng.randrange(8)
        forced = rng.randrange(k)
        col = []
        for i in range(k):
            if i == forced or rng.randrange(2) == 0:
                col.append(peak)
            else:
                col.append(-(1 + rng.randrange(8)))
        cols.append(col)
    rows = [tuple(cols[v][i] for v in range(n)) for i in range(k)]
    return XosRepresentation.from_weights(rows)


def maximizer_indices(rep: XosRepresentation, mask: int) -> set[int]:
    """Indices of components attaining f(mask)."""
    sums = [comp.evaluate(mask) for comp in rep.components]
    top = max(sums)
    return {i for i, s in enumerate(sums) if s == top}


def clique_of(rep: XosRepresentation, i: int) -> int:
    """Elements whose singleton value is attained by component ``i``, read
    through ``rep.singleton_value``; ``clique_of_rep`` is the raw-rows route.

    For a grown set G inside this clique, f(G) equals the additive sum of
    singleton values, which is what the growth algorithms exploit.
    """
    comp = rep.components[i]
    m = 0
    for v in range(rep.n):
        if comp.weights[v] == rep.singleton_value(v):
            m |= 1 << v
    return m


def clique_of_rep(rep: XosRepresentation, i: int) -> int:
    """Reference clique: elements whose component-i weight attains the
    function's singleton value (computed from raw rows)."""
    rows = rep_as_lists(rep)
    mask = 0
    for v in range(rep.n):
        fv = max(row[v] for row in rows)
        if rows[i][v] == fv:
            mask |= 1 << v
    return mask


def inclusion_maximal(masks) -> set[int]:
    out = set()
    unique = set(masks)
    for m in unique:
        if not any(m != other and (m & other) == m for other in unique):
            out.add(m)
    return out


def check_submodular_marginal(f: DenseFunction) -> tuple[bool, Witness]:
    """Submodularity via diminishing pairwise marginals, as a separate route.

    f is submodular iff f(X+u) + f(X+v) >= f(X+u+v) + f(X) for all X and
    distinct u, v outside X. Pure Python on purpose; cross-validates
    check_submodular.
    """
    n = f.n
    vals = f.values
    for x in range(len(f)):
        fx = int(vals[x])
        for u in range(n):
            bu = 1 << u
            if x & bu:
                continue
            for v in range(u + 1, n):
                bv = 1 << v
                if x & bv:
                    continue
                if int(vals[x | bu]) + int(vals[x | bv]) < int(vals[x | bu | bv]) + fx:
                    return False, (x, x | bu, x | bv)
    return True, None
