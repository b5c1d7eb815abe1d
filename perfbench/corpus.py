"""Seeded inputs for the benchmark workloads.

Every document is generated here from the workload seed with Python's own
``random.Random``, so the program under test sees only the documents and a
change to its random number generator cannot change the inputs. The shape of
each workload (sizes, widths, families, algorithms and trial counts) is fixed;
the seed picks only weights, hidden-instance seeds and trial seeds. Figures
from different seeds therefore measure the same amount of work.

The reference optimum of every solver case is computed here, independently
of the package: the identity max_i sum_v max(w_i(v), 0) for explicit weights
and a closed form for each hidden family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed of the corpus whose outputs are pinned in pins.json.
PIN_SEED = 0

_SEED_SPACE = 1 << 64


@dataclass(frozen=True)
class SolverCase:
    """One instance and what runs on it: ``trials`` for the solver workloads,
    or, for suites, the ``xosmax bench`` config it runs as."""

    label: str
    doc: dict
    opt: int
    width: int | None
    star: bool
    seed: int
    trials: tuple[tuple[str, dict], ...]  # (algorithm, run_trial keyword args)
    config: dict | None = None


@dataclass
class TableCase:
    """One ``xosmax verify`` input and the verdicts its construction implies.

    ``weights`` is the explicit weight matrix; for hidden families it is
    filled in from the instance's own representation after loading.
    ``expect`` maps a check name to its known verdict; checks missing from it
    are judged only by their witnesses.
    """

    label: str
    doc: dict
    n: int
    expect: dict[str, bool]
    weights: list[list[int]] | None = None


# ---------------------------------------------------------------------------
# Independent references


def identity_optimum(weights: list[list[int]]) -> int:
    """max over subsets of a max-of-additive function, via max_i sum_v max(w_i(v), 0)."""
    return max(sum(w for w in row if w > 0) for row in weights)


def star_condition(weights: list[list[int]]) -> bool:
    """Each weight equals its element's singleton value or is nonpositive."""
    for v in range(len(weights[0])):
        peak = max(row[v] for row in weights)
        if any(row[v] > 0 and row[v] != peak for row in weights):
            return False
    return True


def ground_size(doc: dict) -> int:
    """Number of elements of an instance document."""
    p = doc.get("params", {})
    if doc["type"] == "explicit":
        return len(doc["weights"][0])
    if doc["type"] == "needle":
        return p["n_hat"]
    if doc["type"] == "hard_kxos":
        return sum(p["n_tilde"] ** i for i in range(1, p["k"]))
    return p["n"]


def hidden_optimum(doc: dict) -> int:
    """Closed-form optimum of a hidden-family document."""
    p = doc["params"]
    if doc["type"] == "needle":
        return 1
    if doc["type"] == "hard_general":
        return p["n"] // 2
    if doc["type"] == "hard_kxos":
        k, nt, a = p["k"], p["n_tilde"], p["a"]
        # Components 1..k-1 each reach n_tilde^k; component k reaches the
        # planted value. An XOS maximum is the best component maximum.
        return max(nt**k, (k - 1) * (nt - a) ** 2 * nt ** (k - 2))
    raise ValueError(f"no closed-form optimum for {doc['type']}")


# ---------------------------------------------------------------------------
# Generators


def _explicit_doc(weights: list[list[int]]) -> dict:
    return {"type": "explicit", "n": len(weights[0]), "weights": weights}


def _hidden_doc(kind: str, params: dict, rng: random.Random) -> dict:
    return {"type": kind, "params": params, "seed": rng.getrandbits(64)}


def _random_weights(rng: random.Random, n: int, k: int, low: int, high: int) -> list[list[int]]:
    """Width-k weights with every singleton positive, so no element is dropped
    by preprocessing and call counts do not depend on the seed."""
    cols = []
    for _ in range(n):
        while True:
            col = [rng.randint(low, high) for _ in range(k)]
            if max(col) > 0:
                break
        cols.append(col)
    return [[cols[v][i] for v in range(n)] for i in range(k)]


def _peaked_weights(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """Element v peaks on component v mod k; its other weights are random and
    strictly lower, possibly positive. The cliques then have fixed sizes, so
    the closures that exact2 and kminus1 grow, and their call counts, do not
    depend on the seed, while improving expansions still do work."""
    rows = [[0] * n for _ in range(k)]
    for v in range(n):
        peak = rng.randint(20, 100)
        for i in range(k):
            rows[i][v] = peak if i == v % k else rng.randint(-60, peak - 1)
    return rows


def _star_weights(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """Element v peaks on component v mod k; every other weight is nonpositive.

    The cliques have fixed sizes, so the clique search does the same number
    of rounds and calls for every seed.
    """
    rows = [[rng.randint(-100, 0) for _ in range(n)] for _ in range(k)]
    for v in range(n):
        rows[v % k][v] = rng.randint(1, 100)
    return rows


def _solver_case(label, doc, trials, rng, config=None) -> SolverCase:
    if doc["type"] == "explicit":
        weights = doc["weights"]
        opt, width, star = identity_optimum(weights), len(weights), star_condition(weights)
    else:
        opt, star = hidden_optimum(doc), False
        width = doc["params"]["k"] if doc["type"] == "hard_kxos" else None
    return SolverCase(label, doc, opt, width, star, rng.getrandbits(63), tuple(trials), config)


# Table kinds for the verify workload. Gadgets on the first elements fix the
# verdicts that the random remainder could otherwise decide:
#   elements 0..2 of "xos" (and 3..5 of "mixed"): rows (c,c,c) and (0,0,2c)
#     give f({0,2}) + f({1,2}) = 4c < 5c = f({0,1,2}) + f({2}), so the table
#     is not submodular (hence not additive), and the weight c below the
#     singleton value 2c breaks the star condition;
#   elements 0..2 of "mixed": weight -H on element 0 in every row and a, b on
#     elements 1, 2 in row 0 only give f({0,1}) + f({0,2}) = -2H + a + b
#     < -H + a + b = f({0,1,2}), so the table is not subadditive, and
#     f({0}) = -H < f({}) makes it non-monotone.
_H = 1000
_C = 50


def _additive_table(rng, n):
    return [[rng.randint(0, _H) for _ in range(n)]]


def _xos_table(rng, n, k, first=0):
    rows = [[rng.randint(0, _H) for _ in range(n)] for _ in range(k)]
    gadget = [(_C, _C, _C), (0, 0, 2 * _C)] + [(0, 0, 0)] * (k - 2)
    for row, cells in zip(rows, gadget):
        row[first:first + 3] = cells
    return rows


def _mixed_table(rng, n, k):
    rows = _xos_table(rng, n, k, first=3)
    for row in rows:
        row[6:] = [rng.randint(-_H, _H) for _ in range(n - 6)]
        row[0:3] = (-_H, -1, -1)
    rows[0][1:3] = (rng.randint(1, _H), rng.randint(1, _H))
    return rows


_ALL_PASS = dict.fromkeys(
    ("normalized", "monotone", "additive", "submodular", "subadditive", "star_condition"), True
)
_XOS_VERDICTS = dict(_ALL_PASS, additive=False, submodular=False, star_condition=False)
_MIXED_VERDICTS = dict(_XOS_VERDICTS, monotone=False, subadditive=False)
# Both hidden families at n=12 are normalized, subadditive XOS functions that
# are neither monotone, additive nor submodular, and whose representations
# break the star condition (see perfbench/README.md for the witnesses).
_HIDDEN_VERDICTS = dict(_MIXED_VERDICTS, subadditive=True)


# ---------------------------------------------------------------------------
# Workloads


def nonadaptive(seed: int) -> list[SolverCase]:
    # One sampling trial at n=26 (about 30 ms, the slowest) per pass of
    # about 1.2 s, so a run holds about twenty of them and the tail, ten
    # samples from the top, sits in their middle. The 70 probe trials of a
    # pass (197 trials) hold the median.
    rng = random.Random(f"nonadaptive/{seed}")
    return [
        _solver_case(
            "sample-explicit26",
            _explicit_doc(_random_weights(rng, 26, 3, -50, 100)),
            [("sample", {"epsilon": "1"})],
            rng,
        )
    ] + [
        _solver_case(
            f"sample-hard_general22-{i}",
            _hidden_doc("hard_general", {"n": 22, "tau": 3}, rng),
            [("sample", {"epsilon": "1/2", "budget_override": 40})] * 25,
            rng,
        )
        for i in range(3)
    ] + [
        _solver_case(
            f"probe-needle24-{i}",
            _hidden_doc("needle", {"n_hat": 24, "s": 12, "t": 6}, rng),
            [("probe", {"queries": 1000})] * 35,
            rng,
        )
        for i in range(2)
    ] + [
        _solver_case(
            f"enum-explicit30-{i}",
            _explicit_doc(_random_weights(rng, 30, 3, -50, 100)),
            [("enum", {"epsilon": "1/3"})] * 17,
            rng,
        )
        for i in range(3)
    ]


def adaptive(seed: int) -> list[SolverCase]:
    # One star trial (about 60 ms, the slowest by far) per pass of about
    # 1.2 s, so a run holds about twenty of them and the tail, ten samples
    # from the top, sits in their middle rather than in their extremes.
    rng = random.Random(f"adaptive/{seed}")
    cases = [
        _solver_case(
            f"explicit{n}w{k}-{i}",
            _explicit_doc(_peaked_weights(rng, n, k)),
            [("exact2", {}), ("kminus1", {})] * 11,
            rng,
        )
        for n, k in ((40, 2), (47, 3), (55, 4), (63, 2))
        for i in range(5)
    ]
    cases += [
        _solver_case(
            f"hard_kxos-3-4-1-{i}",
            _hidden_doc("hard_kxos", {"k": 3, "n_tilde": 4, "a": 1}, rng),
            [("exact2", {}), ("kminus1", {}), ("star", {})] * 11,
            rng,
        )
        for i in range(5)
    ]
    cases.append(
        _solver_case("star-explicit30", _explicit_doc(_star_weights(rng, 30, 3)), [("star", {})], rng)
    )
    return cases


def verify(seed: int) -> list[TableCase]:
    # Mixed-sign tables, whose checks all exit early, are 11 of the 17
    # tables, and the median falls in the middle of the five at n=13, so
    # trial_ms_p50 is an early exit. The width-1 table at n=13, where both
    # 4^n pair scans run to the end, is the slowest and sets the tail.
    rng = random.Random(f"verify/{seed}")
    cases = [
        TableCase(f"mixed{n}w{k}-{i}", _explicit_doc(_mixed_table(rng, n, k)), n, _MIXED_VERDICTS)
        for i, (n, k) in enumerate([(12, 2)] * 6 + [(13, 3)] * 5)
    ]
    for n, k in ((12, 2), (13, 3)):
        cases.append(TableCase(f"additive{n}", _explicit_doc(_additive_table(rng, n)), n, _ALL_PASS))
        cases.append(TableCase(f"xos{n}w{k}", _explicit_doc(_xos_table(rng, n, k)), n, _XOS_VERDICTS))
    cases.append(TableCase(
        "hard_kxos-3-3-1", _hidden_doc("hard_kxos", {"k": 3, "n_tilde": 3, "a": 1}, rng), 12, _HIDDEN_VERDICTS
    ))
    cases.append(TableCase(
        "hard_general12", _hidden_doc("hard_general", {"n": 12, "tau": 2}, rng), 12, _HIDDEN_VERDICTS
    ))
    for case in cases:
        if case.doc["type"] == "explicit":
            case.weights = case.doc["weights"]
    return cases


def suites(seed: int) -> list[SolverCase]:
    # One 2^20 optimum scan (hard_kxos(3,4,3), 1.3 to 2 s) per pass of about
    # 2.5 s, so a run holds about ten scans. A pass makes nine calls, fewer
    # than eleven, so the tail is its slowest call, the scan; the two star
    # suites stay well below it. The four mid-cost kminus1 suites hold the
    # median.
    rng = random.Random(f"suites/{seed}")
    plan = [
        ("explicit40w2-exact2-csv", _explicit_doc(_peaked_weights(rng, 40, 2)), "exact2", 20, "csv"),
        ("explicit40w2-exact2-json", _explicit_doc(_peaked_weights(rng, 40, 2)), "exact2", 20, "json"),
    ] + [
        (f"explicit48w3-kminus1-{fmt}{i}", _explicit_doc(_peaked_weights(rng, 48, 3)), "kminus1", 40, fmt)
        for i, fmt in enumerate(("csv", "json") * 2)
    ] + [
        (f"hard_kxos-3-4-1-star-{fmt}", _hidden_doc("hard_kxos", {"k": 3, "n_tilde": 4, "a": 1}, rng),
         "star", 45, fmt)
        for fmt in ("json", "csv")
    ] + [
        ("hard_kxos-3-4-3-kminus1", _hidden_doc("hard_kxos", {"k": 3, "n_tilde": 4, "a": 3}, rng), "kminus1", 5, "csv"),
    ]
    return [
        _solver_case(label, doc, (), rng, {"algorithm": algo, "trials": trials, "params": {}, "format": fmt})
        for label, doc, algo, trials, fmt in plan
    ]


WORKLOADS = {
    "nonadaptive": nonadaptive,
    "adaptive": adaptive,
    "verify": verify,
    "suites": suites,
}


def trial_seed(base: int, pass_index: int, trial: int, per_pass: int) -> int:
    """Seed of trial ``trial`` in pass ``pass_index``; passes never reuse a seed."""
    return (base + pass_index * per_pass + trial) % _SEED_SPACE
