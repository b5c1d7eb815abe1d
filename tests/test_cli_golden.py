"""Byte identity of ``xosmax solve`` and ``xosmax verify`` output against
committed hashes.

``tests/data/cli_golden.json`` holds, for each run below, the sha256 of its
stdout and of its stderr and its exit code. The runs cover the solvers whose
masks do not depend on earlier answers (``enum``, ``sample`` with and
without its options, ``brute``, ``probe``) and ``star``, on explicit grounds
of 16, 30, 64 and 70 elements that drop singletons, on ``hard_general`` and
its remark variant, on a needle and on ``hard_kxos``, in CSV and NDJSON, plus
refused runs (exit 4). The ``verify`` runs cover explicit tables at n = 12
and 13, monotone and mixed-sign, monotone and non-monotone tables whose
values pass 2^62 (held as Python ints), each hidden family at n = 12 and a
hidden family above the materialize cap (exit 4). A change that keeps every
call count, seeded draw, verdict, witness and output byte keeps every hash.

Runs are made in-process through ``cli.main`` with the solver clock frozen at
0, so the NDJSON ``ms`` field and the stderr wall-time line are fixed too.
The instance documents are built here from Python's own ``random.Random``,
so they do not depend on the package. To regenerate the file after a
deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import types
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
REGENERATE = "PYTHONPATH=src python tests/test_cli_golden.py --write"


def _explicit(n: int, tag: str) -> dict:
    """Width-3 weights in [-40, 60]; every fifth element (2, 7, 12, ...) has
    no positive weight, so preprocessing drops it, and the last element has
    a positive one, so the top bit of the ground is retained."""
    rng = random.Random(f"cli-golden/{tag}")
    rows = [[rng.randint(-40, 60) for _ in range(n)] for _ in range(3)]
    for v in range(2, n, 5):
        for row in rows:
            row[v] = -rng.randint(0, 40)
    rows[0][n - 1] = 50
    return {"type": "explicit", "n": n, "weights": rows}


def _hidden(kind: str, params: dict, seed: int) -> dict:
    return {"type": kind, "params": params, "seed": seed}


def _monotone(n: int, k: int, tag: str) -> dict:
    """Width-k weights in [0, 60]: a monotone XOS table."""
    rng = random.Random(f"cli-golden/{tag}")
    return {"type": "explicit", "n": n, "weights": [[rng.randint(0, 60) for _ in range(n)] for _ in range(k)]}


def _wide(n: int, negative: bool) -> dict:
    """Width-2 weights of up to 4 * 2^58; their table passes 2^62. With
    ``negative`` the last element weighs -2^58 in row 0 and 2^58 in row 1,
    so adding it can lower the value and the table is not monotone."""
    rows = [[(v % 5) << 58 for v in range(n)], [(v * 3 % 5) << 58 for v in range(n)]]
    if negative:
        rows[0][n - 1], rows[1][n - 1] = -(1 << 58), 1 << 58
    return {"type": "explicit", "n": n, "weights": rows}


INSTANCES = {
    "explicit16": _explicit(16, "16"),
    "explicit30": _explicit(30, "30"),
    "explicit64": _explicit(64, "64"),
    "explicit70": _explicit(70, "70"),
    "hard_general22": _hidden("hard_general", {"n": 22, "tau": 3}, 5),
    "hard_general_remark22": _hidden("hard_general_remark", {"n": 22, "tau": 3}, 6),
    "needle24": _hidden("needle", {"n_hat": 24, "s": 12, "t": 6}, 7),
    "hard_kxos341": _hidden("hard_kxos", {"k": 3, "n_tilde": 4, "a": 1}, 8),
}

VERIFY_INSTANCES = {
    "monotone13w1": _monotone(13, 1, "monotone13w1"),
    "monotone13w3": _monotone(13, 3, "monotone13w3"),
    "mixed12": _explicit(12, "verify12"),
    "mixed13": _explicit(13, "verify13"),
    "wide_monotone12": _wide(12, negative=False),
    "wide_mixed12": _wide(12, negative=True),
    "needle12": _hidden("needle", {"n_hat": 12, "s": 6, "t": 3}, 9),
    "hard_general12": _hidden("hard_general", {"n": 12, "tau": 2}, 10),
    "hard_general_remark12": _hidden("hard_general_remark", {"n": 12, "tau": 2}, 11),
    "hard_kxos331": _hidden("hard_kxos", {"k": 3, "n_tilde": 3, "a": 1}, 12),
    # above the materialize cap: refused with exit 4
    "needle17": _hidden("needle", {"n_hat": 17, "s": 6, "t": 3}, 13),
}

_EPS1 = ("--epsilon", "1")
_HALF_40 = ("--epsilon", "1/2", "--budget-override", "40")
_REJECTED = 4586561260770644227
# (instance, algorithm, extra flags[, base seed]); every one runs in both
# formats, by default at base seed 100 + its index.
PLAN = [
    ("explicit16", "enum", ("--epsilon", "1/2")),
    ("explicit16", "sample", _EPS1),
    ("explicit16", "sample", _HALF_40),
    ("explicit16", "sample", (*_EPS1, "--high-probability")),
    ("explicit16", "brute", ()),
    ("explicit16", "star", ()),
    ("explicit30", "enum", ("--epsilon", "1/3")),
    ("explicit30", "sample", _EPS1),
    ("explicit30", "sample", (*_HALF_40, "--high-probability")),
    ("explicit30", "brute", ()),
    ("explicit64", "enum", ("--epsilon", "1/2")),
    ("explicit64", "sample", ("--epsilon", "1", "--budget-override", "300")),
    ("explicit64", "sample", _HALF_40),
    ("explicit70", "enum", ("--epsilon", "1/2")),
    ("explicit70", "sample", _HALF_40),
    ("hard_general22", "enum", ("--epsilon", "1/2")),
    ("hard_general22", "sample", _EPS1),
    ("hard_general22", "sample", _HALF_40),
    ("hard_general22", "brute", ()),
    ("hard_general_remark22", "enum", ("--epsilon", "1/2")),
    ("hard_general_remark22", "sample", (*_HALF_40, "--high-probability")),
    ("needle24", "probe", ("--queries", "1000")),
    ("needle24", "probe", ("--queries", "3000")),
    ("needle24", "enum", ("--epsilon", "1/2")),
    ("hard_kxos341", "star", ()),
    ("hard_kxos341", "enum", ("--epsilon", "1/3")),
    ("hard_kxos341", "sample", ("--epsilon", "2")),
    # The 9th word of this seed's stream is 2^64 - 1, which every bound but a
    # power of two rejects, so the first block of draws is redrawn one by one.
    ("explicit30", "sample", _EPS1, _REJECTED),
    ("needle24", "probe", ("--queries", "1000"), _REJECTED),
]


def runs() -> list[tuple[str, str, list[str]]]:
    """(label, instance name, argv after ``--instance PATH``) of every
    ``solve`` run."""
    out = []
    for i, (name, algo, extra, *seed) in enumerate(PLAN):
        seed = seed[0] if seed else 100 + i
        for fmt in ("csv", "json"):
            argv = ["--algo", algo, *extra, "--trials", "3", "--seed", str(seed), "--format", fmt]
            out.append((f"{name} {' '.join(argv)}", name, argv))
    return out


def verify_runs() -> list[tuple[str, str, list[str]]]:
    """(label, instance name, argv after ``--instance PATH``) of every
    ``verify`` run."""
    return [(f"verify {name}", name, []) for name in VERIFY_INSTANCES]


def replay(directory: Path) -> dict[str, dict[str, dict]]:
    """Run every ``solve`` and ``verify`` run with instance files in
    ``directory``; their results under ``runs`` and ``verify``."""
    from xosmax import cli

    for name, doc in {**INSTANCES, **VERIFY_INSTANCES}.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    saved = cli.time
    cli.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    results: dict[str, dict[str, dict]] = {"runs": {}, "verify": {}}
    try:
        for key, command, plan in (("runs", "solve", runs()), ("verify", "verify", verify_runs())):
            for label, name, argv in plan:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([command, "--instance", str(directory / f"{name}.json"), *argv])
                results[key][label] = {
                    "exit": code,
                    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                    "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
                }
    finally:
        cli.time = saved
    return results


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return replay(tmp_path_factory.mktemp("golden"))


def _assert_matches(got: dict[str, dict], key: str) -> None:
    golden = json.loads(GOLDEN.read_text())[key]
    assert list(got) == list(golden)
    assert {r["exit"] for r in got.values()} == {0, 4}
    mismatched = [label for label, want in golden.items() if got[label] != want]
    assert not mismatched, mismatched


def test_solve_output_matches_the_committed_hashes(replayed):
    _assert_matches(replayed["runs"], "runs")


def test_verify_output_matches_the_committed_hashes(replayed):
    _assert_matches(replayed["verify"], "verify")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    with tempfile.TemporaryDirectory() as tmp:
        results = replay(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"regenerate": REGENERATE, **results}, indent=1) + "\n")
    print(f"wrote {sum(map(len, results.values()))} runs to {GOLDEN}")
