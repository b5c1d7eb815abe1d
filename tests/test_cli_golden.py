"""Byte identity of ``xosmax solve`` output against committed hashes.

``tests/data/cli_golden.json`` holds, for each run below, the sha256 of its
stdout and of its stderr and its exit code. The runs cover the solvers whose
masks do not depend on earlier answers (``enum``, ``sample`` with and
without its options, ``brute``, ``probe``) and ``star``, on explicit grounds
of 16, 30, 64 and 70 elements that drop singletons, on ``hard_general`` and
its remark variant, on a needle and on ``hard_kxos``, in CSV and NDJSON, plus
refused runs (exit 4). A change that keeps every call count, seeded draw and
output byte keeps every hash.

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
    """(label, instance name, argv after ``--instance PATH``) of every run."""
    out = []
    for i, (name, algo, extra, *seed) in enumerate(PLAN):
        seed = seed[0] if seed else 100 + i
        for fmt in ("csv", "json"):
            argv = ["--algo", algo, *extra, "--trials", "3", "--seed", str(seed), "--format", fmt]
            out.append((f"{name} {' '.join(argv)}", name, argv))
    return out


def replay(directory: Path) -> dict[str, dict]:
    """Run every run of ``runs()`` with instance files in ``directory``."""
    from xosmax import cli

    for name, doc in INSTANCES.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    saved = cli.time
    cli.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    results = {}
    try:
        for label, name, argv in runs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["solve", "--instance", str(directory / f"{name}.json"), *argv])
            results[label] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            }
    finally:
        cli.time = saved
    return results


def test_solve_output_matches_the_committed_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = replay(tmp_path)
    assert list(got) == list(golden["runs"])
    assert {r["exit"] for r in got.values()} == {0, 4}
    mismatched = [label for label, want in golden["runs"].items() if got[label] != want]
    assert not mismatched, mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    with tempfile.TemporaryDirectory() as tmp:
        results = replay(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"regenerate": REGENERATE, "runs": results}, indent=1) + "\n")
    print(f"wrote {len(results)} runs to {GOLDEN}")
