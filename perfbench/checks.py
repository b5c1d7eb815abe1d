"""Correctness checks and frozen-output digests for benchmark trials.

Every check here runs outside the timed spans and uses exact int or
``Fraction`` arithmetic. A check returns None when the output is correct and
a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction

from corpus import ground_size

CSV_HEADER = "trial,seed,algo,n,k,value,opt,ratio,calls,ms"

# The only NDJSON field that may differ between replays of one suite.
_NDJSON_MS = re.compile(rb'"ms": [0-9.eE+-]+')


def digest(payload) -> str:
    """Short stable digest of bytes or of a JSON-serializable value."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def suite_digest(data: bytes) -> str:
    """Digest of ``xosmax bench`` output with the measured ms values zeroed."""
    return digest(_NDJSON_MS.sub(b'"ms": 0', data))


def _bits(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def xos_value(weights: list[list[int]], mask: int) -> int:
    """f(mask) = max_i sum_{v in mask} w_i(v), straight from the weight rows."""
    members = list(_bits(mask))
    return max(sum(row[v] for v in members) for row in weights)


def _guarantee(case, algo: str, kw: dict, value: int, calls: int) -> str | None:
    """The solver's documented guarantee against the independent optimum."""
    opt, width, n = case.opt, case.width, ground_size(case.doc)
    if value > opt:
        return f"value {value} exceeds the optimum {opt}"
    if algo == "exact2":
        if calls > 6 * n + 10:
            return f"exact2 made {calls} calls > 6n+10 = {6 * n + 10}"
        if width == 2 and value != opt:
            return f"exact2 value {value} != optimum {opt} at width 2"
    elif algo == "kminus1":
        if width == 2 and value != opt:
            return f"kminus1 value {value} != optimum {opt} at width 2"
        if width is not None and width >= 3 and value * (width - 1) < opt:
            return f"kminus1 value {value} < OPT/(k-1) = {opt}/{width - 1}"
    elif algo == "star":
        if case.star and value != opt:
            return f"star value {value} != optimum {opt} under the star condition"
    elif algo == "enum":
        if Fraction(value) * Fraction(kw["epsilon"]) * n < opt:
            return f"enum value {value} < OPT/(eps*n) with OPT={opt}, n={n}"
    elif algo == "brute":
        if value != opt:
            return f"brute value {value} != optimum {opt}"
    elif algo == "probe":
        if calls != kw.get("queries", 1000):
            return f"probe made {calls} calls for {kw.get('queries', 1000)} queries"
    return None


def solver_trial(case, algo: str, kw: dict, record, report, peeked: int | None) -> str | None:
    """Check one ``run_trial`` record and the SolveReport behind it."""
    if report is None:
        return "no SolveReport was captured for the trial"
    if (record.value, record.calls, record.algo) != (report.value, report.oracle_calls, report.algorithm):
        return f"record {record.value}/{record.calls}/{record.algo} disagrees with its report"
    if record.opt != case.opt:
        return f"optimum reference {record.opt} ({record.opt_source}) != independent {case.opt}"
    if record.n != ground_size(case.doc):
        return f"record n={record.n} for a ground set of {ground_size(case.doc)}"
    if not 0 <= report.output < 1 << record.n:
        return f"output mask {report.output:#x} outside the ground set"
    if peeked != report.value:
        return f"value {report.value} != peek(output) = {peeked}"
    return _guarantee(case, algo, kw, report.value, report.oracle_calls)


def solver_pin(seed: int, report) -> str:
    return digest([seed, report.algorithm, report.output, report.value, report.oracle_calls])


# ---------------------------------------------------------------------------
# verify


def _witness_holds(check: str, witness, weights, f) -> bool:
    """True when ``witness`` really violates the inequality ``check`` names."""
    if check == "normalized":
        return f(witness[0]) != 0
    if check == "monotone":
        x, y = witness
        return x & ~y == 0 and f(x) > f(y)
    if check == "additive":
        (x,) = witness
        return f(x) != sum(f(1 << v) for v in _bits(x))
    if check == "submodular":
        x, y = witness
        return f(x) + f(y) < f(x | y) + f(x & y)
    if check == "subadditive":
        x, y = witness
        return f(x) + f(y) < f(x | y)
    if check == "star_condition":
        v, i = witness
        w = weights[i][v]
        return w > 0 and w != max(row[v] for row in weights)
    raise ValueError(f"unknown check {check}")


def verify_result(case, result: dict) -> str | None:
    """Known verdicts and real witnesses for one ``xosmax verify`` output."""
    values: dict[int, int] = {}

    def f(mask: int) -> int:
        if mask not in values:
            values[mask] = xos_value(case.weights, mask)
        return values[mask]

    for check, expected in case.expect.items():
        entry = result.get(check)
        if not isinstance(entry, dict):
            return f"{check}: no verdict"
        ok, witness = entry.get("ok"), entry.get("witness")
        if ok is not expected:
            return f"{check}: verdict {ok}, constructed to be {expected}"
        if not ok and not (isinstance(witness, list) and _witness_holds(check, witness, case.weights, f)):
            return f"{check}: witness {witness} does not violate the inequality"
    return None


# ---------------------------------------------------------------------------
# bench suites


def _rows(case, data: bytes) -> list[dict]:
    text = data.decode()
    if case.config["format"] == "csv":
        if not text.startswith(CSV_HEADER + "\n"):
            raise ValueError("CSV header changed")
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            if row["ms"] != "0":
                raise ValueError(f"CSV ms column is {row['ms']!r}, not 0")
        return rows
    return [json.loads(line) for line in text.splitlines()]


def suite_output(case, data: bytes, base_seed: int) -> tuple[int, str | None]:
    """(total calls, failure reason) for one ``xosmax bench`` output file."""
    try:
        rows = _rows(case, data)
    except (ValueError, KeyError) as exc:
        return 0, f"unreadable output: {exc}"
    if len(rows) != case.config["trials"]:
        return 0, f"{len(rows)} records for {case.config['trials']} trials"
    calls = 0
    for i, row in enumerate(rows):
        value, opt, c = int(row["value"]), int(row["opt"]), int(row["calls"])
        calls += c
        if (int(row["trial"]), int(row["seed"]), row["algo"]) != (i, base_seed + i, case.config["algorithm"]):
            return calls, f"record {i} has trial/seed/algo {row['trial']}/{row['seed']}/{row['algo']}"
        if opt != case.opt:
            return calls, f"record {i}: optimum reference {opt} != independent {case.opt}"
        why = _guarantee(case, case.config["algorithm"], case.config["params"], value, c)
        if why:
            return calls, f"record {i}: {why}"
        if value > 0 and float(row["ratio"]) != opt / value:
            return calls, f"record {i}: ratio {row['ratio']} != {opt}/{value}"
    return calls, None
