"""Experiment harness and command-line interface.

Subcommands:

* ``gen``     write an instance document (explicit, or a ``hardness.FAMILIES`` kind)
* ``solve``   run one solver for one or more seeded trials on an instance
* ``bench``   run a config-driven trial suite and aggregate it
* ``verify``  materialize a small instance and run the class checks

One ``ExperimentConfig`` describes a suite, whether built from ``solve``'s
flags, a ``bench`` JSON config or Python, and ``run_suite`` runs it.
``SOLVERS`` maps each algorithm to its trial call. ``_solver`` alone checks
the name and the options it reads; building a config runs it once, whatever
its trials, and then brute's and probe's own query-limit checks, whose
counts the options fix. Trial i uses seed (base_seed + i) mod 2^64 and a fresh
oracle (base_seed must pass ``rng.check_seed``, as must ``gen --seed``); the
optimum reference is computed once per suite without any oracle, so
reported call counts are the solver's own. A ``TrialRecord``'s fields, in
order, are the NDJSON keys; the first ten are the fixed CSV columns.
Replaying a suite with the same base_seed is byte-identical because the ms
column is 0 unless ``--record-timing`` asks for measured wall time.

Machine output (instance JSON, trial records) goes to stdout or ``--out``;
human-readable summaries go to stderr. Exit codes: 0 success, 2 bad
arguments or an unwritable ``--out``, 3 instance error, 4 a work bound
refused the run: a solver phase whose worst case would take the run to
``core.MAX_QUERIES`` = 2^21 queries (the message names the solver and the
phase), or a ``verify`` table above ``classify.MATERIALIZE_CAP`` elements.
Either is refused before its first query or table entry.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .algorithms import (
    EnumParams,
    SamplingParams,
    brute_phase,
    solve_brute_force,
    solve_enum_small_sets,
    solve_exact_2xos,
    solve_exact_star,
    solve_k_minus_1,
    solve_random_sampling,
)
from .classify import CLASS_NAMES, MATERIALIZE_CAP, check_class, check_star_condition, materialize
from .core import (
    CapExceededError,
    InstanceFormatError,
    Run,
    ValueOverflowError,
    _is_int,
    elements_of,
)
from .hardness import FAMILIES, probe_phase, uniform_size_probe
from .instances import InstanceHandle, dump_instance, instance_from_dict, load_instance
from .rng import SEED_LIMIT, check_seed

# Each algorithm's trial call (oracle, seed, args), args being what _solver
# builds. A call looks up its solver's name here when it runs, so a wrapper
# put in that name's place sees every report.
SOLVERS = {
    "enum": lambda oracle, seed, args: solve_enum_small_sets(oracle, args),
    "sample": lambda oracle, seed, args: solve_random_sampling(oracle, replace(args, seed=seed)),
    "exact2": lambda oracle, seed, args: solve_exact_2xos(oracle),
    "kminus1": lambda oracle, seed, args: solve_k_minus_1(oracle),
    "star": lambda oracle, seed, args: solve_exact_star(oracle),
    "brute": lambda oracle, seed, args: solve_brute_force(oracle),
    "probe": lambda oracle, seed, args: uniform_size_probe(oracle, *args, seed),
}
ALGORITHMS = tuple(SOLVERS)

CSV_COLUMNS = ("trial", "seed", "algo", "n", "k", "value", "opt", "ratio", "calls", "ms")

# Only passed to InstanceHandle.exact_optimum, which ignores it; the
# benchmark harness passes it too, so it goes with that argument (ROADMAP
# direction 7).
DEFAULT_BRUTE_CAP = 20

# The solver options: the keys a bench config's "params" object may hold and
# the ``solve`` flags, each passed to _solver as the keyword of that name.
_PARAM_KEYS = ("epsilon", "budget_override", "high_probability", "queries")


class UsageError(ValueError):
    """Bad command-line arguments or config values (exit code 2)."""


@dataclass(frozen=True)
class TrialRecord:
    """One solver run: what it returned, what it cost, and how it compares.

    ``opt`` is the exact optimum: the planted value (``opt_source``
    "planted") or the O(kn) identity over a representation ("brute").
    ``ratio`` is opt/value (>= 1 when both are positive), 1.0 when both are
    zero, and infinity when value is nonpositive but opt is positive.
    ``ms`` is the solver's measured wall time. The fields, in order, are the
    NDJSON keys.
    """

    trial: int
    seed: int
    algo: str
    n: int
    k: int | None
    value: int
    opt: int
    ratio: float
    calls: int
    ms: float
    opt_source: str
    budget_override: int | None = None


def _ratio(opt: int, value: int) -> float:
    if value > 0:
        return opt / value
    if opt == value:
        return 1.0
    return math.inf


def _solver(handle: InstanceHandle, algo: str, *, epsilon=None,
            budget_override: int | None = None, high_probability: bool = False,
            queries: int = 1000):
    """The ``args`` that ``SOLVERS[algo]`` takes on ``handle``, after checking
    the options ``algo`` reads before any oracle exists; it ignores the others."""
    if algo not in ALGORITHMS:  # a tuple test: an unhashable JSON value is no TypeError
        raise UsageError(f"algorithm must be one of {', '.join(ALGORITHMS)}, got {algo!r}")
    if algo in ("enum", "sample") and epsilon is None:
        raise UsageError(f"{algo} needs --epsilon (an exact rational like 1/3)")
    if algo == "enum":
        return EnumParams(epsilon)
    if algo == "sample":
        return SamplingParams(epsilon, 0, budget_override, high_probability)
    if algo == "probe":
        if handle.kind != "needle":
            raise UsageError("probe runs on needle instances only")
        return handle.hidden.t, queries


def run_trial(handle: InstanceHandle, algo: str, trial: int = 0, seed: int = 0, *,
              opt_info: tuple[int, str] | None = None, **options) -> TrialRecord:
    """Run ``SOLVERS[algo]`` with ``_solver``'s args for ``options`` on a fresh
    oracle and assemble the record. ``opt_info`` lets suite runners compute the
    optimum reference once; when absent it is computed on an oracle-free path."""
    args = _solver(handle, algo, **options)
    oracle = handle.oracle()
    t0 = time.perf_counter()
    report = SOLVERS[algo](oracle, seed, args)
    ms = (time.perf_counter() - t0) * 1000.0
    opt, source = opt_info if opt_info is not None else handle.exact_optimum(DEFAULT_BRUTE_CAP)
    return TrialRecord(
        trial=trial,
        seed=seed,
        algo=report.algorithm,
        n=handle.n,
        k=handle.width,
        value=report.value,
        opt=opt,
        ratio=_ratio(opt, report.value),
        calls=report.oracle_calls,
        ms=ms,
        opt_source=source,
        budget_override=report.budget_override,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One trial suite, built from ``solve``'s flags, a ``bench`` JSON config
    (``from_dict``) or in Python. Construction checks trials, params
    (``_PARAM_KEYS``), format and base seed, then, whatever ``trials`` is, the
    algorithm and the options it reads, through ``_solver``, and brute's and
    probe's query limit through their own checks, which make no query."""

    handle: InstanceHandle
    algorithm: str
    trials: int
    base_seed: int = 0
    params: dict = field(default_factory=dict)
    format: str = "csv"

    def __post_init__(self) -> None:
        if not (_is_int(self.trials) and self.trials >= 0):
            raise UsageError("trials must be a nonnegative integer")
        if not isinstance(self.params, dict):
            raise UsageError("config field 'params' must be an object")
        unknown = [key for key in self.params if key not in _PARAM_KEYS]
        if unknown:
            raise UsageError(
                f"config field 'params' has unknown key(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(_PARAM_KEYS)}"
            )
        if self.format not in ("json", "csv"):
            raise UsageError("config field 'format' must be 'json' or 'csv'")
        check_seed(self.base_seed, UsageError)
        args = _solver(self.handle, self.algorithm, **self.params)
        run = Run(self.handle.oracle(), self.algorithm)
        if self.algorithm == "brute":
            brute_phase(run, self.handle.n)
        elif self.algorithm == "probe":
            probe_phase(run, args[1])

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        """A config from a JSON object; a string ``instance`` is a file path,
        relative to ``base_dir`` when given."""
        if not isinstance(doc, dict):
            raise UsageError("config must be a JSON object")
        inst = doc.get("instance")
        if isinstance(inst, str):
            path = Path(inst)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            handle = load_instance(path)
        elif isinstance(inst, dict):
            handle = instance_from_dict(inst)
        else:
            raise UsageError("config field 'instance' must be a document or file path")
        return cls(handle, doc.get("algorithm"), doc.get("trials"), doc.get("base_seed", 0),
                   doc.get("params", {}), doc.get("format", "csv"))


def run_suite(config: ExperimentConfig) -> list[TrialRecord]:
    """Run the suite's trials in order: trial i uses seed (base_seed + i)
    mod 2^64 and a fresh oracle, and all share one optimum reference."""
    handle = config.handle
    opt_info = handle.exact_optimum(DEFAULT_BRUTE_CAP)
    return [
        run_trial(handle, config.algorithm, trial=i, seed=(config.base_seed + i) % SEED_LIMIT,
                  opt_info=opt_info, **config.params)
        for i in range(config.trials)
    ]


# ---------------------------------------------------------------------------
# Serialization


def record_to_json_dict(record: TrialRecord) -> dict:
    """The record's fields in order; an infinite ratio is the string "inf"
    (JSON has no infinity) and ms is rounded to microseconds."""
    doc = dict(vars(record))
    doc["ratio"] = "inf" if math.isinf(record.ratio) else record.ratio
    doc["ms"] = round(record.ms, 3)
    return doc


def records_to_json_lines(records: Sequence[TrialRecord]) -> str:
    return "".join(json.dumps(record_to_json_dict(r)) + "\n" for r in records)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def records_to_csv(records: Sequence[TrialRecord], record_timing: bool = False) -> str:
    """Fixed-column CSV; ms is 0 unless timing was explicitly requested,
    which keeps same-seed replays byte-identical."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        row = dict(vars(r), ms=int(round(r.ms)) if record_timing else 0)
        lines.append(",".join(_csv_cell(row[column]) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def summarize(records: Sequence[TrialRecord]) -> str:
    """Human summary for stderr: call quantiles, ratio spread, success rate."""
    if not records:
        return "0 trials"
    first = records[0]
    lines = [f"{len(records)} trial(s) of {first.algo} on n={first.n}"]
    calls = [r.calls for r in records]
    lines.append(
        f"  calls: min={min(calls)} median={statistics.median(calls)} max={max(calls)}"
    )
    finite = [r.ratio for r in records if math.isfinite(r.ratio)]
    infinite = sum(1 for r in records if math.isinf(r.ratio))
    if finite:
        lines.append(
            f"  ratio (opt/value): min={min(finite):.4f} "
            f"mean={statistics.fmean(finite):.4f} max={max(finite):.4f}"
            + (f" (+{infinite} infinite)" if infinite else "")
        )
    else:
        lines.append(f"  ratio (opt/value): all {infinite} infinite")
    hits = sum(1 for r in records if r.value == r.opt)
    lines.append(f"  optimum hit rate: {hits}/{len(records)}")
    mean_ms = statistics.fmean(r.ms for r in records)
    lines.append(f"  mean wall time: {mean_ms:.3f} ms")
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _run_and_write(config: ExperimentConfig, args: argparse.Namespace) -> int:
    """Run a suite; its records go to stdout or ``--out``, its summary to stderr."""
    records = run_suite(config)
    if config.format == "csv":
        _emit(records_to_csv(records, record_timing=args.record_timing), args.out)
    else:
        _emit(records_to_json_lines(records), args.out)
    print(summarize(records), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def _parse_weights_arg(text: str) -> list[list[int]]:
    try:
        rows = [[int(cell) for cell in row.split(",")] for row in text.split(";") if row]
    except ValueError as exc:
        raise UsageError(f"bad --weights (rows ';'-separated, entries ','): {exc}") from exc
    if not rows:
        raise UsageError("--weights is empty")
    return rows


def cmd_gen(args: argparse.Namespace) -> int:
    if args.type == "explicit":
        rows = _parse_weights_arg(args.weights)
        doc = {"type": "explicit", "n": len(rows[0]), "weights": rows}
    else:
        check_seed(args.seed, UsageError)
        cls, _ = FAMILIES[args.type]
        params = {key: getattr(args, key) for key in cls.params}
        doc = {"type": args.type, "params": params, "seed": args.seed}
    handle = instance_from_dict(doc)  # validates parameters
    _emit(dump_instance(handle), args.out)
    width = handle.width if handle.width is not None else "unknown"
    hidden_note = "" if handle.kind == "explicit" else " (planted data hidden; derived from seed)"
    print(
        f"{handle.kind} instance: n={handle.n} width={width}{hidden_note}",
        file=sys.stderr,
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    params = {key: v for key in _PARAM_KEYS if (v := getattr(args, key)) is not None}
    config = ExperimentConfig(
        load_instance(args.instance), args.algo, args.trials, args.seed, params, args.format
    )
    return _run_and_write(config, args)


def cmd_bench(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if args.seed is not None and isinstance(doc, dict):
        doc["base_seed"] = args.seed  # replaced before the config checks it
    return _run_and_write(ExperimentConfig.from_dict(doc, base_dir=path.parent), args)


def _witness_text(witness) -> str:
    parts = []
    for w in witness:
        parts.append("{" + ",".join(str(v) for v in elements_of(w)) + "}")
    return " ".join(parts)


def cmd_verify(args: argparse.Namespace) -> int:
    handle = load_instance(args.instance)
    # The cap check comes before hard_general's O(n^2) representation, which
    # the star check reads too; the needle and the remark variant have none,
    # so their tables come from _values in one numpy pass. A representation's
    # table is certified subadditive when every U has an attaining a_j with no
    # negative weight on U: f(X|Y) = a_j(X) + a_j(Y) - a_j(X&Y) <= f(X) + f(Y).
    # Every monotone one is certified; a certified table skips the O(3^n) walk.
    source = handle.explicit or handle.hidden
    rep = handle.representation() if source.n <= MATERIALIZE_CAP else None
    dense = materialize(rep or source)
    result: dict[str, object] = {}
    for cls in CLASS_NAMES:
        ok, witness = check_class(dense, cls)
        result[cls] = {"ok": ok, "witness": list(witness) if witness else None}
        note = "pass" if ok else f"FAIL witness {_witness_text(witness)}"
        print(f"{cls}: {note}", file=sys.stderr)
    if rep is not None:
        ok, witness = check_star_condition(rep)
        result["star_condition"] = {"ok": ok, "witness": list(witness) if witness else None}
        note = (
            "pass"
            if ok
            else f"FAIL witness element {witness[0]} component {witness[1]}"
        )
        print(f"star condition: {note}", file=sys.stderr)
    else:
        result["star_condition"] = None
        print("star condition: not applicable (no explicit representation)", file=sys.stderr)
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write machine output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xosmax",
        description="Query-efficient maximization of XOS (max-of-additive) set functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write an instance document")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g_exp = gen_sub.add_parser("explicit", help="explicit weight matrix")
    g_exp.add_argument("--weights", required=True, help="rows ';'-separated, entries ','")
    g_exp.set_defaults(type="explicit")
    family_parsers = {}
    for kind, (cls, fixed) in FAMILIES.items():
        if fixed:  # a variant: one flag, named after its keyword, on its class's subcommand
            (key,) = fixed
            family_parsers[cls].add_argument(f"--{key}", dest="type", action="store_const",
                                             const=kind, help=f"the {kind} variant")
            continue
        p = family_parsers[cls] = gen_sub.add_parser(kind.replace("_", "-"),
                                                      help=(cls.__doc__ or kind).splitlines()[0])
        for key in cls.params:
            p.add_argument("--" + key.replace("_", ""), dest=key, type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(type=kind)
    for p in (g_exp, *family_parsers.values()):
        _add_common_output(p)
        p.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run a solver on an instance")
    solve.add_argument("--algo", required=True, choices=ALGORITHMS)
    solve.add_argument("--instance", required=True, help="instance JSON file")
    solve.add_argument("--trials", type=int, default=1)
    solve.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    solve.add_argument("--epsilon", help="exact rational like 1/3 (enum and sample)")
    solve.add_argument("--budget-override", type=int, help="per-round sample budget (sample)")
    solve.add_argument("--high-probability", action="store_true", default=None,
                       help="multiply the sample budget by ceil(2*epsilon*n)")
    solve.add_argument("--queries", type=int, help="probe query count")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument("--record-timing", action="store_true",
                       help="write measured ms into CSV (breaks byte-identical replay)")
    _add_common_output(solve)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run a config-driven suite")
    bench.add_argument("--config", required=True, help="experiment config JSON file")
    bench.add_argument("--seed", type=int, help="override the config base_seed")
    bench.add_argument("--record-timing", action="store_true",
                       help="write measured ms into CSV (breaks byte-identical replay)")
    _add_common_output(bench)
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="class checks on a materialized instance (n <= 16)")
    verify.add_argument("--instance", required=True, help="instance JSON file")
    _add_common_output(verify)
    verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing does not mutate it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InstanceFormatError, ValueOverflowError) as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
