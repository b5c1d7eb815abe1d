"""Experiment harness and command-line interface.

Subcommands:

* ``gen``     write an instance document (explicit weights or a hidden family)
* ``solve``   run one solver for one or more seeded trials on an instance
* ``bench``   run a config-driven trial suite and aggregate it
* ``verify``  materialize a small instance and run the class checks

Machine output (instance JSON, trial records) goes to stdout or ``--out``;
human-readable summaries go to stderr. Exit codes: 0 success, 2 bad
arguments, 3 instance error, 4 a work bound refused the run: a solver
phase whose worst case would take the run to ``core.MAX_QUERIES`` = 2^21
queries (the message names the solver and the phase), or a ``verify``
table above ``classify.MATERIALIZE_CAP`` elements. Either is refused before
its first query or table entry.

Trial i of a suite uses seed (base_seed + i) mod 2^64 and a fresh oracle
(base_seed, from ``--seed`` or the config, must pass ``rng.check_seed``,
as must ``gen --seed``); the optimum reference is computed once per suite
without any oracle, so reported call counts are the solver's own. CSV columns are fixed
(trial,seed,algo,n,k,value,opt,ratio,calls,ms) and replaying a suite with
the same base_seed is byte-identical because the ms column is 0 unless
``--record-timing`` asks for measured wall time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .algorithms import (
    EnumParams,
    SamplingParams,
    solve_brute_force,
    solve_enum_small_sets,
    solve_exact_2xos,
    solve_exact_star,
    solve_k_minus_1,
    solve_random_sampling,
)
from .classify import CLASS_NAMES, check_class, check_star_condition, materialize
from .core import (
    CapExceededError,
    InstanceFormatError,
    ValueOverflowError,
    _is_int,
    elements_of,
)
from .hardness import FAMILIES, uniform_size_probe
from .instances import InstanceHandle, dump_instance, instance_from_dict, load_instance
from .rng import SEED_LIMIT, check_seed

ALGORITHMS = ("enum", "sample", "exact2", "kminus1", "star", "brute", "probe")

CSV_COLUMNS = ("trial", "seed", "algo", "n", "k", "value", "opt", "ratio", "calls", "ms")

# Only passed to InstanceHandle.exact_optimum, which ignores it; the
# benchmark harness passes it too, so it goes with that argument (ROADMAP
# direction 7).
DEFAULT_BRUTE_CAP = 20

# The solver options: the keys a bench config's "params" object may hold and
# the ``solve`` flags, each passed to run_trial as the keyword of that name.
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
    wall_time_ms: float
    opt_source: str
    budget_override: int | None = None


def _ratio(opt: int, value: int) -> float:
    if value > 0:
        return opt / value
    if opt == value:
        return 1.0
    return math.inf


def run_trial(
    handle: InstanceHandle,
    algo: str,
    trial: int = 0,
    seed: int = 0,
    *,
    epsilon=None,
    budget_override: int | None = None,
    high_probability: bool = False,
    queries: int = 1000,
    opt_info: tuple[int, str] | None = None,
) -> TrialRecord:
    """Run one solver on a fresh oracle and assemble the record.

    ``opt_info`` lets suite runners compute the optimum reference once; when
    absent it is computed here on a separate oracle-free path.
    """
    oracle = handle.oracle()
    t0 = time.perf_counter()
    if algo == "enum":
        if epsilon is None:
            raise UsageError("enum needs --epsilon (an exact rational like 1/3)")
        report = solve_enum_small_sets(oracle, EnumParams(epsilon))
    elif algo == "sample":
        if epsilon is None:
            raise UsageError("sample needs --epsilon (an exact rational like 1/3)")
        report = solve_random_sampling(
            oracle,
            SamplingParams(
                epsilon,
                seed=seed,
                sample_budget_override=budget_override,
                high_probability=high_probability,
            ),
        )
    elif algo == "exact2":
        report = solve_exact_2xos(oracle)
    elif algo == "kminus1":
        report = solve_k_minus_1(oracle)
    elif algo == "star":
        report = solve_exact_star(oracle)
    elif algo == "brute":
        report = solve_brute_force(oracle)
    elif algo == "probe":
        if handle.kind != "needle":
            raise UsageError("probe runs on needle instances only")
        report = uniform_size_probe(oracle, handle.hidden.t, queries, seed)
    else:
        raise UsageError(f"unknown algorithm {algo!r}; choose from {', '.join(ALGORITHMS)}")
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
        wall_time_ms=ms,
        opt_source=source,
        budget_override=report.budget_override,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Bench suite: instance + algorithm + params + trial count + base seed."""

    instance: dict
    algorithm: str
    trials: int
    base_seed: int = 0
    params: dict | None = None
    format: str = "csv"

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise UsageError("config must be a JSON object")
        inst = doc.get("instance")
        if isinstance(inst, str):
            path = Path(inst)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            inst = load_instance(path).to_json_dict()
        if not isinstance(inst, dict):
            raise UsageError("config field 'instance' must be a document or file path")
        algo = doc.get("algorithm")
        if algo not in ALGORITHMS:
            raise UsageError(f"config algorithm must be one of {', '.join(ALGORITHMS)}")
        trials = doc.get("trials")
        if not (_is_int(trials) and trials >= 0):
            raise UsageError("config field 'trials' must be a nonnegative integer")
        base_seed = doc.get("base_seed", 0)
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise UsageError("config field 'params' must be an object")
        unknown = [key for key in params if key not in _PARAM_KEYS]
        if unknown:
            raise UsageError(
                f"config field 'params' has unknown key(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(_PARAM_KEYS)}"
            )
        fmt = doc.get("format", "csv")
        if fmt not in ("json", "csv"):
            raise UsageError("config field 'format' must be 'json' or 'csv'")
        return cls(inst, algo, trials, base_seed, params, fmt)


def _run_trials(
    handle: InstanceHandle,
    algo: str,
    trials: int,
    base_seed: int,
    params: dict,
) -> list[TrialRecord]:
    """Run ``trials`` trials sequentially; records are ordered by trial index.

    Trials are independent (fresh oracle and seed each); the optimum
    reference is computed once and shared. ``params`` holds solver options
    keyed by ``_PARAM_KEYS``; an absent key takes run_trial's default.
    """
    if trials < 0:
        raise UsageError("trials must be a nonnegative integer")
    check_seed(base_seed, UsageError)
    opt_info = handle.exact_optimum(DEFAULT_BRUTE_CAP)
    return [
        run_trial(
            handle, algo, trial=i, seed=(base_seed + i) % SEED_LIMIT, opt_info=opt_info, **params
        )
        for i in range(trials)
    ]


def run_suite(config: ExperimentConfig) -> list[TrialRecord]:
    """Run a bench suite; see ``_run_trials``."""
    handle = instance_from_dict(config.instance)
    return _run_trials(
        handle, config.algorithm, config.trials, config.base_seed, config.params or {}
    )


# ---------------------------------------------------------------------------
# Serialization


def record_to_json_dict(record: TrialRecord) -> dict:
    ratio = "inf" if math.isinf(record.ratio) else record.ratio
    return {
        "trial": record.trial,
        "seed": record.seed,
        "algo": record.algo,
        "n": record.n,
        "k": record.k,
        "value": record.value,
        "opt": record.opt,
        "ratio": ratio,
        "calls": record.calls,
        "ms": round(record.wall_time_ms, 3),
        "opt_source": record.opt_source,
        "budget_override": record.budget_override,
    }


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
        ms = int(round(r.wall_time_ms)) if record_timing else 0
        cells = (r.trial, r.seed, r.algo, r.n, r.k, r.value, r.opt, r.ratio, r.calls, ms)
        lines.append(",".join(_csv_cell(c) for c in cells))
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
    hits = sum(1 for r in records if r.value == r.opt)
    lines.append(f"  optimum hit rate: {hits}/{len(records)}")
    mean_ms = statistics.fmean(r.wall_time_ms for r in records)
    lines.append(f"  mean wall time: {mean_ms:.3f} ms")
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_records(records, fmt: str, out: str | None, record_timing: bool) -> None:
    if fmt == "csv":
        _emit(records_to_csv(records, record_timing=record_timing), out)
    else:
        _emit(records_to_json_lines(records), out)


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
    handle = load_instance(args.instance)
    params = {key: v for key in _PARAM_KEYS if (v := getattr(args, key)) is not None}
    records = _run_trials(handle, args.algo, args.trials, args.seed, params)
    _emit_records(records, args.format, args.out, args.record_timing)
    print(summarize(records), file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    config = ExperimentConfig.from_dict(doc, base_dir=path.parent)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    records = run_suite(config)
    fmt = args.format if args.format else config.format
    _emit_records(records, fmt, args.out, args.record_timing)
    print(summarize(records), file=sys.stderr)
    return 0


def _witness_text(witness) -> str:
    parts = []
    for w in witness:
        parts.append("{" + ",".join(str(v) for v in elements_of(w)) + "}")
    return " ".join(parts)


def cmd_verify(args: argparse.Namespace) -> int:
    handle = load_instance(args.instance)
    # The cap check comes before hard_general's O(n^2) representation.
    dense = materialize(handle.explicit or handle.hidden.evaluate, handle.n)
    rep = handle.representation()
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
    g_nee = gen_sub.add_parser("needle", help="hidden threshold set")
    g_nee.add_argument("--nhat", dest="n_hat", type=int, required=True)
    g_nee.add_argument("--s", type=int, required=True)
    g_nee.add_argument("--t", type=int, required=True)
    g_nee.add_argument("--seed", type=int, default=0)
    g_nee.set_defaults(type="needle")
    g_hg = gen_sub.add_parser("hard-general", help="hidden half-size set with floor")
    g_hg.add_argument("--n", type=int, required=True)
    g_hg.add_argument("--tau", type=int, required=True)
    g_hg.add_argument("--seed", type=int, default=0)
    g_hg.add_argument("--remark", dest="type", action="store_const", const="hard_general_remark",
                      help="max(additive, floor) variant")
    g_hg.set_defaults(type="hard_general")
    g_kx = gen_sub.add_parser("hard-kxos", help="width-k blocked construction")
    g_kx.add_argument("--k", type=int, required=True)
    g_kx.add_argument("--ntilde", dest="n_tilde", type=int, required=True)
    g_kx.add_argument("--a", type=int, required=True)
    g_kx.add_argument("--seed", type=int, default=0)
    g_kx.set_defaults(type="hard_kxos")
    for p in (g_exp, g_nee, g_hg, g_kx):
        _add_common_output(p)
        p.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run a solver on an instance")
    solve.add_argument("--algo", required=True, choices=ALGORITHMS)
    solve.add_argument("--instance", required=True, help="instance JSON file")
    solve.add_argument("--trials", type=int, default=1)
    solve.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    solve.add_argument("--epsilon", help="exact rational like 1/3 (enum and sample)")
    solve.add_argument("--budget-override", type=int, help="per-round sample budget (sample)")
    solve.add_argument("--high-probability", action="store_true",
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
    bench.add_argument("--format", choices=("json", "csv"),
                       help="override the config output format")
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
    except InstanceFormatError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 3
    except ValueOverflowError as exc:
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
