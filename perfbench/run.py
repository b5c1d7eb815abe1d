#!/usr/bin/env python3
"""Layered benchmark for xosmax.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-pins

Run from the root of a source checkout; the package is imported from
``src/``. One run:

1. sets up the workload in several rounds of a few set-ups each (fresh
   import of the package, then generating, writing and loading the corpus
   for ``--seed``) and reports the median over the rounds of each round's
   fastest set-up as ``setup_s``;
2. runs one pass over the pinned corpus (seed ``corpus.PIN_SEED``) and
   compares every trial's digest with ``pins.json``;
3. runs passes over the seeded corpus for ``--seconds``, checking every
   output, and prints the end-to-end metrics (``--trace 0``) or, after an
   untraced and a traced half, the per-layer metrics (``--trace 1``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, and in a
traced run the raw spans, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import corpus
import hostspeed
import passes
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

# Set-up runs in rounds of SETUP_REPEATS, SETUP_BEFORE rounds before the
# timed phase and SETUP_AFTER after it. A round counts its fastest set-up,
# since other work on the host only slows set-up down; setup_s is the
# median over the rounds, so no single round decides it.
SETUP_REPEATS = 3
SETUP_BEFORE = 4
SETUP_AFTER = 3
MODULES = ("core", "rng", "algorithms", "hardness", "classify", "instances", "cli")
WORKLOADS = ("nonadaptive", "adaptive", "verify", "suites")
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_package() -> SimpleNamespace:
    """Import xosmax afresh, so that every setup pays for the import."""
    for name in [m for m in sys.modules if m == "xosmax" or m.startswith("xosmax.")]:
        del sys.modules[name]
    importlib.import_module("xosmax")
    return SimpleNamespace(**{m: importlib.import_module(f"xosmax.{m}") for m in MODULES})


def setup(workload: str, seed: int, work: Path):
    """(context, reference seconds): import, then generate, write and load the corpus."""
    return hostspeed.timed(lambda: passes.write_corpus(workload, seed, import_package(), work))


def setup_round(workload: str, seed: int, work: Path):
    """(context, seconds): the fastest of SETUP_REPEATS set-ups."""
    runs = [setup(workload, seed, work) for _ in range(SETUP_REPEATS)]
    return runs[-1][0], min(seconds for _, seconds in runs)


def pinned_context(workload: str, mods, directory: Path):
    """The corpus of ``corpus.PIN_SEED``, ready to run and check."""
    ctx = passes.write_corpus(workload, corpus.PIN_SEED, mods, directory)
    if workload == "verify":
        passes.attach_hidden_weights(ctx)
    return ctx


def pinned_pass(ctx, pins: dict | None, stats) -> None:
    """One pass over the pinned corpus; a trial whose digest differs fails."""
    passes.run_pass(ctx, 0, stats)
    if pins is None:
        stats.messages.append("no pins recorded for this workload")
        stats.failed.update(range(stats.attempted))
        return
    got = dict(stats.pins)
    expected = pins["trials"]
    if len(expected) != stats.attempted:
        stats.messages.append(f"pinned pass made {stats.attempted} trials, pins hold {len(expected)}")
    for trial in range(stats.attempted):
        if trial >= len(expected) or got.get(trial) != expected[trial]:
            stats.fail(trial, "pinned", f"trial {trial} output differs from pins.json")
    if stats.queries != pins["queries"]:
        stats.messages.append(f"pinned pass made {stats.queries} queries, pins hold {pins['queries']}")
        stats.failed.update(range(stats.attempted))


def timed_phase(ctx, seconds: float, first_pass: int):
    """Whole passes over the corpus until ``seconds`` have gone."""
    stats = passes.Stats()
    deadline = time.perf_counter() + seconds
    while not stats.passes or time.perf_counter() < deadline:
        stats.run_pass(ctx, first_pass + len(stats.passes))
    return stats


def end_to_end(stats, setup_times: list[float]) -> tuple[dict, str]:
    """End-to-end metrics and a note on the tail percentile."""
    typical = stats.typical()
    note = typical.pop("tail_note")
    return dict(
        typical,
        setup_s=statistics.median(setup_times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    ), note


def run(args) -> dict:
    workload, seed = args.workload, args.seed
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_BEFORE):
            ctx, seconds = setup_round(workload, seed, work / "corpus")
            setup_times.append(seconds)
        mods = ctx.mods
        if workload == "verify":
            passes.attach_hidden_weights(ctx)
        pin_ctx = pinned_context(workload, mods, work / "pinned")
        pins = json.loads(PINS.read_text()).get("workloads", {}).get(workload) if PINS.exists() else None

        pin_stats = passes.Stats()
        pin_tracer = spans.Tracer(track_repeats=True) if args.trace else None
        with spans.Instruments(mods, pin_tracer) as pin_ctx.instruments:
            pinned_pass(pin_ctx, pins, pin_stats)

        with spans.Instruments(mods) as ctx.instruments:
            stats = timed_phase(ctx, args.seconds / (2 if args.trace else 1), 0)
        phases = [("untraced", stats)]
        problems: list[str] = []
        if args.trace:
            tracer = spans.Tracer()
            with spans.Instruments(mods, tracer) as ctx.instruments:
                traced = timed_phase(ctx, args.seconds / 2, len(stats.passes))
            phases.append(("traced", traced))
        for _ in range(SETUP_AFTER):
            setup_times.append(setup_round(workload, seed, work / "again")[1])
        if args.trace:
            pin_summary = spans.SpanSummary(pin_tracer)
            summary = spans.SpanSummary(tracer)
            problems = pin_summary.problems + summary.problems
            if workload != "verify" and pin_summary.n("core.evaluate") != pin_stats.queries:
                problems.append(
                    f"pinned pass: {pin_summary.n('core.evaluate')} evaluate spans "
                    f"for {pin_stats.queries} reported oracle calls"
                )
            tps = [s.typical()["trials_per_s"] for s in (stats, traced)]
            metrics = spans.layer_metrics(pin_summary, summary, len(traced.latencies_ns), *tps)
            units = dict(spans.PER_LAYER)
            tracer.save(OUT / f"spans-{workload}.npz")
            breakdown = summary.by_label
        else:
            metrics, tail_note = end_to_end(stats, setup_times)
            units = dict(END_TO_END)
            breakdown = {}

        all_stats = [pin_stats] + [s for _, s in phases]
        attempted = sum(s.attempted for s in all_stats)
        failed = sum(len(s.failed) for s in all_stats)
        messages = [m for s in all_stats for m in s.messages] + problems
        correct = failed == 0 and not messages

        print(f"workload={workload} seed={seed} trace={args.trace} "
              f"setup_s(median of {len(setup_times)} rounds)={statistics.median(setup_times):.4f}")
        for name, s in phases:
            print(f"  {name} phase: {len(s.passes)} passes, {len(s.latencies_ns)} trials, "
                  f"{s.timed_ns / 1e9:.3f} s timed, host probe "
                  f"{min(s.speed.ns) / 1e6:.3f} ms fastest, {statistics.median(s.speed.ns) / 1e6:.3f} ms median "
                  f"(reference {hostspeed.REFERENCE_NS / 1e6:.3f} ms)")
        for name, value in metrics.items():
            extra = f"  ({tail_note})" if name == "trial_ms_tail" else ""
            print(f"  {name:34s} {value:.6g} {units[name]}{extra}")
        print(f"  {'failed_frac':34s} {failed / attempted:.6g} 1  "
              f"({failed} of {attempted} trials, {pin_stats.attempted} of them pinned)")
        for message in messages[:20]:
            print(f"  FAIL {message}")

        details = {
            "workload": workload, "seed": seed, "trace": args.trace,
            "metrics": metrics, "setup_times_s": setup_times,
            "phases": {name: {"passes": len(s.passes), "trials": len(s.latencies_ns),
                              "timed_s": s.timed_ns / 1e9,
                              "probe_ms_fastest": min(s.speed.ns) / 1e6,
                              "probe_ms_median": statistics.median(s.speed.ns) / 1e6,
                              "pass_ms": [round(p / 1e6, 3) for p in s.passes]}
                       for name, s in phases},
            "messages": messages[:200],
            "call_ms_p50_by_case": {
                name: {label: statistics.median(v) / 1e6 for label, v in sorted(s.calls.items())}
                for name, s in phases
            },
            "span_ms_by_case": breakdown,
        }
        if not args.trace:
            details["trial_ms_tail_note"] = tail_note
        (OUT / f"{workload}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_pins(workloads) -> int:
    """Record the pinned pass of each workload in pins.json."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pins-", dir=OUT))
    try:
        mods = import_package()
        doc = json.loads(PINS.read_text()) if PINS.exists() else {}
        doc["pin_seed"] = corpus.PIN_SEED
        doc.setdefault("workloads", {})
        for workload in workloads:
            ctx = pinned_context(workload, mods, work / workload)
            stats = passes.Stats()
            with spans.Instruments(mods) as ctx.instruments:
                passes.run_pass(ctx, 0, stats)
            if stats.failed or stats.messages:
                print(f"{workload}: not pinned, checks failed: {stats.messages[:5]}", file=sys.stderr)
                return 1
            doc["workloads"][workload] = {
                "trials": [d for _, d in sorted(stats.pins)],
                "queries": stats.queries,
            }
            print(f"{workload}: pinned {stats.attempted} trials, {stats.queries} queries")
        PINS.write_text(json.dumps(doc, indent=1) + "\n")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the pinned outputs of --workload (default: all) in pins.json")
    args = parser.parse_args(argv)
    if not (SRC / "xosmax" / "__init__.py").is_file():
        print(f"error: no xosmax sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Exit through the normal path on SIGTERM, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.write_pins:
        return write_pins([args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
