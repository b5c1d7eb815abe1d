"""One pass over a workload's corpus, driven through the CLI's own entry points.

A pass runs every case of the corpus once, in a closed loop with one caller:
each call starts only after the previous one returned.

* Solver workloads: per instance, ``load_instance`` and
  ``InstanceHandle.exact_optimum`` once, as ``xosmax solve`` does, then one
  ``xosmax.cli.run_trial`` call per trial.
* verify: one ``xosmax.cli.main(["verify", ...])`` call per table.
* suites: one ``xosmax.cli.main(["bench", ...])`` call per config.

Only the calls into the package are timed; the checks, and the host-speed
probes of ``hostspeed``, run between them.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus
import hostspeed

_clock = time.perf_counter_ns


@dataclass
class Stats:
    """What a phase did: timed calls, queries, failures and pins.

    ``calls`` maps a label (a case and its algorithm, or a case's load) to
    the durations of its timed calls; ``latencies_ns`` holds the trials
    among them in order. ``slots`` maps each call of a pass, named by its
    label and its rank among the pass's calls of that label, to its
    (start, end) times across passes, and ``speed`` holds the host-speed
    probes taken between calls. Trials are numbered in the order they were
    attempted; ``failed`` holds the numbers of trials that raised or failed
    a check, and ``pins`` pairs a trial number with the digest of its output.
    """

    latencies_ns: list[int] = field(default_factory=list)
    calls: dict[str, list[int]] = field(default_factory=dict)
    slots: dict[tuple[str, int], list[tuple[int, int]]] = field(default_factory=dict)
    trial_slots: set[tuple[str, int]] = field(default_factory=set)
    timed_ns: int = 0
    attempted: int = 0
    queries: int = 0
    failed: set[int] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)
    pins: list[tuple[int, str]] = field(default_factory=list)
    # Timed ns of each whole pass.
    passes: list[int] = field(default_factory=list)
    speed: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)
    _rank: dict[str, int] = field(default_factory=dict)

    def run_pass(self, ctx: "Context", pass_index: int) -> None:
        timed_ns = self.timed_ns
        self._rank.clear()
        self.speed.sample(force=True)
        run_pass(ctx, pass_index, self)
        self.speed.sample(force=True)
        self.passes.append(self.timed_ns - timed_ns)

    def typical(self) -> dict[str, float]:
        """Throughput and latencies of a typical pass.

        Every pass makes the same calls. Each call's duration is put in
        reference time (see ``hostspeed``), and each call of a pass is taken
        at its fastest across the passes of the run: other work on a shared
        host only ever slows a call down, in bursts of any length, so the
        fastest of several repeats is the steadiest estimate of the call's
        own cost. A change in the work of any call still moves it. The pass
        time is the sum of these, loads included; the median and the tail
        are over the trials among them. The tail is the highest percentile
        with at least ten trials beyond it; when that would not lie above
        the median (a pass of fewer than 23 trials), it is the slowest trial.
        """
        n = len(self.passes)
        ref = self.speed.reference_ns
        best = {key: min(ref(*span) for span in v) for key, v in self.slots.items()}
        pass_ns = sum(best.values())
        trials = sorted(best[key] for key in self.trial_slots)
        tail_index = len(trials) - 11
        if tail_index <= len(trials) // 2:
            tail_index = len(trials) - 1
        return {
            "trials_per_s": len(trials) / pass_ns * 1e9,
            "queries_per_s": self.queries / n / pass_ns * 1e9,
            "trial_ms_p50": statistics.median(trials) / 1e6,
            "trial_ms_tail": trials[tail_index] / 1e6,
            "tail_note": f"p{100 * (tail_index + 1) / len(trials):.1f} of the {len(trials)} "
                         f"trials of a pass, {len(trials) - 1 - tail_index} beyond",
        }

    def begin(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def add(self, label: str, start: int, end: int, trial: bool = True) -> None:
        ns = end - start
        self.calls.setdefault(label, []).append(ns)
        rank = self._rank.get(label, 0)
        self._rank[label] = rank + 1
        self.slots.setdefault((label, rank), []).append((start, end))
        self.speed.sample()
        self.timed_ns += ns
        if trial:
            self.latencies_ns.append(ns)
            self.trial_slots.add((label, rank))

    def fail(self, trial: int, label: str, why: str) -> None:
        self.failed.add(trial)
        self.messages.append(f"{label}: {why}")


@dataclass
class Context:
    """A workload's corpus, written to files, and the package it runs on."""

    workload: str
    mods: object
    cases: list
    paths: list[Path]
    out_dir: Path
    instruments: object = None


def write_corpus(workload: str, seed: int, mods, directory: Path) -> Context:
    """Generate the corpus, write each document (and suite config) to a file,
    and load every instance once, which validates it."""
    cases = corpus.WORKLOADS[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.label}.json"
        path.write_text(json.dumps(case.doc))
        mods.instances.load_instance(path)
        if workload == "suites":
            path = directory / f"{case.label}.config.json"
            path.write_text(json.dumps(dict(case.config, instance=f"{case.label}.json", base_seed=0)))
        paths.append(path)
    out_dir = directory / "out"
    out_dir.mkdir(exist_ok=True)
    return Context(workload, mods, cases, paths, out_dir)


def attach_hidden_weights(ctx: Context) -> None:
    """Weights of hidden verify tables, for checking their witnesses."""
    for case, path in zip(ctx.cases, ctx.paths):
        if case.weights is None:
            rep = ctx.mods.instances.load_instance(path).hidden.representation()
            case.weights = [list(c.weights) for c in rep.components]


def run_pass(ctx: Context, pass_index: int, stats: Stats) -> None:
    runner = {"verify": _verify_pass, "suites": _suites_pass}.get(ctx.workload, _solver_pass)
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        runner(ctx, pass_index, stats)


def _label(ctx: Context, label: str) -> None:
    tracer = ctx.instruments.tracer
    if tracer is not None:
        tracer.label = label


def _solver_pass(ctx: Context, pass_index: int, stats: Stats) -> None:
    cli = ctx.mods.cli
    reports = ctx.instruments.reports
    for case, path in zip(ctx.cases, ctx.paths):
        _label(ctx, f"{case.label}/load")
        t0 = _clock()
        try:
            handle = cli.load_instance(str(path))
            opt_info = handle.exact_optimum(cli.DEFAULT_BRUTE_CAP)
        except Exception as exc:  # every trial of the case fails; the run goes on
            stats.timed_ns += _clock() - t0
            for _ in case.trials:
                stats.fail(stats.begin(), case.label, f"load raised {exc!r}")
            continue
        stats.add(f"{case.label}/load", t0, _clock(), trial=False)
        for j, (algo, kw) in enumerate(case.trials):
            seed = corpus.trial_seed(case.seed, pass_index, j, len(case.trials))
            label = f"{case.label}/{algo}"
            _label(ctx, label)
            reports.clear()
            trial = stats.begin()
            t0 = _clock()
            try:
                record = cli.run_trial(handle, algo, trial=j, seed=seed, opt_info=opt_info, **kw)
            except Exception as exc:
                stats.timed_ns += _clock() - t0
                stats.fail(trial, label, f"raised {exc!r}")
                continue
            stats.add(label, t0, _clock())
            stats.queries += record.calls
            report = reports[0] if len(reports) == 1 else None
            peeked = ctx.instruments.peek(handle, report.output) if report else None
            why = checks.solver_trial(case, algo, kw, record, report, peeked)
            if why:
                stats.fail(trial, label, why)
            if report is not None:
                stats.pins.append((trial, checks.solver_pin(seed, report)))


def _main(ctx: Context, label: str, argv: list[str], stats: Stats) -> int | None:
    """One timed ``xosmax.cli.main`` call; the trial number, or None on failure."""
    _label(ctx, label)
    trial = stats.begin()
    t0 = _clock()
    try:
        code = ctx.mods.cli.main(argv)
    except Exception as exc:
        stats.timed_ns += _clock() - t0
        stats.fail(trial, label, f"raised {exc!r}")
        return None
    stats.add(label, t0, _clock())
    if code != 0:
        stats.fail(trial, label, f"exit code {code}")
        return None
    return trial


def _verify_pass(ctx: Context, pass_index: int, stats: Stats) -> None:
    for case, path in zip(ctx.cases, ctx.paths):
        out = ctx.out_dir / f"{case.label}.json"
        trial = _main(ctx, case.label, ["verify", "--instance", str(path), "--out", str(out)], stats)
        if trial is None:
            continue
        stats.queries += 1 << case.n
        data = out.read_bytes()
        stats.pins.append((trial, checks.digest(data)))
        why = checks.verify_result(case, json.loads(data))
        if why:
            stats.fail(trial, case.label, why)


def _suites_pass(ctx: Context, pass_index: int, stats: Stats) -> None:
    for case, path in zip(ctx.cases, ctx.paths):
        ext = "csv" if case.config["format"] == "csv" else "ndjson"
        out = ctx.out_dir / f"{case.label}.{ext}"
        seed = corpus.trial_seed(case.seed, pass_index, 0, case.config["trials"])
        argv = ["bench", "--config", str(path), "--seed", str(seed), "--out", str(out)]
        trial = _main(ctx, case.label, argv, stats)
        if trial is None:
            continue
        data = out.read_bytes()
        stats.pins.append((trial, checks.suite_digest(data)))
        calls, why = checks.suite_output(case, data, seed)
        stats.queries += calls
        if why:
            stats.fail(trial, case.label, why)
