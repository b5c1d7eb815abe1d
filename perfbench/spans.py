"""Spans and counts at the boundaries between xosmax modules.

The benchmark never edits the package. It replaces module-level references,
the names through which one module calls another, with wrappers, and
restores them afterwards. Untraced runs install only the wrappers that
capture each SolveReport for the correctness checks. Traced runs also record
one span per wrapped call: name, start, end, parent and the unit of work
(a trial, or an instance load between trials) that it belongs to. Spans stay
in memory, in flat arrays, until the run ends.

Wrapped boundaries, by layer:

* cli: ``main``, ``run_trial``, and the serializers ``records_to_csv`` and
  ``records_to_json_lines`` (one ``cli.serialize`` span).
* algorithms: the solver names ``xosmax.cli`` calls (``algorithms.<algo>``).
* hardness: ``uniform_size_probe`` (``hardness.probe``) and the value
  function of each hidden family (``hardness.<family>_eval``).
* core: ``CountingOracle.evaluate`` through a subclass that the package's
  own oracle factories construct (``core.evaluate``), and the explicit value
  function (``core.explicit_eval``).
* rng: ``xosmax.algorithms.sample_positions`` and
  ``xosmax.hardness.sample_mask``; each span counts its splitmix64 draws.
* instances: ``load_instance``/``instance_from_dict`` as called by the CLI
  (``instances.load``), ``InstanceHandle.oracle`` and
  ``InstanceHandle.exact_optimum`` (renamed by provenance:
  ``instances.exact_optimum.{planted,identity,scan}``).
* classify: ``materialize``, ``check_class`` (``classify.<class>``) and
  ``check_star_condition``.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter_ns
_MASK64 = (1 << 64) - 1
# splitmix64 adds this constant to its state once per draw.
_INV_GAMMA = pow(0x9E3779B97F4A7C15, -1, 1 << 64)

SOLVERS = {
    "solve_enum_small_sets": "algorithms.enum",
    "solve_random_sampling": "algorithms.sample",
    "solve_exact_2xos": "algorithms.exact2",
    "solve_k_minus_1": "algorithms.kminus1",
    "solve_exact_star": "algorithms.star",
    "solve_brute_force": "algorithms.brute",
    "uniform_size_probe": "hardness.probe",
}


class Tracer:
    """Spans recorded in call order; a span's id is its index."""

    def __init__(self, track_repeats: bool = False) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.unit_labels: list[str] = []
        self.label = ""
        self.track_repeats = track_repeats
        self.paused = False
        self.broken = False
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        stack = self._stack
        sid = len(self.name)
        if stack:
            parent = stack[-1]
            unit = self.unit[parent]
        else:
            parent = -1
            unit = len(self.unit_labels)
            self.unit_labels.append(self.label)
        self.name.append(nid)
        self.parent.append(parent)
        self.unit.append(unit)
        self.count.append(0)
        self.end.append(0)
        stack.append(sid)
        self.start.append(_clock())
        return sid

    def close(self, sid: int, count: int = 0) -> None:
        self.end[sid] = _clock()
        if count:
            self.count[sid] = count
        if self._stack.pop() != sid:
            self.broken = True

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            unit_labels=np.array(self.unit_labels),
            **{key: np.frombuffer(getattr(self, key), dtype=np.int64 if key != "name" else np.int32)
               for key in ("name", "parent", "unit", "start", "end", "count")},
        )


class Instruments:
    """Wrappers at xosmax's module-level references, installed on creation
    and removed by ``restore`` or on leaving a ``with`` block.

    ``reports`` collects every SolveReport the CLI's solver calls return.
    With a tracer, every wrapped call also records a span.
    """

    def __init__(self, mods, tracer: Tracer | None = None) -> None:
        self.mods = mods
        self.tracer = tracer
        self.reports: list = []
        self._saved: list[tuple[object, str, object]] = []
        cli = mods.cli
        for attr, span in SOLVERS.items():
            self._patch(cli, attr, self._solver(span, getattr(cli, attr)))
        if tracer is None:
            return
        self._patch(cli, "main", self._span("cli.main", cli.main))
        self._patch(cli, "run_trial", self._span("cli.run_trial", cli.run_trial))
        for attr in ("records_to_csv", "records_to_json_lines"):
            self._patch(cli, attr, self._span("cli.serialize", getattr(cli, attr)))
        for attr in ("load_instance", "instance_from_dict"):
            self._patch(cli, attr, self._span("instances.load", getattr(cli, attr)))
        self._patch(cli, "materialize", self._span("classify.materialize", cli.materialize))
        self._patch(cli, "check_class", self._check_class(cli.check_class))
        self._patch(
            cli, "check_star_condition", self._span("classify.star_condition", cli.check_star_condition)
        )
        self._patch(mods.algorithms, "sample_positions", self._draws(mods.algorithms.sample_positions))
        self._patch(mods.hardness, "sample_mask", self._draws(mods.hardness.sample_mask))
        oracle_cls = self._oracle_class(mods.core.CountingOracle)
        self._patch(mods.instances, "CountingOracle", oracle_cls)
        self._patch(mods.hardness, "CountingOracle", oracle_cls)
        handle = mods.instances.InstanceHandle
        self._patch(handle, "oracle", self._oracle_factory(handle.oracle))
        self._patch(handle, "exact_optimum", self._exact_optimum(handle.exact_optimum))

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Instruments":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _span(self, name: str, fn):
        tracer = self.tracer
        nid = tracer.name_id(name)

        def wrapped(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return wrapped

    def _solver(self, name: str, fn):
        reports = self.reports
        if self.tracer is None:
            def captured(*args, **kwargs):
                report = fn(*args, **kwargs)
                reports.append(report)
                return report

            return captured
        traced = self._span(name, fn)

        def captured_traced(*args, **kwargs):
            report = traced(*args, **kwargs)
            reports.append(report)
            return report

        return captured_traced

    def _check_class(self, fn):
        tracer = self.tracer

        def check_class(f, cls):
            sid = tracer.open(tracer.name_id(f"classify.{cls}"))
            try:
                return fn(f, cls)
            finally:
                tracer.close(sid)

        return check_class

    def _draws(self, fn):
        """Span around a sampler; its count is the splitmix64 draws it made."""
        tracer = self.tracer
        nid = tracer.name_id("rng." + fn.__name__)

        def sampler(n, m, rng):
            before = rng.state
            sid = tracer.open(nid)
            try:
                return fn(n, m, rng)
            finally:
                tracer.close(sid, ((rng.state - before) * _INV_GAMMA) & _MASK64)

        return sampler

    def _value_function(self, func):
        """Span around the value function handed to a CountingOracle."""
        tracer = self.tracer
        kind = getattr(getattr(func, "__self__", None), "kind", None)
        nid = tracer.name_id(f"hardness.{kind}_eval" if kind else "core.explicit_eval")

        def value(mask):
            sid = tracer.open(nid)
            try:
                return func(mask)
            finally:
                tracer.close(sid)

        return value

    def _oracle_class(self, base):
        tracer = self.tracer
        nid = tracer.name_id("core.evaluate")
        value_function = self._value_function

        class TracedOracle(base):
            """CountingOracle whose evaluate and value function record spans.

            The span count of ``core.evaluate`` is 1 when the mask was
            already asked of this oracle (one oracle per trial), else 0.
            """

            __slots__ = ("seen",)

            def __init__(self, ground, func):
                super().__init__(ground, func if tracer.paused else value_function(func))
                self.seen = set() if tracer.track_repeats else None

            def evaluate(self, mask):
                sid = tracer.open(nid)
                try:
                    return base.evaluate(self, mask)
                finally:
                    seen = self.seen
                    repeat = 0
                    if seen is not None:
                        repeat = mask in seen
                        seen.add(mask)
                    tracer.close(sid, repeat)

        return TracedOracle

    def _oracle_factory(self, fn):
        tracer = self.tracer
        traced = self._span("instances.oracle", fn)

        def oracle(handle):
            return fn(handle) if tracer.paused else traced(handle)

        return oracle

    def _exact_optimum(self, fn):
        tracer = self.tracer
        nid = tracer.name_id("instances.exact_optimum")

        def exact_optimum(handle, *args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(handle, *args, **kwargs)
            finally:
                tracer.close(sid)
            source = result[1]
            if source == "brute":
                source = "identity" if handle.explicit is not None else "scan"
            tracer.name[sid] = tracer.name_id(f"instances.exact_optimum.{source}")
            return result

        return exact_optimum

    def peek(self, handle, mask: int) -> int:
        """Uncounted value of ``mask`` on a fresh oracle, outside every span."""
        if self.tracer is None:
            return handle.oracle().peek(mask)
        self.tracer.paused = True
        try:
            return handle.oracle().peek(mask)
        finally:
            self.tracer.paused = False


# ---------------------------------------------------------------------------
# Analysis


# Span names whose durations are also reported per case label.
_BROKEN_DOWN = ("classify.", "algorithms.", "hardness.probe", "instances.exact_optimum.", "cli.main")


class SpanSummary:
    """Self times and counts per span name, derived from one tracer.

    A span's self time is its duration minus the durations of its children.
    ``problems`` lists every way the spans fail to form a tree whose self
    times add up, unit by unit, to the unit's root span.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        k = len(self.names)
        name = np.frombuffer(tracer.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)
        unit = np.frombuffer(tracer.unit, dtype=np.int64)
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        count = np.frombuffer(tracer.count, dtype=np.int64)
        dur = end - start
        child = parent >= 0
        kids = np.zeros(len(name), dtype=np.int64)
        np.add.at(kids, parent[child], dur[child])
        self_ns = dur - kids

        self.problems: list[str] = []
        if tracer.broken or tracer._stack:
            self.problems.append("spans were not closed in stack order")
        if (dur < 0).any():
            self.problems.append(f"{int((dur < 0).sum())} spans end before they start")
        outside = (start[child] < start[parent[child]]) | (end[child] > end[parent[child]])
        if outside.any():
            self.problems.append(f"{int(outside.sum())} spans are not inside their parent")
        roots = np.nonzero(~child)[0]
        unit_self = np.zeros(len(tracer.unit_labels), dtype=np.int64)
        np.add.at(unit_self, unit, self_ns)
        gap = unit_self[unit[roots]] - dur[roots]
        if gap.any():
            self.problems.append(f"self times miss their root span in {int((gap != 0).sum())} units")
        self.root_ns = int(dur[roots].sum())
        self.self_sum_ns = int(self_ns.sum())

        self.spans = np.bincount(name, minlength=k)
        self.dur_ns = np.bincount(name, weights=dur, minlength=k)
        self.self_ns = np.bincount(name, weights=self_ns, minlength=k)
        self.counts = np.bincount(name, weights=count, minlength=k)
        # Evaluate spans grouped by the name of the span that called them.
        ev = self._id("core.evaluate")
        evals = parent[(name == ev) & child] if ev is not None else parent[:0]
        self.evals_by_caller = np.bincount(name[evals], minlength=k)
        # Span count and mean duration per (span name, unit label).
        label_names = sorted(set(tracer.unit_labels))
        label_id = {label: i for i, label in enumerate(label_names)}
        span_label = np.array([label_id[x] for x in tracer.unit_labels], dtype=np.int64)[unit]
        self.by_label: dict[str, dict[str, list]] = defaultdict(dict)
        for nid, nm in enumerate(self.names):
            if not nm.startswith(_BROKEN_DOWN):
                continue
            sel = np.nonzero(name == nid)[0]
            n_by = np.bincount(span_label[sel], minlength=len(label_names))
            ns_by = np.bincount(span_label[sel], weights=dur[sel], minlength=len(label_names))
            for i in np.nonzero(n_by)[0]:
                self.by_label[nm][label_names[i]] = [int(n_by[i]), ns_by[i] / n_by[i] / 1e6]

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def _pick(self, arr, prefix: str) -> float:
        return float(sum(arr[i] for i, nm in enumerate(self.names) if nm == prefix or nm.startswith(prefix + ".")))

    def n(self, name: str) -> int:
        return int(self._pick(self.spans, name))

    def self_ms(self, name: str) -> float:
        return self._pick(self.self_ns, name) / 1e6

    def dur_ms(self, name: str) -> float:
        return self._pick(self.dur_ns, name) / 1e6

    def count(self, name: str) -> int:
        return int(self._pick(self.counts, name))

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        n = self.n(name)
        return (self.self_ms(name) if self_time else self.dur_ms(name)) / n if n else 0.0

    def evals_under(self, name: str) -> int:
        i = self._id(name)
        return int(self.evals_by_caller[i]) if i is not None else 0


PER_LAYER = (
    ("rng.draw_calls", "count"),
    ("rng.self_ms", "ms"),
    ("rng.us_per_draw", "us"),
    ("core.oracle_calls", "count"),
    ("core.oracle_self_ms", "ms"),
    ("core.explicit_eval_us", "us"),
    ("core.repeat_query_frac", "ratio"),
    ("hardness.needle_eval_us", "us"),
    ("hardness.hard_general_eval_us", "us"),
    ("hardness.hard_kxos_eval_us", "us"),
    ("hardness.probe_self_ms", "ms"),
    *((f"algorithms.{a}.self_ms", "ms") for a in ("sample", "enum", "exact2", "kminus1", "star")),
    *((f"algorithms.{a}.calls_per_trial", "count") for a in ("sample", "enum", "exact2", "kminus1", "star")),
    ("classify.materialize_ms", "ms"),
    *((f"classify.{c}_ms", "ms") for c in
      ("normalized", "monotone", "additive", "submodular", "subadditive", "star_condition")),
    ("instances.load_ms", "ms"),
    *((f"instances.exact_optimum_ms.{p}", "ms") for p in ("planted", "identity", "scan")),
    ("cli.self_ms", "ms"),
    ("cli.serialize_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_accounted_frac", "ratio"),
)


def layer_metrics(pin: SpanSummary, timed: SpanSummary, trials: int,
                  untraced_tps: float, traced_tps: float) -> dict[str, float]:
    """Per-layer metrics: counts from the pinned pass, which repeat exactly;
    times from the traced timed phase, per trial unless the name says per
    call (``_us`` per value-function or draw, ``.self_ms`` of a solver per
    solver call, ``classify``/``instances`` per call)."""
    per_trial = 1.0 / trials if trials else 0.0
    draws = timed.count("rng")
    out = {
        "rng.draw_calls": pin.count("rng"),
        "rng.self_ms": timed.self_ms("rng") * per_trial,
        "rng.us_per_draw": timed.self_ms("rng") * 1e3 / draws if draws else 0.0,
        "core.oracle_calls": pin.n("core.evaluate"),
        "core.oracle_self_ms": timed.self_ms("core.evaluate") * per_trial,
        "core.explicit_eval_us": timed.mean_ms("core.explicit_eval") * 1e3,
        "core.repeat_query_frac": (
            pin.count("core.evaluate") / pin.n("core.evaluate") if pin.n("core.evaluate") else 0.0
        ),
        "hardness.needle_eval_us": timed.mean_ms("hardness.needle_eval") * 1e3,
        "hardness.hard_general_eval_us": timed.mean_ms("hardness.hard_general_eval") * 1e3,
        "hardness.hard_kxos_eval_us": timed.mean_ms("hardness.hard_kxos_eval") * 1e3,
        "hardness.probe_self_ms": timed.mean_ms("hardness.probe", self_time=True),
        "classify.materialize_ms": timed.mean_ms("classify.materialize"),
        "instances.load_ms": timed.mean_ms("instances.load"),
        "cli.self_ms": (timed.self_ms("cli.main") + timed.self_ms("cli.run_trial")) * per_trial,
        "cli.serialize_ms": timed.dur_ms("cli.serialize") * per_trial,
        "trace.overhead_frac": 1.0 - traced_tps / untraced_tps if untraced_tps else 0.0,
        "trace.self_accounted_frac": timed.self_sum_ns / timed.root_ns if timed.root_ns else 0.0,
    }
    for algo in ("sample", "enum", "exact2", "kminus1", "star"):
        name = f"algorithms.{algo}"
        out[f"{name}.self_ms"] = timed.mean_ms(name, self_time=True)
        out[f"{name}.calls_per_trial"] = pin.evals_under(name) / pin.n(name) if pin.n(name) else 0.0
    for check in ("normalized", "monotone", "additive", "submodular", "subadditive", "star_condition"):
        out[f"classify.{check}_ms"] = timed.mean_ms(f"classify.{check}")
    for prov in ("planted", "identity", "scan"):
        out[f"instances.exact_optimum_ms.{prov}"] = timed.mean_ms(f"instances.exact_optimum.{prov}")
    return out
