"""Spans around calls into cayleysg, and the per-layer numbers made from them.

The tracer times the library from outside: installed() replaces the public
functions of cayleysg's modules by timing wrappers for the length of a run.
verify and classify import engine and green functions by name, so every
module global that holds one of the originals is replaced, not only the
defining module's; that is the name each caller actually looks up.

A span records its name, start, end, the span that was open when it began
(its parent) and the id of the op it belongs to.  Spans are kept in memory
and written out when the run ends.  Only calls made while the tracer is
active are recorded: the benchmark switches it on around each op and around
the production of the next op, and off while it checks answers, so the
checks' own library calls do not count as the workload's.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter

# The per-layer metrics, in the order BENCHMARK.json lists them: name, unit,
# which direction is better, and the end-to-end metric the layer should move
# on which workload (written down before any optimisation is measured).
PER_LAYER = (
    ("bench.ops_per_s_traced", "1/s", "higher",
     "ops_per_s of the same workload with tracing on; the gap to the untraced run is the tracing overhead"),
    ("bench.trace_overhead_share", "ratio", "lower",
     "estimated share of busy time spent in the span wrappers (spans x calibrated cost per span)"),
    ("bench.busy_s", "s", "lower",
     "timed work of the run: op latencies plus, on verify-order4, producing the next table"),
    ("engine.extend.s", "s", "lower",
     "op_tail_s, ops_per_s, peak_rss_mb on verify-order4; ops_per_s on closed-wide"),
    ("engine.extend.calls", "count", "lower", "as engine.extend.s"),
    ("engine.extend.seeds", "count", "lower", "as engine.extend.s"),
    ("engine.extend.new_states", "count", "lower", "as engine.extend.s"),
    ("engine.extend.useful_ratio", "ratio", "higher",
     "new_states / seeds; as engine.extend.s"),
    ("engine.extend.last_share", "ratio", "lower",
     "share of extend time inside Exceeded runs spent in their final extend; op_tail_s and ops_per_s on verify-order4"),
    ("engine.enumerate_semigroup.s", "s", "lower",
     "ops_per_s on verify-order4 and closed-wide"),
    ("engine.enumerate_semigroup.s_closed", "s", "lower", "op_p50_s and ops_per_s on closed-wide"),
    ("engine.enumerate_semigroup.s_exceeded", "s", "lower", "op_tail_s and ops_per_s on verify-order4"),
    ("engine.enumerate_semigroup.self_s_closed", "s", "lower",
     "enumerate time outside extend (bookkeeping, Cayley table, element()); op_p50_s on closed-wide"),
    ("engine.enumerate_semigroup.self_s_exceeded", "s", "lower",
     "enumerate time outside extend on Exceeded runs; op_tail_s on verify-order4"),
    ("engine.canonicalize.s", "s", "lower",
     "op_p50_s and op_tail_s on element-queries; no change on verify-order4"),
    ("engine.equal.s", "s", "lower",
     "op_p50_s and op_tail_s on element-queries; no change on verify-order4"),
    ("engine.act.s", "s", "lower",
     "op_p50_s and op_tail_s on element-queries; no change on verify-order4"),
    ("engine.count_distinct_words.s", "s", "lower", "ops_per_s on verify-order4"),
    ("classify.free_pair_check.s", "s", "lower", "ops_per_s on verify-order4"),
    ("corpus.generate_tables.s", "s", "lower",
     "ops_per_s on verify-order4 (at most the share generation takes); no per-op latency"),
    ("corpus.canonical_form.calls", "count", "lower", "as corpus.generate_tables.s"),
    ("corpus.kept_ratio", "ratio", "higher",
     "tables yielded / canonical_form calls; as corpus.generate_tables.s"),
    ("classify.classify.s", "s", "lower",
     "op_p50_s on verify-order4; op_p50_s on cli-oneshot for order-64 inputs"),
    ("green.green_relations.s", "s", "lower", "op_p50_s on verify-order4"),
    ("green.brute_force_inflation.s", "s", "lower", "op_p50_s on verify-order4"),
    ("verify.check_table.self_s", "s", "lower",
     "check_table time outside the calls above; op_p50_s on verify-order4"),
    ("cli.process_s", "s", "lower", "median process wall time; op_p50_s on cli-oneshot"),
    ("cli.interpreter_s", "s", "lower",
     "median of three bare interpreter starts; the floor of op_p50_s on cli-oneshot"),
    ("cli.import_s", "s", "lower",
     "median of three processes that only import cayleysg; op_p50_s on cli-oneshot"),
)

# (module, function) pairs whose calls become spans named module.function.
TRACED_FUNCTIONS = (
    ("engine", "enumerate_semigroup"),
    ("engine", "canonicalize"),
    ("engine", "equal"),
    ("engine", "act"),
    ("engine", "count_distinct_words"),
    ("classify", "classify"),
    ("classify", "free_pair_check"),
    ("green", "green_relations"),
    ("green", "brute_force_inflation"),
    ("corpus", "canonical_form"),
    ("corpus", "generate_tables"),
    ("verify", "check_table"),
)


_DONE = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class NullTracer:
    """The tracer of an untraced run: records nothing."""

    active = False
    op = None

    def begin(self, name):
        return None

    def end(self, span, **attrs):
        pass


class Tracer(NullTracer):
    """Spans in memory; begin/end pairs nest like the calls they time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        span = Span(name, perf_counter(), parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span, **attrs):
        span.end = perf_counter()
        self._open.pop()
        if attrs:
            span.attrs = attrs

    def wrap(self, name, fn, describe=None):
        """fn with every active call recorded as a span called name;
        describe(result) adds attributes to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span.attrs = describe(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A generator function whose every next() is a span called name;
        the span of the next() that finds the stream exhausted is marked."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                span = self.begin(name) if self.active else None
                try:
                    item = next(stream, _DONE)
                finally:
                    if span is not None:
                        self.end(span)
                if item is _DONE:
                    if span is not None:
                        span.attrs = {"exhausted": True}
                    return
                yield item

        return traced

    def wrap_extend(self, extend):
        """BehaviorGraph.extend, recording seeds and graph growth per call."""

        @functools.wraps(extend)
        def traced(graph, seeds):
            if not self.active:
                return extend(graph, seeds)
            before = len(graph)
            span = self.begin("engine.extend")
            try:
                return extend(graph, seeds)
            finally:
                self.end(span, seeds=len(seeds), new_states=len(graph) - before)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def _result_kind(result):
    return {"result": type(result).__name__}


@contextmanager
def installed(tracer: Tracer):
    """Replace the traced functions everywhere cayleysg looks them up."""
    engine = importlib.import_module("cayleysg.engine")
    replacements = {}
    for module_name, function in TRACED_FUNCTIONS:
        original = getattr(importlib.import_module("cayleysg." + module_name), function)
        name = "%s.%s" % (module_name, function)
        if function == "generate_tables":
            wrapper = tracer.wrap_generator(name, original)
        elif function == "enumerate_semigroup":
            wrapper = tracer.wrap(name, original, _result_kind)
        else:
            wrapper = tracer.wrap(name, original)
        replacements[id(original)] = (original, wrapper)

    saved = [(engine.BehaviorGraph, "extend", engine.BehaviorGraph.extend)]
    engine.BehaviorGraph.extend = tracer.wrap_extend(engine.BehaviorGraph.extend)
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "cayleysg" or name.startswith("cayleysg.")
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    tracer.active = True
    traced = tracer.wrap("noop", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    middle = perf_counter()
    for _ in range(calls):
        traced()
    end = perf_counter()
    return max(0.0, ((end - middle) - (middle - start)) / calls)


def summarize(spans, busy_s: float, ops_per_s: float, probes: dict, per_span_s: float) -> dict:
    """Every PER_LAYER metric, as name -> value, from one run's spans."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)

    def duration(index):
        span = spans[index]
        return span.end - span.start

    def self_time(index):
        return duration(index) - sum(duration(c) for c in children[index])

    total: dict = {}
    calls: dict = {}
    self_total: dict = {}
    for index, span in enumerate(spans):
        total[span.name] = total.get(span.name, 0.0) + duration(index)
        calls[span.name] = calls.get(span.name, 0) + 1
        self_total[span.name] = self_total.get(span.name, 0.0) + self_time(index)

    seeds = new_states = 0
    for span in spans:
        if span.name == "engine.extend":
            seeds += span.attrs["seeds"]
            new_states += span.attrs["new_states"]

    by_result = {"Closed": [0.0, 0.0], "Exceeded": [0.0, 0.0]}
    last_extend = exceeded_extend = 0.0
    for index, span in enumerate(spans):
        if span.name != "engine.enumerate_semigroup" or span.attrs is None:
            continue
        kind = span.attrs["result"]
        by_result[kind][0] += duration(index)
        by_result[kind][1] += self_time(index)
        if kind == "Exceeded":
            extends = [c for c in children[index] if spans[c].name == "engine.extend"]
            if extends:
                exceeded_extend += sum(duration(c) for c in extends)
                last_extend += duration(max(extends, key=lambda c: spans[c].start))

    process_times = [
        duration(index)
        for index, span in enumerate(spans)
        if span.name == "op" and span.attrs["label"].startswith("cayleysg ")
    ]
    generated = sum(
        1 for span in spans if span.name == "corpus.generate_tables" and span.attrs is None
    )
    canonical_calls = calls.get("corpus.canonical_form", 0)

    values = {
        "bench.ops_per_s_traced": ops_per_s,
        "bench.trace_overhead_share": len(spans) * per_span_s / busy_s if busy_s else 0.0,
        "bench.busy_s": busy_s,
        "engine.extend.s": total.get("engine.extend", 0.0),
        "engine.extend.calls": calls.get("engine.extend", 0),
        "engine.extend.seeds": seeds,
        "engine.extend.new_states": new_states,
        "engine.extend.useful_ratio": new_states / seeds if seeds else 0.0,
        "engine.extend.last_share": last_extend / exceeded_extend if exceeded_extend else 0.0,
        "engine.enumerate_semigroup.s": total.get("engine.enumerate_semigroup", 0.0),
        "engine.enumerate_semigroup.s_closed": by_result["Closed"][0],
        "engine.enumerate_semigroup.s_exceeded": by_result["Exceeded"][0],
        "engine.enumerate_semigroup.self_s_closed": by_result["Closed"][1],
        "engine.enumerate_semigroup.self_s_exceeded": by_result["Exceeded"][1],
        "engine.canonicalize.s": total.get("engine.canonicalize", 0.0),
        "engine.equal.s": total.get("engine.equal", 0.0),
        "engine.act.s": total.get("engine.act", 0.0),
        "engine.count_distinct_words.s": total.get("engine.count_distinct_words", 0.0),
        "classify.free_pair_check.s": total.get("classify.free_pair_check", 0.0),
        "corpus.generate_tables.s": total.get("corpus.generate_tables", 0.0),
        "corpus.canonical_form.calls": canonical_calls,
        "corpus.kept_ratio": generated / canonical_calls if canonical_calls else 0.0,
        "classify.classify.s": total.get("classify.classify", 0.0),
        "green.green_relations.s": total.get("green.green_relations", 0.0),
        "green.brute_force_inflation.s": total.get("green.brute_force_inflation", 0.0),
        "verify.check_table.self_s": self_total.get("verify.check_table", 0.0),
        "cli.process_s": statistics.median(process_times) if process_times else 0.0,
        "cli.interpreter_s": probes.get("interpreter_s", 0.0),
        "cli.import_s": probes.get("import_s", 0.0),
    }
    return values

