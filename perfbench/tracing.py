"""Spans for the traced run, recorded from the benchmark's own files.

The tracer patches public semaq functions and methods with wrappers that
record a span around each call: name, start, end, parent span and query id.
Where the program imported a public function into another module (such as
``semaq.agent.optimize``) the wrapper replaces it there too.  Spans stay in
memory and are written out when the run ends.

A span opened on a pool worker thread has no parent on its own thread; its
parent is the innermost span open on the client thread, which is correct
because the single client runs one query at a time.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import semaq.agent as agent
import semaq.core as core
import semaq.engine as engine
import semaq.lang as lang
import semaq.optimizer as optimizer
import semaq.store as store_mod
from semaq.backend import MockBackend

from .workloads import SleepingBackend

LAYERS = ("lang", "optimizer", "engine", "backend", "core", "store", "agent")

# Every per-layer metric with its unit.  "_s" alone is seconds per call of
# the span, "/query" is per traced query.
UNITS = {
    "core.index_build_s": "s", "core.topk_s": "s", "core.topk_calls": "calls/query",
    "backend.embed_s": "s", "backend.embed_calls": "calls/query",
    "backend.dispatch_s": "s", "backend.chat_calls": "calls/query",
    "backend.chat_s_p50": "s", "backend.wait_s": "s",
    "engine.execute_s": "s", "engine.self_s": "s", "engine.records_in": "records",
    "engine.records_out": "records", "engine.calls_per_record": "calls/record",
    "engine.useful_call_share": "ratio", "engine.peak_inflight": "calls",
    "engine.peak_threads": "threads", "engine.pool_utilization": "ratio",
    "lang.parse_s": "s", "lang.parse_calls": "calls/query",
    "optimizer.optimize_s": "s", "optimizer.candidates": "plans",
    "optimizer.sample_calls": "calls", "optimizer.est_over_actual_cost": "ratio",
    "store.reopen_s": "s", "store.register_s": "s", "store.register_calls": "calls/query",
    "store.retrieve_s": "s", "store.retrieve_hit_share": "ratio",
    "store.entries": "entries", "store.bytes_per_entry": "bytes",
    "agent.run_s": "s", "agent.self_s": "s", "agent.steps_per_query": "steps/query",
    "agent.prompt_tokens_per_step": "tokens/step",
    **{f"{layer}.layer_self_s": "s/query" for layer in LAYERS},
    "trace.spans_per_query": "spans/query", "trace.overhead_s": "s",
}

COMMON_SPANS = {"query", "lang.parse", "optimizer.optimize", "engine.execute",
                "backend.chat", "backend.dispatch", "backend.embed",
                "core.index_build"}
EXPECTED_SPANS = {
    "triage-cpu": COMMON_SPANS,
    "triage-io": COMMON_SPANS | {"backend.wait"},
    "agent-session": COMMON_SPANS | {
        "core.topk", "store.reopen", "store.retrieve", "store.augment",
        "store.register", "agent.compute", "agent.run", "agent.tool"},
}


class Span:
    __slots__ = ("id", "parent", "name", "query", "start", "end", "attrs")

    def __init__(self, id_, parent, name, query):
        self.id = id_
        self.parent = parent
        self.name = name
        self.query = query
        self.start = self.end = 0.0
        self.attrs = None

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "query": self.query, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query = None          # id of the query (or "setup") now running
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.inflight = 0
        self.peak_inflight = 0
        self.peak_threads = 0

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        top = stack or self._main_stack
        span = Span(next(self._ids), top[-1].id if top else 0, name, self.query)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                span.attrs = after(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching --------------------------------------------------------------

    def patch_function(self, module, attr, name, before=None, after=None) -> None:
        """Wrap a public function in its home module and wherever a semaq
        module imported it by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "semaq" and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, before, after))
        else:
            wrapped = self.wrap(name, original, before, after)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        self.patch_function(lang, "parse_pipeline", "lang.parse")
        self.patch_function(optimizer, "optimize", "optimizer.optimize",
                            _optimize_before, _optimize_after)
        self.patch_function(engine, "pipeline_execute", "engine.execute",
                            after=_execute_after)
        self.patch_method(MockBackend, "chat", "backend.dispatch")
        self.patch_method(SleepingBackend, "wait", "backend.wait")
        self.patch_method(core.VectorIndex, "build", "core.index_build")
        self.patch_method(core.VectorIndex, "topk", "core.topk")
        self.patch_method(store_mod.ContextStore, "__init__", "store.reopen")
        self.patch_method(store_mod.ContextStore, "register", "store.register")
        self.patch_method(store_mod.ContextStore, "retrieve", "store.retrieve",
                          after=_retrieve_after)
        self.patch_method(store_mod.ContextStore, "augment", "store.augment")
        self.patch_method(agent.AgentRuntime, "compute", "agent.compute")
        self.patch_method(agent.AgentRuntime, "run", "agent.run",
                          _run_before, _run_after)
        builtin = agent.builtin_tools
        tracer = self

        def traced_tools():
            return tuple(dataclasses.replace(t, handler=tracer.wrap("agent.tool", t.handler))
                         for t in builtin())

        self._patches.append((agent, "builtin_tools", builtin))
        agent.builtin_tools = traced_tools

    def restore(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def backend(self, inner) -> "TracedBackend":
        return TracedBackend(inner, self)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


class TracedBackend:
    """The backend the program is handed in the traced run: spans around
    chat and embed, plus in-flight and thread counts sampled at chat entry."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.ledger = inner.ledger
        self.catalog = inner.catalog

    def chat(self, model_id, messages, temperature=0.0):
        t = self.tracer
        with t._lock:
            t.inflight += 1
            t.peak_inflight = max(t.peak_inflight, t.inflight)
            t.peak_threads = max(t.peak_threads, threading.active_count())
        span = t.open("backend.chat")
        try:
            return self.inner.chat(model_id, messages, temperature)
        finally:
            t.close(span)
            with t._lock:
                t.inflight -= 1

    def embed(self, text):
        span = self.tracer.open("backend.embed")
        try:
            return self.inner.embed(text)
        finally:
            self.tracer.close(span)


# --- attribute hooks --------------------------------------------------------------

def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _optimize_before(args, kwargs):
    return _arg(args, kwargs, 5, "backend").ledger.snapshot().total_calls


def _optimize_after(calls_before, args, kwargs, result):
    chosen, report = result
    backend = _arg(args, kwargs, 5, "backend")
    est = next(c["cost"] for c in report.candidates if c["plan_id"] == chosen.plan_id)
    return {"sample_calls": backend.ledger.snapshot().total_calls - calls_before,
            "candidates": len(report.candidates), "est_cost": est}


def _execute_after(_, args, kwargs, result):
    _, report = result
    policy = _arg(args, kwargs, 3, "policy") or engine.RunPolicy()
    return {"records_in": report.records_in, "records_out": report.records_out,
            "calls": report.total_calls, "cost": report.total_cost,
            "pool_width": policy.pool_width}


def _retrieve_after(_, args, kwargs, result):
    return {"matches": len(result), "k": _arg(args, kwargs, 2, "k", 3)}


def _run_before(args, kwargs):
    runtime, config = args[0], _arg(args, kwargs, 3, "config")
    return runtime.backend.ledger.snapshot().for_model(config.model.model_id).input_tokens


def _run_after(tokens_before, args, kwargs, trace):
    runtime, config = args[0], _arg(args, kwargs, 3, "config")
    now = runtime.backend.ledger.snapshot().for_model(config.model.model_id).input_tokens
    return {"steps": len(trace.steps), "prompt_tokens": now - tokens_before}


# --- per-layer metrics --------------------------------------------------------------

def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id to its duration minus the union of its children's intervals,
    clipped to the span; overlapping children on pool threads count once."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union((a, b) for a, b in kids if b > a)
    return out


def layer_metrics(tracer: Tracer, workload: str, queries: int, facts: dict) -> dict:
    """Per-layer metrics of one traced run.

    ``facts`` carries what the workload knows and the spans do not: the
    calls a sequential run needs, and the store's size on disk.  A span the
    workload is expected to fire that never fired is an error.
    """
    spans = tracer.spans
    fired = {s.name for s in spans}
    missing = sorted(EXPECTED_SPANS[workload] - fired)
    if missing:
        raise RuntimeError(f"expected spans never fired on {workload}: {missing}")
    in_query = [s for s in spans if isinstance(s.query, int)]
    setup = [s for s in spans if s.query == "setup"]
    selfs = self_times(spans)
    names = defaultdict(list)
    for s in in_query:
        names[s.name].append(s)

    def dur(s):
        return s.end - s.start

    def mean_dur(group):
        return statistics.fmean(dur(s) for s in group) if group else 0.0

    def per_query(n):
        return n / queries

    def total(group, key):
        return sum(s.attrs[key] for s in group)

    execs, opts, runs = names["engine.execute"], names["optimizer.optimize"], names["agent.run"]
    exec_ids = {s.id for s in execs}
    engine_chat = sum(dur(s) for s in names["backend.chat"] if s.parent in exec_ids)
    pool_time = sum(s.attrs["pool_width"] * dur(s) for s in execs)
    retrieves = names["store.retrieve"]
    chats = sorted(dur(s) for s in names["backend.chat"])
    m = {
        "core.index_build_s": mean_dur([s for s in setup if s.name == "core.index_build"]),
        "core.topk_s": mean_dur(names["core.topk"]),
        "core.topk_calls": per_query(len(names["core.topk"])),
        "backend.embed_s": mean_dur(names["backend.embed"]
                                    + [s for s in setup if s.name == "backend.embed"]),
        "backend.embed_calls": per_query(len(names["backend.embed"])),
        "backend.dispatch_s": mean_dur(names["backend.dispatch"]),
        "backend.chat_calls": per_query(len(chats)),
        "backend.chat_s_p50": statistics.median(chats) if chats else 0.0,
        "backend.wait_s": mean_dur(names["backend.wait"]),
        "engine.execute_s": mean_dur(execs),
        "engine.self_s": (sum(selfs[s.id] for s in execs) / len(execs)) if execs else 0.0,
        "engine.records_in": total(execs, "records_in") / len(execs),
        "engine.records_out": total(execs, "records_out") / len(execs),
        "engine.calls_per_record": total(execs, "calls") / max(1, total(execs, "records_in")),
        "engine.useful_call_share": facts["sequential_calls"] / max(1, total(execs, "calls")),
        "engine.peak_inflight": tracer.peak_inflight,
        "engine.peak_threads": tracer.peak_threads,
        "engine.pool_utilization": engine_chat / pool_time if pool_time else 0.0,
        "lang.parse_s": mean_dur(names["lang.parse"]),
        "lang.parse_calls": per_query(len(names["lang.parse"])),
        "optimizer.optimize_s": mean_dur(opts),
        "optimizer.candidates": total(opts, "candidates") / len(opts),
        "optimizer.sample_calls": total(opts, "sample_calls") / len(opts),
        "optimizer.est_over_actual_cost": total(opts, "est_cost") / total(execs, "cost"),
        "store.reopen_s": mean_dur([s for s in setup if s.name == "store.reopen"]),
        "store.register_s": mean_dur(names["store.register"]),
        "store.register_calls": per_query(len(names["store.register"])),
        "store.retrieve_s": mean_dur(retrieves),
        "store.retrieve_hit_share": (total(retrieves, "matches") / total(retrieves, "k")
                                     if retrieves else 0.0),
        "store.entries": facts["entries"],
        "store.bytes_per_entry": facts["bytes"] / facts["entries"] if facts["entries"] else 0.0,
        "agent.run_s": mean_dur(runs),
        "agent.self_s": (sum(selfs[s.id] for s in runs) / len(runs)) if runs else 0.0,
        "agent.steps_per_query": per_query(total(runs, "steps")),
        "agent.prompt_tokens_per_step": (total(runs, "prompt_tokens")
                                         / max(1, total(runs, "steps"))),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = per_query(
            sum(selfs[s.id] for s in in_query if s.name.split(".")[0] == layer))
    m["trace.spans_per_query"] = per_query(len(in_query))
    return m
