"""The calls a run makes: the sampler-to-run hand-off, the demand rule under
a ``limit``, and the per-stage bound on calls in flight.

Each oracle runs seeded random plans on the inline mock and on the
blocking backend of ``conftest``, at pool widths 1, 3 and 8.
"""

import itertools
import math
import random
import re
import threading
from collections import Counter
from dataclasses import replace

import pytest

import semaq.engine as engine
from semaq import (MinCost, MockBackend, MockRule, MockScript, RunPolicy,
                   bind_plan, context_create, make_source_record, optimize,
                   parse_pipeline, pipeline_execute)
from semaq.backend import ModelSpec, backend_fingerprint
from semaq.lang import Project, SemFilter, SemMap
from tests.conftest import CHEAP, STRONG, BlockingBackend

_STAGE_RE = re.compile(r"(?:PREDICATE|INSTRUCTION): (\w+)\nRECORD (\S+):")
_TAGS = {"a": 0.5, "b": 0.25, "c": 0.8, "x": 0.15}


class Watch:
    """Wraps a backend: logs each first ask as (stage, record id), and keeps
    the peak number of calls in flight per stage.

    With a ``gate``, a stage's first calls wait, up to ``GATE_SECONDS``,
    until ``gate`` of them are in flight at once, so a call that completes
    fast cannot keep the stage below the gate; after that first wait the
    stage's calls pass straight through."""

    GATE_SECONDS = 0.05

    def __init__(self, inner, gate: int | None = None):
        self.inner = inner
        self.ledger = inner.ledger
        self.in_process = getattr(inner, "in_process", False)
        self.asked: list[tuple[str, str]] = []
        self.peak: Counter = Counter()
        self._live: Counter = Counter()
        self._lock = threading.Condition()
        self._gate = gate
        self._opened: set[str] = set()

    def chat(self, model_id, messages, temperature=0.0):
        stage, record_id = _STAGE_RE.search(messages[1].content).groups()
        with self._lock:
            if len(messages) == 2:
                self.asked.append((stage, record_id))
            self._live[stage] += 1
            self.peak[stage] = max(self.peak[stage], self._live[stage])
            if self._gate is not None and stage not in self._opened:
                self._lock.notify_all()
                self._lock.wait_for(lambda: self._live[stage] >= self._gate,
                                    timeout=self.GATE_SECONDS)
                self._opened.add(stage)
        try:
            return self.inner.chat(model_id, messages, temperature)
        finally:
            with self._lock:
                self._live[stage] -= 1


def _case(rng, limited: bool, filters=(0, 4)):
    """Records tagged at random, a random plan over them and the mock rules
    that answer it.  Filter p<k> passes records holding its tag; map m<k>'s
    first reply on a record tagged #x does not parse, its re-ask does."""
    records = [make_source_record(
        {"text": f"record {i:03d} " + " ".join(
            f"#{t}" for t, p in _TAGS.items() if rng.random() < p)},
        origin=f"{i}#0") for i in range(rng.randint(10, 24))]
    while True:
        kinds = [rng.choice(["filter", "filter", "map", "project"])
                 for _ in range(rng.randint(1, 4))]
        if filters[0] <= kinds.count("filter") <= filters[1]:
            break
    if limited:
        kinds.insert(rng.randint(1, len(kinds)), "limit")
    stages, rules = ["scan(d)"], []
    for k, kind in enumerate(kinds, start=1):
        if kind == "filter":
            tag = rng.choice("abc")
            stages.append(f'sem_filter("p{k}")')
            rules.append((rf"PREDICATE: p{k}\n[\s\S]*#{tag}\b", "yes", "regex"))
        elif kind == "map":
            stages.append(f'sem_map("m{k}", {{f{k}: text}})')
            rules += [(rf"INSTRUCTION: m{k}\n[\s\S]*#x[\s\S]*Your reply was", f"f{k}: w",
                       "regex"),
                      (rf"INSTRUCTION: m{k}\n[\s\S]*#x", "no idea", "regex"),
                      (f"INSTRUCTION: m{k}\n", f"f{k}: v{k}")]
        elif kind == "project":
            stages.append("project(text)")
        else:
            stages.append(f"limit({rng.randint(1, 8)})")
    rules.append(("PREDICATE", "no"))
    return records, parse_pipeline(" | ".join(stages)), rules


def _mock(rules, catalog):
    return MockBackend(MockScript([MockRule(*rule) for rule in rules]), catalog)


def _run(pplan, records, rules, catalog, blocking, width, gate=None):
    """Execute ``pplan`` on a fresh backend: (watch, outputs, report)."""
    inner = _mock(rules, catalog)
    backend = Watch(BlockingBackend(inner) if blocking else inner, gate)
    out_ctx, report = pipeline_execute(pplan, context_create(records, "docs"), backend,
                                       policy=RunPolicy(pool_width=width))
    assert report.total_calls == backend.ledger.snapshot().total_calls
    return backend, [(r.id, r.fields) for r in out_ctx.source], report


def _models(rng):
    return [ModelSpec(f"model-{j}", rng.uniform(1e-4, 3e-3), rng.uniform(1e-4, 3e-3),
                      rng.uniform(0.5, 1.0), rng.uniform(0.2, 2.0))
            for j in range(rng.randint(1, 4))]


def _cheap(plan):
    return bind_plan(plan, {i: CHEAP for i, op in enumerate(plan.ops)
                            if isinstance(op, (SemFilter, SemMap))})


def _expected_reuse(plan, index, asked, sampled_ids, records):
    """Records stage ``index`` asks about in a fresh run that reach it
    unchanged from the source and whose sampled answer parsed at once."""
    if any(isinstance(op, (SemMap, Project)) for op in plan.ops[1:index]):
        return 0
    op = plan.ops[index]
    is_map = isinstance(op, SemMap)
    stage = op.instruction if is_map else op.predicate
    text = {r.id: r.fields["text"] for r in records}
    return sum(1 for name, rid in asked
               if name == stage and rid in sampled_ids
               and not (is_map and "#x" in text[rid]))


# --- (a) the hand-off ----------------------------------------------------------------

@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_optimized_run_matches_a_fresh_run_and_reuses_every_sampled_answer(width,
                                                                           blocking):
    """Oracle: the plan ``optimize`` returns gives the outputs, ids and order
    of the same model assignment bound fresh; each stage's calls plus
    reused records equal the fresh run's calls, and it reuses exactly the
    records that reach it unchanged from the sample with a parsed answer.
    A sampled map reply that did not parse is asked again, not reused."""
    rng = random.Random(f"handoff-{width}-{blocking}")
    reused = 0
    for _ in range(8):
        records, plan, rules = _case(rng, limited=rng.random() < 0.5)
        models = _models(rng)
        catalog = {m.model_id: m for m in models}
        sample = rng.randint(1, 12)
        policy = RunPolicy(pool_width=width)
        inner = _mock(rules, catalog)
        backend = BlockingBackend(inner) if blocking else inner
        ctx = context_create(records, "docs")
        start = backend.ledger.snapshot().total_calls
        chosen, opt_report = optimize(plan, ctx, models, MinCost(quality_floor=0.0),
                                      sample, inner, run_policy=policy)
        sampled = backend.ledger.snapshot().total_calls
        out_ctx, report = pipeline_execute(chosen, ctx, backend, policy=policy)
        end = backend.ledger.snapshot().total_calls
        assert opt_report.sample_calls == sampled - start
        assert report.total_calls == end - sampled
        assert opt_report.sample_calls + report.total_calls == end - start

        fresh_plan = bind_plan(plan, {i: catalog[m] for i, m in
                                      chosen.model_assignment().items()})
        assert fresh_plan == chosen and not fresh_plan.answers
        watch, fresh_out, fresh = _run(fresh_plan, records, rules, catalog,
                                       blocking, width)
        assert [(r.id, r.fields) for r in out_ctx.source] == fresh_out
        assert report.total_failures == fresh.total_failures == 0
        sampled_ids = {r.id for r in records[:sample]}
        for index, (op, fop) in enumerate(zip(report.ops, fresh.ops)):
            assert (op.records_in, op.records_out) == (fop.records_in, fop.records_out)
            assert op.calls + op.reused == fop.calls
            if op.kind in ("sem_filter", "sem_map"):
                assert op.reused == _expected_reuse(plan, index, watch.asked,
                                                    sampled_ids, records)
        reused += report.total_reused
    assert reused > 0


def _handoff_backend(rules):
    return _mock(rules, {"cheap": CHEAP, "strong": STRONG})


def _prompt_key(backend, model_id, messages):
    """The (model id, prompt digest) key of ``messages`` on ``backend``."""
    return model_id, engine._AnswerLog(None, backend_fingerprint(backend)).digest(messages)


def test_sampled_map_failure_is_asked_again():
    """Sampling allows no re-ask, so record 001's first reply fails there;
    the run asks again with its own budget and keeps the record."""
    records = [make_source_record({"text": f"record {i:03d}" + (" #x" if i == 1 else "")},
                                  origin=f"{i}#0") for i in range(4)]
    rules = [(r"#x[\s\S]*Your reply was", "f: fixed", "regex"),
             ("#x", "no idea"), ("INSTRUCTION", "f: v")]
    backend = _handoff_backend(rules)
    ctx = context_create(records, "docs")
    plan = parse_pipeline('scan(d) | sem_map("m", {f: text})')
    chosen, opt_report = optimize(plan, ctx, [CHEAP], MinCost(quality_floor=0.0), 4,
                                  backend)
    assert opt_report.sample_calls == 4
    assert set(chosen.answers) == {
        _prompt_key(backend, "cheap", engine.render_map_prompt(r, "m", [("f", "text")]))
        for r in (records[0], records[2], records[3])}
    out_ctx, report = pipeline_execute(chosen, ctx, backend)
    assert report.ops[1].reused == 3 and report.ops[1].calls == 2
    assert [r.fields["f"] for r in out_ctx.source] == ["v", "fixed", "v", "v"]


@pytest.mark.parametrize("change", ["model", "position", "fields"])
def test_sampled_answer_is_reused_only_for_its_record_position_and_model(change):
    """Sampled answers are keyed by (model id, prompt digest): another
    model's answer, an answer to another operator's prompt (``position``)
    or to the prompt of a record with other fields is not reused."""
    records = [make_source_record({"text": f"record {i:03d} #a"}, origin=f"{i}#0")
               for i in range(3)]
    ctx = context_create(records, "docs")
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    pplan = bind_plan(plan, {1: CHEAP})
    backend = _handoff_backend([("PREDICATE", "yes")])
    # the sample said no to every record; the model says yes
    model, predicate = ("strong" if change == "model" else "cheap",
                        "q" if change == "position" else "p")
    if change == "fields":  # same ids, but a number where the run has text
        asked = [replace(r, fields={"text": 1}) for r in records]
    else:
        asked = records
    answers = {_prompt_key(backend, model, engine.render_filter_prompt(r, predicate)):
               False for r in asked}
    out_ctx, report = pipeline_execute(replace(pplan, answers=answers), ctx, backend)
    assert report.ops[1].reused == 0 and report.ops[1].calls == 3
    assert len(out_ctx.source) == 3
    # the matching key answers every record, with no call
    backend = _handoff_backend([("PREDICATE", "yes")])
    # equal records, not the same objects
    good = {_prompt_key(backend, "cheap", engine.render_filter_prompt(replace(r), "p")):
            False for r in records}
    out_ctx, report = pipeline_execute(replace(pplan, answers=good), ctx, backend)
    assert report.ops[1].reused == 3 and report.total_calls == 0
    assert len(out_ctx.source) == 0


def test_reused_map_output_takes_the_runs_lineage():
    """A map answered from the sample derives its record with the run's
    operator id, so ids and lineage equal a fresh call's."""
    records = [make_source_record({"text": f"record {i:03d}"}, origin=f"{i}#0")
               for i in range(5)]
    ctx = context_create(records, "docs")
    plan = parse_pipeline('scan(d) | sem_map("m", {f: text}) | limit(4)')
    backend = _handoff_backend([("INSTRUCTION", "f: v")])
    chosen, _ = optimize(plan, ctx, [CHEAP], MinCost(quality_floor=0.0), 2, backend)
    out, report = pipeline_execute(chosen, ctx, backend)
    fresh, fresh_report = pipeline_execute(bind_plan(plan, {1: CHEAP}), ctx,
                                           _handoff_backend([("INSTRUCTION", "f: v")]))
    assert [r.id for r in out.source] == [r.id for r in fresh.source]
    assert [r.lineage for r in out.source] == [r.lineage for r in fresh.source]
    assert (report.ops[1].calls, report.ops[1].reused) == (2, 2)
    assert fresh_report.ops[1].calls == 4


# --- (b) the demand rule -----------------------------------------------------------

class _EarlierRule(engine._Window):
    """The in-flight rule this one replaced: a filter keeps the full window,
    and a map whose stream reaches a limit through only project and sem_map
    stages keeps its calls in flight plus its emitted records within the
    limit's count.  The reference the demand rule is held against."""

    def _count(self):
        window = self
        while window is not None and not window.is_filter:
            if window.limit is not None:
                return window.limit
            window = window.next
        return None

    def run(self, fn, items, pool):
        count = None if self.is_filter else self._count()
        room = (lambda: math.inf) if count is None else (lambda: count - self.emitted)
        pending = self.pending
        while True:
            if not pending:
                pending.extend(pool.submit(fn, item) for item in itertools.islice(
                    items, max(1, min(self.width, room()))))
                if not pending:
                    return
            out, error = pending.popleft().result()
            free = min(self.width, room() - 1) - len(pending)
            pending.extend(pool.submit(fn, item)
                           for item in itertools.islice(items, max(0, free)))
            self.emitted += error is None and out is not None
            yield out, error


def _calls(report):
    return [op.calls for op in report.ops]


@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_demand_rule_under_a_limit_matches_inline_and_calls_no_more(width, blocking,
                                                                    monkeypatch):
    """Oracle: limited plans with 1-3 filters return the inline run's outputs
    and make no more calls at any stage than the earlier rule on the same
    input; unlimited plans make exactly the inline run's calls."""
    rng = random.Random(f"demand-{width}-{blocking}")
    saved = 0
    for case in range(16):
        limited = case % 4 != 0
        records, plan, rules = _case(rng, limited, filters=(1, 3))
        pplan = _cheap(plan)
        catalog = {"cheap": CHEAP}
        _, inline_out, inline = _run(pplan, records, rules, catalog, False, 1)
        _, out, report = _run(pplan, records, rules, catalog, blocking, width)
        assert out == inline_out
        if not limited:
            assert _calls(report) == _calls(inline)
            continue
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_Window", _EarlierRule)
            _, earlier_out, earlier = _run(pplan, records, rules, catalog, blocking,
                                           width)
        assert earlier_out == inline_out
        assert all(new <= old for new, old in zip(_calls(report), _calls(earlier)))
        saved += earlier.total_calls - report.total_calls
    if blocking and width > 1:
        assert saved > 0
    else:  # inline, the window never applies
        assert saved == 0


@pytest.mark.parametrize("width", [3, 8])
def test_filter_under_a_limit_asks_only_what_the_limit_takes(width):
    """Every record passes: the filter's pass rate stays 1, so it keeps no
    more calls in flight than the limit can still take."""
    records = [make_source_record({"text": f"record {i:03d} #a"}, origin=f"{i}#0")
               for i in range(20)]
    pplan = bind_plan(parse_pipeline(
        'scan(d) | sem_filter("p") | sem_filter("q") | limit(2)'), {1: CHEAP, 2: CHEAP})
    _, out, report = _run(pplan, records, [("PREDICATE", "yes")], {"cheap": CHEAP},
                          True, width)
    assert len(out) == 2 and _calls(report) == [0, 2, 2, 0]


# --- (c) the bound on calls in flight --------------------------------------------------

@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_no_stage_ever_has_more_than_pool_width_calls_in_flight(width, blocking):
    rng = random.Random(f"bound-{width}-{blocking}")
    top = 0
    for _ in range(10):
        records, plan, rules = _case(rng, limited=rng.random() < 0.5)
        pplan = _cheap(plan)
        watch, _, _ = _run(pplan, records, rules, {"cheap": CHEAP}, blocking, width,
                           gate=width if blocking else None)
        assert all(peak <= width for peak in watch.peak.values()), watch.peak
        top = max([top, *watch.peak.values()])
    # the bound is reached, so the check can see a breach; the gate holds
    # each stage's first calls until the pool has started ``width`` of them
    assert top == (width if blocking else 1)
