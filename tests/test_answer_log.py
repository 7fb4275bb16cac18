"""The store's answer log in a pipeline run: a run against a warm log
returns what a cold run returns, and asks only what the log cannot answer.

The oracle runs the seeded random plans of ``test_run_calls`` (filters,
maps, projects, limits, replies that never parse) on the inline mock
and on the blocking backend of ``conftest``, at pool widths 1, 3 and 8.
"""

import functools
import math
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

import semaq.engine as engine
from semaq import (ContextStore, HttpBackend, MockBackend, MockRule, MockScript,
                   OperatorError, RunPolicy, StoreError, bind_plan, context_create,
                   hashing_embed, make_source_record, parse_pipeline, pipeline_execute)
from semaq.backend import backend_fingerprint
from semaq.lang import SemFilter, SemMap
from tests.conftest import CHEAP, STRONG, BlockingBackend
from tests.test_run_calls import _STAGE_RE, Watch, _case, _models

# replies on records 003, 007, 013, ... never parse, re-asked or not
_FAILS = re.compile(r"(?:PREDICATE|INSTRUCTION): \w+\n[\s\S]*text: record \d\d[37]\b")


class Asked(Watch):
    """Also keeps, per (model, stage, record id), the calls made and the
    first attempt's prompt text."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls: Counter = Counter()
        self.first: dict = {}

    def chat(self, model_id, messages, temperature=0.0):
        key = (model_id, *_STAGE_RE.search(messages[1].content).groups())
        with self._lock:
            self.calls[key] += 1
            self.first.setdefault(key, messages[1].content)
        return super().chat(model_id, messages, temperature)

    def answered(self) -> set:
        """The keys whose call got an answer: every one but those that fail."""
        return {key for key, text in self.first.items() if not _FAILS.search(text)}


def _run(pplan, records, rules, models, blocking, width, store=None):
    """Execute ``pplan`` on a fresh backend: (watch, outputs, report); the
    report's totals equal the ledger delta."""
    inner = MockBackend(MockScript([MockRule(*rule) for rule in rules]),
                        {m.model_id: m for m in models})
    backend = Asked(BlockingBackend(inner) if blocking else inner)
    out_ctx, report = pipeline_execute(
        pplan, context_create(records, "docs"), backend,
        policy=RunPolicy(pool_width=width, failure_budget=1.0), store=store)
    ledger = backend.ledger.snapshot()
    assert report.total_calls == ledger.total_calls
    assert sum(op.input_tokens for op in report.ops) == \
        sum(t.input_tokens for t in ledger.per_model)
    assert sum(op.output_tokens for op in report.ops) == \
        sum(t.output_tokens for t in ledger.per_model)
    assert math.isclose(report.total_cost, ledger.total_cost, rel_tol=1e-9,
                        abs_tol=1e-12)
    return backend, [(r.id, r.fields) for r in out_ctx.source], report


def _stages(pplan):
    """(position, model id, stage name) of each semantic stage."""
    return [(i, pop.model.model_id,
             pop.logical.predicate if isinstance(pop.logical, SemFilter)
             else pop.logical.instruction)
            for i, pop in enumerate(pplan.ops) if isinstance(pop.logical, (SemFilter, SemMap))]


def _check_against_cold(pplan, cold_watch, cold, watch, report, answered):
    """Per stage: the run reuses exactly the cold run's asks that the log
    answered, asks the rest as often as the cold run did, and its calls
    plus the cold calls of the records it reused equal the cold calls."""
    for i, model, stage in _stages(pplan):
        asked = {key: n for key, n in cold_watch.calls.items() if key[:2] == (model, stage)}
        reused = set(asked) & answered
        row, cold_row = report.ops[i], cold.ops[i]
        assert (row.records_in, row.records_out) == (cold_row.records_in,
                                                     cold_row.records_out)
        assert row.reused == len(reused)
        assert {key for key in watch.calls if key[:2] == (model, stage)} == \
            set(asked) - reused
        assert row.calls + sum(asked[key] for key in reused) == cold_row.calls
        assert row.failures == cold_row.failures


@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_warm_log_matches_a_cold_run_and_asks_only_what_it_lacks(tmp_path, width,
                                                                 blocking):
    """Oracle: on each random plan, a cold store changes nothing; a run of
    the same plan on the log it left reuses every record the cold run got
    an answer for and asks every failed one again; and a log warmed by the
    plan over a prefix of the records, some stages bound to other models,
    answers exactly the (model, prompt) pairs it holds.  Outputs (ids,
    fields, order) always equal the cold run's."""
    rng = random.Random(f"answer-log-{width}-{blocking}")
    reused = failed = 0
    for case in range(8):
        records, plan, rules = _case(rng, limited=rng.random() < 0.5)
        rules.insert(0, (_FAILS.pattern, "unsure", "regex"))
        models = _models(rng)
        run = functools.partial(_run, rules=rules, models=models, blocking=blocking,
                                width=width)
        binding = {i: rng.choice(models) for i, op in enumerate(plan.ops)
                   if isinstance(op, (SemFilter, SemMap))}
        pplan = bind_plan(plan, binding)
        cold_watch, cold_out, cold = run(pplan, records)

        store = ContextStore(tmp_path / f"full-{case}", hashing_embed)
        watch, out, report = run(pplan, records, store=store)
        assert out == cold_out and report.total_reused == 0
        assert watch.calls == cold_watch.calls
        assert store.read_answers() == len(cold_watch.answered())
        watch, out, report = run(pplan, records, store=store)
        assert out == cold_out
        _check_against_cold(pplan, cold_watch, cold, watch, report,
                            cold_watch.answered())
        reused += report.total_reused
        failed += report.total_failures

        warm_plan = bind_plan(plan, {i: m if rng.random() < 0.7 else rng.choice(models)
                                     for i, m in binding.items()})
        prefix = records[:rng.randint(1, len(records))]
        store = ContextStore(tmp_path / f"part-{case}", hashing_embed)
        warm_watch, _, _ = run(warm_plan, prefix, store=store)
        watch, out, report = run(pplan, records, store=store)
        assert out == cold_out
        _check_against_cold(pplan, cold_watch, cold, watch, report,
                            warm_watch.answered())
    assert reused > 0 and failed > 0


# --- the key is exact ------------------------------------------------------------------

def _records(n=4, text="record {i:03d} #a"):
    return [make_source_record({"text": text.format(i=i)}, origin=f"{i}#0")
            for i in range(n)]


def _backend():
    return MockBackend(MockScript([MockRule("PREDICATE", "yes"),
                                   MockRule("INSTRUCTION", "f: v\ng: w")]),
                       {"cheap": CHEAP, "strong": STRONG})


def _execute(text, records, store, model=CHEAP):
    plan = parse_pipeline(text)
    pplan = bind_plan(plan, {i: model for i, op in enumerate(plan.ops)
                             if isinstance(op, (SemFilter, SemMap))})
    backend = _backend()
    out_ctx, report = pipeline_execute(pplan, context_create(records, "docs"),
                                       backend, store=store)
    assert report.total_calls == backend.ledger.snapshot().total_calls
    return [(r.id, r.fields) for r in out_ctx.source], report.ops[1]


@pytest.mark.parametrize("change", ["predicate", "field-value", "model", "field-cap",
                                    "instruction", "output-field"])
def test_a_changed_prompt_or_model_misses(tmp_path, monkeypatch, change):
    records = _records(text="record {i:03d} " + "#a " * 30)
    is_map = change in ("instruction", "output-field")
    text = 'scan(d) | sem_map("m", {f: text})' if is_map else 'scan(d) | sem_filter("p")'
    store = ContextStore(tmp_path / "s", hashing_embed)
    first, row = _execute(text, records, store)
    assert (row.calls, row.reused) == (4, 0)
    again, row = _execute(text, records, store)
    assert again == first and (row.calls, row.reused) == (0, 4)
    model = CHEAP
    if change == "predicate":
        text = 'scan(d) | sem_filter("q")'
    elif change == "field-value":  # same ids, one more character of text
        records = [replace(r, fields={"text": r.fields["text"] + "!"}) for r in records]
    elif change == "model":
        model = STRONG
    elif change == "field-cap":  # the rendered text stops 10 characters in
        monkeypatch.setattr(engine, "render_filter_prompt", functools.partial(
            engine.render_filter_prompt, cap=10))
    elif change == "instruction":
        text = 'scan(d) | sem_map("n", {f: text})'
    else:
        text = 'scan(d) | sem_map("m", {g: text})'
    _, row = _execute(text, records, store, model)
    assert (row.calls, row.reused) == (4, 0)


def test_the_sample_is_asked_before_the_log(tmp_path):
    """The log says yes to every record, the sample no: the sample wins, and
    a run that the sample answers entirely never reads the log."""
    records = _records()
    store = ContextStore(tmp_path / "s", hashing_embed)
    out, _ = _execute('scan(d) | sem_filter("p")', records, store)
    assert len(out) == 4
    reader = ContextStore(tmp_path / "s", hashing_embed)
    pplan = bind_plan(parse_pipeline('scan(d) | sem_filter("p")'), {1: CHEAP})
    log = engine._AnswerLog(None, backend_fingerprint(_backend()))
    sampled = replace(pplan, answers={
        ("cheap", log.digest(engine.render_filter_prompt(r, "p"))): False for r in records})
    out_ctx, report = pipeline_execute(sampled, context_create(records, "docs"),
                                       _backend(), store=reader)
    assert len(out_ctx.source) == 0 and report.ops[1].reused == 4
    assert reader._answers_end == 0  # not read
    pipeline_execute(pplan, context_create(records, "docs"), _backend(), store=reader)
    assert reader.read_answers() == 4


@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
def test_an_aborted_run_logs_its_answers_in_one_append(tmp_path, monkeypatch,
                                                       blocking):
    """Record 003's reply never parses; with on_error="abort" the run raises,
    and the answers its other calls got are appended, in one write.  The
    next run reuses them and asks record 003 again."""
    writes = []
    real = ContextStore.add_answers
    monkeypatch.setattr(ContextStore, "add_answers",
                        lambda self, answers: writes.append(list(answers))
                        or real(self, writes[-1]))
    records = _records(8)
    rules = [(r"RECORD \S+:\ntext: record 003", "no idea", "regex"),
             ("INSTRUCTION", "f: v")]
    store = ContextStore(tmp_path / "s", hashing_embed)
    pplan = bind_plan(parse_pipeline('scan(d) | sem_map("m", {f: text})'), {1: CHEAP})

    def run():
        inner = MockBackend(MockScript([MockRule(*rule) for rule in rules]),
                            {"cheap": CHEAP})
        backend = BlockingBackend(inner) if blocking else inner
        with pytest.raises(OperatorError):
            pipeline_execute(pplan, context_create(records, "docs"), backend,
                             policy=RunPolicy(on_error="abort", pool_width=3),
                             store=store)
        return inner.ledger.snapshot().total_calls

    calls = run()
    assert len(writes) == 1
    logged = len(writes[0])
    assert logged >= 3 and calls == logged + 2  # 003 failed after a re-ask
    assert store.read_answers() == logged
    assert run() == 2  # only record 003 is asked again
    assert len(writes) == 1  # nothing new to append


def test_a_logged_answer_that_does_not_fit_its_operator_is_a_store_error(tmp_path):
    """A well-typed line under a map's key that holds a verdict or other
    fields (a log edited by hand) fails the run as a store error."""
    store = ContextStore(tmp_path / "s", hashing_embed)
    _execute('scan(d) | sem_map("m", {f: text})', _records(), store)
    log = tmp_path / "s" / "answers.jsonl"
    log.write_text(re.sub(r'"answer": \{[^}]*\}', '"answer": true', log.read_text()))
    with pytest.raises(StoreError, match="does not fit the SemMap"):
        _execute('scan(d) | sem_map("m", {f: text})', _records(),
                 ContextStore(tmp_path / "s", hashing_embed))
    # a map whose logged fields are other than its output fields
    log.write_text(log.read_text().replace('"answer": true', '"answer": {"g": "w"}'))
    with pytest.raises(StoreError, match="does not fit the SemMap"):
        _execute('scan(d) | sem_map("m", {f: text})', _records(),
                 ContextStore(tmp_path / "s", hashing_embed))


@pytest.mark.parametrize("ftype, reply, logged", [
    ("number", "f: 2", '"not a number"'), ("number", "f: 2", '"2"'),
    ("number", "f: 2", "true"), ("number", "f: 2", "2"), ("boolean", "f: yes", '"yes"'),
    ("text", "f: v", "5"), ("list", "f: a, b", '"a, b"'),
])
def test_a_logged_map_value_that_its_field_type_changes_is_a_store_error(
        tmp_path, ftype, reply, logged):
    """A logged map field whose value coercing to the declared type does
    not give back unchanged (a log edited by hand) fails the run as a store
    error; the values the run itself logged are reused."""
    pplan = bind_plan(parse_pipeline(f'scan(d) | sem_map("m", {{f: {ftype}}})'),
                      {1: CHEAP})

    def run():
        backend = MockBackend(MockScript([MockRule("INSTRUCTION", reply)]),
                              {"cheap": CHEAP})
        _, report = pipeline_execute(pplan, context_create(_records(2), "docs"), backend,
                                     store=ContextStore(tmp_path / "s", hashing_embed))
        return report.ops[1].calls, report.ops[1].reused

    assert run() == (2, 0)
    assert run() == (0, 2)
    log = tmp_path / "s" / "answers.jsonl"
    log.write_text(re.sub(r'"answer": \{.*?\}, "input_tokens"',
                          f'"answer": {{"f": {logged}}}, "input_tokens"', log.read_text()))
    with pytest.raises(StoreError, match="does not fit the SemMap"):
        run()


# --- the backend is part of the key ------------------------------------------------------

class _Anonymous:
    """A backend that declares no fingerprint and wraps none."""

    def __init__(self, inner):
        self.ledger = inner.ledger
        self.chat = inner.chat


def test_another_backend_misses_and_one_without_a_fingerprint_never_logs(tmp_path):
    """Two mock scripts that give different verdicts on one store: each run
    follows its own script.  A wrapper is keyed as the backend it wraps; a
    backend with neither fingerprint nor ``inner`` asks every time and
    leaves the log as it was."""
    records = _records()
    pplan = bind_plan(parse_pipeline('scan(d) | sem_filter("p")'), {1: CHEAP})
    store = ContextStore(tmp_path / "s", hashing_embed)

    def run(backend):
        out_ctx, report = pipeline_execute(pplan, context_create(records, "docs"),
                                           backend, store=store)
        return len(out_ctx.source), report.ops[1].calls, report.ops[1].reused

    def script(verdict):
        return MockBackend(MockScript([MockRule("PREDICATE", verdict)]), {"cheap": CHEAP})

    assert run(script("yes")) == (4, 4, 0)
    assert run(script("no")) == (0, 4, 0)
    assert run(BlockingBackend(script("yes"))) == (4, 0, 4)
    assert run(Asked(script("no"))) == (0, 0, 4)
    assert store.read_answers() == 8
    assert run(_Anonymous(script("yes"))) == (4, 4, 0)
    assert ContextStore(tmp_path / "s", hashing_embed).read_answers() == 8


def test_backend_fingerprints():
    """The mock's is its script as built, the HTTP provider's its base URL."""
    catalog = {"cheap": CHEAP}
    yes = MockBackend(MockScript([MockRule("PREDICATE", "yes")]), catalog)
    assert backend_fingerprint(yes) == backend_fingerprint(
        MockBackend(MockScript([MockRule("PREDICATE", "yes")]), catalog))
    assert backend_fingerprint(yes) != backend_fingerprint(
        MockBackend(MockScript([MockRule("PREDICATE", "yes", max_calls=1)]), catalog))
    built = backend_fingerprint(yes)
    yes.script = MockScript([])
    assert backend_fingerprint(yes) == built
    http = [backend_fingerprint(HttpBackend(url, catalog, api_key="k"))
            for url in ("http://a.test/v1", "http://a.test/v1/", "http://b.test/v1")]
    assert http[0] == http[1] != http[2] and built not in http
    assert backend_fingerprint(_Anonymous(yes)) is None


# --- an append that fails -----------------------------------------------------------------

@pytest.mark.parametrize("on_error", ["abort", "drop"])
def test_an_append_that_fails_keeps_the_runs_own_outcome(tmp_path, caplog, on_error):
    """A line that another process appended and that does not parse makes the
    append at the end of the run fail.  An aborted run still raises its own
    error; a run that succeeded still returns its output.  Either logs a
    warning and leaves the log as it was."""
    records = _records(8)
    backend = MockBackend(MockScript([
        MockRule(r"RECORD \S+:\ntext: record 003", "no idea", "regex"),
        MockRule("INSTRUCTION", "f: v")]), {"cheap": CHEAP})
    store = ContextStore(tmp_path / "s", hashing_embed)
    assert store.read_answers() == 0
    log = tmp_path / "s" / "answers.jsonl"
    log.write_bytes(b'{"model": "cheap"}\n')
    pplan = bind_plan(parse_pipeline('scan(d) | sem_map("m", {f: text})'), {1: CHEAP})
    run = functools.partial(pipeline_execute, pplan, context_create(records, "docs"),
                            backend, policy=RunPolicy(on_error=on_error,
                                                      failure_budget=1.0),
                            store=store)
    if on_error == "abort":
        with pytest.raises(OperatorError, match="map response missing fields"):
            run()
    else:
        out_ctx, report = run()
        assert len(out_ctx.source) == 7 and report.total_calls == 9
    assert "answer(s) of the run not logged: corrupt answer at line 1" in caplog.text
    assert log.read_bytes() == b'{"model": "cheap"}\n'
