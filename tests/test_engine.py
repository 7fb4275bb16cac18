"""Execution engine: prompts, parsing, operators, iterator pipelines."""

import contextlib
import threading

import pytest

from semaq import (MockBackend, MockRule, MockScript, OperatorError,
                   RunAbortedError, RunPolicy, ValidationError, bind_plan,
                   context_create, make_source_record, parse_pipeline,
                   pipeline_execute)
from semaq.backend import Usage
from semaq.engine import (AgentStageResult, parse_filter_response,
                          parse_map_response, render_filter_prompt,
                          render_map_prompt, sem_filter_execute,
                          sem_map_execute)
from tests.conftest import CHEAP, STRONG


def _ctx(records, description="test docs"):
    return context_create(records, description)


def _numbered(n, marker=lambda i: ""):
    return [make_source_record({"text": f"record {i:03d} {marker(i)}".strip()},
                               origin=f"{i}#0")
            for i in range(n)]


def _bind(text, model=CHEAP, retry_budget=1):
    plan = parse_pipeline(text)
    models = {i: model for i, op in enumerate(plan.ops)
              if type(op).__name__ in ("SemFilter", "SemMap", "Compute", "Search")}
    return bind_plan(plan, models, retry_budget=retry_budget)


# --- prompts and parsing ---------------------------------------------------------

def test_filter_prompt_contents():
    rec = make_source_record({"path": "a.txt", "text": "hello world"}, "a#0")
    rendered = "\n".join(m.content for m in render_filter_prompt(rec, "is greeting"))
    assert "PREDICATE: is greeting" in rendered
    assert f"RECORD {rec.id}:" in rendered
    assert "path: a.txt" in rendered and "text: hello world" in rendered
    assert 'exactly "yes" or "no"' in rendered


def test_map_prompt_lists_output_fields():
    rec = make_source_record({"text": "x"}, "a#0")
    rendered = "\n".join(
        m.content for m in render_map_prompt(rec, "extract", [("a", "text"),
                                                              ("n", "number")]))
    assert "INSTRUCTION: extract" in rendered
    assert "- a (text)" in rendered and "- n (number)" in rendered


def test_field_char_cap_truncates_prompt():
    rec = make_source_record({"text": "y" * 5000}, "a#0")
    rendered = render_filter_prompt(rec, "p", cap=100)[1].content
    assert "y" * 100 + "..." in rendered
    assert "y" * 101 not in rendered


@pytest.mark.parametrize("reply,verdict", [
    ("yes", True), ("Yes.", True), ("  YES, clearly", True),
    ("no", False), ("No way", False),
    ("maybe", None), ("", None), ("12", None),
])
def test_parse_filter_response(reply, verdict):
    assert parse_filter_response(reply) is verdict


def test_parse_map_response_kv_lines():
    out = parse_map_response("a: hello\nn: 12.5", [("a", "text"), ("n", "number")])
    assert out == {"a": "hello", "n": 12.5}


def test_parse_map_response_json_precedence():
    out = parse_map_response('{"a": "x", "flag": true, "items": [1, 2]}',
                             [("a", "text"), ("flag", "boolean"),
                              ("items", "list")])
    assert out == {"a": "x", "flag": True, "items": [1, 2]}


def test_parse_map_response_coercions():
    assert parse_map_response("flag: yes", [("flag", "boolean")]) == {"flag": True}
    assert parse_map_response("items: a, b", [("items", "list")]) == {"items": ["a", "b"]}
    assert parse_map_response("n: twelve", [("n", "number")]) is None
    assert parse_map_response("other: x", [("a", "text")]) is None
    assert parse_map_response("prose with no keys at all?!", [("a", "text")]) is None


# --- single-record execution ------------------------------------------------------

def test_sem_filter_execute_counts(mk_backend):
    backend = mk_backend(("record", "yes"))
    rec = make_source_record({"text": "record one"}, "1#0")
    verdict, usage, calls = sem_filter_execute(backend, CHEAP, rec, "p")
    assert verdict is True and calls == 1
    assert usage.input_tokens > 0 and usage.output_tokens == 1


def test_sem_filter_reask_then_success(mk_backend):
    backend = mk_backend(("PREDICATE", "hmm", "substring", 1), ("PREDICATE", "no"))
    rec = make_source_record({"text": "r"}, "1#0")
    verdict, usage, calls = sem_filter_execute(backend, CHEAP, rec, "p",
                                               retry_budget=1)
    assert verdict is False and calls == 2


def test_sem_filter_retries_exhausted(mk_backend):
    backend = mk_backend(("PREDICATE", "unclear"))
    rec = make_source_record({"text": "r"}, "1#0")
    with pytest.raises(OperatorError) as err:
        sem_filter_execute(backend, CHEAP, rec, "p", retry_budget=2)
    assert err.value.calls == 3
    assert err.value.raw_response == "unclear"
    assert err.value.input_tokens > 0


def test_sem_map_execute_merges_and_links(mk_backend):
    backend = mk_backend(("INSTRUCTION", "tag: fresh"))
    rec = make_source_record({"text": "r"}, "1#0")
    merged, usage, calls = sem_map_execute(backend, CHEAP, rec, "label it",
                                           [("tag", "text")], "op1")
    assert merged.fields == {"text": "r", "tag": "fresh"}
    assert merged.lineage.parents == (rec.id,)
    assert merged.lineage.operator == "op1"
    assert calls == 1


def test_sem_map_reask_appends_corrective(mk_backend):
    backend = mk_backend(("INSTRUCTION", "garbage", "substring", 1),
                         ("missing fields or malformed", "tag: ok"))
    rec = make_source_record({"text": "r"}, "1#0")
    merged, _, calls = sem_map_execute(backend, CHEAP, rec, "label",
                                       [("tag", "text")], "op1", retry_budget=1)
    assert merged.fields["tag"] == "ok" and calls == 2


# --- pipeline execution ------------------------------------------------------------

def _yes_for(marker):
    return MockRule(match=f"RECORD-MARK {marker}", response="yes")


def test_short_circuit_filter_then_map(mk_backend):
    """10 records, filter passes 4, map runs on the 4: exactly 14 calls."""
    records = _numbered(10, lambda i: "keeper" if i < 4 else "")
    # map rule first: map prompts embed record text, which contains "keeper"
    backend = mk_backend(("INSTRUCTION", "tag: t"), ("keeper", "yes"),
                         ("PREDICATE", "no"))
    pplan = _bind('scan(d) | sem_filter("keep") | sem_map("label", {tag: text})')
    out_ctx, report = pipeline_execute(pplan, _ctx(records), backend)
    assert report.ops[1].calls == 10
    assert report.ops[2].calls == 4
    assert report.total_calls == 14
    assert backend.ledger.snapshot().total_calls == 14
    assert len(out_ctx.source) == 4


def test_two_filters_chain_counts(mk_backend):
    """Pass sets of 4 then 2 over N=10: calls = 10 + 4, out = 2."""
    records = _numbered(10, lambda i: ("alpha beta" if i < 2 else
                                       "alpha" if i < 4 else ""))
    backend = mk_backend(
        MockRule(match=r"first\?[\s\S]*alpha", response="yes", kind="regex"),
        MockRule(match=r"second\?[\s\S]*beta", response="yes", kind="regex"),
        ("PREDICATE", "no"))
    pplan = _bind('scan(d) | sem_filter("first?") | sem_filter("second?")')
    out_ctx, report = pipeline_execute(pplan, _ctx(records), backend)
    assert report.ops[1].calls == 10 and report.ops[2].calls == 4
    assert report.total_calls == 14
    assert len(out_ctx.source) == 2


def test_output_order_preserved_under_parallelism(mk_backend):
    records = _numbered(40, lambda i: "flagged" if i % 2 == 0 else "")
    expected = [r.id for r in records if "flagged" in r.fields["text"]]
    for width in (1, 3, 8):
        backend = mk_backend(("flagged", "yes"), ("PREDICATE", "no"))
        pplan = _bind('scan(d) | sem_filter("keep marked rows")')
        out_ctx, report = pipeline_execute(
            pplan, _ctx(records), backend, policy=RunPolicy(pool_width=width))
        assert [r.id for r in out_ctx.source] == expected
        assert report.ops[1].calls == 40


def test_parallel_run_ledger_identical_to_sequential(mk_backend):
    records = _numbered(30, lambda i: "pick" if i % 3 == 0 else "")
    runs = []
    for width in (1, 8):
        # record 003's map reply never parses: it is dropped within budget
        backend = mk_backend((r"INSTRUCTION[\s\S]*record 003", "no idea", "regex"),
                             ("INSTRUCTION", "tag: x"), ("pick", "yes"),
                             ("PREDICATE", "no"))
        pplan = _bind('scan(d) | sem_filter("p") | sem_map("m", {tag: text})')
        before = backend.ledger.snapshot()
        out_ctx, report = pipeline_execute(pplan, _ctx(records), backend,
                                           policy=RunPolicy(pool_width=width))
        delta = backend.ledger.snapshot().minus(before)
        assert report.total_failures == 1
        assert report.records_out == 9
        # 30 filter calls, 10 map calls, 1 re-ask of record 003
        assert report.total_calls == delta.total_calls == 30 + 10 + 1
        assert (sum(op.input_tokens for op in report.ops)
                == sum(m.input_tokens for m in delta.per_model))
        assert (sum(op.output_tokens for op in report.ops)
                == sum(m.output_tokens for m in delta.per_model))
        assert report.total_cost == pytest.approx(delta.total_cost, abs=1e-12)
        assert report.total_wall_seconds == pytest.approx(delta.total_wall_seconds)
        runs.append((report.to_json(), [r.id for r in out_ctx.source],
                     delta.to_json()))
    assert runs[0] == runs[1]


def test_limit_stops_upstream_consumption(mk_backend):
    backend = mk_backend()
    ctx = _ctx(_numbered(100))
    pplan = _bind("scan(d) | limit(3)")
    out_ctx, report = pipeline_execute(pplan, ctx, backend)
    assert len(out_ctx.source) == 3
    assert report.total_calls == 0
    # the scan stage itself must pull no more than the limit
    assert report.ops[0].records_out == 3


_FILTER_FILTER_MAP_LIMIT = ('scan(d) | sem_filter("p") | sem_filter("q") '
                            '| sem_map("m", {tag: text}) | limit(2)')


@pytest.mark.parametrize("pipeline, width", [
    ('scan(d) | sem_filter("p") | limit(2)', 8),
    (_FILTER_FILTER_MAP_LIMIT, 1),
    (_FILTER_FILTER_MAP_LIMIT, 8),
], ids=["filter-limit-w8", "filter-filter-map-limit-w1",
        "filter-filter-map-limit-w8"])
def test_report_cost_equals_ledger_delta_with_limit(mk_backend, pipeline, width):
    """Pool prefetch past a limit still lands in the report totals."""
    records = _numbered(20, lambda i: "hit")
    backend = mk_backend(("INSTRUCTION", "tag: x"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    _, report = pipeline_execute(_bind(pipeline), _ctx(records), backend,
                                 policy=RunPolicy(pool_width=width))
    snap = backend.ledger.snapshot()
    assert report.total_calls == snap.total_calls
    assert (sum(op.input_tokens for op in report.ops)
            == sum(m.input_tokens for m in snap.per_model))
    assert (sum(op.output_tokens for op in report.ops)
            == sum(m.output_tokens for m in snap.per_model))
    assert abs(report.total_cost - snap.total_cost) < 1e-9
    assert report.total_wall_seconds == pytest.approx(snap.total_wall_seconds)
    assert report.records_out == 2
    if width == 1:
        # the inline path pulls exactly what the limit needs
        assert [op.calls for op in report.ops[1:-1]] == [2] * (len(report.ops) - 2)


@pytest.mark.parametrize("case, expected", [
    ("limit", None), ("abort", OperatorError), ("budget", RunAbortedError),
])
def test_no_worker_thread_outlives_pipeline_execute(mk_backend, case, expected):
    """In-flight calls of every stage settle before pipeline_execute returns
    or raises, including the upstream stage's when stage 2 fails."""
    records = _numbered(40, lambda i: "bad" if i == 20 else "good")
    backend = mk_backend((r"second\?[\s\S]*bad", "???", "regex"),
                         ("PREDICATE", "yes"))
    text = 'scan(d) | sem_filter("first?") | sem_filter("second?")'
    if case == "limit":
        text += " | limit(2)"
    policy = RunPolicy(on_error="abort" if case == "abort" else "drop",
                       failure_budget=0.0, pool_width=8)
    before = set(threading.enumerate())
    with pytest.raises(expected) if expected else contextlib.nullcontext():
        try:
            pipeline_execute(_bind(text, retry_budget=0), _ctx(records), backend,
                             policy=policy)
        finally:
            # counted while a raised error and its traceback are still live
            leftover = set(threading.enumerate()) - before
    assert not leftover


def test_project_keeps_selected_fields(mk_backend):
    records = [make_source_record({"a": "1", "b": "2", "c": "3"}, "x#0")]
    backend = mk_backend()
    pplan = _bind("scan(d) | project(a, c)")
    out_ctx, _ = pipeline_execute(pplan, _ctx(records), backend)
    out = list(out_ctx.source)[0]
    assert out.fields == {"a": "1", "c": "3"}
    assert out.lineage.parents == (records[0].id,)


def test_failure_policy_drop_within_budget(mk_backend):
    records = _numbered(10, lambda i: "bad" if i == 4 else "good")
    backend = mk_backend(("bad", "unparseable"), ("good", "yes"),
                         ("PREDICATE", "no"))
    pplan = _bind('scan(d) | sem_filter("p")', retry_budget=0)
    out_ctx, report = pipeline_execute(
        pplan, _ctx(records), backend,
        policy=RunPolicy(on_error="drop", failure_budget=0.2))
    assert report.ops[1].failures == 1
    assert len(out_ctx.source) == 9
    assert report.total_calls == backend.ledger.snapshot().total_calls


def test_failure_budget_exceeded_aborts(mk_backend):
    records = _numbered(10, lambda i: "bad")
    backend = mk_backend(("bad", "unparseable"))
    pplan = _bind('scan(d) | sem_filter("p")', retry_budget=0)
    with pytest.raises(RunAbortedError):
        pipeline_execute(pplan, _ctx(records), backend,
                         policy=RunPolicy(failure_budget=0.1, pool_width=1))


def test_failure_policy_abort_mode(mk_backend):
    records = _numbered(3, lambda i: "bad" if i == 1 else "good")
    backend = mk_backend(("bad", "???"), ("good", "yes"), ("PREDICATE", "no"))
    pplan = _bind('scan(d) | sem_filter("p")', retry_budget=0)
    with pytest.raises(OperatorError):
        pipeline_execute(pplan, _ctx(records), backend,
                         policy=RunPolicy(on_error="abort", pool_width=1))


def test_derived_context_description_and_determinism(mk_backend):
    records = _numbered(6, lambda i: "pick" if i < 2 else "")
    outcomes = []
    for _ in range(2):
        backend = mk_backend(("pick", "yes"), ("PREDICATE", "no"))
        pplan = _bind('scan(d) | sem_filter("p")')
        ctx = _ctx(records)
        out_ctx, report = pipeline_execute(pplan, ctx, backend)
        assert out_ctx.description.startswith(ctx.description)
        assert "records in: 6; records out: 2." in out_ctx.description
        outcomes.append((out_ctx.id, [r.id for r in out_ctx.source],
                         report.to_json()))
    assert outcomes[0] == outcomes[1]


def test_agentic_stage_requires_runner(mk_backend):
    backend = mk_backend()
    pplan = _bind('scan(d) | compute("answer")')
    with pytest.raises(OperatorError):
        pipeline_execute(pplan, _ctx(_numbered(2)), backend)


def test_agentic_stage_runs_via_runner(mk_backend):
    backend = mk_backend()
    seen = {}

    def runner(kind, instruction, stage_ctx, model):
        seen["kind"] = kind
        seen["instruction"] = instruction
        seen["n"] = len(stage_ctx.source)
        seen["model"] = model.model_id
        derived = context_create(list(stage_ctx.source)[:1],
                                 stage_ctx.description + "\nanswered")
        return AgentStageResult(context=derived, answer_text="42",
                                answer_value=42, calls=2, usage=Usage(10, 5),
                                wall_seconds=2.0)

    pplan = _bind('scan(d) | compute("the answer")', model=STRONG)
    out_ctx, report = pipeline_execute(pplan, _ctx(_numbered(4)), backend,
                                       agent_runner=runner)
    assert seen == {"kind": "compute", "instruction": "the answer", "n": 4,
                    "model": "strong"}
    assert report.answer_text == "42" and report.answer_value == 42
    assert report.ops[1].kind == "compute" and report.ops[1].calls == 2
    assert len(out_ctx.source) == 1


def test_report_render_and_json(mk_backend):
    records = _numbered(4, lambda i: "k")
    backend = mk_backend(("k", "yes"), ("PREDICATE", "no"))
    pplan = _bind('scan(d) | sem_filter("p")')
    _, report = pipeline_execute(pplan, _ctx(records), backend)
    text = report.render_text()
    assert "sem_filter" in text and "total:" in text
    doc = report.to_dict()
    assert doc["plan_id"] == pplan.plan_id
    assert doc["ops"][1]["calls"] == 4


def test_bind_plan_validation():
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    with pytest.raises(ValidationError):
        bind_plan(plan, {})
    bound = bind_plan(plan, {1: CHEAP})
    assert bound.plan_id.startswith("pp-")
    assert bound.model_assignment() == {1: "cheap"}
    other = bind_plan(plan, {1: STRONG})
    assert other.plan_id != bound.plan_id
