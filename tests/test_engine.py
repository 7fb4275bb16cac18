"""Execution engine: prompts, parsing, operators, iterator pipelines."""

import ast
import contextlib
import json
import random
import threading
from pathlib import Path

import pytest

from semaq import (ContextStore, MockBackend, MockRule, MockScript, OperatorError,
                   RunAbortedError, RunPolicy, ValidationError, bind_plan,
                   context_create, hashing_embed, make_source_record,
                   parse_pipeline, pipeline_execute)
from semaq import engine
from semaq.agent import AgentResult, AgentTrace, AgentUsage
from semaq.backend import Usage, backend_fingerprint
from semaq.engine import (PhysicalOp, _AnswerLog, parse_filter_response,
                          parse_map_response, render_filter_prompt,
                          render_map_prompt, render_report, semantic_answer,
                          semantic_execute)
from semaq.lang import SemFilter, SemMap
from tests.conftest import CHEAP, STRONG, BlockingBackend
from tests.test_run_calls import _case, _cheap, _run


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

def _filter_op(predicate, retry_budget=1):
    return PhysicalOp(SemFilter(predicate), CHEAP, retry_budget=retry_budget)


def _map_op(instruction, output_fields, retry_budget=1):
    return PhysicalOp(SemMap(instruction, tuple(output_fields)), CHEAP,
                      retry_budget=retry_budget)


def test_sem_filter_execute_counts(mk_backend):
    backend = mk_backend(("record", "yes"))
    rec = make_source_record({"text": "record one"}, "1#0")
    out, usage, calls = semantic_execute(backend, _filter_op("p"), rec, "op1")
    assert out is rec and calls == 1
    assert usage.input_tokens > 0 and usage.output_tokens == 1


def test_sem_filter_reask_then_success(mk_backend):
    backend = mk_backend(("PREDICATE", "hmm", "substring", 1), ("PREDICATE", "no"))
    rec = make_source_record({"text": "r"}, "1#0")
    out, usage, calls = semantic_execute(backend, _filter_op("p", retry_budget=1),
                                         rec, "op1")
    assert out is None and calls == 2


def test_sem_filter_retries_exhausted(mk_backend):
    backend = mk_backend(("PREDICATE", "unclear"))
    rec = make_source_record({"text": "r"}, "1#0")
    with pytest.raises(OperatorError) as err:
        semantic_execute(backend, _filter_op("p", retry_budget=2), rec, "op1")
    assert err.value.calls == 3
    assert err.value.raw_response == "unclear"
    assert err.value.input_tokens > 0


def test_sem_map_execute_merges_and_links(mk_backend):
    backend = mk_backend(("INSTRUCTION", "tag: fresh"))
    rec = make_source_record({"text": "r"}, "1#0")
    merged, usage, calls = semantic_execute(
        backend, _map_op("label it", [("tag", "text")]), rec, "op1")
    assert merged.fields == {"text": "r", "tag": "fresh"}
    assert merged.lineage.parents == (rec.id,)
    assert merged.lineage.operator == "op1"
    assert calls == 1


def test_sem_map_reask_appends_corrective(mk_backend):
    backend = mk_backend(("INSTRUCTION", "garbage", "substring", 1),
                         ("missing fields or malformed", "tag: ok"))
    rec = make_source_record({"text": "r"}, "1#0")
    merged, _, calls = semantic_execute(
        backend, _map_op("label", [("tag", "text")], retry_budget=1), rec, "op1")
    assert merged.fields["tag"] == "ok" and calls == 2


_PIN_FILTER = parse_pipeline('scan(d) | sem_filter("is it kept?")').ops[1]
_PIN_MAP = parse_pipeline(
    'scan(d) | sem_map("label it", {tag: text, n: number})').ops[1]


@pytest.mark.parametrize("op,rules,budget,expected", [
    (_PIN_FILTER, [("PREDICATE", "yes")], 1,
     ("r7367c00e25f1", (54, 1), 1)),
    (_PIN_FILTER, [("PREDICATE", "No.")], 1, (None, (54, 1), 1)),
    (_PIN_FILTER, [("PREDICATE", "hmm", "substring", 1), ("PREDICATE", "no")], 1,
     (None, (131, 2), 2)),
    (_PIN_FILTER, [("PREDICATE", "unclear")], 2,
     ("filter response unparseable after 3 attempt(s) on record r7367c00e25f1",
      "unclear", (235, 6), 3)),
    (_PIN_MAP, [("INSTRUCTION", "tag: fresh\nn: 3")], 1,
     ("re11517942db8", (73, 4), 1)),
    (_PIN_MAP, [("INSTRUCTION", "tag: only", "substring", 1),
                ("missing fields or malformed", '{"tag": "ok", "n": 4.5}')], 1,
     ("r974375afbd38", (180, 9), 2)),
    (_PIN_MAP, [("INSTRUCTION", "n: many")], 1,
     ("map response missing fields after 2 attempt(s) on record r7367c00e25f1",
      "n: many", (180, 4), 2)),
], ids=["filter-yes", "filter-no", "filter-reask-no", "filter-exhausted",
        "map-ok", "map-reask", "map-exhausted"])
def test_semantic_execute_pinned(mk_backend, op, rules, budget, expected):
    """Pinned output id, usage and calls (or the error message, raw reply,
    usage and calls) of one bound operator on one record."""
    backend = mk_backend(*rules)
    rec = make_source_record({"text": "record one"}, "1#0")
    pop = PhysicalOp(op, CHEAP, retry_budget=budget)
    if len(expected) == 4:
        message, raw, tokens, calls = expected
        with pytest.raises(OperatorError) as err:
            semantic_execute(backend, pop, rec, "op1")
        assert str(err.value) == message
        assert err.value.raw_response == raw
        assert (err.value.input_tokens, err.value.output_tokens) == tokens
        assert err.value.calls == calls
    else:
        out_id, tokens, calls = expected
        out, usage, got_calls = semantic_execute(backend, pop, rec, "op1")
        assert (out.id if out is not None else None) == out_id
        assert (usage.input_tokens, usage.output_tokens) == tokens
        assert got_calls == calls
        if out_id == rec.id:
            assert out is rec
    assert backend.ledger.snapshot().total_calls == calls



def test_semantic_answer_returns_the_answer_and_logs_each_success(mk_backend, tmp_path):
    """A filter's verdict and a map's parsed fields, with the usage and
    calls of semantic_execute; a prompt the answer log holds makes no call,
    and a call that fails logs nothing."""
    rec = make_source_record({"text": "record one"}, "1#0")
    backend = mk_backend(("PREDICATE", "Yes."), ("INSTRUCTION", "tag: fresh\nn: 3"))
    filter_op, map_op = PhysicalOp(_PIN_FILTER, CHEAP), PhysicalOp(_PIN_MAP, CHEAP)
    store = ContextStore(tmp_path / "store", hashing_embed)
    fingerprint = backend_fingerprint(backend)
    with _AnswerLog(store, fingerprint) as log:
        assert semantic_answer(backend, filter_op, rec, log) == (True, Usage(54, 1), 1)
        assert semantic_answer(backend, map_op, rec, log) == (
            {"tag": "fresh", "n": 3.0}, Usage(73, 4), 1)
    assert semantic_answer(backend, map_op, rec)[0] == {"tag": "fresh", "n": 3.0}
    assert backend.ledger.snapshot().total_calls == 3
    with _AnswerLog(store, fingerprint) as log:
        assert semantic_answer(backend, filter_op, rec, log) == (True, Usage(0, 0), 0)
        assert semantic_answer(backend, map_op, rec, log) == (
            {"tag": "fresh", "n": 3.0}, Usage(0, 0), 0)
        assert log.new == []
    assert backend.ledger.snapshot().total_calls == 3
    failing = mk_backend(("PREDICATE", "unclear"))
    with _AnswerLog(store, backend_fingerprint(failing)) as log:
        with pytest.raises(OperatorError, match="after 2 attempt"):
            semantic_answer(failing, filter_op, rec, log)
        assert log.new == []
    assert failing.ledger.snapshot().total_calls == 2
    assert store.read_answers() == 2


def test_only_the_engine_asks_a_model_about_a_record():
    """The re-ask loop, the answer log and the row's counts live behind one
    ask: any other module sweeps records through a plan, so a second loop
    over ``semantic_answer`` cannot drift from the engine's stage."""
    users = set()
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
            elif isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names if a.name == "semantic_answer"), None)
            else:
                continue
            if name == "semantic_answer":
                users.add(path.name)
    assert users == {"engine.py"}


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
        if width > 1:
            backend = BlockingBackend(backend)
        pplan = _bind('scan(d) | sem_filter("keep marked rows")')
        out_ctx, report = pipeline_execute(
            pplan, _ctx(records), backend, policy=RunPolicy(pool_width=width))
        assert [r.id for r in out_ctx.source] == expected
        assert report.ops[1].calls == 40
        if width > 1:
            assert backend.ran_on_workers()


def test_parallel_run_ledger_identical_to_sequential(mk_backend):
    records = _numbered(30, lambda i: "pick" if i % 3 == 0 else "")
    runs = []
    for width in (1, 8):
        # record 003's map reply never parses: it is dropped within budget
        backend = BlockingBackend(mk_backend(
            (r"INSTRUCTION[\s\S]*record 003", "no idea", "regex"),
            ("INSTRUCTION", "tag: x"), ("pick", "yes"), ("PREDICATE", "no")))
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
        assert backend.ran_on_workers() == (width > 1)
        runs.append((report.to_json(), [r.id for r in out_ctx.source],
                     delta.to_json()))
    assert runs[0] == runs[1]


def test_in_process_backend_runs_inline_without_threads(mk_backend):
    """A MockBackend declares in_process: pool_width 8 starts no thread."""
    seen = []

    class Watched(MockBackend):
        def chat(self, *args, **kwargs):
            seen.append((threading.current_thread(), set(threading.enumerate())))
            return super().chat(*args, **kwargs)

    inner = mk_backend(("INSTRUCTION", "tag: x"), ("pick", "yes"), ("PREDICATE", "no"))
    backend = Watched(inner.script, inner.catalog)
    records = _numbered(30, lambda i: "pick" if i % 3 == 0 else "")
    caller = threading.current_thread()
    before = set(threading.enumerate())
    pplan = _bind('scan(d) | sem_filter("p") | sem_map("m", {tag: text})')
    _, report = pipeline_execute(pplan, _ctx(records), backend,
                                 policy=RunPolicy(pool_width=8))
    assert report.total_calls == len(seen) == 30 + 10
    for thread, alive in seen:
        assert thread is caller
        assert alive == before and caller in alive


def test_inline_mock_run_matches_pooled_blocking_run(mk_backend):
    """Oracle: on a full scan the inline mock run and the pooled run of the
    same script agree on output ids, report and ledger delta."""
    records = _numbered(60, lambda i: ("pick" if i % 3 else "") +
                        (" odd" if i % 2 else ""))
    pplan = _bind('scan(d) | sem_filter("p") | sem_map("m", {tag: text}) '
                  '| sem_filter("q")')
    runs = []
    for pooled in (False, True):
        # record 007's map reply never parses: it is dropped within budget
        backend = mk_backend(
            (r"INSTRUCTION[\s\S]*record 007", "no idea", "regex"),
            ("INSTRUCTION", "tag: x"), (r"q\n[\s\S]*odd", "yes", "regex"),
            (r"p\n[\s\S]*pick", "yes", "regex"), ("PREDICATE", "no"))
        if pooled:
            backend = BlockingBackend(backend)
        before = backend.ledger.snapshot()
        out_ctx, report = pipeline_execute(pplan, _ctx(records), backend,
                                           policy=RunPolicy(pool_width=8))
        delta = backend.ledger.snapshot().minus(before)
        assert report.total_failures == 1
        assert [op.calls for op in report.ops[1:]] == [60, 40 + 1, 39]
        assert report.records_out == 19
        runs.append(([r.id for r in out_ctx.source], report.to_json(),
                     delta.to_json()))
        if pooled:
            assert backend.ran_on_workers()
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


@pytest.mark.parametrize("pipeline, width, blocking", [
    ('scan(d) | sem_filter("p") | limit(2)', 8, True),
    (_FILTER_FILTER_MAP_LIMIT, 1, False),
    (_FILTER_FILTER_MAP_LIMIT, 8, True),
    (_FILTER_FILTER_MAP_LIMIT, 8, False),
], ids=["filter-limit-w8", "filter-filter-map-limit-w1",
        "filter-filter-map-limit-w8", "filter-filter-map-limit-w8-inline"])
def test_report_cost_equals_ledger_delta_with_limit(mk_backend, pipeline, width,
                                                    blocking):
    """Pool prefetch past a limit still lands in the report totals."""
    records = _numbered(20, lambda i: "hit")
    backend = mk_backend(("INSTRUCTION", "tag: x"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    if blocking:
        backend = BlockingBackend(backend)
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
    if blocking:
        assert backend.ran_on_workers()
    else:
        # the inline path pulls exactly what the limit needs
        assert [op.calls for op in report.ops[1:-1]] == [2] * (len(report.ops) - 2)


def _inline_and_pooled(backend_for, pipeline, records, width, **policy):
    """Run ``pipeline`` inline on the mock, then on a blocking backend at
    ``width``; return both (output ids, report) pairs after checking that
    each run's report totals equal its ledger delta."""
    runs = []
    for blocking in (False, True):
        backend = backend_for()
        if blocking:
            backend = BlockingBackend(backend)
        before = backend.ledger.snapshot()
        out_ctx, report = pipeline_execute(
            _bind(pipeline), _ctx(records), backend,
            policy=RunPolicy(pool_width=width, **policy))
        delta = backend.ledger.snapshot().minus(before)
        assert report.total_calls == delta.total_calls
        assert (sum(op.input_tokens for op in report.ops)
                == sum(m.input_tokens for m in delta.per_model))
        assert (sum(op.output_tokens for op in report.ops)
                == sum(m.output_tokens for m in delta.per_model))
        assert report.total_cost == pytest.approx(delta.total_cost, abs=1e-12)
        if blocking and width > 1:
            assert backend.ran_on_workers()
        runs.append(([r.id for r in out_ctx.source], report))
    return runs


@pytest.mark.parametrize("width", [1, 3, 8])
@pytest.mark.parametrize("pipeline, limit, capped", [
    (_FILTER_FILTER_MAP_LIMIT, 2, 3),
    ('scan(d) | sem_filter("p") | sem_map("m", {tag: text}) | project(tag) '
     '| limit(5)', 5, 2),
], ids=["filter-filter-map-limit", "filter-map-project-limit"])
def test_map_under_limit_calls_what_the_inline_run_calls(mk_backend, pipeline,
                                                         limit, capped, width):
    """A sem_map with only project/sem_map before a limit keeps calls in
    flight plus records emitted within the limit, so on a blocking backend
    it makes exactly the inline run's calls."""
    records = _numbered(40, lambda i: ("pick" if i % 3 else "") +
                        (" odd" if i % 2 else ""))
    (inline_ids, inline), (pooled_ids, pooled) = _inline_and_pooled(
        lambda: mk_backend(("INSTRUCTION", "tag: x"),
                           (r"q\n[\s\S]*odd", "yes", "regex"),
                           (r"p\n[\s\S]*pick", "yes", "regex"),
                           ("PREDICATE", "no")),
        pipeline, records, width)
    assert pooled_ids == inline_ids and len(inline_ids) == limit
    assert pooled.ops[capped].calls == inline.ops[capped].calls == limit


@pytest.mark.parametrize("width", [1, 3, 8])
def test_map_under_limit_refills_after_a_downstream_drop(mk_backend, width):
    """The second map drops record 001; the capped first map has then emitted
    what the limit can take, and still feeds the one record more it needs."""
    records = _numbered(20)
    (inline_ids, inline), (pooled_ids, pooled) = _inline_and_pooled(
        lambda: mk_backend((r"INSTRUCTION: second[\s\S]*record 001", "no idea",
                            "regex"),
                           ("INSTRUCTION: first", "a: x"),
                           ("INSTRUCTION: second", "b: y")),
        'scan(d) | sem_map("first", {a: text}) | sem_map("second", {b: text}) '
        '| limit(3)', records, width, on_error="drop")
    assert pooled_ids == inline_ids and len(pooled_ids) == 3
    assert pooled.total_failures == inline.total_failures == 1
    # four records each way; record 001's second-map reply is re-asked once
    assert [op.calls for op in inline.ops[1:3]] == [4, 5]
    assert [op.calls for op in pooled.ops[1:3]] == [4, 5]


@pytest.mark.parametrize("case, expected", [
    ("limit", None), ("abort", OperatorError), ("budget", RunAbortedError),
])
def test_no_worker_thread_outlives_pipeline_execute(mk_backend, case, expected):
    """In-flight calls of every stage settle before pipeline_execute returns
    or raises, including the upstream stage's when stage 2 fails."""
    records = _numbered(40, lambda i: "bad" if i == 20 else "good")
    backend = BlockingBackend(mk_backend((r"second\?[\s\S]*bad", "???", "regex"),
                                         ("PREDICATE", "yes")))
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
    assert backend.ran_on_workers()


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


_BAD_VALUE_REPLIES = [
    ("count", "number", "count: nan", "count: 2", 2.0),
    ("count", "number", "count: inf", "count: 2", 2.0),
    ("count", "number", "count: 1e999", "count: 2", 2.0),
    ("count", "number", '{"count": NaN}', '{"count": 2}', 2.0),
    ("items", "list", "items: [1, NaN]", "items: [1, 2]", [1, 2]),
    ("items", "list", "items: " + "[" * 9 + "1" + "]" * 9, "items: [[1]]", [[1]]),
    ("items", "list", '{"items": ' + "[" * 100000 + "]" * 100000 + "}",
     "items: [[1]]", [[1]]),
    ("tag", "text", '{"tag": "\\udc80"}', "tag: ok", "ok"),
    # past the interpreter's 4,300-digit int conversion limit
    ("count", "number", '{"count": ' + "7" * 5000 + "}", '{"count": 2}', 2.0),
]
_BAD_VALUE_IDS = ["nan", "inf", "1e999", "json-NaN", "list-nan", "list-depth-9",
                  "json-past-decoder-depth", "lone-surrogate", "json-over-long-integer"]


@pytest.mark.parametrize("name, ftype, bad, good, value", _BAD_VALUE_REPLIES,
                         ids=_BAD_VALUE_IDS)
def test_map_reply_a_record_cannot_hold_is_reasked(mk_backend, name, ftype, bad,
                                                   good, value):
    """A coerced value a record rejects (non-finite, nested past the cap,
    text that is not valid Unicode) makes the reply unusable: it is re-asked like an unparseable one."""
    assert parse_map_response(bad, [(name, ftype)]) is None
    backend = mk_backend(("INSTRUCTION", bad, "substring", 1),
                         ("missing fields or malformed", good))
    rec = make_source_record({"text": "r"}, "1#0")
    merged, _, calls = semantic_execute(backend, _map_op("m", [(name, ftype)]),
                                        rec, "op1")
    assert calls == 2 and merged.fields[name] == value


@pytest.mark.parametrize("name, ftype, bad, good, value", _BAD_VALUE_REPLIES,
                         ids=_BAD_VALUE_IDS)
def test_map_reply_a_record_cannot_hold_drops_the_record(mk_backend, name, ftype,
                                                         bad, good, value):
    records = _numbered(3)
    backend = mk_backend((r"INSTRUCTION[\s\S]*record 001", bad, "regex"),
                         ("INSTRUCTION", good))
    before = backend.ledger.snapshot()
    out_ctx, report = pipeline_execute(
        _bind(f'scan(d) | sem_map("m", {{{name}: {ftype}}})'), _ctx(records),
        backend, policy=RunPolicy(on_error="drop", pool_width=1))
    delta = backend.ledger.snapshot().minus(before)
    assert report.total_failures == 1 and report.records_out == 2
    assert [r.fields[name] for r in out_ctx.source] == [value, value]
    assert report.total_calls == delta.total_calls == 2 + 2
    assert (sum(op.input_tokens for op in report.ops)
            == sum(m.input_tokens for m in delta.per_model))
    assert (sum(op.output_tokens for op in report.ops)
            == sum(m.output_tokens for m in delta.per_model))
    assert report.total_cost == pytest.approx(delta.total_cost, abs=1e-12)


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
        usage = AgentUsage(calls=2, input_tokens=10, output_tokens=5,
                           wall_seconds=2.0)
        trace = AgentTrace(instruction, model.model_id, usage=usage)
        return AgentResult(context=derived, trace=trace, answer_text="42",
                           answer_value=42)

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


def test_report_text_is_the_render_of_its_json_document(mk_backend):
    """The text a report prints is its JSON document's, read back from disk;
    the scan row, which carries no ``reused``, reads 0 reused."""
    backend = mk_backend(("k", "yes"), ("PREDICATE", "no"))
    _, report = pipeline_execute(_bind('scan(d) | sem_filter("p") | limit(1)'),
                                 _ctx(_numbered(4, lambda i: "k")), backend)
    doc = json.loads(report.to_json())
    assert "reused" not in doc["ops"][0]
    assert report.render_text() == render_report(doc)
    rows = render_report(doc).splitlines()[2:5]
    assert [row.split()[:7] for row in rows] == [
        ["0", "scan", "-", "1", "1", "0", "0"],
        ["1", "sem_filter", "cheap", "1", "1", "1", "0"],
        ["2", "limit", "-", "1", "1", "0", "0"]]


def test_report_rows_and_agent_usage_write_their_keys_in_order(mk_backend):
    """A report row's JSON keys and their order, read back from its JSON:
    only a sem_filter or sem_map row carries ``reused``; and an agent trace's."""
    row_keys = ["index", "kind", "detail", "model_id", "records_in", "records_out",
                "calls", "input_tokens", "output_tokens", "cost", "wall_seconds",
                "failures", "reused"]
    backend = mk_backend(("PREDICATE", "yes"))
    _, report = pipeline_execute(_bind('scan(d) | sem_filter("p") | compute("answer")'),
                                 _ctx(_numbered(2)), backend,
                                 agent_runner=_keep_all_runner)
    ops = json.loads(report.to_json())["ops"]
    assert [op["kind"] for op in ops] == ["scan", "sem_filter", "compute"]
    assert list(ops[1]) == row_keys
    assert list(ops[0]) == list(ops[2]) == row_keys[:-1]
    assert list(AgentUsage().to_dict()) == ["calls", "input_tokens", "output_tokens",
                                            "cost", "wall_seconds"]


def test_bind_plan_validation():
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    with pytest.raises(ValidationError):
        bind_plan(plan, {})
    bound = bind_plan(plan, {1: CHEAP})
    assert bound.plan_id.startswith("pp-")
    assert bound.model_assignment() == {1: "cheap"}
    other = bind_plan(plan, {1: STRONG})
    assert other.plan_id != bound.plan_id


# --- the pooled window's loop ------------------------------------------------------

class _OwnedLock:
    """A lock that knows which thread holds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.owner = None

    def __enter__(self):
        self._lock.acquire()
        self.owner = threading.get_ident()
        return self

    def __exit__(self, *exc):
        self.owner = None
        self._lock.release()


def test_every_pooled_pull_happens_under_its_windows_lock(monkeypatch):
    """Each pull a pooled stage makes from its upstream, on the consumer's
    thread or a lane's, holds that stage's window lock: on seeded unlimited
    plans (the refill oracle's) and limited ones (the demand oracle's), at
    width 3 on the blocking backend."""
    made, pulls, unlocked = [], {True: 0, False: 0}, []
    windows, pulled = engine._windows, engine._pulled

    def owned_windows(ops, width):
        found = windows(ops, width)
        for window in found.values():
            window.lock = _OwnedLock()
        made.append(found)
        return found

    def checked(upstream, row):
        window = made[-1].get(row.index)
        records = pulled(upstream, row)
        while True:
            if window is not None:
                pulls[window.refill] += 1
                if window.lock.owner != threading.get_ident():
                    unlocked.append((row.index, row.kind, window.refill))
            try:
                record = next(records)
            except StopIteration:
                return
            yield record

    monkeypatch.setattr(engine, "_windows", owned_windows)
    monkeypatch.setattr(engine, "_pulled", checked)
    rng = random.Random("refill-3")
    cases = [_case(rng, limited=False) for _ in range(12)]
    rng = random.Random("demand-3-True")
    cases += [_case(rng, case % 4 != 0, filters=(1, 3)) for case in range(16)]
    for records, plan, rules in cases:
        _run(_cheap(plan), records, rules, {"cheap": CHEAP}, True, 3)
    assert not unlocked, unlocked
    # both kinds of window pulled: the source-fed stage's and the in-order ones
    assert pulls[True] > 0 and pulls[False] > 0, pulls


def test_one_loop_runs_every_pooled_window():
    """``_Window`` has one generator, the consumer loop every pooled stage
    runs, and the engine takes a window's oldest call in one place."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    window = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Window")
    generators = [node.name for node in window.body if isinstance(node, ast.FunctionDef)
                  and any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                          for sub in ast.walk(node))]
    assert generators == ["run"]
    pops = [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "popleft"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "pending"]
    assert len(pops) == 1


# --- report row counts -------------------------------------------------------------

@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_each_row_pulls_what_the_row_before_passed_on(width, blocking):
    """Oracle on seeded random plans, with and without a limit: a row's
    ``records_in`` is the ``records_out`` of the row before it, and the last
    row's ``records_out`` is the number of output records."""
    rng = random.Random(f"rows-{width}-{blocking}")
    for _ in range(12):
        records, plan, rules = _case(rng, limited=rng.random() < 0.5)
        _, out, report = _run(_cheap(plan), records, rules, {"cheap": CHEAP},
                              blocking, width)
        rows = report.ops
        assert rows[0].records_in == rows[0].records_out
        assert [row.records_in for row in rows[1:]] == [
            row.records_out for row in rows[:-1]]
        assert rows[-1].records_out == len(out)


def _records_out_writers(tree):
    """The outermost function around each assignment to a ``records_out``
    attribute in ``tree``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope is None:
            scope = node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            if any(isinstance(sub, ast.Attribute) and sub.attr == "records_out"
                   for sub in ast.walk(target)):
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_records_out_is_set_only_where_a_run_ends_or_an_agent_returns():
    """Each stage boundary is counted once, where the next stage pulls: a
    row's ``out`` is written by the run's post-pass, or by an agentic stage
    as its output context's size, never by a counter of its own."""
    found = set()
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        writers = _records_out_writers(ast.parse(path.read_text(encoding="utf-8")))
        found |= {f"{path.stem}.{scope}" for scope in writers}
    assert found == {"engine.pipeline_execute", "engine._agentic_stage"}


def _keep_all_runner(kind, instruction, stage_ctx, model):
    """An agent runner whose output context holds every record it was given,
    after one call."""
    trace = AgentTrace(instruction, model.model_id,
                       usage=AgentUsage(calls=1, input_tokens=7, output_tokens=3,
                                        wall_seconds=model.latency_prior))
    return AgentResult(context=context_create(list(stage_ctx.source),
                                              stage_ctx.description + "\nkept"),
                       trace=trace)


def test_agentic_row_counts_its_output_context_under_a_limit(mk_backend):
    """The search row's ``out`` is the size of its output context, 5, though
    the limit downstream takes only 2 of its records."""
    pplan = _bind('scan(d) | search("look") | limit(2)')
    out_ctx, report = pipeline_execute(pplan, _ctx(_numbered(5)), mk_backend(),
                                       agent_runner=_keep_all_runner)
    counts = [(op.kind, op.records_in, op.records_out) for op in report.ops]
    assert counts == [("scan", 5, 5), ("search", 5, 5), ("limit", 2, 2)]
    assert len(out_ctx.source) == 2
    assert report.ops[1].calls == 1
    assert report.ops[1].cost == pytest.approx(
        (7 * CHEAP.input_cost_per_1k + 3 * CHEAP.output_cost_per_1k) / 1000)


@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
def test_missing_agent_runner_fails_before_any_call(mk_backend, blocking):
    """The compute stage's missing runner is found before the filter above
    it makes a call."""
    backend = mk_backend(("PREDICATE", "yes"))
    if blocking:
        backend = BlockingBackend(backend)
    pplan = _bind('scan(d) | sem_filter("p") | compute("answer")')
    with pytest.raises(OperatorError, match="requires an agent runner"):
        pipeline_execute(pplan, _ctx(_numbered(6)), backend,
                         policy=RunPolicy(pool_width=8))
    assert backend.ledger.snapshot().total_calls == 0


# --- rejections and rows no other test reaches ---------------------------------

@pytest.mark.parametrize("make, message", [
    (lambda: PhysicalOp(SemFilter("p")), "needs a model"),
    (lambda: PhysicalOp(parse_pipeline("scan(d) | limit(2)").ops[1], model=CHEAP),
     "does not take a model"),
    (lambda: PhysicalOp(SemFilter("p"), model=CHEAP, retry_budget=-1),
     "retry budget must be >= 0"),
    (lambda: RunPolicy(on_error="skip"), "on_error must be 'drop' or 'abort'"),
    (lambda: RunPolicy(failure_budget=1.5), r"failure_budget must be in \[0, 1\]"),
])
def test_physical_op_and_run_policy_reject_what_a_run_cannot_take(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize("reply, fields, parsed", [
    ('{"ok": "no"}', [("ok", "boolean")], {"ok": False}),
    ("ok: false", [("ok", "boolean")], {"ok": False}),
    ('{"ok": "maybe"}', [("ok", "boolean")], None),
    ('{"when": "today"}', [("when", "date")], None),  # no such field type
    ('{"tags": "[1, [2]]"}', [("tags", "list")], {"tags": [1, [2]]}),
    ('{"tags": "[1, 2"}', [("tags", "list")], None),
    ('{"a": "x"', [("a", "text")], None),  # opens an object it never closes
])
def test_parse_map_response_coerces_or_rejects_each_field(reply, fields, parsed):
    assert parse_map_response(reply, fields) == parsed


def test_render_report_shows_a_compute_answer(mk_backend):
    def runner(kind, instruction, stage_ctx, model):
        return AgentResult(context=stage_ctx, trace=AgentTrace(instruction, model.model_id),
                           answer_text="four records")

    _, report = pipeline_execute(_bind('scan(d) | compute("count")'),
                                 _ctx(_numbered(4)), mk_backend(), agent_runner=runner)
    text = render_report(json.loads(report.to_json()))
    assert text.splitlines()[-1] == "   answer: four records"
    assert report.render_text() == text


def test_pipeline_execute_rejects_an_operator_it_has_no_stage_for(mk_backend):
    from dataclasses import dataclass

    from semaq.engine import PhysicalPlan
    from semaq.lang import Limit

    @dataclass(frozen=True)
    class Sample(Limit):
        """A limit by another type: the engine has no stage for it."""

    logical = parse_pipeline("scan(d) | limit(2)")
    pplan = PhysicalPlan(logical, (PhysicalOp(logical.ops[0]), PhysicalOp(Sample(2))),
                         "pp-sample")
    backend = mk_backend()
    with pytest.raises(ValidationError, match="unsupported operator"):
        pipeline_execute(pplan, _ctx(_numbered(3)), backend)
    assert backend.ledger.snapshot().total_calls == 0
