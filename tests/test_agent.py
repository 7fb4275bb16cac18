"""Agent loop: action protocol, tools, compute/search, pipeline hosting."""

import json

import pytest

from semaq import (AgentConfig, AgentResult, AgentRuntime, CapabilityError,
                   ComputeError, ConfigurationError, ContextStore, DataAccessError,
                   FinalAnswer, MinCost, SearchError, ToolCall, ToolParam,
                   ToolSpec, ValidationError, VectorIndex, bind_plan,
                   context_create, hashing_embed, make_source_record,
                   make_stage_runner, parse_action, parse_pipeline,
                   pipeline_execute, safe_arithmetic, truncate_observation)
from semaq.agent import ToolEnv, builtin_tools, render_system_prompt
from tests.conftest import CHEAP, STRONG


def _fenced(doc):
    return "I considered the context.\n```json\n" + json.dumps(doc) + "\n```"


def _tool(name, **args):
    return _fenced({"thought": "t", "tool": name, "args": args})


def _final(text, value=None):
    return _fenced({"thought": "t", "final_answer": {"text": text, "value": value}})


def _script(*replies):
    """Scripted agent turns: one rule per reply, consumed in order.

    "AVAILABLE TOOLS" appears only in the agent system prompt, never in an
    operator prompt, so these rules fire exactly once per agent call.
    """
    return [("AVAILABLE TOOLS", reply, "substring", 1) for reply in replies]


@pytest.fixture
def records():
    texts = ["alpha report on mergers", "beta memo on staffing",
             "gamma summary of filings", "delta notes on audits"]
    return [make_source_record({"text": t}, origin=f"{i}#0")
            for i, t in enumerate(texts)]


@pytest.fixture
def ctx(records, mk_backend):
    backend = mk_backend()
    index = VectorIndex.build(records, backend.embed)
    return context_create(records, "Four memos for triage.", index=index)


def _runtime(backend, **kwargs):
    kwargs.setdefault("models", [CHEAP, STRONG])
    kwargs.setdefault("policy", MinCost(quality_floor=0.0))
    return AgentRuntime(backend, **kwargs)


def _config(**kwargs):
    kwargs.setdefault("model", CHEAP)
    return AgentConfig(**kwargs)


# --- action protocol ---------------------------------------------------------------

def test_parse_action_tool_call():
    thought, action = parse_action(_tool("read_source", id="r1", offset=2))
    assert thought == "t"
    assert action == ToolCall(tool="read_source", args={"id": "r1", "offset": 2})


def test_parse_action_final_string():
    thought, action = parse_action(
        '```json\n{"thought": "done", "final_answer": "42"}\n```')
    assert action == FinalAnswer(text="42", value=None)


def test_parse_action_final_with_value():
    _, action = parse_action(_final("the ratio", value=13.5))
    assert action == FinalAnswer(text="the ratio", value=13.5)
    _, action = parse_action(_final("names", value=["a", "b"]))
    assert action.value == ["a", "b"]


def test_parse_action_plain_fence_without_language_tag():
    _, action = parse_action('```\n{"thought": "x", "final_answer": "ok"}\n```')
    assert action == FinalAnswer(text="ok")


# an integer literal past the interpreter's 4,300-digit conversion limit
_HUGE_ACTION = ("```json\n" + '{"thought": "t", "final_answer": {"text": "n", '
                '"value": ' + "7" * 5000 + "}}\n```")


@pytest.mark.parametrize("reply", [
    "no fence at all",
    _final("a") + "\n" + _final("b"),                      # two blocks
    "```json\nnot json\n```",
    "```json\n[1, 2]\n```",                                # not an object
    '```json\n{"thought": "x"}\n```',                      # neither key
    '```json\n{"thought":"x","tool":"t","final_answer":"y"}\n```',  # both
    '```json\n{"thought":"x","tool":"t","args":[1]}\n```',  # args not object
    '```json\n{"thought":"x","final_answer":{"value":1}}\n```',  # missing text
    '```json\n{"thought":"x","final_answer":{"text":"t","value":{"a":1}}}\n```',
    pytest.param(_HUGE_ACTION, id="over-long-integer"),
])
def test_parse_action_rejects_malformed(reply):
    from semaq.agent import _ActionParseError
    with pytest.raises(_ActionParseError):
        parse_action(reply)


def test_truncate_observation_exact_shape():
    text = "a" * 5000 + "b" * 5000
    out = truncate_observation(text, limit=1000)
    assert len(out) == 1000
    marker = "\n...[truncated 9000 chars]...\n"
    assert marker in out
    keep = 1000 - len(marker)
    head, tail = keep // 2, keep - keep // 2
    assert out == "a" * head + marker + "b" * tail
    assert truncate_observation("short", limit=1000) == "short"


# --- arithmetic --------------------------------------------------------------------

@pytest.mark.parametrize("expr,value", [
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("-5+1", -4.0),
    ("10/4", 2.5),
    ("1135291 / 86250", 13.162794202898551),
])
def test_safe_arithmetic_values(expr, value):
    assert safe_arithmetic(expr) == value


@pytest.mark.parametrize("expr", [
    "1/0", "x+1", "2**3", "abs(1)", "__import__('os')", "1 if 2 else 3",
    "2+", "True", "'a'+'b'",
])
def test_safe_arithmetic_rejects(expr):
    with pytest.raises(ValidationError):
        safe_arithmetic(expr)


def test_safe_arithmetic_rejects_an_expression_nested_too_deeply():
    """A unary chain deeper than the interpreter recurses is a validation
    error.  Which text it carries depends on where the interpreter stops."""
    with pytest.raises(ValidationError):
        safe_arithmetic("-" * 100_000 + "1")


# --- builtin tools (direct) ---------------------------------------------------------

def _env(ctx, backend, **kwargs):
    from semaq.engine import RunPolicy
    return ToolEnv(ctx=ctx, backend=backend, store=kwargs.get("store"),
                   models=[CHEAP], policy=MinCost(0.0), sample_size=0,
                   run_policy=RunPolicy(), refs={"ctx": ctx})


def test_list_sources_tool(ctx, mk_backend):
    handler = {t.name: t.handler for t in builtin_tools()}["list_sources"]
    out = handler(_env(ctx, mk_backend()), {})
    assert out.startswith(f"4 records in context {ctx.id}:")
    for rec in ctx.source:
        assert rec.id in out


def test_read_source_tool(ctx, records, mk_backend):
    handler = {t.name: t.handler for t in builtin_tools()}["read_source"]
    env = _env(ctx, mk_backend())
    assert handler(env, {"id": records[0].id}) == "alpha report on mergers"
    assert handler(env, {"id": records[0].id, "offset": 6, "length": 6}) == "report"
    assert handler(env, {"id": records[0].id, "offset": 9999}) == "(empty slice)"
    with pytest.raises(DataAccessError, match="ghost"):
        handler(env, {"id": "ghost"})
    with pytest.raises(ValidationError):
        handler(env, {"id": records[0].id, "offset": -1})


def test_index_search_tool(ctx, records, mk_backend):
    handler = {t.name: t.handler for t in builtin_tools()}["index_search"]
    out = handler(_env(ctx, mk_backend()), {"query": "alpha report on mergers",
                                            "k": 2})
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(records[0].id)
    plain = context_create(list(records), "no index here")
    with pytest.raises(CapabilityError):
        handler(_env(plain, mk_backend()), {"query": "x"})


def test_evaluate_tool(ctx, mk_backend):
    handler = {t.name: t.handler for t in builtin_tools()}["evaluate"]
    assert handler(_env(ctx, mk_backend()), {"expression": "3/2"}) == "1.5"


def test_system_prompt_lists_tools_and_context(ctx):
    prompt = render_system_prompt(ctx, builtin_tools())
    assert "AVAILABLE TOOLS" in prompt
    assert ctx.description in prompt
    assert "read_source(id, offset?, length?)" in prompt
    assert "exactly one fenced json block" in prompt


# --- the loop ----------------------------------------------------------------------

def test_loop_direct_answer(ctx, mk_backend):
    backend = mk_backend(*_script(_final("done", value=7)))
    trace = _runtime(backend).run("count things", ctx, _config())
    assert trace.outcome == "answered"
    assert len(trace.steps) == 1
    assert trace.final_answer() == FinalAnswer(text="done", value=7)
    assert trace.usage.calls == 1
    assert trace.usage.wall_seconds == pytest.approx(CHEAP.latency_prior)


def test_loop_tool_then_answer(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("list_sources"), _final("4 memos")))
    trace = _runtime(backend).run("what is here", ctx, _config())
    assert trace.outcome == "answered"
    assert len(trace.steps) == 2
    assert trace.steps[0].action == ToolCall(tool="list_sources", args={})
    assert "4 records in context" in trace.steps[0].observation
    assert trace.usage.calls == 2


def test_loop_step_limit(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("list_sources"), _tool("list_sources")))
    trace = _runtime(backend).run("wander", ctx, _config(max_steps=2))
    assert trace.outcome == "step-limit"
    assert len(trace.steps) == 2


def test_loop_reask_then_recovers(ctx, mk_backend):
    backend = mk_backend(*_script("no fence here", _final("ok")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.outcome == "answered"
    assert len(trace.steps) == 1
    assert trace.usage.calls == 2


def test_loop_reasks_a_reply_nested_past_the_json_decoder(ctx, mk_backend):
    deep = "```json\n" + "[" * 100000 + "]" * 100000 + "\n```"
    backend = mk_backend(*_script(deep, _final("ok")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.outcome == "answered"
    assert trace.usage.calls == 2


def test_loop_reasks_exhausted_aborts(ctx, mk_backend):
    backend = mk_backend(*_script("bad", "worse", "worst"))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.outcome == "aborted"
    assert trace.abort_reason == "action-parse"
    assert trace.usage.calls == 3  # initial + two re-asks
    assert len(trace.steps) == 1
    failed = trace.steps[0]
    assert failed.action is None
    assert failed.observation.startswith("error: action-parse:")
    assert "worst" in failed.observation


def test_loop_reasks_an_action_holding_text_that_is_not_unicode(ctx, mk_backend):
    """A decoded action holding a lone surrogate is unparseable: re-asked,
    then the run ends in action-parse once the re-asks run out."""
    bad = _fenced({"thought": "t", "final_answer": "bad \udc80 text"})
    assert "\\udc80" in bad  # the escape, as a model would send it
    with pytest.raises(ValueError, match="action text is not valid Unicode"):
        parse_action(bad)
    recovered = _runtime(mk_backend(*_script(bad, _final("ok")))).run(
        "q", ctx, _config())
    assert recovered.outcome == "answered" and recovered.usage.calls == 2
    trace = _runtime(mk_backend(*_script(bad, bad, bad))).run("q", ctx, _config())
    assert trace.outcome == "aborted" and trace.abort_reason == "action-parse"
    assert trace.usage.calls == 3
    trace.to_json().encode("utf-8")


def test_loop_reasks_an_action_holding_an_over_long_integer(ctx, mk_backend):
    """The action is unparseable: re-asked, then action-parse once the
    re-asks run out."""
    recovered = _runtime(mk_backend(*_script(_HUGE_ACTION, _final("ok")))).run(
        "q", ctx, _config())
    assert recovered.outcome == "answered" and recovered.usage.calls == 2
    trace = _runtime(mk_backend(*_script(*[_HUGE_ACTION] * 3))).run("q", ctx, _config())
    assert trace.outcome == "aborted" and trace.abort_reason == "action-parse"
    assert trace.usage.calls == 3


def test_action_parse_observation_escapes_a_reply_utf8_cannot_encode(ctx, mk_backend):
    """The failed step quotes the raw reply escaped, so the trace still
    encodes as UTF-8."""
    raw = "no action \udc80 here"
    trace = _runtime(mk_backend(*_script(raw, raw, raw))).run("q", ctx, _config())
    assert trace.abort_reason == "action-parse"
    assert trace.steps[0].observation.endswith("last reply (truncated): "
                                               "no action \\udc80 here")
    json.loads(trace.to_json().encode("utf-8"))


def test_run_rejects_an_instruction_that_is_not_unicode(ctx, mk_backend):
    backend = mk_backend(*_script(_final("never reached")))
    with pytest.raises(ValidationError, match="instruction is not valid Unicode"):
        _runtime(backend).run("q\udcff", ctx, _config())
    assert backend.ledger.snapshot().total_calls == 0


def test_loop_budget_abort(ctx, mk_backend):
    backend = mk_backend(*_script(_final("never reached")))
    trace = _runtime(backend).run("q", ctx, _config(cost_budget=0.0))
    assert trace.outcome == "aborted"
    assert trace.abort_reason == "budget"
    assert trace.usage.calls == 0


def test_loop_budget_allows_work_up_to_the_line(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("list_sources")))
    probe = _runtime(backend).run("q", ctx, _config(max_steps=1))
    first_call_cost = probe.usage.cost
    backend2 = mk_backend(*_script(_tool("list_sources"), _final("x")))
    trace = _runtime(backend2).run(
        "q", ctx, _config(cost_budget=first_call_cost))
    assert trace.outcome == "aborted" and trace.abort_reason == "budget"
    assert trace.usage.calls == 1  # the first call spends the whole budget


def test_loop_unknown_tool_observation(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("bogus"), _final("recovered")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.outcome == "answered"
    obs = trace.steps[0].observation
    assert obs.startswith("error: config-error: unknown tool 'bogus'")
    assert "list_sources" in obs


def test_loop_missing_args_observation(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("read_source"), _final("recovered")))
    trace = _runtime(backend).run("q", ctx, _config())
    obs = trace.steps[0].observation
    assert obs == ("error: validation-error: read_source missing required "
                   "argument(s): id")


def test_loop_tool_error_becomes_observation(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("read_source", id="ghost"),
                                  _final("recovered")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.steps[0].observation.startswith("error: data-error:")
    assert trace.outcome == "answered"


def test_loop_survives_overflowing_and_deeply_nested_arguments(ctx, records,
                                                             mk_backend):
    """Model-supplied arguments that overflow an int or nest past the
    parser's depth become observations, not crashes."""
    backend = mk_backend(*_script(
        _tool("read_source", id=records[0].id, offset=float("inf")),
        _tool("index_search", query="alpha", k=float("inf")),
        _tool("evaluate", expression="1" + "+1" * 1500),
        _tool("evaluate", expression="1" + "+1" * 3000),
        _tool("evaluate", expression="-" * 100000 + "1"),
        _final("recovered")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.outcome == "answered"
    assert len(trace.steps) == 6
    for step in trace.steps[:5]:
        assert step.observation.startswith("error: validation-error"), \
            step.observation


def test_loop_truncates_huge_observations(records, mk_backend):
    big = [make_source_record({"text": "z" * 20000}, origin="big#0")]
    big_ctx = context_create(big, "one huge record")
    backend = mk_backend(*_script(_tool("read_source", id=big[0].id,
                                        length=20000),
                                  _final("seen")))
    trace = _runtime(backend).run("q", big_ctx, _config())
    assert len(trace.steps[0].observation) == 8000
    assert "truncated" in trace.steps[0].observation


def test_custom_context_tool_and_collision(ctx, records, mk_backend):
    def shout(env, args):
        return str(args.get("word", "")).upper()

    tooled = context_create(
        list(records), "memos with a helper",
        tools=(ToolSpec(name="shout", description="Upper-case a word.",
                        params=(ToolParam("word"),), handler=shout),))
    backend = mk_backend(*_script(_tool("shout", word="quiet"), _final("ok")))
    trace = _runtime(backend).run("q", tooled, _config())
    assert trace.steps[0].observation == "QUIET"

    clash = context_create(
        list(records), "memos with a clashing helper",
        tools=(ToolSpec(name="evaluate", description="Not the builtin.",
                        params=(), handler=shout),))
    with pytest.raises(ConfigurationError, match="collision"):
        _runtime(mk_backend()).run("q", clash, _config())


def test_trace_serialization(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("list_sources"), _final("done", 3)))
    trace = _runtime(backend).run("summarize", ctx, _config())
    doc = json.loads(trace.to_json())
    assert doc["outcome"] == "answered"
    assert doc["instruction"] == "summarize"
    assert doc["steps"][0]["action"]["type"] == "tool"
    assert doc["steps"][1]["action"] == {"type": "final_answer", "text": "done",
                                         "value": 3}
    assert doc["usage"]["calls"] == 2


def test_agent_config_validation():
    with pytest.raises(ValidationError):
        _config(max_steps=0)
    with pytest.raises(ValidationError):
        _config(cost_budget=-1.0)
    with pytest.raises(ValidationError, match="cost_budget"):
        _config(cost_budget=float("nan"))
    with pytest.raises(ValidationError):
        _config(reask_limit=-1)
    with pytest.raises(ValidationError):
        _runtime_backendless().run("  ", None, _config())


def _runtime_backendless():
    class _NoBackend:
        pass
    return AgentRuntime(_NoBackend())


# --- run_pipeline tool ----------------------------------------------------------------

PIPELINE = 'scan(ctx) | sem_filter("talks about regulatory paperwork")'


def _pipeline_rules():
    return [("filings", "yes"), ("PREDICATE", "no")]


def test_run_pipeline_tool_end_to_end(ctx, mk_backend, tmp_path):
    backend = mk_backend(*_script(_tool("run_pipeline", pipeline=PIPELINE),
                                  _final("one filing memo")),
                         *_pipeline_rules())
    store = ContextStore(tmp_path / "cache", hashing_embed)
    runtime = _runtime(backend, store=store)
    trace = runtime.run("find filings", ctx, _config())
    obs = trace.steps[0].observation
    assert "executed: 4 -> 1 records" in obs
    assert "semantic calls 4" in obs
    assert "derived context ctx-" in obs
    assert "preview:" in obs
    assert len(trace.derived_context_ids) == 1
    derived_id = trace.derived_context_ids[0]
    assert store.get_entry(derived_id) is not None
    assert store.get_entry(derived_id).instruction == PIPELINE
    assert len(runtime.pipeline_reports) == 1
    opt_report, exec_report = runtime.pipeline_reports[0]
    assert exec_report.records_out == 1
    assert opt_report.chosen_plan_id == exec_report.plan_id


def test_run_pipeline_rejects_nested_agentic(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("run_pipeline",
                                        pipeline='scan(ctx) | compute("x")'),
                                  _final("gave up")))
    trace = _runtime(backend).run("q", ctx, _config())
    obs = trace.steps[0].observation
    assert obs.startswith("error: validation-error:")
    assert "not allowed inside run_pipeline" in obs


def test_run_pipeline_unknown_ref(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("run_pipeline",
                                        pipeline='scan(ghost) | limit(1)'),
                                  _final("gave up")))
    trace = _runtime(backend).run("q", ctx, _config())
    obs = trace.steps[0].observation
    assert obs.startswith("error: config-error:")
    assert "'ghost'" in obs and "ctx" in obs


def test_run_pipeline_validation_diagnostics(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("run_pipeline",
                                        pipeline="scan(ctx) | project(nope)"),
                                  _final("gave up")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.steps[0].observation.startswith("error: validation-error:")
    assert "nope" in trace.steps[0].observation


def test_run_pipeline_parse_error_observation(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("run_pipeline", pipeline="scan(ctx | "),
                                  _final("gave up")))
    trace = _runtime(backend).run("q", ctx, _config())
    assert trace.steps[0].observation.startswith("error: parse-error:")


def test_run_pipeline_result_visible_to_later_steps(ctx, mk_backend):
    first = _tool("run_pipeline", pipeline=PIPELINE)
    backend = mk_backend(
        *_script(first, _tool("run_pipeline",
                              pipeline='scan(ctx) | limit(2)'),
                 _final("done")),
        *_pipeline_rules())
    runtime = _runtime(backend)
    trace = runtime.run("q", ctx, _config())
    assert trace.outcome == "answered"
    assert len(trace.derived_context_ids) == 2


def test_a_later_tool_reads_the_runtimes_reports_while_the_run_goes_on(
        records, mk_backend):
    """Each pipeline's reports reach ``runtime.pipeline_reports`` as its tool
    call returns, not when the loop ends: a later tool call in the same run
    finds them, and the trace's derived ids are the run's own list."""
    seen = []

    def peek(env, args):
        seen.append((list(runtime.pipeline_reports), list(env.derived_context_ids)))
        return f"{len(runtime.pipeline_reports)} pipeline report(s)"

    backend = mk_backend(*_script(_tool("run_pipeline", pipeline=PIPELINE),
                                  _tool("peek"), _final("done")),
                         *_pipeline_rules())
    ctx = context_create(records, "Four memos for triage.",
                         index=VectorIndex.build(records, backend.embed),
                         tools=(ToolSpec(name="peek", description="Count reports.",
                                         params=(), handler=peek),))
    runtime = _runtime(backend)
    trace = runtime.run("q", ctx, _config())
    assert trace.outcome == "answered"
    assert trace.steps[1].observation == "1 pipeline report(s)"
    [(reports, derived_ids)] = seen
    assert reports == runtime.pipeline_reports and len(reports) == 1
    assert reports[0][1].total_calls == 4
    assert derived_ids == trace.derived_context_ids and len(derived_ids) == 1


# --- compute and search -----------------------------------------------------------

def test_compute_success(ctx, mk_backend, tmp_path):
    backend = mk_backend(*_script(_tool("evaluate", expression="6*7"),
                                  _final("the answer is 42", value=42)))
    store = ContextStore(tmp_path / "cache", hashing_embed)
    result = _runtime(backend, store=store).compute(
        ctx, "multiply six by seven", _config())
    assert result.answer_text == "the answer is 42"
    assert result.answer_value == 42
    assert result.context.description.startswith(ctx.description)
    assert "[compute] instruction: multiply six by seven" in result.context.description
    assert "answer: the answer is 42" in result.context.description
    assert "tools used: evaluate" in result.context.description
    assert store.get_entry(result.context.id) is not None
    assert result.trace.derived_context_ids[-1] == result.context.id


def test_compute_failure_paths(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("list_sources")))
    with pytest.raises(ComputeError) as err:
        _runtime(backend).compute(ctx, "q", _config(max_steps=1))
    assert err.value.reason == "step-limit"
    assert err.value.trace is not None

    backend = mk_backend(*_script(_final("never")))
    with pytest.raises(ComputeError) as err:
        _runtime(backend).compute(ctx, "q", _config(cost_budget=0.0))
    assert err.value.reason == "budget"
    assert err.value.category == "budget-exceeded"


def test_search_complete_and_partial(ctx, mk_backend, tmp_path):
    backend = mk_backend(*_script(_tool("list_sources"),
                                  _final("found the filings memo")))
    store = ContextStore(tmp_path / "cache", hashing_embed)
    result = _runtime(backend, store=store).search(ctx, "look around", _config())
    assert not result.partial
    assert "[search] instruction: look around" in result.context.description
    assert "status: complete" in result.context.description
    assert "- step 0: list_sources ->" in result.context.description
    assert "- answer: found the filings memo" in result.context.description
    assert store.get_entry(result.context.id) is not None

    backend2 = mk_backend(*_script(_tool("list_sources")))
    partial = _runtime(backend2).search(ctx, "look around", _config(max_steps=1))
    assert partial.partial
    assert "status: partial" in partial.context.description


def test_search_abort_raises(ctx, mk_backend):
    backend = mk_backend(*_script("junk", "junk", "junk"))
    with pytest.raises(SearchError) as err:
        _runtime(backend).search(ctx, "q", _config())
    assert err.value.reason == "action-parse"


# Recorded at the commit before compute and search shared one code path;
# one changed byte in a description changes every later retrieval over it.
_PINNED_COMPUTE = (
    "Four memos for triage.\n\n[compute] instruction: count the filings\n"
    "answer: the answer is 42\ntools used: run_pipeline, evaluate\n"
    "pipelines run: ctx-f766cb651290")
_PINNED_SEARCH_COMPLETE = (
    "Four memos for triage.\n\n[search] instruction: look around\n"
    "status: complete\nfindings:\n"
    "- step 0: run_pipeline -> pipeline pp-941de2bfb5b3 executed: 4 -> 1 "
    "records; semantic calls 4; cost 0.000102; derived context ctx-f766cb651290 "
    'preview: {"id":"r548c9d3d3030","fields":{"text":"gamma summary of filings"}} \n'
    "- step 1: list_sources -> 4 records in context ctx-6664404f58b9: "
    "r6d1d67acabd8\talpha report on mergers r1b305ece48a2\tbeta memo on staffing "
    "r548c9d3d3030\tgamma summary of filings r84282242e9a7\tdelta notes on audits\n"
    "- answer: found the filings memo")
_PINNED_SEARCH_PARTIAL = (
    "Four memos for triage.\n\n[search] instruction: look around\n"
    "status: partial\nfindings:\n"
    "- step 0: list_sources -> 4 records in context ctx-6664404f58b9: "
    "r6d1d67acabd8\talpha report on mergers r1b305ece48a2\tbeta memo on staffing "
    "r548c9d3d3030\tgamma summary of filings r84282242e9a7\tdelta notes on audits\n"
    "- step 1: index_search -> r548c9d3d3030\t0.7500\tgamma summary of filings "
    "r1b305ece48a2\t0.5000\tbeta memo on staffing")


def test_compute_and_search_descriptions_and_ids_pinned(ctx, mk_backend):
    assert ctx.id == "ctx-6664404f58b9"
    backend = mk_backend(*_script(_tool("run_pipeline", pipeline=PIPELINE),
                                  _tool("evaluate", expression="6*7"),
                                  _final("the answer is 42", value=42)),
                         *_pipeline_rules())
    result = _runtime(backend).compute(ctx, "count the filings", _config())
    assert result.context.description == _PINNED_COMPUTE
    assert result.context.id == "ctx-25f9fcf2f791"
    assert result.trace.derived_context_ids == ["ctx-f766cb651290",
                                                "ctx-25f9fcf2f791"]
    assert (result.answer_text, result.answer_value) == ("the answer is 42", 42)

    backend = mk_backend(*_script(_tool("run_pipeline", pipeline=PIPELINE),
                                  _tool("list_sources"),
                                  _final("found the filings memo")),
                         *_pipeline_rules())
    result = _runtime(backend).search(ctx, "look around", _config())
    assert result.context.description == _PINNED_SEARCH_COMPLETE
    assert result.context.id == "ctx-004503fd885b"
    assert result.trace.derived_context_ids == ["ctx-f766cb651290",
                                                "ctx-004503fd885b"]
    assert not result.partial

    backend = mk_backend(*_script(_tool("list_sources"),
                                  _tool("index_search", query="filings", k=2)))
    result = _runtime(backend).search(ctx, "look around", _config(max_steps=2))
    assert result.context.description == _PINNED_SEARCH_PARTIAL
    assert result.context.id == "ctx-20fce5eb4b35"
    assert result.trace.derived_context_ids == ["ctx-20fce5eb4b35"]
    assert result.partial


@pytest.mark.parametrize("kind,replies,config,error,message,category,reason", [
    ("compute", [_tool("list_sources")], {"max_steps": 1}, ComputeError,
     "compute did not reach an answer (step-limit)", "compute-error", "step-limit"),
    ("compute", [_final("never")], {"cost_budget": 0.0}, ComputeError,
     "compute did not reach an answer (aborted: budget)", "budget-exceeded", "budget"),
    ("search", ["junk", "junk", "junk"], {}, SearchError,
     "search aborted (action-parse)", "search-error", "action-parse"),
    ("search", [_final("never")], {"cost_budget": 0.0}, SearchError,
     "search aborted (budget)", "budget-exceeded", "budget"),
])
def test_compute_and_search_errors_pinned(ctx, mk_backend, kind, replies, config,
                                          error, message, category, reason):
    runtime = _runtime(mk_backend(*_script(*replies)))
    with pytest.raises(error) as err:
        getattr(runtime, kind)(ctx, "q", _config(**config))
    assert str(err.value) == message
    assert (err.value.category, err.value.reason) == (category, reason)
    assert err.value.trace is not None


def test_operate_rejects_unknown_kind_before_any_call(ctx, mk_backend):
    backend = mk_backend(*_script(_final("never")))
    with pytest.raises(ValidationError, match="'Compute'"):
        _runtime(backend).operate("Compute", ctx, "q", _config())
    assert backend.ledger.snapshot().total_calls == 0


def test_stage_runner_report_rows_pinned(ctx, mk_backend):
    backend = mk_backend(*_script(_tool("list_sources"), _final("findings noted"),
                                  _tool("evaluate", expression="1+2"),
                                  _final("three", value=3)))
    pplan = bind_plan(parse_pipeline(
        'scan(ctx) | limit(3) | search("scout") | compute("tally")'),
        {2: CHEAP, 3: STRONG})
    out_ctx, report = pipeline_execute(
        pplan, ctx, backend,
        agent_runner=make_stage_runner(_runtime(backend), max_steps=4))
    rows = [op.to_dict() for op in report.ops[2:]]
    assert rows == [
        {"index": 2, "kind": "search", "detail": "scout", "model_id": "cheap",
         "records_in": 3, "records_out": 3, "calls": 2, "input_tokens": 525,
         "output_tokens": 52, "cost": 0.0002516, "wall_seconds": 1.0,
         "failures": 0},
        {"index": 3, "kind": "compute", "detail": "tally", "model_id": "strong",
         "records_in": 3, "records_out": 3, "calls": 2, "input_tokens": 659,
         "output_tokens": 53, "cost": 0.0015300000000000001, "wall_seconds": 2.0,
         "failures": 0},
    ]
    assert (report.answer_text, report.answer_value) == ("three", 3)
    assert out_ctx.id == "ctx-270bea1096d4" and len(out_ctx.source) == 3


def test_make_stage_runner_binds_operator_model(ctx, mk_backend):
    replies = _script(_final("stage answer", value=5))
    backend = mk_backend(*replies)
    runtime = _runtime(backend)
    runner = make_stage_runner(runtime, max_steps=4)
    result = runner("compute", "stage instruction", ctx, STRONG)
    assert isinstance(result, AgentResult)
    assert result.answer_text == "stage answer" and result.answer_value == 5
    assert result.trace.usage.calls == 1
    assert result.trace.usage.wall_seconds == pytest.approx(STRONG.latency_prior)
    assert result.trace.model_id == "strong"

    backend2 = mk_backend(*_script(_final("findings noted")))
    runner2 = make_stage_runner(_runtime(backend2))
    search_result = runner2("search", "scout", ctx, CHEAP)
    assert search_result.answer_text is None
    assert "[search]" in search_result.context.description


# --- lines no other test reaches ----------------------------------------------------

@pytest.mark.parametrize("expr, message", [
    pytest.param("1" + "0" * 400, "an integer literal is past float range", id="1e400-int"),
    pytest.param("-1" + "0" * 400 + " + 1", "an integer literal is past float range",
                 id="-1e400-int+1"),
    ("1e308*10", "result is not finite: inf"),
    ("1e400", "result is not finite: inf"),
    ("-1e308*10", "result is not finite: -inf"),
    ("1e308*10 - 1e308*10", "result is not finite: nan"),
])
def test_safe_arithmetic_rejects_what_is_not_a_finite_float(ctx, mk_backend, expr, message):
    """A number past float range and a result that is not finite are
    validation errors, as division by zero is; what stays finite does not
    change."""
    with pytest.raises(ValidationError, match=message):
        safe_arithmetic(expr)
    runtime = _runtime(mk_backend())
    observation = runtime._invoke_tool({t.name: t for t in builtin_tools()},
                                       _env(ctx, runtime.backend),
                                       ToolCall("evaluate", {"expression": expr}))
    assert observation == f"error: validation-error: {message}"
    assert safe_arithmetic("1" + "0" * 300) == 1e300
    assert safe_arithmetic("1/(1e308*10)") == 0.0


def test_final_answer_is_none_without_a_final_step():
    from semaq.agent import AgentStep, AgentTrace
    trace = AgentTrace("q", "cheap")
    assert trace.final_answer() is None
    trace.steps.append(AgentStep(index=0, thought="t", action=ToolCall("list_sources", {}),
                                 observation="..."))
    assert trace.final_answer() is None
    trace.steps.append(AgentStep(index=1, thought="t", action=FinalAnswer("done"),
                                 observation=""))
    assert trace.final_answer() == FinalAnswer("done")


def test_index_search_tool_with_no_hits(ctx, records, mk_backend):
    """A context whose records the index does not hold (a sem_map output)
    has no hits."""
    from semaq import context_derive, make_derived_record
    handler = {t.name: t.handler for t in builtin_tools()}["index_search"]
    made = make_derived_record({"text": "alpha report on mergers"}, [records[0].id],
                               "sem_map")
    mapped = context_derive(ctx, "map", ctx.description + "\nmapped", records=[made])
    assert handler(_env(mapped, mk_backend()), {"query": "alpha report", "k": 3}) == \
        "no matches"


def test_compute_stage_searches_only_the_records_its_filter_passed(mk_backend):
    """scan | sem_filter | compute: the compute stage's agent is shown by
    index_search only the records that reached it, though its context keeps
    the dataset's index, and read_source reads each hit."""
    texts = ["audit of the payroll ledger", "lunch menu and parking rules",
             "audit findings on travel claims", "parking rules and lunch menu"]
    recs = [make_source_record({"text": t}, origin=f"{i}#0") for i, t in enumerate(texts)]
    passed = [recs[0], recs[2]]
    backend = mk_backend(*_script(_tool("index_search", query="lunch menu parking", k=4),
                                  *(_tool("read_source", id=r.id) for r in passed),
                                  _final("two audit memos", value=2)),
                         ("audit", "yes"), ("PREDICATE", "no"))
    ctx = context_create(recs, "Four memos.", index=VectorIndex.build(recs, backend.embed))
    stage = make_stage_runner(_runtime(backend), max_steps=6)
    results = []

    def runner(*args):
        results.append(stage(*args))
        return results[-1]

    pplan = bind_plan(parse_pipeline(
        'scan(ctx) | sem_filter("concerns a review of the books") | compute("count")'),
        {1: CHEAP, 2: CHEAP})
    _, report = pipeline_execute(pplan, ctx, backend, agent_runner=runner)
    assert report.answer_value == 2
    steps = results[0].trace.steps
    hits = [line.split("\t")[0] for line in steps[0].observation.splitlines()]
    assert sorted(hits) == sorted(r.id for r in passed)
    assert [s.observation for s in steps[1:3]] == [r.fields["text"] for r in passed]
