"""Seeded fault injection: runs whose backend fails or garbles replies keep
their accounting, their error contract and their answer log.

Each case runs one plan, ``scan | sem_filter | sem_map`` with or without a
``limit``, over the records of one seed, on a :class:`tests.faults.FaultyBackend`
(pooled) or :class:`tests.faults.InlineFaultyBackend`, at ``pool_width`` 1 and
8, with and without a context store, under ``on_error`` drop and abort.  A
sequential reference walks the same records through the same fates and
says how a run ends.  Tier-1 runs seed 0.  More seeds, comma-separated::

    SEMAQ_FAULT_SEEDS=1,2,3 python -m pytest -q tests/test_fault_injection.py
"""

import itertools
import json
import math
import os
import random
import re
import threading
from collections import defaultdict

import pytest

from semaq import (AgentConfig, AgentRuntime, BackendError, ContextStore, MinCost,
                   MockBackend, MockRule, MockScript, RunPolicy, bind_plan,
                   context_create, make_source_record, parse_pipeline,
                   pipeline_execute)
from semaq.backend import backend_fingerprint, hashing_embed
from semaq.engine import _AnswerLog, render_filter_prompt, render_map_prompt
from semaq.errors import OperatorError, RunAbortedError
from semaq.lang import SemFilter
from tests.conftest import CHEAP, STRONG
from tests.faults import FaultyBackend, InlineFaultyBackend, record_of

SEEDS = [int(s) for s in os.environ.get("SEMAQ_FAULT_SEEDS", "0").split(",")]

_RULES = [(r"PREDICATE[\s\S]*#deal", "yes", "regex"), ("PREDICATE", "no"),
          ("INSTRUCTION", "amount: 12")]
_STAGES = ('scan(d) | sem_filter("mentions a deal") '
           '| sem_map("the amount", {amount: number})')


def _mock():
    return MockBackend(MockScript([MockRule(*rule) for rule in _RULES]),
                       {"cheap": CHEAP, "strong": STRONG})


def _records(rng):
    return [make_source_record(
        {"text": f"note {i:03d}" + (" #deal" if rng.random() < 0.5 else "")},
        origin=f"{i}#0") for i in range(rng.randint(24, 40))]


def _plan(limit):
    plan = parse_pipeline(_STAGES + ("" if limit is None else f" | limit({limit})"))
    return bind_plan(plan, {1: CHEAP, 2: STRONG})


def _first_messages(pop, record):
    op = pop.logical
    if isinstance(op, SemFilter):
        return tuple(render_filter_prompt(record, op.predicate))
    return tuple(render_map_prompt(record, op.instruction, op.output_fields))


def _reference(pplan, records, backend, policy, limit, clean):
    """How a sequential run ends: (None, the source ids it outputs), or
    (the error class, the id of the record it is raised on)."""
    allowed = math.ceil(policy.failure_budget * len(records))
    semantic = [pop for pop in pplan.ops if pop.model is not None]
    out, failures = [], 0
    for record in records:
        if limit is not None and len(out) == limit:
            break
        for pop in semantic:
            fates = [backend.fate(pop.model.model_id, _first_messages(pop, record), a)
                     for a in range(pop.retry_budget + 1)]
            outcome = next((f for f in fates if f != "garble"), "failed")
            if outcome == "error":
                return BackendError, record.id
            if outcome == "failed":
                if policy.on_error == "abort":
                    return OperatorError, record.id
                failures += 1
                if failures > allowed:
                    return RunAbortedError, record.id
                break
            if isinstance(pop.logical, SemFilter) and record.id not in clean:
                break
        else:
            out.append(record.id)
    return None, out


def _asks(backend):
    """Each ask the backend served, by (model id, first-attempt messages):
    its attempts' outcomes and usages, in attempt order."""
    asks = defaultdict(list)
    for model_id, first, attempt, outcome, usage in sorted(
            backend.served, key=lambda s: (s[0], s[1][1].content, s[2])):
        asks[(model_id, first)].append((outcome, usage))
    return asks


def _failed(attempts):
    """Whether every attempt the engine allows (two) was garbled."""
    return [o for o, _ in attempts] == ["garble", "garble"]


def _check_answer_log(store, backend, clean_verdicts):
    """Every line of the store's answer log is the answer of an ask that
    succeeded, with that ask's calls and tokens, and every such ask has one."""
    fingerprint = backend_fingerprint(backend)
    digest = _AnswerLog(None, fingerprint).digest
    expected = {}
    for (model_id, first), attempts in _asks(backend).items():
        outcomes = [o for o, _ in attempts]
        if "ok" not in outcomes:
            continue
        paid = attempts[:outcomes.index("ok") + 1]
        record_id = record_of(first[1].content)
        answer = (clean_verdicts[record_id] if "PREDICATE" in first[1].content
                  else {"amount": 12.0})
        expected[(model_id, digest(first))] = {
            "answer": answer, "calls": len(paid),
            "input_tokens": sum(u.input_tokens for _, u in paid),
            "output_tokens": sum(u.output_tokens for _, u in paid)}
    path = store.directory / "answers.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    logged = {}
    for line in lines:
        doc = json.loads(line)
        logged[(doc.pop("model"), doc.pop("prompt"))] = doc
    assert len(logged) == len(lines)
    assert logged == expected


def _run_case(tmp_path, seed, case, records, clean, width, pooled, limit, stored,
              on_error, rng):
    variant = FaultyBackend if pooled else InlineFaultyBackend
    backend = variant(_mock(), seed=seed * 1000 + case,
                      error_rate=rng.choice([0.0, 0.0, 0.01, 0.04]),
                      garble_rate=rng.choice([0.1, 0.3, 0.6]))
    policy = RunPolicy(on_error=on_error, pool_width=width,
                       failure_budget=rng.choice([0.05, 0.25, 1.0]))
    pplan = _plan(limit)
    store = ContextStore(tmp_path / f"store-{case}", hashing_embed) if stored else None
    threads = set(threading.enumerate())
    error = None
    try:
        out_ctx, report = pipeline_execute(pplan, context_create(records, "d"), backend,
                                           policy=policy, store=store)
    except (BackendError, OperatorError, RunAbortedError) as exc:
        error = exc
    where = (f"seed {seed} case {case}: width {width}, pooled {pooled}, limit {limit}, "
             f"store {stored}, {on_error}, error {backend.error_rate}, garble "
             f"{backend.garble_rate}, budget {policy.failure_budget}: {error!r}")
    assert set(threading.enumerate()) <= threads, where
    asks = _asks(backend)
    failed = [first for first, attempts in asks.items() if _failed(attempts)]
    allowed = math.ceil(policy.failure_budget * len(records))
    kind, expected = _reference(pplan, records, backend, policy, limit, clean)
    assert (error is None) == (kind is None), where
    if error is None:
        ledger = backend.ledger.snapshot()
        assert report.total_calls == ledger.total_calls, where
        assert (sum(op.input_tokens for op in report.ops),
                sum(op.output_tokens for op in report.ops)) == (
            sum(m.input_tokens for m in ledger.per_model),
            sum(m.output_tokens for m in ledger.per_model)), where
        assert report.total_cost == pytest.approx(ledger.total_cost, rel=1e-9, abs=1e-12)
        assert report.total_failures == len(failed), where
        fields = {r.id: r.fields for r in records}
        assert [(r.lineage.parents[0], r.fields) for r in out_ctx.source] == [
            (s, {**fields[s], "amount": 12.0}) for s in expected], where
    elif not pooled or width == 1:  # inline: exactly the reference's end
        assert type(error) is kind, where
        if kind is RunAbortedError:
            assert str(error).startswith(
                f"failure budget exceeded: {allowed + 1} failures"), where
        else:
            assert f"record {expected}" in str(error), where
    elif type(error) is BackendError:
        assert any(o == "error" for attempts in asks.values() for o, _ in attempts), where
    elif type(error) is OperatorError:
        assert on_error == "abort", where
        assert re.search(r"on record (\S+)$", str(error)).group(1) in {
            record_of(first[1].content) for _, first in failed}, where
    else:
        assert on_error == "drop", where
        assert len(failed) > allowed, where
    if store is not None:
        _check_answer_log(store, backend, {r.id: r.id in clean for r in records})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("limited", [False, True], ids=["no-limit", "limit"])
def test_faulty_runs_keep_their_accounting_errors_and_answer_log(seed, limited,
                                                                 tmp_path):
    rng = random.Random(f"{seed}-{limited}")
    records = _records(rng)
    clean_ctx, _ = pipeline_execute(_plan(None), context_create(records, "d"), _mock(),
                                    policy=RunPolicy(pool_width=1))
    clean = {r.lineage.parents[0] for r in clean_ctx.source}  # what the filter passes
    for case, (width, pooled, stored, on_error) in enumerate(itertools.product(
            (1, 8), (False, True), (False, True), ("drop", "abort"))):
        limit = rng.randint(1, 12) if limited else None
        _run_case(tmp_path, seed, case, records, clean, width, pooled, limit, stored,
                  on_error, random.Random(f"{seed}-{limited}-{case}"))


# --- the agent loop -------------------------------------------------------------

def _fenced(doc):
    return "```json\n" + json.dumps(doc) + "\n```"


_FAILING = 'scan(docs) | sem_filter("about audits")'
_PASSING = 'scan(docs) | sem_filter("about deals")'


@pytest.mark.parametrize("sample", [0, 2])
@pytest.mark.parametrize("width, pooled", [(1, False), (8, False), (8, True)])
def test_a_tool_call_that_hits_a_backend_error_leaves_the_run_whole(
        tmp_path, sample, width, pooled):
    """The agent's first ``run_pipeline`` meets an injected BackendError (in
    sampling with ``sample`` 2, else in the run); its second succeeds.  The
    failed step's observation is the error, no report stands for it, the
    store reopens with the entries the live store holds, and the trace's
    usage is the agent model's ledger delta."""
    rules = [
        ("AVAILABLE TOOLS", _fenced({"thought": "audits", "tool": "run_pipeline",
                                     "args": {"pipeline": _FAILING}}), "substring", 1),
        ("AVAILABLE TOOLS", _fenced({"thought": "deals", "tool": "run_pipeline",
                                     "args": {"pipeline": _PASSING}}), "substring", 1),
        ("AVAILABLE TOOLS", _fenced({"thought": "done", "final_answer": {
            "text": "two deals", "value": 2}}), "substring", 1),
        (r"PREDICATE[\s\S]*#deal", "yes", "regex"),
        ("PREDICATE", "no"),
    ]
    inner = MockBackend(MockScript([MockRule(*rule) for rule in rules]),
                        {"cheap": CHEAP, "strong": STRONG})
    records = [make_source_record({"text": f"memo {i}" + (" #deal" if i % 2 else "")},
                                  origin=f"{i}#0") for i in range(6)]
    # every ask about audits on the second record raises: the sampler's
    # second ask, or the run's after one paid call
    variant = FaultyBackend if pooled else InlineFaultyBackend
    backend = variant(inner, seed=0, error_rate=1.0,
                      match=f"about audits\nRECORD {records[1].id}:")
    ctx = context_create(records, "memos")
    store = ContextStore(tmp_path / "store", hashing_embed)
    store.register(ctx, instruction="dataset docs")
    runtime = AgentRuntime(backend, store, models=[CHEAP],
                           policy=MinCost(quality_floor=0.0), sample_size=sample,
                           run_policy=RunPolicy(pool_width=width), refs={"docs": ctx})
    threads = set(threading.enumerate())
    before = backend.ledger.snapshot()
    trace = runtime.run("count the deals", ctx, AgentConfig(model=STRONG, max_steps=4))
    assert set(threading.enumerate()) <= threads
    assert trace.outcome == "answered" and len(trace.steps) == 3
    assert re.match(r"error: backend-error: injected fault: cheap, attempt 0, record ",
                    trace.steps[0].observation)
    assert trace.steps[1].observation.startswith("pipeline pp-")
    assert [opt.pipeline_text for opt, _ in runtime.pipeline_reports] == [
        'scan(docs) | sem_filter("about deals")']
    report = runtime.pipeline_reports[0][1]
    assert report.records_out == 3
    delta = backend.ledger.snapshot().minus(before).for_model("strong")
    assert (trace.usage.calls, trace.usage.input_tokens, trace.usage.output_tokens) == (
        delta.calls, delta.input_tokens, delta.output_tokens)
    reopened = ContextStore(tmp_path / "store", hashing_embed)
    assert [e.context_id for e in reopened.entries] == [
        e.context_id for e in store.entries]
    assert [e.context_id for e in store.entries] == [ctx.id, *trace.derived_context_ids]
