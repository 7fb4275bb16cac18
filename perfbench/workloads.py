"""The three workloads: set-up, one query, and the checks on its output.

Queries reach semaq only through module attributes (``lang.parse_pipeline``,
``optimizer.optimize``, ...), never through names imported into this module,
so the traced run's wrappers see every call.

Each workload replays a fixed cycle of queries.  A run measures whole
cycles and every cycle starts from the same program state, so the ledger
counts of a run (calls and modeled cost per query) repeat exactly.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import semaq.agent as agent
import semaq.core as core
import semaq.engine as engine
import semaq.lang as lang
import semaq.optimizer as optimizer
import semaq.store as store_mod
from semaq.backend import MockBackend, MockScript, hashing_embed

from . import inputs


class SleepingBackend:
    """A MockBackend whose chat blocks the way an HTTP call does.

    Each call delegates to ``MockBackend.chat`` and then sleeps for the
    model's ``latency_prior`` times ``scale``.  The ledger is the mock's own
    and the sleep adds nothing to it.
    """

    def __init__(self, inner: MockBackend, scale: float):
        self.inner = inner
        self.scale = scale
        self.ledger = inner.ledger
        self.catalog = inner.catalog

    def chat(self, model_id, messages, temperature=0.0):
        exchange = self.inner.chat(model_id, messages, temperature)
        self.wait(self.catalog[model_id].latency_prior * self.scale)
        return exchange

    def wait(self, seconds: float) -> None:
        time.sleep(seconds)

    def embed(self, text):
        return self.inner.embed(text)


def _catalog(models) -> dict:
    return {m.model_id: m for m in models}


def _load_contexts(boxes, embed, label: str) -> list:
    """The program's own loader: dataset lines to records, one indexed
    context per mailbox."""
    contexts = []
    for box in boxes:
        records = [core.record_from_json(line, box.origin(i))
                   for i, line in enumerate(box.lines)]
        snapshot = core.RecordSnapshot(records)
        index = core.VectorIndex.build(snapshot, embed)
        contexts.append(core.context_create(
            snapshot, f"{label} ({box.name}): {len(records)} messages, one text "
                      f"file each.", index=index))
    return contexts


@dataclass
class Outcome:
    """What a query returned, plus the counts the metrics need."""

    value: object
    scan_records: int = 0
    sequential_calls: int = 0


@dataclass
class State:
    backend: object          # what the program is handed
    mock: MockBackend        # the scripted mock underneath it
    contexts: list
    store: object | None = None
    extra: dict = field(default_factory=dict)


def _ledger_problems(delta, calls: int, label: str) -> list[str]:
    if delta.total_calls != calls:
        return [f"{label}: ledger delta has {delta.total_calls} calls, "
                f"the reports account for {calls}"]
    return []


# --- triage ---------------------------------------------------------------------------

class Triage:
    """``email_triage.pz`` over mailboxes, one distinct mailbox per query
    until the pool wraps around."""

    policy = optimizer.MinCost(quality_floor=0.0)

    def __init__(self, name: str, emails: int, mailboxes: int, sleep_scale: float,
                 limited_every: int = 0):
        self.name = name
        self.emails = emails
        self.mailboxes = mailboxes
        self.sleep_scale = sleep_scale
        self.limited_every = limited_every

    def sizes(self) -> dict:
        return {"mailboxes": self.mailboxes, "emails_per_mailbox": self.emails,
                "queries_per_cycle": len(self.cycle())}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.boxes = inputs.gen_mailboxes(seed, self.mailboxes, self.emails, self.name)
        self.truth = {
            (m, limited): inputs.run_oracle(box, inputs.TRIAGE_OPS,
                                            inputs.TRIAGE_LIMIT if limited else None)
            for m, box in enumerate(self.boxes) for limited in (False, True)}

    def cycle(self) -> list[tuple[int, bool]]:
        """(mailbox, limited) pairs; with ``limited_every`` = k, every k-th
        query is the limited variant.  k = 2 would make the latency
        distribution two equal modes, whose median jumps between them from
        run to run, so triage-io uses k = 3."""
        k = self.limited_every
        if not k:
            return [(m, False) for m in range(self.mailboxes)]
        return [(m, i == k - 1) for m in range(self.mailboxes) for i in range(k)]

    def setup(self, wrap) -> tuple[State, float]:
        mock = MockBackend(MockScript(inputs.op_rules()), _catalog(inputs.TRIAGE_MODELS))
        backend = SleepingBackend(mock, self.sleep_scale) if self.sleep_scale else mock
        backend = wrap(backend)
        started = time.perf_counter()
        contexts = _load_contexts(self.boxes, backend.embed, "Inbox export 'emails'")
        seconds = time.perf_counter() - started
        state = State(backend, mock, contexts)
        state.extra["ids"] = [{r.fields["path"]: r.id for r in ctx.source}
                              for ctx in contexts]
        return state, seconds

    def setup_problems(self, state: State) -> list[str]:
        return []

    def prepare_query(self, state: State, spec) -> None:
        return None

    def run_query(self, state: State, spec, prep) -> Outcome:
        m, limited = spec
        ctx = state.contexts[m]
        text = inputs.TRIAGE_LIMITED_PIPELINE if limited else inputs.TRIAGE_PIPELINE
        plan = lang.parse_pipeline(text)
        chosen, _ = optimizer.optimize(plan, ctx, inputs.TRIAGE_MODELS, self.policy,
                                       0, state.backend)
        out_ctx, report = engine.pipeline_execute(chosen, ctx, state.backend)
        return Outcome((out_ctx, report), scan_records=report.ops[0].records_out,
                       sequential_calls=self.truth[spec].sequential_calls)

    def check(self, state: State, spec, prep, outcome: Outcome, delta) -> list[str]:
        m, limited = spec
        out_ctx, report = outcome.value
        truth = self.truth[spec]
        problems = []
        got = tuple((r.fields.get("path"), r.fields.get("deal")) for r in out_ctx.source)
        if got != truth.outputs:
            problems.append(f"mailbox {m}: returned {len(got)} (path, deal) rows, "
                            f"expected {len(truth.outputs)}, or they differ")
        if not limited:
            if report.total_calls != truth.sequential_calls:
                problems.append(f"mailbox {m}: {report.total_calls} calls on a full "
                                f"scan, corpus text says n + s1 + s2 = "
                                f"{truth.sequential_calls}")
            ids = state.extra["ids"][m]
            parents = [r.lineage.parents[0] if r.lineage else None for r in out_ctx.source]
            if parents != [ids[path] for path, _ in truth.outputs]:
                problems.append(f"mailbox {m}: output lineage is not the relevant ids")
        problems += _ledger_problems(delta, report.total_calls, f"mailbox {m}")
        tokens = sum(op.input_tokens + op.output_tokens for op in report.ops)
        ledger_tokens = sum(t.input_tokens + t.output_tokens for t in delta.per_model)
        if tokens != ledger_tokens or not math.isclose(
                report.total_cost, delta.total_cost, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"mailbox {m}: report tokens or cost differ from the ledger")
        return problems

    def end_cycle(self, state: State) -> list[str]:
        return []

    def finish(self, state: State) -> dict:
        return {"entries": 0, "bytes": 0}


# --- agent session -----------------------------------------------------------------------

class AgentSession:
    """One agent question per query against indexed mailboxes, with a
    pre-seeded context store read before and written after each question."""

    name = "agent-session"
    mailboxes = 4
    emails = 250
    history = 4000
    sample_size = 10
    retrieve_k = 3
    policy = optimizer.MinCost(quality_floor=0.3)

    def sizes(self) -> dict:
        return {"mailboxes": self.mailboxes, "emails_per_mailbox": self.emails,
                "queries_per_cycle": len(self.qs), "store_entries": self.history,
                "sample_size": self.sample_size, "models": len(inputs.SESSION_MODELS)}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.boxes = inputs.gen_mailboxes(seed, self.mailboxes, self.emails, self.name)
        self.qs = inputs.gen_questions(seed, self.mailboxes)
        self.truth = [inputs.run_oracle(self.boxes[q.mailbox], q.ops,
                                        inputs.SESSION_LIMIT) for q in self.qs]
        self.pristine = workdir / "store-seeded"
        self.work = workdir / "store"
        seeded = store_mod.ContextStore(self.pristine, hashing_embed)
        for description, instruction in inputs.gen_history(seed, self.history,
                                                           self.mailboxes):
            seeded.register(core.context_create((), description),
                            instruction=instruction)
        self.seeded_entries = len(seeded)

    def cycle(self) -> list[int]:
        return list(range(len(self.qs)))

    def _restore_store(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.pristine, self.work)

    def setup(self, wrap) -> tuple[State, float]:
        models = (inputs.AGENT_MODEL,) + inputs.SESSION_MODELS
        mock = MockBackend(MockScript([]), _catalog(models))
        backend = wrap(mock)
        self._restore_store()
        started = time.perf_counter()
        contexts = _load_contexts(self.boxes, backend.embed, "Mailbox export")
        store = store_mod.ContextStore(self.work, backend.embed)
        seconds = time.perf_counter() - started
        return State(backend, mock, contexts, store), seconds

    def setup_problems(self, state: State) -> list[str]:
        if len(state.store) != self.seeded_entries:
            return [f"reopened store holds {len(state.store)} entries, "
                    f"{self.seeded_entries} were written"]
        return []

    def prepare_query(self, state: State, i: int) -> dict:
        q, truth = self.qs[i], self.truth[i]
        box = self.boxes[q.mailbox]
        records = list(state.contexts[q.mailbox].source)
        probe = next((r for r in records if r.fields["path"] == truth.outputs[0][0]),
                     records[0]) if truth.outputs else records[0]
        answer = len(truth.outputs) / len(box.texts)
        state.mock.script = MockScript(
            inputs.playback(q, box, truth, probe.id, answer) + inputs.op_rules())
        return {"probe": probe, "answer": answer}

    def run_query(self, state: State, i: int, prep) -> Outcome:
        q = self.qs[i]
        matches = state.store.retrieve(q.text, k=self.retrieve_k)
        ctx = state.store.augment(state.contexts[q.mailbox], matches)
        runtime = agent.AgentRuntime(state.backend, state.store,
                                     models=inputs.SESSION_MODELS, policy=self.policy,
                                     sample_size=self.sample_size)
        result = runtime.compute(ctx, q.text, agent.AgentConfig(model=inputs.AGENT_MODEL))
        reports = runtime.pipeline_reports
        scan = reports[0][1].ops[0].records_out if reports else 0
        return Outcome((result, reports), scan_records=scan,
                       sequential_calls=self.truth[i].sequential_calls)

    def check(self, state: State, i: int, prep, outcome: Outcome, delta) -> list[str]:
        q, truth = self.qs[i], self.truth[i]
        result, reports = outcome.value
        label = f"question {i}"
        problems = []
        if result.answer_value != prep["answer"]:
            problems.append(f"{label}: answer {result.answer_value!r}, "
                            f"expected {prep['answer']!r}")
        steps = result.trace.steps
        tools = [s.action.tool for s in steps if isinstance(s.action, agent.ToolCall)]
        if tools != ["index_search", "run_pipeline", "read_source", "evaluate"]:
            problems.append(f"{label}: tool sequence {tools}")
        for step in steps:
            if step.observation.startswith("error:"):
                problems.append(f"{label}: {step.observation[:120]}")
        if len(steps) == 5:
            text = prep["probe"].fields["text"]
            if steps[2].observation != text[:4000]:
                problems.append(f"{label}: read_source returned other text")
            if steps[3].observation != repr(prep["answer"]):
                problems.append(f"{label}: evaluate gave {steps[3].observation!r}")
        if len(reports) != 1:
            return problems + [f"{label}: {len(reports)} pipeline runs, expected 1"]
        _, report = reports[0]
        out_ctx = state.store.get_context(result.trace.derived_context_ids[0])
        fields = [op.field for op in q.ops if op.kind == "map"]
        got = tuple((r.fields.get("path"), *(r.fields.get(f) for f in fields))
                    for r in (out_ctx.source if out_ctx is not None else ()))
        if got != truth.outputs:
            problems.append(f"{label}: pipeline returned {len(got)} rows, expected "
                            f"{len(truth.outputs)}, or they differ")
        sample_calls = len(q.ops) * len(inputs.SESSION_MODELS) * self.sample_size
        agent_calls = result.trace.usage.calls
        problems += _ledger_problems(delta, sample_calls + report.total_calls
                                     + agent_calls, label)
        if delta.for_model(inputs.AGENT_MODEL.model_id).input_tokens != \
                result.trace.usage.input_tokens:
            problems.append(f"{label}: agent tokens differ from the ledger")
        return problems

    def end_cycle(self, state: State) -> list[str]:
        """Check the store against a fresh reopen, then rewind it to the
        seeded state so the next cycle replays the same prompts."""
        reopened = len(store_mod.ContextStore(self.work, hashing_embed))
        written = len(state.store)
        problems = []
        if reopened != written:
            problems.append(f"reopened store holds {reopened} entries, "
                            f"{written} were written")
        state.store = None  # free the old store before loading the next
        self._restore_store()
        state.store = store_mod.ContextStore(self.work, state.backend.embed)
        return problems

    def finish(self, state: State) -> dict:
        size = sum(p.stat().st_size for p in self.work.iterdir())
        return {"entries": len(state.store), "bytes": size}


WORKLOADS = {
    "triage-cpu": lambda: Triage("triage-cpu", emails=1000, mailboxes=4,
                                 sleep_scale=0.0),
    "triage-io": lambda: Triage("triage-io", emails=300, mailboxes=4,
                                sleep_scale=0.004, limited_every=3),
    "agent-session": AgentSession,
}
