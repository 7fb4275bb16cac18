"""Offline benchmark: scripted strategies over two generated corpora.

Everything here runs against the scripted mock backend, so call counts,
token totals, and costs are exact and reproducible: tokens are
ceil(chars / 4) of the rendered prompt and response, wall time is the
per-model latency prior, and cost is derived from token totals.

Scenario one is an email triage task with a known relevant subset; it
compares an optimized two-filter pipeline against an agent that sweeps
the corpus once per semantic tool call, and against an agent with only
generic tools.  Scenario two is a numeric question over yearly stats
files where one errant draft file makes a map-everything strategy
ambiguous while an agent that pipelines, reads, and computes is not.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

from .agent import AgentConfig, AgentRuntime, AgentTrace
from .backend import (LedgerSnapshot, MockBackend, MockRule, MockScript,
                      ModelSpec, hashing_embed)
from .core import (Record, RecordSnapshot, ToolParam, ToolSpec, VectorIndex,
                   context_create, make_source_record, write_artifacts)
from .engine import RunPolicy, bind_plan, pipeline_execute
from .errors import ConfigurationError
from .lang import Scan, SemFilter, SemMap, make_plan, parse_pipeline
from .optimizer import MinCost, optimize

AGENT_MODEL_ID = "agent-model"
OP_MODEL_IDS = ("op-cheap", "op-strong")

BENCH_CATALOG = {
    "agent-model": ModelSpec("agent-model", 0.002, 0.006, 0.90, 1.0),
    "op-cheap": ModelSpec("op-cheap", 0.0004, 0.0008, 0.80, 0.5),
    "op-strong": ModelSpec("op-strong", 0.002, 0.004, 0.95, 1.0),
}

# --- email triage scenario ----------------------------------------------------

DEAL_NAMES = ("Raptor", "Deathstar", "Chewco")
MARKER_DEAL = "special purpose entity"
MARKER_LOSS = "keep the losses off the books"

EMAIL_TASK = ("Find the emails that discuss concealing financial losses "
              "through a code-named deal.")
EMAIL_CONTEXT = "Inbox export 'emails': {n} messages, one text file each."
PREDICATE_DEAL = "the email mentions a code-named special purpose deal"
PREDICATE_LOSS = "the email discusses hiding or moving financial losses"
MAP_DEAL = "extract the code name of the deal the email discusses"

_SENDERS = ("dana", "miguel", "priya", "jordan", "sam", "ines", "viktor", "lee")
_QUARTERS = ("Q1", "Q2", "Q3", "Q4")
_OPENERS = (
    "Following up on this morning's call.",
    "Quick note before I head into meetings.",
    "Looping everyone in.",
    "As discussed, putting this in writing.",
)
_CLOSERS = (
    "Please keep this to the named recipients.",
    "Happy to walk through details on Friday.",
    "Flag any concerns before end of day.",
    "More once legal has had a look.",
)
_MUNDANE = (
    "The garage on level two is closed next week; badge parking opens at six.",
    "Payroll portal maintenance is scheduled for Saturday night.",
    "The offsite agenda is posted; lunch orders are due Wednesday.",
    "Printer on the fourth floor is out of toner again, ticket filed.",
    "New hire orientation moved to the large conference room.",
    "Quarterly timesheets are due before the holiday, no extensions.",
    "The cafeteria is trialing a late service window this month.",
    "IT will rotate VPN certificates Thursday; expect one re-login.",
    "The wellness fair signup sheet is by the elevators.",
    "Facilities is repainting the stairwells floor by floor.",
)


@dataclass(frozen=True)
class EmailCorpus:
    records: tuple[Record, ...]
    relevant_ids: frozenset[str]
    bait_ids: frozenset[str]


def gen_email_corpus(seed: int = 7, n: int = 250, rho: float = 0.156) -> EmailCorpus:
    """n emails; round(n * rho) of them satisfy both predicates, plus two
    bait emails that contain a deal name in a harmless context."""
    if n < 10:
        raise ConfigurationError("email corpus needs n >= 10")
    rng = random.Random(seed)
    relevant_n = round(n * rho)
    if relevant_n < 1 or relevant_n + 2 > n:
        raise ConfigurationError("rho leaves no room for relevant plus bait emails")
    order = list(range(n))
    rng.shuffle(order)
    relevant_idx = set(order[:relevant_n])
    bait_idx = set(order[relevant_n:relevant_n + 2])

    records = []
    relevant_ids = set()
    bait_ids = set()
    for i in range(n):
        sender = rng.choice(_SENDERS)
        if i in relevant_idx:
            kw = rng.choice(DEAL_NAMES)
            body = (
                f"Subject: Re: {kw} close\n\n"
                f"Team,\n{rng.choice(_OPENERS)}\n"
                f"We need sign-off on the {kw} structure before the "
                f"{rng.choice(_QUARTERS)} close. Treasury wants the "
                f"{MARKER_DEAL} to absorb the writedown so we "
                f"{MARKER_LOSS}.\n"
                f"{rng.choice(_CLOSERS)}\n- {sender}"
            )
        elif i in bait_idx:
            kw = rng.choice(DEAL_NAMES)
            body = (
                f"Subject: {kw} maintenance window\n\n"
                f"Heads up,\nThe {kw} build cluster is being rotated out this "
                f"weekend; expect CI queues to pause overnight.\n- {sender}"
            )
        else:
            body = (
                f"Subject: office notes\n\n"
                f"Hi all,\n{rng.choice(_MUNDANE)}\n"
                f"{rng.choice(_MUNDANE)}\n- {sender}"
            )
        path = f"email-{i:04d}.txt"
        rec = make_source_record({"path": path, "text": body}, origin=f"{path}#0")
        records.append(rec)
        if i in relevant_idx:
            relevant_ids.add(rec.id)
        elif i in bait_idx:
            bait_ids.add(rec.id)
    return EmailCorpus(tuple(records), frozenset(relevant_ids), frozenset(bait_ids))


def build_email_op_rules() -> list[MockRule]:
    """Scripted operator-model behavior for the email corpus.

    The two yes-rules key on marker phrases planted only in relevant
    emails, so bait emails fail the first filter the way a competent
    model reading context would reject them.
    """
    rules = [
        MockRule(match=re.escape(PREDICATE_DEAL) + r"[\s\S]*" + re.escape(MARKER_DEAL),
                 response="yes", kind="regex"),
        MockRule(match=re.escape(PREDICATE_LOSS) + r"[\s\S]*" + re.escape(MARKER_LOSS),
                 response="yes", kind="regex"),
        MockRule(match="PREDICATE:", response="no"),
    ]
    for kw in DEAL_NAMES:
        rules.append(MockRule(match=re.escape(MAP_DEAL) + r"[\s\S]*" + kw,
                              response=f"deal: {kw}", kind="regex"))
    rules.append(MockRule(match=MAP_DEAL, response="deal: none"))
    return rules


def expected_email_call_counts(corpus: EmailCorpus) -> dict[str, int]:
    """Recompute expected semantic-call totals from corpus text alone:
    the pipeline pays one call per input record plus one per survivor of
    the first filter; the sweep agent pays one call per record per tool
    pass (two filters and one map)."""
    n = len(corpus.records)
    s1 = sum(1 for rec in corpus.records if MARKER_DEAL in rec.fields["text"])
    return {
        "prototype-pipeline": n + s1,
        "agent-semantic-tools": 3 * n,
    }


def metrics(returned, truth) -> tuple[float, float, float]:
    """Precision, recall, F1 over id sets; empty denominators score zero."""
    returned = set(returned)
    truth = set(truth)
    tp = len(returned & truth)
    precision = tp / len(returned) if returned else 0.0
    recall = tp / len(truth) if truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1


def _playback(steps) -> list[MockRule]:
    # every agent prompt carries the system preamble; one budgeted rule per step
    return [MockRule(match="AVAILABLE TOOLS", max_calls=1,
                     response="```json\n" + json.dumps(doc, ensure_ascii=False) + "\n```")
            for doc in steps]


def _op_models() -> list[ModelSpec]:
    return [BENCH_CATALOG[mid] for mid in OP_MODEL_IDS]


@dataclass
class StrategyOutcome:
    name: str
    approach: str
    semantic_calls: int
    agent_calls: int
    total_cost: float
    total_wall_seconds: float
    answer_text: str
    returned_ids: tuple[str, ...] | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    ratios: tuple[float, ...] | None = None
    trace: AgentTrace | None = None
    ledger: LedgerSnapshot | None = None

    def to_dict(self) -> dict:
        doc: dict = {
            "name": self.name,
            "approach": self.approach,
            "semantic_calls": self.semantic_calls,
            "agent_calls": self.agent_calls,
            "total_cost": self.total_cost,
            "total_wall_seconds": self.total_wall_seconds,
            "answer_text": self.answer_text,
        }
        if self.returned_ids is not None:
            doc["returned_ids"] = list(self.returned_ids)
            doc["precision"] = self.precision
            doc["recall"] = self.recall
            doc["f1"] = self.f1
        if self.ratios is not None:
            doc["ratios"] = list(self.ratios)
        return doc


def _context(records, description: str, tools=()):
    """A context over ``records``, indexed with ``hashing_embed`` (what every
    mock embeds with); ``{n}`` in ``description`` becomes their count."""
    return context_create(RecordSnapshot(records), description.format(n=len(records)),
                          index=VectorIndex.build(records, hashing_embed), tools=tools)


def _outcome(name, approach, backend, answer_text, **extra) -> StrategyOutcome:
    snap = backend.ledger.snapshot()
    return StrategyOutcome(
        name=name, approach=approach,
        semantic_calls=sum(snap.for_model(mid).calls for mid in OP_MODEL_IDS),
        agent_calls=snap.for_model(AGENT_MODEL_ID).calls,
        total_cost=snap.total_cost,
        total_wall_seconds=snap.total_wall_seconds,
        answer_text=answer_text, ledger=snap, **extra)


def _pipeline(rules, ctx, text: str):
    """Run pipeline ``text`` over ``ctx`` on a mock scripted with ``rules``,
    planned on priors over the operator models at least cost; returns the
    backend, the output context and the execution report."""
    backend = MockBackend(MockScript(rules), BENCH_CATALOG)
    chosen, _ = optimize(parse_pipeline(text), ctx, _op_models(),
                         MinCost(quality_floor=0.0), 0, backend)
    return (backend, *pipeline_execute(chosen, ctx, backend))


def _agent(name, approach, steps, rules, ctx, task, read, **runtime) -> StrategyOutcome:
    """Run the agent model on ``task`` over ``ctx``: the mock plays ``steps``
    back ahead of ``rules``, ``runtime`` configures the ``AgentRuntime``, and
    ``read(final)`` gives the outcome's answer fields from the final answer."""
    backend = MockBackend(MockScript(_playback(steps) + rules), BENCH_CATALOG)
    trace = AgentRuntime(backend, **runtime).run(
        task, ctx, AgentConfig(model=BENCH_CATALOG[AGENT_MODEL_ID]))
    final = trace.final_answer()
    return _outcome(name, approach, backend, final.text if final else "(no answer)",
                    trace=trace, **read(final))


def _read_ids(final) -> dict:
    return {"returned_ids": tuple(final.value)
            if final and isinstance(final.value, list) else ()}


def run_email_prototype(corpus: EmailCorpus) -> StrategyOutcome:
    """Optimized pipeline: filter on the deal predicate, then on the loss
    predicate.  The second filter only sees first-filter survivors."""
    backend, out_ctx, report = _pipeline(
        build_email_op_rules(), _context(corpus.records, EMAIL_CONTEXT),
        f'scan(emails) | sem_filter("{PREDICATE_DEAL}") '
        f'| sem_filter("{PREDICATE_LOSS}")')
    returned = tuple(rec.id for rec in out_ctx.source)
    return _outcome(
        "prototype-pipeline", "optimized sem_filter x2 pipeline", backend,
        f"{len(returned)} emails matched both predicates "
        f"(plan {report.plan_id}).",
        returned_ids=returned)


def _sweep(env, op) -> RecordSnapshot:
    """The output records of a one-operator plan, ``op`` over the whole
    context on the first model, aborting at the first unparseable reply."""
    pplan = bind_plan(make_plan([Scan("ctx"), op]), {1: env.models[0]})
    out_ctx, _ = pipeline_execute(pplan, env.ctx, env.backend,
                                  policy=RunPolicy(on_error="abort"))
    return out_ctx.source


def _tool_filter_all(env, args) -> str:
    matched = [rec.id for rec in _sweep(env, SemFilter(str(args["predicate"])))]
    return (f"{len(matched)} of {len(env.ctx.source)} records matched\n"
            + "\n".join(matched))


def _tool_map_all(env, args) -> str:
    out = _sweep(env, SemMap(str(args["instruction"]), (("deal", "text"),)))
    return "\n".join(f"{rec.lineage.parents[0]}\t{rec.fields['deal']}" for rec in out)


_SWEEP_TOOLS = (
    ToolSpec(name="filter_all",
             description="Run a semantic filter over every record; returns matching ids.",
             params=(ToolParam("predicate"),), handler=_tool_filter_all),
    ToolSpec(name="map_all",
             description="Run a semantic extraction over every record.",
             params=(ToolParam("instruction"),), handler=_tool_map_all),
)


def run_email_agent_semantic(corpus: EmailCorpus) -> StrategyOutcome:
    """Agent armed with whole-corpus semantic tools but no pipeline: each
    tool call pays one model call per record, so three passes cost 3n."""
    answer_ids = sorted(corpus.relevant_ids)
    steps = [
        {"thought": "filter every email for code-named deal mentions",
         "tool": "filter_all", "args": {"predicate": PREDICATE_DEAL}},
        {"thought": "filter every email for hidden-loss language",
         "tool": "filter_all", "args": {"predicate": PREDICATE_LOSS}},
        {"thought": "extract the deal name from every email",
         "tool": "map_all", "args": {"instruction": MAP_DEAL}},
        {"thought": "intersect the two filter passes and report",
         "final_answer": {
             "text": f"{len(answer_ids)} emails discuss concealing losses "
                     f"via a code-named deal.",
             "value": answer_ids}},
    ]
    return _agent(
        "agent-semantic-tools", "agent sweeping the corpus per semantic tool call",
        steps, build_email_op_rules(),
        _context(corpus.records, EMAIL_CONTEXT, tools=_SWEEP_TOOLS),
        EMAIL_TASK, _read_ids, models=(BENCH_CATALOG["op-strong"],))


def run_email_agent_basic(corpus: EmailCorpus) -> StrategyOutcome:
    """Agent with only generic tools: keyword-flavored index search plus a
    spot check.  It catches part of the relevant set and is baited by the
    harmless deal-name emails."""
    guesses = sorted(sorted(corpus.relevant_ids)[:18] + sorted(corpus.bait_ids))
    probe = sorted(corpus.bait_ids)[0]
    steps = [
        {"thought": "search the index for deal and loss language",
         "tool": "index_search",
         "args": {"query": "code-named deal hide losses special purpose", "k": 20}},
        {"thought": "spot-check one candidate email",
         "tool": "read_source", "args": {"id": probe}},
        {"thought": "report the candidates that look like deal traffic",
         "final_answer": {
             "text": f"{len(guesses)} emails appear to discuss code-named deals.",
             "value": guesses}},
    ]
    return _agent("agent-basic", "agent with generic tools only", steps, [],
                  _context(corpus.records, EMAIL_CONTEXT), EMAIL_TASK, _read_ids)


# --- filings growth ratio scenario ---------------------------------------------

RATIO_TASK = ("By what factor did the yearly paper filings count grow "
              "from 2001 to 2024?")
PREDICATE_OFFICIAL = "the file is the official annual summary for 2001 or 2024"
MAP_STATS = "extract the calendar year and the total filings count"
STATS_CONTEXT = "Records-office statistics 'stats': {n} yearly summary files."

OFFICIAL_2001 = 86250
OFFICIAL_2024 = 1135291
ERRANT_2001 = 97825

_STATS_NOTES = (
    "Counts reconciled against the registry ledger.",
    "Figures exclude voided and duplicate submissions.",
    "Archive boxes were audited in the spring cycle.",
    "Totals certified by the records office.",
    "Microfilm conversions are tracked separately.",
)


@dataclass(frozen=True)
class StatsCorpus:
    records: tuple[Record, ...]
    id_2001: str
    id_2024: str
    errant_id: str
    values: dict = field(default_factory=dict)


def gen_stats_corpus(seed: int = 7) -> StatsCorpus:
    """39 official yearly summaries (1986-2024) plus one errant draft that
    restates 2001 with a different count."""
    rng = random.Random(seed)
    used = {OFFICIAL_2001, OFFICIAL_2024, ERRANT_2001}
    records = []
    values: dict[str, int] = {}
    id_2001 = id_2024 = ""
    for year in range(1986, 2025):
        if year == 2001:
            value = OFFICIAL_2001
        elif year == 2024:
            value = OFFICIAL_2024
        else:
            value = rng.randrange(40_000, 1_500_000)
            while value in used:
                value = rng.randrange(40_000, 1_500_000)
            used.add(value)
        text = (
            "OFFICIAL ANNUAL SUMMARY\n"
            f"Year: {year}\n"
            f"Paper records filed in {year}: {value}\n"
            f"{rng.choice(_STATS_NOTES)}"
        )
        path = f"stats-{year}.txt"
        rec = make_source_record({"path": path, "text": text}, origin=f"{path}#0")
        records.append(rec)
        values[str(year)] = value
        if year == 2001:
            id_2001 = rec.id
        elif year == 2024:
            id_2024 = rec.id
    errant_text = (
        "DRAFT tally (unverified, do not cite)\n"
        "Year: 2001\n"
        f"Paper records filed in 2001: {ERRANT_2001}\n"
        "Working copy kept for the intake team."
    )
    errant = make_source_record({"path": "stats-2001-draft.txt", "text": errant_text},
                                origin="stats-2001-draft.txt#0")
    records.append(errant)
    return StatsCorpus(tuple(records), id_2001, id_2024, errant.id, values)


def build_stats_op_rules(corpus: StatsCorpus) -> list[MockRule]:
    rules = [
        MockRule(match=re.escape(PREDICATE_OFFICIAL)
                 + r"[\s\S]*OFFICIAL ANNUAL SUMMARY[\s\S]*Year: (2001|2024)\n",
                 response="yes", kind="regex"),
        MockRule(match="PREDICATE:", response="no"),
    ]
    # one extraction rule per file, keyed on its unique count line
    for rec in corpus.records:
        text = rec.fields["text"]
        line = next(ln for ln in text.splitlines() if ln.startswith("Paper records"))
        year = line.split("filed in ")[1].split(":")[0]
        value = line.rsplit(": ", 1)[1]
        rules.append(MockRule(match=f"filed in {year}: {value}",
                              response=f"year: {year}\ncount: {value}"))
    return rules


def _read_ratio(final) -> dict:
    return {"ratios": (float(final.value),)
            if final and isinstance(final.value, (int, float)) else ()}


def run_ratio_agent_compute(corpus: StatsCorpus) -> StrategyOutcome:
    """Agent that narrows with a filter pipeline, reads both survivors,
    and computes the ratio with the arithmetic tool."""
    ratio = OFFICIAL_2024 / OFFICIAL_2001
    steps = [
        {"thought": "narrow 40 files to the two official summaries I need",
         "tool": "run_pipeline",
         "args": {"pipeline": f'scan(stats) | sem_filter("{PREDICATE_OFFICIAL}")'}},
        {"thought": "read the 2001 summary", "tool": "read_source",
         "args": {"id": corpus.id_2001}},
        {"thought": "read the 2024 summary", "tool": "read_source",
         "args": {"id": corpus.id_2024}},
        {"thought": "compute the growth factor", "tool": "evaluate",
         "args": {"expression": f"{OFFICIAL_2024} / {OFFICIAL_2001}"}},
        {"thought": "the draft tally was filtered out, so one ratio remains",
         "final_answer": {
             "text": f"Filings grew by a factor of {ratio} from 2001 to 2024.",
             "value": ratio}},
    ]
    ctx = _context(corpus.records, STATS_CONTEXT)
    return _agent("agent-compute", "agent pipelining, reading, then computing",
                  steps, build_stats_op_rules(corpus), ctx, RATIO_TASK, _read_ratio,
                  models=_op_models(), refs={"stats": ctx})


def run_ratio_semantic_only(corpus: StatsCorpus) -> StrategyOutcome:
    """Extraction over every file with no agent step afterwards: the errant
    draft contributes a second 2001 count, leaving two candidate ratios."""
    backend, out_ctx, _ = _pipeline(
        build_stats_op_rules(corpus), _context(corpus.records, STATS_CONTEXT),
        f'scan(stats) | sem_map("{MAP_STATS}", {{year: text, count: number}})')
    counts: dict[str, set[float]] = {}
    for rec in out_ctx.source:
        counts.setdefault(str(rec.fields["year"]), set()).add(
            float(rec.fields["count"]))
    ratios = tuple(sorted(
        late / early
        for early in counts.get("2001", set())
        for late in counts.get("2024", set())))
    text = (f"ambiguous: {len(ratios)} candidate ratios "
            f"({', '.join(repr(r) for r in ratios)})"
            if len(ratios) != 1 else f"ratio {ratios[0]!r}")
    return _outcome(
        "semantic-ops-only", "extraction over every file, no follow-up reasoning",
        backend, text, ratios=ratios)


# --- harness ---------------------------------------------------------------------

@dataclass
class ScenarioResult:
    name: str
    detail: str
    strategies: list[StrategyOutcome]

    def to_dict(self) -> dict:
        return {"name": self.name, "detail": self.detail,
                "strategies": [s.to_dict() for s in self.strategies]}


@dataclass
class BenchSummary:
    seed: int
    n: int
    rho: float
    email: ScenarioResult
    ratio: ScenarioResult
    call_saving: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "rho": self.rho,
            "accounting": "mock-deterministic: tokens=ceil(chars/4), wall=model "
                          "latency priors, cost from token totals",
            "call_saving": self.call_saving,
            "scenarios": [self.email.to_dict(), self.ratio.to_dict()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render_text(self) -> str:
        lines = [
            f"benchmark seed={self.seed} n={self.n} rho={self.rho} "
            f"(deterministic mock accounting)",
            "",
            f"scenario: {self.email.name} ({self.email.detail})",
            f"{'strategy':<22} {'sem_calls':>9} {'agent':>6} {'cost':>10} "
            f"{'precision':>9} {'recall':>7} {'f1':>7}",
        ]
        for s in self.email.strategies:
            lines.append(
                f"{s.name:<22} {s.semantic_calls:>9} {s.agent_calls:>6} "
                f"{s.total_cost:>10.6f} {s.precision:>9.4f} {s.recall:>7.4f} "
                f"{s.f1:>7.4f}")
        lines.append(f"semantic-call saving, pipeline vs sweep agent: "
                     f"{self.call_saving:.2%}")
        lines.append("")
        lines.append(f"scenario: {self.ratio.name} ({self.ratio.detail})")
        lines.append(f"{'strategy':<22} {'sem_calls':>9} {'agent':>6} "
                     f"{'cost':>10}  ratios")
        for s in self.ratio.strategies:
            shown = ", ".join(repr(r) for r in (s.ratios or ()))
            lines.append(
                f"{s.name:<22} {s.semantic_calls:>9} {s.agent_calls:>6} "
                f"{s.total_cost:>10.6f}  {shown}")
        return "\n".join(lines)


def run_experiment(scenario: str, seed: int = 7, n: int = 250,
                   rho: float = 0.156) -> ScenarioResult:
    """Run one scenario end to end under the deterministic mock backend."""
    if scenario == "email":
        corpus = gen_email_corpus(seed, n, rho)
        strategies = [
            run_email_prototype(corpus),
            run_email_agent_semantic(corpus),
            run_email_agent_basic(corpus),
        ]
        for outcome in strategies:
            p, r, f1 = metrics(outcome.returned_ids or (), corpus.relevant_ids)
            outcome.precision, outcome.recall, outcome.f1 = p, r, f1
        return ScenarioResult(
            "email triage",
            f"{len(corpus.relevant_ids)} relevant of {len(corpus.records)}",
            strategies)
    if scenario == "ratio":
        corpus = gen_stats_corpus(seed)
        return ScenarioResult(
            "filings growth ratio",
            f"{len(corpus.records)} files, one errant draft",
            [run_ratio_agent_compute(corpus), run_ratio_semantic_only(corpus)])
    raise ConfigurationError(f"unknown scenario {scenario!r}")


def run_bench(seed: int = 7, n: int = 250, rho: float = 0.156,
              out_dir=None) -> BenchSummary:
    """Run both scenarios and, optionally, persist deterministic artifacts."""
    email = run_experiment("email", seed, n, rho)
    ratio = run_experiment("ratio", seed, n, rho)
    pipeline_calls = email.strategies[0].semantic_calls
    sweep_calls = email.strategies[1].semantic_calls
    saving = 1.0 - pipeline_calls / sweep_calls if sweep_calls else 0.0
    summary = BenchSummary(seed=seed, n=n, rho=rho, email=email, ratio=ratio,
                           call_saving=saving)
    if out_dir is not None:
        texts = {"results.json": summary.to_json()}
        for scenario in (email, ratio):
            for outcome in scenario.strategies:
                texts[f"ledger-{outcome.name}.json"] = outcome.ledger.to_json()
                if outcome.trace is not None:
                    texts[f"trace-{outcome.name}.json"] = outcome.trace.to_json()
        write_artifacts(out_dir, texts)
    return summary
