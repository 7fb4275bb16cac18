"""Record-at-a-time pipeline execution with per-record model calls.

Operators are chained as generators, so a record flows through the whole
chain before the next one is pulled: a downstream operator only ever sees
records that passed everything above it, and ``limit`` stops upstream
consumption as soon as it has emitted enough.  Semantic operators fan out
over one worker pool per run, each keeping at most ``pool_width`` calls in
flight and yielding in input order.  A run waits for every call it submitted
before it returns or raises, so its report totals equal the ledger delta
even after a ``limit`` cut-off.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import re
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .backend import ChatMessage, ModelSpec, Usage, call_cost
from .core import (Context, FieldValue, Record, context_derive, context_iterate,
                   make_derived_record, record_to_json)
from .errors import OperatorError, RunAbortedError, ValidationError
from .lang import (Compute, Limit, LogicalOp, LogicalPlan, Project, Scan, Search,
                   SemFilter, SemMap, is_agentic, is_semantic, print_pipeline)

logger = logging.getLogger(__name__)

DEFAULT_FIELD_CHAR_CAP = 4000


@dataclass(frozen=True)
class PhysicalOp:
    """A logical operator bound to a model."""

    logical: LogicalOp
    model: ModelSpec | None = None
    retry_budget: int = 1

    def __post_init__(self):
        if is_semantic(self.logical) and self.model is None:
            raise ValidationError(
                f"semantic operator {type(self.logical).__name__} needs a model")
        if not is_semantic(self.logical) and self.model is not None:
            raise ValidationError(
                f"{type(self.logical).__name__} does not take a model")
        if self.retry_budget < 0:
            raise ValidationError("retry budget must be >= 0")


@dataclass(frozen=True)
class PhysicalPlan:
    logical: LogicalPlan
    ops: tuple[PhysicalOp, ...]
    plan_id: str

    def model_assignment(self) -> dict[int, str]:
        return {i: op.model.model_id for i, op in enumerate(self.ops)
                if op.model is not None}


def bind_plan(plan: LogicalPlan, models: dict[int, ModelSpec],
              retry_budget: int = 1) -> PhysicalPlan:
    """Bind each semantic operator position in ``plan`` to a model."""
    ops = []
    for i, op in enumerate(plan.ops):
        spec = models.get(i) if is_semantic(op) else None
        if is_semantic(op) and spec is None:
            raise ValidationError(f"no model bound for semantic op at {i}")
        ops.append(PhysicalOp(logical=op, model=spec, retry_budget=retry_budget))
    binding = ",".join(f"{i}={op.model.model_id}" for i, op in enumerate(ops)
                       if op.model is not None)
    plan_id = "pp-" + hashlib.sha256(
        (plan.plan_id + "|" + binding).encode("utf-8")).hexdigest()[:12]
    return PhysicalPlan(logical=plan, ops=tuple(ops), plan_id=plan_id)


@dataclass(frozen=True)
class RunPolicy:
    """Failure handling and parallelism knobs for one pipeline run.

    ``pool_width`` bounds the in-flight model calls of each semantic
    operator separately.  A run shares one executor among its k sem_filter
    and sem_map stages, so up to k * ``pool_width`` calls are in flight at
    once; with ``pool_width == 1`` every call runs inline.
    """

    on_error: str = "drop"  # drop | abort
    failure_budget: float = 0.05  # allowed failures as a fraction of input
    pool_width: int = 8

    def __post_init__(self):
        if self.on_error not in ("drop", "abort"):
            raise ValidationError("on_error must be 'drop' or 'abort'")
        if not (0.0 <= self.failure_budget <= 1.0):
            raise ValidationError("failure_budget must be in [0, 1]")
        if self.pool_width < 1:
            raise ValidationError("pool_width must be >= 1")


# --- prompts -------------------------------------------------------------------

def _render_fields(record: Record, cap: int) -> str:
    lines = []
    for name, value in record.fields.items():
        text = value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)
        if len(text) > cap:
            text = text[:cap] + "..."
        lines.append(f"{name}: {text}")
    return "\n".join(lines)


def render_filter_prompt(record: Record, predicate: str,
                         cap: int = DEFAULT_FIELD_CHAR_CAP) -> list[ChatMessage]:
    body = (
        "Decide whether the record satisfies the predicate.\n"
        f"PREDICATE: {predicate}\n"
        f"RECORD {record.id}:\n"
        f"{_render_fields(record, cap)}\n"
        'Answer with exactly "yes" or "no".'
    )
    return [
        ChatMessage("system", "You evaluate one data record against a predicate."),
        ChatMessage("user", body),
    ]


def render_map_prompt(record: Record, instruction: str,
                      output_fields: Sequence[tuple[str, str]],
                      cap: int = DEFAULT_FIELD_CHAR_CAP) -> list[ChatMessage]:
    wanted = "\n".join(f"- {name} ({ftype})" for name, ftype in output_fields)
    body = (
        "Derive the requested fields from the record.\n"
        f"INSTRUCTION: {instruction}\n"
        f"RECORD {record.id}:\n"
        f"{_render_fields(record, cap)}\n"
        f"OUTPUT FIELDS:\n{wanted}\n"
        "Reply with one 'name: value' line per output field, or a single JSON object."
    )
    return [
        ChatMessage("system", "You extract structured fields from one data record."),
        ChatMessage("user", body),
    ]


_REASK_FILTER = ChatMessage(
    "user", 'Your reply was not a clear verdict. Answer with exactly "yes" or "no".')
_REASK_MAP = ChatMessage(
    "user", "Your reply was missing fields or malformed. Reply with exactly one "
            "'name: value' line per requested field.")


# --- response parsing --------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z]+")
_KV_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*?)\s*$")


def parse_filter_response(text: str) -> bool | None:
    """First alphabetic token, lowercased, must be yes or no; else None."""
    match = _WORD_RE.search(text)
    if match is None:
        return None
    word = match.group(0).lower()
    if word == "yes":
        return True
    if word == "no":
        return False
    return None


def _coerce_value(raw, ftype: str) -> FieldValue:
    if ftype == "text":
        return raw if isinstance(raw, str) else json.dumps(raw, ensure_ascii=False)
    if ftype == "number":
        if isinstance(raw, bool):
            raise ValueError("boolean is not a number")
        if isinstance(raw, (int, float)):
            return float(raw)
        return float(str(raw).strip())
    if ftype == "boolean":
        if isinstance(raw, bool):
            return raw
        word = str(raw).strip().lower()
        if word in ("true", "yes"):
            return True
        if word in ("false", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if ftype == "list":
        if isinstance(raw, list):
            return raw
        text = str(raw).strip()
        if text.startswith("["):
            parsed = json.loads(text)
            if not isinstance(parsed, list):
                raise ValueError("expected a JSON array")
            return parsed
        return [part.strip() for part in text.split(",") if part.strip()]
    raise ValueError(f"unknown field type {ftype!r}")


def parse_map_response(text: str,
                       output_fields: Sequence[tuple[str, str]]) -> dict | None:
    """Parse a map response into the declared fields, or None if unusable.

    Precedence: a response whose first non-space character opens a JSON
    object is parsed as JSON; anything else is scanned as 'name: value'
    lines.  Every declared field must be present and coercible.
    """
    stripped = text.strip()
    raw: dict = {}
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
            if isinstance(doc, dict):
                raw = doc
        except json.JSONDecodeError:
            raw = {}
    if not raw:
        for line in text.splitlines():
            match = _KV_RE.match(line)
            if match and match.group(1) not in raw:
                raw[match.group(1)] = match.group(2)
    out: dict = {}
    for name, ftype in output_fields:
        if name not in raw:
            return None
        try:
            out[name] = _coerce_value(raw[name], ftype)
        except (ValueError, json.JSONDecodeError):
            return None
    return out


# --- single-record operator execution ----------------------------------------

def _ask(backend, model: ModelSpec, messages: list[ChatMessage],
         parse: Callable[[str], object], reask_msg: ChatMessage,
         retry_budget: int) -> tuple[object, Usage, int, str]:
    """Chat until ``parse`` returns a value other than None, re-asking with
    ``reask_msg`` up to ``retry_budget`` times.

    Returns (parsed value or None, summed usage, calls made, last reply).
    """
    in_toks = out_toks = 0
    for calls in range(1, retry_budget + 2):
        exchange = backend.chat(model.model_id, messages, temperature=0.0)
        in_toks += exchange.usage.input_tokens
        out_toks += exchange.usage.output_tokens
        parsed = parse(exchange.response)
        if parsed is not None:
            break
        messages = messages + [ChatMessage("assistant", exchange.response), reask_msg]
    return parsed, Usage(in_toks, out_toks), calls, exchange.response


def sem_filter_execute(backend, model: ModelSpec, record: Record, predicate: str,
                       *, retry_budget: int = 1) -> tuple[bool, Usage, int]:
    """Ask the model whether ``record`` satisfies ``predicate``.

    Returns (verdict, summed usage, calls made).  An unparseable response is
    re-asked up to ``retry_budget`` times before raising
    :class:`OperatorError`.
    """
    verdict, usage, calls, last = _ask(
        backend, model, render_filter_prompt(record, predicate),
        parse_filter_response, _REASK_FILTER, retry_budget)
    if verdict is None:
        raise OperatorError(
            f"filter response unparseable after {calls} attempt(s) on record {record.id}",
            raw_response=last, input_tokens=usage.input_tokens,
            output_tokens=usage.output_tokens, calls=calls)
    return verdict, usage, calls


def sem_map_execute(backend, model: ModelSpec, record: Record, instruction: str,
                    output_fields: Sequence[tuple[str, str]], operator_id: str,
                    *, retry_budget: int = 1) -> tuple[Record, Usage, int]:
    """Derive new fields for ``record``; returns (merged record, usage, calls).

    Input fields are preserved; output fields are added (overwriting on name
    collision).  The merged record gets a fresh lineage-bearing id.
    """
    outputs, usage, calls, last = _ask(
        backend, model, render_map_prompt(record, instruction, output_fields),
        lambda text: parse_map_response(text, output_fields), _REASK_MAP,
        retry_budget)
    if outputs is None:
        raise OperatorError(
            f"map response missing fields after {calls} attempt(s) on record {record.id}",
            raw_response=last, input_tokens=usage.input_tokens,
            output_tokens=usage.output_tokens, calls=calls)
    merged = make_derived_record({**record.fields, **outputs}, [record.id], operator_id)
    return merged, usage, calls


# --- reports ------------------------------------------------------------------

@dataclass
class OpReport:
    index: int
    kind: str
    detail: str
    model_id: str | None = None
    records_in: int = 0
    records_out: int = 0
    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost: float = 0.0
    wall_seconds: float = 0.0
    failures: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index, "kind": self.kind, "detail": self.detail,
            "model_id": self.model_id, "records_in": self.records_in,
            "records_out": self.records_out, "calls": self.calls,
            "input_tokens": self.input_tokens, "output_tokens": self.output_tokens,
            "cost": self.cost, "wall_seconds": self.wall_seconds,
            "failures": self.failures,
        }


@dataclass
class ExecutionReport:
    plan_id: str
    pipeline_text: str
    context_id: str
    ops: list[OpReport] = field(default_factory=list)
    answer_text: str | None = None
    answer_value: FieldValue | None = None

    @property
    def records_in(self) -> int:
        return self.ops[0].records_in if self.ops else 0

    @property
    def records_out(self) -> int:
        return self.ops[-1].records_out if self.ops else 0

    @property
    def total_calls(self) -> int:
        return sum(op.calls for op in self.ops)

    @property
    def total_cost(self) -> float:
        return sum(op.cost for op in self.ops)

    @property
    def total_wall_seconds(self) -> float:
        return sum(op.wall_seconds for op in self.ops)

    @property
    def total_failures(self) -> int:
        return sum(op.failures for op in self.ops)

    def semantic_calls(self) -> int:
        return sum(op.calls for op in self.ops
                   if op.kind in ("sem_filter", "sem_map", "compute", "search"))

    def to_dict(self) -> dict:
        return {
            "plan_id": self.plan_id,
            "pipeline": self.pipeline_text,
            "context_id": self.context_id,
            "ops": [op.to_dict() for op in self.ops],
            "records_in": self.records_in,
            "records_out": self.records_out,
            "total_calls": self.total_calls,
            "total_cost": self.total_cost,
            "total_wall_seconds": self.total_wall_seconds,
            "total_failures": self.total_failures,
            "answer_text": self.answer_text,
            "answer_value": self.answer_value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render_text(self) -> str:
        lines = [
            f"plan {self.plan_id}: {self.pipeline_text}",
            f"{'#':>2} {'operator':<12} {'model':<14} {'in':>6} {'out':>6} "
            f"{'calls':>6} {'cost':>10} {'wall_s':>8}",
        ]
        for op in self.ops:
            lines.append(
                f"{op.index:>2} {op.kind:<12} {op.model_id or '-':<14} "
                f"{op.records_in:>6} {op.records_out:>6} {op.calls:>6} "
                f"{op.cost:>10.6f} {op.wall_seconds:>8.2f}")
        lines.append(
            f"   total: {self.total_calls} calls, cost {self.total_cost:.6f}, "
            f"wall {self.total_wall_seconds:.2f}s, {self.records_in} -> "
            f"{self.records_out} records, {self.total_failures} failure(s)")
        if self.answer_text is not None:
            lines.append(f"   answer: {self.answer_text}")
        return "\n".join(lines)


# --- pipeline execution --------------------------------------------------------

@dataclass
class AgentStageResult:
    """What an injected agent runner returns for a compute/search operator."""

    context: Context
    answer_text: str | None
    answer_value: FieldValue | None
    calls: int
    usage: Usage
    wall_seconds: float


# runner(kind, instruction, ctx, model) -> AgentStageResult
AgentRunner = Callable[[str, str, Context, ModelSpec], AgentStageResult]


class _FailureTracker:
    def __init__(self, policy: RunPolicy, input_size: int):
        self.policy = policy
        self.allowed = math.ceil(policy.failure_budget * input_size)
        self.count = 0

    def register(self, error: OperatorError) -> None:
        if self.policy.on_error == "abort":
            raise error
        self.count += 1
        logger.warning("dropped record after operator failure: %s", error)
        if self.count > self.allowed:
            raise RunAbortedError(
                f"failure budget exceeded: {self.count} failures > "
                f"{self.allowed} allowed") from error


def _ordered_pool_map(fn, items: Iterator, width: int,
                      pool: ThreadPoolExecutor | None) -> Iterator:
    """Apply ``fn`` over ``items`` with at most ``width`` in flight on
    ``pool``, yielding results in input order; inline when ``pool`` is None.
    Upstream pulls happen in the caller's thread."""
    if pool is None:
        yield from map(fn, items)
        return
    pending = deque(pool.submit(fn, item) for item in itertools.islice(items, width))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(fn, item) for item in itertools.islice(items, 1))
        yield result


def _semantic_stage(upstream: Iterator[Record], pop: PhysicalOp, row: OpReport,
                    backend, policy: RunPolicy, failures: _FailureTracker,
                    operator_id: str, pool: ThreadPoolExecutor | None
                    ) -> Iterator[Record]:
    op = pop.logical
    lock = threading.Lock()

    def work(record: Record):
        # (output record or None when a filter rejects, error); usage is
        # added to ``row`` here, where the call completes
        out, error = None, None
        try:
            if isinstance(op, SemFilter):
                verdict, usage, calls = sem_filter_execute(
                    backend, pop.model, record, op.predicate,
                    retry_budget=pop.retry_budget)
                out = record if verdict else None
            else:
                out, usage, calls = sem_map_execute(
                    backend, pop.model, record, op.instruction, op.output_fields,
                    operator_id, retry_budget=pop.retry_budget)
        except OperatorError as exc:
            usage, calls, error = (Usage(exc.input_tokens, exc.output_tokens),
                                   exc.calls, exc)
        with lock:
            row.records_in += 1
            row.calls += calls
            row.input_tokens += usage.input_tokens
            row.output_tokens += usage.output_tokens
            if error is not None:
                row.failures += 1
        return out, error

    for out, error in _ordered_pool_map(work, upstream, policy.pool_width, pool):
        if error is not None:
            failures.register(error)
        elif out is not None:
            row.records_out += 1
            yield out


def _project_stage(upstream: Iterator[Record], op: Project, row: OpReport,
                   operator_id: str) -> Iterator[Record]:
    for record in upstream:
        row.records_in += 1
        fields = {name: record.fields[name] for name in op.fields
                  if name in record.fields}
        row.records_out += 1
        yield make_derived_record(fields, [record.id], operator_id)


def _limit_stage(upstream: Iterator[Record], op: Limit, row: OpReport) -> Iterator[Record]:
    for record in upstream:
        row.records_in += 1
        row.records_out += 1
        yield record
        if row.records_out >= op.count:
            return


def _scan_stage(ctx: Context, row: OpReport) -> Iterator[Record]:
    for record in context_iterate(ctx):
        row.records_in += 1
        row.records_out += 1
        yield record


def pipeline_execute(pplan: PhysicalPlan, ctx: Context, backend,
                     policy: RunPolicy | None = None,
                     agent_runner: AgentRunner | None = None
                     ) -> tuple[Context, ExecutionReport]:
    """Run a bound plan over ``ctx``.

    Returns the derived output context and a per-operator report whose cost
    totals agree with the backend ledger delta for the run.  Agentic
    operators (compute/search) require an injected ``agent_runner``.
    """
    policy = policy or RunPolicy()
    canonical = print_pipeline(pplan.logical)
    rows: list[OpReport] = []
    failures = _FailureTracker(policy, len(ctx.source))
    report = ExecutionReport(plan_id=pplan.plan_id, pipeline_text=canonical,
                             context_id="")

    scan_op: Scan = pplan.ops[0].logical  # type: ignore[assignment]
    scan_row = OpReport(index=0, kind="scan", detail=scan_op.context_ref)
    rows.append(scan_row)
    stream: Iterator[Record] = _scan_stage(ctx, scan_row)
    stage_ctx = ctx

    n_semantic = sum(isinstance(pop.logical, (SemFilter, SemMap)) for pop in pplan.ops)
    width = policy.pool_width
    executor = (ThreadPoolExecutor(max_workers=width * n_semantic)
                if width > 1 and n_semantic else nullcontext())
    # leaving the block waits for every submitted call, on return and on
    # raise, so a limit cut-off or an abort leaves no call unaccounted
    with executor as pool:
        for i, pop in enumerate(pplan.ops[1:], start=1):
            op = pop.logical
            operator_id = f"{pplan.plan_id}#op{i}"
            if isinstance(op, (SemFilter, SemMap)):
                is_filter = isinstance(op, SemFilter)
                row = OpReport(index=i, kind="sem_filter" if is_filter else "sem_map",
                               detail=op.predicate if is_filter else op.instruction,
                               model_id=pop.model.model_id)
                stream = _semantic_stage(stream, pop, row, backend, policy, failures,
                                         operator_id, pool)
            elif isinstance(op, Project):
                row = OpReport(index=i, kind="project", detail=", ".join(op.fields))
                stream = _project_stage(stream, op, row, operator_id)
            elif isinstance(op, Limit):
                row = OpReport(index=i, kind="limit", detail=str(op.count))
                stream = _limit_stage(stream, op, row)
            elif is_agentic(op):
                if agent_runner is None:
                    raise OperatorError(f"{type(op).__name__.lower()} operator "
                                        "requires an agent runner")
                kind = "compute" if isinstance(op, Compute) else "search"
                row = OpReport(index=i, kind=kind, detail=op.instruction,
                               model_id=pop.model.model_id)
                upstream_records = list(stream)
                row.records_in = len(upstream_records)
                if i == 1:
                    stage_input = stage_ctx
                else:
                    stage_input = context_derive(
                        stage_ctx, canonical,
                        stage_ctx.description + f"\n\n[pipeline-stage {operator_id}] "
                        f"{len(upstream_records)} records after upstream operators.",
                        records=upstream_records, operator="pipeline")
                result = agent_runner(kind, op.instruction, stage_input, pop.model)
                row.records_out = len(result.context.source)
                row.calls = result.calls
                row.input_tokens = result.usage.input_tokens
                row.output_tokens = result.usage.output_tokens
                row.cost = call_cost(pop.model, result.usage)
                row.wall_seconds = result.wall_seconds
                if kind == "compute":
                    report.answer_text = result.answer_text
                    report.answer_value = result.answer_value
                stage_ctx = result.context
                stream = iter(list(context_iterate(result.context)))
            else:
                raise ValidationError(f"unsupported operator {op!r}")
            rows.append(row)

        out_records = list(stream)

    # cost and modeled time per semantic op from its integer totals
    for pop, row in zip(pplan.ops, rows):
        if pop.model is not None and row.kind in ("sem_filter", "sem_map"):
            row.cost = call_cost(pop.model, Usage(row.input_tokens, row.output_tokens))
            row.wall_seconds = row.calls * pop.model.latency_prior

    n_in, n_out = len(ctx.source), len(out_records)
    description = (ctx.description
                   + f"\n\n[pipeline {pplan.plan_id}] {canonical}; "
                     f"records in: {n_in}; records out: {n_out}.")
    out_ctx = context_derive(ctx, canonical, description, records=out_records,
                             operator="pipeline")
    report.context_id = out_ctx.id
    report.ops = rows
    return out_ctx, report


def preview_records(records: Iterable[Record], limit: int = 5) -> str:
    head = list(itertools.islice(iter(records), limit))
    return "".join(record_to_json(r) + "\n" for r in head)
