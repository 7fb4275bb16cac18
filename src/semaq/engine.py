"""Record-at-a-time pipeline execution with per-record model calls.

:func:`semantic_answer` is the one call that prompts a model about a record
for a sem_filter or sem_map: it re-asks an unusable reply and returns the
answer (the filter's verdict or the map's parsed fields), usage and calls.

Operators are chained as generators, so a record flows through the whole
chain before the next one is pulled: a downstream operator only ever sees
records that passed everything above it, and ``limit`` stops upstream
consumption as soon as it has emitted enough.  Against a backend whose
calls block (HTTP), each semantic operator runs one loop on one worker pool
per run (:meth:`_Window.run`): it keeps at most ``pool_width`` calls in
flight, yields in input order, and after each result it takes, refills its
window under the window's lock; a run waits for every call it submitted
before it returns or raises, so its report totals equal the ledger delta
even after a ``limit`` cut-off.  Stages differ only in how they refill.
The plan's first semantic operator, when it is a sem_filter or sem_map with
no ``limit`` downstream, pulls its next record as each call returns, and
holds up to ``pool_width`` more answers that its consumer has not yet taken,
so a slow call delays the hand-over of the results behind it, not the calls
on them; every other stage pulls and submits as its consumer takes its
oldest result.
Under a ``limit(n)`` reached through only project, sem_filter and sem_map
stages, each semantic stage sizes its window by demand (:class:`_Window`),
so a map prefetches nothing the limit cannot take, and a filter looks ahead
only as far as its observed selectivity says the limit can use.  A backend
that declares ``in_process`` (the mock) never blocks, so its calls run
inline in the caller's thread: no threads, and no call past what a
downstream ``limit`` pulls.

Each operator runs as one stage from one table.  A row's ``in`` is counted
where its stage pulls and its ``out`` is what the next stage pulled (the
last row's: the run's output), but a compute or search row's ``out`` is its
output context's size.  A sem_filter or sem_map stage asks about each
record by :meth:`_Run.ask`, which counts the ask in the row, and so does
``optimize``'s sampler, one row per (position, model) pair; :func:`_price`
prices both kinds of row by one rule, a run's once its last call finishes.

A model's answer to a prompt is reused by one key: the model id and the
sha256 of the backend's fingerprint (:func:`~semaq.backend.backend_fingerprint`:
the mock's script, the HTTP provider's ``base_url``; ``""`` for a backend
with none) and the first-attempt messages (role and content), so another
backend, predicate, instruction, field value, output field or field cap
misses.  A run looks a prompt up first in the answers the plan carries
(what ``optimize``'s sampler got at the plan's own (position, model)
pairs), then, given a ``store`` and a backend with a fingerprint, in the
store's answer log, which the store reads on its first lookup.  A call
that succeeds is added to the log, a failed one or a sampled answer never
is, and the run appends its new answers in one write when it ends, aborted
or not; an append that fails is logged as a warning and neither fails the
run nor replaces its own error.  Either kind of answer counts as
``reused`` in the report, not in its calls, tokens or cost.
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
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .backend import (MAX_POOL_WIDTH, ChatMessage, ModelSpec, Tally, Usage,
                      backend_fingerprint)
from .core import (Context, FieldValue, Record, context_derive, context_iterate,
                   load_json, make_derived_record, record_to_json, validate_field_value)
from .errors import OperatorError, RunAbortedError, StoreError, ValidationError
from .lang import (Compute, Limit, LogicalOp, LogicalPlan, Project, Scan, Search,
                   SemFilter, SemMap, describe_op, is_semantic, print_pipeline)
from .store import ContextStore, LoggedAnswer

if TYPE_CHECKING:
    from .agent import AgentResult

logger = logging.getLogger(__name__)

DEFAULT_FIELD_CHAR_CAP = 4000
PREVIEW_RECORDS = 5  # records in an agent's view of a pipeline's output


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
    """A logical plan with a model bound at each semantic position.

    ``answers`` holds sampled answers by (model id, prompt digest), the key
    of the store's answer log; the run asks them first.  They stay out of
    ``plan_id`` and of equality: two plans that differ only in them are the
    same plan.
    """

    logical: LogicalPlan
    ops: tuple[PhysicalOp, ...]
    plan_id: str
    answers: Mapping[tuple[str, str], bool | dict] = field(
        default_factory=dict, compare=False, repr=False)

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
    operator separately, for backends whose calls block.  A run shares one
    executor among its k sem_filter and sem_map stages, so up to
    k * ``pool_width`` calls are in flight at once.  Each stage runs one
    loop (see :class:`_Window`), which pulls and counts its records under
    its window's lock.  The source-fed stage also holds up to
    ``pool_width`` answers its consumer has not yet taken, so an aborted run
    may have asked it about up to 2 * ``pool_width`` records past the one it
    stopped on; any other stage looks ahead at most ``pool_width`` records.
    A stage that feeds a ``limit(n)`` through only project, sem_filter and
    sem_map stages holds fewer: no more than the limit can still take from
    it, divided by its observed pass rate.  With ``pool_width == 1``, or a
    backend that declares ``in_process``, every call runs inline without
    threads.
    ``pool_width`` is at most ``MAX_POOL_WIDTH``: a run may start that many
    threads per semantic stage, and the optimizer divides float latencies
    by it, which a wider integer would overflow.
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
        if self.pool_width > MAX_POOL_WIDTH:
            raise ValidationError(f"pool_width must be <= {MAX_POOL_WIDTH}")


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
_VERDICTS = {"yes": True, "no": False}


def parse_filter_response(text: str) -> bool | None:
    """First alphabetic token, lowercased, must be yes or no; else None."""
    match = _WORD_RE.search(text)
    return None if match is None else _VERDICTS.get(match.group(0).lower())


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
            return load_json(text, "list field", error=ValueError)
        return [part.strip() for part in text.split(",") if part.strip()]
    raise ValueError(f"unknown field type {ftype!r}")


def parse_map_response(text: str,
                       output_fields: Sequence[tuple[str, str]]) -> dict | None:
    """Parse a map response into the declared fields, or None if unusable.

    Precedence: a response whose first non-space character opens a JSON
    object is parsed as JSON; anything else is scanned as 'name: value'
    lines.  Every declared field must be present, coercible, and hold a
    value a record can hold (finite numbers, lists nested at most
    ``MAX_FIELD_NESTING`` deep).
    """
    stripped = text.strip()
    raw: dict = {}
    if stripped.startswith("{"):
        try:  # text opening with "{" decodes, if at all, to an object
            raw = load_json(stripped, "map reply", error=ValueError)
        except ValueError:
            pass
    if not raw:
        for line in text.splitlines():
            match = _KV_RE.match(line)
            if match and match.group(1) not in raw:
                raw[match.group(1)] = match.group(2)
    return _coerce_fields(raw, output_fields)


def _coerce_fields(raw: Mapping, output_fields: Sequence[tuple[str, str]]
                   ) -> dict | None:
    """``raw``'s value of each declared field coerced to its type, in
    declared order, or None if one is missing, does not coerce, or is not a
    value a record can hold."""
    out: dict = {}
    for name, ftype in output_fields:
        if name not in raw:
            return None
        try:
            out[name] = _coerce_value(raw[name], ftype)
            validate_field_value(out[name])
        except (ValueError, OverflowError, ValidationError, RecursionError):
            return None
    return out


# --- single-record operator execution ----------------------------------------

_NO_USAGE = Usage(0, 0)


class _AnswerLog:
    """The answers a run (or a sampled pair) on ``backend`` (its fingerprint)
    reuses, by (model id, prompt digest): those ``held``, else those in the
    log of ``store``, if any.  Its calls' answers go to ``new``, for one
    append to the store when the ``with`` block ends; pooled workers add
    with ``list.append``, which is atomic, and the store locks its reads."""

    def __init__(self, store: ContextStore | None, backend: str,
                 held: Mapping[tuple[str, str], bool | dict] | None = None):
        self.store = store
        fingerprint = backend.encode("utf-8", "surrogatepass")
        self._header = hashlib.sha256(b"%d\n%s" % (len(fingerprint), fingerprint))
        self.held = held or {}
        self.new: list[LoggedAnswer] = []

    def digest(self, messages: Sequence[ChatMessage]) -> str:
        """The sha256 of the fingerprint and a prompt's messages, each as its
        role, the length of its UTF-8 content and that content."""
        digest = self._header.copy()
        for message in messages:
            content = message.content.encode("utf-8", "surrogatepass")
            digest.update(b"%s %d\n" % (message.role.encode("utf-8"), len(content)))
            digest.update(content)
        return digest.hexdigest()

    def __enter__(self) -> "_AnswerLog":
        return self

    def __exit__(self, *exc_info) -> None:
        # the log only saves later calls: an append that fails must neither
        # discard a result already paid for nor replace the run's own error
        if self.new and self.store is not None:
            try:
                self.store.add_answers(self.new)
            except StoreError as exc:
                logger.warning("%d answer(s) of the run not logged: %s",
                               len(self.new), exc)


def _fits(op: LogicalOp, answer: bool | dict) -> bool:
    """Whether a logged ``answer`` is one ``op`` can give: a filter's
    verdict, or a map's declared fields in declared order, each holding a
    value that coercing to the field's type gives back unchanged, type
    included (``2`` in a number field would become ``2.0``)."""
    if isinstance(op, SemFilter):
        return isinstance(answer, bool)
    coerced = _coerce_fields(answer, op.output_fields) if isinstance(answer, dict) else None
    return coerced is not None and [(k, type(v), v) for k, v in coerced.items()] == [
        (k, type(v), v) for k, v in answer.items()]


def semantic_answer(backend, pop: PhysicalOp, record: Record,
                    log: _AnswerLog | None = None) -> tuple[bool | dict, Usage, int]:
    """Ask the model of a bound sem_filter or sem_map about ``record``: the
    one call that prompts a model about a record.

    An unusable reply is re-asked up to ``pop.retry_budget`` times before
    raising :class:`OperatorError`.  Returns (the filter's verdict or the
    map's parsed fields; summed usage; calls made).  With an answer ``log``,
    a prompt it answers makes no call (0 calls, zero usage), and a call
    that succeeds is added to its ``new``; a failed one is not.
    """
    op = pop.logical
    if isinstance(op, SemFilter):
        messages = render_filter_prompt(record, op.predicate)
        parse, reask, failure = (parse_filter_response, _REASK_FILTER,
                                 "filter response unparseable")
    else:
        messages = render_map_prompt(record, op.instruction, op.output_fields)
        parse, reask, failure = (lambda text: parse_map_response(text, op.output_fields),
                                 _REASK_MAP, "map response missing fields")
    model_id = pop.model.model_id
    if log is not None:
        prompt = log.digest(messages)
        answer = log.held.get((model_id, prompt))
        if answer is None and log.store is not None:
            answer = getattr(log.store.answer(model_id, prompt), "answer", None)
        if answer is not None:
            if not _fits(op, answer):
                raise StoreError(f"logged answer of {model_id} to prompt {prompt} "
                                 f"does not fit the {type(op).__name__}")
            return answer, _NO_USAGE, 0
    in_toks = out_toks = 0
    for calls in range(1, pop.retry_budget + 2):
        exchange = backend.chat(model_id, messages, temperature=0.0)
        in_toks += exchange.usage.input_tokens
        out_toks += exchange.usage.output_tokens
        parsed = parse(exchange.response)
        if parsed is not None:
            break
        messages = messages + [ChatMessage("assistant", exchange.response), reask]
    else:
        raise OperatorError(
            f"{failure} after {calls} attempt(s) on record {record.id}",
            raw_response=exchange.response, input_tokens=in_toks,
            output_tokens=out_toks, calls=calls)
    if log is not None:
        log.new.append(LoggedAnswer(model_id, prompt, parsed, in_toks, out_toks, calls))
    return parsed, Usage(in_toks, out_toks), calls


def semantic_execute(backend, pop: PhysicalOp, record: Record, operator_id: str
                     ) -> tuple[Record | None, Usage, int]:
    """:func:`semantic_answer` as the output record (see
    :func:`_answer_output`)."""
    answer, usage, calls = semantic_answer(backend, pop, record)
    return _answer_output(pop.logical, record, answer, operator_id), usage, calls


def _answer_output(op: LogicalOp, record: Record, answer, operator_id: str
                   ) -> Record | None:
    """The output of a sem_filter or sem_map whose model gave ``answer`` (a
    verdict, or the parsed fields) on ``record``: None when a filter rejects
    it; a map's output keeps the input fields, adds the derived ones
    (overwriting on name collision) and gets a fresh lineage-bearing id."""
    if isinstance(op, SemFilter):
        return record if answer else None
    return make_derived_record({**record.fields, **answer}, [record.id], operator_id)


# --- reports ------------------------------------------------------------------

# a report row's keys, in the order its JSON writes them
_ROW_KEYS = ("index", "kind", "detail", "model_id", "records_in", "records_out", "calls",
             "input_tokens", "output_tokens", "cost", "wall_seconds", "failures", "reused")


@dataclass
class OpReport(Tally):
    index: int
    kind: str
    detail: str
    model_id: str | None = None
    records_in: int = 0
    records_out: int = 0
    cost: float = 0.0
    failures: int = 0
    # records answered from the sample or from the store's answer log, with
    # no call: in records_in only
    reused: int = 0

    def to_dict(self) -> dict:
        # only per-record rows reuse
        keys = _ROW_KEYS if self.kind in ("sem_filter", "sem_map") else _ROW_KEYS[:-1]
        return {key: getattr(self, key) for key in keys}


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

    @property
    def total_reused(self) -> int:
        return sum(op.reused for op in self.ops)

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
            "total_reused": self.total_reused,
            "answer_text": self.answer_text,
            "answer_value": self.answer_value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render_text(self) -> str:
        return render_report(self.to_dict())


def render_report(doc: dict) -> str:
    """The text of an execution report's JSON document (:meth:`ExecutionReport.to_dict`):
    one row per operator, then the totals.  A row without ``reused`` (only
    per-record operators reuse) and a report without ``total_reused`` (one
    written before reuse existed) read 0."""
    lines = [
        f"plan {doc['plan_id']}: {doc['pipeline']}",
        f"{'#':>2} {'operator':<12} {'model':<14} {'in':>6} {'out':>6} "
        f"{'calls':>6} {'reused':>6} {'cost':>10} {'model_s':>8}",
    ]
    for op in doc["ops"]:
        lines.append(
            f"{op['index']:>2} {op['kind']:<12} {op['model_id'] or '-':<14} "
            f"{op['records_in']:>6} {op['records_out']:>6} {op['calls']:>6} "
            f"{op.get('reused', 0):>6} {op['cost']:>10.6f} {op['wall_seconds']:>8.2f}")
    lines.append(
        f"   total: {doc['total_calls']} calls, {doc.get('total_reused', 0)} reused, "
        f"cost {doc['total_cost']:.6f}, "
        f"modeled {doc['total_wall_seconds']:.2f}s, {doc['records_in']} -> "
        f"{doc['records_out']} records, {doc['total_failures']} failure(s)")
    if doc["answer_text"] is not None:
        lines.append(f"   answer: {doc['answer_text']}")
    return "\n".join(lines)


# --- pipeline execution --------------------------------------------------------

# runner(kind, instruction, ctx, model) -> agent.AgentResult for kind "compute"
# or "search"; the stage reads its context, trace.usage and (compute) answer
AgentRunner = Callable[[str, str, Context, ModelSpec], "AgentResult"]


class _Window:
    """The calls one pooled sem_filter or sem_map stage keeps in flight, and
    the one loop that runs them (:meth:`run`): each step takes the oldest
    result outside the window's lock, then under it counts the result,
    refills the window (``fill``) and counts the output as emitted.  These
    counts change only there, in the consumer's thread, in input order, so
    the calls a run makes do not depend on when its calls complete.

    Without a downstream ``limit`` the window is ``width`` wide.  Under one,
    reached through only project, sem_filter and sem_map stages, the stage
    keeps at most ``min(width, ceil(need / rate))`` calls in flight
    (:meth:`cap`).  ``need`` is the outputs of this stage the limit can still
    take: ``n`` less those emitted for the last semantic stage before the
    limit, else the next semantic stage's ``ceil(need / rate)`` less that
    stage's calls in flight.  ``rate`` is 1 for a map and
    ``(passed + 1) / (decided + 1)`` for a filter, from the verdicts it has
    handed over in this run, so it starts at 1 and tracks the filter's
    selectivity.  An output being handed over counts as emitted.

    Only ``fill`` differs.  A capped or later stage pulls ``cap()`` less its
    calls in flight and submits each to the pool.  The source-fed stage
    (``refill``: the plan's first semantic operator, with neither ``limit``
    nor ``next``) starts lanes up to ``width``; as a lane's call returns, it
    pulls the next record and calls on it while fewer than ``2 * width``
    wait to be taken, so the stage's upstream (scan, project, limit) never
    waits on a model call.  Once :meth:`stop` is called, it starts no call.

    Every pull happens under the pulling window's lock, on the consumer's
    thread or a lane's.  A pull may run the windows upstream, so locks are
    taken downstream to upstream; a lane takes only its own window's lock,
    and no window waits on a result while it holds its own, so no cycle can
    form.
    """

    def __init__(self, width: int, is_filter: bool):
        self.width = width
        self.is_filter = is_filter
        self.pending: deque = deque()  # submitted calls, in input order
        self.emitted = 0
        self.held = 0  # 1 while an output is being handed over
        self.passed = self.decided = 0
        self.limit: int | None = None  # set on the last stage before a limit
        self.next: _Window | None = None  # set on a stage before another one
        self.refill = False  # set on the source-fed stage
        self.inflight = 0  # the source-fed stage's lanes, each one call in flight
        self.stopped = False
        self.lock = threading.Lock()

    def _need(self) -> float:
        if self.next is not None:
            return self.next.demand() - len(self.next.pending) - self.held
        if self.limit is not None:
            return self.limit - self.emitted - self.held
        return math.inf

    def demand(self) -> float:
        """Inputs this stage can still use: ``ceil(need / rate)``."""
        need = self._need()
        if need <= 0:
            return 0
        if need == math.inf or not self.is_filter:
            return need
        return -(-need * (self.decided + 1) // (self.passed + 1))

    def cap(self) -> float:
        return min(self.width, self.demand())

    def stop(self) -> None:
        with self.lock:
            self.stopped = True

    def run(self, fn, items: Iterator, pool: ThreadPoolExecutor) -> Iterator:
        """Apply ``fn`` to ``items`` on ``pool``, yielding each (output or
        None, error) in input order.  A step that finds nothing in flight
        pulls one item all the same, so a record dropped downstream never
        stalls the stage.  An error a lane's pull raises reaches the consumer
        after the results before it; a consumer's pull raises it at once."""
        pending = self.pending

        def pull():  # under the lock: the next item and its future, or None
            if self.stopped or len(pending) >= 2 * self.width:
                return None
            try:
                item = next(items)
            except StopIteration:
                self.stopped = True
                return None
            except BaseException as exc:
                self.stopped = True
                failed = Future()
                failed.set_exception(exc)
                pending.append(failed)
                return None
            future = Future()
            pending.append(future)
            return item, future

        def lane(item, future) -> None:
            while True:
                try:
                    result, raised = fn(item), None
                except BaseException as exc:
                    result, raised = None, exc
                # a lane ends its call and pulls, or ends, in one step: so
                # while it counts in ``inflight``, its future is pending
                with self.lock:
                    if raised is None:
                        future.set_result(result)
                    else:
                        future.set_exception(raised)
                    pulled = pull()
                    if pulled is None:
                        self.inflight -= 1
                        return
                item, future = pulled

        def fill(count: float) -> None:  # under the lock
            if self.refill:  # start lanes up to ``width``; they pull for themselves
                while self.inflight < self.width and (pulled := pull()) is not None:
                    self.inflight += 1
                    pool.submit(lane, *pulled)
                return
            for item in itertools.islice(items, max(0, count)):
                pending.append(pool.submit(fn, item))

        while True:
            with self.lock:
                if not pending:
                    fill(max(1, self.cap()))
                    if not pending:
                        return
                head = pending[0]
            out, error = head.result()
            with self.lock:
                pending.popleft()
                if error is None:
                    self.decided += 1
                    self.passed += out is not None
                    self.held = int(out is not None)
                fill(self.cap() - len(pending))
                self.emitted += self.held
                self.held = 0
            yield out, error


def _windows(ops: Sequence[PhysicalOp], width: int) -> dict[int, _Window]:
    """A window for each sem_filter and sem_map position, each linked to
    the next one, or given the count of the ``limit`` it reaches through
    only project, sem_filter and sem_map stages; the plan's first semantic
    operator, given neither, is the source-fed stage and refills."""
    windows: dict[int, _Window] = {}
    limit: int | None = None  # the count of the limit the stream reaches
    below: _Window | None = None  # the next semantic stage before it
    for i in range(len(ops) - 1, 0, -1):
        op = ops[i].logical
        if isinstance(op, (SemFilter, SemMap)):
            window = windows[i] = _Window(width, isinstance(op, SemFilter))
            if limit is not None:
                if below is None:
                    window.limit = limit
                else:
                    window.next = below
                below = window
        elif isinstance(op, Limit):
            limit, below = op.count, None
        elif not isinstance(op, Project):
            limit, below = None, None
    first = next((i for i, pop in enumerate(ops) if is_semantic(pop.logical)), None)
    window = windows.get(first)
    if window is not None and window.limit is None and window.next is None:
        window.refill = True
    return windows


@dataclass
class _Run:
    """What the stages of one run share: ``context`` is the context the next
    agentic stage reads; a row counts ``in`` where its stage pulls, and its
    ``out`` is what the next stage pulled.  A sampled pair's run sets only
    what :meth:`ask` reads."""

    backend: object
    log: _AnswerLog | None
    plan: PhysicalPlan | None = None
    policy: RunPolicy | None = None
    agent_runner: AgentRunner | None = None
    pool: ThreadPoolExecutor | None = None  # None: calls run inline
    windows: dict[int, _Window] = field(default_factory=dict)
    context: Context | None = None
    report: ExecutionReport | None = None
    allowed: int = 0  # failures the budget allows
    failures: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def ask(self, pop: PhysicalOp, record: Record, row: OpReport):
        """:func:`semantic_answer` through the run's log: (the answer, None),
        or (None, the error) when no reply parsed.  Its calls, tokens,
        ``reused`` and ``failures`` go to ``row`` under the run's lock."""
        answer = error = None
        try:
            answer, usage, calls = semantic_answer(self.backend, pop, record, self.log)
        except OperatorError as exc:
            usage, calls, error = (Usage(exc.input_tokens, exc.output_tokens),
                                   exc.calls, exc)
        with self.lock:
            row.reused += not calls  # a failure made at least one call
            row.add(usage, calls)
            row.failures += error is not None
        return answer, error

    def fail(self, error: OperatorError) -> None:
        """Drop the record ``error`` failed on, or raise under ``abort`` or
        once the failures exceed the budget."""
        if self.policy.on_error == "abort":
            raise error
        self.failures += 1
        logger.warning("dropped record after operator failure: %s", error)
        if self.failures > self.allowed:
            raise RunAbortedError(
                f"failure budget exceeded: {self.failures} failures > "
                f"{self.allowed} allowed") from error


def _semantic_stage(run: _Run, i: int, pop: PhysicalOp, upstream: Iterator[Record],
                    row: OpReport) -> Iterator[Record]:
    """Run a sem_filter or sem_map over ``upstream``, inline without a pool,
    else on the pool within the stage's window, asking by :meth:`_Run.ask`.

    A prompt the run's answer log answers makes no call and counts in
    ``row.reused``.
    """
    operator_id = f"{run.plan.plan_id}#op{i}"

    def work(record: Record):
        # (output record or None when a filter rejects, error)
        answer, error = run.ask(pop, record, row)
        out = None if error else _answer_output(pop.logical, record, answer, operator_id)
        return out, error

    results = (map(work, upstream) if run.pool is None
               else run.windows[i].run(work, upstream, run.pool))
    for out, error in results:
        if error is not None:
            run.fail(error)
        elif out is not None:
            yield out


def _project_stage(run: _Run, i: int, pop: PhysicalOp, upstream: Iterator[Record],
                   row: OpReport) -> Iterator[Record]:
    for record in upstream:
        fields = {name: record.fields[name] for name in pop.logical.fields
                  if name in record.fields}
        yield make_derived_record(fields, [record.id], f"{run.plan.plan_id}#op{i}")


def _agentic_stage(run: _Run, i: int, pop: PhysicalOp, upstream: Iterator[Record],
                   row: OpReport) -> Iterator[Record]:
    """Hand the records ``upstream`` passes on to the agent runner and pass on
    its output context's; a missing runner fails before the run's first call."""
    if run.agent_runner is None:
        raise OperatorError(f"{row.kind} operator requires an agent runner")

    def records() -> Iterator[Record]:
        upstream_records = list(upstream)
        stage_input = run.context if i == 1 else context_derive(
            run.context, run.report.pipeline_text,
            run.context.description + f"\n\n[pipeline-stage {run.plan.plan_id}#op{i}] "
            f"{len(upstream_records)} records after upstream operators.",
            records=upstream_records, operator="pipeline")
        result = run.agent_runner(row.kind, pop.logical.instruction, stage_input,
                                  pop.model)
        tally = result.trace.usage
        row.add(Usage(tally.input_tokens, tally.output_tokens), tally.calls,
                tally.wall_seconds)
        row.records_out = len(result.context.source)
        if row.kind == "compute":
            run.report.answer_text = result.answer_text
            run.report.answer_value = result.answer_value
        run.context = result.context
        yield from context_iterate(result.context)

    return records()


# operator type -> stage(run, position, bound op, upstream, row) -> the
# records it passes on, built before the run's first call on an upstream
# that counts the row's ``in`` as it pulls; ``out`` is what the next pulled
_STAGES: dict[type, Callable] = {
    Scan: lambda run, i, pop, upstream, row: upstream,
    SemFilter: _semantic_stage,
    SemMap: _semantic_stage,
    Project: _project_stage,
    Limit: lambda run, i, pop, upstream, row: itertools.islice(upstream, pop.logical.count),
    Compute: _agentic_stage,
    Search: _agentic_stage,
}


def _price(model: ModelSpec, row: OpReport) -> None:
    """Price a row with a model: ``call_cost`` of its tokens; a sem_filter or
    sem_map row's time is ``calls * latency_prior``, an agentic row's its trace's."""
    row.cost = row.price(model)
    if row.kind in ("sem_filter", "sem_map"):
        row.wall_seconds = row.calls * model.latency_prior


def _pulled(upstream: Iterator[Record], row: OpReport) -> Iterator[Record]:
    """``upstream``, counting in ``row.records_in`` each record its stage pulls.
    A pooled stage advances it under its window's lock, the source-fed
    stage's on worker threads too (:class:`_Window`)."""
    for record in upstream:
        row.records_in += 1
        yield record


def pipeline_execute(pplan: PhysicalPlan, ctx: Context, backend,
                     policy: RunPolicy | None = None,
                     agent_runner: AgentRunner | None = None, *,
                     store: ContextStore | None = None
                     ) -> tuple[Context, ExecutionReport]:
    """Run a bound plan over ``ctx``.

    Returns the derived output context and a per-operator report whose cost
    totals agree with the backend ledger delta for the run.  Agentic
    operators (compute/search) require an injected ``agent_runner``.
    Semantic stages answer a prompt from the plan's sampled answers and,
    given a ``store``, from its answer log (see the module docstring).
    """
    policy = policy or RunPolicy()
    canonical = print_pipeline(pplan.logical)
    report = ExecutionReport(pplan.plan_id, canonical, context_id="")
    windows = _windows(pplan.ops, policy.pool_width)
    pooled = (policy.pool_width > 1 and windows
              and not getattr(backend, "in_process", False))
    executor = (ThreadPoolExecutor(max_workers=policy.pool_width * len(windows))
                if pooled else nullcontext())
    fingerprint = backend_fingerprint(backend)
    if fingerprint is None:  # such a backend never uses the store's log
        store = None
    # a run with neither sampled answers nor a store computes no digest
    answer_log = (_AnswerLog(store, fingerprint or "", pplan.answers)
                  if store is not None or pplan.answers else nullcontext())
    # leaving the block waits for every submitted call, on return and on
    # raise, so a limit cut-off or an abort leaves no call unaccounted, and
    # then appends every answer those calls got to the log
    with answer_log as log, executor as pool:
        run = _Run(backend, log, pplan, policy, agent_runner, pool, windows, ctx, report,
                   math.ceil(policy.failure_budget * len(ctx.source)))
        stream = context_iterate(ctx)
        try:
            for i, pop in enumerate(pplan.ops):
                if type(pop.logical) not in _STAGES:
                    raise ValidationError(f"unsupported operator {pop.logical!r}")
                kind, detail = describe_op(pop.logical)
                row = OpReport(index=i, kind=kind, detail=detail,
                               model_id=pop.model and pop.model.model_id)
                report.ops.append(row)
                stream = _STAGES[type(pop.logical)](run, i, pop, _pulled(stream, row), row)
            out_records = list(stream)
        finally:  # a refilling stage submits no call once the run stops
            for window in windows.values():
                window.stop()

    # once every call has ended, price each row with a model; a row's ``out``
    # is the next row's ``in`` (the last's: the output), an agentic row's its own
    outs = [row.records_in for row in report.ops[1:]] + [len(out_records)]
    for pop, row, out in zip(pplan.ops, report.ops, outs):
        if pop.model is not None:
            _price(pop.model, row)
        if row.kind not in ("compute", "search"):
            row.records_out = out

    description = (ctx.description + f"\n\n[pipeline {pplan.plan_id}] {canonical}; "
                   f"records in: {len(ctx.source)}; records out: {len(out_records)}.")
    out_ctx = context_derive(ctx, canonical, description, records=out_records,
                             operator="pipeline")
    report.context_id = out_ctx.id
    return out_ctx, report


def preview_records(records: Iterable[Record]) -> str:
    head = list(itertools.islice(iter(records), PREVIEW_RECORDS))
    return "".join(record_to_json(r) + "\n" for r in head)
