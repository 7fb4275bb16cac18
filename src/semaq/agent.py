"""Step-bounded agent loop with tools, plus the compute and search operators.

The agent converses with one model under a strict wire protocol: every reply
must contain exactly one fenced JSON block that either calls a tool or gives
a final answer.  Unparseable replies get up to two corrective re-asks per
step before the run aborts.  Tool failures never crash the loop; they come
back as error observations the agent can react to.

``compute`` wraps a run that must end in a final answer and derives a child
context whose description extends the parent's with the instruction, the
answer, and what was used to get it.  ``search`` tolerates hitting the step
limit and derives a (possibly partial) findings context.
"""

from __future__ import annotations

import ast
import json
import logging
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .backend import ChatMessage, ModelSpec, Usage, call_cost
from .core import (Context, FieldValue, Record, ToolParam, ToolSpec,
                   context_derive, context_iterate, context_topk, record_text,
                   validate_field_value)
from .engine import (AgentStageResult, ExecutionReport, RunPolicy,
                     pipeline_execute, preview_records)
from .errors import (AgentError, CapabilityError, ComputeError,
                     ConfigurationError, DataAccessError, PipelineSyntaxError,
                     SearchError, SemaqError, ValidationError)
from .lang import is_agentic, parse_pipeline, validate_plan
from .optimizer import Policy, MinCost, OptimizerReport, optimize

logger = logging.getLogger(__name__)

MAX_OBSERVATION_CHARS = 8000
DEFAULT_MAX_STEPS = 12
DEFAULT_REASK_LIMIT = 2


@dataclass(frozen=True)
class ToolCall:
    tool: str
    args: dict


@dataclass(frozen=True)
class FinalAnswer:
    text: str
    value: FieldValue | None = None


Action = ToolCall | FinalAnswer


@dataclass
class AgentStep:
    index: int
    thought: str
    action: Action | None  # None when the step's replies never parsed
    observation: str

    def to_dict(self) -> dict:
        if isinstance(self.action, ToolCall):
            action = {"type": "tool", "tool": self.action.tool, "args": self.action.args}
        elif isinstance(self.action, FinalAnswer):
            action = {"type": "final_answer", "text": self.action.text,
                      "value": self.action.value}
        else:
            action = None
        return {"index": self.index, "thought": self.thought, "action": action,
                "observation": self.observation}


@dataclass
class AgentUsage:
    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost: float = 0.0
    wall_seconds: float = 0.0

    def add(self, usage: Usage, model: ModelSpec) -> None:
        self.calls += 1
        self.input_tokens += usage.input_tokens
        self.output_tokens += usage.output_tokens
        self.cost += call_cost(model, usage)
        self.wall_seconds += model.latency_prior

    def to_dict(self) -> dict:
        return {"calls": self.calls, "input_tokens": self.input_tokens,
                "output_tokens": self.output_tokens, "cost": self.cost,
                "wall_seconds": self.wall_seconds}


@dataclass
class AgentTrace:
    instruction: str
    model_id: str
    steps: list[AgentStep] = field(default_factory=list)
    outcome: str = "aborted"  # answered | step-limit | aborted
    abort_reason: str = ""
    usage: AgentUsage = field(default_factory=AgentUsage)
    derived_context_ids: list[str] = field(default_factory=list)

    def final_answer(self) -> FinalAnswer | None:
        if self.steps and isinstance(self.steps[-1].action, FinalAnswer):
            return self.steps[-1].action
        return None

    def to_dict(self) -> dict:
        return {
            "instruction": self.instruction,
            "model_id": self.model_id,
            "outcome": self.outcome,
            "abort_reason": self.abort_reason,
            "steps": [s.to_dict() for s in self.steps],
            "usage": self.usage.to_dict(),
            "derived_context_ids": self.derived_context_ids,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)


@dataclass(frozen=True)
class AgentConfig:
    model: ModelSpec
    max_steps: int = DEFAULT_MAX_STEPS
    cost_budget: float | None = None
    reask_limit: int = DEFAULT_REASK_LIMIT

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")
        if self.cost_budget is not None and self.cost_budget < 0:
            raise ValidationError("cost_budget must be >= 0")
        if self.reask_limit < 0:
            raise ValidationError("reask_limit must be >= 0")


# --- action wire format -------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?[ \t]*\n(.*?)```", re.DOTALL)


class _ActionParseError(ValueError):
    pass


def parse_action(text: str) -> tuple[str, Action]:
    """Parse a model reply into (thought, action).

    The reply must contain exactly one fenced block holding a JSON object
    with a ``thought`` plus either ``tool``/``args`` or ``final_answer``.
    """
    blocks = _FENCE_RE.findall(text)
    if len(blocks) != 1:
        raise _ActionParseError(
            f"expected exactly one fenced action block, found {len(blocks)}")
    try:
        doc = json.loads(blocks[0])
    except json.JSONDecodeError as exc:
        raise _ActionParseError(f"action block is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _ActionParseError("action block must be a JSON object")
    thought = str(doc.get("thought", ""))
    has_tool = "tool" in doc
    has_final = "final_answer" in doc
    if has_tool == has_final:
        raise _ActionParseError(
            "action must contain exactly one of 'tool' or 'final_answer'")
    if has_tool:
        args = doc.get("args", {})
        if not isinstance(args, dict):
            raise _ActionParseError("'args' must be an object")
        return thought, ToolCall(tool=str(doc["tool"]), args=args)
    final = doc["final_answer"]
    if isinstance(final, str):
        return thought, FinalAnswer(text=final)
    if not isinstance(final, dict) or "text" not in final:
        raise _ActionParseError("'final_answer' must be a string or {text, value?}")
    value = final.get("value")
    try:
        validate_field_value(value)
    except ValidationError as exc:
        raise _ActionParseError(f"final answer value invalid: {exc}") from exc
    return thought, FinalAnswer(text=str(final["text"]), value=value)


def truncate_observation(text: str, limit: int = MAX_OBSERVATION_CHARS) -> str:
    """Keep the head and tail of an oversized observation."""
    if len(text) <= limit:
        return text
    omitted = len(text) - limit
    marker = f"\n...[truncated {omitted} chars]...\n"
    keep = max(0, limit - len(marker))
    head = keep // 2
    tail = keep - head
    return text[:head] + marker + text[len(text) - tail:]


# --- tool environment and builtins ---------------------------------------------

@dataclass
class ToolEnv:
    """Everything a tool handler may touch during one agent run."""

    ctx: Context
    backend: object
    store: object | None
    models: Sequence[ModelSpec]
    policy: Policy
    sample_size: int
    run_policy: RunPolicy
    refs: dict[str, Context]
    derived_context_ids: list[str] = field(default_factory=list)
    pipeline_reports: list[tuple[OptimizerReport, ExecutionReport]] = field(
        default_factory=list)
    tools_used: list[str] = field(default_factory=list)


def _tool_list_sources(env: ToolEnv, args: dict) -> str:
    lines = [f"{len(env.ctx.source)} records in context {env.ctx.id}:"]
    for rec in context_iterate(env.ctx):
        preview = record_text(rec).replace("\n", " ")[:60]
        lines.append(f"{rec.id}\t{preview}")
    return "\n".join(lines)


def _tool_read_source(env: ToolEnv, args: dict) -> str:
    rec_id = str(args["id"])
    offset = int(args.get("offset", 0))
    length = int(args.get("length", 4000))
    if offset < 0 or length < 1:
        raise ValidationError("offset must be >= 0 and length >= 1")
    for rec in context_iterate(env.ctx):
        if rec.id == rec_id:
            slice_ = record_text(rec)[offset:offset + length]
            return slice_ if slice_ else "(empty slice)"
    raise DataAccessError(f"no record with id {rec_id!r} in context {env.ctx.id}")


def _tool_index_search(env: ToolEnv, args: dict) -> str:
    query = str(args["query"])
    k = int(args.get("k", 5))
    matches = context_topk(env.ctx, query, k)
    if not matches:
        return "no matches"
    lines = []
    for rec, score in matches:
        preview = record_text(rec).replace("\n", " ")[:60]
        lines.append(f"{rec.id}\t{score:.4f}\t{preview}")
    return "\n".join(lines)


_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul, ast.Div: operator.truediv}


def safe_arithmetic(expression: str) -> float:
    """Evaluate a pure arithmetic expression (+ - * / and parentheses) as a
    64-bit float.  Anything else is rejected."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"not a valid expression: {exc.msg}") from exc

    def walk(node) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand)
            return value if isinstance(node.op, ast.UAdd) else -value
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            return float(node.value)
        raise ValidationError("only numbers, + - * / and parentheses are allowed")

    try:
        return float(walk(tree))
    except ZeroDivisionError as exc:
        raise ValidationError("division by zero") from exc


def _tool_evaluate(env: ToolEnv, args: dict) -> str:
    return repr(safe_arithmetic(str(args["expression"])))


def _tool_run_pipeline(env: ToolEnv, args: dict) -> str:
    text = str(args["pipeline"])
    plan = parse_pipeline(text)
    if any(is_agentic(op) for op in plan.ops):
        raise ValidationError(
            "compute/search operators are not allowed inside run_pipeline")
    ref = plan.ops[0].context_ref  # type: ignore[attr-defined]
    target = env.refs.get(ref)
    if target is None:
        raise ConfigurationError(
            f"unknown context reference {ref!r} "
            f"(known: {', '.join(sorted(env.refs))})")
    diagnostics = validate_plan(plan, target, known_refs=set(env.refs))
    if diagnostics:
        raise ValidationError("; ".join(d.message for d in diagnostics))
    chosen, opt_report = optimize(plan, target, env.models, env.policy,
                                  env.sample_size, env.backend,
                                  run_policy=env.run_policy)
    out_ctx, report = pipeline_execute(chosen, target, env.backend,
                                       policy=env.run_policy)
    if env.store is not None:
        env.store.register(out_ctx, instruction=text)
    env.refs[out_ctx.id] = out_ctx
    env.derived_context_ids.append(out_ctx.id)
    env.pipeline_reports.append((opt_report, report))
    return (f"pipeline {report.plan_id} executed: {report.records_in} -> "
            f"{report.records_out} records; semantic calls "
            f"{report.semantic_calls()}; cost {report.total_cost:.6f}; "
            f"derived context {out_ctx.id}\npreview:\n"
            + (preview_records(out_ctx.source, 5) or "(no records)"))


def builtin_tools() -> tuple[ToolSpec, ...]:
    return (
        ToolSpec(
            name="list_sources",
            description="List every record in the active context with a short preview.",
            params=(),
            handler=_tool_list_sources),
        ToolSpec(
            name="read_source",
            description="Read a slice of one record's text by record id.",
            params=(ToolParam("id"), ToolParam("offset", "number", required=False),
                    ToolParam("length", "number", required=False)),
            handler=_tool_read_source),
        ToolSpec(
            name="index_search",
            description="Similarity-search the context index; returns the top-k records.",
            params=(ToolParam("query"), ToolParam("k", "number", required=False)),
            handler=_tool_index_search),
        ToolSpec(
            name="evaluate",
            description="Evaluate a pure arithmetic expression (+ - * / and parentheses).",
            params=(ToolParam("expression"),),
            handler=_tool_evaluate),
        ToolSpec(
            name="run_pipeline",
            description="Parse, optimize, and execute a pipeline such as "
                        "scan(ctx) | sem_filter(\"...\") | limit(5); the result "
                        "is registered as a derived context.",
            params=(ToolParam("pipeline"),),
            handler=_tool_run_pipeline),
    )


def render_system_prompt(ctx: Context, tools: Sequence[ToolSpec]) -> str:
    tool_lines = []
    for tool in tools:
        params = ", ".join(p.name + ("" if p.required else "?") for p in tool.params)
        tool_lines.append(f"- {tool.name}({params}): {tool.description}")
    return (
        "You are an analyst agent working over a described data context.\n"
        "CONTEXT DESCRIPTION:\n"
        f"{ctx.description}\n"
        "AVAILABLE TOOLS:\n"
        + "\n".join(tool_lines) + "\n"
        "Respond with exactly one fenced json block containing either\n"
        '{"thought": "...", "tool": "<name>", "args": {...}}\n'
        'or {"thought": "...", "final_answer": {"text": "...", "value": null}}.'
    )


_CORRECTIVE = ChatMessage(
    "user", "Your reply could not be parsed. Respond with exactly one fenced "
            "json block as specified, and nothing else.")


@dataclass
class ComputeResult:
    answer_text: str
    answer_value: FieldValue | None
    context: Context
    trace: AgentTrace


@dataclass
class SearchResult:
    context: Context
    trace: AgentTrace
    partial: bool


class AgentRuntime:
    """Wires the agent loop to a backend, store, catalog, and policy."""

    def __init__(self, backend, store=None,
                 models: Sequence[ModelSpec] = (),
                 policy: Policy | None = None,
                 sample_size: int = 0,
                 run_policy: RunPolicy | None = None,
                 refs: Mapping[str, Context] | None = None):
        self.backend = backend
        self.store = store
        self.models = tuple(models)
        self.policy = policy if policy is not None else MinCost(quality_floor=0.0)
        self.sample_size = sample_size
        self.run_policy = run_policy or RunPolicy()
        self.refs = dict(refs or {})
        self.traces: list[AgentTrace] = []
        self.pipeline_reports: list[tuple[OptimizerReport, ExecutionReport]] = []

    def _registry(self, ctx: Context) -> dict[str, ToolSpec]:
        registry: dict[str, ToolSpec] = {}
        for tool in builtin_tools() + tuple(ctx.tools):
            if tool.name in registry:
                raise ConfigurationError(
                    f"tool name collision in registry: {tool.name!r}")
            registry[tool.name] = tool
        return registry

    def _env(self, ctx: Context) -> ToolEnv:
        return ToolEnv(ctx=ctx, backend=self.backend, store=self.store,
                       models=self.models, policy=self.policy,
                       sample_size=self.sample_size, run_policy=self.run_policy,
                       refs={"ctx": ctx, **self.refs})

    def run(self, instruction: str, ctx: Context, config: AgentConfig,
            env: ToolEnv | None = None) -> AgentTrace:
        """Drive the action loop until final answer, step limit, or abort."""
        if not instruction.strip():
            raise ValidationError("instruction must be non-empty")
        registry = self._registry(ctx)
        if env is None:
            env = self._env(ctx)
        trace = AgentTrace(instruction=instruction, model_id=config.model.model_id)
        messages: list[ChatMessage] = [
            ChatMessage("system", render_system_prompt(ctx, tuple(registry.values()))),
            ChatMessage("user", instruction),
        ]

        over_budget = False
        for step_index in range(config.max_steps):
            thought, action, raw = "", None, ""
            for attempt in range(config.reask_limit + 1):
                if (config.cost_budget is not None
                        and trace.usage.cost >= config.cost_budget):
                    over_budget = True
                    break
                exchange = self.backend.chat(config.model.model_id, messages,
                                             temperature=0.0)
                trace.usage.add(exchange.usage, config.model)
                raw = exchange.response
                try:
                    thought, action = parse_action(raw)
                    break
                except _ActionParseError as exc:
                    logger.debug("unparseable action at step %d: %s", step_index, exc)
                    if attempt < config.reask_limit:
                        messages = messages + [ChatMessage("assistant", raw),
                                               _CORRECTIVE]

            if over_budget:
                trace.outcome = "aborted"
                trace.abort_reason = "budget"
                break

            if action is None:
                trace.steps.append(AgentStep(
                    index=step_index, thought="", action=None,
                    observation="error: action-parse: no parseable action after "
                                f"{config.reask_limit + 1} attempts; last reply "
                                f"(truncated): {raw[:200]}"))
                trace.outcome = "aborted"
                trace.abort_reason = "action-parse"
                break

            if isinstance(action, FinalAnswer):
                trace.steps.append(AgentStep(
                    index=step_index, thought=thought, action=action,
                    observation=""))
                trace.outcome = "answered"
                break

            observation = self._invoke_tool(registry, env, action)
            observation = truncate_observation(observation)
            trace.steps.append(AgentStep(
                index=step_index, thought=thought, action=action,
                observation=observation))
            messages = messages + [
                ChatMessage("assistant", raw),
                ChatMessage("tool", f"Observation: {observation}"),
            ]
        else:
            trace.outcome = "step-limit"

        trace.derived_context_ids = list(env.derived_context_ids)
        self.pipeline_reports.extend(env.pipeline_reports)
        self.traces.append(trace)
        return trace

    def _invoke_tool(self, registry: dict[str, ToolSpec], env: ToolEnv,
                     call: ToolCall) -> str:
        tool = registry.get(call.tool)
        if tool is None:
            return (f"error: config-error: unknown tool {call.tool!r} "
                    f"(available: {', '.join(sorted(registry))})")
        missing = [p.name for p in tool.params if p.required and p.name not in call.args]
        if missing:
            return (f"error: validation-error: {call.tool} missing required "
                    f"argument(s): {', '.join(missing)}")
        env.tools_used.append(call.tool)
        try:
            return tool.handler(env, call.args)
        except SemaqError as exc:
            return f"error: {exc.category}: {exc}"
        except (ValueError, TypeError, KeyError) as exc:
            return f"error: validation-error: bad arguments: {exc}"

    # --- compute and search ----------------------------------------------------

    def compute(self, ctx: Context, instruction: str,
                config: AgentConfig) -> ComputeResult:
        """Run the agent to a final answer and derive an answer context."""
        env = self._env(ctx)
        trace = self.run(instruction, ctx, config, env=env)
        if trace.outcome != "answered":
            reason = trace.abort_reason or trace.outcome
            raise ComputeError(
                f"compute did not reach an answer ({trace.outcome}"
                + (f": {trace.abort_reason}" if trace.abort_reason else "") + ")",
                trace=trace, reason=reason)
        final = trace.final_answer()
        assert final is not None
        tools_used = ", ".join(dict.fromkeys(env.tools_used)) or "none"
        pipelines = ", ".join(env.derived_context_ids) or "none"
        description = (ctx.description
                       + f"\n\n[compute] instruction: {instruction}\n"
                         f"answer: {final.text}\n"
                         f"tools used: {tools_used}\n"
                         f"pipelines run: {pipelines}")
        derived = context_derive(ctx, instruction, description, operator="compute")
        if self.store is not None:
            self.store.register(derived, instruction=instruction)
        trace.derived_context_ids.append(derived.id)
        return ComputeResult(answer_text=final.text, answer_value=final.value,
                             context=derived, trace=trace)

    def search(self, ctx: Context, instruction: str,
               config: AgentConfig) -> SearchResult:
        """Run the agent to gather findings; step-limit yields a partial context."""
        env = self._env(ctx)
        trace = self.run(instruction, ctx, config, env=env)
        if trace.outcome == "aborted":
            raise SearchError(
                f"search aborted ({trace.abort_reason or 'unknown'})",
                trace=trace, reason=trace.abort_reason)
        partial = trace.outcome == "step-limit"
        findings = []
        for step in trace.steps:
            if isinstance(step.action, ToolCall):
                obs = step.observation.replace("\n", " ")[:200]
                findings.append(f"- step {step.index}: {step.action.tool} -> {obs}")
            elif isinstance(step.action, FinalAnswer):
                findings.append(f"- answer: {step.action.text}")
        description = (ctx.description
                       + f"\n\n[search] instruction: {instruction}\n"
                         f"status: {'partial' if partial else 'complete'}\n"
                         "findings:\n" + ("\n".join(findings) or "- none"))
        derived = context_derive(ctx, instruction, description, operator="search")
        if self.store is not None:
            self.store.register(derived, instruction=instruction)
        trace.derived_context_ids.append(derived.id)
        return SearchResult(context=derived, trace=trace, partial=partial)


def make_stage_runner(runtime: AgentRuntime,
                      max_steps: int = DEFAULT_MAX_STEPS,
                      cost_budget: float | None = None):
    """Adapter letting pipelines host compute/search operators: the engine
    calls back into an agent run bound to the operator's chosen model."""

    def runner(kind: str, instruction: str, ctx: Context,
               model: ModelSpec) -> AgentStageResult:
        config = AgentConfig(model=model, max_steps=max_steps,
                             cost_budget=cost_budget)
        if kind == "compute":
            result = runtime.compute(ctx, instruction, config)
            out_ctx, trace = result.context, result.trace
            answer_text, answer_value = result.answer_text, result.answer_value
        else:
            result = runtime.search(ctx, instruction, config)
            out_ctx, trace = result.context, result.trace
            answer_text, answer_value = None, None
        return AgentStageResult(
            context=out_ctx,
            answer_text=answer_text,
            answer_value=answer_value,
            calls=trace.usage.calls,
            usage=Usage(trace.usage.input_tokens, trace.usage.output_tokens),
            wall_seconds=trace.usage.wall_seconds,
        )

    return runner
