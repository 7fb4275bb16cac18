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
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .backend import ChatMessage, ModelSpec, Tally, Usage, call_cost
from .core import (Context, FieldValue, ToolParam, ToolSpec, context_derive,
                   context_iterate, context_topk, load_json, record_text,
                   require_unicode, validate_field_value)
from .engine import (AgentRunner, ExecutionReport, RunPolicy, pipeline_execute,
                     preview_records)
from .errors import (ComputeError, ConfigurationError, DataAccessError,
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


@dataclass(kw_only=True)
class AgentUsage(Tally):
    """A trace's tally, and its cost summed call by call rather than priced
    from the totals: the pinned bench traces hold that sum's float."""

    cost: float = 0.0

    def add(self, usage: Usage, model: ModelSpec) -> None:
        super().add(usage, 1, model.latency_prior)
        self.cost += call_cost(model, usage)

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
        if self.cost_budget is not None and not self.cost_budget >= 0:
            raise ValidationError(f"cost_budget must be >= 0, got {self.cost_budget}")
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
    doc = load_json(blocks[0], "action block is not valid JSON", error=_ActionParseError)
    if not isinstance(doc, dict):
        raise _ActionParseError("action block must be a JSON object")
    try:
        require_unicode(json.dumps(doc, ensure_ascii=False), "action text")
    except ValidationError as exc:
        raise _ActionParseError(str(exc)) from None
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
    64-bit float.  Anything else, nesting too deep to parse, an integer past
    float range and a result that is not finite included, is rejected."""

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
        value = float(walk(ast.parse(expression, mode="eval")))
    except SyntaxError as exc:
        raise ValidationError(f"not a valid expression: {exc.msg}") from exc
    except ZeroDivisionError as exc:
        raise ValidationError("division by zero") from exc
    except OverflowError as exc:
        raise ValidationError("an integer literal is past float range") from exc
    except (RecursionError, MemoryError) as exc:
        raise ValidationError("expression is nested too deeply") from exc
    if not math.isfinite(value):
        raise ValidationError(f"result is not finite: {value!r}")
    return value


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
    diagnostics = validate_plan(plan, target)
    if diagnostics:
        raise ValidationError("; ".join(d.message for d in diagnostics))
    chosen, opt_report = optimize(plan, target, env.models, env.policy,
                                  env.sample_size, env.backend,
                                  run_policy=env.run_policy)
    out_ctx, report = pipeline_execute(chosen, target, env.backend,
                                       policy=env.run_policy, store=env.store)
    if env.store is not None:
        env.store.register(out_ctx, instruction=text)
    env.refs[out_ctx.id] = out_ctx
    env.derived_context_ids.append(out_ctx.id)
    env.pipeline_reports.append((opt_report, report))
    return (f"pipeline {report.plan_id} executed: {report.records_in} -> "
            f"{report.records_out} records; semantic calls "
            f"{report.total_calls}; cost {report.total_cost:.6f}; "
            f"derived context {out_ctx.id}\npreview:\n"
            + (preview_records(out_ctx.source) or "(no records)"))


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


def check_instruction(instruction: str) -> None:
    """Reject an instruction the agent cannot run: empty, or text that is
    not valid Unicode."""
    if not instruction.strip():
        raise ValidationError("instruction must be non-empty")
    require_unicode(instruction, "instruction")


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
class AgentResult:
    """One agent run as a ``compute`` or ``search`` operator: the derived
    context, the run's trace, the final answer (compute only), and whether a
    search stopped at the step limit."""

    context: Context
    trace: AgentTrace
    answer_text: str | None = None
    answer_value: FieldValue | None = None
    partial: bool = False


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
                       refs={"ctx": ctx, **self.refs},
                       pipeline_reports=self.pipeline_reports)

    def run(self, instruction: str, ctx: Context, config: AgentConfig,
            env: ToolEnv | None = None) -> AgentTrace:
        """Drive the action loop until final answer, step limit, or abort."""
        check_instruction(instruction)
        registry = self._registry(ctx)
        env = env if env is not None else self._env(ctx)
        trace = AgentTrace(instruction=instruction, model_id=config.model.model_id,
                           outcome="step-limit",
                           derived_context_ids=env.derived_context_ids)
        messages: list[ChatMessage] = [
            ChatMessage("system", render_system_prompt(ctx, tuple(registry.values()))),
            ChatMessage("user", instruction),
        ]

        for step_index in range(config.max_steps):
            thought, action, raw = "", None, ""
            for attempt in range(config.reask_limit + 1):
                if (config.cost_budget is not None
                        and trace.usage.cost >= config.cost_budget):
                    trace.outcome, trace.abort_reason = "aborted", "budget"
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
            if trace.outcome == "aborted":  # the budget ran out: no step
                break
            if action is None:
                # escaped, so a reply UTF-8 cannot encode still leaves a
                # trace that can be written
                quoted = raw[:200].encode("utf-8", "backslashreplace").decode("utf-8")
                observation = ("error: action-parse: no parseable action after "
                               f"{config.reask_limit + 1} attempts; last reply "
                               f"(truncated): {quoted}")
                trace.outcome, trace.abort_reason = "aborted", "action-parse"
            elif isinstance(action, FinalAnswer):
                observation, trace.outcome = "", "answered"
            else:
                observation = truncate_observation(
                    self._invoke_tool(registry, env, action))
                messages = messages + [
                    ChatMessage("assistant", raw),
                    ChatMessage("tool", f"Observation: {observation}"),
                ]
            trace.steps.append(AgentStep(index=step_index, thought=thought,
                                         action=action, observation=observation))
            if trace.outcome != "step-limit":
                break
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
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            return f"error: validation-error: bad arguments: {exc}"

    # --- compute and search ----------------------------------------------------

    def compute(self, ctx: Context, instruction: str,
                config: AgentConfig) -> AgentResult:
        """Run the agent to a final answer and derive an answer context."""
        return self.operate("compute", ctx, instruction, config)

    def search(self, ctx: Context, instruction: str,
               config: AgentConfig) -> AgentResult:
        """Run the agent to gather findings; step-limit yields a partial context."""
        return self.operate("search", ctx, instruction, config)

    def operate(self, kind: str, ctx: Context, instruction: str,
                config: AgentConfig) -> AgentResult:
        """Run the agent as a ``compute`` (must answer) or ``search`` (must not
        abort) operator, then derive, register and record the output context."""
        if kind not in ("compute", "search"):
            raise ValidationError(f"unknown agent operator kind {kind!r}")
        env = self._env(ctx)
        trace = self.run(instruction, ctx, config, env=env)
        final, partial = None, False
        if kind == "compute":
            if trace.outcome != "answered":
                raise ComputeError(
                    f"compute did not reach an answer ({trace.outcome}"
                    + (f": {trace.abort_reason}" if trace.abort_reason else "") + ")",
                    trace=trace, reason=trace.abort_reason or trace.outcome)
            final = trace.final_answer()
            tools_used = ", ".join(dict.fromkeys(env.tools_used)) or "none"
            pipelines = ", ".join(env.derived_context_ids) or "none"
            body = (f"answer: {final.text}\n"
                    f"tools used: {tools_used}\n"
                    f"pipelines run: {pipelines}")
        else:
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
            body = (f"status: {'partial' if partial else 'complete'}\n"
                    "findings:\n" + ("\n".join(findings) or "- none"))
        description = (ctx.description
                       + f"\n\n[{kind}] instruction: {instruction}\n" + body)
        derived = context_derive(ctx, instruction, description, operator=kind)
        if self.store is not None:
            self.store.register(derived, instruction=instruction)
        trace.derived_context_ids.append(derived.id)
        return AgentResult(derived, trace, final and final.text,
                           final and final.value, partial)


def make_stage_runner(runtime: AgentRuntime,
                      max_steps: int = DEFAULT_MAX_STEPS,
                      cost_budget: float | None = None) -> AgentRunner:
    """Let pipelines host compute/search operators: the engine calls back
    into an agent run bound to the operator's chosen model."""

    def runner(kind: str, instruction: str, ctx: Context,
               model: ModelSpec) -> AgentResult:
        return runtime.operate(kind, ctx, instruction,
                               AgentConfig(model=model, max_steps=max_steps,
                                           cost_budget=cost_budget))

    return runner
