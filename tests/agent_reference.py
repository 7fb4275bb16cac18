"""Reference copy of ``AgentRuntime.run`` as it was before each agent step
got one exit: a step appended at three sites, the outcome set at four, the
budget through an ``over_budget`` flag and the step limit through
``for ... else``.

``tests/test_agent_oracle.py`` checks ``semaq.agent.AgentRuntime.run``
against it.  The body of ``run`` is the earlier code, verbatim; keep it that
way.
"""

from __future__ import annotations

from semaq.agent import (_CORRECTIVE, AgentConfig, AgentRuntime, AgentStep,
                         AgentTrace, FinalAnswer, ToolEnv, _ActionParseError,
                         logger, parse_action, render_system_prompt,
                         truncate_observation)
from semaq.backend import ChatMessage
from semaq.core import Context, require_unicode
from semaq.errors import ValidationError


class ReferenceAgentRuntime(AgentRuntime):
    """An :class:`AgentRuntime` that drives the earlier action loop."""

    def run(self, instruction: str, ctx: Context, config: AgentConfig,
            env: ToolEnv | None = None) -> AgentTrace:
        """Drive the action loop until final answer, step limit, or abort."""
        if not instruction.strip():
            raise ValidationError("instruction must be non-empty")
        require_unicode(instruction, "instruction")
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
                # escaped, so a reply UTF-8 cannot encode still leaves a
                # trace that can be written
                quoted = raw[:200].encode("utf-8", "backslashreplace").decode("utf-8")
                trace.steps.append(AgentStep(
                    index=step_index, thought="", action=None,
                    observation="error: action-parse: no parseable action after "
                                f"{config.reask_limit + 1} attempts; last reply "
                                f"(truncated): {quoted}"))
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
        return trace
