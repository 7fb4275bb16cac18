"""Oracle: ``AgentRuntime.run`` against its reference copy.

``tests/agent_reference.py`` keeps the action loop as it was before each
step got one exit.  Both loops run the same seeded scripts of agent replies
(tool calls, final answers, garbage, two fenced blocks, non-JSON, unknown
tools, missing arguments) under step limits 1-6, re-ask limits 0-3 and cost
budgets that trip partway through a run, each on its own mock backend.
They must write byte-equal traces, send the same prompts and leave equal
ledgers.
"""

import json
import random
from collections import Counter

import pytest

from semaq import (AgentConfig, AgentRuntime, MinCost, MockBackend, MockRule,
                   MockScript, ToolParam, ToolSpec, VectorIndex, context_create,
                   hashing_embed, make_source_record)
from tests.agent_reference import ReferenceAgentRuntime
from tests.conftest import CHEAP, STRONG

SEEDS_PER_BLOCK = 60

_TEXTS = ["alpha report on mergers", "beta memo on staffing",
          "gamma summary of filings", "delta notes on audits"]


class _Recording:
    """A mock backend that keeps every prompt it is sent."""

    in_process = True

    def __init__(self, rules):
        self.inner = MockBackend(MockScript(rules), {"cheap": CHEAP, "strong": STRONG})
        self.ledger = self.inner.ledger
        self.prompts = []

    def chat(self, model_id, messages, temperature=0.0):
        self.prompts.append((model_id, [(m.role, m.content) for m in messages],
                             temperature))
        return self.inner.chat(model_id, messages, temperature)


def _fenced(doc):
    return "```json\n" + json.dumps(doc) + "\n```"


def _reply(rng, ids):
    """One agent reply, drawn from every shape the loop must handle."""
    tool_args = rng.choice([
        ("evaluate", {"expression": rng.choice(["1 + 2 * 3", "(4 - 1) / 3",
                                                "2 ** 8", "1 / 0"])}),
        ("list_sources", {}),
        ("read_source", {"id": rng.choice(ids + ["r-missing"]),
                         "offset": rng.randrange(3), "length": rng.randrange(1, 9)}),
        ("read_source", {"id": rng.choice(ids), "offset": "abc"}),
        ("index_search", {"query": rng.choice(_TEXTS), "k": rng.randrange(1, 4)}),
        ("run_pipeline", {"pipeline": 'scan(ctx) | sem_filter("about audits") '
                                      f"| limit({rng.randrange(1, 4)})"}),
        ("run_pipeline", {"pipeline": "scan(nowhere)"}),
        ("echo", {"size": rng.choice([10, 7999, 8000, 8001, 20000])}),
        ("read_source", {}),  # a missing argument
        ("drop_table", {"name": "x"}),  # an unknown tool
    ])
    shapes = [
        lambda: _fenced({"thought": f"step {rng.random():.3f}", "tool": tool_args[0],
                         "args": tool_args[1]}),
        lambda: _fenced({"tool": tool_args[0], "args": tool_args[1]}),  # no thought
        lambda: "Let me think.\n" + _fenced({"thought": "t", "tool": tool_args[0],
                                             "args": tool_args[1]}),
        lambda: _fenced({"thought": "done", "final_answer": "the answer"}),
        lambda: _fenced({"thought": "done", "final_answer": {
            "text": "counted", "value": rng.choice([None, 3, 2.5, "x", [1, 2], True])}}),
        lambda: "no action at all",
        lambda: _fenced({"thought": "a"}) + "\n" + _fenced({"thought": "b"}),
        lambda: "```json\n{not json\n```",
        lambda: _fenced([1, 2, 3]),
        lambda: _fenced({"thought": "both", "tool": "list_sources",
                         "final_answer": "x"}),
        lambda: _fenced({"thought": "bad args", "tool": "list_sources", "args": [1]}),
        lambda: _fenced({"final_answer": {"value": 1}}),
    ]
    weights = [6, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    return rng.choices(shapes, weights)[0]()


def _case(seed):
    """The replies, step limit, re-ask limit and model of one seeded run."""
    rng = random.Random(seed)
    max_steps, reask_limit = rng.randint(1, 6), rng.randint(0, 3)
    records = [make_source_record({"text": t}, origin=f"{i}#0")
               for i, t in enumerate(_TEXTS)]
    replies = [_reply(rng, [r.id for r in records])
               for _ in range(max_steps * (reask_limit + 1))]
    model = rng.choice([CHEAP, STRONG])
    return rng, records, replies, max_steps, reask_limit, model


def _run(runtime_type, records, replies, config):
    rules = [MockRule("AVAILABLE TOOLS", reply, "substring", 1) for reply in replies]
    backend = _Recording(rules + [MockRule("PREDICATE", "yes")])
    echo = ToolSpec(name="echo", description="Repeat a letter size times.",
                    params=(ToolParam("size", "number"),),
                    handler=lambda env, args: "x" * int(args["size"]))
    ctx = context_create(records, "Four memos for triage.",
                         index=VectorIndex.build(records, hashing_embed), tools=(echo,))
    runtime = runtime_type(backend, models=[CHEAP, STRONG],
                           policy=MinCost(quality_floor=0.0))
    trace = runtime.run("How many memos are about audits?", ctx, config)
    return trace, backend


@pytest.mark.parametrize("block", range(10))
def test_run_matches_the_reference_loop(block):
    outcomes = Counter()
    for seed in range(block * SEEDS_PER_BLOCK, (block + 1) * SEEDS_PER_BLOCK):
        rng, records, replies, max_steps, reask_limit, model = _case(seed)
        config = AgentConfig(model=model, max_steps=max_steps, reask_limit=reask_limit)
        full, _ = _run(ReferenceAgentRuntime, records, replies, config)
        # a budget that trips partway through the run, at its start, or never
        budget = rng.choice([None, 0.0, rng.uniform(0, full.usage.cost),
                             rng.uniform(0, full.usage.cost)])
        config = AgentConfig(model=model, max_steps=max_steps, reask_limit=reask_limit,
                             cost_budget=budget)
        expected, reference = _run(ReferenceAgentRuntime, records, replies, config)
        got, backend = _run(AgentRuntime, records, replies, config)
        assert got.to_json() == expected.to_json(), seed
        assert backend.prompts == reference.prompts, seed
        assert backend.ledger.snapshot() == reference.ledger.snapshot(), seed
        outcomes[got.outcome, got.abort_reason] += 1
    # every way a run ends is reached in each block
    assert set(outcomes) == {("answered", ""), ("step-limit", ""),
                             ("aborted", "budget"), ("aborted", "action-parse")}, outcomes
