"""Optimizer: statistics, enumeration, cost estimation, policy choice.

The estimate and frontier oracle runs its seeds from ``SEMAQ_OPTIMIZER_SEEDS``
(default ``0``)::

    SEMAQ_OPTIMIZER_SEEDS=1,2,3 python -m pytest -q tests/test_optimizer.py
"""

import ast
import json
import os
import random
import re
from pathlib import Path

import pytest

from semaq import (EstimationError, MaxQuality, MinCost, OperatorStats,
                   PolicyInfeasibleError, StatsError, ValidationError,
                   Weighted, choose_plan, context_create,
                   enumerate_physical_plans, estimate, make_source_record,
                   optimize, parse_pipeline, parse_policy, prior_stats,
                   sample_stats)
from semaq.backend import (MAX_POOL_WIDTH, ChatMessage, ModelSpec, Usage,
                           backend_fingerprint, call_cost)
from semaq.engine import (RunPolicy, _AnswerLog, bind_plan, render_filter_prompt,
                          render_map_prompt)
from semaq.lang import (Compute, Limit, Project, Scan, SemFilter, SemMap,
                        is_semantic, make_plan)
from semaq.optimizer import (NOMINAL_INPUT_TOKENS, NOMINAL_OUTPUT_TOKENS,
                             StatsEntry, _ranking)
from tests import estimate_reference
from tests.conftest import CHEAP, STRONG

FILTER_MAP = 'scan(d) | sem_filter("keep") | sem_map("derive", {a: text})'
SEEDS = [int(s) for s in os.environ.get("SEMAQ_OPTIMIZER_SEEDS", "0").split(",")]


def _entry(sel=None, quality=0.9, cost=0.001, latency=1.0, n=0):
    return StatsEntry(selectivity=sel, quality=quality, cost_per_record=cost,
                      latency_per_record=latency, sample_size=n)


def _worked_example():
    """Two models over filter(sel 0.2) + map at N=100."""
    plan = parse_pipeline(FILTER_MAP)
    cheap = ModelSpec("cheap", 0.0004, 0.0008, 0.80, 0.5)
    strong = ModelSpec("strong", 0.002, 0.004, 0.95, 1.0)
    stats = OperatorStats({
        (1, "cheap"): _entry(sel=0.2, quality=0.80, cost=0.0001, latency=0.5),
        (1, "strong"): _entry(sel=0.2, quality=0.95, cost=0.002, latency=1.0),
        (2, "cheap"): _entry(quality=0.80, cost=0.0001, latency=0.5),
        (2, "strong"): _entry(quality=0.95, cost=0.002, latency=1.0),
    })
    candidates = enumerate_physical_plans(plan, [cheap, strong])
    estimates = [estimate(c, stats, 100) for c in candidates]
    return candidates, estimates


# --- statistics ------------------------------------------------------------------

def test_prior_stats_nominal_arithmetic():
    plan = parse_pipeline(FILTER_MAP)
    stats = prior_stats(plan, [CHEAP])
    flt = stats.get(1, "cheap")
    assert flt.selectivity == 0.5 and flt.quality == 0.80
    assert flt.sample_size == 0 and flt.latency_per_record == 0.5
    expected_filter = (NOMINAL_INPUT_TOKENS / 1000 * 0.0004
                       + NOMINAL_OUTPUT_TOKENS["filter"] / 1000 * 0.0008)
    assert flt.cost_per_record == pytest.approx(expected_filter, abs=1e-12)
    mp = stats.get(2, "cheap")
    assert mp.selectivity is None
    expected_map = (NOMINAL_INPUT_TOKENS / 1000 * 0.0004
                    + NOMINAL_OUTPUT_TOKENS["map"] / 1000 * 0.0008)
    assert mp.cost_per_record == pytest.approx(expected_map, abs=1e-12)


def test_prior_stats_agentic_entry():
    plan = parse_pipeline('scan(d) | compute("answer this")')
    entry = prior_stats(plan, [CHEAP]).get(1, "cheap")
    assert entry.cost_per_record == 0.0
    assert entry.latency_per_record == 0.5
    assert entry.quality == 0.80


def test_stats_missing_pair_is_loud():
    stats = OperatorStats({})
    with pytest.raises(EstimationError, match=r"operator 1 under model 'cheap'"):
        stats.get(1, "cheap")


def _sample_ctx(n=20, hits=5):
    records = [make_source_record(
        {"text": f"row {i:02d} {'hit' if i < hits else 'pass-through'}"},
        origin=f"{i}#0") for i in range(n)]
    return context_create(records, "sample docs"), records


def test_sample_stats_selectivity_and_call_counts(mk_backend, catalog):
    ctx, _ = _sample_ctx()
    backend = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    plan = parse_pipeline(FILTER_MAP)
    stats = sample_stats(plan, ctx, list(catalog.values()), 20, backend)
    # 20 records x 2 models x 2 ops, one call each
    assert backend.ledger.snapshot().total_calls == 80
    for model_id in ("cheap", "strong"):
        assert stats.get(1, model_id).selectivity == pytest.approx(0.25)
        assert stats.get(1, model_id).sample_size == 20
        assert stats.get(2, model_id).selectivity is None
        # unlabeled sampling keeps the prior as quality
        assert stats.get(1, model_id).quality == catalog[model_id].quality_prior


def test_sample_stats_cost_matches_ledger_delta(mk_backend, catalog):
    ctx, _ = _sample_ctx()
    backend = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    plan = parse_pipeline(FILTER_MAP)
    stats = sample_stats(plan, ctx, list(catalog.values()), 20, backend)
    reconstructed = sum(entry.cost_per_record * entry.sample_size
                        for _, entry in stats.items())
    assert reconstructed == pytest.approx(
        backend.ledger.snapshot().total_cost, abs=1e-9)


def test_sample_stats_labeled_agreement(mk_backend, catalog):
    ctx, records = _sample_ctx()
    backend = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    plan = parse_pipeline(FILTER_MAP)
    exact = {r.id: "hit" in r.fields["text"] for r in records}
    all_yes = {r.id: True for r in records}
    labels = {1: exact, 2: {r.id: {"a": "v"} for r in records}}
    stats = sample_stats(plan, ctx, [CHEAP], 20, backend, labels=labels)
    assert stats.get(1, "cheap").quality == pytest.approx(1.0)
    assert stats.get(2, "cheap").quality == pytest.approx(1.0)
    backend2 = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                          ("PREDICATE", "no"))
    stats2 = sample_stats(plan, ctx, [CHEAP], 20, backend2,
                          labels={1: all_yes, 2: {r.id: {"a": "x"}
                                                  for r in records}})
    assert stats2.get(1, "cheap").quality == pytest.approx(0.25)
    assert stats2.get(2, "cheap").quality == pytest.approx(0.0)


def test_sample_stats_clamps_to_population(mk_backend):
    ctx, _ = _sample_ctx(n=3, hits=1)
    backend = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    plan = parse_pipeline(FILTER_MAP)
    stats = sample_stats(plan, ctx, [CHEAP], 10, backend)
    assert stats.get(1, "cheap").sample_size == 3
    assert backend.ledger.snapshot().total_calls == 6


def test_sample_stats_errors(mk_backend):
    plan = parse_pipeline(FILTER_MAP)
    empty = context_create([], "empty set")
    with pytest.raises(StatsError):
        sample_stats(plan, empty, [CHEAP], 5, mk_backend())
    ctx, _ = _sample_ctx(n=2)
    with pytest.raises(ValidationError):
        sample_stats(plan, ctx, [CHEAP], 0, mk_backend())


_RULES = (("INSTRUCTION", "a: v"), ("hit", "yes"), ("PREDICATE", "no"))


def test_sample_stats_do_not_depend_on_the_backends_earlier_calls(mk_backend, catalog):
    """Sampling a plan on a backend that already answered other prompts on
    the same models gives the statistics of a fresh backend, bit for bit."""
    ctx, _ = _sample_ctx()
    plan = parse_pipeline(FILTER_MAP)
    models = list(catalog.values())
    fresh = sample_stats(plan, ctx, models, 20, mk_backend(*_RULES)).to_dict()
    for earlier in (1, 2, 3, 7, 50):
        backend = mk_backend(*_RULES)
        for i in range(earlier):
            backend.chat(models[i % 2].model_id,
                         [ChatMessage("user", f"PREDICATE: earlier {i} " * (i + 1))])
        assert sample_stats(plan, ctx, models, 20, backend).to_dict() == fresh, earlier


class _SharedBackend:
    """A backend shared with another caller, which makes one call of its
    own on the same backend, and so on its ledger, just before the third
    chat."""

    def __init__(self, inner):
        self.inner = inner
        self.ledger = inner.ledger
        self.chats = 0

    def chat(self, model_id, messages, temperature=0.0):
        self.chats += 1
        if self.chats == 3:
            self.inner.chat(model_id, [ChatMessage("user", "PREDICATE: another caller")])
        return self.inner.chat(model_id, messages, temperature)


def test_sampling_counts_only_its_own_calls_on_a_shared_backend(mk_backend, catalog):
    ctx, _ = _sample_ctx()
    plan = parse_pipeline(FILTER_MAP)
    models = list(catalog.values())
    policy = MaxQuality(cost_budget=100.0)
    _, plain = optimize(plan, ctx, models, policy, 5, mk_backend(*_RULES))
    inner = mk_backend(*_RULES)
    _, shared = optimize(plan, ctx, models, policy, 5, _SharedBackend(inner))
    assert inner.ledger.snapshot().total_calls == 21
    assert shared.sample_calls == plain.sample_calls == 20
    assert shared.stats == plain.stats
    bare = _SharedBackend(mk_backend(*_RULES))
    del bare.ledger  # neither optimize nor sample_stats needs one
    _, report = optimize(plan, ctx, models, policy, 5, bare)
    assert report.stats == plain.stats and report.sample_calls == 20
    bare = _SharedBackend(mk_backend(*_RULES))
    del bare.ledger
    stats = sample_stats(plan, ctx, models, 5, bare)
    assert stats.to_dict() == plain.stats and stats.calls == 20


def test_a_sampled_failure_is_priced_and_counted_but_not_answered(mk_backend):
    """Record 01's filter reply does not parse.  Its call's tokens are in
    the cost per record and its call in the latency per record and in
    ``sample_calls``; the record is in neither the answers nor the passes."""
    ctx, records = _sample_ctx(n=8, hits=3)
    backend = mk_backend((r"PREDICATE[\s\S]*row 01 hit", "perhaps", "regex"), *_RULES)
    plan = parse_pipeline('scan(d) | sem_filter("keep")')
    chosen, report = optimize(plan, ctx, [CHEAP], MinCost(quality_floor=0.0), 6, backend)
    spent = backend.ledger.snapshot().for_model("cheap")  # sampling's calls only
    entry = report.stats["1:cheap"]
    assert spent.calls == report.sample_calls == 6
    assert entry["cost_per_record"] == call_cost(
        CHEAP, Usage(spent.input_tokens, spent.output_tokens)) / 6
    assert entry["latency_per_record"] == 6 * CHEAP.latency_prior / 6
    assert entry["selectivity"] == 2 / 6  # rows 00 and 02; row 01 failed
    log = _AnswerLog(None, backend_fingerprint(backend))
    asked = [("cheap", log.digest(render_filter_prompt(r, "keep"))) for r in records[:6]]
    assert set(chosen.answers) == set(asked) - {asked[1]}


# --- enumeration -------------------------------------------------------------------

def test_enumerate_counts(catalog):
    models = list(catalog.values())
    assert len(enumerate_physical_plans(parse_pipeline(FILTER_MAP), models)) == 4
    assert len(enumerate_physical_plans(parse_pipeline("scan(d) | limit(5)"),
                                        models)) == 1
    three = [CHEAP, STRONG, ModelSpec("mid", 0.001, 0.002, 0.9, 0.7)]
    tri_plan = parse_pipeline(
        'scan(d) | sem_filter("a") | sem_filter("b") | sem_map("c", {x: text})')
    assert len(enumerate_physical_plans(tri_plan, three)) == 27


def test_enumerate_order_and_ids_deterministic(catalog):
    models = list(catalog.values())
    plans = enumerate_physical_plans(parse_pipeline(FILTER_MAP), models)
    assignments = [tuple(sorted(p.model_assignment().items())) for p in plans]
    assert assignments == [
        ((1, "cheap"), (2, "cheap")), ((1, "cheap"), (2, "strong")),
        ((1, "strong"), (2, "cheap")), ((1, "strong"), (2, "strong")),
    ]
    assert len({p.plan_id for p in plans}) == 4


def test_enumerate_empty_catalog_rejected():
    with pytest.raises(ValidationError):
        enumerate_physical_plans(parse_pipeline(FILTER_MAP), [])


# --- estimation --------------------------------------------------------------------

def test_estimate_worked_example():
    candidates, estimates = _worked_example()
    by_models = {tuple(sorted(c.model_assignment().values())): e
                 for c, e in zip(candidates, estimates)}
    strong_strong = by_models[("strong", "strong")]
    assert strong_strong.cost == pytest.approx(0.24, abs=1e-9)
    assert strong_strong.quality == pytest.approx(0.9025, abs=1e-12)


def test_estimate_selectivity_propagates_cardinality():
    candidates, estimates = _worked_example()
    est = estimates[-1]  # strong/strong
    assert [op.cardinality_in for op in est.per_op] == [100.0, 20.0]


def test_estimate_no_semantic_ops():
    plan = parse_pipeline("scan(d) | limit(3) | project(text)")
    bound = enumerate_physical_plans(plan, [CHEAP])[0]
    est = estimate(bound, OperatorStats({}), 100)
    assert est.cost == 0.0 and est.quality == 1.0 and est.latency == 0.0


def test_estimate_limit_caps_cardinality():
    plan = parse_pipeline('scan(d) | limit(7) | sem_map("m", {a: text})')
    bound = enumerate_physical_plans(plan, [CHEAP])[0]
    stats = OperatorStats({(2, "cheap"): _entry(cost=0.01)})
    est = estimate(bound, stats, 100)
    assert est.cost == pytest.approx(0.07)


def test_estimate_latency_divides_by_pool():
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    bound = enumerate_physical_plans(plan, [CHEAP])[0]
    stats = OperatorStats({(1, "cheap"): _entry(sel=0.5, latency=1.0)})
    assert estimate(bound, stats, 100, pool_width=1).latency == pytest.approx(100.0)
    assert estimate(bound, stats, 100, pool_width=4).latency == pytest.approx(25.0)


def test_estimate_agentic_charged_once():
    plan = parse_pipeline('scan(d) | compute("answer")')
    bound = enumerate_physical_plans(plan, [CHEAP])[0]
    stats = prior_stats(plan, [CHEAP])
    small = estimate(bound, stats, 5)
    large = estimate(bound, stats, 5000)
    assert small.cost == large.cost
    assert small.latency == large.latency == 0.5


def test_estimate_missing_entry_names_pair():
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    bound = enumerate_physical_plans(plan, [STRONG])[0]
    with pytest.raises(EstimationError, match=r"operator 1 under model 'strong'"):
        estimate(bound, OperatorStats({}), 10)


def test_estimate_rejects_negative_cardinality():
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    bound = enumerate_physical_plans(plan, [CHEAP])[0]
    with pytest.raises(ValidationError):
        estimate(bound, prior_stats(plan, [CHEAP]), -1)


@pytest.mark.parametrize("width", [0, -1, MAX_POOL_WIDTH + 1])
def test_estimate_rejects_a_pool_width_a_run_cannot_have(width):
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    bound = enumerate_physical_plans(plan, [CHEAP])[0]
    with pytest.raises(ValidationError, match="pool_width"):
        estimate(bound, prior_stats(plan, [CHEAP]), 10, pool_width=width)


def _scopes(tree):
    """Each ``Class.method`` (or function) of ``tree`` with its own nodes,
    those of nested functions and classes left to their own scope."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        found.setdefault(scope, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_the_search_node_is_the_one_cost_rule_and_accumulator():
    """Only the search node's ``extend`` charges a position (reads
    ``cost_per_record``), and ``estimate`` keeps no running sum of its own."""
    import semaq.optimizer as optimizer_mod

    tree = ast.parse(Path(optimizer_mod.__file__).read_text(encoding="utf-8"))
    scopes = _scopes(tree)
    chargers = {scope for scope, nodes in scopes.items()
                if any(isinstance(n, ast.Attribute) and n.attr == "cost_per_record"
                       for n in nodes)}
    assert chargers == {"_Partial.extend"}
    assert not any(isinstance(n, ast.AugAssign) for n in scopes["estimate"])


# --- policy choice ------------------------------------------------------------------

def test_choose_min_cost_respects_quality_floor():
    candidates, estimates = _worked_example()
    chosen = choose_plan(candidates, estimates, MinCost(quality_floor=0.9))
    assert chosen.model_assignment() == {1: "strong", 2: "strong"}


def test_choose_min_cost_picks_cheapest_when_floor_is_low():
    candidates, estimates = _worked_example()
    chosen = choose_plan(candidates, estimates, MinCost(quality_floor=0.5))
    assert chosen.model_assignment() == {1: "cheap", 2: "cheap"}
    est = dict(zip([c.plan_id for c in candidates], estimates))[chosen.plan_id]
    assert est.cost == pytest.approx(0.012, abs=1e-12)


def test_choose_min_cost_infeasible_names_best_violator():
    candidates, estimates = _worked_example()
    with pytest.raises(PolicyInfeasibleError) as err:
        choose_plan(candidates, estimates, MinCost(quality_floor=0.99))
    strong_strong = next(c for c in candidates
                         if c.model_assignment() == {1: "strong", 2: "strong"})
    assert strong_strong.plan_id in str(err.value)
    assert "0.9025" in str(err.value)


def test_choose_max_quality_within_budget():
    candidates, estimates = _worked_example()
    chosen = choose_plan(candidates, estimates, MaxQuality(cost_budget=0.1))
    # affordable candidates: cheap/cheap (0.64) and cheap/strong (0.76)
    assert chosen.model_assignment() == {1: "cheap", 2: "strong"}


def test_choose_max_quality_infeasible_names_cheapest():
    candidates, estimates = _worked_example()
    with pytest.raises(PolicyInfeasibleError) as err:
        choose_plan(candidates, estimates, MaxQuality(cost_budget=0.0))
    cheap_cheap = next(c for c in candidates
                       if c.model_assignment() == {1: "cheap", 2: "cheap"})
    assert cheap_cheap.plan_id in str(err.value)
    assert "0.012000" in str(err.value)


def test_choose_weighted_score():
    candidates, estimates = _worked_example()
    pure_cost = choose_plan(candidates, estimates, Weighted(1.0, 0.0, 0.0))
    assert pure_cost.model_assignment() == {1: "cheap", 2: "cheap"}
    pure_quality = choose_plan(candidates, estimates, Weighted(0.0, 0.0, 1.0))
    assert pure_quality.model_assignment() == {1: "strong", 2: "strong"}


def test_choose_weighted_rejects_negative_weights():
    candidates, estimates = _worked_example()
    with pytest.raises(ValidationError):
        choose_plan(candidates, estimates, Weighted(-1.0, 0.0, 0.0))


def _tied_candidates(latencies=(1.0, 1.0), costs=(0.001, 0.001),
                     qualities=(0.9, 0.9)):
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    alpha = ModelSpec("alpha", 0.001, 0.001, 0.9, 1.0)
    beta = ModelSpec("beta", 0.001, 0.001, 0.9, 1.0)
    stats = OperatorStats({
        (1, "alpha"): _entry(sel=0.5, quality=qualities[0], cost=costs[0],
                             latency=latencies[0]),
        (1, "beta"): _entry(sel=0.5, quality=qualities[1], cost=costs[1],
                            latency=latencies[1]),
    })
    candidates = enumerate_physical_plans(plan, [alpha, beta])
    estimates = [estimate(c, stats, 10) for c in candidates]
    return candidates, estimates


def test_min_cost_tie_breaks_on_latency_then_plan_id():
    candidates, estimates = _tied_candidates(latencies=(2.0, 1.0))
    chosen = choose_plan(candidates, estimates, MinCost(0.0))
    assert chosen.model_assignment() == {1: "beta"}
    candidates, estimates = _tied_candidates()
    chosen = choose_plan(candidates, estimates, MinCost(0.0))
    assert chosen.plan_id == min(c.plan_id for c in candidates)


def test_max_quality_tie_breaks_on_cost_then_plan_id():
    candidates, estimates = _tied_candidates(costs=(0.002, 0.001))
    chosen = choose_plan(candidates, estimates, MaxQuality(1.0))
    assert chosen.model_assignment() == {1: "beta"}
    candidates, estimates = _tied_candidates()
    chosen = choose_plan(candidates, estimates, MaxQuality(1.0))
    assert chosen.plan_id == min(c.plan_id for c in candidates)


def test_weighted_tie_breaks_on_plan_id():
    candidates, estimates = _tied_candidates()
    chosen = choose_plan(candidates, estimates, Weighted(1.0, 1.0, 1.0))
    assert chosen.plan_id == min(c.plan_id for c in candidates)


def test_choose_plan_input_validation():
    candidates, estimates = _worked_example()
    with pytest.raises(ValidationError):
        choose_plan([], [], MinCost(0.0))
    with pytest.raises(ValidationError):
        choose_plan(candidates, estimates[:-1], MinCost(0.0))


def test_parse_policy_kinds():
    assert parse_policy({"kind": "min_cost", "quality_floor": 0.8}) == MinCost(0.8)
    assert parse_policy({"kind": "max_quality", "cost_budget": 2.5}) == MaxQuality(2.5)
    assert parse_policy({"kind": "weighted", "cost_weight": 1, "latency_weight": 0,
                         "quality_weight": 2}) == Weighted(1.0, 0.0, 2.0)
    policy = MinCost(0.9)
    assert parse_policy(policy) is policy


@pytest.mark.parametrize("doc", [
    "min_cost",
    {"kind": "min_cost"},
    {"kind": "mystery"},
    {"quality_floor": 0.5},
    # checked, not converted: strings, bools and non-finite numbers
    {"kind": "min_cost", "quality_floor": "0.8"},
    {"kind": "min_cost", "quality_floor": True},
    {"kind": "min_cost", "quality_floor": None},
    {"kind": "min_cost", "quality_floor": float("nan")},
    {"kind": "max_quality", "cost_budget": float("inf")},
    {"kind": "max_quality", "cost_budget": 10 ** 400},
    {"kind": "weighted", "cost_weight": 1, "latency_weight": "0",
     "quality_weight": 2},
    {"kind": "weighted", "cost_weight": 1, "latency_weight": 0,
     "quality_weight": False},
])
def test_parse_policy_rejects_malformed(doc):
    with pytest.raises(ValidationError):
        parse_policy(doc)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "min_cost", "quality_floor": "0.8"},
     "policy: bad value for 'quality_floor': expected a number, got '0.8'"),
    ({"kind": "max_quality", "cost_budget": float("inf")},
     "policy: bad value for 'cost_budget': expected a finite number, got inf"),
    ({"kind": "weighted", "cost_weight": 1, "latency_weight": 0},
     "policy: missing key 'quality_weight'"),
    ({"quality_floor": 0.5}, "policy: missing key 'kind'"),
    ("min_cost", "policy: expected a JSON object, got str"),
])
def test_parse_policy_reads_by_the_shared_json_rule(doc, message):
    with pytest.raises(ValidationError) as error:
        parse_policy(doc)
    assert str(error.value) == message


# --- end-to-end ---------------------------------------------------------------------

def test_optimize_zero_sample_makes_no_calls(mk_backend, catalog):
    ctx, _ = _sample_ctx()
    backend = mk_backend()  # empty script: any chat would be a mock miss
    plan = parse_pipeline(FILTER_MAP)
    chosen, report = optimize(plan, ctx, list(catalog.values()),
                              MinCost(quality_floor=0.0), 0, backend)
    assert backend.ledger.snapshot().total_calls == 0
    assert chosen.model_assignment() == {1: "cheap", 2: "cheap"}
    assert report.sample_size == 0 and report.input_cardinality == 20
    assert report.plans_considered == 4
    # strong-filter/cheap-map costs more and runs longer than cheap/strong
    # at the same quality, so the frontier drops it
    assert [row["models"] for row in report.candidates] == [
        {"1": "cheap", "2": "cheap"}, {"1": "cheap", "2": "strong"},
        {"1": "strong", "2": "strong"}]
    assert report.chosen_plan_id == chosen.plan_id
    assert "1:cheap" in report.stats and "2:strong" in report.stats


def test_optimize_sampled_end_to_end(mk_backend, catalog):
    ctx, _ = _sample_ctx()
    backend = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    plan = parse_pipeline(FILTER_MAP)
    chosen, report = optimize(plan, ctx, list(catalog.values()),
                              MaxQuality(cost_budget=100.0), 5, backend)
    assert chosen.model_assignment() == {1: "strong", 2: "strong"}
    assert report.sample_size == 5
    rendered = report.render_text()
    assert f"chosen: {chosen.plan_id}" in rendered
    assert rendered.count("*") == 1
    assert "3 frontier plans of 4 model assignments" in rendered
    doc = json.loads(report.to_json())
    assert doc["chosen_plan_id"] == chosen.plan_id
    assert doc["plans_considered"] == 4
    # every sampled record passes the filter and the sampled map costs more
    # per record than the filter, so cheap-filter/strong-map is dominated
    assert [row["models"] for row in doc["candidates"]] == [
        {"1": "cheap", "2": "cheap"}, {"1": "strong", "2": "cheap"},
        {"1": "strong", "2": "strong"}]


def test_optimize_reports_its_sampling_calls_and_hands_over_the_answers(mk_backend,
                                                                        catalog):
    """``sample_calls`` is the ledger delta of sampling; the chosen plan
    carries the answers at its own (position, model) pairs only, and they
    stay out of its id and of equality."""
    ctx, records = _sample_ctx()
    backend = mk_backend(("INSTRUCTION", "a: v"), ("hit", "yes"),
                         ("PREDICATE", "no"))
    plan = parse_pipeline(FILTER_MAP)
    chosen, report = optimize(plan, ctx, list(catalog.values()),
                              MaxQuality(cost_budget=100.0), 5, backend)
    # 5 records x 2 operators x 2 models
    assert report.sample_calls == backend.ledger.snapshot().total_calls == 20
    assert report.to_dict()["sample_calls"] == 20
    assert "sampling made 20 model call(s)" in report.render_text()
    log = _AnswerLog(None, backend_fingerprint(backend))
    keep = [("strong", log.digest(render_filter_prompt(r, "keep"))) for r in records[:5]]
    derive = [("strong", log.digest(render_map_prompt(r, "derive", [("a", "text")])))
              for r in records[:5]]
    assert set(chosen.answers) == set(keep) | set(derive)
    assert chosen.answers[keep[0]] is True
    assert chosen.answers[derive[0]] == {"a": "v"}
    assert chosen == bind_plan(plan, {1: STRONG, 2: STRONG})
    _, zero = optimize(plan, ctx, list(catalog.values()),
                       MaxQuality(cost_budget=100.0), 0, backend)
    assert zero.sample_calls == 0 and "sampling made 0 model call(s)" in zero.render_text()


# --- frontier search against brute force -------------------------------------------

_ORACLE_CTX = {n: context_create(
    [make_source_record({"text": f"r{i}"}, origin=f"{i}#0") for i in range(n)],
    f"{n} records") for n in (0, 1, 7, 40, 250)}


def _pick(rng, coarse, specials, lo, hi):
    """A stat value: on a coarse grid (to force exact ties), a special edge
    value, or uniform in [lo, hi]."""
    if coarse:
        return rng.choice(specials)
    return rng.choice(specials) if rng.random() < 0.3 else rng.uniform(lo, hi)


def _oracle_case(rng):
    n_models = rng.randint(1, 4)
    models = [ModelSpec(f"m{i}", 0.001, 0.002, 0.9, 1.0) for i in range(n_models)]
    ops = [Scan("src")]
    for j in range(rng.randint(1, 4 if n_models <= 3 else 3)):
        kind = rng.choice(("filter", "map", "filter", "map", "compute"))
        if rng.random() < 0.25:
            ops.append(Limit(rng.choice((1, 5, 30))))
        if kind == "filter":
            ops.append(SemFilter(f"pred {j}"))
        elif kind == "map":
            ops.append(SemMap(f"derive {j}", ((f"out{j}", "text"),)))
        else:
            ops.append(Compute(f"answer {j}"))
    plan = make_plan(ops)
    coarse = rng.random() < 0.5
    entries = {}
    for idx, op in enumerate(plan.ops):
        if not is_semantic(op):
            continue
        for model in models:
            entries[(idx, model.model_id)] = StatsEntry(
                selectivity=(_pick(rng, coarse, (0.0, 0.5, 1.0), 0.0, 1.0)
                             if isinstance(op, SemFilter) else None),
                quality=_pick(rng, coarse, (0.0, 0.5, 0.8, 1.0), 0.0, 1.0),
                cost_per_record=_pick(rng, coarse, (0.0, 0.001, 0.002), 0.0, 0.01),
                latency_per_record=_pick(rng, coarse, (0.0, 0.5, 1.0), 0.0, 2.0),
                sample_size=0)
        if n_models > 1 and rng.random() < 0.3:  # two models with identical stats
            entries[(idx, models[1].model_id)] = entries[(idx, models[0].model_id)]
    roll = rng.randrange(3)
    if roll == 0:
        policy = MinCost(quality_floor=rng.choice((0.0, 0.5, 1.0, rng.random())))
    elif roll == 1:
        policy = MaxQuality(cost_budget=rng.choice((0.0, 0.05, rng.uniform(0.0, 1.0))))
    else:
        policy = Weighted(*(rng.choice((0.0, 1.0, rng.random())) for _ in range(3)))
    return (plan, models, OperatorStats(entries), rng.choice(sorted(_ORACLE_CTX)),
            policy, rng.choice((1, 8)))


def _winner_key_ties(candidates, estimates, policy):
    """How many feasible plans share the brute-force winner's policy key."""
    feasible, key = _ranking(policy)
    chosen = choose_plan(candidates, estimates, policy)
    target = key(estimates[candidates.index(chosen)])
    return sum(1 for e in estimates if feasible(e) and key(e) == target)


def test_frontier_matches_brute_force(monkeypatch):
    import semaq.optimizer as optimizer_mod

    rng = random.Random(3003)
    counts = {"chosen": 0, "infeasible": 0, "tied": 0, "pruned": 0}
    for _ in range(1200):
        plan, models, stats, n, policy, pool_width = _oracle_case(rng)
        monkeypatch.setattr(optimizer_mod, "prior_stats", lambda *_a, **_k: stats)
        candidates = enumerate_physical_plans(plan, models)
        estimates = [estimate(c, stats, n, pool_width) for c in candidates]
        run = lambda: optimize(plan, _ORACLE_CTX[n], models, policy, 0, None,
                               run_policy=RunPolicy(pool_width=pool_width))
        try:
            expected = choose_plan(candidates, estimates, policy)
        except PolicyInfeasibleError as brute_err:
            counts["infeasible"] += 1
            with pytest.raises(PolicyInfeasibleError) as err:
                run()
            # the named plan may differ only among plans with the same figure
            strip = lambda e: re.sub(r"pp-[0-9a-f]{12}", "pp-", str(e))
            assert strip(err.value) == strip(brute_err)
            continue
        counts["chosen"] += 1
        chosen, report = run()
        assert chosen.plan_id == expected.plan_id
        assert chosen.model_assignment() == expected.model_assignment()
        assert report.chosen_plan_id == expected.plan_id
        assert report.plans_considered == len(candidates)
        by_id = dict(zip([c.plan_id for c in candidates], estimates))
        for row in report.candidates:
            est = by_id[row["plan_id"]]
            assert (row["cost"], row["latency"], row["quality"]) == \
                (est.cost, est.latency, est.quality)
        counts["pruned"] += len(report.candidates) < len(candidates)
        counts["tied"] += _winner_key_ties(candidates, estimates, policy) > 1
    assert counts["infeasible"] >= 50 and counts["chosen"] >= 800
    assert counts["pruned"] >= 300 and counts["tied"] >= 100


def test_frontier_recovers_a_tie_lost_to_rounding(monkeypatch):
    """A strictly cheaper prefix can tie after a large later cost absorbs the
    gap; the plan-id tie-break must still see the dropped plan."""
    import semaq.optimizer as optimizer_mod

    plan = parse_pipeline('scan(d) | sem_map("a", {x: text}) | sem_map("b", {y: text})')
    # model names chosen so the dropped assignment has the lower plan id
    free, tiny = ModelSpec("nil", 0, 0, 0.9, 1.0), ModelSpec("tiny", 0, 0, 0.9, 1.0)
    stats = OperatorStats({
        (1, "nil"): _entry(cost=0.0, latency=1.0),
        (1, "tiny"): _entry(cost=1e-20, latency=1.0),
        (2, "nil"): _entry(cost=1.0, latency=1.0),
        (2, "tiny"): _entry(cost=1.0, latency=1.0),
    })
    monkeypatch.setattr(optimizer_mod, "prior_stats", lambda *_a, **_k: stats)
    models = [free, tiny]
    candidates = enumerate_physical_plans(plan, models)
    estimates = [estimate(c, stats, 40) for c in candidates]
    expected = choose_plan(candidates, estimates, MinCost(0.0))
    assert expected.model_assignment()[1] == "tiny"  # the case this test is about
    assert len({(e.cost, e.latency) for e in estimates}) == 1
    chosen, report = optimize(plan, _ORACLE_CTX[40], models, MinCost(0.0), 0, None)
    assert chosen.plan_id == expected.plan_id
    assert len(report.candidates) == 4  # two survivors plus two recovered ties


def test_optimize_never_enumerates_the_product(monkeypatch):
    import semaq.optimizer as optimizer_mod

    def refuse(*_args, **_kwargs):
        raise AssertionError("optimize must not enumerate every assignment")

    monkeypatch.setattr(optimizer_mod, "enumerate_physical_plans", refuse)
    models = [ModelSpec(f"m{i}", 0.0002 * (i + 1) ** 2, 0.0004 * (i + 1) ** 2,
                        0.6 + 0.07 * i, 0.2 + 0.3 * i) for i in range(6)]
    plan = parse_pipeline(
        'scan(d) | sem_filter("a") | sem_map("b", {x: text}) | sem_filter("c") '
        '| sem_map("d", {y: text}) | sem_filter("e") | sem_map("f", {z: text}) '
        '| sem_filter("g")')
    chosen, report = optimize(plan, _ORACLE_CTX[250], models, MinCost(0.5), 0, None)
    assert report.plans_considered == 6 ** 7
    assert len(report.candidates) <= 500  # 415 frontier plans
    assert report.chosen_plan_id == chosen.plan_id
    assert chosen.plan_id in {row["plan_id"] for row in report.candidates}


def _bits(est):
    """An estimate's figures as exact float bits, per-op figures included."""
    return ((est.cost.hex(), est.latency.hex(), est.quality.hex()),
            [(o.index, o.cardinality_in.hex(), o.cost.hex(), o.latency.hex(),
              o.quality.hex()) for o in est.per_op])


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_and_frontier_against_the_reference_estimate(seed):
    """``estimate`` equals the reference estimate with a loop of its own bit
    for bit; every estimate the search returns has the reference's figures
    for its bound plan; and the search's choice is ``choose_plan``'s over
    every assignment."""
    from semaq.optimizer import _search

    rng = random.Random(seed)
    pruned = infeasible = 0
    for _ in range(300):
        plan, models, stats, n, policy, pool_width = _oracle_case(rng)
        candidates = enumerate_physical_plans(plan, models)
        reference = [estimate_reference.estimate(c, stats, n, pool_width)
                     for c in candidates]
        assert [_bits(estimate(c, stats, n, pool_width)) for c in candidates] == \
            [_bits(e) for e in reference]
        # the case's widths are powers of two, whose division is exact
        assert [_bits(estimate(c, stats, n, 3)) for c in candidates] == \
            [_bits(estimate_reference.estimate(c, stats, n, 3)) for c in candidates]
        found, found_estimates = _search(plan, stats, models, n, pool_width, policy)
        pruned += len(found) < len(candidates)
        by_id = {c.plan_id: _bits(e)[0] for c, e in zip(candidates, reference)}
        assert [_bits(e)[0] for e in found_estimates] == [by_id[c.plan_id] for c in found]
        try:
            expected = choose_plan(candidates, reference, policy).plan_id
        except PolicyInfeasibleError:
            infeasible += 1
            with pytest.raises(PolicyInfeasibleError):
                choose_plan(found, found_estimates, policy)
            continue
        assert choose_plan(found, found_estimates, policy).plan_id == expected
    assert pruned >= 100 and infeasible >= 20  # about 190 and 70 on seeds 0 to 8


# --- pinned numbers -------------------------------------------------------------

def _pinned_case(rng):
    """A seeded random plan of 1-5 ops (limits, projects, filters, maps,
    computes) over 1-4 models, with stats, N, pool width and policy."""
    n_models = rng.randint(1, 4)
    models = [ModelSpec(f"m{i}", 0.001, 0.002, 0.9, 1.0) for i in range(n_models)]
    ops = [Scan("src")]
    for j in range(rng.randint(1, 5)):
        kind = rng.choice(("filter", "map", "filter", "map", "compute",
                           "limit", "project"))
        if kind == "filter":
            ops.append(SemFilter(f"pred {j}"))
        elif kind == "map":
            ops.append(SemMap(f"derive {j}", ((f"out{j}", "text"),)))
        elif kind == "compute":
            ops.append(Compute(f"answer {j}"))
        elif kind == "limit":
            ops.append(Limit(rng.choice((1, 5, 30))))
        else:
            ops.append(Project(("text",)))
    plan = make_plan(ops)
    coarse = rng.random() < 0.5
    entries = {}
    for idx, op in enumerate(plan.ops):
        if not is_semantic(op):
            continue
        for model in models:
            entries[(idx, model.model_id)] = StatsEntry(
                selectivity=(_pick(rng, coarse, (0.0, 0.5, 1.0), 0.0, 1.0)
                             if isinstance(op, SemFilter) else None),
                quality=_pick(rng, coarse, (0.0, 0.5, 0.8, 1.0), 0.0, 1.0),
                cost_per_record=_pick(rng, coarse, (0.0, 0.001, 0.002), 0.0, 0.01),
                latency_per_record=_pick(rng, coarse, (0.0, 0.5, 1.0), 0.0, 2.0),
                sample_size=0)
    roll = rng.randrange(3)
    if roll == 0:
        policy = MinCost(quality_floor=rng.choice((0.0, 0.5, 1.0, rng.random())))
    elif roll == 1:
        policy = MaxQuality(cost_budget=rng.choice((0.0, 0.05, rng.uniform(0.0, 1.0))))
    else:
        policy = Weighted(*(rng.choice((0.0, 1.0, rng.random())) for _ in range(3)))
    return (plan, models, OperatorStats(entries), rng.choice((0, 1, 7, 40, 250)),
            rng.choice((1, 3, 8)), policy)


def test_search_and_estimate_pinned():
    """The search's rows, its choice, and every candidate's per-op estimate
    over 500 seeded plans hash to a digest recorded before the cost model
    was shared between ``estimate`` and the search."""
    import hashlib

    from semaq.optimizer import _search

    rng = random.Random(1313)
    digest = hashlib.sha256()
    for _ in range(500):
        plan, models, stats, n, width, policy = _pinned_case(rng)
        candidates, estimates = _search(plan, stats, models, n, width, policy)
        for c, e in zip(candidates, estimates):
            digest.update(f"{c.plan_id} {e.cost.hex()} {e.latency.hex()} "
                          f"{e.quality.hex()}\n".encode())
            for o in estimate(c, stats, n, width).per_op:
                digest.update(f"  {o.index} {o.cardinality_in.hex()} "
                              f"{o.cost.hex()} {o.latency.hex()}\n".encode())
        try:
            digest.update(f"chosen {choose_plan(candidates, estimates, policy).plan_id}\n"
                          .encode())
        except PolicyInfeasibleError as exc:
            digest.update(f"error {type(exc).__name__}\n".encode())
    assert digest.hexdigest() == (
        "e777aea86bd4f76b7dfc9eaa321dab4525daf6545ceaa2148d8dc46c09128d0d")


@pytest.mark.parametrize("policy", ["min-cost", None, {"quality_floor": 0.5}])
def test_choose_plan_rejects_an_object_that_is_not_a_policy(policy):
    candidates, estimates = _worked_example()
    with pytest.raises(ValidationError, match="unknown policy"):
        choose_plan(candidates, estimates, policy)


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_and_frontier_against_the_reference_at_inexact_widths(seed):
    """The reference oracle at pool widths whose division rounds: each of
    ``_oracle_case``'s plans, stats and policies at a width drawn from
    (3, 5, 6, 7, 12), where the case would draw 1 or 8.  ``estimate`` and
    the search's estimates equal the reference's bit for bit, and the
    search's choice is ``choose_plan``'s over every assignment."""
    from semaq.optimizer import _search

    rng = random.Random(seed)
    pruned = infeasible = 0
    for _ in range(300):
        plan, models, stats, n, policy, _ = _oracle_case(rng)
        width = rng.choice((3, 5, 6, 7, 12))
        candidates = enumerate_physical_plans(plan, models)
        reference = [estimate_reference.estimate(c, stats, n, width) for c in candidates]
        assert [_bits(estimate(c, stats, n, width)) for c in candidates] == \
            [_bits(e) for e in reference]
        found, found_estimates = _search(plan, stats, models, n, width, policy)
        pruned += len(found) < len(candidates)
        by_id = {c.plan_id: _bits(e)[0] for c, e in zip(candidates, reference)}
        assert [_bits(e)[0] for e in found_estimates] == [by_id[c.plan_id] for c in found]
        try:
            expected = choose_plan(candidates, reference, policy).plan_id
        except PolicyInfeasibleError:
            infeasible += 1
            with pytest.raises(PolicyInfeasibleError):
                choose_plan(found, found_estimates, policy)
            continue
        assert choose_plan(found, found_estimates, policy).plan_id == expected
    assert pruned >= 100 and infeasible >= 20
