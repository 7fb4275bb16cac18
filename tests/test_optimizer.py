"""Optimizer: statistics, enumeration, cost estimation, policy choice."""

import json
import random
import re

import pytest

from semaq import (EstimationError, MaxQuality, MinCost, OperatorStats,
                   PolicyInfeasibleError, StatsError, ValidationError,
                   Weighted, choose_plan, context_create,
                   enumerate_physical_plans, estimate, make_source_record,
                   optimize, parse_pipeline, parse_policy, prior_stats,
                   sample_stats)
from semaq.backend import ModelSpec
from semaq.engine import RunPolicy
from semaq.lang import (Compute, Limit, Scan, SemFilter, SemMap, is_semantic,
                        make_plan)
from semaq.optimizer import (NOMINAL_INPUT_TOKENS, NOMINAL_OUTPUT_TOKENS,
                             StatsEntry, _ranking)
from tests.conftest import CHEAP, STRONG

FILTER_MAP = 'scan(d) | sem_filter("keep") | sem_map("derive", {a: text})'


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
])
def test_parse_policy_rejects_malformed(doc):
    with pytest.raises(ValidationError):
        parse_policy(doc)


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
