"""One per-record ask: ``sample_stats`` asks through the engine's
``_Run.ask`` and prices by ``engine._price``, and gives what the sampler
with a loop of its own (``tests/sampler_reference.py``) gave.

The oracle samples the seeded random plans of ``test_run_calls`` (filters,
maps, projects, limits) with 1-3 random models and samples of 1-12
records, with and without labels, and with and without a rule whose
replies never parse, so that filters and maps both fail.
"""

import random

import pytest

import semaq.engine as engine
from semaq import context_create, parse_pipeline, pipeline_execute, sample_stats
from semaq.backend import ModelSpec
from semaq.lang import SemFilter, SemMap
from tests import sampler_reference as reference
from tests.conftest import CHEAP
from tests.test_answer_log import _FAILS
from tests.test_run_calls import _case, _mock

CASES = 55  # per parameter set: 8 sets, 440 cases


def _models(rng):
    return [ModelSpec(f"model-{j}", rng.uniform(1e-4, 3e-3), rng.uniform(1e-4, 3e-3),
                      rng.uniform(0.5, 1.0), rng.uniform(0.2, 2.0))
            for j in range(rng.randint(1, 3))]


def _labels(rng, plan, records):
    """Random truth for about four in five records at each semantic position:
    a verdict for a filter, the map's field with a value its rules give or
    another one."""
    labels = {}
    for i, op in enumerate(plan.ops):
        if isinstance(op, SemFilter):
            labels[i] = {r.id: rng.random() < 0.5 for r in records if rng.random() < 0.8}
        elif isinstance(op, SemMap):
            (name, _), = op.output_fields
            labels[i] = {r.id: {name: rng.choice([f"v{i}", "w", "other"])}
                         for r in records if rng.random() < 0.8}
    return labels


def _observed(stats):
    # repr tells floats apart bit for bit, 0.0 and -0.0 included
    return repr(stats.to_dict()), stats.answers, stats.calls


@pytest.mark.parametrize("failing", [False, True], ids=["parsing", "failing"])
@pytest.mark.parametrize("labelled", [False, True], ids=["priors", "labels"])
@pytest.mark.parametrize("limited", [False, True], ids=["unlimited", "limit"])
def test_sampler_matches_the_reference_sampler(limited, labelled, failing):
    """Oracle: bit-equal ``OperatorStats.to_dict()``, sampled ``answers``
    and sampling ``calls`` on fresh mocks."""
    rng = random.Random(f"sampler-oracle-{limited}-{labelled}-{failing}")
    failed = {SemFilter: 0, SemMap: 0}
    for _ in range(CASES):
        records, plan, rules = _case(rng, limited=limited)
        if failing:
            rules.insert(0, (_FAILS.pattern, "unsure", "regex"))
        models = _models(rng)
        catalog = {m.model_id: m for m in models}
        sample = rng.randint(1, 12)
        labels = _labels(rng, plan, records) if labelled else None
        ctx = context_create(records, "docs")
        got = sample_stats(plan, ctx, models, sample, _mock(rules, catalog), labels)
        want = reference.sample_stats(plan, ctx, models, sample, _mock(rules, catalog),
                                      labels)
        assert _observed(got) == _observed(want)
        # every sampled record is asked once, and only a parsed answer is kept
        for (i, _), answers in got.answers.items():
            failed[type(plan.ops[i])] += min(sample, len(records)) - len(answers)
    # a map's first reply on a #x record never parses; with the failing
    # rule, filters fail too
    assert failed[SemMap] > 0 and (failed[SemFilter] > 0) is failing


def test_sampler_builds_no_output_record(monkeypatch):
    """The sampler reads answers, never the records a run would pass on:
    with ``make_derived_record`` failing, sampling a sem_map still works,
    and a run of the same plan fails."""
    records, _, _ = _case(random.Random("no-output-record"), limited=False)
    plan = parse_pipeline('scan(d) | sem_map("m1", {f1: text})')
    rules = [("INSTRUCTION: m1\n", "f1: v1")]
    ctx = context_create(records, "docs")
    want = reference.sample_stats(plan, ctx, [CHEAP], 8, _mock(rules, {"cheap": CHEAP}))

    def refuse(*args, **kwargs):
        raise AssertionError("an output record was built")

    monkeypatch.setattr(engine, "make_derived_record", refuse)
    got = sample_stats(plan, ctx, [CHEAP], 8, _mock(rules, {"cheap": CHEAP}))
    assert _observed(got) == _observed(want) and got.calls == 8
    with pytest.raises(AssertionError, match="output record"):
        pipeline_execute(engine.bind_plan(plan, {1: CHEAP}), ctx,
                         _mock(rules, {"cheap": CHEAP}))
