"""One answer path: a run of the plan ``optimize`` chose answers from the
sampled answers it carries, keyed by (model id, prompt digest), exactly
what the record-keyed hand-off of ``tests/handoff_reference.py`` answered.

The oracle runs the seeded random plans of ``test_run_calls`` (filters,
maps, projects, limits, replies that never parse) on the inline mock and
on the blocking backend of ``conftest``, at pool widths 1, 3 and 8, with
and without a store warmed by a run over a prefix of the records.
"""

import random
import shutil
from pathlib import Path

import pytest

import semaq.engine as engine
from semaq import (ContextStore, MinCost, MockBackend, RunPolicy, bind_plan,
                   context_create, hashing_embed, make_source_record, optimize,
                   parse_pipeline, pipeline_execute)
from semaq.backend import ChatMessage, backend_fingerprint
from semaq.lang import SemFilter, SemMap
from tests import handoff_reference as reference
from tests.conftest import CHEAP, BlockingBackend
from tests.test_answer_log import _FAILS
from tests.test_run_calls import _case, _mock, _models

PARENT_ANSWERS = Path(__file__).parent / "data" / "answers_35669e7"


def _rows(report):
    return [(op.records_in, op.records_out, op.calls, op.reused, op.failures,
             op.input_tokens, op.output_tokens) for op in report.ops]


def _outputs(ctx):
    return [(r.id, r.fields, r.lineage) for r in ctx.source]


def _logged(store):
    if store is None:
        return {}
    store.read_answers()
    return dict(store._answers)


@pytest.mark.parametrize("stored", [False, True], ids=["storeless", "store"])
@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_prompt_keyed_answers_match_the_record_keyed_hand_off(tmp_path, monkeypatch,
                                                              width, blocking, stored):
    """Oracle: on seeded plans with 1-4 random models and samples of 1-12
    records, the chosen plan carries, by prompt, every answer the reference
    sampler kept by record; and its run gives the reference run's per-stage
    calls, ``reused``, failures and tokens, and its outputs, ids and
    lineage.  With a store, both runs log the same answers, and no sampled
    answer is written to ``answers.jsonl``."""
    rng = random.Random(f"one-answer-path-{width}-{blocking}-{stored}")
    policy = RunPolicy(pool_width=width, failure_budget=1.0)
    reused = 0
    for case in range(8):
        records, plan, rules = _case(rng, limited=rng.random() < 0.5)
        rules.insert(0, (_FAILS.pattern, "unsure", "regex"))
        models = _models(rng)
        catalog = {m.model_id: m for m in models}
        sample = rng.randint(1, 12)
        ctx = context_create(records, "docs")
        chosen, _ = optimize(plan, ctx, models, MinCost(quality_floor=0.0), sample,
                             _mock(rules, catalog), run_policy=policy)
        fresh = bind_plan(plan, {i: catalog[m] for i, m in
                                 chosen.model_assignment().items()})
        answers = reference.sampled_answers(fresh, ctx, sample, _mock(rules, catalog))

        log = engine._AnswerLog(None, backend_fingerprint(_mock(rules, catalog)))
        by_prompt = {}
        for (i, model), seen in answers.items():
            pop = fresh.ops[i]
            for record, answer in seen.values():
                messages = (engine.render_filter_prompt(record, pop.logical.predicate)
                            if isinstance(pop.logical, SemFilter) else
                            engine.render_map_prompt(record, pop.logical.instruction,
                                                     pop.logical.output_fields))
                by_prompt[(model, log.digest(messages))] = answer
        assert chosen.answers == by_prompt

        stores = [None, None]
        if stored:
            warm = bind_plan(plan, {i: rng.choice(models) for i, op in enumerate(plan.ops)
                                    if isinstance(op, (SemFilter, SemMap))})
            prefix = records[:rng.randint(1, len(records))]
            path = tmp_path / f"warm-{case}"
            pipeline_execute(warm, context_create(prefix, "docs"), _mock(rules, catalog),
                             policy=policy, store=ContextStore(path, hashing_embed))
            for side in range(2):
                shutil.copytree(path, tmp_path / f"{side}-{case}")
                stores[side] = ContextStore(tmp_path / f"{side}-{case}", hashing_embed)
        warmed = _logged(stores[0])

        def backend():
            inner = _mock(rules, catalog)
            return BlockingBackend(inner) if blocking else inner

        out, report = pipeline_execute(chosen, ctx, backend(), policy=policy,
                                       store=stores[0])
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_STAGES", reference.stages(answers))
            ref_out, ref_report = pipeline_execute(fresh, ctx, backend(), policy=policy,
                                                   store=stores[1])
        assert _rows(report) == _rows(ref_report)
        assert _outputs(out) == _outputs(ref_out)
        assert _logged(stores[0]) == _logged(stores[1])
        assert not (set(_logged(stores[0])) - set(warmed)) & set(chosen.answers)
        reused += report.total_reused
    assert reused > 0


class Unnamed:
    """A mock that declares no ``fingerprint`` and wraps no ``inner``."""

    def __init__(self, inner: MockBackend):
        self._inner = inner
        self.ledger = inner.ledger
        self.in_process = True

    def chat(self, model_id, messages, temperature=0.0):
        return self._inner.chat(model_id, messages, temperature)


def test_a_backend_with_no_fingerprint_reuses_sampled_answers_without_the_log(tmp_path):
    """Sampled answers are keyed with the fingerprint ``""``, so the run
    reuses them with or without a store; the store's log is never used."""
    records = [make_source_record({"text": f"record {i:03d}"}, origin=f"{i}#0")
               for i in range(6)]
    ctx = context_create(records, "docs")
    plan = parse_pipeline('scan(d) | sem_filter("p") | sem_map("m", {f: text})')
    backend = Unnamed(_mock([("PREDICATE", "yes"), ("INSTRUCTION", "f: v")],
                            {"cheap": CHEAP}))
    assert backend_fingerprint(backend) is None
    chosen, opt_report = optimize(plan, ctx, [CHEAP], MinCost(quality_floor=0.0), 4,
                                  backend)
    assert opt_report.sample_calls == 8 and len(chosen.answers) == 8
    for store in (None, ContextStore(tmp_path / "s", hashing_embed)):
        out, report = pipeline_execute(chosen, ctx, backend, store=store)
        assert [(op.calls, op.reused) for op in report.ops[1:]] == [(2, 4), (2, 4)]
        assert [r.fields["f"] for r in out.source] == ["v"] * 6
    assert not (tmp_path / "s" / "answers.jsonl").exists()


def test_the_digest_equals_the_earlier_one_byte_for_byte():
    """The digest of a fingerprint header copied per prompt equals the one
    hashed whole, lone surrogates included, on seeded prompts."""
    rng = random.Random("digest")
    alphabet = "ab \n:\u00e9\u2028\U0001f600\ud800\udc80\udfff"

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))

    for _ in range(500):
        fingerprint = text()
        log = engine._AnswerLog(None, fingerprint)
        for _ in range(3):
            messages = [ChatMessage(rng.choice(["system", "user", "assistant"]), text())
                        for _ in range(rng.randint(0, 4))]
            assert log.digest(messages) == reference._prompt_digest(fingerprint, messages)


def test_an_answer_log_written_by_the_earlier_digest_still_hits(tmp_path):
    """``answers.jsonl`` as the engine wrote it before the header was
    hashed once answers every prompt of the same run again, with no call."""
    texts = ["plain note 0", "\u00fcn\u00efc\u00f6d\u00e9 note 1 \u2713",
             "note 2 \u2028 with a line separator", "note 3 " + "x" * 50]
    records = [make_source_record({"text": t}, origin=f"{i}#0")
               for i, t in enumerate(texts)]
    shutil.copytree(PARENT_ANSWERS, tmp_path / "s")
    store = ContextStore(tmp_path / "s", hashing_embed)
    assert store.read_answers() == 8
    plan = parse_pipeline('scan(d) | sem_filter("keep") | sem_map("tag", {f: text})')
    backend = _mock([("PREDICATE", "yes"), ("INSTRUCTION", "f: v")], {"cheap": CHEAP})
    out, report = pipeline_execute(bind_plan(plan, {1: CHEAP, 2: CHEAP}),
                                   context_create(records, "docs"), backend, store=store)
    assert (report.total_calls, report.total_reused) == (0, 8)
    assert [r.fields["f"] for r in out.source] == ["v"] * 4
