"""Benchmark harness: generated corpora, scripted strategies, frozen outcomes."""

import hashlib
import json

import pytest

from semaq.bench import (BENCH_CATALOG, DEAL_NAMES, ERRANT_2001, MARKER_DEAL,
                         MARKER_LOSS, OFFICIAL_2001, OFFICIAL_2024,
                         expected_email_call_counts, gen_email_corpus,
                         gen_stats_corpus, metrics, run_bench, run_experiment)
from semaq.errors import ConfigurationError


@pytest.fixture(scope="module")
def email_result():
    return run_experiment("email", seed=7, n=250, rho=0.156)


@pytest.fixture(scope="module")
def ratio_result():
    return run_experiment("ratio", seed=7)


@pytest.fixture(scope="module")
def summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-artifacts")
    return run_bench(seed=7, n=250, rho=0.156, out_dir=out), out


# --- email corpus -------------------------------------------------------------------

def test_email_corpus_counts():
    corpus = gen_email_corpus(seed=7, n=250, rho=0.156)
    assert len(corpus.records) == 250
    assert len(corpus.relevant_ids) == 39  # round(250 * 0.156)
    assert len(corpus.bait_ids) == 2
    assert not corpus.relevant_ids & corpus.bait_ids
    all_ids = {rec.id for rec in corpus.records}
    assert corpus.relevant_ids <= all_ids
    assert corpus.bait_ids <= all_ids


def test_email_markers_appear_only_in_relevant_texts():
    corpus = gen_email_corpus(seed=7, n=250, rho=0.156)
    for rec in corpus.records:
        text = rec.fields["text"]
        is_relevant = rec.id in corpus.relevant_ids
        assert (MARKER_DEAL in text) == is_relevant
        assert (MARKER_LOSS in text) == is_relevant


def test_email_bait_mentions_a_deal_name_harmlessly():
    corpus = gen_email_corpus(seed=7, n=250, rho=0.156)
    for rec in corpus.records:
        if rec.id not in corpus.bait_ids:
            continue
        text = rec.fields["text"]
        assert any(kw in text for kw in DEAL_NAMES)
        assert MARKER_DEAL not in text and MARKER_LOSS not in text


def test_email_corpus_is_seed_deterministic():
    a = gen_email_corpus(seed=7, n=60, rho=0.2)
    b = gen_email_corpus(seed=7, n=60, rho=0.2)
    assert [r.fields for r in a.records] == [r.fields for r in b.records]
    assert a.relevant_ids == b.relevant_ids
    assert a.bait_ids == b.bait_ids
    c = gen_email_corpus(seed=8, n=60, rho=0.2)
    assert [r.fields for r in c.records] != [r.fields for r in a.records]


def test_email_corpus_rejects_tiny_n():
    with pytest.raises(ConfigurationError, match="n >= 10"):
        gen_email_corpus(seed=7, n=9, rho=0.2)


@pytest.mark.parametrize("n,rho", [(250, 0.0), (10, 0.95)])
def test_email_corpus_rejects_rho_without_room(n, rho):
    with pytest.raises(ConfigurationError, match="leaves no room"):
        gen_email_corpus(seed=7, n=n, rho=rho)


def test_expected_call_counts_recomputed_from_corpus_text():
    corpus = gen_email_corpus(seed=7, n=250, rho=0.156)
    assert expected_email_call_counts(corpus) == {
        "prototype-pipeline": 289,  # 250 + 39 first-filter survivors
        "agent-semantic-tools": 750,
    }
    small = gen_email_corpus(seed=11, n=40, rho=0.25)
    assert expected_email_call_counts(small) == {
        "prototype-pipeline": 50,
        "agent-semantic-tools": 120,
    }


# --- scoring conventions ------------------------------------------------------------

def test_metrics_exact_arithmetic():
    p, r, f1 = metrics({"a", "b", "c"}, {"b", "c", "d"})
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)


def test_metrics_perfect_overlap():
    assert metrics(("x", "y"), ("y", "x")) == (1.0, 1.0, 1.0)


def test_metrics_empty_sets_score_zero():
    assert metrics((), {"a"}) == (0.0, 0.0, 0.0)
    assert metrics({"a"}, ()) == (0.0, 0.0, 0.0)
    assert metrics((), ()) == (0.0, 0.0, 0.0)


def test_metrics_disjoint_sets_score_zero_f1():
    p, r, f1 = metrics({"a"}, {"b"})
    assert (p, r, f1) == (0.0, 0.0, 0.0)


# --- email strategies, frozen outcomes ----------------------------------------------

def test_email_scenario_shape(email_result):
    assert email_result.name == "email triage"
    assert email_result.detail == "39 relevant of 250"
    assert [s.name for s in email_result.strategies] == [
        "prototype-pipeline", "agent-semantic-tools", "agent-basic"]


def test_prototype_pipeline_call_count_and_accuracy(email_result):
    proto = email_result.strategies[0]
    assert proto.semantic_calls == 289
    assert proto.agent_calls == 0
    assert set(proto.returned_ids) == set(
        gen_email_corpus(seed=7, n=250, rho=0.156).relevant_ids)
    assert (proto.precision, proto.recall, proto.f1) == (1.0, 1.0, 1.0)
    assert proto.total_cost == pytest.approx(0.0135124, abs=1e-12)


def test_sweep_agent_pays_one_call_per_record_per_pass(email_result):
    sweep = email_result.strategies[1]
    assert sweep.semantic_calls == 750  # two filters plus one map over 250
    assert sweep.agent_calls == 4  # three tool steps and the final answer
    assert (sweep.precision, sweep.recall, sweep.f1) == (1.0, 1.0, 1.0)
    assert sweep.total_cost == pytest.approx(0.189718, abs=1e-12)


def test_pipeline_halves_calls_and_cost_versus_sweep(email_result):
    proto, sweep = email_result.strategies[0], email_result.strategies[1]
    assert proto.semantic_calls * 2 <= sweep.semantic_calls
    assert proto.total_cost * 2 <= sweep.total_cost
    saving = 1.0 - proto.semantic_calls / sweep.semantic_calls
    assert saving == 0.6146666666666667


def test_basic_agent_is_partial_and_baited(email_result):
    basic = email_result.strategies[2]
    assert basic.semantic_calls == 0
    assert basic.agent_calls == 3
    assert len(basic.returned_ids) == 20  # 18 relevant guesses plus 2 bait
    assert basic.precision == 0.9
    assert basic.recall == pytest.approx(6 / 13, abs=1e-15)
    expected_f1 = 2 * 0.9 * (6 / 13) / (0.9 + 6 / 13)
    assert basic.f1 == expected_f1
    assert basic.f1 <= 0.65
    assert basic.precision > basic.recall


def test_email_outcomes_carry_ledgers_and_traces(email_result):
    proto, sweep, basic = email_result.strategies
    assert proto.trace is None and proto.ledger is not None
    assert sweep.trace is not None and sweep.trace.outcome == "answered"
    assert basic.trace is not None
    assert proto.ledger.total_calls == proto.semantic_calls
    assert sweep.ledger.total_calls == sweep.semantic_calls + sweep.agent_calls


# --- stats corpus -------------------------------------------------------------------

def test_stats_corpus_shape_and_planted_values():
    corpus = gen_stats_corpus(seed=7)
    assert len(corpus.records) == 40  # 39 yearly summaries plus the draft
    assert sorted(corpus.values) == [str(y) for y in range(1986, 2025)]
    assert corpus.values["2001"] == OFFICIAL_2001
    assert corpus.values["2024"] == OFFICIAL_2024
    by_id = {rec.id: rec for rec in corpus.records}
    assert f"filed in 2001: {OFFICIAL_2001}" in by_id[corpus.id_2001].fields["text"]
    assert f"filed in 2024: {OFFICIAL_2024}" in by_id[corpus.id_2024].fields["text"]
    errant_text = by_id[corpus.errant_id].fields["text"]
    assert f"filed in 2001: {ERRANT_2001}" in errant_text
    assert errant_text.startswith("DRAFT")


def test_stats_corpus_counts_are_unique_across_files():
    corpus = gen_stats_corpus(seed=7)
    counts = []
    for rec in corpus.records:
        line = next(ln for ln in rec.fields["text"].splitlines()
                    if ln.startswith("Paper records"))
        counts.append(int(line.rsplit(": ", 1)[1]))
    assert len(set(counts)) == len(counts)


def test_stats_corpus_is_seed_deterministic():
    a = gen_stats_corpus(seed=7)
    b = gen_stats_corpus(seed=7)
    assert [r.fields for r in a.records] == [r.fields for r in b.records]
    assert a.values == b.values


# --- ratio strategies, frozen outcomes ----------------------------------------------

def test_ratio_scenario_shape(ratio_result):
    assert ratio_result.name == "filings growth ratio"
    assert ratio_result.detail == "40 files, one errant draft"
    assert [s.name for s in ratio_result.strategies] == [
        "agent-compute", "semantic-ops-only"]


def test_agent_compute_recovers_the_single_planted_ratio(ratio_result):
    agent = ratio_result.strategies[0]
    assert agent.ratios == (OFFICIAL_2024 / OFFICIAL_2001,)
    assert repr(agent.ratios[0]) == "13.162794202898551"
    assert repr(agent.ratios[0]) in agent.answer_text
    assert agent.agent_calls == 5
    assert agent.semantic_calls == 40  # one filter call per file via the pipeline tool
    assert agent.trace is not None and agent.trace.outcome == "answered"


def test_semantic_only_is_ambiguous_about_the_ratio(ratio_result):
    flat = ratio_result.strategies[1]
    assert flat.ratios == tuple(sorted(
        (OFFICIAL_2024 / ERRANT_2001, OFFICIAL_2024 / OFFICIAL_2001)))
    assert repr(OFFICIAL_2024 / ERRANT_2001) == "11.605325836953744"
    assert flat.answer_text == ("ambiguous: 2 candidate ratios "
                                "(11.605325836953744, 13.162794202898551)")
    assert flat.agent_calls == 0
    assert flat.semantic_calls == 40  # one map call per file
    assert flat.trace is None


# --- harness ------------------------------------------------------------------------

def test_run_experiment_rejects_unknown_scenario():
    with pytest.raises(ConfigurationError, match="unknown scenario 'emails'"):
        run_experiment("emails")


def test_run_bench_summary_values(summary):
    bench, _ = summary
    assert bench.call_saving == 0.6146666666666667
    assert bench.seed == 7 and bench.n == 250 and bench.rho == 0.156
    doc = bench.to_dict()
    assert "mock-deterministic" in doc["accounting"]
    assert [s["name"] for s in doc["scenarios"]] == [
        "email triage", "filings growth ratio"]


def test_run_bench_render_text(summary):
    bench, _ = summary
    text = bench.render_text()
    assert "prototype-pipeline" in text
    assert "agent-semantic-tools" in text
    assert "semantic-call saving, pipeline vs sweep agent: 61.47%" in text
    assert "13.162794202898551" in text


def test_run_bench_writes_deterministic_artifacts(summary):
    bench, out = summary
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    assert results == bench.to_dict()
    strategy_names = [s.name for sc in (bench.email, bench.ratio)
                      for s in sc.strategies]
    for name in strategy_names:
        ledger = json.loads((out / f"ledger-{name}.json").read_text(encoding="utf-8"))
        assert "models" in ledger
    # traces exist exactly for the agent-driven strategies
    traced = {p.name for p in out.glob("trace-*.json")}
    assert traced == {"trace-agent-semantic-tools.json", "trace-agent-basic.json",
                      "trace-agent-compute.json"}


# sha256 of every `semaq bench --seed 7` artifact, recorded before the engine's
# filter/map drivers and re-ask loops were merged; a refactor must keep them.
PINNED_ARTIFACT_SHA256 = {
    "results.json": "4ad57ad869348b8184167389a570ec98932d819005e16643a7a1a22d6354eeaf",
    "ledger-prototype-pipeline.json":
        "d3e7d589c5a21058f047e37763025490219fe96364e85723bd9913b69f32fe91",
    "ledger-agent-semantic-tools.json":
        "dadbb9443428a1e95439e88d9a5e3429638c31f30aa8bceb8261ecfaebf0de23",
    "ledger-agent-basic.json":
        "59c92ca967721a2983ccda3cdd3906bd0ecf34eacfb48847eff57631098fd0e3",
    "ledger-agent-compute.json":
        "3bb3bdb109a4c7dfc5593a4904ab4c8b56548ee9df45b88a453e3bfd66682efc",
    "ledger-semantic-ops-only.json":
        "3c2a478ca28cffd191c67702d7a828f3d555a82d0b97c0df0fa2e207b5cade05",
    "trace-agent-semantic-tools.json":
        "93832c842180d371293a9d19f500c68cbe70a92b223e65a8c53bfe138461270b",
    "trace-agent-basic.json":
        "f0c746c933287de24dcce0f1e5d1ad86d4735ccf758c4b3806c0debebe71a2f0",
    "trace-agent-compute.json":
        "5fb12b960af9cd7df48e94f05aa0bd817acb26434762f8853741192af71a58e9",
}


def test_run_bench_artifacts_byte_identical_to_pinned_digests(summary):
    _, out = summary
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == PINNED_ARTIFACT_SHA256


def test_bench_catalog_separates_agent_and_operator_models():
    assert set(BENCH_CATALOG) == {"agent-model", "op-cheap", "op-strong"}
    assert BENCH_CATALOG["op-cheap"].input_cost_per_1k < \
        BENCH_CATALOG["op-strong"].input_cost_per_1k
