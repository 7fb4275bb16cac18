"""Records, contexts, snapshots, and the exact vector index."""

import math

import numpy as np
import pytest

from semaq import (CapabilityError, ContextStore, RecordSnapshot, ToolParam,
                   ToolSpec, ValidationError, VectorIndex, context_create,
                   context_derive, context_lookup, context_topk, hashing_embed,
                   make_derived_record, make_source_record, record_from_json,
                   record_to_json)
from semaq.core import (context_iterate, cosine_to_score, cosine_topk,
                        record_text, source_record_id, validate_field_value)


# --- field validation ----------------------------------------------------------

@pytest.mark.parametrize("value", [
    None, "text", 0, -3, 2.5, True, [], [1, "two", None], [[["deep"]]],
])
def test_field_values_accepted(value):
    validate_field_value(value)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), {"a": 1}, b"bytes", object(),
])
def test_field_values_rejected(value):
    with pytest.raises(ValidationError):
        validate_field_value(value)


def test_field_nesting_limit():
    value = "leaf"
    for _ in range(8):
        value = [value]
    validate_field_value(value)
    with pytest.raises(ValidationError):
        validate_field_value([value])


# --- record identity and serialization ------------------------------------------

def test_source_record_id_is_content_hash():
    a = source_record_id({"text": "hello"}, "f.txt#1")
    assert a.startswith("r") and len(a) == 13
    assert a == source_record_id({"text": "hello"}, "f.txt#1")
    assert a != source_record_id({"text": "hello"}, "f.txt#2")
    assert a != source_record_id({"text": "hello!"}, "f.txt#1")


def test_derived_record_carries_lineage():
    parent = make_source_record({"text": "x"}, "o#0")
    child = make_derived_record({"text": "x", "tag": "t"}, [parent.id], "sem_map")
    assert child.lineage.parents == (parent.id,)
    assert child.lineage.operator == "sem_map"
    again = make_derived_record({"text": "x", "tag": "t"}, [parent.id], "sem_map")
    assert child.id == again.id


def test_record_json_round_trip():
    rec = make_derived_record({"a": 1, "b": [True, "s"]}, ["r0"], "sem_map")
    back = record_from_json(record_to_json(rec))
    assert back == rec


def test_record_from_bare_field_map_uses_origin():
    rec = record_from_json('{"text": "hi"}', origin="data.jsonl#3")
    assert rec.fields == {"text": "hi"}
    assert rec.id == source_record_id({"text": "hi"}, "data.jsonl#3")


def test_record_rejects_non_finite_fields():
    with pytest.raises(ValidationError):
        make_source_record({"x": math.inf})


def test_record_text_prefers_text_field():
    assert record_text(make_source_record({"text": "body", "path": "p"})) == "body"
    rec = make_source_record({"name": "n", "count": 3})
    assert record_text(rec) == "name: n"


# --- snapshots -----------------------------------------------------------------

def test_snapshot_is_stable_and_fingerprinted(fruit_records):
    snap = RecordSnapshot(fruit_records)
    assert list(snap) == list(snap)
    assert len(snap) == 6
    assert snap.fingerprint() == RecordSnapshot(fruit_records).fingerprint()
    assert snap.fingerprint() != RecordSnapshot(fruit_records[:-1]).fingerprint()


# --- contexts -------------------------------------------------------------------

def test_context_id_is_content_derived(fruit_records):
    a = context_create(fruit_records, "fruit notes")
    b = context_create(fruit_records, "fruit notes")
    assert a.id == b.id and a.id.startswith("ctx-")
    assert context_create(fruit_records, "veg notes").id != a.id


def test_context_requires_description(fruit_records):
    with pytest.raises(ValidationError):
        context_create(fruit_records, "   ")


def test_context_rejects_duplicate_tool_names(fruit_records):
    tool = ToolSpec("t", "a tool", (ToolParam("x"),), handler=lambda e, a: "")
    with pytest.raises(Exception) as err:
        context_create(fruit_records, "d", tools=(tool, tool))
    assert "tool" in str(err.value)


def test_derive_appends_lineage_and_inherits(fruit_records):
    index = VectorIndex.build(fruit_records, hashing_embed)
    tool = ToolSpec("t", "a tool", (), handler=lambda e, a: "")
    parent = context_create(fruit_records, "fruit notes", index=index, tools=(tool,))
    child = context_derive(parent, "keep sweet", parent.description + "\nsweet only",
                           records=fruit_records[:2], operator="pipeline")
    assert child.description.startswith(parent.description)
    assert child.lineage.parent_id == parent.id
    assert child.lineage.operator == "pipeline"
    assert child.tools == parent.tools
    assert child.index is parent.index
    assert len(child.source) == 2
    shared = context_derive(parent, "note", parent.description + "\nmore")
    assert shared.source is parent.source


def test_context_iterate_and_lookup(fruit_records):
    ctx = context_create(fruit_records, "d",
                         index=VectorIndex.build(fruit_records, hashing_embed))
    assert [r.id for r in context_iterate(ctx)] == [r.id for r in fruit_records]
    assert context_lookup(ctx, fruit_records[3].id) == fruit_records[3]
    assert context_lookup(ctx, "missing") is None
    bare = context_create(fruit_records, "d")
    with pytest.raises(CapabilityError):
        context_lookup(bare, "x")
    with pytest.raises(CapabilityError):
        context_topk(bare, "q", 2)


# --- vector index oracle ----------------------------------------------------------

def test_topk_matches_brute_force_cosine(fruit_records):
    """Oracle: recompute every score with raw numpy and re-rank."""
    index = VectorIndex.build(fruit_records, hashing_embed)
    for query in ("sweet fruit", "shipment port", "banana", "zzz unseen"):
        got = index.topk(query, 4)
        qvec = hashing_embed(query)
        expected = sorted(
            ((cosine_to_score(float(np.dot(hashing_embed(record_text(r)), qvec))), r)
             for r in fruit_records),
            key=lambda pair: (-pair[0], pair[1].id))[:4]
        assert [(r.id, score) for r, score in got] == \
            [(r.id, score) for score, r in expected]


def test_topk_self_match_scores_one(fruit_records):
    index = VectorIndex.build(fruit_records, hashing_embed)
    top, score = index.topk(record_text(fruit_records[0]), 1)[0]
    assert top.id == fruit_records[0].id
    assert abs(score - 1.0) < 1e-6


def test_topk_ties_break_by_record_id():
    recs = [make_source_record({"text": "same words"}, origin=f"o{i}")
            for i in range(4)]
    index = VectorIndex.build(recs, hashing_embed)
    got = [r.id for r, _ in index.topk("same words", 4)]
    assert got == sorted(r.id for r in recs)


def test_topk_on_empty_index():
    index = VectorIndex.build([], hashing_embed)
    assert index.topk("anything", 3) == []


# --- the exact top-k kernel against the per-row loop -------------------------------

def _dense_rows(n=300, dim=64, duplicates=0):
    """Seeded dense unit rows keyed ``row NNN``; the last ``duplicates``
    rows copy the first ones, and ``query`` is one more unit vector."""
    rng = np.random.default_rng(2024)
    vectors = rng.standard_normal((n + 1, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[n - duplicates:n] = vectors[:duplicates]
    table = {f"row {i:03d}": vectors[i] for i in range(n)}
    table["query"] = vectors[n]
    return table


def _loop_rank(table, k, tau, tie_key):
    """The oracle: one ``float(v @ q)`` per row, filter, sort, cut."""
    query = table["query"]
    scored = [(cosine_to_score(float(vec @ query)), tie_key(text))
              for text, vec in table.items() if text != "query"]
    kept = sorted((pair for pair in scored if pair[0] >= tau),
                  key=lambda pair: (-pair[0], pair[1]))
    return kept[:k]


def _topk_cases():
    table = _dense_rows(duplicates=40)
    ranked = [s for s, _ in _loop_rank(table, 300, 0.0, str)]
    return {
        "dense": (_dense_rows(), 10, 0.0),
        "duplicate-rows": (table, 60, 0.0),
        "score-equals-tau": (table, 300, ranked[17]),
        "k-above-n": (table, 1000, 0.0),
        "k-equals-n": (table, 300, 0.0),
        "tau-above-every-score": (table, 5, float(np.nextafter(ranked[0], 2.0))),
    }


_TOPK_CASES = _topk_cases()


@pytest.mark.parametrize("case", sorted(_TOPK_CASES))
def test_cosine_topk_equals_per_row_loop(tmp_path, case):
    table, k, tau = _TOPK_CASES[case]
    texts = [text for text in table if text != "query"]
    if case == "score-equals-tau":
        assert _loop_rank(table, k, tau, str)[-1][0] == tau
    matrix = np.stack([table[text] for text in texts])
    assert [(texts[row], s) for row, s in cosine_topk(matrix, table["query"], k, tau)] \
        == [(text, s) for s, text in _loop_rank(table, k, tau, str)]

    records = [make_source_record({"text": text}, origin=text) for text in texts]
    index = VectorIndex.build(records, table.__getitem__)
    by_text = {r.fields["text"]: r.id for r in records}
    expected = _loop_rank(table, k, -math.inf, by_text.__getitem__)
    assert [(r.id, s) for r, s in index.topk("query", k)] == \
        [(rid, s) for s, rid in expected]

    store = ContextStore(tmp_path / "store", table.__getitem__)
    seq_of = {text: store.register(context_create((), text)).seq
              for text in texts}
    expected = _loop_rank(table, k, tau, seq_of.__getitem__)
    assert [(s, e.seq) for e, s in store.retrieve("query", k=k, tau=tau)] == \
        expected


def test_public_api_names_resolve():
    import semaq

    resolved = {name: getattr(semaq, name) for name in semaq.__all__}
    assert len(resolved) == len(semaq.__all__)  # and no name is listed twice
