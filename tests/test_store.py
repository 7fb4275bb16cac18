"""Context store: durable registration, similarity retrieval, augmentation."""

import json

import numpy as np
import pytest

from semaq import (ContextStore, StoreConflictError, StoreError,
                   ValidationError, context_create, context_derive,
                   hashing_embed, make_source_record)
from semaq.core import Context, cosine_to_score
from semaq.store import _checksum


def _ctx(description, seed="x"):
    records = [make_source_record({"text": f"{seed} body"}, origin=f"{seed}#0")]
    return context_create(records, description)


@pytest.fixture
def store(tmp_path):
    return ContextStore(tmp_path / "cache", hashing_embed)


# --- registration ------------------------------------------------------------------

def test_register_and_get(store):
    ctx = _ctx("emails about vendor contracts")
    entry = store.register(ctx, instruction="triage vendor emails")
    assert entry.context_id == ctx.id
    assert entry.seq == 0
    assert entry.lineage_summary == "root"
    assert store.get_entry(ctx.id) is entry
    assert store.get_context(ctx.id) is ctx
    assert len(store) == 1


def test_register_identical_content_is_idempotent(store):
    ctx = _ctx("quarterly filings digest")
    first = store.register(ctx)
    before = (store._entries_path.read_bytes(), store._vectors_path.read_bytes())
    again = store.register(ctx)
    assert again is first and len(store) == 1
    after = (store._entries_path.read_bytes(), store._vectors_path.read_bytes())
    assert after == before


def test_register_conflicting_content_refused(store):
    ctx = _ctx("original description")
    store.register(ctx)
    impostor = Context(id=ctx.id, description="different description",
                       source=ctx.source)
    with pytest.raises(StoreConflictError, match=ctx.id):
        store.register(impostor)


def test_register_derived_lineage_summary(store):
    base = _ctx("base docs")
    child = context_derive(base, "filter stage", "base docs\nfiltered",
                           operator="pipeline")
    entry = store.register(child)
    assert entry.lineage_summary == f"pipeline of {base.id}"


def test_register_rejects_wrong_embedding_dim(tmp_path):
    bad = ContextStore(tmp_path / "s", embed=lambda text: np.zeros(3), dim=4)
    with pytest.raises(ValidationError):
        bad.register(_ctx("whatever"))


# --- retrieval ---------------------------------------------------------------------

_DIRECTIONS = {
    "anchor": np.array([1.0, 0.0]),
    "diagonal": np.array([2.0 ** -0.5, 2.0 ** -0.5]),
    "orthogonal": np.array([0.0, 1.0]),
    "opposite": np.array([-1.0, 0.0]),
}


def _toy_embed(text):
    for key, vec in _DIRECTIONS.items():
        if key in text:
            return vec
    return np.array([1.0, 0.0])


@pytest.fixture
def toy_store(tmp_path):
    store = ContextStore(tmp_path / "toy", _toy_embed, dim=2)
    for key in ("anchor", "diagonal", "orthogonal", "opposite"):
        store.register(_ctx(f"{key} notes", seed=key))
    return store


def test_retrieve_scores_and_tau_filter(toy_store):
    got = toy_store.retrieve("anchor query", k=10, tau=0.0)
    sims = [sim for _, sim in got]
    assert sims == sorted(sims, reverse=True)
    assert sims[0] == pytest.approx(1.0)
    assert sims[1] == pytest.approx(cosine_to_score(2.0 ** -0.5))
    assert sims[2] == pytest.approx(0.5)
    assert sims[3] == pytest.approx(0.0)
    above = toy_store.retrieve("anchor query", k=10, tau=0.6)
    assert [entry.description for entry, _ in above] == [
        "anchor notes", "diagonal notes"]


def test_retrieve_k_cut(toy_store):
    assert len(toy_store.retrieve("anchor query", k=2, tau=0.0)) == 2


def test_retrieve_ties_break_by_registration_order(tmp_path):
    store = ContextStore(tmp_path / "ties", lambda text: np.array([1.0, 0.0]),
                         dim=2)
    ids = [store.register(_ctx(f"same direction {i}", seed=str(i))).context_id
           for i in range(4)]
    got = store.retrieve("whatever", k=4, tau=0.0)
    assert [entry.context_id for entry, _ in got] == ids
    assert all(sim == pytest.approx(1.0) for _, sim in got)


def test_retrieve_empty_store_and_validation(store):
    assert store.retrieve("anything") == []
    store.register(_ctx("one"))
    with pytest.raises(ValidationError):
        store.retrieve("q", k=0)
    with pytest.raises(ValidationError):
        store.retrieve("q", tau=1.5)


def test_self_match_is_perfect(store):
    ctx = _ctx("a very particular description of prior work")
    store.register(ctx)
    got = store.retrieve(ctx.description, k=1, tau=0.0)
    assert got[0][0].context_id == ctx.id
    assert abs(got[0][1] - 1.0) < 1e-6


# --- augmentation ------------------------------------------------------------------

def test_augment_appends_findings_block(toy_store):
    ctx = _ctx("fresh task context")
    matches = toy_store.retrieve("anchor query", k=2, tau=0.0)
    merged = toy_store.augment(ctx, matches)
    assert merged.description.startswith(ctx.description)
    assert "Related prior findings:" in merged.description
    for entry, sim in matches:
        assert f"[{entry.context_id}]" in merged.description
        assert f"similarity {sim:.3f}" in merged.description
    assert merged.lineage.operator == "augment"
    assert merged.lineage.parent_id == ctx.id


def test_augment_truncates_long_descriptions(tmp_path):
    store = ContextStore(tmp_path / "long", hashing_embed)
    long_ctx = _ctx("weather " * 600)  # 4800 chars
    store.register(long_ctx)
    match = store.retrieve("weather", k=1, tau=0.0)[0]
    merged = store.augment(_ctx("short base"), [match])
    block = merged.description.split("Related prior findings:\n")[1]
    assert "..." in block
    assert len(block) < 2200


def test_augment_no_matches_returns_same_object(store):
    ctx = _ctx("untouched")
    assert store.augment(ctx, []) is ctx


# --- persistence -------------------------------------------------------------------

def test_reopen_round_trip(tmp_path):
    path = tmp_path / "persist"
    store = ContextStore(path, hashing_embed)
    contexts = [_ctx(f"topic {i}: deliveries and invoices", seed=str(i))
                for i in range(5)]
    # JSON writes these line and paragraph separators raw; they must not
    # split an entry line on reopen
    contexts += [_ctx(f"notes{sep}more invoices", seed=f"sep{i}")
                 for i, sep in enumerate(("\u2028", "\u2029", "\u0085"))]
    for ctx in contexts:
        store.register(ctx, instruction=f"task {ctx.id[:6]}")
    before_files = ((path / "entries.jsonl").read_bytes(),
                    (path / "vectors.bin").read_bytes())
    before = store.retrieve("invoices and deliveries", k=5, tau=0.0)

    reopened = ContextStore(path, hashing_embed)
    after_files = ((path / "entries.jsonl").read_bytes(),
                   (path / "vectors.bin").read_bytes())
    assert after_files == before_files
    assert len(reopened) == len(contexts)
    docs = [json.loads(line) for line in
            after_files[0].decode("utf-8").split("\n") if line]
    assert [doc["description"] for doc in docs] == \
        [ctx.description for ctx in contexts]
    after = reopened.retrieve("invoices and deliveries", k=5, tau=0.0)
    assert [(e.context_id, sim) for e, sim in before] == \
        [(e.context_id, sim) for e, sim in after]
    for ctx in contexts:
        entry = reopened.get_entry(ctx.id)
        assert entry is not None and entry.description == ctx.description
        np.testing.assert_array_equal(entry.embedding,
                                      store.get_entry(ctx.id).embedding)
        assert entry == store.get_entry(ctx.id)
        assert _checksum(entry.description, entry.embedding.tobytes()) == \
            docs[entry.seq]["checksum"]
        # live objects do not survive a reopen, entries do
        assert reopened.get_context(ctx.id) is None


def test_reopen_detects_vector_corruption(tmp_path):
    path = tmp_path / "corrupt"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("pristine"))
    blob = bytearray((path / "vectors.bin").read_bytes())
    blob[10] ^= 0xFF
    (path / "vectors.bin").write_bytes(bytes(blob))
    with pytest.raises(StoreError, match="checksum mismatch"):
        ContextStore(path, hashing_embed)


def test_reopen_detects_truncated_vectors(tmp_path):
    path = tmp_path / "trunc"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("pristine"))
    blob = (path / "vectors.bin").read_bytes()
    (path / "vectors.bin").write_bytes(blob[:-8])
    with pytest.raises(StoreError, match="truncated"):
        ContextStore(path, hashing_embed)


def test_reopen_detects_corrupt_entry_line(tmp_path):
    path = tmp_path / "badline"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("pristine"))
    (path / "entries.jsonl").write_text("{not json\n", encoding="utf-8")
    with pytest.raises(StoreError, match="line 1"):
        ContextStore(path, hashing_embed)


def test_entries_file_shape(tmp_path):
    path = tmp_path / "shape"
    store = ContextStore(path, hashing_embed)
    ctx = _ctx("shape check")
    store.register(ctx, instruction="inspect")
    doc = json.loads((path / "entries.jsonl").read_text().splitlines()[0])
    assert doc["context_id"] == ctx.id
    assert doc["instruction"] == "inspect"
    assert doc["seq"] == 0 and doc["dim"] == 256
    assert len(doc["checksum"]) == 64


def test_clear_removes_everything(tmp_path):
    path = tmp_path / "wipe"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("ephemeral"))
    store.clear()
    assert len(store) == 0
    assert not (path / "entries.jsonl").exists()
    assert not (path / "vectors.bin").exists()
    assert store.retrieve("ephemeral") == []
    reopened = ContextStore(path, hashing_embed)
    assert len(reopened) == 0
