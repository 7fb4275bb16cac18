"""Context store: durable registration, similarity retrieval, augmentation."""

import hashlib
import json
import logging
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import semaq.store as store_mod
from semaq import (ContextStore, MockBackend, MockRule, MockScript,
                   StoreConflictError, StoreError, ValidationError, bind_plan,
                   context_create, context_derive, hashing_embed,
                   make_source_record, parse_pipeline, pipeline_execute)
from semaq.core import Context, cosine_to_score
from semaq.store import LoggedAnswer, _checksum
from tests.conftest import CHEAP
from tests.store_memory import write_answer_log, write_history


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
    store = ContextStore(tmp_path / "s",
                         embed=lambda text: np.ones(4 if "wide" in text else 3))
    store.register(_ctx("narrow first"))
    with pytest.raises(ValidationError, match=r"\(4,\) does not match store dim 3"):
        store.register(_ctx("wide second"))
    with pytest.raises(ValidationError, match="store dim 3"):
        store.retrieve("wide query")
    assert len(store) == 1


def test_store_width_comes_from_its_data(tmp_path):
    def embed(text):
        return hashing_embed(text, dim=1536)

    path = tmp_path / "wide"
    store = ContextStore(path, embed)
    contexts = [_ctx(f"provider-width notes {i}", seed=str(i)) for i in range(3)]
    for ctx in contexts:
        store.register(ctx)
    assert store.dim == 1536
    reopened = ContextStore(path, embed)
    assert reopened.dim == 1536 and len(reopened) == 3
    got = reopened.retrieve(contexts[1].description, k=1, tau=0.0)
    assert got[0][0].context_id == contexts[1].id
    assert got[0][1] == pytest.approx(1.0)
    assert (path / "vectors.bin").stat().st_size == 3 * 1536 * 8


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
    store = ContextStore(tmp_path / "toy", _toy_embed)
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
    store = ContextStore(tmp_path / "ties", lambda text: np.array([1.0, 0.0]))
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


def test_concurrent_register_and_retrieve_keep_rows_consistent(tmp_path):
    store = ContextStore(tmp_path / "threads", hashing_embed)
    failures = []

    def worker(w):
        try:
            for i in range(40):
                text = f"worker {w} item {i}"
                store.register(_ctx(text, seed=f"{w}-{i}"))
                qvec = hashing_embed(text)
                for entry, sim in store.retrieve(text, k=3, tau=0.0):
                    assert sim == cosine_to_score(
                        float(hashing_embed(entry.description) @ qvec))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert [entry.seq for entry in store.entries] == list(range(240))
    for entry in store.entries:
        np.testing.assert_array_equal(entry.embedding,
                                      hashing_embed(entry.description))


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


@pytest.mark.parametrize("field,value", [
    ("description", 5), ("context_id", None), ("checksum", ["0" * 64]),
    ("instruction", {}), ("seq", "first"), ("dim", 0), ("created_at", "noon"),
])
def test_reopen_rejects_a_mistyped_entry_field(tmp_path, field, value):
    path = tmp_path / "typed"
    late = ContextStore(path, hashing_embed)
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("first", seed="a"))
    store.register(_ctx("second", seed="b"))
    lines = (path / "entries.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    doc[field] = value
    lines[0] = json.dumps(doc)
    (path / "entries.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreError, match="corrupt store entry at line 1"):
        ContextStore(path, hashing_embed)
    with pytest.raises(StoreError, match="corrupt store entry at line 1"):
        late.register(_ctx("third", seed="c"))
    assert len(late) == 0


def _set_entry_key(path, index, key, value):
    """Set ``key`` to ``value`` in entry line ``index`` of the store at ``path``."""
    log = path / "entries.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[index])
    doc[key] = value
    lines[index] = json.dumps(doc)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("field,value", [
    ("seq", True), ("seq", 1.9), ("seq", "1"), ("dim", 256.5), ("dim", "256"),
    ("created_at", "nan"), ("created_at", True), ("created_at", math.nan),
], ids=["seq-true", "seq-1.9", "seq-str", "dim-256.5", "dim-str", "created-str-nan",
        "created-true", "created-NaN-literal"])
def test_reopen_checks_entry_numbers_without_converting(tmp_path, capsys, field, value):
    """A seq or dim that is not a JSON integer, or a created_at that is not a
    finite JSON number, is corrupt: it is not converted into one."""
    from semaq.cli import main

    path = tmp_path / "typed"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("first", seed="a"))
    store.register(_ctx("second", seed="b"))
    _set_entry_key(path, 0, field, value)
    with pytest.raises(StoreError, match="corrupt store entry at line 1"):
        ContextStore(path, hashing_embed)
    assert main(["--cache-dir", str(path), "cache", "list"]) == 9
    assert capsys.readouterr().err.startswith(
        "error: store-error: corrupt store entry at line 1: bad value for ")


def test_two_entry_lines_with_one_seq_are_a_store_error(tmp_path, capsys):
    from semaq.cli import main

    path = tmp_path / "twins"
    late = ContextStore(path, hashing_embed)
    store = ContextStore(path, hashing_embed)
    for i in range(3):
        store.register(_ctx(f"topic {i}", seed=str(i)))
    _set_entry_key(path, 2, "seq", 0)
    with pytest.raises(StoreError, match="store entries at lines 1 and 3 share seq 0"):
        ContextStore(path, hashing_embed)
    with pytest.raises(StoreError, match="lines 1 and 3 share seq 0"):
        late.register(_ctx("after the twins", seed="after"))
    assert len(late) == 0
    assert main(["--cache-dir", str(path), "cache", "list"]) == 9
    assert capsys.readouterr().err.startswith(
        "error: store-error: store entries at lines 1 and 3 share seq 0")


def test_an_entry_line_that_is_not_strict_utf8_is_corrupt(tmp_path, capsys):
    """A line is decoded as strict UTF-8 before it is parsed, so the bytes of
    an encoded lone surrogate make it corrupt rather than an entry whose
    description cannot be hashed."""
    from semaq.cli import main

    path = tmp_path / "surrogate"
    ContextStore(path, hashing_embed).register(_ctx("plain text"))
    log = path / "entries.jsonl"
    log.write_bytes(log.read_bytes().replace(b"plain text", b"plain \xed\xa0\x80text"))
    with pytest.raises(StoreError, match="corrupt store entry at line 1: UnicodeDecodeError"):
        ContextStore(path, hashing_embed)
    assert main(["--cache-dir", str(path), "cache", "list"]) == 9
    assert capsys.readouterr().err.startswith(
        "error: store-error: corrupt store entry at line 1")


def test_a_line_with_a_loaded_seq_fails_a_live_store_as_it_fails_a_reopen(tmp_path):
    """The repeated-seq check spans reads: a line appended from outside with
    the seq of an entry the store already loaded fails its next registration,
    before it writes, with the reopen's error."""
    path = tmp_path / "late-twin"
    store = ContextStore(path, hashing_embed)
    for i in range(2):
        store.register(_ctx(f"topic {i}", seed=str(i)))
    log = path / "entries.jsonl"
    doc = json.loads(log.read_bytes().splitlines()[0])
    doc["context_id"] = "ctx-copied"
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    before = (log.read_bytes(), (path / "vectors.bin").read_bytes())
    message = "store entries at lines 1 and 3 share seq 0"
    with pytest.raises(StoreError, match=message):
        store.register(_ctx("after the twin", seed="after"))
    with pytest.raises(StoreError, match=message):
        ContextStore(path, hashing_embed)
    assert [e.seq for e in store.entries] == [0, 1]
    assert (log.read_bytes(), (path / "vectors.bin").read_bytes()) == before


def test_text_utf8_cannot_encode_is_refused_before_a_byte_is_written(tmp_path):
    path = tmp_path / "surrogates"
    store = ContextStore(path, lambda text: np.ones(4))
    with pytest.raises(ValidationError, match="not valid Unicode"):
        store.register(context_create((), "bad \ud800 text"))
    ctx = _ctx("fine text")
    with pytest.raises(ValidationError, match="not valid Unicode"):
        store.register(ctx, instruction="bad \udc80 instruction")
    with pytest.raises(ValidationError, match="not valid Unicode"):
        store.register(replace(ctx, description="bad \udfff text"))
    assert not (path / "entries.jsonl").exists() and not (path / "vectors.bin").exists()
    assert len(store) == 0
    assert store.register(ctx).seq == 0


@pytest.mark.parametrize("key", ["context_id", "description", "instruction", "lineage"])
def test_an_entry_line_escaping_a_lone_surrogate_is_corrupt(tmp_path, capsys, key):
    from semaq.cli import main

    path = tmp_path / "escaped"
    ContextStore(path, hashing_embed).register(_ctx("plain text"), instruction="do it")
    _set_entry_key(path, 0, key, "bad \ud800 text")
    with pytest.raises(StoreError, match="corrupt store entry at line 1: .*not valid Unicode"):
        ContextStore(path, hashing_embed)
    assert main(["--cache-dir", str(path), "cache", "list"]) == 9
    assert capsys.readouterr().err.startswith(
        "error: store-error: corrupt store entry at line 1")


def test_an_entry_line_written_as_ascii_json_reopens_unchanged(tmp_path):
    """Escapes that spell valid text, a surrogate pair among them, load as
    the text they spell."""
    path = tmp_path / "ascii"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("café ☕ and a grin \U0001F600 \x01"), instruction="résumé")
    _set_entry_key(path, 0, "seq", 0)  # rewrites the line as ASCII JSON
    assert b"\\ud83d\\ude00" in (path / "entries.jsonl").read_bytes()
    (entry,) = ContextStore(path, hashing_embed).entries
    assert entry == store.entries[0]
    assert entry.embedding.tobytes() == store.entries[0].embedding.tobytes()

def test_a_null_optional_entry_key_reads_as_its_default(tmp_path):
    path = tmp_path / "nulls"
    store = ContextStore(path, hashing_embed)
    ctx = _ctx("first", seed="a")
    store.register(context_derive(ctx, "narrow it", "narrowed first"), instruction="do a")
    for key in ("instruction", "lineage", "created_at"):
        _set_entry_key(path, 0, key, None)
    (entry,) = ContextStore(path, hashing_embed).entries
    assert (entry.instruction, entry.lineage_summary, entry.created_at) == ("", "", 0.0)
    assert entry.description == "narrowed first" and entry.seq == 0


# Written by semaq at commit 4addca2 (hashing_embed, dim 256): three entries,
# the third holding non-ASCII text and a U+2028, and an answer log with a
# sem_filter verdict and a sem_map's fields.
STORE_FIXTURE = Path(__file__).parent / "data" / "store_4addca2"
FIXTURE_ENTRIES = [
    ("ctx-b7f1ad111bf8", "Quarterly budget memos from the finance team", "", "root",
     0, 1792392469.1279538,
     "8088ce422666773fbd20b56f669f77d2182cab80d6d941432d307f4cff77e170"),
    ("ctx-01c6cee2641d", "Finance memos that mention a signed deal, with amounts",
     "emails that mention a deal", "derive of ctx-b7f1ad111bf8", 1, 1792392469.1283078,
     "984819e8a30bdae0c2df76e8538e785b75bede80a248fcb5de22d3e37198b8c5"),
    ("ctx-b72f6e60acc3",
     "Résumé des notes d’équipe — café ☕ et «budget»\u2028fin",
     "résumer les notes", "root", 2, 1792392469.1285636,
     "1e75f6695111a30cdab97e758d32393f67f87aea437ec58cbe029612a6529264"),
]
FIXTURE_ANSWERS = [
    LoggedAnswer("mock-small",
                 "e1baf7a505923edae4a3998779cce311813b872732b95de50cbe4ab6b6744efc",
                 True, 41, 1, 1),
    LoggedAnswer("mock-large",
                 "7a50871a5dffa9f04925e83f37238742e549d98628fc994d7d58d0fdbb9246c0",
                 {"deal": "yes", "amount": 1200, "ratio": 0.25, "tags": ["q3", "ü"],
                  "note": None}, 88, 14, 2),
]


def test_a_store_written_by_an_earlier_version_reopens_unchanged(tmp_path):
    path = tmp_path / "old"
    shutil.copytree(STORE_FIXTURE, path)
    store = ContextStore(path, hashing_embed)
    assert [(e.context_id, e.description, e.instruction, e.lineage_summary, e.seq,
             e.created_at, hashlib.sha256(e.embedding.tobytes()).hexdigest())
            for e in store.entries] == FIXTURE_ENTRIES
    for entry in store.entries:
        np.testing.assert_array_equal(entry.embedding, hashing_embed(entry.description))
    assert store.read_answers() == len(FIXTURE_ANSWERS)
    for logged in FIXTURE_ANSWERS:
        assert store.answer(logged.model, logged.prompt) == logged
    # it takes new entries and answers in the same format
    store.register(_ctx("a fourth topic", seed="d"))
    store.add_answers([_answer(0)])
    again = ContextStore(path, hashing_embed)
    assert [e.seq for e in again.entries] == [0, 1, 2, 3]
    assert again.read_answers() == 3
    for name in ("entries.jsonl", "vectors.bin", "answers.jsonl"):
        old = (STORE_FIXTURE / name).read_bytes()
        assert (path / name).read_bytes()[:len(old)] == old


def test_reopen_with_seq_gaps_ranks_by_seq_then_id(tmp_path):
    def collapsing(text):
        return hashing_embed(text.split(" #", 1)[0])

    def loop_rank(store, query):
        qvec = collapsing(query)
        scored = [(cosine_to_score(float(collapsing(e.description) @ qvec)),
                   e.seq, e.context_id) for e in store.entries]
        return sorted(scored, key=lambda t: (-t[0], t[1], t[2]))

    path = tmp_path / "gaps"
    store = ContextStore(path, collapsing)
    for i in range(8):
        store.register(_ctx(f"group {i % 2} shared #{i}", seed=str(i)))
    lines = (path / "entries.jsonl").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if json.loads(line)["seq"] not in (2, 5)]
    (path / "entries.jsonl").write_text("\n".join(reversed(kept)) + "\n",
                                        encoding="utf-8")
    reopened = ContextStore(path, collapsing)
    assert [e.seq for e in reopened.entries] == [0, 1, 3, 4, 6, 7]
    for query in ("group 0 shared", "group 1 shared"):
        got = reopened.retrieve(query, k=8, tau=0.0)
        assert [(sim, e.seq, e.context_id) for e, sim in got] == \
            loop_rank(reopened, query)
    # the next seq is the vector file's row count, past every stored row
    added = reopened.register(_ctx("group 0 shared #new", seed="new"))
    assert added.seq == 8
    got = reopened.retrieve("group 0 shared", k=8, tau=0.0)
    assert [(sim, e.seq, e.context_id) for e, sim in got] == \
        loop_rank(reopened, "group 0 shared")
    for entry in reopened.entries:
        np.testing.assert_array_equal(entry.embedding,
                                      collapsing(entry.description))


def test_register_after_lost_entry_line_survives_reopen(tmp_path):
    """A new entry's seq is its vector's row, not the entry count, so a
    store missing an entry line still reopens after the next register."""
    path = tmp_path / "lost"
    store = ContextStore(path, hashing_embed)
    for i in range(4):
        store.register(_ctx(f"ledger topic {i}", seed=str(i)))
    lines = (path / "entries.jsonl").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if json.loads(line)["seq"] != 1]
    (path / "entries.jsonl").write_text("\n".join(kept) + "\n", encoding="utf-8")
    reopened = ContextStore(path, hashing_embed)
    assert [e.seq for e in reopened.entries] == [0, 2, 3]
    new = _ctx("freshly registered findings", seed="new")
    added = reopened.register(new)
    again = ContextStore(path, hashing_embed)
    assert added.seq == 4
    assert [e.seq for e in again.entries] == [0, 2, 3, 4]
    got = again.retrieve("freshly registered findings", k=1, tau=0.0)
    assert [(e.context_id, sim) for e, sim in got] == [(new.id, 1.0)]
    np.testing.assert_array_equal(again.get_entry(new.id).embedding,
                                  hashing_embed(new.description))


@pytest.mark.parametrize("orphan", ["whole-row", "torn-row", "no-entries"])
def test_register_after_orphan_vector_bytes_survives_reopen(tmp_path, orphan):
    """Vector bytes with no entry line (a crash between the two appends, a
    torn write, a lost entry log) are skipped by the next register."""
    path = tmp_path / orphan
    store = ContextStore(path, hashing_embed)
    first = _ctx("first findings", seed="a")
    store.register(first)
    row = (path / "vectors.bin").read_bytes()
    with open(path / "vectors.bin", "ab") as fh:
        fh.write(row[:100] if orphan == "torn-row" else row)
    if orphan == "no-entries":
        (path / "entries.jsonl").unlink()
    reopened = ContextStore(path, hashing_embed)
    second = _ctx("second findings", seed="b")
    added = reopened.register(second)
    again = ContextStore(path, hashing_embed)
    assert added.seq == 2
    ids = [second.id] if orphan == "no-entries" else [first.id, second.id]
    assert [e.context_id for e in again.entries] == ids
    for entry in again.entries:
        np.testing.assert_array_equal(entry.embedding,
                                      hashing_embed(entry.description))


@pytest.mark.parametrize("cut", ["40-bytes", "mid-character"])
def test_reopen_skips_torn_last_entry_line(tmp_path, caplog, cut):
    """A crash mid-append leaves a last line with no \\n that does not
    parse: reopening skips it with a warning and writes nothing."""
    path = tmp_path / cut
    store = ContextStore(path, hashing_embed)
    first = _ctx("first findings", seed="a")
    store.register(first)
    store.register(_ctx("second findings caf\u00e9 \u65e5\u672c", seed="b"))
    log = (path / "entries.jsonl").read_bytes()
    if cut == "40-bytes":
        log = log[:-40]
    else:  # inside the description's first multi-byte character
        log = log[:log.rindex("\u00e9".encode("utf-8")) + 1]
    (path / "entries.jsonl").write_bytes(log)
    files = (path / "entries.jsonl", path / "vectors.bin")
    before = [f.read_bytes() for f in files]
    with caplog.at_level(logging.WARNING, logger="semaq.store"):
        reopened = ContextStore(path, hashing_embed)
    assert [e.context_id for e in reopened.entries] == [first.id]
    assert "torn last line" in caplog.text
    assert [f.read_bytes() for f in files] == before
    # the next registration cuts the torn line off before it appends
    third = _ctx("third findings", seed="c")
    assert reopened.register(third).seq == 2
    again = ContextStore(path, hashing_embed)
    assert [e.context_id for e in again.entries] == [first.id, third.id]
    for entry in again.entries:
        np.testing.assert_array_equal(entry.embedding,
                                      hashing_embed(entry.description))


def test_reopen_torn_line_before_the_last_stays_fatal(tmp_path):
    path = tmp_path / "midfile"
    store = ContextStore(path, hashing_embed)
    for i in range(3):
        store.register(_ctx(f"topic {i}", seed=str(i)))
    lines = (path / "entries.jsonl").read_bytes().split(b"\n")
    lines[1] = lines[1][:-40]
    (path / "entries.jsonl").write_bytes(b"\n".join(lines))
    with pytest.raises(StoreError, match="corrupt store entry at line 2"):
        ContextStore(path, hashing_embed)


def test_reopen_checksum_mismatch_on_unterminated_last_line_stays_fatal(tmp_path):
    path = tmp_path / "badsum"
    store = ContextStore(path, hashing_embed)
    store.register(_ctx("first", seed="a"))
    store.register(_ctx("second", seed="b"))
    lines = (path / "entries.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[1])
    doc["checksum"] = "0" * 64
    lines[1] = json.dumps(doc)
    (path / "entries.jsonl").write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(StoreError, match="checksum mismatch"):
        ContextStore(path, hashing_embed)


def test_register_after_lost_final_newline_survives_reopen(tmp_path):
    """A last line that lost only its \\n is an entry; the next register
    ends it before appending instead of gluing its own line onto it."""
    path = tmp_path / "newline"
    store = ContextStore(path, hashing_embed)
    first = _ctx("first findings", seed="a")
    store.register(first)
    log = (path / "entries.jsonl").read_bytes()
    (path / "entries.jsonl").write_bytes(log.rstrip(b"\n"))
    reopened = ContextStore(path, hashing_embed)
    assert [e.context_id for e in reopened.entries] == [first.id]
    second = _ctx("second findings", seed="b")
    reopened.register(second)
    again = ContextStore(path, hashing_embed)
    assert [(e.context_id, e.seq) for e in again.entries] == \
        [(first.id, 0), (second.id, 1)]
    assert (path / "entries.jsonl").read_bytes().startswith(log)


_REGISTER_20 = """
import sys, time
from pathlib import Path
from semaq import ContextStore, context_create, hashing_embed, make_source_record
directory, worker, go = sys.argv[1], sys.argv[2], Path(sys.argv[3])
deadline = time.monotonic() + 30
while not go.exists() and time.monotonic() < deadline:
    time.sleep(0.001)
store = ContextStore(directory, hashing_embed)
for i in range(20):
    record = make_source_record({"text": f"{worker} {i}"}, origin=f"{worker}#{i}")
    store.register(context_create([record], f"process {worker} finding {i}"))
"""


def test_two_processes_register_with_distinct_seqs(tmp_path):
    path, go = tmp_path / "shared", tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, "-c", _REGISTER_20, str(path),
                               worker, str(go)], env=env)
             for worker in ("p", "q")]
    time.sleep(0.2)
    go.touch()
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    reopened = ContextStore(path, hashing_embed)
    assert len(reopened) == 40
    assert sorted(e.seq for e in reopened.entries) == list(range(40))
    assert {e.description for e in reopened.entries} == \
        {f"process {w} finding {i}" for w in "pq" for i in range(20)}
    for entry in reopened.entries:
        np.testing.assert_array_equal(entry.embedding,
                                      hashing_embed(entry.description))


def test_two_store_objects_register_one_context_once(tmp_path):
    """A registration first loads the entries another store object appended
    to the log, so the same context is stored once and a conflict is seen."""
    path = tmp_path / "shared"
    first = ContextStore(path, hashing_embed)
    second = ContextStore(path, hashing_embed)
    ctx = _ctx("quarterly deal findings")
    stored = first.register(ctx)
    log = (path / "entries.jsonl").read_bytes()
    again = second.register(ctx)
    assert (again.context_id, again.seq, again.created_at) == \
        (ctx.id, 0, stored.created_at)
    assert (path / "entries.jsonl").read_bytes() == log
    impostor = Context(id=ctx.id, description="other findings", source=ctx.source)
    with pytest.raises(StoreConflictError, match=ctx.id):
        second.register(impostor)
    other = _ctx("vendor contract findings", seed="y")
    assert second.register(other).seq == 1
    assert first.register(other).seq == 1 and len(first) == 2
    np.testing.assert_array_equal(first.get_entry(other.id).embedding,
                                  hashing_embed(other.description))
    reopened = ContextStore(path, hashing_embed)
    assert [(e.context_id, e.seq) for e in reopened.entries] == \
        [(ctx.id, 0), (other.id, 1)]
    hits = reopened.retrieve(ctx.description, k=5, tau=0.0)
    assert [entry.context_id for entry, _ in hits].count(ctx.id) == 1


def test_catch_up_and_reopen_load_the_same_store(tmp_path):
    """A store that catches up on a log another store object wrote, with a
    seq gap and a last line that lost its \\n, holds what a reopen holds,
    and both fail on a later corrupt line with the same line number."""
    def rows(store):
        return [(e.context_id, e.seq, e.embedding.tobytes()) for e in store.entries]

    def ranked(store, query):
        return [(e.context_id, sim) for e, sim in store.retrieve(query, k=8, tau=0.0)]

    path = tmp_path / "shared"
    late = ContextStore(path, hashing_embed)
    writer = ContextStore(path, hashing_embed)
    for i in range(6):
        writer.register(_ctx(f"shipment audit {i} carriers", seed=str(i)))
    lines = (path / "entries.jsonl").read_bytes().split(b"\n")[:-1]
    del lines[2]
    (path / "entries.jsonl").write_bytes(b"\n".join(lines))
    late.register(_ctx("shipment audit late carriers", seed="late"))
    fresh = ContextStore(path, hashing_embed)
    assert [seq for _, seq, _ in rows(late)] == [0, 1, 3, 4, 5, 6]
    assert rows(late) == rows(fresh)
    for query in ("shipment audit carriers", "late carriers", "audit 4"):
        assert ranked(late, query) == ranked(fresh, query)
    with open(path / "entries.jsonl", "ab") as log:
        log.write(b'{"context_id": "broken"\n')
    with pytest.raises(StoreError, match="corrupt store entry at line 7"):
        late.register(_ctx("after the corrupt line", seed="after"))
    with pytest.raises(StoreError, match="corrupt store entry at line 7"):
        ContextStore(path, hashing_embed)
    assert rows(late) == rows(fresh)


def _held(store):
    return [(e.context_id, e.description, e.instruction, e.lineage_summary, e.seq,
             e.created_at, e.embedding.tobytes()) for e in store.entries]


def _cut_append(path, name, append, rng):
    """Run ``append()``, then cut file ``name`` at a seeded offset inside the
    bytes it appended: a torn or lost last line, as a crash leaves one.  An
    append that wrote nothing, or whose mend of a torn tail left the file no
    longer than before, is not cut."""
    file = path / name
    old = _size(file)
    append()
    if _size(file) > old:
        os.truncate(file, rng.randrange(old, _size(file)))


def _size(file):
    return file.stat().st_size if file.exists() else 0


@pytest.mark.parametrize("seed", range(8))
def test_a_live_store_holds_what_a_reopen_holds(tmp_path, seed):
    """Oracle over two store objects on one directory: after each step of a
    seeded mix of registrations (new, identical, conflicting), answer appends,
    torn last lines, a line appended from outside with a seq already held,
    and clears, the store that acted registers one more context.  Either that
    registration and a fresh reopen raise the same StoreError, or the store
    holds what the reopen holds, answers included."""
    rng = random.Random(seed)
    path = tmp_path / "store"
    stores = [ContextStore(path, hashing_embed) for _ in range(2)]
    stored, count, kinds = [], iter(range(10_000)), []

    def fresh_ctx():
        n = next(count)
        ctx = _ctx(f"topic {n} {rng.choice(['audit', 'vendor', 'deal'])}", seed=str(n))
        return context_derive(ctx, f"narrow {n}", f"narrowed topic {n}") \
            if rng.random() < 0.3 else ctx

    def answers():
        return [_answer(rng.randrange(30), model=rng.choice("ab"))
                for _ in range(rng.randint(1, 3))]

    def clear():
        for store in stores:
            store.clear()
        stored.clear()

    for step in range(40):
        live = rng.choice(stores)
        kind = rng.choice(["new", "new", "same", "conflict", "answers", "torn", "twin",
                           "clear"])
        if step == 39 and "twin" not in kinds:  # every schedule takes a twin step
            kind = "twin"
        kinds.append(kind)
        if kind == "new" or kind in ("same", "conflict") and not stored:
            ctx = fresh_ctx()
            assert live.register(ctx, instruction=f"ask {ctx.id}").context_id == ctx.id
            stored.append(ctx)
        elif kind == "same":
            ctx = rng.choice(stored)
            assert live.register(ctx).context_id == ctx.id
        elif kind == "conflict":
            other = replace(rng.choice(stored), description="other content")
            with pytest.raises(StoreConflictError):
                live.register(other)
        elif kind == "answers":
            live.add_answers(answers())
        elif kind == "torn":
            writer = ContextStore(path, hashing_embed)  # a process that crashes
            name = rng.choice([store_mod._ENTRIES_FILE, store_mod._VECTORS_FILE,
                               store_mod._ANSWERS_FILE])
            if name == store_mod._ANSWERS_FILE:
                _cut_append(path, name, lambda: writer.add_answers(answers()), rng)
            elif name == store_mod._ENTRIES_FILE:
                _cut_append(path, name, lambda: writer.register(fresh_ctx()), rng)
            else:  # the row is torn, so its line was never written
                size = _size(path / "entries.jsonl")
                _cut_append(path, name, lambda: writer.register(fresh_ctx()), rng)
                os.truncate(path / "entries.jsonl", size)
        elif kind == "twin" and _size(path / "entries.jsonl"):
            log = path / "entries.jsonl"
            doc = json.loads(rng.choice(log.read_bytes().splitlines()))
            doc["context_id"] = f"ctx-twin-{next(count)}"
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(doc) + "\n")
        elif kind == "clear":
            clear()
        try:
            live.register(fresh_ctx())
            error = None
        except StoreError as exc:
            error = str(exc)
        try:
            reopened = ContextStore(path, hashing_embed)
        except StoreError as exc:
            assert error == str(exc), kinds
            clear()
            continue
        assert error is None, kinds
        assert _held(live) == _held(reopened), kinds
        assert live.read_answers() == reopened.read_answers()
        assert live._answers == reopened._answers, kinds
    assert "twin" in kinds

def test_a_store_another_object_cleared_reads_the_log_again(tmp_path):
    path = tmp_path / "cleared"
    stale, other = (ContextStore(path, hashing_embed) for _ in range(2))
    for i in range(3):
        stale.register(_ctx(f"a long topic about shipments number {i}", seed=str(i)))
    other.clear()
    other.register(_ctx("short", seed="s"))
    stale.register(_ctx("after the clear", seed="after"))
    assert [e.seq for e in stale.entries] == [0, 1]
    assert _held(stale) == _held(ContextStore(path, hashing_embed))

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


# --- what a store holds in memory --------------------------------------------------

def test_entries_and_logged_answers_hold_no_instance_dict(store):
    entry = store.register(_ctx("a slotted entry"), instruction="inspect")
    for obj in (entry, _answer(0), _answer(1)):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)


def test_a_store_holds_one_string_per_repeated_instruction_and_lineage(tmp_path):
    """Entries loaded by a registration's read-back, by a catch-up on what
    another store object appended and by a reopen share one string object
    per distinct instruction and lineage text, and a reopen's entries equal
    and print as the live store's."""
    path = tmp_path / "shared"
    live, other = (ContextStore(path, hashing_embed) for _ in range(2))
    base = _ctx("base docs", seed="base")
    instructions = ("triage vendor emails", "sum the open invoices")
    for i in range(4):
        live.register(_ctx(f"finding {i}", seed=str(i)), instruction=instructions[i % 2])
        other.register(context_derive(base, "filter stage", f"base docs\nkept {i}",
                                      operator="pipeline"),
                       instruction=instructions[i % 2])
    live.register(_ctx("finding after the catch-up", seed="late"),
                  instruction=instructions[0])
    reopened = ContextStore(path, hashing_embed)
    texts = {*instructions, "root", f"pipeline of {base.id}"}
    for store in (live, reopened):
        assert len(store) == 9
        assert set(store._texts) == texts
        for key in ("instruction", "lineage_summary"):
            held = [getattr(entry, key) for entry in store.entries]
            assert len({id(text) for text in held}) == len(set(held)), key
            assert all(text is store._texts[text] for text in held)
    assert reopened.entries == live.entries
    assert [repr(e) for e in reopened.entries] == [repr(e) for e in live.entries]
    assert repr(reopened.entries[0]).startswith(
        f"ContextEntry(context_id='{reopened.entries[0].context_id}', description=")


def test_clear_empties_the_shared_texts(store):
    store.register(_ctx("first finding"), instruction="inspect")
    assert set(store._texts) == {"inspect", "root"}
    store.clear()
    assert store._texts == {}
    entry = store.register(_ctx("second finding", seed="y"), instruction="inspect")
    assert store._texts == {"inspect": "inspect", "root": "root"}
    assert entry.instruction is store._texts["inspect"]


def _loaded_texts(store):
    return {text for entry in store.entries
            for text in (entry.instruction, entry.lineage_summary)}


@pytest.mark.parametrize("bad", ["dim-0", "lone-surrogate", "seq-held"])
def test_the_texts_of_lines_that_do_not_load_are_not_shared(tmp_path, caplog, bad):
    """A line that fails its checks, skipped as a torn last line, or a batch
    that does not load because a line repeats a held seq, adds none of its
    texts to the store's table: it holds the loaded entries' texts only."""
    path = tmp_path / bad
    live = ContextStore(path, hashing_embed)
    live.register(_ctx("first finding"), instruction="inspect")
    log = path / "entries.jsonl"
    doc = json.loads(log.read_bytes().splitlines()[-1])
    doc.update(context_id="ctx-unloaded", instruction="never loaded", lineage="nowhere")
    if bad == "dim-0":
        doc["dim"] = 0
    elif bad == "lone-surrogate":
        doc["instruction"] = "never \ud800 loaded"
    with open(log, "ab") as fh:  # torn last lines lack their \n
        fh.write(json.dumps(doc).encode() + b"\n" * (bad == "seq-held"))
    if bad == "seq-held":
        with pytest.raises(StoreError, match="share seq"):
            live.register(_ctx("second finding", seed="y"))
        stores = [live]
    else:
        with caplog.at_level(logging.WARNING, logger="semaq.store"):
            reopened = ContextStore(path, hashing_embed)
        assert "torn last line" in caplog.text
        live.register(_ctx("second finding", seed="y"), instruction="inspect")
        stores = [live, reopened]
    for store in stores:
        assert set(store._texts) == _loaded_texts(store) == {"inspect", "root"}


def test_a_shared_text_is_not_immortal(tmp_path):
    """The texts are shared through a dict the store owns, not through
    ``sys.intern``, whose strings are immortal on CPython 3.12 and later:
    their reference count reads 2**32 - 1 or more, whatever holds them."""
    path = tmp_path / "mortal"
    writer = ContextStore(path, hashing_embed)
    for i in range(5):
        writer.register(_ctx(f"finding {i}", seed=str(i)), instruction="count refunds")
    entries = ContextStore(path, hashing_embed).entries
    text = entries[0].instruction
    assert all(entry.instruction is text for entry in entries)
    assert sys.getrefcount(text) < 100


_TRACED = """
import json, sys
from tests.store_memory import traced_bytes_per_answer, traced_bytes_per_entry
print(json.dumps([traced_bytes_per_entry(sys.argv[1]), traced_bytes_per_answer(sys.argv[1])]))
"""


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the pinned byte counts are CPython 3.11's object sizes")
def test_a_store_holds_no_more_per_entry_and_per_answer_than_measured(tmp_path):
    """A fresh interpreter reopens a 1,000-entry store and reads a
    10,000-answer log under ``tracemalloc``.  Slotted entries and answers,
    with one string per repeated instruction and lineage, held 638.1 bytes
    per entry beside the scan copy and 455.9 per answer; an entry with a
    ``__dict__`` and its own texts held 795.3, an answer with one 504.2."""
    path = tmp_path / "pinned"
    write_history(path, 1000)
    write_answer_log(path, 10_000)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _TRACED, str(path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    per_entry, per_answer = json.loads(out.stdout)
    assert per_entry <= 1.1 * 638.1, f"{per_entry:.1f} bytes per entry"
    assert per_answer <= 1.1 * 455.9, f"{per_answer:.1f} bytes per answer"


# --- the answer log ----------------------------------------------------------------

def _answer(i, model="m"):
    """Answer ``i``: a verdict when i is even, a map's fields when odd."""
    answer = i % 4 == 0 if i % 2 == 0 else {"f": f"v{i}", "n": float(i), "l": [i, "x"]}
    return LoggedAnswer(model, f"{i:064x}", answer, 10 + i, 1 + i % 3, 1 + i % 2)


def test_answer_log_round_trips_and_is_read_on_demand(tmp_path):
    path = tmp_path / "s"
    store = ContextStore(path, hashing_embed)
    assert store.read_answers() == 0 and not (path / "answers.jsonl").exists()
    store.add_answers([_answer(i) for i in range(4)] + [_answer(0)])
    assert len((path / "answers.jsonl").read_bytes().splitlines()) == 4
    reopened = ContextStore(path, hashing_embed)
    assert reopened._answers_end == 0  # a reopen does not read the log
    for i in range(4):  # the first lookup does
        assert reopened.answer("m", _answer(i).prompt) == _answer(i)
    assert reopened.answer("other", _answer(1).prompt) is None
    assert reopened.read_answers() == 4


def test_answer_log_skips_a_torn_last_line_and_cuts_it_on_append(tmp_path, caplog):
    path = tmp_path / "s"
    ContextStore(path, hashing_embed).add_answers([_answer(0), _answer(1)])
    log = path / "answers.jsonl"
    whole = log.read_bytes()
    log.write_bytes(whole[:-10])
    reopened = ContextStore(path, hashing_embed)
    with caplog.at_level(logging.WARNING, logger="semaq.store"):
        assert reopened.read_answers() == 1
    assert "torn last line" in caplog.text
    assert log.read_bytes() == whole[:-10]  # a read writes nothing
    reopened.add_answers([_answer(2)])
    assert log.read_bytes() == _answer(0).to_line() + _answer(2).to_line()
    again = ContextStore(path, hashing_embed)
    assert again.read_answers() == 2
    assert again.answer("m", _answer(1).prompt) is None
    assert again.answer("m", _answer(2).prompt) == _answer(2)


def test_answer_log_restores_a_lost_final_newline(tmp_path):
    path = tmp_path / "s"
    ContextStore(path, hashing_embed).add_answers([_answer(0), _answer(1)])
    log = path / "answers.jsonl"
    whole = log.read_bytes()
    log.write_bytes(whole.rstrip(b"\n"))
    reopened = ContextStore(path, hashing_embed)
    assert reopened.read_answers() == 2
    reopened.add_answers([_answer(2)])
    assert log.read_bytes() == whole + _answer(2).to_line()
    assert ContextStore(path, hashing_embed).read_answers() == 3


@pytest.mark.parametrize("field,value", [
    ("model", 5), ("prompt", None), ("answer", "yes"), ("answer", [True]),
    ("answer", {"f": float("nan")}), ("answer", {"": "v"}), ("answer", {}),
    ("input_tokens", "3"), ("output_tokens", -1), ("calls", 0), ("calls", 1.0),
    ("calls", True), ("answer", None),
])
def test_a_mistyped_answer_line_is_a_store_error(tmp_path, capsys, field, value):
    from semaq.cli import main

    path = tmp_path / "s"
    ContextStore(path, hashing_embed).add_answers([_answer(0)])
    doc = json.loads(_answer(1).to_line())
    doc[field] = value
    with open(path / "answers.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps(doc) + "\n")
    with pytest.raises(StoreError, match="corrupt answer at line 2"):
        ContextStore(path, hashing_embed).read_answers()
    assert main(["--cache-dir", str(path), "cache", "list"]) == 9
    assert capsys.readouterr().err.startswith(
        "error: store-error: corrupt answer at line 2")
    assert main(["--cache-dir", str(path), "cache", "clear"]) == 0
    assert capsys.readouterr().out.endswith("dropped a corrupt answer log\n")
    assert ContextStore(path, hashing_embed).read_answers() == 0


def test_two_store_objects_see_each_others_answers_after_an_append(tmp_path):
    path = tmp_path / "shared"
    first = ContextStore(path, hashing_embed)
    second = ContextStore(path, hashing_embed)
    assert first.read_answers() == second.read_answers() == 0
    first.add_answers([_answer(0)])
    assert second.answer("m", _answer(0).prompt) is None  # read before the append
    assert second.read_answers() == 1
    assert second.answer("m", _answer(0).prompt) == _answer(0)
    # an append loads what others appended first, and skips what it holds
    second.add_answers([_answer(0), _answer(1)])
    first.add_answers([_answer(1), _answer(2)])
    assert first.answer("m", _answer(1).prompt) == _answer(1)  # caught up
    log = (path / "answers.jsonl").read_bytes()
    assert log == b"".join(_answer(i).to_line() for i in range(3))
    assert first.read_answers() == second.read_answers() == 3
    assert second.answer("m", _answer(2).prompt) == _answer(2)


def test_reopen_does_not_read_a_10k_answer_log_until_a_run_asks(tmp_path, monkeypatch):
    path = tmp_path / "big"
    ContextStore(path, hashing_embed).add_answers(_answer(i) for i in range(10_000))
    parsed = []
    parse = store_mod._parse_answer
    monkeypatch.setattr(store_mod, "_parse_answer",
                        lambda line, lineno: parsed.append(lineno) or parse(line, lineno))
    store = ContextStore(path, hashing_embed)
    assert parsed == [] and len(store) == 0
    records = [make_source_record({"text": f"row {i}"}, origin=f"{i}#0")
               for i in range(3)]
    backend = MockBackend(MockScript([MockRule("PREDICATE", "yes")]), {"cheap": CHEAP})
    plan = parse_pipeline('scan(d) | sem_filter("p")')
    pipeline_execute(bind_plan(plan, {1: CHEAP}), context_create(records, "d"), backend,
                     store=store)
    assert len(parsed) == 10_000
    assert store.read_answers() == 10_003 and len(parsed) == 10_000



def test_one_read_of_the_answer_log_holds_one_model_string_per_model_id(tmp_path):
    """``json.loads`` makes a new string for each line's model id; the
    answers one read loads share one per model id."""
    write_answer_log(tmp_path / "models", 400)
    store = ContextStore(tmp_path / "models", hashing_embed)
    assert store.read_answers() == 400
    models = [answer.model for answer in store._answers.values()]
    assert len(set(map(id, models))) == len(set(models)) == 4
    assert all(model is answer.model for (model, _), answer in store._answers.items())

def test_clear_drops_the_answer_log(tmp_path):
    path = tmp_path / "wipe"
    store = ContextStore(path, hashing_embed)
    store.add_answers([_answer(0), _answer(1)])
    store.clear()
    assert not (path / "answers.jsonl").exists()
    assert store.answer("m", _answer(0).prompt) is None
    assert store.read_answers() == 0
    store.add_answers([_answer(2)])
    assert (path / "answers.jsonl").read_bytes() == _answer(2).to_line()


def test_a_store_reads_again_a_log_another_object_cleared_and_regrew(tmp_path):
    """A store that read 3 entries and 3 answers, after another object
    clears the directory, registers 6 contexts and logs 1 answer: both logs
    are back past (entries) or short of (answers) the offsets it read."""
    path = tmp_path / "regrown"
    live, other = (ContextStore(path, hashing_embed) for _ in range(2))
    for i in range(3):
        live.register(_ctx(f"topic {i}", seed=str(i)))
    live.add_answers([_answer(i) for i in range(3)])
    assert live.read_answers() == 3
    other.clear()
    for i in range(6):
        other.register(_ctx(f"a longer topic about shipments number {i}", seed=f"o{i}"))
    other.add_answers([_answer(5)])
    assert live.register(_ctx("after the clear", seed="after")).seq == 6
    assert _held(live) == _held(ContextStore(path, hashing_embed))
    assert live.read_answers() == 1
    assert live.answer("m", _answer(0).prompt) is None
    live.add_answers([_answer(0)])
    log = (path / "answers.jsonl").read_bytes()
    assert log == _answer(5).to_line() + _answer(0).to_line()
    reopened = ContextStore(path, hashing_embed)
    assert reopened.read_answers() == 2
    assert live._answers == reopened._answers


@pytest.mark.parametrize("seed", range(12))
def test_a_live_store_holds_what_a_reopen_holds_after_a_clear_by_one_object(
        tmp_path, seed):
    """The oracle above, with each clear made through the acting store
    only: the other object learns of it from the logs alone, whatever they
    have grown back to since it last read them."""
    rng = random.Random(seed)
    path = tmp_path / "store"
    stores = [ContextStore(path, hashing_embed) for _ in range(2)]
    stored, count, kinds = [], iter(range(10_000)), []

    def fresh_ctx():
        n = next(count)
        ctx = _ctx(f"topic {n} {rng.choice(['audit', 'vendor', 'deal'])}", seed=str(n))
        return context_derive(ctx, f"narrow {n}", f"narrowed topic {n}") \
            if rng.random() < 0.3 else ctx

    def answers():
        return [_answer(rng.randrange(30), model=rng.choice("ab"))
                for _ in range(rng.randint(1, 3))]

    def clear(live):
        live.clear()
        stored.clear()

    for _ in range(40):
        live = rng.choice(stores)
        kind = rng.choice(["new", "new", "same", "conflict", "answers", "torn", "twin",
                           "clear"])
        kinds.append(kind)
        if kind == "new" or kind in ("same", "conflict") and not stored:
            ctx = fresh_ctx()
            assert live.register(ctx, instruction=f"ask {ctx.id}").context_id == ctx.id
            stored.append(ctx)
        elif kind == "same":
            ctx = rng.choice(stored)
            assert live.register(ctx).context_id == ctx.id
        elif kind == "conflict":
            other = replace(rng.choice(stored), description="other content")
            with pytest.raises(StoreConflictError):
                live.register(other)
        elif kind == "answers":
            live.add_answers(answers())
        elif kind == "torn":
            writer = ContextStore(path, hashing_embed)  # a process that crashes
            name = rng.choice([store_mod._ENTRIES_FILE, store_mod._VECTORS_FILE,
                               store_mod._ANSWERS_FILE])
            if name == store_mod._ANSWERS_FILE:
                _cut_append(path, name, lambda: writer.add_answers(answers()), rng)
            elif name == store_mod._ENTRIES_FILE:
                _cut_append(path, name, lambda: writer.register(fresh_ctx()), rng)
            else:  # the row is torn, so its line was never written
                size = _size(path / "entries.jsonl")
                _cut_append(path, name, lambda: writer.register(fresh_ctx()), rng)
                os.truncate(path / "entries.jsonl", size)
        elif kind == "twin" and stored:
            log = path / "entries.jsonl"
            doc = json.loads(rng.choice(log.read_bytes().splitlines()))
            doc["context_id"] = f"ctx-twin-{next(count)}"
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(doc) + "\n")
        elif kind == "clear":
            clear(live)
        try:
            live.register(fresh_ctx())
            error = None
        except StoreError as exc:
            error = str(exc)
        try:
            reopened = ContextStore(path, hashing_embed)
        except StoreError as exc:
            assert error == str(exc), kinds
            clear(live)
            continue
        assert error is None, kinds
        assert _held(live) == _held(reopened), kinds
        assert live.read_answers() == reopened.read_answers()
        assert live._answers == reopened._answers, kinds
    assert "clear" in kinds


def test_a_blank_line_in_either_log_is_skipped_and_counted(tmp_path, capsys):
    path = tmp_path / "blank"
    store = ContextStore(path, hashing_embed)
    for i in range(2):
        store.register(_ctx(f"topic {i}", seed=str(i)))
    store.add_answers([_answer(0), _answer(1)])
    for name in ("entries.jsonl", "answers.jsonl"):
        first, second = (path / name).read_bytes().splitlines(keepends=True)
        (path / name).write_bytes(first + b"\n   \n" + second + b"\n")
    reopened = ContextStore(path, hashing_embed)
    assert _held(reopened) == _held(store)
    assert reopened.read_answers() == 2 and reopened._answers == store._answers
    # a line number counts the blank lines above it
    with open(path / "entries.jsonl", "ab") as fh:
        fh.write(b"not json\n")
    with pytest.raises(StoreError, match="corrupt store entry at line 6"):
        ContextStore(path, hashing_embed)


def test_adding_only_answers_the_log_holds_writes_nothing(tmp_path):
    path = tmp_path / "known"
    store = ContextStore(path, hashing_embed)
    store.add_answers([_answer(0), _answer(1)])
    log = path / "answers.jsonl"
    before = log.read_bytes()
    store.add_answers([_answer(1), _answer(0), _answer(1)])
    ContextStore(path, hashing_embed).add_answers([_answer(0)])
    assert log.read_bytes() == before
    assert store.read_answers() == 2


def test_an_entry_of_another_dim_fails_with_its_line_number(tmp_path):
    path = tmp_path / "dims"
    ContextStore(path, hashing_embed).register(_ctx("topic one", seed="1"))
    log = path / "entries.jsonl"
    doc = json.loads(log.read_bytes())
    dim = doc["dim"]
    doc.update(context_id="ctx-narrow", seq=1, dim=2)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    with pytest.raises(StoreError, match=f"store entry at line 2 has dim 2, earlier "
                                         f"entries have dim {dim}"):
        ContextStore(path, hashing_embed)


def test_an_entry_log_without_its_vector_file_is_truncated(tmp_path):
    path = tmp_path / "novectors"
    ctx = _ctx("topic one", seed="1")
    ContextStore(path, hashing_embed).register(ctx)
    (path / "vectors.bin").unlink()
    with pytest.raises(StoreError, match=f"vector file truncated at entry 0 \\({ctx.id}\\)"):
        ContextStore(path, hashing_embed)
