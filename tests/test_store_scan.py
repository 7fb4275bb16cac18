"""The context store's float32 scan: retrieval equals the exact float64 scan.

A store keeps its vectors in memory as float32 rows, scans those, and reads
back from ``vectors.bin`` the float64 rows of the candidates the scan's
rounding bound cannot rule out.  The oracle below checks that ``retrieve``
returns what :func:`~semaq.core.cosine_topk` over the exact rows returns,
entry ids and scores bit for bit, on seeded stores built to make the float32
scan wrong: near-duplicate and duplicated vectors, unit and non-unit norms.
Tier-1 runs seed 0.  More seeds, comma-separated::

    SEMAQ_STORE_SEEDS=1,2,3 python -m pytest -q tests/test_store_scan.py

The other tests pin what the scan copy must not change: a row rewritten or
removed on disk is a ``StoreError``, no file handle is left open, and a
reopen holds no float64 matrix.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from semaq import ContextStore, StoreError, context_create, hashing_embed
from semaq.cli import EXIT_CODES, main
from semaq.core import cosine_topk
from semaq.store import _checksum
from tests.test_cli import workspace  # noqa: F401 - a fixture

SEEDS = [int(s) for s in os.environ.get("SEMAQ_STORE_SEEDS", "0").split(",")]

ENTRIES = 300
DIM = 48


def _table(seed):
    """(stored vectors, query vectors): every vector is fresh, a unit one, an
    exact duplicate, a near duplicate off by as little as float32 cannot
    tell, or a rescaled copy of an earlier one."""
    rng = np.random.default_rng(seed)

    def draw(pool):
        kind = rng.choice(["fresh", "unit", "twin", "near", "near", "scaled"]
                          if pool else ["fresh", "unit"])
        vector = rng.normal(size=DIM) * rng.choice([0.01, 1.0, 30.0])
        if kind == "unit":
            vector /= np.linalg.norm(vector)
        elif kind == "twin":
            vector = pool[rng.integers(len(pool))].copy()
        elif kind == "near":
            vector = pool[rng.integers(len(pool))] * (
                1 + rng.choice([1e-12, 1e-9, 2.0**-26, 2.0**-24, 1e-6])
                * rng.normal(size=DIM))
        elif kind == "scaled":
            vector = pool[rng.integers(len(pool))] * rng.choice([0.5, 2.0, 1e-3, 1e3])
        return vector

    stored = []
    for _ in range(ENTRIES):
        stored.append(draw(stored))
    queries = [draw(stored) for _ in range(24)]
    return stored, queries


def _expected(vectors, ids, query, k, tau):
    return [(ids[row], score.hex()) for row, score in cosine_topk(vectors, query, k, tau)]


def _got(store, text, k, tau):
    return [(entry.context_id, score.hex()) for entry, score in store.retrieve(text, k, tau)]


@pytest.mark.parametrize("seed", SEEDS)
def test_retrieval_equals_the_exact_float64_scan(tmp_path, seed):
    stored, queries = _table(seed)
    texts = {f"entry {i}": vector for i, vector in enumerate(stored)}
    texts.update((f"query {j}", vector) for j, vector in enumerate(queries))

    def embed(text):
        return texts[text]

    live = ContextStore(tmp_path / "store", embed)
    ids = [live.register(context_create((), f"entry {i}")).context_id
           for i in range(ENTRIES)]
    reopened = ContextStore(tmp_path / "store", embed)
    matrix = np.stack(stored)
    mismatches, candidates, reordered = [], [], 0
    for j, query in enumerate(queries):
        for k in (1, 3, 10):
            for tau in (0.0, 0.5, 0.75, 0.99):
                want = _expected(matrix, ids, query, k, tau)
                for store in (live, reopened):
                    got = _got(store, f"query {j}", k, tau)
                    if got != want:
                        mismatches.append((j, k, tau, got, want))
                candidates.append(len(reopened._candidates(query, k, tau)))
                rough = cosine_topk(matrix.astype("<f4"), query.astype("<f4"), k, tau)
                reordered += [ids[row] for row, _ in rough] != [i for i, _ in want]
    assert mismatches == []
    # the scan pruned, and ranking by it alone would have got some wrong
    assert min(candidates) < ENTRIES and np.median(candidates) < ENTRIES / 4
    assert reordered > 0


def test_a_store_written_in_the_file_format_ranks_as_the_exact_scan(tmp_path):
    """Lines and rows written straight in the file format, not by this
    store's registration, reopen and rank as the exact scan over them."""
    rng = np.random.default_rng(5)
    vectors = [hashing_embed(f"topic {i % 40} note {i}") for i in range(200)]
    path = _write_store(tmp_path / "old", vectors)
    store = ContextStore(path, hashing_embed)
    ids = [entry.context_id for entry in store.entries]
    for i in rng.integers(200, size=20):
        text = f"topic {i % 40} note {i}"
        assert _got(store, text, 5, 0.5) == \
            _expected(np.stack(vectors), ids, hashing_embed(text), 5, 0.5)
        assert store.entries[i].embedding.tobytes() == vectors[i].tobytes()


# --- the rows on disk ------------------------------------------------------------------

def _store(path, count=12):
    store = ContextStore(path, hashing_embed)
    for i in range(count):
        store.register(context_create((), f"shipment {i} about {'abcdefghijkl'[i]} crates"))
    return store


def _rewrite_row(path, seq, dim=256):
    with open(path / "vectors.bin", "r+b") as fh:
        fh.seek(seq * dim * 8)
        row = np.frombuffer(fh.read(dim * 8), "<f8")
        fh.seek(seq * dim * 8)
        fh.write((row * 0.5).tobytes())


def test_a_candidate_row_rewritten_on_disk_fails_as_a_reopen_does(tmp_path):
    path = tmp_path / "store"
    store = _store(path)
    target = store.entries[4]
    _rewrite_row(path, target.seq)
    message = f"checksum mismatch for stored context {target.context_id}"
    with pytest.raises(StoreError, match=message):
        store.retrieve(target.description, k=1, tau=0.99)
    with pytest.raises(StoreError, match=message):
        target.embedding
    with pytest.raises(StoreError, match=message):
        ContextStore(path, hashing_embed)
    # a row no query makes a candidate is never read again
    other = store.entries[7]
    assert [e.context_id for e, _ in store.retrieve(other.description, k=1, tau=0.99)] \
        == [other.context_id]


def test_a_vector_file_another_object_cleared_is_a_store_error(tmp_path):
    path = tmp_path / "store"
    store = _store(path)
    entry = store.entries[0]
    ContextStore(path, hashing_embed).clear()
    with pytest.raises(StoreError, match="cannot read the vector file"):
        store.retrieve(entry.description, k=3, tau=0.0)
    with pytest.raises(StoreError, match="cannot read the vector file"):
        entry.embedding


@pytest.mark.parametrize("change", ["rewrite", "clear"])
def test_a_run_whose_store_changes_after_open_exits_store_error(
        workspace, capsys, monkeypatch, change):  # noqa: F811 - the fixture
    config = json.loads((workspace / "config.json").read_text())
    config["tau"] = 0.0  # every stored context is a candidate
    cfg_path = workspace / "config2.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(cfg_path), "run", "docs", "count filings",
                 "--run-dir", str(workspace / "r1")]) == 0
    cache = Path(config["cache_dir"])
    rows = (cache / "vectors.bin").stat().st_size // (256 * 8)
    register = ContextStore.register

    def register_then_change(self, ctx, instruction=""):
        entry = register(self, ctx, instruction)
        if change == "rewrite":
            for seq in range(rows):
                _rewrite_row(cache, seq)
        else:
            ContextStore(cache, hashing_embed).clear()
        return entry

    monkeypatch.setattr(ContextStore, "register", register_then_change)
    capsys.readouterr()
    code = main(["--config", str(cfg_path), "run", "docs", "count filings",
                 "--use-cache", "--run-dir", str(workspace / "r2")])
    assert code == EXIT_CODES["store-error"] == 9
    assert capsys.readouterr().err.startswith("error: store-error: ")


def test_retrieval_and_embeddings_leave_no_file_open(tmp_path):
    """Development mode reports an unclosed file as a ResourceWarning, which
    these flags turn into an error the child writes to its stderr."""
    script = f"""
import gc
from semaq import ContextStore, StoreError, context_create, hashing_embed

def fails(step):
    try:
        step()
    except StoreError:
        return
    raise SystemExit("no StoreError")

stores = []
for name in ("rewritten", "cleared"):
    path = {str(tmp_path)!r} + "/" + name
    store = ContextStore(path, hashing_embed)
    for i in range(40):
        store.register(context_create((), f"note {{i}} on invoices"))
    store = ContextStore(path, hashing_embed)
    store.retrieve("note 3 on invoices", k=5, tau=0.0)
    [entry.embedding for entry in store.entries]
    stores.append(store)
rewritten, cleared = stores
with open(rewritten.directory / "vectors.bin", "r+b") as fh:
    fh.write(b"\\x7f" * 8)  # another first value
fails(lambda: rewritten.retrieve("note 0 on invoices", k=1))
fails(lambda: rewritten.entries[0].embedding)
fails(lambda: ContextStore(rewritten.directory, hashing_embed))
ContextStore(cleared.directory, hashing_embed).clear()
fails(lambda: cleared.retrieve("note 1 on invoices", k=1))
fails(lambda: cleared.entries[1].embedding)
gc.collect()
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


# --- memory ------------------------------------------------------------------------

def _write_store(path, vectors):
    """A store of ``vectors`` written in the file format, as registration
    writes it, without embedding anything."""
    path.mkdir()
    lines = []
    for seq, vector in enumerate(vectors):
        description = f"context number {seq}"
        lines.append(json.dumps({
            "context_id": f"ctx-{seq:06d}", "description": description,
            "instruction": "", "lineage": "root", "seq": seq, "created_at": 0.0,
            "dim": len(vector), "checksum": _checksum(description, vector.tobytes())}))
    (path / "entries.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (path / "vectors.bin").write_bytes(b"".join(v.tobytes() for v in vectors))
    return path


def _reopen_peak(path):
    """The most bytes tracemalloc saw allocated at once while ``path`` reopened."""
    gc.collect()
    tracemalloc.start()
    try:
        store = ContextStore(path, hashing_embed)
        return tracemalloc.get_traced_memory()[1], len(store)
    finally:
        tracemalloc.stop()


def test_a_reopen_holds_no_float64_matrix(tmp_path):
    """Reopening 4,000 entries of width 256 allocates, at its peak, less than
    0.6 x the bytes of a float64 matrix of those rows with the store's eighth
    of growth room, so a store that holds its vectors as float64 fails here.
    The vector bytes are what a reopen of the same entries at width 1 does
    not allocate."""
    count, dim = 4000, 256
    rng = np.random.default_rng(9)
    wide = _write_store(tmp_path / "wide", list(rng.normal(size=(count, dim))))
    narrow = _write_store(tmp_path / "narrow", list(rng.normal(size=(count, 1))))
    (narrow_peak, narrow_len), (wide_peak, wide_len) = map(_reopen_peak, (narrow, wide))
    assert narrow_len == wide_len == count
    matrix = (count + count // 8) * dim * 8
    assert wide_peak - narrow_peak < 0.6 * matrix, (wide_peak - narrow_peak) / matrix
