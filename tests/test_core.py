"""Records, contexts, snapshots, and the exact vector index."""

import ast
import dataclasses
import hashlib
import json
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest

from semaq import (CapabilityError, ContextStore, DataAccessError, RecordSnapshot,
                   StoreError, ToolParam, ToolSpec, ValidationError, VectorIndex,
                   context_create, context_derive, context_lookup, context_topk,
                   hashing_embed, make_derived_record, make_source_record,
                   record_from_json, record_to_json)
from semaq import ConfigurationError, core
from semaq.core import (Record, RecordLineage, context_iterate, cosine_to_score,
                        cosine_topk, record_text, source_record_id,
                        validate_field_value, validate_fields)


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


def test_records_and_lineages_hold_no_instance_dict():
    source = make_source_record({"text": "x"}, "o#0")
    child = make_derived_record({"text": "x", "tag": "t"}, [source.id], "sem_map")
    built = Record(id="r1", fields={"n": 1}, lineage=child.lineage)
    for obj in (source, child, built, child.lineage):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.id = "r2"
    assert repr(built) == ("Record(id='r1', fields={'n': 1}, lineage=RecordLineage("
                           f"parents=('{source.id}',), operator='sem_map'))")
    assert built == Record(id="r1", fields={"n": 1},
                           lineage=RecordLineage((source.id,), "sem_map"))


def test_record_json_round_trip():
    rec = make_derived_record({"a": 1, "b": [True, "s"]}, ["r0"], "sem_map")
    back = record_from_json(record_to_json(rec))
    assert back == rec


def test_record_from_bare_field_map_uses_origin():
    rec = record_from_json('{"text": "hi"}', origin="data.jsonl#3")
    assert rec.fields == {"text": "hi"}
    assert rec.id == source_record_id({"text": "hi"}, "data.jsonl#3")


@pytest.mark.parametrize("line, message", [
    ('{"id": 5, "fields": {"text": "hello"}}', "record id must be a string, not int"),
    ('{"id": ["x"], "fields": {"text": "hello"}}', "record id must be a string, not list"),
    ('{"id": 0, "fields": {"text": "hello"}}', "record id must be a string, not int"),
    ('{"id": false, "fields": {"text": "hello"}}', "record id must be a string, not bool"),
    ('{"id": "r1", "fields": {}, "lineage": {"parents": [1], "operator": "sem_map"}}',
     "record lineage must be {parents: list of str, operator: str}"),
])
def test_record_from_json_rejects_ids_and_parents_that_are_not_strings(line, message):
    with pytest.raises(ValidationError) as error:
        record_from_json(line, "o#0")
    assert str(error.value) == message


def test_record_from_json_derives_a_missing_or_null_id_from_content():
    for line in ('{"fields": {"text": "hi"}}', '{"id": null, "fields": {"text": "hi"}}'):
        assert record_from_json(line, "o#0").id == source_record_id({"text": "hi"}, "o#0")


@pytest.mark.parametrize("lineage", [0, [], "", {}, False])
def test_record_from_json_rejects_a_falsy_lineage_that_is_not_null(lineage):
    line = json.dumps({"id": "r1", "fields": {"text": "hi"}, "lineage": lineage})
    with pytest.raises(ValidationError) as error:
        record_from_json(line, "o#0")
    assert str(error.value) == "record lineage must be {parents: list of str, operator: str}"


def test_record_from_json_rejects_an_empty_id():
    with pytest.raises(ValidationError, match="record id must not be empty"):
        record_from_json('{"id": "", "fields": {"text": "hi"}}', "o#0")


def test_json_value_raises_the_error_class_it_is_given():
    with pytest.raises(StoreError, match=r"line 3: bad value for 'seq': expected an "
                                         r"integer, got '1'"):
        core.json_value({"seq": "1"}, "seq", int, "line 3", error=StoreError)
    with pytest.raises(StoreError, match="line 3: missing key 'seq'"):
        core.json_value({"seq": None}, "seq", int, "line 3", error=StoreError)
    with pytest.raises(StoreError, match="line 3: expected a JSON object, got list"):
        core.json_value([], "seq", int, "line 3", error=StoreError)


def test_record_rejects_non_finite_fields():
    with pytest.raises(ValidationError):
        make_source_record({"x": math.inf})


# --- record construction oracle ---------------------------------------------------

_FIELD_TEXT = "ab yz09 \t\n.,\"\\\u00e9\u00df\u212a\u0130\u00a0\uff10\u65e5\U0001f600"


def _random_text(rng, least=0):
    return "".join(rng.choice(_FIELD_TEXT) for _ in range(rng.randrange(least, 12)))


def _random_value(rng, depth=0):
    """A valid field value: lists nest at most 8 deep, like the cap."""
    roll = rng.random()
    if roll < 0.25 and depth < 8:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    if roll < 0.45:
        return _random_text(rng)
    if roll < 0.65:
        return rng.choice([-0.0, 0.5, 1e-300, 1.7e308, -2.5e-5, rng.uniform(-1e6, 1e6),
                           rng.random() * 10 ** rng.randrange(-20, 20)])
    if roll < 0.85:
        return rng.choice([0, -7, 2 ** 63, rng.randrange(-10 ** 30, 10 ** 30)])
    return rng.choice([None, True, False])


def _random_fields(rng):
    return {_random_text(rng, least=1): _random_value(rng)
            for _ in range(rng.randrange(0, 6))}


def _reference_id(payload):
    return "r" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _reference_json(fields):
    return json.dumps(fields, ensure_ascii=False, separators=(",", ":"))


def _reference_source_record(fields, origin=""):
    """The two-validation construction: the id function validates, and so
    does ``Record.__post_init__``."""
    validate_fields(fields)
    return Record(id=_reference_id(_reference_json(fields) + "\x1f" + origin),
                  fields=dict(fields))


def _reference_derived_record(fields, parents, operator):
    validate_fields(fields)
    payload = ",".join(parents) + "\x1f" + operator + "\x1f" + _reference_json(fields)
    return Record(id=_reference_id(payload), fields=dict(fields),
                  lineage=RecordLineage(parents=tuple(parents), operator=operator))


def _same_record(got, want):
    assert type(got) is Record
    assert got == want
    assert list(got.fields) == list(want.fields)
    assert _reference_json(got.fields) == _reference_json(want.fields)


def test_record_construction_matches_two_validation_reference():
    rng = random.Random(19)
    for case in range(300):
        fields = _random_fields(rng)
        origin = _random_text(rng)
        source = make_source_record(fields, origin)
        _same_record(source, _reference_source_record(fields, origin))
        assert source.fields is not fields
        _same_record(record_from_json(_reference_json(fields), origin), source)
        parents = [source.id, f"r{case:012d}"][:rng.randrange(0, 3)]
        operator = f"plan-{case}#op{rng.randrange(5)}"
        derived = make_derived_record(fields, parents, operator)
        _same_record(derived, _reference_derived_record(fields, parents, operator))
        assert derived.fields is not fields
        _same_record(record_from_json(record_to_json(derived)), derived)


_NESTED_TOO_DEEP = [[[[[[[[[1]]]]]]]]]


@pytest.mark.parametrize("fields, message", [
    ({"na\ud800me": 1}, "field name is not valid Unicode"),
    ({"name": "val\udcffue"}, "field value is not valid Unicode"),
    ({"name": ["ok", ["\ud800"]]}, "field value is not valid Unicode"),
    ({"x": math.nan}, "field value must be finite, got nan"),
    ({"x": [1, -math.inf]}, "field value must be finite, got -inf"),
    ({"x": _NESTED_TOO_DEEP}, "field value nesting exceeds 8 levels"),
    ({"": 1}, "field names must be non-empty strings"),
    ({1: 1}, "field names must be non-empty strings"),
    ([("x", 1)], "record fields must be a mapping"),
    (types.MappingProxyType({"x": 1}), "record fields must be a mapping"),
], ids=["surrogate-name", "surrogate-value", "surrogate-nested", "nan", "inf",
        "too-deep", "empty-name", "int-name", "pairs", "mapping-proxy"])
def test_invalid_fields_fail_before_any_hashing(monkeypatch, fields, message):
    def no_hashing(*args):
        raise AssertionError("hashed before validating")

    monkeypatch.setattr(core, "_short_hash", no_hashing)
    monkeypatch.setattr(core, "canonical_fields_json", no_hashing)
    with pytest.raises(ValidationError) as source_error:
        make_source_record(fields, "o#0")
    with pytest.raises(ValidationError) as derived_error:
        make_derived_record(fields, ["r0"], "sem_map")
    assert str(source_error.value) == str(derived_error.value) == message


@pytest.mark.parametrize("line, message", [
    ('{"na\\ud800me": 1}', "field name is not valid Unicode"),
    ('{"x": "\\udcff"}', "field value is not valid Unicode"),
    ('{"x": NaN}', "field value must be finite, got nan"),
    ('{"x": Infinity}', "field value must be finite, got inf"),
    ('{"x": [[[[[[[[[1]]]]]]]]]}', "field value nesting exceeds 8 levels"),
    ('{"": 1}', "field names must be non-empty strings"),
    ('{"id": "r1", "fields": {"x": NaN}}', "field value must be finite, got nan"),
    ('[1]', "record line must be a JSON object"),
])
def test_record_from_json_rejects_invalid_fields_before_any_hashing(
        monkeypatch, line, message):
    def no_hashing(*args):
        raise AssertionError("hashed before validating")

    monkeypatch.setattr(core, "_short_hash", no_hashing)
    with pytest.raises(ValidationError) as error:
        record_from_json(line, "o#0")
    assert str(error.value) == message


def test_direct_record_construction_still_validates():
    with pytest.raises(ValidationError, match="record id is not valid Unicode"):
        Record(id="r\ud800", fields={})
    with pytest.raises(ValidationError, match="must be finite"):
        Record(id="r1", fields={"x": math.inf})
    with pytest.raises(ValidationError, match="record fields must be a mapping"):
        Record(id="r1", fields=[("x", 1)])
    with pytest.raises(ValidationError, match="nesting exceeds 8 levels"):
        Record(id="r1", fields={"x": _NESTED_TOO_DEEP},
               lineage=RecordLineage(parents=("r0",), operator="sem_map"))


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


# --- the one JSON decoder ------------------------------------------------------

@pytest.mark.parametrize("data", ['{"a": [1]}', b'{"a": [1]}'], ids=["str", "bytes"])
def test_load_json_decodes_text_and_utf8_bytes(data):
    assert core.load_json(data, "doc") == {"a": [1]}


@pytest.mark.parametrize("data, exc", [
    ("{", "JSONDecodeError"),
    ('{"a": "caf\xe9"}'.encode("latin-1"), "UnicodeDecodeError"),
    ('{"a": 1}'.encode("utf-16"), "UnicodeDecodeError"),  # never sniffed
    ("[" * 100_000 + "]" * 100_000, "RecursionError"),
    ("9" * 5_000, "ValueError"),
], ids=["truncated", "latin-1", "utf-16", "nested-too-deep", "integer-of-5000-digits"])
def test_load_json_raises_the_callers_category(data, exc):
    with pytest.raises(ConfigurationError, match=f"^where: {exc}: "):
        core.load_json(data, "where")
    with pytest.raises(StoreError, match=f"^where: {exc}: "):
        core.load_json(data, "where", error=StoreError)


def _json_decodes(tree):
    """(enclosing function, call) of each ``json.load``, ``json.loads`` and
    ``.json()`` call in ``tree``, and of each name imported from ``json``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "json" or (func.attr in ("load", "loads")
                                       and isinstance(func.value, ast.Name)
                                       and func.value.id == "json"):
                found.append((scope, ast.unparse(func)))
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((scope, f"from json import {a.name}") for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_json_is_decoded_only_by_core_load_json():
    """Which exceptions mean "not JSON", and how bytes become text, is
    decided in one function: a new decode site would bring its own."""
    found = {}
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for scope, call in _json_decodes(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault(f"{path.name}:{scope}", []).append(call)
    assert found == {"core.py:load_json": ["json.loads"]}


# --- run artifacts ---------------------------------------------------------------

class _HalfWritten:
    """A file that takes half of a write, flushes it and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("before", [None, "old"], ids=["new-file", "existing-file"])
def test_write_artifacts_that_fails_midway_leaves_no_prefix(tmp_path, monkeypatch, before):
    """A write that fails after part of a file's bytes are on disk leaves the
    file as it was, or absent, and no temporary file beside it."""
    if before is not None:
        core.write_artifacts(tmp_path, {"report.json": before})
    real_open = Path.open

    def open_that_fails(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _HalfWritten(fh) if "report.json" in path.name else fh

    monkeypatch.setattr(Path, "open", open_that_fails)
    with pytest.raises(DataAccessError, match=r"^cannot write run artifact \S*/report\.json: "
                                              r".*No space left"):
        core.write_artifacts(tmp_path, {"ledger.json": "{}",
                                        "report.json": '{"total_calls": 4}'})
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["ledger.json"] if before is None else ["ledger.json", "report.json"])
    assert (tmp_path / "ledger.json").read_text(encoding="utf-8") == "{}\n"
    if before is not None:
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == "old\n"


def test_write_artifacts_removes_only_the_stale_files_it_did_not_write(tmp_path):
    for name in ("report.json", "report-000.json", "trace.json", "notes.txt"):
        (tmp_path / name).write_text("old", encoding="utf-8")
    core.write_artifacts(tmp_path, {"report.json": "new"}, stale=["report*.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "notes.txt", "report.json", "trace.json"]
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == "new\n"


def test_write_artifacts_that_fails_midway_leaves_no_stale_file(tmp_path, monkeypatch):
    """A reused run directory whose write fails on its second file holds only
    this write's first file and the files no stale pattern names: never an
    earlier run's report beside the new ledger."""
    for name in ("report.json", "report-000.json", "trace.json", "notes.txt"):
        (tmp_path / name).write_text("old", encoding="utf-8")
    real_open = Path.open

    def open_that_fails(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _HalfWritten(fh) if "report.json" in path.name else fh

    monkeypatch.setattr(Path, "open", open_that_fails)
    with pytest.raises(DataAccessError, match=r"^cannot write run artifact \S*/report\.json: "):
        core.write_artifacts(tmp_path, {"ledger.json": "{}", "report.json": "new"},
                             stale=["ledger.json", "trace.json", "report*.json"])
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "notes.txt"]
    assert (tmp_path / "ledger.json").read_text(encoding="utf-8") == "{}\n"


def test_write_artifacts_that_cannot_remove_a_stale_file_is_a_data_error(tmp_path):
    (tmp_path / "report-000.json").mkdir()
    with pytest.raises(DataAccessError, match=r"^cannot write run artifact \S*/report-000"):
        core.write_artifacts(tmp_path, {"report.json": "new"}, stale=["report*.json"])


@pytest.mark.parametrize("make, message", [
    (lambda ctx: ToolSpec("", "a tool"), "tool name must be non-empty"),
    (lambda ctx: ToolSpec("t", ""), "tool 't' needs a description"),
    (lambda ctx: context_derive(ctx, "keep", "  "), "context description must be non-empty"),
    (lambda ctx: context_topk(ctx, "q", 0), "k must be >= 1"),
])
def test_tools_derive_and_topk_reject_empty_arguments(fruit_records, make, message):
    ctx = context_create(fruit_records, "fruit notes",
                         index=VectorIndex.build(fruit_records, hashing_embed))
    with pytest.raises(ValidationError, match=message):
        make(ctx)


def test_search_and_lookup_of_a_derived_context_answer_only_for_its_records(fruit_records):
    """A child keeps its parent's index, yet a search or lookup on it finds
    only the child's own records that the index holds: not the ones the
    parent held and the child dropped, nor a record made after the index (a
    sem_map output).  Each hit keeps the score and tie order the search of
    every row gives it."""
    index = VectorIndex.build(fruit_records, hashing_embed)
    parent = context_create(fruit_records, "fruit notes", index=index)
    made = make_derived_record({"text": "sweet cherry harvest"}, [fruit_records[2].id],
                               "sem_map")
    kept = [fruit_records[4], fruit_records[0], fruit_records[2]]
    child = context_derive(parent, "keep some", "fruit notes\nsome", records=kept + [made])
    assert child.index is index
    for query in ("sweet harvest", "sweet cherry harvest", "port shipment", "zzz"):
        every = context_topk(parent, query, len(fruit_records))
        assert every == index.topk(query, len(fruit_records))
        mine = [(r, s) for r, s in every if r in kept]
        for k in (1, 2, 3, 10):
            assert context_topk(child, query, k) == mine[:k]
    assert {r.id for r, _ in context_topk(child, "anything", 10)} == {r.id for r in kept}
    for rec in fruit_records:
        assert context_lookup(child, rec.id) == (rec if rec in kept else None)
        assert context_lookup(parent, rec.id) == rec
    assert context_lookup(child, made.id) is None
    only_made = context_derive(parent, "map", "fruit notes\nmapped", records=[made])
    assert context_topk(only_made, "sweet", 3) == []
