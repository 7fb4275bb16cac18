"""Core data model: records, contexts, lineage, tools, and the vector index.

Records are immutable bags of named fields.  A context wraps a snapshot of
records together with a natural-language description of what they are, an
optional vector index, a tool registry, and lineage describing how the
context was derived.  Everything downstream (operators, agents, the store)
builds on these types.

A record's fields are validated once, where it is made: the id functions
validate before they hash, so text UTF-8 cannot encode, a non-finite number
or a list nested past ``MAX_FIELD_NESTING`` fails before any hashing, and
the record constructors then skip the dataclass's own second pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (CapabilityError, ConfigurationError, DataAccessError,
                     ValidationError)

# Field values are null, text, number, boolean, or a list of field values.
FieldValue = None | str | int | float | bool | list

MAX_FIELD_NESTING = 8


def require_unicode(text: str, what: str, error: type = ValidationError) -> None:
    """Reject a string UTF-8 cannot encode (one holding a lone surrogate)
    by raising ``error``."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"{what} is not valid Unicode") from None


def validate_field_value(value: FieldValue, _depth: int = 0) -> None:
    """Reject text that is not valid Unicode, non-finite numbers and lists
    nested deeper than the cap."""
    if isinstance(value, str):
        require_unicode(value, "field value")
        return
    if value is None or isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"field value must be finite, got {value!r}")
        return
    if isinstance(value, list):
        if _depth + 1 > MAX_FIELD_NESTING:
            raise ValidationError(
                f"field value nesting exceeds {MAX_FIELD_NESTING} levels")
        for item in value:
            validate_field_value(item, _depth + 1)
        return
    raise ValidationError(f"unsupported field value type: {type(value).__name__}")


def validate_fields(fields: dict) -> None:
    if not isinstance(fields, dict):
        raise ValidationError("record fields must be a mapping")
    for name, value in fields.items():
        if not isinstance(name, str) or not name:
            raise ValidationError("field names must be non-empty strings")
        require_unicode(name, "field name")
        validate_field_value(value)


_REQUIRED = object()

_JSON_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}

_FLOAT_MAX = sys.float_info.max


def load_json(data: str | bytes, where: str, *, error: type = ConfigurationError):
    """``data`` decoded as JSON: the one decoder of the JSON semaq reads,
    from the config and datasets to the store's logs, provider replies and
    agent actions.  Bytes are strict UTF-8 (``json.loads`` on bytes would
    sniff UTF-16 and UTF-32).  Text that is not JSON, an integer literal
    past the interpreter's digit limit, and nesting past the parser's depth
    raise ``error`` naming ``where`` and the exception."""
    try:
        return json.loads(data.decode() if type(data) is bytes else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: {type(exc).__name__}: {exc}") from exc


def json_value(doc, key: str, kind: type, where: str, default=_REQUIRED, *,
               error: type = ConfigurationError):
    """``doc[key]`` as a JSON value of ``kind`` (a key of ``_JSON_KINDS``):
    the one type check of the JSON semaq reads back, from the config, mock
    script, model catalog and policy to store entries and the answer log.

    - An absent key and a null one read alike: ``default``, or ``missing
      key`` when there is none.
    - Types are checked, never converted; an integer read as a float is
      returned as a float.
    - A bool is never a number.
    - A float must be finite: NaN, Infinity and integers past its range are not.

    Any other value, or a ``doc`` that is not an object, raises ``error``
    naming ``where`` and ``key``."""
    if type(doc) is not dict and not isinstance(doc, Mapping):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    value = doc.get(key)
    if type(value) is not kind:
        if value is None:
            if default is _REQUIRED:
                raise error(f"{where}: missing key {key!r}")
            return default
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
            raise error(f"{where}: bad value for {key!r}: expected "
                        f"{_JSON_KINDS[kind]}, got {value!r}")
    if kind is float and not abs(value) <= _FLOAT_MAX:
        raise error(f"{where}: bad value for {key!r}: expected "
                    f"a finite number, got {value!r}")
    return float(value) if kind is float else value


def _short_hash(payload: str, prefix: str, length: int = 12) -> str:
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"{prefix}{digest[:length]}"


# json.dumps with these arguments builds a new encoder on every call; one
# shared encoder gives the same text (encoding keeps no state between calls)
_CANONICAL_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def canonical_fields_json(fields: dict) -> str:
    """Serialize fields preserving insertion order; used for hashing and dumps."""
    return _CANONICAL_JSON.encode(fields)


def source_record_id(fields: dict, origin: str = "") -> str:
    """Stable id for a source record: content hash plus where it came from.
    The fields are validated first, so invalid ones fail before hashing."""
    validate_fields(fields)
    return _short_hash(canonical_fields_json(fields) + "\x1f" + origin, "r")


def derived_record_id(parent_ids: Sequence[str], operator: str, fields: dict) -> str:
    """Stable id for a derived record: its parents, operator and fields.
    The fields are validated first, so invalid ones fail before hashing."""
    validate_fields(fields)
    payload = ",".join(parent_ids) + "\x1f" + operator + "\x1f" + canonical_fields_json(fields)
    return _short_hash(payload, "r")


@dataclass(frozen=True, slots=True)
class RecordLineage:
    """Provenance of a derived record: parent ids and the operator that made it."""

    parents: tuple[str, ...]
    operator: str


@dataclass(frozen=True, slots=True)
class Record:
    """One unit of data: a stable id plus an ordered mapping of named fields.

    Constructing one validates its id and fields.  :func:`make_source_record`
    and :func:`make_derived_record` validate the fields once, in the id
    function, and skip this second pass."""

    id: str
    fields: dict
    lineage: RecordLineage | None = None

    def __post_init__(self):
        require_unicode(self.id, "record id")
        validate_fields(self.fields)


def _validated_record(id: str, fields: dict,
                      lineage: RecordLineage | None = None) -> Record:
    """A Record whose fields the id function has validated and whose id is
    a hex digest, built without ``__post_init__``'s second pass."""
    record = object.__new__(Record)
    object.__setattr__(record, "id", id)
    object.__setattr__(record, "fields", fields)
    object.__setattr__(record, "lineage", lineage)
    return record


def make_source_record(fields: dict, origin: str = "") -> Record:
    """A source record over a copy of ``fields``, id'd by
    :func:`source_record_id`, which validates them."""
    return _validated_record(source_record_id(fields, origin), dict(fields))


def make_derived_record(fields: dict, parents: Sequence[str], operator: str) -> Record:
    """A derived record over a copy of ``fields``, id'd by
    :func:`derived_record_id`, which validates them."""
    return _validated_record(derived_record_id(parents, operator, fields),
                             dict(fields),
                             RecordLineage(parents=tuple(parents), operator=operator))


def record_to_json(record: Record) -> str:
    doc: dict = {"id": record.id, "fields": record.fields}
    if record.lineage is not None:
        doc["lineage"] = {"parents": list(record.lineage.parents),
                          "operator": record.lineage.operator}
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def record_from_json(line: str, origin: str = "") -> Record:
    """Parse one serialized record line.

    Accepts the full ``{"id", "fields", "lineage"}`` form written by
    :func:`record_to_json`, or a bare field mapping (as in dataset files),
    in which case a stable id is derived from content and origin.  In the
    full form so is a null ``id``; any other must be a non-empty string, and
    a ``lineage`` that is not null must be the lineage object.
    """
    doc = load_json(line, "record line", error=ValidationError)
    if not isinstance(doc, dict):
        raise ValidationError("record line must be a JSON object")
    if "fields" in doc and isinstance(doc.get("fields"), dict):
        lineage = None
        raw = doc.get("lineage")
        if raw is not None:
            if not (isinstance(raw, dict) and isinstance(raw.get("parents"), list)
                    and all(isinstance(parent, str) for parent in raw["parents"])
                    and isinstance(raw.get("operator"), str)):
                raise ValidationError(
                    "record lineage must be {parents: list of str, operator: str}")
            lineage = RecordLineage(tuple(raw["parents"]), raw["operator"])
        rec_id = doc.get("id")
        if rec_id is None:
            rec_id = source_record_id(doc["fields"], origin)
        elif not isinstance(rec_id, str):
            raise ValidationError(f"record id must be a string, not {type(rec_id).__name__}")
        elif not rec_id:
            raise ValidationError("record id must not be empty")
        return Record(id=rec_id, fields=doc["fields"], lineage=lineage)
    return make_source_record(doc, origin)


def write_artifacts(directory, texts: Mapping[str, str], stale: Sequence[str] = ()) -> None:
    """Write each text, newline-terminated UTF-8, to its file name under
    ``directory``, making the directory if it is missing.  A text goes whole
    to a hidden ``.<name>.<random>.tmp`` beside its file, which then replaces
    the file, so a killed writer leaves the old file or the new one, never a
    prefix; a failed write removes its temporary file.  Before the first text,
    every file a ``stale`` pattern matches goes, so a write that fails midway
    leaves only files of this write beside those no pattern names."""
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
        for path in [p for pattern in stale for p in Path(directory).glob(pattern)]:
            path.unlink(missing_ok=True)
        for name, text in texts.items():
            path = Path(directory) / name
            tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
            try:
                with tmp.open("x", encoding="utf-8") as fh:
                    fh.write(text + "\n")
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise DataAccessError(f"cannot write run artifact {path}: {exc}") from exc


def record_text(record: Record) -> str:
    """Text rendering used for embeddings and previews.

    Prefers a ``text`` field; otherwise joins all string fields as
    ``name: value`` lines.
    """
    value = record.fields.get("text")
    if isinstance(value, str):
        return value
    parts = [f"{k}: {v}" for k, v in record.fields.items() if isinstance(v, str)]
    if parts:
        return "\n".join(parts)
    return canonical_fields_json(record.fields)


class RecordSnapshot:
    """An immutable, re-iterable collection of records.

    Context sources are snapshots: iterating twice yields the same records in
    the same order, and membership never changes after construction.
    """

    def __init__(self, records: Iterable[Record]):
        self._records = tuple(records)
        self._fingerprint: str | None = None

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            joined = "\n".join(r.id for r in self._records)
            self._fingerprint = hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]
        return self._fingerprint

    @cached_property
    def ids(self) -> frozenset[str]:
        return frozenset(r.id for r in self._records)


@dataclass(frozen=True)
class ToolParam:
    name: str
    type: str = "text"
    required: bool = True


@dataclass(frozen=True)
class ToolSpec:
    """A callable tool an agent may invoke.

    ``handler`` receives the runtime tool environment and the argument
    mapping, and returns the observation text.
    """

    name: str
    description: str
    params: tuple[ToolParam, ...] = ()
    handler: Callable = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.name:
            raise ValidationError("tool name must be non-empty")
        if not self.description:
            raise ValidationError(f"tool {self.name!r} needs a description")


@dataclass(frozen=True)
class ContextLineage:
    parent_id: str
    instruction: str
    operator: str


@dataclass(frozen=True)
class Context:
    """A described snapshot of records with optional index, tools, lineage."""

    id: str
    description: str
    source: RecordSnapshot
    index: "VectorIndex | None" = None
    tools: tuple[ToolSpec, ...] = ()
    lineage: ContextLineage | None = None


def _check_tools(tools: Sequence[ToolSpec]) -> tuple[ToolSpec, ...]:
    seen = set()
    for tool in tools:
        if tool.name in seen:
            raise ConfigurationError(f"duplicate tool name: {tool.name!r}")
        seen.add(tool.name)
    return tuple(tools)


def _context_id(description: str, source: RecordSnapshot,
                lineage: ContextLineage | None, tools: Sequence[ToolSpec]) -> str:
    parts = [
        description,
        source.fingerprint(),
        lineage.parent_id if lineage else "",
        lineage.instruction if lineage else "",
        lineage.operator if lineage else "",
        ",".join(t.name for t in tools),
    ]
    payload = "\x1f".join(parts)
    require_unicode(payload, "context description or lineage")
    return _short_hash(payload, "ctx-")


def context_create(records: Iterable[Record] | RecordSnapshot, description: str,
                   index: "VectorIndex | None" = None,
                   tools: Sequence[ToolSpec] = ()) -> Context:
    """Build a root context over a snapshot of records.

    The id is content-derived, so identical inputs yield the identical
    context across runs.
    """
    if not description or not description.strip():
        raise ValidationError("context description must be non-empty")
    source = records if isinstance(records, RecordSnapshot) else RecordSnapshot(records)
    tools = _check_tools(tools)
    return Context(
        id=_context_id(description, source, None, tools),
        description=description,
        source=source,
        index=index,
        tools=tools,
    )


def context_derive(parent: Context, instruction: str, new_description: str,
                   records: Iterable[Record] | None = None,
                   operator: str = "derive") -> Context:
    """Derive a child context from ``parent``.

    The child shares the parent's source when ``records`` is omitted, and
    inherits the parent's tools and index either way.  A search or lookup on
    the child returns only those of the child's records that the index holds.
    """
    if not new_description or not new_description.strip():
        raise ValidationError("context description must be non-empty")
    source = parent.source if records is None else RecordSnapshot(records)
    lineage = ContextLineage(parent_id=parent.id, instruction=instruction, operator=operator)
    return Context(
        id=_context_id(new_description, source, lineage, parent.tools),
        description=new_description,
        source=source,
        index=parent.index,
        tools=parent.tools,
        lineage=lineage,
    )


def context_iterate(ctx: Context) -> Iterator[Record]:
    return iter(ctx.source)


def context_lookup(ctx: Context, key: str) -> Record | None:
    if ctx.index is None:
        raise CapabilityError(f"context {ctx.id} has no index")
    return ctx.index.lookup(key) if key in ctx.source.ids else None


def context_topk(ctx: Context, query: str, k: int) -> list[tuple[Record, float]]:
    if ctx.index is None:
        raise CapabilityError(f"context {ctx.id} has no index")
    if k < 1:
        raise ValidationError("k must be >= 1")
    return ctx.index.topk(query, k, ctx.source)


def cosine_to_score(cos: float | np.ndarray) -> float | np.ndarray:
    """Map cosine in [-1, 1] to a similarity score in [0, 1]."""
    return (1.0 + cos) / 2.0


def cosine_topk(vectors: np.ndarray, qvec: np.ndarray, k: int,
                tau: float = -math.inf) -> list[tuple[int, float]]:
    """Exact top-k rows of ``vectors`` by cosine score against ``qvec``.

    Every row is scored ``cosine_to_score(row · qvec)``.  ``np.vecdot``
    takes one dot product per row, the same one ``row @ qvec`` takes, so each
    score equals the per-row ``cosine_to_score(float(row @ qvec))`` bit for
    bit (a matrix-vector product sums in another order and does not).  Rows
    scoring below ``tau`` are dropped; the rest are ordered by descending
    score, then ascending row, and the first ``k`` are returned as
    ``(row, score)`` pairs.
    """
    scores = cosine_to_score(np.vecdot(vectors, qvec))
    rows = np.flatnonzero(scores >= tau)
    best = rows[np.argsort(-scores[rows], kind="stable")[:k]]
    return [(int(row), float(scores[row])) for row in best]


class VectorIndex:
    """Exact nearest-neighbor index over a record snapshot.

    Search scans every row, or only the rows of a snapshot's records, with
    :func:`cosine_topk`: scores are cosine similarity mapped to [0, 1], and
    ties break by ascending record id, the rows' order.  Lookup is by id.
    """

    def __init__(self, records: Sequence[Record], vectors: np.ndarray,
                 embed: Callable[[str], np.ndarray]):
        """``vectors[i]`` embeds ``records[i]``; records come in ascending
        id order, as :meth:`build` puts them."""
        self._records = tuple(records)
        self._vectors = vectors
        self._row = {r.id: i for i, r in enumerate(self._records)}
        self._embed = embed

    @classmethod
    def build(cls, records: Iterable[Record],
              embed: Callable[[str], np.ndarray]) -> "VectorIndex":
        recs = tuple(sorted(records, key=lambda r: r.id))
        if recs:
            vectors = np.stack([embed(record_text(r)) for r in recs])
        else:
            vectors = np.zeros((0, 0))
        return cls(recs, vectors, embed)

    def lookup(self, key: str) -> Record | None:
        return self._records[self._row[key]] if key in self._row else None

    def topk(self, query: str, k: int,
             among: RecordSnapshot | None = None) -> list[tuple[Record, float]]:
        rows: Sequence[int] = range(len(self._records))
        if among is not None and among.ids != self._row.keys():
            rows = sorted(self._row[key] for key in self._row.keys() & among.ids)
        if not rows:
            return []
        vectors = self._vectors if len(rows) == len(self._records) else self._vectors[rows]
        hits = cosine_topk(vectors, self._embed(query), k)
        return [(self._records[rows[i]], score) for i, score in hits]
