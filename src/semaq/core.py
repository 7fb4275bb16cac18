"""Core data model: records, contexts, lineage, tools, and the vector index.

Records are immutable bags of named fields.  A context wraps a snapshot of
records together with a natural-language description of what they are, an
optional vector index, a tool registry, and lineage describing how the
context was derived.  Everything downstream (operators, agents, the store)
builds on these types.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapabilityError, ConfigurationError, ValidationError

# Field values are null, text, number, boolean, or a list of field values.
FieldValue = None | str | int | float | bool | list

MAX_FIELD_NESTING = 8


def validate_field_value(value: FieldValue, _depth: int = 0) -> None:
    """Reject non-finite numbers and lists nested deeper than the cap."""
    if value is None or isinstance(value, (str, bool)):
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
        validate_field_value(value)


def _short_hash(payload: str, prefix: str, length: int = 12) -> str:
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"{prefix}{digest[:length]}"


def canonical_fields_json(fields: dict) -> str:
    """Serialize fields preserving insertion order; used for hashing and dumps."""
    return json.dumps(fields, ensure_ascii=False, separators=(",", ":"))


def source_record_id(fields: dict, origin: str = "") -> str:
    """Stable id for a source record: content hash plus where it came from."""
    return _short_hash(canonical_fields_json(fields) + "\x1f" + origin, "r")


def derived_record_id(parent_ids: Sequence[str], operator: str, fields: dict) -> str:
    payload = ",".join(parent_ids) + "\x1f" + operator + "\x1f" + canonical_fields_json(fields)
    return _short_hash(payload, "r")


@dataclass(frozen=True)
class RecordLineage:
    """Provenance of a derived record: parent ids and the operator that made it."""

    parents: tuple[str, ...]
    operator: str


@dataclass(frozen=True)
class Record:
    """One unit of data: a stable id plus an ordered mapping of named fields."""

    id: str
    fields: dict
    lineage: RecordLineage | None = None

    def __post_init__(self):
        validate_fields(self.fields)


def make_source_record(fields: dict, origin: str = "") -> Record:
    return Record(id=source_record_id(fields, origin), fields=dict(fields))


def make_derived_record(fields: dict, parents: Sequence[str], operator: str) -> Record:
    return Record(
        id=derived_record_id(parents, operator, fields),
        fields=dict(fields),
        lineage=RecordLineage(parents=tuple(parents), operator=operator),
    )


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
    in which case a stable id is derived from content and origin.
    """
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValidationError("record line must be a JSON object")
    if "fields" in doc and isinstance(doc.get("fields"), dict):
        lineage = None
        raw = doc.get("lineage")
        if raw:
            if not (isinstance(raw, dict) and isinstance(raw.get("parents"), list)
                    and isinstance(raw.get("operator"), str)):
                raise ValidationError(
                    "record lineage must be {parents: list, operator: str}")
            lineage = RecordLineage(parents=tuple(raw["parents"]),
                                    operator=raw["operator"])
        rec_id = doc.get("id") or source_record_id(doc["fields"], origin)
        return Record(id=rec_id, fields=doc["fields"], lineage=lineage)
    return make_source_record(doc, origin)


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
    return _short_hash("\x1f".join(parts), "ctx-")


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
                   records: Iterable[Record] | RecordSnapshot | None = None,
                   operator: str = "derive") -> Context:
    """Derive a child context from ``parent``.

    The child shares the parent's source when ``records`` is omitted, and
    inherits the parent's tools and index either way.
    """
    if not new_description or not new_description.strip():
        raise ValidationError("context description must be non-empty")
    if records is None:
        source = parent.source
    elif isinstance(records, RecordSnapshot):
        source = records
    else:
        source = RecordSnapshot(records)
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
    return ctx.index.lookup(key)


def context_topk(ctx: Context, query: str, k: int) -> list[tuple[Record, float]]:
    if ctx.index is None:
        raise CapabilityError(f"context {ctx.id} has no index")
    if k < 1:
        raise ValidationError("k must be >= 1")
    return ctx.index.topk(query, k)


def cosine_to_score(cos: float) -> float:
    """Map cosine in [-1, 1] to a similarity score in [0, 1]."""
    return (1.0 + cos) / 2.0


class VectorIndex:
    """Exact nearest-neighbor index over a record snapshot.

    Search is an exhaustive scan: scores are cosine similarity mapped to
    [0, 1], ties broken by ascending record id.  Lookup is by record id.
    """

    def __init__(self, records: Sequence[Record], vectors: np.ndarray,
                 embed: Callable[[str], np.ndarray]):
        self._records = tuple(records)
        self._vectors = vectors
        self._by_id = {r.id: r for r in self._records}
        self._embed = embed

    @classmethod
    def build(cls, records: Iterable[Record],
              embed: Callable[[str], np.ndarray]) -> "VectorIndex":
        recs = tuple(records)
        if recs:
            vectors = np.stack([embed(record_text(r)) for r in recs])
        else:
            vectors = np.zeros((0, 0))
        return cls(recs, vectors, embed)

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, key: str) -> Record | None:
        return self._by_id.get(key)

    def topk(self, query: str, k: int) -> list[tuple[Record, float]]:
        if not self._records:
            return []
        qvec = self._embed(query)
        cos = self._vectors @ qvec
        scored = [(float(cosine_to_score(c)), r) for c, r in zip(cos, self._records)]
        scored.sort(key=lambda pair: (-pair[0], pair[1].id))
        return [(r, s) for s, r in scored[:k]]
