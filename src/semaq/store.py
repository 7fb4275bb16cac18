"""Similarity-indexed store of context descriptions.

The store remembers what past contexts were about (description + embedding +
lineage summary), so later queries can rediscover and reuse prior work.  It
persists as an append-only JSONL entry log plus a sidecar binary vector file;
each log line carries a checksum over its description and vector bytes, and
both are verified when a store is reopened.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .core import Context, context_derive, cosine_to_score
from .errors import StoreConflictError, StoreError, ValidationError

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.75
MATCH_DESCRIPTION_CAP = 2000

_ENTRIES_FILE = "entries.jsonl"
_VECTORS_FILE = "vectors.bin"


@dataclass(frozen=True)
class ContextEntry:
    context_id: str
    description: str
    instruction: str
    lineage_summary: str
    seq: int
    created_at: float
    embedding: np.ndarray = field(compare=False, repr=False)


def _checksum(description: str, vector_bytes: bytes | memoryview) -> str:
    digest = hashlib.sha256()
    digest.update(description.encode("utf-8"))
    digest.update(vector_bytes)
    return digest.hexdigest()


class ContextStore:
    """Durable registry of contexts with similarity retrieval.

    Registration is idempotent on identical content and refuses an id that
    was stored with different content.  Retrieval is an exact linear scan:
    similarity is cosine mapped to [0, 1], entries below ``tau`` are dropped,
    and ties break by earlier registration then ascending id.
    """

    def __init__(self, directory, embed: Callable[[str], np.ndarray],
                 dim: int = 256):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._embed = embed
        self.dim = dim
        self._lock = threading.Lock()
        self.entries: list[ContextEntry] = []
        self._by_id: dict[str, ContextEntry] = {}
        self._objects: dict[str, Context] = {}
        self._load()

    @property
    def _entries_path(self) -> Path:
        return self.directory / _ENTRIES_FILE

    @property
    def _vectors_path(self) -> Path:
        return self.directory / _VECTORS_FILE

    def _load(self) -> None:
        if not self._entries_path.exists():
            return
        stride = self.dim * 8
        try:
            vector_blob = (self._vectors_path.read_bytes()
                           if self._vectors_path.exists() else b"")
            # iterating the file splits on \n (and \r) only: descriptions are
            # written raw and may hold U+2028, U+2029 or U+0085
            with open(self._entries_path, encoding="utf-8") as log:
                for lineno, line in enumerate(log, start=1):
                    if line.strip():
                        self._load_entry(line, lineno, vector_blob, stride)
        except OSError as exc:
            raise StoreError(f"cannot read store at {self.directory}: {exc}") from exc
        self.entries.sort(key=lambda e: e.seq)

    def _load_entry(self, line: str, lineno: int, vector_blob: bytes,
                    stride: int) -> None:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store entry at line {lineno}: {exc}") from exc
        seq = int(doc["seq"])
        start = seq * stride
        vector_bytes = memoryview(vector_blob)[start:start + stride]
        if len(vector_bytes) != stride:
            raise StoreError(
                f"vector file truncated at entry {seq} ({doc['context_id']})")
        if _checksum(doc["description"], vector_bytes) != doc["checksum"]:
            raise StoreError(
                f"checksum mismatch for stored context {doc['context_id']}")
        entry = ContextEntry(
            context_id=doc["context_id"],
            description=doc["description"],
            instruction=doc.get("instruction", ""),
            lineage_summary=doc.get("lineage", ""),
            seq=seq,
            created_at=float(doc.get("created_at", 0.0)),
            # a read-only view into the one vector buffer
            embedding=np.frombuffer(vector_blob, dtype="<f8", count=self.dim,
                                    offset=start),
        )
        self.entries.append(entry)
        self._by_id[entry.context_id] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def get_entry(self, context_id: str) -> ContextEntry | None:
        return self._by_id.get(context_id)

    def get_context(self, context_id: str) -> Context | None:
        """The live Context object, if registered during this process."""
        return self._objects.get(context_id)

    def register(self, ctx: Context, instruction: str = "") -> ContextEntry:
        """Persist a context's description under its id.

        Re-registering identical content is a no-op returning the existing
        entry; the same id with different content raises
        :class:`StoreConflictError`.
        """
        with self._lock:
            existing = self._by_id.get(ctx.id)
            if existing is not None:
                if existing.description != ctx.description:
                    raise StoreConflictError(
                        f"context id {ctx.id} already stored with different content")
                self._objects.setdefault(ctx.id, ctx)
                return existing
            vector = np.asarray(self._embed(ctx.description), dtype=np.float64)
            if vector.shape != (self.dim,):
                raise ValidationError(
                    f"embedding dimension {vector.shape} does not match store "
                    f"dim {self.dim}")
            vector_bytes = vector.astype("<f8").tobytes()
            entry = ContextEntry(
                context_id=ctx.id,
                description=ctx.description,
                instruction=instruction,
                lineage_summary=(f"{ctx.lineage.operator} of {ctx.lineage.parent_id}"
                                 if ctx.lineage else "root"),
                seq=len(self.entries),
                created_at=time.time(),
                embedding=vector,
            )
            doc = {
                "context_id": entry.context_id,
                "description": entry.description,
                "instruction": entry.instruction,
                "lineage": entry.lineage_summary,
                "seq": entry.seq,
                "created_at": entry.created_at,
                "dim": self.dim,
                "checksum": _checksum(entry.description, vector_bytes),
            }
            try:
                with open(self._entries_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
                with open(self._vectors_path, "ab") as fh:
                    fh.write(vector_bytes)
            except OSError as exc:
                raise StoreError(f"cannot append to store: {exc}") from exc
            self.entries.append(entry)
            self._by_id[entry.context_id] = entry
            self._objects[entry.context_id] = ctx
            logger.debug("registered context %s (seq %d)", ctx.id, entry.seq)
            return entry

    def retrieve(self, instruction: str, k: int = 3,
                 tau: float = DEFAULT_TAU) -> list[tuple[ContextEntry, float]]:
        """Top-k stored entries whose similarity to ``instruction`` >= tau."""
        if k < 1:
            raise ValidationError("k must be >= 1")
        if not (0.0 <= tau <= 1.0):
            raise ValidationError("tau must be in [0, 1]")
        if not self.entries:
            return []
        query = np.asarray(self._embed(instruction), dtype=np.float64)
        scored = []
        for entry in self.entries:
            sim = cosine_to_score(float(entry.embedding @ query))
            if sim >= tau:
                scored.append((entry, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0].seq, pair[0].context_id))
        return scored[:k]

    def augment(self, ctx: Context,
                matches: Iterable[tuple[ContextEntry, float]]) -> Context:
        """Extend a context's description with retrieved prior findings.

        With no matches the context is returned unchanged.  Each match
        contributes its id, similarity, and description (truncated to
        2000 characters).
        """
        matches = list(matches)
        if not matches:
            return ctx
        blocks = []
        for entry, sim in matches:
            desc = entry.description
            if len(desc) > MATCH_DESCRIPTION_CAP:
                desc = desc[:MATCH_DESCRIPTION_CAP] + "..."
            blocks.append(f"- [{entry.context_id}] (similarity {sim:.3f}) {desc}")
        description = (ctx.description + "\n\nRelated prior findings:\n"
                       + "\n".join(blocks))
        reused = ", ".join(entry.context_id for entry, _ in matches)
        return context_derive(ctx, f"reuse: {reused}", description,
                              operator="augment")

    def clear(self) -> None:
        with self._lock:
            for path in (self._entries_path, self._vectors_path):
                if path.exists():
                    path.unlink()
            self.entries.clear()
            self._by_id.clear()
            self._objects.clear()
