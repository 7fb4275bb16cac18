"""Similarity-indexed store of context descriptions.

The store remembers what past contexts were about (description + embedding +
lineage summary), so later queries can rediscover and reuse prior work.  It
persists as an append-only JSONL entry log plus a sidecar binary vector file;
each log line carries a checksum over its description and vector bytes, and
both are verified when a store is reopened.  A registration holds an
exclusive ``flock`` on the entry log while it loads the lines other store
objects appended since it last read the log, takes its seq and appends, so
processes sharing a directory append one at a time and store a context
once; a reopen reads under a shared lock.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .core import Context, context_derive, cosine_topk
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


def _row_order(entry: ContextEntry) -> tuple[int, str]:
    return entry.seq, entry.context_id


def _checksum(description: str, vector_bytes: bytes | memoryview) -> str:
    digest = hashlib.sha256()
    digest.update(description.encode("utf-8"))
    digest.update(vector_bytes)
    return digest.hexdigest()


def _parse_entry(line: bytes, lineno: int) -> dict:
    """One entry-log line as a dict with an int ``seq``, a positive int
    ``dim``, and an id, description and checksum."""
    try:
        doc = json.loads(line)
        doc["seq"], doc["dim"] = int(doc["seq"]), int(doc["dim"])
        missing = sorted({"context_id", "description", "checksum"} - doc.keys())
    except (KeyError, TypeError, ValueError) as exc:  # JSON and UTF-8 errors too
        raise StoreError(f"corrupt store entry at line {lineno}: {exc}") from exc
    if missing or doc["dim"] < 1:
        raise StoreError(f"corrupt store entry at line {lineno}: "
                         f"missing {missing}, dim {doc['dim']}")
    return doc


class ContextStore:
    """Durable registry of contexts with similarity retrieval.

    Registration is idempotent on identical content and refuses an id that
    was stored with different content.  The embeddings live in one float64
    matrix, their only copy: row ``i`` embeds ``entries[i]``, which is kept
    in (seq, id) order, and each ``entry.embedding`` is a view of its row.
    The width comes from the data: the entries' stored ``dim`` on reopen, or
    the first vector registered.  Retrieval is the exact
    :func:`~semaq.core.cosine_topk` scan over that matrix: similarity is
    cosine mapped to [0, 1], entries below ``tau`` are dropped, and ties
    break by earlier registration then ascending id.
    """

    def __init__(self, directory, embed: Callable[[str], np.ndarray]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._embed = embed
        self.dim: int | None = None
        self._vectors: np.ndarray | None = None
        self._lock = threading.Lock()
        self.entries: list[ContextEntry] = []
        self._by_id: dict[str, ContextEntry] = {}
        self._objects: dict[str, Context] = {}
        # bytes and \n-ended lines of the entry log this instance has read
        # or written
        self._log_end = self._log_lines = 0
        self._load()

    @property
    def _entries_path(self) -> Path:
        return self.directory / _ENTRIES_FILE

    @property
    def _vectors_path(self) -> Path:
        return self.directory / _VECTORS_FILE

    def _load(self) -> None:
        try:
            # binary lines split on \n only: descriptions are written raw and
            # may hold U+2028, U+2029 or U+0085
            with open(self._entries_path, "rb") as log:
                fcntl.flock(log, fcntl.LOCK_SH)
                rows = torn = lineno = 0
                for lineno, line in enumerate(log, start=1):
                    if not line.strip():
                        continue
                    try:
                        doc = _parse_entry(line, lineno)
                    except StoreError as exc:
                        if line.endswith(b"\n"):
                            raise
                        # only the last line can lack its \n: an append
                        # torn by a crash, whose vector row is then skipped
                        logger.warning("skipping torn last line of %s: %s",
                                       self._entries_path, exc)
                        torn = len(line)
                        break
                    if self.dim is None:
                        self.dim = doc["dim"]
                        rows = self._read_vectors()
                    self._load_entry(doc, lineno, rows)
                self._log_end = log.tell() - torn
                # a last line without its \n (torn, or parsed) ends no line
                self._log_lines = lineno - (lineno > 0 and not line.endswith(b"\n"))
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StoreError(f"cannot read store at {self.directory}: {exc}") from exc
        self.entries.sort(key=_row_order)
        seqs = [entry.seq for entry in self.entries]
        if seqs != list(range(len(seqs))):
            # rows were read at their seq; keep only the entries' rows
            self._reserve(len(seqs), self._vectors[seqs])

    def _read_vectors(self) -> int:
        """Read the whole vector file into a new matrix with headroom for
        later registrations; return the number of whole rows read."""
        if not self._vectors_path.exists():
            self._vectors = np.empty((0, self.dim), dtype="<f8")
            return 0
        with open(self._vectors_path, "rb") as fh:
            stride = self.dim * 8
            rows = os.fstat(fh.fileno()).st_size // stride
            self._vectors = np.empty((rows + rows // 8 + 16, self.dim), dtype="<f8")
            fh.readinto(memoryview(self._vectors).cast("B")[:rows * stride])
        return rows

    def _load_entry(self, doc: dict, lineno: int, rows: int) -> None:
        if not 0 <= doc["seq"] < rows:
            raise StoreError(f"vector file truncated at entry {doc['seq']} "
                             f"({doc['context_id']})")
        entry = self._make_entry(doc, lineno, self._vectors[doc["seq"]])
        self.entries.append(entry)
        self._by_id[entry.context_id] = entry

    def _make_entry(self, doc: dict, lineno: int,
                    embedding: np.ndarray) -> ContextEntry:
        """The entry a parsed log line describes, once its dim and the
        checksum over its description and ``embedding`` are verified."""
        context_id = doc["context_id"]
        if doc["dim"] != self.dim:
            raise StoreError(f"store entry at line {lineno} has dim {doc['dim']}, "
                             f"earlier entries have dim {self.dim}")
        if _checksum(doc["description"], embedding.data) != doc["checksum"]:
            raise StoreError(f"checksum mismatch for stored context {context_id}")
        return ContextEntry(
            context_id=context_id,
            description=doc["description"],
            instruction=doc.get("instruction", ""),
            lineage_summary=doc.get("lineage", ""),
            seq=doc["seq"],
            created_at=float(doc.get("created_at", 0.0)),
            embedding=embedding,
        )

    def _check_width(self, vector: np.ndarray) -> None:
        if vector.shape != (self.dim,):
            raise ValidationError(
                f"embedding dimension {vector.shape} does not match store "
                f"dim {self.dim}")

    def _reserve(self, rows: int, head: np.ndarray) -> None:
        """Move ``head``, the entries' rows, into a new matrix with room for
        ``rows`` rows, and point every entry at its row there."""
        self._vectors = np.empty((max(rows, 16), self.dim), dtype="<f8")
        self._vectors[:len(head)] = head
        for row, entry in enumerate(self.entries):
            # the entry stays the same object; only its view moves
            object.__setattr__(entry, "embedding", self._vectors[row])

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
        :class:`StoreConflictError`.  That holds for entries another store
        object or process appended since this one last read the log, too.
        """
        with self._lock:
            existing = self._stored(ctx)
            if existing is not None:
                return existing
            vector = np.asarray(self._embed(ctx.description), dtype=np.float64)
            try:
                with open(self._entries_path, "a+b") as log:
                    # seq and both appends, one registering process at a time
                    fcntl.flock(log, fcntl.LOCK_EX)
                    self._end_log(log)
                    self._catch_up(log)
                    existing = self._stored(ctx)
                    if existing is not None:
                        return existing
                    if self.dim is None and vector.ndim == 1 and vector.size:
                        self.dim = len(vector)
                        self._vectors = np.empty((0, self.dim), dtype="<f8")
                    self._check_width(vector)
                    vector_bytes = vector.astype("<f8").tobytes()
                    seq = self._append_vector(vector_bytes)
                    entry = ContextEntry(
                        context_id=ctx.id,
                        description=ctx.description,
                        instruction=instruction,
                        lineage_summary=(
                            f"{ctx.lineage.operator} of {ctx.lineage.parent_id}"
                            if ctx.lineage else "root"),
                        seq=seq,
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
                    log.write((json.dumps(doc, ensure_ascii=False) + "\n")
                              .encode("utf-8"))
                    log.flush()
                    self._log_end, self._log_lines = log.tell(), self._log_lines + 1
            except OSError as exc:
                raise StoreError(f"cannot append to store: {exc}") from exc
            self._append(entry)
            self._by_id[entry.context_id] = entry
            self._objects[entry.context_id] = ctx
            logger.debug("registered context %s (seq %d)", ctx.id, entry.seq)
            return entry

    def _stored(self, ctx: Context) -> ContextEntry | None:
        """The entry already stored under ``ctx.id``, if any; raise
        :class:`StoreConflictError` when its content differs."""
        existing = self._by_id.get(ctx.id)
        if existing is not None:
            if existing.description != ctx.description:
                raise StoreConflictError(
                    f"context id {ctx.id} already stored with different content")
            self._objects.setdefault(ctx.id, ctx)
        return existing

    def _catch_up(self, log) -> None:
        """Load, with the checks a reopen makes, the entry lines another
        store object appended to the locked log since this one last read
        it.  Their seqs are above every loaded one, so each goes last."""
        end = log.seek(0, os.SEEK_END)
        if end <= self._log_end:
            return
        log.seek(self._log_end)
        # the log ends in \n; the first piece finishes line _log_lines + 1,
        # empty when only its \n was missing
        lines = log.read(end - self._log_end).split(b"\n")[:-1]
        with open(self._vectors_path, "rb") as vectors:
            for lineno, line in enumerate(lines, start=self._log_lines + 1):
                if not line.strip():
                    continue
                doc = _parse_entry(line, lineno)
                if self.dim is None:
                    self.dim = doc["dim"]
                    self._vectors = np.empty((0, self.dim), dtype="<f8")
                stride = self.dim * 8
                row = (os.pread(vectors.fileno(), stride, doc["seq"] * stride)
                       if doc["seq"] >= 0 else b"")
                if len(row) != stride:
                    raise StoreError(f"vector file truncated at entry {doc['seq']} "
                                     f"({doc['context_id']})")
                entry = self._make_entry(doc, lineno, np.frombuffer(row, dtype="<f8"))
                self._append(entry)
                self._by_id[entry.context_id] = entry
        self._log_end, self._log_lines = end, self._log_lines + len(lines)

    def _end_log(self, log) -> None:
        """Make the locked entry log end in \\n before an append: terminate a
        last line that lost only its \\n, and cut off a torn one, which
        reopening skips."""
        end = log.seek(0, os.SEEK_END)
        if end == 0:
            return
        log.seek(end - 1)
        if log.read(1) == b"\n":
            return
        log.seek(0)
        data = log.read()
        start = data.rfind(b"\n") + 1
        try:
            _parse_entry(data[start:], data.count(b"\n") + 1)
        except StoreError as exc:
            logger.warning("cutting torn last line off %s: %s",
                           self._entries_path, exc)
            log.truncate(start)
        else:
            log.write(b"\n")

    def _append_vector(self, vector_bytes: bytes) -> int:
        """Append one row to the vector file; return its row number, which
        is the new entry's seq.  The row goes in before its entry line, so a
        row without one (a lost line, a crash between the two appends) is
        skipped, never read for a later entry."""
        with open(self._vectors_path, "ab") as fh:
            seq, torn = divmod(fh.tell(), len(vector_bytes))
            if torn:  # a torn row from a crashed write: pad it out
                fh.write(bytes(len(vector_bytes) - torn))
                seq += 1
            fh.write(vector_bytes)
        return seq

    def _append(self, entry: ContextEntry) -> None:
        """Add ``entry`` and its row last: its seq, the vector file's row
        count, is above every other entry's."""
        n = len(self.entries)
        if n == len(self._vectors):
            self._reserve(2 * n, self._vectors[:n])
        self._vectors[n] = entry.embedding
        self.entries.append(entry)
        object.__setattr__(entry, "embedding", self._vectors[n])

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
        with self._lock:
            self._check_width(query)
            hits = cosine_topk(self._vectors[:len(self.entries)], query, k, tau)
            return [(self.entries[row], score) for row, score in hits]

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
            self.dim = self._vectors = None
            self._log_end = self._log_lines = 0
            self._by_id.clear()
            self._objects.clear()
