"""Similarity-indexed store of context descriptions.

The store remembers what past contexts were about (description + embedding +
lineage summary), so later queries can rediscover and reuse prior work.  It
persists as an append-only JSONL entry log plus a sidecar binary vector file;
each log line carries a checksum over its description and vector bytes.  One
reader, ``ContextStore._read_log``, loads the log lines a store has not read
yet and verifies each against its vector row, and it is the only way an
entry gets into a store's memory: a reopen is that read from byte 0 under a
shared ``flock``; a registration repeats it under an exclusive ``flock`` on
the entry log, takes its seq, appends, and then reads its own line back the
same way.  So processes sharing a directory append one at a time, store a
context once, and a live store holds what a reopen of its directory holds.

The same directory holds the answer log, ``answers.jsonl``: one line per
(model id, sha256 of a backend's fingerprint and a rendered prompt) with the
parsed answer and the usage of the calls that got it, so a pipeline run need
not ask a model again what an earlier run asked it.  It is read on the first
lookup, not on reopen, and caught up under an exclusive ``flock`` at each
append, as registration catches up on the entry log.  Both logs share the
line reader :func:`_read_lines` and its torn-tail rule, and read each key of
a line with :func:`~semaq.core.json_value`, so a null optional key reads as
its default.  An entry line whose seq an earlier line holds is corrupt, and
so is one whose text UTF-8 cannot encode (a JSON escape of a lone surrogate).

One reader, :func:`_read_rows`, reads ``vectors.bin`` for the load,
retrieval and ``embedding``: a run of consecutive seqs at a time, at most
256 rows a read, each row checked against its entry's checksum.  In memory
a store holds each vector as a float32 row, a scan copy half the size of
the float64 rows: retrieval scores every row in float32, reads back the
rows the scan's rounding bound cannot rule out of the top k, and ranks
those by the exact float64 scan.  Beside the scan copy a store holds one
slotted :class:`ContextEntry` per entry, with no vector, and one string per
distinct instruction and lineage text its entries share; each logged answer
is a slotted :class:`LoggedAnswer`, and one read's answers share each model id.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (Context, context_derive, cosine_to_score, cosine_topk, json_value,
                   load_json, require_unicode, validate_fields)
from .errors import StoreConflictError, StoreError, ValidationError

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.75
MATCH_DESCRIPTION_CAP = 2000

_ENTRIES_FILE = "entries.jsonl"
_VECTORS_FILE = "vectors.bin"
_ANSWERS_FILE = "answers.jsonl"
_CHUNK_ROWS = 256  # the most vector rows one read takes


@dataclass(frozen=True, slots=True)
class ContextEntry:
    """One stored context as a store holds it in memory: its texts, seq and
    time, and where its exact vector lies, not the vector.  The entries of
    one store share each equal ``instruction`` and ``lineage_summary``."""

    context_id: str
    description: str
    instruction: str
    lineage_summary: str
    seq: int
    created_at: float
    # where the exact vector lies: the vector file, its row width, and the
    # checksum of the entry line, over the description and the row's bytes
    _vector_file: Path = field(compare=False, repr=False)
    _dim: int = field(compare=False, repr=False)
    _checksum: str = field(compare=False, repr=False)

    @property
    def embedding(self) -> np.ndarray:
        """The exact float64 vector, read back and checked by :func:`_read_rows`
        (a :class:`StoreError` when the file no longer holds it)."""
        [(_, rows)] = _read_rows(self._vector_file, self._dim, [self])
        return rows[0]


def _checksum(description: str, vector_bytes: bytes | memoryview) -> str:
    digest = hashlib.sha256()
    digest.update(description.encode("utf-8"))
    digest.update(vector_bytes)
    return digest.hexdigest()


def _read_rows(vector_file: Path, dim: int, entries: list[ContextEntry]
               ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, rows)``: the float64 rows of ``entries[i:i + len(rows)]``,
    a run of one store's entries with consecutive seqs, by one read of
    ``vector_file`` into a buffer of at most ``_CHUNK_ROWS`` rows that the
    next run reuses.  A row the file lacks (the first such entry named) or
    holds with bytes its entry's checksum does not cover is a StoreError
    before its run is yielded; callers run this to its end, closing the file."""
    stride = dim * 8
    buffer = np.empty((min(_CHUNK_ROWS, len(entries)), dim))
    try:
        with open(vector_file, "rb") as vectors:
            i = 0
            while i < len(entries):
                seq, j, stop = entries[i].seq, i + 1, min(len(entries), i + _CHUNK_ROWS)
                while j < stop and entries[j].seq == seq + j - i:
                    j += 1
                rows = buffer[:j - i]
                got = os.preadv(vectors.fileno(), [rows], seq * stride) // stride
                if got < len(rows):
                    missing = entries[i + got]
                    raise StoreError(f"vector file truncated at entry {missing.seq} "
                                     f"({missing.context_id})")
                for entry, row in zip(entries[i:j], rows):
                    if _checksum(entry.description, row.data) != entry._checksum:
                        raise StoreError("checksum mismatch for stored context "
                                         f"{entry.context_id}")
                yield i, rows
                i = j
    except OSError as exc:
        raise StoreError(f"cannot read the vector file: {exc}") from exc


def _shared(text: str, texts: dict[str, str], new_texts: dict[str, str]) -> str:
    """The string equal to ``text`` that ``texts`` holds, else the one that
    ``new_texts`` holds or now adds."""
    held = texts.get(text)
    return new_texts.setdefault(text, text) if held is None else held


def _parse_entry(vector_file: Path, texts: dict[str, str], new_texts: dict[str, str],
                 line: bytes, lineno: int) -> tuple[ContextEntry, int]:
    """One entry-log line, whose vector lies in ``vector_file``, as its entry
    (of positive ``dim``) and ``lineno``.  Once the line has passed its
    checks, its instruction and lineage are the equal text ``texts`` or
    ``new_texts`` holds, or are added to ``new_texts``."""
    where = f"corrupt store entry at line {lineno}"
    doc = load_json(line, where, error=StoreError)
    context_id = json_value(doc, "context_id", str, where, error=StoreError)
    description = json_value(doc, "description", str, where, error=StoreError)
    instruction = json_value(doc, "instruction", str, where, "", error=StoreError)
    lineage = json_value(doc, "lineage", str, where, "", error=StoreError)
    seq = json_value(doc, "seq", int, where, error=StoreError)
    created_at = json_value(doc, "created_at", float, where, 0.0, error=StoreError)
    dim = json_value(doc, "dim", int, where, error=StoreError)
    checksum = json_value(doc, "checksum", str, where, error=StoreError)
    if b"\\u" in line:  # only a \u escape can spell a lone surrogate
        require_unicode("".join((context_id, description, instruction, lineage)),
                        f"{where}: entry text", StoreError)
    if dim < 1:
        raise StoreError(f"{where}: dim {dim}")
    return ContextEntry(
        context_id=context_id,
        description=description,
        instruction=_shared(instruction, texts, new_texts),
        lineage_summary=_shared(lineage, texts, new_texts),
        seq=seq,
        created_at=created_at,
        _vector_file=vector_file,
        _dim=dim,
        _checksum=checksum,
    ), lineno


@dataclass(frozen=True, slots=True)
class LoggedAnswer:
    """What ``model`` answered to the prompt keyed ``prompt`` (the sha256 of
    the backend's fingerprint and the rendered messages): a sem_filter's
    verdict or a sem_map's parsed fields, and the usage of the calls
    (re-asks included) that got it."""

    model: str
    prompt: str
    answer: bool | dict
    input_tokens: int
    output_tokens: int
    calls: int

    def to_line(self) -> bytes:
        # ASCII JSON: a field text holding any code point still encodes
        return (json.dumps({"model": self.model, "prompt": self.prompt,
                            "answer": self.answer, "input_tokens": self.input_tokens,
                            "output_tokens": self.output_tokens, "calls": self.calls})
                + "\n").encode("ascii")


def _parse_answer(line: bytes, lineno: int) -> LoggedAnswer:
    """One answer-log line; a line of another shape or type is corrupt."""
    where = f"corrupt answer at line {lineno}"
    doc = load_json(line, where, error=StoreError)
    model = json_value(doc, "model", str, where, error=StoreError)
    prompt = json_value(doc, "prompt", str, where, error=StoreError)
    answer = doc.get("answer")
    if type(answer) is not bool:  # a verdict, or the fields of a map
        answer = json_value(doc, "answer", dict, where, error=StoreError)
        try:
            validate_fields(answer or None)  # at least one
        except ValidationError as exc:
            raise StoreError(f"{where}: {exc}") from exc
    counts = [json_value(doc, key, int, where, error=StoreError)
              for key in ("input_tokens", "output_tokens", "calls")]
    if min(counts) < 0 or counts[2] < 1:
        raise StoreError(f"{where}: counts {counts}, not >= 0 with calls >= 1")
    return LoggedAnswer(model, prompt, answer, *counts)


def _read_lines(log, end: int, lines: int, tail: bytes, parse, forget
                ) -> tuple[list, int, int, int, bytes]:
    """``parse(line, lineno)`` for each line of the locked ``log`` past byte
    ``end``, ``lines`` lines in, the last of which was ``tail``; return
    (parsed values, the log's size, and the new end, line count and tail).

    Lines split on \\n only: texts are written raw and may hold U+2028,
    U+2029 or U+0085.  A line that does not parse (``StoreError``) is fatal,
    unless it is the last and lacks its \\n: an append torn by a crash,
    skipped with a warning and left past the new end.  A last line that
    parses but lost only its \\n is kept, and the new end and tail count
    the \\n it lacks.  A log that no longer holds ``tail`` ending at
    ``end`` (one byte short, for a lost \\n) was cleared through another
    store object since, however far it has grown back: ``forget()`` drops
    what the caller holds from it, and it is read again from byte 0.
    """
    size = log.seek(0, os.SEEK_END)
    log.seek(end - len(tail))
    if size < end - 1 or log.read(len(tail)) != (tail if size >= end else tail[:-1]):
        forget()
        end, lines, tail = 0, 0, b""
    if size <= end:  # nothing appended since the last read
        return [], size, end, lines, tail
    log.seek(end)
    parsed, torn = [], 0
    for lineno, line in enumerate(log, start=lines + 1):
        if line.strip():
            try:
                parsed.append(parse(line, lineno))
            except StoreError as exc:
                if line.endswith(b"\n"):
                    raise
                logger.warning("skipping torn last line of %s: %s", log.name, exc)
                torn = len(line)
                break
        tail = line
    open_line = not torn and not line.endswith(b"\n")
    return (parsed, size, size - torn + open_line, lineno - (torn > 0),
            tail + b"\n" * open_line)


def _mend_tail(log, size: int, end: int) -> None:
    """Before appending to the exclusively locked ``log`` that
    :func:`_read_lines` read to ``end``: cut a torn last line off, or end a
    last line that lost its \\n."""
    if size > end:
        log.truncate(end)
    elif size < end:
        log.write(b"\n")


class ContextStore:
    """Durable registry of contexts with similarity retrieval.

    Registration is idempotent on identical content and refuses an id that
    was stored with different content.  The exact float64 embeddings stay in
    ``vectors.bin`` only.  In memory the store keeps a scan copy: row ``i``
    of the float32 matrix ``_vectors`` is ``entries[i]``'s embedding rounded
    to float32, and ``_norms[i]`` is the float64 norm of the exact one.
    ``_read_log`` is the one reader of the entry log and the only code that
    adds an entry: it loads the lines past ``_log_end`` (all of them on
    reopen, the registered line after a registration's append), reads and
    checks their vector rows through :func:`_read_rows`, and appends them
    in seq order; a log no other store object has grown costs one read of
    its last line.  The width is the entries' stored
    ``dim``, or the first registered vector's.  The entry parse makes equal
    instruction and lineage texts one string through ``_texts``, a table
    the store owns and :meth:`_forget` empties (not ``sys.intern``, whose
    strings CPython 3.12 never frees); it holds the texts of the loaded
    entries only, as the new lines' texts join it when they load.

    Retrieval returns what the exact :func:`~semaq.core.cosine_topk` scan
    over the float64 rows returns, bit for bit: similarity is cosine mapped
    to [0, 1], entries below ``tau`` are dropped, and ties break by earlier
    registration.  It scores the scan copy in float32, widens each score by
    a bound on its rounding error (about (dim + 2) * 2**-24 * |a| * |q|, see
    :meth:`_candidates`), and reads back through :func:`_read_rows` only the
    rows that could still reach ``tau`` and the k-th score it is sure of,
    which ``cosine_topk`` ranks.  A row rewritten or removed on disk since
    it was loaded is a :class:`StoreError` once retrieval reads it, as on
    reopen.

    The answer log is kept apart from the entries: :meth:`read_answers`
    loads the lines past ``_answers_end``, on the first :meth:`answer`,
    and :meth:`add_answers` loads them too before it appends, each under a
    ``flock`` on ``answers.jsonl``.
    """

    def __init__(self, directory, embed: Callable[[str], np.ndarray]):
        self.directory = Path(directory)
        self._embed = embed
        self._entries_path = self.directory / _ENTRIES_FILE
        self._vectors_path = self.directory / _VECTORS_FILE
        self._answers_path = self.directory / _ANSWERS_FILE
        self._lock = threading.Lock()
        # one copy of each instruction and lineage text the entries hold
        self._texts: dict[str, str] = {}
        self._forget()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self._entries_path, "rb") as log:
                fcntl.flock(log, fcntl.LOCK_SH)
                self._read_log(log)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StoreError(f"cannot open store at {self.directory}: {exc}") from exc

    def _forget(self) -> None:
        """Hold nothing: what an empty directory reads as."""
        self.dim: int | None = None
        self._vectors: np.ndarray | None = None  # float32 scan copy
        self._norms: np.ndarray | None = None  # norms of the exact rows
        self.entries: list[ContextEntry] = []
        self._by_id: dict[str, ContextEntry] = {}
        # the line of each loaded entry by its seq, which no later line may hold
        self._seq_lines: dict[int, int] = {}
        self._objects: dict[str, Context] = {}
        self._texts.clear()
        # bytes, lines and last line of the entry log this instance has read
        self._log_end, self._log_lines, self._log_tail = 0, 0, b""
        self._forget_answers()

    def _forget_answers(self) -> None:
        """Hold no answer: what an empty answer log reads as."""
        # answers by (model id, prompt digest); read on the first lookup
        self._answers: dict[tuple[str, str], LoggedAnswer] = {}
        self._answers_end, self._answers_lines, self._answers_tail = 0, 0, b""
        self._answers_read = False

    def _read_log(self, log) -> int:
        """Load, last and in seq order, the entries of the lines
        appended to the locked ``log`` since this store last read it (all of
        them on reopen), by :func:`_read_lines`; return the log's size.
        Nothing is loaded unless every new line's dim, vector row and
        checksum verify and, in file order, no line holds a seq that a
        loaded entry or an earlier new line holds.  A log another object
        cleared is read again from 0, in place of all this store holds.
        """
        texts: dict[str, str] = {}  # the texts the new lines add to _texts
        new, size, end, lines, tail = _read_lines(
            log, self._log_end, self._log_lines, self._log_tail,
            functools.partial(_parse_entry, self._vectors_path, self._texts, texts),
            self._forget)
        if new:
            dim = self.dim or new[0][0]._dim
            seq_lines: dict[int, int] = {}
            for entry, lineno in new:
                if entry._dim != dim:
                    raise StoreError(f"store entry at line {lineno} has dim "
                                     f"{entry._dim}, earlier entries have dim {dim}")
                line = self._seq_lines.get(entry.seq) or seq_lines.get(entry.seq)
                if line:
                    raise StoreError(f"store entries at lines {line} and {lineno} "
                                     f"share seq {entry.seq}")
                seq_lines[entry.seq] = lineno
            new.sort(key=lambda parsed: parsed[0].seq)
            entries = [entry for entry, _ in new]
            lo, hi, n = entries[0].seq, entries[-1].seq, len(self.entries)
            try:
                on_disk = os.stat(self._vectors_path).st_size // (dim * 8)
            except FileNotFoundError:
                on_disk = 0
            if lo < 0 or hi >= on_disk:
                bad = entries[0] if lo < 0 else entries[-1]
                raise StoreError(f"vector file truncated at entry {bad.seq} "
                                 f"({bad.context_id})")
            self.dim = dim
            self._reserve(n + len(entries))
            with np.errstate(all="ignore"):
                for i, rows in _read_rows(self._vectors_path, dim, entries):
                    self._vectors[n + i:n + i + len(rows)] = rows  # rounded to float32
                    self._norms[n + i:n + i + len(rows)] = np.sqrt(np.vecdot(rows, rows))
            self.entries += entries
            self._by_id.update((entry.context_id, entry) for entry in entries)
            self._seq_lines.update(seq_lines)
            self._texts.update(texts)
        self._log_end, self._log_lines, self._log_tail = end, lines, tail
        return size

    @staticmethod
    def _check_width(vector: np.ndarray, dim: int | None) -> None:
        if vector.shape != (dim,):
            raise ValidationError(
                f"embedding dimension {vector.shape} does not match store "
                f"dim {dim}")

    def _reserve(self, rows: int) -> None:
        """Grow the scan copy and the norms to hold ``rows`` rows, with an
        eighth more room and at least doubling them."""
        if self._vectors is not None and rows <= len(self._vectors):
            return
        n = len(self.entries)
        size = max(rows + rows // 8, 2 * n, 16)
        vectors, norms = np.empty((size, self.dim), dtype="<f4"), np.empty(size)
        if n:
            vectors[:n], norms[:n] = self._vectors[:n], self._norms[:n]
        self._vectors, self._norms = vectors, norms

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
        The new entry is the one :meth:`_read_log` loads from the appended
        line, as a reopen would load it.  Text UTF-8 cannot encode is a
        :class:`ValidationError`, raised before anything is written.
        """
        with self._lock:
            existing = self._stored(ctx)
            if existing is not None:
                return existing
            lineage = (f"{ctx.lineage.operator} of {ctx.lineage.parent_id}"
                       if ctx.lineage else "root")
            require_unicode("".join((ctx.id, ctx.description, instruction, lineage)),
                            "context id, description, instruction or lineage")
            vector = np.asarray(self._embed(ctx.description), dtype=np.float64)
            try:
                with open(self._entries_path, "a+b") as log:
                    # seq and both appends, one registering process at a time
                    fcntl.flock(log, fcntl.LOCK_EX)
                    _mend_tail(log, self._read_log(log), self._log_end)
                    existing = self._stored(ctx)
                    if existing is not None:
                        return existing
                    dim = self.dim
                    if dim is None and vector.ndim == 1 and vector.size:
                        dim = len(vector)
                    self._check_width(vector, dim)
                    vector_bytes = vector.astype("<f8").tobytes()
                    seq = self._append_vector(vector_bytes)  # before its line
                    doc = {
                        "context_id": ctx.id,
                        "description": ctx.description,
                        "instruction": instruction,
                        "lineage": lineage,
                        "seq": seq,
                        "created_at": time.time(),
                        "dim": dim,
                        "checksum": _checksum(ctx.description, vector_bytes),
                    }
                    log.write((json.dumps(doc, ensure_ascii=False) + "\n")
                              .encode("utf-8"))
                    log.flush()
                    self._read_log(log)
            except OSError as exc:
                raise StoreError(f"cannot append to store: {exc}") from exc
            self._objects[ctx.id] = ctx
            logger.debug("registered context %s (seq %d)", ctx.id, seq)
            return self._by_id[ctx.id]

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
            self._check_width(query, self.dim)
            rows = self._candidates(query, k, tau)
            entries = [self.entries[row] for row in rows]
            exact = np.empty((len(entries), self.dim))
            for i, run in _read_rows(self._vectors_path, self.dim, entries):
                exact[i:i + len(run)] = run
            hits = cosine_topk(exact, query, k, tau)
            return [(entries[row], score) for row, score in hits]

    def _candidates(self, query: np.ndarray, k: int, tau: float) -> np.ndarray:
        """The rows, ascending, that the float32 scan cannot rule out of the
        exact top ``k`` at or above ``tau``.

        The bound, for a stored vector a, the query q, n = dim and
        u = 2**-24: rounding a and q to float32 moves each product a_j q_j by
        at most (2u + u^2)|a_j q_j|.  The float32 products and n - 1 sums, in
        any order, move the dot product by at most gamma_n = nu / (1 - nu)
        times the sum of the |a_j q_j| more, and that sum is at most
        |a| |q|.  The float64 dot that ``cosine_topk`` takes is within
        n * 2**-53 |a| |q| of the exact one, and the float64 norms are as
        close.  All of that stays below twice (n + 2) u |a| |q| while
        nu < 1/4 (n < 2**22).  Near zero, rounding is absolute: a value or
        product in float32's subnormal range moves by up to 2**-150, at most
        2**-148 * n * (1 + |a| + |q|) in all, and a float64 norm whose
        squares underflow belongs to a vector shorter than 2**-500 * n,
        whose share of the relative term is smaller still.  The absolute
        term n * 2**-140 * (1 + |a| + |q|) covers both.  A row whose bound
        is not finite (an overflow, a NaN) is always a candidate.

        Scores are ``cosine_to_score`` of the dot product, which rounding
        keeps monotone, so the exact score lies within the scores of the
        widened ends.  Every row of the exact top k scores at least ``tau``
        and the k-th best lower end, so its upper end does too.
        """
        n = len(self.entries)
        norms = self._norms[:n]
        with np.errstate(all="ignore"):
            qnorm = math.sqrt(query @ query)
            dots = np.vecdot(self._vectors[:n], query.astype("<f4")).astype(np.float64)
            slack = (2 * (self.dim + 2) * 2.0**-24 * norms * qnorm
                     + self.dim * 2.0**-140 * (1 + norms + qnorm))
            low, high = cosine_to_score(dots - slack), cosine_to_score(dots + slack)
            wild = ~np.isfinite(dots + slack)
        low[wild], high[wild] = -np.inf, np.inf
        sure = np.partition(low, n - k)[n - k] if n >= k else -np.inf
        return np.flatnonzero(high >= max(tau, sure))

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

    # --- the answer log ------------------------------------------------------

    def _read_answers(self, log) -> int:
        """Load the answers appended to the locked ``log`` since this store
        last read it (all of them, in place of those held, once another
        object cleared it); return the log's size."""
        new, size, self._answers_end, self._answers_lines, self._answers_tail = (
            _read_lines(log, self._answers_end, self._answers_lines,
                        self._answers_tail, _parse_answer, self._forget_answers))
        models: dict[str, str] = {}  # one string per model id the new answers hold
        for a in new:  # set while only this read holds ``a``
            object.__setattr__(a, "model", models.setdefault(a.model, a.model))
            self._answers[a.model, a.prompt] = a
        return size

    def read_answers(self) -> int:
        """Load the answers other store objects and processes appended
        since this store last read the log (all of them the first time);
        return how many answers it holds."""
        with self._lock:
            try:
                with open(self._answers_path, "rb") as log:
                    fcntl.flock(log, fcntl.LOCK_SH)
                    self._read_answers(log)
            except FileNotFoundError:  # never written, or cleared since
                self._forget_answers()
            except OSError as exc:
                raise StoreError(f"cannot read the answer log: {exc}") from exc
            self._answers_read = True
            return len(self._answers)

    def answer(self, model_id: str, prompt: str) -> LoggedAnswer | None:
        """The logged answer of ``model_id`` to the prompt keyed ``prompt``.
        The first call reads the log; later ones see what this store
        appended, and what others appended before its last append or
        :meth:`read_answers`."""
        if not self._answers_read:
            self.read_answers()
        return self._answers.get((model_id, prompt))

    def add_answers(self, answers: Iterable[LoggedAnswer]) -> None:
        """Append, in one write, the ``answers`` whose key the log does not
        hold yet.  Under an exclusive ``flock`` it first loads what others
        appended, then cuts a torn last line or ends one that lost its \\n."""
        with self._lock:
            try:
                with open(self._answers_path, "a+b") as log:
                    fcntl.flock(log, fcntl.LOCK_EX)
                    _mend_tail(log, self._read_answers(log), self._answers_end)
                    new = {}
                    for logged in answers:
                        key = (logged.model, logged.prompt)
                        if key not in self._answers:
                            new.setdefault(key, logged)
                    if not new:
                        return
                    lines = [logged.to_line() for logged in new.values()]
                    log.write(b"".join(lines))
                    log.flush()
                    self._answers_end, self._answers_tail = log.tell(), lines[-1]
                    self._answers_lines += len(lines)
                    self._answers.update(new)
            except OSError as exc:
                raise StoreError(f"cannot append to the answer log: {exc}") from exc

    def clear(self) -> None:
        """Remove every entry and every logged answer."""
        with self._lock:
            clear_store(self.directory)
            self._forget()


def clear_store(directory) -> None:
    """Remove the files of the store in ``directory``, even one that cannot open."""
    try:
        for name in (_ENTRIES_FILE, _VECTORS_FILE, _ANSWERS_FILE):
            (Path(directory) / name).unlink(missing_ok=True)
    except OSError as exc:
        raise StoreError(f"cannot clear store at {directory}: {exc}") from exc
