"""Model backends: a deterministic scripted mock and a real HTTP provider.

Both expose the same surface: ``chat(model_id, messages, temperature)`` and
``embed(text)``, with every chat recorded in a shared usage ledger, and a
``fingerprint`` that names what answers the chats (see
:func:`backend_fingerprint`).  The mock is the test and benchmark workhorse;
it replays scripted responses, counts tokens with a fixed character rule,
and charges deterministic wall time, so full runs are bit-reproducible.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import hashlib

import numpy as np

from .core import json_value, load_json, require_unicode
from .errors import (BackendError, ConfigurationError, MockMissError,
                     RetryableBackendError, ValidationError)

logger = logging.getLogger(__name__)

DEFAULT_EMBED_DIM = 256
# distinct (token, dim) pairs whose signed slot hashing_embed keeps
EMBED_MEMO_TOKENS = 1 << 15
API_KEY_ENV = "SEMAQ_API_KEY"


@dataclass(frozen=True)
class ModelSpec:
    """Pricing and prior characteristics of one model."""

    model_id: str
    input_cost_per_1k: float
    output_cost_per_1k: float
    quality_prior: float
    latency_prior: float

    def __post_init__(self):
        if not self.model_id:
            raise ValidationError("model_id must be non-empty")
        if not (0 <= self.input_cost_per_1k < math.inf
                and 0 <= self.output_cost_per_1k < math.inf):
            raise ValidationError(f"{self.model_id}: costs must be finite and >= 0")
        if not (0.0 <= self.quality_prior <= 1.0):
            raise ValidationError(f"{self.model_id}: quality_prior must be in [0, 1]")
        if not 0 <= self.latency_prior < math.inf:
            raise ValidationError(
                f"{self.model_id}: latency_prior must be finite and >= 0")


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant | tool
    content: str


@dataclass(frozen=True)
class Usage:
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class ChatExchange:
    """One chat call's response text and usage."""

    response: str
    usage: Usage


def call_cost(spec: ModelSpec, usage: Usage) -> float:
    return (usage.input_tokens / 1000.0 * spec.input_cost_per_1k
            + usage.output_tokens / 1000.0 * spec.output_cost_per_1k)


@dataclass(kw_only=True)
class Tally:
    """Calls, tokens and seconds summed over exchanges: the one accumulator
    of usage, held by the ledger, each report row and each agent trace."""

    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    wall_seconds: float = 0.0

    def add(self, usage: Usage, calls: int = 1, wall_seconds: float = 0.0) -> None:
        self.calls += calls
        self.input_tokens += usage.input_tokens
        self.output_tokens += usage.output_tokens
        self.wall_seconds += wall_seconds

    def price(self, spec: ModelSpec) -> float:
        """``call_cost`` of the summed tokens."""
        return call_cost(spec, Usage(self.input_tokens, self.output_tokens))


def mock_token_count(text: str) -> int:
    """Deterministic token rule used by the mock: ceil(characters / 4)."""
    return math.ceil(len(text) / 4)


def render_messages(messages: Sequence[ChatMessage]) -> str:
    """Canonical prompt rendering; mock rules match against this text."""
    return "\n".join(f"[{m.role}] {m.content}" for m in messages)


@dataclass(frozen=True)
class ModelTotals:
    model_id: str
    calls: int
    input_tokens: int
    output_tokens: int
    cost: float
    wall_seconds: float


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable per-model totals at a point in time."""

    per_model: tuple[ModelTotals, ...]

    @property
    def total_calls(self) -> int:
        return sum(m.calls for m in self.per_model)

    @property
    def total_cost(self) -> float:
        return sum(m.cost for m in self.per_model)

    @property
    def total_wall_seconds(self) -> float:
        return sum(m.wall_seconds for m in self.per_model)

    def for_model(self, model_id: str) -> ModelTotals:
        for totals in self.per_model:
            if totals.model_id == model_id:
                return totals
        return ModelTotals(model_id, 0, 0, 0, 0.0, 0.0)

    def minus(self, earlier: "LedgerSnapshot") -> "LedgerSnapshot":
        """Per-model difference; used to attribute usage to one run."""
        rows = []
        for totals in self.per_model:
            before = earlier.for_model(totals.model_id)
            rows.append(ModelTotals(
                model_id=totals.model_id,
                calls=totals.calls - before.calls,
                input_tokens=totals.input_tokens - before.input_tokens,
                output_tokens=totals.output_tokens - before.output_tokens,
                cost=totals.cost - before.cost,
                wall_seconds=totals.wall_seconds - before.wall_seconds,
            ))
        return LedgerSnapshot(per_model=tuple(rows))

    def to_dict(self) -> dict:
        return {
            "models": [
                {
                    "model_id": m.model_id,
                    "calls": m.calls,
                    "input_tokens": m.input_tokens,
                    "output_tokens": m.output_tokens,
                    "cost": m.cost,
                    "wall_seconds": m.wall_seconds,
                }
                for m in self.per_model
            ],
            "total_calls": self.total_calls,
            "total_cost": self.total_cost,
            "total_wall_seconds": self.total_wall_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)


class UsageLedger:
    """Thread-safe accumulator of per-model calls, tokens, cost, wall time.

    Token counts and call counts are integers, and cost is derived from the
    token totals, so totals do not depend on the order concurrent workers
    finish in.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._models: dict[str, tuple[ModelSpec, Tally]] = {}

    def record(self, spec: ModelSpec, usage: Usage, wall_seconds: float) -> None:
        with self._lock:
            entry = self._models.get(spec.model_id)
            if entry is None:
                entry = self._models[spec.model_id] = (spec, Tally())
            entry[1].add(usage, wall_seconds=wall_seconds)

    def snapshot(self) -> LedgerSnapshot:
        with self._lock:
            return LedgerSnapshot(per_model=tuple(
                ModelTotals(model_id, t.calls, t.input_tokens, t.output_tokens,
                            t.price(spec), t.wall_seconds)
                for model_id, (spec, t) in sorted(self._models.items())))


# each byte of a token (ASCII a-z, 0-9) maps to itself, every other byte to a
# space: the bytes of a non-ASCII character are all >= 0x80
_TOKEN_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                     for b in range(256))


@functools.lru_cache(maxsize=EMBED_MEMO_TOKENS)
def _token_slot(token: bytes, dim: int) -> int:
    """Where ``token`` (UTF-8) adds to a ``dim``-wide embedding, as one signed
    slot: its bucket when it adds +1, its bucket + ``dim`` when it adds -1."""
    digest = hashlib.sha256(token).digest()
    bucket = int.from_bytes(digest[:4], "big") % dim
    return bucket if digest[4] & 1 else bucket + dim


def hashing_embed(text: str, dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic bag-of-words embedding via signed feature hashing.

    Tokens are the runs of ASCII letters and digits in the lowercased text
    (the whole lowercased text when it has none); each token adds +/-1 to
    one bucket chosen by a cryptographic hash of the token.  The result is
    L2-normalized, so identical texts embed identically on every platform.
    Each token's signed slot is hashed once per process and kept in a memo
    bounded at ``EMBED_MEMO_TOKENS`` entries; the bucket sums are small
    integers, exact in any order, so the memo changes no bit.  Text that
    UTF-8 cannot encode (a lone surrogate) is a :class:`ValidationError`.
    """
    try:
        data = text.lower().encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError("text to embed is not valid Unicode") from None
    tokens = data.translate(_TOKEN_BYTES).split() or [data]
    slots = np.bincount(np.fromiter(map(_token_slot, tokens, itertools.repeat(dim)),
                                    np.intp, len(tokens)), minlength=2 * dim)
    counts = slots[:dim] - slots[dim:]
    # the counts are small integers, so their sum of squares is exact and its
    # root is the float64 norm np.linalg.norm would give, bit for bit
    norm = math.sqrt(counts @ counts)
    if norm == 0.0:
        # total cancellation; fall back to a fixed unit vector
        counts[0] = 1
        norm = 1.0
    return counts / norm


def load_json_object(path, what: str) -> dict:
    """Read the JSON file at ``path``, whose top level must be an object; any
    failure raises :class:`ConfigurationError` naming ``what`` and ``path``."""
    where = f"cannot load {what} {path}"
    try:
        with open(path, "rb") as fh:
            doc = load_json(fh.read(), where)
    except OSError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where}: not a JSON object")
    return doc


def _resolve_catalog(catalog: Mapping[str, ModelSpec] | Iterable[ModelSpec]) -> dict[str, ModelSpec]:
    if isinstance(catalog, Mapping):
        return dict(catalog)
    resolved: dict[str, ModelSpec] = {}
    for spec in catalog:
        if spec.model_id in resolved:
            raise ConfigurationError(f"duplicate model in catalog: {spec.model_id}")
        resolved[spec.model_id] = spec
    return resolved


class MockRule:
    """One scripted response: a matcher, the reply, and an optional budget."""

    def __init__(self, match: str, response: str, kind: str = "substring",
                 max_calls: int | None = None):
        if kind not in ("substring", "regex"):
            raise ConfigurationError(f"unknown rule kind: {kind!r}")
        if max_calls is not None and max_calls < 1:
            raise ConfigurationError("rule max_calls must be >= 1")
        self.match = match
        self.response = response
        self.kind = kind
        self.max_calls = max_calls
        self.used = 0
        try:
            self._pattern = re.compile(match) if kind == "regex" else None
        except re.error as exc:
            raise ConfigurationError(f"bad rule regex {match!r}: {exc}") from exc

    def matches(self, prompt: str) -> bool:
        if self.max_calls is not None and self.used >= self.max_calls:
            return False
        if self._pattern is not None:
            return self._pattern.search(prompt) is not None
        return self.match in prompt


class MockScript:
    """Ordered list of rules; the first live match wins."""

    def __init__(self, rules: Iterable[MockRule]):
        self.rules = list(rules)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MockScript":
        rules = []
        for i, row in enumerate(json_value(doc, "rules", list, "top level", [])):
            where = f"rule {i}"
            rules.append(MockRule(
                match=json_value(row, "match", str, where),
                response=json_value(row, "response", str, where),
                kind=json_value(row, "kind", str, where, "substring"),
                max_calls=json_value(row, "max_calls", int, where, None),
            ))
        return cls(rules)

    @classmethod
    def from_file(cls, path) -> "MockScript":
        doc = load_json_object(path, "mock script")
        try:
            return cls.from_dict(doc)
        except ConfigurationError as exc:
            raise ConfigurationError(f"mock script {path}: {exc}") from exc

    def to_dict(self) -> dict:
        rows = []
        for rule in self.rules:
            row = {"match": rule.match, "response": rule.response}
            if rule.kind != "substring":
                row["kind"] = rule.kind
            if rule.max_calls is not None:
                row["max_calls"] = rule.max_calls
            rows.append(row)
        return {"rules": rows}


class MockBackend:
    """Scripted chat backend with deterministic accounting.

    Token counts follow :func:`mock_token_count` over the rendered prompt and
    the raw response; wall time per call is the model's latency prior, so two
    identical runs produce identical ledgers.  Its ``fingerprint`` is the
    sha256 of the script it was built with; a caller that swaps ``script``
    later keeps it, and so vouches that the new script answers an operator
    prompt as the old one did.
    """

    in_process = True
    """Chat never blocks, so runs call it inline; wrappers may block: they opt in."""
    ledger_seconds = "modeled"
    """The ledger's seconds are each call's ``latency_prior``, not a clock's."""

    def __init__(self, script: MockScript,
                 catalog: Mapping[str, ModelSpec] | Iterable[ModelSpec]):
        self.script = script
        self.catalog = _resolve_catalog(catalog)
        self.ledger = UsageLedger()
        self._lock = threading.Lock()
        self.fingerprint = "mock " + hashlib.sha256(json.dumps(
            script.to_dict(), sort_keys=True).encode("ascii")).hexdigest()

    def chat(self, model_id: str, messages: Sequence[ChatMessage],
             temperature: float = 0.0) -> ChatExchange:
        spec = self.catalog.get(model_id)
        if spec is None:
            raise ConfigurationError(f"model not registered with backend: {model_id!r}")
        prompt = render_messages(messages)
        with self._lock:
            response = None
            for rule in self.script.rules:
                if rule.matches(prompt):
                    rule.used += 1
                    response = rule.response
                    break
        if response is None:
            raise MockMissError(
                "no mock rule matched prompt (first 200 chars): " + prompt[:200])
        usage = Usage(input_tokens=mock_token_count(prompt),
                      output_tokens=mock_token_count(response))
        self.ledger.record(spec, usage, wall_seconds=spec.latency_prior)
        return ChatExchange(response=response, usage=usage)

    def embed(self, text: str) -> np.ndarray:
        return hashing_embed(text)


RETRYABLE_STATUS = frozenset({408, 429, 500, 502, 503, 504})


class HttpBackend:
    """Chat-completions style HTTP provider.

    Requests go to ``{base_url}/chat/completions`` and
    ``{base_url}/embeddings``; the API key is read from the environment
    (``SEMAQ_API_KEY``), never from config files.  Transient failures are
    retried up to three attempts with exponential backoff (1s, then 2s).
    A reply whose content, usage, token counts or embedding has the wrong
    JSON type raises :class:`BackendError`, as does a non-finite embedding.
    Its ``fingerprint`` is the ``base_url``.
    """

    ledger_seconds = "measured"
    """The ledger's seconds are each call's wall time, by ``perf_counter``."""

    max_attempts = 3
    backoff_base = 1.0
    backoff_factor = 2.0

    def __init__(self, base_url: str,
                 catalog: Mapping[str, ModelSpec] | Iterable[ModelSpec],
                 api_key: str | None = None,
                 embedding_model: str = "semaq-embed",
                 timeout: float = 60.0,
                 session=None,
                 sleeper: Callable[[float], None] = time.sleep):
        import os

        import requests

        self.base_url = base_url.rstrip("/")
        self.fingerprint = "http " + self.base_url
        self.catalog = _resolve_catalog(catalog)
        self.embedding_model = embedding_model
        self.timeout = timeout
        self.ledger = UsageLedger()
        self._session = session if session is not None else requests.Session()
        self._sleep = sleeper
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise ConfigurationError(
                f"no API key: set the {API_KEY_ENV} environment variable")
        self._headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
        }

    def _post(self, path: str, body: dict) -> dict:
        import requests

        url = f"{self.base_url}{path}"
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self.backoff_base * self.backoff_factor ** (attempt - 1))
            try:
                resp = self._session.post(url, json=body, headers=self._headers,
                                          timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("transport failure on %s (attempt %d): %s",
                               path, attempt + 1, exc)
                continue
            if resp.status_code in RETRYABLE_STATUS:
                last_error = RetryableBackendError(
                    f"provider returned {resp.status_code} for {path}")
                logger.warning("retryable status %d on %s (attempt %d)",
                               resp.status_code, path, attempt + 1)
                continue
            if resp.status_code >= 400:
                raise BackendError(
                    f"provider error {resp.status_code} for {path}: {resp.text[:500]}")
            return load_json(resp.text, f"provider returned a non-JSON body for {path}",
                             error=BackendError)
        raise RetryableBackendError(
            f"gave up on {path} after {self.max_attempts} attempts: {last_error}")

    def chat(self, model_id: str, messages: Sequence[ChatMessage],
             temperature: float = 0.0) -> ChatExchange:
        spec = self.catalog.get(model_id)
        if spec is None:
            raise ConfigurationError(f"model not registered with backend: {model_id!r}")
        body = {
            "model": model_id,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": temperature,
        }
        started = time.perf_counter()
        doc = self._post("/chat/completions", body)
        wall = time.perf_counter() - started
        try:
            text = doc["choices"][0]["message"]["content"]
            reported = doc.get("usage")
            reported = {} if reported is None else reported
            if not isinstance(text, str) or not isinstance(reported, dict):
                raise TypeError("content must be a string and usage an object")
            tokens = (reported.get("prompt_tokens",
                                   mock_token_count(render_messages(messages))),
                      reported.get("completion_tokens", mock_token_count(text)))
            if not all(type(count) is int and count >= 0 for count in tokens):
                raise TypeError(f"token counts {tokens} are not counts")
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response ({exc}): {doc!r}") from exc
        usage = Usage(input_tokens=tokens[0], output_tokens=tokens[1])
        self.ledger.record(spec, usage, wall_seconds=wall)
        return ChatExchange(response=text, usage=usage)

    def embed(self, text: str) -> np.ndarray:
        doc = self._post("/embeddings", {"model": self.embedding_model, "input": text})
        try:
            values = doc["data"][0]["embedding"]
            if not isinstance(values, list) or not all(
                    type(value) in (int, float) for value in values):
                raise TypeError("embedding is not a flat list of numbers")
            vec = np.asarray(values, dtype=np.float64)
            if not np.isfinite(vec).all():
                raise ValueError("embedding holds a non-finite number")
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise BackendError(f"malformed embedding response ({exc}): {doc!r}") from exc
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise BackendError("provider returned a zero embedding")
        return vec / norm


def backend_fingerprint(backend) -> str | None:
    """What names ``backend`` in the key of the store's answer log: its
    ``fingerprint`` or, for a wrapper that declares none, that of the backend
    it wraps (its ``inner``).  None when neither declares one: such a
    backend's answers are never looked up or logged."""
    while backend is not None:
        fingerprint = getattr(backend, "fingerprint", None)
        if isinstance(fingerprint, str):
            return fingerprint
        backend = getattr(backend, "inner", None)
    return None


def load_model_catalog(path) -> dict[str, ModelSpec]:
    """Load a model catalog file: ``{"models": [{"id": ..., ...}]}``."""
    doc = load_json_object(path, "model catalog")
    where = f"model catalog {path}"
    specs = []
    for i, row in enumerate(json_value(doc, "models", list, where, [])):
        at = f"{where}: models[{i}]"
        numbers = (json_value(row, key, float, at) for key in (
            "input_cost_per_1k", "output_cost_per_1k", "quality_prior", "latency_prior"))
        model_id = json_value(row, "id", str, at)
        # ids are hashed into plan ids and written to the ledger as UTF-8
        require_unicode(model_id, f"{at}: id", ConfigurationError)
        specs.append(ModelSpec(model_id, *numbers))
    if not specs:
        raise ConfigurationError(f"{where} defines no models")
    return _resolve_catalog(specs)
