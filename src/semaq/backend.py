"""Model backends: a deterministic scripted mock and a real HTTP provider.

Both expose the same surface: ``chat(model_id, messages, temperature)`` and
``embed(text)``, with every chat recorded in a shared usage ledger.  The mock
is the test and benchmark workhorse; it replays scripted responses, counts
tokens with a fixed character rule, and charges deterministic wall time, so
full runs are bit-reproducible.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import hashlib

import numpy as np

from .errors import (BackendError, ConfigurationError, MockMissError,
                     RetryableBackendError, ValidationError)

logger = logging.getLogger(__name__)

DEFAULT_EMBED_DIM = 256
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
        if self.input_cost_per_1k < 0 or self.output_cost_per_1k < 0:
            raise ValidationError(f"{self.model_id}: costs must be >= 0")
        if not (0.0 <= self.quality_prior <= 1.0):
            raise ValidationError(f"{self.model_id}: quality_prior must be in [0, 1]")
        if self.latency_prior < 0:
            raise ValidationError(f"{self.model_id}: latency_prior must be >= 0")


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
    """One chat call: the request, the response text, and its usage."""

    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    response: str
    usage: Usage


def call_cost(spec: ModelSpec, usage: Usage) -> float:
    return (usage.input_tokens / 1000.0 * spec.input_cost_per_1k
            + usage.output_tokens / 1000.0 * spec.output_cost_per_1k)


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


class _ModelCounters:
    __slots__ = ("spec", "calls", "input_tokens", "output_tokens", "wall_seconds")

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.calls = 0
        self.input_tokens = 0
        self.output_tokens = 0
        self.wall_seconds = 0.0


class UsageLedger:
    """Thread-safe accumulator of per-model calls, tokens, cost, wall time.

    Token counts and call counts are integers, and cost is derived from the
    token totals, so totals do not depend on the order concurrent workers
    finish in.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._models: dict[str, _ModelCounters] = {}

    def record(self, spec: ModelSpec, usage: Usage, wall_seconds: float) -> None:
        with self._lock:
            counters = self._models.get(spec.model_id)
            if counters is None:
                counters = _ModelCounters(spec)
                self._models[spec.model_id] = counters
            counters.calls += 1
            counters.input_tokens += usage.input_tokens
            counters.output_tokens += usage.output_tokens
            counters.wall_seconds += wall_seconds

    def snapshot(self) -> LedgerSnapshot:
        with self._lock:
            rows = []
            for model_id in sorted(self._models):
                c = self._models[model_id]
                rows.append(ModelTotals(
                    model_id=model_id,
                    calls=c.calls,
                    input_tokens=c.input_tokens,
                    output_tokens=c.output_tokens,
                    cost=call_cost(c.spec, Usage(c.input_tokens, c.output_tokens)),
                    wall_seconds=c.wall_seconds,
                ))
            return LedgerSnapshot(per_model=tuple(rows))


def hashing_embed(text: str, dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic bag-of-words embedding via signed feature hashing.

    Tokens are lowercased alphanumeric runs; each token adds +/-1 to one
    bucket chosen by a cryptographic hash of the token.  The result is
    L2-normalized, so identical texts embed identically on every platform.
    """
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    if not tokens:
        tokens = [text.lower()]
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dim
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # total cancellation; fall back to a fixed unit vector
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


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
        self._pattern = re.compile(match) if kind == "regex" else None

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
        for row in doc.get("rules", []):
            rules.append(MockRule(
                match=row["match"],
                response=row["response"],
                kind=row.get("kind", "substring"),
                max_calls=row.get("max_calls"),
            ))
        return cls(rules)

    @classmethod
    def from_file(cls, path) -> "MockScript":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load mock script {path}: {exc}") from exc
        return cls.from_dict(doc)

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
    identical runs produce identical ledgers.
    """

    def __init__(self, script: MockScript,
                 catalog: Mapping[str, ModelSpec] | Iterable[ModelSpec],
                 embed_dim: int = DEFAULT_EMBED_DIM):
        self.script = script
        self.catalog = _resolve_catalog(catalog)
        self.embed_dim = embed_dim
        self.ledger = UsageLedger()
        self._lock = threading.Lock()

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
        return ChatExchange(
            model_id=model_id,
            messages=tuple(messages),
            temperature=temperature,
            response=response,
            usage=usage,
        )

    def embed(self, text: str) -> np.ndarray:
        return hashing_embed(text, self.embed_dim)


RETRYABLE_STATUS = frozenset({408, 429, 500, 502, 503, 504})


class HttpBackend:
    """Chat-completions style HTTP provider.

    Requests go to ``{base_url}/chat/completions`` and
    ``{base_url}/embeddings``; the API key is read from the environment
    (``SEMAQ_API_KEY``), never from config files.  Transient failures are
    retried up to three attempts with exponential backoff (1s, then 2s).
    """

    max_attempts = 3
    backoff_base = 1.0
    backoff_factor = 2.0

    def __init__(self, base_url: str,
                 catalog: Mapping[str, ModelSpec] | Iterable[ModelSpec],
                 api_key: str | None = None,
                 embedding_model: str = "semaq-embed",
                 timeout: float = 60.0,
                 session=None,
                 sleeper: Callable[[float], None] = time.sleep,
                 embed_dim: int = DEFAULT_EMBED_DIM):
        import os

        import requests

        self.base_url = base_url.rstrip("/")
        self.catalog = _resolve_catalog(catalog)
        self.embedding_model = embedding_model
        self.timeout = timeout
        self.embed_dim = embed_dim
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
            try:
                return resp.json()
            except ValueError as exc:
                raise BackendError(
                    f"provider returned a non-JSON body for {path}: "
                    f"{resp.text[:500]}") from exc
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
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response: {doc!r}") from exc
        reported = doc.get("usage") or {}
        usage = Usage(
            input_tokens=int(reported.get("prompt_tokens",
                                          mock_token_count(render_messages(messages)))),
            output_tokens=int(reported.get("completion_tokens", mock_token_count(text))),
        )
        self.ledger.record(spec, usage, wall_seconds=wall)
        return ChatExchange(
            model_id=model_id,
            messages=tuple(messages),
            temperature=temperature,
            response=text,
            usage=usage,
        )

    def embed(self, text: str) -> np.ndarray:
        doc = self._post("/embeddings", {"model": self.embedding_model, "input": text})
        try:
            values = doc["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed embedding response: {doc!r}") from exc
        vec = np.asarray(values, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise BackendError("provider returned a zero embedding")
        return vec / norm


def load_model_catalog(path) -> dict[str, ModelSpec]:
    """Load a model catalog file: ``{"models": [{"id": ..., ...}]}``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load model catalog {path}: {exc}") from exc
    catalog: dict[str, ModelSpec] = {}
    for row in doc.get("models", []):
        try:
            spec = ModelSpec(
                model_id=row["id"],
                input_cost_per_1k=float(row["input_cost_per_1k"]),
                output_cost_per_1k=float(row["output_cost_per_1k"]),
                quality_prior=float(row["quality_prior"]),
                latency_prior=float(row["latency_prior"]),
            )
        except KeyError as exc:
            raise ConfigurationError(f"catalog entry missing key: {exc}") from exc
        if spec.model_id in catalog:
            raise ConfigurationError(f"duplicate model in catalog: {spec.model_id}")
        catalog[spec.model_id] = spec
    if not catalog:
        raise ConfigurationError(f"model catalog {path} defines no models")
    return catalog
