"""Backends: deterministic mock, usage ledger, embeddings, HTTP client."""

import json
import math

import numpy as np
import pytest

from semaq import (BackendError, ConfigurationError, HttpBackend, MockBackend,
                   MockMissError, MockRule, MockScript, ModelSpec, UsageLedger,
                   ValidationError, hashing_embed, load_model_catalog)
from semaq.backend import (ChatMessage, Usage, call_cost, mock_token_count,
                           render_messages)
from semaq.errors import RetryableBackendError


def test_model_spec_validation():
    with pytest.raises(ValidationError):
        ModelSpec("m", -0.1, 0.1, 0.5, 1.0)
    with pytest.raises(ValidationError):
        ModelSpec("m", 0.1, 0.1, 1.5, 1.0)
    with pytest.raises(ValidationError):
        ModelSpec("", 0.1, 0.1, 0.5, 1.0)


def test_token_rule_and_rendering():
    assert mock_token_count("") == 0
    assert mock_token_count("abcd") == 1
    assert mock_token_count("abcde") == 2
    msgs = [ChatMessage("system", "be brief"), ChatMessage("user", "hi")]
    assert render_messages(msgs) == "[system] be brief\n[user] hi"


def test_ledger_worked_example():
    """Frozen oracle: 3 calls of 100 in / 10 out at 0.002 in, 0.004 out
    per 1k tokens must cost 3 * (0.1*0.002 + 0.01*0.004) = 0.00072."""
    spec = ModelSpec("m", 0.002, 0.004, 0.9, 1.0)
    ledger = UsageLedger()
    for _ in range(3):
        ledger.record(spec, Usage(100, 10), wall_seconds=1.0)
    snap = ledger.snapshot()
    assert snap.total_calls == 3
    assert abs(snap.total_cost - 0.00072) < 1e-12
    assert abs(snap.total_wall_seconds - 3.0) < 1e-12
    row = snap.for_model("m")
    assert (row.input_tokens, row.output_tokens) == (300, 30)
    assert abs(call_cost(spec, Usage(100, 10)) - 0.00024) < 1e-15


def test_ledger_snapshot_minus_and_missing_model():
    spec = ModelSpec("m", 0.002, 0.004, 0.9, 1.0)
    ledger = UsageLedger()
    ledger.record(spec, Usage(100, 10), 1.0)
    before = ledger.snapshot()
    ledger.record(spec, Usage(50, 5), 1.0)
    delta = ledger.snapshot().minus(before)
    assert delta.for_model("m").calls == 1
    assert delta.for_model("m").input_tokens == 50
    assert ledger.snapshot().for_model("ghost").calls == 0


def test_ledger_json_shape():
    spec = ModelSpec("m", 0.002, 0.004, 0.9, 1.0)
    ledger = UsageLedger()
    ledger.record(spec, Usage(4, 4), 0.5)
    doc = json.loads(ledger.snapshot().to_json())
    assert doc["models"][0]["model_id"] == "m"
    assert doc["total_calls"] == 1


# --- mock backend ---------------------------------------------------------------

def test_mock_rules_first_live_match_wins(mk_backend):
    backend = mk_backend(("hello", "first", "substring", 1), ("hello", "second"))
    msg = [ChatMessage("user", "hello there")]
    assert backend.chat("cheap", msg).response == "first"
    assert backend.chat("cheap", msg).response == "second"
    assert backend.chat("cheap", msg).response == "second"


def test_mock_regex_rules(mk_backend):
    backend = mk_backend((r"count: \d+", "seen", "regex"))
    assert backend.chat("cheap", [ChatMessage("user", "count: 42")]).response == "seen"
    with pytest.raises(MockMissError):
        backend.chat("cheap", [ChatMessage("user", "count: none")])


def test_mock_miss_is_loud_and_bounded(mk_backend):
    backend = mk_backend()
    with pytest.raises(MockMissError) as err:
        backend.chat("cheap", [ChatMessage("user", "x" * 9000)])
    assert len(str(err.value)) < 400


def test_mock_unknown_model(mk_backend):
    with pytest.raises(ConfigurationError):
        mk_backend(("a", "b")).chat("nope", [ChatMessage("user", "a")])


def test_mock_accounting_is_exact(mk_backend, catalog):
    backend = mk_backend(("ping", "pong!"))
    messages = [ChatMessage("system", "sys"), ChatMessage("user", "ping")]
    exchange = backend.chat("strong", messages)
    prompt = render_messages(messages)
    assert exchange.usage.input_tokens == math.ceil(len(prompt) / 4)
    assert exchange.usage.output_tokens == math.ceil(len("pong!") / 4)
    row = backend.ledger.snapshot().for_model("strong")
    assert row.wall_seconds == catalog["strong"].latency_prior


def test_mock_script_round_trip(tmp_path):
    script = MockScript([MockRule("a", "b"), MockRule(r"x\d", "y", "regex", 2)])
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script.to_dict()), encoding="utf-8")
    again = MockScript.from_file(path)
    assert again.to_dict() == script.to_dict()
    with pytest.raises(ConfigurationError):
        MockScript.from_file(tmp_path / "missing.json")
    with pytest.raises(ConfigurationError):
        MockRule("a", "b", kind="glob")
    with pytest.raises(ConfigurationError):
        MockRule("a", "b", max_calls=0)


# --- embeddings ----------------------------------------------------------------

def test_hashing_embed_properties():
    vec = hashing_embed("the quick brown fox")
    assert vec.shape == (256,)
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9
    assert np.array_equal(vec, hashing_embed("the quick brown fox"))
    assert np.array_equal(vec, hashing_embed("The QUICK brown fox!"))
    assert not np.array_equal(vec, hashing_embed("a different sentence"))
    empty = hashing_embed("")
    assert abs(float(np.linalg.norm(empty)) - 1.0) < 1e-9


# --- HTTP backend ---------------------------------------------------------------

class _FakeResponse:
    def __init__(self, status_code, doc=None, text=""):
        self.status_code = status_code
        self._doc = doc
        self.text = text

    def json(self):
        # like requests: a body given only as text is decoded on demand
        return self._doc if self._doc is not None else json.loads(self.text)


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json, headers))
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def _chat_doc(content, prompt_tokens=7, completion_tokens=3):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": prompt_tokens,
                  "completion_tokens": completion_tokens},
    }


def _http(catalog, session, **kwargs):
    return HttpBackend("https://api.example.test/v1", catalog,
                       api_key="sk-test", session=session,
                       sleeper=lambda s: None, **kwargs)


def test_http_requires_env_key(catalog, monkeypatch):
    monkeypatch.delenv("SEMAQ_API_KEY", raising=False)
    with pytest.raises(ConfigurationError) as err:
        HttpBackend("https://api.example.test", catalog, session=_FakeSession([]))
    assert "SEMAQ_API_KEY" in str(err.value)
    monkeypatch.setenv("SEMAQ_API_KEY", "sk-env")
    backend = HttpBackend("https://api.example.test", catalog,
                          session=_FakeSession([_FakeResponse(200, _chat_doc("ok"))]),
                          sleeper=lambda s: None)
    backend.chat("cheap", [ChatMessage("user", "hi")])


def test_http_chat_wire_format(catalog):
    session = _FakeSession([_FakeResponse(200, _chat_doc("hello", 11, 5))])
    backend = _http(catalog, session)
    exchange = backend.chat("strong", [ChatMessage("user", "hi")], temperature=0.2)
    url, body, headers = session.requests[0]
    assert url.endswith("/chat/completions")
    assert body == {"model": "strong",
                    "messages": [{"role": "user", "content": "hi"}],
                    "temperature": 0.2}
    assert headers["Authorization"] == "Bearer sk-test"
    assert exchange.response == "hello"
    assert (exchange.usage.input_tokens, exchange.usage.output_tokens) == (11, 5)
    assert backend.ledger.snapshot().for_model("strong").calls == 1


def test_http_retries_then_succeeds(catalog):
    sleeps = []
    session = _FakeSession([
        _FakeResponse(503),
        _FakeResponse(429),
        _FakeResponse(200, _chat_doc("finally")),
    ])
    backend = HttpBackend("https://api.example.test", catalog, api_key="k",
                          session=session, sleeper=sleeps.append)
    assert backend.chat("cheap", [ChatMessage("user", "x")]).response == "finally"
    assert sleeps == [1.0, 2.0]


def test_http_gives_up_after_three_attempts(catalog):
    session = _FakeSession([_FakeResponse(500)] * 3)
    backend = _http(catalog, session)
    with pytest.raises(RetryableBackendError):
        backend.chat("cheap", [ChatMessage("user", "x")])
    assert len(session.requests) == 3


def test_http_client_error_is_fatal(catalog):
    session = _FakeSession([_FakeResponse(401, text="bad key")])
    backend = _http(catalog, session)
    with pytest.raises(BackendError):
        backend.chat("cheap", [ChatMessage("user", "x")])
    assert len(session.requests) == 1


def test_http_malformed_response(catalog):
    session = _FakeSession([_FakeResponse(200, {"choices": []})])
    with pytest.raises(BackendError):
        _http(catalog, session).chat("cheap", [ChatMessage("user", "x")])
    session = _FakeSession([_FakeResponse(200, text="<html>gateway</html>")])
    with pytest.raises(BackendError, match="non-JSON"):
        _http(catalog, session).chat("cheap", [ChatMessage("user", "x")])


def test_http_embed_normalizes(catalog):
    doc = {"data": [{"embedding": [3.0, 4.0] + [0.0] * 254}]}
    session = _FakeSession([_FakeResponse(200, doc)])
    vec = _http(catalog, session).embed("hello")
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9
    assert abs(vec[0] - 0.6) < 1e-9


def test_load_model_catalog(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"models": [
        {"id": "a", "input_cost_per_1k": 0.001, "output_cost_per_1k": 0.002,
         "quality_prior": 0.9, "latency_prior": 1.5},
    ]}), encoding="utf-8")
    catalog = load_model_catalog(path)
    assert catalog["a"].latency_prior == 1.5
    with pytest.raises(ConfigurationError):
        load_model_catalog(tmp_path / "missing.json")
