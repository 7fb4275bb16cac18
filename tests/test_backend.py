"""Backends: deterministic mock, usage ledger, embeddings, HTTP client."""

import ast
import hashlib
import http.server
import json
import logging
import math
import random
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import semaq
from semaq import (BackendError, ConfigurationError, HttpBackend, MockBackend,
                   MockMissError, MockRule, MockScript, ModelSpec, RunPolicy,
                   UsageLedger, ValidationError, bind_plan, context_create,
                   hashing_embed, load_model_catalog, make_source_record,
                   parse_pipeline, pipeline_execute)
from semaq.backend import (ChatMessage, Usage, _token_slot, call_cost,
                           json_value, mock_token_count, render_messages)
from semaq.bench import gen_email_corpus
from semaq.core import record_text
from semaq.errors import RetryableBackendError
from tests.conftest import CHEAP


def test_model_spec_validation():
    with pytest.raises(ValidationError):
        ModelSpec("m", -0.1, 0.1, 0.5, 1.0)
    with pytest.raises(ValidationError):
        ModelSpec("m", 0.1, 0.1, 1.5, 1.0)
    with pytest.raises(ValidationError):
        ModelSpec("", 0.1, 0.1, 0.5, 1.0)


@pytest.mark.parametrize("args", [
    (math.nan, 0.1, 0.5, 1.0), (0.1, math.inf, 0.5, 1.0),
    (0.1, 0.1, math.nan, 1.0), (0.1, 0.1, 0.5, math.nan), (0.1, 0.1, 0.5, math.inf),
], ids=["input-cost-nan", "output-cost-inf", "quality-nan", "latency-nan",
        "latency-inf"])
def test_model_spec_rejects_non_finite_numbers(args):
    with pytest.raises(ValidationError):
        ModelSpec("m", *args)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_json_value_rejects_numbers_past_the_float_range(value):
    with pytest.raises(ConfigurationError, match="'x': expected a finite number"):
        json_value({"x": value}, "x", float, "cfg")


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


_TALLIED = {"calls", "input_tokens", "output_tokens", "wall_seconds"}


def _tally_adders(tree):
    """The enclosing ``Class.method`` (or function) of each augmented
    assignment to a ``calls``, token or ``wall_seconds`` attribute in ``tree``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)
                and node.target.attr in _TALLIED):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_usage_is_summed_only_by_the_tally():
    """Calls, tokens and seconds are summed in one place, ``Tally.add``: the
    ledger, each report row and each agent trace hold a tally."""
    found = set()
    for path in sorted(Path(semaq.__file__).parent.glob("*.py")):
        adders = _tally_adders(ast.parse(path.read_text(encoding="utf-8")))
        found |= {f"{path.stem}.{scope}" for scope in adders}
    assert found == {"backend.Tally.add"}


def test_backend_imports_nothing_from_the_engine():
    """The engine imports the backend, so the backend must not import the
    engine back, at module level or inside a function."""
    import semaq.backend as backend_mod

    tree = ast.parse(Path(backend_mod.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        assert "engine" not in names, ast.unparse(node)


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


def _reference_embed(text, dim=256):
    """hashing_embed's definition: one digest and one write per token."""
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    if not tokens:
        tokens = [text.lower()]
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dim
        vec[bucket] += 1.0 if digest[4] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def _cancelling_pair(dim):
    """Two tokens with the same bucket and opposite signs at ``dim``."""
    seen = {}
    for i in range(10_000):
        token = f"t{i}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dim
        sign = digest[4] & 1
        if (bucket, 1 - sign) in seen:
            return seen[(bucket, 1 - sign)], token
        seen.setdefault((bucket, sign), token)
    raise AssertionError("no cancelling pair")


def test_memoized_embed_matches_per_token_digest_loop():
    corpus = [record_text(r) for r in gen_email_corpus(seed=3, n=120).records]
    cancelled = " ".join(_cancelling_pair(256))
    # empty and punctuation-only text embed the whole lowercased text
    texts = corpus + [
        "", "!!! ... ???", "\u00dcn\u00efcode na\u00efve caf\u00e9 \u65e5\u672c",
        "\u65e5\u672c\u8a9e", " ".join(["invoice"] * 5000), cancelled,
        " ".join(_cancelling_pair(1))]

    def check(dim):
        for text in texts:
            assert hashing_embed(text, dim).tobytes() == \
                _reference_embed(text, dim).tobytes(), (text[:40], dim)

    # the same tokens at several widths in one process: a memo that left
    # out the width would hand one width's buckets to another
    for dim in (256, 1, 1536, 256):
        check(dim)
    assert np.array_equal(hashing_embed(cancelled), np.eye(256)[0])
    _token_slot.cache_clear()
    check(256)

    _token_slot.cache_clear()
    failures = []

    def worker(w):
        try:
            for text in texts[w::4] + texts:
                assert hashing_embed(text, 64).tobytes() == \
                    _reference_embed(text, 64).tobytes()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# characters whose lowercase is ASCII (KELVIN SIGN, I WITH DOT ABOVE), that
# look like token characters but are not ASCII (full-width digits and
# letters, sharp s and its capital, Greek), NBSP and the ASCII whitespace
_EMBED_ALPHABET = ("abcxyzABCXYZ0189 \t\n\r\x0b\x0c.,;:!?-_'\"()[]{}#@/\\"
                   "\u212a\u0130\u00df\u1e9e\u00a0\uff10\uff19\uff41\uff3a"
                   "\u00e9\u00c9\u0391\u03c3\u03a3\u65e5\u672c\U0001f600")


def _random_unicode_text(rng):
    """Text of ASCII words and characters drawn from ``_EMBED_ALPHABET`` or
    from any code point that is not a surrogate."""
    parts = []
    for _ in range(rng.randrange(0, 60)):
        roll = rng.random()
        if roll < 0.3:
            parts.append("".join(rng.choice("abcdefghijklmnopqrstuvwxyzABCXYZ0123456789")
                                 for _ in range(rng.randrange(1, 8))))
        elif roll < 0.85:
            parts.append(rng.choice(_EMBED_ALPHABET))
        else:
            code = rng.randrange(0x80, 0x110000 - 0x800)
            parts.append(chr(code + 0x800 if code >= 0xD800 else code))
    return "".join(parts)


def test_embed_matches_reference_on_random_unicode_text():
    rng = random.Random(19)
    texts = [_random_unicode_text(rng) for _ in range(400)]
    texts += [
        "", " \t\n ", "!!! ... ???", "\u00a0\u00a0", "\u212a\u0130\u00df",
        "\u212aelvin \u0130stanbul stra\u00dfe \uff11\uff12 12", "a\tb\nc\rd\u00a0e",
        "\uff10\uff11\uff12", " ".join(rng.choice(["invoice", "Q3", "deal", "\u212a"])
                                       for _ in range(5000))]
    widths = (1, 64, 256, 1536)
    # a pair cancels at its own width and falls back to the unit vector
    texts += [" ".join(_cancelling_pair(dim)) for dim in widths]
    for dim in widths:
        for text in texts:
            assert hashing_embed(text, dim).tobytes() == \
                _reference_embed(text, dim).tobytes(), (text[:40], dim)


def test_embed_of_email_corpus_pinned():
    """The embeddings' bytes (little-endian float64) as computed by the
    per-token digest loop, so every Python version checks the same bits."""
    digest = hashlib.sha256()
    for dim in (1, 64, 256, 1536):
        for record in gen_email_corpus(seed=7, n=250).records:
            digest.update(hashing_embed(record_text(record), dim).tobytes())
    assert digest.hexdigest() == \
        "b86ad9d18520db68e04f8a6c98efb930cdb893a6e7ec96bada84cdd3129f890a"


@pytest.mark.parametrize("text", ["ok \ud800", "\udcff", "\udcff ok", "A\udc80B"])
def test_embed_rejects_text_utf8_cannot_encode(text):
    with pytest.raises(ValidationError, match="not valid Unicode"):
        hashing_embed(text)


# --- HTTP backend ---------------------------------------------------------------

class _FakeResponse:
    def __init__(self, status_code, doc=None, text=""):
        # like requests.Response, the body is text: a doc is held serialized
        self.status_code = status_code
        self.text = text if doc is None else json.dumps(doc)


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


def test_only_the_mock_declares_in_process(catalog, mk_backend):
    """Pipelines run a backend inline only when it says its calls never
    block; HTTP calls block, so HttpBackend stays on the worker pool."""
    assert MockBackend.in_process is True
    assert mk_backend().in_process is True
    assert not hasattr(HttpBackend, "in_process")
    assert not hasattr(_http(catalog, _FakeSession([])), "in_process")


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


def test_http_reply_nested_past_the_parsers_depth_is_a_backend_error(catalog):
    body = "[" * 100_000 + "]" * 100_000
    backend = _http(catalog, _FakeSession([_FakeResponse(200, text=body)]))
    with pytest.raises(BackendError, match="non-JSON body .*: RecursionError"):
        backend.chat("cheap", [ChatMessage("user", "x")])
    assert backend.ledger.snapshot().total_calls == 0


@pytest.mark.parametrize("doc", [
    _chat_doc(None),
    _chat_doc(["not", "text"]),
    {"choices": [{"message": {"content": "ok"}}], "usage": "12 tokens"},
    {"choices": [{"message": {"content": "ok"}}], "usage": [7, 3]},
    _chat_doc("ok", prompt_tokens="12a"),
    _chat_doc("ok", prompt_tokens=None),
    _chat_doc("ok", completion_tokens=2.5),
    _chat_doc("ok", completion_tokens=True),
    _chat_doc("ok", completion_tokens=-1),
], ids=["content-null", "content-list", "usage-string", "usage-list",
        "tokens-string", "tokens-null", "tokens-float", "tokens-bool",
        "tokens-negative"])
def test_http_malformed_chat_reply_is_a_backend_error(catalog, doc):
    backend = _http(catalog, _FakeSession([_FakeResponse(200, doc)]))
    with pytest.raises(BackendError, match="malformed chat response"):
        backend.chat("cheap", [ChatMessage("user", "x")])
    assert backend.ledger.snapshot().total_calls == 0


@pytest.mark.parametrize("values", [
    None, "0.5", [[3.0, 4.0]], [3.0, "4"], [3.0, True], [3.0, float("nan")],
    [float("inf"), 1.0], [10 ** 400],
], ids=["null", "string", "nested", "string-item", "bool-item", "nan", "inf",
        "overflow"])
def test_http_malformed_embedding_is_a_backend_error(catalog, values):
    doc = {"data": [{"embedding": values}]}
    backend = _http(catalog, _FakeSession([_FakeResponse(200, doc)]))
    with pytest.raises(BackendError, match="malformed embedding response"):
        backend.embed("hello")


def test_http_embed_normalizes(catalog):
    doc = {"data": [{"embedding": [3.0, 4.0] + [0.0] * 254}]}
    session = _FakeSession([_FakeResponse(200, doc)])
    vec = _http(catalog, session).embed("hello")
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9
    assert abs(vec[0] - 0.6) < 1e-9



class _SlowChat(http.server.BaseHTTPRequestHandler):
    """A keep-alive chat endpoint that answers each call after 10 ms: "yes"
    to a filter, a field to a map.  Each handler serves one connection."""

    protocol_version = "HTTP/1.1"
    connections = 0
    lock = threading.Lock()

    def setup(self):
        super().setup()
        with _SlowChat.lock:
            _SlowChat.connections += 1

    def do_POST(self):
        prompt = self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(0.01)
        reply = '{"f": "x"}' if b"OUTPUT FIELDS" in prompt else "yes"
        body = json.dumps({"choices": [{"message": {"content": reply}}],
                           "usage": {"prompt_tokens": 5, "completion_tokens": 1}})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body.encode())

    def log_message(self, *args):
        pass


def test_http_keeps_a_connection_alive_for_each_call_in_flight(catalog, caplog):
    """A run of three semantic stages at width 8 has up to 24 calls in
    flight; the default session keeps a connection for each of them, so it
    opens no more than 24 and discards none."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SlowChat)
    server.daemon_threads = True
    _SlowChat.connections = 0
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    backend = HttpBackend(f"http://127.0.0.1:{server.server_port}", catalog,
                          api_key="sk-test")
    plan = parse_pipeline('scan(d) | sem_filter("a") | sem_filter("b") '
                          '| sem_map("m", {f: text})')
    records = [make_source_record({"text": f"note {i}"}, origin=f"d#{i}")
               for i in range(200)]
    try:
        with caplog.at_level(logging.WARNING, logger="urllib3.connectionpool"):
            out, report = pipeline_execute(
                bind_plan(plan, {1: CHEAP, 2: CHEAP, 3: CHEAP}),
                context_create(records, "docs"), backend, policy=RunPolicy(pool_width=8))
    finally:
        backend._session.close()
        server.shutdown()
        server.server_close()
        serving.join()
    assert len(out.source) == 200 and report.total_calls == 600
    assert 1 <= _SlowChat.connections <= 24
    assert not [r for r in caplog.records if "pool is full" in r.getMessage()]

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


def test_json_value_checks_types_without_converting():
    assert json_value({"x": True}, "x", bool, "w") is True
    assert json_value({"x": 3}, "x", int, "w") == 3
    number = json_value({"x": 3}, "x", float, "w")
    assert number == 3.0 and isinstance(number, float)
    assert json_value({"x": None}, "x", int, "w", 5) == 5
    for value, kind in (("false", bool), (0, bool), (True, int), (2.7, int),
                        (3.0, int), (False, float), ("0.5", float), (1, str),
                        ({}, list), ([], dict)):
        with pytest.raises(ConfigurationError, match=r"w: bad value for 'x'"):
            json_value({"x": value}, "x", kind, "w")


# --- each backend failure and its category -----------------------------------------

def _cli(tmp_path, capsys, backend=None, catalog=None):
    """Run ``semaq pipeline`` on one text file with the ``backend`` section
    and model ``catalog`` given: (exit code, stderr)."""
    from semaq.cli import main

    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "a.txt").write_text("memo about filings", encoding="utf-8")
    (tmp_path / "p.pz").write_text('scan(docs) | sem_filter("filings")\n',
                                   encoding="utf-8")
    doc = {"backend": backend or {}, "cache_dir": str(tmp_path / "cache"),
           "datasets": {"docs": {"kind": "dir", "path": str(tmp_path / "data")}}}
    if catalog is not None:
        (tmp_path / "catalog.json").write_text(json.dumps(catalog), encoding="utf-8")
        doc["backend"]["catalog"] = str(tmp_path / "catalog.json")
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--config", str(tmp_path / "config.json"), "pipeline",
                 str(tmp_path / "p.pz"), "--dataset", "docs"])
    return code, capsys.readouterr().err


def _cli_over_http(tmp_path, capsys, monkeypatch, session, sleeps):
    import functools

    import semaq.cli as cli_mod
    monkeypatch.setenv("SEMAQ_API_KEY", "sk-test")
    monkeypatch.setattr(cli_mod, "HttpBackend", functools.partial(
        HttpBackend, session=session, sleeper=sleeps.append))
    return _cli(tmp_path, capsys, {"base_url": "https://api.example.test/v1"})


def test_http_transport_failures_are_retried_then_retryable(catalog, tmp_path, capsys,
                                                            monkeypatch):
    import requests

    sleeps = []
    session = _FakeSession([requests.ConnectionError("connection refused")] * 3)
    backend = HttpBackend("https://api.example.test", catalog, api_key="k",
                          session=session, sleeper=sleeps.append)
    with pytest.raises(RetryableBackendError,
                       match="gave up on /chat/completions after 3 attempts: "
                             "connection refused") as err:
        backend.chat("cheap", [ChatMessage("user", "x")])
    assert err.value.category == "backend-error"
    assert sleeps == [1.0, 2.0] and len(session.requests) == 3
    assert backend.ledger.snapshot().total_calls == 0
    # the CLI's first call embeds the dataset
    sleeps.clear()
    session = _FakeSession([requests.ConnectionError("connection refused")] * 3)
    code, err = _cli_over_http(tmp_path, capsys, monkeypatch, session, sleeps)
    assert code == 8 and sleeps == [1.0, 2.0]
    assert err.startswith("error: backend-error: gave up on /embeddings after 3 attempts")


def test_http_zero_embedding_is_a_backend_error(catalog, tmp_path, capsys, monkeypatch):
    doc = {"data": [{"embedding": [0.0, 0, -0.0]}]}
    with pytest.raises(BackendError, match="provider returned a zero embedding"):
        _http(catalog, _FakeSession([_FakeResponse(200, doc)])).embed("hello")
    code, err = _cli_over_http(tmp_path, capsys, monkeypatch,
                               _FakeSession([_FakeResponse(200, doc)]), [])
    assert code == 8
    assert err.startswith("error: backend-error: provider returned a zero embedding")


def test_http_chat_to_a_model_outside_the_catalog_is_a_config_error(catalog):
    session = _FakeSession([])
    with pytest.raises(ConfigurationError,
                       match="model not registered with backend: 'huge'"):
        _http(catalog, session).chat("huge", [ChatMessage("user", "x")])
    assert session.requests == []


def _catalog_row(model_id):
    return {"id": model_id, "input_cost_per_1k": 0.001, "output_cost_per_1k": 0.002,
            "quality_prior": 0.9, "latency_prior": 1.0}


def test_a_duplicate_model_in_a_catalog_is_a_config_error(tmp_path, capsys):
    spec = ModelSpec("a", 0.001, 0.002, 0.9, 1.0)
    with pytest.raises(ConfigurationError, match="duplicate model in catalog: a"):
        HttpBackend("https://api.example.test", [spec, spec], api_key="k",
                    session=_FakeSession([]))
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": []}), encoding="utf-8")
    code, err = _cli(tmp_path, capsys, {"mock_script": str(script)},
                     {"models": [_catalog_row("a"), _catalog_row("b"), _catalog_row("a")]})
    assert code == 2
    assert err.startswith("error: config-error: duplicate model in catalog: a")


def test_a_catalog_with_no_models_is_a_config_error(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": []}), encoding="utf-8")
    code, err = _cli(tmp_path, capsys, {"mock_script": str(script)}, {"models": []})
    assert code == 2
    assert err.startswith(f"error: config-error: model catalog "
                          f"{tmp_path / 'catalog.json'} defines no models")


def test_a_bad_mock_rule_regex_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match=r"bad rule regex '\(unclosed'"):
        MockRule("(unclosed", "yes", kind="regex")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": [
        {"match": "(unclosed", "response": "yes", "kind": "regex"}]}), encoding="utf-8")
    code, err = _cli(tmp_path, capsys, {"mock_script": str(script)})
    assert code == 2
    assert err.startswith(f"error: config-error: mock script {script}: bad rule "
                          "regex '(unclosed'")
