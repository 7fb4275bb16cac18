"""A deterministic fault-injecting wrapper around ``MockBackend``.

Each chat's fate is a seeded hash of the model id, the prompt's first-attempt
messages and the attempt number (each re-ask the engine makes appends the
reply and a request), never of the call order, so a pooled run meets the same
faults on the same records as an inline one.  A chat fated ``"error"`` raises
``BackendError`` before the mock sees it, so the ledger records nothing; one
fated ``"garble"`` is answered and recorded by the mock, but its reply is one
no parser accepts, so the engine re-asks it.
"""

import hashlib
import re
import threading
import time

from semaq import BackendError
from semaq.backend import ChatExchange, render_messages

GARBLED = "~~ static on the line ~~"
_RECORD_RE = re.compile(r"RECORD (\S+):")


def _fate(seed: int, model_id: str, first: str, attempt: int, error_rate: float,
          garble_rate: float) -> str:
    """``"error"``, ``"garble"`` or ``"ok"`` for ``attempt`` (0 for the first)
    of the chat with ``model_id`` whose first attempt rendered as ``first``."""
    key = f"{seed}\0{model_id}\0{attempt}\0{first}".encode("utf-8", "surrogatepass")
    draw = int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2 ** 64
    if draw < error_rate:
        return "error"
    return "garble" if draw < error_rate + garble_rate else "ok"


def record_of(first: str) -> str | None:
    """The id of the record a semantic operator's prompt asks about."""
    match = _RECORD_RE.search(first)
    return match and match.group(1)


class FaultyBackend:
    """The pooled variant: it declares no ``in_process``, and each chat it
    passes on sleeps a millisecond, as a blocking call would.

    Only a chat whose first attempt contains ``match`` can fault.  ``served``
    lists each chat as (model id, first-attempt messages, attempt, outcome,
    usage), usage None for an injected error.
    """

    pause = 0.001

    def __init__(self, inner, seed: int, error_rate: float = 0.0,
                 garble_rate: float = 0.0, match: str = ""):
        self.inner = inner
        self.ledger = inner.ledger
        self.catalog = inner.catalog
        self.seed = seed
        self.error_rate = error_rate
        self.garble_rate = garble_rate
        self.match = match
        self.served: list[tuple] = []
        self._lock = threading.Lock()

    def fate(self, model_id: str, first_messages, attempt: int) -> str:
        first = render_messages(first_messages)
        if self.match not in first:
            return "ok"
        return _fate(self.seed, model_id, first, attempt, self.error_rate,
                     self.garble_rate)

    def chat(self, model_id, messages, temperature=0.0):
        first, attempt = tuple(messages[:2]), (len(messages) - 2) // 2
        outcome = self.fate(model_id, first, attempt)
        exchange = None
        try:
            if outcome == "error":
                raise BackendError(f"injected fault: {model_id}, attempt {attempt}, "
                                   f"record {record_of(render_messages(first))}")
            exchange = self.inner.chat(model_id, messages, temperature)
            time.sleep(self.pause)
            return (ChatExchange(GARBLED, exchange.usage) if outcome == "garble"
                    else exchange)
        finally:
            with self._lock:
                self.served.append((model_id, first, attempt, outcome,
                                    exchange and exchange.usage))

    def embed(self, text):
        return self.inner.embed(text)


class InlineFaultyBackend(FaultyBackend):
    """The inline variant: it declares ``in_process``, as the mock does."""

    in_process = True
    pause = 0.0
