"""Shared fixtures plus the acceptance summary hook.

The hook prints one PASS/FAIL line per acceptance criterion after the
normal pytest summary, keyed off test names in test_acceptance.py.
"""

import re
import threading
import time

import pytest

from semaq import MockBackend, MockRule, MockScript, ModelSpec, make_source_record

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, tuple[str, bool]] = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            label = match.group(2).replace("_", "-")
            if not passed or number not in outcomes:
                outcomes[number] = (label, passed and outcomes.get(number, ("", True))[1])
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        label, ok = outcomes[number]
        terminalreporter.write_line(
            f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}")


CHEAP = ModelSpec("cheap", 0.0004, 0.0008, 0.80, 0.5)
STRONG = ModelSpec("strong", 0.002, 0.004, 0.95, 1.0)


@pytest.fixture
def catalog():
    return {"cheap": CHEAP, "strong": STRONG}


@pytest.fixture
def mk_backend(catalog):
    """Backend factory over (match, response[, kind, max_calls]) tuples."""

    def build(*rules, models=None):
        script = MockScript([
            MockRule(*rule) if isinstance(rule, tuple) else rule
            for rule in rules
        ])
        return MockBackend(script, models or catalog)

    return build


class BlockingBackend:
    """A MockBackend whose chat blocks briefly, as an HTTP call does.

    It declares no ``in_process``, so pipelines run it on the worker pool.
    ``threads`` collects the ident of every thread that called ``chat``.
    """

    def __init__(self, inner: MockBackend):
        self.inner = inner
        self.ledger = inner.ledger
        self.threads: set[int] = set()

    def chat(self, model_id, messages, temperature=0.0):
        self.threads.add(threading.get_ident())
        exchange = self.inner.chat(model_id, messages, temperature)
        time.sleep(0.001)
        return exchange

    def ran_on_workers(self) -> bool:
        """Whether a thread other than the caller's made a call."""
        return bool(self.threads - {threading.get_ident()})


@pytest.fixture
def fruit_records():
    texts = {
        "apple": "crisp apple orchard notes, sweet harvest",
        "banana": "banana shipment delayed at the port",
        "cherry": "cherry season pricing memo, sweet demand",
        "date": "date palm irrigation schedule",
        "elder": "elderberry syrup recipe collection",
        "fig": "fig preserves for the fall market",
    }
    return [make_source_record({"name": name, "text": text}, origin=f"{name}#0")
            for name, text in texts.items()]
