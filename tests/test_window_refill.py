"""The source-fed stage: the plan's first sem_filter or sem_map, with no
``limit`` downstream, refills its window as each call returns.

Its oracle is the inline run: seeded random plans of sem_filter, sem_map and
project run pooled at widths 3 and 8 on a backend whose calls sleep 0-4 ms,
the delay drawn from a hash of the prompt, so it does not depend on thread
order.  Each pooled run returns the inline run's outputs, report rows and
ledger totals, keeps at most ``pool_width`` calls of a stage in flight and at
most 2 x ``pool_width`` submitted but not yet taken, and leaves no thread.
"""

import hashlib
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import pytest

import semaq.engine as engine
from semaq import (RunPolicy, bind_plan, context_create, make_source_record,
                   parse_pipeline, pipeline_execute)
from semaq.backend import backend_fingerprint, render_messages
from semaq.errors import OperatorError
from tests.conftest import CHEAP, BlockingBackend
from tests.test_run_calls import _STAGE_RE, Watch, _case, _cheap, _mock


class Jittered:
    """A MockBackend whose chat sleeps 0-4 ms, the delay a hash of the
    prompt's messages; it declares no ``in_process``, so runs pool it."""

    def __init__(self, inner):
        self.inner = inner
        self.ledger = inner.ledger

    def chat(self, model_id, messages, temperature=0.0):
        exchange = self.inner.chat(model_id, messages, temperature)
        digest = hashlib.sha256(render_messages(messages).encode("utf-8")).digest()
        time.sleep(digest[0] % 5 / 1000)
        return exchange


class _LookAhead:
    """Stands in for ``engine.Future``, which only the source-fed stage
    calls, one future per record it pulls: counts the futures made and the
    results taken from them, and keeps the peak of made less taken."""

    def __init__(self):
        self.lock = threading.Lock()
        self.made = self.taken = self.peak = 0

    def __call__(self):
        with self.lock:
            self.made += 1
            self.peak = max(self.peak, self.made - self.taken)
        return _Taken(self)


class _Taken(Future):
    def __init__(self, look: _LookAhead):
        super().__init__()
        self.look = look

    def result(self, timeout=None):
        out = super().result(timeout)
        with self.look.lock:
            self.look.taken += 1
        return out


def _execute(pplan, records, rules, width, pooled):
    """Run ``pplan`` on a fresh mock: (watch, outputs, report rows, ledger)."""
    inner = _mock(rules, {"cheap": CHEAP})
    backend = Watch(Jittered(inner) if pooled else inner)
    out_ctx, report = pipeline_execute(pplan, context_create(records, "docs"), backend,
                                       policy=RunPolicy(pool_width=width))
    outputs = [(r.id, r.fields, r.lineage) for r in out_ctx.source]
    return (backend, outputs, [row.to_dict() for row in report.ops],
            backend.ledger.snapshot().to_dict())


@pytest.mark.parametrize("width", [3, 8])
def test_refilled_runs_match_the_inline_run(width, monkeypatch):
    """Oracle: every pooled run equals the inline run of its plan, no stage
    has more than ``pool_width`` calls in flight, and the source-fed stage
    never has more than 2 x ``pool_width`` records pulled and not taken."""
    rng = random.Random(f"refill-{width}")
    top = 0
    for case in range(12):
        records, plan, rules = _case(rng, limited=False)
        pplan = _cheap(plan)
        _, inline_out, inline_rows, inline_ledger = _execute(pplan, records, rules, 1,
                                                             False)
        look = _LookAhead()
        monkeypatch.setattr(engine, "Future", look)
        threads = set(threading.enumerate())
        watch, out, rows, ledger = _execute(pplan, records, rules, width, True)
        where = f"case {case}: {engine.print_pipeline(plan)}"
        assert set(threading.enumerate()) <= threads, where
        assert out == inline_out, where
        assert rows == inline_rows, where
        assert ledger == inline_ledger, where
        assert all(peak <= width for peak in watch.peak.values()), (where, watch.peak)
        assert look.peak <= 2 * width and look.taken == look.made, where
        top = max(top, look.peak)
    # the source-fed stage ran, and looked past its calls in flight
    assert top > width


class _FirstWaits:
    """A blocking backend whose call on record ``first`` waits until
    ``expected`` other calls have completed, or ``TIMEOUT`` seconds; it
    notes how many had completed when it woke."""

    TIMEOUT = 2.0

    def __init__(self, inner, first: str, expected: int):
        self.inner = inner
        self.ledger = inner.ledger
        self.first = first
        self.expected = expected
        self.completed = 0
        self.completed_while_waiting = None
        self.released = threading.Event()
        self.lock = threading.Lock()

    def chat(self, model_id, messages, temperature=0.0):
        if _STAGE_RE.search(messages[1].content).group(2) == self.first:
            self.released.wait(self.TIMEOUT)
            with self.lock:
                self.completed_while_waiting = self.completed
            return self.inner.chat(model_id, messages, temperature)
        exchange = self.inner.chat(model_id, messages, temperature)
        with self.lock:
            self.completed += 1
            if self.completed == self.expected:
                self.released.set()
        return exchange


def test_a_slow_first_call_holds_back_only_the_consumer():
    """While the first record's call waits, the stage's other calls go on:
    2 x 4 - 1 = 7 of them complete, where a stage that refills only as its
    consumer takes its oldest result completes 3 and waits."""
    width = 4
    records = [make_source_record({"text": f"record {i:03d}"}, origin=f"{i}#0")
               for i in range(40)]
    pplan = bind_plan(parse_pipeline('scan(d) | sem_filter("p")'), {1: CHEAP})
    backend = _FirstWaits(_mock([("PREDICATE", "yes")], {"cheap": CHEAP}),
                          records[0].id, 2 * width - 1)
    threads = set(threading.enumerate())
    out_ctx, report = pipeline_execute(pplan, context_create(records, "docs"), backend,
                                       policy=RunPolicy(pool_width=width))
    assert set(threading.enumerate()) <= threads
    assert backend.completed_while_waiting == 2 * width - 1
    assert [r.id for r in out_ctx.source] == [r.id for r in records]
    assert report.total_calls == 40


def test_an_upstream_error_reaches_the_consumer_after_the_results_before_it():
    window = engine._Window(4, is_filter=False)
    window.refill = True

    def items():
        yield from range(10)
        raise ValueError("upstream broke")

    def slow_first(x):
        time.sleep(0.02 if x == 0 else 0.001)
        return x * 2, None

    taken = []
    with ThreadPoolExecutor(4) as pool:
        with pytest.raises(ValueError, match="upstream broke"):
            for out, _ in window.run(slow_first, items(), pool):
                taken.append(out)
    assert taken == [x * 2 for x in range(10)]


@pytest.mark.parametrize("width", [3, 8])
def test_an_aborted_run_asks_at_most_twice_the_width_past_its_failure(width):
    """Record 5's replies never parse, so ``on_error="abort"`` raises there;
    the stage has asked about no record past 5 + 2 x ``pool_width``."""
    records = [make_source_record({"text": f"record {i:03d}" + (" #bad" if i == 5 else "")},
                                  origin=f"{i}#0") for i in range(40)]
    pplan = bind_plan(parse_pipeline('scan(d) | sem_filter("p")'), {1: CHEAP})
    backend = Watch(BlockingBackend(_mock([("#bad", "unclear"), ("PREDICATE", "yes")],
                                          {"cheap": CHEAP})))
    threads = set(threading.enumerate())
    with pytest.raises(OperatorError):
        pipeline_execute(pplan, context_create(records, "docs"), backend,
                         policy=RunPolicy(on_error="abort", pool_width=width))
    assert set(threading.enumerate()) <= threads
    positions = {r.id: i for i, r in enumerate(records)}
    assert max(positions[record_id] for _, record_id in backend.asked) <= 5 + 2 * width


@pytest.mark.parametrize("width", [2, 3, 8])
def test_a_run_of_answers_that_need_no_call_loses_no_record(width):
    """Every record is answered from the plan's sampled answers, so each
    call returns at once and the consumer can take every result before a
    lane pulls again; the stream must still reach the last record."""
    records = [make_source_record({"text": f"record {i:03d}"}, origin=f"{i}#0")
               for i in range(30)]
    pplan = bind_plan(parse_pipeline('scan(d) | sem_filter("p")'), {1: CHEAP})
    backend = BlockingBackend(_mock([("PREDICATE", "no")], {"cheap": CHEAP}))
    digest = engine._AnswerLog(None, backend_fingerprint(backend)).digest
    answers = {("cheap", digest(engine.render_filter_prompt(r, "p"))): True
               for r in records}
    for _ in range(40):
        out_ctx, report = pipeline_execute(
            replace(pplan, answers=answers), context_create(records, "docs"), backend,
            policy=RunPolicy(pool_width=width))
        assert [r.id for r in out_ctx.source] == [r.id for r in records]
        assert (report.ops[1].reused, report.total_calls) == (30, 0)
