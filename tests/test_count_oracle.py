"""Each stage boundary is counted once: a row's ``out`` is the next row's
``in`` (the last row's, the run's output), and it equals what the stage
passed on as ``tests/count_reference.py`` counts it, the way the engine
counted it with a second generator per stage.

The oracle runs the fault-injection cases of ``test_fault_injection`` under
``on_error`` drop (inline and pooled, pool widths 1 and 8, with and without
a ``limit``) and the seeded random limited plans of ``test_run_calls`` on
the inline mock and on the blocking backend of ``conftest``.
"""

import random

import pytest

import semaq.engine as engine
from semaq import (BackendError, RunAbortedError, RunPolicy, context_create,
                   pipeline_execute)
from tests import count_reference as reference
from tests.conftest import CHEAP
from tests.faults import FaultyBackend, InlineFaultyBackend
from tests.test_fault_injection import SEEDS, _mock, _plan, _records
from tests.test_run_calls import _case, _cheap, _run


def _check(report, counts):
    """Every row of ``report`` was counted by the reference, and each
    non-agentic row's ``out`` is what the reference saw its stage pass on."""
    assert len(counts) == len(report.ops)
    assert all(row is op for (row, _), op in zip(counts, report.ops))
    kept = [(row, count) for row, count in counts if row.kind not in ("compute", "search")]
    assert [row.records_out for row, _ in kept] == [count[0] for _, count in kept]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("limited", [False, True], ids=["no-limit", "limit"])
def test_faulty_dropping_runs_count_what_each_stage_passed_on(seed, limited,
                                                              monkeypatch):
    counts: reference.Passed = []
    monkeypatch.setattr(engine, "_STAGES", reference.stages(counts))
    rng = random.Random(f"count-{seed}-{limited}")
    records = _records(rng)
    finished = dropped = 0
    for case in range(16):
        variant = rng.choice([FaultyBackend, InlineFaultyBackend])
        backend = variant(_mock(), seed=seed * 1000 + case,
                          error_rate=rng.choice([0.0, 0.0, 0.01]),
                          garble_rate=rng.choice([0.1, 0.3, 0.6]))
        policy = RunPolicy(on_error="drop", pool_width=rng.choice([1, 8]),
                           failure_budget=rng.choice([0.25, 1.0]))
        counts.clear()
        try:
            _, report = pipeline_execute(
                _plan(rng.randint(1, 12) if limited else None),
                context_create(records, "d"), backend, policy=policy)
        except (BackendError, RunAbortedError):
            continue  # a run that raises returns no report
        _check(report, counts)
        finished += 1
        dropped += report.total_failures
    assert finished >= 4 and dropped > 0


@pytest.mark.parametrize("blocking", [False, True], ids=["inline", "blocking"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_limited_random_plans_count_what_each_stage_passed_on(width, blocking,
                                                              monkeypatch):
    counts: reference.Passed = []
    monkeypatch.setattr(engine, "_STAGES", reference.stages(counts))
    rng = random.Random(f"count-limited-{width}-{blocking}")
    for _ in range(12):
        records, plan, rules = _case(rng, limited=True)
        counts.clear()
        _, _, report = _run(_cheap(plan), records, rules, {"cheap": CHEAP}, blocking,
                            width)
        _check(report, counts)
