"""Wall-clock benchmark for semaq.

    python3 perfbench/run.py --workload triage-cpu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

One closed-loop client in one process sends each query after the previous
one returns.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` measures an untraced phase, then installs
the span wrappers and measures a traced phase, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced median latency).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in a child process and prints each metric by name with its unit.

Every time printed here is measured with ``time.perf_counter``; the
ledger's modeled seconds (calls times latency priors) are never reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
MIN_QUERIES = 100          # p90 needs at least 10 samples beyond it
TRACE_MIN_QUERIES = 30
SETUP_REPS = 15
STEAL_LIMIT = 0.03         # a phase whose machine steal share is above this is redone
PHASES = 3                 # at most this many phases of --seconds in one run
WARMUP_SETUPS = 2          # untimed: the first set-ups also grow the heap

END_TO_END = {
    "setup_s": "s", "query_s_p50": "s", "query_s_p90": "s",
    "records_per_s": "records/s", "model_calls_per_query": "calls",
    "usd_per_query": "USD", "ok_share": "ratio", "peak_rss_mb": "MiB",
}


# --- provenance -------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD from the .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    return {"seed": seed, "commit": _git_commit(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__}


# --- measurement ------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of this machine's CPUs from /proc/stat;
    steal counts time the hypervisor gave to other guests.  (0, 0) where
    the kernel does not report them."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


class Phase:
    """Per-query results of measuring whole query cycles."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scans: list[int] = []
        self.failed: set[int] = set()
        self.steal = 0.0           # share of the machine's CPU ticks stolen meanwhile
        self.sequential_calls = 0
        self.calls = 0
        self.cost = 0.0
        self.facts: dict = {}

    def p50(self) -> float:
        return statistics.median(self.latencies)


def measure(wl, state, seconds: float, min_queries: int, tracer=None) -> Phase:
    """Run whole cycles until ``seconds`` passed and ``min_queries`` ran."""
    phase = Phase()
    ledger = state.backend.ledger
    first = ledger.snapshot()
    ticks = cpu_ticks()
    started = time.perf_counter()
    while True:
        for spec in wl.cycle():
            qid = len(phase.latencies)
            prep = wl.prepare_query(state, spec)
            before = ledger.snapshot()
            span = None
            if tracer is not None:
                tracer.query = qid
                span = tracer.open("query")
            t0 = time.perf_counter()
            try:
                outcome, error = wl.run_query(state, spec, prep), None
            except Exception:  # a query that raises is a failed query
                outcome, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.query = None
            phase.latencies.append(elapsed)
            if error is not None:
                phase.scans.append(0)
                problems = [error]
            else:
                phase.scans.append(outcome.scan_records)
                phase.sequential_calls += outcome.sequential_calls
                problems = wl.check(state, spec, prep, outcome,
                                    ledger.snapshot().minus(before))
            _fail(phase, qid, problems)
        done = (time.perf_counter() - started >= seconds
                and len(phase.latencies) >= min_queries)
        if done:
            phase.facts = wl.finish(state)
        _fail(phase, len(phase.latencies) - 1, wl.end_cycle(state))
        if done:
            break
    delta = ledger.snapshot().minus(first)
    phase.calls, phase.cost = delta.total_calls, delta.total_cost
    phase.steal = steal_share(ticks, cpu_ticks())
    return phase


def measure_steady(wl, state, seconds: float) -> list[Phase]:
    """Phases of ``seconds``, measured until one had at most ``STEAL_LIMIT``
    of the machine's CPU ticks stolen, ``PHASES`` at most.

    On a shared host the hypervisor at times gives the CPUs to other guests
    for a minute or two, and every query then takes up to twice as long for
    reasons that have nothing to do with semaq.  Such a phase is redone as a
    whole; the choice looks only at the host's steal, never at latencies.
    """
    phases = [measure(wl, state, seconds, MIN_QUERIES)]
    while phases[-1].steal > STEAL_LIMIT and len(phases) < PHASES:
        phases.append(measure(wl, state, seconds, MIN_QUERIES))
    return phases


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def _fail(phase: Phase, qid: int, problems) -> None:
    for problem in problems:
        print(f"check failed (query {qid}): {problem}", file=sys.stderr)
    if problems:
        phase.failed.add(qid)


def time_setups(wl, reps: int):
    """The last state and the times of ``reps`` set-ups.  The previous
    set-up's state is dropped and collected before each one: a program sets
    up once, on a heap that holds no earlier set-up's garbage."""
    times, state = [], None
    for _ in range(reps):
        state = None
        gc.collect()
        state, seconds = wl.setup(lambda b: b)
        times.append(seconds)
    return state, times


def end_to_end(phases: list[Phase], setup_s: float) -> dict:
    """Latency, throughput and ledger figures from every query of the least
    disturbed phase; ``ok_share`` from every query of every phase."""
    phase = min(phases, key=lambda p: p.steal)
    n = len(phase.latencies)
    attempted = sum(len(p.latencies) for p in phases)
    return {
        "setup_s": setup_s,
        "query_s_p50": phase.p50(),
        "query_s_p90": percentile(phase.latencies, 0.9),
        "records_per_s": sum(phase.scans) / sum(phase.latencies),
        "model_calls_per_query": phase.calls / n,
        "usd_per_query": phase.cost / n,
        "ok_share": 1.0 - sum(len(p.failed) for p in phases) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Metrics (name -> (value, unit)) and the measured phases of one run."""
    from perfbench import workloads
    wl = workloads.WORKLOADS[name]()
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl.prepare(seed, workdir)
        if trace:
            from perfbench import tracing
            phases, metrics = run_traced(wl, name, seconds)
            units = tracing.UNITS
        else:
            for _ in range(WARMUP_SETUPS):
                wl.setup(lambda b: b)
            # Half the set-ups before the queries and half after them: a
            # shared host's CPU speed changes from one second to the next,
            # and the median should not hang on one such second.
            state, times = time_setups(wl, SETUP_REPS - SETUP_REPS // 2)
            problems = wl.setup_problems(state)
            phases = measure_steady(wl, state, seconds)
            _fail(phases[0], 0, problems)
            state = None
            times += time_setups(wl, SETUP_REPS // 2)[1]
            metrics = end_to_end(phases, statistics.median(times))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return wl.sizes(), phases, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_traced(wl, name: str, seconds: float):
    """An untraced phase, then the same queries under the span wrappers."""
    from perfbench import tracing
    state, _ = wl.setup(lambda b: b)
    untraced = measure(wl, state, seconds / 2, TRACE_MIN_QUERIES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.query = "setup"
        state, _ = wl.setup(tracer.backend)
        tracer.query = None
        problems = wl.setup_problems(state)
        traced = measure(wl, state, seconds / 2, TRACE_MIN_QUERIES, tracer)
    finally:
        tracer.restore()
    _fail(traced, 0, problems)
    facts = dict(traced.facts, sequential_calls=traced.sequential_calls)
    metrics = tracing.layer_metrics(tracer, name, len(traced.latencies), facts)
    metrics["trace.overhead_s"] = traced.p50() - untraced.p50()
    tracer.write(OUT / f"spans-{name}.jsonl")
    return [untraced, traced], metrics


# --- command line --------------------------------------------------------------------

def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g}  {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from perfbench import workloads
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"workload {name}: correct={summary['correct']} "
              f"attempted={summary['attempted']} failed={summary['failed']}")
        _print_metrics(summary["metrics"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["triage-cpu", "triage-io", "agent-session", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "semaq" / "__init__.py").is_file():
        print(f"semaq sources not found under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(parents=True, exist_ok=True)
    ticks = cpu_ticks()
    sizes, phases, metrics = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failed) for p in phases)
    samples = [len(p.latencies) for p in phases]
    prov = dict(provenance(args.seed), steal_share=steal_share(ticks, cpu_ticks()),
                phase_steal_shares=[p.steal for p in phases])
    record = {"provenance": prov, "workload": args.workload, "sizes": sizes,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "latency_samples": samples, "metrics": metrics}
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(prov))
    print(f"workload {args.workload}  sizes {json.dumps(sizes)}")
    _print_metrics(metrics)
    print(f"  latency samples per phase: {samples}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
