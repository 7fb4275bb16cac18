"""Command-line entry points: run, pipeline, stats, cache, bench.

Every failure exits non-zero and prints one machine-parseable line to stderr:
``error: <category>: <message>``.  The categories are the stable strings
defined in :mod:`semaq.errors`.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .agent import AgentConfig, AgentRuntime, make_stage_runner
from .backend import (HttpBackend, MockBackend, MockScript, ModelSpec,
                      hashing_embed, load_model_catalog)
from .core import (Record, RecordSnapshot, VectorIndex, context_create,
                   make_source_record, record_from_json)
from .errors import ConfigurationError, DataAccessError, SemaqError
from .lang import parse_pipeline, validate_plan
from .optimizer import MinCost, Policy, optimize, parse_policy
from .engine import RunPolicy, pipeline_execute
from .store import ContextStore

logger = logging.getLogger(__name__)

# sorted by model id on output; used when no catalog file is given
DEFAULT_CATALOG = {
    "mock-large": ModelSpec("mock-large", 0.0025, 0.01, 0.95, 1.2),
    "mock-small": ModelSpec("mock-small", 0.0005, 0.0015, 0.85, 0.4),
}

EXIT_CODES = {
    "config-error": 2,
    "validation-error": 2,
    "capability-error": 2,
    "parse-error": 3,
    "budget-exceeded": 4,
    "data-error": 5,
    "operator-error": 6,
    "compute-error": 6,
    "search-error": 6,
    "agent-error": 6,
    "stats-error": 6,
    "estimation-error": 6,
    "policy-infeasible": 7,
    "backend-error": 8,
    "mock-miss": 8,
    "store-error": 9,
    "store-conflict": 9,
    "internal-error": 10,
}


@dataclass
class RunConfig:
    """Everything the CLI needs to wire a session, loadable from JSON."""

    mock_script: str | None = None
    base_url: str | None = None
    catalog_path: str | None = None
    datasets: dict = field(default_factory=dict)
    policy: Policy = field(default_factory=lambda: MinCost(quality_floor=0.8))
    pool_width: int = 8
    sample_size: int = 0
    run_dir: str = "runs"
    cache_dir: str = ".semaq-cache"
    tau: float = 0.75
    agent_model: str | None = None
    max_steps: int = 12
    budget: float | None = None
    build_index: bool = True

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load config {path}: {exc}") from exc
        cfg = cls()
        backend_doc = doc.get("backend", {})
        cfg.mock_script = backend_doc.get("mock_script")
        cfg.base_url = backend_doc.get("base_url")
        cfg.catalog_path = backend_doc.get("catalog") or doc.get("catalog")
        cfg.datasets = doc.get("datasets", {})
        if "policy" in doc:
            cfg.policy = parse_policy(doc["policy"])
        cfg.pool_width = int(doc.get("pool_width", cfg.pool_width))
        cfg.sample_size = int(doc.get("sample_size", cfg.sample_size))
        cfg.run_dir = doc.get("run_dir", cfg.run_dir)
        cfg.cache_dir = doc.get("cache_dir", cfg.cache_dir)
        cfg.tau = float(doc.get("tau", cfg.tau))
        cfg.agent_model = doc.get("agent_model")
        cfg.max_steps = int(doc.get("max_steps", cfg.max_steps))
        if doc.get("budget") is not None:
            cfg.budget = float(doc["budget"])
        cfg.build_index = bool(doc.get("index", cfg.build_index))
        return cfg


def build_backend(cfg: RunConfig):
    catalog = (load_model_catalog(cfg.catalog_path) if cfg.catalog_path
               else dict(DEFAULT_CATALOG))
    if cfg.mock_script and cfg.base_url:
        raise ConfigurationError("configure either a mock script or a base_url, not both")
    if cfg.mock_script:
        return MockBackend(MockScript.from_file(cfg.mock_script), catalog)
    if cfg.base_url:
        return HttpBackend(cfg.base_url, catalog)
    raise ConfigurationError(
        "no backend configured: set backend.mock_script or backend.base_url")


def agent_model_spec(cfg: RunConfig, catalog: dict[str, ModelSpec]) -> ModelSpec:
    if cfg.agent_model:
        spec = catalog.get(cfg.agent_model)
        if spec is None:
            raise ConfigurationError(f"agent model {cfg.agent_model!r} not in catalog")
        return spec
    # default: the highest-quality model, id as tie-break
    return max(catalog.values(), key=lambda s: (s.quality_prior, s.model_id))


# --- dataset loading ----------------------------------------------------------

def load_dataset_dir(path) -> list[Record]:
    """Directory of text files; each file becomes one record with fields
    ``path`` (relative) and ``text``."""
    base = Path(path)
    if not base.is_dir():
        raise DataAccessError(f"dataset directory not found: {path}")
    records = []
    for file in sorted(base.rglob("*")):
        if not file.is_file():
            continue
        try:
            text = file.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            raise DataAccessError(f"cannot read {file}: {exc}") from exc
        rel = file.relative_to(base).as_posix()
        records.append(make_source_record({"path": rel, "text": text},
                                          origin=f"{rel}#0"))
    return records


def load_dataset_jsonl(path) -> list[Record]:
    """Record-per-line file; lines are field mappings or full record docs."""
    file = Path(path)
    if not file.is_file():
        raise DataAccessError(f"dataset file not found: {path}")
    records = []
    try:
        # iterating the file splits on \n (and \r) only: record_to_json
        # writes U+2028, U+2029 and U+0085 raw
        with open(file, encoding="utf-8") as rows:
            for lineno, line in enumerate(rows, start=1):
                if not line.strip():
                    continue
                origin = f"{file.name}#{lineno}"
                try:
                    records.append(record_from_json(line, origin=origin))
                except (json.JSONDecodeError, SemaqError) as exc:
                    raise DataAccessError(
                        f"{path}:{lineno}: bad record: {exc}") from exc
    except OSError as exc:
        raise DataAccessError(f"cannot read {path}: {exc}") from exc
    return records


def load_dataset(cfg: RunConfig, name: str, backend) :
    spec = cfg.datasets.get(name)
    if spec is None:
        known = ", ".join(sorted(cfg.datasets)) or "none"
        raise ConfigurationError(f"unknown dataset {name!r} (known: {known})")
    kind = spec.get("kind", "dir")
    if kind == "dir":
        records = load_dataset_dir(spec["path"])
    elif kind == "jsonl":
        records = load_dataset_jsonl(spec["path"])
    else:
        raise ConfigurationError(f"dataset {name!r} has unknown kind {kind!r}")
    snapshot = RecordSnapshot(records)
    index = (VectorIndex.build(snapshot, backend.embed) if cfg.build_index else None)
    description = (f"Dataset {name!r}: {len(records)} records loaded from "
                   f"{spec['path']} ({kind}).")
    return context_create(snapshot, description, index=index)


# --- artifact persistence -------------------------------------------------------

def _write_artifacts(run_dir: Path, backend, runtime: AgentRuntime | None = None,
                     trace=None, answer_text: str | None = None) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "ledger.json").write_text(
        backend.ledger.snapshot().to_json() + "\n", encoding="utf-8")
    if trace is not None:
        (run_dir / "trace.json").write_text(trace.to_json() + "\n", encoding="utf-8")
    if runtime is not None:
        for i, (opt_report, report) in enumerate(runtime.pipeline_reports):
            (run_dir / f"optimizer-{i:03d}.json").write_text(
                opt_report.to_json() + "\n", encoding="utf-8")
            (run_dir / f"report-{i:03d}.json").write_text(
                report.to_json() + "\n", encoding="utf-8")
    if answer_text is not None:
        (run_dir / "answer.txt").write_text(answer_text + "\n", encoding="utf-8")


def _fresh_run_dir(base: str) -> Path:
    root = Path(base)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = root / stamp
    n = 1
    while candidate.exists():
        candidate = root / f"{stamp}-{n}"
        n += 1
    return candidate


# --- subcommands -----------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = _load_config(args)
    backend = build_backend(cfg)
    ctx = load_dataset(cfg, args.dataset, backend)
    store = ContextStore(cfg.cache_dir, backend.embed)
    store.register(ctx, instruction=f"dataset {args.dataset}")
    if args.use_cache:
        matches = store.retrieve(args.instruction, k=3, tau=cfg.tau)
        before = ctx.id
        ctx = store.augment(ctx, matches)
        if ctx.id != before:
            print(f"augmented context with {len(matches)} cached finding(s)",
                  file=sys.stderr)
    run_policy = RunPolicy(pool_width=cfg.pool_width)
    runtime = AgentRuntime(
        backend, store, models=list(backend.catalog.values()),
        policy=cfg.policy, sample_size=cfg.sample_size, run_policy=run_policy,
        refs={args.dataset: ctx})
    budget = args.budget if args.budget is not None else cfg.budget
    config = AgentConfig(model=agent_model_spec(cfg, backend.catalog),
                         max_steps=cfg.max_steps, cost_budget=budget)
    result = runtime.compute(ctx, args.instruction, config)
    print(result.answer_text)
    if result.answer_value is not None:
        print(f"value: {result.answer_value}")
    run_dir = Path(args.run_dir) if args.run_dir else _fresh_run_dir(cfg.run_dir)
    _write_artifacts(run_dir, backend, runtime, result.trace, result.answer_text)
    print(f"artifacts: {run_dir}", file=sys.stderr)
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    backend = build_backend(cfg)
    try:
        text = Path(args.pipeline_file).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataAccessError(f"cannot read pipeline file: {exc}") from exc
    plan = parse_pipeline(text)
    ctx = load_dataset(cfg, args.dataset, backend)
    diagnostics = validate_plan(plan, ctx, known_refs={args.dataset, "ctx"})
    if diagnostics:
        for diag in diagnostics:
            print(f"diagnostic: {diag.code}: {diag.message}", file=sys.stderr)
        raise ConfigurationError(f"pipeline failed validation with "
                                 f"{len(diagnostics)} diagnostic(s)")
    sample = args.sample if args.sample is not None else cfg.sample_size
    run_policy = RunPolicy(pool_width=cfg.pool_width)
    chosen, opt_report = optimize(
        plan, ctx, list(backend.catalog.values()), cfg.policy, sample, backend,
        run_policy=run_policy)
    if args.explain:
        print(opt_report.render_text())
        return 0
    store = ContextStore(cfg.cache_dir, backend.embed)
    runtime = AgentRuntime(
        backend, store, models=list(backend.catalog.values()),
        policy=cfg.policy, sample_size=sample, run_policy=run_policy,
        refs={args.dataset: ctx})
    out_ctx, report = pipeline_execute(
        chosen, ctx, backend, policy=run_policy,
        agent_runner=make_stage_runner(runtime, max_steps=cfg.max_steps,
                                       cost_budget=cfg.budget))
    store.register(out_ctx, instruction=text.strip())
    print(report.render_text())
    if args.run_dir:
        run_dir = Path(args.run_dir)
        _write_artifacts(run_dir, backend, runtime)
        (run_dir / "report.json").write_text(report.to_json() + "\n",
                                             encoding="utf-8")
        (run_dir / "optimizer.json").write_text(opt_report.to_json() + "\n",
                                                encoding="utf-8")
        print(f"artifacts: {run_dir}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise DataAccessError(f"run directory not found: {run_dir}")
    ledger_file = run_dir / "ledger.json"
    if ledger_file.exists():
        doc = json.loads(ledger_file.read_text(encoding="utf-8"))
        print(f"{'model':<16} {'calls':>7} {'in_tok':>9} {'out_tok':>9} "
              f"{'cost':>12} {'wall_s':>9}")
        for row in doc.get("models", []):
            print(f"{row['model_id']:<16} {row['calls']:>7} "
                  f"{row['input_tokens']:>9} {row['output_tokens']:>9} "
                  f"{row['cost']:>12.6f} {row['wall_seconds']:>9.2f}")
        print(f"total: {doc['total_calls']} calls, cost {doc['total_cost']:.6f}, "
              f"wall {doc['total_wall_seconds']:.2f}s")
    else:
        print("no ledger.json in run directory")
    trace_file = run_dir / "trace.json"
    if trace_file.exists():
        doc = json.loads(trace_file.read_text(encoding="utf-8"))
        print(f"trace: {len(doc['steps'])} step(s), outcome {doc['outcome']}, "
              f"agent cost {doc['usage']['cost']:.6f}")
    for report_file in sorted(run_dir.glob("report*.json")):
        doc = json.loads(report_file.read_text(encoding="utf-8"))
        print(f"{report_file.name}: plan {doc['plan_id']} "
              f"{doc['records_in']} -> {doc['records_out']} records, "
              f"{doc['total_calls']} calls, cost {doc['total_cost']:.6f}")
    return 0


def cmd_cache(args) -> int:
    cfg = _load_config(args)
    store = ContextStore(cfg.cache_dir, hashing_embed)
    if args.cache_cmd == "list":
        if not len(store):
            print("cache is empty")
            return 0
        for entry in store.entries:
            head = entry.description.replace("\n", " ")[:70]
            print(f"{entry.seq:>4} {entry.context_id} [{entry.lineage_summary}] {head}")
        return 0
    if args.cache_cmd == "show":
        entry = store.get_entry(args.context_id)
        if entry is None:
            raise DataAccessError(f"no cached context {args.context_id!r}")
        print(f"context: {entry.context_id}")
        print(f"seq: {entry.seq}")
        print(f"lineage: {entry.lineage_summary}")
        print(f"instruction: {entry.instruction}")
        print("description:")
        print(entry.description)
        return 0
    if args.cache_cmd == "clear":
        count = len(store)
        store.clear()
        print(f"cleared {count} cached context(s)")
        return 0
    raise ConfigurationError(f"unknown cache command {args.cache_cmd!r}")


def cmd_bench(args) -> int:
    from . import bench

    summary = bench.run_bench(seed=args.seed, n=args.n, rho=args.rho,
                              out_dir=args.out)
    print(summary.render_text())
    return 0


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "mock_script", None):
        cfg.mock_script = args.mock_script
    if getattr(args, "catalog", None):
        cfg.catalog_path = args.catalog
    if getattr(args, "cache_dir", None):
        cfg.cache_dir = args.cache_dir
    if getattr(args, "pool_width", None) is not None:
        cfg.pool_width = args.pool_width
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semaq",
        description="Semantic-operator pipelines with an agentic compute layer.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--mock-script", help="scripted mock backend (JSON rules)")
    parser.add_argument("--catalog", help="model catalog JSON file")
    parser.add_argument("--cache-dir", help="context store directory")
    parser.add_argument("--pool-width", type=int,
                        help="max in-flight model calls per semantic operator "
                             "(k semantic operators: up to k x this many)")
    parser.add_argument("-v", "--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a compute instruction over a dataset")
    p_run.add_argument("dataset")
    p_run.add_argument("instruction")
    p_run.add_argument("--use-cache", action="store_true",
                       help="augment the context with similar cached findings")
    p_run.add_argument("--budget", type=float, help="agent cost budget")
    p_run.add_argument("--run-dir", help="directory for run artifacts")
    p_run.set_defaults(func=cmd_run)

    p_pipe = sub.add_parser("pipeline", help="optimize and execute a pipeline file")
    p_pipe.add_argument("pipeline_file")
    p_pipe.add_argument("--dataset", required=True)
    p_pipe.add_argument("--explain", action="store_true",
                        help="print the frontier plans and estimates, do not execute")
    p_pipe.add_argument("--sample", type=int, default=None,
                        help="sampling size for statistics (0 = priors only)")
    p_pipe.add_argument("--run-dir", help="directory for run artifacts")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_stats = sub.add_parser("stats", help="summarize a run directory")
    p_stats.add_argument("run_dir")
    p_stats.set_defaults(func=cmd_stats)

    p_cache = sub.add_parser("cache", help="inspect the context store")
    cache_sub = p_cache.add_subparsers(dest="cache_cmd", required=True)
    cache_sub.add_parser("list")
    p_show = cache_sub.add_parser("show")
    p_show.add_argument("context_id")
    cache_sub.add_parser("clear")
    p_cache.set_defaults(func=cmd_cache)

    p_bench = sub.add_parser("bench", help="run the offline benchmark")
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--n", type=int, default=250)
    p_bench.add_argument("--rho", type=float, default=0.156)
    p_bench.add_argument("--out", default="bench-out")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except SemaqError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except Exception as exc:  # noqa: BLE001 - last-resort guard for the CLI
        logger.exception("unexpected failure")
        print(f"error: internal-error: {exc}", file=sys.stderr)
        return EXIT_CODES["internal-error"]


if __name__ == "__main__":
    sys.exit(main())
