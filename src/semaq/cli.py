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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .agent import (DEFAULT_MAX_STEPS, AgentConfig, AgentRuntime, check_instruction,
                    make_stage_runner)
from .backend import (HttpBackend, MockBackend, MockScript, ModelSpec,
                      hashing_embed, json_value, load_json_object,
                      load_model_catalog)
from .core import (Context, Record, RecordSnapshot, VectorIndex, context_create,
                   load_json, make_source_record, record_from_json, require_unicode,
                   write_artifacts)
from .errors import ConfigurationError, DataAccessError, SemaqError, StoreError
from .lang import parse_pipeline, validate_plan
from .optimizer import MinCost, Policy, optimize, parse_policy
from .engine import RunPolicy, pipeline_execute, render_report
from .store import DEFAULT_TAU, ContextStore, clear_store

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
    pool_width: int = RunPolicy.pool_width
    sample_size: int = 0
    run_dir: str = "runs"
    cache_dir: str = ".semaq-cache"
    tau: float = DEFAULT_TAU
    agent_model: str | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    budget: float | None = None
    build_index: bool = True

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        doc = load_json_object(path, "config")
        where = f"config {path}"
        cfg = cls()
        backend_doc = json_value(doc, "backend", dict, where, {})
        cfg.mock_script = json_value(backend_doc, "mock_script", str, where, None)
        cfg.base_url = json_value(backend_doc, "base_url", str, where, None)
        cfg.catalog_path = (json_value(backend_doc, "catalog", str, where, None)
                            or json_value(doc, "catalog", str, where, None))
        cfg.datasets = json_value(doc, "datasets", dict, where, {})
        cfg.policy = parse_policy(json_value(doc, "policy", dict, where, cfg.policy))
        for key, kind in (("pool_width", int), ("sample_size", int), ("run_dir", str),
                          ("cache_dir", str), ("tau", float), ("agent_model", str),
                          ("max_steps", int), ("budget", float)):
            setattr(cfg, key, json_value(doc, key, kind, where, getattr(cfg, key)))
        cfg.build_index = json_value(doc, "index", bool, where, cfg.build_index)
        # a path the operating system cannot take fails here, not where it is opened
        for key, attr in (("backend.mock_script", "mock_script"),
                          ("catalog", "catalog_path"), ("cache_dir", "cache_dir"),
                          ("run_dir", "run_dir")):
            path = getattr(cfg, attr) or ""
            if "\0" in path:
                raise ConfigurationError(f"{where}: {key} holds a NUL character")
            require_unicode(path, f"{where}: {key}", ConfigurationError)
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
        # writes U+2028, U+2029 and U+0085 raw.  An undecodable byte becomes
        # a lone surrogate, which only strict encoding rejects, so the error
        # keeps its line number
        with open(file, encoding="utf-8", errors="surrogateescape") as rows:
            for lineno, line in enumerate(rows, start=1):
                if not line.strip():
                    continue
                origin = f"{file.name}#{lineno}"
                try:
                    line.encode("utf-8")
                    records.append(record_from_json(line, origin=origin))
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00  # the escaped byte
                    raise DataAccessError(f"{path}:{lineno}: bad record: "
                                          f"byte 0x{byte:02x} is not UTF-8") from None
                except SemaqError as exc:
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
    where = f"dataset {name!r}"
    kind = json_value(spec, "kind", str, where, "dir")
    path = json_value(spec, "path", str, where)
    if kind == "dir":
        records = load_dataset_dir(path)
    elif kind == "jsonl":
        records = load_dataset_jsonl(path)
    else:
        raise ConfigurationError(f"dataset {name!r} has unknown kind {kind!r}")
    snapshot = RecordSnapshot(records)
    index = (VectorIndex.build(snapshot, backend.embed) if cfg.build_index else None)
    description = (f"Dataset {name!r}: {len(records)} records loaded from "
                   f"{path} ({kind}).")
    return context_create(snapshot, description, index=index)


# --- one session and its run directory ---------------------------------------------

def _session(args) -> tuple[RunConfig, Context, AgentRuntime]:
    """The config, dataset context and agent runtime of a ``run`` or a
    ``pipeline``: one run policy and backend; ``_run_record`` opens the store."""
    cfg = _load_config(args)
    run_policy = RunPolicy(pool_width=cfg.pool_width)
    backend = build_backend(cfg)
    ctx = load_dataset(cfg, args.dataset, backend)
    sample = getattr(args, "sample", None)  # only ``pipeline`` takes --sample
    return cfg, ctx, AgentRuntime(
        backend, models=list(backend.catalog.values()), policy=cfg.policy,
        sample_size=cfg.sample_size if sample is None else sample,
        run_policy=run_policy, refs={args.dataset: ctx})


@contextmanager
def _run_record(run_dir, runtime: AgentRuntime, cache_dir: str):
    """Open the runtime's context store and yield a dict the command fills
    with its own files once its run returns; then write them, the ledger and
    each pipeline's reports into ``run_dir`` (if not ``None``) in place of an
    earlier run's.  A run that fails with a :class:`SemaqError` writes the
    trace its error carries in their place, and a write error only warns."""

    def write(files: dict[str, str]) -> None:
        if run_dir is not None:
            # the ledger says whether its seconds are modeled or measured
            ledger = {**runtime.backend.ledger.snapshot().to_dict(),
                      "seconds": runtime.backend.ledger_seconds}
            texts = {"ledger.json": json.dumps(ledger, ensure_ascii=False, indent=2)}
            for i, (opt_report, report) in enumerate(runtime.pipeline_reports):
                texts[f"optimizer-{i:03d}.json"] = opt_report.to_json()
                texts[f"report-{i:03d}.json"] = report.to_json()
            write_artifacts(run_dir, {**texts, **files}, stale=[p for p, _ in _ARTIFACTS])

    files: dict[str, str] = {}
    try:
        runtime.store = ContextStore(cache_dir, runtime.backend.embed)
        yield files
    except SemaqError as exc:
        trace = getattr(exc, "trace", None)
        try:
            write({} if trace is None else {"trace.json": trace.to_json()})
        except DataAccessError as write_error:
            logger.warning("%s", write_error)
        raise
    write(files)
    if run_dir is not None:
        print(f"artifacts: {run_dir}", file=sys.stderr)


def _fresh_run_dir(base: str) -> Path:
    """Make ``<base>/<stamp>``, or the first ``<stamp>-<n>`` no run has made."""
    stamp, n = time.strftime("%Y%m%d-%H%M%S"), 0
    while True:
        candidate = Path(base) / (f"{stamp}-{n}" if n else stamp)
        try:
            candidate.mkdir(parents=True)
            return candidate
        except FileExistsError:
            n += 1
        except OSError as exc:
            raise DataAccessError(f"cannot make run directory {candidate}: {exc}") from exc


# --- subcommands -----------------------------------------------------------------

def cmd_run(args) -> int:
    # an instruction the agent would reject fails the run before it starts,
    # so it leaves no run directory
    check_instruction(args.instruction)
    cfg, ctx, runtime = _session(args)
    budget = args.budget if args.budget is not None else cfg.budget
    config = AgentConfig(model=agent_model_spec(cfg, runtime.backend.catalog),
                         max_steps=cfg.max_steps, cost_budget=budget)
    run_dir = Path(args.run_dir) if args.run_dir else _fresh_run_dir(cfg.run_dir)
    with _run_record(run_dir, runtime, cfg.cache_dir) as files:
        runtime.store.register(ctx, instruction=f"dataset {args.dataset}")
        if args.use_cache:
            matches = runtime.store.retrieve(args.instruction, tau=cfg.tau)
            before = ctx.id
            ctx = runtime.refs[args.dataset] = runtime.store.augment(ctx, matches)
            if ctx.id != before:
                print(f"augmented context with {len(matches)} cached finding(s)",
                      file=sys.stderr)
        result = runtime.compute(ctx, args.instruction, config)
        print(result.answer_text)
        if result.answer_value is not None:
            print(f"value: {result.answer_value}")
        files.update({"trace.json": result.trace.to_json(),
                      "answer.txt": result.answer_text})
    return 0


def cmd_pipeline(args) -> int:
    cfg, ctx, runtime = _session(args)
    try:
        text = Path(args.pipeline_file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataAccessError(f"cannot read pipeline file: {exc}") from exc
    plan = parse_pipeline(text)
    diagnostics = validate_plan(plan, ctx, known_refs={args.dataset, "ctx"})
    if diagnostics:
        for diag in diagnostics:
            print(f"diagnostic: {diag.code}: {diag.message}", file=sys.stderr)
        raise ConfigurationError(f"pipeline failed validation with "
                                 f"{len(diagnostics)} diagnostic(s)")

    def choose():
        return optimize(plan, ctx, runtime.models, runtime.policy, runtime.sample_size,
                        runtime.backend, run_policy=runtime.run_policy)

    if args.explain:  # opens no store and writes nothing
        print(choose()[1].render_text())
        return 0
    with _run_record(args.run_dir, runtime, cfg.cache_dir) as files:
        chosen, opt_report = choose()
        out_ctx, report = pipeline_execute(
            chosen, ctx, runtime.backend, policy=runtime.run_policy,
            agent_runner=make_stage_runner(runtime, max_steps=cfg.max_steps,
                                           cost_budget=cfg.budget), store=runtime.store)
        runtime.store.register(out_ctx, instruction=text.strip())
        print(report.render_text())
        files.update({"report.json": report.to_json(),
                      "optimizer.json": opt_report.to_json()})
    return 0


# a ledger's "seconds" -> the label of its seconds column and of their total
_SECONDS_LABELS = {"modeled": ("model_s", "modeled "), "measured": ("wall_s", "wall ")}


def _ledger_lines(doc) -> list[str]:
    column, total = _SECONDS_LABELS.get(doc.get("seconds"), ("s", ""))
    lines = [f"{'model':<16} {'calls':>7} {'in_tok':>9} {'out_tok':>9} "
             f"{'cost':>12} {column:>9}"]
    for row in doc.get("models", []):
        lines.append(f"{row['model_id']:<16} {row['calls']:>7} "
                     f"{row['input_tokens']:>9} {row['output_tokens']:>9} "
                     f"{row['cost']:>12.6f} {row['wall_seconds']:>9.2f}")
    lines.append(f"total: {doc['total_calls']} calls, cost {doc['total_cost']:.6f}, "
                 f"{total}{doc['total_wall_seconds']:.2f}s")
    return lines


def _trace_lines(doc) -> list[str]:
    return [f"trace: {len(doc['steps'])} step(s), outcome {doc['outcome']}, "
            f"agent cost {doc['usage']['cost']:.6f}"]


def _optimizer_lines(doc, name: str) -> list[str]:
    return [f"{name}: chose {doc['chosen_plan_id']} under {doc['policy']}, "
            f"{len(doc['candidates'])} frontier plan(s) of {doc['plans_considered']} "
            f"model assignments, sample {doc['sample_size']}, "
            f"{doc['sample_calls']} sampling call(s)"]


# a run's files by name pattern, as ``stats`` renders them (None: it does not)
_ARTIFACTS = (("ledger.json", lambda doc, name: _ledger_lines(doc)),
              ("trace.json", lambda doc, name: _trace_lines(doc)),
              ("report*.json", lambda doc, name: [f"{name}: {render_report(doc)}"]),
              ("optimizer*.json", _optimizer_lines), ("answer.txt", None))


def _artifact_lines(path: Path, render) -> list[str]:
    """``render(doc, name)`` for the JSON run artifact at ``path``; a file that
    cannot be read, parsed or rendered, or that renders text UTF-8 cannot
    encode (a JSON escape of a lone surrogate), is a data error naming it."""
    where = f"malformed run artifact {path}"
    try:
        lines = render(load_json(path.read_bytes(), where, error=DataAccessError), path.name)
        "\n".join(lines).encode("utf-8")  # a UnicodeEncodeError is a ValueError
        return lines
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            OverflowError) as exc:  # an integer past float range, for one
        raise DataAccessError(f"{where}: {type(exc).__name__}: {exc}") from exc


def cmd_stats(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise DataAccessError(f"run directory not found: {run_dir}")
    lines = [] if (run_dir / "ledger.json").exists() else [
        "no ledger.json in run directory"]
    for pattern, render in _ARTIFACTS:
        if render is not None:
            for path in sorted(run_dir.glob(pattern)):
                lines += _artifact_lines(path, render)
    print("\n".join(lines))
    return 0


def cmd_cache(args) -> int:
    cfg = _load_config(args)
    try:
        store = ContextStore(cfg.cache_dir, hashing_embed)
    except StoreError as exc:
        if args.cache_cmd != "clear":
            raise
        clear_store(cfg.cache_dir)  # clearing is how a corrupt store is dropped
        print(f"dropped the contexts and answer log of a corrupt store ({exc})")
        return 0
    if args.cache_cmd == "list":
        if not len(store):
            print("cache is empty")
        for entry in store.entries:
            head = entry.description.replace("\n", " ")[:70]
            print(f"{entry.seq:>4} {entry.context_id} [{entry.lineage_summary}] {head}")
        # on stderr, so stdout stays one line per context
        print(f"{store.read_answers()} logged answer(s)", file=sys.stderr)
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
    try:
        answers = f"{store.read_answers()} logged answer(s)"
    except StoreError:  # clearing is how a corrupt log is dropped
        answers = "a corrupt answer log"
    count = len(store)
    store.clear()
    print(f"cleared {count} cached context(s)")
    print(f"dropped {answers}")
    return 0


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
                             "against a blocking backend (k semantic operators: "
                             "up to k x this many); the in-process mock runs "
                             "its calls inline")
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
