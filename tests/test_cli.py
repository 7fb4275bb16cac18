"""CLI: config loading, dataset loaders, subcommands, exit codes."""

import importlib
import json
import pkgutil
import sys

import pytest

import semaq
from semaq import (ConfigurationError, DataAccessError, MinCost, MockBackend,
                   make_source_record)
from semaq.cli import (DEFAULT_CATALOG, EXIT_CODES, RunConfig,
                       agent_model_spec, build_backend, load_dataset,
                       load_dataset_dir, load_dataset_jsonl, main)
from semaq.core import record_to_json
from semaq.errors import AgentError, SemaqError


def _fenced(doc):
    return "```json\n" + json.dumps(doc) + "\n```"


PIPELINE = 'scan(docs) | sem_filter("about regulatory paperwork")'

_RUN_SCRIPT = {
    "rules": [
        {"match": "AVAILABLE TOOLS",
         "response": _fenced({"thought": "scan first", "tool": "run_pipeline",
                              "args": {"pipeline": PIPELINE}}),
         "max_calls": 1},
        {"match": "AVAILABLE TOOLS",
         "response": _fenced({"thought": "one matched",
                              "final_answer": {"text": "one filing memo",
                                               "value": 1}}),
         "max_calls": 1},
        {"match": "filings", "response": "yes"},
        {"match": "PREDICATE", "response": "no"},
    ]
}


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "a.txt").write_text("memo about staffing", encoding="utf-8")
    (data / "b.txt").write_text("memo about filings and audits", encoding="utf-8")
    (data / "c.txt").write_text("memo about the picnic", encoding="utf-8")
    (data / "d.txt").write_text("memo about parking", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(_RUN_SCRIPT), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": {"mock_script": str(script)},
        "datasets": {"docs": {"kind": "dir", "path": str(data)}},
        "cache_dir": str(tmp_path / "cache"),
        "run_dir": str(tmp_path / "runs"),
    }), encoding="utf-8")
    return tmp_path


# --- dataset loaders ----------------------------------------------------------------

def test_load_dataset_dir_sorted_with_nesting(tmp_path):
    base = tmp_path / "ds"
    (base / "sub").mkdir(parents=True)
    (base / "b.txt").write_text("bee", encoding="utf-8")
    (base / "a.txt").write_text("ay", encoding="utf-8")
    (base / "sub" / "c.txt").write_text("sea", encoding="utf-8")
    records = load_dataset_dir(base)
    assert [r.fields["path"] for r in records] == ["a.txt", "b.txt", "sub/c.txt"]
    assert records[0].fields["text"] == "ay"
    with pytest.raises(DataAccessError):
        load_dataset_dir(tmp_path / "missing")


def test_load_dataset_jsonl(tmp_path):
    file = tmp_path / "rows.jsonl"
    file.write_text('{"text": "first row"}\n\n{"text": "second row"}\n',
                    encoding="utf-8")
    records = load_dataset_jsonl(file)
    assert [r.fields["text"] for r in records] == ["first row", "second row"]
    assert len({r.id for r in records}) == 2
    file.write_text('{"text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataAccessError, match=":2:"):
        load_dataset_jsonl(file)
    file.write_text('{"text": "ok"}\n'
                    '{"fields": {"text": "x"}, "lineage": {"parents": ["r1"]}}\n',
                    encoding="utf-8")
    with pytest.raises(DataAccessError, match=":2:.*lineage"):
        load_dataset_jsonl(file)
    with pytest.raises(DataAccessError):
        load_dataset_jsonl(tmp_path / "missing.jsonl")
    # line separators that str.splitlines() splits on but JSONL does not
    texts = ["para\u2028graph", "page\u2029break", "next\u0085line"]
    file.write_text("".join(record_to_json(make_source_record({"text": t}, f"{i}#0"))
                            + "\n" for i, t in enumerate(texts)), encoding="utf-8")
    records = load_dataset_jsonl(file)
    assert [r.fields["text"] for r in records] == texts
    file.write_text(file.read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
    with pytest.raises(DataAccessError, match=":4:"):
        load_dataset_jsonl(file)
    # a Latin-1 byte far past the first read chunk still names its own line
    file.write_bytes(b'{"text": "plain row"}\n' * 600 + b'{"text": "caf\xe9"}\n')
    with pytest.raises(DataAccessError, match=r":601: bad record: byte 0xe9 is not UTF-8"):
        load_dataset_jsonl(file)


def test_load_dataset_jsonl_text_that_is_not_unicode(tmp_path):
    file = tmp_path / "rows.jsonl"
    file.write_text('{"text": "ok"}\n{"text": "\\udc80 hi"}\n', encoding="utf-8")
    with pytest.raises(DataAccessError,
                       match=r":2: bad record: field value is not valid Unicode"):
        load_dataset_jsonl(file)


@pytest.mark.parametrize("row", [
    {"id": 5, "fields": {"text": "hello"}},
    {"id": ["x"], "fields": {"text": "hello"}},
    {"id": "r1", "fields": {"text": "hello"},
     "lineage": {"parents": [1], "operator": "sem_map"}},
])
def test_cli_pipeline_reports_a_record_id_that_is_not_a_string(workspace, capsys, row):
    (workspace / "rows.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
    _edit_json(workspace / "config.json", lambda doc: doc["datasets"].update(
        docs={"kind": "jsonl", "path": str(workspace / "rows.jsonl")}))
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: data-error: ") and "rows.jsonl:1: bad record: " in err


@pytest.mark.parametrize("row, message", [
    ({"id": "", "fields": {"text": "hello"}}, "record id must not be empty"),
    ({"id": "r1", "fields": {"text": "hello"}, "lineage": []},
     "record lineage must be {parents: list of str, operator: str}"),
])
def test_cli_pipeline_reports_an_empty_record_id_or_a_lineage_that_is_not_one(
        workspace, capsys, row, message):
    (workspace / "rows.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
    _edit_json(workspace / "config.json", lambda doc: doc["datasets"].update(
        docs={"kind": "jsonl", "path": str(workspace / "rows.jsonl")}))
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: data-error: ")
    assert f"rows.jsonl:1: bad record: {message}" in err


def test_load_dataset_builds_context(tmp_path, mk_backend):
    base = tmp_path / "ds"
    base.mkdir()
    (base / "only.txt").write_text("solo", encoding="utf-8")
    cfg = RunConfig(datasets={"docs": {"kind": "dir", "path": str(base)}})
    ctx = load_dataset(cfg, "docs", mk_backend())
    assert ctx.description == f"Dataset 'docs': 1 records loaded from {base} (dir)."
    assert ctx.index is not None
    cfg.build_index = False
    assert load_dataset(cfg, "docs", mk_backend()).index is None
    with pytest.raises(ConfigurationError, match="ghost"):
        load_dataset(cfg, "ghost", mk_backend())
    cfg.datasets["docs"]["kind"] = "parquet"
    with pytest.raises(ConfigurationError, match="parquet"):
        load_dataset(cfg, "docs", mk_backend())


# --- config -----------------------------------------------------------------------

def test_run_config_reads_a_null_key_as_its_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"policy": None, "pool_width": None, "tau": None}),
                    encoding="utf-8")
    cfg = RunConfig.from_file(path)
    assert (cfg.policy, cfg.pool_width, cfg.tau) == (MinCost(quality_floor=0.8), 8, 0.75)


def test_run_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "backend": {"mock_script": "rules.json", "catalog": "models.json"},
        "datasets": {"d": {"kind": "jsonl", "path": "rows.jsonl"}},
        "policy": {"kind": "min_cost", "quality_floor": 0.9},
        "pool_width": 3,
        "sample_size": 4,
        "tau": 0.5,
        "agent_model": "mock-small",
        "max_steps": 7,
        "budget": 1.25,
        "index": False,
    }), encoding="utf-8")
    cfg = RunConfig.from_file(path)
    assert cfg.mock_script == "rules.json"
    assert cfg.catalog_path == "models.json"
    assert cfg.policy == MinCost(quality_floor=0.9)
    assert cfg.pool_width == 3 and cfg.sample_size == 4
    assert cfg.tau == 0.5 and cfg.agent_model == "mock-small"
    assert cfg.max_steps == 7 and cfg.budget == 1.25
    assert cfg.build_index is False

    defaults = RunConfig()
    assert defaults.policy == MinCost(quality_floor=0.8)
    assert defaults.budget is None and defaults.build_index is True

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        RunConfig.from_file(bad)


def test_build_backend_requires_exactly_one(tmp_path):
    script = tmp_path / "s.json"
    script.write_text('{"rules": []}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not both"):
        build_backend(RunConfig(mock_script=str(script), base_url="http://x"))
    with pytest.raises(ConfigurationError, match="no backend"):
        build_backend(RunConfig())
    backend = build_backend(RunConfig(mock_script=str(script)))
    assert isinstance(backend, MockBackend)
    assert set(backend.catalog) == {"mock-large", "mock-small"}


def test_build_backend_honors_catalog_file(tmp_path):
    script = tmp_path / "s.json"
    script.write_text('{"rules": []}', encoding="utf-8")
    catalog = tmp_path / "models.json"
    catalog.write_text(json.dumps({"models": [
        {"id": "solo", "input_cost_per_1k": 0.001, "output_cost_per_1k": 0.002,
         "quality_prior": 0.9, "latency_prior": 0.3},
    ]}), encoding="utf-8")
    backend = build_backend(RunConfig(mock_script=str(script),
                                      catalog_path=str(catalog)))
    assert list(backend.catalog) == ["solo"]


def test_agent_model_spec_selection():
    cfg = RunConfig()
    assert agent_model_spec(cfg, DEFAULT_CATALOG).model_id == "mock-large"
    cfg.agent_model = "mock-small"
    assert agent_model_spec(cfg, DEFAULT_CATALOG).model_id == "mock-small"
    cfg.agent_model = "mock-huge"
    with pytest.raises(ConfigurationError, match="mock-huge"):
        agent_model_spec(cfg, DEFAULT_CATALOG)


# --- run --------------------------------------------------------------------------

def test_cli_run_end_to_end(workspace, capsys):
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count the filing memos", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.splitlines()[0] == "one filing memo"
    assert "value: 1" in out.out
    assert f"artifacts: {run_dir}" in out.err
    for name in ("ledger.json", "trace.json", "answer.txt",
                 "optimizer-000.json", "report-000.json"):
        assert (run_dir / name).exists(), name
    trace = json.loads((run_dir / "trace.json").read_text())
    assert trace["outcome"] == "answered"
    assert trace["steps"][0]["action"]["tool"] == "run_pipeline"
    report = json.loads((run_dir / "report-000.json").read_text())
    assert report["records_in"] == 4 and report["records_out"] == 1
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert ledger["total_calls"] == report["total_calls"] + trace["usage"]["calls"]
    assert (run_dir / "answer.txt").read_text() == "one filing memo\n"


def test_cli_run_uses_cached_findings(workspace, capsys):
    config = json.loads((workspace / "config.json").read_text())
    config["tau"] = 0.0  # everything cached counts as related
    cfg_path = workspace / "config2.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(cfg_path), "run", "docs", "count filings",
                 "--run-dir", str(workspace / "r1")]) == 0
    capsys.readouterr()
    code = main(["--config", str(cfg_path), "run", "docs", "count filings",
                 "--use-cache", "--run-dir", str(workspace / "r2")])
    out = capsys.readouterr()
    assert code == 0
    assert "augmented context with" in out.err
    trace = json.loads((workspace / "r2" / "trace.json").read_text())
    assert trace["outcome"] == "answered"


def test_cli_run_budget_exit_code(workspace, capsys):
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count them", "--budget", "0.0",
                 "--run-dir", str(workspace / "out")])
    out = capsys.readouterr()
    assert code == 4
    assert out.err.startswith("error: budget-exceeded:")


def test_every_error_category_has_a_documented_exit_code():
    """``main`` maps an error's category through ``EXIT_CODES`` and falls back
    to an undocumented exit 1; every category a ``SemaqError`` subclass
    declares, and a budget abort's, must have its own entry."""
    for module in pkgutil.iter_modules(semaq.__path__):
        importlib.import_module(f"semaq.{module.name}")
    classes, pending = set(), [SemaqError]
    while pending:
        cls = pending.pop()
        classes.add(cls)
        pending.extend(cls.__subclasses__())
    categories = {cls.category for cls in classes}
    categories.add(AgentError("over", reason="budget").category)
    assert "budget-exceeded" in categories
    assert sorted(categories - set(EXIT_CODES)) == []


def test_cli_run_nan_budget_is_rejected(workspace, capsys):
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count them", "--budget", "nan",
                 "--run-dir", str(workspace / "out")])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: validation-error: cost_budget")


def test_cli_run_instruction_that_is_not_unicode(workspace, capsys):
    """An undecodable argv byte arrives as a lone surrogate."""
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "q\udcff", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: validation-error: instruction is not valid Unicode")
    assert not run_dir.exists()


@pytest.mark.parametrize("use_cache", [False, True])
def test_cli_run_undecodable_instruction_is_a_validation_error_with_and_without_cache(
        workspace, capsys, use_cache):
    """With --use-cache the instruction is embedded to search the store
    before the agent sees it; that embed rejects it as invalid too."""
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "run",
                 *(["--use-cache"] if use_cache else []), "docs", "\udcff",
                 "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: validation-error: ")
    assert "is not valid Unicode" in out.err
    assert not run_dir.exists()


def test_cli_run_unknown_dataset(workspace, capsys):
    code = main(["--config", str(workspace / "config.json"), "run", "ghost",
                 "anything"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: config-error: unknown dataset 'ghost'")


def test_cli_internal_error_guard(workspace, capsys, monkeypatch):
    import semaq.cli as cli_mod
    monkeypatch.setattr(cli_mod, "build_backend",
                        lambda cfg: (_ for _ in ()).throw(RuntimeError("boom")))
    code = main(["--config", str(workspace / "config.json"), "run", "docs", "x"])
    out = capsys.readouterr()
    assert code == 10
    assert out.err.splitlines()[-1] == "error: internal-error: boom"


# --- pipeline ----------------------------------------------------------------------

def test_cli_pipeline_explain_makes_no_calls(workspace, capsys):
    # an empty-rule script cannot answer any chat: reaching exit 0 proves
    # the explain path never called a model
    script = workspace / "empty.json"
    script.write_text('{"rules": []}', encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "--mock-script", str(script),
                 "pipeline", str(pipe), "--dataset", "docs", "--explain"])
    out = capsys.readouterr()
    assert code == 0
    assert "min-cost" in out.out and "(sample=0, N=4)" in out.out
    assert out.out.count("pp-") >= 2  # one row per candidate plan
    assert "chosen: pp-" in out.out


def test_cli_pipeline_execute_with_artifacts(workspace, capsys):
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    run_dir = workspace / "pipe-out"
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs",
                 "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 0
    assert "sem_filter" in out.out
    assert "total: 4 calls" in out.out
    assert "4 -> 1 records" in out.out
    report = json.loads((run_dir / "report.json").read_text())
    opt = json.loads((run_dir / "optimizer.json").read_text())
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert report["plan_id"] == opt["chosen_plan_id"]
    assert report["total_calls"] == 4
    assert ledger["total_calls"] == 4
    assert abs(ledger["total_cost"] - report["total_cost"]) < 1e-9


def test_cli_stats_labels_the_mock_ledgers_seconds_modeled(workspace, capsys):
    """The mock's ledger seconds are calls x latency_prior: ``ledger.json``
    says so, and ``stats`` labels them modeled, never wall time."""
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    run_dir = workspace / "pipe-out"
    assert main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs", "--run-dir", str(run_dir)]) == 0
    assert json.loads((run_dir / "ledger.json").read_text())["seconds"] == "modeled"
    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    stats = capsys.readouterr().out
    assert "model_s" in stats and "modeled" in stats
    assert "wall" not in stats


@pytest.mark.parametrize("seconds, column, total", [
    ("modeled", "model_s", "modeled 0.50s"), ("measured", "wall_s", "wall 0.50s"),
    (None, " s", ", 0.50s")], ids=["modeled", "measured", "unlabelled"])
def test_cli_stats_labels_ledger_seconds_by_how_they_were_counted(tmp_path, capsys,
                                                                  seconds, column, total):
    doc = {"models": [{"model_id": "m", "calls": 1, "input_tokens": 1,
                       "output_tokens": 1, "cost": 0.1, "wall_seconds": 0.5}],
           "total_calls": 1, "total_cost": 0.1, "total_wall_seconds": 0.5}
    if seconds is not None:
        doc["seconds"] = seconds
    (tmp_path / "ledger.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["stats", str(tmp_path)]) == 0
    header, _, last = capsys.readouterr().out.splitlines()
    assert header.endswith(column) and last.endswith(total)


def test_cli_pipeline_reuses_sampled_answers_and_reports_them(workspace, capsys):
    """With --sample 2 the run answers the 2 sampled records from the
    sample; sampling calls plus run calls equal the ledger's calls."""
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    config = str(workspace / "config.json")
    code = main(["--config", config, "pipeline", str(pipe), "--dataset", "docs",
                 "--sample", "2", "--explain"])
    assert code == 0
    assert "sampling made 4 model call(s)" in capsys.readouterr().out
    run_dir = workspace / "pipe-out"
    code = main(["--config", config, "pipeline", str(pipe), "--dataset", "docs",
                 "--sample", "2", "--run-dir", str(run_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "total: 2 calls, 2 reused" in out and "4 -> 1 records" in out
    report = json.loads((run_dir / "report.json").read_text())
    opt = json.loads((run_dir / "optimizer.json").read_text())
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert report["ops"][1]["reused"] == report["total_reused"] == 2
    assert "reused" not in report["ops"][0]  # only per-record operators reuse
    assert opt["sample_calls"] == 4 and report["total_calls"] == 2
    assert ledger["total_calls"] == opt["sample_calls"] + report["total_calls"]
    assert main(["stats", str(run_dir)]) == 0
    assert "report.json: plan pp-" in (stats := capsys.readouterr().out)
    assert "2 calls, 2 reused" in stats


def test_cli_run_action_parse_on_a_reply_utf8_cannot_encode(workspace, capsys):
    """A reply holding a lone surrogate ends in action-parse, the documented
    compute-error exit, and the trace it leaves encodes."""
    script = workspace / "bad.json"
    script.write_text(json.dumps({"rules": [
        {"match": "AVAILABLE TOOLS", "response": "no action \udc80 here"}]}),
        encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "run", "docs", "count", "--run-dir",
                 str(workspace / "out")])
    err = capsys.readouterr().err
    assert code == 6
    assert err.startswith("error: compute-error: compute did not reach an answer "
                          "(aborted: action-parse)")


@pytest.mark.parametrize("width", ["0", "-1"])
def test_cli_pipeline_rejects_pool_width_below_one(workspace, capsys, width):
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "--pool-width", width,
                 "pipeline", str(pipe), "--dataset", "docs"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: validation-error: pool_width must be >= 1")


def test_cli_pipeline_rejects_negative_sample(workspace, capsys):
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs", "--sample", "-2",
                 "--explain"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: validation-error: sample_size must be >= 0")


def _edit_json(path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _use_catalog(ws, row):
    catalog = ws / "models.json"
    catalog.write_text(json.dumps({"models": [row]}), encoding="utf-8")
    _edit_json(ws / "config.json", lambda doc: doc["backend"].update(catalog=str(catalog)))
    return catalog


_MODEL_ROW = {"id": "solo", "input_cost_per_1k": 0.001, "output_cost_per_1k": 0.002,
              "quality_prior": 0.9, "latency_prior": 0.3}

_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's depth
_NINES = "9" * 5_000  # past the interpreter's 4,300-digit limit for int()

# case: (break one input file, expected category, fragments of the error line)
_BAD_JSON_INPUTS = {
    "config-top-level-list": (
        lambda ws: (ws / "config.json").write_text("[1]"),
        "config-error", ["config.json", "not a JSON object"]),
    "config-not-utf8": (
        lambda ws: (ws / "config.json").write_bytes(b'{"tau": "\xe9"}'),
        "config-error", ["config.json", "decode"]),
    "script-top-level-list": (
        lambda ws: (ws / "script.json").write_text("[1]"),
        "config-error", ["script.json", "not a JSON object"]),
    "catalog-top-level-list": (
        lambda ws: _use_catalog(ws, _MODEL_ROW).write_text("[1]"),
        "config-error", ["models.json", "not a JSON object"]),
    "rule-without-match": (
        lambda ws: (ws / "script.json").write_text(
            json.dumps({"rules": [{"response": "yes"}]})),
        "config-error", ["script.json", "rule 0", "'match'"]),
    "catalog-cost-not-a-number": (
        lambda ws: _use_catalog(ws, {**_MODEL_ROW, "input_cost_per_1k": "cheap"}),
        "config-error", ["models.json", "models[0]", "'input_cost_per_1k'"]),
    "catalog-cost-nan": (
        lambda ws: _use_catalog(ws, {**_MODEL_ROW, "input_cost_per_1k": float("nan")}),
        "config-error", ["models.json", "models[0]", "'input_cost_per_1k'", "finite"]),
    "catalog-id-lone-surrogate": (  # hashed into a plan id, written to the ledger
        lambda ws: _use_catalog(ws, {**_MODEL_ROW, "id": "so\ud800lo"}),
        "config-error", ["models.json", "models[0]: id is not valid Unicode"]),
    "catalog-latency-infinity": (
        lambda ws: _use_catalog(ws, {**_MODEL_ROW, "latency_prior": float("inf")}),
        "config-error", ["models.json", "models[0]", "'latency_prior'", "finite"]),
    "dataset-without-path": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc["datasets"]["docs"].pop("path")),
        "config-error", ["'docs'", "'path'"]),
    "pool-width-not-a-number": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc.update(pool_width="eight")),
        "config-error", ["config.json", "'pool_width'"]),
    "index-a-string": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc.update(index="false")),
        "config-error", ["config.json", "'index'", "expected a boolean"]),
    "pool-width-a-fraction": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc.update(pool_width=2.7)),
        "config-error", ["config.json", "'pool_width'", "expected an integer"]),
    "max-steps-a-bool": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc.update(max_steps=True)),
        "config-error", ["config.json", "'max_steps'", "expected an integer"]),
    "tau-a-bool": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc.update(tau=False)),
        "config-error", ["config.json", "'tau'", "expected a number"]),
    "datasets-a-list": (
        lambda ws: _edit_json(ws / "config.json",
                              lambda doc: doc.update(datasets=["docs"])),
        "config-error", ["config.json", "'datasets'", "expected an object"]),
    "config-nested-too-deep": (
        lambda ws: (ws / "config.json").write_text('{"a": ' + _DEEP + "}"),
        "config-error", ["cannot load config", "config.json: RecursionError"]),
    "config-pool-width-of-5000-digits": (
        lambda ws: (ws / "config.json").write_text('{"pool_width": ' + _NINES + "}"),
        "config-error", ["cannot load config", "config.json: ValueError"]),
    "script-nested-too-deep": (
        lambda ws: (ws / "script.json").write_text('{"rules": ' + _DEEP + "}"),
        "config-error", ["cannot load mock script", "script.json: RecursionError"]),
    "policy-floor-not-a-number": (
        lambda ws: _edit_json(ws / "config.json", lambda doc: doc.update(
            policy={"kind": "min_cost", "quality_floor": "high"})),
        "validation-error", ["policy", "high"]),
}


@pytest.mark.parametrize("case", sorted(_BAD_JSON_INPUTS))
def test_cli_bad_json_inputs_exit_with_their_category(workspace, capsys, case):
    breaks, category, fragments = _BAD_JSON_INPUTS[case]
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    breaks(workspace)
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {category}:")
    assert all(fragment in err for fragment in fragments), err


@pytest.mark.parametrize("line, exc", [
    ('{"text": ' + _DEEP + "}", "RecursionError"),
    ('{"n": ' + _NINES + "}", "ValueError"),
], ids=["nested-too-deep", "integer-of-5000-digits"])
def test_cli_dataset_line_the_json_parser_rejects_is_a_data_error(
        workspace, capsys, line, exc):
    (workspace / "rows.jsonl").write_text(line + "\n", encoding="utf-8")
    _edit_json(workspace / "config.json", lambda doc: doc["datasets"].update(
        docs={"kind": "jsonl", "path": str(workspace / "rows.jsonl")}))
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: data-error: ")
    assert f"rows.jsonl:1: bad record: record line: {exc}" in err, err[:300]


def test_cli_pipeline_file_not_utf8(workspace, capsys):
    pipe = workspace / "latin1.pz"
    pipe.write_bytes(b'scan(docs) | sem_filter("caf\xe9")\n')
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: data-error: cannot read pipeline file:")


def test_cli_pipeline_validation_diagnostics(workspace, capsys):
    pipe = workspace / "bad.pz"
    pipe.write_text("scan(docs) | project(bogus)\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    out = capsys.readouterr()
    assert code == 2
    assert "diagnostic:" in out.err and "bogus" in out.err
    assert "error: config-error:" in out.err


def test_cli_pipeline_parse_error(workspace, capsys):
    pipe = workspace / "broken.pz"
    pipe.write_text("scan(docs | \n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    out = capsys.readouterr()
    assert code == 3
    assert out.err.startswith("error: parse-error:")
    assert "line 1" in out.err


def test_cli_pipeline_missing_file(workspace, capsys):
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(workspace / "nope.pz"), "--dataset", "docs"])
    out = capsys.readouterr()
    assert code == 5
    assert out.err.startswith("error: data-error:")


# --- stats and cache ----------------------------------------------------------------

def test_cli_stats_renders_run(workspace, capsys):
    run_dir = workspace / "out"
    main(["--config", str(workspace / "config.json"), "run", "docs",
          "count the filing memos", "--run-dir", str(run_dir)])
    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "model" in out and "mock-large" in out and "mock-small" in out
    assert "total:" in out
    assert "trace: 2 step(s), outcome answered" in out
    assert "report-000.json: plan pp-" in out
    capsys.readouterr()
    assert main(["stats", str(workspace / "missing")]) == 5


@pytest.mark.parametrize("name, body", [
    ("ledger.json", b'{"models": [{"model_id": "m", "calls'),
    ("ledger.json", b'{"models": []}'),
    ("ledger.json", b'{"total_calls": "\xe9"}'),
    ("trace.json", b'{"steps": 3, "outcome": "answered"}'),
    ("report-000.json", b"[1, 2]"),
    # a JSON escape of a lone surrogate fails where it is read, not in print
    ("ledger.json", b'{"models": [{"model_id": "m", "calls": "\\ud800", "input_tokens": 1, '
                    b'"output_tokens": 1, "cost": 0.1, "wall_seconds": 0.5}], '
                    b'"total_calls": 1, "total_cost": 0.1, "total_wall_seconds": 0.5}'),
    ("trace.json", b'{"steps": [], "outcome": "\\ud800", "usage": {"cost": 0.1}}'),
    ("report-000.json", b'{"plan_id": "pp-\\ud800", "records_in": 4, "records_out": 1, '
                        b'"total_calls": 4, "total_cost": 0.1}'),
], ids=["ledger-truncated", "ledger-without-total", "ledger-not-utf8",
        "trace-steps-not-a-list", "report-a-list", "ledger-lone-surrogate",
        "trace-lone-surrogate", "report-lone-surrogate"])
def test_cli_stats_malformed_artifact_is_a_data_error(tmp_path, capsys, name, body):
    (tmp_path / name).write_bytes(body)
    code = main(["stats", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 5
    assert out.err.startswith("error: data-error: malformed run artifact")
    assert name in out.err
    assert out.out == ""


def test_cli_cache_list_show_clear(workspace, capsys):
    main(["--config", str(workspace / "config.json"), "run", "docs",
          "count the filing memos", "--run-dir", str(workspace / "out")])
    capsys.readouterr()
    assert main(["--config", str(workspace / "config.json"),
                 "cache", "list"]) == 0
    listing = capsys.readouterr().out
    # base dataset context, pipeline output, compute answer
    assert len(listing.splitlines()) == 3
    assert "[root]" in listing
    assert "[pipeline of" in listing and "[compute of" in listing
    shown_id = listing.splitlines()[0].split()[1]
    assert main(["--config", str(workspace / "config.json"),
                 "cache", "show", shown_id]) == 0
    shown = capsys.readouterr().out
    assert f"context: {shown_id}" in shown
    assert "Dataset 'docs'" in shown
    assert main(["--config", str(workspace / "config.json"),
                 "cache", "show", "ctx-doesnotexist"]) == 5
    capsys.readouterr()
    assert main(["--config", str(workspace / "config.json"),
                 "cache", "clear"]) == 0
    assert "cleared 3 cached context(s)" in capsys.readouterr().out
    assert main(["--config", str(workspace / "config.json"),
                 "cache", "list"]) == 0
    assert "cache is empty" in capsys.readouterr().out


# --- bench -------------------------------------------------------------------------

def test_cli_bench_small_corpus(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = main(["bench", "--n", "60", "--rho", "0.2", "--out", str(out_dir)])
    out = capsys.readouterr()
    assert code == 0
    assert "prototype" in out.out
    assert (out_dir / "results.json").exists()
    doc = json.loads((out_dir / "results.json").read_text())
    assert doc["scenarios"]


# --- a directory argument that names a file ---------------------------------------

def test_cli_cache_dir_that_is_a_file(workspace, capsys):
    blocker = workspace / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "--cache-dir", str(blocker), "cache", "list"])
    err = capsys.readouterr().err
    assert code == 9
    assert err.startswith(f"error: store-error: cannot open store at {blocker}")


def test_cli_cache_clear_on_a_cache_dir_that_is_a_file(workspace, capsys):
    blocker = workspace / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "--cache-dir", str(blocker), "cache", "clear"])
    assert code == 9
    assert capsys.readouterr().err.startswith(
        f"error: store-error: cannot clear store at {blocker}")
    assert blocker.read_text(encoding="utf-8") == "x"


def test_cli_bench_out_that_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    code = main(["bench", "--n", "60", "--out", str(blocker)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: data-error: cannot write run artifact {blocker}")


def test_cli_run_dir_that_is_a_file(workspace, capsys):
    blocker = workspace / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count the filing memos", "--run-dir", str(blocker)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: data-error: cannot write run artifact {blocker}")


def test_cli_pipeline_run_dir_under_a_file(workspace, capsys):
    blocker = workspace / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    run_dir = blocker / "run"
    code = main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs", "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: data-error: cannot write run artifact {run_dir}")


# --- runs that end without an answer, and the answer log ----------------------------

def test_cli_run_without_an_answer_leaves_a_run_dir_stats_renders(workspace, capsys):
    """The agent runs a pipeline, then replies with no action: the run exits
    6 (action-parse) and its directory holds the ledger, the trace and the
    pipeline's reports, which ``semaq stats`` renders."""
    script = workspace / "noaction.json"
    rules = [dict(_RUN_SCRIPT["rules"][0]),
             {"match": "AVAILABLE TOOLS", "response": "I will not pick an action"},
             *_RUN_SCRIPT["rules"][2:]]
    script.write_text(json.dumps({"rules": rules}), encoding="utf-8")
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "run", "docs", "count", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 6 and out.out == ""
    assert out.err.startswith("error: compute-error: compute did not reach an answer "
                              "(aborted: action-parse)")
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "ledger.json", "optimizer-000.json", "report-000.json", "trace.json"]
    ledger = json.loads((run_dir / "ledger.json").read_text())
    trace = json.loads((run_dir / "trace.json").read_text())
    assert trace["outcome"] == "aborted" and trace["abort_reason"] == "action-parse"
    assert ledger["total_calls"] == trace["usage"]["calls"] + 4
    assert main(["stats", str(run_dir)]) == 0
    stats = capsys.readouterr().out
    assert "trace: 2 step(s), outcome aborted" in stats
    assert "report-000.json: plan pp-" in stats and "4 calls, 0 reused" in stats


def test_cli_run_that_fails_with_a_non_agent_error_leaves_its_ledger(workspace, capsys):
    """The agent's second chat matches no rule of the mock script: the run
    exits 8 (mock-miss), and its directory still holds the ledger of every
    call it made; the error carries no trace."""
    script = workspace / "short.json"
    rules = [_RUN_SCRIPT["rules"][0],
             {"match": r"PREDICATE[\s\S]*filings", "response": "yes", "kind": "regex"},
             _RUN_SCRIPT["rules"][3]]
    script.write_text(json.dumps({"rules": rules}), encoding="utf-8")
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "run", "docs", "count", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 8 and out.out == ""
    assert out.err.startswith("error: mock-miss: no mock rule matched prompt")
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "ledger.json", "optimizer-000.json", "report-000.json"]
    ledger = json.loads((run_dir / "ledger.json").read_text())
    # the agent's one answered chat, and the pipeline's four filter calls
    assert {m["model_id"]: m["calls"] for m in ledger["models"]} == {
        "mock-large": 1, "mock-small": 4}
    assert json.loads((run_dir / "report-000.json").read_text())["total_calls"] == 4


def test_cli_run_that_fails_after_two_pipelines_keeps_both_reports(workspace, capsys):
    """The agent runs two pipelines, then its next chat matches no rule: the
    run directory holds both pipelines' reports, and their calls plus the
    agent's are every call in the ledger."""
    second = 'scan(docs) | sem_filter("mentions the picnic")'
    script = workspace / "two.json"
    rules = [_RUN_SCRIPT["rules"][0],
             {"match": "AVAILABLE TOOLS",
              "response": _fenced({"thought": "and again", "tool": "run_pipeline",
                                   "args": {"pipeline": second}}),
              "max_calls": 1},
             {"match": r"PREDICATE[\s\S]*filings", "response": "yes", "kind": "regex"},
             _RUN_SCRIPT["rules"][3]]
    script.write_text(json.dumps({"rules": rules}), encoding="utf-8")
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "run", "docs", "count", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 8 and out.err.startswith("error: mock-miss: ")
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "ledger.json", "optimizer-000.json", "optimizer-001.json",
        "report-000.json", "report-001.json"]
    ledger = json.loads((run_dir / "ledger.json").read_text())
    reports = [json.loads((run_dir / f"report-00{i}.json").read_text())
               for i in range(2)]
    assert [r["total_calls"] for r in reports] == [4, 4]
    assert [r["records_out"] for r in reports] == [1, 1]
    agent_calls = {m["model_id"]: m["calls"] for m in ledger["models"]}["mock-large"]
    assert agent_calls == 2
    assert sum(r["total_calls"] for r in reports) + agent_calls == ledger["total_calls"]


def test_cli_stats_prints_each_report_as_pipeline_printed_it(workspace, capsys):
    """``semaq stats`` renders ``report.json`` with the text ``semaq pipeline``
    printed, byte for byte, after the file's name."""
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + " | limit(3)\n", encoding="utf-8")
    run_dir = workspace / "out"
    assert main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs", "--sample", "2", "--run-dir", str(run_dir)]) == 0
    printed = capsys.readouterr().out
    assert main(["stats", str(run_dir)]) == 0
    after = capsys.readouterr().out.split("\nreport.json: ", 1)[1]
    block, rest = after[:len(printed)], after[len(printed):]
    assert block == printed and rest.startswith("optimizer.json: ")
    assert " 1 sem_filter " in block and "total: 2 calls, 2 reused" in block


def test_cli_stats_prints_one_row_per_operator_of_each_agent_pipeline(workspace, capsys):
    run_dir = workspace / "out"
    assert main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count the filing memos", "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("report-000.json: "))
    doc = json.loads((run_dir / "report-000.json").read_text())
    assert [line.split()[:6] for line in lines[head + 2:head + 2 + len(doc["ops"])]] == [
        [str(op["index"]), op["kind"], op["model_id"] or "-", str(op["records_in"]),
         str(op["records_out"]), str(op["calls"])] for op in doc["ops"]]
    assert [op["kind"] for op in doc["ops"]] == ["scan", "sem_filter"]
    assert lines[head + 2 + len(doc["ops"])].startswith("   total: 4 calls, 0 reused")


def test_cli_stats_reads_a_report_without_reuse_counts_as_0_reused(tmp_path, capsys):
    """A report written before reuse existed has neither a row's ``reused``
    nor ``total_reused``."""
    row = {"index": 1, "kind": "sem_filter", "detail": "p", "model_id": "m",
           "records_in": 4, "records_out": 1, "calls": 4, "input_tokens": 9,
           "output_tokens": 4, "cost": 0.5, "wall_seconds": 2.0, "failures": 0}
    (tmp_path / "report.json").write_text(json.dumps({
        "plan_id": "pp-1", "pipeline": "scan(d) | sem_filter(\"p\")",
        "context_id": "c", "ops": [row], "records_in": 4, "records_out": 1,
        "total_calls": 4, "total_cost": 0.5, "total_wall_seconds": 2.0,
        "total_failures": 0, "answer_text": None, "answer_value": None}))
    assert main(["stats", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split() == ["1", "sem_filter", "m", "4", "1", "4", "0", "0.500000",
                                "2.00"]
    assert lines[4].startswith("   total: 4 calls, 0 reused, cost 0.500000")


def test_cli_pipeline_that_fails_leaves_its_ledger_stats_renders(workspace, capsys):
    """The mock answers the first record and misses on the second: the
    pipeline exits 8 (mock-miss) after one paid call, and its run directory
    holds the ledger of that call, which ``semaq stats`` renders."""
    script = workspace / "once.json"
    script.write_text(json.dumps({"rules": [
        {"match": "PREDICATE", "response": "no", "max_calls": 1}]}), encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "pipeline", str(pipe), "--dataset", "docs",
                 "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 8 and out.out == ""
    assert out.err.startswith("error: mock-miss: no mock rule matched prompt")
    assert sorted(p.name for p in run_dir.iterdir()) == ["ledger.json"]
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert ledger["total_calls"] == 1
    assert main(["stats", str(run_dir)]) == 0
    assert "total: 1 calls" in capsys.readouterr().out


def test_cli_runs_answer_from_the_stores_answer_log(workspace, capsys):
    """A second ``pipeline`` or ``run`` on one cache asks no model what the
    first already asked; ``semaq bench`` passes no store."""
    config = str(workspace / "config.json")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    for expected in ("total: 4 calls, 0 reused", "total: 0 calls, 4 reused"):
        assert main(["--config", config, "pipeline", str(pipe), "--dataset", "docs",
                     "--run-dir", str(workspace / "pipe-out")]) == 0
        assert expected in capsys.readouterr().out
    ledger = json.loads((workspace / "pipe-out" / "ledger.json").read_text())
    assert ledger["total_calls"] == 0
    assert main(["--config", config, "run", "docs", "count the filing memos",
                 "--run-dir", str(workspace / "r1")]) == 0
    report = json.loads((workspace / "r1" / "report-000.json").read_text())
    assert (report["total_calls"], report["total_reused"]) == (0, 4)
    assert report["records_out"] == 1


def test_cli_cache_list_counts_and_clear_drops_logged_answers(workspace, capsys):
    config = str(workspace / "config.json")
    main(["--config", config, "run", "docs", "count the filing memos",
          "--run-dir", str(workspace / "out")])
    capsys.readouterr()
    assert main(["--config", config, "cache", "list"]) == 0
    listing = capsys.readouterr()
    assert len(listing.out.splitlines()) == 3
    assert listing.err == "4 logged answer(s)\n"
    assert main(["--config", config, "cache", "clear"]) == 0
    assert capsys.readouterr().out == ("cleared 3 cached context(s)\n"
                                       "dropped 4 logged answer(s)\n")
    assert not (workspace / "cache" / "answers.jsonl").exists()
    assert main(["--config", config, "cache", "list"]) == 0
    listing = capsys.readouterr()
    assert listing.out == "cache is empty\n"
    assert listing.err == "0 logged answer(s)\n"


def test_cli_cache_clear_drops_a_store_that_cannot_be_opened(workspace, capsys):
    """A corrupt line before the last one of ``entries.jsonl`` makes the
    store fail to open (exit 9); ``cache clear`` still drops every file."""
    config = str(workspace / "config.json")
    main(["--config", config, "run", "docs", "count the filing memos",
          "--run-dir", str(workspace / "out")])
    cache = workspace / "cache"
    entries = cache / "entries.jsonl"
    entries.write_bytes(b'{"garbage": 1}\n' + entries.read_bytes())
    capsys.readouterr()
    assert main(["--config", config, "cache", "list"]) == 9
    assert "corrupt store entry at line 1" in capsys.readouterr().err
    assert main(["--config", config, "cache", "clear"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(
        "dropped the contexts and answer log of a corrupt store (corrupt store entry "
        "at line 1")
    for name in ("entries.jsonl", "vectors.bin", "answers.jsonl"):
        assert not (cache / name).exists()
    assert main(["--config", config, "cache", "list"]) == 0
    assert capsys.readouterr().out == "cache is empty\n"


def test_cli_pipeline_on_another_mock_script_follows_its_own_script(workspace, capsys):
    """Two ``pipeline`` runs on one cache with two mock scripts that give
    different verdicts: the second follows its own script, asking its model
    again; a third on the first script reuses the first one's answers."""
    config = str(workspace / "config.json")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    every = workspace / "every.json"
    every.write_text(json.dumps({"rules": [{"match": "PREDICATE", "response": "yes"}]}),
                     encoding="utf-8")
    for script, expected in ((workspace / "script.json", "total: 4 calls, 0 reused"),
                             (every, "total: 4 calls, 0 reused"),
                             (workspace / "script.json", "total: 0 calls, 4 reused")):
        assert main(["--config", config, "--mock-script", str(script), "pipeline",
                     str(pipe), "--dataset", "docs"]) == 0
        out = capsys.readouterr().out
        assert expected in out
        assert ("4 -> 4 records" if script == every else "4 -> 1 records") in out


def test_cli_run_without_run_dir_writes_a_fresh_stamped_dir(workspace, capsys,
                                                             monkeypatch):
    """With no --run-dir, a run writes to <run_dir>/<stamp>, and a second run
    in the same second to <stamp>-1."""
    import semaq.cli as cli_mod
    monkeypatch.setattr(cli_mod.time, "strftime", lambda fmt: "20260101-120000")
    runs = workspace / "runs"
    for name in ("20260101-120000", "20260101-120000-1"):
        code = main(["--config", str(workspace / "config.json"), "run", "docs",
                     "count the filing memos"])
        assert code == 0
        assert f"artifacts: {runs / name}" in capsys.readouterr().err
        assert (runs / name / "answer.txt").read_text() == "one filing memo\n"
    assert sorted(p.name for p in runs.iterdir()) == [
        "20260101-120000", "20260101-120000-1"]


def test_fresh_run_dir_claims_the_directory_it_names(tmp_path, monkeypatch):
    """Two runs started in one second get two directories, each made when it
    is named, so neither writes into the other's."""
    import semaq.cli as cli_mod
    monkeypatch.setattr(cli_mod.time, "strftime", lambda fmt: "20260101-120000")
    first = cli_mod._fresh_run_dir(str(tmp_path / "runs"))
    second = cli_mod._fresh_run_dir(str(tmp_path / "runs"))
    assert first != second
    assert first.is_dir() and second.is_dir()


def test_fresh_run_dir_under_a_file_is_a_data_error(workspace, capsys):
    blocker = workspace / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    _edit_json(workspace / "config.json", lambda doc: doc.update(run_dir=str(blocker)))
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count the filing memos"])
    assert code == 5
    assert capsys.readouterr().err.startswith(
        f"error: data-error: cannot make run directory {blocker}")


def test_cli_reused_run_dir_keeps_only_the_last_runs_artifacts(workspace, capsys):
    """A ``pipeline`` into the run directory of an earlier ``run`` removes the
    run's trace, answer and agent reports, and leaves other files alone, so
    ``stats`` explains the last run only."""
    config = str(workspace / "config.json")
    run_dir = workspace / "out"
    assert main(["--config", config, "run", "docs", "count the filing memos",
                 "--run-dir", str(run_dir)]) == 0
    (run_dir / "notes.txt").write_text("kept", encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    assert main(["--config", config, "pipeline", str(pipe), "--dataset", "docs",
                 "--run-dir", str(run_dir)]) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "ledger.json", "notes.txt", "optimizer.json", "report.json"]
    assert (run_dir / "notes.txt").read_text(encoding="utf-8") == "kept"
    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "report.json: plan pp-" in out
    assert "trace:" not in out and "report-000.json:" not in out


def test_cli_run_whose_agent_fails_exits_with_its_error_when_artifacts_cannot_be_written(
        workspace, capsys, caplog):
    script = workspace / "noaction.json"
    script.write_text(json.dumps({"rules": [
        {"match": "AVAILABLE TOOLS", "response": "I will not pick an action"}]}),
        encoding="utf-8")
    blocker = workspace / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "run", "docs", "count", "--run-dir", str(blocker / "run")])
    assert code == 6
    assert capsys.readouterr().err.startswith(
        "error: compute-error: compute did not reach an answer (aborted: action-parse)")
    assert f"cannot write run artifact {blocker / 'run'}" in caplog.text
    assert blocker.read_text(encoding="utf-8") == "x"


# --- inputs past the program's range ----------------------------------------------

_WIDE = 10 ** 400  # past float range


@pytest.mark.parametrize("route", ["config", "flag"])
def test_cli_pipeline_rejects_a_pool_width_past_its_bound(workspace, capsys, monkeypatch,
                                                          route):
    """A width past ``MAX_POOL_WIDTH`` is a validation error before any pool,
    from the config or from --pool-width, with or without --explain."""
    import semaq.engine as engine_mod

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(engine_mod, "ThreadPoolExecutor", no_pool)
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    flags = ["--pool-width", str(_WIDE)] if route == "flag" else []
    if route == "config":
        _edit_json(workspace / "config.json", lambda doc: doc.update(pool_width=_WIDE))
    for explain in ([], ["--explain"]):
        code = main(["--config", str(workspace / "config.json"), *flags, "pipeline",
                     str(pipe), "--dataset", "docs", "--sample", "2", *explain])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith(f"error: validation-error: pool_width must be <= "
                                  f"{engine_mod.MAX_POOL_WIDTH}")


@pytest.mark.parametrize("route", ["config", "flag"])
def test_cli_pipeline_samples_every_record_for_a_sample_size_past_sys_maxsize(
        workspace, capsys, route):
    """A sample size past any index samples every record, as one of N or
    more does, from the config or from --sample."""
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    flags = ["--sample", str(_WIDE)] if route == "flag" else []
    if route == "config":
        _edit_json(workspace / "config.json", lambda doc: doc.update(sample_size=_WIDE))
    code = main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs", "--explain", *flags])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert f"(sample={_WIDE}, N=4)" in out.out


def test_cli_pipeline_with_a_limit_past_sys_maxsize_is_a_parse_error(workspace, capsys):
    """A limit no run can stop at fails where the pipeline is parsed, as a
    limit of 0 does, not in the engine."""
    pipe = workspace / "p.pz"
    pipe.write_text(f"{PIPELINE} | limit({_WIDE})\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith(f"error: parse-error: limit: limit must be <= {sys.maxsize}")


@pytest.mark.parametrize("name, doc", [
    ("ledger.json", {"models": [], "total_calls": 1, "total_cost": _WIDE,
                     "total_wall_seconds": 0.5}),
    ("trace.json", {"steps": [], "outcome": "answered", "usage": {"cost": _WIDE}}),
], ids=["ledger", "trace"])
def test_cli_stats_on_an_integer_past_float_range_is_a_data_error(tmp_path, capsys,
                                                                  name, doc):
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    code = main(["stats", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 5 and out.out == ""
    assert out.err.startswith(f"error: data-error: malformed run artifact "
                              f"{tmp_path / name}: OverflowError")


@pytest.mark.parametrize("bad", ["\u0000", "\ud800"], ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize("key", ["backend.mock_script", "catalog", "cache_dir",
                                 "run_dir"])
def test_cli_config_path_the_os_cannot_take_is_a_config_error(workspace, capsys, key,
                                                              bad):
    """Each config path is checked once, when the config is read: neither
    a NUL nor a lone surrogate reaches the file system."""
    def edit(doc):
        section = doc["backend"] if key.startswith("backend.") else doc
        name = key.rsplit(".", 1)[-1]
        section[name] = str(workspace / f"pa{bad}th")

    _edit_json(workspace / "config.json", edit)
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count the filing memos"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: config-error: config ")
    assert f"{key} holds a NUL character" in err if bad == "\u0000" else (
        f"{key} is not valid Unicode" in err)
    assert sorted(p.name for p in workspace.iterdir()) == [
        "config.json", "data", "script.json"]


# --- one session: the store and the sampler inside the run's record --------------

def test_cli_pipeline_whose_sampling_fails_leaves_its_ledger_stats_renders(
        workspace, capsys):
    """The mock answers the sampler's first call and misses on its second:
    the pipeline exits 8 (mock-miss), and its run directory holds the ledger
    of that sampling call, which ``semaq stats`` renders."""
    script = workspace / "once.json"
    script.write_text(json.dumps({"rules": [
        {"match": "PREDICATE", "response": "no", "max_calls": 1}]}), encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(script), "pipeline", str(pipe), "--dataset", "docs",
                 "--sample", "2", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 8 and out.out == ""
    assert out.err.startswith("error: mock-miss: no mock rule matched prompt")
    assert sorted(p.name for p in run_dir.iterdir()) == ["ledger.json"]
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert ledger["total_calls"] == 1
    assert main(["stats", str(run_dir)]) == 0
    assert "total: 1 calls" in capsys.readouterr().out


def test_cli_pipeline_on_a_corrupt_store_fails_before_any_sampling_call(
        workspace, capsys):
    """A store that cannot be opened fails the pipeline as a store error
    (exit 9) before the sampler asks anything: the script has no rule, so a
    sampling call would be a mock miss (exit 8).  The run directory holds
    the ledger of no call."""
    cache = workspace / "cache"
    cache.mkdir()
    (cache / "entries.jsonl").write_text('{"garbage": 1}\n{"garbage": 2}\n',
                                         encoding="utf-8")
    empty = workspace / "empty.json"
    empty.write_text('{"rules": []}', encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    run_dir = workspace / "out"
    code = main(["--config", str(workspace / "config.json"), "--mock-script",
                 str(empty), "pipeline", str(pipe), "--dataset", "docs",
                 "--sample", "2", "--run-dir", str(run_dir)])
    out = capsys.readouterr()
    assert code == 9 and out.out == ""
    assert out.err.startswith("error: store-error: corrupt store entry at line 1")
    assert sorted(p.name for p in run_dir.iterdir()) == ["ledger.json"]
    assert json.loads((run_dir / "ledger.json").read_text())["total_calls"] == 0


def test_cli_pipeline_on_an_answer_log_that_is_a_directory_is_a_store_error(
        workspace, capsys):
    """A run that cannot read the store's answer log fails as a store error
    (exit 9), not as an internal error (exit 10)."""
    (workspace / "cache" / "answers.jsonl").mkdir(parents=True)
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs", "--run-dir", str(workspace / "out")])
    assert code == 9
    assert capsys.readouterr().err.startswith(
        "error: store-error: cannot read the answer log")


def test_cli_pipeline_explain_opens_no_store_and_writes_nothing(workspace, capsys):
    """``--explain`` samples and prints the frontier, and leaves neither a
    store directory nor a run directory behind."""
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "pipeline", str(pipe),
                 "--dataset", "docs", "--sample", "2", "--explain"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "sampling made 4 model call(s)" in out.out and out.err == ""
    assert not (workspace / "cache").exists()
    assert sorted(p.name for p in workspace.iterdir()) == [
        "config.json", "data", "p.pz", "script.json"]


def test_cli_stats_renders_each_optimizer_report(workspace, capsys):
    """``semaq stats`` gives each ``optimizer*.json`` one line: the chosen
    plan, the policy, the frontier rows out of the assignments considered,
    the sample size and the sampling calls."""
    config = str(workspace / "config.json")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    assert main(["--config", config, "pipeline", str(pipe), "--dataset", "docs",
                 "--sample", "2", "--run-dir", str(workspace / "pipe-out")]) == 0
    assert main(["--config", config, "run", "docs", "count the filing memos",
                 "--run-dir", str(workspace / "run-out")]) == 0
    capsys.readouterr()
    for name, sample, calls in (("pipe-out", 2, 4), ("run-out", 0, 0)):
        opt_name = "optimizer.json" if name == "pipe-out" else "optimizer-000.json"
        opt = json.loads((workspace / name / opt_name).read_text())
        assert main(["stats", str(workspace / name)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("optimizer")]
        assert lines == [
            f"{opt_name}: chose {opt['chosen_plan_id']} under {opt['policy']}, "
            f"{len(opt['candidates'])} frontier plan(s) of {opt['plans_considered']} "
            f"model assignments, sample {sample}, {calls} sampling call(s)"]
        assert opt["sample_calls"] == calls and len(opt["candidates"]) >= 1


@pytest.mark.parametrize("body", [
    b'{"chosen_plan_id": "pp-1", "policy": "min-cost"',
    b'{"chosen_plan_id": "pp-1", "policy": "min-cost", "candidates": 3, '
    b'"plans_considered": 4, "sample_size": 0, "sample_calls": 0}',
    b'{"chosen_plan_id": "pp-\\ud800", "policy": "min-cost", "candidates": [], '
    b'"plans_considered": 4, "sample_size": 0, "sample_calls": 0}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["truncated", "candidates-not-a-list", "lone-surrogate", "nested-too-deep"])
def test_cli_stats_malformed_optimizer_report_is_a_data_error(tmp_path, capsys, body):
    (tmp_path / "optimizer-000.json").write_bytes(body)
    code = main(["stats", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 5
    assert out.err.startswith("error: data-error: malformed run artifact")
    assert "optimizer-000.json" in out.err
    assert out.out == ""


def test_cli_stats_on_a_ledger_nested_past_the_parsers_depth_is_a_data_error(
        tmp_path, capsys):
    (tmp_path / "ledger.json").write_bytes(b"[" * 100_000 + b"]" * 100_000)
    code = main(["stats", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: data-error: malformed run artifact")
    assert "ledger.json: RecursionError" in err


# --- lines no other test reaches ------------------------------------------------

def test_cli_catalog_flag_overrides_the_configs_catalog(workspace, capsys):
    """``--catalog`` wins over the config's own catalog, here one that does
    not even parse."""
    (workspace / "broken.json").write_text("[1]", encoding="utf-8")
    _edit_json(workspace / "config.json",
               lambda doc: doc["backend"].update(catalog=str(workspace / "broken.json")))
    catalog = workspace / "models.json"
    catalog.write_text(json.dumps({"models": [_MODEL_ROW]}), encoding="utf-8")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    argv = ["pipeline", str(pipe), "--dataset", "docs", "--run-dir", str(workspace / "out")]
    assert main(["--config", str(workspace / "config.json"), *argv]) == 2
    assert capsys.readouterr().err.startswith("error: config-error: ")
    code = main(["--config", str(workspace / "config.json"), "--catalog", str(catalog),
                 *argv])
    out = capsys.readouterr().out
    assert code == 0
    assert " sem_filter   solo " in out


def _fail_reads_under(monkeypatch, target, module, name):
    """Make ``module.name`` raise a permission error on a path under
    ``target``: the host runs as root, so file modes cannot."""
    real = getattr(module, name)

    def failing(path, *args, **kwargs):
        if str(path).startswith(str(target)):
            raise PermissionError(13, "Permission denied", str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(module, name, failing, raising=False)


@pytest.mark.parametrize("kind", ["dir", "jsonl"])
def test_cli_pipeline_reports_a_dataset_it_cannot_read(workspace, capsys, monkeypatch, kind):
    import builtins
    from pathlib import Path

    from semaq import cli
    if kind == "dir":
        target = workspace / "data"
        _fail_reads_under(monkeypatch, target, Path, "read_text")
    else:
        target = workspace / "rows.jsonl"
        target.write_text('{"text": "memo about filings"}\n', encoding="utf-8")
        _edit_json(workspace / "config.json", lambda doc: doc["datasets"].update(
            docs={"kind": "jsonl", "path": str(target)}))
        monkeypatch.setattr(cli, "open", builtins.open, raising=False)
        _fail_reads_under(monkeypatch, target, cli, "open")
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"),
                 "pipeline", str(pipe), "--dataset", "docs"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: data-error: cannot read {target}")
    assert "Permission denied" in err
    with pytest.raises(DataAccessError, match="cannot read"):
        (load_dataset_dir if kind == "dir" else load_dataset_jsonl)(target)


def test_cli_run_prints_no_value_line_for_an_answer_without_one(workspace, capsys):
    script = json.loads((workspace / "script.json").read_text())
    script["rules"][1]["response"] = _fenced(
        {"thought": "one matched", "final_answer": "one filing memo"})
    (workspace / "script.json").write_text(json.dumps(script), encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "run", "docs",
                 "count the filing memos", "--run-dir", str(workspace / "out")])
    assert code == 0
    assert capsys.readouterr().out == "one filing memo\n"
