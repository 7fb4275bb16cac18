"""CLI: config loading, dataset loaders, subcommands, exit codes."""

import json

import pytest

from semaq import (ConfigurationError, DataAccessError, MinCost, MockBackend,
                   make_source_record)
from semaq.cli import (DEFAULT_CATALOG, RunConfig, agent_model_spec,
                       build_backend, load_dataset, load_dataset_dir,
                       load_dataset_jsonl, main)
from semaq.core import record_to_json


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


@pytest.mark.parametrize("width", ["0", "-1"])
def test_cli_pipeline_rejects_pool_width_below_one(workspace, capsys, width):
    pipe = workspace / "p.pz"
    pipe.write_text(PIPELINE + "\n", encoding="utf-8")
    code = main(["--config", str(workspace / "config.json"), "--pool-width", width,
                 "pipeline", str(pipe), "--dataset", "docs"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: validation-error: pool_width must be >= 1")


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
