"""Seeded boundary fuzz: no input file makes ``semaq`` exit ``internal-error``.

Each case copies one small workspace, changes one of its files, and runs one
``semaq`` command in it, in-process through ``cli.main`` on the in-process
mock.  The workspace holds every file the command line reads: the config,
the mock script, the model catalog, a JSONL dataset, a pipeline file, the
context store's three files, and the run directories of a ``run`` and of a
``pipeline``.  A change is one of:

- replace, delete or add one JSON value, drawn from ``_VALUES``, in a JSON
  file or in one line of a JSONL file;
- flip, cut or insert bytes (``\\xff``, U+2028, ``1e999``, a quote, twenty
  nines), or truncate the file.

A second, unseeded test makes two structural changes the first never draws:
the first value of each JSON file (line 1's, in a JSONL file) becomes JSON
nested past the parser's depth, then a 5,000-digit integer, and every
command that reads the file runs on each.

A case passes when ``main`` returns an exit code other than 10 and raises
nothing.  Tier-1 runs seed 0, ``CASES`` cases in about 5 s on a 2-vCPU
Xeon.  More seeds, comma-separated::

    SEMAQ_FUZZ_SEEDS=1,2,3 python -m pytest -q tests/test_boundary_fuzz.py
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import semaq.cli as cli
import semaq.engine as engine

CASES = 1000
SEEDS = [int(s) for s in os.environ.get("SEMAQ_FUZZ_SEEDS", "0").split(",")]

_VALUES = [None, True, False, 0, -1, 2.5, 10 ** 400, 1e308, "", "\u0000",
           "\ud800", [], {}]
_BYTES = [b"\xff", "\u2028".encode(), b"1e999", b'"', b"9" * 20]


def _fenced(doc):
    return "```json\n" + json.dumps(doc) + "\n```"


PIPELINE = 'scan(docs) | sem_filter("about regulatory paperwork") | limit(3)'

_INPUTS = {
    "config.json": {
        "backend": {"mock_script": "script.json", "catalog": "models.json"},
        "datasets": {"docs": {"kind": "jsonl", "path": "rows.jsonl"}},
        "policy": {"kind": "min_cost", "quality_floor": 0.8},
        "pool_width": 2, "sample_size": 0, "cache_dir": "cache", "run_dir": "runs",
        "tau": 0.75, "max_steps": 4, "budget": 1.0, "index": True,
    },
    "script.json": {"rules": [
        {"match": "AVAILABLE TOOLS", "max_calls": 1,
         "response": _fenced({"thought": "scan", "tool": "run_pipeline",
                              "args": {"pipeline": PIPELINE}})},
        {"match": "AVAILABLE TOOLS", "max_calls": 1,
         "response": _fenced({"thought": "done", "final_answer": {
             "text": "one filing memo", "value": 1}})},
        {"match": r"PREDICATE[\s\S]*filings", "response": "yes", "kind": "regex"},
        {"match": "PREDICATE", "response": "no"},
    ]},
    "models.json": {"models": [
        {"id": "mock-large", "input_cost_per_1k": 0.0025, "output_cost_per_1k": 0.01,
         "quality_prior": 0.95, "latency_prior": 1.2},
        {"id": "mock-small", "input_cost_per_1k": 0.0005,
         "output_cost_per_1k": 0.0015, "quality_prior": 0.85, "latency_prior": 0.4},
    ]},
}
_ROWS = ["memo about staffing", "memo about filings and audits",
         "memo about the picnic", {"subject": "parking", "text": "memo about parking"}]

_RUN = ["run", "docs", "count the filing memos", "--run-dir", "out"]
_PIPE = ["pipeline", "p.pz", "--dataset", "docs"]
_COMMANDS = {
    "input": [_RUN, _RUN + ["--use-cache"], _PIPE + ["--run-dir", "out"],
              _PIPE + ["--sample", "2", "--run-dir", "out"],
              _PIPE + ["--explain", "--sample", "2"]],
    "store": [["cache", "list"], ["cache", "show", "{context_id}"], ["cache", "clear"],
              _RUN + ["--use-cache"], _PIPE + ["--run-dir", "out"]],
    "artifact": [["stats", "{run_dir}"]],
}
_FILES = {
    "config.json": "input", "script.json": "input", "models.json": "input",
    "rows.jsonl": "input", "p.pz": "input",
    "cache/entries.jsonl": "store", "cache/vectors.bin": "store",
    "cache/answers.jsonl": "store",
    "runs/r1/ledger.json": "artifact", "runs/r1/trace.json": "artifact",
    "runs/r1/report-000.json": "artifact", "runs/p1/ledger.json": "artifact",
    "runs/p1/report.json": "artifact",
}


def _containers(doc, out):
    """Every object and array in ``doc``, depth first."""
    if isinstance(doc, (dict, list)):
        out.append(doc)
        for child in (doc.values() if isinstance(doc, dict) else doc):
            _containers(child, out)
    return out


def _change_json(rng, doc, keys):
    """Replace, delete or add one value somewhere in ``doc``; returns a label."""
    target = rng.choice(_containers(doc, []))
    value = rng.choice(_VALUES)
    slots = list(target) if isinstance(target, dict) else list(range(len(target)))
    how = rng.choice(["replace", "delete", "add"]) if slots else "add"
    if how == "add":
        if isinstance(target, dict):
            slot = rng.choice(keys)
            target[slot] = value
        else:
            slot = rng.randrange(len(target) + 1)
            target.insert(slot, value)
    else:
        slot = rng.choice(slots)
        if how == "delete":
            del target[slot]
        else:
            target[slot] = value
    return f"{how} {slot!r} = {value!r:.40}"


def _change_bytes(rng, data):
    how = rng.choice(["flip", "cut", "insert", "truncate"])
    at = rng.randrange(len(data) + 1)
    if how == "flip" and at < len(data):
        data = data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    elif how == "cut":
        data = data[:at] + data[at + rng.randrange(1, 16):]
    elif how == "insert":
        data = data[:at] + rng.choice(_BYTES) + data[at:]
    else:
        data = data[:at]
    return data, f"{how} at byte {at}"


def _mutate(rng, name, data, keys):
    """One change to the file ``name``: a JSON value (JSON and JSONL files,
    half the time) or its bytes."""
    if name.endswith((".json", ".jsonl")) and rng.random() < 0.5:
        lines = data.decode("utf-8").splitlines()
        i = rng.randrange(len(lines)) if name.endswith(".jsonl") else None
        doc = json.loads(data if i is None else lines[i])
        label = _change_json(rng, doc, keys)
        if i is None:
            return json.dumps(doc).encode(), label
        lines[i] = json.dumps(doc)
        return ("\n".join(lines) + "\n").encode(), f"line {i + 1}: {label}"
    return _change_bytes(rng, data)


def _workspace(root: Path) -> dict[str, bytes]:
    """Write the inputs, make a run and a pipeline run, and return every file
    under ``root`` by relative path."""
    for name, doc in _INPUTS.items():
        (root / name).write_text(json.dumps(doc), encoding="utf-8")
    (root / "rows.jsonl").write_text(
        "".join(json.dumps(r if isinstance(r, dict) else {"text": r}) + "\n"
                for r in _ROWS), encoding="utf-8")
    (root / "p.pz").write_text(PIPELINE + "\n", encoding="utf-8")
    config = ["--config", "config.json"]
    assert cli.main(config + ["run", "docs", "count", "--run-dir", "runs/r1"]) == 0
    assert cli.main(config + _PIPE + ["--sample", "2", "--run-dir", "runs/p1"]) == 0
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _keys(files: dict[str, bytes]) -> list[str]:
    """Every object key the workspace's JSON holds, bar ``base_url``, which
    would point the run at a server; plus one no reader knows."""
    docs = [json.loads(text) for name, data in files.items()
            for text in (data.splitlines() if name.endswith(".jsonl")
                         else [data] if name.endswith(".json") else [])]
    keys = {key for doc in docs for c in _containers(doc, [])
            if isinstance(c, dict) for key in c}
    return sorted(keys - {"base_url"} | {"unknown"})


def _write_case(files, name, data, command, context_id, where: Path):
    """Write the workspace under ``where`` with the file ``name`` holding
    ``data``, and return the arguments of ``command`` run on it.  ``stats``
    reads only its run directory; every other command reads the inputs and
    the store, not the runs."""
    group = _FILES[name]
    for rel, body in files.items():
        if (Path(rel).parent == Path(name).parent if group == "artifact"
                else not rel.startswith("runs/")):
            path = where / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data if rel == name else body)
    return ["--config", "config.json"] + [
        arg.format(context_id=context_id, run_dir=str(Path(name).parent))
        for arg in command]


def _case(rng, files, keys, context_id, where: Path):
    """Write one case under ``where``: the workspace with one file changed.
    Returns the changed file's name, the change and the command's
    arguments."""
    name = rng.choice(sorted(_FILES))
    data, label = _mutate(rng, name, files[name], keys)
    command = rng.choice(_COMMANDS[_FILES[name]])
    return name, label, _write_case(files, name, data, command, context_id, where)


def _main(argv):
    """``cli.main(argv)`` on the streams of a process on a UTF-8 terminal:
    output is strict, and errors escape what UTF-8 cannot encode.  Returns
    the exit code, or what ``main`` raised, and the error text."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - the finding itself
        code = f"raised {type(exc).__name__}: {exc}"
    err.flush()
    return code, err.buffer.getvalue().decode()


@pytest.fixture
def pristine(tmp_path, monkeypatch):
    """The workspace's files, made under ``tmp_path / "pristine"``, and the
    id of the store's first context.  A case that then starts a worker pool
    or an HTTP backend fails as exit 10."""
    def refused(*args, **kwargs):
        raise AssertionError("the fuzz runs on the in-process mock only")

    monkeypatch.setattr(engine, "ThreadPoolExecutor", refused)
    monkeypatch.setattr(cli, "HttpBackend", refused)
    root = tmp_path / "pristine"
    root.mkdir()
    monkeypatch.chdir(root)
    files = _workspace(root)
    return files, json.loads(files["cache/entries.jsonl"].splitlines()[0])["context_id"]


@pytest.mark.parametrize("seed", SEEDS)
def test_no_input_makes_the_cli_exit_internal_error(seed, pristine, tmp_path,
                                                    monkeypatch):
    files, context_id = pristine
    keys = _keys(files)
    rng = random.Random(seed)
    failures = []
    for case in range(CASES):
        where = tmp_path / f"case-{case}"
        name, label, argv = _case(rng, files, keys, context_id, where)
        monkeypatch.chdir(where)
        code, err = _main(argv)
        if code == 10 or not isinstance(code, int):
            failures.append(f"case {case}: {name}: {label}: semaq {' '.join(argv)} "
                            f"-> {code}: {err[-300:]}")
    assert not failures, f"seed {seed}:\n" + "\n".join(failures)


_STRUCTURAL = {"nested-too-deep": "[" * 100_000 + "]" * 100_000,
               "integer-of-5000-digits": "9" * 5_000}


def _replace_first_value(name, data: bytes, value: str) -> bytes:
    """``data`` with the first value of its top-level object (line 1's, in a
    JSONL file) replaced by the JSON text ``value``, which no JSON parser
    need accept: nesting past its depth, or an integer past the
    interpreter's 4,300-digit limit."""
    head, newline, rest = (data.partition(b"\n") if name.endswith(".jsonl")
                           else (data, b"", b""))
    doc = json.loads(head)
    doc[next(iter(doc))] = "@@"
    return json.dumps(doc).replace('"@@"', value, 1).encode() + newline + rest


def test_no_json_input_nested_too_deep_or_with_a_huge_integer_exits_internal_error(
        pristine, tmp_path, monkeypatch):
    """Every command of each JSON or JSONL file's group, on that file with
    its first value nested past the parser's depth or a 5,000-digit
    integer."""
    files, context_id = pristine
    failures = []
    cases = [(name, label, value, command) for name in sorted(_FILES)
             if name.endswith((".json", ".jsonl"))
             for label, value in _STRUCTURAL.items()
             for command in _COMMANDS[_FILES[name]]]
    for case, (name, label, value, command) in enumerate(cases):
        where = tmp_path / f"case-{case}"
        data = _replace_first_value(name, files[name], value)
        argv = _write_case(files, name, data, command, context_id, where)
        monkeypatch.chdir(where)
        code, err = _main(argv)
        if code == 10 or not isinstance(code, int):
            failures.append(f"{name}: {label}: semaq {' '.join(argv)} "
                            f"-> {code}: {err[-300:]}")
    assert len(cases) == 70 and not failures, "\n".join(failures)
