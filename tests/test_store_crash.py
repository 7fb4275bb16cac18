"""The context store survives a writer killed in the middle of an append.

Each case runs one child interpreter that registers seeded contexts and
adds answers to a fresh store.  Its prelude shadows ``semaq.store.open``: at
a seeded write to ``vectors.bin``, ``entries.jsonl`` or ``answers.jsonl`` it
writes a seeded prefix of that write's bytes, flushes, and ends the process
with ``os._exit``, as a kill between two ``write`` calls would.  The oracle
then reopens the directory:

- the entries are exactly the whole ones, a prefix of those registered;
- each ``embedding`` is ``hashing_embed(description)`` bit for bit, and
  ``retrieve`` returns what ``core.cosine_topk`` over those vectors does;
- ``read_answers`` holds every answer whose line is whole, and no other.

One more ``register`` and ``add_answers`` then succeed on the reopened store
(a torn vector row is padded, so its seq is a gap the reader skips), and a
second reopen holds them too.  Tier-1 runs seed 0.  More seeds,
comma-separated::

    SEMAQ_STORE_SEEDS=1,2,3 python -m pytest -q tests/test_store_crash.py
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semaq import ContextStore, context_create, hashing_embed
from semaq.core import cosine_topk
from semaq.store import LoggedAnswer

SEEDS = [int(s) for s in os.environ.get("SEMAQ_STORE_SEEDS", "0").split(",")]

FILES = ("vectors.bin", "entries.jsonl", "answers.jsonl")
CASES = 6  # per seed: two crashes in each file
REGISTRATIONS = 8
CRASHED = 17  # the child's exit status when it crashed where it was told to
STRIDE = len(hashing_embed("x").tobytes())

_CHILD = """
import builtins, os, sys
import semaq.store
from semaq import ContextStore, hashing_embed
from tests.test_store_crash import CRASHED, _cut, _play, _plan

directory, target, crash_at, cut_seed, seed = sys.argv[1:]
writes = 0


class Crashing:
    def __init__(self, file):
        self._file = file

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._file.__exit__(*exc)

    def __iter__(self):
        return iter(self._file)

    def write(self, data):
        global writes
        writes += 1
        if writes == int(crash_at):
            data = bytes(data)
            self._file.write(data[:_cut(int(cut_seed), len(data))])
            self._file.flush()
            os._exit(CRASHED)
        return self._file.write(data)


def shadow(file, mode="r", *args, **kwargs):
    opened = builtins.open(file, mode, *args, **kwargs)
    return Crashing(opened) if os.path.basename(file) == target else opened


semaq.store.open = shadow
_play(ContextStore(directory, hashing_embed), _plan(int(seed)))
"""


def _cut(cut_seed, length):
    """How many of a write's ``length`` bytes the crash leaves."""
    return random.Random(cut_seed).randrange(length + 1)


def _plan(seed):
    """The child's steps: registrations of seeded contexts, each odd one
    followed by a batch of new answers from four models."""
    rng = random.Random(seed)
    topics = ("refund claims", "vendor audits", "late invoices", "board minutes")
    steps, answers = [], 0
    for i in range(REGISTRATIONS):
        description = (f"finding {i} of seed {seed}: {rng.choice(topics)} in week "
                       f"{rng.randint(1, 52)} total {rng.randrange(10**6)}")
        steps.append(("register", description, rng.choice(topics)))
        if i % 2:
            batch = []
            for _ in range(rng.randint(1, 3)):
                answer = rng.random() < 0.5 or {"total": rng.randrange(100)}
                batch.append(LoggedAnswer(f"model-{rng.randrange(4)}",
                                          f"{seed:08x}{answers:056x}", answer,
                                          rng.randrange(1, 500), rng.randrange(1, 9), 1))
                answers += 1
            steps.append(("answers", batch))
    return steps


def _play(store, steps):
    for step in steps:
        if step[0] == "register":
            store.register(context_create((), step[1]), instruction=step[2])
        else:
            store.add_answers(step[1])


def _writes_to(target, step):
    """Whether ``step`` writes ``target`` (once): a registration writes the
    vector file and the entry log, a batch of answers the answer log."""
    return (step[0] == "answers") == (target == FILES[2])


def _crash_point(seed, case):
    """(target file, the write to it that crashes, the cut's seed)."""
    rng = random.Random(seed * 1000 + case)
    target = FILES[case % len(FILES)]
    writes = sum(_writes_to(target, step) for step in _plan(seed))
    return target, rng.randint(1, writes), rng.randrange(2**32)


def _expected(seed, target, crash_at, cut_seed):
    """The descriptions registered before the crashing step; the crashing
    registration's description when the crash cut its entry line, which may
    be left whole, else None; and the answers whose lines are whole."""
    registered, answers, writes = [], [], 0
    for step in _plan(seed):
        writes += _writes_to(target, step)
        if writes < crash_at:
            if step[0] == "register":
                registered.append(step[1])
            else:
                answers += step[1]
            continue
        if step[0] == "answers":
            lines = [answer.to_line() for answer in step[1]]
            cut, end = _cut(cut_seed, len(b"".join(lines))), 0
            for answer, line in zip(step[1], lines):
                end += len(line)
                if end - 1 <= cut:  # whole, or whole but for its \n
                    answers.append(answer)
        return registered, step[1] if target == FILES[1] else None, answers
    raise AssertionError("the plan has no such write")


def _check(store, descriptions, answers):
    """``store`` holds the entries of ``descriptions``, in order, with their
    exact vectors, ranks as the exact scan over them, and holds ``answers``."""
    entries = store.entries
    assert [entry.description for entry in entries] == descriptions
    assert [entry.context_id for entry in entries] == \
        [context_create((), text).id for text in descriptions]
    vectors = [hashing_embed(text) for text in descriptions]
    for entry, vector in zip(entries, vectors):
        assert entry.embedding.tobytes() == vector.tobytes()
    queries = descriptions[::3] + ["vendor audits in week 3", "late invoices total 5"]
    for text in queries:
        for k, tau in ((1, 0.0), (3, 0.5), (10, 0.0)):
            got = [(entry.context_id, score.hex())
                   for entry, score in store.retrieve(text, k, tau)]
            want = [] if not vectors else [
                (entries[row].context_id, score.hex())
                for row, score in cosine_topk(np.stack(vectors), hashing_embed(text),
                                              k, tau)]
            assert got == want, text
    assert store.read_answers() == len(answers)
    assert dict(store._answers) == {(a.model, a.prompt): a for a in answers}


@pytest.mark.parametrize("case", range(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_store_a_crashed_writer_left_reopens_whole_and_takes_appends(tmp_path, seed,
                                                                        case):
    target, crash_at, cut_seed = _crash_point(seed, case)
    path = tmp_path / "store"
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), str(root), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(path), target, str(crash_at), str(cut_seed),
         str(seed)], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == CRASHED, child.stderr

    registered, maybe, answers = _expected(seed, target, crash_at, cut_seed)
    reopened = ContextStore(path, hashing_embed)
    descriptions = registered + [maybe] * (len(reopened) > len(registered))
    _check(reopened, descriptions, answers)

    rows_before = -(-(path / "vectors.bin").stat().st_size // STRIDE)
    later = f"a finding after the crash of seed {seed}, case {case}"
    entry = reopened.register(context_create((), later), instruction="recheck")
    more = [LoggedAnswer("model-0", f"{seed:08x}{case + 1:08x}{i:048x}", i % 2 == 0,
                         7, 1, 1) for i in range(2)]
    reopened.add_answers(more)
    assert entry.seq == rows_before  # after every row, whole or torn
    if target == FILES[0] and 0 < _cut(cut_seed, STRIDE) < STRIDE:
        assert entry.seq > len(descriptions)  # the padded torn row is a gap
    for store in (reopened, ContextStore(path, hashing_embed)):
        _check(store, descriptions + [later], answers + more)
