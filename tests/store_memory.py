"""What a context store holds in memory per entry and per logged answer.

Run as a script, it writes a generated answer log of about 175-byte lines
to a temporary directory, reads it with ``ContextStore.read_answers`` and
prints the time and the resident memory (from ``/proc/self/statm``, so
Linux only) that the read costs per answer:

    PYTHONPATH=src python tests/store_memory.py

``tests/test_store.py`` imports the generators and the ``tracemalloc``
counts below for its memory pin.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from semaq import ContextStore, context_create, hashing_embed

_MODELS = ("op-nano", "op-cheap", "op-mid", "op-strong")
_TOPICS = ("vendor contracts", "travel claims", "late invoices", "board minutes",
           "hiring plans", "security reviews", "customer refunds", "audit notes")
_ANSWERS = 100_000  # the answers of the log main() reads


def write_history(directory, count: int) -> None:
    """Register ``count`` root contexts in the store at ``directory``, as
    earlier sessions left them: each instruction asks about one of a few
    hundred (topic, week) pairs, so many entries repeat one."""
    rng = random.Random(0)
    store = ContextStore(directory, hashing_embed)
    for j in range(count):
        instruction = (f"Summarise what the notes say about {rng.choice(_TOPICS)} "
                       f"in week {rng.randint(1, 52)}")
        description = (f"Earlier session {j}: [compute] instruction: {instruction}\n"
                       f"answer: {rng.randrange(1, 9)!r}")
        store.register(context_create((), description), instruction=instruction)


def write_answer_log(directory, count: int) -> None:
    """Write ``count`` distinct answers to the answer log in ``directory``:
    filter verdicts and, one in three, the fields of a map."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    with open(Path(directory) / "answers.jsonl", "wb") as log:
        for i in range(count):
            answer = {"priority": "high"} if i % 3 == 0 else i % 2 == 0
            log.write((json.dumps({
                "model": _MODELS[i % 4],
                "prompt": hashlib.sha256(str(i).encode()).hexdigest(),
                "answer": answer, "input_tokens": 100 + i % 900,
                "output_tokens": 1 + i % 20, "calls": 1}) + "\n").encode())


def _traced(load) -> tuple[int, object]:
    """The bytes ``tracemalloc`` counts as still held after ``load()``, and
    its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def traced_bytes_per_entry(directory) -> float:
    """The bytes a reopen of the store at ``directory`` holds per entry,
    beside its float32 scan copy and the norms."""
    held, store = _traced(lambda: ContextStore(directory, hashing_embed))
    return (held - store._vectors.nbytes - store._norms.nbytes) / len(store)


def traced_bytes_per_answer(directory) -> float:
    """The bytes a store at ``directory`` holds per answer after reading its
    answer log."""
    store = ContextStore(directory, hashing_embed)
    held, count = _traced(store.read_answers)
    return held / count


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        write_answer_log(directory, _ANSWERS)
        size = (Path(directory) / "answers.jsonl").stat().st_size
        store = ContextStore(directory, hashing_embed)
        gc.collect()
        resident, started = _resident_bytes(), time.perf_counter()
        count = store.read_answers()
        seconds = time.perf_counter() - started
        resident = _resident_bytes() - resident
    print(f"read_answers: {count} answers of {size / count:.0f} bytes a line, "
          f"{seconds / count * 1e6:.1f} us and {resident / count:.0f} resident "
          f"bytes per answer (Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
