"""The two-generator stage count, kept as the oracle for counting each stage
boundary once.

Before a row's ``out`` was the next row's ``in``, ``engine._counted`` built
each stage on an upstream that counted the records it pulled and wrapped
the stage's output in a second generator, ``passed``, that counted the
records it passed on in the row's ``records_out``.  ``stages(passed)``
gives ``engine._STAGES`` with each stage's output so wrapped, but counted
in ``passed`` beside the row instead of in it, so ``pipeline_execute`` run
under it reports its own counts and the reference's side by side.
``passed`` is verbatim but for the line marked ``# reference:``.
"""

from typing import Callable, Iterator

from semaq import engine
from semaq.core import Record
from semaq.engine import OpReport

# (the row of a stage built, the records that stage has passed on)
Passed = list[tuple[OpReport, list[int]]]


def _counting(stage: Callable, counts: Passed) -> Callable:
    def counted(run, i, pop, upstream: Iterator[Record], row: OpReport):
        count = [0]
        counts.append((row, count))

        def passed(records: Iterator[Record]) -> Iterator[Record]:
            for record in records:
                count[0] += 1  # reference: row.records_out += 1
                yield record

        return passed(stage(run, i, pop, upstream, row))

    return counted


def stages(counts: Passed) -> dict:
    """``engine._STAGES`` with each stage's output counted into ``counts``."""
    return {op: _counting(stage, counts) for op, stage in engine._STAGES.items()}
