"""The record-keyed sampler-to-run hand-off, kept as the oracle for the one
answer path (sampled answers keyed by model and prompt digest).

Before sampled answers were keyed by prompt, ``sample_stats`` kept each
answer by (position, model id) and record id, with the record it was asked
about, and a run answered a record from them, with no call, only when the
sampled record at its own (position, model) pair had the record's id and
fields (``_same_record``).  ``sampled_answers`` collects those answers as the
sampler did, and ``stages`` gives ``engine._STAGES`` with the semantic stage
of that time, so ``pipeline_execute`` run under it behaves as it did.  The
answer log's key is pinned by ``_prompt_digest``, the digest function of
that time.  ``_prompt_digest``, ``_same_record`` and ``_semantic_stage`` are
verbatim but for the line marked ``# reference:``; ``sampled_answers`` keeps
the sampler's loop over the records of one pair as it was.
"""

import functools
import hashlib
import itertools
import threading
from typing import Iterator, Mapping, Sequence

from semaq import engine
from semaq.backend import ChatMessage, Usage
from semaq.core import Context, Record, canonical_fields_json, context_iterate
from semaq.engine import (_NO_USAGE, OpReport, PhysicalOp, PhysicalPlan,
                          _answer_output, semantic_answer)
from semaq.errors import OperatorError
from semaq.lang import SemFilter, SemMap

# sampled answers by record id: (the sampled record, the filter's verdict or
# the map's parsed fields)
SampledAnswers = Mapping[str, tuple[Record, object]]


def _prompt_digest(backend: str, messages: Sequence[ChatMessage]) -> str:
    """The sha256 of the ``backend``'s fingerprint and a prompt's messages,
    each as its role, the length of its UTF-8 content and that content: with
    the model id, the key of an answer in the store's answer log."""
    fingerprint = backend.encode("utf-8", "surrogatepass")
    digest = hashlib.sha256(b"%d\n%s" % (len(fingerprint), fingerprint))
    for message in messages:
        content = message.content.encode("utf-8", "surrogatepass")
        digest.update(b"%s %d\n" % (message.role.encode("utf-8"), len(content)))
        digest.update(content)
    return digest.hexdigest()


def _same_record(a: Record, b: Record) -> bool:
    """Whether ``a`` and ``b`` have one id and the same fields, in the same
    order and of the same types: whether a model is asked the same about
    them.  A record a filter passed on is the object it was given."""
    return a is b or (a.id == b.id and canonical_fields_json(a.fields)
                      == canonical_fields_json(b.fields))


def sampled_answers(pplan: PhysicalPlan, ctx: Context, sample_size: int, backend
                    ) -> dict[tuple[int, str], SampledAnswers]:
    """The answers the sampler kept at ``pplan``'s own (position, model)
    pairs, asked on ``backend`` about the first ``sample_size`` records."""
    records = list(itertools.islice(context_iterate(ctx), sample_size))
    answers: dict[tuple[int, str], SampledAnswers] = {}
    for idx, op in enumerate(pplan.ops):
        if not isinstance(op.logical, (SemFilter, SemMap)):
            continue
        model = op.model
        pop = PhysicalOp(logical=op.logical, model=model, retry_budget=0)
        seen = answers[(idx, model.model_id)] = {}
        for record in records:
            try:
                got, _, _ = semantic_answer(backend, pop, record)
            except OperatorError:
                continue
            seen[record.id] = (record, got)
    return answers


def _semantic_stage(answers: Mapping[tuple[int, str], SampledAnswers],
                    run, i: int, pop: PhysicalOp, upstream: Iterator[Record],
                    row: OpReport) -> Iterator[Record]:
    """Run a sem_filter or sem_map over ``upstream``, inline without a pool,
    else on the pool within the stage's window.

    A record the plan's sampled answers hold with the same fields is
    answered from them with no call; failing that, a prompt the answer log
    holds is.  Either counts in ``row.reused``.
    """
    operator_id = f"{run.plan.plan_id}#op{i}"
    sampled = answers.get((i, pop.model.model_id), {})  # reference: not the plan's
    lock = threading.Lock()

    def work(record: Record):
        # (output record or None when a filter rejects, error); usage is
        # added to ``row`` here, where the call completes
        out, error, usage, calls = None, None, _NO_USAGE, 0
        sample = sampled.get(record.id)
        try:
            if sample is not None and _same_record(sample[0], record):
                answer = sample[1]
            else:
                answer, usage, calls = semantic_answer(run.backend, pop, record, run.log)
            out = _answer_output(pop.logical, record, answer, operator_id)
        except OperatorError as exc:
            usage, calls, error = (Usage(exc.input_tokens, exc.output_tokens),
                                   exc.calls, exc)
        with lock:
            row.reused += not calls  # a failure made at least one call
            row.calls += calls
            row.input_tokens += usage.input_tokens
            row.output_tokens += usage.output_tokens
            row.failures += error is not None
        return out, error

    results = (map(work, upstream) if run.pool is None
               else run.windows[i].run(work, upstream, run.pool))
    for out, error in results:
        if error is not None:
            run.fail(error)
        elif out is not None:
            yield out


def stages(answers: Mapping[tuple[int, str], SampledAnswers]) -> dict:
    """``engine._STAGES`` with the record-keyed semantic stage over ``answers``."""
    stage = functools.partial(_semantic_stage, answers)
    return {**engine._STAGES, SemFilter: stage, SemMap: stage}
