"""The sampler with a loop of its own, kept as the oracle for the sampler
that asks through the engine's per-record ask (``engine._Run.ask``).

Before the engine's ask served it, ``sample_stats`` called
``semantic_answer`` itself for each (position, model, record), caught the
``OperatorError`` of a reply that never parsed, summed the returned tokens
and calls per pair, and priced the sums by a copy of the rule that prices a
report row.  ``sample_stats`` below is that function verbatim.
"""

import itertools
import logging
from typing import Mapping, Sequence

from semaq.backend import ModelSpec, Usage, backend_fingerprint, call_cost
from semaq.core import Context, context_iterate
from semaq.engine import PhysicalOp, _AnswerLog, semantic_answer
from semaq.errors import OperatorError, StatsError, ValidationError
from semaq.lang import LogicalOp, LogicalPlan, SemFilter
from semaq.optimizer import OperatorStats, StatsEntry, _entries

logger = logging.getLogger(__name__)


def sample_stats(plan: LogicalPlan, ctx: Context, models: Sequence[ModelSpec],
                 sample_size: int, backend,
                 labels: Mapping[int, Mapping[str, object]] | None = None
                 ) -> OperatorStats:
    """Measure selectivity, cost, and latency on a uniform sample.

    Each semantic operator runs over the first ``min(sample_size, N)`` source
    records under every candidate model.  Quality is the model's prior
    unless ``labels`` supplies per-record truth for an operator position, in
    which case it is the observed agreement on the sample.  Each (position,
    model) pair asks through an empty answer log of its own, with no store;
    the result's ``answers`` keeps what every call that succeeded got, and
    not a failed one (sampling allows no re-ask).

    A pair's cost and latency per record come from its own calls: the usage
    and calls each one returns, a failed one's included, priced by the rule
    that prices a report row, ``call_cost`` of the summed tokens and
    ``calls * latency_prior``.  So sampled latency is modeled on every
    backend, and the statistics do not depend on what else the backend
    served before or meanwhile.
    """
    if sample_size < 1:
        raise ValidationError("sample_size must be >= 1")
    records = list(itertools.islice(context_iterate(ctx), sample_size))
    if not records:
        raise StatsError(f"context {ctx.id} yields no records to sample")

    answers: dict[tuple[int, str], dict[tuple[str, str], bool | dict]] = {}
    calls: dict[tuple[int, str], int] = {}

    def measure(idx: int, op: LogicalOp, model: ModelSpec) -> StatsEntry:
        op_labels = (labels or {}).get(idx)
        pop = PhysicalOp(logical=op, model=model, retry_budget=0)
        passes = agreements = in_toks = out_toks = made = 0
        log = _AnswerLog(None, backend_fingerprint(backend) or "")
        for record in records:
            try:
                got, usage, n_calls = semantic_answer(backend, pop, record, log)
            except OperatorError as exc:
                logger.warning("sampling failure at op %d model %s: %s",
                               idx, model.model_id, exc)
                usage, n_calls = Usage(exc.input_tokens, exc.output_tokens), exc.calls
            else:
                passes += got is True
                agreements += op_labels is not None and op_labels.get(record.id) == got
            in_toks += usage.input_tokens
            out_toks += usage.output_tokens
            made += n_calls
        answers[(idx, model.model_id)] = {(a.model, a.prompt): a.answer for a in log.new}
        calls[(idx, model.model_id)] = made
        n = len(records)
        return StatsEntry(
            selectivity=(passes / n) if isinstance(op, SemFilter) else None,
            quality=(agreements / n) if op_labels is not None else model.quality_prior,
            cost_per_record=call_cost(model, Usage(in_toks, out_toks)) / n,
            latency_per_record=made * model.latency_prior / n,
            sample_size=n,
        )
    return OperatorStats(_entries(plan, models, measure), answers, sum(calls.values()))
