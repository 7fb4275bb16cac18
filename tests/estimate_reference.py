"""The estimate with a loop of its own, kept as the oracle for the estimate
that extends the frontier search's node (``optimizer._Partial.extend``).

Before the node's ``extend`` became the optimizer's one cost rule and its
one accumulator, ``estimate`` summed a plan's cost, latency and quality in a
loop of its own, and both it and the search charged each position by
``_charge``.  ``_charge`` and ``estimate`` below are those functions
verbatim.
"""

from semaq.engine import PhysicalPlan
from semaq.errors import ValidationError
from semaq.lang import SemFilter, is_agentic
from semaq.optimizer import CostEstimate, OperatorStats, OpEstimate, StatsEntry, _Step, _steps


def _charge(step: _Step, entry: StatsEntry, card: float,
            pool_width: int) -> tuple[float, float, float, float]:
    """The optimizer's one cost rule.  Of ``card`` records leaving the
    previous semantic position: the records that reach ``step``, its cost
    and latency there under ``entry``, and the records it passes on."""
    for count in step.limits:
        card = min(card, float(count))
    if is_agentic(step.op):  # charged once per run
        cost, latency = entry.cost_per_record, entry.latency_per_record
    else:
        cost = card * entry.cost_per_record
        latency = card * entry.latency_per_record / pool_width
    sel = entry.selectivity if isinstance(step.op, SemFilter) else None
    return card, cost, latency, card if sel is None else card * sel


def estimate(pplan: PhysicalPlan, stats: OperatorStats, input_cardinality: int,
             pool_width: int = 8) -> CostEstimate:
    """Predict cost, latency, and quality of a bound plan over N records."""
    if input_cardinality < 0:
        raise ValidationError("input cardinality must be >= 0")
    card, cost, latency, quality = float(input_cardinality), 0.0, 0.0, 1.0
    per_op: list[OpEstimate] = []
    for step in _steps(pplan.logical, stats, lambda i: (pplan.ops[i].model,)):
        entry = step.entries[0]
        card_in, op_cost, op_latency, card = _charge(step, entry, card, pool_width)
        cost += op_cost
        latency += op_latency
        quality *= entry.quality
        per_op.append(OpEstimate(index=step.index, cardinality_in=card_in, cost=op_cost,
                                 latency=op_latency, quality=entry.quality))
    return CostEstimate(cost=cost, latency=latency, quality=quality,
                        per_op=tuple(per_op))
