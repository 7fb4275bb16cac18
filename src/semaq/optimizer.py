"""Cost-based plan selection: sampling, enumeration, estimation, choice.

All semantic operator positions are enumerated over the model catalog
(cartesian product, so ``len(models) ** n`` candidates).  Estimates propagate
cardinality through the plan: a filter scales downstream cardinality by its
observed selectivity, each semantic operator charges its per-record cost on
the records reaching it, latency divides across the worker pool, and plan
quality is the product of per-operator quality.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .backend import ModelSpec, Usage, call_cost
from .core import Context, context_iterate
from .engine import (PhysicalPlan, RunPolicy, bind_plan, sem_filter_execute,
                     sem_map_execute)
from .errors import (EstimationError, OperatorError, PolicyInfeasibleError,
                     StatsError, ValidationError)
from .lang import Limit, LogicalPlan, Scan, SemFilter, SemMap, is_agentic, is_semantic

logger = logging.getLogger(__name__)

DEFAULT_SELECTIVITY = 0.5
# nominal per-call token guesses used when no sample has been taken
NOMINAL_INPUT_TOKENS = 150
NOMINAL_OUTPUT_TOKENS = {"filter": 2, "map": 40}


@dataclass(frozen=True)
class StatsEntry:
    """Observed (or prior) behavior of one operator under one model."""

    selectivity: float | None  # filters only
    quality: float
    cost_per_record: float
    latency_per_record: float
    sample_size: int


class OperatorStats:
    """Statistics keyed by (operator position, model id)."""

    def __init__(self, entries: Mapping[tuple[int, str], StatsEntry]):
        self._entries = dict(entries)

    def get(self, op_index: int, model_id: str) -> StatsEntry:
        entry = self._entries.get((op_index, model_id))
        if entry is None:
            raise EstimationError(
                f"no statistics for operator {op_index} under model {model_id!r}")
        return entry

    def items(self):
        return self._entries.items()

    def to_dict(self) -> dict:
        return {
            f"{idx}:{model_id}": {
                "selectivity": e.selectivity,
                "quality": e.quality,
                "cost_per_record": e.cost_per_record,
                "latency_per_record": e.latency_per_record,
                "sample_size": e.sample_size,
            }
            for (idx, model_id), e in sorted(self._entries.items())
        }


def semantic_positions(plan: LogicalPlan) -> list[int]:
    return [i for i, op in enumerate(plan.ops) if is_semantic(op)]


def _agentic_entry(model: ModelSpec) -> StatsEntry:
    # agentic operators are charged per run, not per record; with no sample
    # we only carry the model priors
    return StatsEntry(selectivity=None, quality=model.quality_prior,
                      cost_per_record=0.0,
                      latency_per_record=model.latency_prior, sample_size=0)


def prior_stats(plan: LogicalPlan, models: Sequence[ModelSpec],
                default_selectivity: float = DEFAULT_SELECTIVITY) -> OperatorStats:
    """Zero-call statistics from model priors and nominal token counts."""
    entries: dict[tuple[int, str], StatsEntry] = {}
    for idx in semantic_positions(plan):
        op = plan.ops[idx]
        for model in models:
            if is_agentic(op):
                entries[(idx, model.model_id)] = _agentic_entry(model)
                continue
            out_toks = NOMINAL_OUTPUT_TOKENS["filter" if isinstance(op, SemFilter) else "map"]
            cost = call_cost(model, Usage(NOMINAL_INPUT_TOKENS, out_toks))
            entries[(idx, model.model_id)] = StatsEntry(
                selectivity=default_selectivity if isinstance(op, SemFilter) else None,
                quality=model.quality_prior,
                cost_per_record=cost,
                latency_per_record=model.latency_prior,
                sample_size=0,
            )
    return OperatorStats(entries)


def sample_stats(plan: LogicalPlan, ctx: Context, models: Sequence[ModelSpec],
                 sample_size: int, backend,
                 labels: Mapping[int, Mapping[str, object]] | None = None
                 ) -> OperatorStats:
    """Measure selectivity, cost, and latency on a uniform sample.

    Each semantic operator runs over the first ``min(sample_size, N)`` source
    records under every candidate model.  Quality is the model's prior
    unless ``labels`` supplies per-record truth for an operator position, in
    which case it is the observed agreement on the sample.
    """
    if sample_size < 1:
        raise ValidationError("sample_size must be >= 1")
    records = list(itertools.islice(context_iterate(ctx), sample_size))
    if not records:
        raise StatsError(f"context {ctx.id} yields no records to sample")

    entries: dict[tuple[int, str], StatsEntry] = {}
    for idx in semantic_positions(plan):
        op = plan.ops[idx]
        op_labels = (labels or {}).get(idx)
        for model in models:
            if is_agentic(op):
                entries[(idx, model.model_id)] = _agentic_entry(model)
                continue
            before = backend.ledger.snapshot().for_model(model.model_id)
            passes = 0
            agreements = 0
            for record in records:
                try:
                    if isinstance(op, SemFilter):
                        verdict, _, _ = sem_filter_execute(
                            backend, model, record, op.predicate, retry_budget=0)
                        if verdict:
                            passes += 1
                        if op_labels is not None and op_labels.get(record.id) == verdict:
                            agreements += 1
                    else:
                        merged, _, _ = sem_map_execute(
                            backend, model, record, op.instruction,
                            op.output_fields, f"sample#{idx}", retry_budget=0)
                        if op_labels is not None:
                            expected = op_labels.get(record.id)
                            got = {name: merged.fields.get(name)
                                   for name, _ in op.output_fields}
                            if expected == got:
                                agreements += 1
                except OperatorError as exc:
                    logger.warning("sampling failure at op %d model %s: %s",
                                   idx, model.model_id, exc)
            after = backend.ledger.snapshot().for_model(model.model_id)
            n = len(records)
            quality = (agreements / n) if op_labels is not None else model.quality_prior
            entries[(idx, model.model_id)] = StatsEntry(
                selectivity=(passes / n) if isinstance(op, SemFilter) else None,
                quality=quality,
                cost_per_record=(after.cost - before.cost) / n,
                latency_per_record=(after.wall_seconds - before.wall_seconds) / n,
                sample_size=n,
            )
    return OperatorStats(entries)


def enumerate_physical_plans(plan: LogicalPlan,
                             models: Sequence[ModelSpec]) -> list[PhysicalPlan]:
    """All model assignments over the plan's semantic positions, in the
    deterministic order given by the catalog order."""
    positions = semantic_positions(plan)
    if positions and not models:
        raise ValidationError("cannot enumerate plans with an empty catalog")
    candidates = []
    for assignment in itertools.product(models, repeat=len(positions)):
        candidates.append(bind_plan(plan, dict(zip(positions, assignment))))
    return candidates


@dataclass(frozen=True)
class OpEstimate:
    index: int
    cardinality_in: float
    cost: float
    latency: float
    quality: float


@dataclass(frozen=True)
class CostEstimate:
    cost: float
    latency: float
    quality: float
    per_op: tuple[OpEstimate, ...] = ()

    def to_dict(self) -> dict:
        return {"cost": self.cost, "latency": self.latency, "quality": self.quality}


def estimate(pplan: PhysicalPlan, stats: OperatorStats, input_cardinality: int,
             pool_width: int = 8) -> CostEstimate:
    """Predict cost, latency, and quality of a bound plan over N records."""
    if input_cardinality < 0:
        raise ValidationError("input cardinality must be >= 0")
    card = float(input_cardinality)
    cost = 0.0
    latency = 0.0
    quality = 1.0
    per_op: list[OpEstimate] = []
    for i, pop in enumerate(pplan.ops):
        op = pop.logical
        if isinstance(op, Scan):
            continue
        if isinstance(op, Limit):
            card = min(card, float(op.count))
            continue
        if not is_semantic(op):
            continue
        entry = stats.get(i, pop.model.model_id)
        if is_agentic(op):
            op_cost = entry.cost_per_record  # charged once per run
            op_latency = entry.latency_per_record
        else:
            op_cost = card * entry.cost_per_record
            op_latency = card * entry.latency_per_record / pool_width
        cost += op_cost
        latency += op_latency
        quality *= entry.quality
        per_op.append(OpEstimate(index=i, cardinality_in=card, cost=op_cost,
                                 latency=op_latency, quality=entry.quality))
        if isinstance(op, SemFilter):
            card *= entry.selectivity if entry.selectivity is not None else 1.0
    return CostEstimate(cost=cost, latency=latency, quality=quality,
                        per_op=tuple(per_op))


# --- policies -----------------------------------------------------------------

@dataclass(frozen=True)
class MinCost:
    """Cheapest plan whose estimated quality is at least the floor."""

    quality_floor: float

    def describe(self) -> str:
        return f"min-cost(quality >= {self.quality_floor})"


@dataclass(frozen=True)
class MaxQuality:
    """Best-quality plan whose estimated cost fits the budget."""

    cost_budget: float

    def describe(self) -> str:
        return f"max-quality(cost <= {self.cost_budget})"


@dataclass(frozen=True)
class Weighted:
    """Minimize cost_weight*cost + latency_weight*latency + quality_weight*(1-quality)."""

    cost_weight: float
    latency_weight: float
    quality_weight: float

    def describe(self) -> str:
        return (f"weighted(cost={self.cost_weight}, latency={self.latency_weight}, "
                f"quality={self.quality_weight})")

    def score(self, est: CostEstimate) -> float:
        return (self.cost_weight * est.cost + self.latency_weight * est.latency
                + self.quality_weight * (1.0 - est.quality))


Policy = MinCost | MaxQuality | Weighted


def choose_plan(candidates: Sequence[PhysicalPlan],
                estimates: Sequence[CostEstimate], policy: Policy) -> PhysicalPlan:
    """Pick the winner under ``policy``.

    Ties break deterministically: MinCost prefers lower latency then lower
    plan id; MaxQuality prefers lower cost then lower plan id; Weighted
    prefers lower plan id.
    """
    if not candidates:
        raise ValidationError("no candidate plans")
    if len(candidates) != len(estimates):
        raise ValidationError("candidates and estimates must align")
    pairs = list(zip(candidates, estimates))

    if isinstance(policy, MinCost):
        feasible = [(p, e) for p, e in pairs if e.quality >= policy.quality_floor]
        if not feasible:
            best = max(pairs, key=lambda pe: pe[1].quality)
            raise PolicyInfeasibleError(
                f"no plan reaches quality floor {policy.quality_floor}; "
                f"best candidate {best[0].plan_id} has quality {best[1].quality:.4f}")
        return min(feasible, key=lambda pe: (pe[1].cost, pe[1].latency, pe[0].plan_id))[0]

    if isinstance(policy, MaxQuality):
        feasible = [(p, e) for p, e in pairs if e.cost <= policy.cost_budget]
        if not feasible:
            best = min(pairs, key=lambda pe: pe[1].cost)
            raise PolicyInfeasibleError(
                f"no plan fits cost budget {policy.cost_budget}; cheapest "
                f"candidate {best[0].plan_id} costs {best[1].cost:.6f}")
        return min(feasible, key=lambda pe: (-pe[1].quality, pe[1].cost, pe[0].plan_id))[0]

    if isinstance(policy, Weighted):
        if min(policy.cost_weight, policy.latency_weight, policy.quality_weight) < 0:
            raise ValidationError("policy weights must be >= 0")
        return min(pairs, key=lambda pe: (policy.score(pe[1]), pe[0].plan_id))[0]

    raise ValidationError(f"unknown policy {policy!r}")


def parse_policy(doc) -> Policy:
    """Policy from config: {"kind": "min_cost", "quality_floor": 0.8} etc."""
    if isinstance(doc, (MinCost, MaxQuality, Weighted)):
        return doc
    if not isinstance(doc, Mapping):
        raise ValidationError(f"policy must be a mapping, got {doc!r}")
    kind = doc.get("kind")
    try:
        if kind == "min_cost":
            return MinCost(quality_floor=float(doc["quality_floor"]))
        if kind == "max_quality":
            return MaxQuality(cost_budget=float(doc["cost_budget"]))
        if kind == "weighted":
            return Weighted(cost_weight=float(doc["cost_weight"]),
                            latency_weight=float(doc["latency_weight"]),
                            quality_weight=float(doc["quality_weight"]))
    except KeyError as exc:
        raise ValidationError(f"policy missing key: {exc}") from exc
    raise ValidationError(f"unknown policy kind {kind!r}")


@dataclass
class OptimizerReport:
    logical_plan_id: str
    pipeline_text: str
    policy: str
    sample_size: int
    input_cardinality: int
    stats: dict
    candidates: list[dict]
    chosen_plan_id: str

    def to_dict(self) -> dict:
        return {
            "logical_plan_id": self.logical_plan_id,
            "pipeline": self.pipeline_text,
            "policy": self.policy,
            "sample_size": self.sample_size,
            "input_cardinality": self.input_cardinality,
            "stats": self.stats,
            "candidates": self.candidates,
            "chosen_plan_id": self.chosen_plan_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render_text(self) -> str:
        lines = [
            f"optimizing {self.logical_plan_id} under {self.policy} "
            f"(sample={self.sample_size}, N={self.input_cardinality})",
            f"{'plan':<16} {'models':<40} {'cost':>10} {'latency':>9} {'quality':>8}",
        ]
        for row in self.candidates:
            marker = "*" if row["plan_id"] == self.chosen_plan_id else " "
            models = ",".join(f"{k}={v}" for k, v in sorted(row["models"].items()))
            lines.append(
                f"{marker}{row['plan_id']:<15} {models:<40} "
                f"{row['cost']:>10.6f} {row['latency']:>9.3f} {row['quality']:>8.4f}")
        lines.append(f"chosen: {self.chosen_plan_id}")
        return "\n".join(lines)


def optimize(plan: LogicalPlan, ctx: Context, models: Sequence[ModelSpec],
             policy: Policy, sample_size: int, backend,
             labels: Mapping[int, Mapping[str, object]] | None = None,
             run_policy: RunPolicy | None = None
             ) -> tuple[PhysicalPlan, OptimizerReport]:
    """Sample (or use priors), enumerate, estimate, and choose.

    ``sample_size=0`` takes the zero-call path: statistics come from model
    priors and nominal token counts, so planning makes no model calls.
    Latency estimates divide across ``run_policy.pool_width`` workers.
    """
    from .lang import print_pipeline

    if sample_size >= 1:
        stats = sample_stats(plan, ctx, models, sample_size, backend, labels=labels)
    else:
        stats = prior_stats(plan, models)
    n = len(ctx.source)
    pool_width = (run_policy or RunPolicy()).pool_width
    candidates = enumerate_physical_plans(plan, models)
    estimates = [estimate(c, stats, n, pool_width) for c in candidates]
    chosen = choose_plan(candidates, estimates, policy)
    report = OptimizerReport(
        logical_plan_id=plan.plan_id,
        pipeline_text=print_pipeline(plan),
        policy=policy.describe(),
        sample_size=sample_size,
        input_cardinality=n,
        stats=stats.to_dict(),
        candidates=[
            {
                "plan_id": c.plan_id,
                "models": {str(i): m for i, m in c.model_assignment().items()},
                "cost": e.cost,
                "latency": e.latency,
                "quality": e.quality,
            }
            for c, e in zip(candidates, estimates)
        ],
        chosen_plan_id=chosen.plan_id,
    )
    return chosen, report
