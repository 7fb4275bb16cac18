"""Cost-based plan selection: sampling, search, estimation, choice.

Estimates propagate cardinality through the plan: a filter scales downstream
cardinality by its observed selectivity, each semantic operator charges its
per-record cost on the records reaching it, latency divides across the
worker pool, and plan quality is the product of per-operator quality.

``optimize`` chooses among the ``len(models) ** n`` model assignments of a
plan's n semantic operators without binding them all.  A left-to-right
dynamic program extends every surviving partial assignment by every model,
one semantic position at a time, and drops a partial assignment when another
one is no worse on cost, latency, quality and output cardinality.  Every
statistic is non-negative and every step is monotone in floating point, so
the dropped one's extensions never beat the same extensions of the one that
dropped it; they can at most tie it, after rounding or through a zero cost,
weight or quality.  Only the surviving full assignments (the frontier) are
bound and estimated, plus any dropped assignment whose policy key ties the
frontier's best exactly, so ``choose_plan`` makes the same choice, down to
the plan-id tie-break, as it makes over ``enumerate_physical_plans``.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .backend import ModelSpec, Usage, call_cost
from .core import Context, context_iterate
from .engine import (PhysicalPlan, RunPolicy, bind_plan, sem_filter_execute,
                     sem_map_execute)
from .errors import (EstimationError, OperatorError, PolicyInfeasibleError,
                     StatsError, ValidationError)
from .lang import (Limit, LogicalOp, LogicalPlan, SemFilter, is_agentic,
                   is_semantic)

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


def _require_catalog(positions: Sequence[int], models: Sequence[ModelSpec]) -> None:
    if positions and not models:
        raise ValidationError("cannot enumerate plans with an empty catalog")


def enumerate_physical_plans(plan: LogicalPlan,
                             models: Sequence[ModelSpec]) -> list[PhysicalPlan]:
    """All model assignments over the plan's semantic positions, in the
    deterministic order given by the catalog order.

    ``optimize`` no longer calls this; it is the brute-force reference the
    frontier search is tested against.
    """
    positions = semantic_positions(plan)
    _require_catalog(positions, models)
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


def _charge(op: LogicalOp, entry: StatsEntry, card: float,
            pool_width: int) -> tuple[float, float]:
    """Cost and latency of one semantic operator reached by ``card`` records."""
    if is_agentic(op):
        return entry.cost_per_record, entry.latency_per_record  # charged once per run
    return card * entry.cost_per_record, card * entry.latency_per_record / pool_width


def _card_out(op: LogicalOp, entry: StatsEntry, card: float) -> float:
    if isinstance(op, SemFilter):
        return card * (entry.selectivity if entry.selectivity is not None else 1.0)
    return card


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
        if isinstance(op, Limit):
            card = min(card, float(op.count))
            continue
        if not is_semantic(op):
            continue
        entry = stats.get(i, pop.model.model_id)
        op_cost, op_latency = _charge(op, entry, card, pool_width)
        cost += op_cost
        latency += op_latency
        quality *= entry.quality
        per_op.append(OpEstimate(index=i, cardinality_in=card, cost=op_cost,
                                 latency=op_latency, quality=entry.quality))
        card = _card_out(op, entry, card)
    return CostEstimate(cost=cost, latency=latency, quality=quality,
                        per_op=tuple(per_op))


# --- frontier search -----------------------------------------------------------

@dataclass(frozen=True)
class _Step:
    """One semantic position: its operator, the limits applied since the
    previous semantic position, and its statistics under each catalog model."""

    op: LogicalOp
    limits: tuple[int, ...]
    entries: tuple[StatsEntry, ...]


@dataclass(eq=False)
class _Partial:
    """A model (as a catalog index) for each of the first ``len(self.models)``
    semantic positions, and the estimate accumulated over them with the same
    float operations, in the same order, as ``estimate``."""

    models: tuple[int, ...]
    cost: float
    latency: float
    quality: float
    card: float
    parent: _Partial | None
    pruned: list[_Partial] = field(default_factory=list)  # the ones it dropped

    def extend(self, step: _Step, m: int, pool_width: int) -> _Partial:
        card = self.card
        for count in step.limits:
            card = min(card, float(count))
        entry = step.entries[m]
        op_cost, op_latency = _charge(step.op, entry, card, pool_width)
        return _Partial(self.models + (m,), self.cost + op_cost,
                        self.latency + op_latency, self.quality * entry.quality,
                        _card_out(step.op, entry, card), self)

    def dominates(self, other: _Partial, with_card: bool) -> bool:
        return (self.cost <= other.cost and self.latency <= other.latency
                and self.quality >= other.quality
                and (not with_card or self.card <= other.card))


def _steps(plan: LogicalPlan, stats: OperatorStats,
           models: Sequence[ModelSpec]) -> list[_Step]:
    steps, limits = [], []
    for i, op in enumerate(plan.ops):
        if isinstance(op, Limit):
            limits.append(op.count)
        elif is_semantic(op):
            steps.append(_Step(op, tuple(limits),
                               tuple(stats.get(i, m.model_id) for m in models)))
            limits = []
    return steps


def _prune(grown: list[_Partial], with_card: bool) -> list[_Partial]:
    """The partials no other one dominates.  Each dropped partial is filed
    under a survivor that dominates it; of equal partials the first in
    catalog order survives."""
    survivors: list[_Partial] = []
    # a partial sorts after every partial that dominates it, except an equal one
    for p in sorted(grown, key=lambda p: (p.cost, p.latency, -p.quality,
                                          p.card if with_card else 0.0, p.models)):
        for s in survivors:
            if s.dominates(p, with_card):
                s.pruned.append(p)
                break
        else:
            survivors.append(p)
    return survivors


def _frontier(steps: list[_Step], n_models: int, input_cardinality: int,
              pool_width: int) -> list[_Partial]:
    """Full assignments no other full assignment dominates.  Output
    cardinality only matters while a semantic position remains."""
    layer = [_Partial((), 0.0, 0.0, 1.0, float(input_cardinality), None)]
    for depth, step in enumerate(steps):
        grown = [p.extend(step, m, pool_width) for p in layer for m in range(n_models)]
        layer = _prune(grown, with_card=depth < len(steps) - 1)
    return layer


def _ties(leaves: list[_Partial], steps: list[_Step], pool_width: int,
          feasible, key, target) -> list[tuple[int, ...]]:
    """Dropped full assignments whose estimate is feasible with ``key`` equal
    to ``target``, given the frontier ``leaves`` that reach it.

    A dropped plan is no better than its dominator followed by the same
    models, so it reaches ``target`` only if that plan does too.  Walking
    back from the leaves that reach it, through the partials each of their
    prefixes dropped, therefore finds every plan that does.
    """
    found: list[tuple[int, ...]] = []
    todo = [(leaf.models, leaf) for leaf in leaves]
    while todo:
        full, node = todo.pop()
        while node is not None:
            depth = len(node.models)
            for dropped in node.pruned:
                tail = dropped
                for step, m in zip(steps[depth:], full[depth:]):
                    tail = tail.extend(step, m, pool_width)
                est = CostEstimate(cost=tail.cost, latency=tail.latency,
                                   quality=tail.quality)
                if feasible(est) and key(est) == target:
                    found.append(tail.models)
                    todo.append((tail.models, dropped.parent))
            node = node.parent
    return found


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


def _ranking(policy: Policy):
    """``(feasible, key)``: under ``policy``, ``choose_plan`` picks the least
    ``(key(estimate), plan_id)`` among the plans whose estimate is feasible."""
    if isinstance(policy, MinCost):
        return (lambda e: e.quality >= policy.quality_floor,
                lambda e: (e.cost, e.latency))
    if isinstance(policy, MaxQuality):
        return (lambda e: e.cost <= policy.cost_budget,
                lambda e: (-e.quality, e.cost))
    if isinstance(policy, Weighted):
        if min(policy.cost_weight, policy.latency_weight, policy.quality_weight) < 0:
            raise ValidationError("policy weights must be >= 0")
        return (lambda e: True), (lambda e: (policy.score(e),))
    raise ValidationError(f"unknown policy {policy!r}")


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
    feasible, key = _ranking(policy)
    admitted = [(p, e) for p, e in pairs if feasible(e)]
    if admitted:
        return min(admitted, key=lambda pe: (key(pe[1]), pe[0].plan_id))[0]
    if isinstance(policy, MinCost):
        best = max(pairs, key=lambda pe: pe[1].quality)
        raise PolicyInfeasibleError(
            f"no plan reaches quality floor {policy.quality_floor}; "
            f"best candidate {best[0].plan_id} has quality {best[1].quality:.4f}")
    best = min(pairs, key=lambda pe: pe[1].cost)
    raise PolicyInfeasibleError(
        f"no plan fits cost budget {policy.cost_budget}; cheapest "
        f"candidate {best[0].plan_id} costs {best[1].cost:.6f}")


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
    """What ``optimize`` weighed: one row per frontier plan (plus any dropped
    plan that tied the best one under the policy), each with its estimate,
    out of ``plans_considered`` model assignments."""

    logical_plan_id: str
    pipeline_text: str
    policy: str
    sample_size: int
    input_cardinality: int
    stats: dict
    candidates: list[dict]
    chosen_plan_id: str
    plans_considered: int

    def to_dict(self) -> dict:
        return {
            "logical_plan_id": self.logical_plan_id,
            "pipeline": self.pipeline_text,
            "policy": self.policy,
            "sample_size": self.sample_size,
            "input_cardinality": self.input_cardinality,
            "stats": self.stats,
            "plans_considered": self.plans_considered,
            "candidates": self.candidates,
            "chosen_plan_id": self.chosen_plan_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render_text(self) -> str:
        lines = [
            f"optimizing {self.logical_plan_id} under {self.policy} "
            f"(sample={self.sample_size}, N={self.input_cardinality})",
            f"{len(self.candidates)} frontier plans of "
            f"{self.plans_considered} model assignments",
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


def _search(plan: LogicalPlan, stats: OperatorStats, models: Sequence[ModelSpec],
            input_cardinality: int, pool_width: int, policy: Policy
            ) -> tuple[list[PhysicalPlan], list[CostEstimate]]:
    """The frontier plans, plus every dropped plan whose policy key equals
    the best feasible frontier plan's, bound and estimated, in the order
    ``enumerate_physical_plans`` would list them."""
    positions = semantic_positions(plan)
    _require_catalog(positions, models)
    steps = _steps(plan, stats, models)
    leaves = _frontier(steps, len(models), input_cardinality, pool_width)

    def bound(assignment):
        pplan = bind_plan(plan, {i: models[m] for i, m in zip(positions, assignment)})
        return pplan, estimate(pplan, stats, input_cardinality, pool_width)

    rows = {leaf.models: bound(leaf.models) for leaf in leaves}
    feasible, key = _ranking(policy)
    keys = {a: key(e) for a, (_, e) in rows.items() if feasible(e)}
    if keys:
        target = min(keys.values())
        tied = [leaf for leaf in leaves if keys.get(leaf.models) == target]
        for assignment in _ties(tied, steps, pool_width, feasible, key, target):
            rows[assignment] = bound(assignment)
    ordered = [rows[a] for a in sorted(rows)]
    return [p for p, _ in ordered], [e for _, e in ordered]


def optimize(plan: LogicalPlan, ctx: Context, models: Sequence[ModelSpec],
             policy: Policy, sample_size: int, backend,
             labels: Mapping[int, Mapping[str, object]] | None = None,
             run_policy: RunPolicy | None = None
             ) -> tuple[PhysicalPlan, OptimizerReport]:
    """Sample (or use priors), search the frontier, estimate, and choose.

    ``sample_size=0`` takes the zero-call path: statistics come from model
    priors and nominal token counts, so planning makes no model calls.
    Latency estimates divide across ``run_policy.pool_width`` workers.  The
    chosen plan is the one ``choose_plan`` picks over all
    ``len(models) ** n`` assignments (see the module docstring).
    """
    from .lang import print_pipeline

    if sample_size >= 1:
        stats = sample_stats(plan, ctx, models, sample_size, backend, labels=labels)
    else:
        stats = prior_stats(plan, models)
    n = len(ctx.source)
    pool_width = (run_policy or RunPolicy()).pool_width
    candidates, estimates = _search(plan, stats, models, n, pool_width, policy)
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
        plans_considered=len(models) ** len(semantic_positions(plan)),
    )
    return chosen, report
