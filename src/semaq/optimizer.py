"""Cost-based plan selection: sampling, search, estimation, choice.

Estimates propagate cardinality through the plan under one cost model, the
search node's ``extend``, which is also the one accumulator: ``estimate``
extends one node along a bound plan's models, and the search extends nodes
by every model.  A limit caps the records reaching a semantic operator, the
operator charges its per-record cost on them (an agentic one once per run),
latency divides across the worker pool, and a filter scales the records it
passes on by its observed selectivity.  Plan quality is the product of
per-operator quality.  Each node keeps its own position's figures, so a
node's per-operator estimate is one walk up its chain.

``optimize`` chooses among the ``len(models) ** n`` model assignments of a
plan's n semantic operators without binding them all.  A left-to-right
dynamic program extends every surviving partial assignment by every model,
one semantic position at a time, and drops a partial assignment when another
one is no worse on cost, latency, quality and output cardinality.  Every
statistic is non-negative and every step is monotone in floating point, so
the dropped one's extensions never beat the same extensions of the one that
dropped it; they can at most tie it, after rounding or through a zero cost,
weight or quality.  Only the surviving full assignments (the frontier) are
bound, each with the estimate its node holds, plus any dropped assignment
whose policy key ties the frontier's best exactly, so ``choose_plan`` makes
the same choice, down to the plan-id tie-break, as it makes over
``enumerate_physical_plans``.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

from .backend import ModelSpec, Usage, backend_fingerprint, call_cost
from .core import Context, context_iterate, json_value
from .engine import (OpReport, PhysicalOp, PhysicalPlan, RunPolicy, _AnswerLog, _price,
                     _Run, bind_plan)
from .errors import EstimationError, PolicyInfeasibleError, StatsError, ValidationError
from .lang import (Limit, LogicalOp, LogicalPlan, SemFilter, describe_op, is_agentic,
                   is_semantic, print_pipeline)

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
    """Statistics keyed by (operator position, model id), plus what sampling
    got at each pair (``answers``, keyed as in PhysicalPlan) and its ``calls``."""

    def __init__(self, entries: Mapping[tuple[int, str], StatsEntry],
                 answers: Mapping[tuple[int, str], dict] | None = None, calls: int = 0):
        self._entries = dict(entries)
        self.answers = dict(answers or {})
        self.calls = calls

    def get(self, op_index: int, model_id: str) -> StatsEntry:
        entry = self._entries.get((op_index, model_id))
        if entry is None:
            raise EstimationError(
                f"no statistics for operator {op_index} under model {model_id!r}")
        return entry

    def items(self):
        return self._entries.items()

    def to_dict(self) -> dict:
        return {f"{idx}:{model_id}": asdict(e)
                for (idx, model_id), e in sorted(self._entries.items())}


def semantic_positions(plan: LogicalPlan) -> list[int]:
    return [i for i, op in enumerate(plan.ops) if is_semantic(op)]


def _entries(plan: LogicalPlan, models: Sequence[ModelSpec], measure) -> dict:
    """An entry for every (semantic position, model): ``measure(idx, op,
    model)`` for a per-record operator; an agentic one is charged per run,
    not per record, so with no sample it carries only the model priors."""
    entries: dict[tuple[int, str], StatsEntry] = {}
    for idx in semantic_positions(plan):
        op = plan.ops[idx]
        for model in models:
            entries[(idx, model.model_id)] = (
                StatsEntry(selectivity=None, quality=model.quality_prior,
                           cost_per_record=0.0,
                           latency_per_record=model.latency_prior, sample_size=0)
                if is_agentic(op) else measure(idx, op, model))
    return entries


def prior_stats(plan: LogicalPlan, models: Sequence[ModelSpec]) -> OperatorStats:
    """Zero-call statistics from model priors and nominal token counts."""
    def prior(idx: int, op: LogicalOp, model: ModelSpec) -> StatsEntry:
        out_toks = NOMINAL_OUTPUT_TOKENS["filter" if isinstance(op, SemFilter) else "map"]
        return StatsEntry(
            selectivity=DEFAULT_SELECTIVITY if isinstance(op, SemFilter) else None,
            quality=model.quality_prior,
            cost_per_record=call_cost(model, Usage(NOMINAL_INPUT_TOKENS, out_toks)),
            latency_per_record=model.latency_prior,
            sample_size=0,
        )
    return OperatorStats(_entries(plan, models, prior))


def sample_stats(plan: LogicalPlan, ctx: Context, models: Sequence[ModelSpec],
                 sample_size: int, backend,
                 labels: Mapping[int, Mapping[str, object]] | None = None
                 ) -> OperatorStats:
    """Measure selectivity, cost, and latency on a uniform sample.

    Each semantic operator runs over the first ``min(sample_size, N)`` source
    records under every candidate model.  Quality is the model's prior
    unless ``labels`` supplies per-record truth for an operator position, in
    which case it is the observed agreement on the sample.

    A (position, model) pair asks as a run's stage does, by the engine's one
    per-record ask (``_Run.ask``) through an empty answer log of its own with
    no store, into a row of its own priced by the engine's one rule
    (``_price``), failed asks included; no output record is built.  So
    sampled latency is modeled on every backend, and the statistics do not
    depend on what else the backend served.  ``answers`` keeps what each
    call that succeeded got (sampling allows no re-ask).
    """
    if sample_size < 1:
        raise ValidationError("sample_size must be >= 1")
    # min: islice takes no stop past sys.maxsize
    records = list(itertools.islice(context_iterate(ctx),
                                    min(sample_size, len(ctx.source))))
    if not records:
        raise StatsError(f"context {ctx.id} yields no records to sample")

    answers: dict[tuple[int, str], dict[tuple[str, str], bool | dict]] = {}
    calls: dict[tuple[int, str], int] = {}

    def measure(idx: int, op: LogicalOp, model: ModelSpec) -> StatsEntry:
        op_labels = (labels or {}).get(idx)
        pop = PhysicalOp(logical=op, model=model, retry_budget=0)
        run = _Run(backend, _AnswerLog(None, backend_fingerprint(backend) or ""))
        row = OpReport(idx, *describe_op(op), model.model_id)
        passes = agreements = 0
        for record in records:
            got, error = run.ask(pop, record, row)
            if error is not None:
                logger.warning("sampling failure at op %d model %s: %s",
                               idx, model.model_id, error)
                continue
            passes += got is True
            agreements += op_labels is not None and op_labels.get(record.id) == got
        answers[(idx, model.model_id)] = {(a.model, a.prompt): a.answer
                                          for a in run.log.new}
        calls[(idx, model.model_id)] = row.calls
        n = len(records)
        _price(model, row)
        return StatsEntry(
            selectivity=(passes / n) if isinstance(op, SemFilter) else None,
            quality=(agreements / n) if op_labels is not None else model.quality_prior,
            cost_per_record=row.cost / n,
            latency_per_record=row.wall_seconds / n,
            sample_size=n,
        )
    return OperatorStats(_entries(plan, models, measure), answers, sum(calls.values()))


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
    return [bind_plan(plan, dict(zip(positions, assignment)))
            for assignment in itertools.product(models, repeat=len(positions))]


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


@dataclass(frozen=True)
class _Step:
    """A semantic position: its index and operator, the limits applied since
    the previous one, and its statistics under each model that may run there."""

    index: int
    op: LogicalOp
    limits: tuple[int, ...]
    entries: tuple[StatsEntry, ...]


def _steps(plan: LogicalPlan, stats: OperatorStats, models_at) -> list[_Step]:
    """The plan's semantic positions, each with the entries of the models
    ``models_at(index)`` lists for it."""
    steps, limits = [], []
    for i, op in enumerate(plan.ops):
        if isinstance(op, Limit):
            limits.append(op.count)
        elif is_semantic(op):
            steps.append(_Step(i, op, tuple(limits),
                               tuple(stats.get(i, m.model_id) for m in models_at(i))))
            limits = []
    return steps


def estimate(pplan: PhysicalPlan, stats: OperatorStats, input_cardinality: int,
             pool_width: int = RunPolicy.pool_width) -> CostEstimate:
    """Predict cost, latency, and quality of a bound plan over N records."""
    if input_cardinality < 0:
        raise ValidationError("input cardinality must be >= 0")
    RunPolicy(pool_width=pool_width)  # a width a run can have
    node = _Partial((), 0.0, 0.0, 1.0, float(input_cardinality))
    for step in _steps(pplan.logical, stats, lambda i: (pplan.ops[i].model,)):
        node = node.extend(step, 0, pool_width)
    return CostEstimate(node.cost, node.latency, node.quality, node.per_op())


# --- frontier search -----------------------------------------------------------

class _Partial:
    """A search node: a model (as a catalog index) for each of the first
    ``len(self.models)`` semantic positions, the estimate accumulated over
    them, and the last position's own figures (``op``: index, records in,
    cost, latency, quality).  ``extend`` is the optimizer's one cost rule
    and its one accumulator."""

    __slots__ = ("models", "cost", "latency", "quality", "card", "parent", "op", "pruned")

    def __init__(self, models: tuple[int, ...], cost: float, latency: float,
                 quality: float, card: float, parent: _Partial | None = None,
                 op: tuple[int, float, float, float, float] | None = None):
        self.models, self.cost, self.latency, self.quality = models, cost, latency, quality
        self.card, self.parent, self.op = card, parent, op
        self.pruned: list[_Partial] = []  # the ones it dropped

    def extend(self, step: _Step, m: int, pool_width: int) -> _Partial:
        """This node followed by model ``m`` at ``step``, charged on the
        records that reach ``step`` after its limits."""
        entry, card = step.entries[m], self.card
        for count in step.limits:
            card = min(card, float(count))
        if is_agentic(step.op):  # charged once per run
            cost, latency = entry.cost_per_record, entry.latency_per_record
        else:
            cost = card * entry.cost_per_record
            latency = card * entry.latency_per_record / pool_width
        sel = entry.selectivity if isinstance(step.op, SemFilter) else None
        return _Partial(self.models + (m,), self.cost + cost, self.latency + latency,
                        self.quality * entry.quality, card if sel is None else card * sel,
                        self, (step.index, card, cost, latency, entry.quality))

    def estimate(self) -> CostEstimate:
        return CostEstimate(cost=self.cost, latency=self.latency, quality=self.quality)

    def per_op(self) -> tuple[OpEstimate, ...]:
        """Each position's own figures, read back up the chain."""
        ops, node = [], self
        while node.op is not None:
            ops.append(OpEstimate(*node.op))
            node = node.parent
        return tuple(reversed(ops))

    def dominates(self, other: _Partial, with_card: bool) -> bool:
        return (self.cost <= other.cost and self.latency <= other.latency
                and self.quality >= other.quality
                and (not with_card or self.card <= other.card))


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
    layer = [_Partial((), 0.0, 0.0, 1.0, float(input_cardinality))]
    for depth, step in enumerate(steps):
        grown = [p.extend(step, m, pool_width) for p in layer for m in range(n_models)]
        layer = _prune(grown, with_card=depth < len(steps) - 1)
    return layer


def _ties(leaves: list[_Partial], steps: list[_Step], pool_width: int,
          feasible, key, target) -> list[_Partial]:
    """Dropped full assignments whose estimate is feasible with ``key`` equal
    to ``target``, given the frontier ``leaves`` that reach it.

    A dropped plan is no better than its dominator followed by the same
    models, so it reaches ``target`` only if that plan does too.  Walking
    back from the leaves that reach it, through the partials each of their
    prefixes dropped, therefore finds every plan that does.
    """
    found: list[_Partial] = []
    todo = [(leaf.models, leaf) for leaf in leaves]
    while todo:
        full, node = todo.pop()
        while node is not None:
            depth = len(node.models)
            for dropped in node.pruned:
                tail = dropped
                for step, m in zip(steps[depth:], full[depth:]):
                    tail = tail.extend(step, m, pool_width)
                est = tail.estimate()
                if feasible(est) and key(est) == target:
                    found.append(tail)
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


_POLICY_KINDS = {"min_cost": MinCost, "max_quality": MaxQuality, "weighted": Weighted}


def parse_policy(doc) -> Policy:
    """Policy from config: {"kind": "min_cost", "quality_floor": 0.8} etc.;
    the numbers are the fields of the kind's class, read by ``json_value``."""
    if isinstance(doc, (MinCost, MaxQuality, Weighted)):
        return doc
    kind = json_value(doc, "kind", str, "policy", error=ValidationError)
    if kind not in _POLICY_KINDS:
        raise ValidationError(f"unknown policy kind {kind!r}")
    cls = _POLICY_KINDS[kind]
    return cls(*(json_value(doc, f.name, float, "policy", error=ValidationError)
                 for f in fields(cls)))


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
    sample_calls: int = 0  # the model calls sampling made

    def to_dict(self) -> dict:
        return {
            "logical_plan_id": self.logical_plan_id,
            "pipeline": self.pipeline_text,
            "policy": self.policy,
            "sample_size": self.sample_size,
            "sample_calls": self.sample_calls,
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
            f"sampling made {self.sample_calls} model call(s)",
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
    the best feasible frontier plan's, bound, with the estimates their
    nodes hold, in the order ``enumerate_physical_plans`` would list them."""
    _require_catalog(semantic_positions(plan), models)
    steps = _steps(plan, stats, lambda _i: models)
    leaves = _frontier(steps, len(models), input_cardinality, pool_width)
    nodes = {leaf.models: leaf for leaf in leaves}
    feasible, key = _ranking(policy)
    keys = {leaf.models: key(e) for leaf in leaves if feasible(e := leaf.estimate())}
    if keys:
        target = min(keys.values())
        tied = [leaf for leaf in leaves if keys.get(leaf.models) == target]
        for node in _ties(tied, steps, pool_width, feasible, key, target):
            nodes[node.models] = node

    def bound(node: _Partial) -> PhysicalPlan:
        return bind_plan(plan, {s.index: models[m] for s, m in zip(steps, node.models)})

    ordered = [nodes[a] for a in sorted(nodes)]
    return [bound(p) for p in ordered], [p.estimate() for p in ordered]


def optimize(plan: LogicalPlan, ctx: Context, models: Sequence[ModelSpec],
             policy: Policy, sample_size: int, backend,
             run_policy: RunPolicy | None = None
             ) -> tuple[PhysicalPlan, OptimizerReport]:
    """Sample (or use priors), search the frontier, estimate, and choose.

    ``sample_size=0`` takes the zero-call path: statistics come from model
    priors and nominal token counts, so planning makes no model calls; a
    negative ``sample_size`` raises :class:`ValidationError`.
    Latency estimates model a blocking provider, so they divide across
    ``run_policy.pool_width`` workers even for a backend run inline.  The
    chosen plan is the one ``choose_plan`` picks over all
    ``len(models) ** n`` assignments (see the module docstring), and it
    carries what sampling got at its own (position, model) pairs, so running
    it does not ask again a prompt the sample already answered.

    Sampling asks by the engine's per-record ask and prices by its one rule
    for report rows, and ``sample_calls`` is the calls the sampled rows
    counted (see :func:`sample_stats`), so both hold on any backend, with or
    without other callers.  Only whole-session reports (``ledger.json`` and
    bench outcomes) read the backend's running totals.
    """
    if sample_size < 0:
        raise ValidationError("sample_size must be >= 0")
    stats = (sample_stats(plan, ctx, models, sample_size, backend) if sample_size >= 1
             else prior_stats(plan, models))
    n = len(ctx.source)
    pool_width = (run_policy or RunPolicy()).pool_width
    candidates, estimates = _search(plan, stats, models, n, pool_width, policy)
    chosen = choose_plan(candidates, estimates, policy)
    chosen = replace(chosen, answers={
        key: answer for pair in chosen.model_assignment().items()
        for key, answer in stats.answers.get(pair, {}).items()})
    report = OptimizerReport(
        logical_plan_id=plan.plan_id,
        pipeline_text=print_pipeline(plan),
        policy=policy.describe(),
        sample_size=sample_size,
        input_cardinality=n,
        stats=stats.to_dict(),
        candidates=[
            {"plan_id": c.plan_id,
             "models": {str(i): m for i, m in c.model_assignment().items()},
             **e.to_dict()}
            for c, e in zip(candidates, estimates)
        ],
        chosen_plan_id=chosen.plan_id,
        plans_considered=len(models) ** len(semantic_positions(plan)),
        sample_calls=stats.calls,
    )
    return chosen, report
