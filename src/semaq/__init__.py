"""Semantic-operator pipelines with cost-based optimization, an agentic
compute layer, and a similarity-indexed store of derived contexts."""

from .backend import (HttpBackend, LedgerSnapshot, MockBackend, MockRule,
                      MockScript, ModelSpec, UsageLedger, hashing_embed,
                      load_model_catalog)
from .core import (Context, Record, RecordSnapshot, ToolParam, ToolSpec,
                   VectorIndex, context_create, context_derive, context_iterate,
                   context_lookup, context_topk, make_derived_record,
                   make_source_record, record_from_json, record_to_json)
from .errors import (AgentError, BackendError, CapabilityError, ComputeError,
                     ConfigurationError, DataAccessError, EstimationError,
                     MockMissError, OperatorError, PipelineSyntaxError,
                     PolicyInfeasibleError, RunAbortedError, SearchError,
                     SemaqError, StatsError, StoreConflictError, StoreError,
                     ValidationError)
from .lang import (LogicalPlan, make_plan, parse_pipeline, print_pipeline,
                   validate_plan)
from .engine import (ExecutionReport, PhysicalPlan, RunPolicy, bind_plan,
                     pipeline_execute)
from .optimizer import (CostEstimate, MaxQuality, MinCost, OperatorStats,
                        OptimizerReport, Weighted, choose_plan,
                        enumerate_physical_plans, estimate, optimize,
                        parse_policy, prior_stats, sample_stats)
from .store import ContextStore
from .agent import (AgentConfig, AgentResult, AgentRuntime, AgentTrace,
                    FinalAnswer, ToolCall, builtin_tools, make_stage_runner,
                    parse_action, safe_arithmetic, truncate_observation)

__version__ = "0.1.0"

__all__ = [
    "AgentConfig", "AgentError", "AgentResult", "AgentRuntime", "AgentTrace",
    "BackendError", "CapabilityError", "ComputeError", "ConfigurationError",
    "Context", "ContextStore", "CostEstimate", "DataAccessError",
    "EstimationError", "ExecutionReport", "FinalAnswer", "HttpBackend",
    "LedgerSnapshot", "LogicalPlan", "MaxQuality", "MinCost", "MockBackend",
    "MockMissError",
    "MockRule", "MockScript", "ModelSpec", "OperatorError", "OperatorStats",
    "OptimizerReport", "PhysicalPlan", "PipelineSyntaxError",
    "PolicyInfeasibleError", "Record", "RecordSnapshot", "RunAbortedError",
    "RunPolicy", "SearchError", "SemaqError", "StatsError",
    "StoreConflictError", "StoreError", "ToolCall", "ToolParam", "ToolSpec",
    "UsageLedger", "ValidationError", "VectorIndex", "Weighted", "bind_plan",
    "builtin_tools", "choose_plan", "context_create", "context_derive",
    "context_iterate", "context_lookup", "context_topk",
    "enumerate_physical_plans", "estimate", "hashing_embed",
    "load_model_catalog", "make_derived_record", "make_plan",
    "make_source_record", "make_stage_runner", "optimize", "parse_action",
    "parse_pipeline", "parse_policy", "pipeline_execute", "print_pipeline",
    "prior_stats", "record_from_json", "record_to_json", "safe_arithmetic",
    "sample_stats", "truncate_observation", "validate_plan", "__version__",
]
