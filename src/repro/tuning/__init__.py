"""Tuning controller: sessions, knowledge base, metrics, runner."""

from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.fault_injection import FaultInjectingSimulator, FaultProfile
from repro.tuning.faults import (
    EXHAUSTED,
    FaultEnvelope,
    FaultPolicy,
    MonotonicClock,
    VirtualClock,
)
from repro.tuning.knowledge_base import KnowledgeBase, Observation
from repro.tuning.persistence import (
    append_checkpoint,
    load_checkpoint,
    load_result,
    result_to_dict,
    save_checkpoint,
    save_result,
)
from repro.tuning.metrics import (
    ComparisonSummary,
    confidence_interval,
    final_improvement,
    iteration_mapping,
    summarize_comparison,
    time_to_optimal_iteration,
    time_to_optimal_speedup,
)
from repro.tuning.runner import (
    DEFAULT_ITERATIONS,
    DEFAULT_SEEDS,
    SessionSpec,
    llamatune_factory,
    mean_best_curve,
    run_grid,
    run_spec,
    space_for_version,
)
from repro.tuning.server import (
    ExternalMeasurement,
    ServerProtocolError,
    SessionKey,
    SessionServer,
    SessionStatus,
)
from repro.tuning.session import (
    QuarantinedSessionError,
    TuningResult,
    TuningSession,
)

__all__ = [
    "ComparisonSummary",
    "DEFAULT_ITERATIONS",
    "DEFAULT_SEEDS",
    "EXHAUSTED",
    "EarlyStoppingPolicy",
    "ExternalMeasurement",
    "FaultEnvelope",
    "FaultInjectingSimulator",
    "FaultPolicy",
    "FaultProfile",
    "KnowledgeBase",
    "MonotonicClock",
    "Observation",
    "QuarantinedSessionError",
    "ServerProtocolError",
    "SessionKey",
    "SessionServer",
    "SessionSpec",
    "SessionStatus",
    "TuningResult",
    "TuningSession",
    "VirtualClock",
    "append_checkpoint",
    "confidence_interval",
    "final_improvement",
    "iteration_mapping",
    "llamatune_factory",
    "load_checkpoint",
    "load_result",
    "mean_best_curve",
    "result_to_dict",
    "run_grid",
    "run_spec",
    "save_checkpoint",
    "save_result",
    "space_for_version",
    "summarize_comparison",
    "time_to_optimal_iteration",
    "time_to_optimal_speedup",
]
