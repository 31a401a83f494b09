"""Reproduction of "LlamaTune: Sample-Efficient DBMS Configuration Tuning"
(Kanellis et al., PVLDB 15(11), 2022).

Quickstart::

    from repro import llamatune_session

    result = llamatune_session("ycsb-a", seed=1, n_iterations=50)
    print(result.best_value)

See ROADMAP.md for the contracts each subsystem keeps (batch API,
suggest side, waves, resilience, multicore, serving, execution backends).
"""

from repro.core import LlamaTuneAdapter, llamatune_adapter
from repro.dbms import PostgresSimulator, V96, V136
from repro.optimizers import OPTIMIZERS, make_optimizer
from repro.space import postgres_v96_space, postgres_v136_space
from repro.tuning import SessionSpec, TuningResult, TuningSession, llamatune_factory
from repro.workloads import WORKLOADS, get_workload

__version__ = "1.0.0"


def llamatune_session(
    workload: str,
    optimizer: str = "smac",
    seed: int = 1,
    n_iterations: int = 100,
    objective: str = "throughput",
    version=V96,
) -> TuningResult:
    """Run one LlamaTune tuning session with the paper's default pipeline
    (HeSBO-16 projection, 20% special-value bias, K=10,000 bucketization)."""
    spec = SessionSpec(
        workload=workload,
        optimizer=optimizer,
        adapter=llamatune_factory(),
        objective=objective,
        version=version,
        n_iterations=n_iterations,
    )
    return spec.build(seed).run()


def baseline_session(
    workload: str,
    optimizer: str = "smac",
    seed: int = 1,
    n_iterations: int = 100,
    objective: str = "throughput",
    version=V96,
) -> TuningResult:
    """Run one vanilla-optimizer session over the full knob space."""
    spec = SessionSpec(
        workload=workload,
        optimizer=optimizer,
        adapter=None,
        objective=objective,
        version=version,
        n_iterations=n_iterations,
    )
    return spec.build(seed).run()


__all__ = [
    "LlamaTuneAdapter",
    "OPTIMIZERS",
    "PostgresSimulator",
    "SessionSpec",
    "TuningResult",
    "TuningSession",
    "V136",
    "V96",
    "WORKLOADS",
    "baseline_session",
    "get_workload",
    "llamatune_adapter",
    "llamatune_factory",
    "llamatune_session",
    "make_optimizer",
    "postgres_v136_space",
    "postgres_v96_space",
    "__version__",
]
