"""Shared driver for the paper's headline comparison tables (5, 6, 7, 8, 9).

Each of those tables compares LlamaTune against a vanilla optimizer across
workloads, reporting final-performance improvement and time-to-optimal
speedup with [5%, 95%] confidence intervals.
"""

from __future__ import annotations

from typing import Sequence

from repro.dbms.versions import PostgresVersion, V96
from repro.experiments.common import ExperimentReport, Scale
from repro.tuning.metrics import ComparisonSummary
from repro.tuning.runner import (
    SessionSpec,
    compare_specs,
    llamatune_factory,
)
from repro.tuning.session import TuningResult

TABLE_HEADER = (
    f"{'Workload':18s} {'Improvement':>9s} {'[5%, 95%] CI':>16s}   "
    f"{'Speedup':>7s} {'[TTO it]':>9s} {'[5%, 95%] CI':>12s}"
)


def compare_on_workload(
    workload: str,
    optimizer: str,
    scale: Scale,
    objective: str = "throughput",
    version: PostgresVersion = V96,
    target_rate: float | None = None,
    optimizer_kwargs: tuple[tuple[str, object], ...] = (),
) -> tuple[ComparisonSummary, list[TuningResult], list[TuningResult]]:
    """Vanilla optimizer vs. LlamaTune(optimizer) on one workload."""
    common = dict(
        workload=workload,
        optimizer=optimizer,
        objective=objective,
        version=version,
        n_iterations=scale.n_iterations,
        target_rate=target_rate,
        optimizer_kwargs=optimizer_kwargs,
    )
    baseline = scale.arm(SessionSpec(adapter=None, **common))
    treatment = scale.arm(SessionSpec(adapter=llamatune_factory(), **common))
    return compare_specs(baseline, treatment, scale.seeds,
                         workers=scale.workers)


def main_table(
    experiment_id: str,
    title: str,
    workloads: Sequence[str],
    optimizer: str,
    scale: Scale,
    objective: str = "throughput",
    version: PostgresVersion = V96,
    target_rates: dict[str, float] | None = None,
    optimizer_kwargs: tuple[tuple[str, object], ...] = (),
) -> tuple[ExperimentReport, dict[str, tuple[list[TuningResult], list[TuningResult]]]]:
    """Build one headline table; also return the raw per-workload results
    so callers can render companion figures (e.g. Fig. 9/10 from Table 5)."""
    report = ExperimentReport(experiment_id, title)
    report.add(TABLE_HEADER)
    raw: dict[str, tuple[list[TuningResult], list[TuningResult]]] = {}
    for workload in workloads:
        summary, baseline_results, treatment_results = compare_on_workload(
            workload,
            optimizer,
            scale,
            objective=objective,
            version=version,
            target_rate=(target_rates or {}).get(workload),
            optimizer_kwargs=optimizer_kwargs,
        )
        report.add(summary.format_row())
        raw[workload] = (baseline_results, treatment_results)
        report.data[workload] = {
            "improvement": summary.improvement_mean,
            "improvement_ci": summary.improvement_ci,
            "speedup": summary.speedup_mean,
            "speedup_ci": summary.speedup_ci,
            "tto_iteration": summary.median_tto_iteration,
        }
    return report, raw
