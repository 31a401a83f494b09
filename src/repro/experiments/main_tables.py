"""Shared driver for the paper's headline comparison tables (5, 6, 7, 8, 9).

Each of those tables compares LlamaTune against a vanilla optimizer across
workloads, reporting final-performance improvement and time-to-optimal
speedup with [5%, 95%] confidence intervals.
"""

from __future__ import annotations

from typing import Sequence

from repro.dbms.versions import PostgresVersion, V96
from repro.experiments.common import ExperimentReport, Scale
from repro.tuning.metrics import summarize_comparison
from repro.tuning.runner import SessionSpec, llamatune_factory
from repro.tuning.session import TuningResult

TABLE_HEADER = (
    f"{'Workload':18s} {'Improvement':>9s} {'[5%, 95%] CI':>16s}   "
    f"{'Speedup':>7s} {'[TTO it]':>9s} {'[5%, 95%] CI':>12s}"
)


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
    """Build one headline table — vanilla ``optimizer`` vs.
    LlamaTune(``optimizer``) on every workload, all arms in one grid; also
    return the raw per-workload results so callers can render companion
    figures (e.g. Fig. 9/10 from Table 5)."""
    adapters = {"vanilla": None, "llamatune": llamatune_factory()}
    results = scale.run_arms({
        (workload, arm): SessionSpec(
            workload=workload,
            optimizer=optimizer,
            adapter=adapter,
            objective=objective,
            version=version,
            n_iterations=scale.n_iterations,
            target_rate=(target_rates or {}).get(workload),
            optimizer_kwargs=optimizer_kwargs,
        )
        for workload in workloads
        for arm, adapter in adapters.items()
    })
    report = ExperimentReport(experiment_id, title)
    report.add(TABLE_HEADER)
    raw: dict[str, tuple[list[TuningResult], list[TuningResult]]] = {}
    for workload in workloads:
        baseline_results = results[workload, "vanilla"]
        treatment_results = results[workload, "llamatune"]
        summary = summarize_comparison(
            workload,
            [r.best_curve for r in baseline_results],
            [r.best_curve for r in treatment_results],
            maximize=(objective == "throughput"),
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
