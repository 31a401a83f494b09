"""Figure 6: special-value biasing at 5–30% on YCSB-A and YCSB-B.

SMAC over the original 90-knob space, with SVB applied post-suggestion at
different bias levels.  Expected shape: YCSB-B gains substantially (its
hybrid knobs hide the writeback discontinuity), YCSB-A stays roughly flat.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, Scale, add_mean_curves
from repro.tuning.runner import llamatune_factory

BIAS_LEVELS = (0.05, 0.10, 0.20, 0.30)
WORKLOADS = ("ycsb-a", "ycsb-b")


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "fig6", "Special-value biasing sweep (YCSB-A, YCSB-B)"
    )
    arms = {"No Special Value Biasing": None}
    for bias in BIAS_LEVELS:
        arms[f"SVB={int(bias * 100)}%"] = llamatune_factory(
            projection=None, bias=bias, max_values=None
        )
    results = scale.run_sweep(WORKLOADS, arms)
    report.data = {}
    for workload in WORKLOADS:
        report.add(f"{workload}:")
        report.data[workload] = add_mean_curves(report, results[workload])
        report.add()
    return report
