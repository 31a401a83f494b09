"""Figure 6: special-value biasing at 5–30% on YCSB-A and YCSB-B.

SMAC over the original 90-knob space, with SVB applied post-suggestion at
different bias levels.  Expected shape: YCSB-B gains substantially (its
hybrid knobs hide the writeback discontinuity), YCSB-A stays roughly flat.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, Scale, format_series
from repro.tuning.runner import (
    SessionSpec,
    llamatune_factory,
    mean_best_curve,
    run_spec,
)

BIAS_LEVELS = (0.05, 0.10, 0.20, 0.30)


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "fig6", "Special-value biasing sweep (YCSB-A, YCSB-B)"
    )
    report.data = {}
    for workload in ("ycsb-a", "ycsb-b"):
        report.add(f"{workload}:")
        finals = {}
        arms = {"No Special Value Biasing": None}
        for bias in BIAS_LEVELS:
            arms[f"SVB={int(bias * 100)}%"] = llamatune_factory(
                projection=None, bias=bias, max_values=None
            )
        for label, adapter in arms.items():
            spec = SessionSpec(
                workload=workload,
                adapter=adapter,
                n_iterations=scale.n_iterations,
            )
            curve = mean_best_curve(
                run_spec(scale.arm(spec), scale.seeds, workers=scale.workers)
            )
            finals[label] = float(curve[-1])
            report.add(format_series(label, curve))
        report.add()
        report.data[workload] = finals
    return report
