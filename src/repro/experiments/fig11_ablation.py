"""Figure 11: ablation of LlamaTune's three components.

Arms: vanilla SMAC, HeSBO-16 projection only (Low-Dim), projection + SVB,
and the full pipeline (+ bucketization), on YCSB-A, YCSB-B, and TPC-C.
Expected shape: every variant ≥ the SMAC baseline; SVB adds most of its
value on YCSB-B; bucketization's effect is small either way.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, Scale, add_mean_curves
from repro.tuning.runner import llamatune_factory

WORKLOADS = ("ycsb-a", "ycsb-b", "tpcc")


def _arms():
    return {
        "SMAC": None,
        "Low-Dim": llamatune_factory(bias=0.0, max_values=None),
        "Low-Dim + SVB": llamatune_factory(bias=0.2, max_values=None),
        "LlamaTune (full)": llamatune_factory(bias=0.2, max_values=10_000),
    }


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "fig11", "Ablation of LlamaTune's components (SMAC backend)"
    )
    results = scale.run_sweep(WORKLOADS, _arms())
    report.data = {}
    for workload in WORKLOADS:
        report.add(f"{workload}:")
        finals = add_mean_curves(report, results[workload])
        baseline = finals["SMAC"]
        for label, value in finals.items():
            report.add(
                f"    {label:18s} final {value:9,.0f} ({value / baseline - 1.0:+.1%} vs SMAC)"
            )
        report.add()
        report.data[workload] = finals
    return report
