"""Figure 3: REMBO vs HeSBO projections (d = 8, 16, 24) on YCSB-A.

Projection-only adapters (no special-value biasing, no bucketization)
against the full-space SMAC baseline.  Expected shape: HeSBO beats the
baseline for every d; REMBO underperforms because clipping pins most
projected points to the facets of the knob space.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, Scale, add_mean_curves
from repro.tuning.runner import llamatune_factory


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "fig3", "SMAC over REMBO/HeSBO projections of the 90-knob space (YCSB-A)"
    )

    arms = {"High-Dim (baseline)": None}
    for kind in ("hesbo", "rembo"):
        for d in (8, 16, 24):
            arms[f"{kind.upper()}-{d}"] = llamatune_factory(
                projection=kind, target_dim=d, bias=0.0, max_values=None
            )
    results = scale.run_sweep(("ycsb-a",), arms)
    finals = add_mean_curves(report, results["ycsb-a"])

    baseline = finals["High-Dim (baseline)"]
    report.add()
    for label, value in finals.items():
        report.add(f"  {label:22s} final {value:9,.0f}  vs baseline {value / baseline - 1.0:+.1%}")
    report.data = finals
    return report
