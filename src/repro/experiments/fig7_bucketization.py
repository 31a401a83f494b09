"""Figure 7: bucketizing the configuration space (K = 1,000 .. 20,000).

SMAC over the original space vs. bucketized variants (no projection, no
SVB).  Expected shape: bucketized spaces converge at least as fast and
reach comparable or better configurations; effects vary across workloads.
"""

from __future__ import annotations

from repro.core.bucketization import bucketized_fraction
from repro.experiments.common import ExperimentReport, Scale, add_mean_curves
from repro.space.postgres import postgres_v96_space
from repro.tuning.runner import llamatune_factory

BUCKET_LEVELS = (1_000, 5_000, 10_000, 20_000)
WORKLOADS = ("ycsb-a", "ycsb-b")


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "fig7", "Search-space bucketization sweep (YCSB-A, YCSB-B)"
    )
    space = postgres_v96_space()
    for K in BUCKET_LEVELS:
        report.add(
            f"  K={K:>6,}: affects {bucketized_fraction(space, K):.0%} of knobs"
        )
    report.add()

    arms = {"No Bucketization": None}
    for K in BUCKET_LEVELS:
        arms[f"K={K:,}"] = llamatune_factory(
            projection=None, bias=0.0, max_values=K
        )
    results = scale.run_sweep(WORKLOADS, arms)
    report.data = {}
    for workload in WORKLOADS:
        report.add(f"{workload}:")
        report.data[workload] = add_mean_curves(report, results[workload])
        report.add()
    return report
