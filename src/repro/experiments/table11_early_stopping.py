"""Table 11 (Appendix A): early-stopping policies on LlamaTune sessions.

Three (min-improvement, patience) policies stop LlamaTune early; the final
best is compared against a full-budget vanilla-SMAC baseline.  Expected
shape: (1%, 20) keeps near-full gains at ~70 iterations; the impatient
policies stop after ~25-45 iterations with reduced (sometimes negative)
improvements, RS being the most fragile.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentReport, Scale
from repro.experiments.table5_smac import WORKLOADS
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.runner import SessionSpec, llamatune_factory

POLICIES = ((0.005, 10), (0.01, 10), (0.01, 20))


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "table11", "Early-stopping policies (min-improvement, patience)"
    )
    header = f"{'Workload':18s}" + "".join(
        f"  ({int(x * 1000) / 10:g}%, {k}): impr / iters"
        for x, k in POLICIES
    )
    report.add(header)

    specs = {}
    for workload in WORKLOADS:
        specs[workload, None] = SessionSpec(
            workload=workload, n_iterations=scale.n_iterations
        )
        for policy in POLICIES:
            specs[workload, policy] = SessionSpec(
                workload=workload,
                adapter=llamatune_factory(),
                n_iterations=scale.n_iterations,
                early_stopping=EarlyStoppingPolicy(*policy),
            )
    results = scale.run_arms(specs)

    for workload in WORKLOADS:
        baseline = results[workload, None]
        baseline_final = float(np.mean([r.best_value for r in baseline]))
        cells = []
        report.data[workload] = {}
        for min_improvement, patience in POLICIES:
            runs = results[workload, (min_improvement, patience)]
            improvement = float(
                np.mean([r.best_value / baseline_final - 1.0 for r in runs])
            )
            iters = float(
                np.mean(
                    [r.stopped_early_at or scale.n_iterations for r in runs]
                )
            )
            cells.append(f"  {improvement * 100:+6.2f}% / {iters:5.1f}")
            report.data[workload][f"({min_improvement},{patience})"] = {
                "improvement": improvement,
                "iterations": iters,
            }
        report.add(f"{workload:18s}" + "".join(f"{c:>24s}" for c in cells))
    return report
