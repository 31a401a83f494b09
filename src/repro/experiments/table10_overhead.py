"""Table 10: optimizer suggest-time overhead, vanilla vs. LlamaTune.

The paper measures the cumulative time each optimizer spends proposing
configurations over a 100-iteration session (model refits + candidate
scoring; workload execution excluded).  LlamaTune's low-dimensional space
shrinks the surrogate's input, cutting SMAC/GP-BO overhead the most.

Absolute times depend on our from-scratch optimizer implementations and
this machine; the reproduced quantity is the *relative reduction*.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentReport, Scale
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec

OPTIMIZERS = ("smac", "gp-bo", "ddpg")


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "table10", "Optimizer suggest-time overhead and LlamaTune's reduction"
    )
    report.add(
        f"{'Optimizer':10s} {'Baseline (s)':>12s} {'LlamaTune (s)':>13s} {'Reduction':>10s}"
    )
    # One seed suffices: overhead is a property of the algorithm, not the
    # outcome; use the first two seeds and average.
    seeds = scale.seeds[:2]
    for optimizer in OPTIMIZERS:
        base_spec = scale.arm(SessionSpec(
            workload="ycsb-a", optimizer=optimizer, n_iterations=scale.n_iterations
        ))
        lt_spec = scale.arm(SessionSpec(
            workload="ycsb-a",
            optimizer=optimizer,
            adapter=llamatune_factory(),
            n_iterations=scale.n_iterations,
        ))
        # Always sequential, whatever Scale.workers says: this experiment
        # measures per-suggestion wall-clock time, which a wave attributes
        # across its members and concurrent shards would contaminate.
        base_time = sum(
            r.suggest_seconds_total for r in run_spec(base_spec, seeds)
        ) / len(seeds)
        lt_time = sum(
            r.suggest_seconds_total for r in run_spec(lt_spec, seeds)
        ) / len(seeds)
        reduction = 1.0 - lt_time / base_time
        report.add(
            f"{optimizer:10s} {base_time:12.2f} {lt_time:13.2f} {reduction:9.0%}"
        )
        report.data[optimizer] = {
            "baseline_seconds": base_time,
            "llamatune_seconds": lt_time,
            "reduction": reduction,
        }
    return report
